//! The impossibility, narrated: why a very robust read cannot be fast.
//!
//! Walks through the paper's Figure-1 construction step by step against a
//! concrete single-round read rule, printing what each run looks like and
//! where safety snaps. Then adds one object and shows the trap no longer
//! closes.
//!
//! Run with `cargo run --example lower_bound_demo`.

use vrr::lowerbound::{
    execute_control, execute_prop1, render_all, BlockPartition, LitePairSpec, ReadRule, Verdict,
};
use vrr_core::regular::RegularTuning;
use vrr_core::StorageConfig;
use vrr_runtime::{GroupSpec, NoDelay, ProtocolKind, ReaderTuning, ShardedStore};

fn main() {
    let (t, b) = (1usize, 1usize);
    let s = 2 * t + 2 * b;
    println!("Setting: t = {t} faulty, b = {b} Byzantine, S = 2t+2b = {s} objects.");
    println!("Blocks: T1 = {{s0}}, T2 = {{s1}}, B1 = {{s2}}, B2 = {{s3}} (Figure 1).\n");
    println!("{}", render_all(&BlockPartition::new(s, t, b)));

    println!("run1: the reader's round-1 message reaches only B1, which replies");
    println!("      from its initial state σ0 (becoming σ1); the reply stays in transit.");
    println!("run2: the writer writes v1 = 42; every message to T1 stays in transit,");
    println!("      so the write completes on B1, B2, T2 — B2 ends in state σ2.");
    println!("run3: the read resumes; T2 is slow. The reader decides from:");
    println!("      B1's pre-write reply, T1's σ0 reply, B2's σ2 reply.");
    println!("run4: same view, but the write REALLY finished first and B1 is lying");
    println!("      (it forged σ1 early and σ0 late). Safety demands the read return 42.");
    println!("run5: same view, but NOTHING was written and B2 is lying (it forged σ2).");
    println!("      Safety demands the read return ⊥.\n");

    let spec = LitePairSpec::new(s, t, b, ReadRule::Masking);
    let report = execute_prop1(&spec, b, 42u64);
    println!("The reader's actual view (object -> (pw, w)):");
    for (obj, (pw, w)) in &report.view {
        println!("      s{obj}: pw = {pw:?}, w = {w:?}");
    }
    match &report.verdict {
        Verdict::Violation {
            returned,
            run4_violated,
            run5_violated,
        } => {
            let shown = match returned {
                Some(v) => format!("{v}"),
                None => "⊥".into(),
            };
            println!("\nThe b+1-corroboration rule returns {shown} on this view — once.");
            if *run4_violated {
                println!("=> run4 is violated: the completed write of 42 is invisible.");
            }
            if *run5_violated {
                println!("=> run5 is violated: a never-written value is returned.");
            }
            println!("Whatever a fast read answers here, one of the runs convicts it. ∎");
        }
        Verdict::NotFast => println!("(the rule refused to answer — then it is not fast)"),
    }

    // The escape hatch: one more object.
    let s1 = s + 1;
    let spec = LitePairSpec::new(s1, t, b, ReadRule::Masking);
    let control = execute_control(&spec, b, 42u64);
    println!("\nNow with S = 2t+2b+1 = {s1}: the extra correct object joins both views,");
    println!("and the views stop being identical:");
    println!(
        "      run4 view size {} vs run5 view size {} — and they differ in content.",
        control.view_run4.len(),
        control.view_run5.len()
    );
    println!(
        "      the same rule answers run4 -> {:?}, run5 -> {:?}: both correct.",
        control.returned_run4.unwrap(),
        control.returned_run5.unwrap()
    );
    assert!(control.is_safe());
    println!("\nConclusion: at S ≤ 2t+2b a read needs a second round-trip — which is");
    println!("exactly what the paper's §4 algorithm spends, and no more.");

    // ── The mutant vs. the sound fast path, side by side ────────────────
    //
    // Two ways to claim a one-round read at the Proposition-1 boundary:
    //   * `skip_round2` — the UNSOUND mutant: always skip round 2. It is
    //     exactly the read rule the construction above convicts.
    //   * `fast_path` — the SOUND fast path: complete in round 1 only when
    //     `fast_read_quorum()` is `Some`, i.e. only above the boundary.
    println!("\n── mutant vs. sound fast path at the boundary ──\n");
    let boundary = StorageConfig::with_objects(s, t, b, 1); // S = 2t+2b
    assert_eq!(boundary.fast_read_quorum(), None);

    let spec = GroupSpec::new(boundary, ProtocolKind::Regular).with_tuning(ReaderTuning::Regular(
        RegularTuning {
            skip_round2: true,
            ..RegularTuning::default()
        },
    ));
    let mutant: ShardedStore<(), u64> =
        ShardedStore::deploy_spec(spec, Box::new(NoDelay), 1, |_shard, _i| None);
    mutant.write((), 42);
    let r = mutant.read(&(), 0).expect("the key is bound");
    println!(
        "S = {s} (= 2t+2b), skip_round2 mutant:  rounds = {}, fast = {} — it",
        r.rounds, r.fast
    );
    println!("      answers in one round here, which is precisely what the runs");
    println!("      above convict. (Fault-free it happens to be right; adversarially");
    println!("      it cannot be — see `thm34_regular` for the conviction.)");

    let sound: ShardedStore<(), u64> =
        ShardedStore::deploy(boundary, ProtocolKind::Regular, Box::new(NoDelay), 1);
    sound.write((), 42);
    let r = sound.read(&(), 0).expect("the key is bound");
    let stats = sound.fast_path_stats();
    println!(
        "S = {s} (= 2t+2b), sound fast path:     rounds = {}, fast = {} — it",
        r.rounds, r.fast
    );
    println!(
        "      refuses to engage below the boundary (hits = {}, fallbacks = {})",
        stats.hits, stats.fallbacks
    );
    assert_eq!(r.rounds, 2);
    assert!(!r.fast);
    assert_eq!((stats.hits, stats.fallbacks), (0, 0));

    let fast_cfg = StorageConfig::fast(t, b, 1); // S = 2t+2b+1
    let fast: ShardedStore<(), u64> =
        ShardedStore::deploy(fast_cfg, ProtocolKind::Regular, Box::new(NoDelay), 1);
    fast.write((), 42);
    let r = fast.read(&(), 0).expect("the key is bound");
    println!(
        "S = {} (= 2t+2b+1), sound fast path:   rounds = {}, fast = {} — one",
        fast_cfg.s, r.rounds, r.fast
    );
    println!("      replica above the boundary buys the one-round read legitimately.");
    assert_eq!(r.rounds, 1);
    assert!(r.fast);
}
