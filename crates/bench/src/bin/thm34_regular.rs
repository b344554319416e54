//! **E-T3/T4 — Theorems 3 & 4**: the §5 algorithm implements a *regular*
//! wait-free storage, in both the paper-faithful full-history variant and
//! the §5.1 optimized variant.
//!
//! Sweeps adversarial schedules and checks every history for the three
//! regularity clauses; demonstrates (as the paper notes) that regular is
//! strictly weaker than atomic by exhibiting new/old inversions under
//! concurrency; and mutation-tests the regular reader.
//!
//! Expected shape: 0 regularity violations and 0 stalls for both variants;
//! atomicity violations eventually found (regular ≠ atomic); every mutant
//! caught. Run with `cargo run --release -p vrr-bench --bin thm34_regular`.

use vrr_bench::Table;
use vrr_checker::{check_atomicity, check_regularity};
use vrr_core::regular::RegularTuning;
use vrr_core::{MutantRegularProtocol, RegularProtocol, StorageConfig};
use vrr_workload::{grid, regular_corruptor, FaultPlan, LatencyKind, ScheduleParams, SimCase};

fn main() {
    let points = grid(&[1, 2, 3], &[1, 2], 0..30u64);

    let mut table = Table::new(&[
        "variant",
        "runs",
        "reads",
        "regularity violations",
        "stalled",
        "atomicity violations (expected > 0)",
    ]);
    for optimized in [false, true] {
        let protocol = if optimized {
            RegularProtocol::optimized()
        } else {
            RegularProtocol::full()
        };
        let mut runs = 0u64;
        let mut reads = 0u64;
        let mut violations = 0u64;
        let mut stalls = 0u64;
        let mut inversions = 0u64;
        for p in &points {
            let cfg = StorageConfig::optimal(p.t, p.b, 3);
            let faults = match p.attacker {
                None => FaultPlan::random(&cfg, 300, p.seed),
                Some(kind) => FaultPlan::maximal(&cfg, kind, vrr_sim::SimTime::from_ticks(60)),
            };
            let out = SimCase::new(&protocol, cfg)
                .schedule(ScheduleParams::contended(8, 6, 3, p.seed))
                .faults(faults)
                .latency(LatencyKind::LongTail)
                .run();
            runs += 1;
            reads += out.read_rounds.len() as u64;
            stalls += out.stalled_ops as u64;
            if let Err(vs) = check_regularity(&out.history) {
                violations += 1;
                eprintln!("UNEXPECTED regularity violation at {p:?}: {}", vs[0]);
            }
            if check_atomicity(&out.history).is_err() {
                inversions += 1;
            }
        }
        table.row_owned(vec![
            if optimized {
                "regular-opt (§5.1)".into()
            } else {
                "regular (§5)".to_string()
            },
            runs.to_string(),
            reads.to_string(),
            violations.to_string(),
            stalls.to_string(),
            inversions.to_string(),
        ]);
        assert_eq!(violations, 0, "Theorem 3: regularity must hold");
        assert_eq!(stalls, 0, "Theorem 4: wait-freedom must hold");
    }
    table.print("Theorems 3–4: regular storage under adversarial schedules");
    println!(
        "note: atomicity violations are new/old inversions between concurrent-with-write \
         reads — permitted by regular semantics, which is exactly why the paper targets \
         regular rather than atomic storage here."
    );

    // ---- Mutation tests for the regular reader.
    let mutations: Vec<(&str, RegularTuning)> = vec![
        (
            "safe threshold 1 (not b+1)",
            RegularTuning {
                safe_threshold: Some(1),
                ..RegularTuning::default()
            },
        ),
        (
            "invalidate at 2 (not t+b+1)",
            RegularTuning {
                invalid_threshold: Some(2),
                ..RegularTuning::default()
            },
        ),
        (
            "skip round 2 (fast read)",
            RegularTuning {
                skip_round2: true,
                ..RegularTuning::default()
            },
        ),
        (
            "fast read + weak safe",
            RegularTuning {
                skip_round2: true,
                safe_threshold: Some(1),
                ..RegularTuning::default()
            },
        ),
    ];
    let mut mtable = Table::new(&["mutation", "caught by", "detail"]);
    for (name, tuning) in mutations {
        let mut caught: Option<(String, String)> = None;
        'hunt: for kind in vrr_core::attackers::AttackerKind::ALL {
            for seed in 0..60u64 {
                let cfg = StorageConfig::optimal(2, 2, 2);
                let faults = FaultPlan::maximal(&cfg, kind, vrr_sim::SimTime::from_ticks(50));
                let mutant = MutantRegularProtocol {
                    tuning,
                    optimized: false,
                };
                let out = SimCase::new(&mutant, cfg)
                    .schedule(ScheduleParams::contended(6, 8, 2, seed))
                    .faults(faults)
                    .latency(LatencyKind::LongTail)
                    .corruptor(&regular_corruptor)
                    .run();
                if let Err(vs) = check_regularity(&out.history) {
                    caught = Some((
                        "regularity checker".into(),
                        format!("{kind:?} seed {seed}: {}", vs[0]),
                    ));
                    break 'hunt;
                }
                if !out.all_live() {
                    caught = Some((
                        "liveness detector".into(),
                        format!("{kind:?} seed {seed}: {} stalled", out.stalled_ops),
                    ));
                    break 'hunt;
                }
            }
        }
        let (by, detail) = caught.unwrap_or(("NOT CAUGHT".into(), "-".into()));
        mtable.row_owned(vec![name.to_string(), by.clone(), detail]);
        assert_ne!(by, "NOT CAUGHT", "mutation '{name}' slipped through");
    }
    mtable.print("Theorem 3 mutation tests: every broken variant is exposed");
    println!("\nPaper check: Theorems 3–4 hold for both §5 variants. ✔");
}
