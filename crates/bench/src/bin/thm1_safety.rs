//! **E-T1 — Theorem 1**: the §4 algorithm implements a *safe* storage.
//!
//! Part 1 sweeps random schedules × fault plans × seeds and feeds every
//! history to the safety checker: zero violations expected.
//!
//! Part 2 validates the harness by mutation testing: six deliberately
//! broken reader variants (weakened thresholds, skipped mechanisms) run
//! under targeted attacks, and the checker must catch a violation — or the
//! liveness detector a stall — for each. A mutation that slips through
//! would mean the sweep in part 1 proves nothing.
//!
//! Expected shape (paper): 0 violations for the real protocol; every
//! mutant caught. Run with
//! `cargo run --release -p vrr-bench --bin thm1_safety`.

use vrr_bench::Table;
use vrr_checker::check_safety;
use vrr_core::safe::SafeTuning;
use vrr_core::{MutantSafeProtocol, SafeProtocol, StorageConfig};
use vrr_workload::{grid, safe_corruptor, FaultPlan, LatencyKind, ScheduleParams, SimCase};

fn main() {
    // ---- Part 1: the real protocol under the sweep.
    let points = grid(&[1, 2, 3], &[1, 2, 3], 0..40u64);
    let mut runs = 0u64;
    let mut reads = 0u64;
    let mut violations = 0u64;
    let mut stalls = 0u64;
    for p in &points {
        let cfg = StorageConfig::optimal(p.t, p.b, 2);
        let faults = match p.attacker {
            None => FaultPlan::random(&cfg, 300, p.seed),
            Some(kind) => FaultPlan::maximal(&cfg, kind, vrr_sim::SimTime::from_ticks(50)),
        };
        let out = SimCase::new(&SafeProtocol, cfg)
            .schedule(ScheduleParams::contended(6, 8, 2, p.seed))
            .faults(faults)
            .latency(LatencyKind::LongTail)
            .run();
        runs += 1;
        reads += out.read_rounds.len() as u64;
        stalls += out.stalled_ops as u64;
        if check_safety(&out.history).is_err() {
            violations += 1;
            eprintln!(
                "UNEXPECTED violation at {p:?}: {:?}",
                check_safety(&out.history)
            );
        }
    }
    let mut sweep = Table::new(&[
        "runs",
        "completed reads",
        "safety violations",
        "stalled ops",
    ]);
    sweep.row_owned(vec![
        runs.to_string(),
        reads.to_string(),
        violations.to_string(),
        stalls.to_string(),
    ]);
    sweep.print("Theorem 1 sweep: safe storage under adversarial schedules");
    assert_eq!(
        violations, 0,
        "Theorem 1: the safe storage must never violate safety"
    );
    assert_eq!(
        stalls, 0,
        "Theorem 2 side-effect: no stalled ops in the sweep"
    );

    // ---- Part 2: mutation testing.
    //
    // The third column says whether the randomized hunt is *expected* to
    // expose the mutant. The conflict check is the one mechanism it cannot
    // reach: it only protects liveness, and only in the Lemma-3 case (2.b)
    // interleaving, where a Byzantine object must forge, during the read's
    // first round, the exact ⟨tsval, tsrarray⟩ tuple a concurrent write is
    // *about to* assemble — the adversary needs hindsight no reactive
    // attacker has. Its row documents the expectation instead of asserting
    // a catch; every safety-relevant mutation must be caught.
    let mutations: Vec<(&str, SafeTuning, bool)> = vec![
        (
            "safe threshold b (not b+1)",
            SafeTuning {
                safe_threshold: Some(1),
                ..SafeTuning::default()
            },
            true,
        ),
        (
            "eliminate at b+1 (not t+b+1)",
            SafeTuning {
                elim_threshold: Some(2),
                ..SafeTuning::default()
            },
            true,
        ),
        (
            "skip round 2 (fast read)",
            SafeTuning {
                skip_round2: true,
                ..SafeTuning::default()
            },
            true,
        ),
        (
            "no conflict check (liveness-only; Lemma 3 case 2.b)",
            SafeTuning {
                conflict_check: false,
                ..SafeTuning::default()
            },
            false,
        ),
        (
            "no conflict check + weak safe",
            SafeTuning {
                conflict_check: false,
                safe_threshold: Some(1),
                ..SafeTuning::default()
            },
            true,
        ),
        (
            "fast read + weak safe",
            SafeTuning {
                skip_round2: true,
                safe_threshold: Some(1),
                ..SafeTuning::default()
            },
            true,
        ),
    ];

    let mut table = Table::new(&["mutation", "caught by", "detail"]);
    for (name, tuning, must_catch) in mutations {
        let mut caught: Option<(String, String)> = None;
        // Hunt across attackers and seeds until the mutant is exposed.
        'hunt: for kind in vrr_core::attackers::AttackerKind::ALL {
            for seed in 0..60u64 {
                let cfg = StorageConfig::optimal(2, 2, 2);
                let faults = FaultPlan::maximal(&cfg, kind, vrr_sim::SimTime::from_ticks(50));
                let out = SimCase::new(&MutantSafeProtocol(tuning), cfg)
                    .schedule(ScheduleParams::contended(6, 8, 2, seed))
                    .faults(faults)
                    .latency(LatencyKind::LongTail)
                    .corruptor(&safe_corruptor)
                    .run();
                if let Err(vs) = check_safety(&out.history) {
                    caught = Some((
                        "safety checker".into(),
                        format!("{:?} seed {seed}: {}", kind, vs[0]),
                    ));
                    break 'hunt;
                }
                if !out.all_live() {
                    caught = Some((
                        "liveness detector".into(),
                        format!("{:?} seed {seed}: {} stalled ops", kind, out.stalled_ops),
                    ));
                    break 'hunt;
                }
            }
        }
        let (by, detail) = caught.unwrap_or((
            "not caught here".into(),
            "expected: needs the omniscient interleaving — see \
             tests/conflict_check_liveness.rs, which blocks this mutant forever"
                .into(),
        ));
        table.row_owned(vec![name.to_string(), by.clone(), detail]);
        if must_catch {
            assert_ne!(
                by, "not caught here",
                "mutation '{name}' slipped through all checks"
            );
        }
    }
    table.print("Theorem 1 mutation tests: every safety-relevant mutant is exposed");
    println!("\nPaper check: Theorem 1 holds (0 violations) and the oracle has teeth. ✔");
}
