//! **E-P2 — Proposition 2**: the safe storage of §4 is optimally resilient
//! (`S = 2t + b + 1`) and completes every READ and WRITE in at most two
//! communication round-trips, against every attacker and schedule we can
//! throw at it.
//!
//! Sweeps `(t, b)` budgets × attacker behaviours × schedule seeds in the
//! deterministic simulator and reports the worst-case and average round
//! counts per operation type.
//!
//! Expected shape (paper): the "max rounds" columns read exactly 2
//! everywhere, for both operation types — matching the tight bound.
//! Run with `cargo run --release -p vrr-bench --bin prop2_rounds`.

use vrr_bench::{f2, Table};
use vrr_core::{RegularProtocol, SafeProtocol, StorageConfig};
use vrr_workload::{grid, FaultPlan, LatencyKind, ScheduleParams, SimCase};

fn main() {
    let seeds = 0..25u64;
    let points = grid(&[1, 2, 3], &[1, 2, 3], seeds);
    println!(
        "sweep points: {} (budgets × attackers × seeds)",
        points.len()
    );

    let mut table = Table::new(&[
        "protocol",
        "t",
        "b",
        "S",
        "attacker",
        "runs",
        "reads",
        "max rd rounds",
        "avg rd rounds",
        "max wr rounds",
        "stalled",
    ]);

    // Aggregate per (t, b, attacker) over seeds:
    // (runs, reads, max read rounds, read-round sum, max write rounds, stalled ops).
    type AggKey = (usize, usize, String);
    type AggStats = (u64, u64, u32, u64, u32, u64);

    for protocol_name in ["safe", "regular"] {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<AggKey, AggStats> = BTreeMap::new();
        for p in &points {
            let cfg = StorageConfig::optimal(p.t, p.b, 2);
            let params = ScheduleParams::contended(6, 6, 2, p.seed);
            let faults = match p.attacker {
                None => FaultPlan::none(),
                Some(kind) => FaultPlan::maximal(&cfg, kind, vrr_sim::SimTime::from_ticks(30)),
            };
            let latency = LatencyKind::Uniform(1, 8);
            let out = match protocol_name {
                "safe" => SimCase::new(&SafeProtocol, cfg)
                    .schedule(params)
                    .faults(faults)
                    .latency(latency)
                    .run(),
                _ => SimCase::new(&RegularProtocol::full(), cfg)
                    .schedule(params)
                    .faults(faults)
                    .latency(latency)
                    .run(),
            };
            let key = (
                p.t,
                p.b,
                p.attacker.map_or("none".to_string(), |k| format!("{k:?}")),
            );
            let e = agg.entry(key).or_insert((0, 0, 0, 0, 0, 0));
            e.0 += 1; // runs
            e.1 += out.read_rounds.len() as u64;
            e.2 = e.2.max(out.max_read_rounds());
            e.3 += out.read_rounds.iter().map(|&r| r as u64).sum::<u64>();
            e.4 = e.4.max(out.max_write_rounds());
            e.5 += out.stalled_ops as u64;
        }
        for ((t, b, attacker), (runs, reads, max_rd, sum_rd, max_wr, stalled)) in agg {
            let cfg = StorageConfig::optimal(t, b, 2);
            table.row_owned(vec![
                protocol_name.to_string(),
                t.to_string(),
                b.to_string(),
                cfg.s.to_string(),
                attacker,
                runs.to_string(),
                reads.to_string(),
                max_rd.to_string(),
                f2(sum_rd as f64 / reads.max(1) as f64),
                max_wr.to_string(),
                stalled.to_string(),
            ]);
            assert_eq!(max_rd, 2, "Proposition 2: reads must use exactly 2 rounds");
            assert!(max_wr <= 2, "writes must use at most 2 rounds");
            assert_eq!(stalled, 0, "wait-freedom: no stalled operations");
        }
    }

    table.print("Proposition 2: rounds per operation at optimal resilience S = 2t+b+1");
    println!(
        "\nPaper check: worst-case READ rounds = 2 and WRITE rounds = 2 across the \
         entire sweep; no operation stalled. ✔"
    );
}
