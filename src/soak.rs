//! The workspace soak: the combined-fault scenario on *both* harnesses.
//!
//! [`vrr_workload::soak::run_sim_soak`] (re-exported here) drives the
//! deterministic simulator through partitions, heals, reordering, a crashed
//! reader and a Byzantine suffix liar at once. [`run_runtime_soak`] is the
//! thread-runtime half: the same protocol configuration — §5.1-optimized
//! regular protocol, reader-ack–capped GC, fast sizing `S = 2t + 2b + 1`,
//! one Truncator occupying the full `b = 1` budget — under a jittering link
//! policy that delays a deterministic quarter of all messages, so real
//! thread interleavings and reordered deliveries hit the same code paths
//! the simulator scripts.
//!
//! Both halves self-check with the same oracles: the recorded operation
//! history must be regular ([`vrr_checker::check_regularity`]), every
//! honest object's history must sit at or below the GC cap, and one
//! [`vrr_core::metrics::Registry`] snapshot per harness must satisfy the
//! cross-metric relations of
//! [`vrr_workload::soak::check_metrics_relations`]. CI runs
//! `examples/soak.rs`, which executes both halves in release mode and
//! fails on any violation.

use std::time::Duration;

use vrr_checker::{check_regularity, OpHistory};
use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::{names, MetricsSink};
use vrr_core::regular::HistoryRetention;
use vrr_core::{Msg, StorageConfig};
use vrr_runtime::{GroupSpec, LinkAction, LinkPolicy, ProtocolKind, ShardedStore};
use vrr_sim::ProcessId;
pub use vrr_workload::soak::{
    check_metrics_relations, run_sim_soak, MetricsExpectations, SoakParams, SoakReport,
};

/// Value forged by the runtime soak's Byzantine object — never written, so
/// any read returning it is a violation the checker flags.
const FORGED: u64 = 0xBAD_F00D;

/// Deterministic link jitter: delays every fourth message (by LCG coin) by
/// 200µs, enough to reorder deliveries across the runtime's worker threads
/// without tripping operation timeouts.
struct SoakJitter {
    state: u64,
}

impl LinkPolicy<Msg<u64>> for SoakJitter {
    fn action(&mut self, _from: ProcessId, _to: ProcessId, _msg: &Msg<u64>) -> LinkAction {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (self.state >> 33).is_multiple_of(4) {
            LinkAction::DeliverAfter(Duration::from_micros(200))
        } else {
            LinkAction::Deliver
        }
    }
}

/// Runs the combined-fault soak on the thread runtime and checks every
/// invariant, returning the full report (like
/// [`run_sim_soak`], it never panics on a violation — callers decide
/// whether to assert on [`SoakReport::is_clean`]).
///
/// Operations are sequential and blocking, so regularity degenerates to
/// "every read returns the last completed write"; invocation/completion
/// times in the recorded history are logical step numbers.
pub fn run_runtime_soak(params: SoakParams) -> SoakReport {
    // Fast sizing S = 5: the fast path is armed, so hits + fallbacks must
    // account for every read. The Truncator at the last index occupies the
    // whole fault budget (t = b = 1), so no additional crash is injected.
    let cfg = StorageConfig::fast(1, 1, 2);
    let spec = GroupSpec::new(cfg, ProtocolKind::RegularOptimized)
        .with_retention(HistoryRetention::reader_ack_capped(cfg.readers, params.cap));
    let storage: ShardedStore<(), u64> = ShardedStore::deploy_spec(
        spec,
        Box::new(SoakJitter { state: params.seed }),
        1,
        |_shard, i| (i == cfg.s - 1).then(|| AttackerKind::Truncator.build_regular(cfg, FORGED)),
    );

    let mut history = OpHistory::new();
    let mut violations = Vec::new();
    let mut step = 0u64;
    for i in 0..params.iters {
        let seq = i + 1;
        let value = seq * 10;
        storage.write((), value);
        history.push_write(seq, value, step, Some(step + 1));
        step += 2;

        let j = (i % cfg.readers as u64) as usize;
        let rep = storage.read(&(), j).expect("the key is bound");
        history.push_read(j, rep.ts.0, rep.value, step, Some(step + 1));
        step += 2;
        if rep.value != Some(value) {
            violations.push(format!(
                "runtime read {i} at reader {j} returned {:?}, expected Some({value})",
                rep.value
            ));
        }
    }

    if let Err(e) = check_regularity(&history) {
        violations.push(format!("runtime regularity violated: {e:?}"));
    }

    // The runtime snapshot carries op/executor/fast-path/history metrics;
    // the fault script is the driver's knowledge, so the driver folds its
    // own script counters in — exactly what the sim scenario does.
    let mut metrics = storage.metrics_snapshot();

    // The snapshot's history gauges skip the Byzantine index, so every
    // reported length is an honest object bound by the GC cap. (The strict
    // `history_lens()` accessor would probe the liar and panic.)
    let max_history_len = metrics
        .gauge_values(names::OBJECT_HISTORY_LEN)
        .into_iter()
        .max()
        .unwrap_or(0) as usize;
    if max_history_len > params.cap {
        violations.push(format!(
            "runtime history not flat: max len {max_history_len} exceeds cap {}",
            params.cap
        ));
    }
    metrics.counter_add(names::SCENARIO_BYZANTINE, &[], 1);
    check_metrics_relations(
        &metrics,
        &mut violations,
        MetricsExpectations {
            writes: params.iters,
            reads: params.iters,
            partitions: 0,
            heals: 0,
            crashes: 0,
            byzantine: 1,
            history_cap: Some(params.cap as u64),
        },
    );

    SoakReport {
        params,
        history,
        metrics,
        max_history_len,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_quick_soak_is_clean() {
        let report = run_runtime_soak(SoakParams::quick(2006));
        assert!(
            report.is_clean(),
            "runtime soak violations: {:#?}",
            report.violations
        );
        assert!(report.max_history_len > 0, "histories never observed");
        let prom = report.metrics.to_prometheus();
        assert!(prom.contains("vrr_reader_fast_hits_total"));
        assert!(prom.contains("vrr_executor_commands_total"));
    }
}
