//! A storage-aware scenario harness: one deployed register protocol under a
//! scripted fault scenario, with every operation metered.
//!
//! [`StorageScenario`] glues three layers together:
//!
//! * a [`vrr_sim::Scenario`] (seeded world + fault script: partitions,
//!   heals, lossy links, timed crashes),
//! * a deployed [`RegisterProtocol`] (objects, writer, readers),
//! * a [`metrics::Registry`] that records every operation's rounds and
//!   latency under the canonical `vrr_*` names.
//!
//! Tests that used to hand-wire a `World`, deploy, corrupt an object,
//! install hold rules and drive `run_read` now say what they mean:
//!
//! ```
//! use vrr_core::{RegularProtocol, StorageConfig, StorageScenario};
//! use vrr_core::attackers::AttackerKind;
//!
//! let cfg = StorageConfig::optimal(1, 1, 2); // S = 4: t = 1, b = 1
//! let mut sc = StorageScenario::deploy(RegularProtocol::optimized(), cfg, 42);
//! sc.attack_object(0, AttackerKind::Inflator, 0xBAD_u64);
//! sc.write(7);
//! assert_eq!(sc.read(0).value, Some(7)); // the liar cannot win
//!
//! let snapshot = sc.metrics_snapshot();
//! assert!(snapshot.to_prometheus().contains("vrr_reader_rounds_count 1"));
//! ```
//!
//! The same snapshot shape — identical metric names — is produced by
//! `vrr-runtime`'s `ShardedStore::metrics_snapshot()`, so assertions and
//! dashboards carry over between the simulator and the thread runtime.

use std::marker::PhantomData;

use vrr_sim::{Automaton, LatencyModel, ProcessId, Quiescence, RuleId, Scenario, SimTime, World};

use crate::attackers::AttackerKind;
use crate::config::StorageConfig;
use crate::harness::{Deployment, ReadReport, RegisterProtocol, WriteReport, OP_STEP_LIMIT};
use crate::metrics::{self, MetricsSink, Registry};
use crate::safe::FastPathStats;
use crate::types::Value;

/// A deployed register protocol under a scripted, seeded fault scenario.
///
/// See the module-level docs above for the layering. All fault-script methods
/// chain (`&mut self -> &mut Self`); operations ([`write`], [`read`]) drive
/// the scenario until the operation completes, firing any scripted events
/// that come due on the way.
///
/// [`write`]: StorageScenario::write
/// [`read`]: StorageScenario::read
#[derive(Debug)]
pub struct StorageScenario<V: Value, P: RegisterProtocol<V>> {
    protocol: P,
    scenario: Scenario<P::Msg>,
    dep: Deployment,
    ops: Registry,
    _marker: PhantomData<V>,
}

impl<V: Value, P: RegisterProtocol<V>> StorageScenario<V, P> {
    /// Deploys `protocol` at sizing `cfg` into a fresh world seeded with
    /// `seed`, and starts it.
    pub fn deploy(protocol: P, cfg: StorageConfig, seed: u64) -> Self {
        let mut scenario = Scenario::seed(seed);
        let dep = protocol.deploy(cfg, scenario.world_mut());
        scenario.start();
        StorageScenario {
            protocol,
            scenario,
            dep,
            ops: Registry::new(),
            _marker: PhantomData,
        }
    }

    /// Replaces the latency model of the underlying world.
    pub fn latency(&mut self, model: impl LatencyModel<P::Msg> + 'static) -> &mut Self {
        self.scenario.latency(model);
        self
    }

    // ---- topology accessors ----------------------------------------------

    /// The deployment (object/writer/reader process ids).
    pub fn dep(&self) -> &Deployment {
        &self.dep
    }

    /// The sizing this scenario was deployed with.
    pub fn cfg(&self) -> StorageConfig {
        self.dep.cfg
    }

    /// The protocol under test.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Process id of base object `idx`.
    pub fn object(&self, idx: usize) -> ProcessId {
        self.dep.objects[idx]
    }

    /// Process id of reader `j`.
    pub fn reader(&self, j: usize) -> ProcessId {
        self.dep.readers[j]
    }

    /// Process id of the writer.
    pub fn writer(&self) -> ProcessId {
        self.dep.writer
    }

    /// The underlying world, read-only.
    pub fn world(&self) -> &World<P::Msg> {
        self.scenario.world()
    }

    /// The underlying world (see [`Scenario::world_mut`] for the caveat).
    pub fn world_mut(&mut self) -> &mut World<P::Msg> {
        self.scenario.world_mut()
    }

    /// The underlying fault scenario.
    pub fn scenario_mut(&mut self) -> &mut Scenario<P::Msg> {
        &mut self.scenario
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.scenario.now()
    }

    // ---- fault script ------------------------------------------------------

    /// Partitions the given base objects away from everything else,
    /// immediately (see [`Scenario::partition`]).
    pub fn partition_objects(&mut self, idxs: &[usize]) -> &mut Self {
        let group: Vec<ProcessId> = idxs.iter().map(|&i| self.dep.objects[i]).collect();
        self.scenario.partition(vec![group]);
        self
    }

    /// Schedules a partition of the given base objects for time `at`.
    pub fn partition_objects_at(&mut self, at: SimTime, idxs: &[usize]) -> &mut Self {
        let group: Vec<ProcessId> = idxs.iter().map(|&i| self.dep.objects[i]).collect();
        self.scenario.partition_at(at, vec![group]);
        self
    }

    /// Heals the current partition immediately (see [`Scenario::heal_now`]).
    pub fn heal_now(&mut self) -> &mut Self {
        self.scenario.heal_now();
        self
    }

    /// Schedules a heal for time `at` (see [`Scenario::heal_at`]).
    pub fn heal_at(&mut self, at: SimTime) -> &mut Self {
        self.scenario.heal_at(at);
        self
    }

    /// Makes the directed link `from → to` lossy (see
    /// [`Scenario::drop_rate`] for the soundness caveat).
    pub fn drop_rate(&mut self, from: ProcessId, to: ProcessId, p: f64) -> &mut Self {
        self.scenario.drop_rate(from, to, p);
        self
    }

    /// Makes the directed link `from → to` reorder messages (see
    /// [`Scenario::reorder`]).
    pub fn reorder(&mut self, from: ProcessId, to: ProcessId, p: f64) -> &mut Self {
        self.scenario.reorder(from, to, p);
        self
    }

    /// Crashes base object `idx` immediately.
    pub fn crash_object(&mut self, idx: usize) -> &mut Self {
        let pid = self.dep.objects[idx];
        self.scenario.crash_now(pid);
        self
    }

    /// Schedules a crash of base object `idx` at time `at`.
    pub fn crash_object_at(&mut self, idx: usize, at: SimTime) -> &mut Self {
        let pid = self.dep.objects[idx];
        self.scenario.crash(pid, at);
        self
    }

    /// Crashes reader `j` immediately (a reader that stops participating —
    /// the case reader-ack GC's cap exists for).
    pub fn crash_reader(&mut self, j: usize) -> &mut Self {
        let pid = self.dep.readers[j];
        self.scenario.crash_now(pid);
        self
    }

    /// Replaces base object `idx` with an arbitrary Byzantine automaton.
    pub fn byzantine_object(
        &mut self,
        idx: usize,
        automaton: Box<dyn Automaton<P::Msg>>,
    ) -> &mut Self {
        let pid = self.dep.objects[idx];
        self.scenario.byzantine(pid, automaton);
        self
    }

    /// Replaces base object `idx` with attacker `kind` from the catalogue,
    /// forging `forged` where the attack needs a fake value.
    ///
    /// # Panics
    ///
    /// Panics if the protocol has no attacker catalogue
    /// (see [`RegisterProtocol::corruptor`]).
    pub fn attack_object(&mut self, idx: usize, kind: AttackerKind, forged: V) -> &mut Self {
        let automaton = self
            .protocol
            .corruptor(kind, self.dep.cfg, forged)
            .unwrap_or_else(|| panic!("{} has no attacker catalogue", self.protocol.name()));
        self.byzantine_object(idx, automaton)
    }

    /// Holds every message on the directed link `from → to`; returns the
    /// rule handle for [`StorageScenario::remove_rule`].
    pub fn hold_link(&mut self, from: ProcessId, to: ProcessId) -> RuleId {
        self.scenario.hold_link(from, to)
    }

    /// Removes an adversary rule.
    pub fn remove_rule(&mut self, id: RuleId) -> bool {
        self.scenario.remove_rule(id)
    }

    /// Releases every held message.
    pub fn release_all(&mut self) -> usize {
        self.scenario.release_all()
    }

    // ---- drivers -----------------------------------------------------------

    /// Advances simulation time by `ticks`, firing scripted events on the
    /// way.
    pub fn fast_forward(&mut self, ticks: u64) -> &mut Self {
        self.scenario.fast_forward(ticks);
        self
    }

    /// Drives the run until everything drains (see
    /// [`Scenario::run_until_idle`]).
    pub fn run_until_idle(&mut self, limit: u64) -> Quiescence {
        self.scenario.run_until_idle(limit)
    }

    /// Invokes `WRITE(value)` and drives the scenario until it completes,
    /// recording rounds and latency metrics.
    ///
    /// # Panics
    ///
    /// Panics if the write does not complete within [`OP_STEP_LIMIT`]
    /// scenario steps — a wait-freedom violation unless the fault script
    /// cut the writer off from a quorum.
    pub fn write(&mut self, value: V) -> WriteReport {
        let invoked = self.scenario.now().ticks();
        let op = self
            .protocol
            .invoke_write(&self.dep, self.scenario.world_mut(), value);
        let (protocol, dep) = (&self.protocol, &self.dep);
        let done = self.scenario.run_until(
            |w| protocol.write_outcome(dep, w, op).is_some(),
            OP_STEP_LIMIT,
        );
        assert!(done, "WRITE failed to complete (wait-freedom violation?)");
        let report = self
            .protocol
            .write_outcome(&self.dep, self.scenario.world(), op)
            .expect("just completed");
        self.ops
            .observe(metrics::names::WRITER_ROUNDS, &[], u64::from(report.rounds));
        self.ops.observe(
            metrics::names::WRITE_LATENCY,
            &[],
            self.scenario.now().ticks() - invoked,
        );
        report
    }

    /// Invokes `READ()` at reader `j` and drives the scenario until it
    /// completes, recording rounds and latency metrics.
    ///
    /// # Panics
    ///
    /// Panics if the read does not complete within [`OP_STEP_LIMIT`]
    /// scenario steps (see [`StorageScenario::write`]).
    pub fn read(&mut self, j: usize) -> ReadReport<V> {
        let invoked = self.scenario.now().ticks();
        let op = self
            .protocol
            .invoke_read(&self.dep, self.scenario.world_mut(), j);
        let (protocol, dep) = (&self.protocol, &self.dep);
        let done = self.scenario.run_until(
            |w| protocol.read_outcome(dep, w, j, op).is_some(),
            OP_STEP_LIMIT,
        );
        assert!(done, "READ failed to complete (wait-freedom violation?)");
        let report = self
            .protocol
            .read_outcome(&self.dep, self.scenario.world(), j, op)
            .expect("just completed");
        self.ops
            .observe(metrics::names::READER_ROUNDS, &[], u64::from(report.rounds));
        self.ops.observe(
            metrics::names::READ_LATENCY,
            &[],
            self.scenario.now().ticks() - invoked,
        );
        report
    }

    // ---- observability -------------------------------------------------------

    /// Aggregated fast-path counters, if the protocol has a fast path.
    pub fn fast_path_stats(&self) -> Option<FastPathStats> {
        self.protocol
            .fast_path_stats(&self.dep, self.scenario.world())
    }

    /// Per-object stored history lengths, if the protocol keeps histories
    /// (Byzantine-replaced objects are skipped).
    pub fn history_lens(&self) -> Option<Vec<usize>> {
        self.protocol.history_lens(&self.dep, self.scenario.world())
    }

    /// The largest stored history across this deployment's honest objects
    /// (0 if the protocol keeps no histories).
    pub fn max_history_len(&self) -> usize {
        self.history_lens()
            .map(|lens| lens.into_iter().max().unwrap_or(0))
            .unwrap_or(0)
    }

    /// One deterministic snapshot of everything observable about this run:
    /// operation rounds/latency histograms, network counters, the fault
    /// script, fast-path counters and per-object history lengths — all
    /// under the canonical `vrr_*` names ([`metrics::names`]).
    pub fn metrics_snapshot(&self) -> Registry {
        let mut reg = self.ops.clone();
        metrics::record_net_stats(&mut reg, &self.scenario.net_stats());
        metrics::record_scenario_stats(&mut reg, &self.scenario.stats());
        reg.gauge_set(
            metrics::names::SCENARIO_TIME,
            &[],
            self.scenario.now().ticks(),
        );
        reg.gauge_set(
            metrics::names::SCENARIO_HELD_MSGS,
            &[],
            self.scenario.world().held().len() as u64,
        );
        if let Some(stats) = self.fast_path_stats() {
            metrics::record_fast_path(&mut reg, &stats);
        }
        if let Some(lens) = self.history_lens() {
            metrics::record_history_lens(&mut reg, None, &lens);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{RegularProtocol, SafeProtocol};
    use crate::metrics::names;

    #[test]
    fn deploy_write_read_records_metrics() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let mut sc = StorageScenario::deploy(RegularProtocol::optimized(), cfg, 7);
        sc.write(11u64);
        sc.write(22u64);
        let r = sc.read(0);
        assert_eq!(r.value, Some(22));
        let snap = sc.metrics_snapshot();
        assert_eq!(
            snap.histogram(names::WRITER_ROUNDS, &[]).unwrap().count(),
            2
        );
        assert_eq!(
            snap.histogram(names::READER_ROUNDS, &[]).unwrap().count(),
            1
        );
        assert!(snap.histogram(names::READ_LATENCY, &[]).unwrap().sum() > 0);
        assert!(snap.counter(names::NET_SENT, &[]) > 0);
        // At optimal sizing there is no fast path, but the counters exist.
        assert_eq!(snap.counter(names::READER_FAST_HITS, &[]), 0);
        assert_eq!(snap.gauge_values(names::OBJECT_HISTORY_LEN).len(), cfg.s);
    }

    #[test]
    fn attack_object_uses_the_protocol_catalogue() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut sc = StorageScenario::deploy(SafeProtocol, cfg, 3);
        sc.attack_object(1, AttackerKind::Inflator, 0xBAD_u64);
        sc.write(5u64);
        assert_eq!(sc.read(0).value, Some(5));
        let snap = sc.metrics_snapshot();
        assert_eq!(snap.counter(names::SCENARIO_BYZANTINE, &[]), 1);
        // Safe storage keeps no histories.
        assert!(sc.history_lens().is_none());
    }

    #[test]
    fn partition_blocks_and_heal_unblocks_a_read() {
        // Fast sizing S = 5 (t = b = 1): a read needs S - t = 4 replies, so
        // partitioning two objects away stalls it until the heal fires.
        let cfg = StorageConfig::fast(1, 1, 1);
        let mut sc = StorageScenario::deploy(RegularProtocol::optimized(), cfg, 9);
        sc.write(1u64);
        sc.partition_objects(&[0, 1])
            .heal_at(SimTime::from_ticks(500));
        let r = sc.read(0);
        assert_eq!(r.value, Some(1));
        assert!(
            sc.now() >= SimTime::from_ticks(500),
            "the read must have waited for the heal"
        );
        let snap = sc.metrics_snapshot();
        assert_eq!(snap.counter(names::SCENARIO_PARTITIONS, &[]), 1);
        assert_eq!(snap.counter(names::SCENARIO_HEALS, &[]), 1);
    }

    #[test]
    fn fast_path_hits_are_exported() {
        let cfg = StorageConfig::fast(1, 1, 1);
        let mut sc = StorageScenario::deploy(RegularProtocol::optimized(), cfg, 5);
        sc.write(4u64);
        let r = sc.read(0);
        assert!(r.fast, "quiet read at fast sizing must take one round");
        let snap = sc.metrics_snapshot();
        assert_eq!(snap.counter(names::READER_FAST_HITS, &[]), 1);
        assert_eq!(snap.counter(names::READER_FAST_FALLBACKS, &[]), 0);
        assert_eq!(
            snap.histogram(names::READER_ROUNDS, &[])
                .unwrap()
                .cumulative_le(1),
            1
        );
    }
}
