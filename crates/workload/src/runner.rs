//! The scenario runner: executes a [`Schedule`] against any register
//! protocol under a [`FaultPlan`], producing a checkable operation history,
//! round-count statistics and a metrics snapshot.
//!
//! The entry point is [`SimCase`] — a builder that owns the recurring test
//! shape (sizing + schedule + faults + latency + optional scripted
//! partitions). It compiles down to [`vrr_sim::Scenario`], so scripted
//! partitions and heals fire while operations are in flight.

use vrr_checker::OpHistory;
use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::{self, MetricsSink, Registry};
use vrr_core::{Msg, RegisterProtocol, StorageConfig};
use vrr_sim::{Automaton, LongTail, NetStats, Scenario, SimTime, Uniform};

use crate::faults::FaultPlan;
use crate::schedule::{generate, PlannedOp, Schedule, ScheduleParams};

/// Which latency model a run uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyKind {
    /// Every message takes one tick (synchronous-looking).
    Unit,
    /// Uniform random delay in `[min, max]`.
    Uniform(u64, u64),
    /// Mostly-fast with a heavy tail (asynchrony stress).
    LongTail,
}

impl LatencyKind {
    fn install<M: vrr_sim::SimMessage>(self, scenario: &mut Scenario<M>) {
        match self {
            LatencyKind::Unit => scenario.latency(vrr_sim::Fixed::UNIT),
            LatencyKind::Uniform(min, max) => scenario.latency(Uniform::new(min, max)),
            LatencyKind::LongTail => scenario.latency(LongTail::new(1, 0.2, 50)),
        };
    }
}

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The operation history (checker input). Stalled operations appear
    /// with `completed_at = None`.
    pub history: OpHistory<u64>,
    /// Rounds used by each completed write, in completion order.
    pub write_rounds: Vec<u32>,
    /// Rounds used by each completed read, in completion order.
    pub read_rounds: Vec<u32>,
    /// Operations that never completed (wait-freedom violations when the
    /// fault plan is within budget).
    pub stalled_ops: usize,
    /// Network counters.
    pub net: NetStats,
    /// The run's metrics snapshot under the canonical `vrr_*` names:
    /// rounds/latency histograms, network and fault-script counters,
    /// fast-path counters and history-length gauges
    /// (see [`vrr_core::metrics::names`]).
    pub metrics: Registry,
}

impl RunOutcome {
    /// Largest read round count (0 if no reads completed).
    pub fn max_read_rounds(&self) -> u32 {
        self.read_rounds.iter().copied().max().unwrap_or(0)
    }

    /// Largest write round count (0 if no writes completed).
    pub fn max_write_rounds(&self) -> u32 {
        self.write_rounds.iter().copied().max().unwrap_or(0)
    }

    /// Whether every invoked operation completed.
    pub fn all_live(&self) -> bool {
        self.stalled_ops == 0
    }
}

/// Builds an attacker automaton for a protocol's message type.
pub type Corruptor<M> = dyn Fn(usize, AttackerKind, StorageConfig) -> Box<dyn Automaton<M>>;

/// The standard corruptor for the paper's safe protocol.
pub fn safe_corruptor(
    idx: usize,
    kind: AttackerKind,
    cfg: StorageConfig,
) -> Box<dyn Automaton<Msg<u64>>> {
    let _ = idx;
    kind.build_safe(cfg, FORGED_VALUE)
}

/// The standard corruptor for the paper's regular protocols.
pub fn regular_corruptor(
    idx: usize,
    kind: AttackerKind,
    cfg: StorageConfig,
) -> Box<dyn Automaton<Msg<u64>>> {
    let _ = idx;
    kind.build_regular(cfg, FORGED_VALUE)
}

/// The value attackers forge: recognizably absent from any schedule
/// ([`Schedule::value_of_write`] yields small values).
const FORGED_VALUE: u64 = 0xDEAD;

/// Hard cap on simulator events per run (far above anything these
/// protocols generate; a breach indicates runaway traffic).
const RUN_STEP_LIMIT: u64 = 5_000_000;

/// A scripted network event for a [`SimCase`], in object-index terms.
#[derive(Clone, Debug)]
enum CaseEvent {
    /// Partition these objects away from everything else.
    Partition(Vec<usize>),
    /// Heal the partition in force.
    Heal,
}

/// One simulated experiment: protocol + sizing + schedule + faults +
/// latency + optional scripted partitions, in a single declarative value.
///
/// This is the deduplicated form of the cfg/schedule/faults/run block that
/// used to be copy-pasted across the integration tests:
///
/// ```
/// use vrr_core::{SafeProtocol, StorageConfig};
/// use vrr_workload::{ScheduleParams, SimCase};
///
/// let out = SimCase::new(&SafeProtocol, StorageConfig::optimal(1, 1, 1))
///     .schedule(ScheduleParams::sequential(3, 3, 1, 42))
///     .run();
/// assert!(out.all_live());
/// assert!(vrr_checker::check_safety(&out.history).is_ok());
/// ```
///
/// Defaults: empty fault plan, unit latency, seed = the schedule's seed,
/// attackers built from the protocol's own catalogue
/// ([`RegisterProtocol::corruptor`]).
pub struct SimCase<'a, P: RegisterProtocol<u64>> {
    protocol: &'a P,
    cfg: StorageConfig,
    schedule: Schedule,
    faults: FaultPlan,
    latency: LatencyKind,
    seed: u64,
    corrupt: Option<&'a Corruptor<P::Msg>>,
    events: Vec<(SimTime, CaseEvent)>,
}

impl<P: RegisterProtocol<u64>> std::fmt::Debug for SimCase<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCase")
            .field("protocol", &self.protocol.name())
            .field("cfg", &self.cfg)
            .field("faults", &self.faults)
            .field("latency", &self.latency)
            .field("seed", &self.seed)
            .field("events", &self.events)
            .finish()
    }
}

impl<'a, P: RegisterProtocol<u64>> SimCase<'a, P> {
    /// A case with an empty schedule, no faults, unit latency, seed 0.
    pub fn new(protocol: &'a P, cfg: StorageConfig) -> Self {
        SimCase {
            protocol,
            cfg,
            schedule: generate(ScheduleParams {
                writes: 0,
                reads_per_reader: 0,
                readers: cfg.readers,
                mean_gap: 1,
                seed: 0,
            }),
            faults: FaultPlan::none(),
            latency: LatencyKind::Unit,
            seed: 0,
            corrupt: None,
            events: Vec::new(),
        }
    }

    /// Generates the operation schedule from `params` and adopts
    /// `params.seed` as the run seed (override with [`SimCase::seed`]).
    #[must_use]
    pub fn schedule(mut self, params: ScheduleParams) -> Self {
        self.seed = params.seed;
        self.schedule = generate(params);
        self
    }

    /// Uses an already-generated schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The fault plan (default: none).
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The latency model (default: unit).
    #[must_use]
    pub fn latency(mut self, latency: LatencyKind) -> Self {
        self.latency = latency;
        self
    }

    /// The world seed (default: the schedule's seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the attacker factory (default: the protocol's own
    /// catalogue via [`RegisterProtocol::corruptor`]).
    #[must_use]
    pub fn corruptor(mut self, corrupt: &'a Corruptor<P::Msg>) -> Self {
        self.corrupt = Some(corrupt);
        self
    }

    /// Scripts a partition of the given base objects (away from everything
    /// else) at time `at`.
    #[must_use]
    pub fn partition_objects_at(mut self, at: SimTime, idxs: Vec<usize>) -> Self {
        self.events.push((at, CaseEvent::Partition(idxs)));
        self
    }

    /// Scripts a heal of the partition in force at time `at`.
    #[must_use]
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.events.push((at, CaseEvent::Heal));
        self
    }

    /// Executes the case.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan exceeds the `(t, b)` budget, the schedule's
    /// reader count mismatches the sizing, an attacker is requested from a
    /// protocol without a catalogue and no [`SimCase::corruptor`] override
    /// was given, or the run exceeds the internal step limit.
    pub fn run(self) -> RunOutcome {
        let SimCase {
            protocol,
            cfg,
            schedule,
            faults,
            latency,
            seed,
            corrupt,
            events,
        } = self;

        assert!(
            faults.fits(&cfg),
            "fault plan exceeds the (t, b) budget: {faults:?}"
        );
        assert_eq!(
            schedule.readers.len(),
            cfg.readers,
            "schedule/readers mismatch"
        );

        let mut scenario: Scenario<P::Msg> = Scenario::seed(seed);
        latency.install(&mut scenario);
        let dep = protocol.deploy(cfg, scenario.world_mut());
        scenario.start();

        for &(idx, kind) in &faults.byzantine {
            let automaton = match corrupt {
                Some(c) => c(idx, kind, cfg),
                None => protocol
                    .corruptor(kind, cfg, FORGED_VALUE)
                    .expect("protocol has no attacker catalogue; provide SimCase::corruptor"),
            };
            scenario.byzantine(dep.objects[idx], automaton);
        }
        for &(idx, at) in &faults.crashes {
            scenario.crash(dep.objects[idx], at);
        }
        for (at, event) in events {
            match event {
                CaseEvent::Partition(idxs) => {
                    let group = idxs.iter().map(|&i| dep.objects[i]).collect();
                    scenario.partition_at(at, vec![group]);
                }
                CaseEvent::Heal => {
                    scenario.heal_at(at);
                }
            }
        }

        let mut history: OpHistory<u64> = OpHistory::new();
        let mut write_rounds = Vec::new();
        let mut read_rounds = Vec::new();
        let mut ops = Registry::new();

        // Client index 0 = writer, 1.. = readers.
        let mut clients: Vec<ClientState> = (0..=cfg.readers)
            .map(|_| ClientState {
                next: 0,
                active: None,
            })
            .collect();
        let mut write_seq = 0u64;
        let mut steps_used = 0u64;

        loop {
            // Poll completions first (a step may have completed several ops).
            let now_ticks = scenario.now().ticks();
            for client in clients.iter_mut() {
                let Some(active) = client.active.take() else {
                    continue;
                };
                let done = if active.is_write {
                    protocol
                        .write_outcome(&dep, scenario.world(), active.token)
                        .map(|rep| {
                            write_rounds.push(rep.rounds);
                            ops.observe(metrics::names::WRITER_ROUNDS, &[], u64::from(rep.rounds));
                            ops.observe(
                                metrics::names::WRITE_LATENCY,
                                &[],
                                now_ticks - active.invoked_at,
                            );
                            history.push_write(
                                active.seq_or_reader,
                                Schedule::value_of_write(active.seq_or_reader),
                                active.invoked_at,
                                Some(now_ticks),
                            );
                        })
                } else {
                    let reader = active.seq_or_reader as usize;
                    protocol
                        .read_outcome(&dep, scenario.world(), reader, active.token)
                        .map(|rep| {
                            read_rounds.push(rep.rounds);
                            ops.observe(metrics::names::READER_ROUNDS, &[], u64::from(rep.rounds));
                            ops.observe(
                                metrics::names::READ_LATENCY,
                                &[],
                                now_ticks - active.invoked_at,
                            );
                            history.push_read(
                                reader,
                                rep.ts.0,
                                rep.value,
                                active.invoked_at,
                                Some(now_ticks),
                            );
                        })
                };
                if done.is_none() {
                    client.active = Some(active);
                }
            }

            // Invoke due operations on idle clients.
            let now = scenario.now();
            for (c, client) in clients.iter_mut().enumerate() {
                if client.active.is_some() {
                    continue;
                }
                let plan = if c == 0 {
                    &schedule.writer
                } else {
                    &schedule.readers[c - 1]
                };
                let Some(&(due, op)) = plan.ops.get(client.next) else {
                    continue;
                };
                if due > now {
                    continue;
                }
                client.next += 1;
                let active = match op {
                    PlannedOp::Write { value } => {
                        write_seq += 1;
                        debug_assert_eq!(value, Schedule::value_of_write(write_seq));
                        let token = protocol.invoke_write(&dep, scenario.world_mut(), value);
                        ActiveOp {
                            token,
                            invoked_at: now.ticks(),
                            seq_or_reader: write_seq,
                            is_write: true,
                        }
                    }
                    PlannedOp::Read { reader } => {
                        let token = protocol.invoke_read(&dep, scenario.world_mut(), reader);
                        ActiveOp {
                            token,
                            invoked_at: now.ticks(),
                            seq_or_reader: reader as u64,
                            is_write: false,
                        }
                    }
                };
                client.active = Some(active);
            }

            let any_active = clients.iter().any(|c| c.active.is_some());
            let next_due: Option<SimTime> = clients
                .iter()
                .enumerate()
                .filter(|(_, c)| c.active.is_none())
                .filter_map(|(c, client)| {
                    let plan = if c == 0 {
                        &schedule.writer
                    } else {
                        &schedule.readers[c - 1]
                    };
                    plan.ops.get(client.next).map(|&(due, _)| due)
                })
                .min();

            if any_active {
                // Drive one event; if the network is drained while ops are
                // still active, they are stalled (liveness violation) — unless
                // a future planned op could unblock... it cannot: clients are
                // independent. Record and stop.
                if !scenario.step() {
                    break;
                }
                steps_used += 1;
                assert!(
                    steps_used < RUN_STEP_LIMIT,
                    "runaway run: step limit exceeded"
                );
            } else if let Some(due) = next_due {
                let delta = due.ticks().saturating_sub(scenario.now().ticks());
                scenario.fast_forward(delta);
            } else {
                break; // no active ops, nothing left to invoke
            }
        }

        // Anything still active is stalled; record as incomplete.
        let mut stalled_ops = 0;
        for (c, client) in clients.iter_mut().enumerate() {
            if let Some(active) = client.active.take() {
                stalled_ops += 1;
                if active.is_write {
                    history.push_write(
                        active.seq_or_reader,
                        Schedule::value_of_write(active.seq_or_reader),
                        active.invoked_at,
                        None,
                    );
                } else {
                    history.push_read(c - 1, 0, None, active.invoked_at, None);
                }
            }
        }

        // Close out the snapshot: network + fault-script counters and the
        // protocol's own observables, all under the canonical names.
        let net = scenario.net_stats();
        metrics::record_net_stats(&mut ops, &net);
        metrics::record_scenario_stats(&mut ops, &scenario.stats());
        ops.gauge_set(metrics::names::SCENARIO_TIME, &[], scenario.now().ticks());
        ops.gauge_set(
            metrics::names::SCENARIO_HELD_MSGS,
            &[],
            scenario.world().held().len() as u64,
        );
        if let Some(stats) = protocol.fast_path_stats(&dep, scenario.world()) {
            metrics::record_fast_path(&mut ops, &stats);
        }
        if let Some(lens) = protocol.history_lens(&dep, scenario.world()) {
            metrics::record_history_lens(&mut ops, None, &lens);
        }

        RunOutcome {
            history,
            write_rounds,
            read_rounds,
            stalled_ops,
            net,
            metrics: ops,
        }
    }
}

#[derive(Debug)]
struct ClientState {
    next: usize,
    active: Option<ActiveOp>,
}

#[derive(Debug)]
struct ActiveOp {
    token: u64,
    invoked_at: u64,
    /// Write sequence number for writes; reader index for reads.
    seq_or_reader: u64,
    is_write: bool,
}

#[cfg(test)]
mod tests {
    use vrr_checker::{check_regularity, check_safety};
    use vrr_core::metrics::names;
    use vrr_core::{RegularProtocol, SafeProtocol};

    use super::*;
    use crate::schedule::{generate, ScheduleParams};

    #[test]
    fn sequential_run_is_safe_and_live() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let out = SimCase::new(&SafeProtocol, cfg)
            .schedule(ScheduleParams::sequential(5, 5, 2, 3))
            .run();
        assert!(out.all_live());
        assert_eq!(out.write_rounds.len(), 5);
        assert_eq!(out.read_rounds.len(), 10);
        assert_eq!(out.max_read_rounds(), 2);
        assert!(check_safety(&out.history).is_ok(), "{:?}", out.history);
    }

    #[test]
    fn contended_run_with_max_faults_is_regular() {
        let cfg = StorageConfig::optimal(2, 1, 2);
        let faults = FaultPlan::maximal(&cfg, AttackerKind::Inflator, SimTime::from_ticks(40));
        let out = SimCase::new(&RegularProtocol::full(), cfg)
            .schedule(ScheduleParams::contended(8, 8, 2, 11))
            .faults(faults)
            .latency(LatencyKind::Uniform(1, 10))
            .run();
        assert!(out.all_live(), "stalled: {}", out.stalled_ops);
        assert!(check_regularity(&out.history).is_ok());
        assert_eq!(out.max_read_rounds(), 2);
        assert_eq!(out.max_write_rounds(), 2);
    }

    #[test]
    fn random_fault_sweep_stays_consistent() {
        for seed in 0..10 {
            let cfg = StorageConfig::optimal(2, 2, 1);
            let out = SimCase::new(&SafeProtocol, cfg)
                .schedule(ScheduleParams::contended(4, 6, 1, seed))
                .faults(FaultPlan::random(&cfg, 200, seed))
                .latency(LatencyKind::LongTail)
                .run();
            assert!(out.all_live(), "seed {seed} stalled {}", out.stalled_ops);
            assert!(
                check_safety(&out.history).is_ok(),
                "seed {seed}: {:?}",
                check_safety(&out.history)
            );
        }
    }

    #[test]
    fn sim_case_defaults_match_explicit_settings() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let params = ScheduleParams::contended(6, 4, 2, 17);
        let faults = FaultPlan::maximal(&cfg, AttackerKind::Stale, SimTime::from_ticks(20));
        let defaults = SimCase::new(&RegularProtocol::optimized(), cfg)
            .schedule(params)
            .faults(faults.clone())
            .latency(LatencyKind::Uniform(1, 5))
            .run();
        let explicit = SimCase::new(&RegularProtocol::optimized(), cfg)
            .with_schedule(generate(params))
            .faults(faults)
            .latency(LatencyKind::Uniform(1, 5))
            .seed(17)
            .corruptor(&regular_corruptor)
            .run();
        // The schedule's seed is the default run seed, and the protocol's
        // own catalogue and the explicit corruptor build the same
        // attackers, so the runs are identical.
        assert_eq!(
            format!("{:?}", defaults.history),
            format!("{:?}", explicit.history)
        );
        assert_eq!(defaults.read_rounds, explicit.read_rounds);
        assert_eq!(
            defaults.metrics.to_prometheus(),
            explicit.metrics.to_prometheus()
        );
    }

    #[test]
    fn outcome_metrics_agree_with_round_vectors() {
        let cfg = StorageConfig::fast(1, 1, 2);
        let out = SimCase::new(&RegularProtocol::optimized(), cfg)
            .schedule(ScheduleParams::sequential(4, 4, 2, 9))
            .run();
        assert!(out.all_live());
        let h = out.metrics.histogram(names::READER_ROUNDS, &[]).unwrap();
        assert_eq!(h.count(), out.read_rounds.len() as u64);
        let hits = out.metrics.counter(names::READER_FAST_HITS, &[]);
        let fallbacks = out.metrics.counter(names::READER_FAST_FALLBACKS, &[]);
        assert_eq!(
            hits + fallbacks,
            out.read_rounds.len() as u64,
            "every read at fast sizing is fast-path eligible"
        );
        assert_eq!(
            hits,
            out.read_rounds.iter().filter(|&&r| r == 1).count() as u64
        );
        assert_eq!(out.metrics.counter(names::NET_SENT, &[]), out.net.sent);
        assert_eq!(
            out.metrics.gauge_values(names::OBJECT_HISTORY_LEN).len(),
            cfg.s
        );
    }

    #[test]
    fn scripted_partition_stalls_and_heal_rescues() {
        // Partition 2 of S = 5 objects mid-run: reads need S - t = 4
        // replies, so progress stops until the heal.
        let cfg = StorageConfig::fast(1, 1, 1);
        let out = SimCase::new(&RegularProtocol::optimized(), cfg)
            .schedule(ScheduleParams::sequential(3, 3, 1, 4))
            .partition_objects_at(SimTime::from_ticks(5), vec![0, 1])
            .heal_at(SimTime::from_ticks(400))
            .run();
        assert!(out.all_live(), "heal must rescue every operation");
        assert!(check_regularity(&out.history).is_ok());
        assert_eq!(out.metrics.counter(names::SCENARIO_PARTITIONS, &[]), 1);
        assert_eq!(out.metrics.counter(names::SCENARIO_HEALS, &[]), 1);
        // Something actually waited: the run outlived the heal time.
        assert!(out.metrics.gauge(names::SCENARIO_TIME, &[]).unwrap() >= 400);
    }
}
