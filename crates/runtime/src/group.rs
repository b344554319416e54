//! One register group — `cfg.s` base objects, a writer and `cfg.readers`
//! readers — as every deployment builds it: the [`GroupSpec`] that
//! describes it, the canonical spawn order, and the blocking `WRITE`/`READ`
//! a client runs against it.

use std::time::Duration;

use vrr_sim::{Automaton, ProcessId};

use vrr_core::regular::{HistoryRetention, RegularObject, RegularReader, RegularTuning};
use vrr_core::safe::{SafeObject, SafeReader, SafeTuning};
use vrr_core::{Msg, ReadReport, StorageConfig, Value, WriteReport, Writer};

use crate::cluster::Cluster;

/// Which of the paper's protocols a register group runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// §4 safe storage (Figures 2–4).
    Safe,
    /// §5 regular storage, full histories (Figures 2, 5, 6).
    Regular,
    /// §5.1 optimized regular storage (suffix histories + reader cache).
    RegularOptimized,
}

/// A reader-tuning override for a whole deployment, applied to every
/// reader of every group built from a [`GroupSpec`] carrying it. The
/// variant must match the spec's [`ProtocolKind`].
///
/// The headline use is steering the one-round fast path: the default
/// tunings already enable it (it self-arms only at `S ≥ 2t + 2b + 1`,
/// per [`StorageConfig::fast_read_quorum`]), so this override is for
/// disabling it, or for forcing the fallback path deterministically in
/// benchmarks via an unreachable `fast_threshold`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReaderTuning {
    /// Tuning for [`ProtocolKind::Safe`] readers.
    Safe(SafeTuning),
    /// Tuning for [`ProtocolKind::Regular`] /
    /// [`ProtocolKind::RegularOptimized`] readers.
    Regular(RegularTuning),
}

/// How every register group of a deployment is built.
/// [`crate::ShardedStore::deploy_spec`], [`crate::StoreRouter::deploy`],
/// [`spawn_group_with`] and `vrr-net`'s node config all take one.
///
/// The defaults ([`GroupSpec::new`]) are the paper's: full histories
/// ([`HistoryRetention::KeepAll`]) and the default reader tunings, which
/// arm the one-round fast path only at `S ≥ 2t + 2b + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupSpec {
    /// Group sizing: `S` objects, the `(t, b)` budget, `R` readers.
    pub cfg: StorageConfig,
    /// The protocol every member runs.
    pub kind: ProtocolKind,
    /// History retention of regular objects (ignored by the safe
    /// protocol). `RegularOptimized` with
    /// `HistoryRetention::reader_ack(cfg.readers)` is the bounded-memory
    /// production configuration (suffix transfers + reader-ack GC).
    pub retention: HistoryRetention,
    /// Tuning override for every reader (see [`ReaderTuning`]), or `None`
    /// for the protocol default.
    pub tuning: Option<ReaderTuning>,
}

impl GroupSpec {
    /// `kind` groups sized by `cfg`, keeping full histories, with default
    /// reader tunings.
    pub fn new(cfg: StorageConfig, kind: ProtocolKind) -> Self {
        GroupSpec {
            cfg,
            kind,
            retention: HistoryRetention::KeepAll,
            tuning: None,
        }
    }

    /// Same spec with `retention`.
    pub fn with_retention(self, retention: HistoryRetention) -> Self {
        GroupSpec { retention, ..self }
    }

    /// Same spec with every reader running `tuning`.
    pub fn with_tuning(self, tuning: ReaderTuning) -> Self {
        GroupSpec {
            tuning: Some(tuning),
            ..self
        }
    }
}

/// How long a blocking operation may take before the cluster is declared
/// wedged. Generous: operations take milliseconds even under delay
/// policies.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Blocking `WRITE(value)` against `writer`, shared by
/// [`crate::ShardedStore`] and external hosts (`vrr-net` servers): invoke
/// the write, then await its outcome via a watcher.
///
/// `writer` must host a [`Writer`] automaton spawned on `cluster` (e.g. by
/// [`spawn_group_with`]).
///
/// # Panics
///
/// Panics if the write does not complete within the operation timeout —
/// with at most `t` faulty objects that is a wait-freedom violation.
pub fn blocking_write<V: Value>(
    cluster: &Cluster<Msg<V>>,
    writer: ProcessId,
    value: V,
) -> WriteReport {
    let id = cluster.invoke(writer, move |w: &mut Writer<V>, ctx| {
        w.invoke_write(value, ctx)
    });
    let rx = cluster.watch(writer, move |w: &Writer<V>| {
        w.outcome(id).map(|o| WriteReport {
            ts: o.ts,
            rounds: o.rounds,
        })
    });
    rx.recv_timeout(OP_TIMEOUT)
        .expect("WRITE must complete (wait-freedom)")
}

/// Blocking `READ()` against `reader`, shared by [`crate::ShardedStore`]
/// and external hosts (`vrr-net` servers).
///
/// `reader` must host the reader automaton matching `kind` (e.g. spawned
/// by [`spawn_group_with`]).
///
/// # Panics
///
/// Panics if the read does not complete within the operation timeout.
pub fn blocking_read<V: Value>(
    cluster: &Cluster<Msg<V>>,
    kind: ProtocolKind,
    reader: ProcessId,
) -> ReadReport<V> {
    match kind {
        ProtocolKind::Safe => {
            let id = cluster.invoke(reader, |r: &mut SafeReader<V>, ctx| r.invoke_read(ctx));
            let rx = cluster.watch(reader, move |r: &SafeReader<V>| {
                r.outcome(id).map(|o| ReadReport {
                    value: o.value.clone(),
                    ts: o.ts,
                    rounds: o.rounds,
                    fast: o.fast,
                })
            });
            rx.recv_timeout(OP_TIMEOUT)
                .expect("READ must complete (wait-freedom)")
        }
        ProtocolKind::Regular | ProtocolKind::RegularOptimized => {
            let id = cluster.invoke(reader, |r: &mut RegularReader<V>, ctx| r.invoke_read(ctx));
            let rx = cluster.watch(reader, move |r: &RegularReader<V>| {
                r.outcome(id).map(|o| ReadReport {
                    value: o.value.clone(),
                    ts: o.ts,
                    rounds: o.rounds,
                    fast: o.fast,
                })
            });
            rx.recv_timeout(OP_TIMEOUT)
                .expect("READ must complete (wait-freedom)")
        }
    }
}

/// One member slot of a register group, in the canonical spawn order every
/// deployment uses: objects `0..cfg.s`, then the writer, then readers
/// `0..cfg.readers`. Because ids are dense in spawn order
/// ([`Cluster::spawn`]), this fixes the pid layout of a group — which is
/// what lets independently started OS processes (`vrr-net` nodes) agree on
/// a global pid space by replaying the same spawn sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupRole {
    /// Base object `s_i`.
    Object(usize),
    /// The single writer.
    Writer,
    /// Reader `r_j`.
    Reader(usize),
}

/// Number of processes one register group occupies: `cfg.s` objects, one
/// writer, `cfg.readers` readers.
pub fn group_span(cfg: StorageConfig) -> usize {
    cfg.s + 1 + cfg.readers
}

/// The [`GroupRole`] of the `idx`-th spawned member of a group.
///
/// # Panics
///
/// Panics if `idx >= group_span(cfg)`.
pub fn group_member(cfg: StorageConfig, idx: usize) -> GroupRole {
    if idx < cfg.s {
        GroupRole::Object(idx)
    } else if idx == cfg.s {
        GroupRole::Writer
    } else if idx < group_span(cfg) {
        GroupRole::Reader(idx - cfg.s - 1)
    } else {
        panic!(
            "member index {idx} out of range for a group of {}",
            group_span(cfg)
        )
    }
}

/// Process ids of one register group spawned by [`spawn_group_with`].
#[derive(Clone, Debug)]
pub struct GroupPids {
    /// The `cfg.s` base objects, in index order.
    pub objects: Vec<ProcessId>,
    /// The writer.
    pub writer: ProcessId,
    /// The `cfg.readers` readers, in index order.
    pub readers: Vec<ProcessId>,
}

/// Spawns the automata of one `spec` register group onto `cluster` in the
/// canonical order ([`group_member`]), letting `substitute` replace the
/// automaton of any member — the hook for Byzantine objects *and* for
/// `vrr-net`'s relay stand-ins when a member lives in a different OS
/// process. Returning `None` deploys the honest automaton for the role.
///
/// # Panics
///
/// Panics if `spec.tuning` does not match `spec.kind`, or if a
/// [`HistoryRetention::ReaderAck`] policy covers fewer readers than the
/// group has.
pub fn spawn_group_with<V: Value>(
    cluster: &mut Cluster<Msg<V>>,
    spec: GroupSpec,
    mut substitute: impl FnMut(GroupRole) -> Option<Box<dyn Automaton<Msg<V>>>>,
) -> GroupPids {
    let GroupSpec {
        cfg,
        kind,
        retention,
        tuning,
    } = spec;
    let safe_tuning = match (kind, tuning) {
        (ProtocolKind::Safe, Some(ReaderTuning::Safe(t))) => t,
        (ProtocolKind::Safe, None) => SafeTuning::default(),
        (ProtocolKind::Safe, Some(other)) => {
            panic!("reader tuning {other:?} does not fit ProtocolKind::Safe")
        }
        _ => SafeTuning::default(),
    };
    let regular_tuning = match (kind, tuning) {
        (
            ProtocolKind::Regular | ProtocolKind::RegularOptimized,
            Some(ReaderTuning::Regular(t)),
        ) => t,
        (ProtocolKind::Regular | ProtocolKind::RegularOptimized, Some(other)) => {
            panic!("reader tuning {other:?} does not fit {kind:?}")
        }
        _ => RegularTuning::default(),
    };
    if let HistoryRetention::ReaderAck { readers, .. } = retention {
        // A policy covering fewer readers than are deployed would let the
        // covered readers' acks truncate entries the un-gated readers
        // still need — exactly the hole the min(acks) floor closes.
        assert!(
            readers >= cfg.readers,
            "ReaderAck must gate on every deployed reader: policy covers \
             {readers}, deployment has {}",
            cfg.readers
        );
    }
    let objects: Vec<ProcessId> = (0..cfg.s)
        .map(|i| -> ProcessId {
            let automaton: Box<dyn Automaton<Msg<V>>> = substitute(GroupRole::Object(i))
                .unwrap_or_else(|| match kind {
                    ProtocolKind::Safe => Box::new(SafeObject::<V>::new()),
                    ProtocolKind::Regular | ProtocolKind::RegularOptimized => {
                        Box::new(RegularObject::<V>::with_retention(retention))
                    }
                });
            cluster.spawn(automaton)
        })
        .collect();
    let writer_automaton = substitute(GroupRole::Writer)
        .unwrap_or_else(|| Box::new(Writer::<V>::new(cfg, objects.clone())));
    let writer = cluster.spawn(writer_automaton);
    let readers: Vec<ProcessId> = (0..cfg.readers)
        .map(|j| {
            let automaton: Box<dyn Automaton<Msg<V>>> = substitute(GroupRole::Reader(j))
                .unwrap_or_else(|| match kind {
                    ProtocolKind::Safe => Box::new(SafeReader::<V>::with_tuning(
                        cfg,
                        j,
                        objects.clone(),
                        safe_tuning,
                    )),
                    ProtocolKind::Regular => Box::new(RegularReader::<V>::with_tuning(
                        cfg,
                        j,
                        objects.clone(),
                        false,
                        regular_tuning,
                    )),
                    ProtocolKind::RegularOptimized => Box::new(RegularReader::<V>::with_tuning(
                        cfg,
                        j,
                        objects.clone(),
                        true,
                        regular_tuning,
                    )),
                });
            cluster.spawn(automaton)
        })
        .collect();
    GroupPids {
        objects,
        writer,
        readers,
    }
}
