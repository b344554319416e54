//! Sharded multi-register storage: a key→register map over one shared
//! worker-pool [`Cluster`].
//!
//! The paper emulates *one* single-writer multi-reader register. A
//! key-value workload funnelled through that single register serializes
//! every key behind one writer automaton. [`ShardedStore`] deploys a fixed
//! pool of independent register *shards* — each with its own writer, `S`
//! base objects and `R` readers — on one shared cluster, and assigns every
//! distinct key its own shard on first write. Operations on different keys
//! run through disjoint automata and proceed in parallel across the worker
//! pool; operations on one key keep the paper's SWMR semantics (the
//! per-shard write lock *is* the single writer).
//!
//! A single register is a one-key store: `ShardedStore<(), V>` of
//! capacity 1, written with `write((), v)` and read with `read(&(), j)`.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use vrr_sim::{Automaton, ProcessId};

use vrr_core::metrics::{self, MetricsSink, Registry};
use vrr_core::regular::{RegularObject, RegularReader};
use vrr_core::safe::SafeReader;
use vrr_core::{FastPathStats, Msg, ReadReport, StorageConfig, Value, WriteReport};

use crate::cluster::Cluster;
use crate::group::{
    blocking_read, blocking_write, spawn_group_with, GroupPids, GroupRole, GroupSpec, ProtocolKind,
};
use crate::router::LinkPolicy;

/// One register shard plus the client-side locks that keep its automata
/// single-invocation (SWMR writer; one outstanding read per reader).
struct Shard {
    pids: GroupPids,
    /// Object indices whose automaton the deploy factory substituted —
    /// skipped by the tolerant history inspection of metrics snapshots (a
    /// downcast mismatch inside an invoke would poison the process).
    byzantine: Vec<usize>,
    write_lock: Mutex<()>,
    reader_locks: Vec<Mutex<()>>,
}

/// A typed error from the non-panicking store operations.
///
/// For the in-process store the only runtime-recoverable failure is
/// capacity exhaustion; a wedged cluster (an operation outliving the
/// generous internal timeout) stays a panic, because with at most `t`
/// faults per group it is a wait-freedom violation, not an operational
/// condition. Remote backends (`vrr-net`'s `RemoteCluster`) additionally
/// surface unrecoverable transport failure — a request that kept failing
/// through the bounded retry/backoff budget — as [`StoreError::Backend`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// Every provisioned register shard is already bound (or was bound and
    /// later retired); the new key cannot be served. See the capacity
    /// contract on [`ShardedStore`].
    OverCapacity {
        /// The store's provisioned shard count.
        capacity: usize,
    },
    /// A remote cluster backend failed to serve the operation after
    /// exhausting its retry budget.
    Backend {
        /// What failed, in the backend's own words.
        what: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::OverCapacity { capacity } => {
                write!(f, "ShardedStore over capacity: all {capacity} shards bound")
            }
            StoreError::Backend { what } => write!(f, "cluster backend failed: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The key→shard bindings, behind one read-mostly lock: the per-operation
/// hot path takes only the shared side; the exclusive side is touched once
/// per key lifetime (first bind, release).
struct KeyIndex<K> {
    map: HashMap<K, usize>,
    /// Next never-used shard slot. Slots are **single-use**: releasing a
    /// key retires its slot instead of recycling it (see the capacity
    /// contract on [`ShardedStore`]).
    next_slot: usize,
    /// Slots consumed by keys that were since released.
    retired: usize,
}

/// A multi-key register store: each key is served by its own register
/// shard (writer + objects + readers) on one shared worker-pool cluster.
///
/// # Capacity contract
///
/// Shards are provisioned up front (`capacity`) and bound to keys on first
/// write, so the id space stays dense and the cluster can seal. `capacity`
/// bounds the number of **bindings ever made**, not the number of live
/// keys: [`ShardedStore::release`] retires a binding's shard rather than
/// recycling it, because handing a register that already holds one key's
/// history to a different key would let a read concurrent with the new
/// key's first write return the *old key's* value (a cross-key regularity
/// leak). Once all `capacity` slots are consumed,
/// [`ShardedStore::try_write`] for a new key returns
/// [`StoreError::OverCapacity`] (and [`ShardedStore::write`], the
/// panicking wrapper, panics). Reads of never-written keys return `None`
/// without touching the network.
///
/// # Examples
///
/// ```
/// use vrr_runtime::{ShardedStore, ProtocolKind, NoDelay};
/// use vrr_core::StorageConfig;
///
/// let cfg = StorageConfig::optimal(1, 1, 1);
/// let store: ShardedStore<&'static str, u64> =
///     ShardedStore::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay), 4);
/// store.write("alpha", 1);
/// store.write("beta", 2);
/// assert_eq!(store.read(&"alpha", 0).unwrap().value, Some(1));
/// assert_eq!(store.read(&"beta", 0).unwrap().value, Some(2));
/// assert_eq!(store.read(&"gamma", 0), None);
/// ```
pub struct ShardedStore<K: Eq + Hash, V: Value> {
    cluster: Cluster<Msg<V>>,
    kind: ProtocolKind,
    cfg: StorageConfig,
    shards: Vec<Shard>,
    /// key → shard slot, assigned on first write. Read-mostly: every
    /// operation takes the shared side; only first-binds and releases take
    /// the exclusive side, so the routing step of concurrent operations on
    /// distinct keys never serializes.
    index: RwLock<KeyIndex<K>>,
    /// Store-wide operation metrics (rounds and latency histograms),
    /// folded into [`ShardedStore::metrics_snapshot`].
    ops: Mutex<Registry>,
}

impl<K: Eq + Hash, V: Value> ShardedStore<K, V> {
    /// Deploys `capacity` register shards — each `cfg.s` objects, one
    /// writer and `cfg.readers` readers running `kind` — over one shared
    /// cluster with one worker per available CPU. Shorthand for
    /// [`ShardedStore::deploy_spec`] with [`GroupSpec::new`] and no
    /// substitutions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn deploy(
        cfg: StorageConfig,
        kind: ProtocolKind,
        policy: Box<dyn LinkPolicy<Msg<V>>>,
        capacity: usize,
    ) -> Self {
        Self::deploy_spec(GroupSpec::new(cfg, kind), policy, capacity, |_shard, _i| {
            None
        })
    }

    /// Like [`ShardedStore::deploy`], but `factory(shard, i)` may
    /// substitute the automaton of object `i` in `shard`. Shorthand for
    /// [`ShardedStore::deploy_spec`] with [`GroupSpec::new`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn deploy_with_objects(
        cfg: StorageConfig,
        kind: ProtocolKind,
        policy: Box<dyn LinkPolicy<Msg<V>>>,
        capacity: usize,
        factory: impl FnMut(usize, usize) -> Option<Box<dyn Automaton<Msg<V>>>>,
    ) -> Self {
        Self::deploy_spec(GroupSpec::new(cfg, kind), policy, capacity, factory)
    }

    /// Deploys `capacity` register shards, each built from `spec`, over
    /// one shared cluster whose links follow `policy`. `factory(shard, i)`
    /// may substitute the automaton of object `i` in `shard` — the hook
    /// for deploying Byzantine objects (e.g. from
    /// [`vrr_core::attackers`]); returning `None` deploys the honest
    /// object for the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, or on a `spec` that
    /// [`spawn_group_with`] rejects.
    pub fn deploy_spec(
        spec: GroupSpec,
        policy: Box<dyn LinkPolicy<Msg<V>>>,
        capacity: usize,
        mut factory: impl FnMut(usize, usize) -> Option<Box<dyn Automaton<Msg<V>>>>,
    ) -> Self {
        assert!(capacity > 0, "a sharded store needs at least one shard");
        let mut cluster: Cluster<Msg<V>> = Cluster::new(policy);
        let shards: Vec<Shard> = (0..capacity)
            .map(|s| {
                let mut byzantine = Vec::new();
                let pids = spawn_group_with(&mut cluster, spec, |role| match role {
                    GroupRole::Object(i) => {
                        let substituted = factory(s, i);
                        if substituted.is_some() {
                            byzantine.push(i);
                        }
                        substituted
                    }
                    GroupRole::Writer | GroupRole::Reader(_) => None,
                });
                Shard {
                    pids,
                    byzantine,
                    write_lock: Mutex::new(()),
                    reader_locks: (0..spec.cfg.readers).map(|_| Mutex::new(())).collect(),
                }
            })
            .collect();
        cluster.seal();
        ShardedStore {
            cluster,
            kind: spec.kind,
            cfg: spec.cfg,
            shards,
            index: RwLock::new(KeyIndex {
                map: HashMap::new(),
                next_slot: 0,
                retired: 0,
            }),
            ops: Mutex::new(Registry::new()),
        }
    }

    /// The per-shard sizing.
    pub fn config(&self) -> StorageConfig {
        self.cfg
    }

    /// The protocol variant.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Number of provisioned shards.
    pub fn capacity(&self) -> usize {
        self.shards.len()
    }

    /// Number of keys currently bound to a shard.
    pub fn len(&self) -> usize {
        self.index.read().map.len()
    }

    /// Whether no key is currently bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard slots never bound to any key (capacity headroom; retired
    /// slots are *not* counted, per the capacity contract).
    pub fn free_slots(&self) -> usize {
        self.shards.len() - self.index.read().next_slot
    }

    /// The shard slot serving `key`, if it is currently bound.
    pub fn shard_of(&self, key: &K) -> Option<usize> {
        self.index.read().map.get(key).copied()
    }

    /// Whether `key` is currently bound to a shard.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index.read().map.contains_key(key)
    }

    /// Every currently-bound key (unordered). Rebalances use this to
    /// enumerate what must move off a cluster.
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        self.index.read().map.keys().cloned().collect()
    }

    /// Blocking `WRITE(key, value)`; binds `key` to a fresh shard on first
    /// use. Writes to different keys proceed in parallel; writes to one
    /// key serialize (the register is single-writer).
    ///
    /// # Panics
    ///
    /// Panics on [`StoreError::OverCapacity`] (see the capacity contract
    /// above), or if the write does not complete within the operation
    /// timeout. [`ShardedStore::try_write`] is the non-panicking variant.
    pub fn write(&self, key: K, value: V) -> WriteReport {
        self.try_write(key, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ShardedStore::write`], but reports capacity exhaustion as
    /// [`StoreError::OverCapacity`] instead of panicking.
    ///
    /// The routing step is read-mostly: an already-bound key takes only
    /// the shared side of the index lock; binding a new key takes the
    /// exclusive side once in the key's lifetime.
    ///
    /// # Panics
    ///
    /// Still panics if the write does not complete within the operation
    /// timeout — with at most `t` faults per group that is a wait-freedom
    /// violation, not a recoverable condition.
    pub fn try_write(&self, key: K, value: V) -> Result<WriteReport, StoreError> {
        let slot = self.index.read().map.get(&key).copied();
        let slot = match slot {
            Some(slot) => slot,
            None => {
                let mut index = self.index.write();
                // Re-check under the exclusive lock: a racing writer of the
                // same new key may have bound it between our two lockings.
                match index.map.get(&key) {
                    Some(&slot) => slot,
                    None => {
                        if index.next_slot >= self.shards.len() {
                            return Err(StoreError::OverCapacity {
                                capacity: self.shards.len(),
                            });
                        }
                        let next = index.next_slot;
                        index.next_slot += 1;
                        index.map.insert(key, next);
                        next
                    }
                }
            }
        };
        let shard = &self.shards[slot];
        let _writing = shard.write_lock.lock();
        let started = Instant::now();
        let report = blocking_write(&self.cluster, shard.pids.writer, value);
        record_write(&self.ops, report.rounds, started);
        Ok(report)
    }

    /// Unbinds `key`, retiring its shard slot (the slot is *not* recycled
    /// — see the capacity contract above). Subsequent reads of `key`
    /// return `None`; a subsequent write binds a fresh slot. Returns the
    /// retired slot, or `None` if the key was not bound.
    ///
    /// This is the source-side half of a multi-cluster rebalance: the
    /// router copies the key's latest value into its new cluster first,
    /// then releases it here.
    pub fn release(&self, key: &K) -> Option<usize> {
        let mut index = self.index.write();
        let slot = index.map.remove(key)?;
        index.retired += 1;
        Some(slot)
    }

    /// Blocking `READ(key)` at reader index `j` of the key's shard, or
    /// `None` if `key` was never written.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cfg.readers` or the read does not complete within
    /// the operation timeout.
    pub fn read(&self, key: &K, j: usize) -> Option<ReadReport<V>> {
        let slot = self.shard_of(key)?;
        let shard = &self.shards[slot];
        let _reading = shard.reader_locks[j].lock();
        let started = Instant::now();
        let report = blocking_read(&self.cluster, self.kind, shard.pids.readers[j]);
        record_read(&self.ops, report.rounds, started);
        Some(report)
    }

    /// Crashes object `idx` of shard `slot` (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `idx` is out of range.
    pub fn crash_object(&self, slot: usize, idx: usize) {
        self.cluster.crash(self.shards[slot].pids.objects[idx]);
    }

    /// The object process ids of shard `slot` (for fault injection).
    pub fn objects(&self, slot: usize) -> &[ProcessId] {
        &self.shards[slot].pids.objects
    }

    /// The current history length of every regular object in shard
    /// `slot` — the memory-bound observable of the reader-ack GC
    /// experiments.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, the store runs
    /// `ProtocolKind::Safe`, or an inspected object is not a live honest
    /// [`vrr_core::regular::RegularObject`] (crashed or
    /// Byzantine-substituted).
    pub fn history_lens(&self, slot: usize) -> Vec<usize> {
        assert!(
            self.kind != ProtocolKind::Safe,
            "safe objects keep no history"
        );
        self.objects(slot)
            .iter()
            .map(|&pid| {
                self.cluster
                    .invoke(pid, |o: &mut RegularObject<V>, _ctx| o.history().len())
            })
            .collect()
    }

    /// Sum of the one-round fast-path counters over every reader of every
    /// shard (hits = reads finished in round 1, fallbacks = reads that
    /// armed the fast path but completed through the two-round protocol).
    pub fn fast_path_stats(&self) -> FastPathStats {
        let mut total = FastPathStats::default();
        for &pid in self.shards.iter().flat_map(|shard| &shard.pids.readers) {
            let s = match self.kind {
                ProtocolKind::Safe => self
                    .cluster
                    .invoke(pid, |r: &mut SafeReader<V>, _ctx| r.fast_stats()),
                ProtocolKind::Regular | ProtocolKind::RegularOptimized => self
                    .cluster
                    .invoke(pid, |r: &mut RegularReader<V>, _ctx| r.fast_stats()),
            };
            total.hits += s.hits;
            total.fallbacks += s.fallbacks;
        }
        total
    }

    /// One snapshot of everything observable about the store, under the
    /// same canonical `vrr_*` names ([`vrr_core::metrics::names`]) as the
    /// simulator harness: operation rounds/latency histograms (latency ticks are
    /// wall-clock microseconds), worker-pool counters, store-wide
    /// fast-path counters, and per-object history-length gauges labelled
    /// with their shard slot (crashed or Byzantine-substituted objects
    /// are skipped; the safe protocol keeps no histories).
    pub fn metrics_snapshot(&self) -> Registry {
        self.metrics_snapshot_labelled(None)
    }

    /// [`ShardedStore::metrics_snapshot`] with every history-length gauge
    /// additionally labelled `cluster="<cluster>"` — used by the
    /// multi-cluster router (and, via `Op::StoreMetrics`, by `vrr-server`
    /// hosting a router member) so snapshots of different clusters merge
    /// without colliding on identical `{object, shard}` label sets.
    pub fn metrics_snapshot_labelled(&self, cluster: Option<usize>) -> Registry {
        let mut reg = self.ops.lock().clone();
        let stats = self.cluster.stats();
        reg.counter_add(metrics::names::EXECUTOR_SWEEPS, &[], stats.sweeps);
        reg.counter_add(metrics::names::EXECUTOR_WAKEUPS, &[], stats.wakeups);
        reg.counter_add(metrics::names::EXECUTOR_COMMANDS, &[], stats.commands);
        metrics::record_fast_path(&mut reg, &self.fast_path_stats());
        if self.kind != ProtocolKind::Safe {
            for (slot, shard) in self.shards.iter().enumerate() {
                // Unlike `history_lens`, skip Byzantine-substituted and
                // crashed objects instead of panicking.
                let lens: Vec<usize> = shard
                    .pids
                    .objects
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !shard.byzantine.contains(i))
                    .filter_map(|(_, &pid)| {
                        self.cluster
                            .try_invoke(pid, |o: &mut RegularObject<V>, _ctx| o.history().len())
                            .ok()
                    })
                    .collect();
                metrics::record_history_lens_at(&mut reg, cluster, Some(slot), &lens);
            }
        }
        reg
    }

    /// Access to the underlying cluster (fault injection, stats).
    pub fn cluster(&self) -> &Cluster<Msg<V>> {
        &self.cluster
    }
}

impl<K: Eq + Hash, V: Value> std::fmt::Debug for ShardedStore<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("kind", &self.kind)
            .field("cfg", &self.cfg)
            .field("capacity", &self.capacity())
            .field("keys", &self.len())
            .finish()
    }
}

/// Records one completed write into `ops`. On the runtime, latency ticks
/// are wall-clock **microseconds** (the simulator records sim ticks under
/// the same name; the unit is the harness's to define).
fn record_write(ops: &Mutex<Registry>, rounds: u32, started: Instant) {
    let us = started.elapsed().as_micros() as u64;
    let mut ops = ops.lock();
    ops.observe(metrics::names::WRITER_ROUNDS, &[], u64::from(rounds));
    ops.observe(metrics::names::WRITE_LATENCY, &[], us);
}

/// Records one completed read into `ops` (microsecond latency ticks, see
/// [`record_write`]).
fn record_read(ops: &Mutex<Registry>, rounds: u32, started: Instant) {
    let us = started.elapsed().as_micros() as u64;
    let mut ops = ops.lock();
    ops.observe(metrics::names::READER_ROUNDS, &[], u64::from(rounds));
    ops.observe(metrics::names::READ_LATENCY, &[], us);
}

#[cfg(test)]
mod tests {
    use vrr_core::attackers::AttackerKind;
    use vrr_core::metrics::names;
    use vrr_core::regular::{HistoryRetention, RegularTuning};

    use super::*;
    use crate::group::ReaderTuning;
    use crate::router::NoDelay;

    /// One register: a one-key store.
    fn register(spec: GroupSpec) -> ShardedStore<(), u64> {
        ShardedStore::deploy_spec(spec, Box::new(NoDelay), 1, |_shard, _i| None)
    }

    #[test]
    fn distinct_keys_use_distinct_shards() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let store: ShardedStore<String, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay), 8);
        for k in 0..8u64 {
            store.write(format!("key-{k}"), k * 100);
        }
        assert_eq!(store.len(), 8);
        for k in 0..8u64 {
            let r = store.read(&format!("key-{k}"), 0).expect("written key");
            assert_eq!(r.value, Some(k * 100));
            assert_eq!(r.rounds, 2);
        }
        // All shards distinct.
        let slots: std::collections::BTreeSet<usize> = (0..8u64)
            .map(|k| store.shard_of(&format!("key-{k}")).unwrap())
            .collect();
        assert_eq!(slots.len(), 8);
    }

    #[test]
    fn rewrites_to_one_key_stay_on_its_shard() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let store: ShardedStore<&'static str, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay), 2);
        for gen in 1..=5u64 {
            store.write("config", gen);
            for j in 0..2 {
                assert_eq!(store.read(&"config", j).unwrap().value, Some(gen));
            }
        }
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn unwritten_key_reads_none() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let store: ShardedStore<&'static str, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay), 1);
        assert_eq!(store.read(&"ghost", 0), None);
    }

    #[test]
    fn reader_ack_gc_bounds_history_per_shard() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let spec = GroupSpec::new(cfg, ProtocolKind::RegularOptimized);
        let store: ShardedStore<&'static str, u64> = ShardedStore::deploy_spec(
            spec.with_retention(HistoryRetention::reader_ack(1)),
            Box::new(NoDelay),
            2,
            |_shard, _i| None,
        );
        for k in 1..=60u64 {
            store.write("hot", k);
            assert_eq!(store.read(&"hot", 0).unwrap().value, Some(k));
            if k % 10 == 0 {
                store.write("cold", k);
                assert_eq!(store.read(&"cold", 0).unwrap().value, Some(k));
            }
        }
        // Acks ride on the READ broadcasts, which are flushed before the
        // inspection command is enqueued: every object has truncated down
        // to the concurrency window by now.
        for slot in [
            store.shard_of(&"hot").unwrap(),
            store.shard_of(&"cold").unwrap(),
        ] {
            for len in store.history_lens(slot) {
                assert!(len <= 5, "shard {slot} history len {len} unbounded");
            }
        }

        // The control: the paper-faithful default really does grow.
        let keep_all = register(spec);
        for k in 1..=30u64 {
            keep_all.write((), k);
            assert_eq!(keep_all.read(&(), 0).unwrap().value, Some(k));
        }
        assert!(keep_all.history_lens(0).into_iter().all(|len| len == 31));
    }

    #[test]
    fn over_provisioned_shards_serve_one_round_reads() {
        // S = 2t + 2b + 1 = 5 arms the fast path: fault-free reads finish
        // in round 1 for both protocol families.
        let cfg = StorageConfig::fast(1, 1, 1);
        for kind in [
            ProtocolKind::Safe,
            ProtocolKind::Regular,
            ProtocolKind::RegularOptimized,
        ] {
            let store: ShardedStore<&'static str, u64> =
                ShardedStore::deploy(cfg, kind, Box::new(NoDelay), 2);
            for k in 1..=3u64 {
                store.write("a", k);
                store.write("b", k * 10);
                for (key, v) in [("a", k), ("b", k * 10)] {
                    let r = store.read(&key, 0).expect("written key");
                    assert_eq!(r.value, Some(v), "{kind:?}");
                    assert_eq!(r.rounds, 1, "{kind:?}");
                    assert!(r.fast, "{kind:?}");
                }
            }
            let stats = store.fast_path_stats();
            assert_eq!(stats.hits, 6, "{kind:?}");
            assert_eq!(stats.fallbacks, 0, "{kind:?}");
        }
    }

    #[test]
    fn fast_path_stays_disarmed_at_optimal_resilience() {
        let cfg = StorageConfig::optimal(1, 1, 1); // S = 2t + 2b: Prop. 1
        let store = register(GroupSpec::new(cfg, ProtocolKind::RegularOptimized));
        store.write((), 7);
        let r = store.read(&(), 0).unwrap();
        assert_eq!(r.value, Some(7));
        assert_eq!(r.rounds, 2);
        assert!(!r.fast);
        assert_eq!(store.fast_path_stats(), FastPathStats::default());
    }

    #[test]
    fn unreachable_threshold_forces_the_fallback_path() {
        // The deterministic fallback-forcing deployment used by the
        // `read/fast-fallback` bench: over-provisioned sizing, but a
        // threshold no quorum can meet, so every read arms the fast path
        // and then completes through the two-round protocol.
        let cfg = StorageConfig::fast(1, 1, 1);
        let store = register(
            GroupSpec::new(cfg, ProtocolKind::RegularOptimized).with_tuning(ReaderTuning::Regular(
                RegularTuning {
                    fast_threshold: Some(usize::MAX),
                    ..RegularTuning::default()
                },
            )),
        );
        for k in 1..=4u64 {
            store.write((), k);
            let r = store.read(&(), 0).unwrap();
            assert_eq!(r.value, Some(k));
            assert_eq!(r.rounds, 2);
            assert!(!r.fast);
        }
        let stats = store.fast_path_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.fallbacks, 4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn mismatched_reader_tuning_panics() {
        let cfg = StorageConfig::fast(1, 1, 1);
        register(
            GroupSpec::new(cfg, ProtocolKind::Safe)
                .with_tuning(ReaderTuning::Regular(RegularTuning::default())),
        );
    }

    #[test]
    fn metrics_snapshot_labels_histories_by_shard() {
        let cfg = StorageConfig::fast(1, 1, 1);
        let store: ShardedStore<&'static str, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay), 2);
        store.write("a", 1);
        store.write("b", 2);
        store.read(&"a", 0);
        let snap = store.metrics_snapshot();
        assert_eq!(
            snap.histogram(names::WRITER_ROUNDS, &[]).unwrap().count(),
            2
        );
        assert_eq!(
            snap.histogram(names::READER_ROUNDS, &[]).unwrap().count(),
            1
        );
        assert_eq!(snap.histogram(names::READ_LATENCY, &[]).unwrap().count(), 1);
        let hits = snap.counter(names::READER_FAST_HITS, &[]);
        let fallbacks = snap.counter(names::READER_FAST_FALLBACKS, &[]);
        assert_eq!(hits + fallbacks, 1, "every read hit or fell back");
        assert!(snap.counter(names::EXECUTOR_COMMANDS, &[]) > 0);
        // One gauge per object per shard, distinguished by the shard label.
        assert_eq!(
            snap.gauge_values(names::OBJECT_HISTORY_LEN).len(),
            2 * cfg.s
        );
        // The snapshot speaks the same text format as the sim harness.
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE vrr_writer_rounds histogram"));
        assert!(text.contains("vrr_object_history_len{object=\"0\",shard=\"1\"}"));
    }

    #[test]
    fn snapshot_tolerates_crashed_and_byzantine_objects() {
        let cfg = StorageConfig::fast(1, 1, 1);
        let store: ShardedStore<(), u64> = ShardedStore::deploy_with_objects(
            cfg,
            ProtocolKind::RegularOptimized,
            Box::new(NoDelay),
            1,
            |_shard, i| (i == 4).then(|| AttackerKind::Inflator.build_regular(cfg, 0xBAD)),
        );
        store.write((), 1);
        assert_eq!(store.read(&(), 0).unwrap().value, Some(1));
        store.crash_object(0, 0);
        let snap = store.metrics_snapshot();
        // 5 objects - 1 Byzantine - 1 crashed = 3 inspectable histories.
        assert_eq!(snap.gauge_values(names::OBJECT_HISTORY_LEN).len(), 3);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn capacity_overflow_panics() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let store: ShardedStore<u64, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay), 2);
        store.write(1, 1);
        store.write(2, 2);
        store.write(3, 3);
    }

    #[test]
    fn shard_survives_crashes_within_budget() {
        let cfg = StorageConfig::optimal(2, 1, 1); // S = 6, t = 2
        let store: ShardedStore<&'static str, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay), 2);
        store.write("a", 1);
        store.write("b", 2);
        let slot = store.shard_of(&"a").unwrap();
        store.crash_object(slot, 0);
        store.crash_object(slot, 3);
        store.write("a", 10);
        assert_eq!(store.read(&"a", 0).unwrap().value, Some(10));
        assert_eq!(store.read(&"b", 0).unwrap().value, Some(2));
    }
}
