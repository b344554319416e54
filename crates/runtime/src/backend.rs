//! The cluster abstraction behind [`StoreRouter`](crate::StoreRouter):
//! "a cluster" is a trait, not a concrete type.
//!
//! [`ShardedStore`] deploys register groups on an in-process worker pool;
//! `vrr-net`'s `RemoteCluster` drives the same operations over TCP against
//! a store hosted by a `vrr-server` in another OS process. A router routes
//! keys by seeded hash and never looks past this trait, so one ring can
//! span heterogeneous backends — some clusters local, some remote — and the
//! never-expose-intermediate-state rebalance (regular-`READ` copy, write
//! into the destination, release the source, repoint the ring) works
//! unchanged across process boundaries.
//!
//! The trait is object-safe on purpose: routers hold
//! `Arc<dyn ClusterBackend<K, V>>` and remain oblivious to where a
//! cluster's automata actually execute.

use vrr_core::metrics::Registry;
use vrr_core::{ReadReport, Value, WriteReport};

use crate::shard::{ShardedStore, StoreError};

/// One shard-cluster as the router sees it: a capacity-bounded key→register
/// map with the operations a scale-out deployment needs — write, read,
/// release (the source half of a rebalance), fault injection, history
/// inspection and a metrics snapshot.
///
/// Implementations must uphold the [`ShardedStore`] capacity contract:
/// binding a key consumes a register slot for good, [`release`] retires the
/// slot rather than recycling it, and a bound key keeps the paper's SWMR
/// semantics (writes to one key serialize; reads are regular under the
/// cluster's `(t, b)` fault budget).
///
/// [`release`]: ClusterBackend::release
pub trait ClusterBackend<K, V: Value>: Send + Sync {
    /// Blocking `WRITE(key, value)`; binds `key` on first use, reporting
    /// capacity exhaustion (and, for remote backends, unrecoverable
    /// transport failure) as a typed [`StoreError`].
    fn try_write(&self, key: K, value: V) -> Result<WriteReport, StoreError>;

    /// Blocking `READ(key)` at reader index `reader`, or `None` if `key`
    /// is not bound here.
    fn read(&self, key: &K, reader: usize) -> Option<ReadReport<V>>;

    /// Unbinds `key`, retiring its register slot (never recycled).
    /// Returns the retired slot, or `None` if the key was not bound.
    fn release(&self, key: &K) -> Option<usize>;

    /// Every currently-bound key (unordered) — what a rebalance must move.
    fn keys(&self) -> Vec<K>;

    /// Number of keys currently bound.
    fn len(&self) -> usize;

    /// Whether no key is currently bound.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is currently bound.
    fn contains_key(&self, key: &K) -> bool;

    /// The register slot serving `key`, if bound.
    fn shard_of(&self, key: &K) -> Option<usize>;

    /// Provisioned register slots (bindings ever possible, not live keys).
    fn capacity(&self) -> usize;

    /// Register slots never bound to any key (capacity headroom).
    fn free_slots(&self) -> usize;

    /// Crashes base object `object` of register slot `slot` (fault
    /// injection).
    fn crash_object(&self, slot: usize, object: usize);

    /// The stored history length of every regular object in slot `slot` —
    /// the memory-bound observable of the reader-ack GC experiments.
    fn history_lens(&self, slot: usize) -> Vec<usize>;

    /// One snapshot of everything observable about the cluster, with every
    /// history-length gauge additionally labelled `cluster="<cluster>"`
    /// when given — so the snapshots of a router's clusters merge into one
    /// [`Registry`] without colliding.
    fn metrics_snapshot_labelled(&self, cluster: Option<usize>) -> Registry;

    /// Where this cluster's automata execute: `"inproc"` for the worker
    /// pool in this process, `"tcp"` for a `vrr-server` in another one.
    fn scheme(&self) -> &'static str;

    /// Panicking [`ClusterBackend::try_write`] (capacity exhaustion and
    /// transport failure are deployment errors on this path).
    fn write(&self, key: K, value: V) -> WriteReport {
        self.try_write(key, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ClusterBackend::metrics_snapshot_labelled`] without the cluster
    /// label.
    fn metrics_snapshot(&self) -> Registry {
        self.metrics_snapshot_labelled(None)
    }
}

impl<K, V> ClusterBackend<K, V> for ShardedStore<K, V>
where
    K: Eq + std::hash::Hash + Clone + Send + Sync,
    V: Value,
{
    fn try_write(&self, key: K, value: V) -> Result<WriteReport, StoreError> {
        ShardedStore::try_write(self, key, value)
    }

    fn read(&self, key: &K, reader: usize) -> Option<ReadReport<V>> {
        ShardedStore::read(self, key, reader)
    }

    fn release(&self, key: &K) -> Option<usize> {
        ShardedStore::release(self, key)
    }

    fn keys(&self) -> Vec<K> {
        ShardedStore::keys(self)
    }

    fn len(&self) -> usize {
        ShardedStore::len(self)
    }

    fn contains_key(&self, key: &K) -> bool {
        ShardedStore::contains_key(self, key)
    }

    fn shard_of(&self, key: &K) -> Option<usize> {
        ShardedStore::shard_of(self, key)
    }

    fn capacity(&self) -> usize {
        ShardedStore::capacity(self)
    }

    fn free_slots(&self) -> usize {
        ShardedStore::free_slots(self)
    }

    fn crash_object(&self, slot: usize, object: usize) {
        ShardedStore::crash_object(self, slot, object)
    }

    fn history_lens(&self, slot: usize) -> Vec<usize> {
        ShardedStore::history_lens(self, slot)
    }

    fn metrics_snapshot_labelled(&self, cluster: Option<usize>) -> Registry {
        ShardedStore::metrics_snapshot_labelled(self, cluster)
    }

    fn scheme(&self) -> &'static str {
        "inproc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ProtocolKind;
    use crate::router::NoDelay;
    use vrr_core::StorageConfig;

    #[test]
    fn sharded_store_serves_through_the_trait_object() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let store: ShardedStore<String, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay), 4);
        let backend: std::sync::Arc<dyn ClusterBackend<String, u64>> = std::sync::Arc::new(store);
        backend.write("alpha".into(), 7);
        assert_eq!(backend.scheme(), "inproc");
        assert_eq!(backend.len(), 1);
        assert_eq!(backend.read(&"alpha".into(), 0).unwrap().value, Some(7));
        assert!(backend.contains_key(&"alpha".into()));
        let slot = backend.shard_of(&"alpha".into()).unwrap();
        assert!(!backend.history_lens(slot).is_empty());
        assert_eq!(backend.release(&"alpha".into()), Some(slot));
        assert_eq!(backend.read(&"alpha".into(), 0), None);
        assert_eq!(backend.capacity(), 4);
        assert_eq!(backend.free_slots(), 3);
    }
}
