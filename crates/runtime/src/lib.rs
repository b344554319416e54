//! # vrr-runtime: the storage protocols on a sharded worker pool
//!
//! A message-passing runtime hosting the *same* automata that run under
//! the deterministic simulator (`vrr-sim`) on a fixed pool of worker
//! threads. Each worker owns a shard of process mailboxes (`pid %
//! workers`) and drains **whole mailbox batches per sweep**: one lock
//! acquisition steals every pending command in the shard, the automata
//! step lock-free, and the sweep's accumulated outbox is flushed with one
//! lock acquisition per destination shard. Link delay and loss are
//! injected by a [`LinkPolicy`]; delayed messages park in the owning
//! shard's timer wheel, so an idle cluster blocks on condvars — zero
//! wakeups — instead of polling.
//!
//! [`ShardedStore`] maps keys onto independent register groups (each with
//! its own writer, base objects and readers) over one shared [`Cluster`],
//! giving key-value workloads true multi-key parallelism; the paper's
//! single register is the one-key case, a `ShardedStore<(), V>` of
//! capacity one. Every group is built from one [`GroupSpec`] — sizing,
//! protocol, history retention, reader tuning. One level up,
//! [`StoreRouter`] partitions the key space across *multiple independent*
//! clusters through a seeded-hash [`RingTable`] — deterministic,
//! directory-free routing with live cluster add/remove (rebalance stays
//! regular while absorbing crash + Byzantine faults per register group).
//! A router's cluster is anything implementing [`ClusterBackend`]: the
//! in-process [`ShardedStore`], or `vrr-net`'s `RemoteCluster` driving a
//! store hosted by a `vrr-server` in another OS process — one ring spans
//! heterogeneous backends.
//!
//! Long-running regular deployments should pair the §5.1 suffix transfers
//! with reader-ack history GC — a [`GroupSpec`] whose `retention` is
//! [`vrr_core::regular::HistoryRetention::reader_ack`] — so object memory
//! is bounded by reader concurrency instead of run length; the safety
//! argument lives in the [`vrr_core::regular`] module docs, and
//! [`ShardedStore::history_lens`] exposes the observable it is tested on.
//!
//! Use the simulator for correctness experiments (replayable adversarial
//! schedules) and this runtime for wall-clock benchmarks and the networked
//! examples — the protocol code is identical in both.
//!
//! ```
//! use vrr_runtime::{NoDelay, ProtocolKind, ShardedStore};
//! use vrr_core::StorageConfig;
//!
//! let cfg = StorageConfig::optimal(1, 1, 1); // S = 4 objects
//! let register: ShardedStore<(), String> =
//!     ShardedStore::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay), 1);
//! register.write((), "hello".to_string());
//! let read = register.read(&(), 0).expect("the key is bound");
//! assert_eq!(read.value.as_deref(), Some("hello"));
//! ```

#![warn(missing_docs)]

mod backend;
mod cluster;
mod executor;
mod group;
mod ring;
mod router;
mod scaleout;
mod shard;

pub use backend::ClusterBackend;
pub use cluster::{Cluster, NodeGone};
pub use executor::ExecutorStats;
pub use group::{
    blocking_read, blocking_write, group_member, group_span, spawn_group_with, GroupPids,
    GroupRole, GroupSpec, ProtocolKind, ReaderTuning,
};
pub use ring::{stable_hash_64, RingTable, StableHasher};
pub use router::{FixedDelay, LinkAction, LinkPolicy, NoDelay};
pub use scaleout::{RouterConfig, StoreRouter};
pub use shard::{ShardedStore, StoreError};
