//! # vrr-net: real sockets under the storage protocols
//!
//! Everything below `vrr-runtime` is message passing between automata, so
//! distributing a deployment across OS processes only needs a way to move
//! `Msg` values between clusters. This crate provides it:
//!
//! - [`frame`] — the wire protocol: a total, defensive codec
//!   ([`vrr_core::wire`]) wrapped in [`frame::Envelope`]s (source node,
//!   epoch, sequence number) and length-prefixed frames, plus the thin
//!   client protocol ([`frame::Ctl`] / [`frame::Op`] / [`frame::Rsp`]).
//! - [`reactor`] — a single-threaded epoll event loop (via the vendored
//!   `mio` shim) owning every socket: non-blocking accept/connect/read/
//!   write, per-connection write queues, incremental frame extraction.
//! - [`transport`] — the [`transport::Transport`] trait and
//!   [`transport::TcpTransport`] (peer table, `Hello` handshakes,
//!   reconnect-on-demand, lossy-on-reset delivery).
//! - [`node`] — [`node::NetNode`]: one OS process of a deployment. Spawns
//!   the full global pid space ([`vrr_runtime::spawn_group_with`] over the
//!   node's [`vrr_runtime::GroupSpec`]) with [`node::Relay`] stand-ins for
//!   remote pids, so single-register workloads run unchanged whether
//!   members share a process or not.
//! - [`client`] — [`client::NetClient`] / [`client::NetStore`]: a blocking
//!   thin client (write/read/metrics/fault-injection ops) and a
//!   `ShardedStore`-style key→slot facade over it.
//!
//! The `vrr-server` binary wraps [`node::NetNode`] behind a CLI so
//! objects, writer and readers can live in separate OS processes; see
//! `examples/net_kv.rs` at the workspace root and the crate's integration
//! tests for the two ways to drive it.
//!
//! Against a running deployment (say `vrr-server --node … --addrs
//! 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102 …` with the writer and
//! reader 0 on node 0 and reader 1 on node 2), a thin client is three
//! calls:
//!
//! ```no_run
//! use vrr_net::NetStore;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut store = NetStore::<&str, u64>::connect(
//!     "127.0.0.1:7100".parse()?,                          // writer node
//!     &["127.0.0.1:7100".parse()?, "127.0.0.1:7102".parse()?], // readers
//!     4,                                                  // register slots
//! )?;
//! store.put("alpha", 7)?;
//! assert_eq!(store.get(&"alpha", 0)?.value, Some(7));
//! # Ok(())
//! # }
//! ```
//!
//! ## Fault model on real sockets
//!
//! TCP gives per-connection FIFO, but the transport deliberately does
//! *not* add end-to-end reliability: frames buffered for a dead peer are
//! dropped (lossy on reset), and a restarted process comes back amnesiac
//! with a fresh epoch. Both are inside the fault budget the protocols are
//! proved against — a reset or restarted base object is indistinguishable
//! from a crashed-then-silent one, and every operation waits on quorums of
//! `S - t` only. The transport-fault test battery in `tests/` checks
//! exactly this: under kill+restart, connection resets and Byzantine
//! objects, every completed read is still checker-verified regular.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod node;
pub mod reactor;
pub mod remote;
pub mod transport;

pub use client::{ClientError, NetClient, NetStore, RetryPolicy};
pub use frame::{Ctl, Envelope, FrameError, FrameReader, Op, Payload, Rsp, MAX_FRAME_LEN};
pub use node::{
    free_addrs, ByzSpec, GroupPlacement, NetNode, NetNodeConfig, NodeTopology, Relay, StoreByzSpec,
    StoreSpec,
};
pub use reactor::{ConnId, NetCounters, NetEvent, ReactorHandle};
pub use remote::{RemoteCluster, RemoteClusterConfig};
pub use transport::{Inbound, TcpTransport, Transport};
