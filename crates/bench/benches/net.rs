//! **B-NET** — what the real network costs on top of channels.
//!
//! The same two-round protocols, the same sizing (`optimal(1, 1, 1)`),
//! two transports:
//!
//! * `net/{write,read}/inproc` — a one-key [`ShardedStore`] on the
//!   worker-pool runtime: every protocol message is an in-process channel send.
//! * `net/{write,read}/tcp` — the identical group split across two
//!   [`NetNode`]s on localhost: every writer→object and reader→object
//!   message is framed, crosses a real socket, and is decoded on the
//!   other side.
//!
//! The shapes `bench_shape` enforces are relational, not absolute: the
//! socket hop may only *add* latency over channels, and over TCP a
//! two-round read must stay commensurate with a two-round write (both
//! pay the same four wire crossings per round).
//!
//! Committed baseline: `BENCH_net.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use vrr_core::StorageConfig;
use vrr_net::{free_addrs, GroupPlacement, NetNode, NetNodeConfig, NodeTopology};
use vrr_runtime::{GroupSpec, NoDelay, ProtocolKind, ShardedStore};

fn cfg() -> StorageConfig {
    StorageConfig::optimal(1, 1, 1)
}

fn bench_inproc(c: &mut Criterion) {
    let register: ShardedStore<(), u64> =
        ShardedStore::deploy(cfg(), ProtocolKind::RegularOptimized, Box::new(NoDelay), 1);
    register.write((), 1);

    let mut group = c.benchmark_group("net/write");
    let mut v = 1u64;
    group.bench_function("inproc", |b| {
        b.iter(|| {
            v += 1;
            register.write((), v)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("net/read");
    group.bench_function("inproc", |b| b.iter(|| register.read(&(), 0)));
    group.finish();
}

fn bench_tcp(c: &mut Criterion) {
    // Writer and half the objects on node 0; the reader and the other
    // half on node 1 — both operations cross the wire every round.
    let cfg = cfg();
    let split = cfg.s.div_ceil(2);
    let topo = NodeTopology {
        addrs: free_addrs(2).expect("reserve ports"),
        placement: GroupPlacement {
            objects: (0..cfg.s).map(|i| u32::from(i >= split)).collect(),
            writer: 0,
            readers: vec![1; cfg.readers],
        },
        slots: 1,
    };
    let ncfg = NetNodeConfig::<u64>::new(GroupSpec::new(cfg, ProtocolKind::RegularOptimized));
    let n0 = NetNode::start(0, &topo, ncfg.clone()).expect("node 0");
    let n1 = NetNode::start(1, &topo, ncfg).expect("node 1");
    n0.write_slot(0, 1);

    let mut group = c.benchmark_group("net/write");
    let mut v = 1u64;
    group.bench_function("tcp", |b| {
        b.iter(|| {
            v += 1;
            n0.write_slot(0, v)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("net/read");
    group.bench_function("tcp", |b| b.iter(|| n1.read_slot(0, 0)));
    group.finish();
}

criterion_group!(benches, bench_inproc, bench_tcp);
criterion_main!(benches);
