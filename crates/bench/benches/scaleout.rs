//! **B-SCALE** — multi-cluster scale-out under skewed load.
//!
//! The paper's registers are per-key protocols with no cross-register
//! coordination, so aggregate throughput should grow with the number of
//! independent shard-clusters behind a [`StoreRouter`]. Two groups:
//!
//! * `scaleout/zipfian/clusters/{1,2,4}` — a fixed YCSB-style Zipfian
//!   workload (θ = 0.99, multi-threaded clients, 50/50 write/read) pushed
//!   through routers with 1, 2 and 4 shard-clusters. The shape to check:
//!   per-iteration cost is monotonically non-increasing in cluster count
//!   (more independent worker pools never hurt; on multi-core hosts they
//!   help near-linearly).
//! * `scaleout/router-overhead/{direct,routed,remote}` — the same
//!   single-cluster workload against a bare [`ShardedStore`], through the
//!   router, and through a router whose only cluster is a
//!   [`RemoteCluster`] driving a store-hosting node over real localhost
//!   TCP. The in-proc routing step must cost ≤ 15% on top of direct
//!   access, and the socket-backed router may only ever cost *more* than
//!   the in-proc one (frames, syscalls and a reactor hop per op).
//!
//! Committed baseline: `BENCH_scaleout.json`; relations enforced by
//! `bench_shape`.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use vrr_core::StorageConfig;
use vrr_net::{
    free_addrs, GroupPlacement, NetNode, NetNodeConfig, NodeTopology, RemoteCluster,
    RemoteClusterConfig, RetryPolicy, StoreSpec,
};
use vrr_runtime::{
    ClusterBackend, GroupSpec, NoDelay, ProtocolKind, RouterConfig, ShardedStore, StoreRouter,
};
use vrr_workload::ZipfianKeys;

/// Distinct keys in the workload (the Zipfian key space).
const KEYS: u64 = 48;
/// Concurrent client threads per iteration.
const CLIENTS: u64 = 4;
/// Operations per client per iteration (alternating write/read).
const OPS_PER_CLIENT: u64 = 64;

fn deploy_router(clusters: usize) -> StoreRouter<u64, u64> {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let router = StoreRouter::deploy(
        GroupSpec::new(cfg, ProtocolKind::RegularOptimized),
        RouterConfig::new(clusters, KEYS as usize).with_seed(42),
    );
    // Pre-bind every key so iterations measure steady-state operations,
    // not first-write shard binding.
    for k in 0..KEYS {
        router.write(k, 0);
    }
    router
}

/// One client's worth of skewed operations, deterministic per seed.
fn client_ops(seed: u64, mut write: impl FnMut(u64, u64), mut read: impl FnMut(u64)) {
    let mut zipf = ZipfianKeys::ycsb(KEYS, seed);
    for i in 0..OPS_PER_CLIENT {
        let key = zipf.next_scrambled();
        if i % 2 == 0 {
            write(key, i);
        } else {
            read(key);
        }
    }
}

fn run_router_clients(router: &StoreRouter<u64, u64>) {
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                client_ops(
                    c,
                    |k, v| {
                        router.write(k, v);
                    },
                    |k| {
                        router.read(&k, 0);
                    },
                );
            });
        }
    });
}

fn run_store_clients(store: &ShardedStore<u64, u64>) {
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                client_ops(
                    c,
                    |k, v| {
                        store.write(k, v);
                    },
                    |k| {
                        store.read(&k, 0);
                    },
                );
            });
        }
    });
}

fn bench_zipfian_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaleout/zipfian");
    group
        .sample_size(5)
        .measurement_time(Duration::from_secs(5));
    for clusters in [1usize, 2, 4] {
        group.throughput(Throughput::Elements(CLIENTS * OPS_PER_CLIENT));
        let router = deploy_router(clusters);
        group.bench_function(BenchmarkId::new("clusters", clusters), |b| {
            b.iter(|| run_router_clients(&router));
        });
        drop(router);
    }
    group.finish();
}

fn bench_router_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaleout/router-overhead");
    group
        .sample_size(5)
        .measurement_time(Duration::from_secs(5));
    group.throughput(Throughput::Elements(CLIENTS * OPS_PER_CLIENT));

    let cfg = StorageConfig::optimal(1, 1, 1);
    let store: ShardedStore<u64, u64> = ShardedStore::deploy(
        cfg,
        ProtocolKind::RegularOptimized,
        Box::new(NoDelay),
        KEYS as usize,
    );
    for k in 0..KEYS {
        store.write(k, 0);
    }
    group.bench_function(BenchmarkId::new("direct", 1usize), |b| {
        b.iter(|| run_store_clients(&store));
    });
    drop(store);

    let router = deploy_router(1);
    group.bench_function(BenchmarkId::new("routed", 1usize), |b| {
        b.iter(|| run_router_clients(&router));
    });
    drop(router);

    // Same workload once more, with the single cluster behind real
    // localhost TCP: a store-hosting node in this process (vrr-net is a
    // dev-dependency) driven through a RemoteCluster connection pool.
    let node = {
        let addrs = free_addrs(1).expect("reserve port");
        let topo = NodeTopology {
            addrs,
            placement: GroupPlacement::single(0, cfg),
            slots: 1,
        };
        let mut ncfg =
            NetNodeConfig::<u64>::new(GroupSpec::new(cfg, ProtocolKind::RegularOptimized));
        ncfg.store = Some(StoreSpec::new(KEYS as usize));
        NetNode::start(0, &topo, ncfg).expect("start store node")
    };
    let backend: Arc<dyn ClusterBackend<u64, u64>> = Arc::new(
        RemoteCluster::<u64, u64>::connect(
            node.addr(),
            RemoteClusterConfig::new(CLIENTS as usize, RetryPolicy::with_seed(42)),
        )
        .expect("connect remote cluster"),
    );
    let remote_router: StoreRouter<u64, u64> = StoreRouter::deploy_with_backends(
        RouterConfig::new(1, KEYS as usize).with_seed(42),
        move |_| backend.clone(),
    );
    for k in 0..KEYS {
        remote_router.write(k, 0);
    }
    group.bench_function(BenchmarkId::new("remote", 1usize), |b| {
        b.iter(|| run_router_clients(&remote_router));
    });
    drop(remote_router);
    drop(node);

    group.finish();
}

criterion_group!(benches, bench_zipfian_scaling, bench_router_overhead);
criterion_main!(benches);
