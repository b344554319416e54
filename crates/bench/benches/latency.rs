//! **B-LAT** — wall-clock operation latency on the thread runtime.
//!
//! Measures blocking READ/WRITE latency of the paper's protocols hosted on
//! OS threads with real message passing, across protocol variants, object
//! counts, and with attackers present. Absolute numbers are
//! machine-dependent; the *shape* to check: reads and writes cost about
//! the same (both are 2 round-trips), latency grows mildly with `S` (more
//! fan-out, same round count), and Byzantine objects do not slow reads
//! down (their filtering is local arithmetic).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vrr_core::attackers::AttackerKind;
use vrr_core::regular::RegularTuning;
use vrr_core::StorageConfig;
use vrr_runtime::{GroupSpec, NoDelay, ProtocolKind, ReaderTuning, ShardedStore};

/// One register: a one-key store.
type Register = ShardedStore<(), u64>;

fn bench_protocol_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("latency/variant");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for (name, kind) in [
        ("safe", ProtocolKind::Safe),
        ("regular", ProtocolKind::Regular),
        ("regular-opt", ProtocolKind::RegularOptimized),
    ] {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let storage = Register::deploy(cfg, kind, Box::new(NoDelay), 1);
        storage.write((), 1);
        group.bench_function(BenchmarkId::new("write", name), |b| {
            let mut v = 2u64;
            b.iter(|| {
                v += 1;
                storage.write((), v)
            });
        });
        group.bench_function(BenchmarkId::new("read", name), |b| {
            b.iter(|| storage.read(&(), 0));
        });
    }

    // The one-round fast path: one replica above optimal (S = 2t+2b+1 = 5
    // instead of 4) buys fault-free reads that finish in round 1. The
    // fan-out is larger but a whole round-trip is saved, so `read/fast`
    // must beat the two-round `read/regular-opt` above.
    let cfg = StorageConfig::fast(1, 1, 1);
    let storage = Register::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay), 1);
    storage.write((), 1);
    assert!(
        storage.read(&(), 0).unwrap().fast,
        "fast path must fire fault-free"
    );
    group.bench_function(BenchmarkId::new("read", "fast"), |b| {
        b.iter(|| storage.read(&(), 0));
    });

    // The fallback cost: same over-provisioned deployment, but an
    // unreachable confirmation threshold makes every read arm the fast
    // path, fail it, and complete through the two-round protocol — the
    // adversarial worst case, bounded near the plain two-round read.
    let spec = GroupSpec::new(cfg, ProtocolKind::RegularOptimized).with_tuning(
        ReaderTuning::Regular(RegularTuning {
            fast_threshold: Some(usize::MAX),
            ..RegularTuning::default()
        }),
    );
    let storage = Register::deploy_spec(spec, Box::new(NoDelay), 1, |_shard, _i| None);
    storage.write((), 1);
    assert!(
        !storage.read(&(), 0).unwrap().fast,
        "fallback deployment must not fast-fire"
    );
    group.bench_function(BenchmarkId::new("read", "fast-fallback"), |b| {
        b.iter(|| storage.read(&(), 0));
    });
    group.finish();
}

fn bench_object_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("latency/objects");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for t in [1usize, 2, 3, 5] {
        let cfg = StorageConfig::optimal(t, 1, 1); // S = 2t + 2
        let storage = Register::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay), 1);
        storage.write((), 1);
        group.bench_function(BenchmarkId::new("read", format!("S{}", cfg.s)), |b| {
            b.iter(|| storage.read(&(), 0));
        });
    }
    group.finish();
}

fn bench_under_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("latency/attacker");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let cfg = StorageConfig::optimal(2, 2, 1); // S = 7, b = 2
    for (name, attacker) in [
        ("none", None),
        ("inflator", Some(AttackerKind::Inflator)),
        ("conflicter", Some(AttackerKind::Conflicter)),
        ("mute", Some(AttackerKind::Mute)),
    ] {
        let storage =
            Register::deploy_with_objects(cfg, ProtocolKind::Safe, Box::new(NoDelay), 1, |_, i| {
                attacker.and_then(|kind| (i < cfg.b).then(|| kind.build_safe(cfg, 0xDEADu64)))
            });
        storage.write((), 1);
        group.bench_function(BenchmarkId::new("read", name), |b| {
            b.iter(|| storage.read(&(), 0));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_protocol_variants,
    bench_object_count,
    bench_under_attack
);
criterion_main!(benches);
