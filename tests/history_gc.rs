//! End-to-end coverage of reader-ack–driven history garbage collection:
//! flat memory under steady-state load in the simulator and on the thread
//! runtime, the crashed-reader escape hatch, and Byzantine objects lying
//! about suffixes — with reads staying regular and 2-round throughout.
//!
//! The simulator runs go through the [`StorageScenario`] builder, which
//! owns the deploy/drive/inspect boilerplate and exports history lengths
//! through the same metrics snapshot the thread runtime produces.

use vrr::core::attackers::AttackerKind;
use vrr::core::metrics::names;
use vrr::core::regular::{HistoryRetention, RegularReader};
use vrr::core::{RegularProtocol, StorageConfig, StorageScenario, Timestamp};
use vrr::runtime::{GroupSpec, NoDelay, ProtocolKind, ShardedStore};

#[test]
fn steady_state_memory_is_flat_in_run_length() {
    // The acceptance-criteria shape, as a regression test: under
    // steady-state load the history length depends on the read cadence,
    // not on how long the system has been running.
    for optimized in [false, true] {
        let protocol = RegularProtocol {
            optimized,
            retention: HistoryRetention::reader_ack(1),
        };
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut lens = Vec::new();
        for writes in [64u64, 256] {
            let mut sc = StorageScenario::deploy(protocol, cfg, 17);
            for k in 1..=writes {
                sc.write(k);
                if k % 8 == 0 {
                    let rep = sc.read(0);
                    assert_eq!(rep.value, Some(k));
                    assert_eq!(rep.rounds, 2, "GC must not cost rounds");
                }
            }
            lens.push(sc.max_history_len());
            // The history gauges of the metrics snapshot expose the same
            // bound (one gauge per honest object).
            let snap = sc.metrics_snapshot();
            let gauges = snap.gauge_values(names::OBJECT_HISTORY_LEN);
            assert_eq!(gauges.len(), cfg.s);
            assert_eq!(
                gauges.iter().copied().max().unwrap() as usize,
                sc.max_history_len()
            );
        }
        assert_eq!(
            lens[0], lens[1],
            "history length must be flat in run length (optimized={optimized})"
        );
        assert!(lens[1] <= 11, "bounded by the read cadence: {}", lens[1]);
    }
}

#[test]
fn crashed_reader_pins_the_floor_and_the_cap_unpins_it() {
    // Reader 1 crashes before ever completing a read. Without a cap its
    // implicit ack 0 blocks all truncation — the documented conservative
    // behaviour. With the escape-hatch cap, memory stays bounded anyway
    // and the live reader's reads remain correct.
    let cfg = StorageConfig::optimal(1, 1, 2); // R = 2
    for (retention, bounded) in [
        (HistoryRetention::reader_ack(2), false),
        (HistoryRetention::reader_ack_capped(2, 8), true),
    ] {
        let protocol = RegularProtocol {
            optimized: true,
            retention,
        };
        let mut sc = StorageScenario::deploy(protocol, cfg, 23);
        sc.crash_reader(1); // never completes a read, never acks
        for k in 1..=100u64 {
            sc.write(k);
            if k % 10 == 0 {
                assert_eq!(
                    sc.read(0).value,
                    Some(k),
                    "live reader must stay correct despite the crashed one"
                );
            }
        }
        let len = sc.max_history_len();
        if bounded {
            assert!(len <= 8, "cap must bound memory, got {len}");
        } else {
            assert!(len >= 100, "never-acking reader blocks truncation: {len}");
        }
    }
}

#[test]
fn late_reader_catches_up_after_truncation() {
    // Reader 1 sleeps through 50 writes while reader 0's acks would allow
    // truncation down to its own floor; since min(acks) gates GC, reader
    // 1's first read still finds everything it needs and returns the tip.
    let cfg = StorageConfig::optimal(1, 1, 2);
    let protocol = RegularProtocol {
        optimized: true,
        retention: HistoryRetention::reader_ack(2),
    };
    let mut sc = StorageScenario::deploy(protocol, cfg, 29);
    for k in 1..=50u64 {
        sc.write(k);
        if k % 5 == 0 {
            sc.read(0);
        }
    }
    let rep = sc.read(1);
    assert_eq!(rep.value, Some(50), "late reader reads the tip");
    assert_eq!(rep.rounds, 2);
    // Its ack now unblocks truncation: one more round of reads from both
    // readers collapses the histories.
    for j in [0usize, 1] {
        sc.read(j);
        sc.read(j);
    }
    sc.run_until_idle(200_000);
    assert!(sc.max_history_len() <= 2);
}

#[test]
fn truncation_liar_cannot_corrupt_gc_reads() {
    // A Byzantine object lies about suffixes (reports empty histories, as
    // if GC had discarded everything) while the honest objects run real
    // ack-driven GC. Reads must stay correct and 2-round, and the honest
    // objects must still truncate.
    for optimized in [false, true] {
        let protocol = RegularProtocol {
            optimized,
            retention: HistoryRetention::reader_ack(1),
        };
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut sc = StorageScenario::deploy(protocol, cfg, 31);
        sc.attack_object(1, AttackerKind::Truncator, 0xBADu64);
        for k in 1..=40u64 {
            sc.write(k);
            if k % 4 == 0 {
                let rep = sc.read(0);
                assert_eq!(rep.value, Some(k), "truncation liar corrupted a read");
                assert_eq!(rep.rounds, 2);
            }
        }
        sc.run_until_idle(200_000);
        // history_lens skips the Byzantine object: every reported length
        // is an honest object that must have truncated.
        let lens = sc.history_lens().expect("regular objects keep histories");
        assert_eq!(lens.len(), cfg.s - 1, "one object is the attacker");
        for (i, len) in lens.into_iter().enumerate() {
            assert!(len <= 6, "honest object {i} failed to truncate: {len}");
        }
        // The fault shows up in the snapshot's fault-script counters.
        let snap = sc.metrics_snapshot();
        assert_eq!(snap.counter(names::SCENARIO_BYZANTINE, &[]), 1);
    }
}

#[test]
fn forged_acks_from_byzantine_objects_do_not_exist_but_forged_suffixes_die() {
    // Acks travel reader -> object, so a Byzantine *object* cannot forge
    // them; what it can do is ship history entries below the reader's
    // suffix request. Under GC retention those forgeries still die by
    // invalidation: the read returns the genuine tip.
    let protocol = RegularProtocol {
        optimized: true,
        retention: HistoryRetention::reader_ack(1),
    };
    let cfg = StorageConfig::optimal(1, 1, 1);
    let mut sc = StorageScenario::deploy(protocol, cfg, 37);
    sc.attack_object(3, AttackerKind::Stale, 0xBADu64);
    for k in 1..=20u64 {
        sc.write(k);
        assert_eq!(sc.read(0).value, Some(k));
    }
    // The reader's high-water mark matches what it returned.
    let reader = sc.reader(0);
    let acked = sc
        .world()
        .inspect(reader, |r: &RegularReader<u64>| r.acked());
    assert_eq!(acked, Timestamp(20));
}

#[test]
fn runtime_cluster_and_sharded_store_run_bounded_memory() {
    // The worker-pool store, as one register (a one-key store) and with
    // two keys: same flat-memory property end to end, observable both
    // through the direct accessor and the same metrics-snapshot gauges
    // the simulator exports.
    let cfg = StorageConfig::optimal(1, 1, 1);
    let spec = GroupSpec::new(cfg, ProtocolKind::RegularOptimized)
        .with_retention(HistoryRetention::reader_ack(1));
    let register: ShardedStore<(), u64> =
        ShardedStore::deploy_spec(spec, Box::new(NoDelay), 1, |_shard, _i| None);
    for k in 1..=64u64 {
        register.write((), k);
        assert_eq!(register.read(&(), 0).unwrap().value, Some(k));
    }
    assert!(register.history_lens(0).into_iter().all(|len| len <= 5));
    let snap = register.metrics_snapshot();
    assert!(snap
        .gauge_values(names::OBJECT_HISTORY_LEN)
        .into_iter()
        .all(|len| len <= 5));
    assert_eq!(
        snap.histogram(names::WRITER_ROUNDS, &[]).unwrap().count(),
        64
    );

    let store: ShardedStore<&'static str, u64> =
        ShardedStore::deploy_spec(spec, Box::new(NoDelay), 2, |_shard, _i| None);
    for k in 1..=32u64 {
        store.write("a", k);
        store.write("b", k * 2);
        assert_eq!(store.read(&"a", 0).unwrap().value, Some(k));
        assert_eq!(store.read(&"b", 0).unwrap().value, Some(k * 2));
    }
    for slot in 0..2 {
        assert!(store.history_lens(slot).into_iter().all(|len| len <= 5));
    }
    assert!(store
        .metrics_snapshot()
        .gauge_values(names::OBJECT_HISTORY_LEN)
        .into_iter()
        .all(|len| len <= 5));
}
