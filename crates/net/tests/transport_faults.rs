//! Transport fault-injection battery over real sockets.
//!
//! Three fault classes, each with the same acceptance bar: every read
//! that *completes* must be regular per `vrr-checker`, and the deployment
//! must never hang or panic.
//!
//! 1. Byzantine base objects behind TCP — all six [`AttackerKind`]s over
//!    a two-node deployment (mirrors `tests/fast_path.rs`, but the honest
//!    and hostile objects talk over localhost sockets, not channels).
//! 2. A `vrr-server` OS process killed mid-read and restarted amnesiac
//!    with a fresh epoch.
//! 3. Connection resets injected between read rounds while reads are in
//!    flight.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vrr_checker::{check_regularity, OpHistory};
use vrr_core::attackers::AttackerKind;
use vrr_core::StorageConfig;
use vrr_net::{
    free_addrs, ByzSpec, GroupPlacement, NetClient, NetNode, NetNodeConfig, NodeTopology,
};
use vrr_runtime::{GroupSpec, ProtocolKind};

/// SplitMix64 workload scheduler.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// Shared logical clock: each `invoked_at`/`completed_at` is one tick.
#[derive(Clone, Default)]
struct Clock(Arc<AtomicU64>);

impl Clock {
    fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }
}

/// Writes value `seq` at write `seq`, so a read's returned value *is* the
/// sequence number of the write it observed (`None` ⇒ the initial `⊥`,
/// seq 0).
struct Recorder {
    history: OpHistory<u64>,
    next_seq: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            history: OpHistory::new(),
            next_seq: 1,
        }
    }

    fn write<F: FnOnce(u64)>(&mut self, clock: &Clock, go: F) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let invoked = clock.tick();
        go(seq);
        let completed = clock.tick();
        self.history.push_write(seq, seq, invoked, Some(completed));
        seq
    }

    fn read<F: FnOnce() -> Option<u64>>(&mut self, reader: usize, clock: &Clock, go: F) {
        let invoked = clock.tick();
        let value = go();
        let completed = clock.tick();
        self.history
            .push_read(reader, value.unwrap_or(0), value, invoked, Some(completed));
    }
}

/// Two in-process `NetNode`s (so messages cross real sockets) hosting one
/// register group split across them: writer + first ⌈s/2⌉ objects on node
/// 0, the rest plus the reader on node 1.
fn two_node_topology(cfg: StorageConfig) -> NodeTopology {
    let split = cfg.s.div_ceil(2);
    NodeTopology {
        addrs: free_addrs(2).expect("reserve ports"),
        placement: GroupPlacement {
            objects: (0..cfg.s).map(|i| u32::from(i >= split)).collect(),
            writer: 0,
            readers: vec![1; cfg.readers],
        },
        slots: 1,
    }
}

/// Fault class 1: every attacker kind, behind TCP. The Byzantine object
/// lives on node 1 (remote from the writer) so its forgeries cross the
/// wire like any honest ack.
#[test]
fn byzantine_objects_over_tcp_stay_regular() {
    for (i, kind) in AttackerKind::ALL.into_iter().enumerate() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let topo = two_node_topology(cfg);
        let mut ncfg =
            NetNodeConfig::<u64>::new(GroupSpec::new(cfg, ProtocolKind::RegularOptimized));
        ncfg.byzantine = vec![ByzSpec {
            slot: 0,
            object: cfg.s - 1,
            kind,
            forged: 999_999,
        }];
        let n0 = NetNode::start(0, &topo, ncfg.clone()).expect("node 0");
        let n1 = NetNode::start(1, &topo, ncfg).expect("node 1");

        let clock = Clock::default();
        let mut rec = Recorder::new();
        let mut g = Gen(0xC0FFEE ^ i as u64);
        for _ in 0..24 {
            if g.next().is_multiple_of(2) {
                rec.write(&clock, |seq| {
                    n0.write_slot(0, seq);
                });
            } else {
                rec.read(0, &clock, || n1.read_slot(0, 0).value);
            }
        }

        rec.history.validate().expect("well-formed history");
        let result = check_regularity(&rec.history);
        assert!(
            result.is_ok(),
            "attacker {kind:?} broke regularity: {result:?}"
        );
    }
}

/// A `vrr-server` child process plus its READY-advertised address.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn(node: u32, addrs: &[SocketAddr], epoch: u32) -> Server {
        let addr_list = addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut child = Command::new(env!("CARGO_BIN_EXE_vrr-server"))
            .args([
                "--node",
                &node.to_string(),
                "--addrs",
                &addr_list,
                "--t",
                "1",
                "--b",
                "1",
                "--readers",
                "1",
                "--kind",
                "regular-opt",
                "--place-objects",
                "0,0,0,1",
                "--place-writer",
                "0",
                "--place-readers",
                "0",
                "--epoch",
                &epoch.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vrr-server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read READY line");
        let addr = line
            .trim()
            .strip_prefix("READY ")
            .unwrap_or_else(|| panic!("unexpected server banner: {line:?}"))
            .parse()
            .expect("parse READY addr");
        Server { child, addr }
    }

    fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Fault class 2: node 1 (hosting one of four objects) is killed while
/// reads are in flight, then restarted amnesiac with a bumped epoch. One
/// crashed-then-amnesiac object is within `min(t, b) = 1`, so every read
/// that completes — during the outage and after the rebirth — must still
/// be regular.
#[test]
fn kill_and_restart_server_mid_read() {
    let addrs = free_addrs(2).expect("reserve ports");
    let s0 = Server::spawn(0, &addrs, 0);
    let mut s1 = Server::spawn(1, &addrs, 0);
    assert_eq!(s0.addr, addrs[0]);

    let mut writer = NetClient::<u64>::connect(s0.addr).expect("writer client");
    let mut reader = NetClient::<u64>::connect(s0.addr).expect("reader client");

    let clock = Clock::default();
    let mut rec = Recorder::new();

    // Warm up: both nodes alive.
    for _ in 0..4 {
        rec.write(&clock, |seq| {
            writer.write_slot(0, seq).expect("write (healthy)");
        });
        rec.read(0, &clock, || {
            reader.read_slot(0, 0).expect("read (healthy)").value
        });
    }

    // Kill node 1 while a read burst runs on another thread, so the kill
    // lands mid-read with high probability.
    let read_clock = clock.clone();
    let reads = std::thread::spawn(move || {
        let mut records = Vec::new();
        for _ in 0..12 {
            let invoked = read_clock.tick();
            let value = reader.read_slot(0, 0).expect("read (outage)").value;
            records.push((invoked, value, read_clock.tick()));
        }
        records
    });
    std::thread::sleep(Duration::from_millis(30));
    s1.kill();

    // Writes keep completing on node 0's local quorum of 3.
    for _ in 0..4 {
        rec.write(&clock, |seq| {
            writer.write_slot(0, seq).expect("write (outage)");
        });
    }
    let outage_reads = reads.join().expect("reader thread");

    // Rebirth: same address, empty state, fresh epoch. The original
    // reader client was consumed by the outage thread; reconnect.
    let s1b = Server::spawn(1, &addrs, 1);
    assert_eq!(s1b.addr, addrs[1]);
    let mut reader = NetClient::<u64>::connect(s0.addr).expect("reader client (rebirth)");
    for _ in 0..4 {
        rec.write(&clock, |seq| {
            writer.write_slot(0, seq).expect("write (rebirth)");
        });
        rec.read(0, &clock, || {
            reader.read_slot(0, 0).expect("read (rebirth)").value
        });
    }

    for (invoked, value, completed) in outage_reads {
        rec.history
            .push_read(0, value.unwrap_or(0), value, invoked, Some(completed));
    }
    rec.history.validate().expect("well-formed history");
    let result = check_regularity(&rec.history);
    assert!(result.is_ok(), "kill+restart broke regularity: {result:?}");

    let mut ctl = NetClient::<u64>::connect(s0.addr).expect("ctl client");
    ctl.shutdown_server().ok();
}

/// Fault class 3: the reader node's connections to the remote object node
/// are reset over and over while reads run. Frames buffered for the dead
/// connections are dropped (lossy on reset) — reads must still complete
/// off the local quorum and stay regular, and the transport must count
/// its reconnects.
#[test]
fn connection_resets_between_read_rounds_stay_regular() {
    // Node 0: writer, reader, 3 objects (a full quorum, S - t = 3).
    // Node 1: the fourth object, reachable only through resettable conns.
    let cfg = StorageConfig::optimal(1, 1, 1);
    let topo = NodeTopology {
        addrs: free_addrs(2).expect("reserve ports"),
        placement: GroupPlacement {
            objects: vec![0, 0, 0, 1],
            writer: 0,
            readers: vec![0; cfg.readers],
        },
        slots: 1,
    };
    let ncfg = NetNodeConfig::<u64>::new(GroupSpec::new(cfg, ProtocolKind::Regular));
    let n0 = NetNode::start(0, &topo, ncfg.clone()).expect("node 0");
    let _n1 = NetNode::start(1, &topo, ncfg).expect("node 1");

    let mut ctl = NetClient::<u64>::connect(n0.addr()).expect("ctl client");
    let clock = Clock::default();
    let mut rec = Recorder::new();
    let mut g = Gen(0xBADC0DE);

    for i in 0..30 {
        if g.next().is_multiple_of(3) {
            rec.write(&clock, |seq| {
                n0.write_slot(0, seq);
            });
        } else {
            rec.read(0, &clock, || n0.read_slot(0, 0).value);
        }
        if i % 4 == 1 {
            // Sever node 0 → node 1 between protocol rounds.
            ctl.reset_peer(1).expect("reset peer");
        }
    }

    rec.history.validate().expect("well-formed history");
    let result = check_regularity(&rec.history);
    assert!(result.is_ok(), "resets broke regularity: {result:?}");

    let metrics = ctl.metrics().expect("metrics");
    assert!(
        metrics.contains("vrr_net_wire_reconnects_total"),
        "reconnects not reported:\n{metrics}"
    );
}
