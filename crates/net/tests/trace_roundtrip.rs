//! Differential trace round-trip: the same seeded workload replayed
//! in-process (threads + channels) and over real sockets must yield
//! *byte-identical* checker inputs and verdicts — the `Debug` renderings
//! of the two `OpHistory`s and `CheckResult`s are compared as strings.
//!
//! Also probes raw trace serialization: a protocol [`History`] shipped to
//! a server and echoed back must come home structurally equal.

use std::collections::BTreeMap;

use vrr_checker::{check_regularity, OpHistory};
use vrr_core::{HistEntry, History, StorageConfig, Timestamp, TsVal, TsrMatrix, WTuple};
use vrr_net::{free_addrs, GroupPlacement, NetClient, NetNode, NetNodeConfig, NodeTopology};
use vrr_runtime::{GroupSpec, NoDelay, ProtocolKind, ShardedStore};

/// SplitMix64 — one shared schedule for both executions.
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

/// One schedule step: `Write` bumps the sequence, `Read(j)` reads at
/// reader `j`.
#[derive(Clone, Copy)]
enum Step {
    Write,
    Read(usize),
}

fn schedule(seed: u64, len: usize, readers: usize) -> Vec<Step> {
    let mut g = Gen(seed);
    let mut steps = vec![Step::Write]; // seed the register before reads
    while steps.len() < len {
        steps.push(if g.next().is_multiple_of(2) {
            Step::Write
        } else {
            Step::Read(g.next() as usize % readers)
        });
    }
    steps
}

/// Replays `steps` through `write`/`read` closures, recording with
/// logical timestamps `2i`/`2i + 1` so both executions stamp identically
/// regardless of wall-clock speed. Written value = write seq, so the read
/// value *is* the observed write's seq.
fn replay<W, R>(steps: &[Step], mut write: W, mut read: R) -> OpHistory<u64>
where
    W: FnMut(u64),
    R: FnMut(usize) -> Option<u64>,
{
    let mut history = OpHistory::new();
    let mut seq = 0u64;
    for (i, step) in steps.iter().enumerate() {
        let (invoked, completed) = (2 * i as u64, 2 * i as u64 + 1);
        match *step {
            Step::Write => {
                seq += 1;
                write(seq);
                history.push_write(seq, seq, invoked, Some(completed));
            }
            Step::Read(j) => {
                let value = read(j);
                history.push_read(j, value.unwrap_or(0), value, invoked, Some(completed));
            }
        }
    }
    history
}

/// The differential: in-proc channels vs localhost sockets, same seed,
/// same logical clock — identical `Debug` bytes out of the checker layer.
#[test]
fn tcp_and_inproc_traces_are_byte_identical() {
    let cfg = StorageConfig::optimal(1, 1, 2);
    let steps = schedule(0x7_2ACE, 40, cfg.readers);

    // Execution A: threads and channels.
    // A read before the first write finds the key unbound and returns
    // `None` — the same value a network read of a fresh register returns.
    let register: ShardedStore<(), u64> =
        ShardedStore::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay), 1);
    let inproc = replay(
        &steps,
        |v| {
            register.write((), v);
        },
        |j| register.read(&(), j).and_then(|r| r.value),
    );

    // Execution B: the same group split across two NetNodes, every
    // writer→object and reader→object message crossing real sockets.
    let topo = NodeTopology {
        addrs: free_addrs(2).expect("reserve ports"),
        placement: GroupPlacement {
            objects: (0..cfg.s).map(|i| u32::from(i % 2 == 1)).collect(),
            writer: 0,
            readers: (0..cfg.readers).map(|j| u32::from(j % 2 == 1)).collect(),
        },
        slots: 1,
    };
    let ncfg = NetNodeConfig::<u64>::new(GroupSpec::new(cfg, ProtocolKind::RegularOptimized));
    let n0 = NetNode::start(0, &topo, ncfg.clone()).expect("node 0");
    let n1 = NetNode::start(1, &topo, ncfg).expect("node 1");
    let tcp = replay(
        &steps,
        |v| {
            n0.write_slot(0, v);
        },
        |j| {
            let node = if j % 2 == 1 { &n1 } else { &n0 };
            node.read_slot(0, j).value
        },
    );

    // Same schedule, same logical clock, fault-free: the recorded
    // histories must agree byte for byte, and so must the verdicts.
    assert_eq!(format!("{inproc:?}"), format!("{tcp:?}"));
    let (a, b) = (check_regularity(&inproc), check_regularity(&tcp));
    assert!(a.is_ok(), "in-proc run not regular: {a:?}");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Raw protocol state across the wire: a non-trivial `History` echoed
/// through a server survives both directions of the codec.
#[test]
fn history_echoed_through_server_is_equal() {
    let cfg = StorageConfig::optimal(1, 0, 1);
    let topo = NodeTopology {
        addrs: free_addrs(1).expect("reserve port"),
        placement: GroupPlacement::single(0, cfg),
        slots: 1,
    };
    let node = NetNode::start(
        0,
        &topo,
        NetNodeConfig::<u64>::new(GroupSpec::new(cfg, ProtocolKind::Regular)),
    )
    .expect("start node");

    let mut history = History::initial();
    let mut g = Gen(0xEC40);
    for k in 1..=50u64 {
        let mut matrix = TsrMatrix::empty();
        for i in 0..3usize {
            let row: BTreeMap<usize, u64> = (0..3).map(|j| (j, g.next())).collect();
            matrix.set_row(i, row);
        }
        history.insert(
            Timestamp(k * 7),
            HistEntry {
                pw: TsVal::new(Timestamp(k * 7), g.next()),
                w: if k.is_multiple_of(3) {
                    None
                } else {
                    Some(WTuple::new(TsVal::new(Timestamp(k * 7), g.next()), matrix))
                },
            },
        );
    }

    let mut client = NetClient::<u64>::connect(node.addr()).expect("connect");
    let echoed = client.echo_history(history.clone()).expect("echo");
    assert_eq!(echoed, history);
    assert_eq!(format!("{echoed:?}"), format!("{history:?}"));
}
