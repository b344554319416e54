//! `vrr-server`: one OS process of a multi-process storage deployment.
//!
//! Every node of a deployment runs this binary with the *same* topology
//! flags (`--addrs`, sizing, placement, `--slots`) and its own `--node`.
//! The register value type is `u64`. After the listener is up the process
//! prints `READY <addr>` on stdout; it exits when a thin client sends the
//! shutdown op.
//!
//! ```text
//! vrr-server --node 0 --addrs 127.0.0.1:7100,127.0.0.1:7101 \
//!     --t 1 --b 1 --readers 1 [--fast] [--kind regular-opt] [--slots 4] \
//!     [--place-objects 0,0,0,0,0] [--place-writer 1] [--place-readers 1] \
//!     [--byzantine SLOT:OBJ:KIND:FORGED] [--epoch 0] [--workers 1] \
//!     [--retention keep-all|reader-ack] [--store CAPACITY] \
//!     [--store-byzantine OBJ:KIND:FORGED] [--metrics-addr HOST:PORT]
//! ```
//!
//! With `--store CAPACITY` the node additionally hosts a
//! `ShardedStore<Vec<u8>, u64>` of that many register shards, served to
//! remote `StoreRouter`s through `vrr_net::RemoteCluster` (router-member
//! mode); `--store-byzantine` substitutes an attacker for the named
//! object of **every** store shard. `--kind`, `--retention` and the
//! sizing flags form one `GroupSpec`, which builds the slot groups and
//! every store shard alike. With `--metrics-addr` the process
//! serves its Prometheus snapshot at `GET /metrics`, and prints
//! `METRICS <addr>` after the `READY` banner.

use std::net::SocketAddr;
use std::process::exit;

use vrr_core::attackers::AttackerKind;
use vrr_core::regular::HistoryRetention;
use vrr_core::StorageConfig;
use vrr_net::{
    ByzSpec, GroupPlacement, NetNode, NetNodeConfig, NodeTopology, StoreByzSpec, StoreSpec,
};
use vrr_runtime::{GroupSpec, ProtocolKind};

fn usage(err: &str) -> ! {
    eprintln!("vrr-server: {err}");
    eprintln!(
        "usage: vrr-server --node N --addrs HOST:PORT[,HOST:PORT...] \
         [--t N] [--b N] [--readers N] [--fast] \
         [--kind safe|regular|regular-opt] [--slots N] \
         [--place-objects N,N,...] [--place-writer N] [--place-readers N,...] \
         [--byzantine SLOT:OBJ:KIND:FORGED]... [--epoch N] [--workers N] \
         [--retention keep-all|reader-ack] [--store CAPACITY] \
         [--store-byzantine OBJ:KIND:FORGED]... [--metrics-addr HOST:PORT]"
    );
    exit(2);
}

fn parse_list<T: std::str::FromStr>(s: &str, what: &str) -> Vec<T> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad {what} element `{p}`")))
        })
        .collect()
}

fn parse_attacker(s: &str) -> AttackerKind {
    match s {
        "mute" => AttackerKind::Mute,
        "inflator" => AttackerKind::Inflator,
        "conflicter" => AttackerKind::Conflicter,
        "stale" => AttackerKind::Stale,
        "equivocator" => AttackerKind::Equivocator,
        "truncator" => AttackerKind::Truncator,
        other => usage(&format!("unknown attacker `{other}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut node: Option<u32> = None;
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut t = 1usize;
    let mut b = 1usize;
    let mut readers = 1usize;
    let mut fast = false;
    let mut kind = ProtocolKind::RegularOptimized;
    let mut slots = 1usize;
    let mut place_objects: Option<Vec<u32>> = None;
    let mut place_writer: Option<u32> = None;
    let mut place_readers: Option<Vec<u32>> = None;
    let mut byzantine: Vec<ByzSpec<u64>> = Vec::new();
    let mut epoch = 0u32;
    let mut workers = 1usize;
    let mut retention_reader_ack = false;
    let mut store_capacity: Option<usize> = None;
    let mut store_byzantine: Vec<StoreByzSpec<u64>> = Vec::new();
    let mut metrics_addr: Option<SocketAddr> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .as_str()
        };
        match flag.as_str() {
            "--node" => node = Some(val().parse().unwrap_or_else(|_| usage("bad --node"))),
            "--addrs" => addrs = parse_list(val(), "--addrs"),
            "--t" => t = val().parse().unwrap_or_else(|_| usage("bad --t")),
            "--b" => b = val().parse().unwrap_or_else(|_| usage("bad --b")),
            "--readers" => readers = val().parse().unwrap_or_else(|_| usage("bad --readers")),
            "--fast" => fast = true,
            "--kind" => {
                kind = match val() {
                    "safe" => ProtocolKind::Safe,
                    "regular" => ProtocolKind::Regular,
                    "regular-opt" => ProtocolKind::RegularOptimized,
                    other => usage(&format!("unknown kind `{other}`")),
                }
            }
            "--slots" => slots = val().parse().unwrap_or_else(|_| usage("bad --slots")),
            "--place-objects" => place_objects = Some(parse_list(val(), "--place-objects")),
            "--place-writer" => {
                place_writer = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| usage("bad --place-writer")),
                )
            }
            "--place-readers" => place_readers = Some(parse_list(val(), "--place-readers")),
            "--byzantine" => {
                let spec = val();
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 4 {
                    usage(&format!(
                        "bad --byzantine `{spec}` (want SLOT:OBJ:KIND:FORGED)"
                    ));
                }
                byzantine.push(ByzSpec {
                    slot: parts[0]
                        .parse()
                        .unwrap_or_else(|_| usage("bad byzantine slot")),
                    object: parts[1]
                        .parse()
                        .unwrap_or_else(|_| usage("bad byzantine object")),
                    kind: parse_attacker(parts[2]),
                    forged: parts[3]
                        .parse()
                        .unwrap_or_else(|_| usage("bad byzantine forged")),
                });
            }
            "--store" => {
                store_capacity = Some(val().parse().unwrap_or_else(|_| usage("bad --store")))
            }
            "--store-byzantine" => {
                let spec = val();
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 3 {
                    usage(&format!(
                        "bad --store-byzantine `{spec}` (want OBJ:KIND:FORGED)"
                    ));
                }
                store_byzantine.push(StoreByzSpec {
                    object: parts[0]
                        .parse()
                        .unwrap_or_else(|_| usage("bad store-byzantine object")),
                    kind: parse_attacker(parts[1]),
                    forged: parts[2]
                        .parse()
                        .unwrap_or_else(|_| usage("bad store-byzantine forged")),
                });
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    val()
                        .parse()
                        .unwrap_or_else(|_| usage("bad --metrics-addr")),
                )
            }
            "--epoch" => epoch = val().parse().unwrap_or_else(|_| usage("bad --epoch")),
            "--workers" => workers = val().parse().unwrap_or_else(|_| usage("bad --workers")),
            "--retention" => {
                retention_reader_ack = match val() {
                    "keep-all" => false,
                    "reader-ack" => true,
                    other => usage(&format!("unknown retention `{other}`")),
                }
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let node = node.unwrap_or_else(|| usage("--node is required"));
    if addrs.is_empty() {
        usage("--addrs is required");
    }
    if node as usize >= addrs.len() {
        usage("--node out of range of --addrs");
    }

    let cfg = if fast {
        StorageConfig::fast(t, b, readers)
    } else {
        StorageConfig::optimal(t, b, readers)
    };
    let mut group = GroupSpec::new(cfg, kind);
    if retention_reader_ack {
        group.retention = HistoryRetention::reader_ack(cfg.readers);
    }
    let placement = GroupPlacement {
        objects: place_objects.unwrap_or_else(|| vec![0; cfg.s]),
        writer: place_writer.unwrap_or(0),
        readers: place_readers.unwrap_or_else(|| vec![0; cfg.readers]),
    };
    if placement.objects.len() != cfg.s || placement.readers.len() != cfg.readers {
        usage("placement lists must match --t/--b/--readers sizing");
    }
    if placement
        .objects
        .iter()
        .chain(placement.readers.iter())
        .chain(std::iter::once(&placement.writer))
        .any(|&n| n as usize >= addrs.len())
    {
        usage("placement references a node outside --addrs");
    }

    let topo = NodeTopology {
        addrs,
        placement,
        slots,
    };
    let mut ncfg = NetNodeConfig::<u64>::new(group);
    ncfg.epoch = epoch;
    ncfg.workers = workers;
    ncfg.byzantine = byzantine;
    if !store_byzantine.is_empty() && store_capacity.is_none() {
        usage("--store-byzantine needs --store");
    }
    if let Some(capacity) = store_capacity {
        ncfg.store = Some(StoreSpec {
            capacity,
            byzantine: store_byzantine,
        });
    }
    ncfg.metrics_addr = metrics_addr;

    let server = match NetNode::start(node, &topo, ncfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vrr-server: failed to start node {node}: {e}");
            exit(1);
        }
    };
    println!("READY {}", server.addr());
    if let Some(addr) = server.metrics_addr() {
        println!("METRICS {addr}");
    }
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.wait_shutdown();
}
