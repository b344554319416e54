//! The three workloads and the seeded operation sequences they issue.
//!
//! Every workload is a closed loop of [`CLIENTS`] client threads over
//! [`KEYS`] keys drawn from a YCSB Zipfian (θ = 0.99). A sequence is a pure
//! function of `(workload, seed, client)` and is generated before any
//! timing starts, so two builds of the store are driven through identical
//! operations.

use vrr_core::StorageConfig;
use vrr_workload::ZipfianKeys;

/// Client threads, each waiting for its reply before the next operation.
/// Client `c` reads as reader `c`.
pub const CLIENTS: usize = 2;

/// Keys in the store, all bound during set-up.
pub const KEYS: u64 = 1024;

/// Operations prepared per client. A client that finishes its sequence
/// before the window closes starts it again from the top.
pub const SEQUENCE_LEN: usize = 1 << 20;

/// Where the store's automata run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// A `ShardedStore` worker pool in the benchmark's own process.
    InProc,
    /// A `RemoteCluster` speaking TCP to a `vrr-server --store` child.
    Tcp,
}

/// One workload: sizing, placement, operation mix and faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// The name the benchmark is run with.
    pub name: &'static str,
    /// Per-key register sizing.
    pub cfg: StorageConfig,
    /// Where the store runs.
    pub backend: Backend,
    /// Share of operations that are reads.
    pub read_share: f64,
    /// Whether one object of every register group is an equivocator.
    pub byzantine: bool,
    /// Operations after which `peak_rss_mb` is read: reached within a
    /// few seconds, so that memory is compared at equal work.
    pub rss_mark: u64,
}

impl Workload {
    /// Every workload the benchmark knows.
    pub fn all() -> [Workload; 3] {
        [
            Workload {
                name: "kv-inproc",
                cfg: StorageConfig::optimal(1, 1, CLIENTS),
                backend: Backend::InProc,
                read_share: 0.5,
                byzantine: false,
                rss_mark: 100_000,
            },
            Workload {
                name: "kv-tcp",
                cfg: StorageConfig::optimal(1, 1, CLIENTS),
                backend: Backend::Tcp,
                read_share: 0.5,
                byzantine: false,
                rss_mark: 40_000,
            },
            Workload {
                name: "kv-fast-byz",
                cfg: StorageConfig::fast(1, 1, CLIENTS),
                backend: Backend::InProc,
                read_share: 0.9,
                byzantine: true,
                rss_mark: 100_000,
            },
        ]
    }

    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }
}

/// One prepared operation: a key and whether it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCode(u32);

impl OpCode {
    const WRITE: u32 = 1 << 31;

    fn new(key: u64, write: bool) -> OpCode {
        let key = u32::try_from(key).expect("key ranks fit in 31 bits");
        OpCode(key | if write { Self::WRITE } else { 0 })
    }

    /// The key this operation addresses.
    pub fn key(self) -> u64 {
        u64::from(self.0 & !Self::WRITE)
    }

    /// Whether this operation writes.
    pub fn is_write(self) -> bool {
        self.0 & Self::WRITE != 0
    }
}

/// SplitMix64: the operation-mix coin, independent of the key stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `len` operations client `client` issues under `seed`.
pub fn sequence(w: &Workload, seed: u64, client: usize, len: usize) -> Vec<OpCode> {
    let stream = seed
        .wrapping_mul(0x100_0000_01b3)
        .wrapping_add(client as u64 + 1);
    let mut keys = ZipfianKeys::ycsb(KEYS, stream);
    let mut coin = stream ^ 0x5eed_c0de;
    (0..len)
        .map(|_| {
            let u = (splitmix64(&mut coin) >> 11) as f64 / (1u64 << 53) as f64;
            OpCode::new(keys.next_rank(), u >= w.read_share)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_generates_the_same_sequence_twice() {
        for w in Workload::all() {
            for client in 0..CLIENTS {
                assert_eq!(sequence(&w, 7, client, 4096), sequence(&w, 7, client, 4096));
            }
        }
    }

    #[test]
    fn seeds_and_clients_get_different_sequences() {
        let w = Workload::by_name("kv-inproc").unwrap();
        assert_ne!(sequence(&w, 1, 0, 256), sequence(&w, 2, 0, 256));
        assert_ne!(sequence(&w, 1, 0, 256), sequence(&w, 1, 1, 256));
    }

    #[test]
    fn mix_and_key_range_follow_the_workload() {
        for w in Workload::all() {
            let ops = sequence(&w, 3, 0, 20_000);
            assert!(ops.iter().all(|op| op.key() < KEYS));
            let reads = ops.iter().filter(|op| !op.is_write()).count() as f64;
            let share = reads / ops.len() as f64;
            assert!((share - w.read_share).abs() < 0.02, "{}: {share}", w.name);
            // Zipfian skew: rank 0 is by far the hottest key.
            let hot = ops.iter().filter(|op| op.key() == 0).count();
            let cold = ops.iter().filter(|op| op.key() == KEYS - 1).count();
            assert!(hot > 10 * cold.max(1), "{}: hot {hot} cold {cold}", w.name);
        }
    }

    #[test]
    fn workload_sizing_matches_the_fast_path_boundary() {
        let inproc = Workload::by_name("kv-inproc").unwrap();
        assert_eq!(inproc.cfg.s, 4);
        assert_eq!(inproc.cfg.fast_read_quorum(), None);
        let fast = Workload::by_name("kv-fast-byz").unwrap();
        assert_eq!(fast.cfg.s, 5);
        assert!(fast.cfg.fast_read_quorum().is_some());
        assert!(Workload::by_name("nope").is_none());
    }
}
