//! Deploying a workload's store behind `StoreRouter` and driving it with
//! the closed-loop clients for one timed window.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use vrr_core::attackers::AttackerKind;
use vrr_net::{RemoteCluster, RemoteClusterConfig};
use vrr_runtime::{ClusterBackend, NoDelay, ProtocolKind, RouterConfig, ShardedStore, StoreRouter};

use crate::check::Record;
use crate::server::Server;
use crate::stats;
use crate::trace::{self, Layer, Span, TimedBackend};
use crate::workload::{Backend, OpCode, Workload, CLIENTS, KEYS};

/// What the equivocating object splices into its read replies; no client
/// ever writes it.
const FORGED: u64 = u64::MAX;

type Router = StoreRouter<u64, u64>;

/// A store ready to serve: the router, the server behind it for `kv-tcp`,
/// and the set-up writes that bound every key.
pub struct Deployment {
    /// The public entry point every operation goes through.
    pub router: Router,
    /// The `vrr-server` child hosting the store, for `kv-tcp`.
    pub server: Option<Server>,
    /// One write per key, issued during set-up.
    pub prebind: Vec<Record>,
}

impl Deployment {
    /// Deploys `w`'s store — spawning `server_bin` for `kv-tcp` — and
    /// writes every key once. With `traced`, every cluster is wrapped in a
    /// [`TimedBackend`].
    pub fn new(w: &Workload, server_bin: &Path, traced: bool) -> Result<Deployment, String> {
        let wrap =
            move |b: Arc<dyn ClusterBackend<u64, u64>>| -> Arc<dyn ClusterBackend<u64, u64>> {
                if traced {
                    Arc::new(TimedBackend::new(b))
                } else {
                    b
                }
            };
        // The router's only cluster holds every key.
        let rc = RouterConfig::new(1, KEYS as usize);
        let (router, server) = match w.backend {
            Backend::InProc => {
                let (cfg, byzantine) = (w.cfg, w.byzantine);
                let router = Router::deploy_with_backends(rc, move |_cluster| {
                    wrap(Arc::new(ShardedStore::deploy_with_objects(
                        cfg,
                        ProtocolKind::RegularOptimized,
                        Box::new(NoDelay),
                        KEYS as usize,
                        move |_shard, i| {
                            (byzantine && i == cfg.s - 1)
                                .then(|| AttackerKind::Equivocator.build_regular(cfg, FORGED))
                        },
                    )))
                });
                (router, None)
            }
            Backend::Tcp => {
                let server = Server::spawn(server_bin, w.cfg.readers, KEYS as usize)?;
                let remote: RemoteCluster<u64, u64> =
                    RemoteCluster::connect(server.addr(), RemoteClusterConfig::default())
                        .map_err(|e| format!("cannot connect to vrr-server: {e}"))?;
                let mut remote = Some(remote);
                let router = Router::deploy_with_backends(rc, move |_cluster| {
                    wrap(Arc::new(remote.take().expect("the router has one cluster")))
                });
                (router, Some(server))
            }
        };
        let mut prebind = Vec::with_capacity(KEYS as usize);
        for key in 0..KEYS {
            let invoke = trace::now_ns();
            let report = router
                .try_write(key, key)
                .map_err(|e| format!("set-up write of key {key}: {e}"))?;
            prebind.push(Record {
                op: u64::MAX,
                key,
                client: 0,
                write: true,
                start: invoke,
                invoke,
                end: trace::now_ns(),
                ts: report.ts.0,
                value: key,
                rounds: report.rounds,
                fast: false,
            });
        }
        Ok(Deployment {
            router,
            server,
            prebind,
        })
    }

    /// Peak resident set, in MiB, of the process hosting the store: the
    /// server for `kv-tcp`, this process otherwise.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        match &self.server {
            Some(server) => server.peak_rss_mb(),
            None => crate::server::peak_rss_mb("self").map_err(|e| format!("VmHWM: {e}")),
        }
    }

    /// Stops the store: the router and its connections first, then the
    /// server process.
    pub fn teardown(self) {
        drop(self.router);
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// What one client did during the window.
pub struct ClientLog {
    /// Every operation that completed.
    pub records: Vec<Record>,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// Operations that returned an error, no value, or panicked.
    pub failed: u64,
}

/// Length of one slice of a window. Rates and percentiles are computed
/// per slice and reported as the median slice, so a burst of outside load
/// during part of a run moves the figures less.
pub const SLICE_NS: u64 = 1_000_000_000;

/// Whether slice `k` of a traced window is traced. Untraced and traced
/// slices alternate as U T T U U T T U …, so both halves see the same
/// outside load and, on average, the same store state (histories grow
/// through the window), and their rates compare like with like.
pub fn traced_slice(k: usize) -> bool {
    matches!(k % 4, 1 | 2)
}

/// The outcome of one timed window.
pub struct Window {
    /// Per-client logs.
    pub clients: Vec<ClientLog>,
    /// [`trace::now_ns`] when the window opened.
    pub start: u64,
    /// Whole slices in the window (at least one).
    pub slices: usize,
    /// Length of each slice.
    pub slice_ns: u64,
    /// The store's peak resident set, in MiB, when the clients had
    /// completed the window's operation mark (or when the window closed,
    /// if they never did).
    pub peak_rss_mb: Result<f64, String>,
}

impl Window {
    /// Every completed operation.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.clients.iter().flat_map(|c| c.records.iter())
    }

    /// Operations that completed.
    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.records.len() as u64).sum()
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// The slice in which `r` completed, if it completed inside the window.
    pub fn slice_of(&self, r: &Record) -> Option<usize> {
        let k = r.end.checked_sub(self.start)? / self.slice_ns;
        usize::try_from(k).ok().filter(|&k| k < self.slices)
    }

    /// Completed operations per second in the median slice of those
    /// `which` selects.
    pub fn ops_per_s(&self, which: impl Fn(usize) -> bool) -> f64 {
        let mut counts = vec![0u64; self.slices];
        for r in self.records() {
            if let Some(k) = self.slice_of(r) {
                counts[k] += 1;
            }
        }
        let slice_s = self.slice_ns as f64 / 1e9;
        let rates = counts
            .into_iter()
            .enumerate()
            .filter(|&(k, _)| which(k))
            .map(|(_, n)| n as f64 / slice_s);
        stats::median(rates.collect())
    }
}

/// Runs `CLIENTS` closed-loop clients against `d` for `seconds`, client
/// `c` issuing `seqs[c]` from the top (and again if it runs out). The
/// store's memory is read once `rss_mark` operations have completed, so
/// that it reflects a fixed amount of work however fast the store is.
/// With `traced`, the operations issued in [`traced_slice`]s are timed
/// layer by layer (the deployment must have been made traced).
pub fn run_window(
    d: &Deployment,
    seqs: &[Vec<OpCode>],
    seconds: f64,
    traced: bool,
    rss_mark: u64,
) -> Window {
    let barrier = Barrier::new(CLIENTS + 1);
    let deadline = AtomicU64::new(0);
    let window_ns = (seconds * 1e9) as u64;
    let slices = (window_ns / SLICE_NS).max(1);
    let slice_ns = window_ns / slices;
    let shared = Shared {
        deployment: d,
        write_locks: (0..KEYS).map(|_| Mutex::new(())).collect(),
        completed: AtomicU64::new(0),
        rss_mark,
        rss_at_mark: Mutex::new(None),
        traced,
        window_ns,
        slice_ns,
    };
    let (clients, start) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, deadline, shared) = (&barrier, &deadline, &shared);
                let seq = &seqs[c];
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = deadline.load(Ordering::SeqCst);
                    client(shared, c, seq, deadline)
                })
            })
            .collect();
        let start = trace::now_ns();
        deadline.store(start + window_ns, Ordering::SeqCst);
        barrier.wait();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client threads catch store panics"))
            .collect();
        (logs, start)
    });
    let at_mark = shared
        .rss_at_mark
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    Window {
        clients,
        start,
        slices: usize::try_from(slices).expect("a window has few slices"),
        slice_ns,
        peak_rss_mb: at_mark.unwrap_or_else(|| d.peak_rss_mb()),
    }
}

/// What the clients of one window share.
struct Shared<'a> {
    deployment: &'a Deployment,
    /// The clients' own single-writer discipline: a write holds its key's
    /// lock, so each key's writes are sequential as the checker requires
    /// (the store serialises them the same way inside).
    write_locks: Vec<Mutex<()>>,
    /// Operations completed so far, by all clients.
    completed: AtomicU64,
    rss_mark: u64,
    rss_at_mark: Mutex<Option<Result<f64, String>>>,
    traced: bool,
    window_ns: u64,
    slice_ns: u64,
}

fn client(shared: &Shared<'_>, c: usize, seq: &[OpCode], deadline: u64) -> ClientLog {
    let router = &shared.deployment.router;
    let window_start = deadline - shared.window_ns;
    let mut log = ClientLog {
        records: Vec::with_capacity(seq.len()),
        spans: Vec::new(),
        failed: 0,
    };
    let mut writes = 0u64;
    for i in 0.. {
        let start = trace::now_ns();
        if start >= deadline {
            break;
        }
        let code = seq[i % seq.len()];
        let key = code.key();
        let op = ((c as u64) << 40) | i as u64;
        let slice = (start - window_start) / shared.slice_ns;
        let traced = shared.traced && traced_slice(slice as usize);
        trace::begin_op(traced.then_some(op));
        let done = if code.is_write() {
            writes += 1;
            // Unique per client and write: no two writes of a key carry
            // the same value, so a read names the write it returns.
            let value = ((c as u64 + 1) << 40) | writes;
            let _turn = shared.write_locks[key as usize]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let invoke = trace::now_ns();
            let out = catch_unwind(AssertUnwindSafe(|| router.try_write(key, value)));
            let end = trace::now_ns();
            match out {
                Ok(Ok(report)) => Some(Record {
                    op,
                    key,
                    client: c,
                    write: true,
                    start,
                    invoke,
                    end,
                    ts: report.ts.0,
                    value,
                    rounds: report.rounds,
                    fast: false,
                }),
                _ => None,
            }
        } else {
            let out = catch_unwind(AssertUnwindSafe(|| router.read(&key, c)));
            let end = trace::now_ns();
            match out {
                Ok(Some(report)) => report.value.map(|value| Record {
                    op,
                    key,
                    client: c,
                    write: false,
                    start,
                    invoke: start,
                    end,
                    ts: report.ts.0,
                    value,
                    rounds: report.rounds,
                    fast: report.fast,
                }),
                _ => None,
            }
        };
        match done {
            Some(record) => {
                if traced {
                    trace::record(Span {
                        op,
                        layer: Layer::Scaleout,
                        start: record.invoke,
                        end: record.end,
                        parent: None,
                    });
                }
                log.records.push(record);
                if shared.completed.fetch_add(1, Ordering::Relaxed) + 1 == shared.rss_mark {
                    let rss = shared.deployment.peak_rss_mb();
                    *shared.rss_at_mark.lock().expect("set once") = Some(rss);
                }
            }
            None => log.failed += 1,
        }
    }
    log.spans = trace::take_spans();
    log
}
