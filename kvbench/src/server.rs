//! The `vrr-server --store` child process behind the `kv-tcp` workload:
//! spawned with fixed flags, awaited until it prints `READY`, stopped with
//! the shutdown op, and killed on every other exit path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vrr_net::{NetClient, RetryPolicy};

/// How long the server may take to print its `READY` banner.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// How long the server may take to exit after the shutdown op.
const EXIT_TIMEOUT: Duration = Duration::from_secs(5);

/// Worker threads of the server's executor, fixed so that every run of
/// every build gets the same pool.
const SERVER_WORKERS: usize = 2;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc status"))?;
    Ok(kib / 1024.0)
}

/// A running `vrr-server` hosting a store of `capacity` register shards.
pub struct Server {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    addr: SocketAddr,
    control: NetClient<u64>,
}

impl Server {
    /// Starts `bin` on a free localhost port with `readers` readers per
    /// register group and waits for its `READY` banner.
    pub fn spawn(bin: &Path, readers: usize, capacity: usize) -> Result<Server, String> {
        let addr = vrr_net::free_addrs(1).map_err(|e| format!("no free port: {e}"))?[0];
        let mut child = Command::new(bin)
            .args(["--node", "0", "--addrs", &addr.to_string()])
            .args(["--t", "1", "--b", "1", "--readers", &readers.to_string()])
            .args(["--kind", "regular-opt", "--retention", "keep-all"])
            .args(["--store", &capacity.to_string()])
            .args(["--workers", &SERVER_WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pipe = child.stdout.take().expect("stdout is piped");
        let (ready_tx, ready_rx) = mpsc::channel();
        // Drains the server's stdout until it exits, reporting the banner.
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if line.starts_with("READY ") {
                    ready_tx.send(()).ok();
                }
            }
        });
        let control = match ready_rx.recv_timeout(READY_TIMEOUT) {
            Ok(()) => NetClient::connect_with_retry(addr, &RetryPolicy::with_seed(1))
                .map_err(|e| format!("cannot reach vrr-server at {addr}: {e}")),
            Err(_) => Err("vrr-server never printed READY".to_string()),
        };
        let control = match control {
            Ok(control) => control,
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                stdout.join().ok();
                return Err(e);
            }
        };
        let mut server = Server {
            child,
            stdout: Some(stdout),
            addr,
            control,
        };
        // On failure the returned error drops `server`, which kills it.
        server
            .control
            .ping()
            .map_err(|e| format!("vrr-server ping: {e}"))?;
        Ok(server)
    }

    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics snapshot (Prometheus text), which carries its
    /// wire counters.
    pub fn metrics_text(&mut self) -> Result<String, String> {
        self.control
            .metrics()
            .map_err(|e| format!("vrr-server metrics: {e}"))
    }

    /// The server's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string()).map_err(|e| format!("vrr-server VmHWM: {e}"))
    }

    /// Stops the server with the shutdown op, killing it if it does not
    /// exit in time.
    pub fn shutdown(mut self) {
        self.control.shutdown_server().ok();
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills what is still running.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            self.child.kill().ok();
        }
        self.child.wait().ok();
        if let Some(stdout) = self.stdout.take() {
            stdout.join().ok();
        }
    }
}
