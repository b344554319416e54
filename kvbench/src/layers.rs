//! Turning a window's records, spans and counter snapshots into the
//! end-to-end and per-layer metrics.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use vrr_core::metrics::{names, Registry};
use vrr_core::wire::Wire;
use vrr_core::Timestamp;
use vrr_net::frame::{decode_body, encode_frame, CLIENT_NODE};
use vrr_net::{Ctl, Envelope, Op, Payload, Rsp};

use crate::check::Record;
use crate::run::{traced_slice, Deployment, Window};
use crate::stats::{self, CounterWindow};
use crate::trace::Layer;
use crate::workload::{Backend, Workload};
use crate::Metric;

/// Everything the program exposes about itself at one instant: the
/// router's merged snapshot (for `kv-tcp`, the server's store and
/// executor counters through `RemoteCluster`) and, for `kv-tcp`, the
/// server's own metrics text with its wire counters.
pub struct Snapshot {
    registry: Registry,
    wire: Option<String>,
}

impl Snapshot {
    /// Takes a snapshot of `d` (outside any timed window).
    pub fn take(d: &mut Deployment) -> Result<Snapshot, String> {
        let registry = d.router.metrics_snapshot();
        let wire = match &mut d.server {
            Some(server) => Some(server.metrics_text()?),
            None => None,
        };
        Ok(Snapshot { registry, wire })
    }

    fn wire_total(&self, counters: &[&str]) -> u64 {
        self.wire.as_deref().map_or(0, |text| {
            counters
                .iter()
                .map(|name| stats::prometheus_counter(text, name))
                .sum()
        })
    }
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Client-observed latencies in µs of the reads and of the writes,
/// sorted, per slice of the window.
fn latencies(w: &Window) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let (mut reads, mut writes) = (vec![Vec::new(); w.slices], vec![Vec::new(); w.slices]);
    for r in w.records() {
        let Some(k) = w.slice_of(r) else { continue };
        let us = micros(r.end - r.start);
        if r.write {
            writes[k].push(us);
        } else {
            reads[k].push(us);
        }
    }
    let sort = |v: Vec<Vec<f64>>| v.into_iter().map(stats::sorted).collect();
    (sort(reads), sort(writes))
}

/// Percentile `p` of each slice's sorted latencies, median over slices.
fn sliced(slices: &[Vec<f64>], p: f64) -> f64 {
    stats::median(slices.iter().map(|s| stats::percentile(s, p)).collect())
}

/// The end-to-end metrics of an untraced window. `counts` is
/// `(attempted, failed)` as the correctness gate scored them.
pub fn end_to_end(
    w: &Window,
    setup_s: f64,
    setups: usize,
    peak_rss_mb: f64,
    counts: (u64, u64),
) -> Vec<Metric> {
    let (reads, writes) = latencies(w);
    for (what, slices) in [("reads", &reads), ("writes", &writes)] {
        let fewest = slices.iter().map(Vec::len).min().unwrap_or(0);
        if stats::highest_supported_percentile(fewest) < Some(99.0) {
            eprintln!("kvbench: a slice has only {fewest} {what}: its p99 has fewer than ten samples beyond it");
        }
    }
    let count = |slices: &[Vec<f64>]| slices.iter().map(|s| s.len() as u64).sum();
    let (nr, nw) = (count(&reads), count(&writes));
    let (attempted, failed) = counts;
    vec![
        Metric::new("setup_s", setup_s, "s", setups as u64),
        Metric::new("ops_per_s", w.ops_per_s(|_| true), "1/s", w.completed()),
        Metric::new("read_p50_us", sliced(&reads, 50.0), "us", nr),
        Metric::new("read_p99_us", sliced(&reads, 99.0), "us", nr),
        Metric::new("write_p50_us", sliced(&writes, 50.0), "us", nw),
        Metric::new("write_p99_us", sliced(&writes, 99.0), "us", nw),
        Metric::new(
            "ok_op_ratio",
            1.0 - stats::ratio(failed as f64, attempted as f64),
            "ratio",
            attempted,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
}

/// The spans of one operation: the router call and the backend calls it
/// caused.
#[derive(Default)]
struct OpSpans {
    router: Option<(u64, u64)>,
    backend: Vec<(u64, u64)>,
}

/// The per-layer metrics of a traced window, its counters read from
/// `before` and `after`.
pub fn per_layer(wl: &Workload, w: &Window, before: &Snapshot, after: &Snapshot) -> Vec<Metric> {
    let ops = w.completed();
    let per_op = |n: u64| stats::ratio(n as f64, ops as f64);
    let records: HashMap<u64, &Record> = w.records().map(|r| (r.op, r)).collect();
    let reads: Vec<&Record> = w.records().filter(|r| !r.write).collect();
    let writes: Vec<&Record> = w.records().filter(|r| r.write).collect();

    // scaleout / backend: spans grouped per operation.
    let mut spans: HashMap<u64, OpSpans> = HashMap::new();
    for s in w.clients.iter().flat_map(|c| &c.spans) {
        let entry = spans.entry(s.op).or_default();
        match s.layer {
            Layer::Scaleout => entry.router = Some((s.start, s.end)),
            Layer::Backend => entry.backend.push((s.start, s.end)),
        }
    }
    let (mut self_us, mut router_total, mut self_total) = (Vec::new(), 0u64, 0u64);
    let (mut backend_reads, mut backend_writes) = (Vec::new(), Vec::new());
    for (op, s) in &spans {
        let Some(router) = s.router else { continue };
        let own = stats::self_time(router, &s.backend);
        self_us.push(micros(own));
        router_total += router.1 - router.0;
        self_total += own;
        let backend_ns: u64 = s.backend.iter().map(|(a, b)| b - a).sum();
        match records.get(op) {
            Some(r) if r.write => backend_writes.push(micros(backend_ns)),
            Some(_) => backend_reads.push(micros(backend_ns)),
            None => {}
        }
    }
    let backend_read_mean = stats::mean(&backend_reads);
    let backend_write_mean = stats::mean(&backend_writes);
    let backend_reads = stats::sorted(backend_reads);
    let backend_writes = stats::sorted(backend_writes);
    let items: Vec<(u64, u64, u64)> = w.records().map(|r| (r.key, r.start, r.end)).collect();
    let overlapped = stats::overlapping(&items)
        .into_iter()
        .filter(|&o| o)
        .count();

    // executor / core: counter deltas and per-operation reports.
    let counters = CounterWindow {
        before: &before.registry,
        after: &after.registry,
    };
    let commands = counters.delta(names::EXECUTOR_COMMANDS, &[]);
    let sweeps = counters.delta(names::EXECUTOR_SWEEPS, &[]);
    let wakeups = counters.delta(names::EXECUTOR_WAKEUPS, &[]);
    let mean_rounds =
        |rs: &[&Record]| stats::mean(&rs.iter().map(|r| f64::from(r.rounds)).collect::<Vec<_>>());
    let fast = reads.iter().filter(|r| r.fast).count();
    let lens: Vec<f64> = after
        .registry
        .gauge_values(names::OBJECT_HISTORY_LEN)
        .into_iter()
        .map(|l| l as f64)
        .collect();

    // net: server-side time and wire counters, for the remote backend.
    let tcp = wl.backend == Backend::Tcp;
    let (server_read, server_write) = if tcp {
        (
            counters.histogram_mean(names::READ_LATENCY, &[]),
            counters.histogram_mean(names::WRITE_LATENCY, &[]),
        )
    } else {
        (0.0, 0.0)
    };
    let wire_delta = |names: &[&str]| {
        after
            .wire_total(names)
            .saturating_sub(before.wire_total(names))
    };
    let frames = wire_delta(&[names::WIRE_FRAMES_SENT, names::WIRE_FRAMES_RECEIVED]);
    let bytes = wire_delta(&[names::WIRE_BYTES_SENT, names::WIRE_BYTES_RECEIVED]);
    let retries = counters.delta(names::WIRE_RETRIES, &[("scheme", "tcp")]);
    let (encode_ns, decode_ns) = if tcp { codec_ns(w) } else { (0.0, 0.0) };
    let overhead = |backend: f64, server: f64| if tcp { backend - server } else { 0.0 };

    let n = |v: &[f64]| v.len() as u64;
    let (nr, nw, traced_ops) = (reads.len() as u64, writes.len() as u64, n(&self_us));
    vec![
        Metric::new(
            "scaleout.self_us_p50",
            stats::median(self_us),
            "us",
            traced_ops,
        ),
        Metric::new(
            "scaleout.self_share",
            stats::ratio(self_total as f64, router_total as f64),
            "ratio",
            traced_ops,
        ),
        Metric::new(
            "backend.read_us_p50",
            stats::percentile(&backend_reads, 50.0),
            "us",
            n(&backend_reads),
        ),
        Metric::new(
            "backend.read_us_p99",
            stats::percentile(&backend_reads, 99.0),
            "us",
            n(&backend_reads),
        ),
        Metric::new(
            "backend.write_us_p50",
            stats::percentile(&backend_writes, 50.0),
            "us",
            n(&backend_writes),
        ),
        Metric::new(
            "backend.write_us_p99",
            stats::percentile(&backend_writes, 99.0),
            "us",
            n(&backend_writes),
        ),
        Metric::new(
            "backend.same_key_overlap_ratio",
            stats::ratio(overlapped as f64, items.len() as f64),
            "ratio",
            items.len() as u64,
        ),
        Metric::new("executor.commands_per_op", per_op(commands), "count", ops),
        Metric::new("executor.sweeps_per_op", per_op(sweeps), "count", ops),
        Metric::new("executor.wakeups_per_op", per_op(wakeups), "count", ops),
        Metric::new(
            "executor.commands_per_sweep",
            stats::ratio(commands as f64, sweeps as f64),
            "count",
            sweeps,
        ),
        Metric::new("core.read_rounds_mean", mean_rounds(&reads), "count", nr),
        Metric::new("core.write_rounds_mean", mean_rounds(&writes), "count", nw),
        Metric::new(
            "core.fast_hit_ratio",
            stats::ratio(fast as f64, nr as f64),
            "ratio",
            nr,
        ),
        Metric::new(
            "core.history_len_max",
            lens.iter().copied().fold(0.0, f64::max),
            "count",
            n(&lens),
        ),
        Metric::new(
            "core.history_len_mean",
            stats::mean(&lens),
            "count",
            n(&lens),
        ),
        Metric::new("net.server_read_us_mean", server_read, "us", nr),
        Metric::new("net.server_write_us_mean", server_write, "us", nw),
        Metric::new(
            "net.read_overhead_us",
            overhead(backend_read_mean, server_read),
            "us",
            nr,
        ),
        Metric::new(
            "net.write_overhead_us",
            overhead(backend_write_mean, server_write),
            "us",
            nw,
        ),
        Metric::new("net.frames_per_op", per_op(frames), "count", ops),
        Metric::new("net.bytes_per_op", per_op(bytes), "bytes", ops),
        Metric::new("net.retries_per_op", per_op(retries), "count", ops),
        Metric::new("net.encode_ns", encode_ns, "ns", CODEC_FRAMES as u64),
        Metric::new("net.decode_ns", decode_ns, "ns", CODEC_FRAMES as u64),
        Metric::new(
            "trace.overhead_ratio",
            stats::ratio(w.ops_per_s(traced_slice), w.ops_per_s(|k| !traced_slice(k))),
            "ratio",
            ops,
        ),
    ]
}

/// Request and response frames re-encoded for the codec timing.
const CODEC_FRAMES: usize = 8192;

/// Passes over the frames; the codec figures are the median pass.
const CODEC_PASSES: usize = 9;

/// Median ns to encode, and to decode, one of the window's own request
/// and response frames with `vrr_net::frame`.
fn codec_ns(w: &Window) -> (f64, f64) {
    let mut envelopes: Vec<Envelope<u64>> = Vec::with_capacity(CODEC_FRAMES);
    for (id, r) in w.records().take(CODEC_FRAMES / 2).enumerate() {
        let id = id as u64;
        let mut key = Vec::new();
        r.key.encode(&mut key);
        let (op, rsp) = if r.write {
            (
                Op::WriteKey {
                    key,
                    value: r.value,
                },
                Rsp::Wrote {
                    ts: Timestamp(r.ts),
                    rounds: r.rounds,
                },
            )
        } else {
            (
                Op::ReadKey {
                    key,
                    reader: r.client as u32,
                },
                Rsp::ReadOk {
                    value: Some(r.value),
                    ts: Timestamp(r.ts),
                    rounds: r.rounds,
                    fast: r.fast,
                },
            )
        };
        let envelope = |source, payload| Envelope {
            source,
            epoch: 0,
            seq: id,
            payload,
        };
        envelopes.push(envelope(CLIENT_NODE, Payload::Ctl(Ctl::Request { id, op })));
        envelopes.push(envelope(0, Payload::Ctl(Ctl::Response { id, rsp })));
    }
    let frames: Vec<Vec<u8>> = envelopes.iter().map(encode_frame).collect();
    let per_frame = |pass: &dyn Fn()| {
        let times: Vec<f64> = (0..CODEC_PASSES)
            .map(|_| {
                let started = Instant::now();
                pass();
                started.elapsed().as_nanos() as f64 / frames.len().max(1) as f64
            })
            .collect();
        stats::median(times)
    };
    let encode = per_frame(&|| {
        for e in &envelopes {
            black_box(encode_frame(black_box(e)));
        }
    });
    let decode = per_frame(&|| {
        for f in &frames {
            let decoded: Envelope<u64> = decode_body(black_box(&f[4..])).expect("own frame");
            black_box(decoded);
        }
    });
    (encode, decode)
}
