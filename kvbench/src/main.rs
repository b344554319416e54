//! `kvbench`: closed-loop key-value benchmark of the vrr store.
//!
//! ```text
//! kvbench --workload kv-inproc|kv-tcp|kv-fast-byz --seed N --seconds S \
//!     --trace 0|1 --server-bin PATH [--trace-out PATH]
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics of one untraced
//! window; with `--trace 1` the per-layer metrics of a window whose
//! one-second slices are traced and untraced in turn.
//! Human-readable lines go first; the last line of standard output is one
//! JSON object. The exit code is 1 when the regularity checker rejects a
//! read, 2 when the benchmark cannot run at all.

mod check;
mod layers;
mod run;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::exit;

use run::{run_window, Deployment, Window};
use workload::{Workload, CLIENTS, SEQUENCE_LEN};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    server_bin: PathBuf,
    trace_out: Option<PathBuf>,
}

fn usage(err: &str) -> ! {
    eprintln!("kvbench: {err}");
    eprintln!(
        "usage: kvbench --workload kv-inproc|kv-tcp|kv-fast-byz --seed N --seconds S \
         --trace 0|1 --server-bin PATH [--trace-out PATH]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut server_bin = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&val)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{val}`"))),
                )
            }
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = val.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must lie in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(val)),
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
        server_bin: server_bin.unwrap_or_else(|| usage("--server-bin is required")),
        trace_out,
    }
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Observations behind the value.
    samples: u64,
}

impl Metric {
    /// `value` in `unit`, from `samples` observations.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        assert!(value.is_finite(), "{name} is not finite");
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// A window's checked outcome: operations attempted, failed (including
/// reads the checker rejected) and the checker's verdict.
struct Verdict {
    attempted: u64,
    failed: u64,
    violations: u64,
}

impl Verdict {
    fn of(d: &Deployment, w: &Window) -> Verdict {
        let records: Vec<&check::Record> = d.prebind.iter().chain(w.records()).collect();
        let (violations, examples) = check::check(&records);
        for e in examples {
            eprintln!("kvbench: regularity violation: {e}");
        }
        Verdict {
            attempted: w.completed() + w.failed(),
            failed: w.failed() + violations,
            violations,
        }
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let seqs: Vec<_> = (0..CLIENTS)
        .map(|c| workload::sequence(&w, args.seed, c, SEQUENCE_LEN))
        .collect();
    let outcome = if args.traced {
        traced_run(&args, &seqs)
    } else {
        end_to_end_run(&args, &seqs)
    };
    let (metrics, verdict) = outcome.unwrap_or_else(|e| {
        eprintln!("kvbench: {e}");
        exit(2);
    });
    println!(
        "kvbench {} seed {} {}s trace {}: {} clients, closed loop",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        CLIENTS
    );
    for m in &metrics {
        println!(
            "  {:<32} {:>16.4} {:<6} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    );
    if verdict.violations > 0 {
        exit(1);
    }
}

/// Sets up [`SETUPS`] times, keeps the last deployment and measures one
/// untraced window on it.
fn end_to_end_run(
    args: &Args,
    seqs: &[Vec<workload::OpCode>],
) -> Result<(Vec<Metric>, Verdict), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut deployment: Option<Deployment> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = deployment.take() {
            previous.teardown();
        }
        let started = std::time::Instant::now();
        deployment = Some(Deployment::new(&args.workload, &args.server_bin, false)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let d = deployment.expect("at least one set-up");
    let window = run_window(&d, seqs, args.seconds, false, args.workload.rss_mark);
    let peak_rss_mb = window.peak_rss_mb.clone()?;
    let verdict = Verdict::of(&d, &window);
    d.teardown();
    let metrics = layers::end_to_end(
        &window,
        stats::median(setup_s),
        SETUPS,
        peak_rss_mb,
        (verdict.attempted, verdict.failed),
    );
    Ok((metrics, verdict))
}

/// Measures one window on a traced deployment: half its slices are traced
/// (see `run::traced_slice`), the span metrics come from those, and
/// `trace.overhead_ratio` compares their rate with the untraced slices'.
fn traced_run(
    args: &Args,
    seqs: &[Vec<workload::OpCode>],
) -> Result<(Vec<Metric>, Verdict), String> {
    let mut d = Deployment::new(&args.workload, &args.server_bin, true)?;
    let before = layers::Snapshot::take(&mut d)?;
    let window = run_window(&d, seqs, args.seconds, true, u64::MAX);
    let after = layers::Snapshot::take(&mut d)?;
    let verdict = Verdict::of(&d, &window);
    d.teardown();

    if let Some(path) = &args.trace_out {
        let spans: Vec<trace::Span> = window
            .clients
            .iter()
            .flat_map(|c| c.spans.iter().copied())
            .collect();
        trace::write_spans(path, &spans)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    }
    let metrics = layers::per_layer(&args.workload, &window, &before, &after);
    Ok((metrics, verdict))
}
