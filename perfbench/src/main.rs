//! The serving-system benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_translate --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Stands up a live `TemplarServer` over a `TenantRegistry`, drives one
//! workload at it from this process over binary TCP, checks every answer,
//! and prints one JSON object as the last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer breakdown with
//! `--trace 1`.  A wrong answer, or an open-loop generator that fell behind
//! its schedule, fails the run: exit code 1 and no metrics.  README.md
//! describes the workloads and which layer metric should move which
//! end-to-end metric.

mod layers;
mod load;
mod plane;
mod stats;
mod wire;
mod workloads;

use load::Kind;
use stats::median;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Measured, Workload};

/// A run is invalid, not fast, when the open-loop generator sent its p99
/// request later than this after it was due.
const LATE_BOUND_US: f64 = 50_000.0;

/// The tail percentile reported.  Neither p99 nor p90 repeated within its
/// bound on `durable_ingest` on a 2-core VM whose speed swung between runs
/// (see README.md).
const TAIL: f64 = 0.75;

/// Load sizes.  The full sizes fit a 2-core machine; `--smoke` shrinks
/// everything for the package's own tests.
pub struct Sizes {
    /// Repeated timings (set-up, restarts, checkpoints outside the window):
    /// at least `min_reps` repetitions, and more while fewer than
    /// `rep_budget_s` seconds have gone into them.
    pub min_reps: usize,
    pub rep_budget_s: f64,
    /// Seconds between the checkpoints on a fixed schedule inside the
    /// `durable_ingest` window (at least one runs).  A checkpoint of the
    /// 100× tenant takes about 0.9 s, so at 1.5 s the service checkpoints
    /// for most of the window and `checkpoint_s` is the median of dozens.
    pub checkpoint_every_s: f64,
    /// `scale_log` factor of the `durable_ingest` tenant's journal.
    pub durable_scale: usize,
    /// Offered rate of `durable_ingest`, requests per second.
    pub durable_rate: f64,
    /// Distinct SQL texts `durable_ingest` submits.
    pub sql_pool: usize,
    /// Translations and SQL texts re-issued by the per-layer probes.
    pub layer_sample: usize,
    pub sql_probe: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            return Sizes {
                min_reps: 3,
                rep_budget_s: 0.2,
                checkpoint_every_s: 1.0,
                durable_scale: 3,
                durable_rate: 50.0,
                sql_pool: 50,
                layer_sample: 8,
                sql_probe: 32,
            };
        }
        Sizes {
            min_reps: 3,
            rep_budget_s: 3.0,
            checkpoint_every_s: 1.5,
            durable_scale: 100,
            durable_rate: 400.0,
            sql_pool: 2_000,
            layer_sample: 200,
            sql_probe: 1_000,
        }
    }

    /// Time `f` repeatedly (see `min_reps`), at most [`MAX_REPS`] times.
    /// `f` gets the repetition's index and returns the seconds it timed.
    pub fn repeat(
        &self,
        mut f: impl FnMut(usize) -> Result<f64, String>,
    ) -> Result<Vec<f64>, String> {
        let mut times = Vec::new();
        while times.len() < self.min_reps
            || (times.len() < MAX_REPS && times.iter().sum::<f64>() < self.rep_budget_s)
        {
            times.push(f(times.len())?);
        }
        Ok(times)
    }
}

/// Cap on the repetitions of one cheap timing.
const MAX_REPS: usize = 401;

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 10.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() {
    let process_start = Instant::now();
    let outcome = parse_args().and_then(|args| {
        // Everything the run writes stays under the working directory.
        let work = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        let result = run(&args, &work, process_start);
        let _ = std::fs::remove_dir_all(&work);
        // Gone once no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_work");
        result
    });
    match outcome {
        Ok(line) => println!("{line}"),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, work: &std::path::Path, process_start: Instant) -> Result<String, String> {
    let sizes = Sizes::new(args.smoke);
    let (plane, setup_s) =
        workloads::set_up(args.workload, &sizes, args.seed, work, process_start)?;
    let mut measured =
        workloads::run(args.workload, &plane, &sizes, args.seed, args.seconds, work)?;
    measured.setup_s = setup_s;
    if measured.load.mismatched() > 0 {
        return Err(format!("wrong answers: {:?}", measured.load.errors));
    }
    let mut late = measured.load.late_us.clone();
    late.sort_by(f64::total_cmp);
    let late_p99 = stats::percentile(&late, 0.99);
    if late_p99 > LATE_BOUND_US {
        return Err(format!(
            "invalid run: the generator sent its p99 request {late_p99:.0} µs late (bound {LATE_BOUND_US} µs)"
        ));
    }
    let penalty_us = args.seconds * 1e6;
    let translate = &measured.load.tally(Kind::Translate).latency;
    let connections = args.workload.clients();
    println!(
        "perfbench: workload={:?} seed={} nproc={} client_threads=2 connections={connections} \
         server_workers={} translate_samples={} submit_samples={} checkpoints={} recovers={} \
         late_p99_us={late_p99:.1} {} errors={:?}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plane::SERVER_WORKERS,
        translate.count(),
        measured.submit_latency().count(),
        measured.checkpoint_s.len(),
        measured.recover_s.len(),
        measured.accounting(),
        measured.load.errors,
    );
    let metrics = if args.trace {
        layers::probe(&plane, &measured, &sizes, work, args.workload)?
    } else {
        end_to_end(&measured, penalty_us, args.seconds)
    };
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.load.attempted(),
        measured.load.failed(),
        metrics
            .iter()
            .map(|m| format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

fn end_to_end(measured: &Measured, penalty_us: f64, window_s: f64) -> Vec<Metric> {
    let translate = measured.load.tally(Kind::Translate);
    let attempted = measured.load.attempted();
    vec![
        Metric::new(
            "translate_p50_us",
            translate.latency.sliced(0.5, penalty_us, window_s),
            "us",
        ),
        Metric::new(
            "translate_p75_us",
            translate.latency.sliced(TAIL, penalty_us, window_s),
            "us",
        ),
        Metric::new(
            "translate_per_s",
            translate.ok as f64 / measured.load.elapsed_s,
            "1/s",
        ),
        Metric::new("checkpoint_s", median(&measured.checkpoint_s), "s"),
        Metric::new("recover_s", median(&measured.recover_s), "s"),
        Metric::new("snapshot_bytes", measured.snapshot_bytes, "bytes"),
        Metric::new("top1_accuracy", measured.top1_accuracy, "ratio"),
        Metric::new(
            "success_ratio",
            1.0 - measured.load.failed() as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("setup_s", measured.setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// `struct rusage` of Linux: two `timeval`s, then fourteen `long`s, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    max_rss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        max_rss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux, and `RUSAGE_SELF` (0) is a valid
    // `who`; getrusage writes only within that struct.
    let status = unsafe { getrusage(0, &mut usage) };
    if status == 0 {
        usage.max_rss_kb as f64 / 1024.0
    } else {
        0.0
    }
}

/// JSON has no NaN or infinity; a probe with nothing to time reads 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
