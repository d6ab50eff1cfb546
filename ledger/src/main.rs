//! `ledger`: one benchmark for the whole X-Data pipeline.
//!
//! ```sh
//! bash ledger/run.sh --workload paper_tables --seed 1 --seconds 20 --trace 0
//! bash ledger/run.sh --seed 1 --seconds 20 --out ledger/results   # every workload
//! ```
//!
//! One workload per process, pinned to one CPU: setup (inputs, the
//! correctness pre-pass and its checks) runs [`SETUP_REPEATS`] times and
//! reports the median, then whole passes of the workload's ops run
//! closed-loop until `--seconds` have passed. Every op's output is compared with the pre-pass output
//! after its timer stops; a difference aborts the run with exit code 1.
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs half the
//! time untraced and half with the span recorder on, and reports the
//! per-layer metrics. Without `--workload` the binary runs every workload,
//! untraced and traced, each in a fresh process of its own, and with
//! `--out DIR` writes `DIR/BENCH_ledger.json`.
//!
//! Output: one `workload metric value unit` line per metric, then one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` as the last line.

mod calib;
mod inproc;
mod layers;
mod pile;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use xdata_catalog::SplitMix64;

use crate::calib::{Calibration, Probe, Timing};
use crate::inproc::{Prepared, Quality};
use crate::stats::{median, ratio, Summary};

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--out DIR] [--smoke]";

const WORKLOADS: [&str; 4] = ["paper_tables", "extended_classes", "grading_pile", "serve_mixed"];

/// The end-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("datasets_per_suite", "datasets"),
    ("mutant_kill_ratio", "ratio"),
];

/// The per-layer metrics (`--trace 1`) and their units, every one per op
/// unless its name says otherwise. A layer a workload does not reach
/// reports 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("trace_overhead", "ratio"),
    ("ledger.op_ms", "ms"),
    ("ledger.op_self_ms", "ms"),
    ("sql.parse_ms", "ms"),
    ("relalg.normalize_ms", "ms"),
    ("relalg.fingerprint_ms", "ms"),
    ("relalg.mutation_space_ms", "ms"),
    ("relalg.mutants", "count"),
    ("relalg.join_mutants_raw", "count"),
    ("core.generate_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("core.gate_wait_ms", "ms"),
    ("engine.kill_ms", "ms"),
    ("engine.kill_mutant_ms", "ms"),
    ("engine.kill_originals_ms", "ms"),
    ("kill.mutants", "count"),
    ("kill.killed", "count"),
    ("core.render_ms", "ms"),
    ("solver.decisions", "count"),
    ("solver.conflicts", "count"),
    ("solver.propagations", "count"),
    ("solver.ground_solves", "count"),
    ("solver.session.assumption_solves", "count"),
    ("solver.unknown_exits", "count"),
    ("core.targets.planned", "count"),
    ("core.targets.solved", "count"),
    ("core.targets.skipped", "count"),
    ("core.solve_memo.hit_ratio", "ratio"),
    ("core.skeleton_cache.hit_ratio", "ratio"),
    ("core.rows_emitted", "count"),
    ("core.grade_ms", "ms"),
    ("core.grade_prep_ms", "ms"),
    ("engine.grade_reference_ms", "ms"),
    ("engine.grade_grid_ms", "ms"),
    ("core.grade.dedup_ratio", "ratio"),
    ("engine.hash_join.nodes", "count"),
    ("engine.hash_join.fallback_nodes", "count"),
    ("engine.hash_join.build_rows", "count"),
    ("engine.hash_join.probe_rows", "count"),
    ("engine.subquery.hash_preds", "count"),
    ("engine.subquery.fallback_preds", "count"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("serve.server_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.lat.warm_generate_p50_ms", "ms"),
    ("serve.lat.cold_generate_p50_ms", "ms"),
    ("serve.lat.evaluate_p50_ms", "ms"),
    ("serve.lat.grade_batch_p50_ms", "ms"),
    ("serve.lat.metrics_on_p50_ms", "ms"),
    ("serve.lat.metrics_off_p99_ms", "ms"),
    ("serve.requests", "total"),
    ("serve.errors", "total"),
    ("serve.warm.memo_entries", "total"),
    ("serve.warm.sessions", "total"),
];

/// The content hash of the sources this binary was built from, as `run.sh`
/// computes it.
const SOURCE_HASH: &str = match option_env!("LEDGER_SOURCE_HASH") {
    Some(h) => h,
    None => "unknown",
};

/// Set-ups per run; the run reports their median time.
const SETUP_REPEATS: usize = 3;

/// Ops per workload a `--smoke` run does: one in-process pass, or this
/// many serve requests.
const SMOKE_REQUESTS: usize = 200;
/// The Chrome-trace journal covers op 0 of an in-process workload (the
/// smallest query or the first slice), or this many serve requests: the
/// repository's trace validator takes time quadratic in the file size, so
/// the journal stays a small sample.
const JOURNAL_REQUESTS: usize = 3;

/// How much work one measured window does.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Whole passes (in process) or requests (serve) until this much time
    /// has passed.
    Seconds(Duration),
    /// Exactly this many ops (in process) or requests (serve).
    Ops(usize),
}

impl Budget {
    fn new(args: &Args, smoke_ops: usize) -> Budget {
        if args.smoke {
            Budget::Ops(smoke_ops)
        } else {
            Budget::Seconds(Duration::from_secs(args.seconds))
        }
    }

    fn halved(self) -> Budget {
        match self {
            Budget::Seconds(d) => Budget::Seconds(d / 2),
            ops => ops,
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    serve_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        out: None,
        smoke: false,
        serve_child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--serve-child" => args.serve_child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // `run.sh` hashes the sources and builds with the hash set; refuse to
    // measure a binary built from other sources.
    if let Ok(want) = std::env::var("LEDGER_SOURCE_HASH") {
        if want != SOURCE_HASH {
            eprintln!("ledger: this binary was built from sources {SOURCE_HASH}, not {want}");
            std::process::exit(1);
        }
    }
    if args.serve_child {
        if let Err(e) = serve::serve_child() {
            eprintln!("ledger daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let provenance = Provenance::capture();
    if provenance.stale() {
        eprintln!(
            "warning: stale build provenance: built as {}, HEAD is {}",
            provenance.build_sha,
            provenance.head.as_deref().unwrap_or("?")
        );
    }
    let code = match &args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args, &provenance),
    };
    std::process::exit(code);
}

// ----- one workload ------------------------------------------------------

/// `(metric, value, unit)` lines outside the JSON result.
type Raw = Vec<(&'static str, f64, &'static str)>;

struct Measured {
    timing: Timing,
    metrics: BTreeMap<&'static str, f64>,
    /// Unscaled companions of the scaled times, printed but not part of
    /// the JSON result.
    raw: Raw,
    digest: String,
}

fn run_one(args: &Args, workload: &str) -> i32 {
    pin_to_one_cpu();
    match measure(args, workload) {
        Ok(m) => {
            let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            let mut json = Vec::new();
            for (name, unit) in table {
                let value = m.metrics.get(name).copied().unwrap_or(0.0);
                println!("{workload} {name} {value} {unit}");
                json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
            }
            let t = &m.timing;
            println!("{workload} attempted {} ops", t.attempted);
            println!("{workload} failed {} ops", t.failed);
            println!("{workload} error_ratio {} ratio", ratio(t.failed as f64, t.attempted as f64));
            for (name, value, unit) in &m.raw {
                println!("{workload} {name} {value} {unit}");
            }
            println!("{workload} output_digest {} fnv1a64", m.digest);
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                t.attempted,
                t.failed,
                json.join(", ")
            );
            0
        }
        Err(e) => {
            eprintln!("ledger: {workload}: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            1
        }
    }
}

fn measure(args: &Args, workload: &str) -> Result<Measured, String> {
    if workload == "serve_mixed" {
        return measure_serve(args);
    }
    let (setup, p) = SetupTimes::measure(
        || match workload {
            "paper_tables" => inproc::paper_tables(),
            "extended_classes" => inproc::extended_classes(),
            _ => inproc::grading_pile(),
        },
        |_| Ok(()),
    )?;
    let digest = stats::digest(p.expected.iter().map(String::as_str));
    let mut rng = SplitMix64::new(args.seed);
    let budget = Budget::new(args, p.work.len());
    let mut buf = SampleBuffer::reserve(budget);

    if !args.trace {
        // The peak covers the timed ops only, not the correctness checks
        // setup ran; the sample buffer is already resident.
        reset_peak_rss();
        let (timing, rss) = run_window(&p, &mut rng, budget, false, &mut buf)?;
        let (metrics, raw) = end_to_end(&setup, &timing, rss, &p.quality);
        return Ok(Measured { timing, metrics, raw, digest });
    }
    let (plain, _) = run_window(&p, &mut rng, budget.halved(), false, &mut buf)?;
    if let Some(dir) = &args.out {
        write_journal(dir, workload, || {
            let _op = xdata_obs::span("ledger/op");
            match p.work.op(0) {
                Ok(out) if out == p.expected[0] => Ok(()),
                Ok(_) => Err("op 0: the output differs from the pre-pass output".to_string()),
                Err(e) => Err(format!("op 0 failed: {e}")),
            }
        })?;
    }
    xdata_obs::install();
    xdata_obs::preseed();
    let traced = run_window(&p, &mut rng, budget.halved(), true, &mut buf);
    let report = xdata_obs::take_report().expect("recorder installed");
    let (timing, _) = traced?;
    check_coverage(&report, p.work.tree())?;
    let mut metrics =
        layers::from_report(&report, p.work.tree(), timing.attempted as f64, timing.scale);
    metrics.extend(p.facts.iter().map(|(k, v)| (*k, *v)));
    metrics.insert("trace_overhead", ratio(timing.ops_per_s(), plain.ops_per_s()));
    Ok(Measured { timing, metrics, raw: Vec::new(), digest })
}

/// Each op's start (seconds into the window) and raw latency (ms), kept in
/// a buffer that is allocated and resident before the window starts, so
/// that the window's peak RSS does not grow with the number of ops.
struct SampleBuffer(Vec<(f32, f32)>);

impl SampleBuffer {
    /// Room for every op of the budget, at up to [`MAX_OPS_PER_S`] for a
    /// time budget.
    fn reserve(budget: Budget) -> SampleBuffer {
        let cap = match budget {
            Budget::Seconds(d) => (d.as_secs_f64() * MAX_OPS_PER_S) as usize,
            Budget::Ops(n) => n,
        };
        let mut v = Vec::with_capacity(cap);
        // Write every slot once, so that the pages are resident.
        v.resize(cap, (0.0, 0.0));
        v.clear();
        SampleBuffer(v)
    }
}

/// Ops per second a time budget reserves sample room for: at least 4x the
/// fastest workload's rate on the 2-vCPU VM the ledger was defined on. A faster
/// window still works, but its buffer grows and `peak_rss_mb` shows it.
const MAX_OPS_PER_S: f64 = 10_000.0;

/// An in-process window probes machine speed this often, between ops, and
/// right before an op that last took at least this long.
const PROBE_EVERY: Duration = Duration::from_millis(20);

/// Passes over the ops, each in a fresh seeded order, until the budget is
/// spent; a time budget always ends on a whole pass. Probes and the traced
/// run's extra calls are left out of the busy time. Returns the timing and
/// the peak RSS (MB) when the last op ended.
fn run_window(
    p: &Prepared,
    rng: &mut SplitMix64,
    budget: Budget,
    traced: bool,
    buf: &mut SampleBuffer,
) -> Result<(Timing, f64), String> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let ops = &mut buf.0;
    ops.clear();
    let reserved = ops.capacity();
    let mut calib = Calibration::new(Probe::Full);
    let start = Instant::now();
    let mut excluded = calib.probe(start);
    let mut next_probe = Instant::now() + PROBE_EVERY;
    // Each op's latest raw time: an op that took a whole probe interval
    // gets a probe right before it, so that probes bracket it tightly.
    let mut last = vec![Duration::ZERO; p.work.len()];
    'passes: loop {
        for i in shuffled(p.work.len(), rng) {
            if matches!(budget, Budget::Ops(n) if attempted >= n as u64) {
                break 'passes;
            }
            if Instant::now() >= next_probe || last[i] >= PROBE_EVERY {
                excluded += calib.probe(start);
                next_probe = Instant::now() + PROBE_EVERY;
            }
            let op_start = Instant::now();
            let out = {
                let _op = xdata_obs::span("ledger/op");
                p.work.op(i)
            };
            last[i] = op_start.elapsed();
            let ms = last[i].as_secs_f64() * 1e3;
            attempted += 1;
            if traced {
                let extra_start = Instant::now();
                p.work.trace_extra(i);
                excluded += extra_start.elapsed();
            }
            match out {
                Ok(o) if o == p.expected[i] => {
                    ops.push(((op_start - start).as_secs_f32(), ms as f32));
                }
                Ok(_) => {
                    return Err(format!("op {i}: the output differs from the pre-pass output"))
                }
                Err(e) => {
                    eprintln!("op {i} failed: {e}");
                    failed += 1;
                }
            }
        }
        if matches!(budget, Budget::Seconds(d) if start.elapsed() >= d) {
            break;
        }
    }
    let busy_s = (start.elapsed() - excluded).as_secs_f64();
    let rss = peak_rss_mb("/proc/self/status");
    if ops.capacity() > reserved {
        eprintln!("warning: {} ops outgrew the sample buffer of {reserved}", ops.len());
    }
    calib.probe(start);
    let samples: Vec<(f64, f64)> =
        ops.iter().map(|&(t, ms)| (f64::from(ms), calib.factor_at(f64::from(t)))).collect();
    Ok((Timing::new(attempted, failed, &samples, busy_s, calib.median_probe_ms()), rss))
}

/// A Fisher–Yates shuffle of `0..n`.
fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

fn measure_serve(args: &Args) -> Result<Measured, String> {
    let budget = Budget::new(args, SMOKE_REQUESTS);
    let (setup, (expected, mut session)) = SetupTimes::measure(
        || {
            let expected = serve::Expected::compute()?;
            let session = serve::start(&expected)?;
            Ok((expected, session))
        },
        |(_, session)| serve::stop(session).map(drop),
    )?;
    let digest = stats::digest(expected.outputs());
    let quality = Quality {
        datasets_per_suite: expected.datasets_per_suite,
        mutant_kill_ratio: expected.mutant_kill_ratio,
    };

    if !args.trace {
        let window = serve::run_window(&mut session, &expected, args.seed, budget)?;
        let end = serve::stop(session)?;
        let (metrics, raw) = end_to_end(&setup, &window.timing, end.peak_rss_mb, &quality);
        return Ok(Measured { timing: window.timing, metrics, raw, digest });
    }
    // Each window draws its own request sequence.
    let plain = serve::run_window(&mut session, &expected, args.seed, budget.halved())?;
    if let Some(dir) = &args.out {
        write_journal(dir, "serve_mixed", || {
            serve::run_window(&mut session, &expected, args.seed ^ 1, Budget::Ops(JOURNAL_REQUESTS))
                .map(drop)
        })?;
    }
    xdata_obs::install();
    xdata_obs::preseed();
    let traced = serve::run_window(&mut session, &expected, args.seed ^ 2, budget.halved());
    let report = xdata_obs::take_report().expect("recorder installed");
    let window = traced?;
    let end = serve::stop(session)?;
    check_coverage(&report, layers::SERVE_TREE)?;
    let t = &window.timing;
    let mut metrics = layers::from_report(&report, layers::SERVE_TREE, t.attempted as f64, t.scale);
    metrics.extend(window.layers());
    metrics.extend(end.counters);
    metrics.insert("trace_overhead", ratio(t.ops_per_s(), plain.timing.ops_per_s()));
    Ok(Measured { timing: window.timing, metrics, raw: Vec::new(), digest })
}

/// Set-up times of the [`SETUP_REPEATS`] set-ups, raw and scaled by a
/// probe on either side of each.
struct SetupTimes {
    raw_s: Vec<f64>,
    scaled_s: Vec<f64>,
}

impl SetupTimes {
    /// Run `setup` [`SETUP_REPEATS`] times and keep the last result; each
    /// earlier one goes to `discard`, untimed.
    fn measure<T>(
        mut setup: impl FnMut() -> Result<T, String>,
        mut discard: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(SetupTimes, T), String> {
        let mut times = SetupTimes { raw_s: Vec::new(), scaled_s: Vec::new() };
        let t0 = Instant::now();
        let mut calib = Calibration::new(Probe::Full);
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(earlier) = last.take() {
                discard(earlier)?;
            }
            calib.probe(t0);
            let start = Instant::now();
            last = Some(setup()?);
            let raw_s = start.elapsed().as_secs_f64();
            calib.probe(t0);
            let mid = (start - t0).as_secs_f64() + raw_s / 2.0;
            times.raw_s.push(raw_s);
            times.scaled_s.push(raw_s * calib.factor_at(mid));
        }
        Ok((times, last.expect("at least one setup")))
    }
}

fn end_to_end(
    setup: &SetupTimes,
    timing: &Timing,
    peak_rss_mb: f64,
    quality: &Quality,
) -> (BTreeMap<&'static str, f64>, Raw) {
    let lat = Summary::of(&timing.latencies_ms);
    let raw_lat = Summary::of(&timing.raw_latencies_ms);
    let metrics = BTreeMap::from([
        ("setup_s", median(&setup.scaled_s)),
        ("op_p50_ms", lat.p50),
        ("op_p99_ms", lat.p99),
        ("ops_per_s", timing.ops_per_s()),
        ("peak_rss_mb", peak_rss_mb),
        ("datasets_per_suite", quality.datasets_per_suite),
        ("mutant_kill_ratio", quality.mutant_kill_ratio),
    ]);
    let raw = vec![
        ("setup_s.raw", median(&setup.raw_s), "s"),
        ("op_p50_ms.raw", raw_lat.p50, "ms"),
        ("op_p99_ms.raw", raw_lat.p99, "ms"),
        ("ops_per_s.raw", timing.raw_ops_per_s(), "ops/s"),
        ("probe_ms", timing.probe_ms, "ms"),
    ];
    (metrics, raw)
}

/// The traced run's self times must tile the op time within 5%.
fn check_coverage(report: &xdata_obs::MetricsReport, tree: &[(&str, &str)]) -> Result<(), String> {
    let coverage = layers::self_time_coverage(report, tree);
    if (0.95..=1.05).contains(&coverage) {
        Ok(())
    } else {
        Err(format!("per-layer self times cover {coverage:.3} of op time, not 1 ± 0.05"))
    }
}

/// Run `pass` under the event journal and write it as a Chrome trace,
/// `DIR/<workload>.trace.json`, after checking that it validates.
fn write_journal(
    dir: &Path,
    workload: &str,
    pass: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    xdata_obs::install_trace();
    let result = pass();
    let log = xdata_obs::take_trace().expect("journal installed");
    result?;
    let json = log.to_chrome_json();
    xdata_obs::validate_chrome_trace(&json).map_err(|e| format!("trace does not validate: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Keep this process, and the serve daemon it spawns, on one CPU: the
/// highest-numbered one it may use. Every workload runs one thread at a
/// time, so this costs no parallelism. For `serve_mixed` it keeps each
/// request's hand-off between client and daemon on one CPU: spread over
/// two virtual CPUs, every hand-off woke an idle one, and the wake-up
/// time moved the latency tail from run to run by far more than the
/// daemon's own work did.
fn pin_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // glibc's `cpu_set_t`: 1024 CPUs.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: each call reads or writes at most `size` bytes of a mask
        // that is `size` bytes long.
        let allowed = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } == 0;
        let cpu = (0..size * 8).rev().find(|&c| allowed && mask[c / 64] >> (c % 64) & 1 == 1);
        if let Some(cpu) = cpu {
            let mut one = [0u64; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: as above.
            if unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0 {
                return;
            }
        }
        eprintln!("warning: cannot pin the benchmark to one CPU");
    }
}

/// Start a new peak-RSS measurement in this process: hand the heap that
/// setup freed back to the kernel, then reset VmHWM to the current
/// resident set. Without the first step, pages setup touched and freed
/// would stay resident and set the peak.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset the peak RSS ({e}); peak_rss_mb includes setup");
    }
}

/// VmHWM, the peak resident set, from a `/proc/<pid>/status` file.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ----- every workload -----------------------------------------------------

/// Run each workload untraced and traced, each in a fresh process, relay
/// their metric lines, and write `BENCH_ledger.json` when `--out` is set.
fn run_all(args: &Args, provenance: &Provenance) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ledger: {e}");
            return 1;
        }
    };
    let mut ok = true;
    let mut sections = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace]).args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(dir) = &args.out {
                cmd.arg("--out").arg(dir);
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("ledger: running {workload}: {e}");
                    return 1;
                }
            };
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let stdout = String::from_utf8_lossy(&output.stdout);
            // Every line but the final JSON object is `workload metric value unit`.
            let lines: Vec<Vec<&str>> = stdout
                .lines()
                .filter(|l| !l.starts_with('{'))
                .map(|l| l.split_whitespace().collect())
                .collect();
            for l in &lines {
                println!("{}", l.join(" "));
            }
            if !output.status.success() {
                eprintln!("ledger: {workload} --trace {trace} failed ({})", output.status);
                ok = false;
                continue;
            }
            let fields: Vec<String> = lines
                .iter()
                .filter(|l| l.len() == 4)
                .map(|l| {
                    let value = if l[2].parse::<f64>().is_ok() {
                        l[2].to_string()
                    } else {
                        format!("\"{}\"", l[2])
                    };
                    format!("\"{}\": {value}", l[1])
                })
                .collect();
            let key = if trace == "0" { "end_to_end" } else { "per_layer" };
            runs.push(format!("      \"{key}\": {{{}}}", fields.join(", ")));
        }
        sections.push(format!("    \"{workload}\": {{\n{}\n    }}", runs.join(",\n")));
    }
    if let Some(dir) = &args.out {
        let json = format!(
            "{{\n  \"provenance\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \
             \"workloads\": {{\n{}\n  }}\n}}\n",
            provenance.json(),
            args.seed,
            args.seconds,
            args.smoke,
            sections.join(",\n")
        );
        let path = dir.join("BENCH_ledger.json");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("ledger: writing {}: {e}", path.display());
            return 1;
        }
        println!("wrote {}", path.display());
    }
    if ok {
        0
    } else {
        1
    }
}

// ----- provenance ---------------------------------------------------------

/// Which code produced a result, read when the run starts: the build
/// script's commit can be stale, since it reruns only when `.git/HEAD`
/// changes, so the checkout's own `HEAD` is recorded beside it.
struct Provenance {
    head: Option<String>,
    dirty: Option<bool>,
    build_sha: String,
    rustc: String,
    cores_available: usize,
}

impl Provenance {
    fn capture() -> Provenance {
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        let meta = xdata_obs::build_meta(&[]);
        Provenance {
            head: git(&["rev-parse", "HEAD"]),
            dirty: git(&["status", "--porcelain"]).map(|s| !s.is_empty()),
            build_sha: meta.get("git_sha").cloned().unwrap_or_default(),
            rustc: meta.get("rustc").cloned().unwrap_or_default(),
            cores_available: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// The compiled-in commit is known and is not the checkout's `HEAD`.
    fn stale(&self) -> bool {
        let built = self.build_sha.trim_end_matches("-dirty");
        match &self.head {
            Some(head) if built != "unknown" && !built.is_empty() => !head.starts_with(built),
            _ => false,
        }
    }

    fn json(&self) -> String {
        let opt = |v: Option<String>| v.map_or("null".to_string(), |s| format!("\"{s}\""));
        format!(
            "{{\"head\": {}, \"dirty\": {}, \"build_sha\": \"{}\", \"stale\": {}, \
             \"source_hash\": \"{SOURCE_HASH}\", \"rustc\": \"{}\", \"cores_available\": {}}}",
            opt(self.head.clone()),
            self.dirty.map_or("null".to_string(), |d| d.to_string()),
            self.build_sha,
            self.stale(),
            self.rustc,
            self.cores_available
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(37, &mut SplitMix64::new(5));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..37).collect::<Vec<_>>());
        assert_eq!(a, shuffled(37, &mut SplitMix64::new(5)));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
