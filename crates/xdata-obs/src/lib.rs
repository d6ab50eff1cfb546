//! # xdata-obs
//!
//! A dependency-free, thread-safe observability layer for the X-Data
//! pipeline, with two complementary views of a run:
//!
//! * **Aggregate metrics** — hierarchical **spans** (monotonic wall-clock
//!   timing per pipeline phase), **counters** and **log2-bucket
//!   histograms**, collected into a [`MetricsReport`] that serializes to
//!   stable, sorted JSON.
//! * **Event timeline** — a per-thread **journal** of span begin/end
//!   pairs, instant events, counter deltas and cross-thread flow markers,
//!   drained into a [`TraceLog`] that exports to Chrome trace-event JSON
//!   (Perfetto / `chrome://tracing`) and folded stacks (flamegraphs), and
//!   feeds the offline `xdata trace` analyses.
//!
//! ## Global no-op recorder
//!
//! Instrumentation sites call [`counter`], [`observe`], [`span`],
//! [`instant`] and [`flow`] unconditionally. All sinks share one atomic
//! state word with a bit per sink (metrics collection, stderr span lines,
//! journal); when every sink is off (the default) each call is a single
//! relaxed atomic load and an early return — the uninstrumented hot path
//! stays at effectively zero overhead, which is what lets the solver and
//! the parallel kill loop carry permanent instrumentation. [`install`]
//! switches metrics collection on and [`take_report`] switches it off;
//! [`install_trace`] / [`take_trace`] do the same for the journal.
//!
//! ## Determinism contract
//!
//! The pipeline's output is byte-identical across `--jobs 1/2/4/8`, and
//! both views honour the same rule. For the metrics report every
//! **non-timing** field — counter values, histogram buckets, span
//! *counts*, the key sets — is a pure function of the workload,
//! independent of thread count and scheduling, because
//!
//! * counters and histograms are additive (merge order cannot matter), and
//!   every increment is itself deterministic per solve target / mutant;
//! * spans are aggregated **by path**, and the *set* of spans entered (one
//!   per plan item, one per mutant, one per phase) is fixed by the plan,
//!   not by the schedule.
//!
//! Only the `timings_ns` section varies run-to-run; it is emitted as the
//! final top-level JSON object so [`strip_timings`] can cut it off and the
//! remainder can be compared byte-for-byte.
//!
//! For the trace, the timed export necessarily varies run-to-run, but the
//! timing-stripped **structure** ([`TraceLog::to_structure`]: event kinds,
//! names, span labels, nesting, counts) is byte-identical across `--jobs`
//! — see that method for the two scheduling-domain exclusions that make
//! this hold.
//!
//! ## Span hierarchy and per-thread buffers
//!
//! Span paths are explicit `/`-separated static strings
//! (`"generate/solve"` is a child of `"generate"`), so parent links survive
//! crossing the `xdata-par` thread pool — a worker thread opening
//! `generate/solve` needs no thread-local context from the coordinating
//! thread. Finished spans accumulate in a per-thread buffer and merge into
//! the global aggregate when the thread's outermost span closes, keeping
//! lock traffic at one acquisition per top-level span rather than one per
//! span. The journal and the stderr trace lines follow the same policy:
//! buffer per thread, flush on outermost-span close.
//!
//! With stderr tracing enabled ([`set_trace`]) every span close prints a
//! `[xdata-trace tN]` line (thread ordinal, path, label, duration). Lines
//! from one thread are flushed as a single write when its outermost span
//! closes, so lines never interleave mid-record across threads; block
//! order across threads still follows the schedule — it is a debugging
//! aid, not an artifact.

mod journal;
mod metrics;
mod names;
mod span;
mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

pub use metrics::{Histogram, MetricsReport, SpanAgg};
pub use names::{preseed, ALL_COUNTERS, ALL_HISTOGRAMS, ALL_INSTANTS, FLOW_NAMES, PHASE_SPANS};
pub use span::{span, span_with, SpanGuard};
pub use trace::{
    build_meta, build_meta_json, parse_chrome_trace, parse_json, validate_chrome_trace,
    CriticalSegment, FlowPhase, Json, SpanInstance, TraceAnalysis, TraceEvent, TraceEventKind,
    TraceLog, TraceSummary,
};

/// Metrics collection is on ([`install`] .. [`take_report`]).
const METRICS: u32 = 1 << 0;
/// Span closes print `[xdata-trace tN]` lines to stderr ([`set_trace`]).
const STDERR: u32 = 1 << 1;
/// The event journal is on ([`install_trace`] .. [`take_trace`]).
const JOURNAL: u32 = 1 << 2;

/// One word holds every sink's enable bit, so an event site with all sinks
/// off pays exactly one relaxed load — the overhead contract asserted by
/// `disabled_event_sites_stay_cheap`.
static STATE: AtomicU32 = AtomicU32::new(0);

#[inline]
pub(crate) fn state() -> u32 {
    STATE.load(Ordering::Relaxed)
}

pub(crate) static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
pub(crate) static HISTS: Mutex<BTreeMap<&'static str, Histogram>> = Mutex::new(BTreeMap::new());
pub(crate) static SPANS: Mutex<BTreeMap<String, SpanAgg>> = Mutex::new(BTreeMap::new());

/// Install a fresh global metrics recorder: clears any previous contents
/// and enables collection. Call once per run (e.g. when `--metrics-json`
/// is requested).
pub fn install() {
    COUNTERS.lock().expect("obs counters").clear();
    HISTS.lock().expect("obs hists").clear();
    SPANS.lock().expect("obs spans").clear();
    STATE.fetch_or(METRICS, Ordering::AcqRel);
}

/// Whether metrics collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    state() & METRICS != 0
}

/// Enable or disable `[xdata-trace tN]` stderr output on span close.
/// Independent of [`install`]: stderr tracing works with or without a
/// report. [`take_report`] turns it back off together with collection, so
/// one run's `--trace` cannot leak into the next run in the same process.
pub fn set_trace(on: bool) {
    if on {
        STATE.fetch_or(STDERR, Ordering::AcqRel);
    } else {
        STATE.fetch_and(!STDERR, Ordering::AcqRel);
    }
}

/// Whether stderr trace output is enabled.
#[inline]
pub fn trace_enabled() -> bool {
    state() & STDERR != 0
}

/// Start a fresh journal run: discards any previously journaled events and
/// enables event journaling. Call once per run (e.g. when `--trace-out`
/// is requested).
pub fn install_trace() {
    journal::reset();
    STATE.fetch_or(JOURNAL, Ordering::AcqRel);
}

/// Whether the event journal is enabled.
#[inline]
pub fn journal_enabled() -> bool {
    state() & JOURNAL != 0
}

/// Disable the journal and return everything journaled since
/// [`install_trace`] as a stable-ordered [`TraceLog`]. Returns `None` when
/// the journal was never enabled.
pub fn take_trace() -> Option<TraceLog> {
    if STATE.fetch_and(!JOURNAL, Ordering::AcqRel) & JOURNAL == 0 {
        return None;
    }
    Some(journal::take())
}

/// Disable collection — and stderr tracing, which is scoped to the same
/// run — and return everything recorded since [`install`]. Returns `None`
/// when no recorder was installed (stderr tracing is still reset).
pub fn take_report() -> Option<MetricsReport> {
    if STATE.fetch_and(!(METRICS | STDERR), Ordering::AcqRel) & METRICS == 0 {
        return None;
    }
    Some(MetricsReport {
        counters: std::mem::take(&mut *COUNTERS.lock().expect("obs counters")),
        histograms: std::mem::take(&mut *HISTS.lock().expect("obs hists")),
        spans: std::mem::take(&mut *SPANS.lock().expect("obs spans")),
    })
}

/// Add `delta` to counter `name` (creating it at 0 first). `delta == 0`
/// still creates the key — [`preseed`] relies on this to give reports a
/// stable key set across workloads. When the journal is on, non-zero
/// deltas are additionally journaled as timestamped counter events
/// (zero-delta preseeds are pure schema, not occurrences, and stay out of
/// the timeline).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    let s = state();
    if s == 0 {
        return;
    }
    if s & METRICS != 0 {
        *COUNTERS.lock().expect("obs counters").entry(name).or_insert(0) += delta;
    }
    if s & JOURNAL != 0 && delta != 0 {
        journal::counter(name, delta);
    }
}

/// Journal a point event (cache hit, verdict, restart, …) with a
/// lazily-built label. The closure runs only when the journal is on, so a
/// disabled site pays one atomic load and never formats the label.
#[inline]
pub fn instant(name: &'static str, label: impl FnOnce() -> String) {
    if state() & JOURNAL == 0 {
        return;
    }
    journal::instant(name, label());
}

/// Journal a flow marker connecting causally-related work across threads
/// (a plan target moving from the planning thread to its solving worker, a
/// session's turn order across gated targets). `id` disambiguates
/// concurrent flows with the same `name`; the Chrome exporter renders them
/// as arrows.
#[inline]
pub fn flow(name: &'static str, id: u64, phase: FlowPhase) {
    if state() & JOURNAL == 0 {
        return;
    }
    journal::flow(name, id, phase);
}

/// Record `value` into the log2-bucket histogram `name`.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    HISTS.lock().expect("obs hists").entry(name).or_default().record(value);
}

/// Record every value of `values` into the histogram `name` under a single
/// lock acquisition. Instrumentation sites that produce one sample per
/// hot-loop iteration (e.g. the solver's backjump depths, one per conflict)
/// buffer locally and flush once per solve through this.
#[inline]
pub fn observe_all(name: &'static str, values: &[u64]) {
    if !enabled() || values.is_empty() {
        return;
    }
    let mut hists = HISTS.lock().expect("obs hists");
    let h = hists.entry(name).or_default();
    for &v in values {
        h.record(v);
    }
}

/// Strip the run-varying `timings_ns` section from a rendered
/// [`MetricsReport`] JSON document, leaving only the deterministic part.
/// The writer emits `timings_ns` as the final top-level key precisely so
/// this is a clean suffix cut; byte-compare the results of two runs to
/// check metrics determinism.
pub fn strip_timings(json: &str) -> String {
    match json.find(",\n  \"timings_ns\"") {
        Some(i) => format!("{}\n}}\n", &json[..i]),
        None => json.to_string(),
    }
}

#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests touching the global recorder.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Turn every sink off, discarding pending state from earlier tests.
    fn all_off() {
        let _ = take_report();
        let _ = take_trace();
        set_trace(false);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let _l = lock();
        all_off();
        assert!(take_report().is_none());
        counter("x", 5);
        observe("h", 3);
        {
            let _s = span("phase");
        }
        assert!(take_report().is_none(), "nothing installed, nothing recorded");
    }

    /// The overhead contract for permanently-instrumented hot paths: with
    /// every sink disabled, an event site must take its single-atomic-load
    /// early return — in particular it must never build labels (that
    /// `format!` is the expensive part of a site). The closures panic to
    /// make a violation loud, and a coarse wall-clock bound guards against
    /// someone re-introducing unconditional lock traffic.
    #[test]
    fn disabled_event_sites_stay_cheap() {
        let _l = lock();
        all_off();
        instant("solver.restart", || panic!("label built with journal disabled"));
        {
            let _s = span_with("generate/solve", || panic!("label built with sinks disabled"));
        }
        flow("target", 7, FlowPhase::Start);

        const N: u32 = 1_000_000;
        let t0 = std::time::Instant::now();
        for i in 0..N {
            counter("core.targets.solved", u64::from(i & 1));
            instant("solver.restart", || unreachable!());
        }
        let per_site_ns = t0.elapsed().as_nanos() as f64 / f64::from(N) / 2.0;
        assert!(
            per_site_ns < 200.0,
            "disabled event site costs {per_site_ns:.1}ns — expected a bare atomic check"
        );
    }

    #[test]
    fn counters_and_histograms_round_trip() {
        let _l = lock();
        all_off();
        install();
        counter("a.b", 2);
        counter("a.b", 3);
        counter("zero.key", 0);
        observe("h", 0);
        observe("h", 1);
        observe("h", 1024);
        let r = take_report().expect("installed");
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("zero.key"), 0);
        assert_eq!(r.counter("missing"), 0);
        let h = &r.histograms["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1025);
        // 0 → bucket 0, 1 → bucket 1, 1024 → bucket 11.
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(11), 1);
    }

    #[test]
    fn observe_all_matches_repeated_observe() {
        let _l = lock();
        all_off();
        install();
        observe_all("bulk", &[0, 1, 1, 1024]);
        observe_all("bulk", &[]);
        let r = take_report().expect("installed");
        let h = &r.histograms["bulk"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1026);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(11), 1);
    }

    #[test]
    fn spans_aggregate_by_path() {
        let _l = lock();
        all_off();
        install();
        {
            let _outer = span("gen");
            for _ in 0..3 {
                let _inner = span("gen/solve");
            }
        }
        let r = take_report().expect("installed");
        assert_eq!(r.spans["gen"].count, 1);
        assert_eq!(r.spans["gen/solve"].count, 3);
        assert!(r.spans["gen"].total_ns >= r.spans["gen/solve"].total_ns);
    }

    #[test]
    fn json_is_stable_and_strippable() {
        let _l = lock();
        all_off();
        install();
        counter("b", 1);
        counter("a", 2);
        observe("h", 7);
        {
            let _s = span("phase");
        }
        let r = take_report().expect("installed");
        let with = r.to_json();
        let without = strip_timings(&with);
        assert!(with.contains("\"timings_ns\""));
        assert!(!without.contains("\"timings_ns\""));
        // Keys are sorted.
        assert!(with.find("\"a\"").unwrap() < with.find("\"b\"").unwrap());
        // Stripped JSON of an identical (re-recorded) run is byte-identical.
        install();
        counter("a", 2);
        counter("b", 1);
        observe("h", 7);
        {
            let _s = span("phase");
        }
        let r2 = take_report().expect("installed");
        assert_eq!(strip_timings(&r.to_json()), strip_timings(&r2.to_json()));
        assert_eq!(without, r.to_json_stripped());
    }

    #[test]
    fn cross_thread_spans_merge() {
        let _l = lock();
        all_off();
        install();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _w = span("gen/solve");
                });
            }
        });
        let r = take_report().expect("installed");
        assert_eq!(r.spans["gen/solve"].count, 4);
    }

    #[test]
    fn preseed_creates_stable_key_set() {
        let _l = lock();
        all_off();
        install();
        preseed();
        let r = take_report().expect("installed");
        for name in ALL_COUNTERS {
            assert_eq!(r.counter(name), 0, "{name}");
        }
        for path in PHASE_SPANS {
            assert_eq!(r.spans[*path].count, 0, "{path}");
        }
    }

    /// Regression test for the flag-leak bug: a first run with `--trace`
    /// used to leave the stderr-trace bit set after `take_report()`, so a
    /// second, untraced run in the same process kept printing (and kept
    /// paying for label construction). Collection and stderr tracing are
    /// scoped to the same run, so taking the report must reset both.
    #[test]
    fn take_report_resets_stderr_trace_flag() {
        let _l = lock();
        all_off();
        install();
        set_trace(true);
        assert!(trace_enabled());
        let _ = take_report().expect("installed");
        assert!(!trace_enabled(), "take_report must reset set_trace state");
        assert!(!enabled());
        // And the reset happens even when nothing was installed.
        set_trace(true);
        assert!(take_report().is_none());
        assert!(!trace_enabled());
    }

    #[test]
    fn journal_round_trips_spans_instants_counters_flows() {
        let _l = lock();
        all_off();
        install_trace();
        {
            let _outer = span_with("generate", String::new);
            flow("target", 3, FlowPhase::Start);
            {
                let _inner = span_with("generate/solve", || "dataset A".to_string());
                instant("core.skeleton_cache.hit", || "shape 2x1".to_string());
                counter("solver.decisions", 17);
                counter("solver.decisions", 0); // zero delta: schema only, not an event
            }
            flow("target", 3, FlowPhase::Finish);
        }
        let log = take_trace().expect("journal installed");
        assert!(take_trace().is_none(), "journal is taken exactly once");

        let kinds: Vec<&TraceEventKind> = log.events.iter().map(|e| &e.kind).collect();
        assert_eq!(log.events.len(), 8, "B f B i C E f E... got {kinds:?}");
        assert!(matches!(kinds[0], TraceEventKind::Begin { path, .. } if path == "generate"));
        assert!(
            matches!(kinds[2], TraceEventKind::Begin { path, label }
                if path == "generate/solve" && label == "dataset A")
        );
        assert!(log.events.iter().any(|e| matches!(
            &e.kind,
            TraceEventKind::Counter { name, delta: 17 } if name == "solver.decisions"
        )));
        assert_eq!(
            log.events
                .iter()
                .filter(|e| matches!(&e.kind, TraceEventKind::Flow { .. }))
                .count(),
            2
        );
        // Per-thread timestamps are monotonic and normalized to 0.
        assert_eq!(log.events.iter().map(|e| e.ts_ns).min(), Some(0));
        assert!(log.events.windows(2).all(|w| w[0].tid != w[1].tid || w[0].ts_ns <= w[1].ts_ns));
        // Build metadata rides along.
        assert!(log.meta.contains_key("git_sha"));
        assert!(log.meta.contains_key("rustc"));

        // The Chrome export round-trips through our own parser and passes
        // the structural validator.
        let json = log.to_chrome_json();
        let summary = validate_chrome_trace(&json).expect("export validates");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.flows, 2);
        assert!(summary.has_metadata);
        let back = parse_chrome_trace(&json).expect("export parses");
        assert_eq!(back.to_structure(), log.to_structure());
        assert_eq!(back.meta.get("git_sha"), log.meta.get("git_sha"));
    }

    #[test]
    fn journal_runs_do_not_bleed_into_each_other() {
        let _l = lock();
        all_off();
        install_trace();
        {
            let _s = span_with("generate", String::new);
            instant("solver.restart", || "run 1".to_string());
        }
        let first = take_trace().expect("installed");
        assert_eq!(first.events.len(), 3);

        // A straggler event after the trace was taken is dropped…
        instant("solver.restart", || "stale".to_string());
        // …and a fresh run starts empty.
        install_trace();
        {
            let _s = span_with("generate", String::new);
        }
        let second = take_trace().expect("installed");
        assert_eq!(second.events.len(), 2, "second run must not inherit events");
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let log = TraceLog {
            meta: BTreeMap::new(),
            events: vec![
                ev(0, 0, TraceEventKind::Begin { path: "a".into(), label: String::new() }),
                ev(0, 100, TraceEventKind::Begin { path: "a/b".into(), label: String::new() }),
                ev(0, 400, TraceEventKind::End { path: "a/b".into() }),
                ev(0, 1000, TraceEventKind::End { path: "a".into() }),
            ],
        };
        assert_eq!(log.to_folded(), "a 700\na;a/b 300\n");
    }

    #[test]
    fn critical_path_total_matches_root_duration() {
        // Root [0,1000] on tid 0; solves [100,400] on tid 1 and [300,900]
        // on tid 2 (overlapping). The backward walk should attribute
        // [300,900] to the second solve, [100,300] to the first, and the
        // uncovered/self stretches to the root span — summing exactly to
        // the root duration.
        let log = TraceLog {
            meta: BTreeMap::new(),
            events: vec![
                ev(0, 0, TraceEventKind::Begin { path: "generate".into(), label: String::new() }),
                ev(0, 1000, TraceEventKind::End { path: "generate".into() }),
                ev(1, 100, TraceEventKind::Begin {
                    path: "generate/solve".into(),
                    label: "t1".into(),
                }),
                ev(1, 400, TraceEventKind::End { path: "generate/solve".into() }),
                ev(2, 300, TraceEventKind::Begin {
                    path: "generate/solve".into(),
                    label: "t2".into(),
                }),
                ev(2, 900, TraceEventKind::End { path: "generate/solve".into() }),
            ],
        };
        let a = log.analyze(5);
        assert_eq!(a.root_dur_ns, 1000);
        let total: u64 = a.critical_path.iter().map(|s| s.dur_ns).sum();
        assert_eq!(total, a.root_dur_ns, "critical path must tile the root span exactly");
        let labels: Vec<&str> = a.critical_path.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"t1") && labels.contains(&"t2"));
        assert_eq!(a.per_target.len(), 2);
        assert_eq!(a.per_target[0], ("t2".to_string(), 600, 1));
        assert_eq!(a.slowest[0].label, "t2");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        // Unbalanced: an E with no open B.
        let bad = r#"{"traceEvents": [
            {"name": "x", "cat": "span", "ph": "E", "ts": 1, "pid": 0, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("no open span"));
        // A span left open.
        let open = r#"{"traceEvents": [
            {"name": "x", "cat": "span", "ph": "B", "ts": 1, "pid": 0, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(open).unwrap_err().contains("left open"));
        // Timestamp regression within a thread.
        let regress = r#"{"traceEvents": [
            {"name": "x", "ph": "B", "ts": 5, "pid": 0, "tid": 0},
            {"name": "x", "ph": "E", "ts": 4, "pid": 0, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(regress).unwrap_err().contains("regressed"));
        // A flow finish with no start.
        let flow = r#"{"traceEvents": [
            {"name": "target", "ph": "f", "id": 9, "ts": 1, "pid": 0, "tid": 0, "bp": "e"}
        ]}"#;
        assert!(validate_chrome_trace(flow).unwrap_err().contains("before any start"));
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let v = parse_json(r#"{"a": "x\n\"yé", "b": [1, 2.5, -3], "c": null, "d": true}"#)
            .expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x\n\"yé"));
        assert_eq!(v.get("b").unwrap(), &Json::Arr(vec![
            Json::Num("1".into()),
            Json::Num("2.5".into()),
            Json::Num("-3".into()),
        ]));
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2] garbage").is_err());
        // Chrome timestamps: microseconds with fractional part → ns.
        assert_eq!(Json::Num("12.345".into()).as_ts_ns(), Some(12_345));
        assert_eq!(Json::Num("12.3".into()).as_ts_ns(), Some(12_300));
        assert_eq!(Json::Num("7".into()).as_ts_ns(), Some(7_000));
    }

    #[test]
    fn json_long_string_round_trips() {
        // Multi-byte scalars of every width beside every character the
        // renderer escapes, in a 900 KB string: a parser quadratic in the
        // string length takes seconds here, a linear one milliseconds.
        let unit = "aé€𝄞\"\\/\n\r\t\u{8}\u{c}\u{1}\u{1f}";
        let long = unit.repeat(20_000);
        let rendered = Json::Arr(vec![Json::Str(long.clone())]).render();
        assert_eq!(parse_json(&rendered), Ok(Json::Arr(vec![Json::Str(long)])));
        // The escapes the renderer never writes decode too.
        let text = r#""\/\b\f\u00e9""#;
        assert_eq!(parse_json(text), Ok(Json::Str("/\u{8}\u{c}é".into())));
    }

    fn ev(tid: u32, ts_ns: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { tid, ts_ns, kind }
    }
}
