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
//! ## One recorder per run
//!
//! Instrumentation sites call [`counter`], [`observe`], [`span`],
//! [`instant`] and [`flow`] unconditionally, and each records into the
//! [`Recorder`] bound to the thread it runs on. A recorder has two sinks:
//! [`install`] turns on metrics and [`install_trace`] the journal, for
//! the calling thread, binding a recorder first if none is bound;
//! [`take_report`] and [`take_trace`] turn theirs off and return what the
//! run recorded, unbinding the recorder once no sink is on.
//! `xdata-par` workers bind the recorder of the thread that started them,
//! so a run's report covers its workers and no concurrent run on another
//! thread. A thread with no recorder bound (the default) pays one
//! thread-local load and an early return per event site, which is what
//! lets the solver and the parallel kill loop carry permanent
//! instrumentation.
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
//! `generate/solve` needs no span context from the coordinating thread.
//! Finished spans and journal events accumulate in one per-thread buffer
//! that flushes into the thread's recorder when its outermost span closes,
//! keeping lock traffic at one acquisition per top-level span rather than
//! one per span.

mod journal;
mod metrics;
mod names;
mod recorder;
mod span;
mod trace;

pub use metrics::{Histogram, MetricsReport, SpanAgg};
pub use names::{preseed, ALL_COUNTERS, ALL_HISTOGRAMS, ALL_INSTANTS, FLOW_NAMES, PHASE_SPANS};
pub use recorder::{Binding, Recorder};
pub use span::{span, span_with, SpanGuard};
pub use trace::{
    build_meta, build_meta_json, parse_chrome_trace, parse_json, validate_chrome_trace,
    CriticalSegment, FlowPhase, Json, SpanInstance, TraceAnalysis, TraceEvent, TraceEventKind,
    TraceLog, TraceSummary,
};

use journal::{now_ns, JEvent};
use recorder::{sinks, with_local, with_store, JOURNAL, METRICS};

/// Start a fresh metrics run on the calling thread's recorder: clears
/// anything it collected before and enables collection. Call once per run
/// (e.g. when `--metrics-json` is requested).
pub fn install() {
    recorder::install(METRICS);
}

/// Whether metrics collection is enabled on the calling thread.
#[inline]
pub fn enabled() -> bool {
    sinks() & METRICS != 0
}

/// Start a fresh journal run on the calling thread's recorder: discards
/// any previously journaled events and enables event journaling. Call once
/// per run (e.g. when `--trace` or `--trace-out` is requested).
pub fn install_trace() {
    recorder::install(JOURNAL);
}

/// Whether the event journal is enabled on the calling thread.
#[inline]
pub fn journal_enabled() -> bool {
    sinks() & JOURNAL != 0
}

/// Disable the journal and return everything journaled since
/// [`install_trace`] as a stable-ordered [`TraceLog`]. Returns `None` when
/// the journal was never enabled.
pub fn take_trace() -> Option<TraceLog> {
    recorder::take(JOURNAL, |store| std::mem::take(&mut store.chunks))
        .map(journal::assemble)
}

/// Disable collection and return everything recorded since [`install`].
/// Returns `None` when no recorder was installed.
pub fn take_report() -> Option<MetricsReport> {
    recorder::take(METRICS, |store| std::mem::take(&mut store.report))
}

/// Add `delta` to counter `name` (creating it at 0 first). `delta == 0`
/// still creates the key. When the journal is on, non-zero deltas are
/// additionally journaled as timestamped counter events (zero deltas are
/// schema, not occurrences, and stay out of the timeline).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    let s = sinks();
    if s == 0 {
        return;
    }
    if s & METRICS != 0 {
        with_store(|store| *store.report.counters.entry(name).or_insert(0) += delta);
    }
    if s & JOURNAL != 0 && delta != 0 {
        with_local(|l| l.push_event(JEvent::Counter { name, delta, ts: now_ns() }));
    }
}

/// Journal a point event (cache hit, verdict, restart, …) with a
/// lazily-built label. The closure runs only when the journal is on, so a
/// disabled site pays one thread-local load and never formats the label.
#[inline]
pub fn instant(name: &'static str, label: impl FnOnce() -> String) {
    if !journal_enabled() {
        return;
    }
    let label = label();
    with_local(|l| l.push_event(JEvent::Instant { name, label, ts: now_ns() }));
}

/// Journal a flow marker connecting causally-related work across threads
/// (a plan target moving from the planning thread to its solving worker).
/// `id` disambiguates
/// concurrent flows with the same `name`; the Chrome exporter renders them
/// as arrows.
#[inline]
pub fn flow(name: &'static str, id: u64, phase: FlowPhase) {
    if !journal_enabled() {
        return;
    }
    with_local(|l| l.push_event(JEvent::Flow { name, id, phase, ts: now_ns() }));
}

/// Record `value` into the log2-bucket histogram `name`.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    observe_all(name, &[value]);
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
    with_store(|store| {
        let h = store.report.histograms.entry(name).or_default();
        for &v in values {
            h.record(v);
        }
    });
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
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn disabled_recorder_is_a_no_op() {
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
        install();
        let rec = Recorder::current().expect("install binds a recorder");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _bound = rec.bind();
                    let _w = span("gen/solve");
                });
            }
        });
        let r = take_report().expect("installed");
        assert_eq!(r.spans["gen/solve"].count, 4);
        assert!(Recorder::current().is_none(), "taking the last sink unbinds the recorder");
    }

    /// Two threads each install a recorder and, recording at the same
    /// time, take back only their own events.
    #[test]
    fn each_thread_takes_back_only_its_own_run() {
        let barrier = std::sync::Barrier::new(2);
        let run = |name: &'static str, path: &'static str| {
            install();
            install_trace();
            barrier.wait();
            for _ in 0..3 {
                let _s = span(path);
                counter(name, 1);
            }
            barrier.wait();
            let report = take_report().expect("installed");
            assert_eq!(report.counters, BTreeMap::from([(name, 3)]));
            assert_eq!(report.spans.keys().collect::<Vec<_>>(), [path]);
            assert_eq!(
                take_trace().expect("installed").to_structure(),
                format!("trace-structure v1\nspan {path} [] x3\ncounter {name} @{path} x3 sum=3\n")
            );
        };
        std::thread::scope(|s| {
            s.spawn(|| run("a", "phase/a"));
            s.spawn(|| run("b", "phase/b"));
        });
    }

    #[test]
    fn preseed_creates_stable_key_set() {
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

    #[test]
    fn journal_round_trips_spans_instants_counters_flows() {
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
