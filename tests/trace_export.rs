//! Trace-export gate: the event journal's external faces hold their
//! contracts on real pipeline runs.
//!
//! * The Chrome trace-event JSON written for a **chaos-injected partial
//!   run** (injected panic, forced `Unknown`, synthetic expiry) still
//!   parses, and its events nest — every `E` closes the matching `B`, no
//!   span is left open, per-thread timestamps are monotonic, and every
//!   flow arrow starts before it steps or finishes.
//! * The timing-stripped trace **structure** (event kinds, names, span
//!   labels, nesting, counts) is byte-identical for `--jobs 1/2/8` — the
//!   trace-level analogue of the metrics determinism gate.
//! * The critical path extracted from a captured trace tiles the root
//!   span exactly: segment durations sum to the root span duration.

use xdata::core::FaultPlan;
use xdata::obs;
use xdata::relalg::mutation::MutationOptions;
use xdata::XData;

const QUERY: &str =
    "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000";

fn university() -> XData {
    XData::new(xdata::catalog::university::schema())
}

/// One fault of each failure mode, matched by label substring — identical
/// to the chaos harness's sweep plan, so the traced run is genuinely
/// partial (skips with three distinct `SkipReason`s).
fn faults() -> FaultPlan {
    FaultPlan {
        panic_targets: vec!["dataset with `<`".into()],
        unknown_targets: vec!["dataset with `>`".into()],
        expire_targets: vec!["eq-class".into()],
    }
}

/// Full evaluate under a fresh journal; returns the drained trace.
fn traced_evaluate(jobs: usize, faults: FaultPlan) -> obs::TraceLog {
    obs::install_trace();
    let xd = university().with_jobs(jobs).with_faults(faults);
    xd.evaluate(QUERY, MutationOptions::default()).expect("pipeline completes");
    obs::take_trace().expect("journal was installed")
}

#[test]
fn chaos_partial_run_exports_valid_chrome_trace_across_jobs() {
    let mut structures: Vec<(usize, String)> = Vec::new();
    for jobs in [1, 2, 8] {
        let log = traced_evaluate(jobs, faults());
        let json = log.to_chrome_json();

        // Parses with the dependency-free parser and passes the structural
        // checker: balanced B/E nesting, monotonic per-thread timestamps,
        // flow starts preceding steps/finishes.
        let summary = obs::validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("jobs={jobs}: invalid Chrome trace: {e}"));
        assert!(summary.spans > 0, "jobs={jobs}: no spans journaled");
        assert!(summary.flows > 0, "jobs={jobs}: no flow events journaled");
        assert!(summary.has_metadata, "jobs={jobs}: build metadata missing");

        // The partial run's skips are attributed on the timeline: one
        // `core.target.skip` instant per failure mode, reason spelled out.
        let skips: Vec<&str> = log
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                obs::TraceEventKind::Instant { name, label } if name == "core.target.skip" => {
                    Some(label.as_str())
                }
                _ => None,
            })
            .collect();
        assert!(
            skips.iter().any(|l| l.contains("dataset with `<`")),
            "jobs={jobs}: panicked target not attributed: {skips:?}"
        );
        assert!(
            skips.iter().any(|l| l.contains("dataset with `>`")),
            "jobs={jobs}: forced-Unknown target not attributed: {skips:?}"
        );
        assert!(
            skips.iter().any(|l| l.contains("eq-class")),
            "jobs={jobs}: expired target not attributed: {skips:?}"
        );

        // Round-trip: parsing our own export reproduces the structure.
        let back = obs::parse_chrome_trace(&json).expect("round-trip parse");
        assert_eq!(back.to_structure(), log.to_structure(), "jobs={jobs}");

        structures.push((jobs, log.to_structure()));
    }

    // The determinism contract: the timing-stripped structure is
    // byte-identical whatever `--jobs` value produced the trace.
    let (_, baseline) = &structures[0];
    for (jobs, s) in &structures[1..] {
        assert_eq!(
            baseline, s,
            "timing-stripped trace structure differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn clean_run_trace_has_target_flows_and_registered_names() {
    let log = traced_evaluate(2, FaultPlan::default());
    let structure = log.to_structure();
    assert!(structure.contains("flow target start"), "target flow starts missing:\n{structure}");
    assert!(structure.contains("flow target finish"), "target flow finishes missing:\n{structure}");
    assert!(structure.contains("instant kill.verdict"), "verdict instants missing:\n{structure}");
    assert!(structure.contains("instant solver.solve"), "solve instants missing:\n{structure}");

    // Every instant name the pipeline journals is in the canonical
    // registry, and the registry stays sorted (same discipline as the
    // counter registry).
    for e in &log.events {
        if let obs::TraceEventKind::Instant { name, .. } = &e.kind {
            assert!(
                obs::ALL_INSTANTS.contains(&name.as_str()),
                "instant {name} journaled but missing from xdata_obs::names::ALL_INSTANTS"
            );
        }
        if let obs::TraceEventKind::Flow { name, .. } = &e.kind {
            assert!(
                obs::FLOW_NAMES.contains(&name.as_str()),
                "flow {name} journaled but missing from xdata_obs::names::FLOW_NAMES"
            );
        }
    }
    assert!(obs::ALL_INSTANTS.windows(2).all(|w| w[0] < w[1]), "ALL_INSTANTS not sorted");
    assert!(obs::FLOW_NAMES.windows(2).all(|w| w[0] < w[1]), "FLOW_NAMES not sorted");
}

#[test]
fn critical_path_tiles_the_root_span_on_a_real_trace() {
    let log = traced_evaluate(4, FaultPlan::default());
    let analysis = log.analyze(10);
    let total: u64 = analysis.critical_path.iter().map(|s| s.dur_ns).sum();
    assert_eq!(
        total, analysis.root_dur_ns,
        "critical-path segments must sum exactly to the root span duration"
    );
    assert!(analysis.root_dur_ns > 0);
    assert!(!analysis.per_target.is_empty(), "per-target breakdown empty");
    assert!(!analysis.per_class.is_empty(), "per-mutant-class breakdown empty");
    assert!(!analysis.slowest.is_empty(), "top-K slowest solves empty");
    // The folded export carries the same total span mass: every line is
    // `stack self_ns`, non-negative, and the root frame appears.
    let folded = log.to_folded();
    assert!(folded.lines().any(|l| l.starts_with("generate ")), "root frame missing:\n{folded}");
    // Worker threads root their own stacks at the solve span; the inline
    // `--jobs 1` path nests it under `generate` instead.
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("generate/solve ") || l.contains("generate;generate/solve ")),
        "solve frame missing:\n{folded}"
    );
}
