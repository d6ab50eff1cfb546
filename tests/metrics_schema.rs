//! Schema and determinism gate for the metrics report.
//!
//! These tests drive the library directly (no subprocess) against the
//! paper's running example and validate the two contracts the report
//! makes:
//!
//! 1. **Stable schema** — every canonical counter, histogram and phase
//!    span is present in every report (preseeding), with the documented
//!    fixed key order, so downstream tooling can diff reports across
//!    runs and commits.
//! 2. **Determinism** — the timing-stripped report is byte-identical
//!    whatever `--jobs` value produced it.

use xdata::obs;
use xdata::relalg::mutation::MutationOptions;
use xdata::XData;

const QUERY: &str = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000";

fn university() -> XData {
    XData::new(xdata::catalog::university::schema())
}

/// Run the full generate + kill pipeline under a fresh recorder and
/// return the report.
fn evaluate_with_jobs(jobs: usize) -> obs::MetricsReport {
    obs::install();
    obs::preseed();
    let xd = university().with_jobs(jobs);
    xd.evaluate(QUERY, MutationOptions::default()).expect("paper example evaluates");
    obs::take_report().expect("recorder was installed")
}

#[test]
fn report_contains_every_canonical_key() {
    let report = evaluate_with_jobs(1);
    let json = report.to_json();

    for name in obs::ALL_COUNTERS {
        assert!(json.contains(&format!("\"{name}\"")), "counter {name} missing from report");
    }
    for name in obs::ALL_HISTOGRAMS {
        assert!(json.contains(&format!("\"{name}\"")), "histogram {name} missing from report");
    }
    for name in obs::PHASE_SPANS {
        assert!(json.contains(&format!("\"{name}\"")), "span {name} missing from report");
    }

    // Fixed top-level key order, timings last (the determinism contract
    // depends on it).
    let order = ["schema_version", "counters", "histograms", "spans", "timings_ns"]
        .map(|k| json.find(&format!("\"{k}\"")).unwrap_or_else(|| panic!("{k} missing")));
    assert!(order.windows(2).all(|w| w[0] < w[1]), "top-level keys out of order");
}

/// The reverse inclusion of `report_contains_every_canonical_key`: an
/// instrumentation site recording a counter or histogram that is not in
/// the `xdata_obs::names` registry fails here, so the canonical lists and
/// the recorded key set cannot silently desynchronize in either direction.
#[test]
fn recorded_keys_are_all_canonical() {
    let report = evaluate_with_jobs(1);
    for name in report.counters.keys() {
        assert!(
            obs::ALL_COUNTERS.contains(name),
            "counter {name} is recorded but missing from xdata_obs::names::ALL_COUNTERS"
        );
    }
    for name in report.histograms.keys() {
        assert!(
            obs::ALL_HISTOGRAMS.contains(name),
            "histogram {name} is recorded but missing from xdata_obs::names::ALL_HISTOGRAMS"
        );
    }
    for path in report.spans.keys() {
        assert!(
            obs::PHASE_SPANS.contains(&path.as_str()),
            "span {path} is recorded but missing from xdata_obs::names::PHASE_SPANS"
        );
    }
    // The registry itself must stay sorted — preseeding relies on it for
    // the report's stable key order and reviewers rely on it for diffs.
    assert!(obs::ALL_COUNTERS.windows(2).all(|w| w[0] < w[1]), "ALL_COUNTERS not sorted");
    assert!(obs::ALL_HISTOGRAMS.windows(2).all(|w| w[0] < w[1]), "ALL_HISTOGRAMS not sorted");
}

#[test]
fn pipeline_actually_records() {
    let report = evaluate_with_jobs(1);

    // The plan→solve phase ran and did real work.
    assert!(report.counter("core.targets.solved") > 0);
    assert!(report.counter("core.rows_emitted") > 0);
    assert!(report.counter("solver.decisions") > 0);
    assert!(report.counter("solver.ground_solves") > 0);
    assert!(report.counter("solver.propagations") > 0);
    // The skeleton cache saw both a miss (first shape) and hits (reuse).
    assert!(report.counter("core.skeleton_cache.miss") > 0);
    assert!(report.counter("core.skeleton_cache.hit") > 0);
    // Sessions are the default: targets solved under assumptions on a
    // warm engine, with phases saved across them.
    assert!(report.counter("solver.session.assumption_solves") > 0);
    assert!(report.counter("solver.phase_saves") > 0);
    // The kill phase tallied every mutant into exactly one class bucket.
    let killed: u64 = [
        "kill.killed.agg",
        "kill.killed.cmp",
        "kill.killed.distinct",
        "kill.killed.having_agg",
        "kill.killed.having_cmp",
        "kill.killed.join",
    ]
    .iter()
    .map(|n| report.counter(n))
    .sum();
    let survived: u64 = [
        "kill.survived.agg",
        "kill.survived.cmp",
        "kill.survived.distinct",
        "kill.survived.having_agg",
        "kill.survived.having_cmp",
        "kill.survived.join",
    ]
    .iter()
    .map(|n| report.counter(n))
    .sum();
    assert_eq!(killed + survived, report.counter("kill.mutants"));
    assert!(report.counter("kill.mutants") > 0);
}

#[test]
fn generate_only_report_has_kill_keys_at_zero() {
    obs::install();
    obs::preseed();
    let xd = university();
    xd.generate_for(QUERY).expect("paper example generates");
    let report = obs::take_report().expect("recorder was installed");
    assert_eq!(report.counter("kill.mutants"), 0);
    assert!(report.to_json().contains("\"kill.killed.join\": 0"));
}

#[test]
fn stripped_report_is_identical_across_jobs() {
    let baseline = evaluate_with_jobs(1).to_json_stripped();
    for jobs in [2, 4] {
        let report = evaluate_with_jobs(jobs).to_json_stripped();
        assert_eq!(
            baseline, report,
            "timing-stripped metrics differ between --jobs 1 and --jobs {jobs}"
        );
    }
    assert!(!baseline.contains("timings_ns"));
}

#[test]
fn uninstalled_recorder_yields_no_report() {
    let xd = university();
    xd.generate_for(QUERY).expect("paper example generates");
    assert!(obs::take_report().is_none(), "no report without install()");
}
