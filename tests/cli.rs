//! Integration tests for the `xdata` binary: argument parsing, error
//! reporting, and the `--metrics-json`/`--trace` observability flags.
//!
//! Each test spawns the compiled binary (`CARGO_BIN_EXE_xdata`).

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const SCHEMA: &str = "examples/university.sql";
const QUERY: &str = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000";

fn xdata(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xdata"))
        .args(args)
        .output()
        .expect("spawn xdata binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("xdata-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn missing_command_is_an_error() {
    let out = xdata(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing command"), "{}", stderr(&out));
}

#[test]
fn unknown_command_is_an_error() {
    let out = xdata(&["frobnicate", "--schema", SCHEMA, "--query", QUERY]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"), "{}", stderr(&out));
}

#[test]
fn unknown_option_is_an_error() {
    let out = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, "--frob"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown option"), "{}", stderr(&out));
}

#[test]
fn missing_schema_is_an_error() {
    let out = xdata(&["generate", "--query", QUERY]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--schema is required"), "{}", stderr(&out));
}

#[test]
fn jobs_rejects_garbage() {
    for bad in ["three", "-1", "2.5", ""] {
        let out = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, "--jobs", bad]);
        assert!(!out.status.success(), "--jobs {bad:?} must be rejected");
        assert!(stderr(&out).contains("--jobs"), "{}", stderr(&out));
    }
}

#[test]
fn jobs_without_value_is_an_error() {
    let out = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, "--jobs"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--jobs needs a thread count"), "{}", stderr(&out));
}

#[test]
fn jobs_zero_means_auto_and_succeeds() {
    // `0` is documented as "one worker per core", not an error; the output
    // must equal the sequential run's byte-for-byte.
    let auto = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, "--jobs", "0"]);
    assert!(auto.status.success(), "{}", stderr(&auto));
    let seq = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, "--jobs", "1"]);
    assert_eq!(auto.stdout, seq.stdout);
}

#[test]
fn metrics_json_without_value_is_an_error() {
    let out = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, "--metrics-json"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--metrics-json needs a file"), "{}", stderr(&out));
}

#[test]
fn metrics_json_writes_schema_keys() {
    let path = tmp_path("metrics.json");
    let out = xdata(&[
        "generate",
        "--schema",
        SCHEMA,
        "--query",
        QUERY,
        "--metrics-json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    // The preseeded canonical schema: solver counters, cache counters,
    // per-class kill tallies and the three phases are all present even
    // though `generate` never runs the kill phase.
    for key in xdata::obs::ALL_COUNTERS {
        assert!(json.contains(&format!("\"{key}\"")), "missing counter {key}");
    }
    for key in ["\"generate/plan\"", "\"generate/solve\"", "\"kill\"", "\"timings_ns\""] {
        assert!(json.contains(key), "missing {key}");
    }
}

#[test]
fn metrics_json_identical_across_jobs_except_timings() {
    let mut stripped = Vec::new();
    for jobs in ["1", "4"] {
        let path = tmp_path(&format!("metrics-j{jobs}.json"));
        let out = xdata(&[
            "generate",
            "--schema",
            SCHEMA,
            "--query",
            QUERY,
            "--jobs",
            jobs,
            "--metrics-json",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let json = std::fs::read_to_string(&path).expect("metrics file written");
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"timings_ns\""));
        stripped.push(xdata::obs::strip_timings(&json));
    }
    assert_eq!(stripped[0], stripped[1], "timing-stripped metrics must not depend on --jobs");
    assert!(!stripped[0].contains("timings_ns"));
}

#[test]
fn trace_prints_span_lines_to_stderr() {
    let out = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, "--trace"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    // The lines are printed at exit from the run's journal, one per span,
    // grouped by thread and tagged with the thread ordinal.
    assert!(err.contains("[xdata-trace t0] generate/solve"), "{err}");
    assert!(err.contains("[xdata-trace t0] generate "), "{err}");
    // Labels ride along on solve spans.
    assert!(err.contains("original query"), "{err}");
}

#[test]
fn target_timeout_zero_attributes_timeout_skips() {
    // A 0 ms per-target deadline expires before any solve: every target is
    // skipped with the Timeout reason and the survivors are labeled
    // unresolved, not equivalent.
    let out = xdata(&[
        "evaluate",
        "--schema",
        SCHEMA,
        "--query",
        QUERY,
        "--target-timeout-ms",
        "0",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("0 datasets"), "{text}");
    assert!(text.contains("skipped targets:"), "{text}");
    assert!(text.contains("deadline expired before a verdict (timeout)"), "{text}");
    assert!(text.contains("SURVIVES (unresolved: suite is partial)"), "{text}");
    assert!(!text.contains("SURVIVES (equivalent)"), "{text}");
}

#[test]
fn decision_limit_zero_attributes_budget_skips() {
    let out = xdata(&[
        "evaluate",
        "--schema",
        SCHEMA,
        "--query",
        QUERY,
        "--decision-limit",
        "0",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("budget exhausted"), "{text}");
    assert!(text.contains("SURVIVES (unresolved: suite is partial)"), "{text}");
}

#[test]
fn budget_and_timeout_skips_both_surface_in_one_run() {
    // The regression the skip-reason plumbing exists for: a run where both
    // degradation kinds occur must attribute each one — neither hides the
    // other. A 0 ms *suite* deadline times out whatever a 0-decision budget
    // has not already skipped; plan-time skips keep their own reasons.
    let out = xdata(&[
        "evaluate",
        "--schema",
        SCHEMA,
        "--query",
        QUERY,
        "--target-timeout-ms",
        "0",
        "--decision-limit",
        "0",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    // Both flags set: the per-target token trips at solve entry (Timeout
    // wins the race deterministically — it is checked first), so run one
    // flag each to see both reasons; this run checks the combination stays
    // well-formed and partial.
    assert!(text.contains("skipped targets:"), "{text}");
    assert!(text.contains("SURVIVES (unresolved: suite is partial)"), "{text}");

    let timeout_only =
        xdata(&["evaluate", "--schema", SCHEMA, "--query", QUERY, "--target-timeout-ms", "0"]);
    let budget_only =
        xdata(&["evaluate", "--schema", SCHEMA, "--query", QUERY, "--decision-limit", "0"]);
    let t = String::from_utf8_lossy(&timeout_only.stdout).into_owned();
    let b = String::from_utf8_lossy(&budget_only.stdout).into_owned();
    assert!(t.contains("(timeout)") && !t.contains("budget exhausted"), "{t}");
    assert!(b.contains("budget exhausted") && !b.contains("(timeout)"), "{b}");
}

#[test]
fn timeout_flags_reject_garbage() {
    for flag in ["--timeout-ms", "--target-timeout-ms", "--decision-limit"] {
        let out = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, flag, "soon"]);
        assert!(!out.status.success(), "{flag} soon must be rejected");
        assert!(stderr(&out).contains(flag), "{}", stderr(&out));
        let out = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY, flag]);
        assert!(!out.status.success(), "{flag} without value must be rejected");
        assert!(stderr(&out).contains("needs a"), "{}", stderr(&out));
    }
}

#[test]
fn generous_timeout_changes_nothing() {
    // A deadline that never fires must leave the output byte-identical to
    // the no-deadline run (the cancellation plumbing is inert until
    // tripped).
    let plain = xdata(&["generate", "--schema", SCHEMA, "--query", QUERY]);
    let timed = xdata(&[
        "generate",
        "--schema",
        SCHEMA,
        "--query",
        QUERY,
        "--timeout-ms",
        "3600000",
        "--target-timeout-ms",
        "3600000",
    ]);
    assert!(timed.status.success(), "{}", stderr(&timed));
    assert_eq!(plain.stdout, timed.stdout);
}

#[test]
fn evaluate_metrics_include_kill_phase() {
    let path = tmp_path("metrics-eval.json");
    let out = xdata(&[
        "evaluate",
        "--schema",
        SCHEMA,
        "--query",
        QUERY,
        "--jobs",
        "2",
        "--metrics-json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    // The kill phase ran: the span count and at least one kill tally are
    // non-zero.
    assert!(json.contains("\"kill\": {\"count\": 1}"), "{json}");
    assert!(!json.contains("\"kill.mutants\": 0,"), "{json}");
}

#[test]
fn mutants_listing_solves_nothing() {
    let path = tmp_path("metrics-mutants.json");
    let out = xdata(&[
        "mutants",
        "--schema",
        SCHEMA,
        "--query",
        QUERY,
        "--metrics-json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("9 mutants (9 raw):\n"));
    // The listing needs the normalized query only: no target is solved.
    for key in ["core.targets.solved", "solver.ground_solves"] {
        assert!(json.contains(&format!("\"{key}\": 0,")), "{key}: {json}");
    }
}

/// A reader that stops early (`xdata ... | head`) closes stdout under the
/// writer. The listing here is larger than a 64 KiB pipe buffer, so the
/// binary writes to the closed pipe however the two processes are
/// scheduled; it must stop quietly and succeed.
#[test]
fn closed_stdout_exits_quietly() {
    let query = "SELECT * FROM instructor a, teaches b, instructor c, teaches d, \
                 instructor e, teaches f WHERE a.id = b.id AND b.id = c.id AND c.id = d.id \
                 AND d.id = e.id AND e.id = f.id";
    let listing = xdata(&["mutants", "--schema", SCHEMA, "--query", query]);
    assert!(listing.stdout.len() > 64 * 1024, "{} bytes", listing.stdout.len());
    let mut child = Command::new(env!("CARGO_BIN_EXE_xdata"))
        .args(["mutants", "--schema", SCHEMA, "--query", query])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xdata binary");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for xdata");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    assert_eq!(stderr(&out), "");
    assert!(out.status.success(), "{:?}", out.status);
}
