//! Chaos harness: deterministic fault injection across the plan→solve→kill
//! pipeline (`cargo test --features chaos --test chaos`).
//!
//! The [`FaultPlan`] in `GenOptions` matches *target labels*, not thread
//! schedules, so an injected panic / forced-`Unknown` / synthetic deadline
//! expiry hits the same targets whatever `--jobs` value runs the suite.
//! That is the property these tests pin down:
//!
//! * the suite's rendered output is byte-identical across `--jobs`;
//! * the timing-stripped metrics report is byte-identical across `--jobs`;
//! * every faulted target surfaces in `suite.skipped` with the right
//!   [`SkipReason`] — nothing is silently dropped;
//! * kill evaluation still runs over the surviving datasets (no poisoned
//!   lock or wedged memo slot survives a panicked solve).
//!
//! The recorder is process-global, so tests share a lock.

#![cfg(feature = "chaos")]

use std::sync::{Mutex, MutexGuard};

use xdata::core::{FaultPlan, SkipReason};
use xdata::obs;
use xdata::relalg::mutation::MutationOptions;
use xdata::XData;

const QUERY: &str =
    "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000";

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn university() -> XData {
    XData::new(xdata::catalog::university::schema())
}

/// The sweep's fault plan: one target of each failure mode, matched by
/// label substring against the paper example's plan.
fn plan() -> FaultPlan {
    FaultPlan {
        panic_targets: vec!["dataset with `<`".into()],
        unknown_targets: vec!["dataset with `>`".into()],
        expire_targets: vec!["eq-class".into()],
    }
}

/// Full evaluate under a fresh recorder; returns (suite text, stripped
/// metrics json, killed count, unevaluated count).
fn chaos_evaluate(jobs: usize, faults: FaultPlan) -> (String, String, usize, usize) {
    obs::install();
    obs::preseed();
    let xd = university().with_jobs(jobs).with_faults(faults);
    let (run, _space, report) =
        xd.evaluate(QUERY, MutationOptions::default()).expect("chaos run still completes");
    let report_json =
        obs::take_report().expect("recorder was installed").to_json_stripped();
    (run.suite.to_string(), report_json, report.killed_count(), report.unevaluated.len())
}

/// The tentpole determinism claim: an injected panic, a forced `Unknown`
/// and a synthetic deadline expiry produce the *same* partial suite and
/// the *same* stripped metrics whatever the thread count.
#[test]
fn fault_sweep_is_deterministic_across_jobs() {
    let _g = lock();
    let (suite1, metrics1, killed1, uneval1) = chaos_evaluate(1, plan());
    for jobs in [4] {
        let (suite_n, metrics_n, killed_n, uneval_n) = chaos_evaluate(jobs, plan());
        assert_eq!(suite1, suite_n, "suite bytes differ between --jobs 1 and --jobs {jobs}");
        assert_eq!(
            metrics1, metrics_n,
            "stripped metrics differ between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(killed1, killed_n, "jobs={jobs}");
        assert_eq!(uneval1, uneval_n, "jobs={jobs}");
    }
    // The faults were per-target: the pipeline token never tripped, so the
    // kill phase evaluated every mutant and the surviving datasets still
    // killed some of them.
    assert_eq!(uneval1, 0, "no pipeline deadline was set");
    assert!(killed1 > 0, "surviving datasets should still kill mutants");
}

/// Every injected fault must surface in `suite.skipped` with the matching
/// reason — a skipped target is attributed, never silent.
#[test]
fn every_fault_is_attributed() {
    let _g = lock();
    let xd = university().with_faults(plan());
    let run = xd.generate_for(QUERY).expect("chaos run still completes");
    let suite = &run.suite;
    assert!(suite.is_partial(), "injected faults must make the suite partial");

    let panicked: Vec<_> = suite
        .skipped
        .iter()
        .filter(|s| matches!(s.reason, SkipReason::Fault { .. }))
        .collect();
    assert_eq!(panicked.len(), 1, "exactly one panic target: {:?}", suite.skipped);
    assert!(panicked[0].label.contains("dataset with `<`"));
    match &panicked[0].reason {
        SkipReason::Fault { message } => {
            assert!(message.contains("chaos: injected panic"), "payload captured: {message}")
        }
        other => panic!("unexpected {other:?}"),
    }

    let budget: Vec<_> = suite
        .skipped
        .iter()
        .filter(|s| matches!(s.reason, SkipReason::Budget { .. }))
        .collect();
    assert_eq!(budget.len(), 1, "exactly one forced-Unknown target");
    assert!(budget[0].label.contains("dataset with `>`"));

    let timed_out: Vec<_> =
        suite.skipped.iter().filter(|s| s.reason == SkipReason::Timeout).collect();
    assert!(!timed_out.is_empty(), "expire targets must become Timeout skips");
    assert!(timed_out.iter().all(|s| s.label.contains("eq-class")));

    // The untouched targets still produced datasets.
    assert!(suite.datasets.iter().any(|d| d.label.contains("original")));
    assert!(suite.datasets.iter().any(|d| d.label.contains("dataset with `=`")));
}

/// Synthetic deadline expiry on *mid-session* targets: with incremental
/// sessions on (the default), targets of one skeleton shape share a warm
/// CDCL engine in plan order. Expiring a target in the middle of that
/// order must not perturb its successors — the partial suite stays
/// byte-identical across `--jobs`, the expired targets surface as
/// `Timeout` skips, and the targets solved *after* them on the same
/// session still produce datasets.
#[test]
fn mid_session_expiry_is_deterministic_across_jobs() {
    let _g = lock();
    let faults = FaultPlan {
        expire_targets: vec!["dataset with `>`".into(), "eq-class".into()],
        ..FaultPlan::default()
    };
    let run1 = university()
        .with_jobs(1)
        .with_faults(faults.clone())
        .generate_for(QUERY)
        .expect("expiry run completes");
    let suite1 = run1.suite.to_string();
    for jobs in [2usize, 4] {
        let run_n = university()
            .with_jobs(jobs)
            .with_faults(faults.clone())
            .generate_for(QUERY)
            .expect("expiry run completes");
        assert_eq!(suite1, run_n.suite.to_string(), "partial suite differs at --jobs {jobs}");
    }
    // Every expired target is an attributed Timeout skip...
    let timeouts: Vec<_> =
        run1.suite.skipped.iter().filter(|s| s.reason == SkipReason::Timeout).collect();
    assert!(!timeouts.is_empty(), "expire targets must surface: {:?}", run1.suite.skipped);
    assert!(timeouts
        .iter()
        .all(|s| s.label.contains("dataset with `>`") || s.label.contains("eq-class")));
    // ...and later same-session targets were unaffected by the gap.
    assert!(run1.suite.datasets.iter().any(|d| d.label.contains("comparison")));
    assert!(run1.suite.datasets.iter().any(|d| d.label.contains("dataset with `=`")));
}

/// A panicked solve must not wedge the solve-memo: rerunning the same
/// query without faults right after a panicked run works normally (no
/// poisoned lock escapes the generation call), and within a faulted run
/// the other targets — including ones sharing solver state — complete.
#[test]
fn panic_does_not_poison_the_pipeline() {
    let _g = lock();
    let faulted = university()
        .with_jobs(4)
        .with_faults(FaultPlan {
            panic_targets: vec!["comparison".into()],
            ..FaultPlan::default()
        })
        .generate_for(QUERY)
        .expect("faulted run completes");
    assert!(faulted.suite.is_partial());
    // Same process, fresh run, no faults: everything solves again.
    let clean = university().with_jobs(4).generate_for(QUERY).expect("clean run completes");
    assert!(!clean.suite.is_partial());
    assert!(clean.suite.datasets.len() > faulted.suite.datasets.len());
}

/// Seeded random schema under a 1 ms per-target deadline: whatever subset
/// of targets beats the clock, the suite stays *well-formed* — legal
/// datasets, every miss attributed, dataset+skip count equal to the plan.
#[test]
fn tiny_deadline_yields_well_formed_partial_suite() {
    let _g = lock();
    use xdata::catalog::{Attribute, Relation, Schema, SplitMix64, SqlType};

    let mut rng = SplitMix64::new(0xc4a05);
    for _case in 0..8 {
        // Random 2–3 relation chain schema, FK i -> i-1 coin-flipped.
        let n = 2 + rng.below(2);
        let mut schema = Schema::new();
        let mut fks = Vec::new();
        for i in 0..n {
            let mut attrs = vec![Attribute::new("id", SqlType::Int)];
            if i > 0 && rng.bool() {
                attrs.push(Attribute::new("prev_id", SqlType::Int));
                fks.push(i);
            }
            schema
                .add_relation(Relation::new(format!("r{i}"), attrs, &["id"]).unwrap())
                .unwrap();
        }
        for &i in &fks {
            schema
                .add_foreign_key(&format!("r{i}"), &["prev_id"], &format!("r{}", i - 1), &["id"])
                .unwrap();
        }
        let conds: Vec<String> = (1..n)
            .map(|i| {
                if fks.contains(&i) {
                    format!("r{i}.prev_id = r{}.id", i - 1)
                } else {
                    format!("r{i}.id = r0.id")
                }
            })
            .collect();
        let from: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
        let sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), conds.join(" AND "));

        let xd = XData::new(schema.clone()).with_jobs(2).with_target_deadline_ms(1);
        let run = xd.generate_for(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));

        // Well-formed: datasets legal, every skip attributed with a
        // printable reason (a genuinely timed-out target shows up as
        // Timeout; a fast machine may simply solve everything).
        for d in &run.suite.datasets {
            let errs = d.dataset.integrity_violations(&schema);
            assert!(errs.is_empty(), "{}: {errs:?} ({sql})", d.label);
        }
        for s in &run.suite.skipped {
            assert!(!s.label.is_empty());
            assert!(!s.reason.to_string().is_empty());
        }
        // Rendering a partial suite must not panic.
        let _ = run.suite.to_string();
    }
}

/// Batch grading under chaos-injected fault cancellation: a fault plan
/// that expires suite targets yields a *partial* suite, and the rendered
/// verdict report — Pass verdicts certified on the surviving datasets —
/// must still be byte-identical for every `--jobs` value and for both
/// join strategies.
#[test]
fn chaos_batch_grade_is_deterministic_across_jobs() {
    use xdata::core::GenOptions;
    use xdata::engine::JoinStrategy;
    // Grading records into the process-wide recorder another test here may
    // have installed; the lock keeps its counters out of that report.
    let _g = lock();
    let reference = "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id";
    let candidates: Vec<String> = [
        reference,
        "SELECT i.name, t.course_id FROM teaches t, instructor i WHERE t.id = i.id",
        "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id",
        "SELECT FROM WHERE",
    ]
    .map(str::to_string)
    .to_vec();
    let faults = FaultPlan { expire_targets: vec!["eq-class".into()], ..FaultPlan::default() };
    let schema = xdata::catalog::university::schema();
    let domains = xdata::catalog::DomainCatalog::defaults(&schema);
    let grade = |jobs: usize, strategy: JoinStrategy| {
        let opts = GenOptions { jobs, faults: faults.clone(), ..GenOptions::default() };
        let report =
            xdata::core::grade_batch(reference, &candidates, &schema, &domains, &opts, strategy)
                .expect("chaos batch completes");
        assert!(report.partial, "expired targets must mark the suite partial");
        report.render()
    };
    let baseline = grade(1, JoinStrategy::Hash);
    for jobs in [2, 8] {
        assert_eq!(baseline, grade(jobs, JoinStrategy::Hash), "jobs={jobs}");
    }
    for jobs in [1, 4] {
        assert_eq!(baseline, grade(jobs, JoinStrategy::NestedLoop), "nested jobs={jobs}");
    }
}
