//! Tests for the grading workflow (`XData::grade`) — the use case the
//! X-Data system was deployed for at IIT Bombay.

use xdata::catalog::university;
use xdata::{Grade, XData};

fn xd(fks: usize) -> XData {
    XData::new(university::schema_with_fk_count(fks))
}

const REFERENCE: &str =
    "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id";

#[test]
fn correct_rewrites_pass() {
    let x = xd(1);
    for candidate in [
        REFERENCE,
        // Commuted FROM order.
        "SELECT i.name, t.course_id FROM teaches t, instructor i WHERE t.id = i.id",
        // Explicit JOIN syntax.
        "SELECT i.name, t.course_id FROM instructor i JOIN teaches t ON i.id = t.id",
        // Right outer join that the FK makes equivalent.
        "SELECT i.name, t.course_id FROM instructor i RIGHT OUTER JOIN teaches t \
         ON i.id = t.id",
    ] {
        let g = x.grade(REFERENCE, candidate).unwrap();
        assert!(g.passed(), "should pass: {candidate}");
    }
}

#[test]
fn wrong_join_type_fails_with_witness() {
    let x = xd(1);
    let g = x
        .grade(
            REFERENCE,
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id",
        )
        .unwrap();
    match g {
        Grade::Different { dataset, expected, got, .. } => {
            assert_ne!(expected, got);
            // The witness contains the non-teaching instructor.
            let instructors = dataset.relation("instructor").unwrap();
            let teaches = dataset.relation("teaches").unwrap_or(&[]);
            assert!(instructors.iter().any(|i| !teaches.iter().any(|t| t[0] == i[0])));
        }
        g => panic!("expected Different, got {g:?}"),
    }
}

#[test]
fn wrong_comparison_fails() {
    let x = xd(0);
    let reference = "SELECT id FROM instructor WHERE salary >= 50000";
    let g = x.grade(reference, "SELECT id FROM instructor WHERE salary > 50000").unwrap();
    assert!(!g.passed(), "boundary dataset must separate >= from >");
}

#[test]
fn wrong_aggregate_fails() {
    let x = xd(0);
    let reference = "SELECT dept_id, COUNT(salary) FROM instructor GROUP BY dept_id";
    let g = x
        .grade(reference, "SELECT dept_id, COUNT(DISTINCT salary) FROM instructor GROUP BY dept_id")
        .unwrap();
    assert!(!g.passed(), "duplicate-bearing dataset must separate COUNT from COUNT DISTINCT");
}

#[test]
fn different_arity_fails_on_original_dataset() {
    // The non-empty original-query dataset exposes any projection-arity
    // difference immediately. (Same-arity projection swaps are not in the
    // paper's mutation space and may evade the suite when values coincide.)
    let x = xd(1);
    let g = x
        .grade(REFERENCE, "SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id")
        .unwrap();
    assert!(!g.passed());
}

#[test]
fn unparsable_candidate_is_an_error() {
    let x = xd(1);
    assert!(x.grade(REFERENCE, "SELECT FROM WHERE").is_err());
}

// ---- batch grading (`XData::grade_batch`) ----------------------------

use xdata::core::CandidateOutcome;
use xdata::engine::JoinStrategy;

/// A realistic small batch: duplicates, rewrites, wrong answers, and a
/// parse error — exercising dedup, partial credit and error attribution.
fn batch() -> Vec<String> {
    [
        REFERENCE,
        // Commuted FROM order — same equivalence class as the reference.
        "SELECT i.name, t.course_id FROM teaches t, instructor i WHERE t.id = i.id",
        // Explicit JOIN syntax — also collapses into the reference class.
        "SELECT i.name, t.course_id FROM instructor i JOIN teaches t ON i.id = t.id",
        // Wrong join type: fails with partial credit.
        "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id",
        // Exact duplicate of the wrong answer: dedup hit, shared verdict.
        "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id",
        // Doesn't parse: per-candidate Invalid, not a batch error.
        "SELECT FROM WHERE",
    ]
    .map(str::to_string)
    .to_vec()
}

#[test]
fn batch_dedups_and_attributes_errors() {
    let report = xd(1).grade_batch(REFERENCE, &batch()).unwrap();
    assert_eq!(report.verdicts.len(), 6);
    // reference + 2 rewrites = 1 class; wrong join = 1 class (+1 dup).
    assert_eq!(report.classes, 2, "report: {}", report.render());
    assert_eq!(report.dedup_hits, 3, "report: {}", report.render());
    let v = &report.verdicts;
    assert_eq!(v[0].class, v[1].class, "commuted FROM shares the reference class");
    assert_eq!(v[0].class, v[2].class, "explicit JOIN shares the reference class");
    assert_eq!(v[3].class, v[4].class, "duplicate wrong answers share a class");
    assert_ne!(v[0].class, v[3].class);
    assert!(!v[0].dedup_hit && v[1].dedup_hit && v[2].dedup_hit);
    assert!(!v[3].dedup_hit && v[4].dedup_hit);

    assert_eq!(v[0].outcome, CandidateOutcome::Pass);
    match &v[3].outcome {
        CandidateOutcome::Fail { killed_by, agreeing, first_dataset } => {
            assert!(killed_by.iter().any(|&k| k));
            assert!(*agreeing < report.datasets);
            assert!(killed_by[*first_dataset]);
            // Partial credit strictly between 0 and 1: the wrong join
            // still agrees on datasets where every instructor teaches.
            let score = v[3].outcome.score(report.datasets).unwrap();
            assert!(score > 0.0 && score < 1.0, "score {score}");
        }
        o => panic!("expected Fail, got {o:?}"),
    }
    assert_eq!(v[3].outcome, v[4].outcome, "dedup shares the verdict");
    assert!(matches!(v[5].outcome, CandidateOutcome::Invalid { .. }));
    assert_eq!(v[5].class, None);
}

/// Batch verdicts must agree with the single-candidate path.
#[test]
fn batch_agrees_with_single_grade() {
    let x = xd(1);
    let candidates = batch();
    let report = x.grade_batch(REFERENCE, &candidates).unwrap();
    for (v, sql) in report.verdicts.iter().zip(&candidates) {
        match &v.outcome {
            CandidateOutcome::Pass => {
                assert!(x.grade(REFERENCE, sql).unwrap().passed(), "{sql}");
            }
            CandidateOutcome::Fail { first_dataset, .. } => match x.grade(REFERENCE, sql) {
                Ok(Grade::Different { dataset_index, .. }) => {
                    assert_eq!(*first_dataset, dataset_index, "first witness of {sql}");
                }
                g => panic!("batch FAIL but single grade {g:?} for {sql}"),
            },
            CandidateOutcome::Invalid { .. } => assert!(x.grade(REFERENCE, sql).is_err()),
            o => panic!("unexpected outcome {o:?} for {sql}"),
        }
    }
}

/// The rendered verdict report is byte-identical for every `--jobs` value
/// and both join strategies (the nested loop is the hash join's
/// reference oracle, reachable only through `grade_batch` itself).
#[test]
fn batch_report_deterministic_across_jobs_and_strategies() {
    let candidates = batch();
    let baseline = xd(1).with_jobs(1).grade_batch(REFERENCE, &candidates).unwrap().render();
    assert!(baseline.contains("PASS") && baseline.contains("FAIL"), "{baseline}");
    for jobs in [2, 8] {
        let r = xd(1).with_jobs(jobs).grade_batch(REFERENCE, &candidates).unwrap().render();
        assert_eq!(baseline, r, "jobs={jobs}");
    }
    let schema = university::schema_with_fk_count(1);
    let domains = xdata::catalog::DomainCatalog::defaults(&schema);
    for jobs in [1, 2, 8] {
        let opts = xdata::core::GenOptions { jobs, ..Default::default() };
        let r = xdata::core::grade_batch(
            REFERENCE,
            &candidates,
            &schema,
            &domains,
            &opts,
            JoinStrategy::NestedLoop,
        )
        .unwrap()
        .render();
        assert_eq!(baseline, r, "nested-loop jobs={jobs}");
    }
}

/// A pre-cancelled token grades nothing but still returns a well-formed
/// report: every evaluable candidate Unevaluated, never Pass/Fail.
#[test]
fn cancelled_batch_marks_unevaluated() {
    use xdata::core::{grade_batch_cancellable, CancelToken, GenOptions};
    let schema = university::schema_with_fk_count(1);
    let domains = xdata::catalog::DomainCatalog::defaults(&schema);
    let token = CancelToken::new();
    token.cancel();
    for jobs in [1, 4] {
        let opts = GenOptions { jobs, ..GenOptions::default() };
        let report = grade_batch_cancellable(
            REFERENCE,
            &batch(),
            &schema,
            &domains,
            &opts,
            JoinStrategy::Hash,
            &token,
            None,
        )
        .unwrap();
        assert!(report.partial, "jobs={jobs}");
        for v in &report.verdicts {
            assert!(
                matches!(
                    v.outcome,
                    CandidateOutcome::Unevaluated | CandidateOutcome::Invalid { .. }
                ),
                "jobs={jobs}: {:?}",
                v.outcome
            );
        }
    }
}

/// A decision budget of 0 leaves a run without a deadline with no
/// datasets: every target that needs a decision is a budget skip. Its
/// candidates are unresolved, and the report says the partial suite has
/// no datasets instead of blaming a deadline.
#[test]
fn budget_starved_batch_reports_an_empty_partial_suite() {
    for jobs in [1, 4] {
        let x = xd(1).with_jobs(jobs).with_decision_limit(0);
        let report = x.grade_batch(REFERENCE, &batch()).unwrap();
        assert!(report.partial && report.datasets == 0, "jobs={jobs}");
        let unevaluated =
            report.verdicts.iter().filter(|v| v.outcome == CandidateOutcome::Unevaluated).count();
        assert_eq!(unevaluated, 5, "jobs={jobs}: every candidate that parsed");
        let text = report.render();
        assert_eq!(
            text.matches("UNEVALUATED (partial suite has no datasets)").count(),
            unevaluated,
            "jobs={jobs}:\n{text}"
        );
        assert!(!text.contains("deadline expired"), "jobs={jobs}:\n{text}");
    }
}

/// Single-candidate grading follows batch grading on a partial suite: with
/// no dataset the candidate has no verdict, and agreement on the datasets
/// a decision budget left is not a pass. The wrong join type below fails
/// on the complete suite.
#[test]
fn partial_suite_never_passes_a_single_candidate() {
    let wrong = "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
                 ON i.id = t.id";
    assert!(!xd(1).grade(REFERENCE, wrong).unwrap().passed());
    let g = xd(1).with_decision_limit(0).grade(REFERENCE, wrong).unwrap();
    assert!(matches!(g, Grade::Unevaluated), "decision limit 0: {g:?}");
    assert!(!g.passed());
    let g = xd(1).with_decision_limit(5).grade(REFERENCE, wrong).unwrap();
    assert!(
        matches!(g, Grade::AgreesOnSuite { datasets, partial: true } if datasets > 0),
        "decision limit 5: {g:?}"
    );
    assert!(!g.passed());
}
