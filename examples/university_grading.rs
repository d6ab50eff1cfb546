//! Grading student SQL: the scenario that motivated X-Data (it later became
//! a deployed grading tool at IIT Bombay).
//!
//! ```sh
//! cargo run --example university_grading
//! ```
//!
//! The instructor writes the correct query; each student submission is a
//! candidate. [`XData::grade_batch`] generates the test suite from the
//! *correct* query **once**, collapses structurally equivalent submissions
//! into classes, executes each class against every dataset, and reports a
//! per-student verdict with partial credit — the fraction of datasets a
//! wrong answer still agreed on — without hand-writing a single test case.

use xdata::core::CandidateOutcome;
use xdata::XData;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let xdata = XData::new(xdata::catalog::university::schema());

    // The assignment: "list names of instructors together with the course
    // ids of all courses they teach".
    let correct = "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id";

    // Student submissions, some right, some subtly wrong, some shared.
    let submissions = [
        ("alice", "SELECT i.name, t.course_id FROM teaches t, instructor i WHERE t.id = i.id"),
        (
            "bob",
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id",
        ),
        ("carol", "SELECT i.name, t.course_id FROM instructor i JOIN teaches t ON i.id = t.id"),
        ("dave", "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id <> t.id"),
        // eve copied bob's answer with different whitespace: the structural
        // fingerprint collapses them into one class, so her verdict is
        // shared, not recomputed.
        (
            "eve",
            "SELECT i.name,  t.course_id  FROM instructor i LEFT  OUTER JOIN teaches t \
             ON i.id = t.id",
        ),
        // frank's submission does not parse; that is his problem, not the
        // batch's.
        ("frank", "SELECT FROM WHERE"),
    ];

    println!("reference query:\n  {correct}\n");
    let candidates: Vec<String> = submissions.iter().map(|(_, sql)| sql.to_string()).collect();
    let report = xdata.grade_batch(correct, &candidates)?;
    println!(
        "graded {} submissions as {} equivalence classes ({} dedup hits) \
         on {} generated datasets\n",
        report.verdicts.len(),
        report.classes,
        report.dedup_hits,
        report.datasets,
    );

    for ((student, _), verdict) in submissions.iter().zip(&report.verdicts) {
        let score = verdict
            .outcome
            .score(report.datasets)
            .map_or("  n/a".to_string(), |s| format!("{s:.3}"));
        let note = match &verdict.outcome {
            CandidateOutcome::Pass => "agrees with the reference everywhere".to_string(),
            CandidateOutcome::Fail { first_dataset, agreeing, .. } => format!(
                "first differs on dataset {first_dataset}, partial credit {agreeing}/{}",
                report.datasets
            ),
            CandidateOutcome::Invalid { message } => format!("rejected: {message}"),
            CandidateOutcome::ExecError { message } => format!("execution failed: {message}"),
            CandidateOutcome::Unevaluated if report.datasets == 0 => {
                "partial suite has no datasets".to_string()
            }
            CandidateOutcome::Unevaluated => "deadline expired before a verdict".to_string(),
        };
        let dup = if verdict.dedup_hit { " [shared verdict]" } else { "" };
        println!("{student:8} score {score}  {note}{dup}");
    }

    println!(
        "\n(bob's LEFT OUTER JOIN and dave's <> differ from the reference on the \
         nullification datasets but keep partial credit for the datasets they \
         matched; alice's commuted join and carol's explicit JOIN are \
         equivalent rewrites and pass; eve inherits bob's verdict through the \
         structural fingerprint without executing anything.)"
    );
    Ok(())
}
