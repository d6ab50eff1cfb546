//! Cross-crate determinism guarantee: generation and kill evaluation must
//! produce **byte-identical** output for every thread count. Covers the
//! Table I chain-join workload and Table II-style selection/aggregation
//! queries, with jobs ∈ {1, 2, 8}, plus the sessions-off configurations
//! (`Mode::Lazy` and §VI-A input databases).

use xdata::catalog::university;
use xdata::obs;
use xdata::relalg::mutation::MutationOptions;
use xdata::solver::Mode;
use xdata::XData;

/// Table I: pure join chains over 2..=4 relations, all relevant FKs kept.
fn table1_queries() -> Vec<(String, xdata::catalog::Schema)> {
    (2..=4)
        .map(|k| {
            let rels = university::join_chain(k);
            let mut conds = Vec::new();
            for i in 0..k - 1 {
                let (lr, la, rr, ra) = university::join_chain_condition(i);
                conds.push(format!("{lr}.{la} = {rr}.{ra}"));
            }
            let sql =
                format!("SELECT * FROM {} WHERE {}", rels.join(", "), conds.join(" AND "));
            (sql, university::schema_with_fk_count(k - 1))
        })
        .collect()
}

/// Table II-style mix: selections, attribute comparisons, aggregation,
/// HAVING.
fn table2_queries() -> Vec<(String, xdata::catalog::Schema)> {
    let schema = || university::schema_with_fk_count(2);
    [
        "SELECT * FROM instructor WHERE salary > 50000",
        "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary <= 80000",
        "SELECT i.name FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id AND c.credits >= 3",
        "SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id",
        "SELECT dept_id, COUNT(salary) FROM instructor GROUP BY dept_id \
         HAVING COUNT(salary) > 2",
    ]
    .iter()
    .map(|sql| (sql.to_string(), schema()))
    .collect()
}

#[test]
fn suites_and_kill_matrices_identical_across_thread_counts() {
    let mopts =
        MutationOptions { include_full: false, tree_limit: 2_000, ..Default::default() };
    let mut queries = table1_queries();
    queries.extend(table2_queries());
    for (sql, schema) in queries {
        let (base_run, _, base_report) = XData::new(schema.clone())
            .with_jobs(1)
            .evaluate(&sql, mopts)
            .unwrap_or_else(|e| panic!("evaluate({sql}): {e}"));
        for jobs in [2usize, 8] {
            let (run, _, report) = XData::new(schema.clone())
                .with_jobs(jobs)
                .evaluate(&sql, mopts)
                .unwrap();
            // Labels and datasets, tuple for tuple.
            assert_eq!(
                base_run.suite.datasets.len(),
                run.suite.datasets.len(),
                "jobs={jobs}: {sql}"
            );
            for (a, b) in base_run.suite.datasets.iter().zip(&run.suite.datasets) {
                assert_eq!(a.label, b.label, "jobs={jobs}: {sql}");
                assert_eq!(a.dataset, b.dataset, "jobs={jobs}: {sql} ({})", a.label);
            }
            // Skip lists.
            let skips = |r: &xdata::Run| {
                r.suite.skipped.iter().map(|s| s.label.clone()).collect::<Vec<_>>()
            };
            assert_eq!(skips(&base_run), skips(&run), "jobs={jobs}: {sql}");
            // Kill matrix, verdict for verdict.
            assert_eq!(base_report.killed_by, report.killed_by, "jobs={jobs}: {sql}");
        }
    }
}

/// Sessions-off generation solves every target with a fresh search, in
/// parallel per skeleton class: `Mode::Lazy` (Table I's "without
/// unfolding" column) and §VI-A input-database runs. Both queries plan
/// targets in two classes (one tuple-set copy, plus the duplicate-row or
/// aggregate copies). Suite bytes and the timing-stripped metrics report
/// must not depend on `--jobs`.
#[test]
fn sessions_off_generation_identical_across_thread_counts() {
    let queries = [
        "SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000",
        "SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id",
    ];
    let lazy = XData::new(university::schema()).with_mode(Mode::Lazy);
    let input_db = XData::new(university::schema()).with_input_db(university::sample_data(5));
    for (name, xd) in [("lazy", lazy), ("input-db", input_db)] {
        for sql in queries {
            let run = |jobs: usize| {
                obs::install();
                obs::preseed();
                let xd = xd.clone().with_jobs(jobs);
                let run = xd.generate_for(sql).unwrap_or_else(|e| panic!("{name} {sql}: {e}"));
                let report = obs::take_report().expect("recorder was installed");
                assert!(!run.suite.datasets.is_empty(), "{name} jobs={jobs}: {sql}");
                (run.suite.to_string(), report.to_json_stripped())
            };
            let (suite1, metrics1) = run(1);
            for jobs in [2, 8] {
                let (suite, metrics) = run(jobs);
                assert_eq!(suite1, suite, "{name}: suite differs at jobs={jobs}: {sql}");
                assert_eq!(metrics1, metrics, "{name}: metrics differ at jobs={jobs}: {sql}");
            }
        }
    }
}
