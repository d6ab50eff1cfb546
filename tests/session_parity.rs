//! Verdict parity between the production search and its reference
//! oracles. Generation in `Mode::Unfold` solves every target through an
//! incremental CDCL session; `xdata::core::generate_with_oracle` turns
//! sessions off and hands every target to a fresh CDCL solve or to the
//! chronological DPLL core instead. All three must agree on every
//! verdict — which targets produce a dataset, which are skipped, and why.
//!
//! The solvers are free to return *different models* (a satisfying
//! dataset is not unique), so parity is over labels and skip reasons, not
//! tuple values. The production path must still keep tuple values
//! byte-identical across `--jobs` — pinned here and, for the default
//! configuration, in `parallel_determinism.rs`.

use xdata::catalog::{university, DomainCatalog, Schema};
use xdata::core::{generate, generate_with_oracle, GenOptions, Oracle, SkipReason, TestSuite};
use xdata::solver::{solve_dpll, CancelToken, Mode, Problem, SolveOutcome, SolverStats};

fn fresh_cdcl(p: &Problem, limit: u64, cancel: &CancelToken) -> (SolveOutcome, SolverStats) {
    p.solve_cancel(Mode::Unfold, limit, cancel)
}

/// The reference oracles the session path is held against.
const ORACLES: [(&str, &Oracle); 2] = [("cdcl", &fresh_cdcl), ("dpll", &solve_dpll)];

/// Table I chain joins (2..=4 relations, all relevant FKs) plus a
/// selection chain, the workload family of the paper's evaluation.
fn table1_queries() -> Vec<(String, Schema)> {
    let mut queries: Vec<(String, Schema)> = (2..=4)
        .map(|k| (xdata_bench::chain_sql(k), university::schema_with_fk_count(k - 1)))
        .collect();
    queries.push((
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 50000"
            .into(),
        university::schema_with_fk_count(2),
    ));
    queries
}

/// §V-H extended-class queries: membership and quantified subqueries,
/// LIKE patterns, NULL checks — including a NULL-witness target, which
/// needs a DDL schema whose linked column stays nullable.
fn extended_queries() -> Vec<(String, Schema)> {
    let strict = university::schema_with_fk_count(0);
    let nullable = xdata::sql::parse_schema(
        "CREATE TABLE instructor (id INT PRIMARY KEY, name VARCHAR, dept_id INT, salary INT);
         CREATE TABLE teaches (id INT, course_id INT, sec_id INT, year INT);",
    )
    .unwrap();
    vec![
        (
            "SELECT name FROM instructor WHERE id NOT IN \
             (SELECT s_id FROM advisor WHERE i_id > 3)"
                .into(),
            strict.clone(),
        ),
        (
            "SELECT i.name FROM instructor i WHERE NOT EXISTS \
             (SELECT id FROM teaches t WHERE t.id = i.id)"
                .into(),
            strict.clone(),
        ),
        (
            "SELECT id FROM instructor WHERE name LIKE '%Wu%' AND salary IS NOT NULL".into(),
            strict,
        ),
        (
            "SELECT name FROM instructor WHERE id IN \
             (SELECT id FROM teaches WHERE year > 2000)"
                .into(),
            nullable,
        ),
    ]
}

/// Wide stars (many same-shape targets over one hub, the shape sessions
/// are built for) and seeded random join schemas, from the bench crate's
/// workload generators.
fn star_and_random_queries() -> Vec<(String, Schema)> {
    let stars = [2, 5].map(|n| (xdata_bench::star_sql(n), xdata_bench::star_schema(n)));
    let random = xdata_bench::random_join_cases(0x5c4ea, 6).into_iter().map(|c| (c.sql, c.schema));
    stars.into_iter().chain(random).collect()
}

type Verdicts = (Vec<String>, Vec<(String, SkipReason)>);

fn verdicts(suite: &TestSuite) -> Verdicts {
    (
        suite.datasets.iter().map(|d| d.label.clone()).collect(),
        suite.skipped.iter().map(|s| (s.label.clone(), s.reason.clone())).collect(),
    )
}

/// The suite for `sql`: from the production path, or from `oracle`.
fn suite(schema: &Schema, sql: &str, opts: &GenOptions, oracle: Option<&Oracle>) -> TestSuite {
    let ast = xdata::sql::parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let query = xdata::relalg::normalize(&ast, schema).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let domains = DomainCatalog::defaults(schema);
    match oracle {
        None => generate(&query, schema, &domains, opts),
        Some(oracle) => generate_with_oracle(&query, schema, &domains, opts, oracle),
    }
    .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// Generate `sql` on the production path and through every oracle, assert
/// identical verdicts, and return the production suite.
fn assert_parity(schema: &Schema, sql: &str, opts: &GenOptions) -> TestSuite {
    let base = suite(schema, sql, opts, None);
    let (labels, skips) = verdicts(&base);
    for (name, oracle) in ORACLES {
        let (other_labels, other_skips) = verdicts(&suite(schema, sql, opts, Some(oracle)));
        assert_eq!(labels, other_labels, "dataset labels differ: session vs {name}: {sql}");
        assert_eq!(skips, other_skips, "skip lists differ: session vs {name}: {sql}");
    }
    base
}

/// The production suite renders byte-identically for every `--jobs`
/// value: warm solver state (learned clauses, activities, saved phases)
/// is handed from target to target in plan order whatever the thread
/// count.
fn assert_jobs_identity(schema: &Schema, sql: &str, base: &TestSuite) {
    for jobs in [2, 4, 0] {
        let opts = GenOptions { jobs, ..GenOptions::default() };
        let got = suite(schema, sql, &opts, None).to_string();
        assert_eq!(base.to_string(), got, "suite bytes differ at jobs={jobs}: {sql}");
    }
}

/// Every Table I target solved three ways yields the same verdict: the
/// same targets produce datasets, the same targets are skipped, with the
/// same [`SkipReason`].
#[test]
fn three_cores_agree_on_table1_verdicts() {
    for (sql, schema) in table1_queries() {
        let suite = assert_parity(&schema, &sql, &GenOptions::default());
        assert!(!suite.datasets.is_empty(), "{sql}: no datasets at all");
    }
}

/// Extended-class targets (subquery distinguishers, NULL witnesses, LIKE
/// symmetric differences) keep the three-way verdict parity, and the
/// session path keeps byte-identical suites across `--jobs` on them.
#[test]
fn extended_classes_keep_core_and_jobs_parity() {
    for (sql, schema) in extended_queries() {
        let suite = assert_parity(&schema, &sql, &GenOptions::default());
        assert!(!suite.datasets.is_empty(), "{sql}: no datasets at all");
        assert_jobs_identity(&schema, &sql, &suite);
    }
}

/// Star and seeded random join shapes keep the three-way verdict parity
/// and the session path's byte-identity across `--jobs`.
#[test]
fn star_and_random_shapes_keep_core_and_jobs_parity() {
    for (sql, schema) in star_and_random_queries() {
        let suite = assert_parity(&schema, &sql, &GenOptions::default());
        assert!(!suite.datasets.is_empty(), "{sql}: no datasets at all");
        assert_jobs_identity(&schema, &sql, &suite);
    }
}

/// With a decision budget of 0 only propagation-solvable targets get
/// through; everything else must surface as `SkipReason::Budget` — and
/// *identically* so for all three solvers, decisions-spent field
/// included. Assumption establishment in the session must not count
/// against the budget, or this diverges from the fresh solves.
#[test]
fn tiny_budget_reports_identical_budget_skips() {
    let (sql, schema) = table1_queries().pop().unwrap();
    let opts = GenOptions { decision_limit: 0, ..GenOptions::default() };
    let suite = assert_parity(&schema, &sql, &opts);
    assert!(
        suite.skipped.iter().any(|s| matches!(s.reason, SkipReason::Budget { .. })),
        "a zero budget must starve some target: {:?}",
        suite.skipped
    );
}

/// The session path keeps the cross-`--jobs` byte-identity guarantee on
/// the Table I chains.
#[test]
fn session_suites_byte_identical_across_jobs() {
    for (sql, schema) in table1_queries() {
        let base = suite(&schema, &sql, &GenOptions::default(), None);
        assert_jobs_identity(&schema, &sql, &base);
    }
}
