//! The three in-process workloads: `paper_tables`, `extended_classes` and
//! `grading_pile`. Each is a fixed list of ops that do the same work on
//! every pass; setup builds the inputs and runs the correctness pre-pass,
//! whose outputs every timed op is compared against.

use std::collections::BTreeMap;
use std::hint::black_box;

use xdata_bench::{chain_schema, chain_sql, random_join_cases, relevant_fk_count};
use xdata_catalog::{DomainCatalog, Schema};
use xdata_core::kill::{kill_report, KillReport};
use xdata_core::{generate, grade_batch, CandidateOutcome, GenOptions, TestSuite};
use xdata_engine::exec::{execute_query_strategy, JoinStrategy};
use xdata_relalg::mutation::{mutation_space, MutationOptions};
use xdata_relalg::{canonical_form, normalize, Mutant, MutationSpace, NormQuery};
use xdata_sql::parse_query;

use crate::layers::{EVALUATE_TREE, GRADE_TREE};
use crate::pile::candidate_pile;
use crate::stats::ratio;

/// Suite quality, the paper's core claim: fewer datasets that still kill
/// the mutants.
pub struct Quality {
    pub datasets_per_suite: f64,
    pub mutant_kill_ratio: f64,
}

/// A workload after setup: its ops, the pre-pass outputs, and the facts
/// the pre-pass established.
pub struct Prepared {
    pub work: Box<dyn Workload>,
    pub expected: Vec<String>,
    pub quality: Quality,
    /// Per-op layer facts the bench knows from the pre-pass rather than
    /// from a counter (mutant enumeration sizes).
    pub facts: BTreeMap<&'static str, f64>,
}

/// One in-process workload.
pub trait Workload {
    /// Ops per pass.
    fn len(&self) -> usize;
    /// Run op `i` and return its rendered output; `Err` counts the op as
    /// failed.
    fn op(&self, i: usize) -> Result<String, String>;
    /// Extra calls a traced run makes after op `i`, outside its timing, to
    /// split a layer the op does not span.
    fn trace_extra(&self, _i: usize) {}
    /// The op's span tree, for self-time accounting.
    fn tree(&self) -> &'static [(&'static str, &'static str)];
}

// ----- evaluate: parse → normalize → generate → mutants → kill → render --

/// Table I, as committed in `results/table1.txt`: (joins, foreign keys,
/// datasets without the original-query one, killed, killed raw).
const TABLE1: [(usize, usize, usize, usize, usize); 17] = [
    (1, 0, 2, 2, 2),
    (1, 1, 1, 1, 1),
    (2, 0, 4, 6, 6),
    (2, 1, 3, 4, 4),
    (2, 2, 2, 2, 2),
    (3, 0, 5, 19, 32),
    (3, 1, 4, 15, 24),
    (3, 3, 3, 11, 18),
    (4, 0, 7, 32, 108),
    (4, 2, 6, 20, 65),
    (4, 4, 4, 14, 40),
    (5, 0, 8, 71, 683),
    (5, 3, 6, 51, 456),
    (5, 6, 5, 39, 348),
    (6, 0, 10, 107, 2746),
    (6, 4, 8, 79, 1886),
    (6, 9, 6, 53, 1272),
];

/// Table II queries 7–12 (§VI-C.2) with their committed rows in
/// `results/table2.txt`: (id, joins, SQL, datasets, killed).
const TABLE2: [(usize, usize, &str, usize, usize); 6] = [
    (7, 0, "SELECT * FROM instructor WHERE salary > 70000", 4, 5),
    (8, 0, "SELECT COUNT(salary) FROM instructor", 1, 7),
    (
        9,
        1,
        "SELECT i.dept_id, SUM(i.salary) FROM instructor i, teaches t \
         WHERE i.id = t.id GROUP BY i.dept_id",
        2,
        8,
    ),
    (
        10,
        2,
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 70000",
        7,
        11,
    ),
    (
        11,
        2,
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id \
         AND i.salary > 70000 AND c.credits >= 3",
        11,
        16,
    ),
    (
        12,
        2,
        "SELECT i.dept_id, AVG(i.salary) FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id AND c.credits >= 3 \
         GROUP BY i.dept_id",
        8,
        16,
    ),
];

/// The §V-H extended-class queries over `examples/university_subqueries.sql`,
/// whose nullable `teaches.id` makes membership subqueries plan a
/// NULL-witness dataset.
const EXTENDED_SCHEMA: &str = include_str!("../../examples/university_subqueries.sql");
const EXTENDED_QUERIES: [&str; 8] = [
    "SELECT name FROM instructor WHERE id IN (SELECT id FROM teaches WHERE year > 2000)",
    "SELECT name FROM instructor WHERE id NOT IN (SELECT id FROM teaches WHERE year > 2000)",
    "SELECT i.name FROM instructor i WHERE EXISTS (SELECT id FROM teaches t WHERE t.id = i.id)",
    "SELECT i.name FROM instructor i WHERE NOT EXISTS \
     (SELECT id FROM teaches t WHERE t.id = i.id)",
    "SELECT id FROM instructor WHERE name LIKE 'Wu%'",
    "SELECT id FROM instructor WHERE name NOT LIKE '%Wu%'",
    "SELECT id FROM instructor WHERE salary IS NULL",
    "SELECT i.id FROM instructor i, teaches t WHERE i.id = t.id AND i.name LIKE 'Ko%'",
];

/// The random join schemas ride along with a fixed seed of their own: the
/// run seed only orders the ops, so suite quality is the same for every
/// seed and its metrics can carry an exact bound.
const RANDOM_CASES_SEED: u64 = 0x1ed9_e5ee_d000;
const RANDOM_CASES: usize = 12;

/// What a Table I/II row must reproduce.
struct TableRow {
    datasets: usize,
    killed: usize,
    killed_raw: Option<usize>,
}

struct Case {
    label: String,
    sql: String,
    schema: Schema,
    domains: DomainCatalog,
    mopts: MutationOptions,
    row: Option<TableRow>,
    /// Check that no subquery, LIKE or NULL-check mutant survives.
    extended: bool,
}

impl Case {
    fn new(label: String, sql: String, schema: Schema, mopts: MutationOptions) -> Case {
        let domains = DomainCatalog::defaults(&schema);
        Case { label, sql, schema, domains, mopts, row: None, extended: false }
    }
}

struct Evaluation {
    query: NormQuery,
    suite: TestSuite,
    space: MutationSpace,
    report: KillReport,
    output: String,
}

fn evaluate(case: &Case, gopts: &GenOptions) -> Result<Evaluation, String> {
    let ast = {
        let _s = xdata_obs::span("ledger/parse");
        parse_query(&case.sql).map_err(|e| e.to_string())?
    };
    let query = {
        let _s = xdata_obs::span("ledger/normalize");
        normalize(&ast, &case.schema).map_err(|e| e.to_string())?
    };
    let suite = generate(&query, &case.schema, &case.domains, gopts).map_err(|e| e.to_string())?;
    if suite.is_partial() {
        return Err("partial suite".to_string());
    }
    let space = {
        let _s = xdata_obs::span("ledger/mutation_space");
        mutation_space(&query, case.mopts)
    };
    let report =
        kill_report(&query, &space, &suite.data(), &case.schema).map_err(|e| e.to_string())?;
    let output = {
        let _s = xdata_obs::span("ledger/render");
        format!("{suite}{}", xdata_serve::render_evaluate(&query, &suite, &space, &report))
    };
    Ok(Evaluation { query, suite, space, report, output })
}

struct EvalWork {
    cases: Vec<Case>,
    gopts: GenOptions,
}

impl Workload for EvalWork {
    fn len(&self) -> usize {
        self.cases.len()
    }

    fn op(&self, i: usize) -> Result<String, String> {
        evaluate(&self.cases[i], &self.gopts).map(|e| e.output)
    }

    fn tree(&self) -> &'static [(&'static str, &'static str)] {
        EVALUATE_TREE
    }
}

/// Killed mutants under the paper's raw counting: join mutants weigh their
/// multiplicity across join orderings.
fn killed_raw(e: &Evaluation) -> usize {
    e.report
        .killed_by
        .iter()
        .enumerate()
        .filter(|(_, k)| k.is_some())
        .map(|(i, _)| if i < e.space.join.len() { e.space.join[i].multiplicity } else { 1 })
        .sum()
}

fn is_extended(m: &Mutant) -> bool {
    matches!(m, Mutant::Sub(_) | Mutant::Like(_) | Mutant::NullCheck(_))
}

/// Correctness checks of one evaluated case.
fn check_case(case: &Case, e: &Evaluation) -> Result<(), String> {
    if let Some(row) = &case.row {
        let got = (e.suite.datasets.len() - 1, e.report.killed_count(), killed_raw(e));
        if got.0 != row.datasets
            || got.1 != row.killed
            || row.killed_raw.is_some_and(|raw| raw != got.2)
        {
            return Err(format!(
                "{}: datasets/killed/raw {got:?} differ from the committed table \
                 ({}, {}, {:?})",
                case.label, row.datasets, row.killed, row.killed_raw
            ));
        }
    }
    if case.extended {
        let mutants: Vec<Mutant> = e.space.iter().collect();
        if !mutants.iter().any(is_extended) {
            return Err(format!("{}: no subquery, LIKE or NULL-check mutant", case.label));
        }
        let survivors: Vec<String> = e
            .report
            .surviving()
            .filter(|&i| is_extended(&mutants[i]))
            .map(|i| mutants[i].describe(&e.query))
            .collect();
        if !survivors.is_empty() {
            return Err(format!("{}: extended-class survivors {survivors:?}", case.label));
        }
    }
    Ok(())
}

fn prepare_eval(cases: Vec<Case>) -> Result<Prepared, String> {
    let work = EvalWork { cases, gopts: GenOptions::default() };
    let (mut expected, mut datasets, mut mutants, mut killed, mut join_raw) =
        (Vec::new(), 0usize, 0usize, 0usize, 0usize);
    for case in &work.cases {
        let e = evaluate(case, &work.gopts).map_err(|err| format!("{}: {err}", case.label))?;
        check_case(case, &e)?;
        datasets += e.suite.datasets.len();
        mutants += e.space.len();
        killed += e.report.killed_count();
        join_raw += e.space.join.iter().map(|m| m.multiplicity).sum::<usize>();
        expected.push(e.output);
    }
    let n = work.cases.len() as f64;
    Ok(Prepared {
        work: Box::new(work),
        expected,
        quality: Quality {
            datasets_per_suite: datasets as f64 / n,
            mutant_kill_ratio: ratio(killed as f64, mutants as f64),
        },
        facts: BTreeMap::from([
            ("relalg.mutants", mutants as f64 / n),
            ("relalg.join_mutants_raw", join_raw as f64 / n),
        ]),
    })
}

/// Table I (chains of 2–7 relations × every foreign-key count) and Table
/// II, with the paper's mutation options: no full outer join, no extension
/// classes, join trees capped at 20000.
pub fn paper_tables() -> Result<Prepared, String> {
    let mopts =
        MutationOptions { include_full: false, include_extensions: false, tree_limit: 20_000 };
    let mut cases = Vec::new();
    for k in 2..=7 {
        for fks in 0..=relevant_fk_count(k) {
            let mut case = Case::new(
                format!("table1 {}-join {fks}-fk", k - 1),
                chain_sql(k),
                chain_schema(k, fks),
                mopts,
            );
            case.row = TABLE1.iter().find(|r| r.0 == k - 1 && r.1 == fks).map(|r| TableRow {
                datasets: r.2,
                killed: r.3,
                killed_raw: Some(r.4),
            });
            cases.push(case);
        }
    }
    for (id, joins, sql, datasets, killed) in TABLE2 {
        // As in the paper: join queries keep exactly one foreign key.
        let schema = chain_schema((joins + 1).max(2), usize::from(joins > 0));
        let mut case = Case::new(format!("table2 query {id}"), sql.to_string(), schema, mopts);
        case.row = Some(TableRow { datasets, killed, killed_raw: None });
        cases.push(case);
    }
    prepare_eval(cases)
}

/// The §V-H query classes plus seeded random join schemas, with the default
/// mutation options.
pub fn extended_classes() -> Result<Prepared, String> {
    let (schema, data) = xdata_sql::parse_script(EXTENDED_SCHEMA).map_err(|e| e.to_string())?;
    if !data.is_empty() {
        return Err("university_subqueries.sql grew INSERTs; mirror the domain setup".into());
    }
    let mopts = MutationOptions::default();
    let mut cases: Vec<Case> = EXTENDED_QUERIES
        .iter()
        .enumerate()
        .map(|(i, sql)| {
            let mut case =
                Case::new(format!("extended {i}"), sql.to_string(), schema.clone(), mopts);
            case.extended = true;
            case
        })
        .collect();
    for rc in random_join_cases(RANDOM_CASES_SEED, RANDOM_CASES) {
        cases.push(Case::new(rc.name, rc.sql, rc.schema, mopts));
    }
    prepare_eval(cases)
}

// ----- grading: grade_batch over a seeded submission pile ---------------

/// Candidates per reference, and per `grade_batch` call.
pub const PILE: usize = 3000;
/// The piles come from the `grading_sweep` bench's seeds, not the run
/// seed: the slowest slices set `op_p99_ms`, and a pile drawn per run
/// seed moved it by 20% from seed to seed. The run seed orders the ops.
pub const PILE_SEED: u64 = 0x6ead_e5ee_d000;
const SLICE: usize = 200;
/// Candidates per reference whose batch verdict is checked against
/// independent per-candidate grading.
const INDEPENDENT: usize = 600;

struct Reference {
    sql: String,
    schema: Schema,
    domains: DomainCatalog,
}

struct GradeWork {
    refs: Vec<Reference>,
    /// `(reference, candidates)` per op.
    slices: Vec<(usize, Vec<String>)>,
    opts: GenOptions,
}

impl GradeWork {
    fn grade(
        &self,
        i: usize,
        strategy: JoinStrategy,
    ) -> Result<xdata_core::BatchGradeReport, String> {
        let (r, candidates) = &self.slices[i];
        let reference = &self.refs[*r];
        let report = grade_batch(
            &reference.sql,
            candidates,
            &reference.schema,
            &reference.domains,
            &self.opts,
            strategy,
        )
        .map_err(|e| e.to_string())?;
        if report.partial {
            return Err("partial suite".to_string());
        }
        Ok(report)
    }
}

impl Workload for GradeWork {
    fn len(&self) -> usize {
        self.slices.len()
    }

    fn op(&self, i: usize) -> Result<String, String> {
        let report = {
            let _s = xdata_obs::span("ledger/grade");
            self.grade(i, JoinStrategy::Hash)?
        };
        let _s = xdata_obs::span("ledger/render");
        Ok(report.render())
    }

    /// `grade_batch` parses, normalizes and fingerprints every candidate
    /// inside its `grade` span; repeating those calls here splits that
    /// span's self time by layer.
    fn trace_extra(&self, i: usize) {
        let (r, candidates) = &self.slices[i];
        let schema = &self.refs[*r].schema;
        for sql in candidates {
            let Ok(ast) = ({
                let _s = xdata_obs::span("ledger/parse");
                parse_query(sql)
            }) else {
                continue;
            };
            let Ok(q) = ({
                let _s = xdata_obs::span("ledger/normalize");
                normalize(&ast, schema)
            }) else {
                continue;
            };
            let _s = xdata_obs::span("ledger/fingerprint");
            black_box(canonical_form(&q));
        }
    }

    fn tree(&self) -> &'static [(&'static str, &'static str)] {
        GRADE_TREE
    }
}

/// The verdict on one candidate graded on its own.
#[derive(Debug)]
enum Alone {
    Invalid,
    Pass,
    /// The first dataset whose result differs from the reference's.
    Fail(usize),
    ExecError,
}

/// Grade one candidate on its own against the reference's suite, with the
/// nested-loop executor.
fn grade_alone(reference: &NormQuery, suite: &TestSuite, sql: &str, schema: &Schema) -> Alone {
    let Some(q) = parse_query(sql).ok().and_then(|ast| normalize(&ast, schema).ok()) else {
        return Alone::Invalid;
    };
    for (di, d) in suite.datasets.iter().enumerate() {
        let want = execute_query_strategy(reference, &d.dataset, schema, JoinStrategy::NestedLoop)
            .expect("the reference executes on its own suite");
        match execute_query_strategy(&q, &d.dataset, schema, JoinStrategy::NestedLoop) {
            Ok(got) if got != want => return Alone::Fail(di),
            Ok(_) => {}
            Err(_) => return Alone::ExecError,
        }
    }
    Alone::Pass
}

fn verdicts_agree(outcome: &CandidateOutcome, alone: &Alone) -> bool {
    match (outcome, alone) {
        (CandidateOutcome::Invalid { .. }, Alone::Invalid)
        | (CandidateOutcome::Pass, Alone::Pass)
        | (CandidateOutcome::ExecError { .. }, Alone::ExecError) => true,
        (CandidateOutcome::Fail { first_dataset, .. }, Alone::Fail(di)) => first_dataset == di,
        _ => false,
    }
}

/// A reference's normalized query and its suite, generated on their own.
fn reference_suite(
    reference: &Reference,
    opts: &GenOptions,
) -> Result<(NormQuery, TestSuite), String> {
    let ast = parse_query(&reference.sql).map_err(|e| e.to_string())?;
    let q = normalize(&ast, &reference.schema).map_err(|e| e.to_string())?;
    let suite =
        generate(&q, &reference.schema, &reference.domains, opts).map_err(|e| e.to_string())?;
    Ok((q, suite))
}

/// Three Table I references (chains of 1, 2 and 3 joins, every relevant
/// foreign key), each with a seeded pile of candidates graded in slices.
pub fn grading_pile() -> Result<Prepared, String> {
    let mut refs = Vec::new();
    let mut slices = Vec::new();
    for (ri, k) in [2usize, 3, 4].into_iter().enumerate() {
        let schema = chain_schema(k, relevant_fk_count(k));
        let domains = DomainCatalog::defaults(&schema);
        refs.push(Reference { sql: chain_sql(k), schema, domains });
        let pile = candidate_pile(k, PILE, PILE_SEED ^ ri as u64);
        slices.extend(pile.chunks(SLICE).map(|c| (ri, c.to_vec())));
    }
    let work = GradeWork { refs, slices, opts: GenOptions::default() };
    let suites = work
        .refs
        .iter()
        .map(|r| reference_suite(r, &work.opts))
        .collect::<Result<Vec<_>, String>>()?;

    let mut expected = Vec::with_capacity(work.slices.len());
    let mut checked = vec![0usize; work.refs.len()];
    for i in 0..work.slices.len() {
        let hash = work.grade(i, JoinStrategy::Hash)?;
        let nested = work.grade(i, JoinStrategy::NestedLoop)?;
        let rendered = hash.render();
        if rendered != nested.render() {
            return Err(format!("slice {i}: hash and nested-loop reports differ"));
        }
        let (r, candidates) = &work.slices[i];
        if checked[*r] < INDEPENDENT {
            let (q, suite) = &suites[*r];
            for (v, sql) in hash.verdicts.iter().zip(candidates) {
                let alone = grade_alone(q, suite, sql, &work.refs[*r].schema);
                if !verdicts_agree(&v.outcome, &alone) {
                    return Err(format!(
                        "slice {i} #{}: batch {:?} vs independent {alone:?} for `{sql}`",
                        v.index, v.outcome
                    ));
                }
            }
            checked[*r] += candidates.len();
        }
        expected.push(rendered);
    }

    // Quality of the suites the references are graded with.
    let (mut datasets, mut mutants, mut killed) = (0usize, 0usize, 0usize);
    for (reference, (q, suite)) in work.refs.iter().zip(&suites) {
        let space = mutation_space(q, MutationOptions::default());
        let report =
            kill_report(q, &space, &suite.data(), &reference.schema).map_err(|e| e.to_string())?;
        datasets += suite.datasets.len();
        mutants += space.len();
        killed += report.killed_count();
    }
    let quality = Quality {
        datasets_per_suite: datasets as f64 / work.refs.len() as f64,
        mutant_kill_ratio: ratio(killed as f64, mutants as f64),
    };
    Ok(Prepared { work: Box::new(work), expected, quality, facts: BTreeMap::new() })
}
