//! Shared helpers for the evaluation harness (§VI-C of the paper).
//!
//! The binaries in `src/bin/` regenerate the paper's tables:
//!
//! * `table1` — inner-join queries, 1–6 joins × foreign-key sweep
//!   (Table I);
//! * `table2` — selection/aggregation query mix (Table II);
//! * `inputdb` — the §VI-C.3 input-database experiment;
//! * `baseline_cmp` — the §VI-C.1 comparison against reference \[14\]'s
//!   approach;
//! * `serve_sweep` — the daemon over loopback TCP at 1–8 clients.
//!
//! Times are medians over [`median_time`] (warmup + median-of-N on
//! `std::time::Instant`). The library also holds the workload generators
//! ([`chain_sql`], [`star_sql`], [`random_join_cases`], the Table I/II
//! lists) that the integration tests and the `ledger` whole-pipeline
//! benchmark import.

use std::time::{Duration, Instant};

use xdata_catalog::{university, Attribute, DomainCatalog, Relation, Schema, SplitMix64, SqlType};
use xdata_core::{generate, GenOptions, TestSuite};
use xdata_engine::kill::{kill_report, KillReport};
use xdata_relalg::mutation::{mutation_space, MutationOptions};
use xdata_relalg::{normalize, MutationSpace, NormQuery};
use xdata_solver::Mode;
use xdata_sql::parse_query;

/// SQL text for the evaluation's canonical chain query over `k` relations
/// (`k-1` joins): instructor–teaches–course–takes–student–advisor–
/// department, joined pairwise on the conditions of
/// [`university::join_chain_condition`].
pub fn chain_sql(k: usize) -> String {
    assert!((2..=7).contains(&k), "chain queries span 2..=7 relations");
    let rels = university::join_chain(k);
    let mut conds = Vec::new();
    for i in 0..k - 1 {
        let (lr, la, rr, ra) = university::join_chain_condition(i);
        conds.push(format!("{lr}.{la} = {rr}.{ra}"));
    }
    format!("SELECT * FROM {} WHERE {}", rels.join(", "), conds.join(" AND "))
}

/// Number of foreign keys of the full University schema that are relevant
/// to the first `k` chain relations (the Table I sweep goes from 0 up to
/// "the number of constraints originally present on relations in the
/// query").
pub fn relevant_fk_count(k: usize) -> usize {
    let rels = university::join_chain(k);
    let schema = university::schema();
    schema
        .foreign_keys()
        .iter()
        .filter(|fk| rels.contains(&fk.from.as_str()) && rels.contains(&fk.to.as_str()))
        .count()
}

/// A schema keeping only the foreign keys *among* the first `k` chain
/// relations, truncated to `n` of them.
pub fn chain_schema(k: usize, n_fks: usize) -> Schema {
    let rels = university::join_chain(k);
    let mut schema = university::schema();
    let keep: Vec<xdata_catalog::ForeignKey> = schema
        .foreign_keys()
        .iter()
        .filter(|fk| rels.contains(&fk.from.as_str()) && rels.contains(&fk.to.as_str()))
        .take(n_fks)
        .cloned()
        .collect();
    schema.clear_foreign_keys();
    // Re-add the kept FKs by names.
    let pairs: Vec<(String, Vec<String>, String, Vec<String>)> = keep
        .iter()
        .map(|fk| {
            let from_rel = schema.relation(&fk.from).expect("relation").clone();
            let to_rel = schema.relation(&fk.to).expect("relation").clone();
            (
                fk.from.clone(),
                fk.from_cols.iter().map(|c| from_rel.attr(*c).name.clone()).collect(),
                fk.to.clone(),
                fk.to_cols.iter().map(|c| to_rel.attr(*c).name.clone()).collect(),
            )
        })
        .collect();
    for (from, fc, to, tc) in pairs {
        let fc: Vec<&str> = fc.iter().map(String::as_str).collect();
        let tc: Vec<&str> = tc.iter().map(String::as_str).collect();
        schema.add_foreign_key(&from, &fc, &to, &tc).expect("valid kept FK");
    }
    schema
}

/// SQL for a wide *star* query: `n` spoke relations each equi-joined to a
/// shared hub on its key — many targets over one skeleton shape, the
/// workload incremental sessions are built for (complements the deep
/// chains of [`chain_sql`]).
pub fn star_sql(n: usize) -> String {
    assert!(n >= 1, "a star needs at least one spoke");
    let mut from = vec!["hub".to_string()];
    let mut conds = Vec::new();
    for i in 0..n {
        from.push(format!("s{i}"));
        conds.push(format!("s{i}.hub_id = hub.id"));
    }
    format!("SELECT * FROM {} WHERE {}", from.join(", "), conds.join(" AND "))
}

/// Schema for [`star_sql`]: a `hub` relation plus `n` spokes, each with a
/// foreign key into the hub.
pub fn star_schema(n: usize) -> Schema {
    let mut s = Schema::new();
    let hub_attrs =
        vec![Attribute::new("id", SqlType::Int), Attribute::new("payload", SqlType::Int)];
    s.add_relation(Relation::new("hub", hub_attrs, &["id"]).expect("hub relation"))
        .expect("add hub");
    for i in 0..n {
        let attrs = vec![
            Attribute::new("id", SqlType::Int),
            Attribute::new("hub_id", SqlType::Int),
            Attribute::new("weight", SqlType::Int),
        ];
        let name = format!("s{i}");
        s.add_relation(Relation::new(name.clone(), attrs, &["id"]).expect("spoke relation"))
            .expect("add spoke");
        s.add_foreign_key(&name, &["hub_id"], "hub", &["id"]).expect("spoke FK");
    }
    s
}

/// One seeded random join workload (mirrors the generator in
/// `tests/random_schemas.rs`): relations `r0..rn` with a random acyclic
/// FK graph, joined along the FK edges (isolated relations fall back to a
/// shared-id join).
pub struct RandomJoinCase {
    pub name: String,
    pub sql: String,
    pub schema: Schema,
}

/// Deterministically generate `count` random join cases from `seed`.
pub fn random_join_cases(seed: u64, count: usize) -> Vec<RandomJoinCase> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|case| {
            let n = 2 + rng.below(3);
            let extra_attrs: Vec<usize> = (0..n).map(|_| rng.below(3)).collect();
            let mut all_edges = Vec::new();
            for i in 1..n {
                for j in 0..i {
                    all_edges.push((i, j));
                }
            }
            let fk_edges = rng.subset(&all_edges);

            let mut schema = Schema::new();
            for (i, extra) in extra_attrs.iter().enumerate() {
                let mut attrs = vec![Attribute::new("id", SqlType::Int)];
                for j in 0..n {
                    if fk_edges.contains(&(i, j)) {
                        attrs.push(Attribute::new(format!("r{j}_id"), SqlType::Int));
                    }
                }
                for k in 0..*extra {
                    attrs.push(Attribute::new(format!("a{k}"), SqlType::Int));
                }
                schema
                    .add_relation(Relation::new(format!("r{i}"), attrs, &["id"]).expect("relation"))
                    .expect("add relation");
            }
            for (i, j) in &fk_edges {
                schema
                    .add_foreign_key(
                        &format!("r{i}"),
                        &[&format!("r{j}_id")],
                        &format!("r{j}"),
                        &["id"],
                    )
                    .expect("FK");
            }

            let mut conds: Vec<String> =
                fk_edges.iter().map(|(i, j)| format!("r{i}.r{j}_id = r{j}.id")).collect();
            let mut linked = vec![false; n];
            for (i, j) in &fk_edges {
                linked[*i] = true;
                linked[*j] = true;
            }
            for (i, is_linked) in linked.iter().enumerate().skip(1) {
                if !is_linked {
                    conds.push(format!("r{i}.id = r0.id"));
                }
            }
            if conds.is_empty() {
                conds.push("r0.id = r1.id".into());
            }
            let from: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
            let sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), conds.join(" AND "));
            RandomJoinCase {
                name: format!("random-{case}-{n}rel-{}fk", fk_edges.len()),
                sql,
                schema,
            }
        })
        .collect()
}

/// The Table I foreign-key sweep as `(joins, foreign keys)` rows: 1–6
/// joins, each at 0, half and all of its relevant foreign keys (the paper
/// shows 0, a middle value and the maximum), or at every count when there
/// are at most two.
pub fn table1_points() -> Vec<(usize, usize)> {
    let mut rows = Vec::new();
    for joins in 1..=6 {
        let max_fk = relevant_fk_count(joins + 1);
        let mut fks: Vec<usize> =
            if max_fk <= 2 { (0..=max_fk).collect() } else { vec![0, max_fk / 2, max_fk] };
        fks.dedup();
        rows.extend(fks.into_iter().map(|n| (joins, n)));
    }
    rows
}

/// Table II queries 7–12 (§VI-C.2): `(id, joins, selections, aggregates,
/// SQL)`. Join queries run with exactly one foreign key, as in the paper;
/// join-free ones on the FK-free schema (see [`table2_schema`]).
pub const TABLE2_QUERIES: [(usize, usize, usize, usize, &str); 6] = [
    (7, 0, 1, 0, "SELECT * FROM instructor WHERE salary > 70000"),
    (8, 0, 0, 1, "SELECT COUNT(salary) FROM instructor"),
    (
        9,
        1,
        0,
        1,
        "SELECT i.dept_id, SUM(i.salary) FROM instructor i, teaches t \
         WHERE i.id = t.id GROUP BY i.dept_id",
    ),
    (
        10,
        2,
        1,
        0,
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 70000",
    ),
    (
        11,
        2,
        2,
        0,
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id \
         AND i.salary > 70000 AND c.credits >= 3",
    ),
    (
        12,
        2,
        1,
        1,
        "SELECT i.dept_id, AVG(i.salary) FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id AND c.credits >= 3 \
         GROUP BY i.dept_id",
    ),
];

/// The schema a Table II query with `joins` joins runs on: the chain
/// schema over its relations with one foreign key when it joins, none
/// otherwise.
pub fn table2_schema(joins: usize) -> Schema {
    chain_schema((joins + 1).max(2), usize::from(joins > 0))
}

/// The counts of one evaluation row.
pub struct EvalRow {
    pub datasets: usize,
    pub skipped: usize,
    /// Canonically-deduplicated mutant count.
    pub mutants: usize,
    /// Killed, counting canonical classes once.
    pub killed: usize,
    /// Killed under the paper's raw counting (every `(tree, node, kind)`
    /// triple across all join orderings counts separately).
    pub killed_raw: usize,
}

/// Generation options for benches (synthetic domains, no input DB).
pub fn bench_opts(mode: Mode) -> GenOptions {
    GenOptions { mode, input_db: None, jobs: 1, ..GenOptions::default() }
}

/// Median-of-`samples` wall time of `f`, after `warmup` unmeasured runs.
/// The median is robust against one-off scheduler hiccups, which matters
/// more than mean/stddev niceties for the coarse comparisons the tables
/// make.
pub fn median_time<F: FnMut()>(warmup: usize, samples: usize, mut f: F) -> Duration {
    assert!(samples > 0);
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn bench_query(sql: &str, schema: &Schema) -> NormQuery {
    normalize(&parse_query(sql).expect("bench SQL parses"), schema).expect("bench SQL normalizes")
}

/// One query run through the §VI-C loop.
pub struct Evaluation {
    pub query: NormQuery,
    pub suite: TestSuite,
    pub space: MutationSpace,
    pub report: KillReport,
}

impl Evaluation {
    /// The counts of the query's table row.
    pub fn row(&self) -> EvalRow {
        // Raw counting: join mutants occupy the first `space.join.len()`
        // indices of the report, each weighted by its multiplicity.
        let join = &self.space.join;
        let mut killed_raw = 0usize;
        for (i, k) in self.report.killed_by.iter().enumerate() {
            if k.is_none() {
                continue;
            }
            killed_raw += if i < join.len() { join[i].multiplicity } else { 1 };
        }
        EvalRow {
            // The paper's dataset counts exclude the original-query dataset.
            datasets: self.suite.datasets.len().saturating_sub(1),
            skipped: self.suite.skipped.len(),
            mutants: self.space.len(),
            killed: self.report.killed_count(),
            killed_raw,
        }
    }
}

/// Run the §VI-C loop for one query: generate with quantifier unfolding,
/// then check kills (mutation space excludes full-outer mutations, as the
/// paper's evaluation does).
pub fn evaluate(sql: &str, schema: &Schema, tree_limit: usize) -> Evaluation {
    let query = bench_query(sql, schema);
    let domains = DomainCatalog::defaults(schema);
    let suite =
        generate(&query, schema, &domains, &bench_opts(Mode::Unfold)).expect("generation succeeds");
    let mopts = MutationOptions { include_full: false, include_extensions: false, tree_limit };
    let space = mutation_space(&query, mopts);
    let report =
        kill_report(&query, &space, &suite.data(), schema).expect("kill checking succeeds");
    Evaluation { query, suite, space, report }
}

/// The table row of [`evaluate`].
pub fn evaluate_query(sql: &str, schema: &Schema, tree_limit: usize) -> EvalRow {
    evaluate(sql, schema, tree_limit).row()
}

/// Median wall time of generating `sql`'s suite in `mode` (one warm-up
/// run, five timed ones).
pub fn generate_time(sql: &str, schema: &Schema, mode: Mode) -> Duration {
    let q = bench_query(sql, schema);
    let domains = DomainCatalog::defaults(schema);
    let opts = bench_opts(mode);
    median_time(1, 5, || {
        generate(&q, schema, &domains, &opts).expect("generation succeeds");
    })
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `"build"` provenance line every bench artifact embeds right after
/// its opening brace: git sha, rustc version and active feature flags,
/// captured at compile time by `xdata-obs`'s build script. Makes every
/// number in `results/` attributable to a source revision and toolchain.
pub fn build_json_line() -> String {
    format!("  \"build\": {},\n", xdata_obs::build_meta_json(&[]))
}

/// Run `f` under a fresh event journal and write the captured timeline as
/// a Chrome-trace artifact next to the bench JSON it accompanies
/// (`<stem>.trace.json` beside `next_to`, loadable in Perfetto /
/// `chrome://tracing` and analyzable offline with `xdata trace`). The
/// traced run is a *separate* representative pass so journaling overhead
/// never contaminates the measured numbers.
pub fn write_trace_artifact<F: FnOnce()>(next_to: &std::path::Path, f: F) {
    xdata_obs::install_trace();
    f();
    let log = xdata_obs::take_trace().expect("journal installed");
    let name = next_to.file_name().and_then(|s| s.to_str()).unwrap_or("BENCH.json");
    let stem = name.strip_suffix(".json").unwrap_or(name);
    let out = next_to.with_file_name(format!("{stem}.trace.json"));
    std::fs::write(&out, log.to_chrome_json()).expect("write trace artifact");
    println!("wrote {} ({} journal events)", out.display(), log.events.len());
}

/// Re-indent a rendered JSON document (e.g. a `MetricsReport`) so it can
/// be embedded as a nested value inside the hand-rolled JSON the bench
/// binaries write: every line after the first gets `pad` prepended, and
/// the trailing newline is dropped.
pub fn indent_json(json: &str, pad: &str) -> String {
    let mut out = String::new();
    for (i, line) in json.trim_end().lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(pad);
        }
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_sql_shapes() {
        let s = chain_sql(2);
        assert!(s.contains("instructor, teaches"));
        assert!(s.contains("instructor.id = teaches.id"));
        let s7 = chain_sql(7);
        assert!(s7.contains("department"));
        assert_eq!(s7.matches(" AND ").count(), 5);
    }

    #[test]
    fn relevant_fks_grow_with_chain() {
        assert!(relevant_fk_count(2) >= 1);
        assert!(relevant_fk_count(7) >= relevant_fk_count(4));
    }

    #[test]
    fn chain_schema_keeps_only_relevant() {
        let s = chain_schema(2, 10);
        assert_eq!(s.foreign_keys().len(), relevant_fk_count(2));
        let s0 = chain_schema(4, 0);
        assert!(s0.foreign_keys().is_empty());
    }

    #[test]
    fn indent_json_pads_continuation_lines() {
        let doc = "{\n  \"a\": 1\n}\n";
        assert_eq!(indent_json(doc, "    "), "{\n      \"a\": 1\n    }");
    }

    #[test]
    fn star_shapes() {
        let s = star_sql(3);
        assert!(s.contains("hub, s0, s1, s2"));
        assert_eq!(s.matches(" AND ").count(), 2);
        let schema = star_schema(3);
        assert_eq!(schema.foreign_keys().len(), 3);
        assert!(schema.relation("s2").is_some());
    }

    #[test]
    fn random_cases_are_deterministic() {
        let a = random_join_cases(0x5c4ea, 4);
        let b = random_join_cases(0x5c4ea, 4);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.sql, y.sql);
        }
    }

    #[test]
    fn evaluate_query_smoke() {
        let schema = chain_schema(2, 0);
        let row = evaluate_query(&chain_sql(2), &schema, 10_000);
        assert_eq!(row.datasets, 2);
        assert_eq!(row.mutants, 2);
        assert_eq!(row.killed, 2);
    }
}
