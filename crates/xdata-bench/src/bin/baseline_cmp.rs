//! Regenerates the **§VI-C.1 baseline comparison** against the algorithm of
//! reference \[14\] (the ICDE 2010 short paper): datasets drawn from an input
//! database without constraint-solver synthesis.
//!
//! ```sh
//! cargo run -p xdata-bench --release --bin baseline_cmp
//! ```

use std::time::Instant;

use xdata_bench::{chain_schema, chain_sql, secs};
use xdata_catalog::{university, DomainCatalog};
use xdata_core::baseline::baseline_generate;
use xdata_core::{generate, GenOptions};
use xdata_engine::kill::kill_report;
use xdata_relalg::mutation::{mutation_space, MutationOptions};
use xdata_relalg::normalize;
use xdata_solver::Mode;
use xdata_sql::parse_query;

fn main() {
    println!("Baseline comparison: [14]'s input-db-only approach vs this paper (cf. §VI-C.1)");
    println!("schema without foreign keys (the old algorithm did not handle them)");
    println!(
        "{:>6} | {:>12} {:>10} {:>10} | {:>12} {:>10} {:>10}",
        "#Joins", "old time", "old #ds", "old kill", "new time", "new #ds", "new kill"
    );
    println!("{}", "-".repeat(84));

    let input = university::sample_data(5);
    let mopts = MutationOptions { include_full: false, include_extensions: false, tree_limit: 20_000 };

    for joins in 1..=6usize {
        let k = joins + 1;
        let schema = chain_schema(k, 0);
        let sql = chain_sql(k);
        let q = normalize(&parse_query(&sql).unwrap(), &schema).unwrap();
        let space = mutation_space(&q, mopts);

        // Old algorithm ([14]).
        let t = Instant::now();
        let old_suite = baseline_generate(&q, &schema, &input);
        let old_time = t.elapsed();
        let old_report = kill_report(&q, &space, &old_suite.data(), &schema).unwrap();

        // This paper's algorithm.
        let domains = DomainCatalog::defaults(&schema);
        let opts = GenOptions { mode: Mode::Unfold, input_db: None, jobs: 1, ..GenOptions::default() };
        let t = Instant::now();
        let new_suite = generate(&q, &schema, &domains, &opts).unwrap();
        let new_time = t.elapsed();
        let new_report = kill_report(&q, &space, &new_suite.data(), &schema).unwrap();

        println!(
            "{:>6} | {:>12} {:>10} {:>10} | {:>12} {:>10} {:>10}",
            joins,
            secs(old_time),
            old_suite.datasets.len(),
            format!("{}/{}", old_report.killed_count(), space.len()),
            secs(new_time),
            new_suite.datasets.len(),
            format!("{}/{}", new_report.killed_count(), space.len()),
        );
    }

    // Part 2: queries with selections and aggregates — where the old
    // approach misses kills ("was not always able to kill all non-equivalent
    // mutants, even without foreign keys", §VI-C.1): it has no synthetic
    // boundary values and no duplicate-engineering for aggregates.
    println!("\nQueries where input-db-only generation falls short:");
    println!(
        "{:>40} | {:>12} | {:>12}",
        "query", "old killed", "new killed"
    );
    println!("{}", "-".repeat(72));
    for (name, sql) in [
        (
            "join + boundary selection",
            "SELECT i.id FROM instructor i, teaches t \
             WHERE i.id = t.id AND i.salary > 61000",
        ),
        (
            "aggregate (DISTINCT killing)",
            "SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id",
        ),
        (
            "selection nobody satisfies",
            "SELECT id FROM instructor WHERE salary > 999000",
        ),
    ] {
        let schema = chain_schema(3, 0);
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        let space = mutation_space(&q, mopts);

        let old_suite = baseline_generate(&q, &schema, &input);
        let old_report = kill_report(&q, &space, &old_suite.data(), &schema).unwrap();

        let domains = DomainCatalog::defaults(&schema);
        let opts = GenOptions { mode: Mode::Unfold, input_db: None, jobs: 1, ..GenOptions::default() };
        let new_suite = generate(&q, &schema, &domains, &opts).unwrap();
        let new_report = kill_report(&q, &space, &new_suite.data(), &schema).unwrap();

        println!(
            "{:>40} | {:>12} | {:>12}",
            name,
            format!("{}/{}", old_report.killed_count(), space.len()),
            format!("{}/{}", new_report.killed_count(), space.len()),
        );
    }

    println!(
        "\nExpected shape (paper: old 0.20-0.34s flat; new 0.04-0.79s growing \
         with joins): the old algorithm is fast but misses kills whenever the \
         input database lacks the right witnesses — comparison-boundary \
         values, duplicate aggregate inputs, or any witness at all; the new \
         constraint-based algorithm synthesizes them."
    );
}
