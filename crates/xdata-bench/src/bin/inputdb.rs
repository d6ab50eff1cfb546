//! Regenerates the **§VI-C.3 input-database experiment**: the 4-relation
//! no-foreign-key join query with generated tuples forced to come from an
//! input database of 5 and 9 tuples per relation.
//!
//! ```sh
//! cargo run -p xdata-bench --release --bin inputdb
//! ```

use std::time::Instant;

use xdata_bench::{chain_schema, chain_sql, secs};
use xdata_catalog::{university, DomainCatalog};
use xdata_core::{generate, GenOptions};
use xdata_relalg::normalize;
use xdata_solver::Mode;
use xdata_sql::parse_query;

fn main() {
    let schema = chain_schema(5, 0); // 4 joins, 0 FKs — the paper's setup
    let sql = chain_sql(5);
    let q = normalize(&parse_query(&sql).unwrap(), &schema).unwrap();

    println!("Input-database experiment (cf. paper §VI-C.3)");
    println!("query: 4 joins (5 relations), no foreign keys, unfolded quantifiers");
    println!("{:>22} {:>12} {:>10}", "input DB size", "total time", "#datasets");
    println!("{}", "-".repeat(48));

    // Reference point: synthetic generation, no input database.
    {
        let domains = DomainCatalog::defaults(&schema);
        let opts = GenOptions { mode: Mode::Unfold, input_db: None, jobs: 1, ..GenOptions::default() };
        let t = Instant::now();
        let suite = generate(&q, &schema, &domains, &opts).unwrap();
        println!(
            "{:>22} {:>12} {:>10}",
            "none (synthetic)",
            secs(t.elapsed()),
            suite.datasets.len()
        );
    }

    for n in [5usize, 9] {
        let input = university::sample_data(n);
        let domains = DomainCatalog::from_dataset(&schema, &input);
        let opts = GenOptions {
            mode: Mode::Unfold,
            input_db: Some(input),
            jobs: 1,
            ..GenOptions::default()
        };
        let t = Instant::now();
        let suite = generate(&q, &schema, &domains, &opts).unwrap();
        println!(
            "{:>22} {:>12} {:>10}",
            format!("{n} tuples/relation"),
            secs(t.elapsed()),
            suite.datasets.len()
        );
    }

    println!(
        "\nExpected shape (paper: 0.279s -> 0.652s -> 1.124s): forcing tuples \
         from the input database adds per-slot disjunctions over the input \
         tuples, so time grows with input size."
    );
}
