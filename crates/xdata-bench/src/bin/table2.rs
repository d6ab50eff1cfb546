//! Regenerates **Table II** of the paper: queries mixing selections,
//! aggregations and joins (queries 7–12 of §VI-C.2), with generation times
//! in milliseconds (median of five runs each).
//!
//! ```sh
//! cargo run -p xdata-bench --release --bin table2
//! ```

use xdata_bench::{evaluate_query, generate_time, ms, table2_schema, TABLE2_QUERIES};
use xdata_solver::Mode;

fn main() {
    println!("Table II: results for queries with selection/aggregation (cf. paper §VI-C.2)");
    println!(
        "{:>5} {:>6} {:>5} {:>4} {:>10} {:>8} {:>18} {:>16}",
        "Query",
        "#Joins",
        "#Sel",
        "#Agg",
        "#Datasets",
        "#Killed",
        "t w/o unfold (ms)",
        "t unfolded (ms)"
    );
    println!("{}", "-".repeat(79));
    for (id, joins, sels, aggs, sql) in TABLE2_QUERIES {
        // The paper: "queries involving joins contained exactly one foreign
        // key"; join-free queries run on the FK-free schema.
        let schema = table2_schema(joins);
        let row = evaluate_query(sql, &schema, 20_000);
        println!(
            "{:>5} {:>6} {:>5} {:>4} {:>10} {:>8} {:>18.3} {:>16.3}",
            id,
            joins,
            sels,
            aggs,
            row.datasets,
            row.killed,
            ms(generate_time(sql, &schema, Mode::Lazy)),
            ms(generate_time(sql, &schema, Mode::Unfold)),
        );
    }
    println!(
        "\nNotes: comparison-operator datasets are 3 per selection conjunct \
         (`=`, `<`, `>`); aggregate datasets 1 per aggregate (Algorithm 4); \
         killed counts cover join + comparison + aggregate mutants under \
         canonical-form dedup. Expected shape: aggregation queries take \
         longest without unfolding (3 tuple sets per relation, §VI-C.2), and \
         unfolding recovers most of the time."
    );
}
