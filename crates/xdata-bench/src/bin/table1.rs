//! Regenerates **Table I** of the paper: inner-join queries with 1–6 joins
//! (2–7 relations), sweeping the number of foreign keys, reporting datasets
//! generated, mutants killed, and generation time without/with quantifier
//! unfolding (median of five runs each, in milliseconds). Also writes the
//! table plus an aggregate pipeline metrics report to
//! `results/BENCH_table1.json`.
//!
//! ```sh
//! cargo run -p xdata-bench --release --bin table1
//! ```

use xdata_bench::{
    build_json_line, chain_schema, chain_sql, evaluate_query, generate_time, indent_json, ms,
    table1_points, write_trace_artifact,
};
use xdata_solver::Mode;

/// Tree enumeration cap for mutant counting: the space is exponential;
/// beyond this we sample, as the paper did for 5+ relation queries.
const TREE_LIMIT: usize = 20_000;

fn main() {
    println!("Table I: results for inner join queries (cf. paper §VI-C.1)");
    println!(
        "{:>5} {:>8} {:>4} {:>10} {:>8} {:>9} {:>18} {:>16}",
        "Query",
        "#Joins",
        "#FK",
        "#Datasets",
        "#Killed",
        "#KillRaw",
        "t w/o unfold (ms)",
        "t unfolded (ms)"
    );
    println!("{}", "-".repeat(85));
    // Aggregate solver/pipeline metrics across the whole table run (both
    // modes, every FK point, timing repeats included) — embedded in the
    // JSON artifact below.
    xdata_obs::install();
    xdata_obs::preseed();
    let mut json_rows: Vec<String> = Vec::new();
    for (joins, n_fks) in table1_points() {
        let k = joins + 1; // relations
        let (sql, schema) = (chain_sql(k), chain_schema(k, n_fks));
        let row = evaluate_query(&sql, &schema, TREE_LIMIT);
        let lazy_ms = ms(generate_time(&sql, &schema, Mode::Lazy));
        let unfold_ms = ms(generate_time(&sql, &schema, Mode::Unfold));
        println!(
            "{:>5} {:>8} {:>4} {:>10} {:>8} {:>9} {:>18.3} {:>16.3}",
            joins,
            format!("{joins} ({k})"),
            n_fks,
            row.datasets,
            row.killed,
            row.killed_raw,
            lazy_ms,
            unfold_ms,
        );
        json_rows.push(format!(
            "{{\"joins\": {joins}, \"relations\": {k}, \"fks\": {n_fks}, \
             \"datasets\": {}, \"killed\": {}, \"killed_raw\": {}, \
             \"lazy_ms\": {lazy_ms:.3}, \"unfold_ms\": {unfold_ms:.3}}}",
            row.datasets, row.killed, row.killed_raw,
        ));
    }

    // Hand-rolled JSON artifact: the workspace deliberately has no serde.
    let metrics = xdata_obs::take_report().expect("recorder installed").to_json();
    let mut json = String::from("{\n");
    json.push_str(&build_json_line());
    json.push_str(&format!("  \"tree_limit\": {TREE_LIMIT},\n"));
    json.push_str("  \"workload\": \"Table I chain queries, FK sweep, lazy+unfold\",\n");
    json.push_str("  \"rows\": [\n");
    for (i, r) in json_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {r}{}\n",
            if i + 1 == json_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"metrics\": {}\n", indent_json(&metrics, "  ")));
    json.push_str("}\n");
    let out = std::path::Path::new("results/BENCH_table1.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(out, &json).expect("write BENCH_table1.json");
    println!("\nwrote {}", out.display());

    // Event-timeline artifact: re-run one representative mid-size query
    // under the journal, as a separate pass so tracing never touches the
    // timed sweep above.
    write_trace_artifact(out, || {
        let schema = chain_schema(3, 0);
        evaluate_query(&chain_sql(3), &schema, TREE_LIMIT);
    });

    println!(
        "\nNotes: dataset counts exclude the original-query dataset (as in the \
         paper). Mutant counts use canonical-form dedup over enumerated join \
         trees (limit {TREE_LIMIT}), full-outer mutations excluded (as in the \
         paper's evaluation). Expected shape: more FKs => fewer datasets & \
         kills; unfolding dramatically faster than lazy instantiation."
    );
}
