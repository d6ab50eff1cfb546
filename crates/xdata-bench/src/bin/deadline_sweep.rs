//! Deadline sweep over the Table I workload: measures what per-target and
//! whole-suite wall-clock budgets cost — and what they buy — by running
//! generation with no deadline, a generous deadline (never fires: measures
//! pure plumbing overhead) and a tiny per-target deadline (fires on
//! essentially every target: measures how fast the pipeline can bail out).
//! Writes `results/BENCH_deadline.json`.
//!
//! ```sh
//! cargo run -p xdata-bench --release --bin deadline_sweep
//! ```

use xdata_bench::{
    build_json_line, chain_schema, chain_sql, median_time, ms, relevant_fk_count,
    write_trace_artifact,
};
use xdata_catalog::DomainCatalog;
use xdata_core::{generate, GenOptions};
use xdata_relalg::normalize;
use xdata_sql::parse_query;

struct SweepRow {
    joins: usize,
    fks: usize,
    targets: usize,
    /// No deadline at all (the pre-existing fast path).
    none_ms: f64,
    /// A deadline that never fires: the cost of the token plumbing.
    generous_ms: f64,
    /// 1 ms per target: the cost of bailing out of everything.
    tiny_ms: f64,
    /// Datasets the tiny-deadline run still completed in time.
    tiny_datasets: usize,
    /// Targets the tiny-deadline run timed out.
    tiny_timeouts: usize,
}

fn main() {
    let max_joins: usize = std::env::var("XDATA_MAX_JOINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    println!("deadline sweep over the Table I chain workload");
    println!(
        "{:>6} {:>4} {:>8} | {:>10} {:>11} {:>8} | {:>9} {:>9}",
        "#Joins", "#FK", "targets", "none ms", "generous ms", "tiny ms", "tiny done", "tiny t/o"
    );

    let mut rows = Vec::new();
    for joins in 2..=max_joins {
        let k = joins + 1;
        let fks = relevant_fk_count(k);
        let schema = chain_schema(k, fks);
        let q = normalize(&parse_query(&chain_sql(k)).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);

        let none = GenOptions::default();
        let generous = GenOptions {
            deadline_ms: Some(3_600_000),
            per_target_deadline_ms: Some(3_600_000),
            ..GenOptions::default()
        };
        let tiny = GenOptions { per_target_deadline_ms: Some(1), ..GenOptions::default() };

        // A never-firing deadline must not change the suite.
        let baseline = generate(&q, &schema, &domains, &none).expect("generation succeeds");
        let timed = generate(&q, &schema, &domains, &generous).expect("generation succeeds");
        assert_eq!(baseline.datasets.len(), timed.datasets.len());
        for (a, b) in baseline.datasets.iter().zip(&timed.datasets) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.dataset, b.dataset);
        }

        let tiny_suite = generate(&q, &schema, &domains, &tiny).expect("partial suite, not error");
        let tiny_timeouts = tiny_suite
            .skipped
            .iter()
            .filter(|s| s.reason == xdata_core::SkipReason::Timeout)
            .count();

        let none_ms = ms(median_time(1, 3, || {
            generate(&q, &schema, &domains, &none).unwrap();
        }));
        let generous_ms = ms(median_time(1, 3, || {
            generate(&q, &schema, &domains, &generous).unwrap();
        }));
        let tiny_ms = ms(median_time(1, 3, || {
            generate(&q, &schema, &domains, &tiny).unwrap();
        }));

        let targets = baseline.datasets.len() + baseline.skipped.len();
        println!(
            "{:>6} {:>4} {:>8} | {:>10.1} {:>11.1} {:>8.1} | {:>9} {:>9}",
            joins,
            fks,
            targets,
            none_ms,
            generous_ms,
            tiny_ms,
            tiny_suite.datasets.len(),
            tiny_timeouts,
        );
        rows.push(SweepRow {
            joins,
            fks,
            targets,
            none_ms,
            generous_ms,
            tiny_ms,
            tiny_datasets: tiny_suite.datasets.len(),
            tiny_timeouts,
        });
    }

    // Hand-rolled JSON: the workspace deliberately has no serde.
    let mut json = String::from("{\n");
    json.push_str(&build_json_line());
    json.push_str("  \"workload\": \"Table I chain queries, all relevant FKs\",\n");
    json.push_str(
        "  \"configs\": [\"no deadline\", \"3600s suite+target deadline (never fires)\", \
         \"1ms per-target deadline\"],\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"joins\": {}, \"fks\": {}, \"targets\": {}, \"none_ms\": {:.3}, \
             \"generous_ms\": {:.3}, \"tiny_ms\": {:.3}, \"tiny_datasets\": {}, \
             \"tiny_timeouts\": {}}}{}\n",
            r.joins,
            r.fks,
            r.targets,
            r.none_ms,
            r.generous_ms,
            r.tiny_ms,
            r.tiny_datasets,
            r.tiny_timeouts,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = std::path::Path::new("results/BENCH_deadline.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(out, &json).expect("write BENCH_deadline.json");
    println!(
        "\nwrote {} ({} rows); generous-deadline outputs verified identical to no-deadline",
        out.display(),
        rows.len()
    );

    // Event-timeline artifact: the tiny-deadline configuration journaled
    // in a separate pass — cancellation shows up as `core.target.skip`
    // instants with `Timeout` attribution.
    write_trace_artifact(out, || {
        let k = 3;
        let schema = chain_schema(k, relevant_fk_count(k));
        let q = normalize(&parse_query(&chain_sql(k)).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let tiny = GenOptions { per_target_deadline_ms: Some(1), ..GenOptions::default() };
        generate(&q, &schema, &domains, &tiny).expect("partial suite, not error");
    });
}
