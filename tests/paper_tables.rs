//! The paper's Tables I and II, pinned: every row committed in
//! `results/table1.txt` and `results/table2.txt` is re-run through
//! generate → mutation space (the paper's options: no full outer joins, no
//! extension classes) → kill report, and its counts must match the file.

use xdata_bench::{
    chain_schema, chain_sql, evaluate_query, table1_points, table2_schema, TABLE2_QUERIES,
};

const TABLE1: &str = include_str!("../results/table1.txt");
const TABLE2: &str = include_str!("../results/table2.txt");

/// The numeric cells of a table's data rows (lines that start with a
/// number), split on whitespace with the `(k)` relation-count cell
/// dropped.
fn rows(table: &str) -> Vec<Vec<String>> {
    table
        .lines()
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| l.split_whitespace().filter(|c| !c.starts_with('(')).map(String::from).collect())
        .collect()
}

fn num(cell: &str) -> usize {
    cell.parse().unwrap_or_else(|_| panic!("not a count: {cell}"))
}

#[test]
fn table1_rows_reproduce() {
    let rows = rows(TABLE1);
    let points: Vec<(usize, usize)> = rows.iter().map(|r| (num(&r[1]), num(&r[2]))).collect();
    assert_eq!(points, table1_points(), "results/table1.txt rows vs the FK sweep");
    for r in &rows {
        let (joins, fks) = (num(&r[1]), num(&r[2]));
        let got = evaluate_query(&chain_sql(joins + 1), &chain_schema(joins + 1, fks), 20_000);
        assert_eq!(
            (got.datasets, got.killed, got.killed_raw),
            (num(&r[3]), num(&r[4]), num(&r[5])),
            "Table I, {joins} joins, {fks} FKs: (datasets, killed, killed raw)"
        );
    }
}

#[test]
fn table2_rows_reproduce() {
    let rows = rows(TABLE2);
    assert_eq!(rows.len(), TABLE2_QUERIES.len());
    for (r, (id, joins, sels, aggs, sql)) in rows.iter().zip(TABLE2_QUERIES) {
        assert_eq!(
            (num(&r[0]), num(&r[1]), num(&r[2]), num(&r[3])),
            (id, joins, sels, aggs),
            "results/table2.txt row vs query {id}"
        );
        let got = evaluate_query(sql, &table2_schema(joins), 20_000);
        assert_eq!(
            (got.datasets, got.killed),
            (num(&r[4]), num(&r[5])),
            "Table II, query {id}: (datasets, killed)"
        );
    }
}
