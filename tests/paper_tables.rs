//! The paper's Tables I and II, pinned: every row committed in
//! `results/table1.txt` and `results/table2.txt` is re-run through
//! generate → mutation space (the paper's options: no full outer joins, no
//! extension classes) → kill report, and its counts must match the file.
//! The kill report skips executing the join mutants it certifies
//! equivalent; every row runs each of them anyway and requires it to equal
//! the original on every dataset of its suite, and every join survivor of
//! every row must carry a certificate.

use xdata::catalog::Schema;
use xdata::engine::execute_query;
use xdata::engine::kill::{certify_on_suite, execute_mutant};
use xdata::relalg::Mutant;
use xdata_bench::{
    chain_schema, chain_sql, evaluate, table1_points, table2_schema, Evaluation, TABLE2_QUERIES,
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

/// Execute every certified mutant of `e` on every suite dataset and
/// require the original's result, and require a certificate on every join
/// survivor.
fn check_certificates(e: &Evaluation, schema: &Schema, row: &str) {
    let data = e.suite.data();
    let certs = certify_on_suite(&e.query, &e.space, &data, schema);
    let mutants: Vec<Mutant> = e.space.iter().collect();
    for (mi, cert) in certs.iter().enumerate() {
        let Some(cert) = cert else { continue };
        let why = cert.describe(&e.query, schema);
        for db in &data {
            let original = execute_query(&e.query, db, schema).unwrap();
            let mutated = execute_mutant(&e.query, &mutants[mi], db, schema).unwrap();
            assert!(
                original == mutated,
                "{row}: certified mutant {} ({why}) differs on `{}`",
                mutants[mi].describe(&e.query),
                db.label
            );
        }
    }
    let uncertified =
        e.report.surviving().filter(|&mi| mi < e.space.join.len() && certs[mi].is_none()).count();
    assert_eq!(uncertified, 0, "{row}: uncertified join survivors");
}

#[test]
fn table1_rows_reproduce() {
    let rows = rows(TABLE1);
    let points: Vec<(usize, usize)> = rows.iter().map(|r| (num(&r[1]), num(&r[2]))).collect();
    assert_eq!(points, table1_points(), "results/table1.txt rows vs the FK sweep");
    for r in &rows {
        let (joins, fks) = (num(&r[1]), num(&r[2]));
        let schema = chain_schema(joins + 1, fks);
        let e = evaluate(&chain_sql(joins + 1), &schema, 20_000);
        let got = e.row();
        assert_eq!(
            (got.datasets, got.killed, got.killed_raw),
            (num(&r[3]), num(&r[4]), num(&r[5])),
            "Table I, {joins} joins, {fks} FKs: (datasets, killed, killed raw)"
        );
        check_certificates(&e, &schema, &format!("Table I, {joins} joins, {fks} FKs"));
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
        let schema = table2_schema(joins);
        let e = evaluate(sql, &schema, 20_000);
        let got = e.row();
        assert_eq!(
            (got.datasets, got.killed),
            (num(&r[4]), num(&r[5])),
            "Table II, query {id}: (datasets, killed)"
        );
        check_certificates(&e, &schema, &format!("Table II, query {id}"));
    }
}
