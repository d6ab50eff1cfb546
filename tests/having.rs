//! Constrained aggregation (HAVING) end to end — the extension of the
//! paper's class (§II excludes it; §VII names it as future work).

use xdata::catalog::{university, Dataset, Value};
use xdata::engine::execute_query;
use xdata::relalg::mutation::MutationOptions;
use xdata::relalg::{normalize, Mutant};
use xdata::sql::parse_query;
use xdata::XData;

fn db() -> Dataset {
    let mut d = Dataset::new();
    for (id, dept, sal) in [(1, 1, 10), (2, 1, 20), (3, 1, 30), (4, 2, 40), (5, 2, 40)] {
        d.push(
            "instructor",
            vec![Value::Int(id), Value::Str(format!("i{id}")), Value::Int(dept), Value::Int(sal)],
        );
    }
    d
}

#[test]
fn engine_having_count_filters_groups() {
    let schema = university::schema_with_fk_count(0);
    let q = normalize(
        &parse_query(
            "SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id HAVING COUNT(*) > 2",
        )
        .unwrap(),
        &schema,
    )
    .unwrap();
    let r = execute_query(&q, &db(), &schema).unwrap();
    assert_eq!(r.rows(), &[vec![Value::Int(1), Value::Int(3)]]);
}

#[test]
fn engine_having_min_max_sum_avg() {
    let schema = university::schema_with_fk_count(0);
    let cases = [
        ("HAVING MIN(salary) >= 20", vec![2i64]),  // dept 2 (min 40)
        ("HAVING MAX(salary) < 35", vec![1]),      // dept 1 (max 30)
        ("HAVING SUM(salary) = 80", vec![2]),      // dept 2 (40+40)
        ("HAVING AVG(salary) = 20", vec![1]),      // dept 1 (avg 20)
        ("HAVING COUNT(DISTINCT salary) = 1", vec![2]), // dept 2: {40}
    ];
    for (hav, expect) in cases {
        let q = normalize(
            &parse_query(&format!(
                "SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id {hav}"
            ))
            .unwrap(),
            &schema,
        )
        .unwrap();
        let r = execute_query(&q, &db(), &schema).unwrap();
        let depts: Vec<i64> = r.rows().iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(depts, expect, "{hav}");
    }
}

#[test]
fn having_original_dataset_is_nonempty() {
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    for sql in [
        "SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id HAVING COUNT(*) > 2",
        "SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id HAVING SUM(salary) >= 50",
        "SELECT dept_id, MIN(salary) FROM instructor GROUP BY dept_id HAVING MIN(salary) = 7",
        "SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id \
         HAVING COUNT(*) = 2 AND AVG(salary) > 10",
        // A constant outside the column's default domain widens it.
        "SELECT dept_id, MIN(salary) FROM instructor GROUP BY dept_id \
         HAVING MIN(salary) > 5000 AND COUNT(*) >= 2",
    ] {
        let run = xdata.generate_for(sql).unwrap();
        let orig = run
            .suite
            .datasets
            .iter()
            .find(|d| d.label.contains("original"))
            .unwrap_or_else(|| panic!("no original dataset for {sql}:\n{}", run.suite));
        let r = execute_query(&run.query, &orig.dataset, &schema).unwrap();
        assert!(!r.is_empty(), "{sql}:\n{}", orig.dataset);
        assert!(orig.dataset.integrity_violations(&schema).is_empty());
    }
}

#[test]
fn having_comparison_mutants_killed() {
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    let (run, space, report) = xdata
        .evaluate(
            "SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id HAVING COUNT(*) > 2",
            MutationOptions::default(),
        )
        .unwrap();
    assert_eq!(space.having_cmp.len(), 5);
    let mutants: Vec<Mutant> = space.iter().collect();
    let surviving: Vec<String> = report
        .surviving()
        .map(|i| mutants[i].describe(&run.query))
        .filter(|d| d.contains("having"))
        .collect();
    assert!(surviving.is_empty(), "surviving having mutants: {surviving:?}\n{}", run.suite);
}

#[test]
fn having_min_comparison_mutants_killed() {
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    for sql in [
        "SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id HAVING MIN(salary) >= 15",
        // 5000 lies outside salary's default domain.
        "SELECT dept_id, MIN(salary) FROM instructor GROUP BY dept_id \
         HAVING MIN(salary) > 5000 AND COUNT(*) >= 2",
    ] {
        let (run, space, report) = xdata.evaluate(sql, MutationOptions::default()).unwrap();
        let mutants: Vec<Mutant> = space.iter().collect();
        let surviving: Vec<String> = report
            .surviving()
            .map(|i| mutants[i].describe(&run.query))
            .filter(|d| d.contains("having comparison"))
            .collect();
        assert!(surviving.is_empty(), "{sql}: surviving {surviving:?}\n{}", run.suite);
    }
}

#[test]
fn infeasible_having_yields_no_datasets() {
    // COUNT(*) < 1 can never hold for a visible group.
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    let run = xdata
        .generate_for(
            "SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id HAVING COUNT(*) < 1",
        )
        .unwrap();
    assert!(
        run.suite.datasets.iter().all(|d| !d.label.contains("original")),
        "{}",
        run.suite
    );
    assert!(!run.suite.skipped.is_empty());
}

#[test]
fn having_aggregate_mutants_mostly_killed() {
    // HAVING SUM(salary) >= 50: mutants replacing SUM by COUNT/MIN/MAX...
    // are killable via the boundary datasets (SUM lands on 50 exactly,
    // while COUNT of the group is small and MIN/MAX differ from the sum).
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    let (run, space, report) = xdata
        .evaluate(
            "SELECT dept_id, COUNT(*) FROM instructor GROUP BY dept_id \
             HAVING SUM(salary) >= 50",
            MutationOptions::default(),
        )
        .unwrap();
    assert_eq!(space.having_agg.len(), 7);
    let mutants: Vec<Mutant> = space.iter().collect();
    let killed_having_agg = mutants
        .iter()
        .enumerate()
        .filter(|(i, m)| {
            matches!(m, Mutant::HavingAgg(_)) && report.killed_by[*i].is_some()
        })
        .count();
    // Best-effort (the paper offers no guarantee at all here): at least
    // the duplicate-sensitive and scale-sensitive operators must die.
    assert!(killed_having_agg >= 4, "killed {} of 7:\n{}", killed_having_agg, run.suite);
}
