//! Randomized tests for the executor, driven by a seeded [`SplitMix64`].
//!
//! Two oracles:
//!
//! 1. a *reference evaluator* — a direct transcription of SQL semantics
//!    (generate all occurrence-tuple combinations, apply all conditions
//!    under 3VL, project) valid for inner-join queries — run against the
//!    engine's tree execution on random datasets;
//! 2. *join-order invariance* — every tree enumerated by
//!    `xdata_relalg::enumerate` must produce the same result on every
//!    dataset (they are semantically equivalent by construction), which
//!    exercises join reordering, condition placement and merge logic at
//!    once.

use xdata_catalog::{university, Dataset, SplitMix64, Truth, Value};
use xdata_engine::{execute_query, execute_with_tree_strategy, JoinStrategy, ResultSet};
use xdata_relalg::enumerate::enumerate_trees;
use xdata_relalg::{normalize, NormQuery, Operand, SelectSpec};
use xdata_sql::parse_query;

/// Reference evaluation for inner-join queries: cross product + filter.
fn reference_eval(q: &NormQuery, db: &Dataset, schema: &xdata_catalog::Schema) -> ResultSet {
    let pools: Vec<&[xdata_catalog::Tuple]> = q
        .occurrences
        .iter()
        .map(|o| db.relation(&o.base).unwrap_or(&[]))
        .collect();
    let offsets: Vec<usize> = {
        let mut off = Vec::new();
        let mut total = 0;
        for o in &q.occurrences {
            off.push(total);
            total += schema.relation(&o.base).unwrap().arity();
        }
        off
    };
    let mut rows = Vec::new();
    let mut idx = vec![0usize; pools.len()];
    if pools.iter().any(|p| p.is_empty()) {
        return ResultSet::new(rows);
    }
    'outer: loop {
        // Build the combined row.
        let mut row: Vec<Value> = Vec::new();
        for (i, p) in pools.iter().enumerate() {
            row.extend(p[idx[i]].iter().cloned());
        }
        // All equivalence classes and predicates must hold (3VL: TRUE).
        let value = |occ: usize, col: usize| -> &Value { &row[offsets[occ] + col] };
        let mut ok = true;
        for ec in &q.eq_classes {
            for w in ec.windows(2) {
                if value(w[0].occ, w[0].col).sql_eq(value(w[1].occ, w[1].col)) != Truth::True {
                    ok = false;
                }
            }
        }
        for p in &q.preds {
            let get = |o: &Operand| -> Value {
                match o {
                    Operand::Const(v) => v.clone(),
                    Operand::Attr { attr, offset } => {
                        let v = value(attr.occ, attr.col);
                        match (v, offset) {
                            (Value::Int(i), k) => Value::Int(i + k),
                            (Value::Null, _) => Value::Null,
                            (v, 0) => v.clone(),
                            (Value::Double(d), k) => Value::Double(d + *k as f64),
                            _ => Value::Null,
                        }
                    }
                }
            };
            let l = get(&p.lhs);
            let r = get(&p.rhs);
            let holds = match l.sql_cmp(&r) {
                None => false,
                Some(ord) => match p.op {
                    xdata_sql::CompareOp::Eq => ord == std::cmp::Ordering::Equal,
                    xdata_sql::CompareOp::Ne => ord != std::cmp::Ordering::Equal,
                    xdata_sql::CompareOp::Lt => ord == std::cmp::Ordering::Less,
                    xdata_sql::CompareOp::Le => ord != std::cmp::Ordering::Greater,
                    xdata_sql::CompareOp::Gt => ord == std::cmp::Ordering::Greater,
                    xdata_sql::CompareOp::Ge => ord != std::cmp::Ordering::Less,
                },
            };
            if !holds {
                ok = false;
            }
        }
        if ok {
            match &q.select {
                SelectSpec::Star => rows.push(row.clone()),
                SelectSpec::Columns(cols) => {
                    rows.push(cols.iter().map(|c| row[offsets[c.occ] + c.col].clone()).collect())
                }
                SelectSpec::Aggregation { .. } => unreachable!("inner-join reference only"),
            }
        }
        // Odometer.
        let mut i = 0;
        loop {
            if i == pools.len() {
                break 'outer;
            }
            idx[i] += 1;
            if idx[i] < pools[i].len() {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
    ResultSet::new(rows)
}

/// Random tiny dataset over instructor/teaches/course — same shape and
/// primary-key dedup as the old proptest strategy.
fn random_db(rng: &mut SplitMix64) -> Dataset {
    let mut d = Dataset::new();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..rng.below(4) {
        let (id, dept, sal) = (rng.range_i64(0, 3), rng.range_i64(0, 2), rng.range_i64(0, 199));
        if seen.insert(("i", id, 0)) {
            d.push(
                "instructor",
                vec![Value::Int(id), Value::Str(format!("n{id}")), Value::Int(dept), Value::Int(sal)],
            );
        }
    }
    for _ in 0..rng.below(4) {
        let (id, cid) = (rng.range_i64(0, 3), rng.range_i64(0, 3));
        if seen.insert(("t", id, cid)) {
            d.push("teaches", vec![Value::Int(id), Value::Int(cid), Value::Int(1), Value::Int(2009)]);
        }
    }
    for _ in 0..rng.below(4) {
        let (cid, dept, cred) = (rng.range_i64(0, 3), rng.range_i64(0, 2), rng.range_i64(1, 4));
        if seen.insert(("c", cid, 0)) {
            d.push(
                "course",
                vec![Value::Int(cid), Value::Str(format!("c{cid}")), Value::Int(dept), Value::Int(cred)],
            );
        }
    }
    d
}

const QUERIES: [&str; 5] = [
    "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
    "SELECT i.name, c.title FROM instructor i, teaches t, course c \
     WHERE i.id = t.id AND t.course_id = c.course_id",
    "SELECT i.id FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50",
    "SELECT t.id FROM teaches t, course c WHERE t.course_id = c.course_id + 1",
    "SELECT i.id FROM instructor i, teaches t WHERE i.id <> t.id",
];

#[test]
fn engine_matches_reference() {
    let schema = university::schema_with_fk_count(0);
    let mut rng = SplitMix64::new(0xe9e1);
    for case in 0..128 {
        let db = random_db(&mut rng);
        let sql = QUERIES[rng.below(QUERIES.len())];
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        let engine = execute_query(&q, &db, &schema).unwrap();
        let reference = reference_eval(&q, &db, &schema);
        assert_eq!(engine, reference, "case {case}: query {sql} db:\n{db}");
    }
}

#[test]
fn all_enumerated_trees_agree() {
    let schema = university::schema_with_fk_count(0);
    let mut rng = SplitMix64::new(0xe9e2);
    for case in 0..128 {
        let db = random_db(&mut rng);
        let sql = QUERIES[rng.below(QUERIES.len())];
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        let baseline = execute_query(&q, &db, &schema).unwrap();
        for tree in enumerate_trees(&q, 1000) {
            let r = execute_with_tree_strategy(&q, &tree, &db, &schema, JoinStrategy::Hash)
                .unwrap();
            assert_eq!(
                r,
                baseline,
                "case {case}: tree {} disagrees on query {sql}",
                tree.display_with(&q.occurrences.iter().map(|o| o.name.clone()).collect::<Vec<_>>()),
            );
        }
    }
}
