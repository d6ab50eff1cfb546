//! Reimplementation of the earlier approach of reference \[14\] (the ICDE
//! 2010 short paper), used as the comparison baseline in §VI-C.1.
//!
//! The old algorithm worked from an input database only: it found tuples
//! witnessing the original query's join result and emitted, per relation
//! occurrence, a dataset in which that relation is emptied while the other
//! relations keep their witness tuples (the "empty relation in E" trick of
//! §IV-B). It did **not** synthesize values with a constraint solver, did
//! not handle foreign keys, and therefore "was not always able to kill all
//! non-equivalent mutants, even without foreign keys" (§VI-C.1) — e.g. it
//! has no comparison-boundary or aggregate-duplicate datasets.

use xdata_catalog::{Dataset, Schema, Truth, Tuple, Value};
use xdata_relalg::{NormQuery, Operand, Pred};

use crate::suite::{GeneratedDataset, TestSuite};

/// Generate the baseline test suite from an input database. Returns an
/// empty suite when the input database contains no witness for the query
/// result — the failure mode the paper describes.
pub fn baseline_generate(query: &NormQuery, schema: &Schema, input: &Dataset) -> TestSuite {
    let mut suite = TestSuite::default();
    let Some(witness) = find_witness(query, schema, input) else {
        return suite;
    };
    // Original-query dataset: the witness tuples themselves.
    let mut original = Dataset::with_label("baseline: original query witness");
    for (occ, t) in witness.iter().enumerate() {
        original.push(&query.occurrences[occ].base, t.clone());
    }
    original.dedup_primary_keys(schema);
    suite.datasets.push(GeneratedDataset {
        dataset: original,
        label: "baseline: original query witness".into(),
    });
    // Per occurrence: empty that relation, keep the rest.
    for skip in 0..query.occurrences.len() {
        let label = format!("baseline: empty {}", query.occurrences[skip].name);
        let mut ds = Dataset::with_label(label.clone());
        ds.ensure_relation(&query.occurrences[skip].base);
        for (occ, t) in witness.iter().enumerate() {
            if occ != skip {
                ds.push(&query.occurrences[occ].base, t.clone());
            }
        }
        ds.dedup_primary_keys(schema);
        suite.datasets.push(GeneratedDataset { dataset: ds, label });
    }
    suite
}

/// Find one tuple per occurrence from `input` satisfying all equivalence
/// classes and predicates (backtracking with early pruning).
fn find_witness(query: &NormQuery, schema: &Schema, input: &Dataset) -> Option<Vec<Tuple>> {
    let n = query.occurrences.len();
    let pools: Vec<&[Tuple]> = query
        .occurrences
        .iter()
        .map(|o| input.relation(&o.base).unwrap_or(&[]))
        .collect();
    if pools.iter().any(|p| p.is_empty()) {
        return None;
    }
    let _ = schema;
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    if search(query, &pools, &mut chosen) {
        Some(chosen.iter().enumerate().map(|(occ, &i)| pools[occ][i].clone()).collect())
    } else {
        None
    }
}

fn search(query: &NormQuery, pools: &[&[Tuple]], chosen: &mut Vec<usize>) -> bool {
    let occ = chosen.len();
    if occ == pools.len() {
        return true;
    }
    for i in 0..pools[occ].len() {
        chosen.push(i);
        if consistent(query, pools, chosen) && search(query, pools, chosen) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// Check all conditions whose occurrences are all ≤ the chosen prefix.
fn consistent(query: &NormQuery, pools: &[&[Tuple]], chosen: &[usize]) -> bool {
    let have = chosen.len();
    let value = |occ: usize, col: usize| -> &Value { &pools[occ][chosen[occ]][col] };
    for ec in &query.eq_classes {
        let present: Vec<_> = ec.iter().filter(|a| a.occ < have).collect();
        for w in present.windows(2) {
            let a = value(w[0].occ, w[0].col);
            let b = value(w[1].occ, w[1].col);
            if a.sql_eq(b) != Truth::True {
                return false;
            }
        }
    }
    for p in &query.preds {
        if p.occurrences().iter().any(|&o| o >= have) {
            continue;
        }
        if !eval_pred(p, pools, chosen) {
            return false;
        }
    }
    true
}

fn eval_pred(p: &Pred, pools: &[&[Tuple]], chosen: &[usize]) -> bool {
    let operand = |o: &Operand| -> Value {
        match o {
            Operand::Const(v) => v.clone(),
            Operand::Attr { attr, offset } => {
                let v = &pools[attr.occ][chosen[attr.occ]][attr.col];
                if *offset == 0 {
                    v.clone()
                } else {
                    match v {
                        Value::Int(i) => Value::Int(i + offset),
                        Value::Double(d) => Value::Double(d + *offset as f64),
                        _ => Value::Null,
                    }
                }
            }
        }
    };
    let l = operand(&p.lhs);
    let r = operand(&p.rhs);
    l.sql_cmp(&r).is_some_and(|ord| p.op.holds(ord))
}
