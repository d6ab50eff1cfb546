//! Join-tree execution.
//!
//! Rows flow through the tree as full-width vectors with one slot group per
//! relation occurrence; positions owned by occurrences not (yet) joined —
//! or NULL-extended by an outer join — hold `Value::Null`. Each subtree
//! reports which occurrences it owns, so merging two sides is a disjoint
//! copy and NULL-extension falls out naturally.

use std::collections::HashMap;

use xdata_catalog::{Dataset, Schema, Truth, Value};
use xdata_relalg::{AttrRef, NormQuery, Operand, Pred, SelectSpec};
use xdata_relalg::tree::JoinTree;
use xdata_sql::{CompareOp, JoinKind};

use crate::agg::aggregate;
use crate::error::EngineError;
use crate::result::ResultSet;

/// Physical join algorithm used at every `Node` of the join tree.
///
/// Both strategies produce byte-identical [`ResultSet`]s — the hash path
/// replays the nested-loop emission order exactly, which matters because
/// float aggregation downstream is accumulation-order sensitive. The
/// nested-loop path is kept only as the test oracle (as DPLL is for the
/// solver): the CLI and `serve` always hash, and `tests/join_parity.rs`
/// runs the whole tier-1 corpus through both and asserts identical
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Build a hash index on the smaller input of each equality join node
    /// and probe with the larger — the default. Nodes without a usable
    /// equality condition (cross joins, pure inequality joins) fall back to
    /// nested loops per node and count `engine.hash_join.fallback_nodes`.
    #[default]
    Hash,
    /// The original quadratic nested-loop join, unconditionally.
    NestedLoop,
}

/// Column layout: occurrence → base offset into the flat row.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    pub offsets: Vec<usize>,
    pub total: usize,
}

impl Layout {
    pub(crate) fn new(q: &NormQuery, schema: &Schema) -> Result<Layout, EngineError> {
        let mut offsets = Vec::with_capacity(q.occurrences.len());
        let mut total = 0usize;
        for occ in &q.occurrences {
            let rel = schema
                .relation(&occ.base)
                .ok_or_else(|| EngineError::UnknownRelation(occ.base.clone()))?;
            offsets.push(total);
            total += rel.arity();
        }
        Ok(Layout { offsets, total })
    }

    pub(crate) fn pos(&self, a: AttrRef) -> usize {
        self.offsets[a.occ] + a.col
    }
}

type Row = Vec<Value>;

/// Execute the query with its own tree (hash-join strategy).
pub fn execute_query(
    q: &NormQuery,
    db: &Dataset,
    schema: &Schema,
) -> Result<ResultSet, EngineError> {
    execute_with_tree(q, &q.tree, db, schema)
}

/// Execute the query with a replacement join tree (join-type mutants).
pub fn execute_with_tree(
    q: &NormQuery,
    tree: &JoinTree,
    db: &Dataset,
    schema: &Schema,
) -> Result<ResultSet, EngineError> {
    execute_with_tree_strategy(q, tree, db, schema, JoinStrategy::default())
}

/// [`execute_query`] with an explicit [`JoinStrategy`].
pub fn execute_query_strategy(
    q: &NormQuery,
    db: &Dataset,
    schema: &Schema,
    strategy: JoinStrategy,
) -> Result<ResultSet, EngineError> {
    execute_with_tree_strategy(q, &q.tree, db, schema, strategy)
}

/// [`execute_with_tree`] with an explicit [`JoinStrategy`].
pub fn execute_with_tree_strategy(
    q: &NormQuery,
    tree: &JoinTree,
    db: &Dataset,
    schema: &Schema,
    strategy: JoinStrategy,
) -> Result<ResultSet, EngineError> {
    let layout = Layout::new(q, schema)?;
    let (rows, _) = eval_tree(tree, q, db, schema, &layout, strategy)?;
    // Retained subqueries, LIKE patterns and NULL checks apply to the full
    // joined row, after the tree and before projection — they may reference
    // attributes of any occurrence.
    let rows = crate::extended::filter_extended(q, rows, db, schema, &layout, strategy)?;
    project(q, rows, &layout)
}

fn eval_tree(
    tree: &JoinTree,
    q: &NormQuery,
    db: &Dataset,
    schema: &Schema,
    layout: &Layout,
    strategy: JoinStrategy,
) -> Result<(Vec<Row>, u64), EngineError> {
    match tree {
        JoinTree::Leaf(occ) => {
            let base = &q.occurrences[*occ].base;
            let rel = schema
                .relation(base)
                .ok_or_else(|| EngineError::UnknownRelation(base.clone()))?;
            let tuples = db.relation(base).unwrap_or(&[]);
            let mut rows = Vec::with_capacity(tuples.len());
            // Selections on this occurrence apply at the leaf (§II:
            // selections are pushed to the individual relations).
            let sels: Vec<&Pred> = q
                .preds
                .iter()
                .filter(|p| p.is_selection() && p.occurrences() == vec![*occ])
                .collect();
            for t in tuples {
                if t.len() != rel.arity() {
                    return Err(EngineError::ArityMismatch {
                        relation: base.clone(),
                        expected: rel.arity(),
                        got: t.len(),
                    });
                }
                let mut row = vec![Value::Null; layout.total];
                row[layout.offsets[*occ]..layout.offsets[*occ] + t.len()].clone_from_slice(t);
                if sels.iter().all(|p| eval_pred(p, &row, layout).is_true()) {
                    rows.push(row);
                }
            }
            Ok((rows, 1u64 << occ))
        }
        JoinTree::Node { kind, left, right, conds } => {
            let (lrows, lmask) = eval_tree(left, q, db, schema, layout, strategy)?;
            let (rrows, rmask) = eval_tree(right, q, db, schema, layout, strategy)?;
            let out = match strategy {
                JoinStrategy::NestedLoop => {
                    join_nested(*kind, &lrows, &rrows, lmask, rmask, conds, layout)
                }
                JoinStrategy::Hash => {
                    let keys = equi_key_conds(conds, lmask, rmask);
                    if keys.is_empty() {
                        xdata_obs::counter("engine.hash_join.fallback_nodes", 1);
                        join_nested(*kind, &lrows, &rrows, lmask, rmask, conds, layout)
                    } else {
                        join_hash(*kind, &lrows, &rrows, lmask, rmask, conds, &keys, layout)
                    }
                }
            };
            Ok((out, lmask | rmask))
        }
    }
}

/// The quadratic baseline: every (left, right) pair is merged and tested.
fn join_nested(
    kind: JoinKind,
    lrows: &[Row],
    rrows: &[Row],
    lmask: u64,
    rmask: u64,
    conds: &[Pred],
    layout: &Layout,
) -> Vec<Row> {
    let mut out = Vec::new();
    let mut rmatched = vec![false; rrows.len()];
    for l in lrows {
        let mut lmatch = false;
        for (ri, r) in rrows.iter().enumerate() {
            let merged = merge(l, r, lmask, rmask, layout);
            if conds.iter().all(|c| eval_pred(c, &merged, layout).is_true()) {
                out.push(merged);
                lmatch = true;
                rmatched[ri] = true;
            }
        }
        if !lmatch && matches!(kind, JoinKind::Left | JoinKind::Full) {
            out.push(l.clone()); // right side stays NULL
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, r) in rrows.iter().enumerate() {
            if !rmatched[ri] {
                out.push(r.clone()); // left side stays NULL
            }
        }
    }
    out
}

/// One component of a hash-join key. Numerics are keyed by their widened
/// f64 bit pattern because [`Value::sql_cmp`] declares `Int(1)` equal to
/// `Double(1.0)`: equal values always land in the same bucket, and the rare
/// false bucket-mate (two huge `i64`s collapsing to one f64) is weeded out
/// by re-evaluating the join conditions on the merged row.
#[derive(PartialEq, Eq, Hash)]
pub(crate) enum KeyPart {
    Num(u64),
    Str(String),
}

/// Key component for `v`, or `None` for NULL — a NULL join key matches
/// nothing under three-valued logic, so NULL-keyed build rows are not
/// indexed and NULL-keyed probe rows skip the lookup entirely.
pub(crate) fn key_part(v: Value) -> Option<KeyPart> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(KeyPart::Num((i as f64).to_bits())),
        Value::Double(d) => Some(KeyPart::Num(d.to_bits())),
        Value::Str(s) => Some(KeyPart::Str(s)),
    }
}

/// Equality conditions usable as hash keys, oriented as (left-side operand,
/// right-side operand). Only attribute-vs-attribute equalities across the
/// two sides qualify; constant-offset operands are fine (the offset is
/// applied when the key is extracted).
fn equi_key_conds(conds: &[Pred], lmask: u64, rmask: u64) -> Vec<(&Operand, &Operand)> {
    fn side(o: &Operand) -> Option<u64> {
        match o {
            Operand::Attr { attr, .. } => Some(1u64 << attr.occ),
            Operand::Const(_) => None,
        }
    }
    conds
        .iter()
        .filter(|c| c.op == CompareOp::Eq)
        .filter_map(|c| {
            let ls = side(&c.lhs)?;
            let rs = side(&c.rhs)?;
            if ls & lmask != 0 && rs & rmask != 0 {
                Some((&c.lhs, &c.rhs))
            } else if ls & rmask != 0 && rs & lmask != 0 {
                Some((&c.rhs, &c.lhs))
            } else {
                None
            }
        })
        .collect()
}

/// Hash join: index the smaller side on its key columns, probe with the
/// larger, then emit matches in the exact order [`join_nested`] would have
/// produced them (left-major, right index ascending, NULL-extensions
/// interleaved) so results stay byte-identical between strategies.
#[allow(clippy::too_many_arguments)]
fn join_hash(
    kind: JoinKind,
    lrows: &[Row],
    rrows: &[Row],
    lmask: u64,
    rmask: u64,
    conds: &[Pred],
    keys: &[(&Operand, &Operand)],
    layout: &Layout,
) -> Vec<Row> {
    xdata_obs::counter("engine.hash_join.nodes", 1);
    let build_left = lrows.len() < rrows.len();
    let (build, probe) = if build_left { (lrows, rrows) } else { (rrows, lrows) };
    xdata_obs::counter("engine.hash_join.build_rows", build.len() as u64);
    xdata_obs::counter("engine.hash_join.probe_rows", probe.len() as u64);

    let extract = |row: &Row, of_left: bool| -> Option<Vec<KeyPart>> {
        keys.iter()
            .map(|(lop, rop)| {
                let op = if of_left { lop } else { rop };
                key_part(operand_value(op, row, layout))
            })
            .collect()
    };
    let mut index: HashMap<Vec<KeyPart>, Vec<usize>> = HashMap::new();
    for (bi, b) in build.iter().enumerate() {
        if let Some(key) = extract(b, build_left) {
            index.entry(key).or_default().push(bi);
        }
    }
    // Probe, collecting matches as (li, ri, merged row). The hash key is a
    // bucket filter, not the equality test: every condition — key
    // equalities included — is re-evaluated on the merged row, which also
    // handles residual non-equality conditions on the same node.
    let mut matches: Vec<(usize, usize, Row)> = Vec::new();
    for (pi, p) in probe.iter().enumerate() {
        let Some(bucket) = extract(p, !build_left).and_then(|key| index.get(&key)) else {
            continue;
        };
        for &bi in bucket {
            let (li, ri) = if build_left { (bi, pi) } else { (pi, bi) };
            let merged = merge(&lrows[li], &rrows[ri], lmask, rmask, layout);
            if conds.iter().all(|c| eval_pred(c, &merged, layout).is_true()) {
                matches.push((li, ri, merged));
            }
        }
    }
    // Probing the left side yields matches already in nested-loop order;
    // probing the right yields them right-major and they must be reordered.
    if build_left {
        matches.sort_unstable_by_key(|m| (m.0, m.1));
    }
    let mut out = Vec::with_capacity(matches.len());
    let mut rmatched = vec![false; rrows.len()];
    let mut mi = 0;
    for (li, l) in lrows.iter().enumerate() {
        let mut lmatch = false;
        while mi < matches.len() && matches[mi].0 == li {
            rmatched[matches[mi].1] = true;
            out.push(std::mem::take(&mut matches[mi].2));
            lmatch = true;
            mi += 1;
        }
        if !lmatch && matches!(kind, JoinKind::Left | JoinKind::Full) {
            out.push(l.clone()); // right side stays NULL
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, r) in rrows.iter().enumerate() {
            if !rmatched[ri] {
                out.push(r.clone()); // left side stays NULL
            }
        }
    }
    out
}

fn merge(l: &Row, r: &Row, lmask: u64, rmask: u64, layout: &Layout) -> Row {
    debug_assert_eq!(lmask & rmask, 0, "join sides own disjoint occurrences");
    let mut row = l.clone();
    let mut m = rmask;
    while m != 0 {
        let occ = m.trailing_zeros() as usize;
        m &= m - 1;
        let start = layout.offsets[occ];
        let end = if occ + 1 < layout.offsets.len() { layout.offsets[occ + 1] } else { layout.total };
        row[start..end].clone_from_slice(&r[start..end]);
    }
    row
}

pub(crate) fn operand_value(o: &Operand, row: &Row, layout: &Layout) -> Value {
    match o {
        Operand::Const(v) => v.clone(),
        Operand::Attr { attr, offset } => {
            let v = &row[layout.pos(*attr)];
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
}

pub(crate) fn eval_pred(p: &Pred, row: &Row, layout: &Layout) -> Truth {
    let l = operand_value(&p.lhs, row, layout);
    let r = operand_value(&p.rhs, row, layout);
    cmp_truth(&l, p.op, &r)
}

/// Three-valued comparison: `Unknown` when either side is NULL.
pub(crate) fn cmp_truth(l: &Value, op: CompareOp, r: &Value) -> Truth {
    match l.sql_cmp(r) {
        None => Truth::Unknown,
        Some(ord) => {
            let b = match op {
                CompareOp::Eq => ord == std::cmp::Ordering::Equal,
                CompareOp::Ne => ord != std::cmp::Ordering::Equal,
                CompareOp::Lt => ord == std::cmp::Ordering::Less,
                CompareOp::Le => ord != std::cmp::Ordering::Greater,
                CompareOp::Gt => ord == std::cmp::Ordering::Greater,
                CompareOp::Ge => ord != std::cmp::Ordering::Less,
            };
            Truth::from_bool(b)
        }
    }
}

fn project(q: &NormQuery, rows: Vec<Row>, layout: &Layout) -> Result<ResultSet, EngineError> {
    let result = match &q.select {
        SelectSpec::Star => ResultSet::new(rows),
        SelectSpec::Columns(cols) => {
            let out = rows
                .into_iter()
                .map(|r| cols.iter().map(|c| r[layout.pos(*c)].clone()).collect())
                .collect();
            ResultSet::new(out)
        }
        SelectSpec::Aggregation { group_by, aggs, having } => {
            aggregate(q, rows, group_by, aggs, having, layout)?
        }
    };
    if q.distinct {
        // SELECT DISTINCT: set semantics on the projected rows (NULLs
        // compare equal for duplicate elimination, as in SQL).
        let mut rows = result.rows().to_vec();
        rows.dedup(); // rows() is sorted
        return Ok(ResultSet::new(rows));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata_catalog::university;
    use xdata_relalg::normalize;
    use xdata_sql::parse_query;

    fn run(sql: &str, db: &Dataset) -> ResultSet {
        let schema = university::schema();
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        execute_query(&q, db, &schema).unwrap()
    }

    fn db() -> Dataset {
        // Two instructors; only #10 teaches.
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(10), Value::Str("Wu".into()), Value::Int(1), Value::Int(60000)]);
        d.push("instructor", vec![Value::Int(11), Value::Str("Mozart".into()), Value::Int(2), Value::Int(40000)]);
        d.push("teaches", vec![Value::Int(10), Value::Int(100), Value::Int(1), Value::Int(2009)]);
        d
    }

    #[test]
    fn inner_join_matches_only() {
        let r = run("SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id", &db());
        assert_eq!(r.rows(), &[vec![Value::Str("Wu".into())]]);
    }

    #[test]
    fn left_outer_join_null_extends() {
        let r = run(
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id",
            &db(),
        );
        assert_eq!(r.len(), 2);
        assert!(r
            .rows()
            .iter()
            .any(|row| row == &vec![Value::Str("Mozart".into()), Value::Null]));
    }

    #[test]
    fn right_outer_join_symmetric() {
        let mut d = db();
        // A teaches row with no instructor (FK violated on purpose — the
        // engine does not enforce constraints, the generator does).
        d.push("teaches", vec![Value::Int(99), Value::Int(101), Value::Int(1), Value::Int(2009)]);
        let r = run(
            "SELECT i.name, t.course_id FROM instructor i RIGHT OUTER JOIN teaches t \
             ON i.id = t.id",
            &d,
        );
        assert_eq!(r.len(), 2);
        assert!(r.rows().iter().any(|row| row == &vec![Value::Null, Value::Int(101)]));
    }

    #[test]
    fn full_outer_join_extends_both() {
        let mut d = db();
        d.push("teaches", vec![Value::Int(99), Value::Int(101), Value::Int(1), Value::Int(2009)]);
        let r = run(
            "SELECT i.name, t.course_id FROM instructor i FULL OUTER JOIN teaches t \
             ON i.id = t.id",
            &d,
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn selection_pushed_to_leaf_affects_outer_join() {
        // σ filters instructor before the outer join: Mozart's row is gone
        // entirely rather than NULL-extended.
        let r = run(
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id WHERE i.salary > 50000",
            &db(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Value::Str("Wu".into()));
    }

    #[test]
    fn null_condition_is_not_true() {
        // teaches row joined against NULL-extended side: condition Unknown.
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(1)]);
        let r = run(
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id",
            &d,
        );
        assert_eq!(r.rows(), &[vec![Value::Str("A".into()), Value::Null]]);
    }

    #[test]
    fn bag_semantics_preserves_duplicates() {
        let mut d = db();
        // Second teaches row for the same instructor — two joined rows.
        d.push("teaches", vec![Value::Int(10), Value::Int(101), Value::Int(1), Value::Int(2009)]);
        let r = run("SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id", &d);
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0], r.rows()[1]);
    }

    #[test]
    fn nonequi_join_with_offset() {
        let mut d = Dataset::new();
        d.push("teaches", vec![Value::Int(1), Value::Int(110), Value::Int(1), Value::Int(2009)]);
        d.push("course", vec![Value::Int(100), Value::Str("X".into()), Value::Int(1), Value::Int(3)]);
        let r = run(
            "SELECT t.id FROM teaches t, course c WHERE t.course_id = c.course_id + 10",
            &d,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn star_projects_all_columns_in_from_order() {
        let r = run("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", &db());
        assert_eq!(r.rows()[0].len(), 8); // 4 + 4 columns
        assert_eq!(r.rows()[0][0], Value::Int(10));
        assert_eq!(r.rows()[0][4], Value::Int(10));
    }

    #[test]
    fn missing_relation_treated_as_empty() {
        let d = Dataset::new();
        let r = run("SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id", &d);
        assert!(r.is_empty());
    }

    #[test]
    fn string_selection() {
        let r = run("SELECT id FROM instructor WHERE name = 'Mozart'", &db());
        assert_eq!(r.rows(), &[vec![Value::Int(11)]]);
    }
}
