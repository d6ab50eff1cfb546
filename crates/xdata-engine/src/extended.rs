//! Extended-predicate evaluation: retained `[NOT] IN` / `[NOT] EXISTS`
//! subqueries, `[NOT] LIKE` patterns and `IS [NOT] NULL` checks.
//!
//! These apply to the fully joined row (they may reference attributes from
//! any occurrence), so [`filter_extended`] runs after the join tree and
//! before projection. Semantics:
//!
//! * **`EXISTS`** is two-valued — `TRUE` iff some subquery tuple satisfies
//!   every condition, else `FALSE`, never `Unknown`.
//! * **`IN`** follows SQL's membership three-valued logic: `TRUE` when a
//!   qualifying tuple's linked column equals the outer operand (both
//!   non-NULL), `Unknown` when no tuple matches but some qualifying tuple
//!   makes the equality `Unknown` (a NULL on either side), else `FALSE` —
//!   in particular `x IN (empty)` is `FALSE` even for NULL `x`.
//! * **`LIKE`** on NULL is `Unknown`; on a string it is a plain boolean
//!   match ([`LikePattern`], the same matcher the solver's string
//!   constraints use — one implementation, no drift).
//! * **`IS [NOT] NULL`** is always two-valued.
//!
//! `NOT` variants negate with Kleene logic; a row survives only when every
//! predicate is definitely true.
//!
//! A subquery predicate takes its candidate tuples from the join loop's
//! [`Candidates`] index: under [`JoinStrategy::Hash`], its equality
//! conditions hash the subquery relation (one of at most one tuple is
//! listed) and an outer row tries one bucket; predicates with no equality
//! condition, and every predicate under [`JoinStrategy::NestedLoop`], list
//! every tuple (the hash fallback counts `engine.subquery.fallback_preds`).
//! Every condition is re-checked on each candidate, so both strategies
//! return identical truth values.

use xdata_catalog::{Dataset, Schema, Truth, Value};
use xdata_relalg::{NormQuery, SubPred, SubqueryKind};
use xdata_solver::LikePattern;
use xdata_sql::CompareOp;

use crate::error::EngineError;
use crate::exec::{cmp_truth, key, operand_value, Candidates, JoinStrategy, Layout};

type Row = Vec<Value>;

/// Filter `rows` through the query's subquery, LIKE and NULL-check
/// predicates. A no-op (and no cost) when the query has none.
pub(crate) fn filter_extended(
    q: &NormQuery,
    rows: Vec<Row>,
    db: &Dataset,
    schema: &Schema,
    layout: &Layout,
    strategy: JoinStrategy,
) -> Result<Vec<Row>, EngineError> {
    if q.subs.is_empty() && q.likes.is_empty() && q.null_checks.is_empty() {
        return Ok(rows);
    }
    let likes: Vec<LikePattern> =
        q.likes.iter().map(|l| LikePattern::parse(&l.pattern)).collect();
    let subs: Vec<PreparedSub> = q
        .subs
        .iter()
        .map(|s| PreparedSub::new(s, db, schema, strategy))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::with_capacity(rows.len());
    'row: for row in rows {
        for n in &q.null_checks {
            let is_null = matches!(row[layout.pos(n.attr)], Value::Null);
            // IS NULL keeps NULLs; IS NOT NULL keeps non-NULLs.
            if is_null == n.negated {
                continue 'row;
            }
        }
        for (pat, l) in likes.iter().zip(&q.likes) {
            let t = match &row[layout.pos(l.attr)] {
                Value::Null => Truth::Unknown,
                Value::Str(s) => Truth::from_bool(pat.matches(s)),
                // Normalization rejects LIKE on non-string attributes; a
                // non-string value here can only be ill-typed data.
                _ => Truth::Unknown,
            };
            if !(if l.negated { !t } else { t }).is_true() {
                continue 'row;
            }
        }
        for s in &subs {
            if !s.eval(&row, layout).is_true() {
                continue 'row;
            }
        }
        out.push(row);
    }
    Ok(out)
}

/// One subquery predicate readied for repeated per-row evaluation: the
/// subquery relation's tuples and their candidate index.
struct PreparedSub<'a> {
    sub: &'a SubPred,
    tuples: &'a [Row],
    /// Indices into `sub.conds` of the equality conditions that key a
    /// hashed `index`.
    key_conds: Vec<usize>,
    index: Candidates,
}

impl<'a> PreparedSub<'a> {
    fn new(
        sub: &'a SubPred,
        db: &'a Dataset,
        schema: &Schema,
        strategy: JoinStrategy,
    ) -> Result<PreparedSub<'a>, EngineError> {
        let rel = schema
            .relation(&sub.base)
            .ok_or_else(|| EngineError::UnknownRelation(sub.base.clone()))?;
        let tuples = db.relation(&sub.base).unwrap_or(&[]);
        for t in tuples {
            if t.len() != rel.arity() {
                return Err(EngineError::ArityMismatch {
                    relation: sub.base.clone(),
                    expected: rel.arity(),
                    got: t.len(),
                });
            }
        }
        let key_conds: Vec<usize> = sub
            .conds
            .iter()
            .enumerate()
            .filter(|(_, c)| c.op == CompareOp::Eq)
            .map(|(i, _)| i)
            .collect();
        let index = match strategy {
            JoinStrategy::Hash if !key_conds.is_empty() => {
                xdata_obs::counter("engine.subquery.hash_preds", 1);
                let cols = |t: &Row| key(key_conds.iter().map(|&ci| t[sub.conds[ci].col].clone()));
                Candidates::hashed(tuples.iter().map(cols))
            }
            JoinStrategy::Hash => {
                xdata_obs::counter("engine.subquery.fallback_preds", 1);
                Candidates::all(tuples.len())
            }
            JoinStrategy::NestedLoop => Candidates::all(tuples.len()),
        };
        Ok(PreparedSub { sub, tuples, key_conds, index })
    }

    /// Whether subquery tuple `ti` satisfies every condition for this row.
    fn conds_true(&self, ti: usize, row: &Row, layout: &Layout) -> bool {
        let t = &self.tuples[ti];
        self.sub.conds.iter().all(|c| {
            let r = operand_value(&c.rhs, row, layout);
            cmp_truth(&t[c.col], c.op, &r).is_true()
        })
    }

    /// The predicate's truth value for one outer row.
    fn eval(&self, row: &Row, layout: &Layout) -> Truth {
        xdata_obs::counter("engine.subquery.probe_rows", 1);
        let outer = |&ci: &usize| operand_value(&self.sub.conds[ci].rhs, row, layout);
        let idxs = self.index.get(|| key(self.key_conds.iter().map(outer)));
        let core = match (self.sub.kind, &self.sub.link) {
            (SubqueryKind::In, Some((link, col))) => {
                let x = operand_value(link, row, layout);
                let mut truth = Truth::False;
                for &ti in idxs {
                    if !self.conds_true(ti, row, layout) {
                        continue;
                    }
                    match cmp_truth(&x, CompareOp::Eq, &self.tuples[ti][*col]) {
                        Truth::True => {
                            truth = Truth::True;
                            break;
                        }
                        Truth::Unknown => truth = Truth::Unknown,
                        Truth::False => {}
                    }
                }
                truth
            }
            // EXISTS ignores any link a connective mutant left behind; an
            // unlinked IN cannot be constructed (mutation keeps the link),
            // so degrade it to EXISTS semantics rather than panic.
            (SubqueryKind::Exists, _) | (SubqueryKind::In, None) => {
                Truth::from_bool(idxs.iter().any(|&ti| self.conds_true(ti, row, layout)))
            }
        };
        if self.sub.negated {
            !core
        } else {
            core
        }
    }
}

#[cfg(test)]
mod tests {
    use xdata_catalog::{university, Dataset, Value};
    use xdata_relalg::normalize;
    use xdata_sql::parse_query;

    use crate::exec::{execute_query_strategy, JoinStrategy};
    use crate::result::ResultSet;

    fn run_strategy(sql: &str, db: &Dataset, strategy: JoinStrategy) -> ResultSet {
        let schema = university::schema();
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        execute_query_strategy(&q, db, &schema, strategy).unwrap()
    }

    /// Run under both strategies, assert identical results, return one.
    fn run(sql: &str, db: &Dataset) -> ResultSet {
        let h = run_strategy(sql, db, JoinStrategy::Hash);
        let n = run_strategy(sql, db, JoinStrategy::NestedLoop);
        assert_eq!(h, n, "hash/nested-loop disagree on {sql}");
        h
    }

    fn db() -> Dataset {
        // Two instructors; only #10 teaches.
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(10), Value::Str("Wu".into()), Value::Int(1), Value::Int(60000)]);
        d.push("instructor", vec![Value::Int(11), Value::Str("Mozart".into()), Value::Int(2), Value::Int(40000)]);
        d.push("teaches", vec![Value::Int(10), Value::Int(100), Value::Int(1), Value::Int(2009)]);
        d
    }

    fn names(r: &ResultSet) -> Vec<String> {
        r.rows()
            .iter()
            .map(|row| match &row[0] {
                Value::Str(s) => s.clone(),
                v => format!("{v:?}"),
            })
            .collect()
    }

    #[test]
    fn in_subquery_membership() {
        let r = run(
            "SELECT i.name FROM instructor i WHERE i.id IN (SELECT t.id FROM teaches t)",
            &db(),
        );
        assert_eq!(names(&r), ["Wu"]);
    }

    #[test]
    fn not_in_excludes_members() {
        let r = run(
            "SELECT i.name FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t)",
            &db(),
        );
        assert_eq!(names(&r), ["Mozart"]);
    }

    /// SQL's NOT IN trap: a NULL in the subquery column makes membership
    /// Unknown for every non-member, so NOT IN returns nothing.
    #[test]
    fn not_in_with_null_member_is_empty() {
        let mut d = db();
        d.push("teaches", vec![Value::Null, Value::Int(101), Value::Int(1), Value::Int(2009)]);
        let r = run(
            "SELECT i.name FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t)",
            &d,
        );
        assert!(r.is_empty());
        // Positive IN is unaffected: Wu still matches definitely.
        let r = run(
            "SELECT i.name FROM instructor i WHERE i.id IN (SELECT t.id FROM teaches t)",
            &d,
        );
        assert_eq!(names(&r), ["Wu"]);
    }

    /// `x IN (empty set)` is FALSE — not Unknown — so NOT IN keeps the row.
    #[test]
    fn in_empty_set_is_false() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(1)]);
        let r = run(
            "SELECT i.name FROM instructor i WHERE i.id NOT IN (SELECT t.id FROM teaches t)",
            &d,
        );
        assert_eq!(names(&r), ["A"]);
    }

    #[test]
    fn exists_and_not_exists_correlated() {
        let r = run(
            "SELECT i.name FROM instructor i \
             WHERE EXISTS (SELECT t.id FROM teaches t WHERE t.id = i.id)",
            &db(),
        );
        assert_eq!(names(&r), ["Wu"]);
        let r = run(
            "SELECT i.name FROM instructor i \
             WHERE NOT EXISTS (SELECT t.id FROM teaches t WHERE t.id = i.id)",
            &db(),
        );
        assert_eq!(names(&r), ["Mozart"]);
    }

    /// EXISTS is two-valued: a NULL-keyed subquery tuple never qualifies
    /// (its condition is Unknown), and NOT EXISTS stays definitely true.
    #[test]
    fn exists_two_valued_under_null() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(1)]);
        d.push("teaches", vec![Value::Null, Value::Int(100), Value::Int(1), Value::Int(2009)]);
        let r = run(
            "SELECT i.name FROM instructor i \
             WHERE NOT EXISTS (SELECT t.id FROM teaches t WHERE t.id = i.id)",
            &d,
        );
        assert_eq!(names(&r), ["A"]);
    }

    /// A one-tuple subquery relation is listed rather than hashed. Its NULL
    /// key fails the re-check of the key condition, just as it would miss
    /// every bucket, so IN and NOT EXISTS answer as the nested loop does.
    #[test]
    fn one_tuple_null_key_subquery_matches_nested_loop() {
        let mut d = Dataset::new();
        d.push(
            "instructor",
            vec![Value::Int(10), Value::Str("Wu".into()), Value::Int(1), Value::Int(60000)],
        );
        d.push(
            "instructor",
            vec![Value::Int(11), Value::Str("Mozart".into()), Value::Int(2), Value::Int(40000)],
        );
        d.push("teaches", vec![Value::Int(10), Value::Null, Value::Int(1), Value::Int(2009)]);
        let r = run(
            "SELECT i.name FROM instructor i \
             WHERE i.id IN (SELECT t.id FROM teaches t WHERE t.course_id = i.dept_id)",
            &d,
        );
        assert!(r.is_empty());
        let r = run(
            "SELECT i.name FROM instructor i \
             WHERE NOT EXISTS (SELECT t.id FROM teaches t WHERE t.course_id = i.dept_id)",
            &d,
        );
        assert_eq!(names(&r), ["Mozart", "Wu"]); // rows() is sorted
    }

    /// Subquery conditions with non-equality operators have no hash key and
    /// take the scan fallback under the hash strategy — same answers.
    #[test]
    fn non_equality_subquery_condition_falls_back() {
        let r = run(
            "SELECT i.name FROM instructor i \
             WHERE EXISTS (SELECT t.id FROM teaches t WHERE t.year > i.salary)",
            &db(),
        );
        assert!(r.is_empty()); // 2009 > 40000/60000 never holds
        let r = run(
            "SELECT i.name FROM instructor i \
             WHERE EXISTS (SELECT t.id FROM teaches t WHERE t.year < i.salary)",
            &db(),
        );
        assert_eq!(names(&r), ["Mozart", "Wu"]); // rows() is sorted
    }

    #[test]
    fn like_and_not_like() {
        let r = run("SELECT i.name FROM instructor i WHERE i.name LIKE 'W%'", &db());
        assert_eq!(names(&r), ["Wu"]);
        let r = run("SELECT i.name FROM instructor i WHERE i.name NOT LIKE 'W%'", &db());
        assert_eq!(names(&r), ["Mozart"]);
    }

    /// LIKE on NULL is Unknown: the row qualifies under neither polarity.
    #[test]
    fn like_on_null_is_unknown() {
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Null, Value::Int(1), Value::Int(1)]);
        let r = run("SELECT i.id FROM instructor i WHERE i.name LIKE '%'", &d);
        assert!(r.is_empty());
        let r = run("SELECT i.id FROM instructor i WHERE i.name NOT LIKE '%'", &d);
        assert!(r.is_empty());
    }

    #[test]
    fn is_null_and_is_not_null() {
        let mut d = db();
        d.push("instructor", vec![Value::Int(12), Value::Null, Value::Int(1), Value::Int(1)]);
        let r = run("SELECT i.id FROM instructor i WHERE i.name IS NULL", &d);
        assert_eq!(r.rows(), &[vec![Value::Int(12)]]);
        let r = run("SELECT i.id FROM instructor i WHERE i.name IS NOT NULL", &d);
        assert_eq!(r.len(), 2);
    }

    /// Extended predicates compose with joins: they filter the full joined
    /// row after the tree.
    #[test]
    fn subquery_composes_with_join() {
        let mut d = db();
        d.push("department", vec![Value::Int(1), Value::Str("CS".into()), Value::Str("T".into()), Value::Int(500)]);
        d.push("department", vec![Value::Int(2), Value::Str("Music".into()), Value::Str("P".into()), Value::Int(100)]);
        let r = run(
            "SELECT i.name FROM instructor i, department d \
             WHERE i.dept_id = d.dept_id \
             AND EXISTS (SELECT t.id FROM teaches t WHERE t.id = i.id)",
            &d,
        );
        assert_eq!(names(&r), ["Wu"]);
    }
}
