//! Lowering of `[NOT] IN (SELECT ...)` / `[NOT] EXISTS (SELECT ...)`
//! conjuncts into retained [`SubPred`] descriptors (§V-H: "Simple
//! subqueries which can be decorrelated into joins can be handled by
//! decorrelating the query and then applying our algorithms").
//!
//! Earlier revisions rewrote positive `IN` into an actual join merge; that
//! rewrite destroys the structure the subquery-connective mutation family
//! needs (`IN` ↔ `EXISTS` ↔ `NOT`-variants swap a *connective*, not a join
//! kind), so the subquery is now kept as a first-class predicate and the
//! solver lowers it with the same bounded quantifiers it already uses for
//! foreign keys and NOT-EXISTS targets. The accepted shape is the exactly
//! lowerable class:
//!
//! * the subquery reads a **single base relation** (no joins),
//! * without aggregation, GROUP BY, HAVING or further nesting,
//! * every WHERE conjunct links one subquery column to an *outer* operand
//!   (attribute or constant) — the correlated case — or compares it to a
//!   constant,
//! * `IN` additionally selects exactly one plain column.
//!
//! Duplicate-safety needs no primary-key side condition any more:
//! membership semantics are evaluated as membership, never as a join.

use xdata_catalog::SqlType;
use xdata_sql::{ColRef, CompareOp, Expr, FromItem, Query, SelectItem};

use crate::error::RelAlgError;
use crate::ir::{Operand, SubCond, SubPred, SubqueryKind};
use crate::normalize::{check_cmp_types, Scope};

/// Lower every `[NOT] IN` and `[NOT] EXISTS` conjunct of `query` into a
/// [`SubPred`]. Outer columns resolve through `outer`.
pub(crate) fn lower_subqueries(
    query: &Query,
    outer: &Scope<'_>,
) -> Result<Vec<SubPred>, RelAlgError> {
    let mut out = Vec::new();
    for inp in &query.where_in {
        out.push(lower_one(
            SubqueryKind::In,
            inp.negated,
            Some(&inp.lhs),
            &inp.subquery,
            outer,
        )?);
    }
    for exp in &query.where_exists {
        out.push(lower_one(SubqueryKind::Exists, exp.negated, None, &exp.subquery, outer)?);
    }
    Ok(out)
}

/// One side of a subquery condition, classified by scope.
enum Side {
    /// A column of the subquery relation (inner scope shadows outer).
    Sub { col: usize, offset: i64 },
    /// An outer-query operand.
    Outer(Operand, Option<SqlType>),
}

fn lower_one(
    kind: SubqueryKind,
    negated: bool,
    link_lhs: Option<&Expr>,
    sub: &Query,
    outer: &Scope<'_>,
) -> Result<SubPred, RelAlgError> {
    let conn = SubPred::connective_name((kind, negated));
    // Shape: a single base relation, conjunctive WHERE, nothing else.
    if !sub.group_by.is_empty() || sub.has_aggregates() || !sub.having.is_empty() {
        return Err(RelAlgError::Unsupported(format!(
            "{conn} over an aggregated subquery"
        )));
    }
    if !sub.where_in.is_empty()
        || !sub.where_exists.is_empty()
        || !sub.where_like.is_empty()
        || !sub.where_null.is_empty()
    {
        return Err(RelAlgError::Unsupported(format!(
            "nested IN/EXISTS/LIKE/IS NULL inside a {conn} subquery"
        )));
    }
    let (table, alias) = match sub.from.as_slice() {
        [FromItem::Table { name, alias }] => (name.clone(), alias.clone()),
        _ => {
            return Err(RelAlgError::Unsupported(format!(
                "{conn} subquery must select from exactly one relation"
            )))
        }
    };
    let rel = outer
        .schema
        .relation(&table)
        .ok_or_else(|| RelAlgError::UnknownRelation(table.clone()))?;
    let binding = alias.unwrap_or_else(|| table.clone());

    // The membership link (IN only).
    let link = match (kind, link_lhs) {
        (SubqueryKind::In, Some(lhs)) => {
            let sel_col = match sub.select.as_slice() {
                [SelectItem::Column(c)] => {
                    if let Some(t) = &c.table {
                        if *t != binding {
                            return Err(RelAlgError::UnknownColumn(c.to_string()));
                        }
                    }
                    c.column.clone()
                }
                _ => {
                    return Err(RelAlgError::Unsupported(format!(
                        "{conn} subquery must select exactly one plain column"
                    )))
                }
            };
            let col = rel
                .attr_pos(&sel_col)
                .ok_or_else(|| RelAlgError::UnknownColumn(format!("{table}.{sel_col}")))?;
            let (l, lt) = outer.resolve_expr(lhs)?;
            check_cmp_types([lt, Some(rel.attr(col).ty)], &[&l], CompareOp::Eq)?;
            Some((l, col))
        }
        (SubqueryKind::Exists, None) => None,
        _ => unreachable!("link_lhs is Some iff kind is In"),
    };

    // Classify each conjunct side against the subquery relation's scope.
    let classify = |e: &Expr| -> Result<Side, RelAlgError> {
        let sub_col = |c: &ColRef| -> Option<usize> {
            match &c.table {
                Some(t) if *t == binding => rel.attr_pos(&c.column),
                Some(_) => None,
                None => rel.attr_pos(&c.column),
            }
        };
        match e {
            Expr::Column(c) => {
                if let Some(col) = sub_col(c) {
                    return Ok(Side::Sub { col, offset: 0 });
                }
            }
            Expr::ColumnPlus(c, k) => {
                if let Some(col) = sub_col(c) {
                    return Ok(Side::Sub { col, offset: *k });
                }
            }
            _ => {}
        }
        let (o, ty) = outer.resolve_expr(e)?;
        Ok(Side::Outer(o, ty))
    };

    let mut conds = Vec::new();
    for c in &sub.where_clause {
        let (l, r) = (classify(&c.lhs)?, classify(&c.rhs)?);
        let (col, offset, op, rhs, rty) = match (l, r) {
            (Side::Sub { col, offset }, Side::Outer(o, ty)) => (col, offset, c.op, o, ty),
            (Side::Outer(o, ty), Side::Sub { col, offset }) => {
                (col, offset, c.op.mirror(), o, ty)
            }
            (Side::Sub { .. }, Side::Sub { .. }) => {
                return Err(RelAlgError::Unsupported(format!(
                    "subquery-local join predicate inside a {conn} subquery \
                     (conditions must link one subquery column to an outer operand \
                     or constant)"
                )))
            }
            (Side::Outer(..), Side::Outer(..)) => {
                return Err(RelAlgError::Unsupported(format!(
                    "{conn} subquery condition references no subquery column"
                )))
            }
        };
        if offset != 0 {
            return Err(RelAlgError::Unsupported(format!(
                "arithmetic on a subquery column inside a {conn} subquery"
            )));
        }
        check_cmp_types([Some(rel.attr(col).ty), rty], &[&rhs], op)?;
        conds.push(SubCond { col, op, rhs });
    }

    Ok(SubPred { kind, negated, link, base: table, alias: binding, conds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize;
    use crate::NormQuery;
    use xdata_catalog::university;
    use xdata_sql::parse_query;

    fn norm(sql: &str) -> Result<NormQuery, RelAlgError> {
        normalize(&parse_query(sql).unwrap(), &university::schema_with_fk_count(0))
    }

    #[test]
    fn simple_in_is_retained() {
        let q = norm(
            "SELECT name FROM instructor WHERE id IN (SELECT i_id FROM advisor \
             WHERE s_id > 10)",
        )
        .unwrap();
        assert_eq!(q.subs.len(), 1);
        let s = &q.subs[0];
        assert_eq!(s.kind, SubqueryKind::In);
        assert!(!s.negated);
        assert_eq!(s.base, "advisor");
        assert!(s.link.is_some());
        assert_eq!(s.conds.len(), 1);
        // The outer query itself keeps one occurrence: the subquery is a
        // predicate, not a join merge.
        assert_eq!(q.occurrences.len(), 1);
    }

    #[test]
    fn non_pk_membership_column_accepted() {
        // The old join rewrite demanded a PK column for duplicate safety;
        // membership evaluation has no such constraint.
        let q = norm(
            "SELECT name FROM instructor WHERE dept_id IN (SELECT dept_id FROM student)",
        )
        .unwrap();
        assert_eq!(q.subs.len(), 1);
    }

    #[test]
    fn correlated_exists_resolves_outer_attr() {
        let q = norm(
            "SELECT i.name FROM instructor i WHERE EXISTS \
             (SELECT s_id FROM advisor a WHERE a.i_id = i.id)",
        )
        .unwrap();
        let s = &q.subs[0];
        assert_eq!(s.kind, SubqueryKind::Exists);
        assert_eq!(s.link, None);
        assert_eq!(s.conds.len(), 1);
        assert!(s.conds[0].rhs.attr_ref().is_some(), "correlated rhs is an outer attr");
    }

    #[test]
    fn negated_forms_parse_through() {
        let q = norm(
            "SELECT name FROM instructor WHERE id NOT IN (SELECT s_id FROM advisor)",
        )
        .unwrap();
        assert!(q.subs[0].negated);
        let q = norm(
            "SELECT i.name FROM instructor i WHERE NOT EXISTS \
             (SELECT s_id FROM advisor a WHERE a.s_id = i.id)",
        )
        .unwrap();
        assert!(q.subs[0].negated);
        assert_eq!(q.subs[0].kind, SubqueryKind::Exists);
    }

    #[test]
    fn flipped_condition_orientation_normalizes() {
        // `outer op sub` mirrors into `sub op' outer`.
        let q = norm(
            "SELECT i.name FROM instructor i WHERE EXISTS \
             (SELECT s_id FROM advisor a WHERE i.id < a.i_id)",
        )
        .unwrap();
        assert_eq!(q.subs[0].conds[0].op, CompareOp::Gt);
    }

    #[test]
    fn nested_subquery_rejected() {
        let e = norm(
            "SELECT name FROM instructor WHERE id IN (SELECT s_id FROM advisor \
             WHERE s_id IN (SELECT s_id FROM advisor))",
        )
        .unwrap_err();
        assert!(matches!(e, RelAlgError::Unsupported(_)), "{e}");
    }

    #[test]
    fn aggregated_subquery_rejected() {
        let e = norm(
            "SELECT name FROM instructor WHERE id IN \
             (SELECT s_id FROM advisor GROUP BY s_id)",
        );
        assert!(e.is_err());
    }

    #[test]
    fn multi_relation_subquery_rejected() {
        let e = norm(
            "SELECT name FROM instructor WHERE id IN \
             (SELECT s_id FROM advisor, student WHERE s_id = sid)",
        )
        .unwrap_err();
        assert!(matches!(e, RelAlgError::Unsupported(_)));
    }

    #[test]
    fn sub_local_join_condition_rejected() {
        let e = norm(
            "SELECT name FROM instructor WHERE id IN \
             (SELECT s_id FROM advisor WHERE s_id = i_id)",
        )
        .unwrap_err();
        assert!(matches!(e, RelAlgError::Unsupported(_)), "{e}");
    }

    #[test]
    fn type_mismatch_on_membership_rejected() {
        let e = norm(
            "SELECT name FROM instructor WHERE name IN (SELECT s_id FROM advisor)",
        )
        .unwrap_err();
        assert!(matches!(e, RelAlgError::TypeMismatch(_)), "{e}");
    }

    #[test]
    fn subquery_conditions_report_the_outer_where_errors() {
        // Outer columns in a subquery condition resolve through the same
        // scope as the outer WHERE, so both fail alike.
        let from = "SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id";
        let arith = "arithmetic on string column `i.name`";
        for (bad, expected) in [
            ("i.nope", RelAlgError::UnknownColumn("i.nope".into())),
            ("id", RelAlgError::AmbiguousColumn("id".into())),
            ("i.name + 1", RelAlgError::TypeMismatch(arith.into())),
        ] {
            let outer = norm(&format!("{from} AND {bad} = 1"));
            let sub = norm(&format!(
                "{from} AND EXISTS (SELECT s_id FROM advisor a WHERE a.i_id = {bad})"
            ));
            assert_eq!(outer.unwrap_err(), expected, "outer WHERE: {bad}");
            assert_eq!(sub.unwrap_err(), expected, "subquery condition: {bad}");
        }
    }

    #[test]
    fn queries_without_subqueries_have_empty_subs() {
        let q = norm("SELECT * FROM instructor WHERE salary > 10").unwrap();
        assert!(q.subs.is_empty());
    }
}
