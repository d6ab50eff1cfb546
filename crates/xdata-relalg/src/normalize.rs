//! Query normalization: parsed AST → [`NormQuery`].
//!
//! Implements the paper's preprocessing (§V-B):
//!
//! 1. give every relation occurrence a distinct name (bindings) while
//!    recording its base relation;
//! 2. build equivalence classes of attributes from plain equi-join
//!    conditions and drop those conditions from the predicate list;
//! 3. retain all other predicates (non-equi joins, selections);
//! 4. push selections down to the individual relations and join predicates
//!    to the earliest node where their relations meet (§II).
//!
//! Queries whose FROM clause is a plain relation list (only inner joins)
//! get a canonical left-deep tree re-annotated from the pooled conditions;
//! queries with explicit outer joins keep their ON conditions **at the
//! nodes where they were written** (equivalence-class pooling across an
//! outer-join boundary would change semantics: a representative swap can
//! turn a NULL-extended attribute into a base attribute).

use std::collections::BTreeMap;

use xdata_catalog::{Schema, SqlType, Value};
use xdata_sql::{ColRef, CompareOp, Expr, FromItem, JoinKind, Query, SelectItem};

use crate::error::RelAlgError;
use crate::ir::{AggSpec, AttrRef, NormQuery, Occurrence, Operand, Pred, SelectSpec};
use crate::tree::JoinTree;

/// Normalize a parsed query against `schema`. `[NOT] IN (SELECT ...)` and
/// `[NOT] EXISTS` conjuncts are lowered into retained subquery predicates
/// (§V-H); `[NOT] LIKE` and `IS [NOT] NULL` conjuncts into retained string
/// and null checks.
pub fn normalize(query: &Query, schema: &Schema) -> Result<NormQuery, RelAlgError> {
    let mut n = Normalizer::new(schema);
    n.run(query)
}

struct Normalizer<'a> {
    schema: &'a Schema,
    occurrences: Vec<Occurrence>,
    by_binding: BTreeMap<String, usize>,
}

/// Column resolution against a query's relation occurrences. The
/// normalizer resolves the main query's columns through it and the
/// subquery lowering the outer columns of a subquery condition, so both
/// report the same errors.
pub(crate) struct Scope<'a> {
    pub schema: &'a Schema,
    by_binding: &'a BTreeMap<String, usize>,
    occurrences: &'a [Occurrence],
}

impl Scope<'_> {
    pub fn resolve_colref(&self, c: &ColRef) -> Result<(AttrRef, SqlType), RelAlgError> {
        match &c.table {
            Some(t) => {
                let occ = *self
                    .by_binding
                    .get(t)
                    .ok_or_else(|| RelAlgError::UnknownRelation(t.clone()))?;
                let base = &self.occurrences[occ].base;
                let rel = self
                    .schema
                    .relation(base)
                    .ok_or_else(|| RelAlgError::UnknownRelation(base.clone()))?;
                let col = rel
                    .attr_pos(&c.column)
                    .ok_or_else(|| RelAlgError::UnknownColumn(c.to_string()))?;
                Ok((AttrRef::new(occ, col), rel.attr(col).ty))
            }
            None => {
                let mut found = None;
                for (i, occ) in self.occurrences.iter().enumerate() {
                    let rel = self
                        .schema
                        .relation(&occ.base)
                        .ok_or_else(|| RelAlgError::UnknownRelation(occ.base.clone()))?;
                    if let Some(col) = rel.attr_pos(&c.column) {
                        if found.is_some() {
                            return Err(RelAlgError::AmbiguousColumn(c.column.clone()));
                        }
                        found = Some((AttrRef::new(i, col), rel.attr(col).ty));
                    }
                }
                found.ok_or_else(|| RelAlgError::UnknownColumn(c.column.clone()))
            }
        }
    }

    pub fn resolve_expr(&self, e: &Expr) -> Result<(Operand, Option<SqlType>), RelAlgError> {
        match e {
            Expr::Column(c) => {
                let (a, ty) = self.resolve_colref(c)?;
                Ok((Operand::attr(a), Some(ty)))
            }
            Expr::ColumnPlus(c, k) => {
                let (a, ty) = self.resolve_colref(c)?;
                if ty == SqlType::Varchar {
                    return Err(RelAlgError::TypeMismatch(format!(
                        "arithmetic on string column `{c}`"
                    )));
                }
                Ok((Operand::Attr { attr: a, offset: *k }, Some(ty)))
            }
            Expr::Int(i) => Ok((Operand::Const(Value::Int(*i)), None)),
            Expr::Str(s) => Ok((Operand::Const(Value::Str(s.clone())), None)),
            Expr::Float(_) => Err(RelAlgError::Unsupported(
                "floating-point literals (the constraint solver operates over integers; \
                 scale the schema to integer units)"
                    .into(),
            )),
        }
    }
}

/// The type rules of a comparison: column types must be comparable, no
/// string is compared with a number, and strings compare only with `=` /
/// `<>` (the solver dictionary-codes strings as integers, whose order means
/// nothing). `types` are the two sides' column types, `None` for a
/// constant; `operands` are the sides that may be constants.
pub(crate) fn check_cmp_types(
    types: [Option<SqlType>; 2],
    operands: &[&Operand],
    op: CompareOp,
) -> Result<(), RelAlgError> {
    let has_const = |f: fn(&Value) -> bool| {
        operands.iter().any(|o| matches!(o, Operand::Const(v) if f(v)))
    };
    if let [Some(a), Some(b)] = types {
        if !a.comparable_with(b) {
            return Err(RelAlgError::TypeMismatch(format!("cannot compare {a} with {b}")));
        }
    }
    let str_involved =
        types.contains(&Some(SqlType::Varchar)) || has_const(|v| matches!(v, Value::Str(_)));
    if str_involved {
        let num_involved = types.iter().flatten().any(|t| t.is_numeric())
            || has_const(|v| matches!(v, Value::Int(_)));
        if num_involved {
            return Err(RelAlgError::TypeMismatch("string compared with number".into()));
        }
        if !matches!(op, CompareOp::Eq | CompareOp::Ne) {
            return Err(RelAlgError::Unsupported(
                "ordered comparison on strings (only = and <> are supported for \
                 string attributes)"
                    .into(),
            ));
        }
    }
    Ok(())
}

impl<'a> Normalizer<'a> {
    fn new(schema: &'a Schema) -> Self {
        Normalizer { schema, occurrences: Vec::new(), by_binding: BTreeMap::new() }
    }

    /// Resolution against the occurrences registered so far.
    fn scope(&self) -> Scope<'_> {
        Scope { schema: self.schema, by_binding: &self.by_binding, occurrences: &self.occurrences }
    }

    fn run(&mut self, query: &Query) -> Result<NormQuery, RelAlgError> {
        // Pass 1: occurrences, plus the raw tree shape with per-node ON
        // conditions deferred (we must register all bindings before
        // resolving any column).
        for item in &query.from {
            self.register_bindings(item)?;
        }
        if self.occurrences.len() > 64 {
            return Err(RelAlgError::Unsupported("more than 64 relation occurrences".into()));
        }

        // Pass 2: build the tree with resolved ON conditions.
        let mut trees = Vec::new();
        let mut has_outer = false;
        for item in &query.from {
            trees.push(self.build_tree(item, &mut has_outer)?);
        }
        let raw_tree = trees
            .into_iter()
            .reduce(|l, r| JoinTree::node(JoinKind::Inner, l, r, vec![]))
            .ok_or_else(|| RelAlgError::Unsupported("empty FROM clause".into()))?;

        // Pass 3: resolve WHERE conditions.
        let mut where_preds = Vec::new();
        for c in &query.where_clause {
            where_preds.push(self.resolve_condition(&c.lhs, c.op, &c.rhs)?);
        }

        // Pass 4: pool equivalence classes and retained predicates. ON
        // equi-joins participate in the classes (the generation algorithms
        // need them) but, for outer queries, stay at their nodes for
        // execution.
        let mut all_conds: Vec<Pred> = where_preds.clone();
        collect_on_conds(&raw_tree, &mut all_conds);
        let (eq_classes, preds) = pool_conditions(&all_conds);

        // Pass 4b: lower retained subquery / LIKE / NULL-check predicates.
        let subs = crate::decorrelate::lower_subqueries(query, &self.scope())?;
        let mut likes = Vec::new();
        for l in &query.where_like {
            let c = match &l.lhs {
                Expr::Column(c) => c,
                other => {
                    return Err(RelAlgError::Unsupported(format!(
                        "LIKE applies to a plain string column, found `{other}`"
                    )))
                }
            };
            let (attr, ty) = self.scope().resolve_colref(c)?;
            if ty != SqlType::Varchar {
                return Err(RelAlgError::TypeMismatch(format!(
                    "LIKE on non-string column `{c}`"
                )));
            }
            likes.push(crate::ir::LikePred {
                attr,
                negated: l.negated,
                pattern: l.pattern.clone(),
            });
        }
        let mut null_checks = Vec::new();
        for n in &query.where_null {
            let c = match &n.lhs {
                Expr::Column(c) => c,
                other => {
                    return Err(RelAlgError::Unsupported(format!(
                        "IS [NOT] NULL applies to a plain column, found `{other}`"
                    )))
                }
            };
            let (attr, _) = self.scope().resolve_colref(c)?;
            null_checks.push(crate::ir::NullCheck { attr, negated: n.negated });
        }

        // Pass 5: select list / aggregation.
        let select = self.resolve_select(query)?;

        // Pass 6: the execution tree.
        let tree = if has_outer {
            // Keep ON conditions as written; add WHERE join predicates
            // (including plain equi-joins, verbatim) at the earliest node.
            place_where_preds(&raw_tree, &where_preds)
        } else {
            raw_tree.annotate(&eq_classes, &preds)
        };

        let q = NormQuery {
            occurrences: std::mem::take(&mut self.occurrences),
            eq_classes,
            preds,
            tree,
            has_outer,
            distinct: query.distinct,
            select,
            subs,
            likes,
            null_checks,
        };
        validate_full_outer_projection(&q)?;
        Ok(q)
    }

    fn register_bindings(&mut self, item: &FromItem) -> Result<(), RelAlgError> {
        match item {
            FromItem::Table { name, alias } => {
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                if self.schema.relation(name).is_none() {
                    return Err(RelAlgError::UnknownRelation(name.clone()));
                }
                if self.by_binding.contains_key(&binding) {
                    return Err(RelAlgError::DuplicateBinding(binding));
                }
                self.by_binding.insert(binding.clone(), self.occurrences.len());
                self.occurrences.push(Occurrence { name: binding, base: name.clone() });
                Ok(())
            }
            FromItem::Join { left, right, .. } => {
                self.register_bindings(left)?;
                self.register_bindings(right)
            }
        }
    }

    fn build_tree(&mut self, item: &FromItem, has_outer: &mut bool) -> Result<JoinTree, RelAlgError> {
        match item {
            FromItem::Table { name, alias } => {
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                let occ = self.by_binding[&binding];
                Ok(JoinTree::Leaf(occ))
            }
            FromItem::Join { kind, left, right, on } => {
                if *kind != JoinKind::Inner {
                    *has_outer = true;
                }
                let l = self.build_tree(left, has_outer)?;
                let r = self.build_tree(right, has_outer)?;
                let mut conds = Vec::new();
                for c in on {
                    conds.push(self.resolve_condition(&c.lhs, c.op, &c.rhs)?);
                }
                Ok(JoinTree::node(*kind, l, r, conds))
            }
        }
    }

    fn resolve_condition(
        &self,
        lhs: &Expr,
        op: CompareOp,
        rhs: &Expr,
    ) -> Result<Pred, RelAlgError> {
        let (l, lt) = self.scope().resolve_expr(lhs)?;
        let (r, rt) = self.scope().resolve_expr(rhs)?;
        check_cmp_types([lt, rt], &[&l, &r], op)?;
        if matches!((&l, &r), (Operand::Const(_), Operand::Const(_))) {
            return Err(RelAlgError::Unsupported(
                "constant-vs-constant predicate (degenerate)".into(),
            ));
        }
        Ok(Pred { lhs: l, op, rhs: r })
    }

    fn resolve_select(&self, query: &Query) -> Result<SelectSpec, RelAlgError> {
        let has_agg = query.has_aggregates() || !query.having.is_empty();
        if !has_agg && query.group_by.is_empty() {
            if query.select.len() == 1 && query.select[0] == SelectItem::Star {
                return Ok(SelectSpec::Star);
            }
            let mut cols = Vec::new();
            for s in &query.select {
                match s {
                    SelectItem::Column(c) => cols.push(self.scope().resolve_colref(c)?.0),
                    SelectItem::Star => {
                        return Err(RelAlgError::Unsupported(
                            "`*` mixed with explicit select items".into(),
                        ))
                    }
                    SelectItem::Aggregate { .. } => unreachable!("has_agg checked"),
                }
            }
            return Ok(SelectSpec::Columns(cols));
        }
        // Aggregation query.
        let mut group_by = Vec::new();
        for c in &query.group_by {
            group_by.push(self.scope().resolve_colref(c)?.0);
        }
        let mut aggs = Vec::new();
        for s in &query.select {
            match s {
                SelectItem::Star => {
                    return Err(RelAlgError::BadAggregation("`*` with aggregates".into()))
                }
                SelectItem::Column(c) => {
                    let a = self.scope().resolve_colref(c)?.0;
                    if !group_by.contains(&a) {
                        return Err(RelAlgError::BadAggregation(format!(
                            "non-aggregated column `{c}` not in GROUP BY"
                        )));
                    }
                }
                SelectItem::Aggregate { op, arg, distinct } => {
                    let arg = match arg {
                        Some(c) => {
                            let (a, ty) = self.scope().resolve_colref(c)?;
                            if matches!(op, xdata_sql::AggOp::Sum | xdata_sql::AggOp::Avg)
                                && ty == SqlType::Varchar
                            {
                                return Err(RelAlgError::BadAggregation(format!(
                                    "{}({c}) on a string column",
                                    op.sql_name()
                                )));
                            }
                            Some(a)
                        }
                        None => None,
                    };
                    aggs.push(AggSpec {
                        func: crate::ir::AggFunc { op: *op, distinct: *distinct },
                        arg,
                    });
                }
            }
        }
        let mut having = Vec::new();
        for h in &query.having {
            let arg = match &h.arg {
                Some(c) => {
                    let (a, ty) = self.scope().resolve_colref(c)?;
                    if matches!(h.op, xdata_sql::AggOp::Sum | xdata_sql::AggOp::Avg)
                        && ty == xdata_catalog::SqlType::Varchar
                    {
                        return Err(RelAlgError::BadAggregation(format!(
                            "HAVING {}({c}) on a string column",
                            h.op.sql_name()
                        )));
                    }
                    Some(a)
                }
                None => None,
            };
            having.push(crate::ir::HavingPred {
                func: crate::ir::AggFunc { op: h.op, distinct: h.distinct },
                arg,
                cmp: h.cmp,
                value: h.value,
            });
        }
        if aggs.is_empty() && having.is_empty() {
            return Err(RelAlgError::BadAggregation(
                "GROUP BY without aggregate functions".into(),
            ));
        }
        Ok(SelectSpec::Aggregation { group_by, aggs, having })
    }
}

fn collect_on_conds(tree: &JoinTree, out: &mut Vec<Pred>) {
    if let JoinTree::Node { left, right, conds, .. } = tree {
        out.extend(conds.iter().cloned());
        collect_on_conds(left, out);
        collect_on_conds(right, out);
    }
}

/// Union-find partitioning of attributes linked by plain equi-joins
/// (§IV-B); everything else is retained as a predicate.
fn pool_conditions(conds: &[Pred]) -> (Vec<Vec<AttrRef>>, Vec<Pred>) {
    let mut parent: BTreeMap<AttrRef, AttrRef> = BTreeMap::new();
    fn find(parent: &mut BTreeMap<AttrRef, AttrRef>, a: AttrRef) -> AttrRef {
        let p = *parent.entry(a).or_insert(a);
        if p == a {
            a
        } else {
            let root = find(parent, p);
            parent.insert(a, root);
            root
        }
    }
    let mut preds = Vec::new();
    for c in conds {
        if c.is_plain_equijoin() {
            let (a, b) = (
                c.lhs.attr_ref().expect("equijoin lhs is attr"),
                c.rhs.attr_ref().expect("equijoin rhs is attr"),
            );
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra != rb {
                parent.insert(ra, rb);
            }
        } else {
            preds.push(c.clone());
        }
    }
    let mut classes: BTreeMap<AttrRef, Vec<AttrRef>> = BTreeMap::new();
    let keys: Vec<AttrRef> = parent.keys().copied().collect();
    for a in keys {
        let r = find(&mut parent, a);
        classes.entry(r).or_default().push(a);
    }
    let mut eq_classes: Vec<Vec<AttrRef>> = classes
        .into_values()
        .filter(|c| c.len() >= 2)
        .map(|mut c| {
            c.sort_unstable();
            c
        })
        .collect();
    eq_classes.sort();
    // Dedup predicates (the same condition may appear in WHERE and ON).
    let mut seen: Vec<Pred> = Vec::new();
    for p in preds {
        if !seen.contains(&p) {
            seen.push(p);
        }
    }
    (eq_classes, seen)
}

/// Add WHERE join predicates to a fixed (outer-join) tree at the earliest
/// node where their relations meet, keeping ON conditions untouched.
fn place_where_preds(tree: &JoinTree, where_preds: &[Pred]) -> JoinTree {
    fn go(t: &JoinTree, preds: &[Pred]) -> JoinTree {
        match t {
            JoinTree::Leaf(i) => JoinTree::Leaf(*i),
            JoinTree::Node { kind, left, right, conds } => {
                let l = go(left, preds);
                let r = go(right, preds);
                let lm = l.leaf_mask();
                let rm = r.leaf_mask();
                let mut conds = conds.clone();
                for p in preds {
                    let occs = p.occurrences();
                    if occs.len() < 2 {
                        continue; // selections are applied at the leaves
                    }
                    let pm = occs.iter().fold(0u64, |m, o| m | (1 << o));
                    if pm & (lm | rm) == pm && pm & lm != 0 && pm & rm != 0 {
                        conds.push(p.clone());
                    }
                }
                JoinTree::Node { kind: *kind, left: Box::new(l), right: Box::new(r), conds }
            }
        }
    }
    go(tree, where_preds)
}

/// Assumption A7: every full outer join input must contribute at least one
/// select-list column, so a mutation's effect is observable in the output.
fn validate_full_outer_projection(q: &NormQuery) -> Result<(), RelAlgError> {
    let out_attrs: Vec<AttrRef> = match &q.select {
        SelectSpec::Star => return Ok(()), // every occurrence contributes
        SelectSpec::Columns(cols) => cols.clone(),
        SelectSpec::Aggregation { group_by, aggs, having } => {
            let mut v = group_by.clone();
            v.extend(aggs.iter().filter_map(|a| a.arg));
            v.extend(having.iter().filter_map(|h| h.arg));
            v
        }
    };
    fn walk(t: &JoinTree, out_attrs: &[AttrRef], q: &NormQuery) -> Result<(), RelAlgError> {
        if let JoinTree::Node { kind, left, right, .. } = t {
            if *kind == JoinKind::Full {
                for (side, name) in [(left, "left"), (right, "right")] {
                    let mask = side.leaf_mask();
                    if !out_attrs.iter().any(|a| mask & (1 << a.occ) != 0) {
                        return Err(RelAlgError::FullOuterJoinProjection(format!(
                            "{name} input {} of a full outer join",
                            side.display_with(
                                &q.occurrences.iter().map(|o| o.name.clone()).collect::<Vec<_>>()
                            )
                        )));
                    }
                }
            }
            walk(left, out_attrs, q)?;
            walk(right, out_attrs, q)?;
        }
        Ok(())
    }
    walk(&q.tree, &out_attrs, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata_catalog::university;
    use xdata_sql::parse_query;

    fn norm(sql: &str) -> NormQuery {
        normalize(&parse_query(sql).unwrap(), &university::schema()).unwrap()
    }

    fn norm_err(sql: &str) -> RelAlgError {
        normalize(&parse_query(sql).unwrap(), &university::schema()).unwrap_err()
    }

    #[test]
    fn paper_intro_query() {
        let q = norm("SELECT * FROM instructor i, teaches t WHERE i.id = t.id");
        assert_eq!(q.occurrences.len(), 2);
        assert_eq!(q.eq_classes.len(), 1);
        assert_eq!(q.eq_classes[0].len(), 2);
        assert!(q.preds.is_empty());
        assert!(!q.has_outer);
        assert_eq!(q.select, SelectSpec::Star);
    }

    #[test]
    fn figure2_equivalence_class_forms() {
        // A.x = B.x AND B.x = C.x pools {A.x, B.x, C.x} — written either way.
        let q1 = norm(
            "SELECT * FROM instructor a, teaches b, advisor c \
             WHERE a.id = b.id AND b.id = c.s_id",
        );
        let q2 = norm(
            "SELECT * FROM instructor a, teaches b, advisor c \
             WHERE a.id = b.id AND a.id = c.s_id",
        );
        assert_eq!(q1.eq_classes, q2.eq_classes);
        assert_eq!(q1.eq_classes[0].len(), 3);
    }

    #[test]
    fn nonequi_join_retained_as_pred() {
        let q = norm("SELECT * FROM teaches b, course c WHERE b.course_id = c.course_id + 10");
        assert!(q.eq_classes.is_empty());
        assert_eq!(q.preds.len(), 1);
        assert!(!q.preds[0].is_selection());
    }

    #[test]
    fn selection_retained_and_classified() {
        let q = norm("SELECT * FROM instructor WHERE salary >= 50000 AND name = 'Wu'");
        assert_eq!(q.preds.len(), 2);
        assert!(q.preds.iter().all(Pred::is_selection));
    }

    #[test]
    fn repeated_relation_occurrences_distinct() {
        let q = norm("SELECT * FROM instructor a, instructor b WHERE a.dept_id = b.dept_id");
        assert_eq!(q.occurrences.len(), 2);
        assert_eq!(q.occurrences[0].base, "instructor");
        assert_eq!(q.occurrences[1].base, "instructor");
        assert_ne!(q.occurrences[0].name, q.occurrences[1].name);
    }

    #[test]
    fn duplicate_binding_rejected() {
        assert!(matches!(
            norm_err("SELECT * FROM instructor, instructor"),
            RelAlgError::DuplicateBinding(_)
        ));
    }

    #[test]
    fn unknown_and_ambiguous_columns() {
        assert!(matches!(
            norm_err("SELECT * FROM instructor WHERE nope = 3"),
            RelAlgError::UnknownColumn(_)
        ));
        // `name` exists in both instructor and student.
        assert!(matches!(
            norm_err("SELECT * FROM instructor, student WHERE name = 'Wu'"),
            RelAlgError::AmbiguousColumn(_)
        ));
    }

    #[test]
    fn string_ordering_rejected() {
        assert!(matches!(
            norm_err("SELECT * FROM instructor WHERE name < 'M'"),
            RelAlgError::Unsupported(_)
        ));
    }

    #[test]
    fn string_vs_number_rejected() {
        assert!(matches!(
            norm_err("SELECT * FROM instructor WHERE name = 5"),
            RelAlgError::TypeMismatch(_)
        ));
    }

    #[test]
    fn outer_join_keeps_on_conditions_at_node() {
        let q = norm(
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id WHERE i.salary > 50000",
        );
        assert!(q.has_outer);
        match &q.tree {
            JoinTree::Node { kind, conds, .. } => {
                assert_eq!(*kind, JoinKind::Left);
                assert_eq!(conds.len(), 1);
            }
            x => panic!("unexpected {x:?}"),
        }
        // The ON equi-join still pools into an equivalence class for the
        // generation algorithms.
        assert_eq!(q.eq_classes.len(), 1);
        // The WHERE selection is retained.
        assert_eq!(q.preds.len(), 1);
    }

    #[test]
    fn inner_tree_annotated_from_pool() {
        let q = norm(
            "SELECT * FROM instructor i, teaches t, course c \
             WHERE i.id = t.id AND t.course_id = c.course_id",
        );
        // Left-deep tree ((i,t),c); the i–t link sits at the lower node.
        match &q.tree {
            JoinTree::Node { conds, left, .. } => {
                assert_eq!(conds.len(), 1); // t.course_id = c.course_id link
                match &**left {
                    JoinTree::Node { conds, .. } => assert_eq!(conds.len(), 1),
                    x => panic!("unexpected {x:?}"),
                }
            }
            x => panic!("unexpected {x:?}"),
        }
    }

    #[test]
    fn full_outer_projection_validated() {
        // Only columns from the left input selected — violates A7.
        assert!(matches!(
            norm_err(
                "SELECT i.name FROM instructor i FULL OUTER JOIN teaches t ON i.id = t.id"
            ),
            RelAlgError::FullOuterJoinProjection(_)
        ));
        // Both sides contribute: fine.
        let q = norm(
            "SELECT i.name, t.course_id FROM instructor i FULL OUTER JOIN teaches t \
             ON i.id = t.id",
        );
        assert!(q.has_outer);
    }

    #[test]
    fn aggregation_resolves() {
        let q = norm(
            "SELECT dept_id, COUNT(DISTINCT id), SUM(salary) FROM instructor GROUP BY dept_id",
        );
        match &q.select {
            SelectSpec::Aggregation { group_by, aggs, .. } => {
                assert_eq!(group_by.len(), 1);
                assert_eq!(aggs.len(), 2);
                assert!(aggs[0].func.distinct);
            }
            x => panic!("unexpected {x:?}"),
        }
    }

    #[test]
    fn aggregation_without_group_by() {
        let q = norm("SELECT COUNT(*) FROM teaches");
        match &q.select {
            SelectSpec::Aggregation { group_by, aggs, .. } => {
                assert!(group_by.is_empty());
                assert!(aggs[0].arg.is_none());
            }
            x => panic!("unexpected {x:?}"),
        }
    }

    #[test]
    fn non_grouped_column_rejected() {
        assert!(matches!(
            norm_err("SELECT name, COUNT(*) FROM instructor GROUP BY dept_id"),
            RelAlgError::BadAggregation(_)
        ));
    }

    #[test]
    fn float_literal_rejected_with_pointer() {
        assert!(matches!(
            norm_err("SELECT * FROM instructor WHERE salary > 3.5"),
            RelAlgError::Unsupported(_)
        ));
    }

    #[test]
    fn used_attrs_cover_everything() {
        let q = norm(
            "SELECT i.name FROM instructor i, teaches t \
             WHERE i.id = t.id AND i.salary > 1000",
        );
        let used = q.used_attrs();
        // i.id, t.id, i.salary, i.name
        assert_eq!(used.len(), 4);
    }
}
