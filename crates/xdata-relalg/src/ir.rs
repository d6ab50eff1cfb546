//! The normalized query representation the paper's algorithms operate on.
//!
//! Normalization (§V-B preprocessing):
//!
//! 1. every relation occurrence gets a distinct name but remembers its base
//!    relation (repeated occurrences share the solver's tuple array, §V-A);
//! 2. equi-join conditions collapse into **equivalence classes** of
//!    attributes (§IV-B, Figure 2) and are dropped from the predicate list;
//! 3. all other predicates — non-equi joins like `B.x = C.x + 10` and
//!    selections like `dept = 'CS'` — are retained in [`NormQuery::preds`],
//!    conceptually pushed to the lowest possible level (§II).

use std::fmt;

use xdata_catalog::Value;
use xdata_sql::{AggOp, CompareOp, JoinKind};

use crate::tree::JoinTree;

/// One relation occurrence in the FROM clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Occurrence {
    /// The distinct binding name (alias, or table name when unaliased).
    pub name: String,
    /// The base relation in the schema.
    pub base: String,
}

/// An attribute of an occurrence: `(occurrence index, column position)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrRef {
    pub occ: usize,
    pub col: usize,
}

impl AttrRef {
    pub fn new(occ: usize, col: usize) -> Self {
        AttrRef { occ, col }
    }
}

/// One side of a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// `attr + offset` (offset 0 for a plain column).
    Attr { attr: AttrRef, offset: i64 },
    /// A literal.
    Const(Value),
}

impl Operand {
    pub fn attr(a: AttrRef) -> Operand {
        Operand::Attr { attr: a, offset: 0 }
    }

    pub fn attr_ref(&self) -> Option<AttrRef> {
        match self {
            Operand::Attr { attr, .. } => Some(*attr),
            Operand::Const(_) => None,
        }
    }
}

/// A retained predicate (non-equi join condition or selection).
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub lhs: Operand,
    pub op: CompareOp,
    pub rhs: Operand,
}

impl Pred {
    /// Occurrence indices this predicate touches (1 = selection,
    /// ≥2 = join predicate).
    pub fn occurrences(&self) -> Vec<usize> {
        let mut v: Vec<usize> = [&self.lhs, &self.rhs]
            .iter()
            .filter_map(|o| o.attr_ref().map(|a| a.occ))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Whether this is a single-relation selection predicate.
    pub fn is_selection(&self) -> bool {
        self.occurrences().len() <= 1
    }

    /// Whether this is an equi-join between two plain attributes (these are
    /// absorbed into equivalence classes during normalization and should not
    /// appear in `NormQuery::preds`).
    pub fn is_plain_equijoin(&self) -> bool {
        self.op == CompareOp::Eq
            && matches!(self.lhs, Operand::Attr { offset: 0, .. })
            && matches!(self.rhs, Operand::Attr { offset: 0, .. })
            && self.occurrences().len() == 2
    }
}

/// Which connective binds a retained subquery to the outer query (§V-H).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubqueryKind {
    /// `expr [NOT] IN (SELECT col FROM r WHERE ...)`.
    In,
    /// `[NOT] EXISTS (SELECT ... FROM r WHERE ...)`.
    Exists,
}

/// One resolved conjunct of a retained subquery's WHERE clause:
/// `sub.col op rhs`, where `rhs` is an outer-query operand (attribute or
/// constant) — the correlated case — or a constant selection on the
/// subquery relation itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SubCond {
    /// Column position in the subquery's base relation.
    pub col: usize,
    pub op: CompareOp,
    /// Outer operand: any [`AttrRef`] refers to an *outer* occurrence.
    pub rhs: Operand,
}

/// A retained `[NOT] IN` / `[NOT] EXISTS` subquery predicate. The
/// subquery is restricted to a single base relation with conjunctive
/// conditions (each linking one subquery column to an outer operand), no
/// aggregation and no further nesting — the class the bounded-quantifier
/// lowering handles exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SubPred {
    pub kind: SubqueryKind,
    pub negated: bool,
    /// For `IN`: the outer membership operand and the selected column
    /// position in the subquery relation. `None` for `EXISTS`.
    pub link: Option<(Operand, usize)>,
    /// Base relation of the subquery.
    pub base: String,
    /// The subquery's binding name (alias, or table name), for display.
    pub alias: String,
    /// Resolved subquery WHERE conjuncts.
    pub conds: Vec<SubCond>,
}

impl SubPred {
    /// The four `(kind, negated)` connective variants of the §V-H space.
    pub const CONNECTIVES: [(SubqueryKind, bool); 4] = [
        (SubqueryKind::In, false),
        (SubqueryKind::In, true),
        (SubqueryKind::Exists, false),
        (SubqueryKind::Exists, true),
    ];

    /// Outer attributes referenced by this subquery predicate (the
    /// membership operand and correlated condition operands).
    pub fn outer_attrs(&self) -> Vec<AttrRef> {
        let mut v: Vec<AttrRef> = Vec::new();
        if let Some((link, _)) = &self.link {
            v.extend(link.attr_ref());
        }
        v.extend(self.conds.iter().filter_map(|c| c.rhs.attr_ref()));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Render a `(kind, negated)` connective for messages: `IN`, `NOT IN`,
    /// `EXISTS`, `NOT EXISTS`.
    pub fn connective_name(connective: (SubqueryKind, bool)) -> &'static str {
        match connective {
            (SubqueryKind::In, false) => "IN",
            (SubqueryKind::In, true) => "NOT IN",
            (SubqueryKind::Exists, false) => "EXISTS",
            (SubqueryKind::Exists, true) => "NOT EXISTS",
        }
    }
}

/// A resolved `[NOT] LIKE` predicate on a string attribute. Patterns use
/// SQL `%`/`_` wildcards; the solver reduces them to dictionary-membership
/// constraints (string values are dictionary-coded integers).
#[derive(Debug, Clone, PartialEq)]
pub struct LikePred {
    pub attr: AttrRef,
    pub negated: bool,
    pub pattern: String,
}

impl LikePred {
    /// The core of a simple `[%]core[%]` pattern. Returns `None` when the
    /// pattern has no structural family: the core is empty, or contains
    /// `_` or an interior `%`.
    pub fn simple_core(pattern: &str) -> Option<&str> {
        let lead = pattern.starts_with('%');
        let trail = pattern.len() > lead as usize && pattern.ends_with('%');
        let core = &pattern[lead as usize..pattern.len() - trail as usize];
        if core.is_empty() || core.contains('%') || core.contains('_') {
            return None;
        }
        Some(core)
    }

    /// The other members of this pattern's `{core, %core, core%, %core%}`
    /// family, in that order: its LIKE mutants, and the patterns the
    /// generator plans a distinguishing dataset for. Empty when the
    /// pattern has no family.
    pub fn family_variants(&self) -> Vec<String> {
        let Some(core) = Self::simple_core(&self.pattern) else { return Vec::new() };
        [core.to_string(), format!("%{core}"), format!("{core}%"), format!("%{core}%")]
            .into_iter()
            .filter(|to| *to != self.pattern)
            .collect()
    }
}

/// A resolved `IS [NOT] NULL` check on an attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct NullCheck {
    pub attr: AttrRef,
    pub negated: bool,
}

/// Aggregate function: operator + DISTINCT flag. The paper's space has
/// eight members (§II); `COUNT(*)` is modelled as `COUNT` with no argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggFunc {
    pub op: AggOp,
    pub distinct: bool,
}

impl AggFunc {
    /// The paper's eight aggregate operators: MAX, MIN, SUM, AVG, COUNT,
    /// SUM(DISTINCT), AVG(DISTINCT), COUNT(DISTINCT). (MAX/MIN DISTINCT are
    /// identical to their plain forms and therefore not separate members.)
    pub const ALL: [AggFunc; 8] = [
        AggFunc { op: AggOp::Max, distinct: false },
        AggFunc { op: AggOp::Min, distinct: false },
        AggFunc { op: AggOp::Sum, distinct: false },
        AggFunc { op: AggOp::Avg, distinct: false },
        AggFunc { op: AggOp::Count, distinct: false },
        AggFunc { op: AggOp::Sum, distinct: true },
        AggFunc { op: AggOp::Avg, distinct: true },
        AggFunc { op: AggOp::Count, distinct: true },
    ];

    pub fn display_name(&self) -> String {
        if self.distinct {
            format!("{}(DISTINCT)", self.op.sql_name())
        } else {
            self.op.sql_name().to_string()
        }
    }
}

/// One aggregate item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// `None` = `COUNT(*)`.
    pub arg: Option<AttrRef>,
}

/// A resolved `HAVING` conjunct: `func(arg) cmp value` — constrained
/// aggregation, this reproduction's extension of the paper's class.
#[derive(Debug, Clone, PartialEq)]
pub struct HavingPred {
    pub func: AggFunc,
    /// `None` = `COUNT(*)`.
    pub arg: Option<AttrRef>,
    pub cmp: CompareOp,
    pub value: i64,
}

impl std::fmt::Display for HavingPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}({}) {} {}",
            self.func.display_name(),
            match self.arg {
                Some(a) => format!("#{}.{}", a.occ, a.col),
                None => "*".to_string(),
            },
            self.cmp.sql_symbol(),
            self.value
        )
    }
}

/// What the query projects.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectSpec {
    /// `SELECT *` — all columns of all occurrences in order.
    Star,
    /// Explicit column list (no aggregates).
    Columns(Vec<AttrRef>),
    /// Aggregation query: group-by columns then aggregates, optionally
    /// constrained by HAVING conjuncts.
    Aggregation { group_by: Vec<AttrRef>, aggs: Vec<AggSpec>, having: Vec<HavingPred> },
}

/// A fully normalized query.
#[derive(Debug, Clone, PartialEq)]
pub struct NormQuery {
    pub occurrences: Vec<Occurrence>,
    /// Equivalence classes of equi-joined attributes, each with ≥ 2 members,
    /// sorted and deduplicated.
    pub eq_classes: Vec<Vec<AttrRef>>,
    /// Retained predicates: non-equi joins and selections.
    pub preds: Vec<Pred>,
    /// The query's join tree as written (left-deep over the FROM list for
    /// comma-joined relations). For inner-only queries this is just one
    /// member of the equivalent-tree space.
    pub tree: JoinTree,
    /// Whether any outer join appears (fixes the tree shape for mutation).
    pub has_outer: bool,
    /// `SELECT DISTINCT`: duplicate elimination on the projected rows.
    pub distinct: bool,
    pub select: SelectSpec,
    /// Retained `[NOT] IN` / `[NOT] EXISTS` subquery predicates (§V-H).
    pub subs: Vec<SubPred>,
    /// Retained `[NOT] LIKE` string predicates.
    pub likes: Vec<LikePred>,
    /// Retained `IS [NOT] NULL` checks.
    pub null_checks: Vec<NullCheck>,
}

impl NormQuery {
    /// All attributes of all occurrences used anywhere in the query
    /// (equivalence classes, predicates, select, group by, aggregates).
    pub fn used_attrs(&self) -> Vec<AttrRef> {
        let mut out: Vec<AttrRef> = Vec::new();
        for c in &self.eq_classes {
            out.extend(c.iter().copied());
        }
        for p in &self.preds {
            out.extend([&p.lhs, &p.rhs].iter().filter_map(|o| o.attr_ref()));
        }
        for s in &self.subs {
            out.extend(s.outer_attrs());
        }
        out.extend(self.likes.iter().map(|l| l.attr));
        out.extend(self.null_checks.iter().map(|n| n.attr));
        match &self.select {
            SelectSpec::Star => {}
            SelectSpec::Columns(cols) => out.extend(cols.iter().copied()),
            SelectSpec::Aggregation { group_by, aggs, having } => {
                out.extend(group_by.iter().copied());
                out.extend(aggs.iter().filter_map(|a| a.arg));
                out.extend(having.iter().filter_map(|h| h.arg));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Selection predicates (single occurrence) of `preds`.
    pub fn selections(&self) -> impl Iterator<Item = (usize, &Pred)> {
        self.preds.iter().enumerate().filter(|(_, p)| p.is_selection())
    }

    /// Render an attribute as `binding.column` using the schema for column
    /// names. Positions out of range render positionally (defensive).
    pub fn attr_name(&self, schema: &xdata_catalog::Schema, a: AttrRef) -> String {
        let occ = &self.occurrences[a.occ];
        match schema.relation(&occ.base).and_then(|r| r.attributes.get(a.col)) {
            Some(attr) => format!("{}.{}", occ.name, attr.name),
            None => format!("{}.#{}", occ.name, a.col),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn op(o: &Operand, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match o {
                Operand::Attr { attr, offset } => {
                    write!(f, "#{}.{}", attr.occ, attr.col)?;
                    if *offset != 0 {
                        write!(f, "{:+}", offset)?;
                    }
                    Ok(())
                }
                Operand::Const(v) => write!(f, "{v}"),
            }
        }
        op(&self.lhs, f)?;
        write!(f, " {} ", self.op.sql_symbol())?;
        op(&self.rhs, f)
    }
}

/// Re-exported for convenience of downstream crates.
pub use xdata_sql::JoinKind as JoinKindRe;

/// All join-type alternatives for a node of kind `k` — the three mutation
/// targets of the paper's join-type space.
pub fn join_kind_mutations(k: JoinKind) -> Vec<JoinKind> {
    JoinKind::ALL.iter().copied().filter(|x| *x != k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_classification() {
        let sel = Pred {
            lhs: Operand::attr(AttrRef::new(0, 1)),
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::Int(5)),
        };
        assert!(sel.is_selection());
        assert!(!sel.is_plain_equijoin());

        let join = Pred {
            lhs: Operand::attr(AttrRef::new(0, 0)),
            op: CompareOp::Eq,
            rhs: Operand::attr(AttrRef::new(1, 0)),
        };
        assert!(!join.is_selection());
        assert!(join.is_plain_equijoin());

        let offset_join = Pred {
            lhs: Operand::attr(AttrRef::new(0, 0)),
            op: CompareOp::Eq,
            rhs: Operand::Attr { attr: AttrRef::new(1, 0), offset: 10 },
        };
        assert!(!offset_join.is_plain_equijoin(), "B.x = C.x + 10 is a non-equi join");
    }

    #[test]
    fn agg_space_has_eight_members() {
        assert_eq!(AggFunc::ALL.len(), 8);
        let distinct_count = AggFunc::ALL.iter().filter(|a| a.distinct).count();
        assert_eq!(distinct_count, 3);
    }

    #[test]
    fn join_kind_mutations_exclude_self() {
        for k in JoinKind::ALL {
            let m = join_kind_mutations(k);
            assert_eq!(m.len(), 3);
            assert!(!m.contains(&k));
        }
    }

    #[test]
    fn self_join_pred_is_selection() {
        // advisor.s_id = advisor.i_id touches one occurrence only.
        let p = Pred {
            lhs: Operand::attr(AttrRef::new(2, 0)),
            op: CompareOp::Eq,
            rhs: Operand::attr(AttrRef::new(2, 1)),
        };
        assert!(p.is_selection());
        assert_eq!(p.occurrences(), vec![2]);
    }
}
