//! Abstract syntax for the X-Data query class.
//!
//! The AST deliberately models only what §II of the paper admits: one
//! SELECT block, joins/outer joins, conjunctive predicates of simple
//! comparisons, unconstrained aggregation. `Display` renders back to SQL so
//! mutants can be shown to users in the language they wrote.

use std::cmp::Ordering;
use std::fmt;

use xdata_catalog::SqlType;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Query),
    CreateTable(CreateTable),
    Insert(Insert),
}

/// `INSERT INTO table VALUES (...), (...)` — used to load sample/input
/// databases (§VI-A) from SQL scripts.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub rows: Vec<Vec<xdata_catalog::Value>>,
}

/// `CREATE TABLE` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub columns: Vec<(String, SqlType, bool)>, // (name, type, nullable)
    pub primary_key: Vec<String>,
    pub foreign_keys: Vec<AstForeignKey>,
}

/// `FOREIGN KEY (cols) REFERENCES table (cols)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AstForeignKey {
    pub columns: Vec<String>,
    pub ref_table: String,
    pub ref_columns: Vec<String>,
}

/// A single-block query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT` — duplicate elimination. Mutations between
    /// `SELECT` and `SELECT DISTINCT` are the duplicate-count mutation
    /// class the paper's footnote 2 defers to future work; this
    /// reproduction implements them.
    pub distinct: bool,
    pub select: Vec<SelectItem>,
    pub from: Vec<FromItem>,
    /// Conjunctive WHERE clause (assumption A5).
    pub where_clause: Vec<Condition>,
    /// `[NOT] IN (SELECT ...)` conjuncts of the WHERE clause. The paper's
    /// §V-H handles "simple subqueries"; `xdata-relalg` lowers them to
    /// bounded-quantifier predicates.
    pub where_in: Vec<InPred>,
    /// `[NOT] EXISTS (SELECT ...)` conjuncts of the WHERE clause.
    pub where_exists: Vec<ExistsPred>,
    /// `[NOT] LIKE` string-pattern conjuncts of the WHERE clause.
    pub where_like: Vec<LikePred>,
    /// `IS [NOT] NULL` conjuncts of the WHERE clause.
    pub where_null: Vec<NullPred>,
    pub group_by: Vec<ColRef>,
    /// `HAVING` conjuncts — *constrained aggregation*, which the paper
    /// defers to future work (§II, §VII); this reproduction implements the
    /// extension (see DESIGN.md for the supported generation subset).
    pub having: Vec<HavingCond>,
}

/// One `HAVING` conjunct: `AGG([DISTINCT] col | *) relop constant`.
#[derive(Debug, Clone, PartialEq)]
pub struct HavingCond {
    pub op: AggOp,
    /// `None` = `COUNT(*)`.
    pub arg: Option<ColRef>,
    pub distinct: bool,
    pub cmp: CompareOp,
    pub value: i64,
}

/// `lhs [NOT] IN (subquery)` — a membership predicate over a (possibly
/// correlated) subquery.
#[derive(Debug, Clone, PartialEq)]
pub struct InPred {
    pub lhs: Expr,
    pub negated: bool,
    pub subquery: Box<Query>,
}

/// `[NOT] EXISTS (subquery)` — an emptiness test on a (possibly
/// correlated) subquery.
#[derive(Debug, Clone, PartialEq)]
pub struct ExistsPred {
    pub negated: bool,
    pub subquery: Box<Query>,
}

/// `lhs [NOT] LIKE 'pattern'` — a string-pattern predicate (`%` matches
/// any run of characters, `_` matches one character).
#[derive(Debug, Clone, PartialEq)]
pub struct LikePred {
    pub lhs: Expr,
    pub negated: bool,
    pub pattern: String,
}

/// `lhs IS [NOT] NULL`.
#[derive(Debug, Clone, PartialEq)]
pub struct NullPred {
    pub lhs: Expr,
    pub negated: bool,
}

impl Query {
    /// All aggregate items in the select list.
    pub fn aggregates(&self) -> impl Iterator<Item = (&AggOp, Option<&ColRef>, bool)> {
        self.select.iter().filter_map(|s| match s {
            SelectItem::Aggregate { op, arg, distinct } => Some((op, arg.as_ref(), *distinct)),
            _ => None,
        })
    }

    pub fn has_aggregates(&self) -> bool {
        self.aggregates().next().is_some()
    }
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// A plain column.
    Column(ColRef),
    /// `op([DISTINCT] col)` or `COUNT(*)` (arg = None).
    Aggregate { op: AggOp, arg: Option<ColRef>, distinct: bool },
}

/// Aggregation operators of the paper's mutation space (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggOp {
    Max,
    Min,
    Sum,
    Avg,
    Count,
}

impl AggOp {
    pub const ALL: [AggOp; 5] = [AggOp::Max, AggOp::Min, AggOp::Sum, AggOp::Avg, AggOp::Count];

    pub fn sql_name(self) -> &'static str {
        match self {
            AggOp::Max => "MAX",
            AggOp::Min => "MIN",
            AggOp::Sum => "SUM",
            AggOp::Avg => "AVG",
            AggOp::Count => "COUNT",
        }
    }
}

/// An item of the FROM list: a named relation or an explicit join tree.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// `table [AS alias]`
    Table { name: String, alias: Option<String> },
    /// `left <join-kind> right ON cond AND cond ...`
    Join { kind: JoinKind, left: Box<FromItem>, right: Box<FromItem>, on: Vec<Condition> },
}

impl FromItem {
    /// Distinct name this item binds (alias or table name) when it is a
    /// plain table.
    pub fn binding(&self) -> Option<&str> {
        match self {
            FromItem::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            FromItem::Join { .. } => None,
        }
    }

    /// All `(binding, base table)` pairs in this item, left-to-right.
    pub fn bindings(&self) -> Vec<(String, String)> {
        match self {
            FromItem::Table { name, alias } => {
                vec![(alias.clone().unwrap_or_else(|| name.clone()), name.clone())]
            }
            FromItem::Join { left, right, .. } => {
                let mut v = left.bindings();
                v.extend(right.bindings());
                v
            }
        }
    }
}

/// The four join types of the paper's join-type mutation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
}

impl JoinKind {
    pub const ALL: [JoinKind; 4] = [JoinKind::Inner, JoinKind::Left, JoinKind::Right, JoinKind::Full];

    pub fn sql_name(self) -> &'static str {
        match self {
            JoinKind::Inner => "JOIN",
            JoinKind::Left => "LEFT OUTER JOIN",
            JoinKind::Right => "RIGHT OUTER JOIN",
            JoinKind::Full => "FULL OUTER JOIN",
        }
    }
}

/// A comparison predicate `lhs op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    pub lhs: Expr,
    pub op: CompareOp,
    pub rhs: Expr,
}

/// Comparison operators (the paper's comparison-mutation space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompareOp {
    pub const ALL: [CompareOp; 6] =
        [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt, CompareOp::Le, CompareOp::Gt, CompareOp::Ge];

    pub fn sql_symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }

    pub fn from_symbol(s: &str) -> Option<CompareOp> {
        Some(match s {
            "=" => CompareOp::Eq,
            "<>" | "!=" => CompareOp::Ne,
            "<" => CompareOp::Lt,
            "<=" => CompareOp::Le,
            ">" => CompareOp::Gt,
            ">=" => CompareOp::Ge,
            _ => return None,
        })
    }

    /// The operator with its operands swapped: `a op b` ⇔ `b op.mirror() a`.
    pub fn mirror(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Ge => CompareOp::Le,
        }
    }

    /// Whether `a op b` holds when `a.cmp(&b)` is `ord`.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CompareOp::Eq => ord == Ordering::Equal,
            CompareOp::Ne => ord != Ordering::Equal,
            CompareOp::Lt => ord == Ordering::Less,
            CompareOp::Le => ord != Ordering::Greater,
            CompareOp::Gt => ord == Ordering::Greater,
            CompareOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A scalar expression: a column, a literal, or column ± integer constant
/// (the "simple arithmetic expressions" of assumption A4).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColRef),
    Int(i64),
    Float(f64),
    Str(String),
    /// `expr + k` / `expr - k` folded to column + signed constant.
    ColumnPlus(ColRef, i64),
}

impl Expr {
    pub fn column(&self) -> Option<&ColRef> {
        match self {
            Expr::Column(c) | Expr::ColumnPlus(c, _) => Some(c),
            _ => None,
        }
    }
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColRef {
    pub fn new(table: Option<&str>, column: &str) -> Self {
        ColRef { table: table.map(str::to_string), column: column.to_string() }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Int(i) => write!(f, "{i}"),
            Expr::Float(x) => write!(f, "{x}"),
            Expr::Str(s) => write!(f, "'{s}'"),
            Expr::ColumnPlus(c, k) => {
                if *k >= 0 {
                    write!(f, "{c} + {k}")
                } else {
                    write!(f, "{c} - {}", -k)
                }
            }
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op.sql_symbol(), self.rhs)
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Star => f.write_str("*"),
            SelectItem::Column(c) => write!(f, "{c}"),
            SelectItem::Aggregate { op, arg, distinct } => {
                write!(f, "{}(", op.sql_name())?;
                if *distinct {
                    f.write_str("DISTINCT ")?;
                }
                match arg {
                    Some(c) => write!(f, "{c}")?,
                    None => f.write_str("*")?,
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromItem::Table { name, alias } => match alias {
                Some(a) if a != name => write!(f, "{name} {a}"),
                _ => write!(f, "{name}"),
            },
            FromItem::Join { kind, left, right, on } => {
                let wrap = |x: &FromItem, f: &mut fmt::Formatter<'_>| -> fmt::Result {
                    match x {
                        FromItem::Join { .. } => write!(f, "({x})"),
                        _ => write!(f, "{x}"),
                    }
                };
                wrap(left, f)?;
                write!(f, " {} ", kind.sql_name())?;
                wrap(right, f)?;
                f.write_str(" ON ")?;
                for (i, c) in on.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, s) in self.select.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{s}")?;
        }
        f.write_str(" FROM ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        let has_where = !self.where_clause.is_empty()
            || !self.where_in.is_empty()
            || !self.where_exists.is_empty()
            || !self.where_like.is_empty()
            || !self.where_null.is_empty();
        if has_where {
            f.write_str(" WHERE ")?;
            let mut first = true;
            let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
                if !first {
                    f.write_str(" AND ")?;
                }
                first = false;
                Ok(())
            };
            for c in &self.where_clause {
                sep(f)?;
                write!(f, "{c}")?;
            }
            for p in &self.where_like {
                sep(f)?;
                let not = if p.negated { "NOT " } else { "" };
                write!(f, "{} {not}LIKE '{}'", p.lhs, p.pattern)?;
            }
            for p in &self.where_null {
                sep(f)?;
                let not = if p.negated { "NOT " } else { "" };
                write!(f, "{} IS {not}NULL", p.lhs)?;
            }
            for p in &self.where_in {
                sep(f)?;
                let not = if p.negated { "NOT " } else { "" };
                write!(f, "{} {not}IN ({})", p.lhs, p.subquery)?;
            }
            for p in &self.where_exists {
                sep(f)?;
                let not = if p.negated { "NOT " } else { "" };
                write!(f, "{not}EXISTS ({})", p.subquery)?;
            }
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        if !self.having.is_empty() {
            f.write_str(" HAVING ")?;
            for (i, h) in self.having.iter().enumerate() {
                if i > 0 {
                    f.write_str(" AND ")?;
                }
                write!(f, "{h}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for HavingCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.op.sql_name())?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        match &self.arg {
            Some(c) => write!(f, "{c}")?,
            None => f.write_str("*")?,
        }
        write!(f, ") {} {}", self.cmp.sql_symbol(), self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colref_display() {
        assert_eq!(ColRef::new(Some("a"), "x").to_string(), "a.x");
        assert_eq!(ColRef::new(None, "x").to_string(), "x");
    }

    #[test]
    fn condition_display() {
        let c = Condition {
            lhs: Expr::Column(ColRef::new(Some("a"), "x")),
            op: CompareOp::Le,
            rhs: Expr::ColumnPlus(ColRef::new(Some("b"), "y"), -3),
        };
        assert_eq!(c.to_string(), "a.x <= b.y - 3");
    }

    #[test]
    fn compare_op_roundtrip() {
        for op in CompareOp::ALL {
            assert_eq!(CompareOp::from_symbol(op.sql_symbol()), Some(op));
        }
        assert_eq!(CompareOp::from_symbol("!="), Some(CompareOp::Ne));
    }

    #[test]
    fn from_item_bindings() {
        let j = FromItem::Join {
            kind: JoinKind::Left,
            left: Box::new(FromItem::Table { name: "instructor".into(), alias: Some("i".into()) }),
            right: Box::new(FromItem::Table { name: "teaches".into(), alias: None }),
            on: vec![],
        };
        assert_eq!(
            j.bindings(),
            vec![("i".to_string(), "instructor".to_string()), ("teaches".to_string(), "teaches".to_string())]
        );
    }

    #[test]
    fn aggregate_display() {
        let s = SelectItem::Aggregate {
            op: AggOp::Count,
            arg: Some(ColRef::new(None, "x")),
            distinct: true,
        };
        assert_eq!(s.to_string(), "COUNT(DISTINCT x)");
        let star = SelectItem::Aggregate { op: AggOp::Count, arg: None, distinct: false };
        assert_eq!(star.to_string(), "COUNT(*)");
    }
}
