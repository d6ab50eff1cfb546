//! Recursive-descent parser for queries and DDL.
//!
//! Grammar (the paper's query class, §II):
//!
//! ```text
//! statement   := query | create_table
//! query       := SELECT ['DISTINCT'] select_list FROM from_list [WHERE conj]
//!                [GROUP BY col (',' col)*] [HAVING having (AND having)*]
//! select_list := '*' | item (',' item)*
//! item        := agg '(' ['DISTINCT'] (col | '*') ')' | col
//! from_list   := from_item (',' from_item)*
//! from_item   := primary (join_kind primary ON conj)*        (left-assoc)
//! primary     := ident ['AS'? ident] | '(' from_item ')'
//! join_kind   := [INNER] JOIN | LEFT|RIGHT|FULL [OUTER] JOIN
//! conj        := cond (AND cond)*
//! cond        := expr relop expr
//!              | expr ['NOT'] IN '(' query ')'          (WHERE only)
//!              | ['NOT'] EXISTS '(' query ')'           (WHERE only)
//!              | expr ['NOT'] LIKE STRING               (WHERE only)
//!              | expr IS ['NOT'] NULL                   (WHERE only)
//! having      := agg '(' ['DISTINCT'] col ')' relop ['-'] INT
//!              | COUNT '(' '*' ')' relop ['-'] INT
//! expr        := operand (('+'|'-') INT)*
//! operand     := col | INT | FLOAT | STRING | '-' INT
//! col         := ident ['.' ident]
//! ```

use xdata_catalog::SqlType;

use crate::ast::{
    AggOp, AstForeignKey, ColRef, CompareOp, Condition, CreateTable, ExistsPred, Expr, FromItem,
    HavingCond, InPred, Insert, JoinKind, LikePred, NullPred, Query, SelectItem, Statement,
};
use crate::error::{ParseError, Span};
use crate::lexer::{lex, Tok, Token};

/// Parse a single SELECT query.
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    match parse_statement(src)? {
        Statement::Query(q) => Ok(q),
        Statement::CreateTable(_) | Statement::Insert(_) => {
            Err(ParseError::new("expected a SELECT query, found DDL/DML", Span::new(0, 6)))
        }
    }
}

/// Parse one statement (query or CREATE TABLE).
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    let mut p = Parser::new(src)?;
    let stmt = p.statement()?;
    p.eat_semicolons();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated sequence of CREATE TABLE statements into a schema.
pub fn parse_schema(src: &str) -> Result<xdata_catalog::Schema, ParseError> {
    let (schema, data) = parse_script(src)?;
    if !data.is_empty() {
        return Err(ParseError::new(
            "INSERT statements not allowed here; use parse_script",
            Span::default(),
        ));
    }
    Ok(schema)
}

/// Parse a full SQL script: `CREATE TABLE` statements building a schema
/// plus `INSERT INTO ... VALUES` statements building a dataset (the §VI-A
/// input database).
pub fn parse_script(
    src: &str,
) -> Result<(xdata_catalog::Schema, xdata_catalog::Dataset), ParseError> {
    let mut p = Parser::new(src)?;
    let mut tables = Vec::new();
    let mut data = xdata_catalog::Dataset::new();
    loop {
        p.eat_semicolons();
        if p.at_eof() {
            break;
        }
        match p.statement()? {
            Statement::CreateTable(t) => tables.push(t),
            Statement::Insert(ins) => {
                for row in ins.rows {
                    data.push(&ins.table, row);
                }
            }
            Statement::Query(_) => {
                return Err(ParseError::new(
                    "expected CREATE TABLE or INSERT in schema script",
                    p.span(),
                ))
            }
        }
    }
    let schema = build_schema(&tables).map_err(|e| ParseError::new(e.to_string(), Span::default()))?;
    Ok((schema, data))
}

/// Turn parsed DDL into a validated catalog schema.
pub fn build_schema(
    tables: &[CreateTable],
) -> Result<xdata_catalog::Schema, xdata_catalog::CatalogError> {
    use xdata_catalog::{Attribute, Relation, Schema};
    let mut schema = Schema::new();
    for t in tables {
        let attrs: Vec<Attribute> = t
            .columns
            .iter()
            .map(|(n, ty, nullable)| {
                let a = Attribute::new(n.clone(), *ty);
                if *nullable {
                    a.nullable()
                } else {
                    a
                }
            })
            .collect();
        let pk: Vec<&str> = t.primary_key.iter().map(String::as_str).collect();
        schema.add_relation(Relation::new(t.name.clone(), attrs, &pk)?)?;
    }
    // Foreign keys second so forward references between tables work.
    for t in tables {
        for fk in &t.foreign_keys {
            let from: Vec<&str> = fk.columns.iter().map(String::as_str).collect();
            let to: Vec<&str> = fk.ref_columns.iter().map(String::as_str).collect();
            schema.add_foreign_key(&t.name, &from, &fk.ref_table, &to)?;
        }
    }
    Ok(schema)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        Ok(Parser { toks: lex(src)?, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn advance(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn eat_semicolons(&mut self) {
        while matches!(self.peek(), Tok::Semicolon) {
            self.advance();
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(ParseError::new(format!("unexpected trailing input `{:?}`", self.peek()), self.span()))
        }
    }

    /// Consume a keyword (already lower-cased by the lexer).
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Word(w) if w == kw => {
                self.advance();
                Ok(())
            }
            other => Err(ParseError::new(
                format!("expected `{}`, found `{other:?}`", kw.to_uppercase()),
                self.span(),
            )),
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Word(w) if w == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Word(w) if w == kw)
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Word(w) => {
                if RESERVED.contains(&w.as_str()) {
                    return Err(ParseError::new(
                        format!("expected identifier, found keyword `{}`", w.to_uppercase()),
                        self.span(),
                    ));
                }
                self.advance();
                Ok(w)
            }
            other => {
                Err(ParseError::new(format!("expected identifier, found `{other:?}`"), self.span()))
            }
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.peek_keyword("create") {
            Ok(Statement::CreateTable(self.create_table()?))
        } else if self.peek_keyword("insert") {
            Ok(Statement::Insert(self.insert()?))
        } else {
            Ok(Statement::Query(self.query()?))
        }
    }

    fn insert(&mut self) -> Result<Insert, ParseError> {
        self.keyword("insert")?;
        self.keyword("into")?;
        let table = self.ident()?;
        self.keyword("values")?;
        let mut rows = Vec::new();
        loop {
            match self.advance() {
                Tok::LParen => {}
                other => {
                    return Err(ParseError::new(
                        format!("expected `(` in VALUES, found `{other:?}`"),
                        self.span(),
                    ))
                }
            }
            let mut row = Vec::new();
            loop {
                let v = match self.advance() {
                    Tok::Int(i) => xdata_catalog::Value::Int(i),
                    Tok::Float(x) => xdata_catalog::Value::Double(x),
                    Tok::Str(sv) => xdata_catalog::Value::Str(sv),
                    Tok::Minus => match self.advance() {
                        Tok::Int(i) => xdata_catalog::Value::Int(-i),
                        Tok::Float(x) => xdata_catalog::Value::Double(-x),
                        other => {
                            return Err(ParseError::new(
                                format!("expected number after `-`, found `{other:?}`"),
                                self.span(),
                            ))
                        }
                    },
                    Tok::Word(w) if w == "null" => xdata_catalog::Value::Null,
                    other => {
                        return Err(ParseError::new(
                            format!("expected literal in VALUES, found `{other:?}`"),
                            self.span(),
                        ))
                    }
                };
                row.push(v);
                match self.advance() {
                    Tok::Comma => continue,
                    Tok::RParen => break,
                    other => {
                        return Err(ParseError::new(
                            format!("expected `,` or `)` in VALUES row, found `{other:?}`"),
                            self.span(),
                        ))
                    }
                }
            }
            rows.push(row);
            if matches!(self.peek(), Tok::Comma) {
                self.advance();
                continue;
            }
            break;
        }
        Ok(Insert { table, rows })
    }

    // ---- queries -------------------------------------------------------

    fn query(&mut self) -> Result<Query, ParseError> {
        self.keyword("select")?;
        let distinct = self.try_keyword("distinct");
        let select = self.select_list()?;
        self.keyword("from")?;
        let from = self.from_list()?;
        let mut sinks = WhereSinks::default();
        let where_clause = if self.try_keyword("where") {
            self.condition_conj_with_in(Some(&mut sinks))?
        } else {
            Vec::new()
        };
        let group_by = if self.try_keyword("group") {
            self.keyword("by")?;
            let mut cols = vec![self.colref()?];
            while matches!(self.peek(), Tok::Comma) {
                self.advance();
                cols.push(self.colref()?);
            }
            cols
        } else {
            Vec::new()
        };
        let having = if self.try_keyword("having") {
            let mut conds = vec![self.having_cond()?];
            while self.try_keyword("and") {
                conds.push(self.having_cond()?);
            }
            conds
        } else {
            Vec::new()
        };
        Ok(Query {
            distinct,
            select,
            from,
            where_clause,
            where_in: sinks.ins,
            where_exists: sinks.exists,
            where_like: sinks.likes,
            where_null: sinks.nulls,
            group_by,
            having,
        })
    }

    /// `AGG([DISTINCT] col | *) relop INT`.
    fn having_cond(&mut self) -> Result<HavingCond, ParseError> {
        let name = match self.advance() {
            Tok::Word(w) => w,
            other => {
                return Err(ParseError::new(
                    format!("expected aggregate in HAVING, found `{other:?}`"),
                    self.span(),
                ))
            }
        };
        let op = match name.as_str() {
            "max" => AggOp::Max,
            "min" => AggOp::Min,
            "sum" => AggOp::Sum,
            "avg" => AggOp::Avg,
            "count" => AggOp::Count,
            other => {
                return Err(ParseError::new(
                    format!("HAVING supports aggregate comparisons only, found `{other}`"),
                    self.span(),
                ))
            }
        };
        match self.advance() {
            Tok::LParen => {}
            other => {
                return Err(ParseError::new(
                    format!("expected `(` after {} in HAVING, found `{other:?}`", op.sql_name()),
                    self.span(),
                ))
            }
        }
        let distinct = self.try_keyword("distinct");
        let arg = if matches!(self.peek(), Tok::Star) {
            if op != AggOp::Count || distinct {
                return Err(ParseError::new("only COUNT(*) may use `*`", self.span()));
            }
            self.advance();
            None
        } else {
            Some(self.colref()?)
        };
        match self.advance() {
            Tok::RParen => {}
            other => {
                return Err(ParseError::new(
                    format!("expected `)` in HAVING aggregate, found `{other:?}`"),
                    self.span(),
                ))
            }
        }
        let cmp = match self.advance() {
            Tok::Op(sym) => CompareOp::from_symbol(&sym).ok_or_else(|| {
                ParseError::new(format!("unknown comparison `{sym}`"), self.span())
            })?,
            other => {
                return Err(ParseError::new(
                    format!("expected comparison in HAVING, found `{other:?}`"),
                    self.span(),
                ))
            }
        };
        let value = match self.advance() {
            Tok::Int(i) => i,
            Tok::Minus => match self.advance() {
                Tok::Int(i) => -i,
                other => {
                    return Err(ParseError::new(
                        format!("expected integer after `-`, found `{other:?}`"),
                        self.span(),
                    ))
                }
            },
            other => {
                return Err(ParseError::new(
                    format!("HAVING compares against an integer constant, found `{other:?}`"),
                    self.span(),
                ))
            }
        };
        Ok(HavingCond { op, arg, distinct, cmp, value })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        let mut items = vec![self.select_item()?];
        while matches!(self.peek(), Tok::Comma) {
            self.advance();
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if matches!(self.peek(), Tok::Star) {
            self.advance();
            return Ok(SelectItem::Star);
        }
        if let Tok::Word(w) = self.peek().clone() {
            let agg = match w.as_str() {
                "max" => Some(AggOp::Max),
                "min" => Some(AggOp::Min),
                "sum" => Some(AggOp::Sum),
                "avg" => Some(AggOp::Avg),
                "count" => Some(AggOp::Count),
                _ => None,
            };
            if let Some(op) = agg {
                // Only an aggregate if followed by '('.
                if matches!(self.toks[self.pos + 1].tok, Tok::LParen) {
                    self.advance(); // agg name
                    self.advance(); // (
                    let distinct = self.try_keyword("distinct");
                    let arg = if matches!(self.peek(), Tok::Star) {
                        if op != AggOp::Count {
                            return Err(ParseError::new(
                                format!("`{}(*)` is not valid SQL; only COUNT(*)", op.sql_name()),
                                self.span(),
                            ));
                        }
                        if distinct {
                            return Err(ParseError::new("COUNT(DISTINCT *) is not valid", self.span()));
                        }
                        self.advance();
                        None
                    } else {
                        Some(self.colref()?)
                    };
                    match self.advance() {
                        Tok::RParen => {}
                        other => {
                            return Err(ParseError::new(
                                format!("expected `)` after aggregate, found `{other:?}`"),
                                self.span(),
                            ))
                        }
                    }
                    return Ok(SelectItem::Aggregate { op, arg, distinct });
                }
            }
        }
        Ok(SelectItem::Column(self.colref()?))
    }

    // Parser methods are named after their grammar production; `from_*`
    // here means the FROM clause, not a conversion constructor.
    #[allow(clippy::wrong_self_convention)]
    fn from_list(&mut self) -> Result<Vec<FromItem>, ParseError> {
        let mut items = vec![self.from_item()?];
        while matches!(self.peek(), Tok::Comma) {
            self.advance();
            items.push(self.from_item()?);
        }
        Ok(items)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_item(&mut self) -> Result<FromItem, ParseError> {
        let mut left = self.from_primary()?;
        loop {
            let kind = if self.peek_keyword("join") {
                self.advance();
                JoinKind::Inner
            } else if self.peek_keyword("inner") {
                self.advance();
                self.keyword("join")?;
                JoinKind::Inner
            } else if self.peek_keyword("left") {
                self.advance();
                self.try_keyword("outer");
                self.keyword("join")?;
                JoinKind::Left
            } else if self.peek_keyword("right") {
                self.advance();
                self.try_keyword("outer");
                self.keyword("join")?;
                JoinKind::Right
            } else if self.peek_keyword("full") {
                self.advance();
                self.try_keyword("outer");
                self.keyword("join")?;
                JoinKind::Full
            } else {
                break;
            };
            let right = self.from_primary()?;
            self.keyword("on")?;
            let on = self.condition_conj()?;
            left = FromItem::Join { kind, left: Box::new(left), right: Box::new(right), on };
        }
        Ok(left)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_primary(&mut self) -> Result<FromItem, ParseError> {
        if matches!(self.peek(), Tok::LParen) {
            self.advance();
            let inner = self.from_item()?;
            match self.advance() {
                Tok::RParen => Ok(inner),
                other => Err(ParseError::new(
                    format!("expected `)` in FROM, found `{other:?}`"),
                    self.span(),
                )),
            }
        } else {
            let name = self.ident()?;
            // Optional alias: `t a`, `t AS a`.
            let alias = if self.try_keyword("as")
                || matches!(self.peek(), Tok::Word(w) if !RESERVED.contains(&w.as_str()))
            {
                Some(self.ident()?)
            } else {
                None
            };
            Ok(FromItem::Table { name, alias })
        }
    }

    fn condition_conj(&mut self) -> Result<Vec<Condition>, ParseError> {
        self.condition_conj_with_in(None)
    }

    /// Parse a conjunction; `[NOT] IN (SELECT ...)`, `[NOT] EXISTS`,
    /// `[NOT] LIKE` and `IS [NOT] NULL` conjuncts are only legal when a
    /// `sinks` target is supplied (i.e. in WHERE, not in ON).
    fn condition_conj_with_in(
        &mut self,
        mut sinks: Option<&mut WhereSinks>,
    ) -> Result<Vec<Condition>, ParseError> {
        // The paper writes `ON (i.id = t.id)`; allow parentheses around the
        // whole conjunction (expressions themselves never start with `(`).
        if matches!(self.peek(), Tok::LParen) {
            self.advance();
            let conds = self.condition_conj_with_in(sinks.as_deref_mut())?;
            match self.advance() {
                Tok::RParen => return Ok(conds),
                other => {
                    return Err(ParseError::new(
                        format!("expected `)` after condition, found `{other:?}`"),
                        self.span(),
                    ))
                }
            }
        }
        let mut conds = Vec::new();
        loop {
            if let Some(c) = self.condition_or_in(sinks.as_deref_mut())? { conds.push(c) }
            if !self.try_keyword("and") {
                break;
            }
        }
        Ok(conds)
    }

    /// Parse a parenthesized subquery: `( SELECT ... )`.
    fn subquery(&mut self, after: &str) -> Result<Query, ParseError> {
        match self.advance() {
            Tok::LParen => {}
            other => {
                return Err(ParseError::new(
                    format!("expected `(` after {after}, found `{other:?}`"),
                    self.span(),
                ))
            }
        }
        let sub = self.query()?;
        match self.advance() {
            Tok::RParen => {}
            other => {
                return Err(ParseError::new(
                    format!("expected `)` after {after} subquery, found `{other:?}`"),
                    self.span(),
                ))
            }
        }
        Ok(sub)
    }

    /// One conjunct: a plain comparison, or one of the WHERE-only forms
    /// (`[NOT] IN (subquery)`, `[NOT] EXISTS (subquery)`, `[NOT] LIKE`,
    /// `IS [NOT] NULL`) pushed to its sink (returning `None`).
    fn condition_or_in(
        &mut self,
        sinks: Option<&mut WhereSinks>,
    ) -> Result<Option<Condition>, ParseError> {
        let where_only = |this: &Parser, what: &str| {
            ParseError::new(
                format!("{what} is only supported in the WHERE clause"),
                this.span(),
            )
        };
        // Leading `[NOT] EXISTS (subquery)`: nothing else in the grammar
        // starts with NOT or EXISTS.
        if self.peek_keyword("exists") || self.peek_keyword("not") {
            let negated = self.try_keyword("not");
            self.keyword("exists")?;
            let sub = self.subquery("EXISTS")?;
            return match sinks {
                Some(s) => {
                    s.exists.push(ExistsPred { negated, subquery: Box::new(sub) });
                    Ok(None)
                }
                None => Err(where_only(self, "EXISTS (SELECT ...)")),
            };
        }
        let lhs = self.expr()?;
        // `IS [NOT] NULL`.
        if self.peek_keyword("is") {
            self.advance();
            let negated = self.try_keyword("not");
            self.keyword("null")?;
            return match sinks {
                Some(s) => {
                    s.nulls.push(NullPred { lhs, negated });
                    Ok(None)
                }
                None => Err(where_only(self, "IS [NOT] NULL")),
            };
        }
        // `NOT` after an expression must introduce `NOT IN` or `NOT LIKE`.
        let negated = self.try_keyword("not");
        if self.peek_keyword("in") {
            self.advance();
            let sub = self.subquery("IN")?;
            return match sinks {
                Some(s) => {
                    s.ins.push(InPred { lhs, negated, subquery: Box::new(sub) });
                    Ok(None)
                }
                None => Err(where_only(self, "IN (SELECT ...)")),
            };
        }
        if self.peek_keyword("like") {
            self.advance();
            let pattern = match self.advance() {
                Tok::Str(s) => s,
                other => {
                    return Err(ParseError::new(
                        format!("expected string pattern after LIKE, found `{other:?}`"),
                        self.span(),
                    ))
                }
            };
            return match sinks {
                Some(s) => {
                    s.likes.push(LikePred { lhs, negated, pattern });
                    Ok(None)
                }
                None => Err(where_only(self, "LIKE")),
            };
        }
        if negated {
            return Err(ParseError::new(
                format!("expected IN or LIKE after NOT, found `{:?}`", self.peek()),
                self.span(),
            ));
        }
        Ok(Some(self.condition_tail(lhs)?))
    }

    fn condition_tail(&mut self, lhs: Expr) -> Result<Condition, ParseError> {
        let op = match self.advance() {
            Tok::Op(s) => CompareOp::from_symbol(&s).ok_or_else(|| {
                ParseError::new(format!("unknown comparison operator `{s}`"), self.span())
            })?,
            other => {
                return Err(ParseError::new(
                    format!("expected comparison operator, found `{other:?}`"),
                    self.span(),
                ))
            }
        };
        let rhs = self.expr()?;
        Ok(Condition { lhs, op, rhs })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.operand()?;
        loop {
            let sign = match self.peek() {
                Tok::Plus => 1i64,
                Tok::Minus => -1i64,
                _ => break,
            };
            self.advance();
            let k = match self.advance() {
                Tok::Int(i) => i,
                other => {
                    return Err(ParseError::new(
                        format!(
                            "only column ± integer-constant arithmetic is supported \
                             (assumption A4), found `{other:?}`"
                        ),
                        self.span(),
                    ))
                }
            };
            e = match e {
                Expr::Column(c) => Expr::ColumnPlus(c, sign * k),
                Expr::ColumnPlus(c, k0) => Expr::ColumnPlus(c, k0 + sign * k),
                Expr::Int(i) => Expr::Int(i + sign * k),
                other => {
                    return Err(ParseError::new(
                        format!("cannot apply arithmetic to `{other}`"),
                        self.span(),
                    ))
                }
            };
        }
        Ok(e)
    }

    fn operand(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.advance();
                Ok(Expr::Int(i))
            }
            Tok::Minus => {
                self.advance();
                match self.advance() {
                    Tok::Int(i) => Ok(Expr::Int(-i)),
                    Tok::Float(x) => Ok(Expr::Float(-x)),
                    other => Err(ParseError::new(
                        format!("expected number after `-`, found `{other:?}`"),
                        self.span(),
                    )),
                }
            }
            Tok::Float(x) => {
                self.advance();
                Ok(Expr::Float(x))
            }
            Tok::Str(s) => {
                self.advance();
                Ok(Expr::Str(s))
            }
            Tok::Word(_) => Ok(Expr::Column(self.colref()?)),
            other => {
                Err(ParseError::new(format!("expected expression, found `{other:?}`"), self.span()))
            }
        }
    }

    fn colref(&mut self) -> Result<ColRef, ParseError> {
        let first = self.ident()?;
        if matches!(self.peek(), Tok::Dot) {
            self.advance();
            let col = self.ident()?;
            Ok(ColRef { table: Some(first), column: col })
        } else {
            Ok(ColRef { table: None, column: first })
        }
    }

    // ---- DDL -----------------------------------------------------------

    fn create_table(&mut self) -> Result<CreateTable, ParseError> {
        self.keyword("create")?;
        self.keyword("table")?;
        let name = self.ident()?;
        match self.advance() {
            Tok::LParen => {}
            other => {
                return Err(ParseError::new(
                    format!("expected `(` after table name, found `{other:?}`"),
                    self.span(),
                ))
            }
        }
        let mut columns = Vec::new();
        // Columns the user explicitly declared `NULL` — these stay nullable
        // even as foreign-key columns (§V-H's relaxation of A2).
        let mut explicit_null = Vec::new();
        let mut primary_key = Vec::new();
        let mut foreign_keys = Vec::new();
        loop {
            if self.peek_keyword("primary") {
                self.advance();
                self.keyword("key")?;
                primary_key = self.paren_ident_list()?;
            } else if self.peek_keyword("foreign") {
                self.advance();
                self.keyword("key")?;
                let columns = self.paren_ident_list()?;
                self.keyword("references")?;
                let ref_table = self.ident()?;
                let ref_columns = self.paren_ident_list()?;
                foreign_keys.push(AstForeignKey { columns, ref_table, ref_columns });
            } else {
                let col = self.ident()?;
                let ty = self.sql_type()?;
                let mut nullable = true;
                if self.peek_keyword("not") {
                    self.advance();
                    self.keyword("null")?;
                    nullable = false;
                } else if self.peek_keyword("null") {
                    self.advance();
                    explicit_null.push(col.clone());
                }
                if self.try_keyword("primary") {
                    self.keyword("key")?;
                    primary_key = vec![col.clone()];
                    nullable = false;
                }
                columns.push((col, ty, nullable));
            }
            match self.advance() {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => {
                    return Err(ParseError::new(
                        format!("expected `,` or `)` in CREATE TABLE, found `{other:?}`"),
                        self.span(),
                    ))
                }
            }
        }
        // Primary-key columns are always non-nullable; foreign-key columns
        // default to non-nullable (assumption A2) unless the user wrote an
        // explicit `NULL`, which opts into §V-H's relaxation.
        for (col, _, nullable) in &mut columns {
            let fk_default_non_null = foreign_keys
                .iter()
                .any(|fk| fk.columns.contains(col))
                && !explicit_null.contains(col);
            if primary_key.contains(col) || fk_default_non_null {
                *nullable = false;
            }
        }
        Ok(CreateTable { name, columns, primary_key, foreign_keys })
    }

    fn paren_ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        match self.advance() {
            Tok::LParen => {}
            other => {
                return Err(ParseError::new(format!("expected `(`, found `{other:?}`"), self.span()))
            }
        }
        let mut out = vec![self.ident()?];
        loop {
            match self.advance() {
                Tok::Comma => out.push(self.ident()?),
                Tok::RParen => break,
                other => {
                    return Err(ParseError::new(
                        format!("expected `,` or `)`, found `{other:?}`"),
                        self.span(),
                    ))
                }
            }
        }
        Ok(out)
    }

    fn sql_type(&mut self) -> Result<SqlType, ParseError> {
        let w = self.ident()?;
        let ty = match w.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "date" => SqlType::Int,
            "double" | "float" | "real" | "numeric" | "decimal" => SqlType::Double,
            "varchar" | "char" | "text" | "string" => SqlType::Varchar,
            other => {
                return Err(ParseError::new(format!("unknown SQL type `{other}`"), self.span()))
            }
        };
        // Optional length like VARCHAR(20) / NUMERIC(8,2).
        if matches!(self.peek(), Tok::LParen) {
            self.advance();
            loop {
                match self.advance() {
                    Tok::Int(_) | Tok::Comma => continue,
                    Tok::RParen => break,
                    other => {
                        return Err(ParseError::new(
                            format!("bad type parameter `{other:?}`"),
                            self.span(),
                        ))
                    }
                }
            }
        }
        Ok(ty)
    }
}

/// Collection points for the WHERE-only predicate forms that live outside
/// the plain `Condition` conjunction: `[NOT] IN (subquery)`,
/// `[NOT] EXISTS (subquery)`, `[NOT] LIKE` and `IS [NOT] NULL`.
#[derive(Default)]
struct WhereSinks {
    ins: Vec<InPred>,
    exists: Vec<ExistsPred>,
    likes: Vec<LikePred>,
    nulls: Vec<NullPred>,
}

/// Words that cannot be identifiers (would make the grammar ambiguous).
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "join", "inner", "left", "right", "full", "outer",
    "on", "and", "as", "create", "table", "primary", "foreign", "key", "references", "not",
    "null", "distinct", "having", "or", "order", "union", "in", "exists", "insert", "into", "values",
    "like", "is",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_intro_query_parses() {
        let q = parse_query("SELECT * FROM instructor i, teaches t WHERE i.id = t.id").unwrap();
        assert_eq!(q.select, vec![SelectItem::Star]);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.where_clause.len(), 1);
        assert_eq!(q.where_clause[0].to_string(), "i.id = t.id");
    }

    #[test]
    fn paper_intro_mutant_parses() {
        // Verbatim syntax from the paper's introduction.
        for src in [
            "SELECT * FROM instructor i LEFT OUTER JOIN teaches t ON (i.id = t.id)",
            "SELECT * FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id",
        ] {
            let q = parse_query(src).unwrap();
            match &q.from[0] {
                FromItem::Join { kind, on, .. } => {
                    assert_eq!(*kind, JoinKind::Left);
                    assert_eq!(on.len(), 1);
                }
                x => panic!("unexpected {x:?}"),
            }
        }
    }

    #[test]
    fn join_chain_left_associates() {
        let q = parse_query(
            "SELECT a.x FROM a JOIN b ON a.x = b.x RIGHT JOIN c ON b.x = c.x",
        )
        .unwrap();
        match &q.from[0] {
            FromItem::Join { kind, left, .. } => {
                assert_eq!(*kind, JoinKind::Right);
                assert!(matches!(**left, FromItem::Join { kind: JoinKind::Inner, .. }));
            }
            x => panic!("unexpected {x:?}"),
        }
    }

    #[test]
    fn parenthesized_join_tree() {
        let q = parse_query(
            "SELECT * FROM a FULL OUTER JOIN (b JOIN c ON b.x = c.x) ON a.x = b.x",
        )
        .unwrap();
        match &q.from[0] {
            FromItem::Join { kind, right, .. } => {
                assert_eq!(*kind, JoinKind::Full);
                assert!(matches!(**right, FromItem::Join { .. }));
            }
            x => panic!("unexpected {x:?}"),
        }
    }

    #[test]
    fn aggregates_and_group_by() {
        let q = parse_query(
            "SELECT dept, COUNT(DISTINCT id), SUM(salary), COUNT(*) FROM instructor GROUP BY dept",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        let aggs: Vec<_> = q.aggregates().collect();
        assert_eq!(aggs.len(), 3);
        assert_eq!(aggs[0].0, &AggOp::Count);
        assert!(aggs[0].2); // distinct
        assert!(aggs[2].1.is_none()); // COUNT(*)
    }

    #[test]
    fn arithmetic_folds_to_column_plus() {
        let q = parse_query("SELECT * FROM b, c WHERE b.x = c.x + 10 - 3").unwrap();
        assert_eq!(
            q.where_clause[0].rhs,
            Expr::ColumnPlus(ColRef::new(Some("c"), "x"), 7)
        );
    }

    #[test]
    fn string_and_comparison_ops() {
        let q = parse_query("SELECT * FROM instructor WHERE dept = 'CS' AND salary >= 50000")
            .unwrap();
        assert_eq!(q.where_clause.len(), 2);
        assert_eq!(q.where_clause[0].rhs, Expr::Str("CS".into()));
        assert_eq!(q.where_clause[1].op, CompareOp::Ge);
    }

    #[test]
    fn negative_literal() {
        let q = parse_query("SELECT * FROM r WHERE x > -5").unwrap();
        assert_eq!(q.where_clause[0].rhs, Expr::Int(-5));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("SELECT * FROM r WHERE x = 1 BANANA").is_err());
    }

    #[test]
    fn missing_from_rejected() {
        assert!(parse_query("SELECT *").is_err());
    }

    #[test]
    fn general_arithmetic_rejected_with_assumption_note() {
        let e = parse_query("SELECT * FROM r, s WHERE r.x = s.x + s.y").unwrap_err();
        assert!(e.message.contains("A4"), "{e}");
    }

    #[test]
    fn create_table_with_constraints() {
        let stmt = parse_statement(
            "CREATE TABLE teaches (
                id INT NOT NULL,
                course_id INT,
                sec_id INT,
                year INT,
                PRIMARY KEY (id, course_id, sec_id, year),
                FOREIGN KEY (id) REFERENCES instructor (id),
                FOREIGN KEY (course_id) REFERENCES course (course_id)
            );",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable(t) => {
                assert_eq!(t.name, "teaches");
                assert_eq!(t.columns.len(), 4);
                assert_eq!(t.primary_key.len(), 4);
                assert_eq!(t.foreign_keys.len(), 2);
                // FK columns forced non-nullable (A2).
                assert!(t.columns.iter().all(|(_, _, nullable)| !nullable));
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn inline_primary_key() {
        let stmt = parse_statement("CREATE TABLE d (id INT PRIMARY KEY, name VARCHAR(20))").unwrap();
        match stmt {
            Statement::CreateTable(t) => {
                assert_eq!(t.primary_key, vec!["id".to_string()]);
                assert!(t.columns[1].2); // name nullable
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parse_schema_builds_catalog() {
        let schema = parse_schema(
            "CREATE TABLE instructor (id INT PRIMARY KEY, dept VARCHAR(10));
             CREATE TABLE teaches (id INT, cid INT, PRIMARY KEY (id, cid),
                 FOREIGN KEY (id) REFERENCES instructor (id));",
        )
        .unwrap();
        assert!(schema.relation("teaches").is_some());
        assert_eq!(schema.foreign_keys().len(), 1);
    }

    #[test]
    fn schema_rejects_bad_fk_target() {
        let r = parse_schema(
            "CREATE TABLE a (x INT PRIMARY KEY);
             CREATE TABLE b (x INT, FOREIGN KEY (x) REFERENCES a (nope));",
        );
        assert!(r.is_err());
    }

    #[test]
    fn display_roundtrip_reparses() {
        let srcs = [
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
            "SELECT a.x FROM a LEFT OUTER JOIN b ON a.x = b.x WHERE a.y > 3",
            "SELECT dept, COUNT(*) FROM instructor GROUP BY dept",
            "SELECT * FROM a JOIN b ON a.x = b.x FULL OUTER JOIN c ON b.x = c.x",
        ];
        for s in srcs {
            let q1 = parse_query(s).unwrap();
            let q2 = parse_query(&q1.to_string()).unwrap();
            assert_eq!(q1, q2, "roundtrip failed for {s}: {q1}");
        }
    }

    #[test]
    fn reserved_word_as_identifier_rejected() {
        assert!(parse_query("SELECT * FROM select").is_err());
    }

    #[test]
    fn select_distinct_parses() {
        let q = parse_query("SELECT DISTINCT dept FROM instructor").unwrap();
        assert!(q.distinct);
        let q2 = parse_query("SELECT dept FROM instructor").unwrap();
        assert!(!q2.distinct);
        // Round-trips through Display.
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn having_parses() {
        let q = parse_query(
            "SELECT dept, COUNT(*) FROM instructor GROUP BY dept              HAVING COUNT(*) > 2 AND MIN(salary) >= 10",
        )
        .unwrap();
        assert_eq!(q.having.len(), 2);
        assert_eq!(q.having[0].op, AggOp::Count);
        assert!(q.having[0].arg.is_none());
        assert_eq!(q.having[0].cmp, CompareOp::Gt);
        assert_eq!(q.having[0].value, 2);
        assert_eq!(q.having[1].op, AggOp::Min);
        assert_eq!(q.having[1].value, 10);
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn having_rejects_non_aggregate() {
        assert!(parse_query(
            "SELECT dept, COUNT(*) FROM instructor GROUP BY dept HAVING salary > 2"
        )
        .is_err());
        assert!(parse_query(
            "SELECT dept, COUNT(*) FROM instructor GROUP BY dept HAVING COUNT(*) > dept"
        )
        .is_err());
    }

    #[test]
    fn having_distinct_and_negative_constant() {
        let q = parse_query(
            "SELECT dept, COUNT(*) FROM instructor GROUP BY dept              HAVING SUM(DISTINCT salary) <= -5",
        )
        .unwrap();
        assert!(q.having[0].distinct);
        assert_eq!(q.having[0].value, -5);
    }

    #[test]
    fn insert_statement_parses() {
        let stmt = parse_statement(
            "INSERT INTO instructor VALUES (1, 'Wu', 7, 60000), (2, NULL, -3, 3.5)",
        )
        .unwrap();
        match stmt {
            Statement::Insert(ins) => {
                assert_eq!(ins.table, "instructor");
                assert_eq!(ins.rows.len(), 2);
                assert_eq!(ins.rows[0][1], xdata_catalog::Value::Str("Wu".into()));
                assert_eq!(ins.rows[1][1], xdata_catalog::Value::Null);
                assert_eq!(ins.rows[1][2], xdata_catalog::Value::Int(-3));
                assert_eq!(ins.rows[1][3], xdata_catalog::Value::Double(3.5));
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn parse_script_builds_schema_and_data() {
        let (schema, data) = crate::parser::parse_script(
            "CREATE TABLE r (x INT PRIMARY KEY, name VARCHAR(10));
             INSERT INTO r VALUES (1, 'a');
             INSERT INTO r VALUES (2, 'b'), (3, 'c');",
        )
        .unwrap();
        assert!(schema.relation("r").is_some());
        assert_eq!(data.relation("r").unwrap().len(), 3);
        assert!(data.integrity_violations(&schema).is_empty());
    }

    #[test]
    fn parse_schema_rejects_inserts() {
        assert!(parse_schema(
            "CREATE TABLE r (x INT PRIMARY KEY); INSERT INTO r VALUES (1);"
        )
        .is_err());
    }

    #[test]
    fn alias_forms() {
        let q = parse_query("SELECT * FROM instructor AS i, teaches t").unwrap();
        assert_eq!(q.from[0].binding(), Some("i"));
        assert_eq!(q.from[1].binding(), Some("t"));
    }

    #[test]
    fn in_and_not_in_subqueries_parse() {
        let q = parse_query(
            "SELECT name FROM instructor WHERE id IN (SELECT s_id FROM advisor)",
        )
        .unwrap();
        assert_eq!(q.where_in.len(), 1);
        assert!(!q.where_in[0].negated);

        let q = parse_query(
            "SELECT name FROM instructor WHERE id NOT IN (SELECT s_id FROM advisor) \
             AND salary > 10",
        )
        .unwrap();
        assert_eq!(q.where_in.len(), 1);
        assert!(q.where_in[0].negated);
        assert_eq!(q.where_clause.len(), 1);
        assert!(q.to_string().contains("NOT IN ("), "{q}");
    }

    #[test]
    fn exists_and_not_exists_parse() {
        let q = parse_query(
            "SELECT i.name FROM instructor i WHERE EXISTS \
             (SELECT s_id FROM advisor a WHERE a.i_id = i.id)",
        )
        .unwrap();
        assert_eq!(q.where_exists.len(), 1);
        assert!(!q.where_exists[0].negated);

        let q = parse_query(
            "SELECT i.name FROM instructor i WHERE i.salary > 0 AND NOT EXISTS \
             (SELECT s_id FROM advisor a WHERE a.i_id = i.id)",
        )
        .unwrap();
        assert_eq!(q.where_exists.len(), 1);
        assert!(q.where_exists[0].negated);
        assert!(q.to_string().contains("NOT EXISTS ("), "{q}");
    }

    #[test]
    fn like_and_not_like_parse() {
        let q = parse_query("SELECT name FROM instructor WHERE name LIKE 'W%'").unwrap();
        assert_eq!(q.where_like.len(), 1);
        assert_eq!(q.where_like[0].pattern, "W%");
        assert!(!q.where_like[0].negated);

        let q =
            parse_query("SELECT name FROM instructor WHERE name NOT LIKE '%u' AND salary > 1")
                .unwrap();
        assert!(q.where_like[0].negated);
        assert!(q.to_string().contains("NOT LIKE '%u'"), "{q}");
        // The pattern must be a string literal.
        assert!(parse_query("SELECT name FROM instructor WHERE name LIKE 5").is_err());
    }

    #[test]
    fn is_null_and_is_not_null_parse() {
        let q = parse_query("SELECT * FROM teaches WHERE id IS NULL").unwrap();
        assert_eq!(q.where_null.len(), 1);
        assert!(!q.where_null[0].negated);

        let q = parse_query("SELECT * FROM teaches WHERE id IS NOT NULL").unwrap();
        assert!(q.where_null[0].negated);
        assert!(q.to_string().contains("IS NOT NULL"), "{q}");
    }

    #[test]
    fn where_only_forms_rejected_in_on() {
        for src in [
            "SELECT * FROM a JOIN b ON a.x IN (SELECT x FROM c)",
            "SELECT * FROM a JOIN b ON EXISTS (SELECT x FROM c)",
            "SELECT * FROM a JOIN b ON a.x LIKE 'y%'",
            "SELECT * FROM a JOIN b ON a.x IS NULL",
        ] {
            assert!(parse_query(src).is_err(), "{src}");
        }
    }

    #[test]
    fn dangling_not_rejected() {
        assert!(parse_query("SELECT * FROM a WHERE x NOT = 3").is_err());
        assert!(parse_query("SELECT * FROM a WHERE NOT x = 3").is_err());
    }
}
