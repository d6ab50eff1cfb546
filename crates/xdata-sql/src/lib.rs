//! # xdata-sql
//!
//! A hand-written lexer and recursive-descent parser for the query class of
//! the X-Data paper (*Generating Test Data for Killing SQL Mutants*, Shah et
//! al., §II): single-block SQL queries with
//!
//! * a `FROM` list mixing plain relations and explicit
//!   `[INNER|LEFT|RIGHT|FULL] [OUTER] JOIN ... ON` trees,
//! * a conjunctive `WHERE` clause of simple comparisons
//!   (`expr relop expr`, assumption A5),
//! * optional aggregation (`MAX, MIN, SUM, AVG, COUNT` and their
//!   `DISTINCT` variants) with `GROUP BY` and a conjunctive `HAVING` of
//!   aggregate-versus-integer comparisons (§V-F),
//!
//! plus `CREATE TABLE` DDL with `PRIMARY KEY` / `FOREIGN KEY ... REFERENCES`
//! so whole schemas can be declared in SQL (the paper's assumption A1).
//!
//! The paper used the Apache Derby parser; a dedicated parser for exactly
//! this class keeps the reproduction self-contained (see DESIGN.md).

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;

pub use ast::{
    AggOp, ColRef, CompareOp, Condition, CreateTable, Expr, FromItem, InPred, JoinKind, Query,
    SelectItem, Statement,
};
pub use error::{ParseError, Span};
pub use parser::{parse_query, parse_schema, parse_script, parse_statement};
