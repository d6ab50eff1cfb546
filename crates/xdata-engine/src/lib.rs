//! # xdata-engine
//!
//! A small in-memory relational executor, playing the role the paper's
//! evaluation delegates to a DBMS: "for each such mutant, we execute a
//! database query to check if the original query and the mutant return
//! different results" (§VI-C). It implements exactly the paper's query
//! class with faithful SQL semantics:
//!
//! * **bag semantics** — duplicates preserved end-to-end;
//! * **three-valued logic** — join and selection conditions qualify a row
//!   only when definitely true; outer joins NULL-extend the other side;
//! * **all four join types** and per-node join conditions, with selections
//!   applied at the leaves (the paper pushes selections down, §II);
//! * **the eight aggregation operators** with SQL NULL handling (`COUNT(*)`
//!   counts rows; other aggregates skip NULLs; empty input yields NULL for
//!   everything except `COUNT`, which yields 0).
//!
//! Results are [`ResultSet`]s compared as sorted bags; a mutant is *killed*
//! by a dataset exactly when its result differs from the original's
//! ([`kill::kills`]).

pub mod agg;
pub mod error;
pub mod exec;
mod extended;
pub mod kill;
pub mod result;

pub use error::EngineError;
pub use exec::{execute_query, execute_query_strategy, execute_with_tree_strategy, JoinStrategy};
pub use kill::{execute_mutant, kills, KillReport, PreparedMutant};
pub use result::ResultSet;
