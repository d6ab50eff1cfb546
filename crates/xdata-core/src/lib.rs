//! # xdata-core
//!
//! The primary contribution of *"Generating Test Data for Killing SQL
//! Mutants: A Constraint-based Approach"* (Shah, Sudarshan, Kajbaje,
//! Patidar, Gupta, Vira): given a query and a schema, generate a test
//! suite — a set of small datasets — that kills every non-equivalent mutant
//! in the paper's mutation space, using a number of datasets **linear** in
//! the query size even though the mutant space is exponential.
//!
//! The pipeline follows Algorithm 1 of the paper:
//!
//! 1. preprocess (equivalence classes, foreign-key closure — done by
//!    `xdata-relalg` and `xdata-catalog`);
//! 2. [`generate()`](generate::generate) a dataset satisfying the original query, so the tester
//!    sees a non-empty result and empty-result mutants die;
//! 3. `killEquivalenceClasses` (Algorithm 2) — for each element of each
//!    equivalence class, a dataset *nullifying* that attribute (together
//!    with all foreign keys referencing it) against the rest of the class;
//! 4. `killOtherPredicates` (Algorithm 3) — for each non-equijoin predicate
//!    and each participating relation, a dataset where no tuple of that
//!    relation satisfies the predicate;
//! 5. `killComparisonOperators` — three datasets (`=`, `<`, `>`) per
//!    comparison conjunct;
//! 6. `killAggregates` (Algorithm 4) — per aggregate, a dataset with three
//!    tuple sets (two duplicated values plus one distinct) per group.
//!
//! Constraint sets that come back **unsatisfiable are not errors**: they
//! identify equivalent mutant groups (§V-A), and the suite records them.
//!
//! The [`kill`] module wraps `xdata-engine` to evaluate a suite against the
//! full mutation space, reproducing the paper's evaluation loop; the
//! [`baseline`] module reimplements the earlier approach of reference \[14\]
//! (datasets drawn from an input database only, no constraint-solver
//! synthesis) for the §VI-C comparison.

pub mod baseline;
pub mod builder;
pub mod error;
pub mod generate;
pub mod grade;
pub mod having;
pub mod materialize;
pub mod minimize;
pub mod suite;
pub mod warm;

pub use error::{GenError, XDataError};
pub use generate::{generate, generate_cancellable, generate_with_oracle, Oracle};
pub use grade::{
    grade_batch, grade_batch_cancellable, BatchGradeReport, CandidateOutcome, CandidateVerdict,
    EMPTY_SUITE_VERDICT, PARTIAL_SUITE_MARKER,
};
pub use minimize::minimize_suite;
pub use suite::{FaultPlan, GenOptions, GeneratedDataset, SkipReason, SkippedTarget, TestSuite};
pub use warm::{content_key, WarmCache};
pub use xdata_par::CancelToken;

/// Re-export of the evaluation loop (suite × mutation space → kill matrix).
pub mod kill {
    pub use xdata_engine::kill::{
        execute_mutant, kill_report, kill_report_cancel, kills, KillReport,
    };
}
