//! # xdata-solver
//!
//! A from-scratch constraint solver playing the role CVC3 plays in the
//! X-Data paper (*Generating Test Data for Killing SQL Mutants*, Shah et
//! al.): given constraints over the attributes of tuples-to-be-generated,
//! produce a model (an assignment of values) or report that the constraints
//! are inconsistent — which, in X-Data, signals an *equivalent mutant*.
//!
//! ## Constraint language
//!
//! Exactly what X-Data's constraint generation emits (§V):
//!
//! * **Tuple arrays** — each base relation maps to an array of constraint
//!   tuples; each attribute of each tuple is an integer variable
//!   ([`Problem::add_array`]). String attributes are integer-coded by the
//!   caller (see `xdata-catalog::DomainCatalog`).
//! * **Atoms** — `term ⋈ term` where `⋈ ∈ {=, ≠, <, ≤, >, ≥}` and terms are
//!   `attribute + constant` or constants: integer difference logic, which
//!   covers equi-joins, selections against constants, and non-equi joins
//!   like `B.x = C.x + 10` (§V-D).
//! * **Boolean structure** — `AND`, `OR`, `NOT`.
//! * **Bounded quantifiers** — `FORALL`/`EXISTS` over the indices of a tuple
//!   array, used for foreign keys (`∀i ∃j R[i].fk = S[j].pk`), primary-key
//!   functional dependencies, and the `NOT EXISTS` constraints that nullify
//!   a relation on a join condition.
//!
//! ## Solving modes (§VI-B)
//!
//! * [`Mode::Unfold`] — bounded quantifiers are expanded into finite
//!   conjunctions/disjunctions up-front, then a search over the ground
//!   formula with an integer-difference-logic theory (negative-cycle
//!   detection) decides satisfiability. This is the paper's "with
//!   unfolding" configuration.
//! * [`Mode::Lazy`] — quantifiers stay symbolic; the solver finds a model of
//!   the ground part, checks the quantified constraints against it, and on
//!   violation instantiates just the violated instance and re-solves
//!   (model-based quantifier instantiation). This is the "without
//!   unfolding" configuration: complete for bounded quantifiers, but
//!   repeatedly pays the ground-solving cost, reproducing the paper's
//!   observed slowdown.
//!
//! Both modes are sound and complete for this language, so `Unsat` really
//! means "no such dataset exists" — the completeness guarantee of §V-G
//! rests on this.
//!
//! ## Ground search
//!
//! One engine decides the ground formula in production: **CDCL-lite**
//! (`cdcl` module) — conflict-driven clause learning with 1-UIP learned
//! clauses, non-chronological backjumping, theory conflicts explained by
//! the difference-logic negative cycle, VSIDS-style activity ordering
//! (deterministically tie-broken) and Luby restarts that keep learned
//! clauses. The original chronological-backtracking **DPLL** ([`search`]
//! module) survives only as a differential-testing oracle,
//! [`solve_dpll`], which no production path calls.
//!
//! ## Incremental sessions
//!
//! X-Data solves families of near-identical problems: dozens of targets
//! per query share one constraint skeleton and differ only in small
//! deltas. [`SolveSession`] lowers the skeleton once and solves each
//! target under assumptions (selector-guarded deltas), retaining learned
//! clauses, branching activities, and saved phases across targets — see
//! the [`session`] module docs for the encoding and its soundness
//! argument.
//!
//! ## Cancellation
//!
//! Every solve entry point has a `_cancel` variant threading an
//! [`xdata_par::CancelToken`] into the hot loops: the search checks the
//! token every [`search::CANCEL_CHECK_INTERVAL`] steps and exits with
//! `Cancelled` once it trips (wall-clock deadline or explicit request).
//! `Cancelled` is *not* a verdict — it says the caller withdrew its time
//! budget, so it must never be cached or treated as `Unsat`.

pub mod atom;
mod cdcl;
pub mod eval;
pub mod formula;
pub mod ids;
pub mod nnf;
pub mod problem;
pub mod search;
pub mod session;
pub mod strings;
pub mod theory;
pub mod unfold;

pub use atom::{Atom, RelOp, Term};
pub use formula::Formula;
pub use ids::{ArrayId, ArraySpec, QVarId, VarId, VarTable};
pub use problem::{solve_dpll, Mode, Model, Problem, SolveOutcome};
pub use search::{CANCEL_CHECK_INTERVAL, DEFAULT_DECISION_LIMIT};
pub use session::SolveSession;
pub use strings::{membership_formula, LikePattern};
pub use xdata_par::CancelToken;

/// Run `f` under a fresh metrics recorder on this thread and return its
/// result with what the recorder collected.
#[cfg(test)]
pub(crate) fn recorded<T>(f: impl FnOnce() -> T) -> (T, xdata_obs::MetricsReport) {
    xdata_obs::install();
    let out = f();
    (out, xdata_obs::take_report().expect("recorder installed"))
}
