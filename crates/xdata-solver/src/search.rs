//! Ground search over quantifier-free formulas with the difference-logic
//! theory.
//!
//! * The production core is conflict-driven clause learning "lite"
//!   (implemented in the `cdcl` module, entered through
//!   [`solve_ground_cancel`]): theory conflicts are explained by the
//!   difference-logic negative cycle, conflicts are analyzed to a 1-UIP
//!   learned clause, the search backjumps non-chronologically, decisions
//!   follow an activity-bumped (VSIDS-style, deterministically
//!   tie-broken) heuristic, and Luby-sequence restarts keep learned
//!   clauses.
//! * The original chronological-backtracking DPLL stays as a reference
//!   oracle only ([`crate::solve_dpll`]; no production path calls it): it
//!   walks the formula under the current partial assignment, prefers
//!   *unit* picks, branches on the chosen atom and asserts the matching
//!   difference bounds into the theory, and on conflict rewinds one
//!   decision. Differential tests cross-check its verdicts against CDCL.
//!
//! Both cores share the canonical atom form defined here: strict operators
//! are absorbed into constants (`x < k ⇔ x ≤ k−1`) and two-variable atoms
//! order their variables, so syntactically different but semantically
//! identical atoms share one assignment slot. `=` decided false is not a
//! single bound; DPLL branches twice (`<` then `>`) while CDCL introduces
//! the split atoms with an axiom clause `(x = k) ∨ (x ≤ k−1) ∨ (x ≥ k+1)`.
//!
//! Each core is complete over the exhaustive branch set and the theory is
//! decidable, hence `Unsat` is a proof that no model exists — the property
//! X-Data's completeness guarantee (§V-G) relies on to equate "no dataset"
//! with "equivalent mutant".

use std::collections::HashMap;

use xdata_par::CancelToken;

use crate::atom::{Diff, RelOp};
use crate::formula::Formula;
use crate::ids::VarTable;
use crate::theory::{bounds_for, Bound, DiffLogic};

/// Canonical form of a decision atom. Strict operators are absorbed into
/// constants (`x < k ⇔ x ≤ k−1`), two-variable atoms order their variables,
/// so syntactically different but semantically identical atoms share one
/// assignment slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    /// `x ⋈ k` with `⋈ ∈ {Eq, Le, Ge}`.
    One { x: u32, op: CanonOp, k: i64 },
    /// `x − y ⋈ k` with `x < y` and `⋈ ∈ {Eq, Le, Ge}`.
    Two { x: u32, y: u32, op: CanonOp, k: i64 },
    /// A per-target activation guard used by incremental sessions: a pure
    /// boolean atom with no theory meaning (its bound set is empty either
    /// way). Target `id`'s delta constraints are guarded by
    /// `¬selectorᵢ ∨ delta`, and each session solve assumes exactly one
    /// selector true — which is what makes every clause learned inside one
    /// target's solve globally valid for all the others.
    Selector { id: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CanonOp {
    Eq,
    Le,
    Ge,
}

fn canon_op(op: RelOp, k: i64) -> (CanonOp, i64) {
    match op {
        RelOp::Eq => (CanonOp::Eq, k),
        RelOp::Le => (CanonOp::Le, k),
        RelOp::Lt => (CanonOp::Le, k - 1),
        RelOp::Ge => (CanonOp::Ge, k),
        RelOp::Gt => (CanonOp::Ge, k + 1),
        RelOp::Ne => unreachable!("Ne eliminated during NNF"),
    }
}

pub(crate) fn canon(diff: Diff) -> Result<Key, bool> {
    match diff {
        Diff::Ground(b) => Err(b),
        Diff::OneVar { x, op, k } => {
            let (op, k) = canon_op(op, k);
            Ok(Key::One { x: x.0, op, k })
        }
        Diff::TwoVar { x, y, op, k } => {
            let (x, y, op, k) =
                if x.0 < y.0 { (x.0, y.0, op, k) } else { (y.0, x.0, op.flip(), -k) };
            let (op, k) = canon_op(op, k);
            Ok(Key::Two { x, y, op, k })
        }
    }
}

impl Key {
    fn diff(self, op: RelOp, k: i64) -> Diff {
        match self {
            Key::One { x, .. } => Diff::OneVar { x: crate::ids::VarId(x), op, k },
            Key::Two { x, y, .. } => {
                Diff::TwoVar { x: crate::ids::VarId(x), y: crate::ids::VarId(y), op, k }
            }
            Key::Selector { .. } => unreachable!("selector atoms carry no difference"),
        }
    }

    pub(crate) fn op(self) -> CanonOp {
        match self {
            Key::One { op, .. } | Key::Two { op, .. } => op,
            // Any non-`Eq` op: selectors must never join the lazy Eq-split
            // machinery, and they never reach the theory.
            Key::Selector { .. } => CanonOp::Le,
        }
    }

    pub(crate) fn k(self) -> i64 {
        match self {
            Key::One { k, .. } | Key::Two { k, .. } => k,
            Key::Selector { .. } => 0,
        }
    }

    /// The key with the same variables but a different canonical operator
    /// and constant — used by CDCL to intern the `<`/`>` split atoms of a
    /// disequality.
    pub(crate) fn with_op(self, op: CanonOp, k: i64) -> Key {
        match self {
            Key::One { x, .. } => Key::One { x, op, k },
            Key::Two { x, y, .. } => Key::Two { x, y, op, k },
            Key::Selector { .. } => unreachable!("selector atoms have no split form"),
        }
    }

    /// The difference bounds asserted when this atom is assigned `value`,
    /// or `None` for `Eq` assigned false (a disjunction, not a bound).
    pub(crate) fn bounds_when(self, value: bool, zero: u32) -> Option<Vec<Bound>> {
        // A selector is a free boolean: either polarity asserts nothing
        // (same shape as a `Diff::Ground` atom's empty bound set).
        if matches!(self, Key::Selector { .. }) {
            return Some(Vec::new());
        }
        let (op, k) = (self.op(), self.k());
        match (op, value) {
            (CanonOp::Le, true) => bounds_for(self.diff(RelOp::Le, k), true, zero),
            (CanonOp::Le, false) => bounds_for(self.diff(RelOp::Ge, k + 1), true, zero),
            (CanonOp::Ge, true) => bounds_for(self.diff(RelOp::Ge, k), true, zero),
            (CanonOp::Ge, false) => bounds_for(self.diff(RelOp::Le, k - 1), true, zero),
            (CanonOp::Eq, true) => bounds_for(self.diff(RelOp::Eq, k), true, zero),
            (CanonOp::Eq, false) => None,
        }
    }

    /// The branches to try when deciding this atom: `(assigned value,
    /// difference bounds to assert)`. Exhaustive over the atom's semantics.
    fn branches(self, zero: u32) -> Vec<(bool, Vec<Bound>)> {
        if matches!(self, Key::Selector { .. }) {
            // DPLL never lowers session formulas, but stay exhaustive: a
            // free boolean branches on both polarities with no bounds.
            return vec![(true, Vec::new()), (false, Vec::new())];
        }
        let (op, k) = (self.op(), self.k());
        match op {
            CanonOp::Le => vec![
                (true, bounds_for(self.diff(RelOp::Le, k), true, zero).expect("Le is a bound")),
                (false, bounds_for(self.diff(RelOp::Ge, k + 1), true, zero).expect("Ge is a bound")),
            ],
            CanonOp::Ge => vec![
                (true, bounds_for(self.diff(RelOp::Ge, k), true, zero).expect("Ge is a bound")),
                (false, bounds_for(self.diff(RelOp::Le, k - 1), true, zero).expect("Le is a bound")),
            ],
            CanonOp::Eq => vec![
                (true, bounds_for(self.diff(RelOp::Eq, k), true, zero).expect("Eq is bounds")),
                (false, bounds_for(self.diff(RelOp::Le, k - 1), true, zero).expect("Le is a bound")),
                (false, bounds_for(self.diff(RelOp::Ge, k + 1), true, zero).expect("Ge is a bound")),
            ],
        }
    }
}

/// Search statistics for one ground solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    pub decisions: u64,
    pub conflicts: u64,
    pub theory_relaxations: u64,
    /// Unit propagations: assignments that were *forced* — by a clause
    /// becoming unit (CDCL), or by the formula walk finding an atom under
    /// conjunctions and single-live-child disjunctions only (both cores).
    pub propagations: u64,
    /// 1 when this call exhausted its decision budget and returned
    /// [`GroundResult::Unknown`], 0 otherwise — summable across calls.
    pub unknown_exits: u64,
    /// Clauses learned from conflict analysis (CDCL only).
    pub learned_clauses: u64,
    /// Luby-scheduled restarts taken (CDCL only); learned clauses and
    /// activities survive each restart.
    pub restarts: u64,
    /// Cooperative cancellation checks performed in the hot loop (one
    /// every [`CANCEL_CHECK_INTERVAL`] search steps). Deterministic for a
    /// deterministic solve: the step count is a function of the formula,
    /// not the schedule.
    pub cancel_checks: u64,
    /// Decisions that re-descended with a previously saved (non-fresh)
    /// polarity. Only incremental sessions enable phase saving, so this is
    /// always 0 for fresh solves.
    pub phase_saves: u64,
    /// Learned clauses surviving the most recent clause-DB reduction
    /// (incremental sessions only; 0 when no reduction ran).
    pub clause_db_kept: u64,
    /// Learned clauses tombstoned by the most recent clause-DB reduction
    /// (incremental sessions only; 0 when no reduction ran).
    pub clause_db_dropped: u64,
}

/// Result of the ground search.
pub enum GroundResult {
    Sat(Vec<i64>),
    Unsat,
    /// Decision limit exceeded — never observed on X-Data workloads, but
    /// surfaced rather than looping forever on adversarial inputs.
    Unknown,
    /// The [`CancelToken`] tripped (deadline expired or explicit cancel)
    /// before a verdict. Unlike [`GroundResult::Unknown`] this says the
    /// *caller* ran out of wall-clock budget, not that the search ran out
    /// of decisions.
    Cancelled,
}

/// A ground search core: formula, variables, decision budget, token.
pub(crate) type GroundSolver =
    fn(&Formula, &VarTable, u64, &CancelToken) -> (GroundResult, SearchStats);

/// Search steps between cooperative [`CancelToken`] checks. Small enough
/// that a 1 ms per-target deadline is honoured promptly (one step is a
/// handful of propagations), large enough that the `Instant` read
/// disappears in the noise. The check also runs at step 0, so a token that
/// is already tripped (synthetic chaos expiry) exits before any work.
pub const CANCEL_CHECK_INTERVAL: u64 = 64;

struct Searcher<'a> {
    vars: &'a VarTable,
    th: DiffLogic,
    assign: HashMap<Key, bool>,
    stats: SearchStats,
    decision_limit: u64,
    cancel: &'a CancelToken,
    /// Search steps since start, for the cancellation check cadence.
    steps: u64,
}

enum Ev {
    True,
    False,
    /// Undecided; `score` is the branching breadth of the tightest
    /// disjunction the pick was found in: 1 means the atom is *forced true*
    /// under the current assignment (unit), larger means a genuine choice
    /// point. The search prefers small scores (fail-first).
    Undef { pick: Key, score: u32 },
}

impl<'a> Searcher<'a> {
    fn eval_pick(&self, f: &Formula) -> Ev {
        match f {
            Formula::True => Ev::True,
            Formula::False => Ev::False,
            Formula::Atom(a) => match canon(a.to_diff(self.vars)) {
                Err(b) => {
                    if b {
                        Ev::True
                    } else {
                        Ev::False
                    }
                }
                Ok(key) => match self.assign.get(&key) {
                    Some(true) => Ev::True,
                    Some(false) => Ev::False,
                    None => Ev::Undef { pick: key, score: 1 },
                },
            },
            Formula::And(xs) => {
                let mut best: Option<(Key, u32)> = None;
                for x in xs {
                    match self.eval_pick(x) {
                        Ev::False => return Ev::False,
                        Ev::True => {}
                        Ev::Undef { pick, score } => {
                            if best.map(|(_, s)| score < s).unwrap_or(true) {
                                best = Some((pick, score));
                                if score == 1 {
                                    // Cannot do better than a unit pick.
                                    return Ev::Undef { pick, score };
                                }
                            }
                        }
                    }
                }
                match best {
                    None => Ev::True,
                    Some((pick, score)) => Ev::Undef { pick, score },
                }
            }
            Formula::Or(xs) => {
                let mut undef: Vec<(Key, u32)> = Vec::new();
                for x in xs {
                    match self.eval_pick(x) {
                        Ev::True => return Ev::True,
                        Ev::False => {}
                        Ev::Undef { pick, score } => undef.push((pick, score)),
                    }
                }
                match undef.len() {
                    0 => Ev::False,
                    // Exactly one live child: the Or forces that branch, so
                    // the child's own score stands (possibly unit).
                    1 => Ev::Undef { pick: undef[0].0, score: undef[0].1 },
                    // A real choice point: breadth = number of live
                    // children (at least), picking the child with the
                    // smallest inner score.
                    k => {
                        let (pick, inner) =
                            *undef.iter().min_by_key(|(_, s)| *s).expect("non-empty");
                        Ev::Undef { pick, score: inner.max(k as u32) }
                    }
                }
            }
            Formula::Not(x) => match self.eval_pick(x) {
                Ev::True => Ev::False,
                Ev::False => Ev::True,
                // Under negation "forced true" flips meaning; NNF input
                // never has Not, but stay sound for raw callers.
                Ev::Undef { pick, score } => Ev::Undef { pick, score: score.max(2) },
            },
            Formula::Forall { .. } | Formula::Exists { .. } => {
                panic!("quantifier reached ground search; unfold or instantiate first")
            }
        }
    }

    fn dpll(&mut self, root: &Formula) -> Option<GroundResult> {
        if self.steps.is_multiple_of(CANCEL_CHECK_INTERVAL) {
            self.stats.cancel_checks += 1;
            if self.cancel.is_cancelled() {
                return Some(GroundResult::Cancelled);
            }
        }
        self.steps += 1;
        match self.eval_pick(root) {
            Ev::True => Some(GroundResult::Sat(self.th.model())),
            Ev::False => None,
            Ev::Undef { pick, score } => {
                if self.stats.decisions >= self.decision_limit {
                    return Some(GroundResult::Unknown);
                }
                let mut branches = pick.branches(self.th.zero());
                if score == 1 {
                    self.stats.propagations += 1;
                    // The atom sits under conjunctions and forced (single
                    // live child) disjunctions only: it must be true here,
                    // so never explore its false branches. This is unit
                    // propagation, crucial on the root-level domain/equality
                    // conjuncts and on nearly-exhausted FK disjunctions.
                    branches.retain(|(v, _)| *v);
                }
                for (val, bounds) in branches {
                    self.stats.decisions += 1;
                    self.th.push_level();
                    if self.th.assert_all(&bounds) {
                        self.assign.insert(pick, val);
                        match self.dpll(root) {
                            Some(r) => return Some(r),
                            None => {
                                self.assign.remove(&pick);
                            }
                        }
                    }
                    self.stats.conflicts += 1;
                    self.th.pop_level();
                }
                None
            }
        }
    }
}

/// Default decision budget: far above anything X-Data workloads need, a
/// backstop against adversarial inputs.
pub const DEFAULT_DECISION_LIMIT: u64 = 50_000_000;

/// Decide a ground NNF formula (no quantifiers, no `Ne` atoms) with the
/// CDCL core under a [`CancelToken`]. Returns the model as a flat
/// `VarId`-indexed vector when satisfiable, and [`GroundResult::Unknown`]
/// once `decision_limit` is spent. The hot loop checks the token every
/// [`CANCEL_CHECK_INTERVAL`] steps and exits with
/// [`GroundResult::Cancelled`] once it trips. When the token carries a
/// real wall-clock deadline, the overshoot (gap between expiry and the
/// check noticing) lands in the `solver.cancel_latency` histogram;
/// synthetic cancellation records nothing, keeping chaos-test metrics
/// deterministic.
pub fn solve_ground_cancel(
    f: &Formula,
    vars: &VarTable,
    decision_limit: u64,
    cancel: &CancelToken,
) -> (GroundResult, SearchStats) {
    let (result, stats, backjumps, lbds) = crate::cdcl::solve(f, vars, decision_limit, cancel);
    record_search_obs(&result, &stats, &backjumps, &lbds, cancel);
    (result, stats)
}

/// Wire one ground solve's stats into the calling thread's recorder (a
/// no-op unless a metrics sink is installed). Recorded once per ground
/// solve, not per decision, so the instrumented hot path stays hot. Shared
/// between the ground solvers here and the incremental session, which
/// bypasses [`solve_ground_cancel`].
pub(crate) fn record_search_obs(
    result: &GroundResult,
    stats: &SearchStats,
    backjumps: &[u64],
    lbds: &[u64],
    cancel: &CancelToken,
) {
    xdata_obs::counter("solver.decisions", stats.decisions);
    xdata_obs::counter("solver.conflicts", stats.conflicts);
    xdata_obs::counter("solver.propagations", stats.propagations);
    xdata_obs::counter("solver.theory_relaxations", stats.theory_relaxations);
    xdata_obs::counter("solver.unknown_exits", stats.unknown_exits);
    xdata_obs::counter("solver.learned_clauses", stats.learned_clauses);
    xdata_obs::counter("solver.restarts", stats.restarts);
    xdata_obs::counter("solver.cancel_checks", stats.cancel_checks);
    xdata_obs::counter("solver.phase_saves", stats.phase_saves);
    xdata_obs::counter("solver.clause_db.kept", stats.clause_db_kept);
    xdata_obs::counter("solver.clause_db.dropped", stats.clause_db_dropped);
    xdata_obs::observe_all("solver.backjump_depth", backjumps);
    xdata_obs::observe_all("solver.clause_lbd", lbds);
    if matches!(result, GroundResult::Cancelled) {
        if let Some(over) = cancel.overshoot() {
            // Only a real wall-clock expiry has a latency; synthetic
            // (chaos) cancellation must not perturb the metrics report.
            xdata_obs::observe("solver.cancel_latency", over.as_nanos() as u64);
        }
    }
    // One timeline event per ground solve summarizing the search — the
    // per-decision/per-conflict firehose would bloat traces by orders of
    // magnitude, so the batch totals are the compromise (restarts do get
    // their own instants: rare and diagnostically loud).
    xdata_obs::instant("solver.solve", || {
        let verdict = match result {
            GroundResult::Sat(_) => "sat",
            GroundResult::Unsat => "unsat",
            GroundResult::Unknown => "unknown",
            GroundResult::Cancelled => "cancelled",
        };
        format!(
            "{verdict} ({} decisions, {} conflicts, {} restarts)",
            stats.decisions, stats.conflicts, stats.restarts
        )
    });
}

/// Decide a ground NNF formula with the chronological DPLL core — the
/// reference oracle behind [`crate::solve_dpll`]. Same contract as
/// [`solve_ground_cancel`].
pub(crate) fn dpll_ground(
    f: &Formula,
    vars: &VarTable,
    decision_limit: u64,
    cancel: &CancelToken,
) -> (GroundResult, SearchStats) {
    let mut s = Searcher {
        vars,
        th: DiffLogic::new(vars.num_vars()),
        assign: HashMap::new(),
        stats: SearchStats::default(),
        decision_limit,
        cancel,
        steps: 0,
    };
    let result = match s.dpll(f) {
        Some(r) => r,
        None => GroundResult::Unsat,
    };
    s.stats.theory_relaxations = s.th.relaxations;
    if matches!(result, GroundResult::Unknown) {
        s.stats.unknown_exits = 1;
    }
    record_search_obs(&result, &s.stats, &[], &[], cancel);
    (result, s.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Term;
    use crate::eval::eval;
    use crate::ids::{ArrayId, ArraySpec};
    use crate::nnf::to_nnf;

    /// The production CDCL core and the DPLL oracle, CDCL first.
    const CORES: [(&str, GroundSolver); 2] = [("cdcl", solve_ground_cancel), ("dpll", dpll_ground)];

    fn solve(
        core: GroundSolver,
        f: &Formula,
        vt: &VarTable,
        limit: u64,
    ) -> (GroundResult, SearchStats) {
        core(f, vt, limit, &CancelToken::new())
    }

    fn vars(len: u32) -> VarTable {
        VarTable::new(&[ArraySpec { name: "r".into(), len, fields: 2 }])
    }

    fn fld(i: u32, f: u32) -> Term {
        Term::field(ArrayId(0), i, f)
    }

    /// Check SAT on both cores; return the CDCL model.
    fn check_sat(f: &Formula, vt: &VarTable) -> Vec<i64> {
        let nf = to_nnf(f);
        let mut model = None;
        for (core, solver) in CORES {
            match solve(solver, &nf, vt, DEFAULT_DECISION_LIMIT).0 {
                GroundResult::Sat(m) => {
                    assert!(
                        eval(f, &m, vt),
                        "{core:?} model does not satisfy formula: {f} / {m:?}"
                    );
                    if core == "cdcl" {
                        model = Some(m);
                    }
                }
                GroundResult::Unsat => panic!("{core:?}: expected sat: {f}"),
                GroundResult::Unknown => panic!("{core:?}: unknown: {f}"),
                GroundResult::Cancelled => panic!("{core:?}: cancelled: {f}"),
            }
        }
        model.expect("CDCL ran")
    }

    fn check_unsat(f: &Formula, vt: &VarTable) {
        let nf = to_nnf(f);
        for (core, solver) in CORES {
            assert!(
                matches!(
                    solve(solver, &nf, vt, DEFAULT_DECISION_LIMIT).0,
                    GroundResult::Unsat
                ),
                "{core:?}: expected unsat: {f}"
            );
        }
    }

    #[test]
    fn simple_conjunction() {
        let vt = vars(1);
        let f = Formula::and([
            Formula::atom(fld(0, 0), RelOp::Ge, Term::Const(3)),
            Formula::atom(fld(0, 0), RelOp::Le, Term::Const(5)),
            Formula::atom(fld(0, 1), RelOp::Eq, fld(0, 0).plus(1)),
        ]);
        let m = check_sat(&f, &vt);
        assert!(m[0] >= 3 && m[0] <= 5);
        assert_eq!(m[1], m[0] + 1);
    }

    #[test]
    fn contradiction_detected() {
        let vt = vars(1);
        let f = Formula::and([
            Formula::atom(fld(0, 0), RelOp::Lt, Term::Const(3)),
            Formula::atom(fld(0, 0), RelOp::Gt, Term::Const(3)),
        ]);
        check_unsat(&f, &vt);
    }

    #[test]
    fn disjunction_explored() {
        let vt = vars(1);
        // (x = 1 ∨ x = 7) ∧ x > 3  ⇒  x = 7
        let f = Formula::and([
            Formula::or([
                Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(1)),
                Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(7)),
            ]),
            Formula::atom(fld(0, 0), RelOp::Gt, Term::Const(3)),
        ]);
        let m = check_sat(&f, &vt);
        assert_eq!(m[0], 7);
    }

    #[test]
    fn disequality_via_ne() {
        let vt = vars(2);
        // r[0].0 = r[1].0 ∧ r[0].0 ≠ r[1].0 is unsat.
        let f = Formula::and([
            Formula::atom(fld(0, 0), RelOp::Eq, fld(1, 0)),
            Formula::atom(fld(0, 0), RelOp::Ne, fld(1, 0)),
        ]);
        check_unsat(&f, &vt);
        // alone, ≠ is satisfiable.
        let g = Formula::atom(fld(0, 0), RelOp::Ne, fld(1, 0));
        let m = check_sat(&g, &vt);
        assert_ne!(m[0], m[2]);
    }

    #[test]
    fn negated_conjunction() {
        let vt = vars(1);
        // ¬(x ≥ 0 ∧ x ≤ 10) ∧ x ≥ −5 ⇒ x ∈ [−5, −1] (or > 10).
        let f = Formula::and([
            Formula::not(Formula::and([
                Formula::atom(fld(0, 0), RelOp::Ge, Term::Const(0)),
                Formula::atom(fld(0, 0), RelOp::Le, Term::Const(10)),
            ])),
            Formula::atom(fld(0, 0), RelOp::Ge, Term::Const(-5)),
        ]);
        let m = check_sat(&f, &vt);
        assert!(m[0] < 0 || m[0] > 10);
    }

    #[test]
    fn integer_tightness() {
        let vt = vars(2);
        // x < y ∧ y < x + 2  ⇒  y = x + 1 over the integers.
        let f = Formula::and([
            Formula::atom(fld(0, 0), RelOp::Lt, fld(1, 0)),
            Formula::atom(fld(1, 0), RelOp::Lt, fld(0, 0).plus(2)),
        ]);
        let m = check_sat(&f, &vt);
        assert_eq!(m[2], m[0] + 1);
        // x < y ∧ y < x + 1 is unsat over the integers.
        let g = Formula::and([
            Formula::atom(fld(0, 0), RelOp::Lt, fld(1, 0)),
            Formula::atom(fld(1, 0), RelOp::Lt, fld(0, 0).plus(1)),
        ]);
        check_unsat(&g, &vt);
    }

    #[test]
    fn eq_false_branches_explore_both_sides() {
        let vt = vars(2);
        // ¬(x = y) ∧ x ≤ y  ⇒  x < y.
        let f = Formula::and([
            Formula::not(Formula::atom(fld(0, 0), RelOp::Eq, fld(1, 0))),
            Formula::atom(fld(0, 0), RelOp::Le, fld(1, 0)),
        ]);
        let m = check_sat(&f, &vt);
        assert!(m[0] < m[2]);
    }

    #[test]
    fn shared_atom_consistency() {
        let vt = vars(1);
        // The same semantic atom written two ways must share a decision:
        // (x < 4 ∨ x > 9) ∧ x ≤ 3 — "x < 4" and "x ≤ 3" are one key.
        let f = Formula::and([
            Formula::or([
                Formula::atom(fld(0, 0), RelOp::Lt, Term::Const(4)),
                Formula::atom(fld(0, 0), RelOp::Gt, Term::Const(9)),
            ]),
            Formula::atom(fld(0, 0), RelOp::Le, Term::Const(3)),
        ]);
        let m = check_sat(&f, &vt);
        assert!(m[0] <= 3);
    }

    #[test]
    fn decision_limit_counts_unknown_exit() {
        let vt = vars(1);
        // Two genuine choice points guarantee the budget of 1 runs out.
        let f = Formula::and([
            Formula::or([
                Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(1)),
                Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(7)),
            ]),
            Formula::or([
                Formula::atom(fld(0, 1), RelOp::Eq, Term::Const(2)),
                Formula::atom(fld(0, 1), RelOp::Eq, Term::Const(9)),
            ]),
        ]);
        for (core, solver) in CORES {
            let (res, stats) = solve(solver, &to_nnf(&f), &vt, 1);
            assert!(matches!(res, GroundResult::Unknown), "{core:?}: budget of 1 must exhaust");
            assert_eq!(stats.unknown_exits, 1, "{core:?}: {stats:?}");
            assert!(stats.decisions <= 1, "{core:?}: {stats:?}");
            // With a real budget the same formula solves, and the counter
            // stays at zero.
            let (res, stats) = solve(solver, &to_nnf(&f), &vt, 1_000);
            assert!(matches!(res, GroundResult::Sat(_)), "{core:?}");
            assert_eq!(stats.unknown_exits, 0, "{core:?}: {stats:?}");
        }
    }

    #[test]
    fn unit_picks_counted_as_propagations() {
        let vt = vars(1);
        // A pure conjunction: every assignment is forced (score 1).
        let f = Formula::and([
            Formula::atom(fld(0, 0), RelOp::Ge, Term::Const(3)),
            Formula::atom(fld(0, 1), RelOp::Eq, fld(0, 0).plus(1)),
        ]);
        for (core, solver) in CORES {
            let (res, stats) = solve(solver, &to_nnf(&f), &vt, DEFAULT_DECISION_LIMIT);
            assert!(matches!(res, GroundResult::Sat(_)), "{core:?}");
            assert!(stats.propagations >= 2, "{core:?}: {stats:?}");
            if core == "dpll" {
                // Chronological DPLL counts a unit pick as both a
                // propagation and a decision.
                assert!(stats.propagations <= stats.decisions, "{stats:?}")
            } else {
                // CDCL propagates units for free: a pure conjunction needs
                // no decisions at all.
                assert_eq!(stats.decisions, 0, "{stats:?}")
            }
        }
    }

    #[test]
    fn pre_cancelled_token_exits_before_any_work() {
        let vt = vars(1);
        let f = Formula::and([
            Formula::or([
                Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(1)),
                Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(7)),
            ]),
            Formula::atom(fld(0, 0), RelOp::Gt, Term::Const(3)),
        ]);
        for (core, solver) in CORES {
            let token = CancelToken::new();
            token.cancel();
            let (res, stats) = solver(&to_nnf(&f), &vt, DEFAULT_DECISION_LIMIT, &token);
            assert!(matches!(res, GroundResult::Cancelled), "{core:?}");
            assert_eq!(stats.decisions, 0, "{core:?}: cancelled before any decision");
            assert!(stats.cancel_checks >= 1, "{core:?}: the step-0 check must run");
        }
    }

    #[test]
    fn live_token_changes_nothing() {
        let vt = vars(1);
        let f = Formula::atom(fld(0, 0), RelOp::Ge, Term::Const(3));
        for (core, solver) in CORES {
            let token = CancelToken::new();
            let (res, stats) = solver(&to_nnf(&f), &vt, DEFAULT_DECISION_LIMIT, &token);
            assert!(matches!(res, GroundResult::Sat(_)), "{core:?}");
            assert!(stats.cancel_checks >= 1, "{core:?}: checks still counted");
        }
    }

    #[test]
    fn canonical_key_orders_variables() {
        // x - y ≤ 3 and y - x ≥ -3 are the same key.
        let vt = vars(2);
        let a = Formula::atom(fld(0, 0), RelOp::Le, fld(1, 0).plus(3));
        let b = Formula::atom(fld(1, 0).plus(3), RelOp::Ge, fld(0, 0));
        // They are mutually consistent and collapse into one decision.
        let f = Formula::and([a, b]);
        for (core, solver) in CORES {
            let (_, stats) = solve(solver, &to_nnf(&f), &vt, DEFAULT_DECISION_LIMIT);
            assert!(
                stats.decisions <= 2,
                "{core:?}: shared key should mean ≤2 decisions, got {stats:?}"
            );
        }
    }
}
