//! Public solver API: declare tuple arrays, assert constraints, solve.
//!
//! This mirrors how X-Data drives CVC3 (§V-A): declare one array of
//! constraint tuples per base relation, assert constraints over the tuple
//! attributes, ask for a model, and read the dataset out of the model. The
//! two [`Mode`]s correspond to the paper's "without unfolding" and "with
//! unfolding" configurations (§VI-B).

use std::collections::HashSet;

use xdata_par::CancelToken;

use crate::eval::{eval, forall_violation};
use crate::formula::Formula;
use crate::ids::{ArrayId, ArraySpec, QVarId, VarTable};
use crate::nnf::to_nnf;
use crate::search::{dpll_ground, solve_ground_cancel, GroundResult, GroundSolver};
use crate::unfold::unfold;

/// Quantifier-handling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Expand all bounded quantifiers up-front (§VI-B). Fast.
    Unfold,
    /// Keep quantifiers symbolic; solve the ground part, then check and
    /// instantiate violated quantifier instances, re-solving until a model
    /// satisfies everything (model-based quantifier instantiation). This is
    /// the paper's "without unfolding" configuration and is measurably
    /// slower because it repeatedly pays the ground-solving cost.
    Lazy,
}

/// A satisfying assignment.
#[derive(Debug, Clone)]
pub struct Model {
    values: Vec<i64>,
    vars: VarTable,
}

impl Model {
    /// Construct a model from raw `VarId`-indexed values. Used by callers
    /// that rebuild a model from externally stored values (e.g. the solve
    /// memo in `xdata-core`, which replays a cached assignment against an
    /// isomorphic problem).
    pub fn from_values(values: Vec<i64>, vars: VarTable) -> Model {
        Model { values, vars }
    }

    /// Value of `array[index].field`.
    pub fn get(&self, array: ArrayId, index: u32, field: u32) -> i64 {
        self.values[self.vars.var(array, index, field).0 as usize]
    }

    /// Raw `VarId`-indexed values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }
}

/// Outcome of [`Problem::solve`].
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    Sat(Model),
    /// The constraints are inconsistent. In X-Data this is meaningful, not
    /// an error: "such cases arise only when the targeted class of mutants
    /// is actually equivalent to the given query" (§V-A).
    Unsat,
    /// Resource limit hit (never observed on the paper's workloads).
    Unknown,
    /// The caller's [`CancelToken`] tripped — a wall-clock deadline expired
    /// or cancellation was requested — before a verdict. Distinct from
    /// [`SolveOutcome::Unknown`]: the *search* did not give up, the caller
    /// withdrew its time budget, so the result says nothing about
    /// satisfiability and must not be cached as a verdict.
    Cancelled,
}

impl SolveOutcome {
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }
}

/// Map a ground-search result into the public outcome, wrapping a model
/// around SAT values. Shared by the one-shot unfold path and the
/// incremental session (`crate::session`), so both produce identically
/// shaped outcomes.
pub(crate) fn outcome_from_ground(res: GroundResult, vars: &VarTable) -> SolveOutcome {
    match res {
        GroundResult::Sat(values) => SolveOutcome::Sat(Model { values, vars: vars.clone() }),
        GroundResult::Unsat => SolveOutcome::Unsat,
        GroundResult::Unknown => SolveOutcome::Unknown,
        GroundResult::Cancelled => SolveOutcome::Cancelled,
    }
}

/// A constraint problem under construction.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    specs: Vec<ArraySpec>,
    constraints: Vec<Formula>,
    next_qvar: u32,
}

impl Problem {
    pub fn new() -> Self {
        Problem::default()
    }

    /// Declare a tuple array with `len` slots of `fields` attributes.
    pub fn add_array(&mut self, name: impl Into<String>, len: u32, fields: u32) -> ArrayId {
        self.specs.push(ArraySpec { name: name.into(), len, fields });
        ArrayId(self.specs.len() as u32 - 1)
    }

    /// A globally fresh quantified index variable.
    pub fn fresh_qvar(&mut self) -> QVarId {
        let q = QVarId(self.next_qvar);
        self.next_qvar += 1;
        q
    }

    /// Assert a constraint.
    pub fn assert(&mut self, f: Formula) {
        self.constraints.push(f);
    }

    /// Eagerly expand every bounded quantifier asserted so far into its
    /// ground normal form, in place. Subsequent [`Problem::solve`] calls in
    /// [`Mode::Unfold`] then skip re-expanding these constraints — the
    /// point of pre-building a shared constraint skeleton that many solve
    /// targets clone: the PK/FK/domain closure is unfolded **once** instead
    /// of once per target per repair-ladder rung.
    ///
    /// Semantics are unchanged (unfolding is an equivalence for bounded
    /// quantifiers), but [`Mode::Lazy`] solves after this call no longer
    /// exercise lazy instantiation for the inlined constraints, so callers
    /// benchmarking the §VI-B ablation must not pre-inline.
    pub fn inline_quantifiers(&mut self) {
        let vars = self.var_table();
        for c in &mut self.constraints {
            if c.has_quantifier() {
                *c = unfold(&to_nnf(c), &vars);
            }
        }
    }

    pub fn constraints(&self) -> &[Formula] {
        &self.constraints
    }

    pub fn var_table(&self) -> VarTable {
        VarTable::new(&self.specs)
    }

    pub fn specs(&self) -> &[ArraySpec] {
        &self.specs
    }

    /// Solve the asserted constraints.
    pub fn solve(&self, mode: Mode) -> SolveOutcome {
        self.solve_with_limit(mode, crate::search::DEFAULT_DECISION_LIMIT)
    }

    /// [`Problem::solve`] with an explicit decision budget; exceeding it
    /// yields [`SolveOutcome::Unknown`] instead of running on.
    pub fn solve_with_limit(&self, mode: Mode, limit: u64) -> SolveOutcome {
        self.solve_cancel(mode, limit, &CancelToken::new())
    }

    /// [`Problem::solve_with_limit`] under a [`CancelToken`]: both
    /// quantifier modes run their ground solves with cooperative
    /// cancellation, and the lazy instantiation loop additionally checks
    /// the token between rounds. A tripped token yields
    /// [`SolveOutcome::Cancelled`].
    pub fn solve_cancel(&self, mode: Mode, limit: u64, cancel: &CancelToken) -> SolveOutcome {
        let vars = self.var_table();
        match mode {
            Mode::Unfold => self.solve_unfold(&vars, limit, cancel, solve_ground_cancel),
            Mode::Lazy => self.solve_lazy(&vars, limit, cancel),
        }
    }

    /// Convenience: solve and verify the model against the original
    /// constraints (panics on solver bugs; used by tests).
    pub fn solve_checked(&self, mode: Mode) -> SolveOutcome {
        let out = self.solve(mode);
        if let SolveOutcome::Sat(m) = &out {
            let vars = self.var_table();
            for c in &self.constraints {
                assert!(eval(c, m.values(), &vars), "model violates constraint {c}");
            }
        }
        out
    }

    fn solve_unfold(
        &self,
        vars: &VarTable,
        limit: u64,
        cancel: &CancelToken,
        ground_solver: GroundSolver,
    ) -> SolveOutcome {
        let nf = Formula::and(self.constraints.iter().map(to_nnf));
        let ground = unfold(&nf, vars);
        xdata_obs::counter("solver.ground_solves", 1);
        xdata_obs::observe("solver.ground_atoms", ground.atom_count() as u64);
        let (res, _) = ground_solver(&ground, vars, limit, cancel);
        outcome_from_ground(res, vars)
    }

    fn solve_lazy(&self, vars: &VarTable, limit: u64, cancel: &CancelToken) -> SolveOutcome {
        // Decisions spent so far: every round draws on one shared budget.
        let mut decisions = 0u64;
        let mut working: Vec<Formula> = Vec::new();
        // Pending quantified constraints with their instantiation history.
        struct Pending {
            formula: Formula,
            instantiated: HashSet<u32>,
            absorbed: bool,
        }
        let mut pending: Vec<Pending> = Vec::new();
        for c in &self.constraints {
            let nf = to_nnf(c);
            if nf.has_quantifier() {
                pending.push(Pending { formula: nf, instantiated: HashSet::new(), absorbed: false });
            } else {
                working.push(nf);
            }
        }
        loop {
            // The per-round check catches cancellation during the (possibly
            // large) unfold/instantiation work between ground solves.
            if cancel.is_cancelled() {
                return SolveOutcome::Cancelled;
            }
            let ground = Formula::and(working.iter().cloned());
            xdata_obs::counter("solver.ground_solves", 1);
            xdata_obs::observe("solver.ground_atoms", ground.atom_count() as u64);
            let (res, s) =
                solve_ground_cancel(&ground, vars, limit.saturating_sub(decisions), cancel);
            decisions += s.decisions;
            let model = match res {
                GroundResult::Sat(m) => m,
                other => return outcome_from_ground(other, vars),
            };
            // One instantiation per round, as incremental quantifier
            // reasoning in CVC3-era solvers did: find the first violated
            // quantified constraint, add one instance, re-solve. This is
            // what makes the "without unfolding" configuration pay a
            // ground-solve per instance (§VI-B's observed slowdown).
            let mut progressed = false;
            let mut instantiations = 0u64;
            let mut additions: Vec<Formula> = Vec::new();
            let mut new_pending: Vec<Formula> = Vec::new();
            for p in pending.iter_mut().filter(|p| !p.absorbed) {
                if progressed {
                    break;
                }
                if eval(&p.formula, &model, vars) {
                    continue;
                }
                progressed = true;
                match &p.formula {
                    Formula::Forall { qv, array, body } => {
                        // Instantiate exactly the violated slice.
                        if let Some(i) = forall_violation(*qv, *array, body, &model, vars) {
                            if p.instantiated.insert(i) {
                                instantiations += 1;
                                let inst = body.subst(*qv, i);
                                if inst.has_quantifier() {
                                    new_pending.push(inst);
                                } else {
                                    additions.push(inst);
                                }
                            } else {
                                // Slice already instantiated but still
                                // violated via nested structure: absorb
                                // fully to guarantee progress.
                                instantiations += 1;
                                additions.push(unfold(&p.formula, vars));
                                p.absorbed = true;
                            }
                        }
                    }
                    other => {
                        // Exists at top level, or quantifier nested under
                        // boolean structure: absorb the whole constraint.
                        instantiations += 1;
                        additions.push(unfold(other, vars));
                        p.absorbed = true;
                    }
                }
            }
            if !progressed {
                return SolveOutcome::Sat(Model { values: model, vars: vars.clone() });
            }
            xdata_obs::counter("solver.instantiations", instantiations);
            working.extend(additions);
            pending.extend(new_pending.into_iter().map(|f| Pending {
                formula: f,
                instantiated: HashSet::new(),
                absorbed: false,
            }));
        }
    }
}

/// Decide `problem` in [`Mode::Unfold`] with the chronological DPLL core
/// instead of CDCL. This is the reference oracle the parity tests compare
/// the production paths against; no production path calls it.
pub fn solve_dpll(problem: &Problem, limit: u64, cancel: &CancelToken) -> SolveOutcome {
    problem.solve_unfold(&problem.var_table(), limit, cancel, dpll_ground)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{RelOp, Term};
    use crate::recorded;

    /// A miniature of the paper's running example: instructor ⋈ teaches
    /// with an FK from teaches.id to instructor.id, and a NOT EXISTS
    /// nullification constraint.
    fn fk_problem(nullify_instructor: bool) -> Problem {
        let mut p = Problem::new();
        let inst = p.add_array("instructor", 2, 2); // (id, dept)
        let teach = p.add_array("teaches", 1, 2); // (id, cid)
        // Foreign key: ∀i∈teaches ∃j∈instructor teaches[i].id = instructor[j].id
        let qi = p.fresh_qvar();
        let qj = p.fresh_qvar();
        p.assert(Formula::forall(
            qi,
            teach,
            Formula::exists(
                qj,
                inst,
                Formula::atom(
                    Term::qfield(teach, qi, 0),
                    RelOp::Eq,
                    Term::qfield(inst, qj, 0),
                ),
            ),
        ));
        // Domain-ish bounds keep values small.
        for (arr, len, fields) in [(inst, 2u32, 2u32), (teach, 1, 2)] {
            for i in 0..len {
                for f in 0..fields {
                    p.assert(Formula::atom(Term::field(arr, i, f), RelOp::Ge, Term::Const(0)));
                    p.assert(Formula::atom(Term::field(arr, i, f), RelOp::Le, Term::Const(100)));
                }
            }
        }
        if nullify_instructor {
            // NOT EXISTS j: instructor[j].id = teaches[0].id — directly
            // contradicts the FK: the "equivalent mutant" signal.
            let q = p.fresh_qvar();
            p.assert(Formula::not_exists(
                q,
                inst,
                Formula::atom(Term::qfield(inst, q, 0), RelOp::Eq, Term::field(teach, 0, 0)),
            ));
        }
        p
    }

    #[test]
    fn fk_satisfiable_both_modes() {
        for mode in [Mode::Unfold, Mode::Lazy] {
            let p = fk_problem(false);
            let (out, report) = recorded(|| p.solve_checked(mode));
            assert!(out.is_sat(), "mode {mode:?}");
            if mode == Mode::Unfold {
                assert_eq!(report.counter("solver.ground_solves"), 1);
            }
        }
    }

    #[test]
    fn fk_with_nullification_unsat_both_modes() {
        for mode in [Mode::Unfold, Mode::Lazy] {
            let p = fk_problem(true);
            let out = p.solve(mode);
            assert!(matches!(out, SolveOutcome::Unsat), "mode {mode:?}");
        }
    }

    #[test]
    fn model_get_reads_by_coordinates() {
        let mut p = Problem::new();
        let a = p.add_array("r", 1, 2);
        p.assert(Formula::atom(Term::field(a, 0, 1), RelOp::Eq, Term::Const(42)));
        let out = p.solve(Mode::Unfold);
        match out {
            SolveOutcome::Sat(m) => assert_eq!(m.get(a, 0, 1), 42),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn lazy_mode_instantiates_on_demand() {
        let p = fk_problem(false);
        let (out, report) = recorded(|| p.solve(Mode::Lazy));
        assert!(out.is_sat());
        // Either the first ground model satisfied the FK by luck, or
        // instantiation happened; both are legal, but ground_solves ≥ 1.
        assert!(report.counter("solver.ground_solves") >= 1);
    }

    #[test]
    fn unsat_core_behaviour_same_across_modes() {
        // x < 0 ∧ (∀i : r[i].0 ≥ 0) over r of len 1 — lazy must catch the
        // quantified violation.
        let mut p = Problem::new();
        let r = p.add_array("r", 1, 1);
        let q = p.fresh_qvar();
        p.assert(Formula::forall(
            q,
            r,
            Formula::atom(Term::qfield(r, q, 0), RelOp::Ge, Term::Const(0)),
        ));
        p.assert(Formula::atom(Term::field(r, 0, 0), RelOp::Lt, Term::Const(0)));
        for mode in [Mode::Unfold, Mode::Lazy] {
            let out = p.solve(mode);
            assert!(matches!(out, SolveOutcome::Unsat), "mode {mode:?}");
        }
    }

    #[test]
    fn empty_problem_is_sat() {
        let p = Problem::new();
        let out = p.solve(Mode::Unfold);
        assert!(out.is_sat());
    }

    #[test]
    fn inline_quantifiers_preserves_verdict_and_model() {
        for nullify in [false, true] {
            let p = fk_problem(nullify);
            let mut q = p.clone();
            q.inline_quantifiers();
            assert!(!q.constraints().iter().any(|c| c.has_quantifier()));
            let a = p.solve(Mode::Unfold);
            let b = q.solve(Mode::Unfold);
            assert_eq!(a.is_sat(), b.is_sat(), "nullify={nullify}");
            // The ground search sees the same unfolded structure, so the
            // model (when SAT) is identical too.
            if let (SolveOutcome::Sat(ma), SolveOutcome::Sat(mb)) = (a, b) {
                assert_eq!(ma.values(), mb.values());
            }
        }
    }

    #[test]
    fn inline_then_assert_more_still_solves() {
        let mut p = fk_problem(false);
        p.inline_quantifiers();
        // A post-inline quantified assertion must still be handled.
        let q = p.fresh_qvar();
        let inst = ArrayId(0);
        p.assert(Formula::not_exists(
            q,
            inst,
            Formula::atom(Term::qfield(inst, q, 0), RelOp::Eq, Term::field(ArrayId(1), 0, 0)),
        ));
        let out = p.solve(Mode::Unfold);
        assert!(matches!(out, SolveOutcome::Unsat));
    }
}
