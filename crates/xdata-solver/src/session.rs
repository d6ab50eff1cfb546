//! Incremental assumption-based solving sessions.
//!
//! X-Data's per-query pipeline fans out into dozens of solve targets that
//! are near-identical: every one shares the database constraint *skeleton*
//! (primary keys, foreign keys, domains — by far the largest part of the
//! formula) and differs only in a handful of per-target *delta*
//! constraints. A one-shot [`Problem::solve`](crate::Problem::solve) pays
//! the full NNF + unfold + canonicalize + intern cost of the skeleton for
//! every target and throws the search's learned knowledge away each time.
//!
//! A [`SolveSession`] instead keeps one CDCL engine alive for the whole
//! family:
//!
//! * The skeleton is lowered **once**, when the session is built.
//! * Each call to [`SolveSession::solve_delta`] lowers only the target's
//!   delta constraints, guards them behind a fresh selector atom
//!   (`¬selectorᵢ ∨ deltaᵢ`), and solves under **assumptions**: one
//!   decision level per registered selector, asserting exactly the current
//!   target's selector true and every other false.
//! * Because the guards are ordinary, universally valid parts of one
//!   monolithic formula, every clause learned while solving one target
//!   holds for all the others — so learned clauses, VSIDS activities, and
//!   saved phases compound across targets instead of being rebuilt.
//! * Retention is bounded by LBD-based clause-DB aging between targets
//!   (see the `cdcl` module's docs).
//!
//! An assumption found false at establishment time yields a
//! failed-assumption core — the target alone is unsatisfiable and the
//! session stays healthy. Only a conflict at decision level 0 (the formula
//! itself refuted, independent of any selector) poisons the session, after
//! which every further target reports `Unsat` immediately.
//!
//! [`SolveSession::solve_delta`] takes `&mut self`: a session has one
//! owner and no lock. Results depend on the order in which targets reach
//! the session, so a caller that wants reproducible output feeds them in a
//! fixed order; `xdata-core` gives each skeleton class its own sessions and
//! solves that class's targets one after another in plan order.

use xdata_par::CancelToken;

use crate::cdcl::{lit, Cdcl, IF};
use crate::formula::Formula;
use crate::ids::VarTable;
use crate::nnf::to_nnf;
use crate::problem::{outcome_from_ground, Problem, SolveOutcome};
use crate::search::{record_search_obs, GroundResult};
use crate::unfold::unfold;

/// A long-lived solving session over one shared constraint skeleton. See
/// the module docs for the encoding; see `xdata-core`'s generator for the
/// production caller (one session per `(copies, repair_cap)` skeleton
/// shape).
pub struct SolveSession {
    core: Cdcl,
    vars: VarTable,
    /// The monolithic formula: an `And` whose first child is the lowered
    /// skeleton, followed by one selector guard per registered target.
    root: IF,
    /// Selector atom index per registered target, in registration order.
    /// Solve `i` assumes `selectors[i]` true and every other one false.
    selectors: Vec<u32>,
    /// Constraint count of the shared skeleton problem; a target problem's
    /// delta is everything asserted past this prefix.
    skeleton_len: usize,
    /// Set when a solve refuted the formula independently of any
    /// assumption: the skeleton itself is unsatisfiable, so every future
    /// target is too.
    poisoned: bool,
}

impl SolveSession {
    /// Build a session from the shared skeleton problem, lowering its
    /// constraints into the engine once. In unfold mode the caller
    /// typically passes a pre-inlined skeleton
    /// ([`Problem::inline_quantifiers`]); any remaining bounded quantifiers
    /// are unfolded here.
    pub fn new(skeleton: &Problem) -> SolveSession {
        let vars = skeleton.var_table();
        let mut core = Cdcl::new(vars.clone(), 0, CancelToken::new());
        let nf = Formula::and(skeleton.constraints().iter().map(to_nnf));
        let ground = unfold(&nf, &vars);
        let skel_if = core.lower_formula(&ground);
        SolveSession {
            core,
            vars,
            root: IF::And(vec![skel_if]),
            selectors: Vec::new(),
            skeleton_len: skeleton.constraints().len(),
            poisoned: false,
        }
    }

    /// Number of targets registered so far (equals the number of
    /// non-pre-cancelled [`SolveSession::solve_delta`] calls).
    pub fn targets_registered(&self) -> usize {
        self.selectors.len()
    }

    /// Solve one target: `problem` must extend this session's skeleton
    /// (same arrays, skeleton constraints as a prefix). The delta — every
    /// constraint past the skeleton prefix — is lowered, guarded behind a
    /// fresh selector, and solved under assumptions, retaining everything
    /// the engine learned for the targets that follow.
    ///
    /// Cancellation: an already-tripped token returns
    /// [`SolveOutcome::Cancelled`] *before any session mutation* (so
    /// synthetic chaos expiry cannot perturb later targets), and the search
    /// itself checks the token on the engine's usual every-64-steps
    /// cadence.
    pub fn solve_delta(
        &mut self,
        problem: &Problem,
        limit: u64,
        cancel: &CancelToken,
    ) -> SolveOutcome {
        if cancel.is_cancelled() {
            return SolveOutcome::Cancelled;
        }
        debug_assert!(
            problem.specs().len() == self.vars.arrays().count()
                && problem
                    .specs()
                    .iter()
                    .enumerate()
                    .all(|(i, s)| self.vars.spec(crate::ids::ArrayId(i as u32)) == s),
            "target problem declares different arrays than the session skeleton"
        );
        debug_assert!(
            problem.constraints().len() >= self.skeleton_len,
            "target problem is shorter than the session skeleton"
        );
        if self.poisoned {
            // The skeleton itself was refuted: every target is Unsat. Keep
            // the per-solve counters flowing so reports stay summable.
            xdata_obs::counter("solver.ground_solves", 1);
            xdata_obs::counter("solver.session.assumption_solves", 1);
            return SolveOutcome::Unsat;
        }

        // Register this target: lower its delta and guard it behind a
        // fresh selector. `¬sel` comes first in the guard so the walk
        // dismisses inactive targets in O(1).
        let tid = self.selectors.len() as u32;
        let sel = self.core.intern_selector(tid);
        let delta: Vec<IF> = problem.constraints()[self.skeleton_len..]
            .iter()
            .map(|c| {
                let g = unfold(&to_nnf(c), &self.vars);
                self.core.lower_formula(&g)
            })
            .collect();
        let target_guard =
            IF::Or(vec![IF::Not(Box::new(IF::Atom(sel))), IF::And(delta)]);
        match &mut self.root {
            IF::And(children) => children.push(target_guard),
            _ => unreachable!("session root is always an And"),
        }
        self.selectors.push(sel);

        let assumptions: Vec<_> = self
            .selectors
            .iter()
            .enumerate()
            .map(|(i, &s)| lit(s, i as u32 == tid))
            .collect();
        self.core.begin_solve(limit, cancel.clone(), assumptions);
        // Age the clause DB between targets (level 0, before the search).
        self.core.reduce_db();
        let reused = self.core.live_learned_clauses() as u64;
        let result = self.core.solve_current(&self.root);
        if self.core.global_unsat() {
            self.poisoned = true;
        }
        debug_assert!(
            !matches!(result, GroundResult::Unsat)
                || self.poisoned
                || !self.core.failed_core().is_empty(),
            "assumption-rejected solve must carry a failed-assumption core"
        );

        let core = &self.core;
        record_search_obs(&result, core.stats(), core.backjumps(), core.lbds(), cancel);
        xdata_obs::counter("solver.ground_solves", 1);
        // Sessions report the engine's cumulative interned-atom count (the
        // formula grows by one guard per target); one-shot solves report
        // the per-target ground formula's atom count.
        xdata_obs::observe("solver.ground_atoms", core.atom_count() as u64);
        xdata_obs::counter("solver.session.assumption_solves", 1);
        xdata_obs::counter("solver.session.reused_clauses", reused);
        outcome_from_ground(result, &self.vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{RelOp, Term};
    use crate::eval::eval;
    use crate::formula::Formula;
    use crate::recorded;

    /// A small skeleton: one array of 2×2, all fields in [0, 100].
    fn skeleton() -> Problem {
        let mut p = Problem::new();
        let r = p.add_array("r", 2, 2);
        for i in 0..2 {
            for f in 0..2 {
                p.assert(Formula::atom(Term::field(r, i, f), RelOp::Ge, Term::Const(0)));
                p.assert(Formula::atom(Term::field(r, i, f), RelOp::Le, Term::Const(100)));
            }
        }
        p
    }

    fn fld(i: u32, f: u32) -> Term {
        Term::field(crate::ids::ArrayId(0), i, f)
    }

    #[test]
    fn session_solves_many_targets_and_retains_learning() {
        let skel = skeleton();
        let mut session = SolveSession::new(&skel);
        let token = CancelToken::new();
        for k in 0..6 {
            let mut p = skel.clone();
            // Target k: r[0].0 = 10+k and r[1].0 ≠ r[0].0.
            p.assert(Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(10 + k)));
            p.assert(Formula::atom(fld(1, 0), RelOp::Ne, fld(0, 0)));
            let (out, report) = recorded(|| session.solve_delta(&p, 1_000_000, &token));
            let m = match out {
                SolveOutcome::Sat(m) => m,
                o => panic!("target {k}: expected sat, got {o:?}"),
            };
            let vars = p.var_table();
            for c in p.constraints() {
                assert!(eval(c, m.values(), &vars), "target {k}: model violates {c}");
            }
            assert_eq!(report.counter("solver.ground_solves"), 1);
        }
        assert_eq!(session.targets_registered(), 6);
    }

    #[test]
    fn unsat_target_does_not_poison_session() {
        let skel = skeleton();
        let mut session = SolveSession::new(&skel);
        let token = CancelToken::new();
        // Target 0: contradictory — field both above and below bounds.
        let mut bad = skel.clone();
        bad.assert(Formula::atom(fld(0, 0), RelOp::Gt, Term::Const(200)));
        let out = session.solve_delta(&bad, 1_000_000, &token);
        assert!(matches!(out, SolveOutcome::Unsat), "got {out:?}");
        // Target 1: satisfiable — the session must recover.
        let mut ok = skel.clone();
        ok.assert(Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(7)));
        let out = session.solve_delta(&ok, 1_000_000, &token);
        assert!(out.is_sat(), "session poisoned by a target-local Unsat");
        // And an Unsat again, interleaved.
        let mut bad2 = skel.clone();
        bad2.assert(Formula::atom(fld(1, 1), RelOp::Lt, Term::Const(0)));
        let out = session.solve_delta(&bad2, 1_000_000, &token);
        assert!(matches!(out, SolveOutcome::Unsat), "got {out:?}");
    }

    #[test]
    fn unsat_skeleton_poisons_every_target() {
        let mut skel = skeleton();
        skel.assert(Formula::atom(fld(0, 0), RelOp::Gt, Term::Const(500)));
        let mut session = SolveSession::new(&skel);
        let token = CancelToken::new();
        for _ in 0..2 {
            let mut p = skel.clone();
            p.assert(Formula::atom(fld(1, 0), RelOp::Ge, Term::Const(1)));
            let out = session.solve_delta(&p, 1_000_000, &token);
            assert!(matches!(out, SolveOutcome::Unsat), "got {out:?}");
        }
    }

    #[test]
    fn pre_cancelled_solve_leaves_session_untouched() {
        let skel = skeleton();
        let mut session = SolveSession::new(&skel);
        let expired = CancelToken::new();
        expired.cancel();
        let mut p = skel.clone();
        p.assert(Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(3)));
        let (out, report) = recorded(|| session.solve_delta(&p, 1_000_000, &expired));
        assert!(matches!(out, SolveOutcome::Cancelled), "got {out:?}");
        assert_eq!(report.counter("solver.decisions"), 0);
        assert_eq!(report.counter("solver.ground_solves"), 0);
        // No selector was registered: the expired target left no trace.
        assert_eq!(session.targets_registered(), 0);
        // A live solve afterwards behaves as if the cancelled one never
        // happened.
        let live = CancelToken::new();
        let out = session.solve_delta(&p, 1_000_000, &live);
        assert!(out.is_sat());
        assert_eq!(session.targets_registered(), 1);
    }

    #[test]
    fn tiny_budget_reports_unknown_like_fresh_cdcl() {
        let mut skel = skeleton();
        // A genuine choice point in the skeleton keeps propagation from
        // solving it alone.
        skel.assert(Formula::or([
            Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(1)),
            Formula::atom(fld(0, 0), RelOp::Eq, Term::Const(7)),
        ]));
        let mut session = SolveSession::new(&skel);
        let token = CancelToken::new();
        let mut p = skel.clone();
        p.assert(Formula::atom(fld(0, 0), RelOp::Gt, Term::Const(3)));
        let (out, report) = recorded(|| session.solve_delta(&p, 0, &token));
        let (fresh_out, fresh_report) = recorded(|| p.solve_with_limit(crate::Mode::Unfold, 0));
        assert_eq!(
            matches!(out, SolveOutcome::Unknown),
            matches!(fresh_out, SolveOutcome::Unknown),
            "session {out:?} vs fresh {fresh_out:?}"
        );
        assert_eq!(report.counter("solver.ground_solves"), 1);
        assert_eq!(fresh_report.counter("solver.ground_solves"), 1);
        assert_eq!(
            report.counter("solver.decisions"),
            fresh_report.counter("solver.decisions"),
            "assumptions must not count"
        );
    }

    #[test]
    fn matches_fresh_verdicts_across_a_target_family() {
        let skel = skeleton();
        let mut session = SolveSession::new(&skel);
        let token = CancelToken::new();
        for k in 0..8 {
            let mut p = skel.clone();
            p.assert(Formula::atom(fld(0, 0), RelOp::Ge, Term::Const(k * 30)));
            p.assert(Formula::atom(fld(0, 1), RelOp::Ne, fld(0, 0)));
            let out = session.solve_delta(&p, 1_000_000, &token);
            let fresh = p.solve(crate::Mode::Unfold);
            assert_eq!(
                out.is_sat(),
                fresh.is_sat(),
                "k={k}: session {out:?} vs fresh {fresh:?}"
            );
            // k * 30 > 100 ⇒ unsat against the domain skeleton.
            assert_eq!(out.is_sat(), k * 30 <= 100, "k={k}");
        }
    }
}
