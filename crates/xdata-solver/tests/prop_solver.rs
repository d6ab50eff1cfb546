//! Randomized tests: the DPLL(T) solver against a brute-force oracle.
//!
//! Strategy: generate random formulas over a small variable set with a
//! seeded [`SplitMix64`], conjoin tight domain bounds (`0 ≤ v ≤ 3`), and
//! compare the solver's verdict with exhaustive enumeration of all
//! assignments. This checks *both* soundness (SAT models really satisfy
//! the formula — also asserted directly) and completeness (UNSAT only when
//! no assignment exists — the property the paper's "equivalent mutant"
//! detection rests on).

use xdata_catalog::SplitMix64;
use xdata_solver::atom::Term;
use xdata_solver::eval::eval;
use xdata_solver::formula::Formula;
use xdata_solver::ids::ArrayId;
use xdata_solver::{Mode, Problem, RelOp, SolveOutcome};

const NVARS: u32 = 4;
const DOM: i64 = 3; // values 0..=3

fn term(var: u32, offset: i64) -> Term {
    Term::field(ArrayId(0), 0, var).plus(offset)
}

const RELOPS: [RelOp; 6] =
    [RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge];

fn random_atom(rng: &mut SplitMix64) -> Formula {
    let a = rng.below(NVARS as usize) as u32;
    let op = *rng.pick(&RELOPS);
    if rng.bool() {
        Formula::atom(term(a, 0), op, Term::Const(rng.range_i64(0, DOM)))
    } else {
        let b = rng.below(NVARS as usize) as u32;
        Formula::atom(term(a, 0), op, term(b, rng.range_i64(-2, 2)))
    }
}

/// Random formula of nesting depth ≤ `depth`: AND/OR over 1–3 children or
/// a negation, bottoming out at atoms — the same shape space the proptest
/// recursive strategy explored.
fn random_formula(rng: &mut SplitMix64, depth: u32) -> Formula {
    if depth == 0 || rng.chance(1, 3) {
        return random_atom(rng);
    }
    match rng.below(3) {
        0 => Formula::and((0..1 + rng.below(3)).map(|_| random_formula(rng, depth - 1))),
        1 => Formula::or((0..1 + rng.below(3)).map(|_| random_formula(rng, depth - 1))),
        _ => Formula::not(random_formula(rng, depth - 1)),
    }
}

/// Build the problem: one array of 1 tuple with NVARS fields, domain bounds
/// plus the random formula.
fn problem_for(f: &Formula) -> Problem {
    let mut p = Problem::new();
    let a = p.add_array("r", 1, NVARS);
    for v in 0..NVARS {
        p.assert(Formula::atom(Term::field(a, 0, v), RelOp::Ge, Term::Const(0)));
        p.assert(Formula::atom(Term::field(a, 0, v), RelOp::Le, Term::Const(DOM)));
    }
    p.assert(f.clone());
    p
}

/// Exhaustive oracle over the bounded domain.
fn brute_force_sat(f: &Formula, vars: &xdata_solver::VarTable) -> bool {
    let n = NVARS as usize;
    let mut model = vec![0i64; n];
    loop {
        if eval(f, &model, vars) {
            return true;
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return false;
            }
            model[i] += 1;
            if model[i] <= DOM {
                break;
            }
            model[i] = 0;
            i += 1;
        }
    }
}

#[test]
fn solver_matches_brute_force() {
    let mut rng = SplitMix64::new(0x501e1);
    for case in 0..256 {
        let f = random_formula(&mut rng, 3);
        let p = problem_for(&f);
        let vars = p.var_table();
        let out = p.solve(Mode::Unfold);
        let oracle = brute_force_sat(&f, &vars);
        match out {
            SolveOutcome::Sat(m) => {
                assert!(oracle, "case {case}: solver SAT but oracle UNSAT for {f}");
                assert!(eval(&f, m.values(), &vars), "case {case}: model does not satisfy {f}");
                // Domain bounds respected too.
                for v in 0..NVARS as usize {
                    assert!((0..=DOM).contains(&m.values()[v]), "case {case}");
                }
            }
            SolveOutcome::Unsat => {
                assert!(!oracle, "case {case}: solver UNSAT but oracle SAT for {f}")
            }
            SolveOutcome::Unknown => panic!("case {case}: unexpected Unknown"),
            SolveOutcome::Cancelled => panic!("case {case}: unexpected Cancelled"),
        }
    }
}

#[test]
fn lazy_and_unfold_agree() {
    let mut rng = SplitMix64::new(0x501e2);
    for case in 0..256 {
        let f = random_formula(&mut rng, 3);
        let p = problem_for(&f);
        let a = p.solve(Mode::Unfold);
        let b = p.solve(Mode::Lazy);
        assert_eq!(a.is_sat(), b.is_sat(), "case {case}: modes disagree on {f}");
    }
}

/// Quantified round-trip: random per-slot target values; constraints force
/// each slot to its target via a FORALL over bounds plus per-slot pins;
/// both modes must find it.
#[test]
fn quantified_pin_down() {
    let mut rng = SplitMix64::new(0x501e3);
    for case in 0..64 {
        let targets: Vec<i64> =
            (0..1 + rng.below(3)).map(|_| rng.range_i64(0, DOM)).collect();
        let mut p = Problem::new();
        let len = targets.len() as u32;
        let a = p.add_array("r", len, 1);
        // ∀i: r[i].0 ≥ 0 ∧ r[i].0 ≤ DOM
        let q = p.fresh_qvar();
        p.assert(Formula::forall(
            q,
            a,
            Formula::and([
                Formula::atom(Term::qfield(a, q, 0), RelOp::Ge, Term::Const(0)),
                Formula::atom(Term::qfield(a, q, 0), RelOp::Le, Term::Const(DOM)),
            ]),
        ));
        // Pin each slot.
        for (i, t) in targets.iter().enumerate() {
            p.assert(Formula::atom(Term::field(a, i as u32, 0), RelOp::Eq, Term::Const(*t)));
        }
        for mode in [Mode::Unfold, Mode::Lazy] {
            let out = p.solve(mode);
            match out {
                SolveOutcome::Sat(m) => {
                    for (i, t) in targets.iter().enumerate() {
                        assert_eq!(m.get(a, i as u32, 0), *t, "case {case}");
                    }
                }
                o => panic!("case {case}: mode {mode:?}: unexpected {o:?}"),
            }
        }
    }
}
