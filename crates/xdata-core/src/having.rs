//! Constraint generation for HAVING clauses (constrained aggregation) —
//! the extension the paper defers to future work (§II, §VII).
//!
//! The constraint language is integer difference logic, so aggregation
//! results cannot be expressed symbolically; instead we *construct* groups
//! whose aggregates take the needed values:
//!
//! * `COUNT` conjuncts fix the group size `k` (number of tuple-set copies);
//!   copies are made pairwise distinct and the group is isolated by
//!   Algorithm 4's S3 (`isolate_group`, shared with aggregate datasets).
//! * `MIN`/`MAX` conjuncts pin one copy's value at the boundary and bound
//!   the rest.
//! * `SUM`/`AVG` conjuncts pin all copies to a common value `v` chosen so
//!   `k·v` (resp. `v`) satisfies the comparison.
//!
//! One target shape serves the clause: the original-query group, and the
//! `=`/`<`/`>` dataset of each conjunct, which forces that conjunct's
//! comparison; `group_size` and [`assert_having`] read it through one
//! lookup. The generator widens each MIN/MAX/SUM/AVG argument's integer
//! domain around the conjunct's constant, so the pinned boundary exists.
//!
//! For join queries cross-copy matches can add extra group rows, so — like
//! the paper's own Algorithm 4 for joins under aggregation — this is
//! best-effort there and exact for single-relation groups.

use xdata_relalg::{AttrRef, HavingPred};
use xdata_sql::{AggOp, CompareOp};
use xdata_solver::{Atom, Formula, RelOp, Term};

use crate::builder::ConstraintBuilder;
use crate::error::GenError;

/// Largest group size we will construct for a COUNT conjunct.
pub const MAX_GROUP_SIZE: u32 = 5;

/// Candidate group sizes in preference order: when a conjunct aggregates a
/// *value* (SUM/AVG/MIN/MAX/COUNT(col)), prefer a 2-tuple group so the
/// eight operators take different values on it (a singleton group has
/// SUM = MIN = MAX = AVG, masking aggregate-operator mutants); otherwise
/// smallest-first.
fn size_candidates(having: &[HavingPred]) -> Vec<u32> {
    if having.iter().any(|h| h.arg.is_some()) {
        vec![2, 3, 4, MAX_GROUP_SIZE, 1]
    } else {
        (1..=MAX_GROUP_SIZE).collect()
    }
}

/// Choose the tuple-set copy count `k` so every conjunct is constructible,
/// with conjunct `hi`'s comparison replaced by `op` when `over` is
/// `Some((hi, op))` (the `=`/`<`/`>` kill datasets); `None` when no
/// `k ≤ MAX_GROUP_SIZE` works (e.g. `COUNT(*) > 10`).
pub(crate) fn group_size(having: &[HavingPred], over: Option<(usize, CompareOp)>) -> Option<u32> {
    size_candidates(having).into_iter().find(|&k| {
        having.iter().enumerate().all(|(i, h)| feasible_with(h, cmp_of(h, i, over), k))
    })
}

/// Conjunct `i`'s comparison: `h`'s own, or the forced one when `over`
/// names `i`.
fn cmp_of(h: &HavingPred, i: usize, over: Option<(usize, CompareOp)>) -> CompareOp {
    match over {
        Some((hi, op)) if hi == i => op,
        _ => h.cmp,
    }
}

/// Whether conjunct `h` (with comparison `cmp`) is constructible with group
/// size `k`.
fn feasible_with(h: &HavingPred, cmp: CompareOp, k: u32) -> bool {
    let k = k as i64;
    let c = h.value;
    match h.func.op {
        AggOp::Count => cmp.holds(k.cmp(&c)),
        AggOp::Sum => match cmp {
            // All copies share value v: SUM = k·v. Equality needs k | c.
            CompareOp::Eq => c % k == 0,
            _ => true, // a suitable v always exists in ℤ (domain may refuse — solver decides)
        },
        AggOp::Avg | AggOp::Min | AggOp::Max => true,
    }
}

/// Assert constraints making all `having` conjuncts hold for the group
/// formed by the `k` copies, with conjunct `hi` compared by `op` instead
/// of its own comparison when `over` is `Some((hi, op))`.
pub fn assert_having(
    b: &mut ConstraintBuilder<'_>,
    group_by: &[AttrRef],
    having: &[HavingPred],
    k: u32,
    over: Option<(usize, CompareOp)>,
) -> Result<(), GenError> {
    // Pairwise-distinct copies so the group really has k members: for every
    // occurrence, each pair of copies differs in some attribute.
    for occ in 0..b.query.occurrences.len() {
        for i in 0..k {
            for j in (i + 1)..k {
                let diff = Formula::or(b.copy_atoms(occ, RelOp::Ne, i, j));
                b.problem.assert(diff);
            }
        }
    }
    isolate_group(b, group_by, k);
    for (i, h) in having.iter().enumerate() {
        assert_conjunct(b, h, cmp_of(h, i, over), k)?;
    }
    Ok(())
}

/// S3 isolation (Algorithm 4): no tuple outside copies `0..k` shares the
/// group-by values of copy 0, so the group contains exactly the `k`
/// copies.
pub(crate) fn isolate_group(b: &mut ConstraintBuilder<'_>, group_by: &[AttrRef], k: u32) {
    let query = b.query;
    for g in group_by {
        let witness = b.cvc_map(*g, 0);
        let base = &query.occurrences[g.occ].base;
        let arr = b.array(base);
        let (_, total) = b.slots_of(base);
        let own: Vec<u32> = (0..k).map(|c| b.slot(g.occ, c)).collect();
        for slot in (0..total).filter(|slot| !own.contains(slot)) {
            b.problem.assert(Formula::Atom(Atom::new(
                Term::field(arr, slot, g.col as u32),
                RelOp::Ne,
                witness,
            )));
        }
    }
}

fn assert_conjunct(
    b: &mut ConstraintBuilder<'_>,
    h: &HavingPred,
    cmp: CompareOp,
    k: u32,
) -> Result<(), GenError> {
    let c = h.value;
    match h.func.op {
        AggOp::Count => {
            // Group size already chosen; for COUNT(DISTINCT col) make the
            // argument pairwise distinct so the distinct count equals k.
            if let (true, Some(a)) = (h.func.distinct, h.arg) {
                for i in 0..k {
                    for j in (i + 1)..k {
                        b.problem.assert(Formula::Atom(Atom::new(
                            b.cvc_map(a, i),
                            RelOp::Ne,
                            b.cvc_map(a, j),
                        )));
                    }
                }
            }
            Ok(())
        }
        AggOp::Min | AggOp::Max => {
            let a = h.arg.ok_or_else(|| {
                GenError::Internal("MIN/MAX HAVING without argument".into())
            })?;
            // For MIN: pin copy 0 at the boundary, bound the others from
            // below; MAX mirrors with the orders flipped.
            let is_min = h.func.op == AggOp::Min;
            let (pin_op, rest_op) = match cmp {
                CompareOp::Eq | CompareOp::Le | CompareOp::Ge => (RelOp::Eq, bound_rest(is_min)),
                CompareOp::Lt => (RelOp::Lt, bound_rest(is_min)),
                CompareOp::Gt => (RelOp::Gt, bound_rest(is_min)),
                CompareOp::Ne => (RelOp::Gt, bound_rest(is_min)),
            };
            // pin: copy0.A pin_op c — for Le/Ge equality at the boundary
            // satisfies both; for Ne any strict side works (we pick >).
            let pin = match cmp {
                CompareOp::Le | CompareOp::Ge | CompareOp::Eq => RelOp::Eq,
                _ => pin_op,
            };
            b.problem.assert(Formula::Atom(Atom::new(b.cvc_map(a, 0), pin, Term::Const(c))));
            // rest: keep copy0 extremal.
            for i in 1..k {
                b.problem.assert(Formula::Atom(Atom::new(
                    b.cvc_map(a, i),
                    rest_op,
                    b.cvc_map(a, 0),
                )));
            }
            Ok(())
        }
        AggOp::Sum | AggOp::Avg => {
            let a = h.arg.ok_or_else(|| {
                GenError::Internal("SUM/AVG HAVING without argument".into())
            })?;
            let k64 = k as i64;
            // All copies share one value v, so SUM = k·v and AVG = v.
            for i in 1..k {
                b.problem.assert(Formula::Atom(Atom::new(
                    b.cvc_map(a, i),
                    RelOp::Eq,
                    b.cvc_map(a, 0),
                )));
            }
            let v0 = b.cvc_map(a, 0);
            let assert_v = |b: &mut ConstraintBuilder<'_>, op: RelOp, val: i64| {
                b.problem.assert(Formula::Atom(Atom::new(v0, op, Term::Const(val))));
            };
            if h.func.op == AggOp::Avg {
                assert_v(b, ConstraintBuilder::relop(cmp), c);
            } else {
                // SUM = k·v cmp c ⇒ bounds on v over the integers.
                match cmp {
                    CompareOp::Eq => assert_v(b, RelOp::Eq, c / k64),
                    CompareOp::Ne => assert_v(b, RelOp::Eq, c.div_euclid(k64) + 1),
                    CompareOp::Gt => assert_v(b, RelOp::Ge, c.div_euclid(k64) + 1),
                    CompareOp::Ge => assert_v(b, RelOp::Ge, (c + k64 - 1).div_euclid(k64)),
                    CompareOp::Lt => assert_v(b, RelOp::Le, (c - 1).div_euclid(k64)),
                    CompareOp::Le => assert_v(b, RelOp::Le, c.div_euclid(k64)),
                }
            }
            Ok(())
        }
    }
}

fn bound_rest(is_min: bool) -> RelOp {
    if is_min {
        RelOp::Ge // other copies ≥ the pinned minimum
    } else {
        RelOp::Le // other copies ≤ the pinned maximum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata_relalg::AggFunc;

    fn count_star(cmp: CompareOp, value: i64) -> HavingPred {
        HavingPred {
            func: AggFunc { op: AggOp::Count, distinct: false },
            arg: None,
            cmp,
            value,
        }
    }

    #[test]
    fn group_size_from_count() {
        assert_eq!(group_size(&[count_star(CompareOp::Eq, 3)], None), Some(3));
        assert_eq!(group_size(&[count_star(CompareOp::Gt, 2)], None), Some(3));
        assert_eq!(group_size(&[count_star(CompareOp::Ge, 2)], None), Some(2));
        assert_eq!(group_size(&[count_star(CompareOp::Lt, 3)], None), Some(1));
        assert_eq!(group_size(&[count_star(CompareOp::Ne, 1)], None), Some(2));
        // Too large for construction.
        assert_eq!(group_size(&[count_star(CompareOp::Gt, 10)], None), None);
        // Impossible: COUNT < 1 with a non-empty group.
        assert_eq!(group_size(&[count_star(CompareOp::Lt, 1)], None), None);
    }

    #[test]
    fn group_size_respects_sum_divisibility() {
        let sum_eq_6 = HavingPred {
            func: AggFunc { op: AggOp::Sum, distinct: false },
            arg: Some(AttrRef::new(0, 0)),
            cmp: CompareOp::Eq,
            value: 6,
        };
        // k=2 preferred (value aggregates want multi-tuple groups; 6 % 2 = 0).
        assert_eq!(group_size(std::slice::from_ref(&sum_eq_6), None), Some(2));
        // Combined with COUNT(*) = 4: k=4, 6 % 4 != 0 → infeasible.
        assert_eq!(
            group_size(&[sum_eq_6, count_star(CompareOp::Eq, 4)], None),
            None
        );
    }

    #[test]
    fn override_changes_feasibility() {
        let h = [count_star(CompareOp::Gt, 4)];
        assert_eq!(group_size(&h, None), Some(5));
        // Overriding to `<` makes size 1 enough.
        assert_eq!(group_size(&h, Some((0, CompareOp::Lt))), Some(1));
    }
}
