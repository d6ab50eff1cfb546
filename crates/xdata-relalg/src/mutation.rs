//! The mutation space of §II.
//!
//! * **Join-type mutants** — every (equivalent join tree, node, alternative
//!   join kind) triple, deduplicated by semantic canonical form
//!   ([`crate::JoinTree::canonical_key`]). The space is exponential in the
//!   joins while the distinct mutants are few, so the enumerated trees are
//!   never keyed one by one: every enumerated tree is all-inner, and a
//!   one-node mutant of it is `I(leaves outside the node, K(I(left
//!   leaves), I(right leaves)))`, so its canonical key is fixed by the
//!   node's leaf masks — `(Left, l, r)` for a left join, `(Left, r, l)`
//!   for a right join (`A ⟖ B ≡ B ⟕ A`), `(Full, min, max)` for a full
//!   join. No such key is an all-inner original's. Walking the shape DAG's
//!   node masks keys every triple without building a tree; only a key's
//!   first triple materializes its tree. For queries with explicit outer
//!   joins the tree shape is fixed (outer joins do not commute in general)
//!   and only node kinds mutate; that one written tree, and the fallback
//!   for a disconnected join graph, are keyed by `canonical_key()` itself,
//!   which is also the tests' oracle for the mask keys.
//! * **Comparison mutants** — every comparison operator of every WHERE
//!   conjunct replaced by each of the five alternatives.
//! * **Aggregation mutants** — every aggregate replaced by each other
//!   member of the eight-operator space (`COUNT(*)` does not mutate: the
//!   other operators need a column argument).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use xdata_sql::{CompareOp, JoinKind};

use crate::enumerate::ShapeDag;
use crate::ir::{AggFunc, LikePred, NormQuery, SelectSpec, SubPred, SubqueryKind};
use crate::tree::JoinTree;

/// A join-type mutant: a concrete tree with exactly one mutated node.
#[derive(Debug, Clone)]
pub struct JoinMutant {
    /// The full annotated tree to execute (kind already mutated).
    pub tree: JoinTree,
    /// Preorder index of the mutated node in `tree`.
    pub node: usize,
    pub from: JoinKind,
    pub to: JoinKind,
    /// How many raw `(tree, node, kind)` triples collapsed into this
    /// canonical mutant. The paper's Table I counts raw triples across all
    /// join orderings; `multiplicity` recovers that counting.
    pub multiplicity: usize,
}

/// A comparison-operator mutant of WHERE conjunct `pred_idx`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmpMutant {
    pub pred_idx: usize,
    pub from: CompareOp,
    pub to: CompareOp,
}

/// An aggregation-operator mutant of aggregate item `agg_idx`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggMutant {
    pub agg_idx: usize,
    pub from: AggFunc,
    pub to: AggFunc,
}

/// A comparison-operator mutant of HAVING conjunct `having_idx`
/// (constrained aggregation — this reproduction's extension).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HavingCmpMutant {
    pub having_idx: usize,
    pub from: CompareOp,
    pub to: CompareOp,
}

/// An aggregation-operator mutant inside a HAVING conjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HavingAggMutant {
    pub having_idx: usize,
    pub from: AggFunc,
    pub to: AggFunc,
}

/// The duplicate-count mutant: `SELECT` ⇄ `SELECT DISTINCT` (the paper's
/// footnote-2 future work).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctMutant {
    /// The mutant's `DISTINCT` flag (negation of the original's).
    pub to: bool,
}

/// A subquery-connective mutant of retained subquery `sub_idx`:
/// `IN` ↔ `EXISTS` ↔ `NOT`-variants (§V-H space). Subqueries with a
/// membership link mutate across all four connectives; plain `EXISTS`
/// predicates (no link) only flip their negation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubMutant {
    pub sub_idx: usize,
    pub from: (SubqueryKind, bool),
    pub to: (SubqueryKind, bool),
}

/// A LIKE-pattern mutant of retained predicate `like_idx`: the `%`-prefix /
/// `%`-suffix / literalized variants of a simple `[%]core[%]` pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikeMutant {
    pub like_idx: usize,
    pub from: String,
    pub to: String,
}

/// An `IS NULL` ↔ `IS NOT NULL` mutant of null check `null_idx`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NullCheckMutant {
    pub null_idx: usize,
    /// The mutant's negation flag (flip of the original's).
    pub to: bool,
}

/// Any single mutation.
#[derive(Debug, Clone)]
pub enum Mutant {
    Join(JoinMutant),
    Cmp(CmpMutant),
    Agg(AggMutant),
    HavingCmp(HavingCmpMutant),
    HavingAgg(HavingAggMutant),
    Distinct(DistinctMutant),
    Sub(SubMutant),
    Like(LikeMutant),
    NullCheck(NullCheckMutant),
}

impl Mutant {
    /// Human-readable description.
    pub fn describe(&self, q: &NormQuery) -> String {
        let names: Vec<String> = q.occurrences.iter().map(|o| o.name.clone()).collect();
        match self {
            Mutant::Join(m) => format!(
                "join mutant: node {} {} -> {} in {}",
                m.node,
                m.from.sql_name(),
                m.to.sql_name(),
                m.tree.display_with(&names)
            ),
            Mutant::Cmp(m) => format!(
                "comparison mutant: predicate #{} `{}` -> `{}`",
                m.pred_idx,
                m.from.sql_symbol(),
                m.to.sql_symbol()
            ),
            Mutant::Agg(m) => format!(
                "aggregate mutant: item #{} {} -> {}",
                m.agg_idx,
                m.from.display_name(),
                m.to.display_name()
            ),
            Mutant::HavingCmp(m) => format!(
                "having comparison mutant: conjunct #{} `{}` -> `{}`",
                m.having_idx,
                m.from.sql_symbol(),
                m.to.sql_symbol()
            ),
            Mutant::HavingAgg(m) => format!(
                "having aggregate mutant: conjunct #{} {} -> {}",
                m.having_idx,
                m.from.display_name(),
                m.to.display_name()
            ),
            Mutant::Distinct(m) => {
                if m.to {
                    "duplicate mutant: SELECT -> SELECT DISTINCT".to_string()
                } else {
                    "duplicate mutant: SELECT DISTINCT -> SELECT".to_string()
                }
            }
            Mutant::Sub(m) => format!(
                "subquery connective mutant: subquery #{} {} -> {}",
                m.sub_idx,
                connective_name(m.from),
                connective_name(m.to)
            ),
            Mutant::Like(m) => format!(
                "LIKE pattern mutant: predicate #{} '{}' -> '{}'",
                m.like_idx, m.from, m.to
            ),
            Mutant::NullCheck(m) => format!(
                "null check mutant: check #{} IS {}NULL -> IS {}NULL",
                m.null_idx,
                if m.to { "" } else { "NOT " },
                if m.to { "NOT " } else { "" }
            ),
        }
    }
}

fn connective_name((kind, negated): (SubqueryKind, bool)) -> &'static str {
    match (kind, negated) {
        (SubqueryKind::In, false) => "IN",
        (SubqueryKind::In, true) => "NOT IN",
        (SubqueryKind::Exists, false) => "EXISTS",
        (SubqueryKind::Exists, true) => "NOT EXISTS",
    }
}

/// Options controlling mutant generation.
#[derive(Debug, Clone, Copy)]
pub struct MutationOptions {
    /// Include mutations *to* full outer join. The paper's experiments
    /// "ignore the mutation to full outer join" (§VI-C), so benchmarks turn
    /// this off; the generator still kills them (§V-A: the two datasets per
    /// condition also kill full-outer mutants).
    pub include_full: bool,
    /// Include this reproduction's extension classes (duplicate-count
    /// SELECT ⇄ SELECT DISTINCT mutants). Benchmarks reproducing the
    /// paper's tables turn this off to keep the counting comparable.
    pub include_extensions: bool,
    /// Cap on the number of enumerated join trees.
    pub tree_limit: usize,
}

impl Default for MutationOptions {
    fn default() -> Self {
        MutationOptions { include_full: true, include_extensions: true, tree_limit: 200_000 }
    }
}

/// The complete single-mutation space of a query.
#[derive(Debug, Clone, Default)]
pub struct MutationSpace {
    pub join: Vec<JoinMutant>,
    pub cmp: Vec<CmpMutant>,
    pub agg: Vec<AggMutant>,
    pub having_cmp: Vec<HavingCmpMutant>,
    pub having_agg: Vec<HavingAggMutant>,
    pub dup: Vec<DistinctMutant>,
    pub sub: Vec<SubMutant>,
    pub like: Vec<LikeMutant>,
    pub null_check: Vec<NullCheckMutant>,
}

impl MutationSpace {
    pub fn len(&self) -> usize {
        self.join.len()
            + self.cmp.len()
            + self.agg.len()
            + self.having_cmp.len()
            + self.having_agg.len()
            + self.dup.len()
            + self.sub.len()
            + self.like.len()
            + self.null_check.len()
    }

    /// Mutant count under the paper's raw convention: every `(join tree,
    /// node, kind)` triple across all join orderings counts separately
    /// (canonically-equal mutants are not merged).
    pub fn raw_len(&self) -> usize {
        self.join.iter().map(|m| m.multiplicity).sum::<usize>()
            + self.cmp.len()
            + self.agg.len()
            + self.having_cmp.len()
            + self.having_agg.len()
            + self.dup.len()
            + self.sub.len()
            + self.like.len()
            + self.null_check.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = Mutant> + '_ {
        self.join
            .iter()
            .cloned()
            .map(Mutant::Join)
            .chain(self.cmp.iter().cloned().map(Mutant::Cmp))
            .chain(self.agg.iter().cloned().map(Mutant::Agg))
            .chain(self.having_cmp.iter().cloned().map(Mutant::HavingCmp))
            .chain(self.having_agg.iter().cloned().map(Mutant::HavingAgg))
            .chain(self.dup.iter().cloned().map(Mutant::Distinct))
            .chain(self.sub.iter().cloned().map(Mutant::Sub))
            .chain(self.like.iter().cloned().map(Mutant::Like))
            .chain(self.null_check.iter().cloned().map(Mutant::NullCheck))
    }
}

/// Generate the mutation space of `q`.
pub fn mutation_space(q: &NormQuery, opts: MutationOptions) -> MutationSpace {
    let (having_cmp, having_agg) = having_mutants(q);
    MutationSpace {
        join: join_mutants(q, opts),
        cmp: cmp_mutants(q),
        agg: agg_mutants(q),
        having_cmp,
        having_agg,
        dup: if opts.include_extensions { dup_mutants(q) } else { Vec::new() },
        sub: sub_mutants(q),
        like: like_mutants(q),
        null_check: null_check_mutants(q),
    }
}

/// Subquery-connective mutants: a linked subquery (`IN` form) mutates to
/// each other member of the four-connective space; an unlinked `EXISTS`
/// only flips its negation (there is no membership operand to re-link).
fn sub_mutants(q: &NormQuery) -> Vec<SubMutant> {
    let mut out = Vec::new();
    for (idx, s) in q.subs.iter().enumerate() {
        let from = (s.kind, s.negated);
        if s.link.is_some() {
            for to in SubPred::CONNECTIVES {
                if to != from {
                    out.push(SubMutant { sub_idx: idx, from, to });
                }
            }
        } else {
            out.push(SubMutant { sub_idx: idx, from, to: (s.kind, !s.negated) });
        }
    }
    out
}

/// LIKE-pattern mutants: for a simple `[%]core[%]` pattern, the other
/// three members of the {core, core%, %core, %core%} family. Patterns with
/// `_` or an interior `%` have no structural family and do not mutate.
fn like_mutants(q: &NormQuery) -> Vec<LikeMutant> {
    let mut out = Vec::new();
    for (idx, l) in q.likes.iter().enumerate() {
        let Some((_, _, core)) = LikePred::simple_shape(&l.pattern) else {
            continue;
        };
        for (lead, trail) in [(false, false), (true, false), (false, true), (true, true)] {
            let to = format!(
                "{}{}{}",
                if lead { "%" } else { "" },
                core,
                if trail { "%" } else { "" }
            );
            if to != l.pattern {
                out.push(LikeMutant { like_idx: idx, from: l.pattern.clone(), to });
            }
        }
    }
    out
}

fn null_check_mutants(q: &NormQuery) -> Vec<NullCheckMutant> {
    q.null_checks
        .iter()
        .enumerate()
        .map(|(idx, n)| NullCheckMutant { null_idx: idx, to: !n.negated })
        .collect()
}

/// Materialize a subquery-connective mutant. The membership link is kept
/// in the descriptor even for `EXISTS` forms (the connective decides
/// whether it participates), so mutation is an involution.
pub fn apply_sub_mutant(q: &NormQuery, m: &SubMutant) -> NormQuery {
    let mut q2 = q.clone();
    q2.subs[m.sub_idx].kind = m.to.0;
    q2.subs[m.sub_idx].negated = m.to.1;
    q2
}

/// Materialize a LIKE-pattern mutant.
pub fn apply_like_mutant(q: &NormQuery, m: &LikeMutant) -> NormQuery {
    let mut q2 = q.clone();
    q2.likes[m.like_idx].pattern = m.to.clone();
    q2
}

/// Materialize an `IS NULL` ↔ `IS NOT NULL` mutant.
pub fn apply_null_check_mutant(q: &NormQuery, m: &NullCheckMutant) -> NormQuery {
    let mut q2 = q.clone();
    q2.null_checks[m.null_idx].negated = m.to;
    q2
}

/// The SELECT ⇄ SELECT DISTINCT mutant. Aggregation queries are excluded:
/// grouped output rows are distinct by key already, making the mutation
/// equivalent whenever the whole group key is projected.
fn dup_mutants(q: &NormQuery) -> Vec<DistinctMutant> {
    match &q.select {
        SelectSpec::Aggregation { .. } => Vec::new(),
        _ => vec![DistinctMutant { to: !q.distinct }],
    }
}

/// Materialize the duplicate-count mutant.
pub fn apply_distinct_mutant(q: &NormQuery, m: &DistinctMutant) -> NormQuery {
    let mut q2 = q.clone();
    q2.distinct = m.to;
    q2
}

fn having_mutants(q: &NormQuery) -> (Vec<HavingCmpMutant>, Vec<HavingAggMutant>) {
    let SelectSpec::Aggregation { having, .. } = &q.select else {
        return (Vec::new(), Vec::new());
    };
    let mut cmps = Vec::new();
    let mut aggs = Vec::new();
    for (idx, h) in having.iter().enumerate() {
        for to in CompareOp::ALL {
            if to != h.cmp {
                cmps.push(HavingCmpMutant { having_idx: idx, from: h.cmp, to });
            }
        }
        if h.arg.is_some() {
            for to in AggFunc::ALL {
                if to != h.func {
                    aggs.push(HavingAggMutant { having_idx: idx, from: h.func, to });
                }
            }
        }
    }
    (cmps, aggs)
}

/// Materialize a HAVING comparison mutant.
pub fn apply_having_cmp_mutant(q: &NormQuery, m: &HavingCmpMutant) -> NormQuery {
    let mut q2 = q.clone();
    if let SelectSpec::Aggregation { having, .. } = &mut q2.select {
        having[m.having_idx].cmp = m.to;
    }
    q2
}

/// Materialize a HAVING aggregate mutant.
pub fn apply_having_agg_mutant(q: &NormQuery, m: &HavingAggMutant) -> NormQuery {
    let mut q2 = q.clone();
    if let SelectSpec::Aggregation { having, .. } = &mut q2.select {
        having[m.having_idx].func = m.to;
    }
    q2
}

fn join_mutants(q: &NormQuery, opts: MutationOptions) -> Vec<JoinMutant> {
    if q.occurrences.len() < 2 {
        return Vec::new();
    }
    let kinds: Vec<JoinKind> =
        JoinKind::ALL.into_iter().filter(|&k| opts.include_full || k != JoinKind::Full).collect();
    if !q.has_outer {
        let dag = ShapeDag::new(q, opts.tree_limit);
        if !dag.is_empty() {
            return enumerated_join_mutants(q, &dag, &kinds);
        }
    }
    // Explicit outer joins fix the shape; a disconnected join graph
    // (explicit cross product) falls back to the tree as written.
    written_tree_mutants(&q.tree, &kinds)
}

/// Join mutants of every enumerated (all-inner) tree, keyed by the mutated
/// node's leaf masks: equal keys are exactly equal
/// [`JoinTree::canonical_key`]s (see the module doc), and none equals an
/// original's, so the originals need no entry.
fn enumerated_join_mutants(q: &NormQuery, dag: &ShapeDag, kinds: &[JoinKind]) -> Vec<JoinMutant> {
    let mut seen: HashMap<(JoinKind, u64, u64), usize> = HashMap::new();
    let mut out: Vec<JoinMutant> = Vec::new();
    let mut masks = Vec::new();
    for shape in 0..dag.len() {
        masks.clear();
        dag.node_masks(shape, &mut masks);
        let mut tree = None;
        for (node, &(l, r)) in masks.iter().enumerate() {
            for &to in kinds {
                let key = match to {
                    JoinKind::Inner => continue,
                    JoinKind::Left => (JoinKind::Left, l, r),
                    JoinKind::Right => (JoinKind::Left, r, l),
                    JoinKind::Full => (JoinKind::Full, l.min(r), l.max(r)),
                };
                match seen.entry(key) {
                    Entry::Occupied(e) => out[*e.get()].multiplicity += 1,
                    Entry::Vacant(e) => {
                        e.insert(out.len());
                        let t = tree.get_or_insert_with(|| dag.annotated(q, shape));
                        out.push(JoinMutant {
                            tree: t.with_kind_at(node, to),
                            node,
                            from: JoinKind::Inner,
                            to,
                            multiplicity: 1,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Join mutants of one fixed tree, deduplicated by canonical key; a mutant
/// equal to the tree itself is dropped.
fn written_tree_mutants(tree: &JoinTree, kinds: &[JoinKind]) -> Vec<JoinMutant> {
    let mut seen = HashMap::from([(tree.canonical_key(), usize::MAX)]);
    let mut out: Vec<JoinMutant> = Vec::new();
    for node in 0..tree.node_count() {
        let from = tree.kind_at(node).expect("node index in range");
        for &to in kinds {
            if to == from {
                continue;
            }
            let m = tree.with_kind_at(node, to);
            match seen.entry(m.canonical_key()) {
                Entry::Occupied(e) => {
                    if *e.get() != usize::MAX {
                        out[*e.get()].multiplicity += 1;
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(out.len());
                    out.push(JoinMutant { tree: m, node, from, to, multiplicity: 1 });
                }
            }
        }
    }
    out
}

fn cmp_mutants(q: &NormQuery) -> Vec<CmpMutant> {
    let mut out = Vec::new();
    for (idx, p) in q.preds.iter().enumerate() {
        for to in CompareOp::ALL {
            if to != p.op {
                out.push(CmpMutant { pred_idx: idx, from: p.op, to });
            }
        }
    }
    out
}

fn agg_mutants(q: &NormQuery) -> Vec<AggMutant> {
    let SelectSpec::Aggregation { aggs, .. } = &q.select else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (idx, a) in aggs.iter().enumerate() {
        if a.arg.is_none() {
            continue; // COUNT(*) — no column to aggregate differently
        }
        let from = a.func;
        for to in AggFunc::ALL {
            if to != from {
                out.push(AggMutant { agg_idx: idx, from, to });
            }
        }
    }
    out
}

/// Materialize a comparison mutant as a modified query (predicates and the
/// execution tree both updated).
pub fn apply_cmp_mutant(q: &NormQuery, m: &CmpMutant) -> NormQuery {
    let mut q2 = q.clone();
    q2.preds[m.pred_idx].op = m.to;
    // Re-derive the execution tree so node conditions see the new operator.
    if q.has_outer {
        q2.tree = replace_pred_in_tree(&q.tree, &q.preds[m.pred_idx], &q2.preds[m.pred_idx]);
    } else {
        q2.tree = strip_conds(&q.tree).annotate(&q2.eq_classes, &q2.preds);
    }
    q2
}

/// Materialize an aggregate mutant as a modified query.
pub fn apply_agg_mutant(q: &NormQuery, m: &AggMutant) -> NormQuery {
    let mut q2 = q.clone();
    if let SelectSpec::Aggregation { aggs, .. } = &mut q2.select {
        aggs[m.agg_idx].func = m.to;
    }
    q2
}

fn strip_conds(t: &JoinTree) -> JoinTree {
    match t {
        JoinTree::Leaf(i) => JoinTree::Leaf(*i),
        JoinTree::Node { kind, left, right, .. } => {
            JoinTree::node(*kind, strip_conds(left), strip_conds(right), vec![])
        }
    }
}

fn replace_pred_in_tree(
    t: &JoinTree,
    old: &crate::ir::Pred,
    new: &crate::ir::Pred,
) -> JoinTree {
    match t {
        JoinTree::Leaf(i) => JoinTree::Leaf(*i),
        JoinTree::Node { kind, left, right, conds } => JoinTree::Node {
            kind: *kind,
            left: Box::new(replace_pred_in_tree(left, old, new)),
            right: Box::new(replace_pred_in_tree(right, old, new)),
            conds: conds.iter().map(|c| if c == old { new.clone() } else { c.clone() }).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use xdata_catalog::university;
    use xdata_sql::parse_query;

    fn norm(sql: &str) -> NormQuery {
        normalize(&parse_query(sql).unwrap(), &university::schema()).unwrap()
    }

    #[test]
    fn single_join_space() {
        let q = norm("SELECT * FROM instructor i, teaches t WHERE i.id = t.id");
        let ms = mutation_space(&q, MutationOptions::default());
        // One tree, one node, three alternative kinds; Right(i,t) ≡
        // Left(t,i) is still distinct from Left(i,t), Full is symmetric.
        assert_eq!(ms.join.len(), 3);
        assert!(ms.cmp.is_empty(), "equijoin pooled into eq class");
        assert!(ms.agg.is_empty());
    }

    #[test]
    fn exclude_full_matches_paper_eval() {
        let q = norm("SELECT * FROM instructor i, teaches t WHERE i.id = t.id");
        let ms = mutation_space(&q, MutationOptions { include_full: false, tree_limit: 1000, ..Default::default() });
        assert_eq!(ms.join.len(), 2);
    }

    #[test]
    fn chain_of_three_join_mutants() {
        let q = norm(
            "SELECT * FROM instructor i, teaches t, course c \
             WHERE i.id = t.id AND t.course_id = c.course_id",
        );
        let ms = mutation_space(&q, MutationOptions::default());
        // 2 trees × 2 nodes × 3 kinds = 12, minus canonical duplicates.
        assert!(ms.join.len() >= 10, "got {}", ms.join.len());
        // All canonical keys unique.
        let mut keys: Vec<String> = ms.join.iter().map(|m| m.tree.canonical_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), ms.join.len());
    }

    #[test]
    fn mutant_growth_is_superlinear() {
        let q3 = norm(
            "SELECT * FROM instructor i, teaches t, course c \
             WHERE i.id = t.id AND t.course_id = c.course_id",
        );
        let q4 = norm(
            "SELECT * FROM instructor i, teaches t, course c, takes k \
             WHERE i.id = t.id AND t.course_id = c.course_id AND c.course_id = k.course_id",
        );
        let m3 = mutation_space(&q3, MutationOptions::default()).join.len();
        let m4 = mutation_space(&q4, MutationOptions::default()).join.len();
        assert!(m4 > 2 * m3, "expected exponential-ish growth: {m3} -> {m4}");
    }

    #[test]
    fn outer_query_tree_is_fixed() {
        let q = norm(
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
             ON i.id = t.id",
        );
        let ms = mutation_space(&q, MutationOptions::default());
        // Fixed tree, 1 node, 3 mutants (to Inner, Right, Full).
        assert_eq!(ms.join.len(), 3);
        assert!(ms.join.iter().any(|m| m.to == JoinKind::Inner));
    }

    #[test]
    fn cmp_mutants_cover_all_alternatives() {
        let q = norm("SELECT * FROM instructor WHERE salary > 50000");
        let ms = mutation_space(&q, MutationOptions::default());
        assert_eq!(ms.cmp.len(), 5);
        assert!(ms.cmp.iter().all(|m| m.from == CompareOp::Gt && m.to != CompareOp::Gt));
    }

    #[test]
    fn agg_mutants_cover_space() {
        let q = norm("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id");
        let ms = mutation_space(&q, MutationOptions::default());
        assert_eq!(ms.agg.len(), 7);
        let q2 = norm("SELECT COUNT(*) FROM teaches");
        let ms2 = mutation_space(&q2, MutationOptions::default());
        assert!(ms2.agg.is_empty(), "COUNT(*) does not mutate");
    }

    #[test]
    fn apply_cmp_mutant_updates_tree() {
        let q = norm("SELECT * FROM teaches b, course c WHERE b.course_id = c.course_id + 10");
        let ms = mutation_space(&q, MutationOptions::default());
        let m = &ms.cmp[0];
        let q2 = apply_cmp_mutant(&q, m);
        assert_eq!(q2.preds[m.pred_idx].op, m.to);
        // The tree's node condition was re-derived with the new op.
        fn ops_in(t: &JoinTree, out: &mut Vec<CompareOp>) {
            if let JoinTree::Node { conds, left, right, .. } = t {
                out.extend(conds.iter().map(|c| c.op));
                ops_in(left, out);
                ops_in(right, out);
            }
        }
        let mut ops = Vec::new();
        ops_in(&q2.tree, &mut ops);
        assert!(ops.contains(&m.to));
        assert!(!ops.contains(&m.from));
    }

    #[test]
    fn apply_agg_mutant_updates_select() {
        let q = norm("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id");
        let ms = mutation_space(&q, MutationOptions::default());
        let m = ms.agg.iter().find(|m| m.to.distinct).unwrap();
        let q2 = apply_agg_mutant(&q, m);
        match &q2.select {
            SelectSpec::Aggregation { aggs, .. } => assert_eq!(aggs[0].func, m.to),
            x => panic!("unexpected {x:?}"),
        }
    }

    #[test]
    fn sub_mutants_cover_connective_space() {
        let q = norm("SELECT name FROM instructor WHERE id IN (SELECT s_id FROM advisor)");
        let ms = mutation_space(&q, MutationOptions::default());
        // IN with a link mutates to NOT IN, EXISTS, NOT EXISTS.
        assert_eq!(ms.sub.len(), 3);
        let tos: Vec<_> = ms.sub.iter().map(|m| m.to).collect();
        assert!(tos.contains(&(SubqueryKind::In, true)));
        assert!(tos.contains(&(SubqueryKind::Exists, false)));
        assert!(tos.contains(&(SubqueryKind::Exists, true)));
        let q2 = apply_sub_mutant(&q, &ms.sub[0]);
        assert_eq!((q2.subs[0].kind, q2.subs[0].negated), ms.sub[0].to);
        // Link survives the mutation so it can mutate back.
        assert!(q2.subs[0].link.is_some());
    }

    #[test]
    fn unlinked_exists_only_flips_negation() {
        let q = norm(
            "SELECT i.name FROM instructor i WHERE EXISTS \
             (SELECT s_id FROM advisor a WHERE a.i_id = i.id)",
        );
        let ms = mutation_space(&q, MutationOptions::default());
        assert_eq!(ms.sub.len(), 1);
        assert_eq!(ms.sub[0].to, (SubqueryKind::Exists, true));
    }

    #[test]
    fn like_mutants_cover_shape_family() {
        let q = norm("SELECT name FROM instructor WHERE name LIKE 'W%'");
        let ms = mutation_space(&q, MutationOptions::default());
        assert_eq!(ms.like.len(), 3);
        let tos: Vec<&str> = ms.like.iter().map(|m| m.to.as_str()).collect();
        assert!(tos.contains(&"W"), "{tos:?}");
        assert!(tos.contains(&"%W"), "{tos:?}");
        assert!(tos.contains(&"%W%"), "{tos:?}");
        let q2 = apply_like_mutant(&q, &ms.like[0]);
        assert_eq!(q2.likes[0].pattern, ms.like[0].to);
    }

    #[test]
    fn wildcard_core_patterns_do_not_mutate() {
        for pat in ["a%b", "a_b", "%", "%%"] {
            let q = norm(&format!("SELECT name FROM instructor WHERE name LIKE '{pat}'"));
            let ms = mutation_space(&q, MutationOptions::default());
            assert!(ms.like.is_empty(), "pattern {pat} has no structural family");
        }
    }

    #[test]
    fn null_check_mutants_flip() {
        let q = norm("SELECT * FROM teaches WHERE id IS NULL");
        let ms = mutation_space(&q, MutationOptions::default());
        assert_eq!(ms.null_check.len(), 1);
        assert!(ms.null_check[0].to);
        let q2 = apply_null_check_mutant(&q, &ms.null_check[0]);
        assert!(q2.null_checks[0].negated);
    }

    #[test]
    fn describe_is_informative() {
        let q = norm("SELECT * FROM instructor i, teaches t WHERE i.id = t.id");
        let ms = mutation_space(&q, MutationOptions::default());
        let d = Mutant::Join(ms.join[0].clone()).describe(&q);
        assert!(d.contains("JOIN"), "{d}");
    }
}
