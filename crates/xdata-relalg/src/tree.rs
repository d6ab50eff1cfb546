//! Annotated join trees.
//!
//! A [`JoinTree`] is a binary tree over relation occurrences whose internal
//! nodes carry a join kind and the join conditions applied at that node.
//! Join predicates are applied "at the earliest possible point in the tree"
//! (§II): [`JoinTree::annotate`] derives per-node conditions from the
//! equivalence classes and retained predicates of a [`crate::NormQuery`].
//!
//! [`JoinTree::canonical_key`] folds semantically equivalent trees together:
//! inner joins are commutative and associative, `A ⟖ B ≡ B ⟕ A`, and full
//! outer joins are commutative — so mutants that differ only by such
//! rewrites count once (the paper's mutant counts likewise collapse
//! equivalent join orders).

use std::fmt;

use xdata_sql::{CompareOp, JoinKind};

use crate::ir::{AttrRef, Operand, Pred};

/// A join tree over relation occurrences.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinTree {
    /// A relation occurrence (index into `NormQuery::occurrences`).
    Leaf(usize),
    Node { kind: JoinKind, left: Box<JoinTree>, right: Box<JoinTree>, conds: Vec<Pred> },
}

impl JoinTree {
    pub fn node(kind: JoinKind, left: JoinTree, right: JoinTree, conds: Vec<Pred>) -> JoinTree {
        JoinTree::Node { kind, left: Box::new(left), right: Box::new(right), conds }
    }

    /// Occurrence indices in left-to-right order.
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            JoinTree::Leaf(i) => out.push(*i),
            JoinTree::Node { left, right, .. } => {
                left.collect_leaves(out);
                right.collect_leaves(out);
            }
        }
    }

    /// Bitmask of occurrence indices (occurrence count ≤ 64 is enforced at
    /// normalization).
    pub fn leaf_mask(&self) -> u64 {
        match self {
            JoinTree::Leaf(i) => 1 << i,
            JoinTree::Node { left, right, .. } => left.leaf_mask() | right.leaf_mask(),
        }
    }

    /// Number of join nodes.
    pub fn node_count(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 0,
            JoinTree::Node { left, right, .. } => 1 + left.node_count() + right.node_count(),
        }
    }

    /// Join kind of node `idx` in preorder (0 = root).
    pub fn kind_at(&self, idx: usize) -> Option<JoinKind> {
        fn walk(t: &JoinTree, idx: &mut usize) -> Option<JoinKind> {
            match t {
                JoinTree::Leaf(_) => None,
                JoinTree::Node { kind, left, right, .. } => {
                    if *idx == 0 {
                        return Some(*kind);
                    }
                    *idx -= 1;
                    walk(left, idx).or_else(|| walk(right, idx))
                }
            }
        }
        let mut i = idx;
        walk(self, &mut i)
    }

    /// A copy of the tree with the join kind of preorder node `idx`
    /// replaced by `kind`.
    pub fn with_kind_at(&self, idx: usize, kind: JoinKind) -> JoinTree {
        fn walk(t: &JoinTree, idx: &mut isize, new_kind: JoinKind) -> JoinTree {
            match t {
                JoinTree::Leaf(i) => JoinTree::Leaf(*i),
                JoinTree::Node { kind, left, right, conds } => {
                    let my = *idx == 0;
                    *idx -= 1;
                    JoinTree::Node {
                        kind: if my { new_kind } else { *kind },
                        left: Box::new(walk(left, idx, new_kind)),
                        right: Box::new(walk(right, idx, new_kind)),
                        conds: conds.clone(),
                    }
                }
            }
        }
        let mut i = idx as isize;
        walk(self, &mut i, kind)
    }

    /// Derive the join conditions applied at each node from equivalence
    /// classes and retained multi-relation predicates, placing each at the
    /// earliest node where its relations have met. Consumes a bare
    /// (condition-free) tree shape and returns the annotated tree.
    pub fn annotate(&self, eq_classes: &[Vec<AttrRef>], preds: &[Pred]) -> JoinTree {
        match self {
            JoinTree::Leaf(i) => JoinTree::Leaf(*i),
            JoinTree::Node { kind, left, right, .. } => {
                let l = left.annotate(eq_classes, preds);
                let r = right.annotate(eq_classes, preds);
                let lm = l.leaf_mask();
                let rm = r.leaf_mask();
                let mut conds = Vec::new();
                // One representative link per equivalence class that spans
                // the two sides (members within each side were linked at
                // lower nodes by induction).
                for ec in eq_classes {
                    let ml: Vec<&AttrRef> = ec.iter().filter(|a| lm & (1 << a.occ) != 0).collect();
                    let mr: Vec<&AttrRef> = ec.iter().filter(|a| rm & (1 << a.occ) != 0).collect();
                    if let (Some(a), Some(b)) = (ml.first(), mr.first()) {
                        conds.push(Pred {
                            lhs: Operand::attr(**a),
                            op: CompareOp::Eq,
                            rhs: Operand::attr(**b),
                        });
                    }
                }
                // Multi-relation predicates that span the two sides.
                let both = lm | rm;
                for p in preds {
                    let occs = p.occurrences();
                    if occs.len() < 2 {
                        continue;
                    }
                    let pm = occs.iter().fold(0u64, |m, o| m | (1 << o));
                    if pm & both == pm && pm & lm != 0 && pm & rm != 0 {
                        conds.push(p.clone());
                    }
                }
                JoinTree::Node { kind: *kind, left: Box::new(l), right: Box::new(r), conds }
            }
        }
    }

    /// Canonical semantic key: inner-join regions flatten to sorted
    /// multisets, `Right(a, b)` normalizes to `Left(b, a)`, `Full` and
    /// `Inner` sort their children. Two trees with equal keys compute the
    /// same result for every database.
    pub fn canonical_key(&self) -> String {
        match self {
            JoinTree::Leaf(i) => i.to_string(),
            JoinTree::Node { kind, left, right, .. } => match kind {
                JoinKind::Inner => {
                    let mut parts = Vec::new();
                    self.flatten_inner(&mut parts);
                    parts.sort();
                    format!("I({})", parts.join(","))
                }
                JoinKind::Full => {
                    let mut parts = [left.canonical_key(), right.canonical_key()];
                    parts.sort();
                    format!("F({})", parts.join(","))
                }
                JoinKind::Left => {
                    format!("L({},{})", left.canonical_key(), right.canonical_key())
                }
                JoinKind::Right => {
                    // a ⟖ b ≡ b ⟕ a.
                    format!("L({},{})", right.canonical_key(), left.canonical_key())
                }
            },
        }
    }

    fn flatten_inner(&self, out: &mut Vec<String>) {
        match self {
            JoinTree::Node { kind: JoinKind::Inner, left, right, .. } => {
                left.flatten_inner(out);
                right.flatten_inner(out);
            }
            other => out.push(other.canonical_key()),
        }
    }

    /// Render with occurrence names.
    pub fn display_with<'a>(&'a self, names: &'a [String]) -> TreeDisplay<'a> {
        TreeDisplay { tree: self, names }
    }
}

/// Helper for name-resolved rendering.
pub struct TreeDisplay<'a> {
    tree: &'a JoinTree,
    names: &'a [String],
}

impl fmt::Display for TreeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn sym(k: JoinKind) -> &'static str {
            match k {
                JoinKind::Inner => "JOIN",
                JoinKind::Left => "LEFT-OUTER-JOIN",
                JoinKind::Right => "RIGHT-OUTER-JOIN",
                JoinKind::Full => "FULL-OUTER-JOIN",
            }
        }
        fn go(t: &JoinTree, names: &[String], f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match t {
                JoinTree::Leaf(i) => {
                    f.write_str(names.get(*i).map(String::as_str).unwrap_or("?"))
                }
                JoinTree::Node { kind, left, right, .. } => {
                    f.write_str("(")?;
                    go(left, names, f)?;
                    write!(f, " {} ", sym(*kind))?;
                    go(right, names, f)?;
                    f.write_str(")")
                }
            }
        }
        go(self.tree, self.names, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(i: usize) -> JoinTree {
        JoinTree::Leaf(i)
    }

    fn inner(l: JoinTree, r: JoinTree) -> JoinTree {
        JoinTree::node(JoinKind::Inner, l, r, vec![])
    }

    #[test]
    fn leaves_and_mask() {
        let t = inner(leaf(0), inner(leaf(2), leaf(1)));
        assert_eq!(t.leaves(), vec![0, 2, 1]);
        assert_eq!(t.leaf_mask(), 0b111);
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn preorder_kind_access_and_mutation() {
        let t = JoinTree::node(JoinKind::Left, inner(leaf(0), leaf(1)), leaf(2), vec![]);
        assert_eq!(t.kind_at(0), Some(JoinKind::Left));
        assert_eq!(t.kind_at(1), Some(JoinKind::Inner));
        assert_eq!(t.kind_at(2), None);
        let m = t.with_kind_at(1, JoinKind::Full);
        assert_eq!(m.kind_at(0), Some(JoinKind::Left));
        assert_eq!(m.kind_at(1), Some(JoinKind::Full));
    }

    #[test]
    fn inner_regions_flatten_in_canonical_key() {
        // ((0 ⋈ 1) ⋈ 2) and (0 ⋈ (2 ⋈ 1)) are the same inner-join region.
        let a = inner(inner(leaf(0), leaf(1)), leaf(2));
        let b = inner(leaf(0), inner(leaf(2), leaf(1)));
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn right_join_normalizes_to_left() {
        let r = JoinTree::node(JoinKind::Right, leaf(0), leaf(1), vec![]);
        let l = JoinTree::node(JoinKind::Left, leaf(1), leaf(0), vec![]);
        assert_eq!(r.canonical_key(), l.canonical_key());
        // But Left(0,1) differs from Left(1,0).
        let l2 = JoinTree::node(JoinKind::Left, leaf(0), leaf(1), vec![]);
        assert_ne!(l.canonical_key(), l2.canonical_key());
    }

    #[test]
    fn full_join_is_commutative_in_key() {
        let a = JoinTree::node(JoinKind::Full, leaf(0), leaf(1), vec![]);
        let b = JoinTree::node(JoinKind::Full, leaf(1), leaf(0), vec![]);
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn outer_join_blocks_inner_flattening() {
        // 0 ⋈ (1 ⟕ 2) must not merge with (0 ⋈ 1) ⟕ 2.
        let a = inner(leaf(0), JoinTree::node(JoinKind::Left, leaf(1), leaf(2), vec![]));
        let b = JoinTree::node(JoinKind::Left, inner(leaf(0), leaf(1)), leaf(2), vec![]);
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn annotate_places_eq_class_links_at_meeting_node() {
        // Occurrences 0,1,2; eq class {0.0, 1.0, 2.0}; tree ((0,1),2).
        let ec = vec![vec![AttrRef::new(0, 0), AttrRef::new(1, 0), AttrRef::new(2, 0)]];
        let t = inner(inner(leaf(0), leaf(1)), leaf(2)).annotate(&ec, &[]);
        match &t {
            JoinTree::Node { conds, left, .. } => {
                assert_eq!(conds.len(), 1, "one representative link at root");
                match &**left {
                    JoinTree::Node { conds, .. } => assert_eq!(conds.len(), 1),
                    x => panic!("unexpected {x:?}"),
                }
            }
            x => panic!("unexpected {x:?}"),
        }
    }

    #[test]
    fn annotate_places_nonequi_pred_at_earliest_node() {
        use xdata_catalog::Value;
        // pred between occ 0 and 2 goes to the root of ((0,1),2).
        let p = Pred {
            lhs: Operand::attr(AttrRef::new(0, 0)),
            op: CompareOp::Lt,
            rhs: Operand::Attr { attr: AttrRef::new(2, 0), offset: 10 },
        };
        let sel = Pred {
            lhs: Operand::attr(AttrRef::new(1, 1)),
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::Int(3)),
        };
        let t = inner(inner(leaf(0), leaf(1)), leaf(2)).annotate(&[], &[p.clone(), sel]);
        match &t {
            JoinTree::Node { conds, left, .. } => {
                assert_eq!(conds.as_slice(), &[p]);
                match &**left {
                    // Selection predicates never land on join nodes.
                    JoinTree::Node { conds, .. } => assert!(conds.is_empty()),
                    x => panic!("unexpected {x:?}"),
                }
            }
            x => panic!("unexpected {x:?}"),
        }
    }

    #[test]
    fn display_renders_tree_shape() {
        let names = vec!["instructor".to_string(), "teaches".to_string(), "course".to_string()];
        let t = inner(inner(leaf(0), leaf(1)), leaf(2));
        assert_eq!(
            t.display_with(&names).to_string(),
            "((instructor JOIN teaches) JOIN course)"
        );
    }
}
