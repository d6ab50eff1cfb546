//! Equivalence certificates for join-type mutants.
//!
//! The paper checked its surviving mutants by hand (§VI-C) and explains
//! them with two examples. In Example 3, `(i ⟕ t) ⋈ c` pads rows that the
//! inner join with `c` rejects; in Example 2, the NOT NULL foreign key
//! `teaches.id → instructor.id` leaves no `teaches` row to pad. A join
//! mutant changes the kind of one node, and the rows it adds or drops are
//! the NULL-padded rows of each side whose padding differs between the two
//! kinds. The *padded side* is the input an outer join NULL-extends: `⟕`
//! pads its right input, `⟖` its left, `⟗` both. [`certify_join_mutants`]
//! proves each such side by one of two rules:
//!
//! * **null-rejected** (Example 3; outer-join simplification,
//!   Galindo-Legaria & Rosenthal, TODS 1997): some ancestor, reached
//!   through inner joins only, has a condition that reads the padded side.
//!   A padded row holds NULL there, the comparison is unknown, and the row
//!   never reaches the output.
//! * **foreign key** (Example 2 and its chains, such as
//!   `takes ⟕ (student ⋈ department)`): the padded side is an all-inner
//!   subtree with no selection on any of its leaves, and every preserved
//!   row reaches it through NOT NULL foreign keys whose columns match each
//!   node's conditions exactly, one key per node. No row is left to pad.
//!
//! The second rule holds only on data that satisfies the keys it names, so
//! a caller that accepts arbitrary datasets checks them there
//! ([`Certificate::foreign_keys`]). Both rules are about which rows a
//! mutant returns, never their order, and the executor's results and
//! aggregates depend on the bag of rows alone.

use xdata_catalog::{ForeignKey, Schema};
use xdata_sql::{CompareOp, JoinKind};

use crate::ir::{AttrRef, NormQuery, Operand, Pred};
use crate::mutation::JoinMutant;
use crate::tree::JoinTree;

/// Why one padded side adds or drops no row.
#[derive(Debug, Clone, PartialEq)]
pub enum SideProof {
    /// This condition of an inner-join ancestor reads the padded side.
    NullRejected(Pred),
    /// These foreign keys (indices into [`Schema::foreign_keys`]) reach the
    /// padded side from every preserved row: the mutated node's key first,
    /// then one per node inside the padded side.
    ForeignKey(Vec<usize>),
}

/// The rule a certificate rests on. One that needs any foreign key is a
/// foreign-key certificate: it holds only where the keys hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    NullRejected,
    ForeignKey,
}

/// A proof that a join mutant returns the original's rows on every
/// database instance that satisfies the foreign keys it names.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// One proof per side whose padding differs: the side's leaf mask and
    /// its proof.
    pub sides: Vec<(u64, SideProof)>,
}

impl Certificate {
    pub fn rule(&self) -> Rule {
        if self.foreign_keys().next().is_some() {
            Rule::ForeignKey
        } else {
            Rule::NullRejected
        }
    }

    /// Indices into [`Schema::foreign_keys`] of every key the certificate
    /// needs the data to satisfy.
    pub fn foreign_keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.sides
            .iter()
            .flat_map(|(_, proof)| match proof {
                SideProof::ForeignKey(fks) => fks.as_slice(),
                SideProof::NullRejected(_) => &[],
            })
            .copied()
    }

    /// The evidence with names resolved, e.g. `t null-rejected by
    /// t.course_id = c.course_id` or `i reached by foreign key
    /// teaches(id) -> instructor(id)`; sides are separated by `; `.
    pub fn describe(&self, q: &NormQuery, schema: &Schema) -> String {
        let sides: Vec<String> = self
            .sides
            .iter()
            .map(|(mask, proof)| {
                let names: Vec<&str> = q
                    .occurrences
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, o)| o.name.as_str())
                    .collect();
                let side = match names.as_slice() {
                    [one] => one.to_string(),
                    many => format!("{{{}}}", many.join(", ")),
                };
                match proof {
                    SideProof::NullRejected(p) => format!(
                        "{side} null-rejected by {} {} {}",
                        operand_text(q, schema, &p.lhs),
                        p.op.sql_symbol(),
                        operand_text(q, schema, &p.rhs)
                    ),
                    SideProof::ForeignKey(fks) => {
                        let keys: Vec<String> = fks
                            .iter()
                            .map(|&i| fk_text(schema, &schema.foreign_keys()[i]))
                            .collect();
                        let plural = if keys.len() > 1 { "s" } else { "" };
                        format!("{side} reached by foreign key{plural} {}", keys.join(", "))
                    }
                }
            })
            .collect();
        sides.join("; ")
    }
}

fn operand_text(q: &NormQuery, schema: &Schema, o: &Operand) -> String {
    match o {
        Operand::Attr { attr, offset: 0 } => q.attr_name(schema, *attr),
        Operand::Attr { attr, offset } => format!("{} {:+}", q.attr_name(schema, *attr), offset),
        Operand::Const(v) => v.to_string(),
    }
}

fn fk_text(schema: &Schema, fk: &ForeignKey) -> String {
    let cols = |rel: &str, cols: &[usize]| -> String {
        let rel = schema.relation(rel);
        let names: Vec<String> = cols
            .iter()
            .map(|&c| {
                rel.and_then(|r| r.attributes.get(c)).map_or(format!("#{c}"), |a| a.name.clone())
            })
            .collect();
        names.join(", ")
    };
    format!(
        "{}({}) -> {}({})",
        fk.from,
        cols(&fk.from, &fk.from_cols),
        fk.to,
        cols(&fk.to, &fk.to_cols)
    )
}

/// Certificates for `mutants` of `q`, in order: `None` where a padded side
/// has no proof.
pub fn certify_join_mutants(
    q: &NormQuery,
    schema: &Schema,
    mutants: &[JoinMutant],
) -> Vec<Option<Certificate>> {
    let selected = q.selections().flat_map(|(_, p)| p.occurrences()).fold(0, |m, o| m | (1 << o));
    let prover = Prover { q, schema, selected };
    mutants.iter().map(|m| prover.certify(m)).collect()
}

/// `(left padded, right padded)` of a join kind.
fn pads(kind: JoinKind) -> (bool, bool) {
    match kind {
        JoinKind::Inner => (false, false),
        JoinKind::Left => (false, true),
        JoinKind::Right => (true, false),
        JoinKind::Full => (true, true),
    }
}

fn bit(occ: usize) -> u64 {
    1 << occ
}

struct Prover<'a> {
    q: &'a NormQuery,
    schema: &'a Schema,
    /// Occurrences with a selection, which the executor applies at the leaf.
    selected: u64,
}

impl Prover<'_> {
    fn certify(&self, m: &JoinMutant) -> Option<Certificate> {
        let mut ancestors = Vec::new();
        let JoinTree::Node { left, right, conds, .. } = node_at(&m.tree, m.node, &mut ancestors)?
        else {
            return None;
        };
        let (from, to) = (pads(m.from), pads(m.to));
        let mut sides = Vec::new();
        for (differs, padded, preserved) in
            [(from.0 != to.0, left, right), (from.1 != to.1, right, left)]
        {
            if !differs {
                continue;
            }
            let mask = padded.leaf_mask();
            let proof = null_rejected(&ancestors, mask)
                .or_else(|| self.foreign_key(conds, preserved, padded))?;
            sides.push((mask, proof));
        }
        Some(Certificate { sides })
    }

    /// Rule 2 for the `padded` input of a node with conditions `conds`.
    fn foreign_key(
        &self,
        conds: &[Pred],
        preserved: &JoinTree,
        padded: &JoinTree,
    ) -> Option<SideProof> {
        let (src, dst, fk) = self.key_for(conds, preserved.leaf_mask(), padded.leaf_mask())?;
        if !never_padded(preserved, src) {
            return None;
        }
        let mut fks = vec![fk];
        self.reaches(padded, dst, &mut fks).then_some(SideProof::ForeignKey(fks))
    }

    /// Whether every tuple of occurrence `entry` extends to a row of `t`:
    /// `t` is all-inner and selection-free, and each node's conditions are
    /// exactly one NOT NULL foreign key from the side that holds `entry`.
    fn reaches(&self, t: &JoinTree, entry: usize, fks: &mut Vec<usize>) -> bool {
        match t {
            JoinTree::Leaf(occ) => self.selected & bit(*occ) == 0,
            JoinTree::Node { kind: JoinKind::Inner, left, right, conds } => {
                let (near, far) =
                    if left.leaf_mask() & bit(entry) != 0 { (left, right) } else { (right, left) };
                if !self.reaches(near, entry, fks) {
                    return false;
                }
                let Some((_, next, fk)) = self.key_for(conds, near.leaf_mask(), far.leaf_mask())
                else {
                    return false;
                };
                fks.push(fk);
                self.reaches(far, next, fks)
            }
            JoinTree::Node { .. } => false,
        }
    }

    /// The NOT NULL foreign key whose column pairs are exactly `conds`, read
    /// as plain equalities from one occurrence in `from` to one in `to`:
    /// `(referencing occurrence, referenced occurrence, key index)`.
    fn key_for(&self, conds: &[Pred], from: u64, to: u64) -> Option<(usize, usize, usize)> {
        let mut pairs: Vec<(AttrRef, AttrRef)> = Vec::with_capacity(conds.len());
        for c in conds {
            let (Operand::Attr { attr: a, offset: 0 }, Operand::Attr { attr: b, offset: 0 }) =
                (&c.lhs, &c.rhs)
            else {
                return None;
            };
            if c.op != CompareOp::Eq {
                return None;
            }
            let within = |x: &AttrRef, mask: u64| mask & bit(x.occ) != 0;
            pairs.push(if within(a, from) && within(b, to) {
                (*a, *b)
            } else if within(b, from) && within(a, to) {
                (*b, *a)
            } else {
                return None;
            });
        }
        let (src, dst) = pairs.first().map(|(a, b)| (a.occ, b.occ))?;
        if pairs.iter().any(|(a, b)| a.occ != src || b.occ != dst) {
            return None;
        }
        let (src_base, dst_base) = (&self.q.occurrences[src].base, &self.q.occurrences[dst].base);
        let rel = self.schema.relation(src_base)?;
        let fk = self.schema.foreign_keys().iter().position(|fk| {
            let key_pairs = || fk.from_cols.iter().copied().zip(fk.to_cols.iter().copied());
            fk.from == *src_base
                && fk.to == *dst_base
                && fk.from_cols.iter().all(|&c| rel.attributes.get(c).is_some_and(|a| !a.nullable))
                && pairs.iter().all(|(a, b)| key_pairs().any(|k| k == (a.col, b.col)))
                && key_pairs().all(|k| pairs.iter().any(|(a, b)| k == (a.col, b.col)))
        })?;
        Some((src, dst, fk))
    }
}

/// Rule 1: the nearest condition that reads `padded` at an ancestor reached
/// through inner joins only (`ancestors` is root first).
fn null_rejected(ancestors: &[&JoinTree], padded: u64) -> Option<SideProof> {
    let reads = |p: &&Pred| {
        [&p.lhs, &p.rhs].iter().any(|o| o.attr_ref().is_some_and(|a| padded & bit(a.occ) != 0))
    };
    for node in ancestors.iter().rev() {
        let JoinTree::Node { kind: JoinKind::Inner, conds, .. } = node else {
            return None;
        };
        if let Some(p) = conds.iter().find(reads) {
            return Some(SideProof::NullRejected(p.clone()));
        }
    }
    None
}

/// Whether no outer join in `t` pads occurrence `occ`, so every row of `t`
/// holds one of its tuples.
fn never_padded(t: &JoinTree, occ: usize) -> bool {
    match t {
        JoinTree::Leaf(_) => true,
        JoinTree::Node { kind, left, right, .. } => {
            let (left_padded, right_padded) = pads(*kind);
            if left.leaf_mask() & bit(occ) != 0 {
                !left_padded && never_padded(left, occ)
            } else {
                !right_padded && never_padded(right, occ)
            }
        }
    }
}

/// The node at preorder index `idx` of `tree`, with its ancestors pushed
/// onto `path` root first.
fn node_at<'t>(
    tree: &'t JoinTree,
    idx: usize,
    path: &mut Vec<&'t JoinTree>,
) -> Option<&'t JoinTree> {
    fn walk<'t>(
        t: &'t JoinTree,
        idx: &mut usize,
        path: &mut Vec<&'t JoinTree>,
    ) -> Option<&'t JoinTree> {
        let JoinTree::Node { left, right, .. } = t else {
            return None;
        };
        if *idx == 0 {
            return Some(t);
        }
        *idx -= 1;
        path.push(t);
        let found = walk(left, idx, path).or_else(|| walk(right, idx, path));
        if found.is_none() {
            path.pop();
        }
        found
    }
    walk(tree, &mut { idx }, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::{mutation_space, MutationOptions};
    use crate::normalize;
    use xdata_catalog::university;
    use xdata_sql::parse_query;

    /// Every join mutant of `sql` rendered as its tree, with its
    /// certificate's description.
    fn certified(sql: &str, schema: &Schema) -> Vec<(String, Option<String>)> {
        let q = normalize(&parse_query(sql).unwrap(), schema).unwrap();
        let space = mutation_space(&q, MutationOptions::default());
        let names: Vec<String> = q.occurrences.iter().map(|o| o.name.clone()).collect();
        let certs = certify_join_mutants(&q, schema, &space.join);
        space
            .join
            .iter()
            .zip(certs)
            .map(|(m, c)| {
                (m.tree.display_with(&names).to_string(), c.map(|c| c.describe(&q, schema)))
            })
            .collect()
    }

    fn cert_of<'a>(all: &'a [(String, Option<String>)], tree: &str) -> Option<&'a str> {
        let (_, c) =
            all.iter().find(|(t, _)| t == tree).unwrap_or_else(|| panic!("{tree} in {all:?}"));
        c.as_deref()
    }

    #[test]
    fn fk_chain_reaches_a_two_leaf_side() {
        let all = certified(
            "SELECT * FROM takes k, student s, department d \
             WHERE k.sid = s.sid AND s.dept_id = d.dept_id",
            &university::schema(),
        );
        assert_eq!(
            cert_of(&all, "(k LEFT-OUTER-JOIN (s JOIN d))"),
            Some(
                "{s, d} reached by foreign keys takes(sid) -> student(sid), \
                 student(dept_id) -> department(dept_id)"
            )
        );
        // Nothing references takes: padding it has no proof.
        assert_eq!(cert_of(&all, "(k RIGHT-OUTER-JOIN (s JOIN d))"), None);
    }

    #[test]
    fn selection_on_the_padded_side_voids_the_fk_rule() {
        let all = certified(
            "SELECT * FROM takes k, student s, department d \
             WHERE k.sid = s.sid AND s.dept_id = d.dept_id AND d.budget > 5",
            &university::schema(),
        );
        assert_eq!(cert_of(&all, "(k LEFT-OUTER-JOIN (s JOIN d))"), None);
        // k ⟕ s under d still has an inner ancestor reading s.
        assert_eq!(
            cert_of(&all, "((k LEFT-OUTER-JOIN s) JOIN d)"),
            Some("s null-rejected by s.dept_id = d.dept_id")
        );
    }

    #[test]
    fn outer_joins_in_the_written_tree_block_both_rules() {
        // The root is a left join, so the rows that padding t adds below
        // it are not rejected above it.
        let schema = university::schema_with_fk_count(0);
        let all = certified(
            "SELECT * FROM instructor i JOIN teaches t ON i.id = t.id \
             LEFT OUTER JOIN course c ON t.course_id = c.course_id",
            &schema,
        );
        assert_eq!(cert_of(&all, "((i LEFT-OUTER-JOIN t) LEFT-OUTER-JOIN c)"), None);
        assert_eq!(cert_of(&all, "((i JOIN t) JOIN c)"), None);
        // teaches.id -> instructor.id holds, but c ⟕ t pads t, and a padded
        // row's NULL t.id matches no instructor.
        let all = certified(
            "SELECT * FROM course c LEFT OUTER JOIN teaches t ON c.course_id = t.course_id \
             JOIN instructor i ON t.id = i.id",
            &university::schema(),
        );
        assert_eq!(cert_of(&all, "((c LEFT-OUTER-JOIN t) LEFT-OUTER-JOIN i)"), None);
        // Turning c ⟕ t into c ⟖ t drops the rows padding t, which the
        // inner join with i rejects anyway, and pads c in rows that never
        // occur: every teaches row has its course.
        assert_eq!(
            cert_of(&all, "((c RIGHT-OUTER-JOIN t) JOIN i)"),
            Some(
                "c reached by foreign key teaches(course_id) -> course(course_id); \
                 t null-rejected by t.id = i.id"
            )
        );
    }
}
