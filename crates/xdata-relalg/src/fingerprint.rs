//! Structural fingerprints of normalized queries.
//!
//! Real grading batches are heavily duplicated: out of a thousand student
//! submissions most are the reference query re-typed, with FROM lists
//! reordered and predicates flipped. [`canonical_form`] renders a
//! [`NormQuery`] into a string that is invariant under those
//! semantics-preserving rewrites, so the batch grader can execute each
//! equivalence class once and share the verdict.
//!
//! The form is **sound but conservative**: equal forms imply the two
//! queries compute the same result on every database (they are the same
//! query up to occurrence renaming, predicate orientation/order and
//! inner-join tree rewrites — exactly the invariances normalization and
//! [`JoinTree::canonical_key`] already establish); unequal forms make no
//! claim, so a missed collapse costs one extra execution, never a wrong
//! verdict. Self-joins are the deliberate conservative case: occurrences
//! of the same base relation keep their written order rather than trying
//! all permutations.

use crate::ir::{AttrRef, NormQuery, Operand, Pred, SelectSpec, SubPred};
use crate::tree::JoinTree;

/// Render `q` into its canonical structural form. Two queries with equal
/// forms are equivalent after normalization and always grade identically.
pub fn canonical_form(q: &NormQuery) -> String {
    // Canonical occurrence numbering: order by base relation name, keeping
    // the written order among occurrences of the same base (stable sort).
    let mut order: Vec<usize> = (0..q.occurrences.len()).collect();
    order.sort_by(|&a, &b| q.occurrences[a].base.cmp(&q.occurrences[b].base).then(a.cmp(&b)));
    let mut perm = vec![0usize; order.len()];
    for (new, &old) in order.iter().enumerate() {
        perm[old] = new;
    }
    let remap = |a: AttrRef| AttrRef::new(perm[a.occ], a.col);

    let rels: Vec<&str> = order.iter().map(|&i| q.occurrences[i].base.as_str()).collect();

    let mut classes: Vec<Vec<AttrRef>> = q
        .eq_classes
        .iter()
        .map(|c| {
            let mut c: Vec<AttrRef> = c.iter().copied().map(remap).collect();
            c.sort_unstable();
            c
        })
        .collect();
    classes.sort_unstable();
    let classes: Vec<String> = classes.iter().map(|c| render_attrs(c)).collect();

    // Predicates are a conjunction: order and operand orientation are
    // irrelevant, so each renders in its lexicographically smaller
    // orientation and the list is sorted.
    let mut preds: Vec<String> = q.preds.iter().map(|p| render_pred(p, &remap)).collect();
    preds.sort_unstable();

    let tree = remap_tree(&q.tree, &perm).canonical_key();

    // Retained subquery / LIKE / NULL-check predicates are conjuncts too:
    // each renders with remapped outer references and the lists sort.
    let mut subs: Vec<String> = q.subs.iter().map(|s| render_sub(s, &remap)).collect();
    subs.sort_unstable();
    let mut likes: Vec<String> = q
        .likes
        .iter()
        .map(|l| {
            let a = remap(l.attr);
            format!("#{}.{} {} '{}'", a.occ, a.col, if l.negated { "NOT LIKE" } else { "LIKE" }, l.pattern)
        })
        .collect();
    likes.sort_unstable();
    let mut nulls: Vec<String> = q
        .null_checks
        .iter()
        .map(|n| {
            let a = remap(n.attr);
            format!("#{}.{} IS {}NULL", a.occ, a.col, if n.negated { "NOT " } else { "" })
        })
        .collect();
    nulls.sort_unstable();

    let select = match &q.select {
        // `*` expands in *written* occurrence order at execution time, so
        // the output column order depends on the FROM list: the star
        // renders with the written order expressed in canonical ids, and
        // commuted-FROM star queries stay distinct.
        SelectSpec::Star => {
            let written: Vec<String> = perm.iter().map(|p| p.to_string()).collect();
            format!("*[{}]", written.join(","))
        }
        SelectSpec::Columns(cols) => {
            // Projection order is output order — not sorted.
            let cols: Vec<AttrRef> = cols.iter().copied().map(remap).collect();
            format!("cols{}", render_attrs(&cols))
        }
        SelectSpec::Aggregation { group_by, aggs, having } => {
            let group: Vec<AttrRef> = group_by.iter().copied().map(remap).collect();
            let aggs: Vec<String> = aggs
                .iter()
                .map(|a| format!("{}({})", a.func.display_name(), render_opt_attr(a.arg, &remap)))
                .collect();
            let mut having: Vec<String> = having
                .iter()
                .map(|h| {
                    format!(
                        "{}({}) {} {}",
                        h.func.display_name(),
                        render_opt_attr(h.arg, &remap),
                        h.cmp.sql_symbol(),
                        h.value
                    )
                })
                .collect();
            having.sort_unstable(); // HAVING conjuncts commute
            format!("group{} aggs[{}] having[{}]", render_attrs(&group), aggs.join(","), having.join(" AND "))
        }
    };

    format!(
        "rels=[{}] eq=[{}] pred=[{}] sub=[{}] like=[{}] null=[{}] tree={} distinct={} select={}",
        rels.join(","),
        classes.join(";"),
        preds.join(" AND "),
        subs.join(" AND "),
        likes.join(" AND "),
        nulls.join(" AND "),
        tree,
        q.distinct,
        select
    )
}

/// Render one retained subquery predicate. Subquery conditions commute
/// (conjunction), so they sort; outer references remap to canonical ids;
/// the subquery's written alias is normalization noise and is omitted.
fn render_sub(s: &SubPred, remap: &impl Fn(AttrRef) -> AttrRef) -> String {
    let link = match &s.link {
        Some((o, col)) => format!("{}->{}", render_operand(o, remap), col),
        None => "-".to_string(),
    };
    let mut conds: Vec<String> = s
        .conds
        .iter()
        .map(|c| format!(".{} {} {}", c.col, c.op.sql_symbol(), render_operand(&c.rhs, remap)))
        .collect();
    conds.sort_unstable();
    let conn = SubPred::connective_name((s.kind, s.negated));
    format!("{conn} {}({} link={} where[{}])", s.base, s.base, link, conds.join(" AND "))
}

/// 128-bit FNV-style hash of [`canonical_form`], for compact display and
/// metric labels; the grader groups by the full form, so hash collisions
/// cannot mis-grade anything.
pub fn structural_hash(q: &NormQuery) -> u128 {
    form_hash(&canonical_form(q))
}

/// The [`structural_hash`] of a query whose [`canonical_form`] is `form`,
/// for a caller that already holds the form.
pub fn form_hash(form: &str) -> u128 {
    let h1 = fnv1a(form.as_bytes(), 0xcbf2_9ce4_8422_2325);
    let h2 = fnv1a(form.as_bytes(), 0x9e37_79b9_7f4a_7c15);
    ((h1 as u128) << 64) | h2 as u128
}

fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn render_attrs(attrs: &[AttrRef]) -> String {
    let parts: Vec<String> = attrs.iter().map(|a| format!("#{}.{}", a.occ, a.col)).collect();
    format!("[{}]", parts.join(","))
}

fn render_opt_attr(a: Option<AttrRef>, remap: &impl Fn(AttrRef) -> AttrRef) -> String {
    match a {
        Some(a) => {
            let a = remap(a);
            format!("#{}.{}", a.occ, a.col)
        }
        None => "*".to_string(),
    }
}

fn render_operand(o: &Operand, remap: &impl Fn(AttrRef) -> AttrRef) -> String {
    match o {
        Operand::Attr { attr, offset } => {
            let a = remap(*attr);
            if *offset == 0 {
                format!("#{}.{}", a.occ, a.col)
            } else {
                format!("#{}.{}{:+}", a.occ, a.col, offset)
            }
        }
        Operand::Const(v) => format!("{v}"),
    }
}

fn render_pred(p: &Pred, remap: &impl Fn(AttrRef) -> AttrRef) -> String {
    let a = format!(
        "{} {} {}",
        render_operand(&p.lhs, remap),
        p.op.sql_symbol(),
        render_operand(&p.rhs, remap)
    );
    let b = format!(
        "{} {} {}",
        render_operand(&p.rhs, remap),
        p.op.mirror().sql_symbol(),
        render_operand(&p.lhs, remap)
    );
    // `x > 5` and `5 < x` are one predicate; pick the smaller rendering.
    a.min(b)
}

/// The tree with leaf occurrence indices renumbered; per-node conditions
/// are dropped — [`JoinTree::canonical_key`] ignores them, and they derive
/// deterministically from the (already-rendered) classes and predicates.
fn remap_tree(t: &JoinTree, perm: &[usize]) -> JoinTree {
    match t {
        JoinTree::Leaf(i) => JoinTree::Leaf(perm[*i]),
        JoinTree::Node { kind, left, right, .. } => JoinTree::Node {
            kind: *kind,
            left: Box::new(remap_tree(left, perm)),
            right: Box::new(remap_tree(right, perm)),
            conds: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize;
    use xdata_catalog::university;
    use xdata_sql::parse_query;

    fn form(sql: &str) -> String {
        let schema = university::schema();
        canonical_form(&normalize(&parse_query(sql).unwrap(), &schema).unwrap())
    }

    #[test]
    fn commuted_from_list_collapses() {
        // With an explicit select list the output is unchanged by FROM
        // order, so the commuted query collapses…
        assert_eq!(
            form("SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id"),
            form("SELECT i.name, t.course_id FROM teaches t, instructor i WHERE t.id = i.id"),
        );
        // …but `SELECT *` expands in written FROM order, so commuting the
        // list changes the output column order and must stay distinct.
        assert_ne!(
            form("SELECT * FROM instructor i, teaches t WHERE i.id = t.id"),
            form("SELECT * FROM teaches t, instructor i WHERE t.id = i.id"),
        );
    }

    #[test]
    fn explicit_join_collapses_with_comma_from() {
        assert_eq!(
            form("SELECT * FROM instructor i, teaches t WHERE i.id = t.id"),
            form("SELECT * FROM instructor i JOIN teaches t ON i.id = t.id"),
        );
    }

    #[test]
    fn flipped_predicate_collapses() {
        assert_eq!(
            form("SELECT i.name FROM instructor i WHERE i.salary > 50000"),
            form("SELECT i.name FROM instructor i WHERE 50000 < i.salary"),
        );
    }

    #[test]
    fn different_operator_distinct() {
        assert_ne!(
            form("SELECT i.name FROM instructor i WHERE i.salary > 50000"),
            form("SELECT i.name FROM instructor i WHERE i.salary >= 50000"),
        );
    }

    #[test]
    fn different_join_kind_distinct() {
        assert_ne!(
            form("SELECT * FROM instructor i, teaches t WHERE i.id = t.id"),
            form("SELECT * FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id"),
        );
    }

    #[test]
    fn distinct_flag_distinct() {
        assert_ne!(
            form("SELECT i.name FROM instructor i"),
            form("SELECT DISTINCT i.name FROM instructor i"),
        );
    }

    #[test]
    fn aggregation_spec_participates() {
        assert_ne!(
            form("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id"),
            form("SELECT dept_id, AVG(salary) FROM instructor GROUP BY dept_id"),
        );
        assert_eq!(
            form("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id"),
            form("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id"),
        );
    }

    #[test]
    fn subquery_connective_participates() {
        // Same subquery, different connective polarity: must stay distinct
        // (a collapse here would mis-grade a NOT IN as an IN).
        assert_ne!(
            form("SELECT name FROM instructor WHERE id IN (SELECT s_id FROM advisor)"),
            form("SELECT name FROM instructor WHERE id NOT IN (SELECT s_id FROM advisor)"),
        );
        // Reordered subquery conditions collapse (conjunction commutes).
        assert_eq!(
            form(
                "SELECT i.name FROM instructor i WHERE EXISTS \
                 (SELECT s_id FROM advisor a WHERE a.i_id = i.id AND a.s_id > 3)"
            ),
            form(
                "SELECT i.name FROM instructor i WHERE EXISTS \
                 (SELECT s_id FROM advisor a WHERE a.s_id > 3 AND a.i_id = i.id)"
            ),
        );
        // The subquery alias is normalization noise.
        assert_eq!(
            form(
                "SELECT i.name FROM instructor i WHERE EXISTS \
                 (SELECT s_id FROM advisor a WHERE a.i_id = i.id)"
            ),
            form(
                "SELECT i.name FROM instructor i WHERE EXISTS \
                 (SELECT s_id FROM advisor b WHERE b.i_id = i.id)"
            ),
        );
    }

    #[test]
    fn like_and_null_checks_participate() {
        assert_ne!(
            form("SELECT name FROM instructor WHERE name LIKE 'W%'"),
            form("SELECT name FROM instructor WHERE name LIKE '%W'"),
        );
        assert_ne!(
            form("SELECT name FROM instructor WHERE name LIKE 'W%'"),
            form("SELECT name FROM instructor WHERE name NOT LIKE 'W%'"),
        );
        assert_ne!(
            form("SELECT * FROM teaches WHERE id IS NULL"),
            form("SELECT * FROM teaches WHERE id IS NOT NULL"),
        );
        assert_eq!(
            form("SELECT name FROM instructor WHERE name LIKE 'W%' AND salary > 5"),
            form("SELECT name FROM instructor WHERE salary > 5 AND name LIKE 'W%'"),
        );
    }

    #[test]
    fn hash_matches_form_equality() {
        let schema = university::schema();
        let a = normalize(
            &parse_query("SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id").unwrap(),
            &schema,
        )
        .unwrap();
        let b = normalize(
            &parse_query("SELECT i.name FROM teaches t, instructor i WHERE t.id = i.id").unwrap(),
            &schema,
        )
        .unwrap();
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }
}
