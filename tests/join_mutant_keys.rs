//! The join-mutant space against its `canonical_key()` oracle.
//!
//! `mutation_space` keys the mutants of enumerated join trees by the
//! mutated node's leaf masks and materializes a tree only for a key's
//! first triple. The reference below is the direct definition: take every
//! raw `(tree, node, kind)` triple of `enumerate_trees`, build the mutant
//! with `with_kind_at`, and group by its `canonical_key()`, never emitting
//! a mutant equal to an original tree. Both must give the same mutants, in
//! the same order, with the same multiplicities — over seeded random join
//! schemas, the Table I chains, star queries, an explicit outer join and an
//! explicit cross product, with and without full outer joins, under tree
//! limits that truncate the enumeration.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use xdata::catalog::{university, Schema};
use xdata::relalg::enumerate::enumerate_trees;
use xdata::relalg::mutation::{mutation_space, MutationOptions};
use xdata::relalg::{normalize, JoinTree, NormQuery};
use xdata::sql::{parse_query, JoinKind};
use xdata_bench::{
    chain_schema, chain_sql, random_join_cases, relevant_fk_count, star_schema, star_sql,
};

/// One expected join mutant: `(tree, node, from, to, multiplicity)`.
type Expected = (JoinTree, usize, JoinKind, JoinKind, usize);

fn norm(sql: &str, schema: &Schema) -> NormQuery {
    normalize(&parse_query(sql).unwrap(), schema).unwrap()
}

/// The join mutants by definition: every raw triple, grouped by canonical
/// key in first-occurrence order.
fn reference(q: &NormQuery, opts: MutationOptions) -> Vec<Expected> {
    if q.occurrences.len() < 2 {
        return Vec::new();
    }
    let mut trees = if q.has_outer { Vec::new() } else { enumerate_trees(q, opts.tree_limit) };
    if trees.is_empty() {
        trees.push(q.tree.clone());
    }
    let mut seen: HashMap<String, Option<usize>> =
        trees.iter().map(|t| (t.canonical_key(), None)).collect();
    let mut out: Vec<Expected> = Vec::new();
    for tree in &trees {
        for node in 0..tree.node_count() {
            let from = tree.kind_at(node).unwrap();
            for to in JoinKind::ALL {
                if to == from || (!opts.include_full && to == JoinKind::Full) {
                    continue;
                }
                let m = tree.with_kind_at(node, to);
                match seen.entry(m.canonical_key()) {
                    Entry::Occupied(e) => {
                        if let Some(idx) = e.get() {
                            out[*idx].4 += 1;
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(Some(out.len()));
                        out.push((m, node, from, to, 1));
                    }
                }
            }
        }
    }
    out
}

fn check(label: &str, q: &NormQuery) {
    for include_full in [true, false] {
        for tree_limit in [20_000, 7, 3, 1, 0] {
            let opts = MutationOptions { include_full, include_extensions: false, tree_limit };
            let got: Vec<Expected> = mutation_space(q, opts)
                .join
                .into_iter()
                .map(|m| (m.tree, m.node, m.from, m.to, m.multiplicity))
                .collect();
            let want = reference(q, opts);
            assert_eq!(
                got.len(),
                want.len(),
                "{label}: mutant count, include_full {include_full}, limit {tree_limit}"
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g, w,
                    "{label}: mutant {i}, include_full {include_full}, limit {tree_limit}"
                );
            }
        }
    }
}

#[test]
fn random_join_schemas_match_the_oracle() {
    for seed in [0x5c4ea, 0x7ab1e, 0xd1ce] {
        for case in random_join_cases(seed, 12) {
            check(&case.name, &norm(&case.sql, &case.schema));
        }
    }
}

#[test]
fn table1_chains_match_the_oracle() {
    for k in 2..=7 {
        let schema = chain_schema(k, relevant_fk_count(k));
        check(&format!("{k}-relation chain"), &norm(&chain_sql(k), &schema));
    }
}

#[test]
fn stars_match_the_oracle() {
    for n in 1..=5 {
        check(&format!("star-{n}"), &norm(&star_sql(n), &star_schema(n)));
    }
}

#[test]
fn written_trees_match_the_oracle() {
    let schema = university::schema();
    // An explicit outer join fixes the tree as written.
    let outer = norm(
        "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
         ON i.id = t.id JOIN course c ON t.course_id = c.course_id",
        &schema,
    );
    assert!(outer.has_outer);
    check("outer join", &outer);
    // `course` has no join condition: the join graph is disconnected, so no
    // tree is enumerated and the written tree is mutated instead.
    let cross = norm("SELECT * FROM instructor i, teaches t, course c WHERE i.id = t.id", &schema);
    assert!(enumerate_trees(&cross, 20_000).is_empty());
    assert!(!mutation_space(&cross, MutationOptions::default()).join.is_empty());
    check("cross product", &cross);
}

#[test]
fn chain_tree_counts_are_pinned() {
    let counts: Vec<usize> = (2..=7)
        .map(|k| enumerate_trees(&norm(&chain_sql(k), &chain_schema(k, 0)), 20_000).len())
        .collect();
    assert_eq!(counts, [1, 2, 8, 25, 133, 506]);
}
