//! The seeded submission pile of the `grading_pile` workload.
//!
//! It follows the generator of the `grading_sweep` bench candidate for
//! candidate, so the same seed gives the same pile in both: exact
//! duplicates and whitespace-noised copies (~30%), commuted `FROM` orders,
//! comparison-operator swaps and constant-offset join edits, extra
//! selection predicates with seeded constants, explicit-`JOIN` rewrites,
//! and a few percent of submissions that do not parse or name unknown
//! relations.

use xdata_catalog::{university, SplitMix64};

/// A chain query from an explicit relation order and condition list.
fn render_chain(rels: &[&str], conds: &[String]) -> String {
    format!("SELECT * FROM {} WHERE {}", rels.join(", "), conds.join(" AND "))
}

/// The canonical conditions of the `k`-relation chain, as editable strings.
fn chain_conds(k: usize) -> Vec<String> {
    (0..k - 1)
        .map(|i| {
            let (lr, la, rr, ra) = university::join_chain_condition(i);
            format!("{lr}.{la} = {rr}.{ra}")
        })
        .collect()
}

/// Doubled spaces at seeded positions: changes the text, not the canonical
/// form, so noised duplicates still collapse in dedup.
fn whitespace_noise(sql: &str, rng: &mut SplitMix64) -> String {
    sql.split(' ').collect::<Vec<_>>().join(if rng.bool() { "  " } else { " " })
}

/// One freshly minted variant of the `k`-relation chain reference.
fn fresh_variant(k: usize, rng: &mut SplitMix64) -> String {
    let rels = university::join_chain(k);
    let conds = chain_conds(k);
    match rng.below(100) {
        // Commuted FROM with flipped condition sides: a wrong answer under
        // `SELECT *`, since the output column order changes.
        0..=14 => {
            let mut order = rels.clone();
            order.reverse();
            let flipped: Vec<String> = conds
                .iter()
                .map(|c| {
                    let (l, r) = c.split_once(" = ").expect("chain cond");
                    format!("{r} = {l}")
                })
                .collect();
            render_chain(&order, &flipped)
        }
        // Comparison-operator swap on one join condition, optionally with
        // a constant offset.
        15..=44 => {
            let i = rng.below(conds.len());
            let op = *rng.pick(&["<", ">", "<=", ">=", "<>"]);
            let mut edited = conds.clone();
            let (l, r) = edited[i].split_once(" = ").expect("chain cond");
            edited[i] = if rng.bool() {
                format!("{l} {op} {r}")
            } else {
                format!("{l} {op} {r} + {}", 1 + rng.below(997))
            };
            render_chain(&rels, &edited)
        }
        // Extra selection predicate with a seeded constant: many distinct
        // equivalence classes.
        45..=84 => {
            let op = *rng.pick(&["<", ">", "<=", ">="]);
            let c = rng.range_i64(1, 100_000);
            let mut edited = conds.clone();
            edited.push(format!("instructor.salary {op} {c}"));
            render_chain(&rels, &edited)
        }
        // Join-kind rewrites, 2-relation chains only.
        85..=94 if k == 2 => {
            let kind = *rng.pick(&["JOIN", "LEFT OUTER JOIN", "RIGHT OUTER JOIN"]);
            format!("SELECT * FROM instructor {kind} teaches ON {}", conds[0])
        }
        // Submissions that never grade: a parse error or an unknown relation.
        95..=96 => "SELECT FROM WHERE".to_string(),
        97 => format!("SELECT * FROM missing_relation_{}", rng.below(1000)),
        // Whitespace-noised exact duplicate of the reference.
        _ => whitespace_noise(&render_chain(&rels, &conds), rng),
    }
}

/// The seeded pile of `n` candidates for the `k`-relation chain reference:
/// ~30% duplicates of earlier submissions, the rest fresh variants.
pub fn candidate_pile(k: usize, n: usize, seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    let mut pile: Vec<String> = Vec::with_capacity(n);
    while pile.len() < n {
        if !pile.is_empty() && rng.chance(3, 10) {
            let dup = pile[rng.below(pile.len())].clone();
            pile.push(whitespace_noise(&dup, &mut rng));
        } else {
            pile.push(fresh_variant(k, &mut rng));
        }
    }
    pile
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first candidates `grading_sweep` grades against its first
    /// reference at its default seed: the two generators must not drift
    /// apart.
    #[test]
    fn pile_matches_grading_sweep_default_seed() {
        let cond = "instructor.id = teaches.id";
        let want = [
            format!("SELECT * FROM instructor, teaches WHERE {cond} AND instructor.salary < 5799"),
            format!("SELECT * FROM instructor, teaches WHERE {cond} AND instructor.salary < 79671"),
            format!("SELECT * FROM instructor, teaches WHERE {cond} AND instructor.salary < 5799"),
            "SELECT * FROM instructor, teaches WHERE instructor.id >= teaches.id + 715".to_string(),
            format!("SELECT * FROM instructor, teaches WHERE {cond} AND instructor.salary < 79671"),
        ];
        assert_eq!(candidate_pile(2, 5, 0x6ead_e5ee_d000), want);
    }

    /// Every pile `grading_pile` grades, whole, by digest. The digests come
    /// from `grading_sweep`'s own generator at the same `k` and seed, so a
    /// change to either generator fails here.
    #[test]
    fn whole_piles_match_grading_sweep() {
        use crate::inproc::{PILE, PILE_SEED};
        let want = ["bb054f400fbefe48", "133cc314765f132c", "4ccd73bbd49d3faa"];
        for (ri, k) in [2usize, 3, 4].into_iter().enumerate() {
            let pile = candidate_pile(k, PILE, PILE_SEED ^ ri as u64);
            assert_eq!(crate::stats::digest(pile.iter().map(String::as_str)), want[ri], "k = {k}");
        }
    }

    #[test]
    fn same_seed_same_pile() {
        assert_eq!(candidate_pile(3, 200, 9), candidate_pile(3, 200, 9));
        assert_ne!(candidate_pile(3, 200, 9), candidate_pile(3, 200, 10));
    }
}
