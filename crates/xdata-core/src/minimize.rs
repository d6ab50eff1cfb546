//! Test-suite minimization — the paper's future work made real:
//! "We are also working on minimizing the number of datasets generated, by
//! pruning redundant datasets" (§VII).
//!
//! Given the kill matrix (dataset × mutant), a greedy set cover keeps the
//! original-query dataset (the tester must see one non-empty result) plus
//! a minimal-ish subset of datasets that together kill every mutant the
//! full suite kills. Greedy set cover is an (ln n)-approximation, which is
//! exact on every workload in the evaluation.

use xdata_catalog::Schema;
use xdata_engine::kill::{certify_on_suite, prepare_mutant};
use xdata_engine::{execute_query, EngineError};
use xdata_relalg::{MutationSpace, NormQuery};

use crate::suite::TestSuite;

/// Prune datasets that kill no mutant not already killed by the kept ones.
/// Returns the minimized suite; `skipped` entries are preserved.
pub fn minimize_suite(
    query: &NormQuery,
    suite: &TestSuite,
    space: &MutationSpace,
    schema: &Schema,
) -> Result<TestSuite, EngineError> {
    let mutants: Vec<_> = space.iter().collect();
    // A certified mutant's kill column is empty by proof, so it is not run.
    // Each other mutant's query-level rewrite is applied once, outside the
    // dataset loop.
    let certs = certify_on_suite(query, space, &suite.data(), schema);
    let prepared: Vec<_> = mutants
        .iter()
        .enumerate()
        .filter(|&(mi, _)| certs[mi].is_none())
        .map(|(mi, m)| (mi, prepare_mutant(query, m)))
        .collect();
    // Kill matrix: per dataset, the set of killed mutant indices.
    let mut kills: Vec<Vec<usize>> = Vec::with_capacity(suite.datasets.len());
    for d in &suite.datasets {
        let original = execute_query(query, &d.dataset, schema)?;
        let mut killed = Vec::new();
        for (mi, m) in &prepared {
            let mutated = m.execute(query, &d.dataset, schema)?;
            if mutated != original {
                killed.push(*mi);
            }
        }
        kills.push(killed);
    }
    let total_killable: std::collections::BTreeSet<usize> =
        kills.iter().flatten().copied().collect();

    let mut covered: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    let mut keep: Vec<usize> = Vec::new();
    // Always keep the original-query dataset (index with "original" label,
    // else the first).
    if let Some(oi) = suite
        .datasets
        .iter()
        .position(|d| d.label.contains("original"))
        .or(if suite.datasets.is_empty() { None } else { Some(0) })
    {
        keep.push(oi);
        covered.extend(kills[oi].iter().copied());
    }
    // Greedy cover.
    while covered.len() < total_killable.len() {
        let best = (0..suite.datasets.len())
            .filter(|i| !keep.contains(i))
            .max_by_key(|i| kills[*i].iter().filter(|m| !covered.contains(m)).count())
            .expect("uncovered mutants imply an uncounted dataset");
        let gain = kills[best].iter().filter(|m| !covered.contains(m)).count();
        if gain == 0 {
            break; // defensive: should not happen
        }
        keep.push(best);
        covered.extend(kills[best].iter().copied());
    }
    keep.sort_unstable();
    Ok(TestSuite {
        datasets: keep.iter().map(|&i| suite.datasets[i].clone()).collect(),
        skipped: suite.skipped.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::suite::GenOptions;
    use xdata_catalog::{university, DomainCatalog};
    use xdata_engine::kill::kill_report;
    use xdata_relalg::mutation::{mutation_space, MutationOptions};
    use xdata_relalg::normalize;
    use xdata_sql::parse_query;

    fn setup(sql: &str, fks: usize) -> (NormQuery, Schema, TestSuite, MutationSpace) {
        let schema = university::schema_with_fk_count(fks);
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let suite = generate(&q, &schema, &domains, &GenOptions::default()).unwrap();
        let space = mutation_space(&q, MutationOptions::default());
        (q, schema, suite, space)
    }

    #[test]
    fn minimization_preserves_kill_power() {
        let (q, schema, suite, space) = setup(
            "SELECT * FROM instructor i, teaches t, course c \
             WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 5",
            2,
        );
        let min = minimize_suite(&q, &suite, &space, &schema).unwrap();
        assert!(min.datasets.len() <= suite.datasets.len());
        let before = kill_report(&q, &space, &suite.data(), &schema).unwrap();
        let after = kill_report(&q, &space, &min.data(), &schema).unwrap();
        assert_eq!(before.killed_count(), after.killed_count());
    }

    #[test]
    fn minimization_keeps_original_dataset() {
        let (q, schema, suite, space) =
            setup("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", 1);
        let min = minimize_suite(&q, &suite, &space, &schema).unwrap();
        assert!(min.datasets.iter().any(|d| d.label.contains("original")));
    }

    #[test]
    fn comparison_datasets_get_pruned_when_redundant() {
        // The three =, <, > datasets for one selection overlap heavily with
        // the predicate-nullification dataset; minimization must shrink.
        let (q, schema, suite, space) =
            setup("SELECT id FROM instructor WHERE salary > 100", 0);
        let min = minimize_suite(&q, &suite, &space, &schema).unwrap();
        assert!(
            min.datasets.len() < suite.datasets.len(),
            "expected pruning: {} -> {}",
            suite.datasets.len(),
            min.datasets.len()
        );
        let before = kill_report(&q, &space, &suite.data(), &schema).unwrap();
        let after = kill_report(&q, &space, &min.data(), &schema).unwrap();
        assert_eq!(before.killed_count(), after.killed_count());
    }

    #[test]
    fn empty_suite_stays_empty() {
        let schema = university::schema_with_fk_count(0);
        let q = normalize(
            &parse_query("SELECT * FROM instructor").unwrap(),
            &schema,
        )
        .unwrap();
        let space = mutation_space(&q, MutationOptions::default());
        let empty = TestSuite::default();
        let min = minimize_suite(&q, &empty, &space, &schema).unwrap();
        assert!(min.datasets.is_empty());
    }
}
