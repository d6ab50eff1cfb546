//! End-to-end validation of the paper's central claim: the generated test
//! suite kills every non-equivalent mutant.
//!
//! For small queries we go further than the paper's manual check (§VI-C,
//! "we manually verified that every mutation that was not killed was in
//! fact an equivalent mutation"): surviving mutants are checked for
//! equivalence *automatically* by exhaustive search over small legal
//! database instances.

use xdata::catalog::{university, Dataset, Value};
use xdata::engine::kill::{certify_on_suite, execute_mutant};
use xdata::engine::execute_query;
use xdata::relalg::mutation::MutationOptions;
use xdata::relalg::{Mutant, NormQuery};
use xdata::XData;

/// Exhaustively search tiny legal instances for one that kills `m`.
/// Returns true if a killer exists (mutant is NOT equivalent).
fn killable_by_exhaustion(
    q: &NormQuery,
    m: &Mutant,
    schema: &xdata::catalog::Schema,
) -> bool {
    // Values 0..=2, up to 2 tuples per relation; only attributes used by
    // the query vary, the rest are fixed to 0 (they cannot affect results
    // except through SELECT *, where constant columns cancel out between
    // original and mutant).
    let bases: Vec<&str> = q.occurrences.iter().map(|o| o.base.as_str()).collect();
    let mut rels: Vec<&str> = bases.clone();
    rels.sort();
    rels.dedup();
    let used = q.used_attrs();
    // Per relation: which columns vary.
    let varying: Vec<(usize, Vec<usize>)> = rels
        .iter()
        .map(|r| {
            let rel = schema.relation(r).expect("relation");
            let mut cols: Vec<usize> = used
                .iter()
                .filter(|a| q.occurrences[a.occ].base == *r)
                .map(|a| a.col)
                .chain(rel.primary_key.iter().copied())
                .collect();
            cols.sort_unstable();
            cols.dedup();
            (rel.arity(), cols)
        })
        .collect();

    // Enumerate candidate tuples per relation: values 0..=2 on varying
    // columns. With ≤3 varying columns that's ≤27 tuples per relation.
    let candidates: Vec<Vec<Vec<Value>>> = varying
        .iter()
        .map(|(arity, cols)| {
            let mut tuples = vec![vec![Value::Int(0); *arity]];
            for &c in cols {
                let mut next = Vec::new();
                for t in &tuples {
                    for v in 0..=2i64 {
                        let mut t2 = t.clone();
                        t2[c] = Value::Int(v);
                        next.push(t2);
                    }
                }
                tuples = next;
                if tuples.len() > 200 {
                    tuples.truncate(200);
                }
            }
            tuples
        })
        .collect();

    // Enumerate instances: subsets of ≤2 candidate tuples per relation.
    // To bound the search, use a fixed pool of subsets per relation.
    let subsets: Vec<Vec<Vec<Vec<Value>>>> = candidates
        .iter()
        .map(|cands| {
            let mut subs: Vec<Vec<Vec<Value>>> = vec![vec![]];
            for t in cands {
                subs.push(vec![t.clone()]);
            }
            for (i, a) in cands.iter().enumerate() {
                for b in cands.iter().skip(i + 1) {
                    subs.push(vec![a.clone(), b.clone()]);
                }
            }
            subs
        })
        .collect();

    let mut idx = vec![0usize; rels.len()];
    loop {
        // Build instance.
        let mut db = Dataset::new();
        for (ri, r) in rels.iter().enumerate() {
            db.ensure_relation(r);
            for t in &subsets[ri][idx[ri]] {
                db.push(r, t.clone());
            }
        }
        if db.integrity_violations(schema).is_empty() {
            let orig = execute_query(q, &db, schema).expect("original executes");
            let mutd = execute_mutant(q, m, &db, schema).expect("mutant executes");
            if orig != mutd {
                return true;
            }
        }
        // Odometer.
        let mut i = 0;
        loop {
            if i == rels.len() {
                return false;
            }
            idx[i] += 1;
            if idx[i] < subsets[i].len() {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}

/// The core completeness check: generate, evaluate, and prove every
/// surviving mutant equivalent (within the bounded search). The report
/// never executes a mutant it certifies equivalent; each certified mutant
/// must be a survivor, so the search covers it too.
fn assert_complete(sql: &str, fks: usize) {
    let schema = university::schema_with_fk_count(fks);
    let xdata = XData::new(schema.clone());
    let (run, space, report) = xdata
        .evaluate(sql, MutationOptions::default())
        .unwrap_or_else(|e| panic!("evaluate({sql}): {e}"));
    assert!(
        !run.suite.datasets.is_empty(),
        "no datasets generated for {sql}"
    );
    // Every dataset must be a legal instance.
    for d in &run.suite.datasets {
        let errs = d.dataset.integrity_violations(&schema);
        assert!(errs.is_empty(), "dataset `{}` illegal: {errs:?}", d.label);
    }
    let mutants: Vec<Mutant> = space.iter().collect();
    let surviving: Vec<usize> = report.surviving().collect();
    let certs = certify_on_suite(&run.query, &space, &run.suite.data(), &schema);
    for (mi, _) in certs.iter().enumerate().filter(|(_, c)| c.is_some()) {
        assert!(surviving.contains(&mi), "certified mutant #{mi} is not a survivor ({sql})");
    }
    for &mi in &surviving {
        let m = &mutants[mi];
        assert!(
            !killable_by_exhaustion(&run.query, m, &schema),
            "mutant survived but is killable: {} (query: {sql}, fks: {fks})",
            m.describe(&run.query)
        );
    }
}

#[test]
fn intro_example_complete_no_fk() {
    assert_complete("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", 0);
}

#[test]
fn intro_example_complete_with_fk() {
    assert_complete("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", 1);
}

#[test]
fn three_way_chain_complete_no_fk() {
    assert_complete(
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id",
        0,
    );
}

#[test]
fn three_way_chain_complete_with_fks() {
    assert_complete(
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id",
        2,
    );
}

#[test]
fn selection_comparison_complete() {
    assert_complete("SELECT id FROM instructor WHERE salary > 5", 0);
}

#[test]
fn join_plus_selection_complete() {
    assert_complete(
        "SELECT i.id FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 5",
        1,
    );
}

#[test]
fn nonequi_join_complete() {
    assert_complete(
        "SELECT t.id FROM teaches t, course c WHERE t.course_id = c.course_id + 1",
        0,
    );
}

#[test]
fn outer_join_query_complete() {
    assert_complete(
        "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t \
         ON i.id = t.id",
        0,
    );
}

#[test]
fn aggregate_mutants_killed() {
    // Aggregates: check the suite kills all aggregate mutants (the class
    // where the paper proves completeness for single-relation inputs).
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    let (run, space, report) = xdata
        .evaluate(
            "SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id",
            MutationOptions::default(),
        )
        .unwrap();
    let mutants: Vec<Mutant> = space.iter().collect();
    let surviving_aggs: Vec<String> = report
        .surviving()
        .map(|i| &mutants[i])
        .filter(|m| matches!(m, Mutant::Agg(_)))
        .map(|m| m.describe(&run.query))
        .collect();
    assert!(surviving_aggs.is_empty(), "surviving aggregate mutants: {surviving_aggs:?}");
}

#[test]
fn count_distinct_mutants_killed() {
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    let (run, space, report) = xdata
        .evaluate(
            "SELECT dept_id, COUNT(salary) FROM instructor GROUP BY dept_id",
            MutationOptions::default(),
        )
        .unwrap();
    let mutants: Vec<Mutant> = space.iter().collect();
    for mi in report.surviving() {
        if let Mutant::Agg(a) = &mutants[mi] {
            panic!("surviving aggregate mutant: {:?}", a);
        }
    }
    let _ = run;
}

#[test]
fn suite_size_linear_in_query_size() {
    // The number of datasets grows linearly with joins (the paper's
    // headline complexity result), while the mutant space explodes.
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema);
    let sqls = [
        "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id",
        "SELECT * FROM instructor i, teaches t, course c, takes k \
         WHERE i.id = t.id AND t.course_id = c.course_id AND c.course_id = k.course_id",
        "SELECT * FROM instructor i, teaches t, course c, takes k, student s \
         WHERE i.id = t.id AND t.course_id = c.course_id AND c.course_id = k.course_id \
         AND k.sid = s.sid",
    ];
    let mut dataset_counts = Vec::new();
    let mut mutant_counts = Vec::new();
    for sql in sqls {
        let run = xdata.generate_for(sql).unwrap();
        dataset_counts.push(run.suite.datasets.len());
        mutant_counts.push(run.mutants(MutationOptions::default()).len());
    }
    // Linear-ish growth in datasets: increments bounded by a constant.
    for w in dataset_counts.windows(2) {
        assert!(w[1] >= w[0], "{dataset_counts:?}");
        assert!(w[1] - w[0] <= 4, "dataset growth not linear: {dataset_counts:?}");
    }
    // Mutant space grows much faster than the suite.
    assert!(
        *mutant_counts.last().unwrap() > 10 * *dataset_counts.last().unwrap(),
        "mutants {mutant_counts:?} vs datasets {dataset_counts:?}"
    );
}
