//! Whole-pipeline fuzzing over *random schemas*: random relations, random
//! foreign-key DAGs, random join queries. Catches assumptions baked into
//! the University schema (attribute counts, key shapes, FK topologies).
//! Seeded [`SplitMix64`] drives case generation.

use xdata::catalog::{Attribute, Relation, Schema, SplitMix64, SqlType};
use xdata::relalg::mutation::MutationOptions;
use xdata::XData;

/// Description of a random schema: per relation, the number of extra
/// attributes; plus FK edges (i → j with i > j so the graph is acyclic).
#[derive(Debug, Clone)]
struct SchemaSpec {
    extra_attrs: Vec<usize>, // length = relation count, 0..=2 extra attrs
    fk_edges: Vec<(usize, usize)>,
}

impl SchemaSpec {
    fn random(rng: &mut SplitMix64) -> Self {
        let n = 2 + rng.below(3);
        let extra_attrs = (0..n).map(|_| rng.below(3)).collect();
        // Candidate edges i -> j with i > j; keep a random subset.
        let mut all_edges = Vec::new();
        for i in 1..n {
            for j in 0..i {
                all_edges.push((i, j));
            }
        }
        let fk_edges = rng.subset(&all_edges);
        SchemaSpec { extra_attrs, fk_edges }
    }
}

fn build_schema(spec: &SchemaSpec) -> Schema {
    let mut s = Schema::new();
    let n = spec.extra_attrs.len();
    for (i, extra) in spec.extra_attrs.iter().enumerate() {
        let mut attrs = vec![Attribute::new("id", SqlType::Int)];
        // One link column per possible outgoing edge.
        for j in 0..n {
            if spec.fk_edges.contains(&(i, j)) {
                attrs.push(Attribute::new(format!("r{j}_id"), SqlType::Int));
            }
        }
        for k in 0..*extra {
            attrs.push(Attribute::new(format!("a{k}"), SqlType::Int));
        }
        s.add_relation(Relation::new(format!("r{i}"), attrs, &["id"]).unwrap()).unwrap();
    }
    for (i, j) in &spec.fk_edges {
        let from_col = format!("r{j}_id");
        s.add_foreign_key(&format!("r{i}"), &[&from_col], &format!("r{j}"), &["id"]).unwrap();
    }
    s
}

/// A join query over the FK edges (or a cross-free pair via shared id)
/// exercising each relation once.
fn query_for(spec: &SchemaSpec) -> String {
    let n = spec.extra_attrs.len();
    let mut conds: Vec<String> = spec
        .fk_edges
        .iter()
        .map(|(i, j)| format!("r{i}.r{j}_id = r{j}.id"))
        .collect();
    // Relations not linked by any FK edge join on id (arbitrary but legal).
    let mut linked: Vec<bool> = vec![false; n];
    for (i, j) in &spec.fk_edges {
        linked[*i] = true;
        linked[*j] = true;
    }
    for (i, is_linked) in linked.iter().enumerate().skip(1) {
        if !is_linked {
            conds.push(format!("r{i}.id = r0.id"));
        }
    }
    let from: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
    if conds.is_empty() {
        conds.push("r0.id = r1.id".into());
    }
    format!("SELECT * FROM {} WHERE {}", from.join(", "), conds.join(" AND "))
}

#[test]
fn random_schema_pipeline() {
    let mut rng = SplitMix64::new(0x5c4ea);
    for _ in 0..32 {
        let spec = SchemaSpec::random(&mut rng);
        let schema = build_schema(&spec);
        let sql = query_for(&spec);
        let xdata = XData::new(schema.clone());
        let (run, space, report) = xdata
            .evaluate(&sql, MutationOptions { include_full: false, tree_limit: 2_000, ..Default::default() })
            .unwrap_or_else(|e| panic!("{sql} on {spec:?}: {e}"));

        // Datasets legal, original non-empty.
        for d in &run.suite.datasets {
            let errs = d.dataset.integrity_violations(&schema);
            assert!(errs.is_empty(), "{}: {errs:?} ({sql}, {spec:?})", d.label);
        }
        let orig = run.suite.datasets.iter().find(|d| d.label.contains("original"));
        assert!(orig.is_some(), "no original dataset for {sql}");
        let r = xdata::engine::execute_query(
            &run.query,
            &orig.unwrap().dataset,
            &schema,
        ).unwrap();
        assert!(!r.is_empty(), "original dataset gives empty result for {sql}");

        // Kill verdicts are sound.
        let data = run.suite.data();
        let mutants: Vec<_> = space.iter().collect();
        // The report never executed a certified mutant: it must equal the
        // original on every dataset.
        let certs = xdata::engine::kill::certify_on_suite(&run.query, &space, &data, &schema);
        for (mi, cert) in certs.iter().enumerate() {
            let Some(cert) = cert else { continue };
            for db in &data {
                let a = xdata::engine::execute_query(&run.query, db, &schema).unwrap();
                let b = xdata::engine::kill::execute_mutant(&run.query, &mutants[mi], db, &schema)
                    .unwrap();
                assert!(
                    a == b,
                    "certified mutant {} ({}) differs on `{}` ({sql})",
                    mutants[mi].describe(&run.query),
                    cert.describe(&run.query, &schema),
                    db.label
                );
            }
        }
        for (mi, k) in report.killed_by.iter().enumerate() {
            if let Some(di) = k {
                let a = xdata::engine::execute_query(&run.query, data[*di], &schema).unwrap();
                let b = xdata::engine::kill::execute_mutant(
                    &run.query, &mutants[mi], data[*di], &schema,
                ).unwrap();
                assert!(a != b);
            }
        }
    }
}
