//! Differential testing of the two physical join strategies: every query
//! of the tier-1 corpus (paper examples over the University schema, plus
//! seeded random schemas in the `tests/random_schemas.rs` style) executes
//! through both the hash-join path and the nested-loop baseline, on every
//! dataset of its generated suite, for the original query *and* every
//! mutant — and the [`ResultSet`]s must be identical, row for row.
//!
//! Identical means `==` on the sorted bags AND the same projected row
//! content. The two paths emit the same rows in different orders; results
//! are sorted bags and `SUM`/`AVG` add in value order, so neither the
//! listing nor a float aggregate can diverge.

use xdata::catalog::{Attribute, Relation, Schema, SplitMix64, SqlType};
use xdata::engine::exec::{execute_query_strategy, JoinStrategy};
use xdata::engine::kill::prepare_mutant;
use xdata::relalg::mutation::{mutation_space, MutationOptions};
use xdata::XData;

/// Assert hash/nested parity for `sql` on every dataset of its generated
/// suite, for the original and all mutants.
fn assert_parity(schema: &Schema, sql: &str) {
    let x = XData::new(schema.clone());
    let run = x.generate_for(sql).unwrap_or_else(|e| panic!("generate `{sql}`: {e}"));
    let space = mutation_space(&run.query, MutationOptions::default());
    let mutants: Vec<_> = space.iter().collect();
    for (di, d) in run.suite.datasets.iter().enumerate() {
        let hash = execute_query_strategy(&run.query, &d.dataset, schema, JoinStrategy::Hash)
            .unwrap_or_else(|e| panic!("hash `{sql}` on dataset {di}: {e}"));
        let nested =
            execute_query_strategy(&run.query, &d.dataset, schema, JoinStrategy::NestedLoop)
                .unwrap_or_else(|e| panic!("nested `{sql}` on dataset {di}: {e}"));
        assert_eq!(hash, nested, "original `{sql}` diverges on dataset {di}");
        assert_eq!(hash.rows(), nested.rows(), "row order/content `{sql}` dataset {di}");
        for (mi, m) in mutants.iter().enumerate() {
            let prepared = prepare_mutant(&run.query, m);
            let h = prepared
                .execute_strategy(&run.query, &d.dataset, schema, JoinStrategy::Hash)
                .unwrap_or_else(|e| panic!("hash mutant {mi} of `{sql}`: {e}"));
            let n = prepared
                .execute_strategy(&run.query, &d.dataset, schema, JoinStrategy::NestedLoop)
                .unwrap_or_else(|e| panic!("nested mutant {mi} of `{sql}`: {e}"));
            assert_eq!(
                h.rows(),
                n.rows(),
                "mutant {mi} ({}) of `{sql}` diverges on dataset {di}",
                m.describe(&run.query)
            );
        }
    }
}

/// The paper-example corpus: joins of every type, selections, non-equi
/// offset joins, self-joins, aggregation with HAVING, DISTINCT.
#[test]
fn university_corpus_parity() {
    let schema = xdata::catalog::university::schema();
    for sql in [
        "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000",
        "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id",
        "SELECT i.name, t.course_id FROM instructor i RIGHT OUTER JOIN teaches t ON i.id = t.id",
        "SELECT i.name, t.course_id FROM instructor i FULL OUTER JOIN teaches t ON i.id = t.id",
        "SELECT * FROM instructor i, teaches t, course c \
         WHERE i.id = t.id AND t.course_id = c.course_id",
        "SELECT t.id FROM teaches t, course c WHERE t.course_id = c.course_id + 10",
        "SELECT i.dept_id, SUM(i.salary) FROM instructor i, teaches t WHERE i.id = t.id \
         GROUP BY i.dept_id",
        "SELECT dept_id, COUNT(salary) FROM instructor GROUP BY dept_id \
         HAVING COUNT(salary) > 1",
        "SELECT DISTINCT i.dept_id FROM instructor i, teaches t WHERE i.id = t.id",
    ] {
        assert_parity(&schema, sql);
    }
}

/// §V-H extended classes ride the same differential harness: membership
/// subqueries (hash-indexed and fallback), correlated EXISTS, LIKE and
/// NULL checks, each with its full mutant family executed both ways.
#[test]
fn extended_class_corpus_parity() {
    let schema = xdata::catalog::university::schema();
    for sql in [
        "SELECT name FROM instructor WHERE id IN \
         (SELECT s_id FROM advisor WHERE i_id > 3)",
        "SELECT name FROM instructor WHERE id NOT IN \
         (SELECT s_id FROM advisor WHERE i_id > 3)",
        "SELECT i.name FROM instructor i WHERE EXISTS \
         (SELECT id FROM teaches t WHERE t.id = i.id)",
        "SELECT i.name FROM instructor i WHERE NOT EXISTS \
         (SELECT id FROM teaches t WHERE t.id = i.id)",
        "SELECT i.name FROM instructor i, department d \
         WHERE i.dept_id = d.dept_id AND i.id IN \
         (SELECT id FROM teaches t WHERE t.year > 2000)",
        "SELECT id FROM instructor WHERE name LIKE 'Wu%'",
        "SELECT i.id FROM instructor i, teaches t WHERE i.id = t.id AND i.name NOT LIKE '%Wu%'",
        "SELECT id FROM instructor WHERE salary IS NOT NULL",
    ] {
        assert_parity(&schema, sql);
    }
}

/// Hand-built datasets that stress hash-key edge cases the generator may
/// not produce: NULL join keys, duplicate keys on both sides, Int/Double
/// mixed-type key equality, and empty inputs. The second dataset is bulk
/// data, hundreds of rows per side, where generated suites hold a handful.
#[test]
fn hand_built_edge_case_parity() {
    use xdata::catalog::{Dataset, Value};
    use xdata::relalg::normalize;
    use xdata::sql::parse_query;

    let mut schema = Schema::new();
    schema
        .add_relation(
            Relation::new(
                "a",
                vec![Attribute::new("id", SqlType::Int), Attribute::new("v", SqlType::Double)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
    schema
        .add_relation(
            Relation::new(
                "b",
                vec![Attribute::new("id", SqlType::Int), Attribute::new("w", SqlType::Int)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();

    let mut d = Dataset::new();
    // Duplicate keys, a NULL key on each side, and an Int/Double pair that
    // is equal under SQL comparison (v = 2 vs w = 2).
    d.push("a", vec![Value::Int(1), Value::Double(2.0)]);
    d.push("a", vec![Value::Int(1), Value::Double(3.0)]);
    d.push("a", vec![Value::Null, Value::Double(4.0)]);
    d.push("a", vec![Value::Int(2), Value::Double(2.0)]);
    d.push("b", vec![Value::Int(1), Value::Int(2)]);
    d.push("b", vec![Value::Int(1), Value::Int(5)]);
    d.push("b", vec![Value::Null, Value::Int(6)]);
    d.push("b", vec![Value::Int(3), Value::Int(7)]);

    // Bulk: 200 rows per side plus three NULL keys each. Every key of `b`
    // sits in two rows, a third of them miss `a` and most keys of `a` miss
    // `b`, so the outer joins pad on both sides.
    let mut bulk = Dataset::new();
    for i in 0..200i64 {
        bulk.push("a", vec![Value::Int(i), Value::Double((i % 23) as f64)]);
        bulk.push("b", vec![Value::Int(i % 100 * 3), Value::Int(i % 29)]);
    }
    for i in 0..3i64 {
        bulk.push("a", vec![Value::Null, Value::Double(i as f64)]);
        bulk.push("b", vec![Value::Null, Value::Int(i + 5)]);
    }

    for sql in [
        "SELECT * FROM a, b WHERE a.id = b.id",
        "SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id",
        "SELECT * FROM a RIGHT OUTER JOIN b ON a.id = b.id",
        "SELECT * FROM a FULL OUTER JOIN b ON a.id = b.id",
        // Mixed-type key: Double column against Int column.
        "SELECT * FROM a, b WHERE a.v = b.w",
        // Residual inequality alongside the hash key.
        "SELECT * FROM a, b WHERE a.id = b.id AND a.v < b.w",
        // No equality at all: the hash path must fall back per node.
        "SELECT * FROM a, b WHERE a.v < b.w",
        // Membership over duplicate and NULL keys: one NULL member must
        // turn NOT IN into the empty result on both strategies.
        "SELECT * FROM a WHERE a.id IN (SELECT id FROM b WHERE b.w > 2)",
        "SELECT * FROM a WHERE a.id NOT IN (SELECT id FROM b WHERE b.w > 2)",
        // Correlated quantification, hash-indexable and not.
        "SELECT * FROM a WHERE EXISTS (SELECT id FROM b WHERE b.id = a.id)",
        "SELECT * FROM a WHERE NOT EXISTS (SELECT id FROM b WHERE b.id = a.id AND b.w > 4)",
        "SELECT * FROM a WHERE a.id IN (SELECT id FROM b WHERE b.w > a.v)",
    ] {
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        for (name, data) in [("small", &d), ("bulk", &bulk)] {
            let h = execute_query_strategy(&q, data, &schema, JoinStrategy::Hash).unwrap();
            let n = execute_query_strategy(&q, data, &schema, JoinStrategy::NestedLoop).unwrap();
            assert_eq!(h.rows(), n.rows(), "`{sql}` on the {name} dataset");
        }
    }
}

/// Random-schema fuzzing in the `tests/random_schemas.rs` mould: random
/// FK DAGs, random join queries, full mutant-space parity per dataset.
#[test]
fn random_schema_parity() {
    let mut rng = SplitMix64::new(0xDA7A_9057);
    for case in 0..6 {
        let n = 2 + rng.below(3);
        let extra: Vec<usize> = (0..n).map(|_| rng.below(3)).collect();
        let mut all_edges = Vec::new();
        for i in 1..n {
            for j in 0..i {
                all_edges.push((i, j));
            }
        }
        let fk_edges = rng.subset(&all_edges);

        let mut schema = Schema::new();
        for (i, extra) in extra.iter().enumerate() {
            let mut attrs = vec![Attribute::new("id", SqlType::Int)];
            for j in 0..n {
                if fk_edges.contains(&(i, j)) {
                    attrs.push(Attribute::new(format!("r{j}_id"), SqlType::Int));
                }
            }
            for k in 0..*extra {
                attrs.push(Attribute::new(format!("a{k}"), SqlType::Int));
            }
            schema
                .add_relation(Relation::new(format!("r{i}"), attrs, &["id"]).unwrap())
                .unwrap();
        }
        for (i, j) in &fk_edges {
            let from_col = format!("r{j}_id");
            schema
                .add_foreign_key(&format!("r{i}"), &[&from_col], &format!("r{j}"), &["id"])
                .unwrap();
        }

        let mut conds: Vec<String> =
            fk_edges.iter().map(|(i, j)| format!("r{i}.r{j}_id = r{j}.id")).collect();
        let mut linked = vec![false; n];
        for (i, j) in &fk_edges {
            linked[*i] = true;
            linked[*j] = true;
        }
        for (i, is_linked) in linked.iter().enumerate().skip(1) {
            if !is_linked {
                conds.push(format!("r{i}.id = r0.id"));
            }
        }
        if conds.is_empty() {
            conds.push("r0.id = r1.id".into());
        }
        let from: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
        let sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), conds.join(" AND "));
        eprintln!("case {case}: {sql}");
        assert_parity(&schema, &sql);
    }
}
