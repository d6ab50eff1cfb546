//! The paper's worked examples (§I, §IV-B Examples 1–4, Figures 1–2),
//! verified end-to-end.

use xdata::catalog::{university, Dataset, Value};
use xdata::engine::execute_query;
use xdata::engine::kill::certify_on_suite;
use xdata::relalg::certify::Rule;
use xdata::relalg::mutation::MutationOptions;
use xdata::relalg::normalize;
use xdata::sql::parse_query;
use xdata::XData;

/// §I: "a test case containing an instructor who does not teach any course
/// would kill the join/left-outer-join mutant."
#[test]
fn intro_scenario() {
    let schema = university::schema_with_fk_count(1);
    let xdata = XData::new(schema.clone());
    let run = xdata
        .generate_for("SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
        .unwrap();
    // Some generated dataset contains an instructor with no teaches row.
    let found = run.suite.datasets.iter().any(|d| {
        let instructors = d.dataset.relation("instructor").unwrap_or(&[]);
        let teaches = d.dataset.relation("teaches").unwrap_or(&[]);
        instructors.iter().any(|i| !teaches.iter().any(|t| t[0] == i[0]))
    });
    assert!(found, "suite must contain a non-teaching instructor:\n{}", run.suite);
}

/// Example 1: killing instructor ⟖ teaches (tree of Figure 1) requires a
/// teaches tuple with no matching instructor, *and* a course tuple matching
/// the teaches tuple so the difference propagates to the root.
#[test]
fn example_1_propagation_to_root() {
    let schema = university::schema_with_fk_count(0); // no FKs (as in Example 1)
    let xdata = XData::new(schema.clone());
    let sql = "SELECT * FROM instructor i, teaches t, course c \
               WHERE i.id = t.id AND t.course_id = c.course_id";
    let run = xdata.generate_for(sql).unwrap();
    // Find the dataset nullifying instructor.id.
    let d = run
        .suite
        .datasets
        .iter()
        .find(|d| d.label.contains("nullify i.id"))
        .expect("nullification dataset for instructor.id");
    let teaches = d.dataset.relation("teaches").unwrap();
    let instructors = d.dataset.relation("instructor").unwrap_or(&[]);
    let courses = d.dataset.relation("course").unwrap();
    // A teaches tuple with no matching instructor...
    let orphan = teaches
        .iter()
        .find(|t| !instructors.iter().any(|i| i[0] == t[0]))
        .expect("teaches tuple without instructor");
    // ...whose course exists, so the difference reaches the root.
    assert!(
        courses.iter().any(|c| c[0] == orphan[1]),
        "orphan teaches tuple must still join with course:\n{}",
        d.dataset
    );
}

/// Example 2: with the FK teaches.id → instructor.id the right-outer mutant
/// is equivalent, and carries a certificate naming that key — but adding a
/// selection on instructor revives it: the generator produces a dataset
/// where the instructor matches the FK but fails the selection, and the
/// certificate is gone.
#[test]
fn example_2_selection_revives_mutant() {
    let schema = university::schema_with_fk_count(1);
    let xdata = XData::new(schema.clone());

    // Without a selection: nullifying instructor.id is impossible.
    let plain = xdata
        .generate_for("SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
        .unwrap();
    assert!(
        plain.suite.skipped.iter().any(|s| s.label.contains("i.id")),
        "{:?}",
        plain.suite.skipped
    );
    // The mutant that pads instructor is proved by the foreign key.
    let pads_instructor = |run: &xdata::Run| {
        let space = run.mutants(MutationOptions::default());
        let certs = certify_on_suite(&run.query, &space, &run.suite.data(), &schema);
        let names: Vec<String> = run.query.occurrences.iter().map(|o| o.name.clone()).collect();
        let mi = space
            .join
            .iter()
            .position(|m| {
                let t = m.tree.display_with(&names).to_string();
                t == "(i RIGHT-OUTER-JOIN t)" || t == "(t LEFT-OUTER-JOIN i)"
            })
            .expect("the mutant padding instructor");
        certs[mi].as_ref().map(|c| (c.rule(), c.describe(&run.query, &schema)))
    };
    assert_eq!(
        pads_instructor(&plain),
        Some((Rule::ForeignKey, "i reached by foreign key teaches(id) -> instructor(id)".into()))
    );

    // With a selection: Algorithm 3 generates the σ-violating dataset.
    let with_sel = xdata
        .generate_for(
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000",
        )
        .unwrap();
    let d = with_sel
        .suite
        .datasets
        .iter()
        .find(|d| d.label.contains("nullify i"))
        .expect("selection-nullification dataset");
    // The dataset has a teaches row whose instructor fails the selection.
    let instructors = d.dataset.relation("instructor").unwrap();
    let teaches = d.dataset.relation("teaches").unwrap();
    let revived = teaches.iter().any(|t| {
        instructors
            .iter()
            .any(|i| i[0] == t[0] && i[3].as_i64().expect("salary") <= 50000)
    });
    assert!(revived, "instructor matches FK but fails selection:\n{}", d.dataset);

    // The selection voids the certificate, and that dataset indeed kills
    // a right-outer-style mutant.
    assert_eq!(pads_instructor(&with_sel), None);
    let space = with_sel.mutants(MutationOptions::default());
    let report = xdata::engine::kill::kill_report(
        &with_sel.query,
        &space,
        &with_sel.suite.data(),
        &schema,
    )
    .unwrap();
    assert!(report.killed_count() > plain.suite.datasets.len());
}

/// Example 3: mutating instructor ⋈ teaches to a left outer join inside
/// (instructor ⋈ teaches) ⋈ course is EQUIVALENT: the NULL-extended row is
/// filtered at the root. The kill report must show it surviving with a
/// null-rejected certificate, and exhaustive execution on a hand-built
/// dataset confirms equal results.
#[test]
fn example_3_masked_mutation_is_equivalent() {
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    let sql = "SELECT * FROM instructor i, teaches t, course c \
               WHERE i.id = t.id AND t.course_id = c.course_id";
    let (run, space, report) = xdata.evaluate(sql, MutationOptions::default()).unwrap();
    let mutants: Vec<_> = space.iter().collect();
    let certs = certify_on_suite(&run.query, &space, &run.suite.data(), &schema);
    let mut found = false;
    for mi in report.surviving() {
        let desc = mutants[mi].describe(&run.query);
        if desc.contains("(i LEFT-OUTER-JOIN t) JOIN c") {
            let cert = certs[mi].as_ref().expect("Example 3's mutant is certified");
            assert_eq!(cert.rule(), Rule::NullRejected);
            assert_eq!(
                cert.describe(&run.query, &schema),
                "t null-rejected by t.course_id = c.course_id"
            );
            found = true;
        }
    }
    assert!(found, "Example 3's equivalent mutant must survive");

    // Direct check on a dataset with a non-teaching instructor.
    let mut db = Dataset::new();
    db.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(1)]);
    db.push("instructor", vec![Value::Int(2), Value::Str("B".into()), Value::Int(1), Value::Int(1)]);
    db.push("teaches", vec![Value::Int(1), Value::Int(10), Value::Int(1), Value::Int(2009)]);
    db.push("course", vec![Value::Int(10), Value::Str("X".into()), Value::Int(1), Value::Int(3)]);
    let orig = execute_query(&run.query, &db, &schema).unwrap();
    for mi in report.surviving() {
        let m = &mutants[mi];
        let got = xdata::engine::kill::execute_mutant(&run.query, m, &db, &schema).unwrap();
        assert_eq!(orig, got, "surviving mutant differs: {}", m.describe(&run.query));
    }
}

/// Example 4 / Figure 2: whether the user writes `A.x = B.x AND B.x = C.x`
/// or `A.x = B.x AND A.x = C.x`, the equivalence class is the same and the
/// same mutants are killed — including mutants of the (A ⋈ C)-first tree
/// that only the class representation exposes.
#[test]
fn example_4_equivalence_class_join_orders() {
    let schema = university::schema_with_fk_count(0);
    let xdata = XData::new(schema.clone());
    let form1 = "SELECT * FROM student a, takes b, advisor c \
                 WHERE a.sid = b.sid AND b.sid = c.s_id";
    let form2 = "SELECT * FROM student a, takes b, advisor c \
                 WHERE a.sid = b.sid AND a.sid = c.s_id";
    let (r1, s1, k1) = xdata.evaluate(form1, MutationOptions::default()).unwrap();
    let (r2, s2, k2) = xdata.evaluate(form2, MutationOptions::default()).unwrap();
    assert_eq!(r1.query.eq_classes, r2.query.eq_classes);
    assert_eq!(s1.len(), s2.len(), "same mutation space for both spellings");
    assert_eq!(k1.killed_count(), k2.killed_count());
    // The space includes a tree joining student (a) and advisor (c) first —
    // Figure 2(c)'s shape, derivable only through the equivalence class.
    let names: Vec<String> = r1.query.occurrences.iter().map(|o| o.name.clone()).collect();
    let has_ac_first = s1.join.iter().any(|m| {
        let t = m.tree.display_with(&names).to_string();
        t.contains("(a ") && t.contains(" c)") && !t.contains("(a JOIN b)")
            || t.contains("(a JOIN c)")
            || t.contains("(c JOIN a)")
            || t.contains("(a LEFT-OUTER-JOIN c)")
            || t.contains("(c LEFT-OUTER-JOIN a)")
    });
    assert!(has_ac_first, "Figure 2(c)-style trees must be in the space");
}

/// Figure 1's query tree renders as the paper draws it.
#[test]
fn figure_1_tree_rendering() {
    let schema = university::schema();
    let q = normalize(
        &parse_query(
            "SELECT * FROM instructor, teaches, course \
             WHERE instructor.id = teaches.id AND teaches.course_id = course.course_id",
        )
        .unwrap(),
        &schema,
    )
    .unwrap();
    let names: Vec<String> = q.occurrences.iter().map(|o| o.name.clone()).collect();
    assert_eq!(
        q.tree.display_with(&names).to_string(),
        "((instructor JOIN teaches) JOIN course)"
    );
}
