//! Mutant execution and kill checking.
//!
//! "A mutant query is said to be killed by a test case when the execution
//! of the mutant on a test case produces a different result than the
//! execution of the original query" (§I). Join mutants that a certificate
//! proves equivalent on the suite's data ([`certify_on_suite`]) are not
//! executed: no dataset can kill them.

use xdata_catalog::{Dataset, ForeignKey, Schema, Value};
use xdata_par::CancelToken;
use xdata_relalg::certify::{certify_join_mutants, Rule};
use xdata_relalg::mutation::{
    apply_agg_mutant, apply_cmp_mutant, apply_distinct_mutant, apply_having_agg_mutant,
    apply_having_cmp_mutant, apply_like_mutant, apply_null_check_mutant, apply_sub_mutant,
};
use xdata_relalg::tree::JoinTree;
use xdata_relalg::{Certificate, Mutant, MutationSpace, NormQuery};
use xdata_sql::CompareOp;

use crate::error::EngineError;
use crate::exec::{
    cmp_truth, execute_query, execute_query_strategy, execute_with_tree_strategy, key, Candidates,
    JoinStrategy,
};
use crate::result::ResultSet;

/// A mutant with its query-level rewrite applied once, ready to run against
/// any number of datasets. `apply_*_mutant` clones the whole [`NormQuery`];
/// preparing outside the per-dataset loop pays that cost once per mutant
/// instead of once per (mutant, dataset) pair.
pub enum PreparedMutant<'a> {
    /// Join-type mutants replace only the tree — no query clone at all.
    Tree(&'a JoinTree),
    /// Every other class rewrites the query; the rewrite is cached here
    /// (boxed — a [`NormQuery`] is large next to the tree reference).
    Query(Box<NormQuery>),
}

/// Apply `m`'s rewrite to `q` once, for repeated execution.
pub fn prepare_mutant<'a>(q: &NormQuery, m: &'a Mutant) -> PreparedMutant<'a> {
    match m {
        Mutant::Join(jm) => PreparedMutant::Tree(&jm.tree),
        Mutant::Cmp(cm) => PreparedMutant::Query(Box::new(apply_cmp_mutant(q, cm))),
        Mutant::Agg(am) => PreparedMutant::Query(Box::new(apply_agg_mutant(q, am))),
        Mutant::HavingCmp(hm) => PreparedMutant::Query(Box::new(apply_having_cmp_mutant(q, hm))),
        Mutant::HavingAgg(hm) => PreparedMutant::Query(Box::new(apply_having_agg_mutant(q, hm))),
        Mutant::Distinct(dm) => PreparedMutant::Query(Box::new(apply_distinct_mutant(q, dm))),
        Mutant::Sub(sm) => PreparedMutant::Query(Box::new(apply_sub_mutant(q, sm))),
        Mutant::Like(lm) => PreparedMutant::Query(Box::new(apply_like_mutant(q, lm))),
        Mutant::NullCheck(nm) => PreparedMutant::Query(Box::new(apply_null_check_mutant(q, nm))),
    }
}

impl PreparedMutant<'_> {
    /// Execute the prepared mutant of `q` on `db`.
    pub fn execute(
        &self,
        q: &NormQuery,
        db: &Dataset,
        schema: &Schema,
    ) -> Result<ResultSet, EngineError> {
        self.execute_strategy(q, db, schema, JoinStrategy::default())
    }

    /// [`PreparedMutant::execute`] with an explicit [`JoinStrategy`].
    pub fn execute_strategy(
        &self,
        q: &NormQuery,
        db: &Dataset,
        schema: &Schema,
        strategy: JoinStrategy,
    ) -> Result<ResultSet, EngineError> {
        match self {
            PreparedMutant::Tree(t) => execute_with_tree_strategy(q, t, db, schema, strategy),
            PreparedMutant::Query(q2) => execute_query_strategy(q2, db, schema, strategy),
        }
    }
}

/// Execute a mutant of `q` on `db`. One-shot form of [`prepare_mutant`] +
/// [`PreparedMutant::execute`]; loops over datasets should prepare once.
pub fn execute_mutant(
    q: &NormQuery,
    m: &Mutant,
    db: &Dataset,
    schema: &Schema,
) -> Result<ResultSet, EngineError> {
    prepare_mutant(q, m).execute(q, db, schema)
}

/// Whether `db` kills mutant `m` of `q`.
pub fn kills(q: &NormQuery, m: &Mutant, db: &Dataset, schema: &Schema) -> Result<bool, EngineError> {
    let original = execute_query(q, db, schema)?;
    let mutated = execute_mutant(q, m, db, schema)?;
    Ok(original != mutated)
}

/// Result of running a whole mutation space against a test suite.
#[derive(Debug, Clone, Default)]
pub struct KillReport {
    /// Per-mutant: index of the first dataset that killed it, if any.
    pub killed_by: Vec<Option<usize>>,
    /// Mutant indices whose evaluation was cancelled (the deadline expired
    /// before their verdict). They are neither killed nor surviving — an
    /// unevaluated mutant is *unresolved*, and [`KillReport::surviving`]
    /// excludes it. Empty unless the run was cancelled mid-report.
    pub unevaluated: Vec<usize>,
    pub total_mutants: usize,
}

impl KillReport {
    pub fn killed_count(&self) -> usize {
        self.killed_by.iter().filter(|k| k.is_some()).count()
    }

    /// Whether mutant `mi` has no verdict because the run was cancelled
    /// (`unevaluated` is ascending, so this is a binary search).
    pub fn is_unevaluated(&self, mi: usize) -> bool {
        self.unevaluated.binary_search(&mi).is_ok()
    }

    /// Mutants that were evaluated against every dataset and killed by
    /// none — the equivalence candidates (unevaluated mutants are not
    /// survivors; they simply have no verdict).
    pub fn surviving(&self) -> impl Iterator<Item = usize> + '_ {
        self.killed_by
            .iter()
            .enumerate()
            .filter(|&(i, k)| k.is_none() && !self.is_unevaluated(i))
            .map(|(i, _)| i)
    }
}

/// Equivalence certificates of the mutants of `space` (indexed like
/// `space.iter()`; only join mutants get one) that hold on every dataset
/// of `suite`. A certified mutant can be killed by no dataset of the
/// suite, so [`kill_report_cancel`] and `minimize_suite` skip executing it.
///
/// `kill_report` accepts any dataset, legal or not, so the certificates
/// are checked on the data, in linear time and with the executor's own
/// equality. A foreign-key certificate is kept only if every dataset
/// satisfies each key it names.
pub fn certify_on_suite(
    q: &NormQuery,
    space: &MutationSpace,
    suite: &[&Dataset],
    schema: &Schema,
) -> Vec<Option<Certificate>> {
    let mut certs = certify_join_mutants(q, schema, &space.join);
    let mut holds: Vec<Option<bool>> = vec![None; schema.foreign_keys().len()];
    for cert in &mut certs {
        let void = cert.as_ref().is_some_and(|c| {
            !c.foreign_keys().all(|fk| {
                *holds[fk].get_or_insert_with(|| {
                    suite.iter().all(|db| fk_holds(&schema.foreign_keys()[fk], db))
                })
            })
        });
        if void {
            *cert = None;
        }
    }
    certs.resize(space.len(), None);
    certs
}

/// Whether every tuple of `fk.from` in `db` matches a tuple of `fk.to` the
/// way the hash join matches them: every column pair equal under the
/// executor's comparison (a NULL, or a column past a tuple's end, matches
/// nothing).
fn fk_holds(fk: &ForeignKey, db: &Dataset) -> bool {
    let from = db.relation(&fk.from).unwrap_or(&[]);
    if from.is_empty() {
        return true;
    }
    let to = db.relation(&fk.to).unwrap_or(&[]);
    // A column past the end of a tuple keys as NULL, and fails the
    // re-check: the tuple matches nothing.
    let key_of = |t: &[Value], cols: &[usize]| {
        key(cols.iter().map(|&c| t.get(c).cloned().unwrap_or(Value::Null)))
    };
    let index = Candidates::hashed(to.iter().map(|u| key_of(u, &fk.to_cols)));
    from.iter().all(|t| {
        index.get(|| key_of(t, &fk.from_cols)).iter().any(|&ui| {
            fk.from_cols.iter().zip(&fk.to_cols).all(|(&f, &c)| {
                t.get(f)
                    .zip(to[ui].get(c))
                    .is_some_and(|(a, b)| cmp_truth(a, CompareOp::Eq, b).is_true())
            })
        })
    })
}

/// A mutant's class tag, used in trace span labels and verdict events,
/// with its `kill.killed.<class>` and `kill.survived.<class>` counter names.
fn class_names(m: &Mutant) -> (&'static str, &'static str, &'static str) {
    macro_rules! names {
        ($tag:literal) => {
            ($tag, concat!("kill.killed.", $tag), concat!("kill.survived.", $tag))
        };
    }
    match m {
        Mutant::Join(_) => names!("join"),
        Mutant::Cmp(_) => names!("cmp"),
        Mutant::Agg(_) => names!("agg"),
        Mutant::HavingCmp(_) => names!("having_cmp"),
        Mutant::HavingAgg(_) => names!("having_agg"),
        Mutant::Distinct(_) => names!("distinct"),
        Mutant::Sub(_) => names!("subquery"),
        Mutant::Like(_) => names!("like"),
        Mutant::NullCheck(_) => names!("null_check"),
    }
}

/// Run every mutant in `space` against every dataset in `suite`, recording
/// which dataset (if any) first kills each mutant — the evaluation loop of
/// §VI-C. Sequential; see [`kill_report_cancel`] for the parallel,
/// cancellable form.
pub fn kill_report(
    q: &NormQuery,
    space: &MutationSpace,
    suite: &[&Dataset],
    schema: &Schema,
) -> Result<KillReport, EngineError> {
    kill_report_cancel(q, space, suite, schema, 1, &CancelToken::new())
}

/// [`kill_report`] with the mutant axis sharded over `jobs` worker threads
/// (`0` = one per core), honoring a cancellation token. Each mutant's
/// verdict — the index of the *first* dataset that kills it — is
/// independent of every other mutant's, and the order-preserving parallel
/// map returns verdicts in mutant-enumeration order, so the report is
/// identical for every `jobs` value. When `cancel` trips (a pipeline-level
/// deadline expired), mutants without a verdict yet land in
/// [`KillReport::unevaluated`] instead of blocking the report. Verdicts
/// already computed are kept — cancellation never invalidates them. A
/// mutant certified by [`certify_on_suite`] survives without being
/// prepared or executed.
pub fn kill_report_cancel(
    q: &NormQuery,
    space: &MutationSpace,
    suite: &[&Dataset],
    schema: &Schema,
    jobs: usize,
    cancel: &CancelToken,
) -> Result<KillReport, EngineError> {
    let _kill_span = xdata_obs::span("kill");
    let originals: Vec<ResultSet> = {
        let _orig_span = xdata_obs::span("kill/originals");
        suite.iter().map(|db| execute_query(q, db, schema)).collect::<Result<_, _>>()?
    };
    let mutants: Vec<_> = space.iter().collect();
    let certs = certify_on_suite(q, space, suite, schema);
    let verdicts = xdata_par::par_map_cancel(jobs, &mutants, cancel, |mi, m| {
        // The class tag in the label is what lets `xdata trace` break
        // evaluation time down per mutant class offline.
        let _shard_span = xdata_obs::span_with("kill/mutant", || {
            format!("#{mi} {} [{}]", m.describe(q), class_names(m).0)
        });
        let cert = certs[mi].as_ref();
        let verdict = if cert.is_some() {
            // Survives by proof, without being prepared or executed; a
            // tripped token leaves it unevaluated, as it would an executed
            // mutant before its first dataset.
            if !suite.is_empty() && cancel.is_cancelled() {
                Err(None)
            } else {
                Ok(None)
            }
        } else {
            // The query-level rewrite is applied once here, outside the
            // dataset loop — only execution repeats per dataset.
            let prepared = prepare_mutant(q, m);
            (|| {
                for (di, db) in suite.iter().enumerate() {
                    if cancel.is_cancelled() {
                        return Err(None);
                    }
                    let mutated = match prepared.execute(q, db, schema) {
                        Ok(r) => r,
                        Err(e) => return Err(Some(e)),
                    };
                    if mutated != originals[di] {
                        return Ok(Some(di));
                    }
                }
                Ok(None)
            })()
        };
        if let Ok(v) = &verdict {
            let v = *v;
            xdata_obs::instant("kill.verdict", || match (v, cert) {
                (Some(di), _) => format!("#{mi} [{}] killed by dataset {di}", class_names(m).0),
                (None, Some(c)) => format!(
                    "#{mi} [{}] survived (equivalent: {})",
                    class_names(m).0,
                    c.describe(q, schema)
                ),
                (None, None) => format!("#{mi} [{}] survived", class_names(m).0),
            });
        }
        verdict
    });
    // Unpack: a `None` slot (worker never claimed it) or an in-flight
    // cancellation (`Err(None)`) is an unevaluated mutant; a real executor
    // error propagates as before.
    let mut killed_by = Vec::with_capacity(mutants.len());
    let mut unevaluated = Vec::new();
    for (mi, v) in verdicts.into_iter().enumerate() {
        match v {
            Some(Ok(verdict)) => killed_by.push(verdict),
            Some(Err(Some(e))) => return Err(e),
            Some(Err(None)) | None => {
                unevaluated.push(mi);
                killed_by.push(None);
            }
        }
    }
    let report = KillReport { killed_by, unevaluated, total_mutants: space.len() };
    // Per-mutant-class tallies, recorded from the order-preserved verdicts
    // on the calling thread — deterministic for every `jobs` value.
    // Unevaluated mutants are neither killed nor survived: they count only
    // toward `kill.unevaluated`. Each survivor also counts the rule that
    // certified it, or `kill.uncertified`.
    xdata_obs::counter("kill.datasets", suite.len() as u64);
    xdata_obs::counter("kill.mutants", mutants.len() as u64);
    xdata_obs::counter("kill.unevaluated", report.unevaluated.len() as u64);
    for (mi, (m, verdict)) in mutants.iter().zip(&report.killed_by).enumerate() {
        if report.is_unevaluated(mi) {
            continue;
        }
        let (_, killed_name, survived_name) = class_names(m);
        if verdict.is_some() {
            xdata_obs::counter(killed_name, 1);
            continue;
        }
        xdata_obs::counter(survived_name, 1);
        xdata_obs::counter(
            match certs[mi].as_ref().map(Certificate::rule) {
                Some(Rule::NullRejected) => "kill.certified.null_rejected",
                Some(Rule::ForeignKey) => "kill.certified.foreign_key",
                None => "kill.uncertified",
            },
            1,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata_catalog::university;
    use xdata_relalg::mutation::{mutation_space, MutationOptions};
    use xdata_relalg::normalize;
    use xdata_sql::parse_query;

    fn setup(sql: &str) -> (NormQuery, Schema) {
        let schema = university::schema();
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        (q, schema)
    }

    /// The paper's introductory example: an instructor who teaches nothing
    /// kills the inner-to-left-outer mutant.
    #[test]
    fn intro_example_kill() {
        let (q, schema) = setup("SELECT * FROM instructor i, teaches t WHERE i.id = t.id");
        let space = mutation_space(&q, MutationOptions::default());
        let left = space
            .join
            .iter()
            .find(|m| m.to == xdata_sql::JoinKind::Left && m.from == xdata_sql::JoinKind::Inner)
            .expect("left-outer mutant exists");
        // Dataset 1: every instructor teaches — mutant NOT killed.
        let mut d1 = Dataset::new();
        d1.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(1)]);
        d1.push("teaches", vec![Value::Int(1), Value::Int(100), Value::Int(1), Value::Int(2009)]);
        // Dataset 2: one instructor teaches nothing — mutant killed.
        let mut d2 = d1.clone();
        d2.push("instructor", vec![Value::Int(2), Value::Str("B".into()), Value::Int(1), Value::Int(1)]);

        // Orientation note: the enumerated single tree may be (i ⋈ t) or
        // (t ⋈ i); find which join mutant NULL-extends teaches.
        let m = Mutant::Join(left.clone());
        let k1 = kills(&q, &m, &d1, &schema).unwrap();
        let k2 = kills(&q, &m, &d2, &schema).unwrap();
        // One of the two left/right mutants must be killed by d2; check via
        // the whole space to stay orientation-agnostic.
        let report = kill_report(&q, &space, &[&d1, &d2], &schema).unwrap();
        assert!(report.killed_count() >= 2, "outer-join mutants killed: {report:?}");
        let _ = (k1, k2);

        // The parallel form must agree verdict-for-verdict.
        for jobs in [0, 2, 8] {
            let par =
                kill_report_cancel(&q, &space, &[&d1, &d2], &schema, jobs, &CancelToken::new())
                    .unwrap();
            assert_eq!(report.killed_by, par.killed_by, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_dataset_kills_nothing() {
        let (q, schema) = setup("SELECT * FROM instructor i, teaches t WHERE i.id = t.id");
        let space = mutation_space(&q, MutationOptions::default());
        let empty = Dataset::new();
        let report = kill_report(&q, &space, &[&empty], &schema).unwrap();
        assert_eq!(report.killed_count(), 0);
    }

    #[test]
    fn cmp_mutant_killed_by_boundary_value() {
        let (q, schema) = setup("SELECT id FROM instructor WHERE salary > 100");
        let space = mutation_space(&q, MutationOptions::default());
        // salary = 100 distinguishes > from >=.
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(100)]);
        let ge = space
            .cmp
            .iter()
            .find(|m| m.to == xdata_sql::CompareOp::Ge)
            .expect("Ge mutant");
        assert!(kills(&q, &Mutant::Cmp(ge.clone()), &d, &schema).unwrap());
        // salary = 150 does not distinguish them.
        let mut d2 = Dataset::new();
        d2.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(150)]);
        assert!(!kills(&q, &Mutant::Cmp(ge.clone()), &d2, &schema).unwrap());
    }

    #[test]
    fn agg_mutant_killed_by_duplicates() {
        let (q, schema) = setup("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id");
        let space = mutation_space(&q, MutationOptions::default());
        let sum_distinct = space
            .agg
            .iter()
            .find(|m| m.to.distinct && m.to.op == xdata_sql::AggOp::Sum)
            .expect("SUM(DISTINCT) mutant");
        // Two equal salaries in one group distinguish SUM from SUM(DISTINCT).
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(100)]);
        d.push("instructor", vec![Value::Int(2), Value::Str("B".into()), Value::Int(1), Value::Int(100)]);
        assert!(kills(&q, &Mutant::Agg(sum_distinct.clone()), &d, &schema).unwrap());
        // Distinct salaries do not.
        let mut d2 = Dataset::new();
        d2.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(100)]);
        d2.push("instructor", vec![Value::Int(2), Value::Str("B".into()), Value::Int(1), Value::Int(200)]);
        assert!(!kills(&q, &Mutant::Agg(sum_distinct.clone()), &d2, &schema).unwrap());
    }

    /// A pre-cancelled token yields a report with every mutant unevaluated:
    /// nothing killed, nothing surviving — no false equivalence claims.
    #[test]
    fn cancelled_report_marks_all_unevaluated() {
        let (q, schema) = setup("SELECT * FROM instructor i, teaches t WHERE i.id = t.id");
        let space = mutation_space(&q, MutationOptions::default());
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(1)]);
        let token = CancelToken::new();
        token.cancel();
        for jobs in [1, 4] {
            let report =
                kill_report_cancel(&q, &space, &[&d], &schema, jobs, &token).unwrap();
            assert_eq!(report.total_mutants, space.len(), "jobs={jobs}");
            assert_eq!(report.unevaluated.len(), space.len(), "jobs={jobs}");
            assert_eq!(report.killed_count(), 0, "jobs={jobs}");
            assert_eq!(report.surviving().count(), 0, "jobs={jobs}");
        }
        // A live token changes nothing relative to the plain report.
        let plain = kill_report(&q, &space, &[&d], &schema).unwrap();
        let live =
            kill_report_cancel(&q, &space, &[&d], &schema, 1, &CancelToken::new()).unwrap();
        assert_eq!(plain.killed_by, live.killed_by);
        assert!(live.unevaluated.is_empty());
    }

    #[test]
    fn fk_constrained_mutant_is_equivalent() {
        // With the FK teaches.id → instructor.id and no selection, the
        // right-outer mutant of (instructor ⋈ teaches) is equivalent
        // (Example 2 of §IV-B): no legal dataset kills it. Keep only that
        // FK so the hand-built dataset stays a legal instance.
        let schema = university::schema_with_fk_count(1);
        let q = normalize(
            &parse_query("SELECT * FROM instructor i, teaches t WHERE i.id = t.id").unwrap(),
            &schema,
        )
        .unwrap();
        let space = mutation_space(&q, MutationOptions::default());
        // Build legal datasets only.
        let mut d = Dataset::new();
        d.push("instructor", vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(1)]);
        d.push("instructor", vec![Value::Int(2), Value::Str("B".into()), Value::Int(1), Value::Int(1)]);
        d.push("teaches", vec![Value::Int(1), Value::Int(100), Value::Int(1), Value::Int(2009)]);
        assert!(d.integrity_violations(&schema).is_empty());
        // The mutant that NULL-extends teaches-side rows (no matching
        // instructor) can never fire on a legal dataset.
        let names = ["i".to_string(), "t".to_string()];
        for m in &space.join {
            let killed = kills(&q, &Mutant::Join(m.clone()), &d, &schema).unwrap();
            // Exactly the mutants that NULL-extend missing teaches rows
            // fire here (instructor 2 teaches nothing).
            let t = m.tree.display_with(&names).to_string();
            if killed {
                assert!(
                    t.contains("(i LEFT-OUTER-JOIN t)")
                        || t.contains("(t RIGHT-OUTER-JOIN i)")
                        || t.contains("FULL-OUTER-JOIN"),
                    "unexpected kill by {t}"
                );
            }
        }
        // That mutant carries a certificate naming the FK.
        let fk_mi = space
            .join
            .iter()
            .position(|m| {
                let t = m.tree.display_with(&names).to_string();
                t == "(i RIGHT-OUTER-JOIN t)" || t == "(t LEFT-OUTER-JOIN i)"
            })
            .expect("the mutant padding instructor");
        let certs = certify_on_suite(&q, &space, &[&d], &schema);
        let cert = certs[fk_mi].as_ref().expect("FK certificate");
        assert_eq!(cert.rule(), Rule::ForeignKey);
        assert_eq!(
            cert.describe(&q, &schema),
            "i reached by foreign key teaches(id) -> instructor(id)"
        );
        assert_eq!(certs.iter().flatten().count(), 1, "no other mutant is certified");
        // An orphan teaches row violates the FK: the certificate is void,
        // so the mutant is executed and killed.
        let mut orphan = d.clone();
        let orphan_row = vec![Value::Int(9), Value::Int(101), Value::Int(1), Value::Int(2009)];
        orphan.push("teaches", orphan_row);
        assert!(certify_on_suite(&q, &space, &[&d, &orphan], &schema)[fk_mi].is_none());
        let report = kill_report(&q, &space, &[&d, &orphan], &schema).unwrap();
        assert_eq!(report.killed_by[fk_mi], Some(1));
    }

    /// Certificates are checked on any dataset, legal or not. A tuple too
    /// short for its key column matches nothing. With one referenced
    /// tuple, which the index lists rather than hashes, the re-check reads
    /// past neither tuple's end, and the foreign-key certificate is void.
    #[test]
    fn short_tuple_voids_fk_certificate() {
        let schema = university::schema_with_fk_count(1);
        let q = normalize(
            &parse_query("SELECT * FROM instructor i, teaches t WHERE i.id = t.id").unwrap(),
            &schema,
        )
        .unwrap();
        let space = mutation_space(&q, MutationOptions::default());
        let fk_certs = |instructor: Vec<Value>, teaches: Vec<Value>| {
            let mut d = Dataset::new();
            d.push("instructor", instructor);
            d.push("teaches", teaches);
            let certs = certify_on_suite(&q, &space, &[&d], &schema);
            certs.iter().flatten().filter(|c| c.rule() == Rule::ForeignKey).count()
        };
        let instructor = vec![Value::Int(1), Value::Str("A".into()), Value::Int(1), Value::Int(1)];
        let teaches = vec![Value::Int(1), Value::Int(100), Value::Int(1), Value::Int(2009)];
        assert_eq!(fk_certs(instructor.clone(), teaches.clone()), 1);
        assert_eq!(fk_certs(vec![], teaches), 0, "the referenced tuple has no key column");
        assert_eq!(fk_certs(instructor, vec![]), 0, "the referencing tuple has no key column");
    }

    #[test]
    fn nullable_fk_column_gives_no_certificate() {
        let sql = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id";
        for (marker, certified) in [("", 1), (" NULL", 0)] {
            let (schema, _) = xdata_sql::parse_script(&format!(
                "CREATE TABLE instructor (id INT PRIMARY KEY, name VARCHAR, dept_id INT,
                     salary INT);
                 CREATE TABLE teaches (id INT{marker}, course_id INT, sec_id INT, year INT,
                     FOREIGN KEY (id) REFERENCES instructor (id));"
            ))
            .unwrap();
            let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
            let space = mutation_space(&q, MutationOptions::default());
            let certs = certify_on_suite(&q, &space, &[], &schema);
            assert_eq!(certs.iter().flatten().count(), certified, "teaches.id INT{marker}");
        }
    }

    /// Aggregates add in value order, so AVG and a SUM over stored floats
    /// are certified like any other query: Example 3's null-rejected
    /// mutant carries its certificate under both, and every certified
    /// mutant returns the original's groups on fractional salaries.
    #[test]
    fn avg_and_float_sum_queries_are_certified() {
        let s = |v: &str| Value::Str(v.into());
        let mut d = Dataset::new();
        d.push("department", vec![Value::Int(1), s("CS"), s("B"), Value::Int(9)]);
        for course in [10, 20, 30] {
            d.push("course", vec![Value::Int(course), s("C"), Value::Int(1), Value::Int(3)]);
        }
        // Instructors 4-6 teach nothing. With these sizes and this teaches
        // order, some certified trees emit the salaries in another order
        // than the query's tree, so sums in row order would differ.
        for (id, salary) in (1..).zip([0.1, 0.2, 0.3, 0.7, 0.5, 0.5]) {
            d.push("instructor", vec![Value::Int(id), s("I"), Value::Int(1), Value::Double(salary)]);
        }
        for course in [20, 10] {
            for id in [3, 2, 1] {
                d.push("teaches", [id, course, 1, 2009].map(Value::Int).to_vec());
            }
        }
        for agg in ["AVG", "SUM"] {
            let (q, schema) = setup(&format!(
                "SELECT i.dept_id, {agg}(i.salary) FROM instructor i, teaches t, course c \
                 WHERE i.id = t.id AND t.course_id = c.course_id GROUP BY i.dept_id"
            ));
            assert!(d.integrity_violations(&schema).is_empty());
            let space = mutation_space(&q, MutationOptions::default());
            let certs = certify_on_suite(&q, &space, &[&d], &schema);
            assert!(
                certs.iter().flatten().any(|c| c.rule() == Rule::NullRejected
                    && c.describe(&q, &schema) == "t null-rejected by t.course_id = c.course_id"),
                "{agg}: Example 3's certificate"
            );
            let original = execute_query(&q, &d, &schema).unwrap();
            for (m, cert) in space.iter().zip(&certs) {
                if cert.is_some() {
                    let mutated = execute_mutant(&q, &m, &d, &schema).unwrap();
                    assert_eq!(original, mutated, "{agg}: {}", m.describe(&q));
                }
            }
        }
    }
}
