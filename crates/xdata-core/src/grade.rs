//! Batch grading: evaluate many candidate queries against one reference.
//!
//! The direct application of X-Data is grading student SQL submissions
//! against an instructor query (§I). The single-candidate path
//! (`XData::grade` in the facade crate) regenerates the test suite per
//! call; for a course-sized batch that repeats the expensive half of the
//! pipeline hundreds of times for the *same* reference query.
//! [`grade_batch`] amortizes it:
//!
//! 1. parse/normalize the reference and generate its suite **once**;
//! 2. execute the reference once per dataset (the expected results);
//! 3. parse/normalize each distinct candidate text once, attributing parse
//!    and normalization errors per candidate instead of failing the batch;
//!    an exact repeat of an earlier text copies that occurrence's class
//!    (a dedup hit) or its INVALID message;
//! 4. collapse candidates with equal
//!    [`canonical_form`]s into
//!    equivalence classes (`core.grade.dedup_hit`/`miss`) — each class
//!    executes once and its verdict is shared;
//! 5. fan the class×dataset grid over the `xdata-par` pool under the
//!    caller's [`CancelToken`]; cells cancelled by a deadline surface as
//!    [`CandidateOutcome::Unevaluated`], never as a verdict.
//!
//! The verdict report is deterministic: byte-identical across `jobs`
//! values, including partial runs under chaos-injected cancellation
//! (asserted by `tests/grading.rs`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use xdata_catalog::{DomainCatalog, Schema};
use xdata_engine::exec::{execute_query_strategy, JoinStrategy};
use xdata_engine::ResultSet;
use xdata_par::{par_map_cancel, CancelToken};
use xdata_relalg::fingerprint::{canonical_form, form_hash};
use xdata_relalg::{normalize, NormQuery};

use crate::error::XDataError;
use crate::generate::generate_cancellable;
use crate::suite::GenOptions;
use crate::warm::WarmCache;

/// Marks a grade made on a partial suite: a PASS there covers only the
/// datasets present, and the skipped targets might have failed it.
pub const PARTIAL_SUITE_MARKER: &str = " [PARTIAL SUITE]";

/// The verdict line of a candidate graded on a partial suite with no
/// dataset.
pub const EMPTY_SUITE_VERDICT: &str = "UNEVALUATED (partial suite has no datasets)";

/// Verdict for one candidate (shared by every member of its equivalence
/// class).
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOutcome {
    /// Agrees with the reference on every generated dataset.
    Pass,
    /// Differs on at least one dataset.
    Fail {
        /// Index of the first dataset whose results differ.
        first_dataset: usize,
        /// Killed-by-dataset matrix row: `killed_by[d]` is true when the
        /// candidate's result differs from the reference's on dataset `d`.
        killed_by: Vec<bool>,
        /// Datasets the candidate agreed on — the partial-credit numerator.
        agreeing: usize,
    },
    /// The submission did not parse or normalize; the message says why.
    Invalid { message: String },
    /// The submission executed with an error (e.g. a relation outside the
    /// schema that normalization admits but execution rejects).
    ExecError { message: String },
    /// No verdict: the deadline expired before every dataset produced one,
    /// or the suite is partial and has no dataset at all (a deadline or an
    /// exhausted decision budget skipped every target). The candidate is
    /// unresolved, not passed and not failed.
    Unevaluated,
}

impl CandidateOutcome {
    /// Partial-credit score in `[0, 1]`: the fraction of datasets the
    /// candidate agreed on. `Invalid`/`ExecError` score 0; `Unevaluated`
    /// has no score.
    pub fn score(&self, datasets: usize) -> Option<f64> {
        match self {
            CandidateOutcome::Pass => Some(1.0),
            CandidateOutcome::Fail { agreeing, .. } => {
                Some(*agreeing as f64 / datasets.max(1) as f64)
            }
            CandidateOutcome::Invalid { .. } | CandidateOutcome::ExecError { .. } => Some(0.0),
            CandidateOutcome::Unevaluated => None,
        }
    }
}

/// Verdict for one candidate of the batch, in input order.
#[derive(Debug, Clone)]
pub struct CandidateVerdict {
    /// Index into the input candidate slice.
    pub index: usize,
    /// Equivalence class this candidate collapsed into (`None` for
    /// candidates that never normalized).
    pub class: Option<usize>,
    /// Structural hash of the class, for display.
    pub class_hash: Option<u128>,
    /// Whether another candidate earlier in the batch already covered this
    /// class (this verdict was shared, not computed).
    pub dedup_hit: bool,
    pub outcome: CandidateOutcome,
}

/// Everything [`grade_batch`] produces.
#[derive(Debug, Clone)]
pub struct BatchGradeReport {
    /// Datasets in the generated suite.
    pub datasets: usize,
    /// Whether the suite was partial (deadline/faults skipped targets):
    /// `Pass` verdicts then certify agreement only on the datasets present.
    pub partial: bool,
    /// Distinct equivalence classes that executed.
    pub classes: usize,
    /// Candidates answered from an earlier candidate's class.
    pub dedup_hits: usize,
    /// Per-candidate verdicts, in input order.
    pub verdicts: Vec<CandidateVerdict>,
}

impl BatchGradeReport {
    /// Render the verdict report. Deterministic: contains no timings, so
    /// the same batch renders byte-identically for every `jobs` value.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch grade: {} candidates, {} classes ({} dedup hits), {} datasets{}",
            self.verdicts.len(),
            self.classes,
            self.dedup_hits,
            self.datasets,
            if self.partial { PARTIAL_SUITE_MARKER } else { "" },
        );
        for v in &self.verdicts {
            let class = match (v.class, v.class_hash) {
                (Some(c), Some(h)) => {
                    format!(" [class {c} {:016x}{}]", h as u64, if v.dedup_hit { " dup" } else { "" })
                }
                _ => String::new(),
            };
            let line = match &v.outcome {
                CandidateOutcome::Pass => {
                    format!("PASS   score 1.000 (agrees on all {} datasets)", self.datasets)
                }
                CandidateOutcome::Fail { first_dataset, killed_by, agreeing } => {
                    let vector: String =
                        killed_by.iter().map(|&k| if k { 'X' } else { '.' }).collect();
                    format!(
                        "FAIL   score {:.3} (first differs on dataset {first_dataset}; kill vector {vector}; agrees on {agreeing}/{})",
                        *agreeing as f64 / self.datasets.max(1) as f64,
                        self.datasets,
                    )
                }
                CandidateOutcome::Invalid { message } => {
                    format!("INVALID score 0.000 ({message})")
                }
                CandidateOutcome::ExecError { message } => {
                    format!("ERROR  score 0.000 ({message})")
                }
                CandidateOutcome::Unevaluated if self.datasets == 0 => {
                    EMPTY_SUITE_VERDICT.to_string()
                }
                CandidateOutcome::Unevaluated => "UNEVALUATED (deadline expired)".to_string(),
            };
            let _ = writeln!(out, "#{:<4} {line}{class}", v.index);
        }
        out
    }
}

/// Grade `candidates` against `reference_sql` with one shared suite. See
/// the module docs for the pipeline; `strategy` selects the join algorithm
/// for *all* executions (reference and candidates alike, so expected and
/// actual results come from the same code path).
pub fn grade_batch(
    reference_sql: &str,
    candidates: &[String],
    schema: &Schema,
    domains: &DomainCatalog,
    opts: &GenOptions,
    strategy: JoinStrategy,
) -> Result<BatchGradeReport, XDataError> {
    let cancel = CancelToken::for_deadline_ms(opts.deadline_ms);
    grade_batch_cancellable(
        reference_sql,
        candidates,
        schema,
        domains,
        opts,
        strategy,
        &cancel,
        None,
    )
}

/// [`grade_batch`] under a caller-supplied [`CancelToken`] spanning
/// generation *and* the grading grid. With `warm`, suite generation runs
/// against a process-long [`WarmCache`] under the given namespace (see
/// [`generate_cancellable`]): a daemon grading many batches against one
/// reference query pays for suite generation once per `(namespace,
/// reference, options)` and replays the memoized solves on every later
/// batch.
#[allow(clippy::too_many_arguments)]
pub fn grade_batch_cancellable(
    reference_sql: &str,
    candidates: &[String],
    schema: &Schema,
    domains: &DomainCatalog,
    opts: &GenOptions,
    strategy: JoinStrategy,
    cancel: &CancelToken,
    warm: Option<(&WarmCache, &str)>,
) -> Result<BatchGradeReport, XDataError> {
    let reference = normalize(&xdata_sql::parse_query(reference_sql)?, schema)?;
    let suite = generate_cancellable(&reference, schema, domains, opts, cancel, warm)?;
    let _grade_span = xdata_obs::span("grade");

    let expected: Vec<ResultSet> = {
        let _ref_span = xdata_obs::span("grade/reference");
        suite
            .datasets
            .iter()
            .map(|d| execute_query_strategy(&reference, &d.dataset, schema, strategy))
            .collect::<Result<_, _>>()?
    };

    // Parse/normalize + dedup, in input order so the first-seen class order
    // is deterministic. Prep costs more than executing the grid, and a
    // batch repeats many texts byte for byte: a repeat copies its first
    // occurrence's result, which parsing the same text would reproduce.
    // Different texts still merge only on equal canonical forms.
    let mut first_of_text: HashMap<&str, usize> = HashMap::new();
    let mut class_of_form: HashMap<String, usize> = HashMap::new();
    let mut class_queries: Vec<NormQuery> = Vec::new();
    let mut class_hashes: Vec<u128> = Vec::new();
    let mut prep: Vec<Result<(usize, bool), String>> = Vec::with_capacity(candidates.len());
    let (mut hits, mut misses) = (0u64, 0u64);
    for sql in candidates {
        match first_of_text.entry(sql) {
            Entry::Occupied(first) => {
                let repeat = match &prep[*first.get()] {
                    Ok((ci, _)) => {
                        hits += 1;
                        Ok((*ci, true))
                    }
                    Err(message) => Err(message.clone()),
                };
                prep.push(repeat);
                continue;
            }
            Entry::Vacant(v) => {
                v.insert(prep.len());
            }
        }
        let parsed = xdata_sql::parse_query(sql)
            .map_err(|e| e.to_string())
            .and_then(|ast| normalize(&ast, schema).map_err(|e| e.to_string()));
        prep.push(parsed.map(|q| match class_of_form.entry(canonical_form(&q)) {
            Entry::Occupied(e) => {
                hits += 1;
                (*e.get(), true)
            }
            Entry::Vacant(v) => {
                misses += 1;
                let id = class_queries.len();
                class_hashes.push(form_hash(v.key()));
                v.insert(id);
                class_queries.push(q);
                (id, false)
            }
        }));
    }
    xdata_obs::counter("core.grade.candidates", candidates.len() as u64);
    xdata_obs::counter("core.grade.dedup_hit", hits);
    xdata_obs::counter("core.grade.dedup_miss", misses);

    // The class×dataset grid, class-major so one class's cells are
    // contiguous. Each cell grades one class on one dataset.
    let datasets = suite.datasets.len();
    let grid: Vec<(usize, usize)> = (0..class_queries.len())
        .flat_map(|ci| (0..datasets).map(move |di| (ci, di)))
        .collect();
    let cells = {
        let _grid_span = xdata_obs::span("grade/grid");
        par_map_cancel(opts.jobs, &grid, cancel, |_, &(ci, di)| {
            execute_query_strategy(
                &class_queries[ci],
                &suite.datasets[di].dataset,
                schema,
                strategy,
            )
            .map(|got| got != expected[di])
            .map_err(|e| e.to_string())
        })
    };

    // Fold cells into per-class outcomes. A suite that generated zero
    // datasets under a deadline gives no evidence at all — that is
    // Unevaluated, not Pass.
    let mut class_outcomes: Vec<CandidateOutcome> = Vec::with_capacity(class_queries.len());
    for ci in 0..class_queries.len() {
        let row = &cells[ci * datasets..(ci + 1) * datasets];
        let outcome = if row.iter().any(|c| c.is_none()) || (datasets == 0 && suite.is_partial())
        {
            CandidateOutcome::Unevaluated
        } else if let Some(Err(e)) = row.iter().flatten().find(|v| v.is_err()) {
            CandidateOutcome::ExecError { message: e.clone() }
        } else {
            let killed_by: Vec<bool> =
                row.iter().flatten().map(|v| *v.as_ref().unwrap_or(&false)).collect();
            match killed_by.iter().position(|&k| k) {
                None => CandidateOutcome::Pass,
                Some(first_dataset) => {
                    let agreeing = killed_by.iter().filter(|&&k| !k).count();
                    CandidateOutcome::Fail { first_dataset, killed_by, agreeing }
                }
            }
        };
        class_outcomes.push(outcome);
    }

    let verdicts: Vec<CandidateVerdict> = prep
        .into_iter()
        .enumerate()
        .map(|(index, p)| match p {
            Err(message) => CandidateVerdict {
                index,
                class: None,
                class_hash: None,
                dedup_hit: false,
                outcome: CandidateOutcome::Invalid { message },
            },
            Ok((ci, dedup_hit)) => CandidateVerdict {
                index,
                class: Some(ci),
                class_hash: Some(class_hashes[ci]),
                dedup_hit,
                outcome: class_outcomes[ci].clone(),
            },
        })
        .collect();
    let dedup_hits = verdicts.iter().filter(|v| v.dedup_hit).count();
    Ok(BatchGradeReport {
        datasets,
        partial: suite.is_partial(),
        classes: class_queries.len(),
        dedup_hits,
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata_catalog::university;

    #[test]
    fn exact_repeats_copy_their_first_occurrence() {
        let valid = "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id";
        let outer =
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id";
        let unknown = "SELECT * FROM missing_relation";
        let broken = "SELECT FROM WHERE";
        let spaced = "SELECT  FROM WHERE";
        let batch = [valid, outer, unknown, broken, valid, outer, unknown, broken, spaced];
        let candidates: Vec<String> = batch.iter().map(|s| s.to_string()).collect();
        let schema = university::schema();
        let report = grade_batch(
            valid,
            &candidates,
            &schema,
            &DomainCatalog::defaults(&schema),
            &GenOptions::default(),
            JoinStrategy::Hash,
        )
        .unwrap();

        // Every INVALID message is what parse and normalize say about that
        // exact text, and only those texts are INVALID.
        for (v, sql) in report.verdicts.iter().zip(batch) {
            let prep = xdata_sql::parse_query(sql)
                .map_err(|e| e.to_string())
                .and_then(|ast| normalize(&ast, &schema).map_err(|e| e.to_string()));
            match (&v.outcome, prep) {
                (CandidateOutcome::Invalid { message }, Err(want)) => assert_eq!(message, &want),
                (CandidateOutcome::Invalid { .. }, Ok(_)) | (_, Err(_)) => {
                    panic!("#{} {sql:?}: {:?}", v.index, v.outcome)
                }
                (_, Ok(_)) => {}
            }
        }
        // An exact repeat shares its first occurrence's class and verdict,
        // and counts as a dedup hit when that occurrence has a class.
        for (first, repeat) in [(0, 4), (1, 5), (2, 6), (3, 7)] {
            let (f, r) = (&report.verdicts[first], &report.verdicts[repeat]);
            assert_eq!((f.class, f.class_hash), (r.class, r.class_hash), "#{repeat}");
            assert_eq!(f.outcome, r.outcome, "#{repeat}");
            assert!(!f.dedup_hit);
            assert_eq!(r.dedup_hit, f.class.is_some(), "#{repeat}");
        }
        assert_eq!((report.classes, report.dedup_hits), (2, 2));
        // A whitespace variant is a new text: its parse error keeps its own
        // byte offsets.
        assert_ne!(report.verdicts[3].outcome, report.verdicts[8].outcome);
    }
}
