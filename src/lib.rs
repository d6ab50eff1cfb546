//! # X-Data: test-data generation for killing SQL mutants
//!
//! A Rust reproduction of *"Generating Test Data for Killing SQL Mutants: A
//! Constraint-based Approach"* (Shah, Sudarshan, Kajbaje, Patidar, Gupta,
//! Vira — the extended version of the ICDE 2010 X-Data paper).
//!
//! Given a schema and a query, X-Data generates a small *test suite* —
//! a handful of tiny datasets — such that every non-equivalent mutant of
//! the query (wrong join type in any equivalent join tree, wrong comparison
//! operator, wrong aggregate function) produces a different result from the
//! original query on at least one dataset.
//!
//! ```
//! use xdata::XData;
//!
//! let schema = xdata::catalog::university::schema();
//! let xdata = XData::new(schema);
//! let run = xdata
//!     .generate_for("SELECT * FROM instructor i, teaches t WHERE i.id = t.id")
//!     .expect("query in the supported class");
//! assert!(!run.suite.datasets.is_empty());
//! for ds in &run.suite.datasets {
//!     println!("{}", ds.dataset);
//! }
//! ```
//!
//! # Pipeline
//!
//! A query flows **parse → normalize → mutate → constrain → solve →
//! kill**, each stage owned by one member crate (re-exported here):
//!
//! * [`sql`] — *parse*: lexer + recursive-descent parser for the paper's
//!   query class, plus `CREATE TABLE` DDL;
//! * [`catalog`] — schemata, SQL values with NULL/3VL, PK/FK constraints,
//!   attribute domains;
//! * [`relalg`] — *normalize* and *mutate*: equivalence classes of
//!   equi-joined attributes, enumeration of equivalent join trees, the
//!   three mutant generators with canonical-form dedup;
//! * [`core`] — *constrain*: the paper's Algorithms 1–4 plan one target
//!   per mutant group and encode it as constraints over tuple-array
//!   variables (PK functional dependencies, FK `∀∃`, query + kill
//!   conditions), then materialize models into datasets;
//! * [`solver`] — *solve*: a conflict-driven (CDCL-lite) search over
//!   integer difference logic — theory-explained conflicts, 1-UIP
//!   learning, backjumping, Luby restarts — standing in for the paper's
//!   CVC3;
//! * [`engine`] — *kill*: an in-memory bag-semantics executor runs the
//!   original and every mutant on each dataset and reports which dataset
//!   kills which mutant;
//! * [`obs`] — the zero-dependency tracing/metrics layer over the whole
//!   plan→solve→kill pipeline (`--metrics-json`, `--trace`).
//!
//! A stage failure reaches the caller as [`XDataError`], which [`core`]
//! defines for its own entry points and which is re-exported here.
//!
//! # Tuning generation
//!
//! [`XData`] builder methods cover the common knobs; the full set lives on
//! [`core::GenOptions`]:
//!
//! ```
//! use xdata::core::GenOptions;
//! use xdata::solver::Mode;
//!
//! let opts = GenOptions { jobs: 4, ..GenOptions::default() };
//! assert_eq!(opts.mode, Mode::Unfold);       // §VI-B fast configuration: incremental sessions
//! assert!(opts.input_db.is_none());          // no §VI-A input database
//! assert!(opts.decision_limit > 1_000_000);  // budget exhaustion ⇒ skip-with-reason
//! ```
//!
//! # Using the solver directly
//!
//! Constraint problems can be posed straight to the solver layer:
//!
//! ```
//! use xdata::solver::{Atom, Formula, Mode, Problem, RelOp, SolveOutcome, Term};
//!
//! let mut p = Problem::new();
//! let r = p.add_array("r", 1, 2); // one tuple with two fields
//! let (x, y) = (Term::field(r, 0, 0), Term::field(r, 0, 1));
//! p.assert(Formula::Atom(Atom::new(x, RelOp::Lt, y)));
//! p.assert(Formula::Atom(Atom::new(y, RelOp::Le, Term::Const(10))));
//! match p.solve(Mode::Unfold) {
//!     SolveOutcome::Sat(m) => assert!(m.get(r, 0, 0) < m.get(r, 0, 1)),
//!     other => panic!("expected a model, got {other:?}"),
//! }
//! ```

pub use xdata_catalog as catalog;
pub use xdata_client as client;
pub use xdata_core as core;
pub use xdata_engine as engine;
pub use xdata_obs as obs;
pub use xdata_relalg as relalg;
pub use xdata_serve as serve;
pub use xdata_solver as solver;
pub use xdata_sql as sql;

pub use xdata_core::XDataError;

use xdata_catalog::{Dataset, DomainCatalog, Schema};
use xdata_core::{generate_cancellable, BatchGradeReport, FaultPlan, GenOptions, TestSuite};
use xdata_engine::kill::{kill_report_cancel, KillReport};
use xdata_engine::JoinStrategy;
use xdata_par::CancelToken;
use xdata_relalg::mutation::{mutation_space, MutationOptions};
use xdata_relalg::{normalize, MutationSpace, NormQuery};

/// Everything produced for one query.
#[derive(Debug, Clone)]
pub struct Run {
    pub query: NormQuery,
    pub suite: TestSuite,
}

impl Run {
    /// Enumerate the mutation space of the query.
    pub fn mutants(&self, opts: MutationOptions) -> MutationSpace {
        mutation_space(&self.query, opts)
    }
}

/// The main entry point: a schema plus generation options.
#[derive(Debug, Clone)]
pub struct XData {
    schema: Schema,
    domains: DomainCatalog,
    options: GenOptions,
}

impl XData {
    /// Create a generator for `schema` with default domains and options.
    pub fn new(schema: Schema) -> Self {
        let domains = DomainCatalog::defaults(&schema);
        XData { schema, domains, options: GenOptions::default() }
    }

    /// Parse a schema from `CREATE TABLE` statements.
    pub fn from_sql_schema(ddl: &str) -> Result<Self, XDataError> {
        Ok(Self::new(xdata_sql::parse_schema(ddl)?))
    }

    /// Draw generated values (and, where consistent, whole tuples) from an
    /// existing database (§VI-A).
    pub fn with_input_db(mut self, input: Dataset) -> Self {
        self.domains = DomainCatalog::from_dataset(&self.schema, &input);
        self.options.input_db = Some(input);
        self
    }

    /// Select the quantifier-handling mode (§VI-B).
    pub fn with_mode(mut self, mode: xdata_solver::Mode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Worker threads for generation and kill checking: `1` is sequential,
    /// `0` means one per available core. Output is identical for every
    /// value.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Override attribute domains.
    pub fn with_domains(mut self, domains: DomainCatalog) -> Self {
        self.domains = domains;
        self
    }

    /// Wall-clock budget in milliseconds for the whole pipeline. When it
    /// expires, generation finishes *partially* (unfinished targets become
    /// [`core::SkipReason::Timeout`] skips) and [`XData::evaluate`] marks
    /// still-unverdicted mutants unevaluated rather than blocking.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.options.deadline_ms = Some(ms);
        self
    }

    /// Wall-clock budget in milliseconds per solve target; a target that
    /// outlives it is skipped with [`core::SkipReason::Timeout`] while the
    /// rest of the suite proceeds.
    pub fn with_target_deadline_ms(mut self, ms: u64) -> Self {
        self.options.per_target_deadline_ms = Some(ms);
        self
    }

    /// Decision budget per solve call (exhaustion ⇒
    /// [`core::SkipReason::Budget`] skip).
    pub fn with_decision_limit(mut self, limit: u64) -> Self {
        self.options.decision_limit = limit;
        self
    }

    /// Install a deterministic fault-injection plan (the chaos harness).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.options.faults = faults;
        self
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn options(&self) -> &GenOptions {
        &self.options
    }

    /// Parse `sql` and normalize it against the schema, without generating
    /// a suite.
    pub fn normalize(&self, sql: &str) -> Result<NormQuery, XDataError> {
        Ok(normalize(&xdata_sql::parse_query(sql)?, &self.schema)?)
    }

    /// Parse, normalize and generate the test suite for `sql`.
    pub fn generate_for(&self, sql: &str) -> Result<Run, XDataError> {
        let cancel = CancelToken::for_deadline_ms(self.options.deadline_ms);
        self.generate_cancellable(sql, &cancel)
    }

    fn generate_cancellable(&self, sql: &str, cancel: &CancelToken) -> Result<Run, XDataError> {
        let query = self.normalize(sql)?;
        let suite =
            generate_cancellable(&query, &self.schema, &self.domains, &self.options, cancel, None)?;
        Ok(Run { query, suite })
    }

    /// Run the full evaluation loop of §VI-C: generate the suite, enumerate
    /// the mutation space, and report which datasets kill which mutants.
    ///
    /// One cancellation token spans the *whole* pipeline: the
    /// [`XData::with_deadline_ms`] budget covers generation *and* kill
    /// checking. Once it expires, unfinished generation targets become
    /// [`core::SkipReason::Timeout`] skips and mutants without a verdict
    /// yet land in [`KillReport::unevaluated`] — verdicts already computed
    /// are kept. Per-target deadlines
    /// ([`XData::with_target_deadline_ms`]) only ever skip individual
    /// targets; the kill phase still runs in full on the datasets that
    /// survive.
    pub fn evaluate(
        &self,
        sql: &str,
        mopts: MutationOptions,
    ) -> Result<(Run, MutationSpace, KillReport), XDataError> {
        let cancel = CancelToken::for_deadline_ms(self.options.deadline_ms);
        let run = self.generate_cancellable(sql, &cancel)?;
        let space = run.mutants(mopts);
        let report = kill_report_cancel(
            &run.query,
            &space,
            &run.suite.data(),
            &self.schema,
            self.options.jobs,
            &cancel,
        )?;
        Ok((run, space, report))
    }

    /// Grade a candidate query against a reference query — the workflow of
    /// the XData grading tool this paper led to: generate the test suite
    /// from the *reference* query, run both queries on every dataset, and
    /// report the first dataset where they differ. A partial suite with no
    /// dataset leaves the candidate [`Grade::Unevaluated`], as batch
    /// grading does.
    pub fn grade(&self, reference_sql: &str, candidate_sql: &str) -> Result<Grade, XDataError> {
        let run = self.generate_for(reference_sql)?;
        let candidate = self.normalize(candidate_sql)?;
        let partial = run.suite.is_partial();
        if partial && run.suite.datasets.is_empty() {
            return Ok(Grade::Unevaluated);
        }
        for (i, d) in run.suite.datasets.iter().enumerate() {
            let expected = xdata_engine::execute_query(&run.query, &d.dataset, &self.schema)?;
            let got = xdata_engine::execute_query(&candidate, &d.dataset, &self.schema)?;
            if expected != got {
                return Ok(Grade::Different {
                    dataset_index: i,
                    dataset: d.dataset.clone(),
                    expected,
                    got,
                });
            }
        }
        Ok(Grade::AgreesOnSuite { datasets: run.suite.datasets.len(), partial })
    }

    /// Grade a whole batch of candidate queries against one reference —
    /// the at-scale form of [`XData::grade`]. The reference suite is
    /// generated **once**; candidates equivalent after normalization
    /// (commuted FROM lists, flipped predicates, renamed bindings)
    /// collapse into equivalence classes that execute once; the remaining
    /// class×dataset grid fans over the worker pool
    /// ([`XData::with_jobs`]). Per-candidate parse errors become
    /// [`core::CandidateOutcome::Invalid`] verdicts instead of failing the
    /// batch, and a [`XData::with_deadline_ms`] expiry marks unfinished
    /// candidates [`core::CandidateOutcome::Unevaluated`].
    ///
    /// Candidates execute with the hash join; the report (and
    /// [`core::BatchGradeReport::render`]) is byte-identical for every
    /// `jobs` value.
    pub fn grade_batch(
        &self,
        reference_sql: &str,
        candidates: &[String],
    ) -> Result<BatchGradeReport, XDataError> {
        xdata_core::grade_batch(
            reference_sql,
            candidates,
            &self.schema,
            &self.domains,
            &self.options,
            JoinStrategy::Hash,
        )
    }
}

/// Result of [`XData::grade`].
#[derive(Debug, Clone)]
pub enum Grade {
    /// The candidate agreed with the reference on every generated dataset.
    /// Within the paper's mutation space this means the candidate is either
    /// correct or differs in a way no single mutation models. On a
    /// `partial` suite (a deadline or an exhausted decision budget skipped
    /// targets) the agreement covers only the datasets present.
    AgreesOnSuite { datasets: usize, partial: bool },
    /// A witness dataset on which the two queries disagree — show it to the
    /// student.
    Different {
        dataset_index: usize,
        dataset: Dataset,
        expected: xdata_engine::ResultSet,
        got: xdata_engine::ResultSet,
    },
    /// No verdict: the suite is partial and has no dataset, so nothing was
    /// compared.
    Unevaluated,
}

impl Grade {
    /// Whether the candidate agreed with the reference on a complete suite.
    pub fn passed(&self) -> bool {
        matches!(self, Grade::AgreesOnSuite { partial: false, .. })
    }
}
