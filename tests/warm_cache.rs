//! The warm cache holds memoized solves and nothing else.
//!
//! * Repeating a complete warm run replays every solve: no memo miss and
//!   no solver call at all, so no lane builds a session.
//! * A run that ends with a `Timeout` skip commits nothing, and the next
//!   uncancelled run on the same namespace returns the cold bytes.

use std::time::Instant;

use xdata::catalog::{university, DomainCatalog, Schema};
use xdata::core::{generate_cancellable, CancelToken, GenOptions, SkipReason, TestSuite, WarmCache};
use xdata::obs;
use xdata::relalg::{normalize, NormQuery};
use xdata::solver::Mode;

struct Case {
    query: NormQuery,
    schema: Schema,
    domains: DomainCatalog,
}

fn case(sql: &str) -> Case {
    let schema = university::schema();
    let query = normalize(&xdata::sql::parse_query(sql).expect("parses"), &schema)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let domains = DomainCatalog::defaults(&schema);
    Case { query, schema, domains }
}

impl Case {
    fn cold(&self, opts: &GenOptions) -> TestSuite {
        let cancel = CancelToken::new();
        generate_cancellable(&self.query, &self.schema, &self.domains, opts, &cancel, None)
            .expect("cold run")
    }

    fn warm(
        &self,
        opts: &GenOptions,
        cancel: &CancelToken,
        warm: &WarmCache,
        ns: &str,
    ) -> TestSuite {
        let warm = Some((warm, ns));
        generate_cancellable(&self.query, &self.schema, &self.domains, opts, cancel, warm)
            .expect("warm run")
    }
}

fn timed_out(suite: &TestSuite) -> bool {
    suite.skipped.iter().any(|s| s.reason == SkipReason::Timeout)
}

/// A join with a selection (one skeleton class), a projection that plans
/// a duplicate-row target (two classes) and an aggregate (two classes),
/// with sessions on and off.
#[test]
fn repeated_complete_warm_run_solves_nothing() {
    let cases = [
        case("SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000"),
        case("SELECT name FROM instructor WHERE salary > 75000"),
        case("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id"),
    ];
    for opts in [
        GenOptions::default(),
        GenOptions { jobs: 2, ..GenOptions::default() },
        GenOptions { mode: Mode::Lazy, ..GenOptions::default() },
    ] {
        let cache = WarmCache::new();
        for c in &cases {
            let cold = c.cold(&opts).to_string();
            assert_eq!(c.warm(&opts, &CancelToken::new(), &cache, "t").to_string(), cold);
            assert!(!cache.is_empty(), "a complete run commits its solves");
            let entries = cache.len();

            obs::install();
            obs::preseed();
            let again = c.warm(&opts, &CancelToken::new(), &cache, "t").to_string();
            let report = obs::take_report().expect("recorder was installed");
            assert_eq!(again, cold, "a warm repeat changed the output bytes");
            assert_eq!(report.counter("core.solve_memo.miss"), 0, "{opts:?}");
            assert!(report.counter("core.solve_memo.hit") > 0, "{opts:?}");
            assert_eq!(report.counter("solver.session.assumption_solves"), 0, "{opts:?}");
            assert_eq!(report.counter("solver.ground_solves"), 0, "{opts:?}");
            assert_eq!(cache.len(), entries, "a repeat adds no entries");
        }
    }
}

/// Cancel a single-class run at several points, from before the first
/// target to past the last. Every run that ends with a `Timeout` skip
/// leaves the cache as it was; the next uncancelled run on the same
/// namespace solves from scratch and returns the cold bytes.
#[test]
fn timed_out_run_commits_nothing() {
    let c = case("SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000");
    let opts = GenOptions::default();
    let started = Instant::now();
    let cold = c.cold(&opts).to_string();
    let full = started.elapsed();

    let cache = WarmCache::new();
    let (mut timeouts, mut mid_run) = (0, 0);
    for step in 0..=12u32 {
        let ns = format!("tenant-{step}");
        let token = if step == 0 {
            let t = CancelToken::new();
            t.cancel();
            t
        } else {
            CancelToken::with_deadline(full * step / 10)
        };
        let before = cache.len();
        let suite = c.warm(&opts, &token, &cache, &ns);
        if timed_out(&suite) {
            timeouts += 1;
            mid_run += usize::from(!suite.datasets.is_empty());
            assert_eq!(cache.len(), before, "step {step}: a timed-out run committed entries");
        }
        let next = c.warm(&opts, &CancelToken::new(), &cache, &ns);
        assert_eq!(next.to_string(), cold, "step {step}: the run after a cancel is not cold");
        assert!(cache.len() > before, "step {step}: the complete run committed nothing");
    }
    assert!(timeouts > 0, "no run timed out");
    assert!(mid_run > 0, "no cancellation landed between two targets");
}
