//! Test-suite types and generation options.

use std::fmt;

use xdata_catalog::Dataset;
use xdata_solver::{Mode, SolverStats};

/// Options controlling generation.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Quantifier handling (§VI-B): `Unfold` is the paper's fast
    /// configuration, `Lazy` the "without unfolding" one. Under `Unfold`
    /// without an [`GenOptions::input_db`], targets are solved through one
    /// incremental CDCL session per constraint-skeleton shape (the
    /// skeleton is lowered once, each target runs under per-target
    /// assumptions, and learned clauses, branching activities and saved
    /// phases carry over between targets); every other configuration
    /// solves each target with a fresh CDCL search.
    pub mode: Mode,
    /// Force generated tuples to be drawn from this input database (§VI-A).
    /// On inconsistency the generator retries without the restriction, as
    /// the paper describes.
    pub input_db: Option<Dataset>,
    /// Generate the three `=`, `<`, `>` datasets for attribute-vs-attribute
    /// comparisons too (a generalization of the paper's `A.x op val` case).
    pub compare_attr_pairs: bool,
    /// Worker threads for the solve phase: `1` (the default) is fully
    /// sequential, `0` means one per available core. Every value produces
    /// the identical suite — solve targets are independent and collected
    /// in plan order.
    pub jobs: usize,
    /// Decision budget per solve call. A target whose solve exhausts the
    /// budget is reported as skipped with [`SkipReason::Budget`] — never
    /// silently dropped. The default is high enough that the paper's
    /// workloads never hit it.
    pub decision_limit: u64,
    /// Wall-clock budget in milliseconds for the whole generation run.
    /// When it expires the suite completes *partially*: targets not yet
    /// finished are reported as [`SkipReason::Timeout`], never silently
    /// dropped. `None` (the default) means no suite deadline.
    pub deadline_ms: Option<u64>,
    /// Wall-clock budget in milliseconds for each individual target. A
    /// target whose solve outlives it becomes a [`SkipReason::Timeout`]
    /// skip while the rest of the suite proceeds normally. `None` (the
    /// default) means no per-target deadline.
    pub per_target_deadline_ms: Option<u64>,
    /// Deterministic fault injection for the chaos harness (empty by
    /// default — zero cost in production). See [`FaultPlan`].
    pub faults: FaultPlan,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            mode: Mode::Unfold,
            input_db: None,
            compare_attr_pairs: true,
            jobs: 1,
            decision_limit: xdata_solver::DEFAULT_DECISION_LIMIT,
            deadline_ms: None,
            per_target_deadline_ms: None,
            faults: FaultPlan::default(),
        }
    }
}

/// Deterministic fault injection, matched against target labels.
///
/// The chaos harness's entry point: each list holds substrings matched
/// against every plan item's label (`"aggregate"`, `"comparison 0"`, …).
/// A matching target deterministically misbehaves in the named way,
/// regardless of thread schedule — which is what lets the chaos tests
/// assert byte-identical partial suites across `--jobs` values:
///
/// * [`FaultPlan::panic_targets`] — the solve panics mid-flight; the
///   generator isolates it into a [`SkipReason::Fault`] skip.
/// * [`FaultPlan::unknown_targets`] — the solve reports a blown decision
///   budget ([`SkipReason::Budget`]) without doing any work.
/// * [`FaultPlan::expire_targets`] — the target's deadline "expires"
///   synthetically (the token is cancelled without any wall-clock wait),
///   producing a [`SkipReason::Timeout`] skip.
///
/// An empty plan (the default) injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Targets whose solve panics.
    pub panic_targets: Vec<String>,
    /// Targets whose solve exits `Unknown` (budget-style giving up).
    pub unknown_targets: Vec<String>,
    /// Targets whose cancellation token trips synthetically at solve entry.
    pub expire_targets: Vec<String>,
}

impl FaultPlan {
    /// Whether any fault is configured at all (fast path for production).
    pub fn is_empty(&self) -> bool {
        self.panic_targets.is_empty()
            && self.unknown_targets.is_empty()
            && self.expire_targets.is_empty()
    }

    fn matches(list: &[String], label: &str) -> bool {
        list.iter().any(|pat| label.contains(pat.as_str()))
    }

    /// Should `label`'s solve panic?
    pub fn should_panic(&self, label: &str) -> bool {
        Self::matches(&self.panic_targets, label)
    }

    /// Should `label`'s solve exit `Unknown`?
    pub fn should_unknown(&self, label: &str) -> bool {
        Self::matches(&self.unknown_targets, label)
    }

    /// Should `label`'s deadline expire synthetically?
    pub fn should_expire(&self, label: &str) -> bool {
        Self::matches(&self.expire_targets, label)
    }
}

/// One generated test case.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    pub dataset: Dataset,
    /// What this dataset targets, e.g. `nullify teaches.id (eq-class 0)`.
    pub label: String,
    /// Solver statistics for this dataset's constraint set.
    pub stats: SolverStats,
}

/// A targeted constraint set that was unsatisfiable — the signature of an
/// equivalent mutant group (§V-A).
#[derive(Debug, Clone)]
pub struct SkippedTarget {
    pub label: String,
    pub reason: SkipReason,
}

/// Why a target produced no dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// Constraints inconsistent: the targeted mutants are equivalent to the
    /// original query.
    Equivalent,
    /// The nullification set `P` was empty in Algorithm 2 (special-cased
    /// equivalence).
    EmptyP,
    /// The solver exhausted [`GenOptions::decision_limit`] without a
    /// verdict. Unlike the two equivalence reasons this says nothing about
    /// the mutants — the target needs a bigger budget, not a shrug.
    Budget {
        /// Decisions spent before giving up (summed over the repair ladder).
        decisions: u64,
    },
    /// The wall-clock deadline ([`GenOptions::deadline_ms`] or
    /// [`GenOptions::per_target_deadline_ms`]) expired before the target's
    /// solve finished. Like [`SkipReason::Budget`] this says nothing about
    /// the mutants — rerun with a bigger time budget.
    Timeout,
    /// The target's solve panicked (a solver bug, or injected by the chaos
    /// [`FaultPlan`]). The panic was isolated to this one target; the rest
    /// of the suite is unaffected.
    Fault {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl SkipReason {
    /// Whether this skip is a *degradation* — the pipeline gave up for
    /// resource or robustness reasons ([`SkipReason::Budget`],
    /// [`SkipReason::Timeout`], [`SkipReason::Fault`]) — as opposed to a
    /// genuine equivalence verdict ([`SkipReason::Equivalent`],
    /// [`SkipReason::EmptyP`]). A suite with any degradation skip is
    /// *partial*: its surviving mutants are unresolved, not proven
    /// equivalent.
    pub fn is_degradation(&self) -> bool {
        matches!(
            self,
            SkipReason::Budget { .. } | SkipReason::Timeout | SkipReason::Fault { .. }
        )
    }
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::Equivalent => write!(f, "constraints unsatisfiable (equivalent mutants)"),
            SkipReason::EmptyP => write!(f, "empty retained set P (equivalent mutants)"),
            SkipReason::Budget { decisions } => {
                write!(f, "solver gave up after {decisions} decisions (budget exhausted)")
            }
            SkipReason::Timeout => write!(f, "deadline expired before a verdict (timeout)"),
            SkipReason::Fault { message } => write!(f, "solve panicked: {message}"),
        }
    }
}

/// Aggregated statistics for a generation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SuiteStats {
    pub datasets: usize,
    pub skipped: usize,
    pub solver_decisions: u64,
    pub solver_conflicts: u64,
    pub ground_solves: u64,
    pub instantiations: u64,
}

/// The generated test suite.
#[derive(Debug, Clone, Default)]
pub struct TestSuite {
    pub datasets: Vec<GeneratedDataset>,
    pub skipped: Vec<SkippedTarget>,
}

impl TestSuite {
    pub fn stats(&self) -> SuiteStats {
        let mut s = SuiteStats {
            datasets: self.datasets.len(),
            skipped: self.skipped.len(),
            ..SuiteStats::default()
        };
        for d in &self.datasets {
            s.solver_decisions += d.stats.decisions;
            s.solver_conflicts += d.stats.conflicts;
            s.ground_solves += d.stats.ground_solves;
            s.instantiations += d.stats.instantiations;
        }
        s
    }

    /// Just the datasets, borrowed (for feeding the kill checker).
    pub fn data(&self) -> Vec<&Dataset> {
        self.datasets.iter().map(|d| &d.dataset).collect()
    }

    /// Largest dataset in the suite (tuples) — the paper's "small and
    /// intuitive" claim is about this number.
    pub fn max_dataset_size(&self) -> usize {
        self.datasets.iter().map(|d| d.dataset.total_tuples()).max().unwrap_or(0)
    }

    /// Whether any target was skipped for a degradation reason (budget,
    /// timeout, fault). A partial suite's kill verdicts are still sound for
    /// the datasets it *does* contain, but a surviving mutant is
    /// *unresolved*, not proven equivalent — the skipped targets might have
    /// killed it.
    pub fn is_partial(&self) -> bool {
        self.skipped.iter().any(|s| s.reason.is_degradation())
    }
}

impl fmt::Display for TestSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "test suite: {} datasets, {} equivalent-mutant groups skipped",
            self.datasets.len(), self.skipped.len())?;
        for (i, d) in self.datasets.iter().enumerate() {
            writeln!(f, "--- dataset {i}: {}", d.label)?;
            write!(f, "{}", d.dataset)?;
        }
        for s in &self.skipped {
            writeln!(f, "--- skipped: {} — {}", s.label, s.reason)?;
        }
        Ok(())
    }
}
