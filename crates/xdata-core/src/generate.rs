//! Algorithm 1 and its sub-procedures (§V of the paper), restructured as a
//! two-phase **plan → solve** pipeline.
//!
//! The sequential presentation of Algorithm 1 interleaves target
//! *enumeration* (which datasets to attempt) with target *solving* (the
//! expensive constraint solves). Here a cheap planning pass first
//! enumerates every solve target — the original-query dataset, one
//! nullification per equivalence-class element, one per retained
//! predicate×relation, three comparison datasets per conjunct, aggregate
//! and HAVING group constructions, the duplicate-row dataset — as inert
//! `PlanItem` values.
//!
//! The solve phase groups the targets into **lanes**, one per skeleton
//! class (the number of tuple-set copies the target's constraint problem
//! needs). A lane solves its targets one after another in plan order and
//! owns everything they share: one rung per repair cap and its solve
//! memo. Lanes share nothing, so they run through
//! [`xdata_par::par_map_cancel`] on `GenOptions::jobs` threads with no
//! lock between them, and their outcomes are put back in plan order: the
//! resulting [`TestSuite`] is **byte-identical to the sequential output
//! for every thread count**.
//!
//! Every target is the original query's conditions with one conjunct
//! perturbed (Algorithms 2–4, §V-C to §V-F): it asserts its perturbation,
//! then the other conditions through one writer, `Gen::assert_conds`, in
//! one fixed order, leaving out (or, for a comparison, re-operating in
//! place) the conjunct it perturbs. Group targets assert them per copy.
//!
//! A lane's rung at one repair cap holds the *constraint skeleton* — the
//! schema PK/FK closure, tuple arrays, symmetry breaking and domain
//! constraints of [`ConstraintBuilder`], built and, in unfold mode,
//! quantifier-expanded once, then cloned per target — with its
//! fingerprint and the incremental [`SolveSession`] built from it.
//!
//! On top of the skeletons sits a cross-target **solve memo**: solve
//! calls are keyed by a structural hash of the problem (solve mode,
//! skeleton class, decision budget and content) and their outcome —
//! verdict and model values — is reused for any later target of the lane
//! that builds the byte-identical problem. A target's content is its
//! skeleton's fingerprint, hashed once when the lane builds the skeleton,
//! plus the ordered constraints the target appends to it, so a solve pays
//! to hash its delta, not the skeleton; the input-database attempt, built
//! without a skeleton, hashes its array specs and every constraint. The
//! common case is a comparison target whose forced operator *is* the
//! predicate's original operator: its constraint set reproduces the
//! original-query target's exactly. A warm run also looks keys up in a
//! process-long [`WarmCache`] (see [`crate::warm`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::AssertUnwindSafe;

use xdata_catalog::{Domain, DomainCatalog, Schema, Value};
use xdata_par::CancelToken;
use xdata_relalg::{AttrRef, LikePred, NormQuery, Operand, SelectSpec, SubPred, SubqueryKind};
use xdata_sql::{AggOp, CompareOp};
use xdata_solver::{Atom, Formula, Mode, Problem, RelOp, SolveOutcome, SolveSession, Term};

use crate::builder::ConstraintBuilder;
use crate::error::GenError;
use crate::materialize::materialize;
use crate::suite::{GenOptions, GeneratedDataset, SkipReason, SkippedTarget, TestSuite};
use crate::warm::{context_salt, memo_key, sessions_enabled, skeleton_key, MemoOutcome, WarmCache};

/// Generate the complete test suite for `query` (Algorithm 1):
/// a dataset for the original query, then datasets killing equivalence-class
/// mutants, other-predicate mutants, comparison mutants and aggregation
/// mutants. The number of datasets is linear in the query size.
///
/// With `opts.jobs > 1` (or `0` for one thread per core) the skeleton
/// classes solve concurrently; the suite is identical to the `jobs = 1`
/// output.
pub fn generate(
    query: &NormQuery,
    schema: &Schema,
    domains: &DomainCatalog,
    opts: &GenOptions,
) -> Result<TestSuite, GenError> {
    let cancel = CancelToken::for_deadline_ms(opts.deadline_ms);
    generate_cancellable(query, schema, domains, opts, &cancel, None)
}

/// [`generate`] under a caller-supplied [`CancelToken`] (typically the
/// suite-level deadline token also spanning the kill evaluation). When the
/// token trips mid-run the suite completes *partially*: targets never
/// started or abandoned mid-solve come back as [`SkipReason::Timeout`]
/// skips, attributed by label — nothing is silently dropped.
///
/// With `warm`, solve outcomes persist in a process-long [`WarmCache`]
/// under the namespace's context salt and are replayed by later
/// structurally identical requests (the `xdata serve` fast path). For runs
/// whose deadlines never fire the output is byte-identical to a cold call
/// with the same arguments, whatever warm state preceded it or runs beside
/// it (see [`crate::warm`] for the argument).
pub fn generate_cancellable(
    query: &NormQuery,
    schema: &Schema,
    domains: &DomainCatalog,
    opts: &GenOptions,
    cancel: &CancelToken,
    warm: Option<(&WarmCache, &str)>,
) -> Result<TestSuite, GenError> {
    let warm = warm.map(|(cache, namespace)| (cache, context_salt(namespace, query, opts)));
    generate_impl(query, schema, domains, opts, cancel, warm, None)
}

/// A reference solver standing in for the production search on every
/// target of a [`generate_with_oracle`] run: problem, decision budget,
/// token in; verdict out.
pub type Oracle = dyn Fn(&Problem, u64, &CancelToken) -> SolveOutcome + Sync;

/// [`generate`] with incremental sessions turned off and every target
/// solved by `oracle`. The parity tests hold the production suite against
/// the fresh-CDCL and DPLL oracles through this entry; nothing else calls
/// it.
#[doc(hidden)]
pub fn generate_with_oracle(
    query: &NormQuery,
    schema: &Schema,
    domains: &DomainCatalog,
    opts: &GenOptions,
    oracle: &Oracle,
) -> Result<TestSuite, GenError> {
    let cancel = CancelToken::for_deadline_ms(opts.deadline_ms);
    generate_impl(query, schema, domains, opts, &cancel, None, Some(oracle))
}

fn generate_impl(
    query: &NormQuery,
    schema: &Schema,
    domains: &DomainCatalog,
    opts: &GenOptions,
    cancel: &CancelToken,
    warm: Option<(&WarmCache, u64)>,
    oracle: Option<&Oracle>,
) -> Result<TestSuite, GenError> {
    let _gen_span = xdata_obs::span("generate");
    // Preprocessing beyond what normalization did: make sure every string
    // literal in the query is dictionary-coded.
    let domains = prepare_domains(query, schema, domains);
    let gen = Gen { query, schema, domains: &domains, opts, warm, oracle };
    let plan = {
        let _plan_span = xdata_obs::span("generate/plan");
        gen.plan()
    };
    xdata_obs::counter("core.targets.planned", plan.len() as u64);
    // One lane per skeleton class, listing its solve targets in plan
    // order. Plan-time skips need no lane.
    let mut classes: BTreeMap<u32, Vec<LaneTarget>> = BTreeMap::new();
    for (idx, item) in plan.iter().enumerate() {
        if let Work::Solve(spec) = &item.work {
            classes.entry(spec.copies()).or_default().push((idx, &item.label, spec));
        }
    }
    let lanes: Vec<(u32, Vec<LaneTarget>)> = classes.into_iter().collect();
    // One `target` flow arrow per solve target (id = plan index), opened
    // on the coordinator so every start precedes its worker-side finish.
    if xdata_obs::journal_enabled() {
        for &(idx, _, _) in lanes.iter().flat_map(|(_, targets)| targets) {
            xdata_obs::flow("target", idx as u64, xdata_obs::FlowPhase::Start);
        }
    }
    let lane_outcomes = xdata_par::par_map_cancel(opts.jobs, &lanes, cancel, |_, lane| {
        gen.run_lane(lane.0, &lane.1, cancel)
    });
    // Back into plan order. A lane never claimed (the suite deadline
    // tripped first) leaves its targets `None`.
    let mut outcomes: Vec<Option<Result<ItemOutcome, GenError>>> =
        plan.iter().map(|_| None).collect();
    for ((_, targets), lane) in lanes.iter().zip(lane_outcomes) {
        for (&(idx, _, _), outcome) in targets.iter().zip(lane.into_iter().flatten()) {
            outcomes[idx] = Some(outcome);
        }
    }
    let mut suite = TestSuite::default();
    for (item, outcome) in plan.into_iter().zip(outcomes) {
        let reason = match (item.work, outcome) {
            (Work::Skip(reason), _) => reason,
            (Work::Solve(_), None) => SkipReason::Timeout,
            (Work::Solve(_), Some(Err(e))) => return Err(e),
            (Work::Solve(_), Some(Ok(ItemOutcome::Dataset(d)))) => {
                suite.datasets.push(d);
                continue;
            }
            (Work::Solve(_), Some(Ok(ItemOutcome::Skipped(reason)))) => reason,
        };
        suite.skipped.push(SkippedTarget { label: item.label, reason });
    }
    // Suite-level tallies, recorded on the assembling thread from the
    // order-preserved outcomes — deterministic for every `jobs` value.
    xdata_obs::counter("core.targets.solved", suite.datasets.len() as u64);
    xdata_obs::counter("core.targets.skipped", suite.skipped.len() as u64);
    let timed_out =
        suite.skipped.iter().filter(|s| matches!(s.reason, SkipReason::Timeout)).count();
    let faulted =
        suite.skipped.iter().filter(|s| matches!(s.reason, SkipReason::Fault { .. })).count();
    xdata_obs::counter("core.targets.timed_out", timed_out as u64);
    xdata_obs::counter("core.targets.faulted", faulted as u64);
    xdata_obs::counter("core.partial_suites", u64::from(suite.is_partial()));
    for d in &suite.datasets {
        let rows = d.dataset.total_tuples() as u64;
        xdata_obs::counter("core.rows_emitted", rows);
        xdata_obs::observe("core.dataset_rows", rows);
    }
    Ok(suite)
}

/// Extend dictionaries with the query's string literals so they encode,
/// and widen integer-range domains to cover the query's numeric constants
/// (a selection like `salary > 50000` or a conjunct like
/// `HAVING MIN(salary) > 5000` needs values on both sides of the constant,
/// whatever the default range is) and to make the two sides of an offset
/// comparison like `salary = year + 5000` meet.
fn prepare_domains(query: &NormQuery, schema: &Schema, domains: &DomainCatalog) -> DomainCatalog {
    let mut d = domains.clone();
    // String attributes linked by equi-joins or compared directly must
    // share one dictionary, or integer equality in the solver would not
    // mean string equality in the dataset.
    let attr_ty = |a: &AttrRef| -> Option<xdata_catalog::SqlType> {
        let base = &query.occurrences[a.occ].base;
        schema.relation(base).map(|r| r.attr(a.col).ty)
    };
    let merge = |d: &mut DomainCatalog, x: &AttrRef, y: &AttrRef| {
        if attr_ty(x) == Some(xdata_catalog::SqlType::Varchar)
            && attr_ty(y) == Some(xdata_catalog::SqlType::Varchar)
        {
            let (bx, by) =
                (query.occurrences[x.occ].base.clone(), query.occurrences[y.occ].base.clone());
            d.merge_dictionaries(&bx, x.col, &by, y.col);
        }
    };
    for ec in &query.eq_classes {
        for w in ec.windows(2) {
            merge(&mut d, &w[0], &w[1]);
        }
    }
    for p in &query.preds {
        if let (Some(x), Some(y)) = (p.lhs.attr_ref(), p.rhs.attr_ref()) {
            merge(&mut d, &x, &y);
        }
    }
    for p in &query.preds {
        for (side, other) in [(&p.lhs, &p.rhs), (&p.rhs, &p.lhs)] {
            let Some(attr) = other.attr_ref() else { continue };
            let base = &query.occurrences[attr.occ].base;
            if schema.relation(base).is_none() {
                continue;
            }
            match side {
                Operand::Const(Value::Str(s)) => {
                    d.ensure_string(base, attr.col, s);
                }
                Operand::Const(Value::Int(k)) => widen_around(&mut d, base, attr.col, *k),
                _ => {}
            }
        }
    }
    // LIKE patterns: seed a match witness (`_` → 'x', `%` dropped) so the
    // positive form is satisfiable, and for simple `[%]core[%]` shapes the
    // four family witnesses {core, corex, xcore, xcorex} so every pair of
    // pattern-family mutants has a distinguishing dictionary entry (the
    // symmetric-difference datasets are then non-empty).
    for l in &query.likes {
        let base = &query.occurrences[l.attr.occ].base;
        if schema.relation(base).is_none() {
            continue;
        }
        let witness: String = l
            .pattern
            .chars()
            .filter(|c| *c != '%')
            .map(|c| if c == '_' { 'x' } else { c })
            .collect();
        if !witness.is_empty() {
            d.ensure_string(base, l.attr.col, &witness);
        }
        if let Some(core) = LikePred::simple_core(&l.pattern) {
            for s in [core.to_string(), format!("{core}x"), format!("x{core}"), format!("x{core}x")] {
                d.ensure_string(base, l.attr.col, &s);
            }
        }
    }
    // Subquery conditions compare subquery-relation columns (not
    // occurrences) against outer attributes or constants: share
    // dictionaries across string links, encode string literals, widen
    // integer ranges around numeric constants.
    for s in &query.subs {
        let Some(rel) = schema.relation(&s.base) else { continue };
        let mut pairs: Vec<(usize, &Operand)> = s.conds.iter().map(|c| (c.col, &c.rhs)).collect();
        if let Some((op, col)) = &s.link {
            pairs.push((*col, op));
        }
        for (col, rhs) in pairs {
            if col >= rel.arity() {
                continue;
            }
            match rhs {
                Operand::Attr { attr, .. }
                    if rel.attr(col).ty == xdata_catalog::SqlType::Varchar
                        && attr_ty(attr) == Some(xdata_catalog::SqlType::Varchar) =>
                {
                    let ob = query.occurrences[attr.occ].base.clone();
                    d.merge_dictionaries(&s.base, col, &ob, attr.col);
                }
                Operand::Const(Value::Str(lit)) => {
                    d.ensure_string(&s.base, col, lit);
                }
                Operand::Const(Value::Int(k)) => widen_around(&mut d, &s.base, col, *k),
                _ => {}
            }
        }
    }
    // HAVING conjuncts over MIN/MAX/SUM/AVG compare their argument's
    // values with the constant; a COUNT constant is a group size.
    if let SelectSpec::Aggregation { having, .. } = &query.select {
        for h in having.iter().filter(|h| h.func.op != AggOp::Count) {
            if let Some(a) = h.arg {
                widen_around(&mut d, &query.occurrences[a.occ].base, a.col, h.value);
            }
        }
    }
    // An offset comparison `x + a op y + b` over two integer ranges needs
    // the shifted ranges to overlap, or `=` and one of `<`/`>` have no
    // dataset. When they are disjoint, the lower one widens to reach the
    // upper one's low end; overlapping ranges stay as they are.
    for p in &query.preds {
        let (Operand::Attr { attr: x, offset: a }, Operand::Attr { attr: y, offset: b }) =
            (&p.lhs, &p.rhs)
        else {
            continue;
        };
        let (bx, by) = (&query.occurrences[x.occ].base, &query.occurrences[y.occ].base);
        let shifted = |base: &str, col: usize, offset: i64| match d.get(base, col) {
            Some(&Domain::IntRange { lo, hi }) => {
                Some((lo.saturating_add(offset), hi.saturating_add(offset)))
            }
            _ => None,
        };
        let (Some((lx, hx)), Some((ly, hy))) = (shifted(bx, x.col, *a), shifted(by, y.col, *b))
        else {
            continue;
        };
        if hx < ly {
            widen_around(&mut d, bx, x.col, ly.saturating_sub(*a));
        } else if hy < lx {
            widen_around(&mut d, by, y.col, lx.saturating_sub(*b));
        }
    }
    d
}

/// Widen an integer-range domain to reach 10 past `k` on both sides, so
/// `<`, `=` and `>` datasets all exist.
fn widen_around(d: &mut DomainCatalog, relation: &str, col: usize, k: i64) {
    if let Some(&Domain::IntRange { lo, hi }) = d.get(relation, col) {
        let (new_lo, new_hi) = (lo.min(k - 10), hi.max(k + 10));
        if new_lo != lo || new_hi != hi {
            d.set(relation, col, Domain::IntRange { lo: new_lo, hi: new_hi });
        }
    }
}

/// One unit of the generation plan: either a target to solve or a
/// plan-time-known skip (recorded so the suite's skip list matches the
/// sequential algorithm exactly).
struct PlanItem {
    label: String,
    work: Work,
}

enum Work {
    /// Known unsolvable at plan time (e.g. Algorithm 2's empty-`P` case).
    Skip(SkipReason),
    Solve(TargetSpec),
}

/// A solve target, fully described by data — no closures — so the plan can
/// cross thread boundaries.
enum TargetSpec {
    /// §V-B: non-empty result for the original query.
    Original,
    /// Algorithm 2: nullify `s` against the rest (`p`) of eq-class `ci`.
    EqClass { ci: usize, s: Vec<AttrRef>, p: Vec<AttrRef> },
    /// Algorithm 3: no tuple of occurrence `r` satisfies predicate `pi`.
    OtherPredicate { pi: usize, r: usize },
    /// §V-E: predicate `pi` forced to `op`.
    Comparison { pi: usize, op: CompareOp },
    /// Algorithm 4 for aggregate over `a`; the optional-constraint
    /// relaxation ladder runs inside the solve.
    Aggregate { a: AttrRef, copies: u32 },
    /// A whole qualifying group of `k` tuple-set copies: §V-B's
    /// original-query dataset for a HAVING clause, or, with `over` set to
    /// `(hi, op)`, HAVING conjunct `hi` forced to `op`.
    Having { k: u32, over: Option<(usize, CompareOp)> },
    /// Footnote 2: a duplicate result row (SELECT vs SELECT DISTINCT).
    Duplicate { star: bool, projected: Vec<AttrRef> },
    /// Subquery predicate `si` with its connective's negation flipped.
    SubFlip { si: usize },
    /// Subquery predicate `si` made existentially true but membership-false
    /// (`EXISTS` holds, `IN` definitely does not): separates the `IN` and
    /// `EXISTS` connective families.
    SubDistinguish { si: usize },
    /// Positive `IN` subquery `si` plus a condition-true subquery row with
    /// NULL in the linked column: the `NOT IN` NULL-trap witness.
    SubNullWitness { si: usize },
    /// LIKE predicate `li` steered into the symmetric difference between
    /// its own pattern and family variant `pattern`.
    LikeVariant { li: usize, pattern: String },
    /// NULL check `ni` with its polarity flipped.
    NullCheckFlip { ni: usize },
}

impl TargetSpec {
    /// Tuple-set copies the target's constraint problem needs.
    fn copies(&self) -> u32 {
        match self {
            TargetSpec::Original
            | TargetSpec::EqClass { .. }
            | TargetSpec::OtherPredicate { .. }
            | TargetSpec::Comparison { .. }
            | TargetSpec::SubFlip { .. }
            | TargetSpec::SubDistinguish { .. }
            | TargetSpec::SubNullWitness { .. }
            | TargetSpec::LikeVariant { .. }
            | TargetSpec::NullCheckFlip { .. } => 1,
            TargetSpec::Having { k, .. } => *k,
            TargetSpec::Aggregate { copies, .. } => *copies,
            TargetSpec::Duplicate { .. } => 2,
        }
    }
}

/// The one conjunct of the query's conditions a target perturbs:
/// [`Gen::assert_conds`] leaves it out, or, for [`Except::Op`], asserts it
/// in its own place with the forced operator.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Except {
    Nothing,
    /// Equivalence class `ci`.
    Class(usize),
    /// Predicate `pi`.
    Pred(usize),
    /// Predicate `pi` with its operator replaced.
    Op(usize, CompareOp),
    /// Subquery predicate `si`.
    Sub(usize),
    /// Like [`Except::Sub`], but additionally leaves the subquery's
    /// spare NULL slot unsuppressed — only the NULL-membership witness
    /// target uses this, making it the one dataset with a NULL member.
    SubNull(usize),
    /// LIKE predicate `li`.
    Like(usize),
    /// NULL check `ni`.
    Null(usize),
}

/// What one plan item produced.
enum ItemOutcome {
    Dataset(GeneratedDataset),
    Skipped(SkipReason),
}

/// A solve target as a lane sees it: plan index, label, spec.
type LaneTarget<'p> = (usize, &'p str, &'p TargetSpec);

/// What every lane of one run reads: the query and its context.
struct Gen<'a> {
    query: &'a NormQuery,
    schema: &'a Schema,
    domains: &'a DomainCatalog,
    opts: &'a GenOptions,
    /// Present on warm runs: the cache plus this run's context salt. Salt
    /// `0` with `warm: None` is the batch configuration — the salt is
    /// hashed into every memo key, so batch and warm keys never mix.
    warm: Option<(&'a WarmCache, u64)>,
    /// Present on [`generate_with_oracle`] runs: solves every target in
    /// place of sessions and fresh CDCL.
    oracle: Option<&'a Oracle>,
}

/// One skeleton class's solve state, owned by the thread that runs the
/// lane. The class's targets solve one after another in plan order, so an
/// incremental session sees the same target sequence — and gives the same
/// answers — whatever `--jobs` is.
struct Lane<'g, 'a> {
    gen: &'g Gen<'a>,
    /// The class: tuple-set copies of every target in the lane.
    copies: u32,
    /// The lane's rungs of the repair ladder, keyed by repair cap.
    rungs: BTreeMap<u32, Rung<'a>>,
    /// The solves this lane computed, keyed by [`memo_key`].
    memo: HashMap<(u64, u64), MemoOutcome>,
}

/// What a lane's targets share at one repair cap.
struct Rung<'a> {
    /// Arrays + database constraints, built (and unfolded, in unfold mode)
    /// once, then cloned per target.
    skeleton: ConstraintBuilder<'a>,
    /// The skeleton's [`skeleton_key`], taken once, which stands in for
    /// the skeleton in the memo keys of its targets.
    fingerprint: (u64, u64),
    /// The incremental session, built from the skeleton on the rung's
    /// first memo miss. The skeleton is lowered into a CDCL engine once and
    /// each target solves under assumptions, keeping learned clauses for
    /// the targets after it (see [`SolveSession`]). Dropped with the lane.
    session: Option<SolveSession>,
}

impl<'a> Gen<'a> {
    // ----- Phase 1: planning --------------------------------------------

    /// Enumerate every solve target in the order the sequential algorithm
    /// attempts them; order is what makes parallel assembly reproduce the
    /// sequential suite.
    fn plan(&self) -> Vec<PlanItem> {
        let mut plan = Vec::new();
        self.plan_original(&mut plan);
        self.plan_equivalence_classes(&mut plan);
        self.plan_other_predicates(&mut plan);
        self.plan_comparison_operators(&mut plan);
        self.plan_aggregates(&mut plan);
        self.plan_having_comparisons(&mut plan);
        self.plan_duplicates(&mut plan);
        self.plan_subqueries(&mut plan);
        self.plan_likes(&mut plan);
        self.plan_null_checks(&mut plan);
        plan
    }

    fn plan_original(&self, plan: &mut Vec<PlanItem>) {
        let label = "original query (non-empty result)".to_string();
        let having: &[xdata_relalg::HavingPred] = match &self.query.select {
            SelectSpec::Aggregation { having, .. } => having,
            _ => &[],
        };
        let work = if having.is_empty() {
            Work::Solve(TargetSpec::Original)
        } else {
            match crate::having::group_size(having, None) {
                None => Work::Skip(SkipReason::Equivalent),
                Some(k) => Work::Solve(TargetSpec::Having { k, over: None }),
            }
        };
        plan.push(PlanItem { label, work });
    }

    /// Algorithm 2 planning: for each element of each equivalence class,
    /// compute the jointly-nullified set `S` (the element plus every
    /// non-nullable FK referencing it, §V-H) and the retained set `P`.
    fn plan_equivalence_classes(&self, plan: &mut Vec<PlanItem>) {
        let strict = self.schema.strict_fk_closure();
        for (ci, ec) in self.query.eq_classes.iter().enumerate() {
            for &e in ec {
                let e_col = self.column_ref(e);
                let s: Vec<AttrRef> = ec
                    .iter()
                    .copied()
                    .filter(|&m| m == e || strict.contains(&(self.column_ref(m), e_col.clone())))
                    .collect();
                let p: Vec<AttrRef> = ec.iter().copied().filter(|m| !s.contains(m)).collect();
                let label = format!(
                    "eq-class {ci}: nullify {} against {}",
                    self.names(&s),
                    self.names(&p)
                );
                let work = if p.is_empty() {
                    Work::Skip(SkipReason::EmptyP)
                } else {
                    Work::Solve(TargetSpec::EqClass { ci, s, p })
                };
                plan.push(PlanItem { label, work });
            }
        }
    }

    fn plan_other_predicates(&self, plan: &mut Vec<PlanItem>) {
        for (pi, p) in self.query.preds.iter().enumerate() {
            for r in p.occurrences() {
                plan.push(PlanItem {
                    label: format!(
                        "pred {pi} (`{p}`): nullify {}",
                        self.query.occurrences[r].name
                    ),
                    work: Work::Solve(TargetSpec::OtherPredicate { pi, r }),
                });
            }
        }
    }

    fn plan_comparison_operators(&self, plan: &mut Vec<PlanItem>) {
        for (pi, p) in self.query.preds.iter().enumerate() {
            // String comparisons only make sense as =/<>: the `<`/`>`
            // datasets would compare dictionary codes; skip those targets.
            let string_pred = matches!(&p.lhs, Operand::Const(Value::Str(_)))
                || matches!(&p.rhs, Operand::Const(Value::Str(_)));
            let target_ops: &[CompareOp] = if string_pred {
                &[CompareOp::Eq, CompareOp::Ne]
            } else {
                &[CompareOp::Eq, CompareOp::Lt, CompareOp::Gt]
            };
            for &op in target_ops {
                plan.push(PlanItem {
                    label: format!("comparison {pi} (`{p}`): dataset with `{}`", op.sql_symbol()),
                    work: Work::Solve(TargetSpec::Comparison { pi, op }),
                });
            }
        }
    }

    fn plan_aggregates(&self, plan: &mut Vec<PlanItem>) {
        let SelectSpec::Aggregation { aggs, having, .. } = &self.query.select else {
            return;
        };
        // With a HAVING clause the group size may be forced away from the
        // three tuple sets Algorithm 4 wants; construct with the forced
        // size and let the relaxation ladder drop S1/S2 as needed.
        let copies = if having.is_empty() {
            3
        } else {
            match crate::having::group_size(having, None) {
                Some(k) => k.clamp(3, crate::having::MAX_GROUP_SIZE),
                None => return, // HAVING unconstructible: no datasets
            }
        };
        for (ai, agg) in aggs.iter().enumerate() {
            let Some(a) = agg.arg else {
                continue; // COUNT(*): no operator mutants (§II footnote).
            };
            plan.push(PlanItem {
                label: format!("aggregate {ai} ({})", agg.func.display_name()),
                work: Work::Solve(TargetSpec::Aggregate { a, copies }),
            });
        }
    }

    fn plan_having_comparisons(&self, plan: &mut Vec<PlanItem>) {
        let SelectSpec::Aggregation { having, .. } = &self.query.select else {
            return;
        };
        for (hi, h) in having.iter().enumerate() {
            for op in [CompareOp::Eq, CompareOp::Lt, CompareOp::Gt] {
                let label = format!("having {hi} (`{h}`): dataset with `{}`", op.sql_symbol());
                let over = Some((hi, op));
                let work = match crate::having::group_size(having, over) {
                    None => Work::Skip(SkipReason::Equivalent),
                    Some(k) => Work::Solve(TargetSpec::Having { k, over }),
                };
                plan.push(PlanItem { label, work });
            }
        }
    }

    fn plan_duplicates(&self, plan: &mut Vec<PlanItem>) {
        let projected: Vec<AttrRef> = match &self.query.select {
            SelectSpec::Aggregation { .. } => return, // no duplicate mutant
            SelectSpec::Columns(cols) => cols.clone(),
            SelectSpec::Star => Vec::new(), // sentinel: all attributes
        };
        let star = matches!(self.query.select, SelectSpec::Star);
        if star {
            // A duplicated full row needs a relation that admits duplicate
            // tuples, i.e. one without a primary key.
            let has_keyless = self.query.occurrences.iter().any(|o| {
                self.schema
                    .relation(&o.base)
                    .map(|r| r.primary_key.is_empty())
                    .unwrap_or(false)
            });
            if !has_keyless {
                // Structurally impossible (primary keys forbid duplicate
                // rows under SELECT *): the mutant is equivalent; nothing
                // to record — no constraint set was even attempted.
                return;
            }
        }
        plan.push(PlanItem {
            label: "duplicate row (SELECT vs SELECT DISTINCT)".to_string(),
            work: Work::Solve(TargetSpec::Duplicate { star, projected }),
        });
    }

    /// Extended-class planning, subqueries: every connective gets a
    /// flipped-polarity dataset; linked (membership) predicates also get an
    /// `EXISTS`-true/`IN`-false distinguisher, and positive `IN` over a
    /// nullable linked column gets a NULL-membership witness — together
    /// with the original dataset these kill the whole connective space
    /// (`IN`/`NOT IN`/`EXISTS`/`NOT EXISTS`).
    fn plan_subqueries(&self, plan: &mut Vec<PlanItem>) {
        for (si, s) in self.query.subs.iter().enumerate() {
            let name = SubPred::connective_name((s.kind, s.negated));
            plan.push(PlanItem {
                label: format!("subquery {si} (`{name}` over {}): flipped connective", s.alias),
                work: Work::Solve(TargetSpec::SubFlip { si }),
            });
            let Some((_, col)) = &s.link else { continue };
            plan.push(PlanItem {
                label: format!("subquery {si} (`{name}` over {}): IN/EXISTS distinguisher", s.alias),
                work: Work::Solve(TargetSpec::SubDistinguish { si }),
            });
            let nullable = self
                .schema
                .relation(&s.base)
                .map(|r| *col < r.arity() && r.attr(*col).nullable)
                .unwrap_or(false);
            if s.kind == SubqueryKind::In && nullable {
                xdata_obs::counter("core.targets.null_witness", 1);
                plan.push(PlanItem {
                    label: format!(
                        "subquery {si} (`{name}` over {}): NULL membership witness",
                        s.alias
                    ),
                    work: Work::Solve(TargetSpec::SubNullWitness { si }),
                });
            }
        }
    }

    /// Extended-class planning, LIKE: one dataset per family variant of a
    /// simple `[%]core[%]` pattern, steering the attribute into the
    /// symmetric difference of the two patterns' match sets. Patterns with
    /// `_` or interior `%` have no mutant family and plan nothing — exactly
    /// mirroring the mutation generator.
    fn plan_likes(&self, plan: &mut Vec<PlanItem>) {
        for (li, l) in self.query.likes.iter().enumerate() {
            for to in l.family_variants() {
                plan.push(PlanItem {
                    label: format!("like {li} (`{}`): distinguish from `{to}`", l.pattern),
                    work: Work::Solve(TargetSpec::LikeVariant { li, pattern: to }),
                });
            }
        }
    }

    /// Extended-class planning, NULL checks: one flipped-polarity dataset
    /// per check. Between the original dataset and the flip, exactly one
    /// pins a NULL at the checked position (counted as a NULL witness).
    fn plan_null_checks(&self, plan: &mut Vec<PlanItem>) {
        for (ni, n) in self.query.null_checks.iter().enumerate() {
            xdata_obs::counter("core.targets.null_witness", 1);
            plan.push(PlanItem {
                label: format!(
                    "null-check {ni} ({} IS {}NULL): flipped polarity",
                    self.names(&[n.attr]),
                    if n.negated { "NOT " } else { "" }
                ),
                work: Work::Solve(TargetSpec::NullCheckFlip { ni }),
            });
        }
    }

    // ----- Phase 2: solving ---------------------------------------------

    /// Solve one lane's targets in plan order. On a warm run a lane that
    /// ended without a `Timeout` skip then commits the solves it computed
    /// to the cache; a lane that timed out commits nothing, so the next
    /// run re-solves the class from scratch on a fresh session.
    fn run_lane(
        &self,
        copies: u32,
        targets: &[LaneTarget],
        cancel: &CancelToken,
    ) -> Vec<Result<ItemOutcome, GenError>> {
        let mut lane = Lane { gen: self, copies, rungs: BTreeMap::new(), memo: HashMap::new() };
        let outcomes: Vec<_> = targets
            .iter()
            .map(|&(idx, label, spec)| lane.run_item(idx, label, spec, cancel))
            .collect();
        if let Some((warm, _)) = self.warm {
            let timed_out = outcomes
                .iter()
                .any(|o| matches!(o, Ok(ItemOutcome::Skipped(SkipReason::Timeout))));
            if !timed_out {
                warm.commit(lane.memo);
            }
        }
        outcomes
    }

    /// Assert the constraints of a (non-aggregate) target spec: the
    /// target's own perturbation first, then the query's other conditions.
    fn assert_spec(
        &self,
        b: &mut ConstraintBuilder<'_>,
        spec: &TargetSpec,
    ) -> Result<(), GenError> {
        match spec {
            TargetSpec::Original => self.assert_conds(b, 0, Except::Nothing),
            TargetSpec::Having { k, over } => {
                let SelectSpec::Aggregation { group_by, having, .. } = &self.query.select else {
                    unreachable!("having implies aggregation");
                };
                self.assert_group(b, group_by, *k)?;
                crate::having::assert_having(b, group_by, having, *k, *over)
            }
            TargetSpec::EqClass { ci, s, p } => {
                // Members of P match each other.
                let f = b.eq_conds(p, 0);
                b.problem.assert(f);
                // No tuple of any relation in S matches P's value.
                let witness = b.cvc_map(p[0], 0);
                for &m in s {
                    let f = b.not_exists_value(m, witness);
                    b.problem.assert(f);
                }
                self.assert_conds(b, 0, Except::Class(*ci))
            }
            TargetSpec::OtherPredicate { pi, r } => {
                let f = b.gen_not_exists(&self.query.preds[*pi], *r, 0)?;
                b.problem.assert(f);
                self.assert_conds(b, 0, Except::Pred(*pi))
            }
            // Predicate `pi` keeps its place with only its operator swapped:
            // when `op` is the predicate's original operator the constraint
            // sequence is byte-identical to the `Original` target's, and
            // the solve memo reuses that model instead of solving again.
            TargetSpec::Comparison { pi, op } => self.assert_conds(b, 0, Except::Op(*pi, *op)),
            TargetSpec::Duplicate { star, projected } => {
                self.assert_group(b, &[], 2)?;
                let occs = 0..self.query.occurrences.len();
                if *star {
                    // Identical tuples in both copies: keyless relations
                    // will materialize genuine duplicates.
                    for occ in occs {
                        for f in b.copy_atoms(occ, RelOp::Eq, 0, 1) {
                            b.problem.assert(f);
                        }
                    }
                } else {
                    // Equal projections, distinct provenance.
                    for a in projected {
                        let f = Formula::Atom(Atom::new(
                            b.cvc_map(*a, 0),
                            RelOp::Eq,
                            b.cvc_map(*a, 1),
                        ));
                        b.problem.assert(f);
                    }
                    let f = Formula::or(occs.flat_map(|occ| b.copy_atoms(occ, RelOp::Ne, 0, 1)));
                    b.problem.assert(f);
                }
                Ok(())
            }
            TargetSpec::SubFlip { si } => {
                let s = &self.query.subs[*si];
                b.assert_subpred(*si, s.kind, !s.negated, 0)?;
                self.assert_conds(b, 0, Except::Sub(*si))
            }
            TargetSpec::SubDistinguish { si } => {
                // EXISTS definitely true, IN definitely false: the ground
                // witness satisfies the subquery conditions while no
                // condition-true tuple (NULLs included) matches the linked
                // value.
                b.assert_subpred(*si, SubqueryKind::Exists, false, 0)?;
                b.assert_subpred(*si, SubqueryKind::In, true, 0)?;
                self.assert_conds(b, 0, Except::Sub(*si))
            }
            TargetSpec::SubNullWitness { si } => {
                // A condition-true subquery row carries NULL in the
                // linked column. For `IN`, membership additionally holds:
                // the original stays TRUE while every negative connective
                // collapses to UNKNOWN. For `NOT IN`, no member matches
                // the probe (NULL members deliberately admitted): the
                // original is UNKNOWN — empty result — while the
                // NULL-blind correlated `NOT EXISTS` rewrite returns the
                // probe row. Either way the dataset only exists because
                // of the NULL, which is what makes it a witness.
                if self.query.subs[*si].negated {
                    b.assert_no_member(*si, 0, false)?;
                } else {
                    b.assert_subpred(*si, SubqueryKind::In, false, 0)?;
                }
                b.assert_sub_null_row(*si, 0)?;
                self.assert_conds(b, 0, Except::SubNull(*si))
            }
            TargetSpec::LikeVariant { li, pattern } => {
                let l = &self.query.likes[*li];
                let orig: BTreeSet<i64> = b.like_codes(l.attr, &l.pattern).into_iter().collect();
                let var: BTreeSet<i64> = b.like_codes(l.attr, pattern).into_iter().collect();
                // Symmetric difference: exactly the strings on which the
                // two patterns disagree. Empty means the patterns are
                // indistinguishable over the dictionary — the UNSAT of the
                // empty membership classifies the mutant as equivalent.
                let sym: Vec<i64> = orig.symmetric_difference(&var).copied().collect();
                b.assert_membership(l.attr, &sym, false, 0);
                self.assert_conds(b, 0, Except::Like(*li))
            }
            TargetSpec::NullCheckFlip { ni } => {
                let n = &self.query.null_checks[*ni];
                b.assert_null_check(n.attr, !n.negated, 0);
                self.assert_conds(b, 0, Except::Null(*ni))
            }
            TargetSpec::Aggregate { .. } => unreachable!("handled by solve_aggregate"),
        }
    }

    /// Assert the original query's conditions over copy `copy` in one
    /// fixed order — equivalence classes, predicates, subqueries, LIKE,
    /// NULL checks — except the one conjunct a target perturbs. Targets
    /// that leave out the same conjunct append the same sequence, so the
    /// solve memo sees equal problems as equal.
    fn assert_conds(
        &self,
        b: &mut ConstraintBuilder<'_>,
        copy: u32,
        except: Except,
    ) -> Result<(), GenError> {
        for (ci, ec) in self.query.eq_classes.iter().enumerate() {
            if except != Except::Class(ci) {
                let f = b.eq_conds(ec, copy);
                b.problem.assert(f);
            }
        }
        for (pi, p) in self.query.preds.iter().enumerate() {
            let op = match except {
                Except::Pred(i) if i == pi => continue,
                Except::Op(i, op) if i == pi => op,
                _ => p.op,
            };
            let f = b.pred_formula_with_op(p, op, copy)?;
            b.problem.assert(f);
        }
        for (si, s) in self.query.subs.iter().enumerate() {
            if except != Except::SubNull(si) {
                b.suppress_null_spare(si);
            }
            if except != Except::Sub(si) && except != Except::SubNull(si) {
                b.assert_subpred(si, s.kind, s.negated, copy)?;
            }
        }
        for (li, l) in self.query.likes.iter().enumerate() {
            if except != Except::Like(li) {
                let codes = b.like_codes(l.attr, &l.pattern);
                b.assert_membership(l.attr, &codes, l.negated, copy);
            }
        }
        for (ni, n) in self.query.null_checks.iter().enumerate() {
            if except != Except::Null(ni) {
                b.assert_null_check(n.attr, n.negated, copy);
            }
        }
        Ok(())
    }

    /// A group of `k` tuple-set copies: the query's conditions over every
    /// copy, then the group-by attributes chained across the copies so
    /// every copy lands in the same group.
    fn assert_group(
        &self,
        b: &mut ConstraintBuilder<'_>,
        group_by: &[AttrRef],
        k: u32,
    ) -> Result<(), GenError> {
        for c in 0..k {
            self.assert_conds(b, c, Except::Nothing)?;
        }
        for g in group_by {
            for c in 0..k.saturating_sub(1) {
                let f = Formula::Atom(Atom::new(
                    b.cvc_map(*g, c),
                    RelOp::Eq,
                    b.cvc_map(*g, c + 1),
                ));
                b.problem.assert(f);
            }
        }
        Ok(())
    }

    fn assert_aggregate_conds(
        &self,
        b: &mut ConstraintBuilder<'_>,
        group_by: &[AttrRef],
        having: &[xdata_relalg::HavingPred],
        a: AttrRef,
        copies: u32,
        enabled: [bool; 5],
    ) -> Result<(), GenError> {
        let [pos_strong, pos_weak, s3, s1, s2] = enabled;
        // S0: each tuple set satisfies the query's join and selection
        // conditions, and the sets share the group-by values; the HAVING
        // clause (if any) must hold for the constructed group too.
        self.assert_group(b, group_by, copies)?;
        if !having.is_empty() {
            crate::having::assert_having(b, group_by, having, copies, None)?;
        }
        if s1 {
            // S1: sets 0 and 1 share a non-zero aggregated value but are
            // distinct tuples (differ in some other attribute of A's
            // relation).
            let a0 = b.cvc_map(a, 0);
            let a1 = b.cvc_map(a, 1);
            b.problem.assert(Formula::Atom(Atom::new(a0, RelOp::Eq, a1)));
            b.problem.assert(Formula::Atom(Atom::new(a0, RelOp::Ne, Term::Const(0))));
            let mut diff = b.copy_atoms(a.occ, RelOp::Ne, 0, 1);
            diff.remove(a.col);
            b.problem.assert(Formula::or(diff));
        }
        if s2 {
            // S2: the third set's aggregated value differs.
            let f = Formula::Atom(Atom::new(b.cvc_map(a, 2), RelOp::Ne, b.cvc_map(a, 0)));
            b.problem.assert(f);
        }
        if s3 {
            // S3: the three sets are the whole group.
            crate::having::isolate_group(b, group_by, copies);
        }
        if pos_strong {
            // A ≥ 4 separates every pair of the eight operators: COUNT of a
            // 3-tuple group is 3 < 4 ≤ MIN/MAX/AVG/SUM, COUNT(DISTINCT)=2,
            // SUM(DISTINCT) < SUM (A ≠ 0), AVG(DISTINCT) ≠ AVG (values
            // differ by S2) — see the killAggregates discussion in §V-F.
            for c in 0..copies {
                let f =
                    Formula::Atom(Atom::new(b.cvc_map(a, c), RelOp::Ge, Term::Const(4)));
                b.problem.assert(f);
            }
        } else if pos_weak {
            // Fallback: values on one side of zero (the paper's base form).
            for c in 0..copies {
                let f =
                    Formula::Atom(Atom::new(b.cvc_map(a, c), RelOp::Gt, Term::Const(0)));
                b.problem.assert(f);
            }
        }
        Ok(())
    }

    fn column_ref(&self, a: AttrRef) -> xdata_catalog::schema::ColumnRef {
        xdata_catalog::schema::ColumnRef::new(
            self.query.occurrences[a.occ].base.clone(),
            a.col,
        )
    }

    fn names(&self, attrs: &[AttrRef]) -> String {
        attrs
            .iter()
            .map(|a| self.query.attr_name(self.schema, *a))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl<'a> Lane<'_, 'a> {
    /// Run one target. Degradation is contained per target: a tripped
    /// token becomes a [`SkipReason::Timeout`] skip, a panicking solve
    /// (chaos-injected or a genuine bug) is caught and becomes
    /// [`SkipReason::Fault`] — neither can take down the suite.
    fn run_item(
        &mut self,
        idx: usize,
        label: &str,
        spec: &TargetSpec,
        cancel: &CancelToken,
    ) -> Result<ItemOutcome, GenError> {
        let _solve_span = xdata_obs::span_with("generate/solve", || label.to_string());
        // Close this target's flow arrow on the thread that solved it.
        xdata_obs::flow("target", idx as u64, xdata_obs::FlowPhase::Finish);
        let out = self.run_item_inner(label, spec, cancel);
        if let Ok(ItemOutcome::Skipped(reason)) = &out {
            // The timeline attributes every skip inside the target's own
            // solve span, with the reason spelled out.
            xdata_obs::instant("core.target.skip", || format!("{label} — {reason}"));
        }
        out
    }

    fn run_item_inner(
        &mut self,
        label: &str,
        spec: &TargetSpec,
        cancel: &CancelToken,
    ) -> Result<ItemOutcome, GenError> {
        let gen = self.gen;
        // The target token trips when the suite token does *or* when the
        // per-target budget runs out; cancelling it never touches siblings.
        let token = cancel.child_for_deadline_ms(gen.opts.per_target_deadline_ms);
        if gen.opts.faults.should_expire(label) {
            // Synthetic expiry: deterministic (schedule-independent) and
            // carrying no wall-clock latency sample.
            token.cancel();
        }
        if token.is_cancelled() {
            return Ok(ItemOutcome::Skipped(SkipReason::Timeout));
        }
        if gen.opts.faults.should_unknown(label) {
            // A forced Unknown exit takes the same road a blown decision
            // budget takes, without spending any decisions.
            return Ok(ItemOutcome::Skipped(SkipReason::Budget));
        }
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if gen.opts.faults.should_panic(label) {
                panic!("chaos: injected panic at `{label}`");
            }
            if let TargetSpec::Aggregate { a, .. } = spec {
                return self.solve_aggregate(label, *a, &token);
            }
            self.solve_target(label, &token, &|b| gen.assert_spec(b, spec))
        }));
        match attempt {
            Ok(outcome) => outcome,
            Err(payload) => {
                let message =
                    xdata_par::panic_text(&*payload).unwrap_or("<non-string panic payload>");
                Ok(ItemOutcome::Skipped(SkipReason::Fault { message: message.to_string() }))
            }
        }
    }

    /// Algorithm 4's solve: optional constraint sets are relaxed greedily
    /// on inconsistency (lines 11–13).
    fn solve_aggregate(
        &mut self,
        label: &str,
        a: AttrRef,
        cancel: &CancelToken,
    ) -> Result<ItemOutcome, GenError> {
        let (gen, copies) = (self.gen, self.copies);
        let SelectSpec::Aggregation { group_by, having, .. } = &gen.query.select else {
            unreachable!("aggregate target implies aggregation");
        };
        // Optional constraint sets, dropped greedily on inconsistency
        // (lines 11–13 of Algorithm 4): strong positivity (A ≥ 4, which
        // separates COUNT = 3 from MIN/MAX/SUM/AVG — the paper's "add
        // additional constraints to ensure that COUNT ... also
        // differ"), then weak positivity (A > 0), then S3 (group
        // isolation), then S1 (duplicate pair), then S2 (distinct
        // third value).
        let mut enabled = [true; 5]; // [POS_STRONG, POS_WEAK, S3, S1, S2]
        loop {
            let outcome = self.solve_target(label, cancel, &|b| {
                gen.assert_aggregate_conds(b, group_by, having, a, copies, enabled)
            })?;
            let equivalent = matches!(outcome, ItemOutcome::Skipped(SkipReason::Equivalent));
            match enabled.iter().position(|e| *e) {
                // Relax the next enabled optional set.
                Some(i) if equivalent => enabled[i] = false,
                // A dataset, nothing left to relax, or a budget or time
                // that would only run out again on the relaxed
                // (larger-feasible-space) retries.
                _ => return Ok(outcome),
            }
        }
    }

    /// A copy of the base skeleton for repair cap `cap`: tuple arrays plus
    /// `genDBConstraints`, quantifiers pre-expanded in unfold mode. Built
    /// into the lane's rung on first use; every call counts one
    /// skeleton-cache hit or miss.
    fn skeleton(&mut self, cap: u32) -> Result<ConstraintBuilder<'a>, GenError> {
        if let Some(rung) = self.rungs.get(&cap) {
            xdata_obs::counter("core.skeleton_cache.hit", 1);
            return Ok(rung.skeleton.clone());
        }
        xdata_obs::counter("core.skeleton_cache.miss", 1);
        let gen = self.gen;
        let mut b = ConstraintBuilder::with_repair_cap(
            gen.schema,
            gen.query,
            gen.domains,
            self.copies,
            cap,
        )?;
        b.gen_db_constraints();
        if gen.opts.mode == Mode::Unfold {
            // Unfold the database constraints once for all targets. Lazy
            // mode keeps them quantified: pre-expansion would defeat the
            // §VI-B "without unfolding" configuration being measured.
            b.problem.inline_quantifiers();
        }
        let fingerprint = skeleton_key(&b.problem);
        self.rungs.insert(cap, Rung { skeleton: b.clone(), fingerprint, session: None });
        Ok(b)
    }

    /// Build constraints via `f`, add database (and input-database)
    /// constraints, solve, materialize. Implements the paper's retry:
    /// when input-database constraints make the set inconsistent, solve
    /// again without them (§VI-A).
    fn solve_target(
        &mut self,
        label: &str,
        cancel: &CancelToken,
        f: &dyn Fn(&mut ConstraintBuilder<'_>) -> Result<(), GenError>,
    ) -> Result<ItemOutcome, GenError> {
        if self.gen.opts.input_db.is_some() {
            // The input-constrained attempt gets a tighter decision budget:
            // proving UNSAT under tuple-pinning can be expensive, and the
            // paper's §VI-A recovery path is "retry data generation after
            // removing these constraints" anyway — so both Unsat and a
            // blown budget fall through to the unconstrained attempt.
            match self.solve_once(label, cancel, f, true)? {
                ItemOutcome::Skipped(SkipReason::Equivalent | SkipReason::Budget) => {}
                // A dataset, or a timeout: a tripped token is latched, so
                // the unconstrained attempt would exit immediately too.
                outcome => return Ok(outcome),
            }
        }
        self.solve_once(label, cancel, f, false)
    }

    /// Solve with the memo: a key this lane or — on a warm run — the
    /// cache already holds replays the stored verdict and model values;
    /// otherwise the lane solves and remembers the outcome. A
    /// [`SolveOutcome::Cancelled`] result is **never stored**: it is a
    /// withdrawn time budget, not a verdict, and caching it would poison
    /// structurally identical targets that still have time. `on_skeleton`
    /// says whether `problem` extends the lane's skeleton at `cap`; only
    /// then is it keyed by the skeleton's fingerprint and its own delta.
    fn solve_memoized(
        &mut self,
        problem: &Problem,
        on_skeleton: bool,
        cap: u32,
        limit: u64,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, GenError> {
        let gen = self.gen;
        let salt = gen.warm.map_or(0, |(_, salt)| salt);
        let skeleton = on_skeleton.then(|| {
            let rung = &self.rungs[&cap];
            (&rung.skeleton.problem, rung.fingerprint)
        });
        let key = memo_key(problem, skeleton, gen.opts, self.copies, limit, salt);
        let hit = match self.memo.get(&key) {
            Some(v) => Some(v.replay(problem)),
            None => gen.warm.and_then(|(w, _)| w.replay(key, problem)),
        };
        if let Some(hit) = hit {
            xdata_obs::counter("core.solve_memo.hit", 1);
            return Ok(hit);
        }
        xdata_obs::counter("core.solve_memo.miss", 1);
        let out = match gen.oracle {
            Some(oracle) => oracle(problem, limit, cancel),
            // The incremental road: only this target's delta constraints
            // are lowered; the engine arrives warm with everything learned
            // from the lane's earlier targets. Sessions run only without an
            // input database, so the target was built on the rung.
            None if sessions_enabled(gen.opts) => {
                let Rung { skeleton, session, .. } =
                    self.rungs.get_mut(&cap).expect("target built on the rung");
                session
                    .get_or_insert_with(|| SolveSession::new(&skeleton.problem))
                    .solve_delta(problem, limit, cancel)
            }
            None => problem.solve_cancel(gen.opts.mode, limit, cancel),
        };
        if !matches!(out, SolveOutcome::Cancelled) {
            self.memo.insert(key, MemoOutcome::capture(&out));
        }
        Ok(out)
    }

    fn solve_once(
        &mut self,
        label: &str,
        cancel: &CancelToken,
        f: &dyn Fn(&mut ConstraintBuilder<'_>) -> Result<(), GenError>,
        use_input: bool,
    ) -> Result<ItemOutcome, GenError> {
        let gen = self.gen;
        // Iterative deepening over the repair-slot capacity: most targets
        // need at most one repair tuple per relation, so small tuple arrays
        // are tried first (exponentially smaller search); only an UNSAT at
        // full capacity means "no such dataset" (equivalent mutants).
        for cap in crate::builder::REPAIR_LADDER {
            // Between rungs is the natural bail-out point: skeleton cloning
            // and constraint building are wasted work once the token trips.
            if cancel.is_cancelled() {
                return Ok(ItemOutcome::Skipped(SkipReason::Timeout));
            }
            let b = if use_input {
                // Input constraints must precede gen_db_constraints (they
                // mark pinned relations whose enumerated domain constraints
                // are then skipped), so this path builds fresh.
                let mut b = ConstraintBuilder::with_repair_cap(
                    gen.schema,
                    gen.query,
                    gen.domains,
                    self.copies,
                    cap,
                )?;
                f(&mut b)?;
                if let Some(input) = &gen.opts.input_db {
                    b.gen_input_db_constraints(input)?;
                }
                b.gen_db_constraints();
                b
            } else {
                let mut b = self.skeleton(cap)?;
                f(&mut b)?;
                b
            };
            let limit = if use_input {
                gen.opts.decision_limit.min(500_000)
            } else {
                gen.opts.decision_limit
            };
            match self.solve_memoized(&b.problem, !use_input, cap, limit, cancel)? {
                SolveOutcome::Sat(model) => {
                    let dataset = materialize(&b, &model, label);
                    let label = label.to_string();
                    return Ok(ItemOutcome::Dataset(GeneratedDataset { dataset, label }));
                }
                SolveOutcome::Unsat => {
                    // Widen and retry: the UNSAT may be a capacity artifact.
                }
                SolveOutcome::Unknown => return Ok(ItemOutcome::Skipped(SkipReason::Budget)),
                SolveOutcome::Cancelled => return Ok(ItemOutcome::Skipped(SkipReason::Timeout)),
            }
        }
        // UNSAT at full capacity: no such dataset.
        Ok(ItemOutcome::Skipped(SkipReason::Equivalent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{FaultPlan, SkipReason};
    use xdata_catalog::university;
    use xdata_relalg::normalize;
    use xdata_sql::parse_query;

    fn gen(sql: &str, fks: usize) -> (NormQuery, Schema, TestSuite) {
        let schema = university::schema_with_fk_count(fks);
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let suite = generate(&q, &schema, &domains, &GenOptions::default()).unwrap();
        (q, schema, suite)
    }

    #[test]
    fn all_generated_datasets_are_legal_instances() {
        let (_, schema, suite) = gen(
            "SELECT * FROM instructor i, teaches t, course c \
             WHERE i.id = t.id AND t.course_id = c.course_id",
            2,
        );
        assert!(!suite.datasets.is_empty());
        for d in &suite.datasets {
            let errs = d.dataset.integrity_violations(&schema);
            assert!(errs.is_empty(), "dataset `{}` violations: {errs:?}", d.label);
        }
    }

    #[test]
    fn no_fk_single_join_two_nullification_datasets() {
        let (_, _, suite) = gen("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", 0);
        // original + nullify instructor.id + nullify teaches.id.
        assert_eq!(suite.datasets.len(), 3, "{suite}");
        assert!(suite.skipped.is_empty());
    }

    #[test]
    fn fk_makes_one_direction_equivalent() {
        let (_, _, suite) = gen("SELECT * FROM instructor i, teaches t WHERE i.id = t.id", 1);
        // The FK teaches.id → instructor.id makes "nullify instructor.id"
        // infeasible (Example 2): one dataset fewer, one skip recorded.
        assert_eq!(suite.datasets.len(), 2, "{suite}");
        assert_eq!(suite.skipped.len(), 1);
        // The FK pulls t.id into the nullified set S together with i.id,
        // leaving P empty — Algorithm 2's special-cased equivalence.
        assert!(suite.skipped[0].label.contains("i.id"), "{:?}", suite.skipped);
        assert_eq!(suite.skipped[0].reason, SkipReason::EmptyP);
    }

    #[test]
    fn datasets_are_small() {
        let (_, _, suite) = gen(
            "SELECT * FROM instructor i, teaches t, course c \
             WHERE i.id = t.id AND t.course_id = c.course_id",
            2,
        );
        assert!(suite.max_dataset_size() <= 12, "datasets stay small: {suite}");
    }

    #[test]
    fn original_dataset_gives_nonempty_result() {
        let (q, schema, suite) = gen(
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000",
            1,
        );
        let original = &suite.datasets[0];
        assert!(original.label.contains("original"));
        let r = xdata_engine::execute_query(&q, &original.dataset, &schema).unwrap();
        assert!(!r.is_empty(), "original-query dataset must produce rows:\n{}", original.dataset);
    }

    #[test]
    fn selection_killers_generated() {
        let (_, _, suite) = gen("SELECT * FROM instructor WHERE salary > 50000", 0);
        // original + 1 predicate-nullification + 3 comparison datasets.
        let labels: Vec<&str> = suite.datasets.iter().map(|d| d.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.contains("nullify")), "{labels:?}");
        assert_eq!(
            labels.iter().filter(|l| l.contains("comparison")).count(),
            3,
            "{labels:?}"
        );
    }

    #[test]
    fn string_selection_generates() {
        let (q, schema, suite) = gen("SELECT * FROM instructor WHERE name = 'Wu'", 0);
        for d in &suite.datasets {
            assert!(d.dataset.integrity_violations(&schema).is_empty());
        }
        // The `=` comparison dataset must make the predicate true.
        let eq_ds = suite
            .datasets
            .iter()
            .find(|d| d.label.contains("`=`"))
            .expect("eq dataset");
        let r = xdata_engine::execute_query(&q, &eq_ds.dataset, &schema).unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn aggregate_dataset_has_three_tuples_per_group() {
        let (q, schema, suite) =
            gen("SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id", 0);
        let agg_ds = suite
            .datasets
            .iter()
            .find(|d| d.label.contains("aggregate"))
            .expect("aggregate dataset");
        let tuples = agg_ds.dataset.relation("instructor").unwrap();
        assert!(tuples.len() >= 3, "{}", agg_ds.dataset);
        // Two equal salaries, one different, same dept (S1/S2).
        let r = xdata_engine::execute_query(&q, &agg_ds.dataset, &schema).unwrap();
        assert!(!r.is_empty());
        let mut sal: Vec<i64> = tuples.iter().filter_map(|t| t[3].as_i64()).collect();
        sal.sort_unstable();
        assert!(sal.windows(2).any(|w| w[0] == w[1]), "duplicate pair: {sal:?}");
        assert!(sal.windows(2).any(|w| w[0] != w[1]), "distinct value: {sal:?}");
    }

    #[test]
    fn aggregate_values_separate_count_from_extrema() {
        // The strong-positivity constraint (A ≥ 4) keeps COUNT = 3 out of
        // the value range, so MIN/MAX/SUM/AVG mutants of each other and of
        // COUNT are all distinguished by value, not by luck.
        for agg in ["MAX", "MIN", "SUM", "AVG"] {
            let (q, schema, suite) = gen(
                &format!("SELECT dept_id, {agg}(salary) FROM instructor GROUP BY dept_id"),
                0,
            );
            let space = xdata_relalg::mutation::mutation_space(
                &q,
                xdata_relalg::mutation::MutationOptions::default(),
            );
            let report =
                xdata_engine::kill::kill_report(&q, &space, &suite.data(), &schema).unwrap();
            let mutants: Vec<_> = space.iter().collect();
            let surviving: Vec<String> = report
                .surviving()
                .map(|i| mutants[i].describe(&q))
                .filter(|d| d.contains("aggregate"))
                .collect();
            assert!(surviving.is_empty(), "{agg}: surviving {surviving:?}\n{suite}");
        }
    }

    #[test]
    fn aggregate_on_unique_key_relaxes_s1() {
        // Aggregating the primary key itself: duplicates are impossible,
        // S1 must be dropped but a dataset still generated.
        let (_, _, suite) = gen("SELECT dept_id, COUNT(id) FROM instructor GROUP BY dept_id", 0);
        assert!(
            suite.datasets.iter().any(|d| d.label.contains("aggregate")),
            "{suite}"
        );
    }

    #[test]
    fn nonequi_join_generates_nullifications_both_sides() {
        let (_, _, suite) = gen(
            "SELECT * FROM teaches b, course c WHERE b.course_id = c.course_id + 10",
            0,
        );
        let nulls: Vec<&str> = suite
            .datasets
            .iter()
            .map(|d| d.label.as_str())
            .filter(|l| l.contains("nullify"))
            .collect();
        assert_eq!(nulls.len(), 2, "{nulls:?}");
    }

    #[test]
    fn disjoint_offset_ranges_widen_to_meet() {
        // salary and year share the default range [0, 1000], which
        // `year + 5000` leaves: no row could satisfy `=` or `>` without
        // widening.
        let (q, schema, suite) =
            gen("SELECT * FROM instructor i, teaches t WHERE i.salary = t.year + 5000", 0);
        for label in ["original query (non-empty result)", "dataset with `=`", "dataset with `>`"] {
            assert!(suite.datasets.iter().any(|d| d.label.ends_with(label)), "{label}:\n{suite}");
        }
        let original = &suite.datasets[0];
        let r = xdata_engine::execute_query(&q, &original.dataset, &schema).unwrap();
        assert!(!r.is_empty(), "{}", original.dataset);
    }

    #[test]
    fn input_db_mode_uses_input_values() {
        let schema = university::schema_with_fk_count(0);
        let q = normalize(
            &parse_query("SELECT * FROM instructor i, teaches t WHERE i.id = t.id").unwrap(),
            &schema,
        )
        .unwrap();
        let input = university::sample_data(5);
        let domains = DomainCatalog::from_dataset(&schema, &input);
        let opts = GenOptions { input_db: Some(input.clone()), ..GenOptions::default() };
        let suite = generate(&q, &schema, &domains, &opts).unwrap();
        // The original-query dataset must consist of input tuples.
        let orig = &suite.datasets[0];
        for t in orig.dataset.relation("instructor").unwrap() {
            assert!(
                input.relation("instructor").unwrap().contains(t),
                "tuple {t:?} not from input db"
            );
        }
    }

    #[test]
    fn cross_dictionary_string_join_generates_satisfying_data() {
        // department.dept_name and section.building use different default
        // dictionaries; an equi-join between them must still produce a
        // dataset with a real (string-level) match.
        let (q, schema, suite) = gen(
            "SELECT * FROM department d, section s WHERE d.dept_name = s.building",
            0,
        );
        let orig = &suite.datasets[0];
        let r = xdata_engine::execute_query(&q, &orig.dataset, &schema).unwrap();
        assert!(!r.is_empty(), "cross-dictionary join unsatisfied:\n{}", orig.dataset);
        // The joined strings really are equal.
        let dep = orig.dataset.relation("department").unwrap();
        let sec = orig.dataset.relation("section").unwrap();
        assert!(dep.iter().any(|d| sec.iter().any(|s| d[1] == s[3])));
    }

    #[test]
    fn nullable_fk_enables_nullification() {
        // §V-H: with a *nullable* FK teaches.id → instructor.id, nullifying
        // instructor.id becomes possible — the teaches tuple takes NULL.
        let ddl = "CREATE TABLE instructor (id INT PRIMARY KEY, salary INT);
                   CREATE TABLE teaches (tid INT PRIMARY KEY, id INT NULL,
                       FOREIGN KEY (id) REFERENCES instructor (id));";
        let schema = xdata_sql::parse_schema(ddl).unwrap();
        assert!(schema.relation("teaches").unwrap().attr(1).nullable);
        let q = normalize(
            &parse_query("SELECT * FROM instructor i, teaches t WHERE i.id = t.id").unwrap(),
            &schema,
        )
        .unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let suite = generate(&q, &schema, &domains, &GenOptions::default()).unwrap();
        // Unlike the non-nullable case, nothing is skipped: both directions
        // of nullification succeed.
        assert!(suite.skipped.is_empty(), "{suite}");
        // Some dataset has a teaches row with NULL id.
        let has_null_fk = suite.datasets.iter().any(|d| {
            d.dataset
                .relation("teaches")
                .unwrap_or(&[])
                .iter()
                .any(|t| t[1].is_null())
        });
        assert!(has_null_fk, "expected a NULL foreign key value:\n{suite}");
        // And every dataset is still a legal instance.
        for d in &suite.datasets {
            let errs = d.dataset.integrity_violations(&schema);
            assert!(errs.is_empty(), "{}: {errs:?}", d.label);
        }
    }

    #[test]
    fn non_nullable_fk_still_skips() {
        let ddl = "CREATE TABLE instructor (id INT PRIMARY KEY, salary INT);
                   CREATE TABLE teaches (tid INT PRIMARY KEY, id INT,
                       FOREIGN KEY (id) REFERENCES instructor (id));";
        let schema = xdata_sql::parse_schema(ddl).unwrap();
        assert!(!schema.relation("teaches").unwrap().attr(1).nullable);
        let q = normalize(
            &parse_query("SELECT * FROM instructor i, teaches t WHERE i.id = t.id").unwrap(),
            &schema,
        )
        .unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let suite = generate(&q, &schema, &domains, &GenOptions::default()).unwrap();
        assert_eq!(suite.skipped.len(), 1, "{suite}");
    }

    #[test]
    fn lazy_mode_generates_same_suite_shape() {
        let schema = university::schema_with_fk_count(1);
        let q = normalize(
            &parse_query("SELECT * FROM instructor i, teaches t WHERE i.id = t.id").unwrap(),
            &schema,
        )
        .unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let fast = generate(&q, &schema, &domains, &GenOptions::default()).unwrap();
        let slow = generate(
            &q,
            &schema,
            &domains,
            &GenOptions { mode: xdata_solver::Mode::Lazy, ..GenOptions::default() },
        )
        .unwrap();
        assert_eq!(fast.datasets.len(), slow.datasets.len());
        assert_eq!(fast.skipped.len(), slow.skipped.len());
    }

    #[test]
    fn budget_exhaustion_reports_skip_with_reason() {
        // A decision budget of 0 lets only propagation-solvable targets
        // through; everything needing a single decision must surface as a
        // Budget skip — visibly, not silently dropped.
        let schema = university::schema_with_fk_count(2);
        let q = normalize(
            &parse_query(
                "SELECT * FROM instructor i, teaches t, course c \
                 WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 50000",
            )
            .unwrap(),
            &schema,
        )
        .unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let full = generate(&q, &schema, &domains, &GenOptions::default()).unwrap();
        let opts = GenOptions { decision_limit: 0, ..GenOptions::default() };
        let starved = generate(&q, &schema, &domains, &opts).unwrap();
        // Same plan, every target accounted for in datasets + skips.
        assert_eq!(
            full.datasets.len() + full.skipped.len(),
            starved.datasets.len() + starved.skipped.len(),
        );
        let budget_skips: Vec<&SkippedTarget> = starved
            .skipped
            .iter()
            .filter(|s| s.reason == SkipReason::Budget)
            .collect();
        assert!(!budget_skips.is_empty(), "expected budget skips:\n{starved}");
        for s in &budget_skips {
            assert!(!s.label.is_empty());
        }
        // The skip carries a human-readable reason.
        assert!(format!("{}", budget_skips[0].reason).contains("budget"));
    }

    #[test]
    fn comparison_with_original_op_reuses_original_model() {
        // `salary > 50000` with forced op `>` builds the byte-identical
        // constraint sequence as the original-query target; the solve memo
        // must hand back the same model instead of solving again.
        xdata_obs::install();
        let (_, _, suite) = gen("SELECT * FROM instructor WHERE salary > 50000", 0);
        let report = xdata_obs::take_report().expect("recorder installed");
        let orig = &suite.datasets[0];
        assert!(orig.label.contains("original"));
        let gt = suite
            .datasets
            .iter()
            .find(|d| d.label.contains("comparison") && d.label.contains("`>`"))
            .expect("gt comparison dataset");
        // Same tuples (the datasets differ only in their stamped label).
        assert_eq!(
            orig.dataset.relation("instructor"),
            gt.dataset.relation("instructor"),
        );
        assert_eq!(report.counter("core.solve_memo.hit"), 1);
    }

    #[test]
    fn building_a_session_looks_up_no_skeleton() {
        // The running example (examples/university.sql): its 7 solve
        // targets look a skeleton up once per rung they try, 2 misses and
        // 5 hits. Unfold mode also builds a session on each of its 2
        // rungs, from the rung's own skeleton, so it counts what lazy mode
        // (no sessions) counts.
        let ddl = "CREATE TABLE instructor (id INT PRIMARY KEY, name VARCHAR, dept_id INT,
                       salary INT);
                   CREATE TABLE teaches (id INT, course_id INT, sec_id INT, year INT,
                       FOREIGN KEY (id) REFERENCES instructor (id));";
        let schema = xdata_sql::parse_schema(ddl).unwrap();
        let q = normalize(&parse_query(CHAOS_SQL).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);
        for mode in [Mode::Unfold, Mode::Lazy] {
            xdata_obs::install();
            let opts = GenOptions { mode, ..GenOptions::default() };
            let suite = generate(&q, &schema, &domains, &opts).unwrap();
            let report = xdata_obs::take_report().expect("recorder installed");
            assert_eq!(suite.datasets.len(), 7, "{mode:?}: {suite}");
            assert_eq!(report.counter("core.skeleton_cache.miss"), 2, "{mode:?}");
            assert_eq!(report.counter("core.skeleton_cache.hit"), 5, "{mode:?}");
        }
    }

    #[test]
    fn parallel_jobs_reproduce_sequential_suite() {
        let schema = university::schema_with_fk_count(2);
        let q = normalize(
            &parse_query(
                "SELECT * FROM instructor i, teaches t, course c \
                 WHERE i.id = t.id AND t.course_id = c.course_id AND i.salary > 50000",
            )
            .unwrap(),
            &schema,
        )
        .unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let seq = generate(&q, &schema, &domains, &GenOptions::default()).unwrap();
        for jobs in [0, 2, 8] {
            let par = generate(
                &q,
                &schema,
                &domains,
                &GenOptions { jobs, ..GenOptions::default() },
            )
            .unwrap();
            assert_eq!(seq.datasets.len(), par.datasets.len(), "jobs={jobs}");
            for (a, b) in seq.datasets.iter().zip(&par.datasets) {
                assert_eq!(a.label, b.label, "jobs={jobs}");
                assert_eq!(a.dataset, b.dataset, "jobs={jobs}, target {}", a.label);
            }
            let skips =
                |s: &TestSuite| s.skipped.iter().map(|k| k.label.clone()).collect::<Vec<_>>();
            assert_eq!(skips(&seq), skips(&par), "jobs={jobs}");
        }
    }

    // ----- Cancellation & chaos unit tests --------------------------------

    fn gen_with(sql: &str, opts: &GenOptions) -> TestSuite {
        let schema = university::schema();
        let q = normalize(&parse_query(sql).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);
        generate(&q, &schema, &domains, opts).unwrap()
    }

    const CHAOS_SQL: &str =
        "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000";

    #[test]
    fn injected_panic_becomes_fault_skip() {
        let opts = GenOptions {
            faults: FaultPlan { panic_targets: vec!["original".into()], ..FaultPlan::default() },
            ..GenOptions::default()
        };
        let suite = gen_with(CHAOS_SQL, &opts);
        let fault = suite
            .skipped
            .iter()
            .find(|s| matches!(s.reason, SkipReason::Fault { .. }))
            .expect("panic target skipped as Fault");
        assert!(fault.label.contains("original"));
        match &fault.reason {
            SkipReason::Fault { message } => assert!(message.contains("injected panic")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(suite.is_partial());
        // Only the faulted target is missing; the rest solved.
        assert!(!suite.datasets.is_empty());
    }

    #[test]
    fn injected_unknown_becomes_budget_skip() {
        let opts = GenOptions {
            faults: FaultPlan {
                unknown_targets: vec!["dataset with `>`".into()],
                ..FaultPlan::default()
            },
            ..GenOptions::default()
        };
        let suite = gen_with(CHAOS_SQL, &opts);
        let hit = suite
            .skipped
            .iter()
            .find(|s| s.label.contains("dataset with `>`"))
            .expect("unknown target skipped");
        assert_eq!(hit.reason, SkipReason::Budget);
        assert!(suite.is_partial());
    }

    #[test]
    fn injected_expiry_becomes_timeout_skip_and_stays_local() {
        let opts = GenOptions {
            faults: FaultPlan {
                expire_targets: vec!["dataset with `=`".into()],
                ..FaultPlan::default()
            },
            ..GenOptions::default()
        };
        let suite = gen_with(CHAOS_SQL, &opts);
        let hit = suite
            .skipped
            .iter()
            .find(|s| s.label.contains("dataset with `=`"))
            .expect("expire target skipped");
        assert_eq!(hit.reason, SkipReason::Timeout);
        // The synthetic expiry cancelled a *child* token: the sibling
        // comparison targets still solved.
        assert!(suite.datasets.iter().any(|d| d.label.contains("dataset with `<`")));
        assert!(suite.datasets.iter().any(|d| d.label.contains("dataset with `>`")));
    }

    #[test]
    fn zero_per_target_deadline_times_out_everything() {
        let opts = GenOptions { per_target_deadline_ms: Some(0), ..GenOptions::default() };
        let suite = gen_with(CHAOS_SQL, &opts);
        assert!(suite.datasets.is_empty());
        assert!(suite.is_partial());
        // Every *solvable* target timed out; plan-time skips (EmptyP etc.)
        // keep their own reasons.
        assert!(suite.skipped.iter().any(|s| s.reason == SkipReason::Timeout));
        for s in &suite.skipped {
            assert!(
                matches!(
                    s.reason,
                    SkipReason::Timeout | SkipReason::EmptyP | SkipReason::Equivalent
                ),
                "unexpected reason for {}: {:?}",
                s.label,
                s.reason
            );
        }
    }

    #[test]
    fn pre_cancelled_suite_token_times_out_all_targets() {
        let schema = university::schema();
        let q = normalize(&parse_query(CHAOS_SQL).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let token = CancelToken::new();
        token.cancel();
        let opts = GenOptions::default();
        let suite = generate_cancellable(&q, &schema, &domains, &opts, &token, None).unwrap();
        assert!(suite.datasets.is_empty());
        assert!(suite.skipped.iter().any(|s| s.reason == SkipReason::Timeout));
    }

    #[test]
    fn generous_deadlines_change_nothing() {
        let plain = gen_with(CHAOS_SQL, &GenOptions::default());
        let timed = gen_with(
            CHAOS_SQL,
            &GenOptions {
                deadline_ms: Some(3_600_000),
                per_target_deadline_ms: Some(3_600_000),
                ..GenOptions::default()
            },
        );
        assert_eq!(plain.datasets.len(), timed.datasets.len());
        for (a, b) in plain.datasets.iter().zip(&timed.datasets) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.dataset, b.dataset);
        }
        assert!(!timed.is_partial());
    }
}
