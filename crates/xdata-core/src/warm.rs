//! Cross-request warm state: the solve memo, lifted out of a single
//! [`generate`](crate::generate::generate) call so a long-running process
//! (the `xdata serve` daemon) can replay solves across requests.
//!
//! Every generation run solves its targets in *lanes*, one per skeleton
//! class, and each lane owns its skeleton cache, its incremental
//! [`SolveSession`](xdata_solver::SolveSession)s and a lane-local memo
//! map. A batch run drops all of that when it returns. A warm run does
//! too, except for one thing: [`WarmCache`], a map from a 128-bit
//! structural problem key (context salt, mode, skeleton class, budget,
//! then the skeleton's fingerprint and the constraints the target adds to
//! it, or the array specs and every constraint of a problem built without
//! a skeleton) to the verdict and model values. Entries are owned data, so
//! they outlive the query/schema/domain borrows of the request that
//! produced them.
//!
//! A warm lane looks a key up in its own map first, then in the cache.
//! When it finishes without a `Timeout` skip it copies the entries it
//! computed into the cache; a lane that timed out commits nothing.
//!
//! ## Tenant namespaces and the context salt
//!
//! Every key is prefixed with a **context salt** (`context_salt`): a hash
//! of the tenant namespace plus — when incremental sessions are active —
//! the query's structural fingerprint, the decision budget and the fault
//! plan. The salt is what makes cross-request reuse *sound*:
//!
//! * fresh (non-session) solves are pure functions of the problem, so any
//!   two requests of one tenant may share their outcomes — the salt is the
//!   namespace alone, and cross-query hits are allowed;
//! * session solves depend on the session's history (learned clauses carry
//!   over between targets), which is pinned to plan order *per query*. Two
//!   different queries — or the same query under a different budget or
//!   fault plan — would have different histories, so their salts differ
//!   and they never share memo entries.
//!
//! Tenants never share anything: a namespace mismatch changes every key.
//!
//! ## Why warm output equals cold output
//!
//! Fresh solves are pure, so any hit replays exactly what a solve would
//! return. Session solves are not: they depend on the lane's history.
//! With sessions on, the salt pins the query, budget and fault plan, so
//! within one salt a lane always poses the same keys in the same order,
//! and the skeleton class is hashed into every key, so no key recurs
//! outside its lane. A lane's entries therefore reach the cache all at
//! once or not at all, and a warm lane finds none of them or all of them.
//! With none it solves on a fresh session exactly as a cold run would;
//! with all it never builds a session. If a concurrent run commits the
//! lane's entries while it is running, every later lookup is a hit and
//! returns what the lane would have computed. So for runs whose deadlines
//! never fire, a warm request's output is byte-identical to a cold
//! in-process run with the same arguments, whatever ran before or beside
//! it — without any lock held across a run.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

use xdata_relalg::fingerprint::structural_hash;
use xdata_relalg::NormQuery;
use xdata_solver::{Mode, Model, Problem, SolveOutcome};

use crate::suite::GenOptions;

/// [`SolveOutcome`] with the model flattened to raw values so it can be
/// stored and replayed against any structurally identical problem.
#[derive(Clone)]
pub(crate) enum MemoOutcome {
    Sat(Vec<i64>),
    Unsat,
    Unknown,
}

impl MemoOutcome {
    pub(crate) fn capture(out: &SolveOutcome) -> MemoOutcome {
        match out {
            SolveOutcome::Sat(m) => MemoOutcome::Sat(m.values().to_vec()),
            SolveOutcome::Unsat => MemoOutcome::Unsat,
            SolveOutcome::Unknown => MemoOutcome::Unknown,
            // `solve_memoized` filters Cancelled before capturing: a
            // withdrawn time budget is not a verdict and must not be reused.
            SolveOutcome::Cancelled => unreachable!("Cancelled outcomes are never memoized"),
        }
    }

    /// The stored verdict against `problem`, which must be structurally
    /// identical to the one that produced it.
    pub(crate) fn replay(&self, problem: &Problem) -> SolveOutcome {
        match self {
            MemoOutcome::Sat(values) => {
                SolveOutcome::Sat(Model::from_values(values.clone(), problem.var_table()))
            }
            MemoOutcome::Unsat => SolveOutcome::Unsat,
            MemoOutcome::Unknown => SolveOutcome::Unknown,
        }
    }
}

/// 128-bit content key of `value`: two independently seeded 64-bit hashes,
/// so an accidental collision needs both halves to collide. The solve memo
/// and the daemon's schema-script cache key their entries with it.
pub fn content_key<T: Hash + ?Sized>(value: &T) -> (u64, u64) {
    use std::collections::hash_map::DefaultHasher;
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    0xA5A5_5A5A_u64.hash(&mut h2);
    value.hash(&mut h1);
    value.hash(&mut h2);
    (h1.finish(), h2.finish())
}

/// The fingerprint of a lane skeleton: the [`content_key`] of its array
/// specs and ordered constraints. A lane takes it once, when it builds the
/// skeleton, and [`memo_key`] stands it in for the skeleton's part of every
/// target built on it.
pub(crate) fn skeleton_key(skeleton: &Problem) -> (u64, u64) {
    content_key(&(skeleton.specs(), skeleton.constraints()))
}

/// Structural 128-bit key of a solve call: the [`content_key`] of (context
/// salt, mode, skeleton class, budget, problem). A problem built on a lane
/// skeleton — `skeleton` is that skeleton's problem and [`skeleton_key`] —
/// is hashed as the fingerprint plus the constraints past the skeleton's
/// prefix, so a solve hashes only what its target adds. A problem built
/// without one (the input-database attempt) is hashed as its array specs
/// and every constraint. Equal problems get equal keys either way: a
/// target declares no array and only appends constraints, so two targets
/// on equal skeletons are equal exactly when their deltas are.
///
/// The constraint *order* is hashed deliberately — assertion order steers
/// the search, so only byte-identical problems may share an outcome.
/// `copies` is the lane's skeleton class, which keeps every key inside one
/// lane. `salt` is `0` for a batch run and [`context_salt`] for a warm one
/// (tenant namespace + session context).
pub(crate) fn memo_key(
    problem: &Problem,
    skeleton: Option<(&Problem, (u64, u64))>,
    opts: &GenOptions,
    copies: u32,
    limit: u64,
    salt: u64,
) -> (u64, u64) {
    let head = (salt, opts.mode, copies, limit);
    match skeleton {
        Some((base, fingerprint)) => {
            let prefix = base.constraints().len();
            debug_assert!(
                problem.specs() == base.specs() && problem.constraints().len() >= prefix,
                "a target problem must extend its skeleton"
            );
            content_key(&(head, fingerprint, &problem.constraints()[prefix..]))
        }
        None => content_key(&(head, problem.specs(), problem.constraints())),
    }
}

/// Whether `opts` routes eligible solves through incremental sessions.
/// Sessions need unfold mode (the skeleton must be ground to lower once)
/// and no input database (input constraints precede the skeleton, so no
/// shared prefix exists).
pub(crate) fn sessions_enabled(opts: &GenOptions) -> bool {
    opts.mode == Mode::Unfold && opts.input_db.is_none()
}

/// The warm-state context salt for one `(namespace, query, options)`
/// combination — see the module docs for why each ingredient is there.
pub(crate) fn context_salt(namespace: &str, query: &NormQuery, opts: &GenOptions) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    let mut h = DefaultHasher::new();
    0x5EED_5A17_u64.hash(&mut h);
    namespace.hash(&mut h);
    if sessions_enabled(opts) {
        // Session histories are per-query and per-budget/fault-plan; fresh
        // solves are pure, so the salt stays namespace-only for them and
        // cross-query sharing is allowed.
        1u8.hash(&mut h);
        structural_hash(query).hash(&mut h);
        opts.decision_limit.hash(&mut h);
        opts.faults.panic_targets.hash(&mut h);
        opts.faults.unknown_targets.hash(&mut h);
        opts.faults.expire_targets.hash(&mut h);
    } else {
        0u8.hash(&mut h);
    }
    h.finish()
}

/// Process-long warm state shared across requests and tenants: the solve
/// memo, behind one mutex that is held only for a lookup or a commit — see
/// the module docs.
#[derive(Default)]
pub struct WarmCache {
    memo: Mutex<HashMap<(u64, u64), MemoOutcome>>,
}

impl WarmCache {
    pub fn new() -> WarmCache {
        WarmCache::default()
    }

    /// Memoized solve outcomes currently held (the `serve.warm.memo_entries`
    /// gauge).
    pub fn len(&self) -> usize {
        self.map().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// The stored outcome for `key`, replayed against `problem`.
    pub(crate) fn replay(&self, key: (u64, u64), problem: &Problem) -> Option<SolveOutcome> {
        self.map().get(&key).map(|v| v.replay(problem))
    }

    /// Add a finished lane's entries.
    pub(crate) fn commit(&self, entries: HashMap<(u64, u64), MemoOutcome>) {
        if !entries.is_empty() {
            self.map().extend(entries);
        }
    }

    /// Poison-tolerant: the map is only ever changed by whole-entry
    /// inserts, so a panic on another thread cannot leave it torn.
    fn map(&self) -> MutexGuard<'_, HashMap<(u64, u64), MemoOutcome>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salt_separates_tenants_and_session_contexts() {
        let schema = xdata_catalog::university::schema();
        let ast = xdata_sql::parse_query(
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        )
        .unwrap();
        let q = xdata_relalg::normalize(&ast, &schema).unwrap();
        let opts = GenOptions::default();
        assert!(sessions_enabled(&opts));
        let a = context_salt("tenant-a", &q, &opts);
        let b = context_salt("tenant-b", &q, &opts);
        assert_ne!(a, b, "tenants must never share warm keys");
        assert_eq!(a, context_salt("tenant-a", &q, &opts), "salt is deterministic");
        let mut budget = opts.clone();
        budget.decision_limit = 7;
        assert_ne!(
            a,
            context_salt("tenant-a", &q, &budget),
            "a different budget is a different session history"
        );
        let fresh = GenOptions { mode: Mode::Lazy, ..GenOptions::default() };
        let fa = context_salt("tenant-a", &q, &fresh);
        let ast2 = xdata_sql::parse_query(
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 1",
        )
        .unwrap();
        let q2 = xdata_relalg::normalize(&ast2, &schema).unwrap();
        assert_eq!(
            fa,
            context_salt("tenant-a", &q2, &fresh),
            "fresh solves are pure per problem: cross-query sharing is allowed"
        );
    }

    /// Two arrays and three skeleton constraints; `first` is the bound of
    /// the first one.
    fn skeleton_problem(first: i64) -> Problem {
        use xdata_solver::{Formula, RelOp, Term};
        let mut p = Problem::new();
        let r = p.add_array("r", 2, 2);
        let s = p.add_array("s", 1, 1);
        p.assert(Formula::atom(Term::field(r, 0, 0), RelOp::Ge, Term::Const(first)));
        p.assert(Formula::atom(Term::field(r, 1, 1), RelOp::Le, Term::Const(9)));
        p.assert(Formula::atom(Term::field(s, 0, 0), RelOp::Ne, Term::field(r, 0, 1)));
        p
    }

    /// `base` with the delta constraints `r[0].f0 = k` for each `k`.
    fn extend(base: &Problem, deltas: &[i64]) -> Problem {
        use xdata_solver::{ArrayId, Formula, RelOp, Term};
        let mut p = base.clone();
        for &k in deltas {
            p.assert(Formula::atom(Term::field(ArrayId(0), 0, 0), RelOp::Eq, Term::Const(k)));
        }
        p
    }

    /// A target on a skeleton is keyed by the skeleton's fingerprint and
    /// its own delta; a problem without one by its specs and every
    /// constraint. Either way the key follows the problem's content.
    #[test]
    fn memo_key_hashes_skeleton_fingerprint_and_delta() {
        let opts = GenOptions::default();
        let base = skeleton_problem(0);
        let on = |skeleton: &Problem, p: &Problem| {
            memo_key(p, Some((skeleton, skeleton_key(skeleton))), &opts, 1, 100, 0)
        };
        let target = extend(&base, &[3, 4]);
        assert_eq!(
            on(&base, &target),
            on(&base, &extend(&base, &[3, 4])),
            "equal deltas on one skeleton share a key"
        );
        assert_eq!(
            on(&base, &target),
            on(&base.clone(), &target),
            "the fingerprint follows content, not identity"
        );
        assert_ne!(on(&base, &target), on(&base, &extend(&base, &[4, 3])), "delta order counts");
        let other = skeleton_problem(1);
        assert_ne!(
            on(&base, &target),
            on(&other, &extend(&other, &[3, 4])),
            "a changed skeleton constraint changes the key"
        );

        // Without a skeleton the key covers specs and every constraint.
        let plain = |p: &Problem| memo_key(p, None, &opts, 1, 100, 0);
        assert_eq!(plain(&target), plain(&extend(&base, &[3, 4])));
        assert_ne!(plain(&target), plain(&extend(&other, &[3, 4])), "every constraint is keyed");
        let mut wider = Problem::new();
        wider.add_array("r", 3, 2);
        wider.add_array("s", 1, 1);
        for c in target.constraints() {
            wider.assert(c.clone());
        }
        assert_ne!(plain(&target), plain(&wider), "the array specs are keyed");
    }

    /// A daemon keeps one entry per solved target of every tenant, so an
    /// entry holds the verdict and model values and nothing else: solver
    /// counters go to the recorder, not into the cache.
    #[test]
    fn warm_entry_is_no_larger_than_its_model_values() {
        fn value_size<K, V>(_: &HashMap<K, V>) -> usize {
            std::mem::size_of::<V>()
        }
        let cache = WarmCache::new();
        let size = value_size(&cache.map());
        assert!(size <= std::mem::size_of::<Vec<i64>>(), "a warm entry's value is {size} bytes");
    }
}
