//! Cross-request warm state: the solve memo and incremental-session store,
//! lifted out of a single [`generate`](crate::generate::generate) call so a
//! long-running process (the `xdata serve` daemon) can keep them hot across
//! requests and tenants.
//!
//! A batch CLI invocation builds the memo and the per-shape
//! [`SolveSession`]s, uses them for one suite, and throws them away at
//! process exit. [`WarmCache`] is the same state with a process-long
//! lifetime:
//!
//! * the **solve memo** maps a 128-bit structural problem hash (mode,
//!   budget, array specs, ordered constraints) to its
//!   verdict, model values and solver stats. Entries are owned data, so
//!   they outlive the query/schema/domain borrows of the request that
//!   produced them;
//! * the **session store** keeps warm [`SolveSession`] engines (skeleton
//!   lowered once, learned clauses retained) keyed by the same context
//!   salt plus the `(copies, repair_cap)` skeleton shape.
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
//!   fault plan — would interleave different histories, so their salts
//!   differ and they never share memo entries or sessions.
//!
//! Tenants never share anything: a namespace mismatch changes every key.
//!
//! ## Concurrency: the per-salt run gate
//!
//! Two *concurrent* requests with the same salt would race their turn
//! gates on the shared sessions, interleaving target order and breaking
//! the byte-identical-to-cold contract. `WarmCache::lock_run` serializes
//! whole generation runs per salt (requests with different salts — other
//! tenants, other queries — run fully in parallel); the blocking solve
//! memo already serializes duplicate solves at the key level for
//! session-less runs. The warm determinism contract is therefore exactly
//! the batch one: for runs whose deadlines never fire, a warm request's
//! output is byte-identical to a cold in-process run with the same
//! arguments, whatever ran before it.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use xdata_relalg::fingerprint::structural_hash;
use xdata_relalg::NormQuery;
use xdata_solver::{Mode, Model, Problem, SolveOutcome, SolveSession, SolverStats};

use crate::suite::GenOptions;

/// Lock a mutex tolerating poison: the protected maps are only ever
/// mutated by whole-entry insert/remove, so a panic on another thread
/// cannot leave them in a torn state worth refusing to read.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cross-target memo over complete solve calls.
///
/// Keyed by a 128-bit structural hash of the problem; the first thread to
/// claim a key marks it [`MemoEntry::Pending`] and computes, concurrent
/// arrivals with the same key block on the condvar until the value lands.
/// This blocking dedup is what keeps `core.solve_memo.hit`/`.miss` — and
/// the reused [`SolverStats`] — schedule-independent: each distinct key
/// misses exactly once however many threads race on it.
#[derive(Default)]
pub(crate) struct SolveMemo {
    pub(crate) map: Mutex<HashMap<(u64, u64), MemoEntry>>,
    pub(crate) done: Condvar,
}

pub(crate) enum MemoEntry {
    Pending,
    Done(MemoValue),
}

#[derive(Clone)]
pub(crate) struct MemoValue {
    pub(crate) outcome: MemoOutcome,
    pub(crate) stats: SolverStats,
}

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

/// Drop guard owning a [`MemoEntry::Pending`] claim: unless defused with
/// [`std::mem::forget`], dropping it removes the claim and wakes every
/// thread waiting on the key. This is the memo's unwind safety — a panic
/// (or a `Cancelled` early return) in the computing thread releases the
/// key instead of leaving waiters parked forever on the condvar.
pub(crate) struct PendingGuard<'m> {
    pub(crate) memo: &'m SolveMemo,
    pub(crate) key: (u64, u64),
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut map = lock_ignore_poison(&self.memo.map);
        map.remove(&self.key);
        self.memo.done.notify_all();
    }
}

/// Structural 128-bit key of a solve call: two independently seeded 64-bit
/// hashes over (context salt, mode, budget, array specs, ordered
/// constraints). The constraint *order* is hashed deliberately — assertion
/// order steers the search, so only byte-identical problems may share an
/// outcome. `salt` is `0` for a batch run and [`context_salt`] for a warm
/// one (tenant namespace + session context).
pub(crate) fn memo_key(problem: &Problem, opts: &GenOptions, limit: u64, salt: u64) -> (u64, u64) {
    use std::collections::hash_map::DefaultHasher;
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    0xA5A5_5A5A_u64.hash(&mut h2);
    for h in [&mut h1, &mut h2] {
        salt.hash(h);
        opts.mode.hash(h);
        limit.hash(h);
        problem.specs().hash(h);
        problem.constraints().hash(h);
    }
    (h1.finish(), h2.finish())
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

/// Process-long warm state shared across requests and tenants — see the
/// module docs. `Sync` by construction: every map sits behind the same
/// Mutex+Condvar shapes the single-run pipeline already uses.
#[derive(Default)]
pub struct WarmCache {
    pub(crate) memo: SolveMemo,
    /// Warm incremental sessions keyed by (context salt, copies,
    /// repair_cap). Only populated by runs whose salt gate is held, so
    /// plain get/insert cannot race within a salt.
    sessions: Mutex<HashMap<(u64, u32, u32), Arc<SolveSession>>>,
    /// Salts with a generation run currently in flight (the per-salt run
    /// gate).
    running: Mutex<HashSet<u64>>,
    freed: Condvar,
}

impl WarmCache {
    pub fn new() -> WarmCache {
        WarmCache::default()
    }

    /// Resolved solve outcomes currently held (the `serve.warm.memo_entries`
    /// gauge). Pending claims of in-flight solves are not counted.
    pub fn memo_entries(&self) -> usize {
        lock_ignore_poison(&self.memo.map)
            .values()
            .filter(|e| matches!(e, MemoEntry::Done(_)))
            .count()
    }

    /// Warm incremental sessions currently held (the `serve.warm.sessions`
    /// gauge).
    pub fn session_count(&self) -> usize {
        lock_ignore_poison(&self.sessions).len()
    }

    /// Drop every memoized outcome and warm session (e.g. an operator
    /// bouncing a tenant's corpus). In-flight runs are unaffected beyond
    /// losing future hits: pending memo claims stay untouched.
    pub fn clear(&self) {
        lock_ignore_poison(&self.memo.map).retain(|_, e| matches!(e, MemoEntry::Pending));
        lock_ignore_poison(&self.sessions).clear();
    }

    pub(crate) fn session(&self, salt: u64, copies: u32, cap: u32) -> Option<Arc<SolveSession>> {
        lock_ignore_poison(&self.sessions).get(&(salt, copies, cap)).map(Arc::clone)
    }

    pub(crate) fn insert_session(
        &self,
        salt: u64,
        copies: u32,
        cap: u32,
        session: Arc<SolveSession>,
    ) {
        lock_ignore_poison(&self.sessions).insert((salt, copies, cap), session);
    }

    /// Serialize generation runs sharing `salt`: blocks until no other run
    /// with the same salt is in flight, then claims it. Runs with other
    /// salts (other tenants, other queries) proceed in parallel. The guard
    /// releases the salt on every exit path, panics included.
    pub(crate) fn lock_run(&self, salt: u64) -> RunGuard<'_> {
        let mut running = lock_ignore_poison(&self.running);
        while running.contains(&salt) {
            running = self
                .freed
                .wait(running)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        running.insert(salt);
        RunGuard { cache: self, salt }
    }
}

/// Drop guard releasing a [`WarmCache::lock_run`] claim.
pub(crate) struct RunGuard<'w> {
    cache: &'w WarmCache,
    salt: u64,
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        let mut running = lock_ignore_poison(&self.cache.running);
        running.remove(&self.salt);
        self.cache.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_gate_serializes_same_salt_only() {
        let cache = WarmCache::new();
        let g1 = cache.lock_run(7);
        // A different salt is claimable while 7 is held.
        let g2 = cache.lock_run(8);
        drop(g2);
        drop(g1);
        // Re-claimable after release.
        let _g3 = cache.lock_run(7);
    }

    #[test]
    fn clear_empties_resolved_state() {
        let cache = WarmCache::new();
        lock_ignore_poison(&cache.memo.map).insert(
            (1, 2),
            MemoEntry::Done(MemoValue {
                outcome: MemoOutcome::Unsat,
                stats: SolverStats::default(),
            }),
        );
        lock_ignore_poison(&cache.memo.map).insert((3, 4), MemoEntry::Pending);
        assert_eq!(cache.memo_entries(), 1, "pending claims are not entries");
        cache.clear();
        assert_eq!(cache.memo_entries(), 0);
        // The pending claim survives (its owner will resolve or drop it).
        assert_eq!(lock_ignore_poison(&cache.memo.map).len(), 1);
    }

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
}
