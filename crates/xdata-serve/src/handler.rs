//! Request handling: decode → options → warm pipeline → rendered output.
//!
//! Every handler reproduces the corresponding batch CLI path byte-for-byte
//! (the loopback tests assert it): `generate` renders the
//! [`TestSuite`] display, `evaluate` the listing of [`render_evaluate`]
//! (which the CLI itself calls), `grade_batch` the
//! [`BatchGradeReport::render`](xdata_core::BatchGradeReport::render)
//! text. The only serve-specific state is the [`WarmCache`] the suite
//! generation runs against, and warm state never changes output for
//! deadline-free runs (see `xdata_core::warm`).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use xdata_catalog::{Dataset, DomainCatalog, Schema};
use xdata_client::protocol::{
    ErrorCode, Payload, Request, RequestBody, Response, WireError, WireOptions, PROTOCOL_VERSION,
};
use xdata_core::kill::KillReport;
use xdata_core::{
    generate_warm, grade_batch_warm, FaultPlan, GenOptions, GradeError, TestSuite,
};
use xdata_solver::Mode;
use xdata_engine::JoinStrategy;
use xdata_par::CancelToken;
use xdata_relalg::mutation::{mutation_space, MutationOptions};
use xdata_relalg::{normalize, Mutant, MutationSpace, NormQuery};

use crate::{lock, Shared};

/// A parsed schema script, cached daemon-long by content hash.
pub(crate) struct ParsedScript {
    pub schema: Schema,
    pub data: Dataset,
}

/// Two-seed 128-bit content key for the schema-script cache — same shape
/// as the solve-memo key, so accidental collisions are no more likely
/// here than there.
fn script_key(text: &str) -> (u64, u64) {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    0xC0DE_CAFE_u64.hash(&mut h2);
    text.hash(&mut h1);
    text.hash(&mut h2);
    (h1.finish(), h2.finish())
}

fn wire(code: ErrorCode, message: impl Into<String>) -> WireError {
    WireError { code, message: message.into() }
}

fn parsed_script(shared: &Shared, text: &str) -> Result<Arc<ParsedScript>, WireError> {
    let key = script_key(text);
    if let Some(p) = lock(&shared.schemas).get(&key) {
        return Ok(Arc::clone(p));
    }
    // Parse outside the lock; a concurrent duplicate insert is idempotent.
    let (schema, data) = xdata_sql::parse_script(text)
        .map_err(|e| wire(ErrorCode::ParseError, e.render(text)))?;
    let p = Arc::new(ParsedScript { schema, data });
    lock(&shared.schemas).insert(key, Arc::clone(&p));
    Ok(p)
}

/// The warm-cache namespace for one `(tenant, schema script)` pair. The
/// script hash is part of the namespace because session salts hash only
/// the *query* structurally — the same query text under two different
/// schemas must never share warm sessions.
fn namespace(tenant: &str, schema_text: &str) -> String {
    let (a, b) = script_key(schema_text);
    format!("{tenant}\u{1f}{a:016x}{b:016x}")
}

/// Map wire options onto [`GenOptions`] + domains, mirroring the CLI flag
/// handling (`src/bin/xdata.rs`) field for field.
fn build_opts(
    w: &WireOptions,
    script: &ParsedScript,
) -> Result<(GenOptions, DomainCatalog), WireError> {
    let mut opts = GenOptions { jobs: w.jobs, ..GenOptions::default() };
    opts.mode = match w.mode.as_str() {
        "unfold" => Mode::Unfold,
        "lazy" => Mode::Lazy,
        other => return Err(wire(ErrorCode::BadRequest, format!("unknown mode `{other}`"))),
    };
    if let Some(limit) = w.decision_limit {
        opts.decision_limit = limit;
    }
    opts.per_target_deadline_ms = w.target_deadline_ms;
    opts.faults = FaultPlan {
        panic_targets: w.fault_panic.clone(),
        unknown_targets: w.fault_unknown.clone(),
        expire_targets: w.fault_expire.clone(),
    };
    let domains = if w.use_input_db {
        if script.data.is_empty() {
            return Err(wire(
                ErrorCode::BadRequest,
                "use_input_db: the schema script has no INSERT statements",
            ));
        }
        let d = DomainCatalog::from_dataset(&script.schema, &script.data);
        opts.input_db = Some(script.data.clone());
        d
    } else if !script.data.is_empty() {
        // The data's values become the domains (the paper's default).
        DomainCatalog::from_dataset(&script.schema, &script.data)
    } else {
        DomainCatalog::defaults(&script.schema)
    };
    Ok((opts, domains))
}

/// Render the `evaluate` listing — the exact lines the CLI `evaluate`
/// command prints (it calls this function), shared so the wire output and
/// the terminal output cannot drift.
pub fn render_evaluate(
    query: &NormQuery,
    suite: &TestSuite,
    space: &MutationSpace,
    report: &KillReport,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} datasets, {} mutants ({} raw), {} killed, {} surviving",
        suite.datasets.len(),
        space.len(),
        space.raw_len(),
        report.killed_count(),
        space.len() - report.killed_count()
    );
    // A surviving mutant only *proves* equivalence when every planned
    // target produced a dataset; with degradation skips the verdict is
    // merely "unresolved".
    let partial = suite.is_partial();
    if !suite.skipped.is_empty() {
        let _ = writeln!(out, "skipped targets:");
        for s in &suite.skipped {
            let _ = writeln!(out, "  {} — {}", s.label, s.reason);
        }
    }
    let mutants: Vec<Mutant> = space.iter().collect();
    for (mi, killer) in report.killed_by.iter().enumerate() {
        let desc = mutants[mi].describe(query);
        match killer {
            Some(d) => {
                let _ = writeln!(out, "  killed by #{d}: {desc}");
            }
            None if report.unevaluated.contains(&mi) => {
                let _ = writeln!(out, "  UNEVALUATED (deadline expired): {desc}");
            }
            None if partial => {
                let _ = writeln!(out, "  SURVIVES (unresolved: suite is partial): {desc}");
            }
            None => {
                let _ = writeln!(out, "  SURVIVES (equivalent): {desc}");
            }
        }
    }
    out
}

fn grade_error(e: GradeError) -> WireError {
    match e {
        GradeError::Parse(e) => wire(ErrorCode::ParseError, e.to_string()),
        GradeError::RelAlg(e) => wire(ErrorCode::RelalgError, e.to_string()),
        GradeError::Gen(e) => wire(ErrorCode::GenError, e.to_string()),
        GradeError::Engine(e) => wire(ErrorCode::EngineError, e.to_string()),
    }
}

/// Admission control: the effective deadline after clamping to the
/// server's `max_deadline_ms`. The bool reports whether the *client's*
/// budget was cut (imposing a max on a request that sent none is policy,
/// not a clamp).
fn effective_deadline(requested: Option<u64>, max: Option<u64>) -> (Option<u64>, bool) {
    match (requested, max) {
        (None, None) => (None, false),
        (Some(d), None) => (Some(d), false),
        (None, Some(m)) => (Some(m), false),
        (Some(d), Some(m)) if d > m => (Some(m), true),
        (Some(d), Some(_)) => (Some(d), false),
    }
}

/// Normalize-then-generate under the warm cache: the shared front half of
/// `generate` and `evaluate`.
fn warm_suite(
    shared: &Shared,
    tenant: &str,
    schema_text: &str,
    query_sql: &str,
    options: &WireOptions,
    cancel: &CancelToken,
) -> Result<(Arc<ParsedScript>, GenOptions, NormQuery, TestSuite), WireError> {
    let script = parsed_script(shared, schema_text)?;
    let (opts, domains) = build_opts(options, &script)?;
    let ast = xdata_sql::parse_query(query_sql)
        .map_err(|e| wire(ErrorCode::ParseError, e.to_string()))?;
    let query = normalize(&ast, &script.schema)
        .map_err(|e| wire(ErrorCode::RelalgError, e.to_string()))?;
    let ns = namespace(tenant, schema_text);
    let suite = generate_warm(&query, &script.schema, &domains, &opts, cancel, &shared.warm, &ns)
        .map_err(|e| wire(ErrorCode::GenError, e.to_string()))?;
    Ok((script, opts, query, suite))
}

fn run_method(shared: &Shared, req: &Request, cancel: &CancelToken) -> Result<String, WireError> {
    match &req.body {
        RequestBody::Ping => Ok(format!(
            "pong: protocol {PROTOCOL_VERSION}, warm memo entries {}, warm sessions {}\n",
            shared.warm.memo_entries(),
            shared.warm.session_count()
        )),
        RequestBody::Shutdown => Ok("shutting down: draining connections\n".to_string()),
        RequestBody::Generate(p) => {
            let (_, _, _, suite) =
                warm_suite(shared, &req.tenant, &p.schema, &p.query, &p.options, cancel)?;
            Ok(suite.to_string())
        }
        RequestBody::Evaluate(p) => {
            let (script, opts, query, suite) =
                warm_suite(shared, &req.tenant, &p.schema, &p.query, &p.options, cancel)?;
            let mopts = MutationOptions {
                include_full: p.options.include_full,
                tree_limit: 20_000,
                ..Default::default()
            };
            let space = mutation_space(&query, mopts);
            let report = xdata_core::kill::kill_report_cancel(
                &query,
                &space,
                &suite.data(),
                &script.schema,
                opts.jobs,
                cancel,
            )
            .map_err(|e| wire(ErrorCode::EngineError, e.to_string()))?;
            Ok(render_evaluate(&query, &suite, &space, &report))
        }
        RequestBody::GradeBatch(p) => {
            let script = parsed_script(shared, &p.schema)?;
            let (opts, domains) = build_opts(&p.options, &script)?;
            let ns = namespace(&req.tenant, &p.schema);
            let report = grade_batch_warm(
                &p.query,
                &p.candidates,
                &script.schema,
                &domains,
                &opts,
                JoinStrategy::Hash,
                cancel,
                &shared.warm,
                &ns,
            )
            .map_err(grade_error)?;
            Ok(report.render())
        }
    }
}

/// [`run_method`] behind an unwind barrier: a panic inside the pipeline
/// (e.g. an injected chaos fault) becomes an `internal` error frame on
/// this request instead of killing the worker thread and its connection.
fn run_catching(
    shared: &Shared,
    req: &Request,
    cancel: &CancelToken,
) -> Result<String, WireError> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_method(shared, req, cancel))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic in request handler".to_string());
            Err(wire(ErrorCode::Internal, msg))
        }
    }
}

/// Snapshot the daemon-lifetime `serve.*` totals (plus warm-cache
/// occupancy) into the installed recorder, so a per-request metrics report
/// carries them. No-op when no recorder is installed.
fn snapshot_serve_counters(shared: &Shared) {
    let s = &shared.stats;
    xdata_obs::counter("serve.connections", s.connections.load(Ordering::Relaxed));
    xdata_obs::counter("serve.requests", s.requests.load(Ordering::Relaxed));
    xdata_obs::counter("serve.requests.generate", s.requests_generate.load(Ordering::Relaxed));
    xdata_obs::counter("serve.requests.evaluate", s.requests_evaluate.load(Ordering::Relaxed));
    xdata_obs::counter(
        "serve.requests.grade_batch",
        s.requests_grade_batch.load(Ordering::Relaxed),
    );
    xdata_obs::counter("serve.requests.ping", s.requests_ping.load(Ordering::Relaxed));
    xdata_obs::counter("serve.errors", s.errors.load(Ordering::Relaxed));
    xdata_obs::counter("serve.rejected_frames", s.rejected_frames.load(Ordering::Relaxed));
    xdata_obs::counter("serve.deadline_clamped", s.deadline_clamped.load(Ordering::Relaxed));
    xdata_obs::counter("serve.warm.memo_entries", shared.warm.memo_entries() as u64);
    xdata_obs::counter("serve.warm.sessions", shared.warm.session_count() as u64);
}

/// The full request lifecycle: stats, deadline mapping, the metrics gate,
/// the unwind barrier, and response assembly.
pub(crate) fn handle_request(
    shared: &Shared,
    conn_cancel: &CancelToken,
    req: Request,
) -> Response {
    let start = Instant::now();
    let s = &shared.stats;
    if shared.shutdown.load(Ordering::Acquire)
        && !matches!(req.body, RequestBody::Shutdown)
    {
        // Raced the drain window: the frame was read before the flag
        // flipped. Refuse typed rather than executing work the daemon
        // will not outlive.
        return Response::err(
            req.id,
            ErrorCode::ShuttingDown,
            "server is draining after a shutdown request",
        );
    }
    s.requests.fetch_add(1, Ordering::Relaxed);
    match &req.body {
        RequestBody::Generate(_) => s.requests_generate.fetch_add(1, Ordering::Relaxed),
        RequestBody::Evaluate(_) => s.requests_evaluate.fetch_add(1, Ordering::Relaxed),
        RequestBody::GradeBatch(_) => s.requests_grade_batch.fetch_add(1, Ordering::Relaxed),
        RequestBody::Ping | RequestBody::Shutdown => {
            s.requests_ping.fetch_add(1, Ordering::Relaxed)
        }
    };
    let (deadline, clamped) =
        effective_deadline(req.deadline_ms, shared.config.max_deadline_ms);
    if clamped {
        s.deadline_clamped.fetch_add(1, Ordering::Relaxed);
    }
    let cancel = conn_cancel.child_for_deadline_ms(deadline);

    let result;
    let mut metrics_json = None;
    let mut trace_json = None;
    if req.metrics || req.trace {
        // Exclusive: the obs recorder is process-global, so a per-request
        // report must not see any other request's increments.
        let _g = shared.gate.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = xdata_obs::take_report(); // drop any stale state
        let _ = xdata_obs::take_trace();
        if req.metrics {
            xdata_obs::install();
            xdata_obs::preseed();
        }
        if req.trace {
            xdata_obs::install_trace();
        }
        result = run_catching(shared, &req, &cancel);
        if req.metrics {
            snapshot_serve_counters(shared);
            metrics_json = xdata_obs::take_report().map(|r| r.to_json());
        }
        if req.trace {
            trace_json = xdata_obs::take_trace().map(|t| t.to_chrome_json());
        }
    } else {
        let _g = shared.gate.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        result = run_catching(shared, &req, &cancel);
    }

    match result {
        Ok(output) => Response::ok(
            req.id,
            Payload {
                output,
                elapsed_ns: start.elapsed().as_nanos() as u64,
                metrics_json,
                trace_json,
            },
        ),
        Err(e) => Response::err(req.id, e.code, e.message),
    }
}
