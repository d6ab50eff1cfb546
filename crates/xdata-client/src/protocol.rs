//! The `xdata serve` wire schema: request/response structs mirroring the
//! JSON documented in PROTOCOL.md, with encode/decode in both directions so
//! the daemon and the client share one definition (and one set of tests).
//!
//! Framing is line-delimited JSON: one request per `\n`-terminated line,
//! one response line per request, over a plain TCP stream. JSON strings
//! escape `\n` as `\u{6e}`-style sequences, so a rendered frame can never
//! contain a raw newline — the framing needs no length prefix. Encoding is
//! [`xdata_obs::Json::render`], decoding [`xdata_obs::parse_json`]; both
//! are dependency-free.
//!
//! Every frame carries the protocol version (`"v"`). A server that cannot
//! speak the requested version answers with [`ErrorCode::BadRequest`]
//! naming the versions it supports; it still answers on the requested
//! `id`, so clients can always correlate.

use xdata_obs::{parse_json, Json};

/// The wire-protocol version this build speaks, sent as `"v"` in every
/// request and response frame.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound a conforming server must accept for one frame; servers may
/// be configured higher. Documented here so clients can size batches.
pub const MIN_MAX_FRAME_BYTES: usize = 1 << 20;

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Warm-cache namespace: requests of different tenants never share
    /// memoized solves.
    pub tenant: String,
    /// Wall-clock budget for this request. On expiry the pipeline degrades
    /// exactly like the batch CLI — partial suites, `Unevaluated` grading
    /// verdicts — it does not produce an error frame.
    pub deadline_ms: Option<u64>,
    /// Embed a per-request metrics report in the response.
    pub metrics: bool,
    /// Embed a per-request Chrome-trace export in the response.
    pub trace: bool,
    pub body: RequestBody,
}

/// The method-specific part of a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness/version check; also reports warm-cache occupancy.
    Ping,
    /// Generate the killing test suite for a query.
    Generate(GenerateParams),
    /// Generate + enumerate mutants + kill evaluation.
    Evaluate(EvaluateParams),
    /// Grade a batch of candidate queries against a reference.
    GradeBatch(GradeBatchParams),
    /// Graceful shutdown: the server answers this request, stops accepting
    /// connections, and exits once in-flight requests finish.
    Shutdown,
}

impl RequestBody {
    /// The wire method name (the `"method"` field).
    pub fn method(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Generate(_) => "generate",
            RequestBody::Evaluate(_) => "evaluate",
            RequestBody::GradeBatch(_) => "grade_batch",
            RequestBody::Shutdown => "shutdown",
        }
    }
}

/// Generation knobs shared by every pipeline-running method, mirroring the
/// CLI flags (PROTOCOL.md documents each field's accepted values and
/// default). Decoding ignores keys it does not know, so frames from older
/// clients that still send `search_core` or `join_strategy` get the
/// default behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOptions {
    /// Worker threads inside the request (`0` = one per core). Output is
    /// identical for every value.
    pub jobs: usize,
    /// `"unfold"` (default) or `"lazy"`.
    pub mode: String,
    /// Solver decision budget per target.
    pub decision_limit: Option<u64>,
    /// Wall-clock budget per solve target, independent of the request
    /// deadline.
    pub target_deadline_ms: Option<u64>,
    /// Restrict generated tuples to the schema script's INSERT statements
    /// (§VI-A input database).
    pub use_input_db: bool,
    /// Evaluate only: include FULL OUTER JOIN mutations (default true).
    pub include_full: bool,
    /// Deterministic fault injection (the chaos harness): targets whose
    /// label contains a listed substring panic / exit Unknown / expire.
    pub fault_panic: Vec<String>,
    pub fault_unknown: Vec<String>,
    pub fault_expire: Vec<String>,
}

impl Default for WireOptions {
    fn default() -> Self {
        WireOptions {
            jobs: 1,
            mode: "unfold".to_string(),
            decision_limit: None,
            target_deadline_ms: None,
            use_input_db: false,
            include_full: true,
            fault_panic: Vec::new(),
            fault_unknown: Vec::new(),
            fault_expire: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct GenerateParams {
    /// SQL script: CREATE TABLE statements plus optional INSERTs.
    pub schema: String,
    /// The query under test.
    pub query: String,
    pub options: WireOptions,
}

#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateParams {
    pub schema: String,
    pub query: String,
    pub options: WireOptions,
}

#[derive(Debug, Clone, PartialEq)]
pub struct GradeBatchParams {
    pub schema: String,
    /// The reference (instructor) query the suite is generated from.
    pub query: String,
    /// Candidate queries, one verdict each.
    pub candidates: Vec<String>,
    pub options: WireOptions,
}

/// One response frame: the request id, the server's protocol version, and
/// either a payload or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub id: u64,
    pub version: u64,
    pub result: Result<Payload, WireError>,
}

/// The success payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Payload {
    /// The method's rendered report — byte-identical to what the
    /// in-process API produces for the same inputs (the suite display for
    /// `generate`, the evaluation listing for `evaluate`, the
    /// `BatchGradeReport` render for `grade_batch`, a status line for
    /// `ping`/`shutdown`).
    pub output: String,
    /// Server-side wall-clock for the request. Timing: excluded from every
    /// determinism contract.
    pub elapsed_ns: u64,
    /// Per-request metrics report JSON (the `--metrics-json` document;
    /// feed through [`xdata_obs::strip_timings`] before comparing), when
    /// the request set `metrics`.
    pub metrics_json: Option<String>,
    /// Per-request Chrome-trace JSON, when the request set `trace`.
    pub trace_json: Option<String>,
}

/// A server-side failure, typed by [`ErrorCode`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    pub code: ErrorCode,
    pub message: String,
}

/// Every error code a server can answer with. Transport-level failures
/// (connection refused, mid-frame EOF) never appear here — the client
/// reports those as [`crate::ClientError::Io`] /
/// [`crate::ClientError::Protocol`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame: not JSON, missing/mistyped required field, or an
    /// unsupported protocol version.
    BadRequest,
    /// The `method` field names no known method.
    UnknownMethod,
    /// The request line exceeded the server's frame cap; the connection is
    /// closed after this response.
    OversizedFrame,
    /// SQL in `schema`/`query`/`candidates` failed to parse. (Per-candidate
    /// parse failures in `grade_batch` are *not* this — they become
    /// `INVALID` verdicts in the report.)
    ParseError,
    /// The query parsed but is outside the supported class.
    RelalgError,
    /// Constraint generation failed.
    GenError,
    /// Query execution failed during evaluation/grading.
    EngineError,
    /// The server is draining after a `shutdown` request.
    ShuttingDown,
    /// A panic or other invariant failure inside the handler.
    Internal,
}

impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownMethod => "unknown_method",
            ErrorCode::OversizedFrame => "oversized_frame",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::RelalgError => "relalg_error",
            ErrorCode::GenError => "gen_error",
            ErrorCode::EngineError => "engine_error",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "unknown_method" => ErrorCode::UnknownMethod,
            "oversized_frame" => ErrorCode::OversizedFrame,
            "parse_error" => ErrorCode::ParseError,
            "relalg_error" => ErrorCode::RelalgError,
            "gen_error" => ErrorCode::GenError,
            "engine_error" => ErrorCode::EngineError,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// --------------------------------------------------------------------------
// Encoding
// --------------------------------------------------------------------------

fn num(n: u64) -> Json {
    Json::Num(n.to_string())
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

impl WireOptions {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("jobs".to_string(), num(self.jobs as u64)),
            ("mode".to_string(), Json::Str(self.mode.clone())),
        ];
        if let Some(l) = self.decision_limit {
            fields.push(("decision_limit".to_string(), num(l)));
        }
        if let Some(ms) = self.target_deadline_ms {
            fields.push(("target_deadline_ms".to_string(), num(ms)));
        }
        fields.push(("use_input_db".to_string(), Json::Bool(self.use_input_db)));
        fields.push(("include_full".to_string(), Json::Bool(self.include_full)));
        if !self.fault_panic.is_empty() {
            fields.push(("fault_panic".to_string(), str_arr(&self.fault_panic)));
        }
        if !self.fault_unknown.is_empty() {
            fields.push(("fault_unknown".to_string(), str_arr(&self.fault_unknown)));
        }
        if !self.fault_expire.is_empty() {
            fields.push(("fault_expire".to_string(), str_arr(&self.fault_expire)));
        }
        Json::Obj(fields)
    }

    fn from_json(j: &Json) -> Result<WireOptions, String> {
        let mut o = WireOptions::default();
        let get = |k: &str| j.get(k);
        if let Some(v) = get("jobs") {
            o.jobs = v.as_u64().ok_or("options.jobs must be a number")? as usize;
        }
        if let Some(v) = get("mode") {
            o.mode = v.as_str().ok_or("options.mode must be a string")?.to_string();
        }
        if let Some(v) = get("decision_limit") {
            o.decision_limit = Some(v.as_u64().ok_or("options.decision_limit must be a number")?);
        }
        if let Some(v) = get("target_deadline_ms") {
            o.target_deadline_ms =
                Some(v.as_u64().ok_or("options.target_deadline_ms must be a number")?);
        }
        if let Some(v) = get("use_input_db") {
            o.use_input_db = as_bool(v).ok_or("options.use_input_db must be a boolean")?;
        }
        if let Some(v) = get("include_full") {
            o.include_full = as_bool(v).ok_or("options.include_full must be a boolean")?;
        }
        for (key, dst) in [
            ("fault_panic", &mut o.fault_panic),
            ("fault_unknown", &mut o.fault_unknown),
            ("fault_expire", &mut o.fault_expire),
        ] {
            if let Some(v) = j.get(key) {
                *dst = as_str_vec(v).ok_or_else(|| format!("options.{key} must be a string array"))?;
            }
        }
        Ok(o)
    }
}

fn as_bool(j: &Json) -> Option<bool> {
    match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn as_str_vec(j: &Json) -> Option<Vec<String>> {
    match j {
        Json::Arr(items) => {
            items.iter().map(|v| v.as_str().map(str::to_string)).collect::<Option<Vec<_>>>()
        }
        _ => None,
    }
}

fn require_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or mistyped field `{key}` (string required)"))
}

impl Request {
    /// A request with defaults: tenant `"default"`, no deadline, no
    /// metrics/trace.
    pub fn new(id: u64, body: RequestBody) -> Request {
        Request {
            id,
            tenant: "default".to_string(),
            deadline_ms: None,
            metrics: false,
            trace: false,
            body,
        }
    }

    pub fn with_tenant(mut self, tenant: &str) -> Request {
        self.tenant = tenant.to_string();
        self
    }

    pub fn with_deadline_ms(mut self, ms: u64) -> Request {
        self.deadline_ms = Some(ms);
        self
    }

    pub fn with_metrics(mut self) -> Request {
        self.metrics = true;
        self
    }

    pub fn with_trace(mut self) -> Request {
        self.trace = true;
        self
    }

    /// Render the frame (no trailing newline — the transport adds it).
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("v".to_string(), num(PROTOCOL_VERSION)),
            ("id".to_string(), num(self.id)),
            ("method".to_string(), Json::Str(self.body.method().to_string())),
            ("tenant".to_string(), Json::Str(self.tenant.clone())),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), num(ms)));
        }
        if self.metrics {
            fields.push(("metrics".to_string(), Json::Bool(true)));
        }
        if self.trace {
            fields.push(("trace".to_string(), Json::Bool(true)));
        }
        let params = match &self.body {
            RequestBody::Ping | RequestBody::Shutdown => None,
            RequestBody::Generate(p) => Some(Json::Obj(vec![
                ("schema".to_string(), Json::Str(p.schema.clone())),
                ("query".to_string(), Json::Str(p.query.clone())),
                ("options".to_string(), p.options.to_json()),
            ])),
            RequestBody::Evaluate(p) => Some(Json::Obj(vec![
                ("schema".to_string(), Json::Str(p.schema.clone())),
                ("query".to_string(), Json::Str(p.query.clone())),
                ("options".to_string(), p.options.to_json()),
            ])),
            RequestBody::GradeBatch(p) => Some(Json::Obj(vec![
                ("schema".to_string(), Json::Str(p.schema.clone())),
                ("query".to_string(), Json::Str(p.query.clone())),
                ("candidates".to_string(), str_arr(&p.candidates)),
                ("options".to_string(), p.options.to_json()),
            ])),
        };
        if let Some(p) = params {
            fields.push(("params".to_string(), p));
        }
        Json::Obj(fields).render()
    }

    /// Parse one request line. Errors are human-readable fragments the
    /// server wraps into a [`ErrorCode::BadRequest`] /
    /// [`ErrorCode::UnknownMethod`] response.
    pub fn decode(line: &str) -> Result<Request, String> {
        let j = parse_json(line)?;
        let v = j.get("v").and_then(Json::as_u64).ok_or("missing field `v`")?;
        if v != PROTOCOL_VERSION {
            return Err(format!("unsupported protocol version {v} (supported: {PROTOCOL_VERSION})"));
        }
        let id = j.get("id").and_then(Json::as_u64).ok_or("missing or mistyped field `id`")?;
        let method = j.get("method").and_then(Json::as_str).ok_or("missing field `method`")?;
        let tenant = match j.get("tenant") {
            Some(t) => t.as_str().ok_or("field `tenant` must be a string")?.to_string(),
            None => "default".to_string(),
        };
        let deadline_ms = match j.get("deadline_ms") {
            Some(d) => Some(d.as_u64().ok_or("field `deadline_ms` must be a number")?),
            None => None,
        };
        let metrics = match j.get("metrics") {
            Some(m) => as_bool(m).ok_or("field `metrics` must be a boolean")?,
            None => false,
        };
        let trace = match j.get("trace") {
            Some(t) => as_bool(t).ok_or("field `trace` must be a boolean")?,
            None => false,
        };
        let params = j.get("params");
        let need = |key: &str| -> Result<String, String> {
            require_str(params.ok_or("missing field `params`")?, key)
        };
        let options = || -> Result<WireOptions, String> {
            match params.and_then(|p| p.get("options")) {
                Some(o) => WireOptions::from_json(o),
                None => Ok(WireOptions::default()),
            }
        };
        let body = match method {
            "ping" => RequestBody::Ping,
            "shutdown" => RequestBody::Shutdown,
            "generate" => RequestBody::Generate(GenerateParams {
                schema: need("schema")?,
                query: need("query")?,
                options: options()?,
            }),
            "evaluate" => RequestBody::Evaluate(EvaluateParams {
                schema: need("schema")?,
                query: need("query")?,
                options: options()?,
            }),
            "grade_batch" => RequestBody::GradeBatch(GradeBatchParams {
                schema: need("schema")?,
                query: need("query")?,
                candidates: params
                    .and_then(|p| p.get("candidates"))
                    .and_then(as_str_vec)
                    .ok_or("missing or mistyped field `candidates` (string array required)")?,
                options: options()?,
            }),
            other => return Err(format!("unknown method `{other}`")),
        };
        Ok(Request { id, tenant, deadline_ms, metrics, trace, body })
    }
}

impl Response {
    pub fn ok(id: u64, payload: Payload) -> Response {
        Response { id, version: PROTOCOL_VERSION, result: Ok(payload) }
    }

    pub fn err(id: u64, code: ErrorCode, message: impl Into<String>) -> Response {
        Response {
            id,
            version: PROTOCOL_VERSION,
            result: Err(WireError { code, message: message.into() }),
        }
    }

    /// Render the frame (no trailing newline — the transport adds it).
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("v".to_string(), num(self.version)),
            ("id".to_string(), num(self.id)),
            ("ok".to_string(), Json::Bool(self.result.is_ok())),
        ];
        match &self.result {
            Ok(p) => {
                fields.push(("output".to_string(), Json::Str(p.output.clone())));
                fields.push(("elapsed_ns".to_string(), num(p.elapsed_ns)));
                if let Some(m) = &p.metrics_json {
                    fields.push(("metrics".to_string(), Json::Str(m.clone())));
                }
                if let Some(t) = &p.trace_json {
                    fields.push(("trace".to_string(), Json::Str(t.clone())));
                }
            }
            Err(e) => {
                fields.push((
                    "error".to_string(),
                    Json::Obj(vec![
                        ("code".to_string(), Json::Str(e.code.as_str().to_string())),
                        ("message".to_string(), Json::Str(e.message.clone())),
                    ]),
                ));
            }
        }
        Json::Obj(fields).render()
    }

    /// Parse one response line.
    pub fn decode(line: &str) -> Result<Response, String> {
        let j = parse_json(line)?;
        let version = j.get("v").and_then(Json::as_u64).ok_or("missing field `v`")?;
        let id = j.get("id").and_then(Json::as_u64).ok_or("missing or mistyped field `id`")?;
        let ok = j.get("ok").and_then(as_bool).ok_or("missing field `ok`")?;
        let result = if ok {
            Ok(Payload {
                output: require_str(&j, "output")?,
                elapsed_ns: j
                    .get("elapsed_ns")
                    .and_then(Json::as_u64)
                    .ok_or("missing field `elapsed_ns`")?,
                metrics_json: j.get("metrics").and_then(Json::as_str).map(str::to_string),
                trace_json: j.get("trace").and_then(Json::as_str).map(str::to_string),
            })
        } else {
            let e = j.get("error").ok_or("missing field `error`")?;
            let code_str = require_str(e, "code")?;
            Err(WireError {
                code: ErrorCode::from_wire(&code_str)
                    .ok_or_else(|| format!("unknown error code `{code_str}`"))?,
                message: require_str(e, "message")?,
            })
        };
        Ok(Response { id, version, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> WireOptions {
        WireOptions {
            jobs: 4,
            decision_limit: Some(1000),
            fault_expire: vec!["agg".to_string()],
            ..WireOptions::default()
        }
    }

    #[test]
    fn request_round_trips_every_method() {
        let bodies = [
            RequestBody::Ping,
            RequestBody::Shutdown,
            RequestBody::Generate(GenerateParams {
                schema: "CREATE TABLE r (a INT PRIMARY KEY);".to_string(),
                query: "SELECT * FROM r".to_string(),
                options: opts(),
            }),
            RequestBody::Evaluate(EvaluateParams {
                schema: "s".to_string(),
                query: "q\nwith newline".to_string(),
                options: WireOptions::default(),
            }),
            RequestBody::GradeBatch(GradeBatchParams {
                schema: "s".to_string(),
                query: "q".to_string(),
                candidates: vec!["c1".to_string(), "c2 \"quoted\"".to_string()],
                options: opts(),
            }),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let req = Request::new(i as u64, body).with_tenant("t1").with_deadline_ms(250);
            let line = req.encode();
            assert!(!line.contains('\n'), "frames must be newline-free: {line}");
            assert_eq!(Request::decode(&line).expect("round trip"), req);
        }
    }

    #[test]
    fn response_round_trips_ok_and_error() {
        let ok = Response::ok(
            7,
            Payload {
                output: "line one\nline two\n".to_string(),
                elapsed_ns: 12345,
                metrics_json: Some("{\n  \"counters\": {}\n}\n".to_string()),
                trace_json: None,
            },
        );
        let err = Response::err(8, ErrorCode::ParseError, "expected FROM");
        for r in [ok, err] {
            let line = r.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::decode(&line).expect("round trip"), r);
        }
    }

    #[test]
    fn decode_rejects_version_mismatch_and_junk() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{\"v\":99,\"id\":1,\"method\":\"ping\"}")
            .unwrap_err()
            .contains("unsupported protocol version"));
        assert!(Request::decode("{\"v\":1,\"id\":1,\"method\":\"frobnicate\"}")
            .unwrap_err()
            .contains("unknown method"));
        assert!(Request::decode("{\"v\":1,\"id\":1,\"method\":\"generate\"}")
            .unwrap_err()
            .contains("params"));
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownMethod,
            ErrorCode::OversizedFrame,
            ErrorCode::ParseError,
            ErrorCode::RelalgError,
            ErrorCode::GenError,
            ErrorCode::EngineError,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
    }
}
