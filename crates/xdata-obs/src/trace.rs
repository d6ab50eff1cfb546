//! Trace log model, exporters, validator and offline analysis.
//!
//! The journal (`journal.rs`) drains into a [`TraceLog`]: a flat,
//! stable-ordered event list plus build metadata. This module gives that
//! log its external faces:
//!
//! * [`TraceLog::to_chrome_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto or `chrome://tracing`. Threads become tracks, spans become
//!   `B`/`E` pairs, solve targets become flow arrows.
//! * [`TraceLog::to_folded`] — folded-stacks text (`stack;path weight`)
//!   consumable by any flamegraph renderer. Weights are self-time in
//!   nanoseconds.
//! * [`TraceLog::to_structure`] — the timing-stripped structural view
//!   (event kinds, names, owners, nesting, counts) that must be
//!   byte-identical across `--jobs`; the trace analogue of
//!   `MetricsReport::to_json_stripped`.
//! * [`parse_chrome_trace`] / [`validate_chrome_trace`] — a dependency-free
//!   JSON parser and a structural checker (balanced begin/end, monotonic
//!   per-thread timestamps, flow starts preceding steps/finishes) used by
//!   tests, CI and `xdata trace --validate`.
//! * [`TraceLog::analyze`] — offline analysis backing the `xdata trace`
//!   subcommand: critical-path extraction, per-target and per-mutant-class
//!   breakdowns, top-K slowest solves.
//!
//! Everything here is hand-rolled: the workspace has zero external
//! dependencies by design, so the exporters emit JSON via string building
//! and the importer is a small recursive-descent parser.

use std::collections::BTreeMap;

/// Phase of a flow event: `Start` opens an arrow, `Step` continues it on
/// another thread, `Finish` terminates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    Start,
    Step,
    Finish,
}

impl FlowPhase {
    /// Chrome trace-event phase letter (`s`/`t`/`f`).
    pub fn ph(self) -> char {
        match self {
            FlowPhase::Start => 's',
            FlowPhase::Step => 't',
            FlowPhase::Finish => 'f',
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            FlowPhase::Start => "start",
            FlowPhase::Step => "step",
            FlowPhase::Finish => "finish",
        }
    }

    fn rank(self) -> u8 {
        match self {
            FlowPhase::Start => 0,
            FlowPhase::Step => 1,
            FlowPhase::Finish => 2,
        }
    }
}

/// What a single trace event records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened. `path` is the canonical hierarchical span path
    /// (e.g. `generate/solve`); `label` the dynamic annotation (target
    /// description, skip reason, …), empty when there is none.
    Begin { path: String, label: String },
    /// The matching span closed.
    End { path: String },
    /// A point event (cache hit, verdict, restart, …).
    Instant { name: String, label: String },
    /// A counter increment, journaled with the delta (totals are
    /// reconstructed by the exporter).
    Counter { name: String, delta: u64 },
    /// A flow marker connecting causally-related events across threads.
    Flow { name: String, id: u64, phase: FlowPhase },
}

/// One journaled event: which thread, when (nanoseconds since the run's
/// first event), and what.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub tid: u32,
    pub ts_ns: u64,
    pub kind: TraceEventKind,
}

/// A drained trace: build metadata plus events ordered by
/// (thread ordinal, per-thread record order). Per-thread timestamps are
/// monotonic; cross-thread ordering is by timestamp only.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    pub meta: BTreeMap<String, String>,
    pub events: Vec<TraceEvent>,
}

/// Build provenance captured at compile time (see `build.rs`), plus the
/// feature flags the caller knows were active. Embedded in trace files,
/// metrics artifacts and bench JSONs so every number is attributable to a
/// source revision and toolchain.
pub fn build_meta(features: &[&str]) -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    m.insert("git_sha".to_string(), env!("XDATA_GIT_SHA").to_string());
    m.insert("rustc".to_string(), env!("XDATA_RUSTC_VERSION").to_string());
    m.insert("features".to_string(), features.join(","));
    m
}

/// [`build_meta`] rendered as a JSON object (sorted keys), for embedding
/// in hand-rolled artifact writers: `{"features": "...", ...}`.
pub fn build_meta_json(features: &[&str]) -> String {
    let meta = build_meta(features);
    let mut out = String::from("{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(&escape_json(k));
        out.push_str("\": \"");
        out.push_str(&escape_json(v));
        out.push('"');
    }
    out.push('}');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds rendered as Chrome's microsecond timestamps with three
/// decimals, preserving full journal precision.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl TraceLog {
    /// Export as Chrome trace-event JSON (the "JSON object format" with a
    /// `traceEvents` array plus `metadata`). Threads map to `tid` tracks
    /// under a single `pid 0`; counter events carry both the journaled
    /// delta and the running total so Perfetto plots a cumulative series.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"metadata\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(&escape_json(k));
            out.push_str("\": \"");
            out.push_str(&escape_json(v));
            out.push('"');
        }
        out.push_str("\n  },\n  \"traceEvents\": [");
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let common = format!("\"ts\": {}, \"pid\": 0, \"tid\": {}", fmt_us(e.ts_ns), e.tid);
            match &e.kind {
                TraceEventKind::Begin { path, label } => {
                    out.push_str(&format!(
                        "{{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"B\", {common}, \
                         \"args\": {{\"label\": \"{}\"}}}}",
                        escape_json(path),
                        escape_json(label),
                    ));
                }
                TraceEventKind::End { path } => {
                    out.push_str(&format!(
                        "{{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"E\", {common}}}",
                        escape_json(path),
                    ));
                }
                TraceEventKind::Instant { name, label } => {
                    out.push_str(&format!(
                        "{{\"name\": \"{}\", \"cat\": \"instant\", \"ph\": \"i\", \"s\": \"t\", \
                         {common}, \"args\": {{\"label\": \"{}\"}}}}",
                        escape_json(name),
                        escape_json(label),
                    ));
                }
                TraceEventKind::Counter { name, delta } => {
                    let total = totals.entry(name.as_str()).or_insert(0);
                    *total += delta;
                    out.push_str(&format!(
                        "{{\"name\": \"{}\", \"cat\": \"counter\", \"ph\": \"C\", {common}, \
                         \"args\": {{\"delta\": {delta}, \"total\": {total}}}}}",
                        escape_json(name),
                    ));
                }
                TraceEventKind::Flow { name, id, phase } => {
                    // Steps and finishes bind to the enclosing slice's end
                    // ("bp": "e"), the binding Perfetto renders most
                    // usefully for handover arrows.
                    let bp = match phase {
                        FlowPhase::Start => "",
                        _ => ", \"bp\": \"e\"",
                    };
                    out.push_str(&format!(
                        "{{\"name\": \"{}\", \"cat\": \"flow\", \"ph\": \"{}\", \"id\": {id}, \
                         {common}{bp}}}",
                        escape_json(name),
                        phase.ph(),
                    ));
                }
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Replay each thread's span stack and return every completed span
    /// instance. Spans left open (a partial run cancelled mid-span would
    /// never journal the `End` only if the thread died — the chaos harness
    /// converts injected panics into clean unwinds, so in practice stacks
    /// balance) are dropped.
    pub fn span_instances(&self) -> Vec<SpanInstance> {
        let mut stacks: BTreeMap<u32, Vec<(String, String, u64)>> = BTreeMap::new();
        let mut done = Vec::new();
        for e in &self.events {
            match &e.kind {
                TraceEventKind::Begin { path, label } => {
                    stacks
                        .entry(e.tid)
                        .or_default()
                        .push((path.clone(), label.clone(), e.ts_ns));
                }
                TraceEventKind::End { .. } => {
                    if let Some((path, label, start)) = stacks.entry(e.tid).or_default().pop() {
                        done.push(SpanInstance {
                            tid: e.tid,
                            path,
                            label,
                            start_ns: start,
                            end_ns: e.ts_ns,
                        });
                    }
                }
                _ => {}
            }
        }
        done
    }

    /// Export as folded stacks for flamegraph renderers: one line per
    /// distinct stack, `path;path;... self_time_ns`. Span labels are
    /// deliberately excluded (frame cardinality would explode); the `xdata
    /// trace` breakdowns carry the per-label view instead.
    pub fn to_folded(&self) -> String {
        // (stack string, child time) per open frame, replayed per thread.
        let mut stacks: BTreeMap<u32, Vec<(String, u64, u64)>> = BTreeMap::new();
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for e in &self.events {
            match &e.kind {
                TraceEventKind::Begin { path, .. } => {
                    let stack = stacks.entry(e.tid).or_default();
                    let joined = match stack.last() {
                        Some((parent, _, _)) => format!("{parent};{path}"),
                        None => path.clone(),
                    };
                    stack.push((joined, e.ts_ns, 0));
                }
                TraceEventKind::End { .. } => {
                    let stack = stacks.entry(e.tid).or_default();
                    if let Some((joined, start, child)) = stack.pop() {
                        let total = e.ts_ns.saturating_sub(start);
                        *agg.entry(joined).or_insert(0) += total.saturating_sub(child);
                        if let Some((_, _, parent_child)) = stack.last_mut() {
                            *parent_child += total;
                        }
                    }
                }
                _ => {}
            }
        }
        let mut out = String::new();
        for (stack, self_ns) in agg {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// The timing-stripped structural view: event kinds, names, owner
    /// spans, span labels, nesting and counts — everything except
    /// timestamps and thread/scheduling identity. Byte-identical across
    /// `--jobs` for the same input; the trace-level determinism gate.
    ///
    /// Two classes of events are aggregated without their dynamic labels
    /// or owners:
    ///
    /// * `par.*` events describe the scheduling domain itself (which
    ///   worker claimed which slot), which is exactly what `--jobs`
    ///   changes; they are counted under their name only.
    /// * instants and counters keep their owning span *path* but not its
    ///   label; the span lines already list every label.
    pub fn to_structure(&self) -> String {
        let mut spans: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut instants: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut counters: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        let mut flows: BTreeMap<(String, &'static str), u64> = BTreeMap::new();
        let mut stacks: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for e in &self.events {
            let owner = |stacks: &BTreeMap<u32, Vec<String>>| -> String {
                stacks
                    .get(&e.tid)
                    .and_then(|s| s.last())
                    .cloned()
                    .unwrap_or_else(|| "-".to_string())
            };
            match &e.kind {
                TraceEventKind::Begin { path, label } => {
                    *spans.entry((path.clone(), label.clone())).or_insert(0) += 1;
                    stacks.entry(e.tid).or_default().push(path.clone());
                }
                TraceEventKind::End { .. } => {
                    stacks.entry(e.tid).or_default().pop();
                }
                TraceEventKind::Instant { name, .. } => {
                    if !name.starts_with("par.") {
                        *instants.entry((name.clone(), owner(&stacks))).or_insert(0) += 1;
                    }
                }
                TraceEventKind::Counter { name, delta } => {
                    let entry = counters.entry((name.clone(), owner(&stacks))).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += delta;
                }
                TraceEventKind::Flow { name, phase, .. } => {
                    *flows.entry((name.clone(), phase.as_str())).or_insert(0) += 1;
                }
            }
        }
        let mut out = String::from("trace-structure v1\n");
        for ((path, label), n) in spans {
            out.push_str(&format!("span {path} [{label}] x{n}\n"));
        }
        for ((name, owner), n) in instants {
            out.push_str(&format!("instant {name} @{owner} x{n}\n"));
        }
        for ((name, owner), (n, sum)) in counters {
            out.push_str(&format!("counter {name} @{owner} x{n} sum={sum}\n"));
        }
        for ((name, phase), n) in flows {
            out.push_str(&format!("flow {name} {phase} x{n}\n"));
        }
        out
    }

    /// Offline analysis backing `xdata trace`: critical path, per-target
    /// and per-mutant-class time and the top-`k` slowest solves.
    pub fn analyze(&self, k: usize) -> TraceAnalysis {
        let spans = self.span_instances();
        let root_start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let root_end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);

        // Critical path by boundary sweep: span starts/ends partition
        // `[root_start, root_end]` into intervals; each interval is charged
        // to the *innermost* span active across it — globally, over all
        // threads — where innermost means latest start (ties: earliest end,
        // i.e. most specific; then path/label for determinism). Intervals
        // covered by no span become `(idle)`. Adjacent intervals charged to
        // the same span instance merge. The intervals tile the root span
        // exactly, so the segment total matches the root duration by
        // construction.
        let mut bounds: Vec<u64> = spans.iter().flat_map(|s| [s.start_ns, s.end_ns]).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut segments: Vec<CriticalSegment> = Vec::new();
        let mut last_choice: Option<usize> = None;
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a == b {
                continue;
            }
            let choice = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.start_ns <= a && s.end_ns >= b)
                .max_by_key(|(_, s)| {
                    (s.start_ns, std::cmp::Reverse(s.end_ns), &s.path, &s.label)
                })
                .map(|(i, _)| i);
            let (path, label) = match choice {
                Some(i) => (spans[i].path.clone(), spans[i].label.clone()),
                None => ("(idle)".to_string(), String::new()),
            };
            match segments.last_mut() {
                Some(seg) if choice == last_choice && choice.is_some() => seg.dur_ns += b - a,
                _ => segments.push(CriticalSegment { path, label, dur_ns: b - a }),
            }
            last_choice = choice;
        }

        let group = |path: &str, label_of: &dyn Fn(&SpanInstance) -> Option<String>| {
            let mut m: BTreeMap<String, (u64, u64)> = BTreeMap::new();
            for s in spans.iter().filter(|s| s.path == path) {
                if let Some(key) = label_of(s) {
                    let e = m.entry(key).or_insert((0, 0));
                    e.0 += s.end_ns - s.start_ns;
                    e.1 += 1;
                }
            }
            let mut v: Vec<(String, u64, u64)> =
                m.into_iter().map(|(k, (ns, n))| (k, ns, n)).collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        };

        let per_target = group("generate/solve", &|s| Some(s.label.clone()));
        // Mutant spans are labelled `#i description [class]`; group by the
        // trailing class tag.
        let per_class = group("kill/mutant", &|s| {
            let l = s.label.rfind('[')?;
            let r = s.label.rfind(']')?;
            (l < r).then(|| s.label[l + 1..r].to_string())
        });

        let mut slowest: Vec<SpanInstance> =
            spans.iter().filter(|s| s.path == "generate/solve").cloned().collect();
        slowest.sort_by(|a, b| {
            (b.end_ns - b.start_ns).cmp(&(a.end_ns - a.start_ns)).then(a.label.cmp(&b.label))
        });
        slowest.truncate(k);

        TraceAnalysis {
            root_dur_ns: root_end - root_start,
            critical_path: segments,
            per_target,
            per_class,
            slowest,
        }
    }
}

/// One completed span occurrence, reconstructed from a begin/end pair.
#[derive(Debug, Clone)]
pub struct SpanInstance {
    pub tid: u32,
    pub path: String,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One segment of the extracted critical path, in chronological order.
#[derive(Debug, Clone)]
pub struct CriticalSegment {
    pub path: String,
    pub label: String,
    pub dur_ns: u64,
}

/// Result of [`TraceLog::analyze`]. All breakdown vectors are
/// `(key, total_ns, count)` sorted by descending total.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    pub root_dur_ns: u64,
    pub critical_path: Vec<CriticalSegment>,
    pub per_target: Vec<(String, u64, u64)>,
    pub per_class: Vec<(String, u64, u64)>,
    pub slowest: Vec<SpanInstance>,
}

// ---------------------------------------------------------------------------
// Chrome-trace JSON import + structural validation (dependency-free).
// ---------------------------------------------------------------------------

/// Minimal JSON value for the hand-rolled parser. Numbers are kept as
/// their source text so microsecond timestamps round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse::<u64>().ok().or_else(|| {
                // Tolerate a fractional rendering of an integral value.
                n.parse::<f64>().ok().map(|f| f as u64)
            }),
            _ => None,
        }
    }

    /// Serialize back to compact JSON text. Object keys are emitted in
    /// insertion order and strings re-escaped, so a value built
    /// programmatically (e.g. a wire-protocol frame) renders
    /// deterministically; [`parse_json`] ∘ `render` is the identity on the
    /// JSON data model.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// A Chrome `ts` (microseconds, possibly fractional) as nanoseconds.
    pub fn as_ts_ns(&self) -> Option<u64> {
        let Json::Num(n) = self else { return None };
        let (int, frac) = match n.split_once('.') {
            Some((i, f)) => (i, f),
            None => (n.as_str(), ""),
        };
        let us: u64 = int.parse().ok()?;
        let mut frac_ns = 0u64;
        for (i, c) in frac.bytes().enumerate().take(3) {
            if !c.is_ascii_digit() {
                return None;
            }
            frac_ns += u64::from(c - b'0') * 10u64.pow(2 - i as u32);
        }
        Some(us * 1_000 + frac_ns)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        Ok(Json::Num(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a UTF-8 boundary
                    // and validating the run alone keeps parsing linear.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parse arbitrary JSON text (used on whole trace files).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage after JSON value"));
    }
    Ok(v)
}

/// Parse a Chrome trace-event JSON file back into a [`TraceLog`], for the
/// `xdata trace` subcommand. Only the event kinds our exporter writes are
/// reconstructed; unknown phases are rejected so a mangled file fails
/// loudly rather than analyzing as silence.
pub fn parse_chrome_trace(text: &str) -> Result<TraceLog, String> {
    trace_log(&parse_json(text)?)
}

/// The [`TraceLog`] of a parsed Chrome trace-event document.
fn trace_log(root: &Json) -> Result<TraceLog, String> {
    let mut meta = BTreeMap::new();
    if let Some(Json::Obj(fields)) = root.get("metadata") {
        for (k, v) in fields {
            if let Json::Str(s) = v {
                meta.insert(k.clone(), s.clone());
            }
        }
    }
    let Some(Json::Arr(items)) = root.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let ctx = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing name"))?
            .to_string();
        let ph = item.get("ph").and_then(Json::as_str).ok_or_else(|| ctx("missing ph"))?;
        let ts_ns = item
            .get("ts")
            .and_then(Json::as_ts_ns)
            .ok_or_else(|| ctx("missing or malformed ts"))?;
        let tid =
            item.get("tid").and_then(Json::as_u64).ok_or_else(|| ctx("missing tid"))? as u32;
        let label = || {
            item.get("args")
                .and_then(|a| a.get("label"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        let kind = match ph {
            "B" => TraceEventKind::Begin { path: name, label: label() },
            "E" => TraceEventKind::End { path: name },
            "i" | "I" => TraceEventKind::Instant { name, label: label() },
            "C" => TraceEventKind::Counter {
                name,
                delta: item
                    .get("args")
                    .and_then(|a| a.get("delta"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            },
            "s" | "t" | "f" => {
                let phase = match ph {
                    "s" => FlowPhase::Start,
                    "t" => FlowPhase::Step,
                    _ => FlowPhase::Finish,
                };
                let id =
                    item.get("id").and_then(Json::as_u64).ok_or_else(|| ctx("flow missing id"))?;
                TraceEventKind::Flow { name, id, phase }
            }
            other => return Err(ctx(&format!("unsupported phase '{other}'"))),
        };
        events.push(TraceEvent { tid, ts_ns, kind });
    }
    Ok(TraceLog { meta, events })
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    pub events: usize,
    pub threads: usize,
    pub spans: usize,
    pub flows: usize,
    pub has_metadata: bool,
}

/// Structural checker for a Chrome trace-event JSON file: parses it,
/// then verifies (1) per-thread timestamps are monotonically
/// non-decreasing in array order, (2) every `E` closes a matching `B`
/// (same span path, same thread) and no span is left open, and (3) every
/// flow step/finish is preceded — in time — by a start with the same id.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = parse_json(text)?;
    let has_metadata = matches!(root.get("metadata"), Some(Json::Obj(_)));
    let log = trace_log(&root)?;

    let mut last_ts: BTreeMap<u32, u64> = BTreeMap::new();
    let mut stacks: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut span_count = 0usize;
    let mut flow_events: Vec<(u64, u8, u64)> = Vec::new(); // (ts, phase rank, id)
    for (i, e) in log.events.iter().enumerate() {
        let prev = last_ts.entry(e.tid).or_insert(0);
        if e.ts_ns < *prev {
            return Err(format!(
                "event {i}: timestamp regressed on tid {} ({} < {})",
                e.tid, e.ts_ns, *prev
            ));
        }
        *prev = e.ts_ns;
        match &e.kind {
            TraceEventKind::Begin { path, .. } => {
                span_count += 1;
                stacks.entry(e.tid).or_default().push(path.clone());
            }
            TraceEventKind::End { path } => match stacks.entry(e.tid).or_default().pop() {
                Some(open) if &open == path => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: E for '{path}' does not match open span '{open}' on tid {}",
                        e.tid
                    ));
                }
                None => {
                    return Err(format!("event {i}: E for '{path}' with no open span on tid {}", e.tid));
                }
            },
            TraceEventKind::Flow { id, phase, .. } => {
                flow_events.push((e.ts_ns, phase.rank(), *id));
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span '{open}' left open on tid {tid}"));
        }
    }
    // Flow starts must precede their steps/finishes in time (cross-thread,
    // so checked on the time axis, not array order).
    flow_events.sort();
    let mut started: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for (ts, rank, id) in &flow_events {
        if *rank == 0 {
            started.insert(*id);
        } else if !started.contains(id) {
            return Err(format!("flow id {id} has a step/finish at {ts}ns before any start"));
        }
    }

    Ok(TraceSummary {
        events: log.events.len(),
        threads: last_ts.len(),
        spans: span_count,
        flows: flow_events.len(),
        has_metadata,
    })
}
