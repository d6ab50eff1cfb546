//! `xdata` — command-line front end for the X-Data test-data generator.
//!
//! ```text
//! xdata generate --schema schema.sql --query "SELECT ..." [options]
//! xdata evaluate --schema schema.sql --query "SELECT ..." [options]
//! xdata mutants  --schema schema.sql --query "SELECT ..." [options]
//! xdata grade    --schema schema.sql --query "<reference>" --candidate "<submission>"
//! xdata grade    --schema schema.sql --query "<reference>" --candidates FILE
//! xdata serve    [--listen ADDR] [--serve-workers N] [--max-line-bytes N] [--max-deadline-ms N]
//! xdata trace    trace.json [--top K] [--validate] [--folded FILE]
//!
//! options:
//!   --schema FILE     SQL script: CREATE TABLE (+ optional INSERT INTO
//!                     statements forming the input database of §VI-A)
//!   --query SQL       the query under test (or --query-file FILE)
//!   --mode MODE       unfold (default): one incremental CDCL session per
//!                     skeleton shape solves the targets under assumptions;
//!                     lazy: fresh CDCL solves without unfolding (§VI-B)
//!   --jobs N          worker threads for generation and kill checking
//!                     (default 1; 0 = one per core; output is identical
//!                     for every value)
//!   --timeout-ms N    wall-clock budget for the whole run; on expiry the
//!                     suite completes partially (unfinished targets are
//!                     reported as timed-out skips, never dropped)
//!   --target-timeout-ms N
//!                     wall-clock budget per solve target; a target that
//!                     outlives it is skipped while the rest proceed
//!   --decision-limit N
//!                     solver decision budget per target (exhaustion is a
//!                     budget skip, not an error)
//!   --candidates FILE batch grading: one candidate query per line (blank
//!                     lines and # comments skipped); the reference suite
//!                     is generated once, structurally equivalent
//!                     submissions execute once, and each candidate gets a
//!                     PASS/FAIL/INVALID verdict with a partial-credit
//!                     score and killed-by-dataset vector
//!   --use-input-db    restrict generated tuples to the script's INSERTs
//!   --minimize        prune datasets that add no kills (greedy set cover)
//!   --no-full-outer   exclude mutations to FULL OUTER JOIN (paper's eval)
//!   --metrics-json F  write a metrics report (spans, counters, histograms)
//!                     to F; everything except the timings_ns section is
//!                     byte-identical across --jobs values
//!   --trace           journal the run and print one `[xdata-trace tN]` line
//!                     per span to stderr at exit
//!   --trace-out F     journal the run's event timeline and write it to F
//!                     as Chrome trace-event JSON (open in Perfetto or
//!                     chrome://tracing); analyze offline with `xdata trace`
//!
//! trace options:
//!   --top K           how many slowest solves to list (default 10)
//!   --validate        structurally validate the file first (balanced
//!                     begin/end, monotonic per-thread timestamps, flow
//!                     starts before steps/finishes)
//!   --folded FILE     also export folded stacks for flamegraph tooling
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use xdata::catalog::DomainCatalog;
use xdata::client::count_arg;
use xdata::core::{minimize_suite, EMPTY_SUITE_VERDICT, PARTIAL_SUITE_MARKER};
use xdata::relalg::mutation::{mutation_space, MutationOptions};
use xdata::solver::Mode;
use xdata::XData;

/// The `--help` text. `scripts/ci.sh` diffs this output against the
/// committed snapshot `scripts/cli_help.txt`, so a flag added to
/// `parse_args` without a line here (or vice versa) fails CI.
const USAGE: &str = "\
xdata — constraint-based test-data generation for killing SQL mutants

usage:
  xdata generate --schema FILE --query SQL [options]
  xdata evaluate --schema FILE --query SQL [options]
  xdata mutants  --schema FILE --query SQL [options]
  xdata grade    --schema FILE --query SQL --candidate SQL [options]
  xdata grade    --schema FILE --query SQL --candidates FILE [options]
  xdata serve    [--listen ADDR] [serve options]
  xdata trace    FILE [--top K] [--validate] [--folded FILE]
  xdata help     (or --help / -h)

options:
  --schema FILE          SQL script: CREATE TABLE + optional INSERT INTO
  --query SQL            the query under test
  --query-file FILE      read --query text from FILE
  --mode MODE            unfold (default) | lazy
  --jobs N               worker threads (default 1; 0 = one per core)
  --timeout-ms N         wall-clock budget for the whole run
  --target-timeout-ms N  wall-clock budget per solve target
  --decision-limit N     solver decision budget per target
  --candidate SQL        single-candidate grading
  --candidates FILE      batch grading, one candidate query per line
  --use-input-db         restrict generated tuples to the script's INSERTs
  --minimize             prune datasets that add no kills (generate only)
  --no-full-outer        exclude mutations to FULL OUTER JOIN
  --metrics-json FILE    write the metrics report JSON to FILE
  --trace                print one line per span to stderr at exit
  --trace-out FILE       write a Chrome trace-event JSON timeline to FILE

serve options:
  --listen ADDR          bind address (default 127.0.0.1:7878; port 0 picks
                         a free port — the bound address is printed)
  --serve-workers N      connection worker threads (default 4)
  --max-line-bytes N     per-frame size cap (default 1048576)
  --max-deadline-ms N    clamp every request's deadline to N ms

trace options:
  --top K                how many slowest solves to list (default 10)
  --validate             structurally validate the trace file first
  --folded FILE          also export folded stacks for flamegraph tooling
";

struct Args {
    command: String,
    schema_path: Option<String>,
    query: Option<String>,
    candidate: Option<String>,
    candidates_file: Option<String>,
    mode: Mode,
    jobs: usize,
    timeout_ms: Option<u64>,
    target_timeout_ms: Option<u64>,
    decision_limit: Option<u64>,
    use_input_db: bool,
    minimize: bool,
    include_full: bool,
    metrics_json: Option<String>,
    trace: bool,
    trace_out: Option<String>,
    // `xdata trace` analysis options.
    trace_file: Option<String>,
    top: usize,
    validate: bool,
    folded: Option<String>,
    // `xdata serve` daemon options.
    listen: String,
    serve_workers: usize,
    max_line_bytes: usize,
    max_deadline_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        schema_path: None,
        query: None,
        candidate: None,
        candidates_file: None,
        mode: Mode::Unfold,
        jobs: 1,
        timeout_ms: None,
        target_timeout_ms: None,
        decision_limit: None,
        use_input_db: false,
        minimize: false,
        include_full: true,
        metrics_json: None,
        trace: false,
        trace_out: None,
        trace_file: None,
        top: 10,
        validate: false,
        folded: None,
        listen: "127.0.0.1:7878".to_string(),
        serve_workers: 4,
        max_line_bytes: xdata::client::protocol::MIN_MAX_FRAME_BYTES,
        max_deadline_ms: None,
    };
    let mut it = std::env::args().skip(1);
    args.command =
        it.next().ok_or("missing command (generate|evaluate|mutants|grade|serve|trace)")?;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--schema" => args.schema_path = Some(it.next().ok_or("--schema needs a file")?),
            "--query" => args.query = Some(it.next().ok_or("--query needs SQL text")?),
            "--query-file" => {
                let p = it.next().ok_or("--query-file needs a file")?;
                let text =
                    std::fs::read_to_string(&p).map_err(|e| format!("reading {p}: {e}"))?;
                args.query = Some(text);
            }
            "--mode" => {
                args.mode = match it.next().as_deref() {
                    Some("unfold") => Mode::Unfold,
                    Some("lazy") => Mode::Lazy,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--jobs" => args.jobs = count_arg(&mut it, &a, "a thread count")?,
            "--timeout-ms" => {
                args.timeout_ms = Some(count_arg(&mut it, &a, "a millisecond count")?)
            }
            "--target-timeout-ms" => {
                args.target_timeout_ms = Some(count_arg(&mut it, &a, "a millisecond count")?)
            }
            "--decision-limit" => {
                args.decision_limit = Some(count_arg(&mut it, &a, "a decision count")?)
            }
            "--candidate" => args.candidate = Some(it.next().ok_or("--candidate needs SQL")?),
            "--candidates" => {
                args.candidates_file = Some(it.next().ok_or("--candidates needs a file")?)
            }
            "--use-input-db" => args.use_input_db = true,
            "--minimize" => args.minimize = true,
            "--no-full-outer" => args.include_full = false,
            "--metrics-json" => {
                args.metrics_json = Some(it.next().ok_or("--metrics-json needs a file")?)
            }
            "--trace" => args.trace = true,
            "--trace-out" => args.trace_out = Some(it.next().ok_or("--trace-out needs a file")?),
            "--top" => args.top = count_arg(&mut it, &a, "a count")?,
            "--validate" => args.validate = true,
            "--folded" => args.folded = Some(it.next().ok_or("--folded needs a file")?),
            "--listen" => args.listen = it.next().ok_or("--listen needs HOST:PORT")?,
            "--serve-workers" => args.serve_workers = count_arg(&mut it, &a, "a thread count")?,
            "--max-line-bytes" => args.max_line_bytes = count_arg(&mut it, &a, "a byte count")?,
            "--max-deadline-ms" => {
                args.max_deadline_ms = Some(count_arg(&mut it, &a, "a millisecond count")?)
            }
            other if args.command == "trace" && !other.starts_with("--") => {
                if args.trace_file.is_some() {
                    return Err(format!("trace takes one trace file, got a second: `{other}`"));
                }
                args.trace_file = Some(other.to_string());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

/// Feature flags this binary was compiled with, for artifact provenance.
fn active_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if cfg!(feature = "chaos") {
        f.push("chaos");
    }
    f
}

/// Why a command stopped early: an error to report, or a write to stdout
/// that failed.
enum Failure {
    Error(String),
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Error(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Failure {
        Failure::Error(e.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Stdout(e)
    }
}

/// Run the command, writing its output to `out`.
fn run(out: &mut impl Write) -> Result<(), Failure> {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h")
        || std::env::args().nth(1).as_deref() == Some("help")
    {
        write!(out, "{USAGE}")?;
        return Ok(());
    }
    let args = parse_args()?;
    if args.command == "serve" {
        return serve_cmd(&args, out);
    }
    if args.command == "trace" {
        // Offline analysis of an existing trace file: no schema, no query,
        // no pipeline run.
        return trace_cmd(&args, out);
    }
    if args.metrics_json.is_some() {
        // Install the recorder with the full canonical key set, so
        // the report schema is identical whatever phases the command runs.
        xdata_obs::install();
        xdata_obs::preseed();
    }
    if args.trace || args.trace_out.is_some() {
        xdata_obs::install_trace();
    }
    let result = dispatch(&args, out);
    if let Some(mut log) = xdata_obs::take_trace() {
        if args.trace {
            eprint!("{}", span_lines(&log));
        }
        if let Some(path) = &args.trace_out {
            log.meta.insert("features".to_string(), active_features().join(","));
            std::fs::write(path, log.to_chrome_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    if let Some(path) = &args.metrics_json {
        if let Some(report) = xdata_obs::take_report() {
            std::fs::write(path, report.to_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    result
}

/// `--trace` output: one `[xdata-trace tN] path X.XXXms — label` line per
/// journaled span, grouped by thread ordinal and in close order within a
/// thread.
fn span_lines(log: &xdata_obs::TraceLog) -> String {
    let mut out = String::new();
    for s in log.span_instances() {
        let label = if s.label.is_empty() { String::new() } else { format!(" — {}", s.label) };
        let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        out.push_str(&format!("[xdata-trace t{}] {} {ms:.3}ms{label}\n", s.tid, s.path));
    }
    out
}

/// The `xdata serve` subcommand: run the persistent daemon until a wire
/// `shutdown` request (or a process signal) stops it.
fn serve_cmd(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    let config = xdata::serve::ServerConfig {
        listen: args.listen.clone(),
        workers: args.serve_workers,
        max_line_bytes: args.max_line_bytes,
        max_deadline_ms: args.max_deadline_ms,
    };
    let server = xdata::serve::Server::bind(config)
        .map_err(|e| format!("binding {}: {e}", args.listen))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Print the *resolved* address (relevant when --listen asked for port
    // 0) and flush eagerly so scripts can parse where to connect.
    writeln!(out, "listening on {addr}")?;
    out.flush()?;
    server.serve().map_err(|e| Failure::Error(format!("serving on {addr}: {e}")))
}

/// Format nanoseconds as fixed-width milliseconds for aligned columns.
fn ms(ns: u64) -> String {
    format!("{:>10.3}ms", ns as f64 / 1e6)
}

/// The `xdata trace` subcommand: load a Chrome-trace JSON file written by
/// `--trace-out` and break it down offline.
fn trace_cmd(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    let path = args
        .trace_file
        .as_deref()
        .ok_or("usage: xdata trace <trace.json> [--top K] [--validate] [--folded FILE]")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    if args.validate {
        let s = xdata_obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "validated: {} events on {} threads, {} spans, {} flow events, metadata {}",
            s.events,
            s.threads,
            s.spans,
            s.flows,
            if s.has_metadata { "present" } else { "absent" }
        )?;
    }
    let log = xdata_obs::parse_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(folded) = &args.folded {
        std::fs::write(folded, log.to_folded()).map_err(|e| format!("writing {folded}: {e}"))?;
        writeln!(out, "folded stacks written to {folded}")?;
    }
    writeln!(out, "trace: {path} ({} events)", log.events.len())?;
    if let (Some(sha), Some(rustc)) = (log.meta.get("git_sha"), log.meta.get("rustc")) {
        let features = log.meta.get("features").filter(|f| !f.is_empty());
        writeln!(
            out,
            "build: git {sha}, {rustc}{}",
            features.map(|f| format!(", features [{f}]")).unwrap_or_default()
        )?;
    }
    let a = log.analyze(args.top);

    // The sweep construction tiles the root envelope exactly, so the
    // segment sum always equals the root duration; assert rather than
    // silently printing numbers that disagree.
    let total: u64 = a.critical_path.iter().map(|s| s.dur_ns).sum();
    if total != a.root_dur_ns {
        return Err(format!(
            "critical path total {total}ns does not tile the root span ({}ns) — corrupt trace?",
            a.root_dur_ns
        )
        .into());
    }
    writeln!(
        out,
        "\ncritical path ({} segments, total {} = root span duration):",
        a.critical_path.len(),
        ms(total).trim_start()
    )?;
    for seg in &a.critical_path {
        let label = if seg.label.is_empty() { String::new() } else { format!(" — {}", seg.label) };
        writeln!(out, "  {}  {}{label}", ms(seg.dur_ns), seg.path)?;
    }

    let breakdown = |out: &mut dyn Write, title: &str, rows: &[(String, u64, u64)]| {
        writeln!(out, "\n{title}:")?;
        if rows.is_empty() {
            writeln!(out, "  (none)")?;
        }
        for (key, ns, n) in rows {
            writeln!(out, "  {}  x{n:<4} {key}", ms(*ns))?;
        }
        io::Result::Ok(())
    };
    breakdown(out, "per-target solve time", &a.per_target)?;
    breakdown(out, "per-mutant-class evaluation time", &a.per_class)?;

    writeln!(out, "\ntop {} slowest solves:", args.top)?;
    if a.slowest.is_empty() {
        writeln!(out, "  (none)")?;
    }
    for s in &a.slowest {
        writeln!(out, "  {}  t{} {}", ms(s.end_ns - s.start_ns), s.tid, s.label)?;
    }
    Ok(())
}

fn dispatch(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    // Reject a bad command before demanding --schema/--query, so the user
    // sees the command list rather than a missing-flag error.
    if !matches!(args.command.as_str(), "generate" | "evaluate" | "mutants" | "grade") {
        return Err(format!(
            "unknown command `{}` (generate|evaluate|mutants|grade|serve|trace)",
            args.command
        )
        .into());
    }
    let schema_path = args.schema_path.as_deref().ok_or("--schema is required")?;
    let script = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("reading {schema_path}: {e}"))?;
    let (schema, data) =
        xdata::sql::parse_script(&script).map_err(|e| e.render(&script))?;
    let sql = args.query.as_deref().ok_or("--query is required")?;

    let mut xd = XData::new(schema.clone()).with_mode(args.mode).with_jobs(args.jobs);
    if let Some(ms) = args.timeout_ms {
        xd = xd.with_deadline_ms(ms);
    }
    if let Some(ms) = args.target_timeout_ms {
        xd = xd.with_target_deadline_ms(ms);
    }
    if let Some(limit) = args.decision_limit {
        xd = xd.with_decision_limit(limit);
    }
    if args.use_input_db {
        if data.is_empty() {
            return Err("--use-input-db: the schema script has no INSERT statements".into());
        }
        xd = xd.with_input_db(data.clone());
    } else if !data.is_empty() {
        // Use the data's values as domains (the paper's default, §VI-C).
        xd = xd.with_domains(DomainCatalog::from_dataset(&schema, &data));
    }

    let mopts = MutationOptions { include_full: args.include_full, tree_limit: 20_000, ..Default::default() };

    match args.command.as_str() {
        "generate" => {
            let run = xd.generate_for(sql).map_err(|e| e.to_string())?;
            let suite = if args.minimize {
                let space = run.mutants(mopts);
                minimize_suite(&run.query, &run.suite, &space, &schema)
                    .map_err(|e| e.to_string())?
            } else {
                run.suite.clone()
            };
            write!(out, "{suite}")?;
            Ok(())
        }
        "evaluate" => {
            let (run, space, report) =
                xd.evaluate(sql, mopts).map_err(|e| e.to_string())?;
            // The listing lives in xdata-serve so the wire protocol's
            // `evaluate` output and this terminal output cannot drift.
            let listing = xdata::serve::render_evaluate(&run.query, &run.suite, &space, &report);
            write!(out, "{listing}")?;
            Ok(())
        }
        "mutants" => {
            // The mutation space needs only the normalized query, not a suite.
            let query = xd.normalize(sql).map_err(|e| e.to_string())?;
            let space = mutation_space(&query, mopts);
            writeln!(out, "{} mutants ({} raw):", space.len(), space.raw_len())?;
            for m in space.iter() {
                writeln!(out, "  {}", m.describe(&query))?;
            }
            Ok(())
        }
        "grade" => {
            if let Some(path) = &args.candidates_file {
                // Batch mode: one submission per line; the suite is
                // generated once and shared across the whole file.
                let candidates = xdata::client::read_candidates(path)?;
                let report = xd.grade_batch(sql, &candidates).map_err(|e| e.to_string())?;
                write!(out, "{}", report.render())?;
                return Ok(());
            }
            let candidate =
                args.candidate.as_deref().ok_or("--candidate or --candidates is required")?;
            match xd.grade(sql, candidate).map_err(|e| e.to_string())? {
                xdata::Grade::AgreesOnSuite { datasets, partial } => {
                    let marker = if partial { PARTIAL_SUITE_MARKER } else { "" };
                    writeln!(
                        out,
                        "PASS: candidate agrees with the reference on all {datasets} datasets{marker}"
                    )?;
                }
                xdata::Grade::Different { dataset_index, dataset, expected, got } => {
                    writeln!(out, "FAIL: differs on dataset {dataset_index}:")?;
                    write!(out, "{dataset}")?;
                    writeln!(out, "expected result:\n{expected}")?;
                    writeln!(out, "candidate result:\n{got}")?;
                }
                xdata::Grade::Unevaluated => writeln!(out, "{EMPTY_SUITE_VERDICT}")?,
            }
            Ok(())
        }
        // Bad names are rejected at the top of dispatch; this arm only
        // backstops a command added there but not matched here.
        other => {
            Err(format!("unknown command `{other}` (generate|evaluate|mutants|grade|trace)").into())
        }
    }
}

fn main() -> ExitCode {
    let mut out = io::stdout().lock();
    let message = match run(&mut out).and_then(|()| out.flush().map_err(Failure::Stdout)) {
        Ok(()) => return ExitCode::SUCCESS,
        // The reader closed stdout early (`xdata ... | head`): it wants no
        // more output, and there is nothing to report.
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => {
            return ExitCode::SUCCESS
        }
        Err(Failure::Stdout(e)) => e.to_string(),
        Err(Failure::Error(e)) => e,
    };
    eprintln!("xdata: {message}");
    ExitCode::FAILURE
}
