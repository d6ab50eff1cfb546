//! `xdata-client` — shell front end for the `xdata serve` wire protocol.
//!
//! ```text
//! xdata-client --addr HOST:PORT ping
//! xdata-client --addr HOST:PORT generate    --schema FILE --query SQL [options]
//! xdata-client --addr HOST:PORT evaluate    --schema FILE --query SQL [options]
//! xdata-client --addr HOST:PORT grade-batch --schema FILE --query SQL --candidates FILE [options]
//! xdata-client --addr HOST:PORT shutdown
//!
//! options:
//!   --tenant NAME       warm-cache namespace (default "default")
//!   --deadline-ms N     per-request wall-clock budget
//!   --jobs N            worker threads inside the request
//!   --metrics FILE      write the per-request metrics report JSON to FILE
//!   --trace-out FILE    write the per-request Chrome trace JSON to FILE
//! ```
//!
//! The response's `output` goes to stdout byte-for-byte; a server error
//! frame prints its code and message to stderr and exits nonzero.

use std::io::{self, Write};
use std::process::ExitCode;

use xdata_client::{count_arg, Client, ClientError, RequestBody, WireOptions};
use xdata_client::{EvaluateParams, GenerateParams, GradeBatchParams};

struct Args {
    addr: String,
    command: String,
    schema_path: Option<String>,
    query: Option<String>,
    candidates_file: Option<String>,
    tenant: String,
    deadline_ms: Option<u64>,
    jobs: usize,
    metrics: Option<String>,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        command: String::new(),
        schema_path: None,
        query: None,
        candidates_file: None,
        tenant: "default".to_string(),
        deadline_ms: None,
        jobs: 1,
        metrics: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = it.next().ok_or("--addr needs HOST:PORT")?,
            "--schema" => args.schema_path = Some(it.next().ok_or("--schema needs a file")?),
            "--query" => args.query = Some(it.next().ok_or("--query needs SQL text")?),
            "--candidates" => {
                args.candidates_file = Some(it.next().ok_or("--candidates needs a file")?)
            }
            "--tenant" => args.tenant = it.next().ok_or("--tenant needs a name")?,
            "--deadline-ms" => {
                args.deadline_ms = Some(count_arg(&mut it, &a, "a millisecond count")?)
            }
            "--jobs" => args.jobs = count_arg(&mut it, &a, "a thread count")?,
            "--metrics" => args.metrics = Some(it.next().ok_or("--metrics needs a file")?),
            "--trace-out" => args.trace_out = Some(it.next().ok_or("--trace-out needs a file")?),
            other if args.command.is_empty() && !other.starts_with("--") => {
                args.command = other.to_string();
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".into());
    }
    if args.command.is_empty() {
        return Err("missing command (ping|generate|evaluate|grade-batch|shutdown)".into());
    }
    Ok(args)
}

/// Send the request and return the output to print.
fn run() -> Result<String, String> {
    let args = parse_args()?;
    let mut client = Client::connect(&args.addr)
        .map_err(|e| format!("connecting to {}: {e}", args.addr))?
        .with_tenant(&args.tenant);

    let schema = || -> Result<String, String> {
        let path = args.schema_path.as_deref().ok_or("--schema is required")?;
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    };
    let query = || args.query.clone().ok_or("--query is required".to_string());
    let options = WireOptions { jobs: args.jobs, ..WireOptions::default() };

    let body = match args.command.as_str() {
        "ping" => RequestBody::Ping,
        "shutdown" => RequestBody::Shutdown,
        "generate" => RequestBody::Generate(GenerateParams {
            schema: schema()?,
            query: query()?,
            options,
        }),
        "evaluate" => RequestBody::Evaluate(EvaluateParams {
            schema: schema()?,
            query: query()?,
            options,
        }),
        "grade-batch" => {
            let path = args.candidates_file.as_deref().ok_or("--candidates is required")?;
            let candidates = xdata_client::read_candidates(path)?;
            RequestBody::GradeBatch(GradeBatchParams {
                schema: schema()?,
                query: query()?,
                candidates,
                options,
            })
        }
        other => {
            return Err(format!(
                "unknown command `{other}` (ping|generate|evaluate|grade-batch|shutdown)"
            ))
        }
    };

    let mut req = client.build(body);
    if let Some(ms) = args.deadline_ms {
        req = req.with_deadline_ms(ms);
    }
    if args.metrics.is_some() {
        req = req.with_metrics();
    }
    if args.trace_out.is_some() {
        req = req.with_trace();
    }
    let payload = client.request(&req).map_err(|e| match e {
        ClientError::Server(err) => format!("server error [{}]: {}", err.code, err.message),
        other => other.to_string(),
    })?;
    if let (Some(path), Some(metrics)) = (&args.metrics, &payload.metrics_json) {
        std::fs::write(path, metrics).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let (Some(path), Some(trace)) = (&args.trace_out, &payload.trace_json) {
        std::fs::write(path, trace).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(payload.output)
}

fn main() -> ExitCode {
    let written = run().and_then(|output| {
        let mut out = io::stdout().lock();
        match out.write_all(output.as_bytes()).and_then(|()| out.flush()) {
            // The reader closed stdout early (`xdata-client ... | head`): it
            // wants no more output, and there is nothing to report.
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => Err(e.to_string()),
            _ => Ok(()),
        }
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xdata-client: {e}");
            ExitCode::FAILURE
        }
    }
}
