//! The `serve_mixed` workload: one closed-loop client, on one connection,
//! against an `xdata serve` daemon running in a child process.
//!
//! The daemon is this binary re-executed with `--serve-child`, so the
//! bench needs no other executable and the daemon's memory is its own. It
//! inherits the bench's one-CPU affinity: client and daemon worker hand
//! each request back and forth on one CPU, and never wait for an idle
//! virtual CPU to wake. The client draws a seeded mix of warm `generate`
//! (its own tenant, four university queries), `evaluate` and `grade_batch`
//! requests in the proportions 70:10:10, and sends a cold `generate` on a
//! fresh tenant on a fixed schedule (every [`COLD_EVERY`]), about one
//! request in ten. New tenants thus arrive at a fixed rate, and the
//! daemon's warm-cache growth depends on run length, not on how fast the
//! daemon answers. One request in twenty asks for a metrics report, which
//! takes the daemon's exclusive metrics gate.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xdata_catalog::{DomainCatalog, SplitMix64};
use xdata_client::protocol::{
    EvaluateParams, GenerateParams, GradeBatchParams, Payload, Request, RequestBody, Response,
    WireOptions,
};
use xdata_core::{generate, grade_batch, GenOptions};
use xdata_engine::exec::JoinStrategy;
use xdata_relalg::mutation::{mutation_space, MutationOptions};
use xdata_relalg::normalize;
use xdata_serve::{Server, ServerConfig};
use xdata_sql::parse_query;

use crate::calib::{Calibration, Probe, Timing};
use crate::stats::{ratio, Summary};
use crate::Budget;

const SCHEMA: &str = include_str!("../../examples/university.sql");
const SUBMISSIONS: &str = include_str!("../../examples/submissions.sql");

/// The warm `generate` queries; `evaluate` uses the first two and
/// `grade_batch` grades `examples/submissions.sql` against the second.
const QUERIES: [&str; 4] = [
    "SELECT name FROM instructor WHERE salary > 75000",
    "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id",
    "SELECT name FROM instructor WHERE dept_id = 7 AND salary < 90000",
    "SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id AND t.year > 2005",
];
const EVALUATED: usize = 2;
const GRADE_REFERENCE: usize = 1;

/// Daemon workers. A worker serves one connection for its whole life; the
/// second one answers the final metrics `ping` while the first may still
/// be closing the client's connection.
const WORKERS: usize = 2;
/// The client sends a cold `generate` this often: 200 new tenants per
/// second, about 10% of the client's raw throughput on the 2-vCPU Xeon VM
/// the ledger was defined on. The rate stays fixed, so a faster daemon
/// sees a smaller cold share.
const COLD_EVERY: Duration = Duration::from_millis(5);
/// A timed window probes machine speed this often, between requests.
const PROBE_EVERY: Duration = Duration::from_millis(20);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    WarmGenerate,
    ColdGenerate,
    Evaluate,
    GradeBatch,
}

/// The in-process outputs the daemon must reproduce byte for byte.
pub struct Expected {
    generate: Vec<String>,
    evaluate: Vec<String>,
    grade: String,
    candidates: Vec<String>,
    pub datasets_per_suite: f64,
    pub mutant_kill_ratio: f64,
}

impl Expected {
    pub fn compute() -> Result<Expected, String> {
        let (schema, data) = xdata_sql::parse_script(SCHEMA).map_err(|e| e.to_string())?;
        if !data.is_empty() {
            return Err("university.sql grew INSERTs; mirror the domain setup".into());
        }
        let domains = DomainCatalog::defaults(&schema);
        let opts = GenOptions::default();
        let wire = WireOptions::default();
        // The daemon's `evaluate` mutation options.
        let mopts = MutationOptions {
            include_full: wire.include_full,
            tree_limit: 20_000,
            ..Default::default()
        };
        let (mut generated, mut evaluated) = (Vec::new(), Vec::new());
        let (mut datasets, mut mutants, mut killed) = (0usize, 0usize, 0usize);
        for (i, sql) in QUERIES.iter().enumerate() {
            let q = normalize(&parse_query(sql).map_err(|e| e.to_string())?, &schema)
                .map_err(|e| e.to_string())?;
            let suite = generate(&q, &schema, &domains, &opts).map_err(|e| e.to_string())?;
            datasets += suite.datasets.len();
            generated.push(suite.to_string());
            if i < EVALUATED {
                let space = mutation_space(&q, mopts);
                let report = xdata_core::kill::kill_report(&q, &space, &suite.data(), &schema)
                    .map_err(|e| e.to_string())?;
                mutants += space.len();
                killed += report.killed_count();
                evaluated.push(xdata_serve::render_evaluate(&q, &suite, &space, &report));
            }
        }
        let candidates: Vec<String> = SUBMISSIONS
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect();
        let grade = grade_batch(
            QUERIES[GRADE_REFERENCE],
            &candidates,
            &schema,
            &domains,
            &opts,
            JoinStrategy::Hash,
        )
        .map_err(|e| e.to_string())?
        .render();
        Ok(Expected {
            generate: generated,
            evaluate: evaluated,
            grade,
            candidates,
            datasets_per_suite: datasets as f64 / QUERIES.len() as f64,
            mutant_kill_ratio: ratio(killed as f64, mutants as f64),
        })
    }

    /// Every expected output, in a fixed order, for the output digest.
    pub fn outputs(&self) -> impl Iterator<Item = &str> {
        self.generate
            .iter()
            .chain(&self.evaluate)
            .chain(std::iter::once(&self.grade))
            .map(String::as_str)
    }

    fn body(&self, kind: Kind, q: usize) -> (RequestBody, &str) {
        let schema = SCHEMA.to_string();
        let options = WireOptions::default();
        match kind {
            Kind::WarmGenerate | Kind::ColdGenerate => (
                RequestBody::Generate(GenerateParams {
                    schema,
                    query: QUERIES[q].to_string(),
                    options,
                }),
                &self.generate[q],
            ),
            Kind::Evaluate => {
                let q = q % EVALUATED;
                (
                    RequestBody::Evaluate(EvaluateParams {
                        schema,
                        query: QUERIES[q].to_string(),
                        options,
                    }),
                    &self.evaluate[q],
                )
            }
            Kind::GradeBatch => (
                RequestBody::GradeBatch(GradeBatchParams {
                    schema,
                    query: QUERIES[GRADE_REFERENCE].to_string(),
                    candidates: self.candidates.clone(),
                    options,
                }),
                &self.grade,
            ),
        }
    }
}

/// The daemon child. Dropping it kills a daemon that was not shut down.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("--serve-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        // Owned from here on, so every error below still stops the child.
        let mut daemon = Daemon { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let mut line = String::new();
        let stdout = daemon.child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut line).map_err(|e| e.to_string())?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not report its address: {line:?}"))?;
        Ok(daemon)
    }

    /// The daemon-lifetime `serve.*` counters, from a `ping` with metrics.
    fn serve_counters(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let mut conn = Conn::connect(self.addr)?;
        let payload = conn.call(Request::new(1, RequestBody::Ping).with_metrics())?;
        let json = xdata_obs::parse_json(payload.metrics_json.as_deref().unwrap_or(""))
            .map_err(|e| format!("ping metrics: {e}"))?;
        let counters = json.get("counters").ok_or("ping metrics carry no counters")?;
        Ok(["serve.requests", "serve.errors", "serve.warm.memo_entries", "serve.warm.sessions"]
            .into_iter()
            .map(|k| (k, counters.get(k).and_then(xdata_obs::Json::as_u64).unwrap_or(0) as f64))
            .collect())
    }

    /// Graceful stop over the wire, then wait for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        Conn::connect(self.addr)?.call(Request::new(1, RequestBody::Shutdown))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `--serve-child` entry point: serve on an ephemeral loopback port
/// until a `shutdown` request, or until the parent's end of stdin closes,
/// so that a killed bench never leaves a daemon behind.
pub fn serve_child() -> Result<(), String> {
    let config = ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    println!("listening on {}", server.local_addr().map_err(|e| e.to_string())?);
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0);
    });
    server.serve().map_err(|e| e.to_string())
}

/// One blocking connection with the client side of the wire split into
/// spans: encode, round trip, decode.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: stream })
    }

    fn call(&mut self, req: Request) -> Result<Payload, String> {
        let line = {
            let _s = xdata_obs::span("ledger/encode");
            let mut line = req.encode();
            line.push('\n');
            line
        };
        let mut resp_line = String::new();
        {
            let _s = xdata_obs::span("ledger/roundtrip");
            self.writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
            if self.reader.read_line(&mut resp_line).map_err(|e| e.to_string())? == 0 {
                return Err("the daemon closed the connection".to_string());
            }
        }
        let resp = {
            let _s = xdata_obs::span("ledger/decode");
            Response::decode(resp_line.trim_end_matches('\n'))?
        };
        if resp.id != req.id {
            return Err(format!("response id {} for request {}", resp.id, req.id));
        }
        resp.result.map_err(|e| format!("server: {} — {}", e.code, e.message))
    }
}

/// The client: one connection and one warm tenant.
struct Client {
    conn: Conn,
    next_id: u64,
    cold_tenants: u64,
}

impl Client {
    fn request(
        &mut self,
        expected: &Expected,
        kind: Kind,
        q: usize,
        metrics: bool,
    ) -> Result<Sample, Outcome> {
        let (body, want) = expected.body(kind, q);
        self.next_id += 1;
        let tenant = if kind == Kind::ColdGenerate {
            self.cold_tenants += 1;
            format!("cold-{}", self.cold_tenants)
        } else {
            "warm".to_string()
        };
        let mut req = Request::new(self.next_id, body).with_tenant(&tenant);
        if metrics {
            req = req.with_metrics();
        }
        let start = Instant::now();
        let result = {
            let _op = xdata_obs::span("ledger/op");
            self.conn.call(req)
        };
        let rtt_ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Err(e) => Err(Outcome::Failed(e)),
            Ok(p) if p.output != want => Err(Outcome::Wrong(format!(
                "request {}: the wire output differs from the in-process output",
                self.next_id
            ))),
            Ok(p) => Ok(Sample {
                kind,
                metrics,
                at_s: 0.0,
                rtt_ms,
                server_ms: p.elapsed_ns as f64 / 1e6,
                factor: 1.0,
            }),
        }
    }
}

enum Outcome {
    Failed(String),
    Wrong(String),
}

/// One completed request. The measuring window sets `at_s`, and `factor`
/// once its calibration is complete; times are raw.
struct Sample {
    kind: Kind,
    metrics: bool,
    /// Seconds into the window the request was sent.
    at_s: f64,
    rtt_ms: f64,
    server_ms: f64,
    factor: f64,
}

/// A running daemon with the client connected and its tenant warm.
pub struct Session {
    daemon: Daemon,
    client: Client,
}

/// Spawn the daemon, check one request of every kind against the
/// in-process outputs, and warm the client's tenant.
pub fn start(expected: &Expected) -> Result<Session, String> {
    let daemon = Daemon::spawn()?;
    let mut client = Client { conn: Conn::connect(daemon.addr)?, next_id: 0, cold_tenants: 0 };
    let mut plan: Vec<(Kind, usize)> =
        (0..QUERIES.len()).map(|q| (Kind::WarmGenerate, q)).collect();
    plan.extend((0..EVALUATED).map(|q| (Kind::Evaluate, q)));
    plan.extend([(Kind::GradeBatch, 0), (Kind::ColdGenerate, 0)]);
    for (kind, q) in plan {
        client.request(expected, kind, q, false).map_err(|o| match o {
            Outcome::Failed(e) | Outcome::Wrong(e) => format!("serve parity pass: {e}"),
        })?;
    }
    Ok(Session { daemon, client })
}

/// What one measured window of the mix produced. Throughput counts every
/// request completed over the window's wall time less the probe pauses.
pub struct Window {
    pub timing: Timing,
    samples: Vec<Sample>,
}

impl Window {
    /// Round-trip split and latency by request kind, scaled.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let p = |f: &dyn Fn(&Sample) -> bool| {
            Summary::of(
                &self
                    .samples
                    .iter()
                    .filter(|s| f(s))
                    .map(|s| s.rtt_ms * s.factor)
                    .collect::<Vec<_>>(),
            )
        };
        let n = self.samples.len() as f64;
        let server: f64 = self.samples.iter().map(|s| s.server_ms * s.factor).sum();
        let rtt: f64 = self.samples.iter().map(|s| s.rtt_ms * s.factor).sum();
        vec![
            ("serve.server_ms", ratio(server, n)),
            ("serve.outside_ms", ratio(rtt - server, n)),
            ("serve.lat.warm_generate_p50_ms", p(&|s| s.kind == Kind::WarmGenerate).p50),
            ("serve.lat.cold_generate_p50_ms", p(&|s| s.kind == Kind::ColdGenerate).p50),
            ("serve.lat.evaluate_p50_ms", p(&|s| s.kind == Kind::Evaluate).p50),
            ("serve.lat.grade_batch_p50_ms", p(&|s| s.kind == Kind::GradeBatch).p50),
            ("serve.lat.metrics_on_p50_ms", p(&|s| s.metrics).p50),
            ("serve.lat.metrics_off_p99_ms", p(&|s| !s.metrics).p99),
        ]
    }
}

/// Run the mix until the budget is spent, probing machine speed every
/// [`PROBE_EVERY`] between two requests, while the daemon has nothing in
/// flight.
pub fn run_window(
    session: &mut Session,
    expected: &Expected,
    seed: u64,
    budget: Budget,
) -> Result<Window, String> {
    let client = &mut session.client;
    let mut rng = SplitMix64::new(seed ^ (0x5e7e_u64 << 32));
    let mut calib = Calibration::new(Probe::Integer);
    let (mut samples, mut failed, mut sent) = (Vec::new(), 0u64, 0usize);
    let start = Instant::now();
    let mut next_cold = start;
    let mut paused = calib.probe(start);
    let mut next_probe = Instant::now() + PROBE_EVERY;
    while match budget {
        Budget::Seconds(d) => start.elapsed() < d,
        Budget::Ops(n) => sent < n,
    } {
        if Instant::now() >= next_probe {
            paused += calib.probe(start);
            next_probe = Instant::now() + PROBE_EVERY;
        }
        // Every draw happens on every request, so the seed fixes the
        // sequence whatever the timing.
        let draw = rng.below(90);
        let q = rng.below(QUERIES.len());
        let metrics = rng.chance(1, 20);
        let now = Instant::now();
        let kind = if now >= next_cold {
            // Slots missed during a stall are skipped, not sent back to
            // back after it.
            next_cold = (next_cold + COLD_EVERY).max(now + COLD_EVERY / 2);
            Kind::ColdGenerate
        } else if draw < 70 {
            Kind::WarmGenerate
        } else if draw < 80 {
            Kind::Evaluate
        } else {
            Kind::GradeBatch
        };
        sent += 1;
        let at_s = start.elapsed().as_secs_f64();
        match client.request(expected, kind, q, metrics) {
            Ok(sample) => samples.push(Sample { at_s, ..sample }),
            Err(Outcome::Failed(e)) => {
                eprintln!("serve_mixed: request failed: {e}");
                failed += 1;
            }
            Err(Outcome::Wrong(e)) => return Err(e),
        }
    }
    let busy_s = start.elapsed().saturating_sub(paused).as_secs_f64();
    calib.probe(start);
    for s in &mut samples {
        s.factor = calib.factor_at(s.at_s);
    }
    let pairs: Vec<(f64, f64)> = samples.iter().map(|s| (s.rtt_ms, s.factor)).collect();
    let attempted = samples.len() as u64 + failed;
    let timing = Timing::new(attempted, failed, &pairs, busy_s, calib.median_probe_ms());
    Ok(Window { timing, samples })
}

/// What the daemon reports when a session ends.
pub struct Final {
    pub peak_rss_mb: f64,
    pub counters: Vec<(&'static str, f64)>,
}

/// Close the client's connection, read the daemon's counters and peak
/// memory, and stop it.
pub fn stop(session: Session) -> Result<Final, String> {
    let Session { daemon, client } = session;
    drop(client);
    let counters = daemon.serve_counters()?;
    let peak_rss_mb = crate::peak_rss_mb(&format!("/proc/{}/status", daemon.child.id()));
    daemon.shutdown()?;
    Ok(Final { peak_rss_mb, counters })
}
