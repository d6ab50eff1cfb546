//! Loopback integration tests for the persistent service mode:
//! `xdata-serve` daemon + `xdata-client` over a real TCP socket on an
//! ephemeral port.
//!
//! The contract under test is the serve mode's whole reason to exist:
//! **the daemon answers with exactly the bytes the batch pipeline
//! produces** — warm caches, tenant namespaces, concurrent clients, and
//! mid-request deadlines change latency, never output. Plus the framing
//! edges a long-running socket server owes its callers: malformed and
//! oversized frames get typed error responses (not hangs, not torn
//! frames), and deadline expiry degrades a response exactly like the
//! batch CLI degrades a run.
//!
//! Per-request metrics and traces run here beside the other daemons: a
//! request's recorder is bound to the thread serving it and to that
//! thread's pool workers, so no other daemon, request or in-process run
//! leaks into its report.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use xdata::client::{
    Client, ErrorCode, GenerateParams, GradeBatchParams, Payload, Request, RequestBody, Response,
    WireOptions,
};
use xdata::relalg::mutation::MutationOptions;
use xdata::serve::{render_evaluate, Server, ServerConfig};
use xdata::XData;

const SCHEMA: &str = include_str!("../examples/university.sql");
const QUERY: &str = "SELECT name FROM instructor WHERE salary > 75000";
const JOIN_QUERY: &str =
    "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id";
/// Plans targets in two skeleton classes, so `jobs: 2` solves them on two
/// pool workers.
const AGG_QUERY: &str = "SELECT dept_id, SUM(salary) FROM instructor GROUP BY dept_id";

fn spawn_default() -> xdata::serve::ServerHandle {
    Server::bind(ServerConfig::default()).expect("bind ephemeral port").spawn().expect("spawn")
}

/// The in-process pipeline configured exactly as the handler configures it
/// for `SCHEMA` (no INSERTs, so default domains) and `jobs`.
fn in_process(jobs: usize) -> XData {
    let (schema, data) = xdata::sql::parse_script(SCHEMA).expect("example schema parses");
    assert!(data.is_empty(), "university.sql grew INSERTs; mirror the domain setup here");
    XData::new(schema).with_jobs(jobs)
}

/// Send one raw request line on a fresh connection and decode the reply.
fn send_line(addr: std::net::SocketAddr, line: &str) -> Response {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(line.as_bytes()).expect("write");
    s.write_all(b"\n").expect("write");
    let mut r = BufReader::new(s);
    let mut resp = String::new();
    r.read_line(&mut resp).expect("read");
    Response::decode(resp.trim_end()).expect("responses are valid frames")
}

/// A `generate` request body for `query` on `SCHEMA`.
fn generate(query: &str, options: WireOptions) -> RequestBody {
    let (schema, query) = (SCHEMA.to_string(), query.to_string());
    RequestBody::Generate(GenerateParams { schema, query, options })
}

/// A timing-stripped report without its `serve.*` lines, which carry
/// daemon-lifetime totals by design.
fn drop_serve_lines(report: &str) -> String {
    report.lines().filter(|l| !l.contains("\"serve.")).collect::<Vec<_>>().join("\n")
}

fn mopts() -> MutationOptions {
    // The handler's fixed mutation settings (same as the CLI).
    MutationOptions { include_full: true, tree_limit: 20_000, ..Default::default() }
}

#[test]
fn wire_output_is_byte_identical_to_in_process_for_every_method() {
    let server = spawn_default();
    let mut client = Client::connect(server.addr()).expect("connect");

    for jobs in [1, 2] {
        let opts = WireOptions { jobs, ..WireOptions::default() };
        let xd = in_process(jobs);

        let wire = client.generate(SCHEMA, QUERY, opts.clone()).expect("generate ok");
        let run = xd.generate_for(QUERY).expect("in-process generate");
        assert_eq!(wire.output, run.suite.to_string(), "generate bytes (jobs={jobs})");

        let wire = client.evaluate(SCHEMA, QUERY, opts.clone()).expect("evaluate ok");
        let (run, space, report) = xd.evaluate(QUERY, mopts()).expect("in-process evaluate");
        assert_eq!(
            wire.output,
            render_evaluate(&run.query, &run.suite, &space, &report),
            "evaluate bytes (jobs={jobs})"
        );

        let candidates = vec![
            "SELECT i.name, t.course_id FROM teaches t, instructor i WHERE t.id = i.id"
                .to_string(),
            "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id"
                .to_string(),
            "SELECT FROM WHERE".to_string(),
        ];
        let wire =
            client.grade_batch(SCHEMA, JOIN_QUERY, &candidates, opts).expect("grade_batch ok");
        let report = xd.grade_batch(JOIN_QUERY, &candidates).expect("in-process grade_batch");
        assert_eq!(wire.output, report.render(), "grade_batch bytes (jobs={jobs})");
    }
    server.shutdown().expect("clean shutdown");
}

/// Warm state is a latency optimization, not a semantic one: the second
/// identical request replays memoized solves but must return the same
/// bytes, and `ping` shows the cache actually populating.
#[test]
fn warm_repeat_requests_return_identical_bytes() {
    let server = spawn_default();
    let mut client = Client::connect(server.addr()).expect("connect");

    let before = client.ping().expect("ping");
    assert!(before.output.contains("warm memo entries 0"), "fresh daemon: {}", before.output);

    let cold = client.generate(SCHEMA, QUERY, WireOptions::default()).expect("cold");
    let warm = client.generate(SCHEMA, QUERY, WireOptions::default()).expect("warm");
    assert_eq!(cold.output, warm.output, "warm replay changed output bytes");

    let after = client.ping().expect("ping");
    assert!(!after.output.contains("warm memo entries 0"), "cache never populated: {}", after.output);
    server.shutdown().expect("clean shutdown");
}

/// Concurrent clients on distinct tenants: every response carries the
/// same bytes the single-client run produced. Tenants namespace the warm
/// cache, so cross-tenant interleaving exercises disjoint salt spaces
/// against one shared memo map.
#[test]
fn concurrent_clients_are_deterministic() {
    let server = spawn_default();
    let mut reference = Client::connect(server.addr()).expect("connect");
    let expected = reference.generate(SCHEMA, QUERY, WireOptions::default()).expect("ref").output;

    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr)
                    .expect("connect")
                    .with_tenant(&format!("tenant-{i}"));
                for _ in 0..2 {
                    let got = c.generate(SCHEMA, QUERY, WireOptions::default()).expect("gen");
                    assert_eq!(got.output, expected, "client {i} diverged");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown().expect("clean shutdown");
}

/// Concurrent clients on the *same* tenant and query: the four first
/// requests start together and race cold on one warm-cache namespace,
/// each committing the solves the others are still computing, and the
/// second ones replay them. Half the clients ask for `jobs: 2`. Every
/// reply must carry the single-client bytes.
#[test]
fn concurrent_clients_on_one_tenant_are_deterministic() {
    let server = spawn_default();
    let addr = server.addr();
    let expected = Client::connect(addr)
        .expect("connect")
        .with_tenant("solo")
        .generate(SCHEMA, JOIN_QUERY, WireOptions::default())
        .expect("single-client generate")
        .output;
    let start = std::sync::Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let expected = expected.clone();
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect").with_tenant("shared");
                let opts = WireOptions { jobs: 1 + i % 2, ..WireOptions::default() };
                start.wait();
                for round in 0..2 {
                    let got = c.generate(SCHEMA, JOIN_QUERY, opts.clone()).expect("generate");
                    assert_eq!(got.output, expected, "client {i} diverged in round {round}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown().expect("clean shutdown");
}

/// A request with `metrics` set gets a per-request report whose
/// timing-stripped bytes match the in-process recorder's — modulo the
/// `serve.*` lines, which carry daemon-lifetime totals by design.
#[test]
fn first_request_metrics_match_in_process_modulo_serve_counters() {
    let server = spawn_default();
    let mut client = Client::connect(server.addr()).expect("connect");
    let req = client.build(generate(QUERY, WireOptions::default())).with_metrics();
    let payload = client.request(&req).expect("generate ok");
    let wire_metrics = payload.metrics_json.expect("metrics requested");
    server.shutdown().expect("clean shutdown");

    xdata::obs::install();
    xdata::obs::preseed();
    in_process(1).generate_for(QUERY).expect("in-process generate");
    let local = xdata::obs::take_report().expect("recorder installed");

    assert_eq!(
        drop_serve_lines(&xdata::obs::strip_timings(&wire_metrics)),
        drop_serve_lines(&local.to_json_stripped()),
        "wire metrics diverged from the in-process recorder"
    );
    // And the serve.* totals themselves are the fresh-daemon values.
    assert!(wire_metrics.contains("\"serve.requests\": 1"), "lifetime totals missing");
}

/// Observed runs record only their own events. Two daemons answer
/// metrics-on `generate` requests, and one of them a trace-on request,
/// each on a fresh tenant; a third client keeps one daemon busy with
/// unobserved requests; and this thread records in-process runs all the
/// while. Every report (less its `serve.*` lines) and the trace's
/// structure equal the same run recorded alone.
#[test]
fn concurrent_observed_runs_record_only_their_own_events() {
    const ROUNDS: usize = 6;
    let local_report = || {
        xdata::obs::install();
        xdata::obs::preseed();
        in_process(2).generate_for(AGG_QUERY).expect("in-process generate");
        drop_serve_lines(&xdata::obs::take_report().expect("recorder installed").to_json_stripped())
    };
    let solo_report = &local_report();
    xdata::obs::install_trace();
    in_process(2).generate_for(AGG_QUERY).expect("in-process generate");
    let solo_trace = &xdata::obs::take_trace().expect("journal installed").to_structure();

    let observed = |addr, tenant: &str, metrics: bool| -> Payload {
        let mut client = Client::connect(addr).expect("connect").with_tenant(tenant);
        let req = client.build(generate(AGG_QUERY, WireOptions { jobs: 2, ..Default::default() }));
        let req = if metrics { req.with_metrics() } else { req.with_trace() };
        client.request(&req).expect("observed generate")
    };
    let servers = [spawn_default(), spawn_default()];
    // Observed and unobserved traffic start together.
    let started = &Barrier::new(4);
    let done = AtomicBool::new(false);
    // Daemon `i`'s observed runs: metrics on, and on daemon 1 a trace on.
    let observe_daemon = |i: usize| {
        let addr = servers[i].addr();
        started.wait();
        for round in 0..ROUNDS {
            let wire = observed(addr, &format!("m{i}-{round}"), true).metrics_json;
            let wire = xdata::obs::strip_timings(&wire.expect("metrics requested"));
            assert_eq!(&drop_serve_lines(&wire), solo_report, "server {i}, round {round}");
            if i == 1 && round == ROUNDS / 2 {
                let trace = observed(addr, "traced", false).trace_json.expect("trace requested");
                let trace = xdata::obs::parse_chrome_trace(&trace).expect("the trace parses");
                assert_eq!(&trace.to_structure(), solo_trace);
            }
        }
    };
    std::thread::scope(|s| {
        // Bounded, so a failed assertion below cannot leave it running.
        let background = s.spawn(|| {
            let mut client =
                Client::connect(servers[0].addr()).expect("connect").with_tenant("background");
            started.wait();
            for _ in 0..1_000 {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                client.generate(SCHEMA, JOIN_QUERY, WireOptions::default()).expect("generate");
                client.evaluate(SCHEMA, QUERY, WireOptions::default()).expect("evaluate");
            }
        });
        let clients = [s.spawn(|| observe_daemon(0)), s.spawn(|| observe_daemon(1))];
        started.wait();
        for round in 0..ROUNDS {
            assert_eq!(&local_report(), solo_report, "in-process round {round}");
        }
        for client in clients {
            client.join().expect("observed client");
        }
        done.store(true, Ordering::Relaxed);
        background.join().expect("background client");
    });
    for server in servers {
        server.shutdown().expect("clean shutdown");
    }
}

/// Framing edges: junk JSON gets a typed `bad_request` (with best-effort
/// id recovery), an unknown method gets `unknown_method`, and an
/// oversized line gets `oversized_frame` followed by connection close.
#[test]
fn malformed_and_oversized_frames_get_typed_errors() {
    let config = ServerConfig { max_line_bytes: 4096, ..ServerConfig::default() };
    let server = Server::bind(config).expect("bind").spawn().expect("spawn");

    let send_line = |line: &str| send_line(server.addr(), line);

    let resp = send_line("this is not json");
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::BadRequest);

    let resp = send_line(r#"{"v": 1, "id": 7, "method": "frobnicate", "params": {}}"#);
    let err = resp.result.unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownMethod);
    assert_eq!(resp.id, 7, "id recovered from the malformed frame");

    let resp = send_line(&"x".repeat(8192));
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::OversizedFrame);

    // The oversized response is terminal for its connection, but the
    // daemon itself keeps serving new ones.
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("daemon survived the rejected frames");
    server.shutdown().expect("clean shutdown");
}

/// Version-1 clients written before the solver and join selectors were
/// retired still send `search_core` and `join_strategy`. The daemon
/// ignores them like any other unknown option key and answers with the
/// default bytes.
#[test]
fn retired_option_keys_are_ignored() {
    let server = spawn_default();
    let candidates = vec![
        "SELECT i.name, t.course_id FROM teaches t, instructor i WHERE t.id = i.id".to_string(),
        "SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id"
            .to_string(),
    ];
    let xd = in_process(1);
    let requests = [
        (
            RequestBody::Generate(GenerateParams {
                schema: SCHEMA.to_string(),
                query: QUERY.to_string(),
                options: WireOptions::default(),
            }),
            xd.generate_for(QUERY).expect("in-process generate").suite.to_string(),
        ),
        (
            RequestBody::GradeBatch(GradeBatchParams {
                schema: SCHEMA.to_string(),
                query: JOIN_QUERY.to_string(),
                candidates: candidates.clone(),
                options: WireOptions::default(),
            }),
            xd.grade_batch(JOIN_QUERY, &candidates).expect("in-process grade_batch").render(),
        ),
    ];
    for (body, expected) in requests {
        let method = body.method();
        let frame = Request::new(1, body).encode().replacen(
            r#""options":{"#,
            r#""options":{"search_core":"dpll","join_strategy":"nested-loop","#,
            1,
        );
        assert!(frame.contains(r#""search_core":"dpll""#), "{frame}");
        let payload = send_line(server.addr(), &frame)
            .result
            .unwrap_or_else(|e| panic!("{method}: retired keys must be ignored, got {e:?}"));
        assert_eq!(payload.output, expected, "{method} bytes");
    }
    server.shutdown().expect("clean shutdown");
}

/// A request-level deadline that expires mid-run degrades the *payload*
/// exactly like the batch CLI degrades a timed-out run — skipped targets
/// in a partial suite — and is never surfaced as a wire error.
#[test]
fn expired_deadline_degrades_payload_never_errors() {
    let server = spawn_default();
    let mut client = Client::connect(server.addr()).expect("connect");
    let req = client
        .build(xdata::client::RequestBody::Generate(xdata::client::GenerateParams {
            schema: SCHEMA.to_string(),
            query: QUERY.to_string(),
            options: WireOptions::default(),
        }))
        .with_deadline_ms(0);
    match client.request(&req) {
        Ok(payload) => assert!(
            payload.output.contains("skipped"),
            "a 0ms deadline must leave timed-out skips in the suite: {}",
            payload.output
        ),
        Err(e) => panic!("deadline expiry must degrade, not error: {e}"),
    }
    server.shutdown().expect("clean shutdown");
}

/// Chaos leg: a forced mid-request expiry fault shows up over the wire as
/// `UNEVALUATED` verdicts in a successful response — byte-identical to
/// the in-process chaos run — never as an error frame and never as a
/// false `SURVIVES (equivalent)` verdict.
#[cfg(feature = "chaos")]
#[test]
fn chaos_expiry_fault_yields_unevaluated_over_the_wire() {
    use xdata::client::ClientError;
    use xdata::core::FaultPlan;

    let faults = FaultPlan {
        panic_targets: vec![],
        unknown_targets: vec![],
        expire_targets: vec!["eq-class".into()],
    };
    let options = WireOptions {
        fault_expire: vec!["eq-class".into()],
        ..WireOptions::default()
    };
    let query =
        "SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000";

    let server = spawn_default();
    let mut client = Client::connect(server.addr()).expect("connect");
    let wire = match client.evaluate(SCHEMA, query, options) {
        Ok(p) => p,
        Err(ClientError::Server(e)) => panic!("fault must degrade, not error: {e:?}"),
        Err(e) => panic!("transport failed: {e}"),
    };
    server.shutdown().expect("clean shutdown");

    let xd = in_process(1).with_faults(faults);
    let (run, space, report) = xd.evaluate(query, mopts()).expect("chaos run completes");
    assert_eq!(wire.output, render_evaluate(&run.query, &run.suite, &space, &report));
    assert!(
        !wire.output.contains("SURVIVES (equivalent)") || !run.suite.is_partial(),
        "partial suite must not claim proven equivalence"
    );
}
