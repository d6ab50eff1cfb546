//! Per-request metrics over the wire, in a test binary of its own.
//!
//! The metrics recorder is process-global while the exclusivity gate that
//! keeps other requests out of a metrics request belongs to each `Server`.
//! A second daemon in the same process — another test of a shared binary —
//! would record into the same report, so this binary runs exactly one
//! daemon and one in-process recorder, one after the other.

use xdata::client::{Client, GenerateParams, RequestBody, WireOptions};
use xdata::serve::{Server, ServerConfig};
use xdata::XData;

const SCHEMA: &str = include_str!("../examples/university.sql");
const QUERY: &str = "SELECT name FROM instructor WHERE salary > 75000";

/// A request with `metrics` set gets a per-request report whose
/// timing-stripped bytes match the in-process recorder's — modulo the
/// `serve.*` lines, which carry daemon-lifetime totals by design.
#[test]
fn first_request_metrics_match_in_process_modulo_serve_counters() {
    fn drop_serve_lines(report: &str) -> String {
        report.lines().filter(|l| !l.contains("\"serve.")).collect::<Vec<_>>().join("\n")
    }

    let server =
        Server::bind(ServerConfig::default()).expect("bind ephemeral port").spawn().expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");
    let req = client
        .build(RequestBody::Generate(GenerateParams {
            schema: SCHEMA.to_string(),
            query: QUERY.to_string(),
            options: WireOptions::default(),
        }))
        .with_metrics();
    let payload = client.request(&req).expect("generate ok");
    let wire_metrics = payload.metrics_json.expect("metrics requested");
    server.shutdown().expect("clean shutdown");

    // The in-process pipeline configured exactly as the handler configures
    // it for `SCHEMA` (no INSERTs, so default domains).
    let (schema, data) = xdata::sql::parse_script(SCHEMA).expect("example schema parses");
    assert!(data.is_empty(), "university.sql grew INSERTs; mirror the domain setup here");
    xdata::obs::install();
    xdata::obs::preseed();
    XData::new(schema).generate_for(QUERY).expect("in-process generate");
    let local = xdata::obs::take_report().expect("recorder installed");

    assert_eq!(
        drop_serve_lines(&xdata::obs::strip_timings(&wire_metrics)),
        drop_serve_lines(&local.to_json_stripped()),
        "wire metrics diverged from the in-process recorder"
    );
    // And the serve.* totals themselves are the fresh-daemon values.
    assert!(wire_metrics.contains("\"serve.requests\": 1"), "lifetime totals missing");
}
