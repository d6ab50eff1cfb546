//! Service-mode sweep: measure the persistent daemon (`xdata-serve`) over
//! real loopback TCP with the typed `xdata-client`, producing
//! `results/BENCH_serve.json`.
//!
//! Three measurements, parity-asserted before anything is timed (every
//! wire response must be byte-identical to the in-process pipeline's
//! output — the daemon's whole contract):
//!
//! * **cold vs warm** — the first `generate` on a fresh daemon pays full
//!   suite generation; repeats of the same request replay the warm
//!   cache's memoized solves. The bench *asserts* warm p50 < cold, so a
//!   regression that stops the memo from being hit fails the run rather
//!   than silently shipping slower numbers.
//! * **saturation** — N client threads (N ∈ {1, 2, 4, 8}), each on its own
//!   connection and its own tenant (disjoint warm namespaces, so every
//!   request does real solve work), round-robin over three queries.
//!   Reports p50/p99 request latency and throughput per client count.
//! * **scaling** — peak throughput over the 1-client baseline.
//!
//! ```sh
//! cargo run -p xdata-bench --release --bin serve_sweep
//! ```
//!
//! Environment knobs (used by the CI smoke leg):
//! `XDATA_SERVE_REQUESTS` sets requests per client per round (default 12);
//! `XDATA_SERVE_WORKERS` sets the daemon worker-pool size (default 8);
//! `XDATA_SWEEP_OUT` overrides the output path.

use std::time::Instant;

use xdata_bench::{build_json_line, ms};
use xdata_client::{Client, WireOptions};
use xdata_core::generate;
use xdata_relalg::normalize;
use xdata_serve::{Server, ServerConfig, ServerHandle};
use xdata_sql::parse_query;

const SCHEMA: &str = include_str!("../../../../examples/university.sql");

const QUERIES: [&str; 3] = [
    "SELECT name FROM instructor WHERE salary > 75000",
    "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id",
    "SELECT name FROM instructor WHERE dept_id = 7 AND salary < 90000",
];

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn spawn_daemon(workers: usize) -> ServerHandle {
    let config = ServerConfig { workers, ..ServerConfig::default() };
    Server::bind(config).expect("bind ephemeral port").spawn().expect("spawn daemon")
}

/// The expected bytes for each query, from the in-process pipeline the
/// daemon must reproduce exactly.
fn expected_outputs() -> Vec<String> {
    let (schema, data) = xdata_sql::parse_script(SCHEMA).expect("schema parses");
    assert!(data.is_empty(), "university.sql grew INSERTs; mirror the domain setup here");
    let domains = xdata_catalog::DomainCatalog::defaults(&schema);
    let opts = xdata_core::GenOptions::default();
    QUERIES
        .iter()
        .map(|sql| {
            let ast = parse_query(sql).expect("query parses");
            let query = normalize(&ast, &schema).expect("query normalizes");
            generate(&query, &schema, &domains, &opts).expect("suite generates").to_string()
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

struct SweepRow {
    clients: usize,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    throughput_rps: f64,
}

/// One saturation round: `clients` threads, each with its own connection
/// and tenant, each issuing `per_client` parity-checked generate requests.
fn saturation_round(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    expected: &[String],
) -> SweepRow {
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let expected = expected.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr)
                    .expect("connect")
                    .with_tenant(&format!("sweep-{clients}-{c}"));
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let q = (c + i) % QUERIES.len();
                    let t = Instant::now();
                    let payload = client
                        .generate(SCHEMA, QUERIES[q], WireOptions::default())
                        .expect("generate over the wire");
                    latencies.push(ms(t.elapsed()));
                    assert_eq!(payload.output, expected[q], "wire output diverged (parity)");
                }
                latencies
            })
        })
        .collect();
    let mut all: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = wall.elapsed();
    all.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    SweepRow {
        clients,
        requests: all.len(),
        p50_ms: percentile(&all, 0.50),
        p99_ms: percentile(&all, 0.99),
        throughput_rps: all.len() as f64 / elapsed.as_secs_f64(),
    }
}

fn main() {
    let per_client = env_usize("XDATA_SERVE_REQUESTS", 12);
    let workers = env_usize("XDATA_SERVE_WORKERS", 8);
    let expected = expected_outputs();

    // Cold vs warm, on a dedicated fresh daemon so daemon lifetime state
    // is exactly "one cold request, then repeats".
    let server = spawn_daemon(workers);
    let mut client = Client::connect(server.addr()).expect("connect");
    let t = Instant::now();
    let cold = client.generate(SCHEMA, QUERIES[0], WireOptions::default()).expect("cold");
    let cold_ms = ms(t.elapsed());
    assert_eq!(cold.output, expected[0], "cold wire output diverged (parity)");
    let warm_rounds = per_client.max(5);
    let mut warm: Vec<f64> = (0..warm_rounds)
        .map(|_| {
            let t = Instant::now();
            let p = client.generate(SCHEMA, QUERIES[0], WireOptions::default()).expect("warm");
            let d = ms(t.elapsed());
            assert_eq!(p.output, expected[0], "warm wire output diverged (parity)");
            d
        })
        .collect();
    server.shutdown().expect("clean shutdown");
    warm.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let warm_p50 = percentile(&warm, 0.50);
    assert!(
        warm_p50 < cold_ms,
        "warm requests must beat the cold request (warm p50 {warm_p50:.3}ms vs cold {cold_ms:.3}ms) — the warm cache is not being hit"
    );

    // Saturation sweep on one shared daemon (tenants keep the work cold).
    let server = spawn_daemon(workers);
    let rows: Vec<SweepRow> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| {
            let row = saturation_round(server.addr(), n, per_client, &expected);
            println!(
                "clients {:>2}: {:>3} requests, p50 {:>8.3}ms, p99 {:>8.3}ms, {:>7.1} req/s",
                row.clients, row.requests, row.p50_ms, row.p99_ms, row.throughput_rps
            );
            row
        })
        .collect();
    server.shutdown().expect("clean shutdown");

    let base_rps = rows[0].throughput_rps;
    let peak = rows.iter().map(|r| r.throughput_rps).fold(0.0f64, f64::max);

    let mut json = String::from("{\n");
    json.push_str(&build_json_line());
    json.push_str(&format!(
        "  \"config\": {{\"workers\": {workers}, \"requests_per_client\": {per_client}, \
         \"queries\": {}}},\n",
        QUERIES.len()
    ));
    json.push_str(&format!(
        "  \"cold_vs_warm\": {{\"cold_ms\": {cold_ms:.4}, \"warm_p50_ms\": {warm_p50:.4}, \
         \"warm_p99_ms\": {:.4}, \"warm_rounds\": {warm_rounds}, \"warm_speedup\": {:.2}}},\n",
        percentile(&warm, 0.99),
        cold_ms / warm_p50.max(1e-9),
    ));
    json.push_str("  \"saturation\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"throughput_rps\": {:.2}}}{}\n",
            r.clients,
            r.requests,
            r.p50_ms,
            r.p99_ms,
            r.throughput_rps,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"scaling\": {{\"throughput_rps_1_client\": {base_rps:.2}, \
         \"peak_throughput_rps\": {peak:.2}, \"peak_over_1_client\": {:.2}}}\n",
        peak / base_rps.max(1e-9),
    ));
    json.push_str("}\n");

    let out_path =
        std::env::var("XDATA_SWEEP_OUT").unwrap_or_else(|_| "results/BENCH_serve.json".into());
    let out = std::path::Path::new(&out_path);
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(out, &json).expect("write BENCH_serve.json");
    println!("wrote {}", out.display());
}
