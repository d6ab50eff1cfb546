//! # xdata-serve
//!
//! Persistent service mode for the X-Data pipeline: a long-running TCP
//! daemon (`xdata serve --listen ADDR`) that answers `generate`,
//! `evaluate`, and `grade_batch` requests over the line-delimited JSON
//! protocol defined in [`xdata_client::protocol`] (normative spec:
//! PROTOCOL.md at the repo root; runbook: OPERATIONS.md).
//!
//! The point of the daemon — versus the batch CLI, which produces the
//! same bytes — is **warm state**. A process-long [`WarmCache`] keeps
//! memoized solves across requests, keyed by structural hashes under a
//! per-tenant namespace: a grading service calling `grade_batch` against
//! one reference query pays for suite generation once and replays
//! memoized solves on every later batch (the `serve_sweep` bench measures
//! the multiplier). Incremental solver sessions live only as long as the
//! run that built them. Parsed schema scripts are cached the same way.
//!
//! ## Threading model
//!
//! One **acceptor** (the thread that called [`Server::serve`]) accepts
//! connections and pushes them onto a queue; a fixed pool of **workers**
//! (`--serve-workers`) pops connections and serves each to completion —
//! requests on one connection are strictly sequential, concurrency comes
//! from concurrent connections. Inside a request the pipeline fans out on
//! its own `jobs` threads via `xdata-par`, and cancellation uses the
//! `xdata-par` token tree: one root token per server, a child per
//! connection, and a deadline child per request (`deadline_ms`, clamped to
//! `--max-deadline-ms`), so expiry degrades the request exactly like the
//! batch CLI — partial suites and `Unevaluated` verdicts, never a wrong
//! verdict and never a torn frame.
//!
//! ## Metrics
//!
//! A request with `metrics`/`trace` set installs the `xdata-obs` recorder
//! on the worker thread serving it, runs, and embeds the report in its
//! response. The recorder is bound to that thread and to the pipeline's
//! `xdata-par` workers, so the report holds this request's events only and
//! other requests run on beside it. `serve.*` counters in such a report
//! are daemon-lifetime totals snapshotted at response time; every other
//! key is request-scoped. See OPERATIONS.md.

mod handler;

pub use handler::render_evaluate;

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use xdata_client::protocol::{ErrorCode, Request, Response};
use xdata_core::WarmCache;
use xdata_par::CancelToken;

/// Daemon configuration (CLI flags map onto this 1:1).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:7878"`; port `0` picks an
    /// ephemeral port (read it back from [`Server::local_addr`]).
    pub listen: String,
    /// Worker threads — the maximum number of concurrently served
    /// connections.
    pub workers: usize,
    /// Per-frame byte cap; a longer request line is answered with
    /// `oversized_frame` and the connection is closed.
    pub max_line_bytes: usize,
    /// Admission control: an upper bound applied to every request's
    /// `deadline_ms` (and imposed on requests that sent none).
    pub max_deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 4,
            max_line_bytes: xdata_client::protocol::MIN_MAX_FRAME_BYTES,
            max_deadline_ms: None,
        }
    }
}

/// Daemon-lifetime totals behind the `serve.*` metric keys (snapshotted
/// into per-request reports; also summarized by `ping`).
#[derive(Default)]
pub(crate) struct ServeStats {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub requests_generate: AtomicU64,
    pub requests_evaluate: AtomicU64,
    pub requests_grade_batch: AtomicU64,
    pub requests_ping: AtomicU64,
    pub errors: AtomicU64,
    pub rejected_frames: AtomicU64,
    pub deadline_clamped: AtomicU64,
}

pub(crate) struct Shared {
    pub config: ServerConfig,
    pub warm: WarmCache,
    /// Parsed schema scripts keyed by the
    /// [`content_key`](xdata_core::content_key) of the script text.
    pub schemas: Mutex<std::collections::HashMap<(u64, u64), Arc<handler::ParsedScript>>>,
    pub stats: ServeStats,
    pub shutdown: AtomicBool,
    /// Root of the cancellation tree; cancelled only by
    /// [`ServerHandle::kill`] (hard stop), not by graceful shutdown.
    pub root_cancel: CancelToken,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bound, not-yet-serving daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the configured listen address.
    pub fn bind(mut config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        // Rewrite the config to the resolved address so a port-0 bind can
        // still poke itself loose during a wire-initiated shutdown.
        config.listen = listener.local_addr()?.to_string();
        let shared = Arc::new(Shared {
            config,
            warm: WarmCache::new(),
            schemas: Mutex::new(std::collections::HashMap::new()),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            root_cancel: CancelToken::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a graceful `shutdown` request (or [`ServerHandle`]
    /// shutdown) arrives: blocks the calling thread as the acceptor,
    /// spawning the worker pool. In-flight requests finish; idle
    /// connections are closed.
    pub fn serve(self) -> std::io::Result<()> {
        let workers: Vec<_> = (0..self.shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            self.shared.stats.connections.fetch_add(1, Ordering::Relaxed);
            let mut q = lock(&self.shared.queue);
            q.push_back(stream);
            drop(q);
            self.shared.queue_cv.notify_one();
        }
        // Drain: wake every worker so those idling on an empty queue see
        // the shutdown flag and exit; workers mid-connection finish their
        // connection first (read timeouts bound the wait).
        self.shared.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// [`Server::serve`] on a background thread, returning a handle with
    /// the bound address. The in-process shape used by tests and the
    /// `serve_sweep` bench.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.serve());
        Ok(ServerHandle { addr, shared, thread: Some(thread) })
    }
}

/// Handle to a daemon running via [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: stop accepting, let in-flight requests finish, join
    /// the acceptor. Equivalent to a `shutdown` request over the wire.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        begin_shutdown(&self.shared);
        match self.thread.take() {
            Some(t) => t.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

/// Graceful shutdown, from [`ServerHandle::shutdown`] or a wire
/// `shutdown` request: flip the flag, poke the acceptor loose from
/// `accept()` with a throwaway connection to the bound address (which
/// [`Server::bind`] wrote into `config.listen`), and wake idle workers.
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect(shared.config.listen.as_str());
    shared.queue_cv.notify_all();
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match conn {
            Some(stream) => serve_connection(shared, stream),
            None => return,
        }
    }
}

/// How long a blocked read waits before re-checking the shutdown flag.
/// Bounds graceful-shutdown latency for idle keep-alive connections.
const READ_POLL: Duration = Duration::from_millis(100);

enum Frame {
    Line(String),
    /// Clean close (EOF at a frame boundary) or shutdown drain.
    Close,
    Oversized,
}

/// Wait until `reader` holds unread bytes or has hit EOF (an empty
/// [`BufReader::buffer`]), retrying across read timeouts. `Ok(false)`
/// means shutdown began while it waited.
fn fill_polling(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) -> std::io::Result<bool> {
    loop {
        match reader.fill_buf() {
            Ok(_) => return Ok(true),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Read one `\n`-terminated frame, capped at `max` bytes, re-checking
/// `shutdown` while blocked. An oversized line is consumed (so the error
/// response is the only bytes the client sees for it) but the connection
/// is closed right after.
fn read_frame(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    shutdown: &AtomicBool,
) -> std::io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    // Past the cap, keep consuming until the newline but stop buffering.
    let mut oversized = false;
    while fill_polling(reader, shutdown)? {
        let buf = reader.buffer();
        if buf.is_empty() {
            // EOF. Mid-frame EOF with buffered bytes is a torn frame; treat
            // both cases as a close — there is no id to answer on anyway.
            return Ok(Frame::Close);
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let n = newline.unwrap_or(buf.len());
        oversized |= line.len() + n > max;
        if !oversized {
            line.extend_from_slice(&buf[..n]);
        }
        reader.consume(newline.map_or(n, |pos| pos + 1));
        if newline.is_some() {
            if oversized {
                return Ok(Frame::Oversized);
            }
            let text = String::from_utf8(line)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            return Ok(Frame::Line(text));
        }
    }
    Ok(Frame::Close)
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut line = resp.encode();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Serve one connection to completion: a strict request/response loop
/// under a per-connection cancellation token.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let conn_cancel = shared.root_cancel.child();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let frame = match read_frame(&mut reader, shared.config.max_line_bytes, &shared.shutdown) {
            Ok(f) => f,
            Err(_) => return,
        };
        match frame {
            Frame::Close => return,
            Frame::Oversized => {
                shared.stats.rejected_frames.fetch_add(1, Ordering::Relaxed);
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                // No parsed id to echo — 0 is the documented placeholder.
                let resp = Response::err(
                    0,
                    ErrorCode::OversizedFrame,
                    format!(
                        "request line exceeds the {}-byte frame cap; closing connection",
                        shared.config.max_line_bytes
                    ),
                );
                let _ = write_response(&mut writer, &resp);
                return;
            }
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    // Tolerate blank keep-alive lines.
                    continue;
                }
                let req = match Request::decode(&line) {
                    Ok(r) => r,
                    Err(msg) => {
                        shared.stats.rejected_frames.fetch_add(1, Ordering::Relaxed);
                        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                        let code = if msg.contains("unknown method") {
                            ErrorCode::UnknownMethod
                        } else {
                            ErrorCode::BadRequest
                        };
                        // Best-effort id recovery so the client can still
                        // correlate: a malformed frame may yet be valid JSON
                        // with an id field.
                        let id = xdata_obs::parse_json(&line)
                            .ok()
                            .and_then(|j| j.get("id").and_then(xdata_obs::Json::as_u64))
                            .unwrap_or(0);
                        let _ = write_response(&mut writer, &Response::err(id, code, msg));
                        continue;
                    }
                };
                let is_shutdown =
                    matches!(req.body, xdata_client::protocol::RequestBody::Shutdown);
                let resp = handler::handle_request(shared, &conn_cancel, req);
                if resp.result.is_err() {
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                if write_response(&mut writer, &resp).is_err() {
                    return;
                }
                if is_shutdown {
                    begin_shutdown(shared);
                    return;
                }
            }
        }
    }
}
