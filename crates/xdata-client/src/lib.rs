//! # xdata-client
//!
//! Blocking typed client for the `xdata serve` daemon, plus the wire
//! schema ([`protocol`]) it shares with the server. Zero dependencies
//! beyond `xdata-obs` (the hand-rolled JSON layer).
//!
//! ```no_run
//! use xdata_client::{Client, WireOptions};
//!
//! let mut c = Client::connect("127.0.0.1:7878").expect("daemon up");
//! let report = c
//!     .grade_batch(
//!         "CREATE TABLE r (a INT PRIMARY KEY);",
//!         "SELECT * FROM r",
//!         &["SELECT * FROM r".to_string()],
//!         WireOptions::default(),
//!     )
//!     .expect("graded");
//! print!("{}", report.output);
//! ```
//!
//! The error taxonomy separates the transport from the service:
//! [`ClientError::Io`] (connect/read/write failed), [`ClientError::Protocol`]
//! (the peer broke framing — not an `xdata serve` daemon, or a version far
//! enough apart that frames don't parse), and [`ClientError::Server`] (a
//! well-formed error response; see [`protocol::ErrorCode`]). Server-side
//! *degradation* — deadline-expired partial suites, `Unevaluated`
//! verdicts, per-target skips with `SkipReason`-style labels — is **not**
//! an error: it arrives inside a successful payload's `output`, exactly as
//! the batch CLI prints it.

pub mod protocol;

pub use protocol::{
    ErrorCode, EvaluateParams, GenerateParams, GradeBatchParams, Payload, Request, RequestBody,
    Response, WireError, WireOptions, PROTOCOL_VERSION,
};

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What went wrong from the client's point of view.
#[derive(Debug)]
pub enum ClientError {
    /// Transport: connecting, writing the request, or reading the response
    /// failed (includes mid-frame EOF when the server vanishes).
    Io(io::Error),
    /// The peer answered with bytes that are not a valid protocol frame,
    /// or with a response id that does not match the request.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(e) => write!(f, "server: {} — {}", e.code, e.message),
        }
    }
}
impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to one `xdata serve` daemon. Requests are issued
/// sequentially per connection (the protocol is strict request/response);
/// open one `Client` per thread for concurrency.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    tenant: String,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
            tenant: "default".to_string(),
        })
    }

    /// Set the warm-cache tenant namespace for every subsequent request
    /// built by the typed helpers.
    pub fn with_tenant(mut self, tenant: &str) -> Client {
        self.tenant = tenant.to_string();
        self
    }

    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Send one request and wait for its response. Exposed for callers
    /// that build [`Request`]s directly (per-request deadline, metrics,
    /// trace); the typed helpers below cover the common paths.
    pub fn request(&mut self, req: &Request) -> Result<Payload, ClientError> {
        let mut line = req.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut resp_line = String::new();
        let n = self.reader.read_line(&mut resp_line)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )));
        }
        let resp = Response::decode(resp_line.trim_end_matches('\n'))
            .map_err(ClientError::Protocol)?;
        if resp.id != req.id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {}",
                resp.id, req.id
            )));
        }
        resp.result.map_err(ClientError::Server)
    }

    /// Build a request with this client's tenant and a fresh id; chain
    /// `Request` builder methods before passing it to [`Client::request`].
    pub fn build(&mut self, body: RequestBody) -> Request {
        let id = self.next_id();
        Request::new(id, body).with_tenant(&self.tenant)
    }

    /// Liveness check; the payload output reports the server version and
    /// warm-cache occupancy.
    pub fn ping(&mut self) -> Result<Payload, ClientError> {
        let req = self.build(RequestBody::Ping);
        self.request(&req)
    }

    /// Generate the killing test suite for `query` under `schema` (a SQL
    /// script of CREATE TABLE + optional INSERT statements).
    pub fn generate(
        &mut self,
        schema: &str,
        query: &str,
        options: WireOptions,
    ) -> Result<Payload, ClientError> {
        let req = self.build(RequestBody::Generate(GenerateParams {
            schema: schema.to_string(),
            query: query.to_string(),
            options,
        }));
        self.request(&req)
    }

    /// Generate + mutate + kill evaluation for `query`.
    pub fn evaluate(
        &mut self,
        schema: &str,
        query: &str,
        options: WireOptions,
    ) -> Result<Payload, ClientError> {
        let req = self.build(RequestBody::Evaluate(EvaluateParams {
            schema: schema.to_string(),
            query: query.to_string(),
            options,
        }));
        self.request(&req)
    }

    /// Grade `candidates` against the `reference` query.
    pub fn grade_batch(
        &mut self,
        schema: &str,
        reference: &str,
        candidates: &[String],
        options: WireOptions,
    ) -> Result<Payload, ClientError> {
        let req = self.build(RequestBody::GradeBatch(GradeBatchParams {
            schema: schema.to_string(),
            query: reference.to_string(),
            candidates: candidates.to_vec(),
            options,
        }));
        self.request(&req)
    }

    /// Ask the daemon to shut down gracefully. The server answers this
    /// request before exiting.
    pub fn shutdown(&mut self) -> Result<Payload, ClientError> {
        let req = self.build(RequestBody::Shutdown);
        self.request(&req)
    }
}

/// Read the next command-line argument as the count of option `flag`. The
/// `xdata` CLI and `xdata-client` parse every numeric option through it.
/// A missing argument is the error `<flag> needs <what>`, and one that does
/// not parse is ``<flag>: invalid count `<n>` ``.
pub fn count_arg<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let n = args.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    n.parse().map_err(|_| format!("{flag}: invalid count `{n}`"))
}

/// Read a batch-grading candidates file: one candidate query per line,
/// blank lines and `#` comments skipped. The `xdata grade --candidates`
/// CLI and `xdata-client grade-batch` both read their files through it.
/// A file without a single candidate is an error.
pub fn read_candidates(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let candidates: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if candidates.is_empty() {
        return Err(format!("{path}: no candidate queries (one per line)"));
    }
    Ok(candidates)
}
