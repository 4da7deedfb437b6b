//! The daemon itself: a hand-rolled threaded HTTP/1.1 server.
//!
//! The transport is `std` alone: a `TcpListener` shared by N worker threads
//! (each `accept`s on its own clone), one request per connection
//! (`Connection: close`), and a `Mutex<TeEngine>` as the single source of
//! truth — updates serialize, which is exactly the semantics a Fibbing
//! controller wants (deltas are ordered by epoch). Bodies are JSON, read
//! with `serde_json::from_str` (anything it rejects is a 400) and printed
//! with `serde_json::to_string`.
//!
//! | Method | Path         | Body                                   | Reply |
//! |--------|--------------|----------------------------------------|-------|
//! | GET    | `/healthz`   | —                                      | liveness probe |
//! | GET    | `/state`     | —                                      | [`StateResponse`] telemetry |
//! | GET    | `/program`   | —                                      | [`ProgramResponse`] |
//! | GET    | `/metrics`   | —                                      | obs snapshot (JSON) |
//! | POST   | `/demand`    | `{"updates":[{src,dst,rate},…]}`       | [`UpdateOutcome`] |
//! | POST   | `/link`      | `{"a":…,"b":…,"up":bool}`              | [`UpdateOutcome`] |
//! | POST   | `/node`      | `{"node":…,"up":bool}`                 | [`UpdateOutcome`] |
//! | POST   | `/recompile` | —                                      | [`ColdCheck`] differential check |
//! | POST   | `/shutdown`  | —                                      | stops the daemon |
//!
//! Router identifiers in bodies may be names (`"Denver"`) or indices (`3`).

use crate::api::{ErrorResponse, ProgramResponse, StateResponse};
use crate::engine::{ColdCheck, DemandUpdate, TeEngine, UpdateOutcome};
use crate::error::ServeError;
use coyote_graph::NodeId;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server startup options.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads accepting connections: 0 counts as 1, and more than
    /// `MAX_WORKERS` (64) is refused.
    pub threads: usize,
    /// Batch-pipeline comparator measured at startup (exposed in `/state`).
    pub batch_recompile_micros: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            batch_recompile_micros: None,
        }
    }
}

/// A running daemon; dropping it does **not** stop the workers — call
/// [`Server::shutdown`] then [`Server::join`] (or POST `/shutdown`).
pub struct Server {
    addr: SocketAddr,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

struct Shared {
    engine: Mutex<TeEngine>,
    shutdown: AtomicBool,
    batch_recompile_micros: Option<u64>,
    /// Worker threads: how many parked `accept`s a shutdown must wake.
    workers: usize,
}

impl Server {
    /// Binds the listener and spawns the worker threads. A worker count above
    /// `MAX_WORKERS` is an `InvalidInput` error, before anything is bound.
    pub fn start(engine: TeEngine, config: &ServerConfig) -> Result<Server, ServeError> {
        if config.threads > MAX_WORKERS {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "{} worker threads requested, at most {MAX_WORKERS} allowed",
                    config.threads
                ),
            )));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: Mutex::new(engine),
            shutdown: AtomicBool::new(false),
            batch_recompile_micros: config.batch_recompile_micros,
            workers: config.threads.max(1),
        });
        let mut handles = Vec::with_capacity(shared.workers);
        for _ in 0..shared.workers {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || worker(listener, shared)));
        }
        Ok(Server {
            addr,
            handles,
            shared,
        })
    }

    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown (same effect as POST `/shutdown`).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        wake_workers(self.addr, self.shared.workers);
    }

    /// Waits for every worker to exit.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// Unblocks workers parked in `accept` by connecting once per thread.
fn wake_workers(addr: SocketAddr, count: usize) {
    for _ in 0..count + 1 {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    }
}

fn worker(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let should_stop = handle_connection(stream, &shared);
        if should_stop {
            shared.shutdown.store(true, Ordering::SeqCst);
            wake_workers(
                listener.local_addr().expect("listener has an address"),
                shared.workers,
            );
            return;
        }
    }
}

/// Handles one request; returns true when the client asked for shutdown.
fn handle_connection(mut stream: TcpStream, shared: &Shared) -> bool {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let (method, path, body) = match read_request(&mut stream) {
        Ok(Some(parts)) => parts,
        Err(e) if e.is_bad_request() => {
            // A malformed request is answered, never dispatched.
            let (status, payload) = error_reply(400, e.to_string());
            let _ = write_response(&mut stream, status, &payload);
            return false;
        }
        Ok(None) | Err(_) => return false, // wake-up probe, or the socket failed
    };
    coyote_obs::counter("serve.http.requests", 1);
    let stop = method == "POST" && path == "/shutdown";
    let (status, payload) = dispatch(&method, &path, &body, shared);
    let _ = write_response(&mut stream, status, &payload);
    stop
}

/// Largest request head `read_request` buffers.
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Largest body `read_request` accepts.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Most worker threads `Server::start` spawns: each is an OS thread, so a
/// larger request is refused rather than attempted.
const MAX_WORKERS: usize = 64;

/// Reads one request as `(method, path, body)`; `None` for a connection
/// that closed without sending a byte.
fn read_request(stream: &mut TcpStream) -> Result<Option<(String, String, String)>, ServeError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 && buf.is_empty() {
            return Ok(None);
        }
        if n == 0 {
            return Err(ServeError::BadRequest("connection closed".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(idx) = find_header_end(&buf) {
            break idx;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ServeError::BadRequest("headers too large".into()));
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| ServeError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::BadRequest("missing method".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::BadRequest("missing path".into()))?
        .to_string();
    let content_length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .map_or(Ok(0), |(_, value)| value.trim().parse::<usize>())
        .map_err(|_| ServeError::BadRequest("Content-Length is not a byte count".into()))?;
    if content_length > MAX_BODY_BYTES {
        return Err(ServeError::BadRequest("body too large".into()));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ServeError::BadRequest(format!(
                "connection closed after {} of {content_length} body bytes",
                body.len()
            )));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Some((
        method,
        path,
        String::from_utf8_lossy(&body).to_string(),
    )))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn dispatch(method: &str, path: &str, body: &str, shared: &Shared) -> (u16, String) {
    let result: Result<String, ServeError> = match (method, path) {
        ("GET", "/healthz") => Ok("{\"ok\":true}".to_string()),
        ("GET", "/state") => {
            let engine = shared.engine.lock().expect("engine lock poisoned");
            encode(&StateResponse::of(&engine, shared.batch_recompile_micros))
        }
        ("GET", "/program") => {
            let engine = shared.engine.lock().expect("engine lock poisoned");
            encode(&ProgramResponse::of(&engine))
        }
        ("GET", "/metrics") => Ok(match coyote_obs::installed() {
            Some(registry) => coyote_obs::metrics_json(&registry.snapshot()),
            None => "{}".to_string(),
        }),
        ("POST", "/demand") => post_demand(body, shared).and_then(|o| encode(&o)),
        ("POST", "/link") => post_link(body, shared).and_then(|o| encode(&o)),
        ("POST", "/node") => post_node(body, shared).and_then(|o| encode(&o)),
        ("POST", "/recompile") => post_recompile(shared).and_then(|o| encode(&o)),
        ("POST", "/shutdown") => Ok("{\"ok\":true,\"stopping\":true}".to_string()),
        ("GET", _) | ("POST", _) => return error_reply(404, format!("no such endpoint: {path}")),
        _ => return error_reply(405, format!("method {method} not allowed")),
    };
    match result {
        Ok(body) => (200, body),
        Err(e) if e.is_bad_request() => error_reply(400, e.to_string()),
        Err(e) => error_reply(500, e.to_string()),
    }
}

fn error_reply(status: u16, error: String) -> (u16, String) {
    let body = encode(&ErrorResponse { error }).unwrap_or_default();
    (status, body)
}

fn encode<T: serde::Serialize>(value: &T) -> Result<String, ServeError> {
    serde_json::to_string(value)
        .map_err(|e| ServeError::BadRequest(format!("serialization failed: {e}")))
}

/// Resolves a router identifier that may be a JSON string (name or decimal
/// index) or a JSON number.
fn node_of(engine: &TeEngine, value: Option<&Value>, field: &str) -> Result<NodeId, ServeError> {
    let value = value.ok_or_else(|| ServeError::BadRequest(format!("missing field {field:?}")))?;
    match value {
        Value::String(s) => engine.resolve_node(s),
        Value::Float(n) if n.fract() == 0.0 && *n >= 0.0 => {
            engine.resolve_node(&format!("{}", *n as u64))
        }
        _ => Err(ServeError::BadRequest(format!(
            "field {field:?} must be a router name or index"
        ))),
    }
}

fn parse_body(body: &str) -> Result<Value, ServeError> {
    serde_json::from_str(body)
        .map_err(|e| ServeError::BadRequest(format!("invalid JSON body: {e}")))
}

/// The mandatory boolean `"up"` of a link or node event: a body that omits
/// it or sends another type is a client error, never a failure event.
fn up_of(doc: &Value) -> Result<bool, ServeError> {
    doc.get("up")
        .and_then(|u| u.as_bool())
        .ok_or_else(|| ServeError::BadRequest("body needs a boolean \"up\"".into()))
}

fn post_demand(body: &str, shared: &Shared) -> Result<UpdateOutcome, ServeError> {
    let doc = parse_body(body)?;
    let raw = doc
        .get("updates")
        .and_then(|u| u.as_array())
        .ok_or_else(|| ServeError::BadRequest("body needs an \"updates\" array".into()))?;
    let mut engine = shared.engine.lock().expect("engine lock poisoned");
    let mut updates = Vec::with_capacity(raw.len());
    for item in raw {
        updates.push(DemandUpdate {
            src: node_of(&engine, item.get("src"), "src")?,
            dst: node_of(&engine, item.get("dst"), "dst")?,
            rate: item
                .get("rate")
                .and_then(|r| r.as_f64())
                .ok_or_else(|| ServeError::BadRequest("missing numeric \"rate\"".into()))?,
        });
    }
    engine.apply_demand_update(&updates)
}

fn post_link(body: &str, shared: &Shared) -> Result<UpdateOutcome, ServeError> {
    let doc = parse_body(body)?;
    let up = up_of(&doc)?;
    let mut engine = shared.engine.lock().expect("engine lock poisoned");
    let a = node_of(&engine, doc.get("a"), "a")?;
    let b = node_of(&engine, doc.get("b"), "b")?;
    engine.apply_link_event(a, b, up)
}

fn post_node(body: &str, shared: &Shared) -> Result<UpdateOutcome, ServeError> {
    let doc = parse_body(body)?;
    let up = up_of(&doc)?;
    let mut engine = shared.engine.lock().expect("engine lock poisoned");
    let node = node_of(&engine, doc.get("node"), "node")?;
    engine.apply_node_event(node, up)
}

fn post_recompile(shared: &Shared) -> Result<ColdCheck, ServeError> {
    let engine = shared.engine.lock().expect("engine lock poisoned");
    engine.verify_against_cold()
}
