//! Telemetry determinism (ISSUE 10 satellite): the same request sequence
//! against a 1-thread and a 4-thread daemon must yield identical
//! deterministic metrics (counters and value histograms; wall-clock timings
//! are excluded by `Snapshot::deterministic`). Runs in its own integration
//! binary so the process-global obs sink sees no other traffic.

use coyote_serve::{EngineConfig, Server, ServerConfig, TeEngine};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text.split_once("\r\n\r\n").unwrap();
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, payload.to_string())
}

/// Sends `head` + `body` verbatim (in one write, so the server's reply never
/// races bytes still in flight), closes the sending half and returns the
/// status of whatever comes back.
fn raw_request(addr: &str, head: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(format!("{head}{body}").as_bytes())
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Runs the canonical request sequence against a fresh daemon with the
/// given worker-thread count and returns the deterministic metrics view.
fn run_session(threads: usize) -> coyote_obs::Snapshot {
    let registry = Arc::new(coyote_obs::Registry::new());
    coyote_obs::install(Arc::clone(&registry));
    let engine = TeEngine::new(&EngineConfig::default()).unwrap();
    let server = Server::start(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            batch_recompile_micros: None,
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    assert_eq!(request(&addr, "GET", "/healthz", "").0, 200);
    assert_eq!(request(&addr, "GET", "/state", "").0, 200);
    assert_eq!(request(&addr, "GET", "/program", "").0, 200);
    // What an update cost, read off the deterministic counters around it.
    let count = |name: &str| registry.snapshot().counters.get(name).copied().unwrap_or(0);
    let work = || (count("graph.spf.runs"), count("core.incremental.solves"));
    let before = work();
    let (status, body) = request(
        &addr,
        "POST",
        "/demand",
        r#"{"updates":[{"src":0,"dst":4,"rate":7.5}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let (spf_runs, solves) = work();
    assert_eq!(
        (spf_runs - before.0, solves - before.1),
        (0, 1),
        "a demand update re-solves its column and runs no Dijkstra"
    );
    let (status, body) = request(&addr, "POST", "/link", r#"{"a":0,"b":1,"up":false}"#);
    assert_eq!(status, 200, "{body}");
    let outage = work();
    let (status, body) = request(&addr, "POST", "/link", r#"{"a":0,"b":1,"up":true}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        work(),
        outage,
        "a recovery with no demand update since the failure restores: no solve, no Dijkstra"
    );
    assert_eq!(
        (count("serve.event.restored"), count("serve.event.resolved")),
        (11, 0),
        "all of Abilene's 11 destinations restored"
    );
    let (status, body) = request(&addr, "POST", "/recompile", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"identical\":true"), "{body}");
    // Client errors must not poison the daemon — and an event whose "up" is
    // missing or not a boolean must not be read as "down".
    assert_eq!(request(&addr, "POST", "/demand", "not json").0, 400);
    assert_eq!(request(&addr, "GET", "/nope", "").0, 404);
    for (path, body) in [
        ("/link", r#"{"a":0,"b":1}"#),
        ("/link", r#"{"a":0,"b":1,"up":"true"}"#),
        ("/node", r#"{"node":3}"#),
    ] {
        assert_eq!(request(&addr, "POST", path, body).0, 400, "{path} {body}");
    }
    // A body the reader cannot delimit is a client error too, not an update
    // applied to whatever prefix arrived: an unparsable Content-Length, and
    // a connection that closes before Content-Length bytes were sent.
    let update = r#"{"updates":[{"src":0,"dst":4,"rate":9.5}]}"#;
    for length in ["abc", "-1", "1e3"] {
        let head = format!("POST /demand HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
        assert_eq!(
            raw_request(&addr, &head, update),
            400,
            "Content-Length: {length}"
        );
    }
    let head = format!(
        "POST /demand HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        update.len() + 7
    );
    assert_eq!(raw_request(&addr, &head, update), 400, "short body");
    let (status, state) = request(&addr, "GET", "/state", "");
    assert_eq!(status, 200);
    let state = serde_json::from_str(&state).unwrap();
    let failed = |key| state.get(key).and_then(|v| v.as_array()).map(<[_]>::len);
    assert_eq!(
        (failed("failed_links"), failed("failed_nodes")),
        (Some(0), Some(0))
    );
    assert_eq!(state.get("epoch").and_then(|e| e.as_f64()), Some(3.0));

    server.shutdown();
    server.join();
    coyote_obs::uninstall();
    registry.snapshot().deterministic()
}

#[test]
fn metrics_are_identical_across_worker_thread_counts() {
    let single = run_session(1);
    let quad = run_session(4);
    assert!(
        single
            .counters
            .get("serve.http.requests")
            .copied()
            .unwrap_or(0)
            >= 10,
        "sanity: the sequence was actually recorded"
    );
    assert_eq!(
        single, quad,
        "deterministic telemetry must not depend on worker thread count"
    );
}
