//! The daemon's HTTP boundary: a body the JSON reader rejects is a 400 and
//! changes nothing, whatever the class of the defect, `POST /shutdown`
//! stops a daemon of any worker count, and a worker count no host could
//! spawn is an error, not a panic.

use coyote_serve::{EngineConfig, ServeError, Server, ServerConfig, TeEngine};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

fn start(threads: usize) -> Server {
    let engine = TeEngine::new(&EngineConfig::default()).unwrap();
    let config = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    Server::start(engine, &config).unwrap()
}

fn request(server: &Server, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(format!("{head}{body}").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, payload) = raw.split_once("\r\n\r\n").unwrap();
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, payload.to_string())
}

/// A demand body whose `rate` is `rate` and whose `src` is `src`, verbatim.
fn demand(src: &str, rate: &str) -> String {
    format!(r#"{{"updates":[{{"src":{src},"dst":4,"rate":{rate}}}]}}"#)
}

#[test]
fn every_class_of_rejected_body_is_a_400_and_changes_nothing() {
    let server = start(2);
    let (_, before) = request(&server, "GET", "/state", "");
    let deep = "[".repeat(serde_json::MAX_DEPTH + 1) + &"]".repeat(serde_json::MAX_DEPTH + 1);
    let bodies = [
        ("plus sign", demand("0", "+1")),
        ("leading zero", demand("0", "01")),
        ("no integer part", demand("0", ".5")),
        ("no fraction digits", demand("0", "1.")),
        ("negative, no integer part", demand("0", "-.5")),
        (
            "10k-digit run after a zero",
            demand("0", &format!("0{}", "1".repeat(10_000))),
        ),
        ("signed \\u escape", demand(r#""\u+fff""#, "1")),
        ("lone surrogate", demand(r#""\ud800""#, "1")),
        ("raw control character", demand("\"\u{1}\"", "1")),
        ("too deep", format!(r#"{{"updates":{deep}}}"#)),
        ("truncated", demand("0", "1")[..30].to_string()),
        ("trailing bytes", demand("0", "1") + " x"),
    ];
    for (class, body) in &bodies {
        let (status, reply) = request(&server, "POST", "/demand", body);
        assert_eq!(status, 400, "{class}: {reply}");
        assert!(reply.contains("invalid JSON body"), "{class}: {reply}");
    }
    let (_, after) = request(&server, "GET", "/state", "");
    assert_eq!(after, before, "a rejected body changed the daemon's state");
    assert_eq!(
        request(&server, "POST", "/demand", &demand("0", "7.5")).0,
        200
    );
    server.shutdown();
    server.join();
}

#[test]
fn post_shutdown_stops_a_daemon_with_sixteen_workers() {
    let server = start(16);
    assert_eq!(request(&server, "POST", "/shutdown", "").0, 200);
    // `join` blocks for as long as one worker is parked, so it waits on a
    // thread of its own and the test on a bounded receive.
    let (done, joined) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    assert!(
        joined.recv_timeout(Duration::from_secs(10)).is_ok(),
        "16 workers still running 10 s after POST /shutdown"
    );
    joiner.join().expect("the joining thread finished");
}

#[test]
fn an_unspawnable_worker_count_is_an_error() {
    let engine = TeEngine::new(&EngineConfig::default()).unwrap();
    let config = ServerConfig {
        threads: usize::MAX,
        ..ServerConfig::default()
    };
    match Server::start(engine, &config) {
        Err(ServeError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        Err(other) => panic!("not an InvalidInput error: {other}"),
        Ok(_) => panic!("usize::MAX workers started"),
    }
}
