//! Integration tests for the production serving tier: single-flight
//! deduplication under concurrent cold traffic, HTTP/1.1 keep-alive
//! byte-identity, bounded-queue backpressure (503 + recovery), the
//! canonical response cache, and graceful shutdown that drains
//! in-flight requests.

use fuleak_experiments::experiment::sweep_table;
use fuleak_experiments::serve::{ServeConfig, Server};
use fuleak_experiments::{Budget, Engine, SweepSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const BUDGET: Budget = Budget::Custom(50_000);

/// The 8-point grid the concurrency tests sweep: 2 benches x 2 FU
/// counts x 2 L2 latencies.
fn grid() -> SweepSpec {
    SweepSpec::new(BUDGET)
        .benches(["gzip", "mst"])
        .axis_int_fus([1, 2])
        .axis_l2_latency([12, 32])
}

const GRID_TARGET: &str = "/sweep?bench=gzip,mst&int-fus=1,2&l2=12,32&format=json";

/// Sends one GET on an established keep-alive connection and reads
/// exactly one response (headers + `Content-Length` body).
fn request_on(reader: &mut BufReader<TcpStream>, target: &str, close: bool) -> (String, Vec<u8>) {
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        reader.get_mut(),
        "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\n\r\n"
    )
    .expect("send request");
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header line");
        assert!(!line.is_empty(), "connection closed mid-headers");
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read body");
    (head, body)
}

/// One-shot GET: fresh connection, `Connection: close`.
fn get(addr: SocketAddr, target: &str) -> (String, Vec<u8>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    request_on(&mut reader, target, true)
}

#[test]
fn concurrent_cold_sweeps_single_flight_to_grid_size() {
    let engine = Arc::new(Engine::new(4));
    let reference = {
        let fresh = Engine::new(1);
        sweep_table(&fresh, &grid())
            .expect("reference sweep")
            .to_json()
    };

    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), BUDGET).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // 8 identical cold sweeps race; the single-flight engine must
    // simulate each of the 8 grid points exactly once.
    let clients: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || get(addr, GRID_TARGET)))
        .collect();
    for client in clients {
        let (head, body) = client.join().expect("client thread");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(String::from_utf8_lossy(&body), reference);
    }
    assert_eq!(
        engine.stats().simulated(),
        8,
        "8 concurrent identical sweeps must simulate exactly the grid"
    );

    // The dedup is visible over the wire through /stats.
    let (head, body) = get(addr, "/stats");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let stats = String::from_utf8(body).expect("stats is utf-8");
    assert!(stats.contains("\"simulated\": 8"), "{stats}");
    assert!(stats.contains("\"flight_waits\""), "{stats}");
    assert!(stats.contains("\"respcache\""), "{stats}");

    handle.stop();
}

#[test]
fn keep_alive_connection_serves_mixed_requests_byte_identical_to_cli() {
    let engine = Arc::new(Engine::new(0));
    let spec = SweepSpec::new(BUDGET)
        .benches(["gzip"])
        .axis_int_fus([1, 2]);
    let table = sweep_table(&engine, &spec).expect("reference sweep");
    let (want_json, want_csv) = (table.to_json(), table.to_csv());

    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), BUDGET).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // One connection, four requests: the daemon must keep it alive
    // and every body must match the CLI bytes exactly.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    let sweep = "/sweep?bench=gzip&int-fus=1,2";
    let (head, body) = request_on(&mut reader, &format!("{sweep}&format=json"), false);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    assert_eq!(String::from_utf8_lossy(&body), want_json);
    let (head, body) = request_on(&mut reader, &format!("{sweep}&format=csv"), false);
    assert!(head.contains("text/csv"), "{head}");
    assert_eq!(String::from_utf8_lossy(&body), want_csv);
    let (_, body) = request_on(&mut reader, "/health", false);
    assert_eq!(body, b"ok\n");
    let (head, body) = request_on(&mut reader, &format!("{sweep}&format=json"), true);
    assert!(
        head.contains("Connection: close"),
        "server must honour Connection: close — {head}"
    );
    assert_eq!(String::from_utf8_lossy(&body), want_json);
    // The server closes after the final response.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty());

    assert_eq!(handle.counters().connections(), 1);
    assert_eq!(handle.counters().requests(), 4);
    handle.stop();
}

#[test]
fn runaway_axis_list_is_a_400_and_the_worker_keeps_serving() {
    // One worker: if the runaway query took it down, nothing would
    // answer the follow-up request.
    let engine = Arc::new(Engine::new(1));
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", engine, BUDGET, config).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // `0:1:1e-300` would expand to ~1e300 values; the grammar counts
    // first and refuses it before anything is allocated.
    let (head, body) = get(addr, "/explore?bench=gzip&leak=0:1:1e-300&format=json");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let message = String::from_utf8_lossy(&body);
    assert!(message.contains("per-axis cap"), "{message}");

    let (head, _) = get(
        addr,
        "/explore?bench=gzip&policy=maxsleep&slices=1&leak=0:1:0.5&transition=0.01&format=json",
    );
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    handle.stop();
}

#[test]
fn full_queue_answers_503_with_retry_after_then_recovers() {
    let engine = Arc::new(Engine::new(0));
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", Arc::clone(&engine), BUDGET, config).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // A occupies the single worker: served one response, the worker
    // then parks in A's keep-alive loop.
    let a = TcpStream::connect(addr).expect("connect A");
    let mut a_reader = BufReader::new(a);
    let (head, _) = request_on(&mut a_reader, "/health", false);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // B fills the depth-1 queue (it never sends a request yet).
    let b = TcpStream::connect(addr).expect("connect B");
    std::thread::sleep(Duration::from_millis(200));

    // C overflows: the accept thread answers 503 inline.
    let c = TcpStream::connect(addr).expect("connect C");
    let mut c_reader = BufReader::new(c);
    let mut refusal = String::new();
    loop {
        let mut line = String::new();
        c_reader.read_line(&mut line).expect("read 503");
        if line == "\r\n" || line.is_empty() {
            break;
        }
        refusal.push_str(&line);
    }
    assert!(refusal.starts_with("HTTP/1.1 503"), "{refusal}");
    assert!(refusal.contains("Retry-After: 1"), "{refusal}");

    // A hangs up; the worker drains the queue and serves B: the
    // server recovered without restarting anything.
    drop(a_reader);
    let mut b_reader = BufReader::new(b);
    let (head, body) = request_on(&mut b_reader, "/health", true);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, b"ok\n");

    assert_eq!(handle.counters().rejected_503(), 1);
    assert_eq!(handle.counters().queue_highwater(), 1);
    handle.stop();
}

#[test]
fn response_cache_hits_serve_byte_identical_bodies() {
    let engine = Arc::new(Engine::new(0));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), BUDGET).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let target = "/sweep?bench=gzip&int-fus=1:2&format=csv";
    let (_, first) = get(addr, target);
    // The equivalent list spelling canonicalizes to the same key.
    let (_, second) = get(addr, "/sweep?bench=gzip&int-fus=1,2&format=csv");
    assert_eq!(first, second, "cached body must be byte-identical");
    let cache = handle
        .respcache()
        .expect("default config enables the cache");
    assert!(cache.hits() >= 1, "second request must hit the cache");

    let (_, body) = get(addr, "/stats");
    let stats = String::from_utf8(body).expect("stats utf-8");
    assert!(stats.contains("\"enabled\": true"), "{stats}");

    handle.stop();
}

#[test]
fn graceful_shutdown_drains_the_in_flight_request() {
    let engine = Arc::new(Engine::new(2));
    let reference = {
        let fresh = Engine::new(1);
        sweep_table(&fresh, &grid())
            .expect("reference sweep")
            .to_json()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), BUDGET).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // A cold 8-point sweep is in flight when stop() lands: the
    // shutdown must drain it — complete headers, complete body,
    // byte-identical to the CLI.
    let client = std::thread::spawn(move || get(addr, GRID_TARGET));
    std::thread::sleep(Duration::from_millis(30));
    handle.stop();

    let (head, body) = client.join().expect("client thread");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(
        String::from_utf8_lossy(&body),
        reference,
        "drained response must not be truncated or altered"
    );

    // The port is actually released once stop() returns.
    assert!(
        std::net::TcpListener::bind(addr).is_ok(),
        "stopped server must release its address"
    );
}
