//! Integration tests for the persistent result store and the warm
//! serve daemon — the two halves of the "second run is free"
//! contract:
//!
//! * a fresh engine against a populated store re-simulates nothing
//!   and reproduces field-identical results;
//! * the rendered table bytes are identical with the store disabled,
//!   cold, and warm (the store changes *where* values come from,
//!   never what they are);
//! * concurrent serve clients each receive exactly the bytes the CLI
//!   would print for the same sweep.

use fuleak_experiments::experiment::sweep_table;
use fuleak_experiments::serve::Server;
use fuleak_experiments::store::StoreKind;
use fuleak_experiments::{Budget, Engine, ResultStore, Scenario, SweepSpec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

/// A small sweep (2 machine points of one benchmark at a reduced
/// budget) — enough to exercise every store kind without making the
/// suite simulation-bound.
const BUDGET: Budget = Budget::Custom(50_000);

fn spec() -> SweepSpec {
    SweepSpec::new(BUDGET)
        .benches(["gzip"])
        .axis_int_fus([1, 2])
}

/// A scratch store directory under the system temp dir, removed on
/// drop.
struct TempStore {
    root: PathBuf,
}

impl TempStore {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("fuleak-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        TempStore { root }
    }

    fn open(&self) -> Arc<ResultStore> {
        Arc::new(ResultStore::open(&self.root).expect("open temp store"))
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn warm_store_sweep_runs_zero_simulations() {
    let dir = TempStore::new("warm");

    // Cold run: everything simulates, everything is written behind.
    let cold = Engine::new(1);
    cold.set_store(Some(dir.open()));
    assert_eq!(cold.run_sweep(&spec()), 2, "cold run simulates both points");
    let cold_stats = cold.stats();
    assert_eq!(cold_stats.disk_sim_hits, 0);
    assert!(cold_stats.disk_writes > 0, "cold run populates the store");
    let cold_table = sweep_table(&cold, &spec()).expect("cold sweep");

    // Warm run: a *fresh* engine (empty in-memory caches) against the
    // populated directory answers entirely from disk.
    let warm = Engine::new(1);
    let store = dir.open();
    warm.set_store(Some(Arc::clone(&store)));
    assert_eq!(warm.run_sweep(&spec()), 0, "warm run simulates nothing");
    assert_eq!(store.hits_for(StoreKind::Sim), 2);
    assert_eq!(warm.stats().simulated(), 0);

    // And the recovered results are the same table, byte for byte.
    let warm_table = sweep_table(&warm, &spec()).expect("warm sweep");
    assert_eq!(warm_table.to_json(), cold_table.to_json());
    assert_eq!(warm_table.to_csv(), cold_table.to_csv());
}

/// Every file under `dir`, recursively.
fn paths_under(dir: &std::path::Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir).map_or(Vec::new(), |entries| {
        entries
            .flatten()
            .flat_map(|e| {
                if e.file_type().is_ok_and(|t| t.is_dir()) {
                    paths_under(&e.path())
                } else {
                    vec![e.path()]
                }
            })
            .collect()
    })
}

#[test]
fn a_cold_sweep_writes_one_batch_file_per_geometry() {
    // 32 timing points on one front-end geometry: one annotation file
    // and one simulation batch file, while the counters still count
    // every point.
    let dir = TempStore::new("batch-files");
    let engine = Engine::new(2);
    engine.set_store(Some(dir.open()));
    let spec = SweepSpec::new(Budget::Custom(5_000))
        .benches(["mcf"])
        .axis_int_fus([1, 2, 3, 4])
        .axis_l2_latency([12, 32])
        .axis_rob([64, 128])
        .axis_width([2, 4]);
    assert_eq!(engine.run_sweep(&spec), 32);
    assert_eq!(paths_under(&dir.root.join("sim")).len(), 1);
    assert_eq!(paths_under(&dir.root.join("ann")).len(), 1);
    assert_eq!(engine.stats().disk_writes, 33, "32 points and 1 annotation");
    // One container: every stored file is a batch.
    let staging = dir.root.join("tmp");
    for path in paths_under(&dir.root) {
        let bytes = std::fs::read(&path).unwrap();
        assert!(
            path.starts_with(&staging) || bytes.starts_with(b"FLKB"),
            "{} is not a batch",
            path.display()
        );
    }

    // A warm engine reads all 32 points back from the one file.
    let warm = Engine::new(2);
    let store = dir.open();
    warm.set_store(Some(Arc::clone(&store)));
    assert_eq!(warm.run_sweep(&spec), 0);
    assert_eq!(store.hits_for(StoreKind::Sim), 32);
}

#[test]
fn repeated_sweeps_of_one_geometry_keep_its_shard_small() {
    // Eight sweeps of one geometry with four new timing points each,
    // then eight single points through the lazy per-point path: after
    // n batches the shard holds at most 1 + log2(n) files, and a warm
    // engine reads every point back.
    let dir = TempStore::new("one-geometry");
    let sim = dir.root.join("sim");
    let budget = Budget::Custom(5_000);
    let engine = Engine::new(2);
    engine.set_store(Some(dir.open()));
    let sweeps: Vec<SweepSpec> = (0..8u64)
        .map(|i| {
            SweepSpec::new(budget)
                .benches(["mcf"])
                .axis_int_fus([1, 2])
                .axis_memory_latency([60 + 10 * i, 65 + 10 * i])
        })
        .collect();
    let mut batches = 0u32;
    for spec in &sweeps {
        assert_eq!(engine.run_sweep(spec), 4);
        batches += 1;
        assert!(paths_under(&sim).len() as u32 <= 1 + batches.ilog2());
    }
    let singles: Vec<Scenario> = (0..8)
        .map(|i| Scenario::paper("mcf", 3, 100 + i, budget))
        .collect();
    for s in &singles {
        engine.result(s.clone());
        batches += 1;
        assert!(paths_under(&sim).len() as u32 <= 1 + batches.ilog2());
    }
    assert_eq!(paths_under(&dir.root.join("ann")).len(), 1);

    let warm = Engine::new(2);
    let store = dir.open();
    warm.set_store(Some(Arc::clone(&store)));
    for spec in &sweeps {
        assert_eq!(warm.run_sweep(spec), 0);
    }
    assert_eq!(warm.prime(&singles), 0);
    assert_eq!(store.hits_for(StoreKind::Sim), 40);
    assert_eq!(store.corrupt(), 0);
}

#[test]
fn store_never_changes_rendered_bytes() {
    let dir = TempStore::new("bytes");

    let plain = Engine::new(1);
    let reference = sweep_table(&plain, &spec()).expect("store-off sweep");

    let stored = Engine::new(1);
    stored.set_store(Some(dir.open()));
    // Cold (computing + writing) and warm (reading back) passes.
    let cold = sweep_table(&stored, &spec()).expect("cold sweep");
    let rewarm = Engine::new(1);
    rewarm.set_store(Some(dir.open()));
    let warm = sweep_table(&rewarm, &spec()).expect("warm sweep");

    assert_eq!(cold.to_json(), reference.to_json());
    assert_eq!(warm.to_json(), reference.to_json());
    assert_eq!(cold.to_csv(), reference.to_csv());
    assert_eq!(warm.to_csv(), reference.to_csv());
}

/// Issues one GET against the test server and returns the response
/// body. Sends `Connection: close` so the server ends the connection
/// after the response and `read_to_end` terminates promptly (the
/// serving tier keeps connections alive by default).
fn get(addr: std::net::SocketAddr, target: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body separator");
    let head = String::from_utf8(raw[..split].to_vec()).expect("utf-8 headers");
    (head, raw[split + 4..].to_vec())
}

#[test]
fn serve_answers_concurrent_clients_byte_identical_to_cli() {
    let engine = Arc::new(Engine::new(0));
    let expected = sweep_table(&engine, &spec())
        .expect("reference sweep")
        .to_json();

    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), BUDGET).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let clients: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || get(addr, "/sweep?bench=gzip&int-fus=1,2&format=json")))
        .collect();
    for client in clients {
        let (head, body) = client.join().expect("client thread");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(String::from_utf8_lossy(&body), expected);
    }

    // Unknown routes and malformed sweeps fail cleanly while the
    // server keeps serving.
    let (head, _) = get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    let (head, _) = get(addr, "/sweep?bench=unknown-bench");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let (head, body) = get(addr, "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, b"ok\n");

    handle.stop();
}
