//! `serve_mixed` — the warm daemon under a mixed `/sweep` query stream.
//!
//! Set-up simulates a fixed pool of points (the nine benchmarks × FU
//! counts 1–4 × L2 latencies 12 and 32, quick budget) into a fresh
//! store, then restarts a serving engine from that store (the disk read
//! path), prices the policy grid the queries draw from, and starts an
//! in-process `Server::bind_with` on `127.0.0.1:0` with the default
//! `ServeConfig` (response cache on). Two keep-alive clients send
//! `/sweep` queries, closed loop.
//!
//! The queries come from a seeded population of distinct specs —
//! sub-grids of the pool crossed with policy, slice, leakage and
//! transition lists, JSON or CSV. A quarter of the requests repeat a
//! small hot set with Zipf popularity, in varied spellings of the same
//! canonical spec (comma lists or ranges, reordered parameters,
//! `%2C`, trailing zeros, an explicit `format=json`); those hit the
//! response cache. The rest are specs never asked before, which
//! render: parse, expansion, engine lookups, policy lookups, table
//! build, serialization and HTTP do the work, and replay does none.
//!
//! The serving engine runs without its store attached: with it, every
//! rendered body and every priced policy point would be written behind
//! to disk as its own file, and the run would measure file creation.
//! The store's read path is measured where a restart pays it, in
//! set-up.

use crate::report::{self, Outcome};
use crate::rng::Rng;
use crate::trace::{span_ms, Accounting, Span, Tracer, ROOT, SETUP_OP};
use crate::{set_success, set_up, setup_median, write_spans, Args, Limit, Phases, JOBS, WARMUP};
use fuleak_experiments::cli::apply_sweep_flag;
use fuleak_experiments::experiment::sweep_table;
use fuleak_experiments::respcache::{sweep_key, BodyFormat, ResponseCache};
use fuleak_experiments::scenario::{parallel_map, EngineStats};
use fuleak_experiments::serve::{ServeConfig, Server, ServerHandle};
use fuleak_experiments::{Budget, Engine, ResultStore, Scenario, SweepSpec};
use fuleak_workloads::Benchmark;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BUDGET: Budget = Budget::Quick;
const L2S: [u64; 2] = [12, 32];
const POLICIES: [&str; 6] = [
    "maxsleep",
    "gradualsleep",
    "alwaysactive",
    "nooverhead",
    "timeoutsleep",
    "adaptivesleep",
];
const SLICES: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
const LEAKS: [&str; 10] = [
    "0.01", "0.02", "0.05", "0.1", "0.15", "0.2", "0.3", "0.5", "0.7", "0.9",
];
const TRANSITIONS: [&str; 6] = ["0", "0.005", "0.01", "0.02", "0.05", "0.1"];

/// Rows per query: enough that a render is milliseconds of work.
const ROWS: (usize, usize) = (120, 600);

/// Hot-set size and the share of requests drawn from it.
const HOT: usize = 32;
const HOT_SHARE: f64 = 0.25;

/// Untraced runs generate `seconds × MAX_RPS` requests.
const MAX_RPS: usize = 3000;

/// Traced runs send exactly `seconds × TRACED_RPS` requests, the first
/// `TRACED_WARM` unmeasured.
const TRACED_RPS: usize = 300;
const TRACED_WARM: usize = 200;

/// One canonical `/sweep` spec, as indices into the value lists above.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Query {
    benches: Vec<&'static str>,
    fus: Vec<u64>,
    l2: Vec<u64>,
    policies: Vec<usize>,
    slices: Vec<u32>,
    leaks: Vec<usize>,
    transitions: Vec<usize>,
    csv: bool,
}

impl Query {
    fn draw(rng: &mut Rng, benches: &[&'static str]) -> Query {
        let policies = rng.some(&[0, 1, 2, 3, 4, 5], 1, 4);
        let slices = if policies.contains(&1) {
            rng.some(&SLICES, 1, 3)
        } else {
            Vec::new()
        };
        let fus = if rng.chance(0.5) {
            let lo = rng.range(1, 3) as u64;
            (lo..=rng.range(lo as usize + 1, 4) as u64).collect()
        } else {
            rng.some(&[1, 2, 3, 4], 1, 4)
        };
        Query {
            benches: rng.some(benches, 1, 3),
            fus,
            l2: rng.pick(&[&L2S[..1], &L2S[1..], &L2S[..]]).to_vec(),
            policies,
            slices,
            leaks: rng.some(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 2, 5),
            transitions: rng.some(&[0, 1, 2, 3, 4, 5], 1, 3),
            csv: rng.chance(0.2),
        }
    }

    fn rows(&self) -> usize {
        let evals = (self.policies.len() - usize::from(!self.slices.is_empty())
            + self.slices.len())
            * self.leaks.len()
            * self.transitions.len();
        self.benches.len() * self.fus.len() * self.l2.len() * evals
    }

    /// The query's parameters, plainly spelled.
    fn params(&self) -> Vec<(&'static str, String)> {
        let list = |xs: Vec<String>| xs.join(",");
        let contiguous = self.fus.len() > 1 && self.fus.windows(2).all(|w| w[1] == w[0] + 1);
        let fus = if contiguous {
            format!("{}:{}", self.fus[0], self.fus[self.fus.len() - 1])
        } else {
            list(self.fus.iter().map(u64::to_string).collect())
        };
        let mut params = vec![
            ("bench", self.benches.join(",")),
            ("int-fus", fus),
            ("l2", list(self.l2.iter().map(u64::to_string).collect())),
            (
                "policy",
                list(
                    self.policies
                        .iter()
                        .map(|&p| POLICIES[p].to_string())
                        .collect(),
                ),
            ),
            (
                "leak",
                list(self.leaks.iter().map(|&l| LEAKS[l].to_string()).collect()),
            ),
            (
                "transition",
                list(
                    self.transitions
                        .iter()
                        .map(|&t| TRANSITIONS[t].to_string())
                        .collect(),
                ),
            ),
        ];
        if !self.slices.is_empty() {
            params.push((
                "slices",
                list(self.slices.iter().map(u32::to_string).collect()),
            ));
        }
        if self.csv {
            params.push(("format", "csv".to_string()));
        }
        params
    }

    /// A request path for this query. An alias respells the same
    /// canonical spec: ranges with explicit strides, trailing zeros on
    /// fractions, an explicit `format=json`, shuffled parameters, and
    /// `%2C` for commas.
    fn path(&self, rng: &mut Rng, alias: bool) -> String {
        let mut params = self.params();
        if alias {
            for (key, value) in &mut params {
                match *key {
                    "int-fus" if value.contains(':') => value.push_str(":1"),
                    "l2" if value == "12,32" => *value = "12:32:20".to_string(),
                    "leak" | "transition" => {
                        let respelled: Vec<String> = value
                            .split(',')
                            .map(|v| match (rng.chance(0.5), v.contains('.')) {
                                (false, _) => v.to_string(),
                                (true, true) => format!("{v}0"),
                                (true, false) => format!("{v}.0"),
                            })
                            .collect();
                        *value = respelled.join(",");
                    }
                    _ => {}
                }
            }
            if !self.csv && rng.chance(0.5) {
                params.push(("format", "json".to_string()));
            }
            rng.shuffle(&mut params);
        }
        let encode = alias && rng.chance(0.5);
        let query: Vec<String> = params
            .into_iter()
            .map(|(k, v)| {
                let v = if encode { v.replace(',', "%2C") } else { v };
                format!("{k}={v}")
            })
            .collect();
        format!("/sweep?{}", query.join("&"))
    }

    /// The spec the server parses from this query, built through the
    /// same flag grammar.
    fn spec(&self) -> Result<(SweepSpec, BodyFormat), String> {
        let mut spec = SweepSpec::new(BUDGET);
        for (key, value) in self.params() {
            if key != "format" {
                spec = apply_sweep_flag(spec, &format!("--{key}"), &value)?;
            }
        }
        Ok((
            spec,
            if self.csv {
                BodyFormat::Csv
            } else {
                BodyFormat::Json
            },
        ))
    }
}

/// One request of the seeded stream: which canonical query, spelled how.
struct Request {
    query: usize,
    path: String,
}

/// The seeded request stream over its distinct queries.
fn generate(seed: u64, n: usize) -> (Vec<Query>, Vec<Request>) {
    let mut rng = Rng::new(seed, 1);
    let benches: Vec<&'static str> = Benchmark::all().iter().map(|b| b.name).collect();
    let mut queries: Vec<Query> = Vec::new();
    let mut seen = HashSet::new();
    let mut fresh = |rng: &mut Rng, queries: &mut Vec<Query>| loop {
        let q = Query::draw(rng, &benches);
        if (ROWS.0..=ROWS.1).contains(&q.rows()) && seen.insert(q.clone()) {
            queries.push(q);
            return queries.len() - 1;
        }
    };
    let hot: Vec<usize> = (0..HOT).map(|_| fresh(&mut rng, &mut queries)).collect();
    let mut cdf = Vec::with_capacity(HOT);
    let mut total = 0.0;
    for r in 0..HOT {
        total += 1.0 / (r + 1) as f64;
        cdf.push(total);
    }
    let mut requests = Vec::with_capacity(n);
    for _ in 0..n {
        let (query, alias) = if rng.chance(HOT_SHARE) {
            (hot[rng.weighted(&cdf)], true)
        } else {
            (fresh(&mut rng, &mut queries), false)
        };
        let path = queries[query].path(&mut rng, alias);
        requests.push(Request { query, path });
    }
    (queries, requests)
}

/// The scenario pool the queries draw their machine points from.
fn pool() -> Vec<Scenario> {
    SweepSpec::new(BUDGET).l2_latencies(L2S).scenarios()
}

/// Prices every (pool point × policy point) any query can ask for, so
/// timed renders are lookups and the policy cache stays bounded.
fn price(engine: &Engine) -> Result<(), String> {
    let fractions = |xs: &[&str]| -> Result<Vec<f64>, String> {
        xs.iter()
            .map(|x| x.parse::<f64>().map_err(|e| e.to_string()))
            .collect()
    };
    let points =
        SweepSpec::new(BUDGET)
            .axis_policy(POLICIES.iter().map(|p| {
                fuleak_experiments::policy::PolicyKind::parse(p).expect("registered policy")
            }))
            .axis_slices(SLICES)
            .axis_leak_ratio(fractions(&LEAKS)?)
            .axis_transition_cost(fractions(&TRANSITIONS)?)
            .eval_points();
    parallel_map(JOBS, pool(), |s| {
        for pt in &points {
            let model = pt.model().expect("listed fractions are valid");
            engine.policy_run(&s, pt.policy.form(&model, pt.slices), &model);
        }
    });
    Ok(())
}

struct World {
    server: ServerHandle,
    store: Arc<ResultStore>,
    dir: PathBuf,
    ipc_err_pct: f64,
    /// The restarted engine's disk hits in set-up.
    disk_hits: usize,
    /// Functional executions in set-up.
    captures: usize,
}

/// A serving engine restarted from `store`: every pool point read back
/// from disk, then the store detached and the policy grid priced.
fn restart(store: &Arc<ResultStore>, tracer: &Tracer, root: u32) -> Result<Engine, String> {
    let engine = Engine::new(JOBS);
    engine.set_store(Some(Arc::clone(store)));
    tracer.span(SETUP_OP, root, "store.read", |_| engine.prime(&pool()));
    engine.set_store(None);
    tracer.span(SETUP_OP, root, "setup.price", |_| price(&engine))?;
    Ok(engine)
}

fn build(tracer: &Tracer) -> Result<World, String> {
    tracer.span(SETUP_OP, ROOT, "setup", |root| {
        let dir = report::scratch_dir("serve_mixed-store")?;
        let store = Arc::new(ResultStore::open(&dir).map_err(|e| format!("open store: {e}"))?);
        let populate = Engine::new(JOBS);
        populate.set_store(Some(Arc::clone(&store)));
        let benches: Vec<&'static str> = Benchmark::all().iter().map(|b| b.name).collect();
        tracer.span(SETUP_OP, root, "workloads.capture", |_| {
            parallel_map(JOBS, benches, |bench| {
                populate.trace(bench, BUDGET);
            })
        });
        tracer.span(SETUP_OP, root, "setup.populate", |_| {
            populate.prime(&pool())
        });
        let captures = populate.stats().captures;
        drop(populate);
        let engine = Arc::new(restart(&store, tracer, root)?);
        let disk_hits = store.hits();
        let ipc_err_pct = report::ipc_err_pct(&engine)?;
        let server =
            Server::bind_with("127.0.0.1:0", engine, BUDGET, ServeConfig::default())?.spawn();
        let mut client = Client::new(server.addr());
        let mut body = Vec::new();
        client.get("/health", &mut body)?;
        Ok(World {
            server,
            store,
            dir,
            ipc_err_pct,
            disk_hits,
            captures,
        })
    })
}

fn discard(world: World) {
    world.server.stop();
    let _ = std::fs::remove_dir_all(&world.dir);
}

/// A keep-alive HTTP/1.1 client that reconnects when the server closes
/// the connection.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: usize,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// GETs `path` into `body`; any status but 200 is an error.
    fn get(&mut self, path: &str, body: &mut Vec<u8>) -> Result<(), String> {
        let result = self.exchange(path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, path: &str, body: &mut Vec<u8>) -> Result<(), String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            let _ = stream.set_nodelay(true);
            self.conn = Some(BufReader::new(stream));
            self.connects += 1;
        }
        let conn = self.conn.as_mut().expect("connected above");
        let io = |e: std::io::Error| format!("{path}: {e}");
        conn.get_mut()
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
            .map_err(io)?;
        let mut line = String::new();
        conn.read_line(&mut line).map_err(io)?;
        if !line.starts_with("HTTP/1.1 200") {
            return Err(format!("{path}: status `{}`", line.trim_end()));
        }
        let (mut length, mut close) = (None, false);
        loop {
            line.clear();
            conn.read_line(&mut line).map_err(io)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        body.resize(
            length.ok_or_else(|| format!("{path}: no Content-Length"))?,
            0,
        );
        conn.read_exact(body).map_err(io)?;
        if close {
            self.conn = None;
        }
        Ok(())
    }
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// One sent request.
struct Exchange {
    index: usize,
    measured: bool,
    lat_ns: u64,
    end: Instant,
    result: Result<u64, String>,
}

/// Two closed-loop clients take requests in stream order until the
/// limit; returns every exchange and the total connections opened.
fn load(addr: SocketAddr, requests: &[Request], limit: Limit) -> (Vec<Exchange>, usize, Instant) {
    let next = AtomicUsize::new(0);
    let log = Mutex::new(Vec::with_capacity(requests.len().min(1 << 16)));
    let start = Instant::now();
    let measure_from = start + WARMUP;
    let connects: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..JOBS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut body = Vec::new();
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let began = Instant::now();
                        let measured = match limit {
                            Limit::Seconds(s) => {
                                if began >= measure_from + Duration::from_secs(s) {
                                    break;
                                }
                                began >= measure_from
                            }
                            Limit::Ops { total, warm } => {
                                if index >= total {
                                    break;
                                }
                                index >= warm
                            }
                        };
                        if index >= requests.len() {
                            break;
                        }
                        let result = client.get(&requests[index].path, &mut body);
                        let end = Instant::now();
                        mine.push(Exchange {
                            index,
                            measured,
                            lat_ns: (end - began).as_nanos() as u64,
                            end,
                            result: result.map(|()| hash(&body)),
                        });
                    }
                    log.lock().expect("log lock").append(&mut mine);
                    client.connects
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .sum()
    });
    let mut log = log.into_inner().expect("log lock");
    log.sort_by_key(|e| e.index);
    (log, connects, measure_from)
}

/// Renders one request in process the way the server does — parse,
/// response-cache probe, and on a miss expand, table, serialize and
/// cache — under spans when `span_op` is set. Returns the body length.
fn render(
    engine: &Engine,
    cache: &ResponseCache,
    path: &str,
    tracer: &Tracer,
    span_op: Option<(u32, u32)>,
) -> Result<usize, String> {
    let span = |name: &'static str, f: &mut dyn FnMut()| match span_op {
        Some((op, root)) => tracer.span(op, root, name, |_| f()),
        None => f(),
    };
    let mut parsed = Err(String::new());
    span("cli.parse", &mut || parsed = parse(path));
    let (spec, format) = parsed?;
    let mut key = Vec::new();
    let mut hit = None;
    span("respcache.probe", &mut || {
        key = sweep_key(&spec, format);
        hit = cache.get(&key);
    });
    if let Some(body) = hit {
        return Ok(body.len());
    }
    if span_op.is_some() {
        let mut expanded = Ok(());
        span("scenario.expand", &mut || {
            expanded = spec.try_expand().map(drop)
        });
        expanded.map_err(|e| e.to_string())?;
    }
    let mut built = None;
    span("experiment.table", &mut || {
        built = Some(sweep_table(engine, &spec))
    });
    let mut table = Some(built.expect("span ran").map_err(|e| e.to_string())?);
    let mut body = String::new();
    span("result.serialize", &mut || {
        let table = table.as_ref().expect("table is built");
        body = match format {
            BodyFormat::Json => table.to_json(),
            BodyFormat::Csv => table.to_csv(),
        }
    });
    let len = body.len();
    span("respcache.put", &mut || {
        cache.put(&key, std::mem::take(&mut body).into_bytes());
    });
    // Freeing the table's row cells is part of the table's cost.
    span("experiment.table", &mut || table = None);
    Ok(len)
}

/// Parses a `/sweep` target the way the server does.
fn parse(path: &str) -> Result<(SweepSpec, BodyFormat), String> {
    let query = path.strip_prefix("/sweep?").ok_or("not a /sweep target")?;
    let mut spec = SweepSpec::new(BUDGET);
    let mut format = BodyFormat::Json;
    for pair in query.split('&') {
        let (key, value) = pair.split_once('=').ok_or("parameter without value")?;
        let value = value.replace("%2C", ",");
        if key == "format" {
            format = if value == "csv" {
                BodyFormat::Csv
            } else {
                BodyFormat::Json
            };
        } else {
            spec = apply_sweep_flag(spec, &format!("--{key}"), &value)?;
        }
    }
    Ok((spec, format))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let limit = Limit::of(args, TRACED_RPS, TRACED_WARM);
    let n = match limit {
        Limit::Ops { total, .. } => total,
        Limit::Seconds(s) => s as usize * MAX_RPS,
    };
    let mut phases = Phases::start();
    let (queries, requests) = generate(args.seed, n);
    phases.done("generate");
    let (world, first_setup) = set_up(|| build(&tracer))?;
    phases.done("set-up");
    let engine = Arc::clone(world.server.engine());

    let before = engine.stats();
    let ((log, connects, measure_from), rss_mb) =
        report::with_rss_peak(|_| load(world.server.addr(), &requests, limit));
    let delta = engine.stats().since(&before);
    phases.done("load");

    let mut out = Outcome::new();
    out.attempted = log.len() as u64;
    let measured: Vec<&Exchange> = log.iter().filter(|e| e.measured).collect();
    let lat_ms: Vec<f64> = measured.iter().map(|e| e.lat_ns as f64 / 1e6).collect();
    out.set("op_p50_ms", report::percentile(&lat_ms, 0.5));
    out.set("op_p95_ms", report::percentile(&lat_ms, 0.95));
    out.set("peak_rss_mb", rss_mb);
    let last = measured.iter().map(|e| e.end).max().unwrap_or(measure_from);
    out.set(
        "ops_per_s",
        measured.len() as f64
            / last
                .saturating_duration_since(measure_from)
                .as_secs_f64()
                .max(1e-9),
    );
    if delta.simulated() != 0 {
        out.fail(&format!(
            "{} points simulated in the timed phase",
            delta.simulated()
        ));
    }

    // Output check, untimed: every distinct query sent, rendered in
    // process, must match the served bytes of each of its spellings.
    let sent: Vec<usize> = {
        let mut ids: Vec<usize> = log.iter().map(|e| requests[e.index].query).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let expected: HashMap<usize, Result<u64, String>> = parallel_map(JOBS, sent, |q| {
        let rendered = queries[q].spec().and_then(|(spec, format)| {
            let table = sweep_table(&engine, &spec).map_err(|e| e.to_string())?;
            Ok(hash(
                match format {
                    BodyFormat::Json => table.to_json(),
                    BodyFormat::Csv => table.to_csv(),
                }
                .as_bytes(),
            ))
        });
        (q, rendered)
    })
    .into_iter()
    .collect();
    for e in &log {
        let want = &expected[&requests[e.index].query];
        match (&e.result, want) {
            (Err(why), _) => out.fail(why),
            (_, Err(why)) => out.fail(&format!("in-process render: {why}")),
            (Ok(got), Ok(want)) if got != want => out.fail(&format!(
                "{}: served body differs from the in-process render",
                requests[e.index].path
            )),
            _ => {}
        }
    }
    phases.done("check");

    if args.trace {
        let shadow = shadow_pass(&world, &requests, &log, &tracer)?;
        let spans = tracer.into_spans();
        write_spans(args, &spans)?;
        layer_metrics(&mut out, &world, &spans, &log, &shadow, &delta, connects);
    } else {
        out.set("ipc_err_pct", world.ipc_err_pct);
        set_success(&mut out);
    }
    discard(world);
    if !args.trace {
        let setup_s = setup_median(first_setup, || build(&Tracer::new(false)), discard)?;
        out.set("setup_s", setup_s);
    }
    phases.done("finish");
    Ok(out)
}

/// What the shadow pass measured.
struct Shadow {
    /// Untraced in-process render time per measured even request, ns.
    render_ns: HashMap<usize, u64>,
    body_bytes: usize,
    cache: ResponseCache,
    engine: EngineStats,
}

/// Attributes each request to parse, render and HTTP without warming the
/// server: the same public calls on a shadow engine restarted from the
/// same store and priced the same way, with its own response cache, in
/// stream order. Even requests render plainly (their time is
/// subtracted from the client latency to give HTTP); odd ones render
/// under spans.
fn shadow_pass(
    world: &World,
    requests: &[Request],
    log: &[Exchange],
    tracer: &Tracer,
) -> Result<Shadow, String> {
    let engine = restart(&world.store, &Tracer::new(false), ROOT)?;
    let cache = ResponseCache::new(ServeConfig::default().respcache_bytes);
    let before = engine.stats();
    let mut render_ns = HashMap::new();
    let mut body_bytes = 0;
    for e in log {
        let path = &requests[e.index].path;
        let op = e.index as u32;
        let started = Instant::now();
        body_bytes += if e.index % 2 == 1 {
            tracer.span(op, ROOT, "op", |root| {
                render(&engine, &cache, path, tracer, Some((op, root)))
            })?
        } else {
            let len = render(&engine, &cache, path, tracer, None)?;
            if e.measured {
                render_ns.insert(e.index, started.elapsed().as_nanos() as u64);
            }
            len
        };
    }
    Ok(Shadow {
        render_ns,
        body_bytes,
        engine: engine.stats().since(&before),
        cache,
    })
}

fn layer_metrics(
    out: &mut Outcome,
    world: &World,
    spans: &[Span],
    log: &[Exchange],
    shadow: &Shadow,
    served: &EngineStats,
    connects: usize,
) {
    out.set(
        "workloads.capture_ms",
        span_ms(spans, SETUP_OP, "workloads.capture"),
    );
    out.set("workloads.captures", world.captures as f64);
    out.set("store.read_ms", span_ms(spans, SETUP_OP, "store.read"));
    out.set("store.disk_hits", world.disk_hits as f64);
    out.set("store.disk_writes", served.disk_writes as f64);

    let measured: HashSet<u32> = log
        .iter()
        .filter(|e| e.measured)
        .map(|e| e.index as u32)
        .collect();
    let traced: Vec<Span> = spans
        .iter()
        .filter(|s| s.op != SETUP_OP && measured.contains(&s.op))
        .cloned()
        .collect();
    let acc = Accounting::of(&traced, "op");
    out.set("cli.parse_us", acc.mean_ms("cli.parse") * 1e3);
    out.set("scenario.expand_us", acc.mean_ms("scenario.expand") * 1e3);
    out.set("experiment.table_ms", acc.mean_ms("experiment.table"));
    out.set("result.serialize_ms", acc.mean_ms("result.serialize"));
    out.set("result.body_bytes", shadow.body_bytes as f64);

    let c = &shadow.cache;
    out.set(
        "respcache.hit_ratio",
        report::ratio(c.hits(), c.hits() + c.misses()),
    );
    out.set("respcache.hits", c.hits() as f64);
    out.set("respcache.lookups", (c.hits() + c.misses()) as f64);
    out.set("respcache.evictions", c.evictions() as f64);
    out.set("respcache.bytes", c.bytes() as f64);

    report::engine_counts(out, &shadow.engine);
    out.set("scenario.simulated", served.simulated() as f64);
    out.set("uarch.replays", served.simulated() as f64);
    out.set("uarch.annotations", served.annotations_built as f64);

    let http: Vec<f64> = log
        .iter()
        .filter(|e| e.measured && e.result.is_ok())
        .filter_map(|e| {
            let render = shadow.render_ns.get(&e.index)?;
            Some(e.lat_ns.saturating_sub(*render) as f64 / 1e3)
        })
        .collect();
    out.set("serve.http_us", report::mean(&http));
    let counters = world.server.counters();
    out.set("serve.requests", counters.requests() as f64);
    out.set("serve.connections", connects as f64);
    out.set("serve.queue_highwater", counters.queue_highwater() as f64);
    out.set("serve.rejected_503", counters.rejected_503() as f64);

    // A request's time is its client latency; the shadow spans cover the
    // in-process render, HTTP is the rest, and the gaps between the
    // render's calls are what no layer accounts for.
    let traced_lat: u64 = log
        .iter()
        .filter(|e| e.measured && e.index % 2 == 1)
        .map(|e| e.lat_ns)
        .sum();
    let plain_ms: Vec<f64> = shadow
        .render_ns
        .values()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    report::trace_summary(out, &acc, &plain_ms);
    out.set(
        "trace.unattributed_pct",
        100.0 * acc.unattributed_ns as f64 / traced_lat.max(1) as f64,
    );
}
