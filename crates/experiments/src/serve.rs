//! `repro serve` — a warm result daemon over the scenario engine.
//!
//! A hand-rolled, dependency-free HTTP/1.1 server (`std::net` only)
//! holding one [`Engine`] — and, through it, the four in-memory cache
//! layers and the optional persistent [`crate::store::ResultStore`] —
//! alive across requests, so repeated sweeps and experiment
//! regenerations cost a table render instead of a simulation, and a
//! repeated *request* costs a cache lookup instead of a render (the
//! [`crate::respcache::ResponseCache`] holds canonical rendered
//! bodies).
//!
//! The connection layer is a production-shaped pool rather than
//! thread-per-connection:
//!
//! * a fixed worker pool ([`ServeConfig::workers`]) drains a bounded
//!   accept queue ([`ServeConfig::queue_depth`]); when the queue is
//!   full the accept thread answers `503` with `Retry-After: 1`
//!   inline and drops the connection — bounded memory under overload;
//! * connections are HTTP/1.1 keep-alive by default: a worker serves
//!   up to [`ServeConfig::max_requests_per_conn`] requests per
//!   connection, honouring `Connection: close` and always sending
//!   explicit `Content-Length` and `Connection` headers;
//! * [`ServerHandle::stop`] is graceful: the accept loop exits, the
//!   queue closes, and every worker finishes its in-flight request
//!   (and any already-accepted queued connections) before the join
//!   returns — no response is ever truncated by shutdown.
//!
//! Endpoints (GET only):
//!
//! * `/health` — liveness probe, `ok` as `text/plain`;
//! * `/stats` — engine, response-cache, and server counters as JSON
//!   with deterministic key order (telemetry; never cached);
//! * `/experiments` — the experiment registry as a JSON name array;
//! * `/experiment/<name>?format=json|csv` — one registry experiment's
//!   table;
//! * `/sweep?<axis>=<values>&format=json|csv` — an ad-hoc sweep; the
//!   query keys are the `repro sweep` axis flags minus the leading
//!   dashes (`bench=gzip,vpr&int-fus=1:4&l2=12,32&policy=maxsleep`),
//!   parsed by the same [`crate::cli`] grammar;
//! * `/explore?<axis>=<values>&format=json|csv` — a grid-batched
//!   design-space exploration (`repro explore` axis flags minus the
//!   dashes, e.g. `bench=gzip&leak=0:1:0.02&transition=0.01`); the
//!   body is the optima, frontier, and crossover tables concatenated
//!   in the CLI's emission order.
//!
//! Responses are the *exact* [`crate::result::ResultTable::to_json`] /
//! [`to_csv`](crate::result::ResultTable::to_csv) bytes the CLI
//! prints with `--format json|csv` — the determinism contract extends
//! over the wire, and CI diffs a served sweep against the CLI output
//! byte for byte, with and without the response cache. Request logs
//! go to stderr; the server never touches stdout.

use crate::cli;
use crate::experiment::{self, sweep_table, Context};
use crate::explore::{explore, ExploreSpec};
use crate::harness::Budget;
use crate::respcache::{self, BodyFormat, ResponseCache};
use crate::scenario::{lock_unpoisoned, Engine, SweepSpec};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll granularity for keep-alive idle waits: how often a parked
/// worker re-checks the shutdown flag while waiting for the next
/// request on a connection.
const IDLE_TICK: Duration = Duration::from_millis(100);

/// How long a keep-alive connection may sit idle (no request bytes)
/// before the worker closes it.
const IDLE_LIMIT: Duration = Duration::from_secs(10);

/// Connection-layer tuning for [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the accept queue.
    pub workers: usize,
    /// Accepted connections that may wait for a worker; beyond this
    /// the accept thread answers `503` inline.
    pub queue_depth: usize,
    /// Requests served per connection before the server closes it
    /// (`Connection: close` on the last response).
    pub max_requests_per_conn: usize,
    /// Response-cache capacity in body bytes; `0` disables the cache.
    pub respcache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            max_requests_per_conn: 256,
            respcache_bytes: 8 << 20,
        }
    }
}

/// Monotonic serving-layer counters, all updated with relaxed atomics
/// and exposed through `/stats` and [`ServerHandle::counters`].
#[derive(Debug, Default)]
pub struct ServerCounters {
    connections: AtomicUsize,
    requests: AtomicUsize,
    rejected_503: AtomicUsize,
    queue_depth: AtomicUsize,
    queue_highwater: AtomicUsize,
}

impl ServerCounters {
    /// Connections accepted (including ones later rejected with 503).
    pub fn connections(&self) -> usize {
        self.connections.load(Ordering::Relaxed)
    }

    /// Requests answered with a routed response.
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Connections refused with `503` because the queue was full.
    pub fn rejected_503(&self) -> usize {
        self.rejected_503.load(Ordering::Relaxed)
    }

    /// Connections currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Deepest the wait queue has ever been.
    pub fn queue_highwater(&self) -> usize {
        self.queue_highwater.load(Ordering::Relaxed)
    }
}

/// The bounded hand-off between the accept thread and the workers.
struct ConnQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    depth: usize,
}

struct QueueState {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues an accepted connection, or hands it back when the
    /// queue is full (the caller answers 503). The depth gauge and
    /// high-water mark update under the queue lock, so `/stats` never
    /// reads a stale depth.
    fn push(&self, stream: TcpStream, counters: &ServerCounters) -> Result<(), TcpStream> {
        let mut state = lock_unpoisoned(&self.state);
        if state.closed || state.conns.len() >= self.depth {
            return Err(stream);
        }
        state.conns.push_back(stream);
        let depth = state.conns.len();
        counters.queue_depth.store(depth, Ordering::Relaxed);
        counters.queue_highwater.fetch_max(depth, Ordering::Relaxed);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until a connection is available; `None` once the queue
    /// is closed *and* drained (workers finish queued work first).
    fn pop(&self, counters: &ServerCounters) -> Option<TcpStream> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(conn) = state.conns.pop_front() {
                counters
                    .queue_depth
                    .store(state.conns.len(), Ordering::Relaxed);
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops accepting pushes and wakes every parked worker.
    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.cv.notify_all();
    }
}

/// One HTTP response: status line suffix, content type, body.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type,
            body: body.into(),
        }
    }

    fn ok_shared(content_type: &'static str, body: &Arc<Vec<u8>>) -> Response {
        Response::ok(content_type, body.as_ref().clone())
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: format!("{message}\n").into_bytes(),
        }
    }
}

/// Everything a request needs to be routed: the shared engine, the
/// serving budget, the optional response cache, and the server
/// counters (for `/stats`).
struct RouteCtx<'a> {
    engine: &'a Engine,
    budget: Budget,
    respcache: Option<&'a ResponseCache>,
    counters: &'a ServerCounters,
}

/// A bound, not-yet-serving daemon: [`Server::bind`] reserves the
/// address (port 0 picks a free one, for tests), then [`Server::run`]
/// blocks in the accept loop or [`Server::spawn`] serves from a
/// background thread.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
    budget: Budget,
    config: ServeConfig,
    counters: Arc<ServerCounters>,
    respcache: Option<Arc<ResponseCache>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`; port 0 for an ephemeral
    /// port), serving tables from `engine` at `budget` with the
    /// default [`ServeConfig`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the address if the bind fails.
    pub fn bind(addr: &str, engine: Arc<Engine>, budget: Budget) -> Result<Server, String> {
        Server::bind_with(addr, engine, budget, ServeConfig::default())
    }

    /// [`Server::bind`] with explicit connection-layer tuning.
    ///
    /// # Errors
    ///
    /// Returns a message naming the address if the bind fails.
    pub fn bind_with(
        addr: &str,
        engine: Arc<Engine>,
        budget: Budget,
        config: ServeConfig,
    ) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
        let respcache = (config.respcache_bytes > 0).then(|| {
            let cache = ResponseCache::new(config.respcache_bytes);
            cache.set_store(engine.store());
            Arc::new(cache)
        });
        Ok(Server {
            listener,
            engine,
            budget,
            config,
            counters: Arc::new(ServerCounters::default()),
            respcache,
        })
    }

    /// The bound socket address (resolves port 0 to the actual port).
    ///
    /// # Panics
    ///
    /// Panics if the just-bound listener cannot report its address —
    /// an OS-level invariant violation, not a recoverable state.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has an address")
    }

    /// The serving-layer counters (shared with a spawned handle).
    pub fn counters(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// Runs the accept loop until `stop` is set, then closes the
    /// queue and joins the workers — every accepted connection is
    /// either served or refused with 503, never silently dropped
    /// mid-response.
    fn serve(self, stop: &Arc<AtomicBool>) {
        let queue = Arc::new(ConnQueue::new(self.config.queue_depth));
        let workers: Vec<JoinHandle<()>> = (0..self.config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&self.engine);
                let counters = Arc::clone(&self.counters);
                let respcache = self.respcache.clone();
                let drain = Arc::clone(stop);
                let budget = self.budget;
                let max_requests = self.config.max_requests_per_conn.max(1);
                std::thread::spawn(move || {
                    while let Some(stream) = queue.pop(&counters) {
                        let ctx = RouteCtx {
                            engine: &engine,
                            budget,
                            respcache: respcache.as_deref(),
                            counters: &counters,
                        };
                        handle_connection(stream, &ctx, max_requests, &drain);
                    }
                })
            })
            .collect();
        for conn in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    self.counters.connections.fetch_add(1, Ordering::Relaxed);
                    if let Err(stream) = queue.push(stream, &self.counters) {
                        self.counters.rejected_503.fetch_add(1, Ordering::Relaxed);
                        write_busy(stream);
                    }
                }
                Err(e) => eprintln!("[serve] accept error: {e}"),
            }
        }
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Blocks the calling thread in the accept loop forever (the
    /// `repro serve` foreground mode).
    pub fn run(self) {
        let never = Arc::new(AtomicBool::new(false));
        self.serve(&never);
    }

    /// Serves from a background thread, returning a handle that stops
    /// and joins it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let counters = Arc::clone(&self.counters);
        let engine = Arc::clone(&self.engine);
        let respcache = self.respcache.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || self.serve(&flag));
        ServerHandle {
            addr,
            stop,
            join: Some(join),
            counters,
            engine,
            respcache,
        }
    }
}

/// A running background server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
    counters: Arc<ServerCounters>,
    engine: Arc<Engine>,
    respcache: Option<Arc<ResponseCache>>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving-layer counters, for in-process assertions.
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// The shared engine, for in-process stats assertions.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The response cache, when enabled.
    pub fn respcache(&self) -> Option<&ResponseCache> {
        self.respcache.as_deref()
    }

    /// Stops the accept loop and joins the server gracefully: the
    /// queue closes, workers finish their in-flight requests (and any
    /// queued connections), and only then does this return. No
    /// response is truncated by shutdown.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Answers an over-capacity connection inline from the accept thread:
/// `503` with `Retry-After`, then close. Never blocks on a worker.
fn write_busy(mut stream: TcpStream) {
    let body = b"server busy, retry shortly\n";
    let head = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// Reads a CRLF line through `reader`, tolerating read-timeout ticks:
/// partial bytes accumulate in `line` across ticks (BufRead keeps
/// them), and each tick re-checks the shutdown flag and the idle
/// budget. Returns `false` when the connection should close (EOF,
/// hard error, idle timeout, or shutdown before any bytes arrived).
fn read_line_ticking(
    reader: &mut BufReader<&TcpStream>,
    line: &mut String,
    stop: &AtomicBool,
) -> bool {
    let mut waited = Duration::ZERO;
    loop {
        match reader.read_line(line) {
            Ok(0) => return false,
            Ok(_) => return true,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Shutdown closes idle connections immediately, but a
                // request that has started arriving is drained.
                if line.is_empty() && stop.load(Ordering::SeqCst) {
                    return false;
                }
                waited += IDLE_TICK;
                if waited >= IDLE_LIMIT {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

/// Serves up to `max_requests` keep-alive requests off one
/// connection. All errors degrade to HTTP error responses or a closed
/// connection; nothing here can take a worker down. On shutdown
/// (`stop` set), an in-flight request is drained and answered with
/// `Connection: close`; an idle connection closes at the next tick.
fn handle_connection(
    stream: TcpStream,
    ctx: &RouteCtx<'_>,
    max_requests: usize,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    let _ = stream.set_nodelay(true);
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "?".to_string(), |a| a.to_string());
    let mut reader = BufReader::new(&stream);
    for served in 1..=max_requests {
        let mut request_line = String::new();
        if !read_line_ticking(&mut reader, &mut request_line, stop) {
            return;
        }
        // Drain the headers (GET requests carry no body), honouring
        // an explicit `Connection: close`.
        let mut client_close = false;
        loop {
            let mut line = String::new();
            if !read_line_ticking(&mut reader, &mut line, stop) {
                return;
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
                {
                    client_close = true;
                }
            }
        }
        let mut parts = request_line.split_whitespace();
        let (method, target) = match (parts.next(), parts.next()) {
            (Some(m), Some(t)) => (m.to_string(), t.to_string()),
            _ => return,
        };
        // Request timing is log-only telemetry on stderr; no result
        // ever depends on it (serve.rs is wallclock-scope-exempt for
        // exactly this line of business — see fuleak-lint's rules).
        let started = std::time::Instant::now();
        let response = if method != "GET" {
            Response::error(405, "Method Not Allowed", "only GET is supported")
        } else {
            route(&target, ctx)
        };
        ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
        let close = client_close || served == max_requests || stop.load(Ordering::SeqCst);
        let mut out = Vec::with_capacity(response.body.len() + 160);
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            response.status,
            response.reason,
            response.content_type,
            response.body.len(),
            if close { "close" } else { "keep-alive" }
        );
        out.extend_from_slice(&response.body);
        let ok = (&stream).write_all(&out).is_ok() && (&stream).flush().is_ok();
        eprintln!(
            "[serve] {peer} {method} {target} -> {}{} ({} bytes, {:.1} ms, conn req {served})",
            response.status,
            if ok { "" } else { " (client gone)" },
            response.body.len(),
            1e3 * started.elapsed().as_secs_f64()
        );
        if close || !ok {
            return;
        }
    }
}

/// Routes one request target to a response, consulting the response
/// cache for the cacheable table routes.
fn route(target: &str, ctx: &RouteCtx<'_>) -> Response {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/health" => Response::ok("text/plain; charset=utf-8", "ok\n"),
        "/stats" => Response::ok("application/json", stats_json(ctx)),
        "/experiments" => {
            let names: Vec<String> = experiment::all_names()
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect();
            Response::ok("application/json", format!("[{}]\n", names.join(", ")))
        }
        "/sweep" => match sweep_response(query, ctx) {
            Ok(r) => r,
            Err(e) => Response::error(400, "Bad Request", &e),
        },
        "/explore" => match explore_response(query, ctx) {
            Ok(r) => r,
            Err(e) => Response::error(400, "Bad Request", &e),
        },
        _ => match path.strip_prefix("/experiment/") {
            Some(name) => match experiment_response(name, query, ctx) {
                Ok(r) => r,
                Err(e) => e,
            },
            None => Response::error(404, "Not Found", &format!("no route for `{path}`")),
        },
    }
}

/// Renders `/stats`: engine, response-cache, and server counters as
/// one JSON object with deterministic key order. Telemetry only —
/// values vary run to run, so this route is never cached and never
/// printed to stdout.
fn stats_json(ctx: &RouteCtx<'_>) -> String {
    let e = ctx.engine.stats();
    let engine = format!(
        concat!(
            "{{\"points\": {}, \"simulated\": {}, \"sim_hits\": {}, \"sim_misses\": {}, ",
            "\"trace_hits\": {}, \"captures\": {}, \"annotation_hits\": {}, ",
            "\"annotations_built\": {}, \"policy_hits\": {}, \"policy_misses\": {}, ",
            "\"flight_waits\": {}, \"disk_hits\": {}, \"disk_writes\": {}}}"
        ),
        e.points,
        e.simulated(),
        e.hits,
        e.misses,
        e.trace_hits,
        e.captures,
        e.annotation_hits,
        e.annotations_built,
        e.policy_hits,
        e.policy_misses,
        e.flight_waits,
        e.disk_hits,
        e.disk_writes,
    );
    let respcache = match ctx.respcache {
        Some(c) => format!(
            "{{\"enabled\": true, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"entries\": {}, \"bytes\": {}}}",
            c.hits(),
            c.misses(),
            c.evictions(),
            c.len(),
            c.bytes()
        ),
        None => "{\"enabled\": false, \"hits\": 0, \"misses\": 0, \"evictions\": 0, \
                 \"entries\": 0, \"bytes\": 0}"
            .to_string(),
    };
    let s = ctx.counters;
    let server = format!(
        "{{\"connections\": {}, \"requests\": {}, \"queue_depth\": {}, \
         \"queue_highwater\": {}, \"rejected_503\": {}}}",
        s.connections(),
        s.requests(),
        s.queue_depth(),
        s.queue_highwater(),
        s.rejected_503()
    );
    format!("{{\"engine\": {engine}, \"respcache\": {respcache}, \"server\": {server}}}\n")
}

/// The served table format — JSON unless `format=csv`.
enum WireFormat {
    Json,
    Csv,
}

impl WireFormat {
    fn content_type(&self) -> &'static str {
        match self {
            WireFormat::Json => "application/json",
            WireFormat::Csv => "text/csv; charset=utf-8",
        }
    }

    fn body(&self) -> BodyFormat {
        match self {
            WireFormat::Json => BodyFormat::Json,
            WireFormat::Csv => BodyFormat::Csv,
        }
    }
}

/// Splits a query string into decoded `(key, value)` pairs, pulling
/// out the `format` selector.
fn parse_query(query: &str) -> Result<(Vec<(String, String)>, WireFormat), String> {
    let mut params = Vec::new();
    let mut format = WireFormat::Json;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("query parameter `{pair}` needs a value"))?;
        let key = percent_decode(key)?;
        let value = percent_decode(value)?;
        if key == "format" {
            format = match value.as_str() {
                "json" => WireFormat::Json,
                "csv" => WireFormat::Csv,
                other => return Err(format!("invalid format value `{other}` (json or csv)")),
            };
        } else {
            params.push((key, value));
        }
    }
    Ok((params, format))
}

/// Runs one registry experiment and serves its table, consulting the
/// response cache first (keyed on name, budget, and format).
fn experiment_response(name: &str, query: &str, ctx: &RouteCtx<'_>) -> Result<Response, Response> {
    let (params, format) =
        parse_query(query).map_err(|e| Response::error(400, "Bad Request", &e))?;
    if let Some((key, _)) = params.first() {
        return Err(Response::error(
            400,
            "Bad Request",
            &format!("unknown experiment parameter `{key}` (only format=)"),
        ));
    }
    let exp = experiment::by_name(name).ok_or_else(|| {
        Response::error(
            404,
            "Not Found",
            &format!(
                "unknown experiment `{name}`; known: {}",
                experiment::all_names().join(" ")
            ),
        )
    })?;
    let key = respcache::experiment_key(name, ctx.budget, format.body());
    if let Some(body) = ctx.respcache.and_then(|c| c.get(&key)) {
        return Ok(Response::ok_shared(format.content_type(), &body));
    }
    let mut run_ctx = Context::new(ctx.engine, ctx.budget);
    let table = exp.run(&mut run_ctx);
    let body = match format {
        WireFormat::Json => table.to_json(),
        WireFormat::Csv => table.to_csv(),
    };
    if let Some(cache) = ctx.respcache {
        let shared = cache.put(&key, body.into_bytes());
        return Ok(Response::ok_shared(format.content_type(), &shared));
    }
    Ok(Response::ok(format.content_type(), body))
}

/// Builds a sweep from the query's axis parameters and serves its
/// table — the same spec the CLI would build from the equivalent
/// `repro sweep` flags, over the same shared engine. The canonical
/// parsed spec keys the response cache, so `int-fus=1:2` and
/// `int-fus=1,2` share one cached body.
fn sweep_response(query: &str, ctx: &RouteCtx<'_>) -> Result<Response, String> {
    let (params, format) = parse_query(query)?;
    let mut spec = SweepSpec::new(ctx.budget);
    for (key, value) in &params {
        spec = cli::apply_sweep_flag(spec, &format!("--{key}"), value)?;
    }
    cli::check_sweep_cost(&spec)?;
    let key = respcache::sweep_key(&spec, format.body());
    if let Some(body) = ctx.respcache.and_then(|c| c.get(&key)) {
        return Ok(Response::ok_shared(format.content_type(), &body));
    }
    let table = sweep_table(ctx.engine, &spec).map_err(|e| format!("invalid sweep: {e}"))?;
    let body = match format {
        WireFormat::Json => table.to_json(),
        WireFormat::Csv => table.to_csv(),
    };
    if let Some(cache) = ctx.respcache {
        let shared = cache.put(&key, body.into_bytes());
        return Ok(Response::ok_shared(format.content_type(), &shared));
    }
    Ok(Response::ok(format.content_type(), body))
}

/// Builds an exploration from the query's axis parameters and serves
/// its three digests concatenated — byte-identical to the
/// `repro explore --format json|csv` stdout for the equivalent flags
/// (CI diffs the two).
fn explore_response(query: &str, ctx: &RouteCtx<'_>) -> Result<Response, String> {
    let (params, format) = parse_query(query)?;
    let mut spec = ExploreSpec::new(ctx.budget);
    for (key, value) in &params {
        spec = cli::apply_explore_flag(spec, &format!("--{key}"), value)?;
    }
    cli::check_explore_cost(&spec)?;
    let key = respcache::explore_key(&spec, format.body());
    if let Some(body) = ctx.respcache.and_then(|c| c.get(&key)) {
        return Ok(Response::ok_shared(format.content_type(), &body));
    }
    let started = std::time::Instant::now();
    let result = explore(ctx.engine, &spec);
    ctx.engine
        .note_grid_nanos(started.elapsed().as_nanos() as u64);
    let mut body = String::new();
    for table in [&result.optima, &result.frontier, &result.crossover] {
        body.push_str(&match format {
            WireFormat::Json => table.to_json(),
            WireFormat::Csv => table.to_csv(),
        });
    }
    if let Some(cache) = ctx.respcache {
        let shared = cache.put(&key, body.into_bytes());
        return Ok(Response::ok_shared(format.content_type(), &shared));
    }
    Ok(Response::ok(format.content_type(), body))
}

/// Decodes `%XX` escapes and `+` spaces in a query component.
fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("truncated %-escape in `{s}`"))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("query component `{s}` is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx<'a>(
        engine: &'a Engine,
        counters: &'a ServerCounters,
        respcache: Option<&'a ResponseCache>,
    ) -> RouteCtx<'a> {
        RouteCtx {
            engine,
            budget: Budget::Quick,
            respcache,
            counters,
        }
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("1%3A4").unwrap(), "1:4");
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%4").is_err());
    }

    #[test]
    fn query_parsing_extracts_format() {
        let (params, format) = parse_query("bench=gzip&int-fus=1%3A2&format=csv").unwrap();
        assert_eq!(
            params,
            vec![
                ("bench".to_string(), "gzip".to_string()),
                ("int-fus".to_string(), "1:2".to_string())
            ]
        );
        assert!(matches!(format, WireFormat::Csv));
        assert!(parse_query("format=xml").is_err());
        assert!(parse_query("novalue").is_err());
    }

    #[test]
    fn routes_reject_unknowns_without_simulation() {
        let engine = Engine::sequential();
        let counters = ServerCounters::default();
        let ctx = test_ctx(&engine, &counters, None);
        let r = route("/nope", &ctx);
        assert_eq!(r.status, 404);
        let r = route("/experiment/not-a-table", &ctx);
        assert_eq!(r.status, 404);
        let r = route("/sweep?bogus=1", &ctx);
        assert_eq!(r.status, 400);
        assert!(String::from_utf8(r.body).unwrap().contains("--bogus"));
        let r = route("/explore?bogus=1", &ctx);
        assert_eq!(r.status, 400);
        assert!(String::from_utf8(r.body)
            .unwrap()
            .contains("unknown explore flag `--bogus`"));
        let r = route("/health", &ctx);
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"ok\n");
    }

    #[test]
    fn over_cap_specs_are_refused_without_expanding() {
        let engine = Engine::sequential();
        let counters = ServerCounters::default();
        let ctx = test_ctx(&engine, &counters, None);
        // Evaluation axes multiply too: 36 machines × 4 default
        // policies × 2 000 leakage values.
        let leaks = vec!["0.5"; 2_000].join(",");
        for (target, cap) in [
            (
                "/sweep?rob=1:10000&width=1:10000".to_string(),
                "more than 50000",
            ),
            (format!("/sweep?leak={leaks}"), "more than 50000"),
            (
                "/explore?leak=0:1:0.0002&transition=0:1:0.0002".to_string(),
                "more than 16000000",
            ),
        ] {
            let r = route(&target, &ctx);
            assert_eq!(r.status, 400, "{target}");
            let body = String::from_utf8(r.body).unwrap();
            assert!(body.contains(cap), "{target}: {body}");
        }
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.grid_points), (0, 0), "nothing ran");
    }

    #[test]
    fn experiments_listing_is_json() {
        let engine = Engine::sequential();
        let counters = ServerCounters::default();
        let ctx = test_ctx(&engine, &counters, None);
        let r = route("/experiments", &ctx);
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.starts_with('['));
        assert!(body.contains("\"table1\""));
    }

    #[test]
    fn stats_route_is_deterministic_json_with_flight_waits() {
        let engine = Engine::sequential();
        let counters = ServerCounters::default();
        let ctx = test_ctx(&engine, &counters, None);
        let r = route("/stats", &ctx);
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        for key in [
            "\"engine\"",
            "\"flight_waits\"",
            "\"respcache\"",
            "\"server\"",
            "\"queue_highwater\"",
            "\"rejected_503\"",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        assert!(
            body.find("\"engine\"").unwrap() < body.find("\"respcache\"").unwrap()
                && body.find("\"respcache\"").unwrap() < body.find("\"server\"").unwrap(),
            "stats keys must render in deterministic order"
        );
    }

    #[test]
    fn cached_sweep_responses_are_byte_identical_to_fresh_renders() {
        let engine = Engine::sequential();
        let counters = ServerCounters::default();
        let cache = ResponseCache::new(1 << 20);
        let target = "/sweep?bench=gzip&int-fus=1%3A2&format=json";
        let fresh = {
            let ctx = test_ctx(&engine, &counters, None);
            route(target, &ctx)
        };
        assert_eq!(fresh.status, 200);
        let ctx = test_ctx(&engine, &counters, Some(&cache));
        let miss = route(target, &ctx);
        assert_eq!(cache.misses(), 1);
        // Equivalent spelling of the same sweep hits the same entry.
        let hit = route("/sweep?bench=gzip&int-fus=1%2C2&format=json", &ctx);
        assert_eq!(cache.hits(), 1);
        assert_eq!(fresh.body, miss.body);
        assert_eq!(fresh.body, hit.body, "cached bytes must equal fresh render");
    }

    #[test]
    fn queue_hands_back_overflow_and_drains_on_close() {
        let queue = ConnQueue::new(1);
        let counters = ServerCounters::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        assert!(queue.push(a, &counters).is_ok());
        assert_eq!(counters.queue_depth(), 1);
        assert_eq!(counters.queue_highwater(), 1);
        assert!(
            queue.push(b, &counters).is_err(),
            "depth-1 queue must hand back #2"
        );
        assert!(queue.pop(&counters).is_some());
        assert_eq!(counters.queue_depth(), 0);
        queue.close();
        let c = TcpStream::connect(addr).unwrap();
        assert!(
            queue.push(c, &counters).is_err(),
            "closed queue accepts nothing"
        );
        assert!(queue.pop(&counters).is_none(), "closed and drained");
    }
}
