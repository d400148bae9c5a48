//! `serve_cold`: an in-process `Server` with a disk cache directory and a
//! small disk cap, driven by two closed-loop clients (the server's
//! callers wait for each reply). Both clients connect once per request,
//! as `repro_serve --client` does, and send mostly new keys in lock-step
//! rounds: fresh keys, near-miss keys (same scenario, other ArC: warm
//! starts) and same-key pairs sent at the same moment (coalescing).
//! Protocol, stores, disk evictions, donor lookups, coalescing and
//! accept waits.
//!
//! Every request is written with one `write_all` of the whole line on a
//! `TCP_NODELAY` socket: a request split over several writes stalls on
//! Nagle's algorithm and delayed ACKs (tens of ms) instead of the
//! server's sub-millisecond hit path.
//!
//! The traffic mix is an assumption, not a measurement: no log of real
//! server traffic exists. [`cold_round`] names each share and why it was
//! chosen; the run prints the share each tier actually served.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ftes_bench::matrix::{cell_json, run_cell_seeded, CellResult, CellSeeds};
use ftes_bench::ENGINE_VERSION;
use ftes_gen::{
    BusProfile, FaultLoad, GraphShape, Heterogeneity, MessageLoad, Scenario, Utilization,
};
use ftes_model::{Cost, TimeUs};
use ftes_opt::{CoreBudget, Threads};
use ftes_server::cache::EntryMeta;
use ftes_server::{
    cache_key, CacheStats, Goal, Request, Response, ResultCache, Server, ServerConfig,
};

use crate::stats::{mean, median, paired_overhead, quantile, ratio};
use crate::trace::{Recorder, Trace};
use crate::{peak_rss_mb, reset_peak_rss, timed_setups, Opts, Report, Rng, SETUP_REPS};

/// The window length throughput is taken over (about 100 requests).
const WINDOW_S: f64 = 2.0;
/// The tail reported as `op_tail_ms`: p90 of a run's ≈ 1000 requests.
const TAIL_Q: f64 = 0.90;
/// Closed-loop clients: the box's two cores.
const CLIENTS: usize = 2;
/// ArC values the traffic draws from.
const ARCS: [u64; 16] = crate::sweep::ARC_GRID;
/// Disk-tier cap: about a dozen entries, so nearly every store evicts
/// and the eviction sweep runs on the write path (an assumption: a cap
/// that rarely evicts would leave that path unmeasured).
const COLD_DISK_CAP: u64 = 24 * 1024;
/// Entries a previous server life left in the cache directory (drawn at
/// a fixed seed: they are set-up, not measured traffic).
const COLD_PRELOAD: usize = 48;
/// Requests per connection-cost probe.
const PROBE_REQUESTS: usize = 30;
/// Server restarts of the tier probe (see [`probe_tiers`]).
const PROBE_LIVES: usize = 4;

/// A random one-application scenario over the matrix axes.
fn random_scenario(rng: &mut Rng) -> Scenario {
    let mut s = Scenario::new(
        rng.pick(&[
            BusProfile::Ideal,
            BusProfile::Tdma {
                slot: TimeUs::from_us(500),
            },
        ]),
        rng.pick(&[Heterogeneity::Mild, Heterogeneity::Wide]),
        rng.pick(&[Utilization::Relaxed, Utilization::Tight]),
        1,
    );
    s.shape = rng.pick(&[GraphShape::Deep, GraphShape::Paper, GraphShape::Fan]);
    s.message = rng.pick(&[MessageLoad::Zero, MessageLoad::Paper, MessageLoad::Bulk]);
    s.fault = rng.pick(&[
        FaultLoad::Base,
        FaultLoad::SerHpd {
            ser_h1: 1e-10,
            hpd: 1.0,
        },
        FaultLoad::SerHpd {
            ser_h1: 1e-12,
            hpd: 0.05,
        },
    ]);
    s.base.seed = rng.next_u64();
    s
}

/// One `optimize` request the clients can send.
#[derive(Debug, Clone)]
struct Key {
    scenario: Scenario,
    spec: String,
    goal: Goal,
    arc: u64,
    key: u64,
    line: String,
}

impl Key {
    fn new(scenario: Scenario, goal: Goal, arc: u64) -> Key {
        let spec = scenario.canonical_spec();
        let key = cache_key(&spec, goal.label(), arc, ENGINE_VERSION);
        let line = Request::Optimize {
            scenario: spec.clone(),
            goal,
            arc,
        }
        .render();
        Key {
            scenario,
            spec,
            goal,
            arc,
            key,
            line,
        }
    }

    fn meta(&self, seeds: CellSeeds) -> EntryMeta {
        EntryMeta {
            spec: self.spec.clone(),
            goal: self.goal.label().to_string(),
            arc: self.arc,
            seeds,
        }
    }
}

/// The engine run a cold miss performs for `scenario` under `goal`:
/// the server's own call, with no donor.
fn cold_result(scenario: &Scenario, goal: Goal) -> (CellResult, CellSeeds) {
    run_cell_seeded(scenario, goal.strategies(), CoreBudget::new(1), None)
}

/// `f` over `items` on [`CLIENTS`] threads, results in item order.
fn in_parallel<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("engine thread panicked"))
            .collect()
    })
}

/// OPT acceptance of a rendered cell payload, if it has an OPT row (see
/// [`crate::sweep::opt_accept_area`]).
fn payload_opt_acceptance(payload: &str) -> Option<f64> {
    const COSTS: &str = "\"best_cost\": [";
    let row = &payload[payload.find("\"OPT\": {")?..];
    let list = &row[row.find(COSTS)? + COSTS.len()..];
    let costs: Vec<Option<u64>> = list[..list.find(']')?]
        .split(", ")
        .map(|c| c.parse().ok())
        .collect();
    Some(crate::sweep::opt_accept_area(&costs))
}

// ---------------------------------------------------------------------
// Server lifecycle and client connections.
// ---------------------------------------------------------------------

/// A server running on its own thread. Dropping it shuts the server
/// down and joins the thread.
struct Running {
    addr: SocketAddr,
    dir: PathBuf,
    handle: Option<JoinHandle<Result<CacheStats, String>>>,
}

impl Running {
    /// Binds, starts and waits until the server answers a `stats`
    /// request (its cache is open and its donor index rebuilt).
    fn start(cfg: ServerConfig) -> Result<Running, String> {
        let dir = cfg
            .cache_dir
            .clone()
            .expect("benchmark servers use a disk tier");
        let server = Server::bind("127.0.0.1:0", cfg)?;
        let addr = server.local_addr();
        let mut running = Running {
            addr,
            dir,
            handle: Some(std::thread::spawn(move || server.run())),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Response::Stats(_)) =
                Conn::open(addr).and_then(|mut c| c.call(&Request::Stats.render()))
            {
                return Ok(running);
            }
            if running.handle.as_ref().is_some_and(JoinHandle::is_finished) {
                return Err(match running.handle.take().map(JoinHandle::join) {
                    Some(Ok(Err(e))) => e,
                    _ => "server stopped before it became ready".to_string(),
                });
            }
            if Instant::now() > deadline {
                // Dropping `running` asks the server to shut down.
                return Err("server did not become ready within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Shuts the server down and returns its final cache counters.
    fn stop(mut self) -> Result<CacheStats, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<CacheStats, String> {
        let Some(handle) = self.handle.take() else {
            return Err("server already stopped".to_string());
        };
        let ack = Conn::open(self.addr).and_then(|mut c| c.call(&Request::Shutdown.render()));
        if ack != Ok(Response::Ok) {
            return Err(format!("shutdown not acknowledged: {ack:?}"));
        }
        handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { stream, reader })
    }

    /// Opens a connection the server has accepted: the first request on
    /// a new connection waits out the server's accept poll, so a
    /// `stats` request takes that wait before any timed request.
    fn accepted(addr: SocketAddr) -> Result<Conn, String> {
        let mut conn = Conn::open(addr)?;
        conn.call(&Request::Stats.render())?;
        Ok(conn)
    }

    /// Sends one request line (a single write) and reads one response.
    fn call(&mut self, line: &str) -> Result<Response, String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Response::parse(buf.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Samples and checks.
// ---------------------------------------------------------------------

/// How a response was served (the `cache` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tier {
    /// Memory-tier hit.
    Mem,
    /// Disk-tier hit.
    Disk,
    /// Cold engine run.
    Miss,
    /// Engine run seeded from a near-miss donor.
    Warm,
    /// Joined another request's in-flight engine run.
    Coalesced,
}

impl Tier {
    const ALL: [Tier; 5] = [
        Tier::Mem,
        Tier::Disk,
        Tier::Miss,
        Tier::Warm,
        Tier::Coalesced,
    ];

    fn parse(label: &str) -> Option<Tier> {
        Some(match label {
            "mem" => Tier::Mem,
            "disk" => Tier::Disk,
            "miss" => Tier::Miss,
            "warm" => Tier::Warm,
            "coalesced" => Tier::Coalesced,
            _ => return None,
        })
    }

    fn label(self) -> &'static str {
        match self {
            Tier::Mem => "mem",
            Tier::Disk => "disk",
            Tier::Miss => "miss",
            Tier::Warm => "warm",
            Tier::Coalesced => "coalesced",
        }
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Sample {
    /// Request id: `2 × round + client` in the traffic, 0 in probes.
    id: u64,
    key: Arc<Key>,
    tier: Tier,
    latency_ms: f64,
    /// Completion time, seconds since the traffic started.
    done_s: f64,
    engine_ms: u64,
    payload: Arc<str>,
}

/// What both clients saw.
#[derive(Debug, Default)]
struct Outcome {
    /// Every answered request.
    samples: Vec<Sample>,
    /// Requests that failed or were refused.
    errors: u64,
    wall_s: f64,
}

/// The first payload served per key: every later response for the key,
/// from any tier, must carry the same bytes.
#[derive(Debug, Default)]
struct FirstSeen(HashMap<u64, Arc<str>>);

impl FirstSeen {
    /// Records a response; returns whether it agrees with the first
    /// response for the same key.
    fn agrees(&mut self, key: u64, payload: &Arc<str>) -> bool {
        **self.0.entry(key).or_insert_with(|| Arc::clone(payload)) == **payload
    }
}

/// Sends request `id` and turns the answer into a sample; `started` is
/// when the request began (before its connect, if any), `origin` when
/// the traffic began.
fn exchange(
    conn: &mut Conn,
    id: u64,
    key: &Arc<Key>,
    started: Instant,
    origin: Instant,
) -> Result<Sample, String> {
    match conn.call(&key.line)? {
        Response::Result {
            cache,
            engine_ms,
            payload,
            ..
        } => Ok(Sample {
            id,
            key: Arc::clone(key),
            tier: Tier::parse(&cache).ok_or(format!("unknown cache tier {cache:?}"))?,
            latency_ms: started.elapsed().as_secs_f64() * 1e3,
            done_s: origin.elapsed().as_secs_f64(),
            engine_ms,
            payload: payload.into(),
        }),
        Response::Error(reason) => Err(reason),
        other => Err(format!("unexpected response {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Traffic.
// ---------------------------------------------------------------------

/// Round `r` of the traffic: one request per client. No recorded server
/// traffic exists to copy, so the shares are assumptions, each chosen so
/// that its path carries weight in every run:
///
/// * 55 % fresh rounds send two new keys: most keys are new, so misses
///   (engine runs, stores, evictions) dominate the run.
/// * 20 % pair rounds send one new key from both clients at once: about
///   75 coalesced answers per 20 s run.
/// * 25 % near-miss rounds re-send the previous round's scenario and
///   goal under the next two ArC values: a donor lookup for each and
///   about 60 warm starts per 20 s run. Two near-miss rounds never
///   follow each other, so the donor is always a fresh key.
///
/// Goals are OPT with weight 2 (the paper's strategy, which users
/// optimize for most) and MIN, MAX and "all" with weight 1 each, so every
/// payload shape (one strategy row or three) is served.
fn cold_round(seed: u64, r: u64) -> [Key; CLIENTS] {
    #[derive(PartialEq)]
    enum Kind {
        Fresh,
        Pair,
        Near,
    }
    let raw = |r: u64| {
        let x = Rng::new(seed, 1_000_000 + r).unit();
        if x < 0.55 {
            Kind::Fresh
        } else if x < 0.75 {
            Kind::Pair
        } else {
            Kind::Near
        }
    };
    let fresh = |r: u64, client: u64| {
        let mut rng = Rng::new(seed, 2_000_000 + 2 * r + client);
        let scenario = random_scenario(&mut rng);
        let goal = rng.pick(&[Goal::Opt, Goal::Opt, Goal::Min, Goal::Max, Goal::All]);
        Key::new(scenario, goal, rng.pick(&ARCS))
    };
    let kind = match raw(r) {
        Kind::Near if r == 0 || raw(r - 1) == Kind::Near => Kind::Fresh,
        kind => kind,
    };
    match kind {
        Kind::Fresh => [fresh(r, 0), fresh(r, 1)],
        Kind::Pair => {
            let key = fresh(r, 0);
            [key.clone(), key]
        }
        Kind::Near => {
            let donor = fresh(r - 1, 0);
            let at = ARCS
                .iter()
                .position(|&a| a == donor.arc)
                .expect("listed arc");
            [1, 2].map(|step| {
                Key::new(
                    donor.scenario.clone(),
                    donor.goal,
                    ARCS[(at + step) % ARCS.len()],
                )
            })
        }
    }
}

/// A pause drawn uniformly from `[0, io_poll_ms)`, taken before a fresh
/// connection. The server sleeps `io_poll_ms` whenever its accept loop
/// finds no connection waiting; clients that reconnect right after their
/// last answer stay in phase with that sleep, and each request then
/// waits out the rest of the poll however long the engine ran, which
/// hides engine time from the latency. With the pause the accept wait is
/// uniform over the poll, and the engine time adds to the latency again.
fn accept_delay(rng: &mut Rng) -> Duration {
    let poll_ms = ServerConfig::default().io_poll_ms as f64;
    Duration::from_secs_f64(rng.unit() * poll_ms / 1e3)
}

/// Runs both clients until `deadline`, recording spans when `origin` is
/// given. Clients connect per request and move in lock-step rounds; both
/// clients take the same [`accept_delay`] before a round's connects, so
/// a pair round's requests still arrive together.
fn drive(
    opts: &Opts,
    addr: SocketAddr,
    deadline: Instant,
    origin: Option<Instant>,
) -> (Outcome, Option<Trace>) {
    let started = Instant::now();
    let barrier = Barrier::new(CLIENTS);
    let stop_round = Mutex::new(u64::MAX);
    let per_client: Vec<(Outcome, Option<Recorder>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, stop_round) = (&barrier, &stop_round);
                scope.spawn(move || {
                    let mut rec = origin.map(|o| Recorder::new(o, c as u32));
                    let mut out = Outcome::default();
                    let mut r = 0u64;
                    loop {
                        // Both clients agree on the last round: the first
                        // to see the deadline sets it.
                        {
                            let mut stop = stop_round.lock().expect("round lock");
                            if *stop == u64::MAX && Instant::now() >= deadline {
                                *stop = r;
                            }
                        }
                        barrier.wait();
                        if r >= *stop_round.lock().expect("round lock") {
                            break;
                        }
                        let key = Arc::new(cold_round(opts.seed, r)[c].clone());
                        std::thread::sleep(accept_delay(&mut Rng::new(opts.seed, 3_000_000 + r)));
                        let id = 2 * r + c as u64;
                        let t = Instant::now();
                        let span = rec.as_mut().map(|r| r.enter("client.request", id));
                        let conn_span = rec.as_mut().map(|r| r.enter("client.connect", id));
                        let conn = Conn::open(addr);
                        if let (Some(r), Some(s)) = (rec.as_mut(), conn_span) {
                            r.exit(s);
                        }
                        let ex_span = rec.as_mut().map(|r| r.enter("client.exchange", id));
                        match conn.and_then(|mut conn| exchange(&mut conn, id, &key, t, started)) {
                            Ok(sample) => out.samples.push(sample),
                            Err(_) => out.errors += 1,
                        }
                        if let (Some(r), Some(s)) = (rec.as_mut(), ex_span) {
                            r.exit(s);
                        }
                        if let (Some(r), Some(s)) = (rec.as_mut(), span) {
                            r.exit(s);
                        }
                        r += 1;
                    }
                    (out, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut trace = origin.map(|_| Trace::default());
    let mut outcome = Outcome {
        wall_s: started.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for (out, rec) in per_client {
        outcome.samples.extend(out.samples);
        outcome.errors += out.errors;
        if let (Some(t), Some(rec)) = (trace.as_mut(), rec) {
            t.absorb(rec);
        }
    }
    (outcome, trace)
}

/// Counts every check on the served payloads: error responses, repeats
/// of a key whose bytes differ from its first answer (across tiers), and
/// `miss` payloads that differ from a fresh engine run of the same
/// request.
fn check_outcome(report: &mut Report, outcome: &Outcome) {
    report.attempted += outcome.errors;
    report.failed += outcome.errors;
    let mut first = FirstSeen::default();
    for s in &outcome.samples {
        report.check(first.agrees(s.key.key, &s.payload));
    }
    // Cold misses: recompute each in two threads and compare.
    let cold: Vec<&Sample> = outcome
        .samples
        .iter()
        .filter(|s| s.tier == Tier::Miss)
        .collect();
    let mismatches = in_parallel(&cold, |s| !cold_payload_matches(&s.key, &s.payload))
        .into_iter()
        .filter(|&bad| bad)
        .count();
    for i in 0..cold.len() {
        report.check(i >= mismatches);
    }
}

/// Whether `payload` is exactly what a cold engine run of `key` renders:
/// `cell_json(run_cell_seeded(.., None), arc, false)`.
fn cold_payload_matches(key: &Key, payload: &str) -> bool {
    let (cell, _) = cold_result(&key.scenario, key.goal);
    cell_json(&cell, Cost::new(key.arc), false) == payload
}

// ---------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------

fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        cache_dir: Some(dir.to_path_buf()),
        disk_cap_bytes: Some(COLD_DISK_CAP),
        threads: Threads(CLIENTS),
        ..ServerConfig::default()
    }
}

fn fresh_dir(opts: &Opts, tag: &str) -> Result<PathBuf, String> {
    let dir = opts.work_dir.join(format!("serve_cold-{tag}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

/// One set-up: a fresh cache directory holding what a previous server
/// life would have left (a few stored entries), then a server started on
/// it and answering.
fn set_up(opts: &Opts, tag: &str) -> Result<Running, String> {
    let dir = fresh_dir(opts, tag)?;
    let config = server_config(&dir);
    let mut cache =
        ResultCache::new(config.mem_cap, Some(&dir))?.with_disk_cap(config.disk_cap_bytes);
    let mut rng = Rng::new(0, 3);
    let keys: Vec<Key> = (0..COLD_PRELOAD)
        .map(|_| Key::new(random_scenario(&mut rng), Goal::Opt, rng.pick(&ARCS)))
        .collect();
    let results = in_parallel(&keys, |key| cold_result(&key.scenario, key.goal));
    for (key, (cell, seeds)) in keys.iter().zip(results) {
        cache.store(
            key.key,
            &cell_json(&cell, Cost::new(key.arc), false),
            &key.meta(seeds),
        );
    }
    drop(cache);
    Running::start(config)
}

// ---------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------

/// Runs `serve_cold` (see the module docs).
///
/// # Errors
///
/// Returns a one-line description when the server cannot be bound,
/// started or stopped.
pub fn run(opts: &Opts) -> Result<Report, String> {
    if opts.trace {
        return run_traced(opts);
    }
    let mut report = Report::default();
    let (setup_s, server) = timed_setups(SETUP_REPS, |rep| set_up(opts, &format!("setup{rep}")))?;
    report.put("setup_s", setup_s);
    reset_peak_rss();
    let (outcome, _) = drive(opts, server.addr, opts.deadline(1.0), None);
    report.put("proc.peak_rss_mb", peak_rss_mb());
    let dir = server.dir.clone();
    server.stop()?;
    check_outcome(&mut report, &outcome);

    // Throughput is a median over fixed windows of the run, so a burst of
    // machine noise moves one window, not the figure.
    let windows = windows(&outcome);
    let rates: Vec<f64> = windows.iter().map(|&n| n as f64 / WINDOW_S).collect();
    let latencies: Vec<f64> = outcome.samples.iter().map(|s| s.latency_ms).collect();
    report.put("ops_per_s", median(&rates));
    report.put("op_p50_ms", median(&latencies));
    report.put("op_tail_ms", quantile(&latencies, TAIL_Q));
    report.put("opt_accept_pct", served_opt_acceptance(&outcome));
    report.note(format!(
        "serve_cold: {} requests from {CLIENTS} closed-loop clients in {:.2} s ({}); \
         ops_per_s = median over {} windows of {WINDOW_S} s; op_tail_ms = p{} of all {} samples",
        latencies.len(),
        outcome.wall_s,
        tier_counts(&outcome),
        windows.len(),
        TAIL_Q * 100.0,
        latencies.len(),
    ));
    let _ = std::fs::remove_dir_all(dir);
    Ok(report)
}

/// Answered requests per completion window (complete windows only; the
/// whole run when it is shorter than one window).
fn windows(outcome: &Outcome) -> Vec<usize> {
    let count = (outcome.wall_s / WINDOW_S).floor() as usize;
    if count == 0 {
        return vec![outcome.samples.len()];
    }
    let mut windows = vec![0; count];
    for s in &outcome.samples {
        if let Some(w) = windows.get_mut((s.done_s / WINDOW_S) as usize) {
            *w += 1;
        }
    }
    windows
}

/// Mean OPT acceptance over the distinct keys served, each key once.
fn served_opt_acceptance(outcome: &Outcome) -> f64 {
    let mut per_key: HashMap<u64, f64> = HashMap::new();
    for s in &outcome.samples {
        if let Some(a) = payload_opt_acceptance(&s.payload) {
            per_key.entry(s.key.key).or_insert(a);
        }
    }
    mean(&per_key.into_values().collect::<Vec<_>>())
}

/// Requests served per tier, e.g. `mem=3 disk=0 miss=700 …`.
fn tier_counts(outcome: &Outcome) -> String {
    Tier::ALL
        .iter()
        .map(|t| {
            let n = outcome.samples.iter().filter(|s| s.tier == *t).count();
            format!("{}={n}", t.label())
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Client-side latencies (ms) of the samples a tier answered.
fn tier_latencies(samples: &[Sample], tier: Tier) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.tier == tier)
        .map(|s| s.latency_ms)
        .collect()
}

fn run_traced(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();

    // Untraced phase: client latencies per tier, the server's counters
    // and the baseline of the tracing overhead.
    let server = set_up(opts, "untraced")?;
    reset_peak_rss();
    let (untraced, _) = drive(opts, server.addr, opts.deadline(0.5), None);
    report.put("proc.peak_rss_mb", peak_rss_mb());
    let stats = server.stop()?;
    check_outcome(&mut report, &untraced);
    put_cache_stats(&mut report, &stats);
    for tier in [Tier::Miss, Tier::Warm, Tier::Coalesced] {
        let lat = tier_latencies(&untraced.samples, tier);
        report.put(
            &format!("server.latency_ms.{}.p50", tier.label()),
            median(&lat),
        );
        report.put(
            &format!("server.latency_ms.{}.p99", tier.label()),
            quantile(&lat, 0.99),
        );
    }
    let engine_runs: Vec<&Sample> = untraced
        .samples
        .iter()
        .filter(|s| matches!(s.tier, Tier::Miss | Tier::Warm))
        .collect();
    report.put(
        "server.engine_share",
        ratio(
            engine_runs.iter().map(|s| s.engine_ms as f64).sum(),
            engine_runs.iter().map(|s| s.latency_ms).sum(),
        ),
    );

    // Traced phase: a fresh server and the same traffic with spans.
    let server = set_up(opts, "traced")?;
    let origin = Instant::now();
    let (traced, trace) = drive(opts, server.addr, opts.deadline(0.5), Some(origin));
    let trace = trace.expect("traced drive returns its spans");
    let dir = server.dir.clone();
    server.stop()?;
    check_outcome(&mut report, &traced);
    report.put("trace.coverage", trace.coverage(CLIENTS, traced.wall_s));
    report.put("trace.overhead", request_overhead(&untraced, &traced));

    // The hit tiers and the connection cost, probed on the traced
    // phase's cache directory; then the layer replays on its requests.
    let probe = probe_tiers(&mut report, opts, &dir, &traced)?;
    for tier in [Tier::Mem, Tier::Disk] {
        let lat = tier_latencies(&probe.hits, tier);
        report.put(
            &format!("server.latency_ms.{}.p50", tier.label()),
            median(&lat),
        );
        report.put(
            &format!("server.latency_ms.{}.p99", tier.label()),
            quantile(&lat, 0.99),
        );
    }
    let layer_us = replay_layers(&mut report, &dir, &traced, &probe.key)?;
    report.put("server.connect_ms", probe.fresh_ms - probe.persistent_ms);
    report.put("server.socket_ms", probe.persistent_ms - layer_us / 1e3);
    report.note(format!(
        "serve_cold traced: untraced {} requests ({}), traced {} requests; \
         hit probe over {PROBE_LIVES} server lives: {} disk, {} mem hits on a persistent \
         connection; connection probe {PROBE_REQUESTS} fresh {:.3} ms vs persistent {:.3} ms",
        untraced.samples.len(),
        tier_counts(&untraced),
        traced.samples.len(),
        tier_latencies(&probe.hits, Tier::Disk).len(),
        tier_latencies(&probe.hits, Tier::Mem).len(),
        probe.fresh_ms,
        probe.persistent_ms,
    ));
    trace.write_jsonl(
        &opts
            .work_dir
            .join(format!("trace-serve_cold-{}.jsonl", opts.seed)),
    )?;
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(fresh_dir(opts, "untraced")?);
    Ok(report)
}

/// The tracing overhead, paired by request: both phases send the same
/// requests (same seed, so the same id carries the same key), and
/// pairing keeps the spread of engine times across keys out of it.
fn request_overhead(untraced: &Outcome, traced: &Outcome) -> f64 {
    let before: HashMap<u64, f64> = untraced
        .samples
        .iter()
        .map(|s| (s.id, s.latency_ms))
        .collect();
    let (base, with): (Vec<f64>, Vec<f64>) = traced
        .samples
        .iter()
        .filter_map(|s| before.get(&s.id).map(|&u| (u, s.latency_ms)))
        .unzip();
    paired_overhead(&base, &with)
}

fn put_cache_stats(report: &mut Report, s: &CacheStats) {
    for (name, value) in [
        ("cache.mem_hits", s.mem_hits),
        ("cache.disk_hits", s.disk_hits),
        ("cache.misses", s.misses),
        ("cache.coalesced", s.coalesced),
        ("cache.warm_starts", s.warm_starts),
        ("cache.mem_evictions", s.mem_evictions),
        ("cache.disk_evictions", s.disk_evictions),
        ("cache.disk_writes", s.disk_writes),
        ("cache.errors", s.errors),
    ] {
        report.put(name, value as f64);
    }
    report.put(
        "cache.hit_ratio",
        ratio((s.mem_hits + s.disk_hits) as f64, s.requests as f64),
    );
}

/// What [`probe_tiers`] measured.
struct Probe {
    /// Disk and memory hits over a persistent connection.
    hits: Vec<Sample>,
    /// A key every probe request asked for (a memory hit).
    key: Arc<Key>,
    /// Median latency (ms) of memory hits over fresh connections.
    fresh_ms: f64,
    /// Median latency (ms) of memory hits over one persistent connection.
    persistent_ms: f64,
}

/// The hit path, which the traffic itself rarely takes: [`PROBE_LIVES`]
/// times, a server restarts on the traced phase's cache directory (its
/// memory tier empty) and, over one persistent connection, asks for every
/// key the traffic left on disk twice — a disk hit, then a memory hit.
/// Every answer must carry the bytes the traffic was served. Then the
/// connection cost: [`PROBE_REQUESTS`] memory hits on one key over fresh
/// connections (each after an [`accept_delay`], as in the traffic), then
/// as many over one persistent connection; the difference is the
/// connection set-up plus the server's accept wait.
fn probe_tiers(
    report: &mut Report,
    opts: &Opts,
    dir: &Path,
    traced: &Outcome,
) -> Result<Probe, String> {
    let mut first = FirstSeen::default();
    let mut stored: Vec<Arc<Key>> = Vec::new();
    for s in &traced.samples {
        first.agrees(s.key.key, &s.payload);
        let file = dir.join(format!("{:016x}.json", s.key.key));
        if !stored.iter().any(|k| k.key == s.key.key) && file.exists() {
            stored.push(Arc::clone(&s.key));
        }
    }
    let key = stored
        .last()
        .cloned()
        .ok_or("the traced phase left no entry on disk")?;
    let (mut hits, mut connection) = (Vec::new(), (0.0, 0.0));
    for life in 0..PROBE_LIVES {
        let server = Running::start(server_config(dir))?;
        let mut conn = Conn::accepted(server.addr)?;
        for k in &stored {
            for _ in 0..2 {
                let t = Instant::now();
                match exchange(&mut conn, 0, k, t, t) {
                    Ok(sample) => {
                        report.check(first.agrees(k.key, &sample.payload));
                        hits.push(sample);
                    }
                    Err(_) => report.check(false),
                }
            }
        }
        drop(conn);
        if life + 1 == PROBE_LIVES {
            connection = probe_connections(opts.seed, server.addr, &key);
        }
        server.stop()?;
    }
    Ok(Probe {
        hits,
        key,
        fresh_ms: connection.0,
        persistent_ms: connection.1,
    })
}

/// Median latency (ms) of [`PROBE_REQUESTS`] requests for an already
/// cached key over fresh connections, each after an [`accept_delay`],
/// then over one persistent connection.
fn probe_connections(seed: u64, addr: SocketAddr, key: &Arc<Key>) -> (f64, f64) {
    let mut delays = Rng::new(seed, 4);
    let mut fresh = Vec::with_capacity(PROBE_REQUESTS);
    for _ in 0..PROBE_REQUESTS {
        std::thread::sleep(accept_delay(&mut delays));
        let t = Instant::now();
        if let Ok(sample) = Conn::open(addr).and_then(|mut c| exchange(&mut c, 0, key, t, t)) {
            fresh.push(sample.latency_ms);
        }
    }
    let mut persistent = Vec::with_capacity(PROBE_REQUESTS);
    if let Ok(mut conn) = Conn::accepted(addr) {
        for _ in 0..PROBE_REQUESTS {
            let t = Instant::now();
            if let Ok(sample) = exchange(&mut conn, 0, key, t, t) {
                persistent.push(sample.latency_ms);
            }
        }
    }
    (median(&fresh), median(&persistent))
}

/// µs per call of `f`, median of 15 calls after 3 warm-up calls.
fn call_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let times: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Request handling minus the engine: parse the request line, parse and
/// canonicalize its spec, derive the cache key.
fn parse_request(line: &str) -> Option<u64> {
    match Request::parse(line.trim_end()).ok()? {
        Request::Optimize {
            scenario,
            goal,
            arc,
        } => {
            let canonical = Scenario::parse_spec(&scenario).ok()?.canonical_spec();
            Some(cache_key(&canonical, goal.label(), arc, ENGINE_VERSION))
        }
        _ => None,
    }
}

fn response_of(sample: &Sample) -> Response {
    Response::Result {
        cache: sample.tier.label().to_string(),
        key: format!("{:016x}", sample.key.key),
        engine_ms: sample.engine_ms,
        donor: None,
        mem_hits: 0,
        disk_hits: 0,
        misses: 0,
        payload: sample.payload.to_string(),
    }
}

/// Replays each server layer on the traced phase's requests, by calling
/// the server crate's public functions directly: request parsing, cache
/// lookups on a cache reopened over the same directory (with the same
/// key sequence), response rendering, and the donor search and store of
/// every engine-run key into a fresh cache with the same disk cap.
/// Returns the probe key's parse + memory lookup + render time in µs.
fn replay_layers(
    report: &mut Report,
    dir: &Path,
    traced: &Outcome,
    probe: &Key,
) -> Result<f64, String> {
    let mut parse_us = Vec::with_capacity(traced.samples.len());
    let mut render_us = Vec::with_capacity(traced.samples.len());
    for s in &traced.samples {
        let t = Instant::now();
        let key = parse_request(&s.key.line);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        report.check(key == Some(s.key.key));
        let response = response_of(s);
        let t = Instant::now();
        let line = response.render();
        render_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(line);
    }
    report.put("server.parse_us", median(&parse_us));
    report.put("server.render_us", median(&render_us));

    let config = server_config(dir);
    let mut cache =
        ResultCache::new(config.mem_cap, Some(dir))?.with_disk_cap(config.disk_cap_bytes);
    let mut lookup_us: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in &traced.samples {
        let t = Instant::now();
        let (_, tier) = cache.lookup(s.key.key);
        let us = t.elapsed().as_secs_f64() * 1e6;
        lookup_us.entry(tier.label()).or_default().push(us);
    }
    let probe_lookup = call_us(|| {
        std::hint::black_box(cache.lookup(probe.key));
    });
    lookup_us.entry("mem").or_default().push(probe_lookup);
    for tier in ["mem", "disk"] {
        report.put(
            &format!("cache.lookup_us.{tier}"),
            median(lookup_us.get(tier).map_or(&[][..], Vec::as_slice)),
        );
    }

    replay_stores(report, dir, traced)?;

    let probe_sample = traced
        .samples
        .iter()
        .rev()
        .find(|s| s.key.key == probe.key)
        .expect("the probe key was served");
    let probe_parse = call_us(|| {
        std::hint::black_box(parse_request(&probe.line));
    });
    let response = response_of(probe_sample);
    let probe_render = call_us(|| {
        std::hint::black_box(response.render());
    });
    Ok(probe_parse + probe_lookup + probe_render)
}

/// The write side, replayed: for every key the traced phase ran the
/// engine for, in order, `find_warm` then `store` into a fresh cache with
/// the server's disk cap. Seeds come from a cold engine run of the key.
fn replay_stores(report: &mut Report, dir: &Path, traced: &Outcome) -> Result<(), String> {
    let mut seen = HashSet::new();
    let runs: Vec<&Sample> = traced
        .samples
        .iter()
        .filter(|s| matches!(s.tier, Tier::Miss | Tier::Warm) && seen.insert(s.key.key))
        .collect();
    let seeds = in_parallel(&runs, |s| cold_result(&s.key.scenario, s.key.goal).1);
    let replay_dir = dir.with_extension("replay");
    let _ = std::fs::remove_dir_all(&replay_dir);
    let mut cache = ResultCache::new(ServerConfig::default().mem_cap, Some(&replay_dir))?
        .with_disk_cap(Some(COLD_DISK_CAP));
    let (mut find_us, mut store_us) = (Vec::new(), Vec::new());
    for (s, seeds) in runs.iter().zip(seeds) {
        let t = Instant::now();
        let donor = cache.find_warm(&s.key.spec, s.key.goal.label(), s.key.arc, s.key.key);
        find_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(donor);
        let meta = s.key.meta(seeds);
        let t = Instant::now();
        cache.store(s.key.key, &s.payload, &meta);
        store_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.put("cache.find_warm_us", median(&find_us));
    report.put("cache.store_us", median(&store_us));
    let _ = std::fs::remove_dir_all(&replay_dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_of_a_key_must_carry_identical_bytes() {
        let mut first = FirstSeen::default();
        let (a, b): (Arc<str>, Arc<str>) = ("payload".into(), "pay1oad".into());
        assert!(first.agrees(7, &a));
        assert!(first.agrees(7, &"payload".into()));
        assert!(!first.agrees(7, &b));
        assert!(first.agrees(8, &b));
    }

    #[test]
    fn corrupted_payloads_are_counted_as_failures() {
        let key = Arc::new(Key::new(
            random_scenario(&mut Rng::new(9, 9)),
            Goal::Opt,
            20,
        ));
        let (cell, _) = cold_result(&key.scenario, key.goal);
        let good: Arc<str> = cell_json(&cell, Cost::new(key.arc), false).into();
        let bad: Arc<str> = good
            .replacen("\"acceptance\": ", "\"acceptance\": 1", 1)
            .into();
        let sample = |tier, payload: &Arc<str>| Sample {
            id: 0,
            key: Arc::clone(&key),
            tier,
            latency_ms: 1.0,
            done_s: 1.0,
            engine_ms: 1,
            payload: Arc::clone(payload),
        };

        // A clean cold miss followed by a hit with the same bytes passes.
        let mut report = Report::default();
        let clean = Outcome {
            samples: vec![sample(Tier::Miss, &good), sample(Tier::Mem, &good)],
            ..Outcome::default()
        };
        check_outcome(&mut report, &clean);
        assert_eq!(report.failed, 0);

        // A corrupted cold payload fails the engine re-run check; a hit
        // whose bytes differ from the first response fails the repeat
        // check; an error response is a failure too.
        let mut report = Report::default();
        let corrupt = Outcome {
            samples: vec![sample(Tier::Miss, &bad), sample(Tier::Disk, &good)],
            errors: 1,
            ..Outcome::default()
        };
        check_outcome(&mut report, &corrupt);
        assert_eq!(report.failed, 3, "{report:?}");
    }

    #[test]
    fn cold_rounds_are_deterministic_and_never_chain_near_misses() {
        let rounds: Vec<[Key; CLIENTS]> = (0..300).map(|r| cold_round(5, r)).collect();
        let near = |r: usize| {
            r > 0
                && rounds[r][0].spec == rounds[r - 1][0].spec
                && rounds[r][0].arc != rounds[r - 1][0].arc
        };
        let mut near_rounds = 0;
        for (r, round) in rounds.iter().enumerate() {
            assert_eq!(round[0].line, cold_round(5, r as u64)[0].line);
            if near(r) {
                near_rounds += 1;
                assert!(!near(r - 1), "round {r} chains two near misses");
            }
        }
        assert!(near_rounds > 30, "{near_rounds} near-miss rounds");
    }

    #[test]
    fn accept_delays_spread_over_the_poll() {
        let poll = Duration::from_millis(ServerConfig::default().io_poll_ms);
        let mut rng = Rng::new(1, 4);
        let delays: Vec<Duration> = (0..400).map(|_| accept_delay(&mut rng)).collect();
        assert!(delays.iter().all(|&d| d < poll));
        assert!(delays.iter().any(|&d| d < poll / 4));
        assert!(delays.iter().any(|&d| d > poll * 3 / 4));
    }
}
