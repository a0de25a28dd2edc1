//! The three workloads and their untraced run, which supplies every
//! end-to-end metric.
//!
//! Every run has the same phases: set-up (several times; the median is
//! `setup_s`), untimed warm-up, an open-loop phase at a fixed Poisson rate, a
//! closed-loop capacity phase with one keep-alive connection per core, the
//! held-out accuracy queries, write batches (beside the reads on
//! `ingest_read`, after them elsewhere) with a snapshot [`RECOVERY_TAIL`]
//! batches before the end, the answer checks, and repeated crash
//! recoveries. The workloads differ in the keys they read and in when and
//! how much they write. hot_read and cold_read write only because every
//! workload reports every end-to-end metric, `update_p50_ms` and
//! `recover_s` included; their writes come after the reads, so the read
//! figures do not see them.
//!
//! On a shared 2-vCPU host, the histogram fits that dominate updates and
//! recoveries run up to twice as slowly in bursts of a fraction of a second
//! while a plain integer loop does not slow down, and how often the bursts
//! come changes from minute to minute. A median of such timings follows the
//! host; the fastest of several repetitions of the same short work does
//! not. So `recover_s` is the fastest of many short recoveries, and each
//! batch's update time is its fastest over [`Workload::write_passes`]
//! passes over the same batches (their median is `update_p50_ms`); the
//! medians are printed beside them. On hot_read and cold_read these
//! repetitions are spread over the run (before the reads, between the open
//! and closed loops, and after the crash), because the host's slow
//! stretches last from seconds to minutes.

use crate::client::{self, ask, closed_loop, open_loop, Conn, OpenLoop};
use crate::fixture::{Fixture, Key};
use crate::metrics::{mean, quantile, Metric};
use crate::rng::{Rng, Zipf};
use pathcost_core::{CostEstimator, HybridGraph, LbEstimator, PathWeightFunction};
use pathcost_hist::divergence::kl_divergence_histograms;
use pathcost_hist::{Bucket, Histogram1D};
use pathcost_live::{LiveIngestor, PersistenceConfig, PersistentIngestor, RetentionConfig};
use pathcost_persist::RecoveryOutcome;
use pathcost_server::json::{self, Json};
use pathcost_server::{wire, Server, ServerConfig, ShutdownHandle};
use pathcost_service::{QueryEngine, ServiceConfig, UpdateReport};
use pathcost_traj::{MatchedTrajectory, TrajectoryStore};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups run before the one that serves the workload; the rest of
/// [`Workload::setups`] run between the recoveries at the end, so `setup_s`
/// is not one moment's speed of a shared machine.
const EARLY_SETUPS: usize = 2;
/// Share of `--seconds` spent in the open loop; the closed loop takes the rest.
const OPEN_SHARE: f64 = 0.5;
/// Gap between ingest_read's write batches, which run beside its reads: 30
/// batches over a 10 s run. Fixed like the read rate, so that a shorter run
/// does not crowd the batches into an overload.
pub const BESIDE_READS_INTERVAL: Duration = Duration::from_millis(333);
/// Batches journalled after the snapshot the write phase takes (as an
/// operator's `POST /admin/snapshot` would): what a recovery replays.
pub const RECOVERY_TAIL: usize = 2;
/// Rounds of recoveries and write passes hot_read and cold_read run before
/// the crash: one before the reads, one between the open and closed loops.
const EARLY_ROUNDS: usize = 2;
/// Recoveries per early round of the first extra write pass's state.
const EARLY_RECOVERIES: usize = 5;
/// Recoveries of the served state per run; `recover_s` is the fastest of
/// these and of the early rounds' ones.
const RECOVERIES: usize = 15;
/// Latency percentiles and throughput are taken per window of this many
/// seconds and reported as the median over windows, so one stall of the
/// shared machine moves one window, not the run's figure.
const WINDOW_S: f64 = 0.5;

/// `stat` applied to the values of `(seconds, value)` pairs falling in each
/// `WINDOW_S` window of `[0, span_s]`, one figure per non-empty window.
fn per_window(values: &[(f64, f64)], span_s: f64, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let windows = (span_s / WINDOW_S).round().max(1.0) as usize;
    let width = span_s / windows as f64;
    let mut buckets = vec![Vec::new(); windows];
    for &(at, v) in values {
        buckets[((at / width) as usize).min(windows - 1)].push(v);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stat(b))
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Hot, Workload::Cold, Workload::Ingest];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot_read",
            Workload::Cold => "cold_read",
            Workload::Ingest => "ingest_read",
        }
    }

    /// Percent of the trips (earliest by departure) in the served base store.
    fn base_percent(self) -> usize {
        match self {
            Workload::Ingest => 70,
            _ => 95,
        }
    }

    /// Write batches: the remaining trips in departure order.
    fn batches(self) -> usize {
        match self {
            Workload::Ingest => 30,
            _ => 20,
        }
    }

    /// Open-loop rate, requests per second.
    fn open_rate(self) -> f64 {
        match self {
            Workload::Hot => 600.0,
            Workload::Cold => 600.0,
            Workload::Ingest => 500.0,
        }
    }

    fn zipf_s(self) -> f64 {
        match self {
            Workload::Cold => 0.9,
            _ => 1.0,
        }
    }

    /// Set-ups per run; `setup_s` is their median. ingest_read's set-up is
    /// the shortest, so it takes more of them.
    fn setups(self) -> usize {
        match self {
            Workload::Ingest => 7,
            _ => 5,
        }
    }

    /// Passes over the write batches; each batch's update time is its
    /// fastest. ingest_read's one pass runs beside its reads, which a pass
    /// without them would not measure; the others add passes on a fresh
    /// ingestor and engine: one before the reads, one in each of the
    /// [`EARLY_ROUNDS`] and the rest after the crash.
    fn write_passes(self) -> usize {
        match self {
            Workload::Ingest => 1,
            _ => 6,
        }
    }

    /// Writes run beside the reads (otherwise after them).
    pub fn concurrent_writes(self) -> bool {
        self == Workload::Ingest
    }
}

/// Everything a run is made of, derived from the fixture and the seed.
pub struct Plan<'f> {
    pub fx: &'f Fixture,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub conns: usize,
    pub base: Vec<MatchedTrajectory>,
    pub base_store: TrajectoryStore,
    pub batches: Vec<Vec<MatchedTrajectory>>,
    pub retention: RetentionConfig,
    /// Workload keys, then the held-out queries, then the rank/route probes.
    pub keys: Vec<Key>,
    pub workload_keys: usize,
    pub holdout: Range<usize>,
    pub warmup: Vec<u32>,
    pub open_stream: Vec<u32>,
    pub schedule: Vec<f64>,
    pub closed_streams: Vec<Vec<u32>>,
    pub check: Vec<u32>,
    pub state_dir: PathBuf,
}

impl<'f> Plan<'f> {
    pub fn new(
        fx: &'f Fixture,
        workload: Workload,
        seed: u64,
        seconds: f64,
        conns: usize,
        state_dir: PathBuf,
    ) -> Plan<'f> {
        let (base, fresh) = fx.split(workload.base_percent());
        let base_store = TrajectoryStore::new(base.clone());
        let span = base.last().map_or(0.0, |m| m.entry_times[0].seconds())
            - base.first().map_or(0.0, |m| m.entry_times[0].seconds());
        let retention = RetentionConfig {
            max_age: Some(span.max(1.0)),
        };
        let chunk = fresh.len().div_ceil(workload.batches()).max(1);
        let batches: Vec<_> = fresh.chunks(chunk).map(<[_]>::to_vec).collect();

        let mut keys = match workload {
            Workload::Hot => fx.hot_keys(&base_store),
            Workload::Cold => fx.cold_keys(&base_store, seed),
            Workload::Ingest => fx.ingest_keys(&fresh),
        };
        let workload_keys = keys.len();
        let probes = fx.probe_keys(&keys);
        keys.extend(fx.holdout_keys());
        let holdout = workload_keys..keys.len();
        let probe_start = keys.len() as u32;
        keys.extend(probes);

        let zipf = Zipf::new(workload_keys, workload.zipf_s());
        let mut rng = Rng::new(seed);
        let warmup: Vec<u32> = match workload {
            // The most popular keys first: a cache in its Zipf steady state.
            Workload::Cold => (0..workload_keys.min(6_000) as u32).collect(),
            _ => (0..workload_keys as u32)
                .chain(0..workload_keys as u32)
                .collect(),
        };
        let rate = workload.open_rate();
        let n_open = (rate * seconds * OPEN_SHARE).round().max(1.0) as usize;
        let mut open_stream: Vec<u32> = (0..n_open).map(|_| zipf.sample(&mut rng) as u32).collect();
        if workload == Workload::Cold {
            // The held-out accuracy queries ride in the timed stream.
            let step = open_stream.len() / (holdout.len() + 1);
            for (j, h) in holdout.clone().enumerate().rev() {
                open_stream.insert((j + 1) * step.max(1), h as u32);
            }
        }
        let mut t = 0.0;
        let schedule = open_stream
            .iter()
            .map(|_| {
                t += rng.exp(1.0 / rate);
                t
            })
            .collect();
        let closed_streams = (0..conns)
            .map(|c| {
                let mut r = Rng::new(seed ^ (0xC105_ED00 + c as u64));
                (0..60_000).map(|_| zipf.sample(&mut r) as u32).collect()
            })
            .collect();
        let mut check: Vec<u32> = (0..16).map(|_| zipf.sample(&mut rng) as u32).collect();
        check.extend(probe_start..keys.len() as u32);

        Plan {
            fx,
            workload,
            seed,
            seconds,
            conns,
            base,
            base_store,
            batches,
            retention,
            keys,
            workload_keys,
            holdout,
            warmup,
            open_stream,
            schedule,
            closed_streams,
            check,
            state_dir,
        }
    }

    /// A query engine with the default service configuration over `weights`.
    pub fn engine_over(&self, weights: PathWeightFunction) -> QueryEngine<'f> {
        QueryEngine::new(
            Arc::new(HybridGraph::from_parts(
                &self.fx.net,
                weights,
                self.fx.cfg.clone(),
            )),
            ServiceConfig::default(),
        )
    }

    /// Batches published before the snapshot the write phase takes.
    pub fn snapshot_after(&self) -> usize {
        self.batches.len().saturating_sub(RECOVERY_TAIL)
    }

    pub fn open_seconds(&self) -> f64 {
        self.seconds * OPEN_SHARE
    }

    pub fn closed_seconds(&self) -> f64 {
        self.seconds * (1.0 - OPEN_SHARE)
    }

    /// The served graph's weights: the base store with the held-out queries
    /// excluded.
    pub fn instantiate(&self) -> PathWeightFunction {
        PathWeightFunction::instantiate_with_exclusions(
            &self.fx.net,
            &self.base_store,
            &self.fx.cfg,
            &self.fx.exclusions,
        )
        .expect("the fixture instantiates")
    }

    pub fn ingestor_over<'n>(
        &'n self,
        store: TrajectoryStore,
        weights: PathWeightFunction,
        dir: &std::path::Path,
    ) -> PersistentIngestor<'n> {
        LiveIngestor::from_instantiated(&self.fx.net, store, weights, self.fx.cfg.clone())
            .expect("the ingestor config matches the weights")
            .with_retention(self.retention)
            .expect("retention is valid")
            .with_persistence(dir, PersistenceConfig::default())
            .expect("the state directory is writable")
    }
}

/// How two answers compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Match {
    Exact,
    /// Equal except for numbers that differ in their last bits (relative
    /// 1e-9). The OD estimator merges chain states in hash-map order
    /// (`merge_states` in `pathcost-core`'s `joint.rs`), so two estimates of
    /// one path on one graph can round differently; such answers are counted
    /// and reported, not failed.
    LastBits,
    Different,
}

/// Compares two answers field by field and number by number.
pub fn compare(a: &Json, b: &Json) -> Match {
    match (a, b) {
        (Json::Number(x), Json::Number(y)) => {
            if x.to_bits() == y.to_bits() {
                Match::Exact
            } else if (x - y).abs() <= 1e-9 * x.abs().max(y.abs()) {
                Match::LastBits
            } else {
                Match::Different
            }
        }
        (Json::Array(x), Json::Array(y)) if x.len() == y.len() => x
            .iter()
            .zip(y)
            .map(|(a, b)| compare(a, b))
            .max()
            .unwrap_or(Match::Exact),
        (Json::Object(x), Json::Object(y))
            if x.len() == y.len() && x.iter().zip(y).all(|((k, _), (l, _))| k == l) =>
        {
            x.iter()
                .zip(y)
                .map(|((_, a), (_, b))| compare(a, b))
                .max()
                .unwrap_or(Match::Exact)
        }
        _ if a == b => Match::Exact,
        _ => Match::Different,
    }
}

/// A query answer as compared across engines: everything but the per-query
/// `stats` (latency, cache tallies).
pub fn canonical(json: &Json) -> Json {
    match json {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "stats")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// What the in-process reference engine answers for `key`.
pub fn reference_answer(engine: &QueryEngine<'_>, key: &Key) -> Result<Json, String> {
    let value = json::parse(key.body.as_bytes()).map_err(|e| e.to_string())?;
    let request = wire::decode_request(&value)?;
    let outcome = engine.execute(&request).map_err(|e| e.to_string())?;
    Ok(canonical(&wire::encode_outcome(&outcome)))
}

/// The served histogram of a `distribution` answer.
fn served_histogram(json: &Json) -> Option<Histogram1D> {
    let mut buckets = Vec::new();
    let mut probs = Vec::new();
    for b in json.get("distribution")?.as_array()? {
        buckets.push(Bucket::new(b.get("lo")?.as_f64()?, b.get("hi")?.as_f64()?).ok()?);
        probs.push(b.get("p")?.as_f64()?);
    }
    Histogram1D::from_raw_parts(buckets, probs).ok()
}

/// Signals shutdown on drop, so a failing phase cannot leave the accept loop
/// (and the scope joining it) running.
struct ShutdownGuard(ShutdownHandle);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Serves `engine` on `server` while `f` runs, then shuts down and joins.
fn serve<R>(server: Server, engine: &QueryEngine<'_>, f: impl FnOnce(SocketAddr) -> R) -> R {
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run(engine));
        let guard = ShutdownGuard(handle);
        let out = f(addr);
        drop(guard);
        serving.join().expect("server thread");
        out
    })
}

fn bind(persistence: Option<Arc<pathcost_persist::PersistenceStatus>>) -> Server {
    Server::bind(ServerConfig {
        persistence,
        ..ServerConfig::default()
    })
    .expect("bind a loopback port")
}

/// Counts attempts and failures, and keeps the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// Check failures: a wrong answer makes the run incorrect.
    pub mismatches: Vec<String>,
    pub errors: Vec<String>,
    /// Checked answers equal only up to last-bit rounding (see [`Match`]).
    pub last_bits: usize,
    pub checked: usize,
}

impl Tally {
    fn add(&mut self, attempted: usize, failed: usize, error: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(e) = error {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn one<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => {
                self.add(1, 0, None);
                Some(v)
            }
            Err(e) => {
                self.add(1, 1, Some(e));
                None
            }
        }
    }

    /// Records the comparison of `got` with `want`; `what` describes it.
    fn compare(&mut self, got: &Json, want: &Json, what: impl FnOnce() -> String) {
        self.checked += 1;
        match compare(got, want) {
            Match::Exact => {}
            Match::LastBits => self.last_bits += 1,
            Match::Different => self.mismatch(format!("{}: got {got}, expected {want}", what())),
        }
    }

    fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.last_bits += other.last_bits;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        for m in other.mismatches {
            if self.mismatches.len() < 5 {
                self.mismatches.push(m);
            }
        }
    }
}

/// True in `count` rounds of `0..rounds`, evenly spaced, the last included.
fn due(round: usize, count: usize, rounds: usize) -> bool {
    round * count / rounds != (round + 1) * count / rounds
}

/// Sends `list` over `conns` connections as fast as answers come back.
fn sweep(addr: SocketAddr, keys: &[Key], list: &[u32], conns: usize, tally: &mut Tally) {
    let next = AtomicUsize::new(0);
    let results: Vec<(usize, usize, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).expect("connect to the server");
                    let (mut sent, mut failed, mut error) = (0, 0, None);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= list.len() {
                            break;
                        }
                        sent += 1;
                        if let Err(e) = ask(&mut conn, &keys[list[i] as usize]) {
                            failed += 1;
                            error.get_or_insert(e);
                        }
                    }
                    (sent, failed, error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    for (sent, failed, error) in results {
        tally.add(sent, failed, error);
    }
}

/// One write batch's outcome.
pub struct Write {
    /// Index of the batch in [`Plan::batches`].
    pub batch: usize,
    /// Batch handed to `ingest` → `apply_update` returned, ms.
    pub update_ms: f64,
    pub report: UpdateReport,
}

/// Ingests the plan's batches through `ingestor` and publishes each epoch to
/// `engine`, taking a snapshot after [`Plan::snapshot_after`] of them. With
/// `interval`, batch `j` is due `j × interval` after the start; a late
/// writer catches up back to back.
pub fn write_batches(
    plan: &Plan<'_>,
    ingestor: &mut PersistentIngestor<'_>,
    engine: &QueryEngine<'_>,
    interval: Option<Duration>,
) -> (Vec<Write>, Tally) {
    let start = Instant::now();
    let mut writes = Vec::new();
    let mut tally = Tally::default();
    for (j, batch) in plan.batches.iter().enumerate() {
        if j == plan.snapshot_after() {
            if let Err(e) = ingestor.snapshot_now() {
                tally.mismatch(format!("snapshot before batch {j} failed: {e}"));
            }
        }
        if let Some(interval) = interval {
            let due = start + interval * j as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let t = Instant::now();
        let published = ingestor
            .ingest(batch.clone())
            .map_err(|e| format!("ingest: {e}"))
            .and_then(|update| {
                engine
                    .apply_update(update)
                    .map_err(|e| format!("apply_update: {e}"))
            });
        let update_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(report) = tally.one(published) {
            writes.push(Write {
                batch: j,
                update_ms,
                report,
            });
        }
    }
    (writes, tally)
}

/// Result of the untraced run.
pub struct Untraced {
    /// The end-to-end metrics `BENCHMARK.json` gates.
    pub metrics: Vec<Metric>,
    /// End-to-end metrics printed for information only.
    pub reported: Vec<Metric>,
    pub tally: Tally,
    /// Open-loop latency per stream position (µs), `None` when it failed.
    pub open_latency_us: Vec<Option<f64>>,
    /// Per connection, the closed-loop keys completed, in order.
    pub closed_sent: Vec<Vec<u32>>,
    /// The open loop's backlog grew: no latency is reported as valid.
    pub invalid: Option<String>,
}

struct Served {
    open: OpenLoop,
    closed: client::ClosedLoop,
    writes: Vec<Write>,
    kl: (f64, f64, usize),
    pre_crash: Vec<Option<Json>>,
    /// What the served ingestor published last; every other pass over the
    /// batches must publish the same.
    published: Arc<PathWeightFunction>,
    warm_misses: u64,
    variables: usize,
}

/// Runs the workload once over HTTP and measures every end-to-end metric.
pub fn run_untraced(plan: &Plan<'_>) -> Untraced {
    let fx = plan.fx;
    let net = &fx.net;
    let keys = &plan.keys;
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let _ = std::fs::remove_dir_all(&plan.state_dir);
    let first_key = &keys[plan.warmup[0] as usize];

    // Set-up: store in memory → first successful answer.
    let boot = |dir: &std::path::Path| {
        let started = Instant::now();
        let weights = plan.instantiate();
        let engine = plan.engine_over(weights.clone());
        let ingestor = plan
            .workload
            .concurrent_writes()
            .then(|| plan.ingestor_over(plan.base_store.clone(), weights, dir));
        let server = bind(ingestor.as_ref().map(|i| i.status()));
        (started, engine, ingestor, server)
    };
    // A set-up that answers its first request and shuts down.
    let spare_setup = |round: usize, tally: &mut Tally, setups: &mut Vec<f64>| {
        let (started, engine, ingestor, server) =
            boot(&plan.state_dir.join(format!("setup{round}")));
        serve(server, &engine, |addr| {
            let first = Conn::connect(addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| ask(&mut c, first_key));
            if tally.one(first).is_some() {
                setups.push(started.elapsed().as_secs_f64());
            }
        });
        drop((engine, ingestor));
    };
    for round in 0..EARLY_SETUPS {
        spare_setup(round, &mut tally, &mut setups);
    }

    // A pass over the write batches on a fresh ingestor (in `dir`) and
    // engine, from `initial`; the ingestor is dropped without a flush, as in
    // a crash. Returns the writes and what the pass published last.
    let fresh_pass = |dir: &std::path::Path, initial: &PathWeightFunction, tally: &mut Tally| {
        let engine = plan.engine_over(initial.clone());
        let mut ing = plan.ingestor_over(plan.base_store.clone(), initial.clone(), dir);
        let (writes, t) = write_batches(plan, &mut ing, &engine, None);
        tally.absorb(t);
        (writes, ing.weights())
    };
    // Recovers the crashed state in `dir`, serves it and asks the checked
    // keys again (all of them if `all`, else the first); each answer must
    // equal `expected`'s. The time from `recover` to the first answer is
    // pushed on `recoveries`.
    let recover_round = |dir: &std::path::Path,
                         expected: &[Option<Json>],
                         all: bool,
                         tally: &mut Tally,
                         recoveries: &mut Vec<f64>| {
        let recovering = Instant::now();
        let recovered = PersistentIngestor::recover(
            net,
            dir,
            fx.cfg.clone(),
            plan.retention,
            PersistenceConfig::default(),
            || TrajectoryStore::new(plan.base.clone()),
        );
        let (recovered, report) = match recovered {
            Ok(r) => r,
            Err(e) => {
                tally.mismatch(format!("recover failed: {e}"));
                return;
            }
        };
        let tail = RECOVERY_TAIL.min(plan.batches.len());
        if report.outcome != RecoveryOutcome::Warm
            || recovered.epoch() != plan.batches.len() as u64
            || report.replayed_records as usize != tail
        {
            tally.mismatch(format!(
                "recovery was {:?} at epoch {} after replaying {} records (expected warm at epoch {} after {tail})",
                report.outcome,
                recovered.epoch(),
                report.replayed_records,
                plan.batches.len(),
            ));
        }
        let engine = plan.engine_over(recovered.weights().as_ref().clone());
        engine.resume_epoch(recovered.epoch());
        let server = bind(Some(recovered.status()));
        let checks = if all { plan.check.len() } else { 1 };
        serve(server, &engine, |addr| {
            let mut conn = Conn::connect(addr).expect("connect to the server");
            for (n, (&k, before)) in plan.check.iter().zip(expected).take(checks).enumerate() {
                let key = &keys[k as usize];
                let after = tally.one(ask(&mut conn, key)).map(|a| canonical(&a));
                if n == 0 {
                    recoveries.push(recovering.elapsed().as_secs_f64());
                }
                if let (Some(before), Some(after)) = (before, &after) {
                    tally.compare(after, before, || {
                        format!("answer changed across recovery for {}", key.body)
                    });
                }
            }
        });
    };

    // hot_read and cold_read: extra write passes and recoveries of the first
    // one's state run before the reads and between the open and closed loops
    // as well as after the crash, so that the fastest of them are not all
    // taken in one stretch of the run. Those recovered answers must equal an
    // in-process engine's over the first pass's last weights.
    let initial = (plan.workload.write_passes() > 1).then(|| plan.instantiate());
    let mut extra_passes: Vec<Vec<Write>> = Vec::new();
    let mut recoveries = Vec::new();
    let first_pass = initial.as_ref().map(|initial| {
        let dir = plan.state_dir.join("pass1");
        let (writes, published) = fresh_pass(&dir, initial, &mut tally);
        extra_passes.push(writes);
        let reference = plan.engine_over(published.as_ref().clone());
        let expected: Vec<Option<Json>> = plan
            .check
            .iter()
            .map(|&k| match reference_answer(&reference, &keys[k as usize]) {
                Ok(answer) => Some(answer),
                Err(e) => {
                    tally.mismatch(format!("reference engine failed: {e}"));
                    None
                }
            })
            .collect();
        (dir, published, expected)
    });
    // One of the [`EARLY_ROUNDS`]: recoveries of the first pass's state, then
    // one more pass, which must publish what the first one did.
    let early_round =
        |tally: &mut Tally, recoveries: &mut Vec<f64>, extra_passes: &mut Vec<Vec<Write>>| {
            let (Some(initial), Some((dir, published, expected))) = (&initial, &first_pass) else {
                return;
            };
            for round in 0..EARLY_RECOVERIES {
                let all = round + 1 == EARLY_RECOVERIES;
                recover_round(dir, expected, all, tally, recoveries);
            }
            let pass = extra_passes.len() + 1;
            let pass_dir = plan.state_dir.join(format!("pass{pass}"));
            let (writes, again) = fresh_pass(&pass_dir, initial, tally);
            if again.variables() != published.variables() {
                tally.mismatch(format!(
                    "write pass {pass} published other weights than pass 1"
                ));
            }
            extra_passes.push(writes);
            let _ = std::fs::remove_dir_all(&pass_dir);
        };
    early_round(&mut tally, &mut recoveries, &mut extra_passes);

    let live_dir = plan.state_dir.join("live");
    let (started, engine, mut ingestor, server) = boot(&live_dir);

    let mut cache_counts = [0u64; 4];
    let served = serve(server, &engine, |addr| {
        let mut conn = Conn::connect(addr).expect("connect to the server");
        if tally.one(ask(&mut conn, first_key)).is_some() {
            setups.push(started.elapsed().as_secs_f64());
        }
        sweep(addr, keys, &plan.warmup, plan.conns, &mut tally);
        let warm_misses = engine.cache().misses();
        let variables = engine.graph().stats().total_variables();

        let cache = engine.cache();
        let before = (cache.hits(), cache.misses());
        let holdout = plan.holdout.clone();
        let keep = move |i: usize| holdout.contains(&(plan.open_stream[i] as usize));
        let (open, closed, concurrent) = std::thread::scope(|scope| {
            let writer = ingestor.as_mut().map(|ing| {
                let engine = &engine;
                scope.spawn(move || write_batches(plan, ing, engine, Some(BESIDE_READS_INTERVAL)))
            });
            let open = open_loop(
                addr,
                keys,
                &plan.open_stream,
                &plan.schedule,
                plan.conns,
                &keep,
            );
            let mid = (cache.hits(), cache.misses());
            early_round(&mut tally, &mut recoveries, &mut extra_passes);
            let closed = closed_loop(addr, keys, &plan.closed_streams, plan.closed_seconds());
            let after = (cache.hits(), cache.misses());
            cache_counts = [
                mid.0 - before.0,
                mid.1 - before.1,
                after.0 - mid.0,
                after.1 - mid.1,
            ];
            let writes = writer.map(|w| w.join().expect("writer thread"));
            (open, closed, writes)
        });
        tally.add(open.samples.len(), open.failed(), open.first_error.clone());
        tally.add(
            closed.ok + closed.failed,
            closed.failed,
            closed.first_error.clone(),
        );

        // Held-out accuracy: served histograms against ground truth, and LB
        // on the same graph for the paper's Fig 14 comparison.
        let served: Vec<Option<Json>> = if plan.workload == Workload::Cold {
            let mut by_key: Vec<Option<Json>> = vec![None; plan.holdout.len()];
            for (i, json) in &open.kept {
                by_key[plan.open_stream[*i] as usize - plan.holdout.start] = Some(json.clone());
            }
            by_key
        } else {
            plan.holdout
                .clone()
                .map(|k| tally.one(ask(&mut conn, &keys[k])))
                .collect()
        };
        let graph = engine.graph();
        let lb = LbEstimator::new(&graph);
        let (mut od_kl, mut lb_kl) = (Vec::new(), Vec::new());
        for (q, json) in fx.holdout.iter().zip(&served) {
            let Some(hist) = json.as_ref().and_then(served_histogram) else {
                tally.mismatch("a held-out answer is not a histogram".into());
                continue;
            };
            od_kl.push(kl_divergence_histograms(&q.ground_truth, &hist));
            if let Ok(lb_hist) = lb.estimate(&q.path, q.departure) {
                lb_kl.push(kl_divergence_histograms(&q.ground_truth, &lb_hist));
            }
        }
        let kl = (mean(&od_kl), mean(&lb_kl), od_kl.len());

        let mut writes = concurrent.map(|(writes, t)| {
            tally.absorb(t);
            writes
        });
        if writes.is_none() {
            // Hot and cold reads are over: publish the arriving trips now.
            let ing = ingestor.insert(plan.ingestor_over(
                plan.base_store.clone(),
                graph.weights().clone(),
                &live_dir,
            ));
            let (w, t) = write_batches(plan, ing, &engine, None);
            tally.absorb(t);
            writes = Some(w);
        }
        let ing = ingestor.as_ref().expect("an ingestor published the writes");

        // Served answers must equal a fresh in-process engine's at this epoch.
        let reference = plan.engine_over(ing.weights().as_ref().clone());
        let mut pre_crash = Vec::new();
        for &k in &plan.check {
            let key = &keys[k as usize];
            let served = tally.one(ask(&mut conn, key)).map(|a| canonical(&a));
            match (&served, reference_answer(&reference, key)) {
                (Some(got), Ok(want)) => tally.compare(got, &want, || {
                    format!(
                        "served answer differs from in-process execute for {}",
                        key.body
                    )
                }),
                (_, Err(e)) => tally.mismatch(format!("reference engine failed: {e}")),
                (None, _) => {}
            }
            pre_crash.push(served);
        }
        Served {
            open,
            closed,
            writes: writes.unwrap_or_default(),
            kl,
            pre_crash,
            published: ing.weights(),
            warm_misses,
            variables,
        }
    });

    // Crash: drop the ingestor and engine without any flush, then recover.
    // A warm recovery leaves the state directory as it found it, so it is
    // repeated and `recover_s` is the fastest; the last one re-answers every
    // checked request, the others the first. The late set-ups and the
    // remaining extra write passes are spread between the recoveries.
    drop(engine);
    drop(ingestor);
    if let Some((dir, published, _)) = first_pass {
        let _ = std::fs::remove_dir_all(&dir);
        if published.variables() != served.published.variables() {
            tally.mismatch(
                "the first write pass published other weights than the served one".into(),
            );
        }
    }
    let late_setups = plan.workload.setups() - 1 - EARLY_SETUPS;
    let late_passes = plan
        .workload
        .write_passes()
        .saturating_sub(2 + EARLY_ROUNDS);
    for round in 0..RECOVERIES {
        if due(round, late_setups, RECOVERIES) {
            spare_setup(EARLY_SETUPS + round, &mut tally, &mut setups);
        }
        if let Some(initial) = initial
            .as_ref()
            .filter(|_| due(round, late_passes, RECOVERIES))
        {
            let dir = plan
                .state_dir
                .join(format!("pass{}", extra_passes.len() + 1));
            let (writes, published) = fresh_pass(&dir, initial, &mut tally);
            if published.variables() != served.published.variables() {
                tally.mismatch(format!(
                    "write pass {} published other weights than the served one",
                    extra_passes.len() + 1
                ));
            }
            extra_passes.push(writes);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let all = round + 1 == RECOVERIES;
        recover_round(
            &live_dir,
            &served.pre_crash,
            all,
            &mut tally,
            &mut recoveries,
        );
    }
    let recover_s = recoveries.iter().copied().fold(f64::NAN, f64::min);
    let _ = std::fs::remove_dir_all(&plan.state_dir);

    let open = &served.open;
    let latencies: Vec<f64> = open.samples.iter().filter_map(|s| s.latency_us).collect();
    let from_send: Vec<f64> = open
        .samples
        .iter()
        .filter(|s| s.latency_us.is_some())
        .map(|s| s.from_send_us)
        .collect();
    let late: Vec<f64> = open
        .samples
        .iter()
        .map(|s| s.late_us)
        .filter(|l| l.is_finite())
        .collect();
    let last_due = plan.schedule.last().copied().unwrap_or(0.0);
    let backlog = open.backlog_trend(&plan.schedule);
    let invalid = (backlog.grew(plan.conns)
        || open.first_error.as_deref() == Some("open loop fell too far behind its schedule"))
    .then(|| {
        format!(
            "open-loop backlog grew from a median of {} requests in the first quarter to {} in the last",
            backlog.early, backlog.late
        )
    });
    // Each batch's fastest update over the passes.
    let mut fastest = vec![f64::NAN; plan.batches.len()];
    for w in served.writes.iter().chain(extra_passes.iter().flatten()) {
        fastest[w.batch] = fastest[w.batch].min(w.update_ms);
    }
    let update_ms: Vec<f64> = fastest.into_iter().filter(|t| t.is_finite()).collect();
    let served_ms: Vec<f64> = served.writes.iter().map(|w| w.update_ms).collect();
    let closed = &served.closed;
    // Latency by scheduled send time; answers per second by arrival time.
    let timed: Vec<(f64, f64)> = plan
        .schedule
        .iter()
        .zip(&open.samples)
        .filter_map(|(&due, s)| s.latency_us.map(|l| (due, l)))
        .collect();
    let window_s = closed.elapsed_s.min(plan.closed_seconds());
    let arrivals: Vec<(f64, f64)> = closed.done_s.iter().map(|&t| (t, 1.0)).collect();
    let width = window_s / (window_s / WINDOW_S).round().max(1.0);
    let qps_windows: Vec<f64> = per_window(&arrivals, window_s, |v| v.len() as f64 / width);
    let qps = quantile(&qps_windows, 0.5);
    let p50s = per_window(&timed, last_due, |v| quantile(v, 0.5));
    let p90s = per_window(&timed, last_due, |v| quantile(v, 0.9));
    let ms = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| format!("{:.2}", x / scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    // The cache's own counters: a batch's warm phase and its answers both
    // look entries up, so a miss is one estimation and the per-request miss
    // rate is misses over requests.
    let per_request = |misses: u64, requests: usize| misses as f64 / requests.max(1) as f64;

    // Gated by BENCHMARK.json. The p90s are reported beside them, not gated:
    // on a 2-vCPU virtual machine, minute-long episodes of host contention
    // move them by more than the widest bound the benchmark may set.
    // `update_p50_ms` and `recover_s` take the fastest repetitions (see the
    // module documentation).
    let metrics = vec![
        Metric::new("setup_s", quantile(&setups, 0.5), "s"),
        Metric::new("query_p50_ms", quantile(&p50s, 0.5) / 1e3, "ms"),
        Metric::new("query_qps", qps, "1/s"),
        Metric::new("update_p50_ms", quantile(&update_ms, 0.5), "ms"),
        Metric::new("recover_s", recover_s, "s"),
        Metric::new("kl_mean", served.kl.0, "nats"),
        Metric::new("peak_rss_mb", crate::metrics::peak_rss_mb(), "MB"),
    ];
    let reported = vec![
        Metric::new("query_p90_ms", quantile(&p90s, 0.5) / 1e3, "ms"),
        Metric::new("update_p90_ms", quantile(&update_ms, 0.9), "ms"),
    ];

    let info = [
        format!(
            "workload {} (seed {}, fixture seed {}; its rationale is in BENCHMARK.json)",
            plan.workload.name(),
            plan.seed,
            fx.seed
        ),
        format!(
            "fixture: {} edges, {} trips in the base store of {}, {} variables, {} held-out queries; cfg beta {} alpha {} min",
            net.edge_count(),
            plan.base.len(),
            fx.trips.len(),
            served.variables,
            plan.holdout.len(),
            fx.cfg.beta,
            fx.cfg.alpha_minutes
        ),
        format!(
            "keys: {} workload keys against a cache of {} entries ({} shards x {}); warm-up {} requests ({} cache misses)",
            plan.workload_keys,
            ServiceConfig::default().cache_shards * ServiceConfig::default().shard_capacity,
            ServiceConfig::default().cache_shards,
            ServiceConfig::default().shard_capacity,
            plan.warmup.len(),
            served.warm_misses
        ),
        format!(
            "open loop: {:.0} req/s Poisson for {:.1} s over {} connections, {} requests, {:.3} cache misses (estimations) per request; whole-phase p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms (p99 for information; query_p50_ms is the median over {} s windows); generator late p90 {:.0} us max {:.0} us; backlog median {} requests in the first quarter, {} in the last, at most {}",
            plan.workload.open_rate(),
            plan.open_seconds(),
            plan.conns,
            open.samples.len(),
            per_request(cache_counts[1], open.samples.len()),
            quantile(&latencies, 0.5) / 1e3,
            quantile(&latencies, 0.9) / 1e3,
            quantile(&latencies, 0.99) / 1e3,
            WINDOW_S,
            quantile(&late, 0.9),
            late.iter().copied().fold(0.0, f64::max),
            backlog.early,
            backlog.late,
            backlog.max
        ),
        format!(
            "from the actual send: p50 {:.3} ms p90 {:.3} ms; per-window p50 ms [{}], p90 ms [{}], closed-loop q/s [{}]",
            quantile(&from_send, 0.5) / 1e3,
            quantile(&from_send, 0.9) / 1e3,
            ms(&p50s, 1e3),
            ms(&p90s, 1e3),
            ms(&qps_windows, 1.0)
        ),
        format!(
            "closed loop: {} connections for {:.1} s, {} answers, {:.0} q/s, {:.3} cache misses per request",
            plan.conns,
            closed.elapsed_s,
            closed.ok,
            closed.ok as f64 / closed.elapsed_s,
            per_request(cache_counts[3], closed.ok + closed.failed)
        ),
        format!(
            "writes: {} batches of ~{} trips, {}, fsync every record, TTL {:.1} days, a snapshot before the last {}; served pass update p50 {:.1} ms p90 {:.1} ms, mean evicted fraction {:.4}; p50 of the other passes [{}] ms; fastest of {} passes per batch [{}] ms, p50 {:.1} ms p90 {:.1} ms",
            served.writes.len(),
            plan.batches.first().map_or(0, Vec::len),
            if plan.workload.concurrent_writes() {
                format!("beside the reads, one every {} ms", BESIDE_READS_INTERVAL.as_millis())
            } else {
                "back to back after the reads".to_string()
            },
            plan.retention.max_age.unwrap_or(0.0) / 86_400.0,
            RECOVERY_TAIL,
            quantile(&served_ms, 0.5),
            quantile(&served_ms, 0.9),
            mean(&served.writes.iter().map(|w| w.report.evicted_fraction()).collect::<Vec<_>>()),
            ms(
                &extra_passes
                    .iter()
                    .map(|p| quantile(&p.iter().map(|w| w.update_ms).collect::<Vec<_>>(), 0.5))
                    .collect::<Vec<_>>(),
                1.0
            ),
            1 + extra_passes.len(),
            ms(&update_ms, 1.0),
            quantile(&update_ms, 0.5),
            quantile(&update_ms, 0.9)
        ),
        format!(
            "accuracy: OD mean KL {:.4} vs LB {:.4} over {} held-out queries; recover fastest {:.3} s, median {:.3} s of {:.3?} s; nproc {}",
            served.kl.0, served.kl.1, served.kl.2, recover_s, quantile(&recoveries, 0.5), recoveries, plan.conns
        ),
    ];
    for line in info {
        println!("# {line}");
    }
    let od_within_lb = matches!(
        served.kl.0.partial_cmp(&served.kl.1),
        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
    );
    if plan.workload == Workload::Cold && !od_within_lb {
        tally.mismatch(format!(
            "OD mean KL {:.4} exceeds LB's {:.4} on the held-out queries",
            served.kl.0, served.kl.1
        ));
    }

    Untraced {
        metrics,
        reported,
        tally,
        open_latency_us: served.open.samples.iter().map(|s| s.latency_us).collect(),
        closed_sent: served.closed.sent,
        invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::due;

    #[test]
    fn due_spreads_its_rounds_and_ends_on_the_last() {
        let rounds: Vec<usize> = (0..15).filter(|&r| due(r, 3, 15)).collect();
        assert_eq!(rounds, [4, 9, 14]);
        assert_eq!((0..15).filter(|&r| due(r, 15, 15)).count(), 15);
        assert_eq!((0..15).filter(|&r| due(r, 0, 15)).count(), 0);
    }
}
