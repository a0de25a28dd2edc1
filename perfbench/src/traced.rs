//! The traced run: the same workload and seed replayed in-process, layer by
//! layer, with a span around every call the benchmark makes into a layer's
//! public functions. It supplies the per-layer metrics; the untraced run
//! supplies the end-to-end ones.
//!
//! * Set-up: `instantiate`, then a fit replay over the instantiated
//!   variables' qualified sample columns (`qualified_per_edge_costs`,
//!   `auto_histogram`, `HistogramNd::from_samples`, `select_bucket_count`).
//! * Reads, one keep-alive connection's worth of threads: `json::parse` +
//!   `wire::decode_request` → `AdmissionQueue::submit` … `Ticket::wait`
//!   (its child is the engine's own `execute` time from `QueryStats`) → on a
//!   miss, the OD estimator (`estimate_with_breakdown`: OI/JC/MC) or the
//!   best-first router over a timed OD estimator → `wire::encode_outcome`.
//! * Writes: `PersistentIngestor::ingest` (children: fsync time from
//!   `PersistenceStatus`, and a mirror replay of `TrajectoryStore::append` /
//!   `retire_before`, `dirty_keys_by_regime` and `rederive_regimes`) →
//!   `QueryEngine::apply_update`.
//! * Recovery, from the snapshot taken
//!   [`RECOVERY_TAIL`](crate::workload::RECOVERY_TAIL) batches before the
//!   end: `SnapshotReader::load_latest`, `PersistentIngestor::recover`.

use crate::fixture::{Key, Req};
use crate::metrics::{mean, quantile, Metric};
use crate::trace::{span_cost_ns, Trace, Tracer, NO_PARENT};
use crate::workload::{Plan, Untraced, Workload, BESIDE_READS_INTERVAL};
use pathcost_core::{
    dirty_keys_by_regime, CoreError, CostEstimator, EstimateBreakdown, HybridGraph, OdEstimator,
    PathWeightFunction, VariableSource,
};
use pathcost_hist::auto::{auto_histogram, select_bucket_count};
use pathcost_hist::{Histogram1D, HistogramNd};
use pathcost_live::{PersistenceConfig, PersistentIngestor};
use pathcost_persist::SnapshotReader;
use pathcost_roadnet::{EdgeId, Path, VertexId};
use pathcost_routing::BestFirstRouter;
use pathcost_server::{json, wire};
use pathcost_service::{AdmissionConfig, AdmissionQueue, QueryEngine, RegimeId, ServiceError};
use pathcost_traj::{Timestamp, TrajectoryStore};
use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-side tallies of one replay thread.
#[derive(Default)]
struct Reads {
    lookups: u64,
    misses: u64,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    depth: Vec<f64>,
    expansions: Vec<f64>,
    evaluated: Vec<f64>,
    prunes: f64,
    failed: usize,
    refused: usize,
    /// (open-loop stream position, in-process request time in µs).
    open_root_us: Vec<(usize, f64)>,
}

impl Reads {
    fn absorb(&mut self, o: Reads) {
        self.lookups += o.lookups;
        self.misses += o.misses;
        self.hit_us.extend(o.hit_us);
        self.miss_us.extend(o.miss_us);
        self.depth.extend(o.depth);
        self.expansions.extend(o.expansions);
        self.evaluated.extend(o.evaluated);
        self.prunes += o.prunes;
        self.failed += o.failed;
        self.refused += o.refused;
        self.open_root_us.extend(o.open_root_us);
    }
}

/// Write-side tallies.
#[derive(Default)]
struct Writes {
    dirty: Vec<f64>,
    changed: Vec<f64>,
    evicted_frac: Vec<f64>,
    fsync_s: f64,
    fsyncs: u64,
    journal_bytes: f64,
    failed: usize,
    /// The mirror replay did not reproduce the ingest: the run is incorrect.
    mismatches: Vec<String>,
}

impl Writes {
    fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }
}

/// The router's estimator in the replay: a candidate the engine's cache
/// holds is read from it (as the engine's own search does); any other is
/// estimated by OD inside a `core.estimate` span. The cache is only read,
/// so the real request that follows meets the same cache state.
struct ReplayEstimator<'a, 'e, 'g, 'n> {
    od: OdEstimator<'g, 'n>,
    engine: &'e QueryEngine<'n>,
    tracer: RefCell<&'a mut Tracer>,
    id: u64,
    parent: u32,
}

impl ReplayEstimator<'_, '_, '_, '_> {
    fn cached(&self, path: &Path, departure: Timestamp) -> Option<Arc<Histogram1D>> {
        let interval = self.engine.interval_of(departure);
        self.engine
            .cache()
            .get(path, interval, RegimeId::ALL_TRAFFIC)
            .map(|hit| hit.histogram)
    }
}

impl CostEstimator for ReplayEstimator<'_, '_, '_, '_> {
    fn name(&self) -> &str {
        "OD"
    }

    fn estimate_arc(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<Arc<Histogram1D>, CoreError> {
        if let Some(hit) = self.cached(path, departure) {
            return Ok(hit);
        }
        self.estimate_with_breakdown(path, departure)
            .map(|(h, _)| Arc::new(h))
    }

    fn estimate_with_breakdown(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<(Histogram1D, EstimateBreakdown), CoreError> {
        if let Some(hit) = self.cached(path, departure) {
            return Ok((hit.as_ref().clone(), EstimateBreakdown::default()));
        }
        let mut tracer = self.tracer.borrow_mut();
        estimate_span(&mut tracer, &self.od, self.id, self.parent, path, departure)
            .map(|(h, b, _)| (h, b))
    }
}

/// One `core.estimate` span with its OI / JC / MC children laid end to end
/// from the estimator's own phase breakdown. Returns the decomposition's
/// component count with the estimate.
fn estimate_span(
    tr: &mut Tracer,
    od: &OdEstimator<'_, '_>,
    id: u64,
    parent: u32,
    path: &Path,
    departure: Timestamp,
) -> Result<(Histogram1D, EstimateBreakdown, usize), CoreError> {
    let start = tr.now();
    let result = od.estimate_with_artifacts(path, departure);
    let end = tr.now();
    let span = tr.record("core.estimate", id, parent, start, end);
    result.map(|a| {
        let b = a.breakdown;
        let mut at = start;
        for (name, s) in [
            ("core.oi", b.decomposition_s),
            ("core.jc", b.joint_s),
            ("core.mc", b.marginal_s),
        ] {
            let ns = (s * 1e9) as u64;
            tr.record(name, id, span, at, at + ns);
            at += ns;
        }
        (a.histogram, b, a.decomposition.len())
    })
}

fn path_of(ids: &[u32]) -> Path {
    Path::from_edges_unchecked(ids.iter().map(|&e| EdgeId(e)).collect())
}

/// Replays one read request layer by layer.
///
/// The lower layers a request reaches are replayed just before it is
/// submitted, against the cache state it will meet, and charged to the span
/// that runs them in the program: behind the admission queue, the batch
/// executor estimates a batch's missing `(path, interval)` entries in a warm
/// phase inside the admission wait, so an estimate, probability or rank
/// request's own `execute` only reads the cache; a route's best-first search
/// runs inside its `execute`. The request's own span is shortened by the
/// replay time.
#[allow(clippy::too_many_arguments)]
fn replay_read<'n>(
    tr: &mut Tracer,
    reads: &mut Reads,
    id: u64,
    key: &Key,
    open_pos: Option<usize>,
    queue: &AdmissionQueue,
    engine: &QueryEngine<'n>,
    graph: &HybridGraph<'n>,
    router: &BestFirstRouter<'_, 'n>,
    sink: &mut Vec<u8>,
) {
    let root = tr.open("request", id, NO_PARENT);
    let request = tr.time("server.parse", id, root, || {
        json::parse(key.body.as_bytes())
            .ok()
            .and_then(|v| wire::decode_request(&v).ok())
    });
    let Some(request) = request else {
        reads.failed += 1;
        tr.close(root);
        return;
    };
    // Placeholders, timed once the real call returns.
    let wait = tr.record("admission.wait", id, root, 0, 0);
    let exec = tr.record("service.execute", id, wait, 0, 0);

    let replay_start = tr.now();
    let od = OdEstimator::new(graph);
    let (mut lookups, mut misses, mut depth) = (0u64, 0u64, 0usize);
    match &key.req {
        Req::Route {
            source,
            destination,
            departure,
            budget,
        } => {
            let span = tr.open("routing.route", id, exec);
            let replay = ReplayEstimator {
                od,
                engine,
                tracer: RefCell::new(&mut *tr),
                id,
                parent: span,
            };
            let routed = router.route_with_telemetry(
                &replay,
                VertexId(*source),
                VertexId(*destination),
                Timestamp(*departure),
                *budget,
            );
            drop(replay);
            tr.close(span);
            if let Ok((_, t)) = routed {
                reads.expansions.push(t.expansions as f64);
                reads.evaluated.push(t.evaluated_candidates as f64);
                reads.prunes += t.incumbent_prunes as f64;
            }
        }
        Req::Estimate { path, departure }
        | Req::Prob {
            path, departure, ..
        } => {
            (lookups, misses, depth) =
                replay_misses(tr, engine, &od, id, wait, &[path], *departure);
        }
        Req::Rank {
            candidates,
            departure,
            ..
        } => {
            let paths: Vec<&Vec<u32>> = candidates.iter().collect();
            (lookups, misses, depth) = replay_misses(tr, engine, &od, id, wait, &paths, *departure);
        }
    }
    let replay_ns = tr.now() - replay_start;

    let wait_start = tr.now();
    let result = queue.submit(request).and_then(|ticket| ticket.wait());
    let wait_end = tr.now();
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            if matches!(e, ServiceError::Overloaded) {
                reads.refused += 1;
            }
            reads.failed += 1;
            tr.close(root);
            return;
        }
    };
    let exec_ns = outcome.stats.latency.as_nanos() as u64;
    tr.spans[wait as usize].start_ns = wait_start;
    tr.spans[wait as usize].end_ns = wait_end;
    tr.spans[exec as usize].start_ns = wait_end.saturating_sub(exec_ns).max(wait_start);
    tr.spans[exec as usize].end_ns = wait_end;
    if key.req.answer_type() == "route" {
        lookups = outcome.stats.cache_hits + outcome.stats.cache_misses;
        misses = outcome.stats.cache_misses;
        depth = outcome.stats.max_decomposition_depth;
    }
    reads.lookups += lookups;
    reads.misses += misses;
    let exec_us = exec_ns as f64 / 1e3;
    if misses == 0 {
        reads.hit_us.push(exec_us);
    } else {
        // A warm-phase miss costs its answer plus the estimation.
        let warm_us = if key.req.answer_type() == "route" {
            0.0
        } else {
            replay_ns as f64 / 1e3
        };
        reads.miss_us.push(exec_us + warm_us);
        reads.depth.push(depth as f64);
    }
    tr.time("server.encode", id, root, || {
        sink.clear();
        let _ = write!(sink, "{}", wire::encode_outcome(&outcome));
        std::hint::black_box(&sink);
    });
    tr.close(root);
    tr.spans[root as usize].start_ns += replay_ns;
    if let Some(pos) = open_pos {
        reads
            .open_root_us
            .push((pos, tr.spans[root as usize].dur_ns() as f64 / 1e3));
    }
}

/// Estimates, under `parent`, the paths the engine's cache lacks; returns
/// (lookups, misses, deepest decomposition).
fn replay_misses(
    tr: &mut Tracer,
    engine: &QueryEngine<'_>,
    od: &OdEstimator<'_, '_>,
    id: u64,
    parent: u32,
    paths: &[&Vec<u32>],
    departure: f64,
) -> (u64, u64, usize) {
    let departure = Timestamp(departure);
    let interval = engine.interval_of(departure);
    let (mut misses, mut depth) = (0, 0);
    for ids in paths {
        let path = path_of(ids);
        if engine
            .cache()
            .get(&path, interval, RegimeId::ALL_TRAFFIC)
            .is_none()
        {
            misses += 1;
            if let Ok((_, _, d)) = estimate_span(tr, od, id, parent, &path, departure) {
                depth = depth.max(d);
            }
        }
    }
    (paths.len() as u64, misses, depth)
}

/// The ingestor's state, replayed step by step beside it.
struct Mirror {
    store: TrajectoryStore,
    weights: Arc<PathWeightFunction>,
}

/// Publishes `plan.batches` through `ingestor` and `engine` with a span per
/// call, replaying the ingest's inner steps on `mirror`.
fn traced_writes(
    tr: &mut Tracer,
    plan: &Plan<'_>,
    ingestor: &mut PersistentIngestor<'_>,
    engine: &QueryEngine<'_>,
    mirror: &mut Mirror,
    interval: Option<Duration>,
) -> Writes {
    let fx = plan.fx;
    let status = ingestor.status();
    let partition = mirror.weights.partition().clone();
    let mut w = Writes::default();
    let start = Instant::now();
    for (j, batch) in plan.batches.iter().enumerate() {
        if j == plan.snapshot_after() {
            if let Err(e) = ingestor.snapshot_now() {
                w.mismatch(format!("snapshot before batch {j} failed: {e}"));
            }
        }
        if let Some(interval) = interval {
            let due = start + interval * j as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let id = 2_000_000 + j as u64;
        let root = tr.open("batch", id, NO_PARENT);
        let (fsyncs_before, fsync_sum_before) = {
            let f = status.fsync_latency();
            (f.count(), f.sum)
        };
        let bytes_before = status.journal_bytes();
        let ing = tr.open("live.ingest", id, root);
        let update = ingestor.ingest(batch.clone());
        tr.close(ing);
        let f = status.fsync_latency();
        let fsync_s = f.sum - fsync_sum_before;
        w.fsync_s += fsync_s;
        w.fsyncs += f.count() - fsyncs_before;
        w.journal_bytes += status.journal_bytes().saturating_sub(bytes_before) as f64;
        let ing_end = tr.spans[ing as usize].end_ns;
        tr.record(
            "persist.fsync",
            id,
            ing,
            ing_end.saturating_sub((fsync_s * 1e9) as u64),
            ing_end,
        );

        // The ingest's inner steps, replayed on the mirror.
        let replay_start = tr.now();
        tr.time("traj.append", id, ing, || {
            mirror.store.append(batch.clone())
        });
        let cutoff = plan.retention.max_age.and_then(|age| {
            let watermark = mirror.store.start_time_at_percentile(100)?;
            Some(Timestamp(watermark.seconds() - age))
        });
        let mut changed = batch.clone();
        if let Some(cutoff) = cutoff {
            let expiring = mirror
                .store
                .matched()
                .iter()
                .any(|m| m.entry_times[0].seconds() < cutoff.seconds());
            if expiring {
                changed.extend(tr.time("traj.retire", id, ing, || {
                    mirror.store.retire_before(cutoff)
                }));
            }
        }
        let dirty = tr.time("core.dirty_keys", id, ing, || {
            dirty_keys_by_regime(&changed, &partition, fx.cfg.max_rank, &fx.cfg.regimes)
        });
        let rederived = tr.time("core.rederive", id, ing, || {
            mirror
                .weights
                .rederive_regimes(&fx.net, &mirror.store, &fx.cfg, &dirty)
        });
        let replay_ns = tr.now() - replay_start;

        let mut ingested = None;
        match update {
            Ok(update) => {
                ingested = Some((update.dirty_keys, update.changed()));
                w.dirty.push(update.dirty_keys as f64);
                w.changed.push(update.changed() as f64);
                let applied = tr.time("service.apply_update", id, root, || {
                    engine.apply_update(update)
                });
                match applied {
                    Ok(report) => w.evicted_frac.push(report.evicted_fraction()),
                    Err(_) => w.failed += 1,
                }
            }
            Err(_) => w.failed += 1,
        }
        tr.close(root);
        tr.spans[root as usize].end_ns -= replay_ns;

        // The mirror must have done the ingest's work, or its spans time
        // something else. Checked outside the batch's span.
        match (rederived, ingested) {
            (Ok(r), Some((dirty_keys, changed))) => {
                if r.dirty_keys != dirty_keys
                    || r.changed() != changed
                    || mirror.store.len() != ingestor.store().len()
                    || r.weights.variables() != ingestor.weights().variables()
                {
                    w.mismatch(format!(
                        "batch {j}: the mirror replay diverged from the ingest (mirror: {} dirty keys, {} changed, {} trips; ingest: {dirty_keys} dirty keys, {changed} changed, {} trips)",
                        r.dirty_keys,
                        r.changed(),
                        mirror.store.len(),
                        ingestor.store().len()
                    ));
                }
                mirror.weights = r.weights;
            }
            (Err(e), _) => w.mismatch(format!("batch {j}: the mirror's rederive failed: {e}")),
            // The ingest failed, already counted.
            (Ok(_), None) => {}
        }
    }
    w
}

/// The order the untraced run sent its reads in: warm-up, the open-loop
/// stream, the closed-loop answers (connections interleaved), held-out
/// queries, answer checks. Each entry is a key and its open-loop position.
fn read_sequence(plan: &Plan<'_>, untraced: &Untraced) -> Vec<(u32, Option<usize>)> {
    let mut seq: Vec<(u32, Option<usize>)> = plan.warmup.iter().map(|&k| (k, None)).collect();
    seq.extend(
        plan.open_stream
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, Some(i))),
    );
    let longest = untraced.closed_sent.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for sent in &untraced.closed_sent {
            if let Some(&k) = sent.get(i) {
                seq.push((k, None));
            }
        }
    }
    if plan.workload != Workload::Cold {
        seq.extend(plan.holdout.clone().map(|k| (k as u32, None)));
    }
    seq.extend(plan.check.iter().map(|&k| (k, None)));
    seq
}

/// Result of the traced run.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: Vec<String>,
}

/// Runs the traced pass and computes every per-layer metric.
/// Returns the metrics, the reads and batches attempted and failed, and the
/// check failures (a mirror replay that diverged from the ingest).
pub fn run_traced(plan: &Plan<'_>, untraced: &Untraced) -> Traced {
    let fx = plan.fx;
    let net = &fx.net;
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let dir = plan.state_dir.join("traced");
    let _ = std::fs::remove_dir_all(&dir);

    // Set-up, split into instantiate and a replay of its histogram fits.
    let setup = tr.open("setup", 0, NO_PARENT);
    let weights = tr.time("core.instantiate", 0, setup, || plan.instantiate());
    tr.close(setup);
    let fit = tr.open("fit", 1, NO_PARENT);
    let partition = weights.partition().clone();
    for (i, v) in weights.variables().iter().enumerate() {
        if !matches!(v.source, VariableSource::Trajectories { .. }) {
            continue;
        }
        let id = 10 + i as u64;
        let range = partition.range(v.interval);
        let rows = tr.time("traj.qualified", id, fit, || {
            plan.base_store
                .qualified_per_edge_costs(net, &v.path, &range, fx.cfg.cost_kind)
        });
        if rows.is_empty() {
            continue;
        }
        if v.is_unit() {
            let totals: Vec<f64> = rows.iter().map(|r| r[0]).collect();
            let _ = tr.time("hist.fit_1d", id, fit, || {
                auto_histogram(&totals, &fx.cfg.auto)
            });
            let _ = tr.time("hist.bucket_select", id, fit, || {
                select_bucket_count(&totals, &fx.cfg.auto)
            });
        } else {
            let _ = tr.time("hist.fit_nd", id, fit, || {
                HistogramNd::from_samples(&rows, &fx.cfg.auto)
            });
            for d in 0..rows[0].len() {
                let column: Vec<f64> = rows.iter().map(|r| r[d]).collect();
                let _ = tr.time("hist.bucket_select", id, fit, || {
                    select_bucket_count(&column, &fx.cfg.auto)
                });
            }
        }
    }
    tr.close(fit);

    let engine = plan.engine_over(weights.clone());
    let graph = engine.graph();
    let router = BestFirstRouter::new(&graph, engine.config().router.clone())
        .expect("default router config is valid");
    let mut mirror = Mirror {
        store: plan.base_store.clone(),
        weights: Arc::new(weights.clone()),
    };
    let mut ingestor = plan
        .workload
        .concurrent_writes()
        .then(|| plan.ingestor_over(plan.base_store.clone(), weights.clone(), &dir));

    // Reads (and, on ingest_read, writes beside them) through a real
    // admission queue and dispatcher.
    let seq = read_sequence(plan, untraced);
    let queue = AdmissionQueue::new(AdmissionConfig::default());
    let next = AtomicUsize::new(0);
    let (read_spans, reads, mut writes, writer_spans) = std::thread::scope(|scope| {
        let dispatcher = scope.spawn(|| queue.dispatch(&engine));
        let writer = ingestor.as_mut().map(|ing| {
            let (engine, mirror) = (&engine, &mut mirror);
            scope.spawn(move || {
                let mut tr = Tracer::new(origin);
                let w = traced_writes(
                    &mut tr,
                    plan,
                    ing,
                    engine,
                    mirror,
                    Some(BESIDE_READS_INTERVAL),
                );
                (tr.spans, w)
            })
        });
        let readers: Vec<_> = (0..plan.conns)
            .map(|_| {
                let (seq, next, queue, engine, graph, router) =
                    (&seq, &next, &queue, &engine, &graph, &router);
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin);
                    let mut reads = Reads::default();
                    let mut sink = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(k, open_pos)) = seq.get(i) else {
                            break;
                        };
                        let id = 1_000_000 + i as u64;
                        replay_read(
                            &mut tr,
                            &mut reads,
                            id,
                            &plan.keys[k as usize],
                            open_pos,
                            queue,
                            engine,
                            graph,
                            router,
                            &mut sink,
                        );
                    }
                    (tr.spans, reads)
                })
            })
            .collect();
        let mut spans = Vec::new();
        let mut reads = Reads::default();
        for r in readers {
            let (s, rd) = r.join().expect("replay reader");
            spans.push(s);
            reads.absorb(rd);
        }
        let (writer_spans, writes) = match writer {
            Some(w) => {
                let (s, w) = w.join().expect("replay writer");
                (s, w)
            }
            None => (Vec::new(), Writes::default()),
        };
        queue.close();
        dispatcher.join().expect("admission dispatcher");
        (spans, reads, writes, writer_spans)
    });
    if ingestor.is_none() {
        let ing =
            ingestor.insert(plan.ingestor_over(plan.base_store.clone(), weights.clone(), &dir));
        writes = traced_writes(&mut tr, plan, ing, &engine, &mut mirror, None);
    }
    let snapshot_s = ingestor.as_ref().map_or(f64::NAN, |ing| {
        let s = ing.status().snapshot_duration();
        s.sum / s.count().max(1) as f64
    });
    let service = engine.stats();
    drop(graph);
    drop(engine);
    drop(ingestor);

    // Crash recovery, split into the snapshot load and the whole recover.
    let recover = tr.open("recover", 3, NO_PARENT);
    let _ = tr.time("persist.load", 3, recover, || {
        SnapshotReader::load_latest(&dir)
    });
    let recovered = tr.time("live.recover", 3, recover, || {
        PersistentIngestor::recover(
            net,
            &dir,
            fx.cfg.clone(),
            plan.retention,
            PersistenceConfig::default(),
            || TrajectoryStore::new(plan.base.clone()),
        )
    });
    tr.close(recover);
    let replayed = recovered
        .as_ref()
        .map_or(f64::NAN, |(_, r)| r.replayed_records as f64);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let mut buffers = vec![tr.spans, writer_spans];
    buffers.extend(read_spans);
    let trace = Trace::merge(buffers);
    let csv = plan
        .state_dir
        .parent()
        .unwrap_or(&plan.state_dir)
        .join(format!("trace-{}.csv", plan.workload.name()));
    if let Err(e) = trace.write_csv(&csv) {
        eprintln!("could not write the trace to {}: {e}", csv.display());
    }

    // Per-layer metrics.
    let us = |name: &str| quantile(&trace.durations(name), 0.5) / 1e3;
    let total_ms = |name: &str| trace.durations(name).iter().sum::<f64>() / 1e6;
    let median_ms = |name: &str| quantile(&trace.durations(name), 0.5) / 1e6;
    let queue_wait: Vec<f64> = trace
        .self_times("admission.wait")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let socket: Vec<f64> = reads
        .open_root_us
        .iter()
        .filter_map(|&(pos, root_us)| {
            untraced
                .open_latency_us
                .get(pos)
                .copied()
                .flatten()
                .map(|l| l - root_us)
        })
        .collect();
    let (read_self, read_roots) = trace.self_by_layer("request");
    let (write_self, write_roots) = trace.self_by_layer("batch");
    let per_read =
        |layer: &str| read_self.get(layer).copied().unwrap_or(0.0) / read_roots.max(1) as f64 / 1e3;
    let per_write = |layer: &str| {
        write_self.get(layer).copied().unwrap_or(0.0) / write_roots.max(1) as f64 / 1e6
    };
    let request_spans = trace
        .spans
        .iter()
        .filter(|s| (1_000_000..2_000_000).contains(&s.id))
        .count();
    let root_ns: f64 = trace.durations("request").iter().sum();
    let overhead = request_spans as f64 * span_cost_ns() / root_ns.max(1.0);
    let lookups = reads.lookups.max(1) as f64;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let evaluated_total: f64 = reads.evaluated.iter().sum();

    let metrics = vec![
        Metric::new("server.parse_us", us("server.parse"), "us"),
        Metric::new("server.encode_us", us("server.encode"), "us"),
        Metric::new("server.socket_us", quantile(&socket, 0.5), "us"),
        Metric::new("admission.queue_wait_us", quantile(&queue_wait, 0.5), "us"),
        Metric::new(
            "admission.batch_size",
            ratio(service.batch_requests, service.batches),
            "count",
        ),
        Metric::new(
            "admission.shed",
            (service.shed_deadline + service.rejected_degraded) as f64 + reads.refused as f64,
            "count",
        ),
        Metric::new(
            "service.hit_ratio",
            1.0 - reads.misses as f64 / lookups,
            "ratio",
        ),
        Metric::new("service.hit_us", quantile(&reads.hit_us, 0.5), "us"),
        Metric::new("service.miss_us", quantile(&reads.miss_us, 0.5), "us"),
        Metric::new(
            "service.evictions_per_kq",
            1e3 * ratio(service.cache_evictions, service.total_queries()),
            "count",
        ),
        Metric::new(
            "service.dedup_ratio",
            ratio(service.batch_jobs_deduplicated, service.batch_requests),
            "ratio",
        ),
        Metric::new(
            "service.apply_update_ms",
            median_ms("service.apply_update"),
            "ms",
        ),
        Metric::new("service.evicted_frac", mean(&writes.evicted_frac), "ratio"),
        Metric::new(
            "core.instantiate_s",
            total_ms("core.instantiate") / 1e3,
            "s",
        ),
        Metric::new("core.oi_us", us("core.oi"), "us"),
        Metric::new("core.jc_us", us("core.jc"), "us"),
        Metric::new("core.mc_us", us("core.mc"), "us"),
        Metric::new("core.decomp_depth", mean(&reads.depth), "count"),
        Metric::new("core.dirty_keys", mean(&writes.dirty), "count"),
        Metric::new("core.vars_changed", mean(&writes.changed), "count"),
        Metric::new("core.rederive_ms", median_ms("core.rederive"), "ms"),
        Metric::new("hist.fit_1d_ms", total_ms("hist.fit_1d"), "ms"),
        Metric::new("hist.fit_nd_ms", total_ms("hist.fit_nd"), "ms"),
        Metric::new(
            "hist.bucket_select_ms",
            total_ms("hist.bucket_select"),
            "ms",
        ),
        Metric::new("routing.route_us", us("routing.route"), "us"),
        Metric::new("routing.expansions", mean(&reads.expansions), "count"),
        Metric::new("routing.evaluated", mean(&reads.evaluated), "count"),
        Metric::new(
            "routing.prune_ratio",
            reads.prunes / (reads.prunes + evaluated_total).max(1.0),
            "ratio",
        ),
        Metric::new("traj.append_ms", median_ms("traj.append"), "ms"),
        Metric::new("traj.retire_ms", median_ms("traj.retire"), "ms"),
        Metric::new("traj.qualified_ms", total_ms("traj.qualified"), "ms"),
        Metric::new("live.ingest_ms", median_ms("live.ingest"), "ms"),
        Metric::new(
            "persist.fsync_ms",
            1e3 * writes.fsync_s / writes.fsyncs.max(1) as f64,
            "ms",
        ),
        Metric::new("persist.snapshot_ms", 1e3 * snapshot_s, "ms"),
        Metric::new(
            "persist.journal_bytes",
            writes.journal_bytes / plan.batches.len().max(1) as f64,
            "bytes",
        ),
        Metric::new("persist.load_ms", total_ms("persist.load"), "ms"),
        Metric::new("persist.replayed", replayed, "count"),
        Metric::new("obs.trace_overhead_frac", overhead, "ratio"),
        // Checked answers that matched the in-process reference only up to
        // last-bit rounding (see `workload::Match`): 0 once OD estimation is
        // bit-reproducible.
        Metric::new(
            "core.last_bit_diffs",
            untraced.tally.last_bits as f64,
            "count",
        ),
        Metric::new("read.server_self_us", per_read("server"), "us"),
        Metric::new("read.admission_self_us", per_read("admission"), "us"),
        Metric::new("read.service_self_us", per_read("service"), "us"),
        Metric::new("read.core_self_us", per_read("core"), "us"),
        Metric::new("read.routing_self_us", per_read("routing"), "us"),
        Metric::new("write.live_self_ms", per_write("live"), "ms"),
        Metric::new("write.traj_self_ms", per_write("traj"), "ms"),
        Metric::new("write.core_self_ms", per_write("core"), "ms"),
        Metric::new("write.persist_self_ms", per_write("persist"), "ms"),
        Metric::new("write.service_self_ms", per_write("service"), "ms"),
    ];

    let read_total: f64 = read_self.values().sum::<f64>().max(1.0);
    let shares: Vec<String> = read_self
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1}%", 100.0 * ns / read_total))
        .collect();
    println!(
        "# trace: {} spans ({} reads, {} write batches) written to {}; read self-time shares: {}",
        trace.spans.len(),
        read_roots,
        write_roots,
        csv.display(),
        shares.join(", ")
    );
    let write_total: f64 = write_self.values().sum::<f64>().max(1.0);
    let shares: Vec<String> = write_self
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1}%", 100.0 * ns / write_total))
        .collect();
    println!("# trace: write self-time shares: {}", shares.join(", "));
    let attempted = seq.len() + plan.batches.len();
    Traced {
        metrics,
        attempted,
        failed: reads.failed + writes.failed,
        mismatches: writes.mismatches,
    }
}
