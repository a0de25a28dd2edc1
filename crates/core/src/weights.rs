//! Instantiating the path weight function `W_P` from trajectories (§3).
//!
//! The weight function maps a path and a time interval to an instantiated
//! random variable — the joint distribution of the path's per-edge costs. It
//! is built by one procedure, applied once per table:
//!
//! 1. every window of length `1..=max_rank` of every matched trajectory is an
//!    occurrence of a candidate path, keyed by the interval its entry time
//!    falls in (the one window walk, `windows`);
//! 2. candidates with at least `β` qualified occurrences get a multi-
//!    dimensional histogram fitted to their per-edge cost rows (the Auto +
//!    V-Optimal procedure of §3.1/§3.2);
//! 3. unit paths that never reach `β` qualified trajectories fall back to a
//!    speed-limit-derived distribution, so every edge always has *some*
//!    ground-truth unit weight.
//!
//! The global table is the all-traffic case of that procedure: every
//! trajectory contributes to it. A regime's own table runs the same
//! procedure over the trajectories whose fallback ladder passes through it.

use crate::config::HybridConfig;
use crate::error::CoreError;
use crate::interval::{DayPartition, IntervalId};
use crate::variable::{InstantiatedVariable, VariableSource};
use pathcost_hist::{auto::auto_histogram, Histogram1D, HistogramNd};
use pathcost_roadnet::{EdgeId, Path, RoadNetwork};
use pathcost_traj::costs::per_edge_costs;
use pathcost_traj::MatchedTrajectory;
use pathcost_traj::{CostKind, RegimeId, RegimeSchema, TrajectoryStore};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The one window walk: every window of `m` of length `1..=max_rank`, as
/// `(start, edges[start..start + k], interval of entry_times[start])`.
/// Instantiation, dirty-key enumeration and nothing else read entry times
/// this way, so what a trajectory contributes and what its arrival or
/// retirement dirties cannot drift apart. Windows come start by start, so
/// each key's occurrences within one trajectory appear in position order.
fn windows<'a>(
    m: &'a MatchedTrajectory,
    partition: &'a DayPartition,
    max_rank: usize,
) -> impl Iterator<Item = (usize, &'a [EdgeId], IntervalId)> + 'a {
    let edges = m.path.edges();
    (0..edges.len()).flat_map(move |start| {
        let interval = partition.interval_of(m.entry_times[start].time_of_day());
        (1..=max_rank.min(edges.len() - start))
            .map(move |k| (start, &edges[start..start + k], interval))
    })
}

/// The variable keys whose qualified occurrence sets a batch of *appended or
/// removed* trajectories changes: the key of every window the one window
/// walk yields for the batch. Everything outside this set is provably
/// untouched by the append (or retirement), which is what makes
/// [`PathWeightFunction::rederive`] exact: a trajectory only ever contributes
/// occurrences to its own windows, whether it is arriving or aging out.
pub fn dirty_keys(
    batch: &[MatchedTrajectory],
    partition: &DayPartition,
    max_rank: usize,
) -> BTreeSet<VariableKey> {
    batch
        .iter()
        .flat_map(|m| windows(m, partition, max_rank))
        .map(|(_, window, interval)| (window.to_vec(), interval))
        .collect()
}

/// The regime-keyed counterpart of [`dirty_keys`]: each window of a changed
/// trajectory dirties one key per rung of the trajectory's fallback ladder,
/// because a regime-`Q` traversal contributes occurrences to `Q`'s own table,
/// every ancestor group table and the global table. For an all-global batch
/// this is exactly [`dirty_keys`] with [`RegimeId::ALL_TRAFFIC`] appended to
/// every key.
pub fn dirty_keys_by_regime(
    batch: &[MatchedTrajectory],
    partition: &DayPartition,
    max_rank: usize,
    schema: &RegimeSchema,
) -> BTreeSet<RegimeVariableKey> {
    let mut dirty = BTreeSet::new();
    for m in batch {
        let ladder = schema.ladder(m.regime);
        for (_, window, interval) in windows(m, partition, max_rank) {
            for &table in &ladder {
                dirty.insert((window.to_vec(), interval, table));
            }
        }
    }
    dirty
}

/// Summary statistics of an instantiated weight function, used by the
/// Figure 8–12 experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WeightStats {
    /// Number of trajectory-derived variables per rank.
    pub count_by_rank: BTreeMap<usize, usize>,
    /// Mean entropy of trajectory-derived variables per rank (Figure 8(b)).
    pub mean_entropy_by_rank: BTreeMap<usize, f64>,
    /// Number of distinct edges covered by trajectory-derived variables (`E'`).
    pub covered_edges: usize,
    /// Number of distinct edges with at least one GPS-covered traversal (`E''`).
    pub edges_with_records: usize,
    /// Total approximate memory of all variables (including fallbacks), bytes.
    pub memory_bytes: usize,
}

impl WeightStats {
    /// Coverage ratio `|E'| / |E''|` (Figure 8(a)).
    pub fn coverage(&self) -> f64 {
        if self.edges_with_records == 0 {
            0.0
        } else {
            self.covered_edges as f64 / self.edges_with_records as f64
        }
    }

    /// Total number of trajectory-derived variables.
    pub fn total_variables(&self) -> usize {
        self.count_by_rank.values().sum()
    }
}

/// The instantiated path weight function `W_P`.
///
/// With regime-tagged trajectories in the store, the function additionally
/// carries per-regime *own* tables (variables whose `(path, interval,
/// regime)` occurrence count clears β) and, for every regime reachable from
/// the data, a materialized *effective view*: a complete weight function in
/// which each key is resolved to the nearest fallback-ladder ancestor table
/// that clears β (specific regime → regime group → global). The estimator
/// pipeline runs unchanged against a view; the view remembers each
/// variable's resolution depth and source regime so the serving layer can
/// report fallback depth and invalidate by source table. With no regime
/// tags the extra fields stay empty and the function is bit-identical to
/// the pre-regime pipeline.
#[derive(Debug, Clone)]
pub struct PathWeightFunction {
    partition: DayPartition,
    cost_kind: CostKind,
    variables: Vec<InstantiatedVariable>,
    /// Exact lookup: (path edges, interval) → variable index.
    index: HashMap<(Vec<EdgeId>, IntervalId), usize>,
    /// All variable indices whose path starts with the given edge.
    by_first_edge: HashMap<EdgeId, Vec<usize>>,
    /// Speed-limit-derived fallback distribution per edge.
    fallback_units: HashMap<EdgeId, Histogram1D>,
    stats: WeightStats,
    /// The regime fallback-ladder schema the function was instantiated under.
    schema: RegimeSchema,
    /// Per-regime own variable tables, sorted by `(path edges, interval)` —
    /// only non-global regimes appear, and only with non-empty tables.
    regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>>,
    /// Materialized effective view per regime (ladder-resolved variables).
    regime_views: BTreeMap<RegimeId, Arc<PathWeightFunction>>,
    /// Per-variable fallback-ladder resolution depth — parallel to
    /// `variables` on a regime view, empty on the global function (depth 0).
    variable_depths: Vec<usize>,
    /// Per-variable source regime table — parallel to `variables` on a
    /// regime view, empty on the global function (all-traffic).
    variable_regimes: Vec<RegimeId>,
}

/// A set of `(path, interval)` pairs whose weights must *not* be instantiated.
///
/// Used by the held-out evaluation protocol (§5.2.2): the ground-truth
/// distribution of an evaluation path is computed from its qualified
/// trajectories, and the weight function is then instantiated as if that
/// information were unavailable — any candidate path *containing* the held-out
/// path during its interval is skipped, so estimators must reconstruct the
/// distribution from strictly shorter sub-paths.
pub type HoldoutExclusions = Vec<(Path, IntervalId)>;

/// A `(path edges, interval)` variable key — the unit of dirtiness the live
/// ingestion subsystem tracks: a key is *dirty* after an ingest when at least
/// one newly appended trajectory contributes a qualified occurrence to it.
pub type VariableKey = (Vec<EdgeId>, IntervalId);

/// A regime-qualified variable key: `(path edges, interval, regime table)`.
/// The regime names the *table* the key lives in — `RegimeId::ALL_TRAFFIC`
/// for the global table every trajectory contributes to, a non-global id for
/// a regime's own table (fed only by trajectories whose fallback ladder
/// passes through it).
pub type RegimeVariableKey = (Vec<EdgeId>, IntervalId, RegimeId);

/// The outcome of a selective re-instantiation ([`PathWeightFunction::rederive`]):
/// a new weight-function epoch plus the exact set of variable keys whose
/// histograms differ from the previous epoch. The serving layer consumes this
/// to swap the published weight function and surgically evict exactly the
/// dependent cache entries.
#[derive(Debug, Clone)]
pub struct WeightUpdate {
    /// Monotonically increasing version of the published weight function
    /// (stamped by the live ingestor; `rederive` itself leaves it 0).
    pub epoch: u64,
    /// Number of trajectories the producing ingest appended (stamped by the
    /// live ingestor; `rederive` itself leaves it 0).
    pub trajectories: usize,
    /// Number of trajectories the producing ingest refused as invalid and
    /// never stored (stamped by the live ingestor; `rederive` itself leaves
    /// it 0).
    pub trajectories_rejected: usize,
    /// Number of trajectories the producing retirement removed (stamped by
    /// the live ingestor; `rederive` itself leaves it 0).
    pub trajectories_retired: usize,
    /// Number of dirty keys that were examined.
    pub dirty_keys: usize,
    /// The re-derived weight function — bit-identical to a full
    /// [`PathWeightFunction::instantiate`] over the merged store. Shared
    /// behind an [`Arc`] so the ingestor keeping it for the next epoch and
    /// the graph serving it reuse one allocation.
    pub weights: Arc<PathWeightFunction>,
    /// Keys of previously instantiated variables whose histograms were
    /// re-derived (their qualified occurrence sets grew). The
    /// [`RegimeId`] names the *table* the change landed in —
    /// [`RegimeId::ALL_TRAFFIC`] for the global table, a non-global id for
    /// a regime's own table — so the serving layer can evict only readers
    /// that resolved the key from that table.
    pub updated: Vec<(Path, IntervalId, RegimeId)>,
    /// Keys that newly crossed the β threshold and were instantiated for the
    /// first time (regime-qualified as in [`Self::updated`]). New variables
    /// change candidate *selection* for any query path containing them, so
    /// invalidation must treat these by sub-path containment rather than by
    /// recorded reads.
    pub added: Vec<(Path, IntervalId, RegimeId)>,
    /// Keys of previously instantiated variables whose support dropped below
    /// the β threshold (trajectories aged out) and were *deleted* from the
    /// weight function (regime-qualified as in [`Self::updated`]). Like
    /// [`Self::added`], a deletion changes candidate selection for any query
    /// path containing the key's path, so invalidation must flush recorded
    /// readers *and* sweep by sub-path containment.
    pub removed: Vec<(Path, IntervalId, RegimeId)>,
}

impl WeightUpdate {
    /// Total number of variable keys whose histogram changed in this epoch
    /// (re-derived, newly instantiated or deleted).
    pub fn changed(&self) -> usize {
        self.updated.len() + self.added.len() + self.removed.len()
    }
}

/// Fits the variable for one key from its qualified per-edge cost rows, or
/// `None` when fewer than β rows qualified. Shared by full instantiation and
/// selective re-derivation so both apply the same threshold and produce
/// bit-identical distributions (the §3.1/§3.2 Auto + V-Optimal fit).
fn fit_variable(
    path: Path,
    interval: IntervalId,
    rows: &[Vec<f64>],
    cfg: &HybridConfig,
) -> Result<Option<InstantiatedVariable>, CoreError> {
    if rows.len() < cfg.beta {
        return Ok(None);
    }
    let histogram = if path.is_unit() {
        let totals: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        HistogramNd::from_histogram1d(&auto_histogram(&totals, &cfg.auto)?)
    } else {
        HistogramNd::from_samples(rows, &cfg.auto)?
    };
    Ok(Some(InstantiatedVariable {
        path,
        interval,
        histogram,
        source: VariableSource::Trajectories { count: rows.len() },
    }))
}

/// `true` when `window` during `interval` contains one of the `excluded`
/// held-out paths during the same interval.
fn is_excluded(excluded: &[(Path, IntervalId)], window: &[EdgeId], interval: IntervalId) -> bool {
    excluded.iter().any(|(path, iv)| {
        *iv == interval
            && path.cardinality() <= window.len()
            && window
                .windows(path.cardinality())
                .any(|w| w == path.edges())
    })
}

/// Patches a delta into a table sorted by `(path edges, interval)` in one
/// merge pass: `Some(var)` entries replace (or insert) their key, `None`
/// entries delete it. The result is in exactly the sorted-key order a full
/// instantiation produces, so a small epoch pays neither a re-sort nor a
/// per-key map rebuild.
fn patch_sorted<T>(
    table: T,
    delta: BTreeMap<VariableKey, Option<InstantiatedVariable>>,
) -> Vec<InstantiatedVariable>
where
    T: IntoIterator<Item = InstantiatedVariable>,
    T::IntoIter: ExactSizeIterator,
{
    let table = table.into_iter();
    let mut out = Vec::with_capacity(table.len() + delta.len());
    let mut patches = delta.into_iter().peekable();
    for var in table {
        let mut replaced = false;
        while let Some((key, _)) = patches.peek() {
            // BTreeMap orders (Vec<EdgeId>, IntervalId) keys exactly like
            // this slice comparison, so the merge preserves sorted order.
            let ord = (key.0.as_slice(), key.1).cmp(&(var.path.edges(), var.interval));
            if ord == Ordering::Greater {
                break;
            }
            let (_, patch) = patches.next().expect("peeked");
            out.extend(patch);
            if ord == Ordering::Equal {
                replaced = true;
                break;
            }
        }
        if !replaced {
            out.push(var);
        }
    }
    out.extend(patches.filter_map(|(_, patch)| patch));
    out
}

impl PathWeightFunction {
    /// Instantiates the weight function from a trajectory store.
    pub fn instantiate(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
    ) -> Result<Self, CoreError> {
        Self::instantiate_with_exclusions(net, store, cfg, &[])
    }

    /// Instantiates the weight function, skipping every candidate path that
    /// contains one of the `excluded` paths during the excluded interval.
    /// The exclusions apply to the global table and to every regime's own
    /// table alike.
    pub fn instantiate_with_exclusions(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
        excluded: &[(Path, IntervalId)],
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        let partition = DayPartition::new(cfg.alpha_minutes)?;
        let variables =
            Self::build_table(net, store, cfg, &partition, excluded, RegimeId::ALL_TRAFFIC)?;

        // Speed-limit fallbacks for every edge of the network.
        let mut fallback_units = HashMap::with_capacity(net.edge_count());
        for edge in net.edges() {
            let t_ff = edge.free_flow_time_s();
            let lo = t_ff * (1.0 - cfg.speed_limit_spread);
            let hi = t_ff * (1.0 + 3.0 * cfg.speed_limit_spread);
            fallback_units.insert(edge.id, Histogram1D::uniform(lo, hi.max(lo + 0.5))?);
        }

        // Per-regime own tables: one more table build per non-global table
        // reachable from the regimes present in the store. Skipped entirely
        // for untagged stores.
        let mut regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>> = BTreeMap::new();
        if store.has_regimes() {
            let mut tables: BTreeSet<RegimeId> = BTreeSet::new();
            for q in store.regimes_present() {
                for r in cfg.regimes.ladder(q) {
                    if !r.is_global() {
                        tables.insert(r);
                    }
                }
            }
            for table in tables {
                let vars = Self::build_table(net, store, cfg, &partition, excluded, table)?;
                if !vars.is_empty() {
                    regime_own.insert(table, vars);
                }
            }
        }

        Ok(
            Self::finish(partition, cfg.cost_kind, variables, fallback_units, store)
                .with_regime_tables(cfg.regimes.clone(), regime_own, store),
        )
    }

    /// Builds one table — the global one for [`RegimeId::ALL_TRAFFIC`], a
    /// regime's own table otherwise — from the trajectories that contribute
    /// to it: count every window's occurrences, collect per-edge cost rows
    /// for the keys that reached β, fit them. A key's rows come in
    /// (trajectory, position) order, the order re-derivation reproduces;
    /// the fitted variables are returned in sorted `(path edges, interval)`
    /// key order.
    fn build_table(
        net: &RoadNetwork,
        store: &TrajectoryStore,
        cfg: &HybridConfig,
        partition: &DayPartition,
        excluded: &[(Path, IntervalId)],
        table: RegimeId,
    ) -> Result<Vec<InstantiatedVariable>, CoreError> {
        let contributing = || {
            store
                .matched()
                .iter()
                .filter(move |m| cfg.regimes.contributes_to(m.regime, table))
        };

        let mut counts: HashMap<VariableKey, usize> = HashMap::new();
        for m in contributing() {
            for (_, window, interval) in windows(m, partition, cfg.max_rank) {
                if !is_excluded(excluded, window, interval) {
                    *counts.entry((window.to_vec(), interval)).or_insert(0) += 1;
                }
            }
        }

        let mut samples: HashMap<VariableKey, Vec<Vec<f64>>> = counts
            .into_iter()
            .filter(|&(_, c)| c >= cfg.beta)
            .map(|(k, c)| (k, Vec::with_capacity(c)))
            .collect();
        if !samples.is_empty() {
            for m in contributing() {
                for (start, window, interval) in windows(m, partition, cfg.max_rank) {
                    if let Some(rows) = samples.get_mut(&(window.to_vec(), interval)) {
                        let sub = Path::from_edges_unchecked(window.to_vec());
                        if let Some(costs) = per_edge_costs(m, net, &sub, start, cfg.cost_kind) {
                            rows.push(costs);
                        }
                    }
                }
            }
        }

        let mut samples: Vec<(VariableKey, Vec<Vec<f64>>)> = samples.into_iter().collect();
        samples.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut variables = Vec::with_capacity(samples.len());
        for ((edges, interval), rows) in samples {
            let path = Path::from_edges_unchecked(edges);
            variables.extend(fit_variable(path, interval, &rows, cfg)?);
        }
        Ok(variables)
    }

    /// Attaches the regime schema and own tables to an assembled global
    /// function and (re-)materializes the effective per-regime views. The
    /// views are a pure function of `(global variables, own tables, schema,
    /// store)`, so every constructor path — full instantiation, selective
    /// re-derivation, snapshot restore — converges on identical views for
    /// identical inputs.
    fn with_regime_tables(
        mut self,
        schema: RegimeSchema,
        regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>>,
        store: &TrajectoryStore,
    ) -> PathWeightFunction {
        self.schema = schema;
        self.regime_own = regime_own;
        self.materialise_views(store);
        self
    }

    /// Builds the effective view of every regime reachable from the data:
    /// ladder rungs are layered far-ancestor-first (global at the bottom),
    /// so the nearest table that instantiated a key wins, and the winning
    /// rung's ladder position becomes the key's reported fallback depth.
    fn materialise_views(&mut self, store: &TrajectoryStore) {
        self.regime_views.clear();
        if self.regime_own.is_empty() && !store.has_regimes() {
            return;
        }
        let mut targets: BTreeSet<RegimeId> = BTreeSet::new();
        // Schema-declared regimes get a view even before their own data
        // lands: a sparse regime must resolve through its *group's* table
        // (ladder rung 1), not skip straight to the global function.
        for q in store
            .regimes_present()
            .into_iter()
            .chain(self.regime_own.keys().copied())
            .chain(self.schema.entries().map(|(regime, _)| regime))
        {
            for r in self.schema.ladder(q) {
                if !r.is_global() {
                    targets.insert(r);
                }
            }
        }
        for regime in targets {
            let ladder = self.schema.ladder(regime);
            let mut by_key: BTreeMap<VariableKey, (InstantiatedVariable, usize, RegimeId)> =
                BTreeMap::new();
            for (depth, rung) in ladder.iter().enumerate().rev() {
                for v in self.table(*rung) {
                    by_key.insert(
                        (v.path.edges().to_vec(), v.interval),
                        (v.clone(), depth, *rung),
                    );
                }
            }
            let mut variables = Vec::with_capacity(by_key.len());
            let mut depths = Vec::with_capacity(by_key.len());
            let mut sources = Vec::with_capacity(by_key.len());
            for (_, (v, d, r)) in by_key {
                variables.push(v);
                depths.push(d);
                sources.push(r);
            }
            let mut view = Self::finish(
                self.partition.clone(),
                self.cost_kind,
                variables,
                self.fallback_units.clone(),
                store,
            );
            view.schema = self.schema.clone();
            view.variable_depths = depths;
            view.variable_regimes = sources;
            self.regime_views.insert(regime, Arc::new(view));
        }
    }

    /// Assembles a weight function from a global table in sorted key order:
    /// the lookup and first-edge indices and the summary statistics are
    /// derived from it. Every constructor ends here, so identical variable
    /// sets produce identical structures.
    fn finish(
        partition: DayPartition,
        cost_kind: CostKind,
        variables: Vec<InstantiatedVariable>,
        fallback_units: HashMap<EdgeId, Histogram1D>,
        store: &TrajectoryStore,
    ) -> PathWeightFunction {
        let mut index = HashMap::with_capacity(variables.len());
        let mut by_first_edge: HashMap<EdgeId, Vec<usize>> = HashMap::new();
        for (idx, var) in variables.iter().enumerate() {
            by_first_edge
                .entry(var.path.first_edge())
                .or_default()
                .push(idx);
            index.insert((var.path.edges().to_vec(), var.interval), idx);
        }

        let mut count_by_rank: BTreeMap<usize, usize> = BTreeMap::new();
        let mut entropy_sum: BTreeMap<usize, f64> = BTreeMap::new();
        let mut covered: std::collections::HashSet<EdgeId> = std::collections::HashSet::new();
        let mut memory = 0usize;
        for v in &variables {
            *count_by_rank.entry(v.rank()).or_insert(0) += 1;
            *entropy_sum.entry(v.rank()).or_insert(0.0) += v.entropy();
            covered.extend(v.path.edges().iter().copied());
            memory += v.storage_bytes();
        }
        memory += fallback_units
            .values()
            .map(|h| h.storage_bytes())
            .sum::<usize>();
        let mean_entropy_by_rank = entropy_sum
            .into_iter()
            .map(|(rank, sum)| (rank, sum / count_by_rank[&rank] as f64))
            .collect();
        let stats = WeightStats {
            count_by_rank,
            mean_entropy_by_rank,
            covered_edges: covered.len(),
            edges_with_records: store.covered_edges().len(),
            memory_bytes: memory,
        };

        PathWeightFunction {
            partition,
            cost_kind,
            variables,
            index,
            by_first_edge,
            fallback_units,
            stats,
            schema: RegimeSchema::flat(),
            regime_own: BTreeMap::new(),
            regime_views: BTreeMap::new(),
            variable_depths: Vec::new(),
            variable_regimes: Vec::new(),
        }
    }

    /// Selective re-instantiation: re-derives exactly the variables named by
    /// `dirty` against the current trajectory store and returns a new
    /// weight-function epoch.
    ///
    /// `current` is the store after the producing mutation — trajectories
    /// appended, retired (TTL expiry), or both — and `dirty` must name every
    /// key whose qualified occurrence set the mutation changed (the windows
    /// of appended plus removed trajectories, see [`dirty_keys`]). `cfg` must
    /// be the configuration the function was originally instantiated with —
    /// the day partition (α) and cost kind are checked, because a changed
    /// partition would silently re-key every interval. Under those conditions
    /// the result is **bit-identical** to [`PathWeightFunction::instantiate`]
    /// over `current`:
    ///
    /// * a dirty key's qualified rows in the current store are exactly the
    ///   rows the full rebuild's collection pass would visit, in the same
    ///   (trajectory, position) order, so re-fitting reproduces the rebuild's
    ///   histogram exactly;
    /// * a non-dirty key's qualified occurrence set is untouched by the
    ///   mutation, so its existing histogram already equals what the rebuild
    ///   would fit;
    /// * each table is patched in one merge pass that keeps the sorted key
    ///   order a full instantiation produces, and the lookup indices and
    ///   statistics are derived from it as every constructor derives them.
    ///
    /// Count transitions go both ways: a key crossing β upward is *added*, a
    /// previously instantiated key whose support drops below β (its
    /// trajectories aged out) is **deleted** and reported in
    /// [`WeightUpdate::removed`]. Holdout exclusions are an
    /// evaluation-protocol feature and are not supported here.
    pub fn rederive(
        &self,
        net: &RoadNetwork,
        current: &TrajectoryStore,
        cfg: &HybridConfig,
        dirty: &BTreeSet<VariableKey>,
    ) -> Result<WeightUpdate, CoreError> {
        let tagged: BTreeSet<RegimeVariableKey> = dirty
            .iter()
            .map(|(edges, interval)| (edges.clone(), *interval, RegimeId::ALL_TRAFFIC))
            .collect();
        self.rederive_regimes(net, current, cfg, &tagged)
    }

    /// The regime-aware selective re-instantiation behind [`Self::rederive`]:
    /// each dirty key is re-derived against the contributing subsequence of
    /// the store (every trajectory for the global table, those whose
    /// fallback ladder passes through the key's table otherwise) and patched
    /// into that table. Effective views are re-materialized from the patched
    /// tables, so the result is bit-identical to a full [`Self::instantiate`]
    /// over `current` when `dirty` covers every changed key (see
    /// [`dirty_keys_by_regime`]).
    pub fn rederive_regimes(
        &self,
        net: &RoadNetwork,
        current: &TrajectoryStore,
        cfg: &HybridConfig,
        dirty: &BTreeSet<RegimeVariableKey>,
    ) -> Result<WeightUpdate, CoreError> {
        cfg.validate()?;
        let partition = DayPartition::new(cfg.alpha_minutes)?;
        if partition != self.partition || cfg.cost_kind != self.cost_kind {
            return Err(CoreError::InvalidConfig(
                "live updates must keep the day partition (α) and cost kind of the original instantiation",
            ));
        }
        if cfg.regimes != self.schema {
            return Err(CoreError::InvalidConfig(
                "live updates must keep the regime schema of the original instantiation",
            ));
        }

        let mut deltas: BTreeMap<RegimeId, BTreeMap<VariableKey, Option<InstantiatedVariable>>> =
            BTreeMap::new();
        let mut updated = Vec::new();
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (edges, interval, regime) in dirty {
            let path = Path::from_edges_unchecked(edges.clone());
            let existing = self
                .table(*regime)
                .binary_search_by(|v| (v.path.edges(), v.interval).cmp(&(edges, *interval)))
                .is_ok();
            // The key's qualified occurrences in its table's contributing
            // subsequence of the current store, in the same (trajectory,
            // position) order the full rebuild collects rows in. Reading the
            // key's posting list visits only the trajectories that traverse
            // it, instead of walking the whole store.
            let occurrences: Vec<_> = current
                .occurrences_on_contributing(&path, &self.schema, *regime)
                .into_iter()
                .filter(|o| partition.interval_of(o.entry_time.time_of_day()) == *interval)
                .collect();
            let mut rows = Vec::new();
            if occurrences.len() >= cfg.beta {
                rows.reserve(occurrences.len());
                for o in &occurrences {
                    let m = current.get(o.traj_index).expect("occurrence is in store");
                    if let Some(costs) = per_edge_costs(m, net, &path, o.offset, cfg.cost_kind) {
                        rows.push(costs);
                    }
                }
            }
            let patch = match fit_variable(path.clone(), *interval, &rows, cfg)? {
                Some(var) if existing => {
                    updated.push((path, *interval, *regime));
                    Some(var)
                }
                Some(var) => {
                    added.push((path, *interval, *regime));
                    Some(var)
                }
                // Downward transition: the key lost its β support in this
                // table, so the full rebuild would not instantiate it there
                // — delete it.
                None if existing => {
                    removed.push((path, *interval, *regime));
                    None
                }
                None => continue,
            };
            deltas
                .entry(*regime)
                .or_default()
                .insert((edges.clone(), *interval), patch);
        }

        // Patch every touched table; an emptied own table is dropped so the
        // result matches what full instantiation (which never inserts empty
        // tables) would build.
        let variables = patch_sorted(
            self.variables.iter().cloned(),
            deltas.remove(&RegimeId::ALL_TRAFFIC).unwrap_or_default(),
        );
        let mut regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>> = self
            .regime_own
            .iter()
            .filter(|(regime, _)| !deltas.contains_key(regime))
            .map(|(regime, table)| (*regime, table.clone()))
            .collect();
        for (regime, delta) in deltas {
            let table = patch_sorted(self.table(regime).iter().cloned(), delta);
            if !table.is_empty() {
                regime_own.insert(regime, table);
            }
        }

        let weights = Self::finish(
            self.partition.clone(),
            self.cost_kind,
            variables,
            self.fallback_units.clone(),
            current,
        )
        .with_regime_tables(self.schema.clone(), regime_own, current);
        Ok(WeightUpdate {
            epoch: 0,
            trajectories: 0,
            trajectories_rejected: 0,
            trajectories_retired: 0,
            dirty_keys: dirty.len(),
            weights: Arc::new(weights),
            updated,
            added,
            removed,
        })
    }

    /// Restores a weight function from previously captured parts — the
    /// deserialization counterpart of [`Self::variables`] +
    /// [`Self::fallback_units`]. `variables` must be in strictly increasing
    /// `(path edges, interval)` key order (the order [`Self::variables`]
    /// exposes); the lookup and first-edge indices and the summary statistics
    /// are re-derived exactly as every other constructor derives them, so a
    /// restored function is bit-identical to the one that was captured
    /// (given the same `store`).
    pub fn from_parts(
        partition: DayPartition,
        cost_kind: CostKind,
        variables: Vec<InstantiatedVariable>,
        fallback_units: HashMap<EdgeId, Histogram1D>,
        store: &TrajectoryStore,
    ) -> Result<Self, CoreError> {
        Self::from_parts_with_regimes(
            partition,
            cost_kind,
            variables,
            fallback_units,
            store,
            RegimeSchema::flat(),
            BTreeMap::new(),
        )
    }

    /// [`Self::from_parts`] with regime tables: restores the schema and the
    /// per-regime own tables and re-materializes the effective views, so a
    /// v2 snapshot round-trips to a function bit-identical to the captured
    /// one. Own tables obey the same strictly-increasing key-order contract
    /// as the global variables.
    pub fn from_parts_with_regimes(
        partition: DayPartition,
        cost_kind: CostKind,
        variables: Vec<InstantiatedVariable>,
        fallback_units: HashMap<EdgeId, Histogram1D>,
        store: &TrajectoryStore,
        schema: RegimeSchema,
        regime_own: BTreeMap<RegimeId, Vec<InstantiatedVariable>>,
    ) -> Result<Self, CoreError> {
        for table in std::iter::once(&variables).chain(regime_own.values()) {
            for w in table.windows(2) {
                let a = (w[0].path.edges(), w[0].interval);
                let b = (w[1].path.edges(), w[1].interval);
                if a >= b {
                    return Err(CoreError::InvalidConfig(
                        "restored variables must be in strictly increasing (path, interval) order",
                    ));
                }
            }
        }
        if regime_own.contains_key(&RegimeId::ALL_TRAFFIC) {
            return Err(CoreError::InvalidConfig(
                "the global table is not a regime own table",
            ));
        }
        Ok(
            Self::finish(partition, cost_kind, variables, fallback_units, store)
                .with_regime_tables(schema, regime_own, store),
        )
    }

    /// One table by its regime: the global variables for
    /// [`RegimeId::ALL_TRAFFIC`], otherwise the regime's own table (empty
    /// when the regime instantiated nothing). Never an effective view.
    fn table(&self, regime: RegimeId) -> &[InstantiatedVariable] {
        if regime.is_global() {
            &self.variables
        } else {
            self.regime_own.get(&regime).map_or(&[], Vec::as_slice)
        }
    }

    /// The regime fallback-ladder schema this function was built under.
    pub fn regime_schema(&self) -> &RegimeSchema {
        &self.schema
    }

    /// The per-regime own variable tables, sorted by key — the persistence
    /// counterpart of [`Self::variables`] for the regime dimension.
    pub fn regime_tables(&self) -> &BTreeMap<RegimeId, Vec<InstantiatedVariable>> {
        &self.regime_own
    }

    /// The regimes with a materialized effective view, in ascending order.
    pub fn regimes(&self) -> impl Iterator<Item = RegimeId> + '_ {
        self.regime_views.keys().copied()
    }

    /// The effective weight function for `regime`: every key resolved to
    /// the nearest fallback-ladder table that clears β. Returns `None` for
    /// the global regime and for regimes without any materialized view —
    /// callers then evaluate against `self` (the global function), which is
    /// the deepest rung of every ladder.
    pub fn for_regime(&self, regime: RegimeId) -> Option<&Arc<PathWeightFunction>> {
        if regime.is_global() {
            return None;
        }
        self.regime_views.get(&regime)
    }

    /// The fallback-ladder depth the variable at `index` was resolved at —
    /// 0 on the global function and for own-regime hits on a view.
    pub fn variable_depth(&self, index: usize) -> usize {
        self.variable_depths.get(index).copied().unwrap_or(0)
    }

    /// The source regime table of the variable at `index` —
    /// [`RegimeId::ALL_TRAFFIC`] on the global function and for
    /// global-fallback hits on a view.
    pub fn variable_regime(&self, index: usize) -> RegimeId {
        self.variable_regimes
            .get(index)
            .copied()
            .unwrap_or(RegimeId::ALL_TRAFFIC)
    }

    /// The `(fallback depth, source regime)` a key resolves to on this
    /// view, when the key is instantiated.
    pub fn resolution_of(&self, path: &Path, interval: IntervalId) -> Option<(usize, RegimeId)> {
        self.index
            .get(&(path.edges().to_vec(), interval))
            .map(|&i| (self.variable_depth(i), self.variable_regime(i)))
    }

    /// The speed-limit-derived fallback unit distribution of every edge.
    pub fn fallback_units(&self) -> &HashMap<EdgeId, Histogram1D> {
        &self.fallback_units
    }

    /// The day partition (α) this weight function was built with.
    pub fn partition(&self) -> &DayPartition {
        &self.partition
    }

    /// Which cost the weight function describes.
    pub fn cost_kind(&self) -> CostKind {
        self.cost_kind
    }

    /// All trajectory-derived instantiated variables.
    pub fn variables(&self) -> &[InstantiatedVariable] {
        &self.variables
    }

    /// The variable at `index`.
    pub fn variable(&self, index: usize) -> &InstantiatedVariable {
        &self.variables[index]
    }

    /// Exact lookup `W_P(P, I_j)`: the trajectory-derived variable for this
    /// path and interval, if one was instantiated.
    pub fn get(&self, path: &Path, interval: IntervalId) -> Option<&InstantiatedVariable> {
        self.index
            .get(&(path.edges().to_vec(), interval))
            .map(|&i| &self.variables[i])
    }

    /// Indices of all variables whose path starts with `edge`.
    pub fn variables_starting_with(&self, edge: EdgeId) -> &[usize] {
        self.by_first_edge
            .get(&edge)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The unit-path cost distribution of `edge` during `interval`: the
    /// trajectory-derived one when it exists, otherwise the speed-limit
    /// fallback. Every edge of the network always has a unit distribution.
    pub fn unit_histogram(&self, edge: EdgeId, interval: IntervalId) -> Option<Histogram1D> {
        if let Some(var) = self.get(&Path::unit(edge), interval) {
            return var.histogram.marginal_1d(0).ok();
        }
        self.fallback_units.get(&edge).cloned()
    }

    /// `true` when the unit distribution for this edge and interval comes from
    /// trajectories rather than the speed-limit fallback.
    pub fn unit_is_trajectory_derived(&self, edge: EdgeId, interval: IntervalId) -> bool {
        self.get(&Path::unit(edge), interval).is_some()
    }

    /// Summary statistics of the instantiation.
    pub fn stats(&self) -> &WeightStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_traj::DatasetPreset;

    fn build() -> (RoadNetwork, TrajectoryStore, PathWeightFunction) {
        let (net, store) = DatasetPreset::tiny(21).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        (net, store, wp)
    }

    #[test]
    fn instantiates_variables_of_multiple_ranks() {
        let (_, _, wp) = build();
        let stats = wp.stats();
        assert!(stats.total_variables() > 0, "no variables instantiated");
        assert!(
            stats.count_by_rank.contains_key(&1),
            "expected unit-path variables: {:?}",
            stats.count_by_rank
        );
        assert!(
            stats.count_by_rank.keys().any(|&r| r >= 2),
            "expected at least one non-unit variable: {:?}",
            stats.count_by_rank
        );
    }

    #[test]
    fn every_variable_satisfies_beta() {
        let (_, _, wp) = build();
        for v in wp.variables() {
            match v.source {
                VariableSource::Trajectories { count } => assert!(count >= 10),
                VariableSource::SpeedLimit => {
                    panic!("store-built variables must be trajectory-derived")
                }
            }
            assert_eq!(v.histogram.dims(), v.rank());
        }
    }

    #[test]
    fn exact_lookup_and_first_edge_index_agree() {
        let (_, _, wp) = build();
        for (i, v) in wp.variables().iter().enumerate() {
            let found = wp.get(&v.path, v.interval).expect("indexed variable");
            assert_eq!(found.path, v.path);
            assert!(wp.variables_starting_with(v.path.first_edge()).contains(&i));
        }
    }

    #[test]
    fn unit_histogram_falls_back_to_speed_limit() {
        let (net, _, wp) = build();
        // Every edge must have a unit histogram for every interval.
        let interval = IntervalId(3); // 01:30–02:00, almost certainly no data
        for edge in net.edges().iter().take(20) {
            let h = wp
                .unit_histogram(edge.id, interval)
                .expect("fallback exists");
            assert!((h.probs().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let t_ff = edge.free_flow_time_s();
            assert!(
                h.min() <= t_ff && h.max() >= t_ff,
                "fallback should straddle free-flow time"
            );
        }
    }

    #[test]
    fn stats_are_consistent() {
        let (net, store, wp) = build();
        let stats = wp.stats();
        assert!(stats.covered_edges <= stats.edges_with_records);
        assert!(stats.edges_with_records <= net.edge_count());
        assert!(stats.coverage() > 0.0 && stats.coverage() <= 1.0);
        assert!(stats.memory_bytes > 0);
        assert_eq!(stats.edges_with_records, store.covered_edges().len());
    }

    #[test]
    fn smaller_beta_instantiates_more_variables() {
        let (net, store) = DatasetPreset::tiny(22).materialise().unwrap();
        let strict =
            PathWeightFunction::instantiate(&net, &store, &HybridConfig::default().with_beta(40))
                .unwrap();
        let lenient =
            PathWeightFunction::instantiate(&net, &store, &HybridConfig::default().with_beta(8))
                .unwrap();
        assert!(
            lenient.stats().total_variables() >= strict.stats().total_variables(),
            "lenient β must not produce fewer variables"
        );
    }

    #[test]
    fn larger_alpha_does_not_reduce_variable_count() {
        let (net, store) = DatasetPreset::tiny(23).materialise().unwrap();
        let fine = PathWeightFunction::instantiate(
            &net,
            &store,
            &HybridConfig::default().with_beta(10).with_alpha(15),
        )
        .unwrap();
        let coarse = PathWeightFunction::instantiate(
            &net,
            &store,
            &HybridConfig::default().with_beta(10).with_alpha(120),
        )
        .unwrap();
        assert!(coarse.stats().total_variables() >= fine.stats().total_variables());
    }

    #[test]
    fn rejects_invalid_config() {
        let (net, store) = DatasetPreset::tiny(24).materialise().unwrap();
        assert!(PathWeightFunction::instantiate(
            &net,
            &store,
            &HybridConfig::default().with_beta(0)
        )
        .is_err());
    }

    #[test]
    fn rederive_is_bit_identical_to_full_reinstantiation() {
        let (net, store) = DatasetPreset::tiny(25).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let split = store.len() * 7 / 10;
        let mut base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        assert!(!batch.is_empty());
        let wp = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys(&batch, &partition, cfg.max_rank);

        base.append(batch);
        let update = wp.rederive(&net, &base, &cfg, &dirty).unwrap();
        let full = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        // The strongest possible check: every variable (path, interval,
        // histogram buckets, source count) and the summary statistics are
        // exactly equal to the from-scratch rebuild.
        assert_eq!(update.weights.variables(), full.variables());
        assert_eq!(update.weights.stats(), full.stats());
        assert!(
            update.changed() > 0,
            "a 30% append on the tiny preset must change some variable"
        );
        // Changed keys are disjoint and consistent with the previous epoch.
        for (path, interval, regime) in &update.updated {
            assert!(regime.is_global(), "untagged store ⇒ global-table changes");
            assert!(wp.get(path, *interval).is_some(), "updated ⇒ pre-existing");
        }
        for (path, interval, _) in &update.added {
            assert!(wp.get(path, *interval).is_none(), "added ⇒ new");
            assert!(update.weights.get(path, *interval).is_some());
        }
    }

    /// Asserts every derived structure of `patched` — variables, summary
    /// stats, the exact-lookup index and the first-edge index — is
    /// bit-identical to `full` (the from-scratch sorted re-index), probing
    /// through the public API.
    fn assert_reindex_identical(patched: &PathWeightFunction, full: &PathWeightFunction) {
        assert_eq!(patched.variables(), full.variables());
        assert_eq!(patched.stats(), full.stats());
        for (i, v) in full.variables().iter().enumerate() {
            let found = patched.get(&v.path, v.interval).expect("indexed variable");
            assert_eq!(found, v, "lookup index diverged at {i}");
            assert_eq!(
                patched.variables_starting_with(v.path.first_edge()),
                full.variables_starting_with(v.path.first_edge()),
                "first-edge index diverged for {:?}",
                v.path.first_edge()
            );
        }
    }

    #[test]
    fn rederive_handles_downward_transitions_bit_identically() {
        let (net, store) = DatasetPreset::tiny(28).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        assert!(wp.stats().total_variables() > 0);

        // Retire the oldest 60% of trajectories: plenty of keys drop below β.
        let cutoff = store.start_time_at_percentile(60).unwrap();
        let mut truncated = store;
        let removed_trajs = truncated.retire_before(cutoff);
        assert!(!removed_trajs.is_empty());

        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys(&removed_trajs, &partition, cfg.max_rank);
        let update = wp.rederive(&net, &truncated, &cfg, &dirty).unwrap();
        let full = PathWeightFunction::instantiate(&net, &truncated, &cfg).unwrap();
        assert_reindex_identical(&update.weights, &full);
        assert!(
            !update.removed.is_empty(),
            "a 60% retirement on the tiny preset must delete some variable"
        );
        // Removed keys existed before, are gone now; the rebuild agrees.
        for (path, interval, _) in &update.removed {
            assert!(wp.get(path, *interval).is_some(), "removed ⇒ pre-existing");
            assert!(update.weights.get(path, *interval).is_none());
            assert!(full.get(path, *interval).is_none());
        }
        // Updated keys survive with re-fitted histograms.
        for (path, interval, _) in &update.updated {
            assert!(update.weights.get(path, *interval).is_some());
        }
    }

    #[test]
    fn rederive_retire_then_append_interleaving_matches_rebuild() {
        let (net, store) = DatasetPreset::tiny(29).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let split = store.len() * 8 / 10;
        let mut live = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        let mut wp = PathWeightFunction::instantiate(&net, &live, &cfg).unwrap();

        // Epoch 1: retire the oldest quarter.
        let cutoff = live.start_time_at_percentile(25).unwrap();
        let removed_trajs = live.retire_before(cutoff);
        let dirty = dirty_keys(&removed_trajs, &partition, cfg.max_rank);
        let update = wp.rederive(&net, &live, &cfg, &dirty).unwrap();
        assert_reindex_identical(
            &update.weights,
            &PathWeightFunction::instantiate(&net, &live, &cfg).unwrap(),
        );
        wp = (*update.weights).clone();

        // Epoch 2: append the held-out batch on top of the truncated store.
        let dirty = dirty_keys(&batch, &partition, cfg.max_rank);
        live.append(batch);
        let update = wp.rederive(&net, &live, &cfg, &dirty).unwrap();
        assert_reindex_identical(
            &update.weights,
            &PathWeightFunction::instantiate(&net, &live, &cfg).unwrap(),
        );
    }

    #[test]
    fn rederive_with_no_dirty_keys_is_a_no_op_epoch() {
        let (net, store) = DatasetPreset::tiny(26).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        let update = wp.rederive(&net, &store, &cfg, &BTreeSet::new()).unwrap();
        assert_eq!(update.changed(), 0);
        assert_eq!(update.weights.variables(), wp.variables());
        assert_eq!(update.weights.stats(), wp.stats());
    }

    #[test]
    fn untagged_store_keeps_regime_machinery_inert() {
        let (_, _, wp) = build();
        assert_eq!(wp.regimes().count(), 0);
        assert!(wp.regime_tables().is_empty());
        assert!(wp.for_regime(RegimeId(7)).is_none());
        assert_eq!(wp.variable_depth(0), 0);
        assert_eq!(wp.variable_regime(0), RegimeId::ALL_TRAFFIC);
        // A non-empty schema over an untagged store changes nothing: the
        // global table is bit-identical and no views are materialized.
        let (net, store) = DatasetPreset::tiny(21).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(RegimeSchema::flat().with_group(RegimeId(1), RegimeId(3)));
        let wp2 = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        assert_eq!(wp2.variables(), wp.variables());
        assert_eq!(wp2.stats(), wp.stats());
        assert_eq!(wp2.regimes().count(), 0);
    }

    #[test]
    fn dirty_keys_by_regime_matches_global_enumeration_for_untagged_batches() {
        let (_, store) = DatasetPreset::tiny(21).materialise().unwrap();
        let partition = DayPartition::new(30).unwrap();
        let batch = store.matched()[..10].to_vec();
        let flat = dirty_keys(&batch, &partition, 6);
        let tagged = dirty_keys_by_regime(&batch, &partition, 6, &RegimeSchema::flat());
        assert_eq!(tagged.len(), flat.len());
        for (edges, interval) in &flat {
            assert!(tagged.contains(&(edges.clone(), *interval, RegimeId::ALL_TRAFFIC)));
        }
    }

    /// Tags the tiny-preset store: the first `sparse` trajectories get
    /// regime 2, the rest regime 1.
    fn tag_store(store: &TrajectoryStore, sparse: usize) -> TrajectoryStore {
        let tagged: Vec<MatchedTrajectory> = store
            .matched()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let r = if i < sparse { RegimeId(2) } else { RegimeId(1) };
                m.clone().with_regime(r)
            })
            .collect();
        TrajectoryStore::new(tagged)
    }

    #[test]
    fn sparse_regime_views_fall_back_to_the_global_table() {
        let (net, untagged) = DatasetPreset::tiny(21).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let plain = PathWeightFunction::instantiate(&net, &untagged, &cfg).unwrap();
        // Regime 2 holds 5 trajectories — far below β, so its own table is
        // empty and its whole view answers from the global rung.
        let store = tag_store(&untagged, 5);
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();

        // The global table still sees every trajectory: bit-identical to
        // the untagged instantiation.
        assert_eq!(wp.variables(), plain.variables());
        assert_eq!(wp.stats(), plain.stats());

        let sparse = wp.for_regime(RegimeId(2)).expect("regime 2 is present");
        assert_eq!(sparse.variables(), wp.variables());
        for (i, v) in sparse.variables().iter().enumerate() {
            assert_eq!(sparse.variable_depth(i), 1, "empty own table ⇒ depth 1");
            assert_eq!(sparse.variable_regime(i), RegimeId::ALL_TRAFFIC);
            assert_eq!(
                sparse.resolution_of(&v.path, v.interval),
                Some((1, RegimeId::ALL_TRAFFIC))
            );
        }

        // Regime 1 holds nearly all data: same key set as the global table
        // (a regime count clearing β implies the global count does), with
        // own-table hits at depth 0 and sparse keys answered from depth 1.
        let dense = wp.for_regime(RegimeId(1)).expect("regime 1 is present");
        assert_eq!(dense.variables().len(), wp.variables().len());
        let mut own_hits = 0;
        for (i, v) in dense.variables().iter().enumerate() {
            let global = wp.get(&v.path, v.interval).expect("view key ⊆ global keys");
            match dense.variable_depth(i) {
                0 => {
                    assert_eq!(dense.variable_regime(i), RegimeId(1));
                    own_hits += 1;
                }
                1 => {
                    assert_eq!(dense.variable_regime(i), RegimeId::ALL_TRAFFIC);
                    assert_eq!(v, global);
                }
                d => panic!("flat schema has no depth {d}"),
            }
        }
        assert!(own_hits > 0, "regime 1 holds almost all data, must clear β");

        // A regime with no data and no schema entry has no view.
        assert!(wp.for_regime(RegimeId(9)).is_none());
    }

    /// Asserts the global table, every regime own table and every
    /// materialized view of `a` are bit-identical to `b`'s.
    fn assert_regime_identical(a: &PathWeightFunction, b: &PathWeightFunction) {
        assert_eq!(a.variables(), b.variables());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.regime_tables(), b.regime_tables());
        let regimes: Vec<RegimeId> = a.regimes().collect();
        assert_eq!(regimes, b.regimes().collect::<Vec<_>>());
        for r in regimes {
            let va = a.for_regime(r).expect("listed regime has a view");
            let vb = b.for_regime(r).expect("listed regime has a view");
            assert_eq!(va.variables(), vb.variables());
            assert_eq!(va.stats(), vb.stats());
            for i in 0..va.variables().len() {
                assert_eq!(va.variable_depth(i), vb.variable_depth(i));
                assert_eq!(va.variable_regime(i), vb.variable_regime(i));
            }
        }
    }

    fn grouped_schema() -> RegimeSchema {
        RegimeSchema::flat()
            .with_group(RegimeId(1), RegimeId(3))
            .with_group(RegimeId(2), RegimeId(3))
    }

    #[test]
    fn rederive_regimes_is_bit_identical_to_full_reinstantiation() {
        let (net, untagged) = DatasetPreset::tiny(31).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let split = store.len() * 7 / 10;
        let mut base = TrajectoryStore::new(store.matched()[..split].to_vec());
        let batch = store.matched()[split..].to_vec();
        let wp = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&batch, &partition, cfg.max_rank, &cfg.regimes);

        base.append(batch);
        let update = wp.rederive_regimes(&net, &base, &cfg, &dirty).unwrap();
        let full = PathWeightFunction::instantiate(&net, &base, &cfg).unwrap();
        assert_regime_identical(&update.weights, &full);
        // The group table is fed by every trajectory (both regimes ladder
        // through it), so it mirrors the global table exactly.
        assert_eq!(
            update.weights.regime_tables()[&RegimeId(3)],
            update.weights.variables()
        );
        assert!(
            update
                .updated
                .iter()
                .chain(&update.added)
                .any(|(_, _, r)| !r.is_global()),
            "a tagged append must change some regime table"
        );
    }

    #[test]
    fn rederive_regimes_handles_downward_transitions() {
        let (net, untagged) = DatasetPreset::tiny(32).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();

        let cutoff = store.start_time_at_percentile(60).unwrap();
        let mut truncated = store;
        let removed_trajs = truncated.retire_before(cutoff);
        assert!(!removed_trajs.is_empty());

        let partition = DayPartition::new(cfg.alpha_minutes).unwrap();
        let dirty = dirty_keys_by_regime(&removed_trajs, &partition, cfg.max_rank, &cfg.regimes);
        let update = wp.rederive_regimes(&net, &truncated, &cfg, &dirty).unwrap();
        let full = PathWeightFunction::instantiate(&net, &truncated, &cfg).unwrap();
        assert_regime_identical(&update.weights, &full);
        assert!(
            update.removed.iter().any(|(_, _, r)| !r.is_global()),
            "a 60% retirement must delete some regime-table variable"
        );
    }

    #[test]
    fn exclusions_reach_every_regime_table_and_view() {
        let (net, untagged) = DatasetPreset::tiny(31).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        }
        .with_regimes(grouped_schema());
        let store = tag_store(&untagged, untagged.len() / 2);
        let full = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        // Hold out two rank-2 keys of regime 2's own table and the only key
        // of regime 1's: every table and view holding a key that contains
        // one of them must lose it, and nothing else may change.
        let own = full.regime_tables();
        assert_eq!(own[&RegimeId(1)].len(), 1);
        let excluded: Vec<(Path, IntervalId)> = own[&RegimeId(2)]
            .iter()
            .filter(|v| v.rank() == 2)
            .take(2)
            .chain(&own[&RegimeId(1)])
            .map(|v| (v.path.clone(), v.interval))
            .collect();
        assert_eq!(excluded.len(), 3);
        let held_out = |v: &InstantiatedVariable| {
            excluded.iter().any(|(path, interval)| {
                *interval == v.interval
                    && v.path
                        .edges()
                        .windows(path.cardinality())
                        .any(|w| w == path.edges())
            })
        };
        let kept = |vars: &[InstantiatedVariable]| -> Vec<InstantiatedVariable> {
            vars.iter().filter(|v| !held_out(v)).cloned().collect()
        };

        let wp =
            PathWeightFunction::instantiate_with_exclusions(&net, &store, &cfg, &excluded).unwrap();
        assert!(wp.variables().len() < full.variables().len());
        assert_eq!(wp.variables(), kept(full.variables()));
        // Regime 1's table empties and is dropped, as full instantiation
        // drops every empty table.
        assert!(!wp.regime_tables().contains_key(&RegimeId(1)));
        assert!(wp.regime_tables().values().all(|t| !t.is_empty()));
        for (regime, vars) in own {
            let table = wp
                .regime_tables()
                .get(regime)
                .map_or(&[][..], Vec::as_slice);
            assert!(table.len() < vars.len(), "regime {regime} lost no key");
            assert_eq!(table, kept(vars));
        }
        let regimes: Vec<RegimeId> = full.regimes().collect();
        assert_eq!(wp.regimes().collect::<Vec<_>>(), regimes);
        for r in regimes {
            let (view, full_view) = (wp.for_regime(r).unwrap(), full.for_regime(r).unwrap());
            assert!(view.variables().iter().all(|v| !held_out(v)));
            assert_eq!(view.variables(), kept(full_view.variables()));
            for (i, v) in view.variables().iter().enumerate() {
                assert_eq!(
                    view.resolution_of(&v.path, v.interval),
                    full_view.resolution_of(&v.path, v.interval),
                    "view {r} resolves {:?} differently",
                    v.path
                );
                assert_eq!(
                    (view.variable_depth(i), view.variable_regime(i)),
                    full_view.resolution_of(&v.path, v.interval).unwrap()
                );
            }
        }
    }

    #[test]
    fn rederive_regimes_rejects_a_changed_schema() {
        let (net, untagged) = DatasetPreset::tiny(33).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &untagged, &cfg).unwrap();
        let recut = cfg.with_regimes(grouped_schema());
        assert!(wp
            .rederive_regimes(&net, &untagged, &recut, &BTreeSet::new())
            .is_err());
    }

    #[test]
    fn rederive_rejects_a_changed_partition() {
        let (net, store) = DatasetPreset::tiny(27).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let wp = PathWeightFunction::instantiate(&net, &store, &cfg).unwrap();
        let recut = HybridConfig {
            alpha_minutes: cfg.alpha_minutes * 2,
            ..cfg
        };
        assert!(wp.rederive(&net, &store, &recut, &BTreeSet::new()).is_err());
    }
}
