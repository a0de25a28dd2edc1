//! The shared synthetic fixture and the request keys each workload draws from.
//!
//! The fixture is the Aalborg-like dataset D1 (24×24 grid, 3 000 trips over
//! 60 days) with trips ordered by departure, the held-out accuracy queries
//! of the paper's §5.2.2 protocol (`experiment::make_holdout`, cardinalities
//! 3–6, up to 25 paths each) and the weight exclusions that hide them.

use crate::rng::Rng;
use pathcost_bench::experiment::{make_holdout, Dataset, EvalQuery};
use pathcost_core::{HybridConfig, IntervalId};
use pathcost_roadnet::{Path, RoadNetwork};
use pathcost_traj::{DatasetPreset, MatchedTrajectory, Timestamp, TrajectoryStore};
use std::fmt::Write as _;

pub struct Fixture {
    pub seed: u64,
    pub net: RoadNetwork,
    /// Every trip, ordered by the entry time of its first edge.
    pub trips: Vec<MatchedTrajectory>,
    pub cfg: HybridConfig,
    pub holdout: Vec<EvalQuery>,
    pub exclusions: Vec<(Path, IntervalId)>,
}

impl Fixture {
    pub fn new(seed: u64) -> Fixture {
        let preset = DatasetPreset::aalborg_like(seed);
        let net = preset.build_network();
        let out = preset.simulate(&net).expect("the D1 preset simulates");
        let mut trips = TrajectoryStore::from_ground_truth(&out).matched().to_vec();
        trips.sort_by(|a, b| {
            a.entry_times[0]
                .seconds()
                .total_cmp(&b.entry_times[0].seconds())
                .then(a.id.cmp(&b.id))
        });
        // β = 10, as `examples/serve_http.rs` serves.
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let dataset = Dataset {
            name: preset.name,
            net,
            store: TrajectoryStore::new(trips.clone()),
        };
        let mut holdout = Vec::new();
        let mut exclusions = Vec::new();
        for cardinality in 3..=6 {
            let set = make_holdout(&dataset, &cfg, cardinality, 25);
            holdout.extend(set.queries);
            exclusions.extend(set.exclusions);
        }
        Fixture {
            seed,
            net: dataset.net,
            trips,
            cfg,
            holdout,
            exclusions,
        }
    }

    /// The earliest `percent`% of trips (the served base store) and the rest
    /// (the trips that arrive later, in departure order).
    pub fn split(&self, percent: usize) -> (Vec<MatchedTrajectory>, Vec<MatchedTrajectory>) {
        let cut = self.trips.len() * percent / 100;
        (self.trips[..cut].to_vec(), self.trips[cut..].to_vec())
    }

    fn free_flow_s(&self, path: &Path) -> f64 {
        path.edges()
            .iter()
            .map(|&e| self.net.edge(e).map_or(0.0, |edge| edge.free_flow_time_s()))
            .sum()
    }

    fn endpoints(&self, path: &Path) -> (u32, u32) {
        let edges = path.edges();
        let first = self
            .net
            .edge(edges[0])
            .expect("key paths use network edges");
        let last = self
            .net
            .edge(*edges.last().expect("key paths are non-empty"))
            .expect("key paths use network edges");
        (first.from.0, last.to.0)
    }

    fn estimate(&self, path: &Path, departure: f64) -> Key {
        Key::new(Req::Estimate {
            path: ids(path),
            departure,
        })
    }

    fn prob(&self, path: &Path, departure: f64) -> Key {
        Key::new(Req::Prob {
            path: ids(path),
            departure,
            budget: (1.3 * self.free_flow_s(path)).round(),
        })
    }

    fn rank(&self, candidates: &[&Path], departure: f64) -> Key {
        let budget = candidates
            .iter()
            .map(|p| self.free_flow_s(p))
            .fold(0.0, f64::max);
        Key::new(Req::Rank {
            candidates: candidates.iter().map(|p| ids(p)).collect(),
            departure,
            budget: (1.3 * budget).round(),
        })
    }

    /// A top-1 route between the endpoints of the path's first (at most)
    /// 8 edges: longer spans make best-first searches so costly and so
    /// uneven (1–1 500 expansions at cardinality 16) that which paths a seed
    /// makes popular would decide the workload's throughput.
    fn route(&self, path: &Path, departure: f64) -> Key {
        let prefix = Path::from_edges_unchecked(path.edges()[..path.cardinality().min(8)].to_vec());
        let (source, destination) = self.endpoints(&prefix);
        Key::new(Req::Route {
            source,
            destination,
            departure,
            budget: (1.2 * self.free_flow_s(&prefix)).round(),
        })
    }

    /// `hot_read`: 32 of the store's most travelled paths (cardinality 2–5,
    /// 8 each) at a morning and an evening departure, alternating estimate
    /// and probability requests — 64 keys, all cache-resident after warm-up.
    pub fn hot_keys(&self, store: &TrajectoryStore) -> Vec<Key> {
        let mut keys = Vec::new();
        for k in 2..=5 {
            for (path, _) in store.frequent_paths(k, self.cfg.beta, None).iter().take(8) {
                for (i, departure) in [hms(8, 20), hms(17, 20)].into_iter().enumerate() {
                    keys.push(if (keys.len() + i) % 2 == 0 {
                        self.estimate(path, departure)
                    } else {
                        self.prob(path, departure)
                    });
                }
            }
        }
        keys
    }

    /// `cold_read`: up to 700 frequent paths per cardinality 4–16 (≈ 9.1k
    /// paths) × 12 departures spread over the day. Trips on D1 run 7–30
    /// edges (p10–p90), and an OD estimate costs ~6 µs at cardinality 2 but
    /// ~40 µs at 8 and ~200 µs at 16, so these lengths make a miss cost more
    /// than the HTTP layer's own work.
    ///
    /// Keys come in popularity-rank order. Rank `r` takes cardinality
    /// `4 + r mod 13` and kind slot `61 r mod 100` (slots 0–49 estimate,
    /// 50–84 probability, 85–91 rank of the key path against 1–3 other
    /// universe paths, 92–99 top-1 route, see [`Fixture::route`]), so every
    /// 1 300 consecutive ranks hold each (cardinality, kind) pair once: the
    /// seed picks which paths and departures sit at each rank, not how
    /// costly the popular keys are.
    pub fn cold_keys(&self, store: &TrajectoryStore, seed: u64) -> Vec<Key> {
        let departures: Vec<f64> = (6..18).map(|h| hms(h, 20)).collect();
        let mut rng = Rng::new(seed ^ 0xC01D);
        let mut paths = Vec::new();
        let mut pools: Vec<Vec<(usize, f64)>> = Vec::new();
        for k in 4..=16 {
            let mut pool = Vec::new();
            for (path, _) in store.frequent_paths(k, 2, None).into_iter().take(700) {
                pool.extend(departures.iter().map(|&d| (paths.len(), d)));
                paths.push(path);
            }
            rng.shuffle(&mut pool);
            pools.push(pool);
        }
        let total: usize = pools.iter().map(Vec::len).sum();
        let mut keys = Vec::with_capacity(total);
        let mut r = 0;
        while keys.len() < total {
            let slot = (61 * r) % 100;
            let pool = &mut pools[r % 13];
            r += 1;
            let Some((i, departure)) = pool.pop() else {
                continue;
            };
            let path = &paths[i];
            keys.push(if slot < 50 {
                self.estimate(path, departure)
            } else if slot < 85 {
                self.prob(path, departure)
            } else if slot < 92 {
                let mut candidates = vec![path];
                for _ in 0..1 + rng.below(3) {
                    let other = &paths[rng.below(paths.len())];
                    if other != path {
                        candidates.push(other);
                    }
                }
                self.rank(&candidates, departure)
            } else {
                self.route(path, departure)
            });
        }
        keys
    }

    /// `ingest_read`: 64 keys over the paths the arriving trips travel most
    /// (cardinality 2–5, 8 each), at departures those trips actually took,
    /// so every published batch can invalidate them.
    pub fn ingest_keys(&self, fresh: &[MatchedTrajectory]) -> Vec<Key> {
        let fresh_store = TrajectoryStore::new(fresh.to_vec());
        let mut keys = Vec::new();
        for k in 2..=5 {
            for (path, _) in fresh_store.frequent_paths(k, 3, None).iter().take(8) {
                let occurrences = fresh_store.occurrences_on(path);
                for (i, o) in occurrences.iter().take(2).enumerate() {
                    let departure = o.entry_time.seconds();
                    keys.push(if (keys.len() + i) % 2 == 0 {
                        self.estimate(path, departure)
                    } else {
                        self.prob(path, departure)
                    });
                }
            }
        }
        keys
    }

    /// The held-out accuracy queries as estimate requests.
    pub fn holdout_keys(&self) -> Vec<Key> {
        self.holdout
            .iter()
            .map(|q| self.estimate(&q.path, q.departure.seconds()))
            .collect()
    }

    /// Rank and route probes built from the first key paths of `keys`, so
    /// every workload's answer check covers all four request kinds.
    pub fn probe_keys(&self, keys: &[Key]) -> Vec<Key> {
        let paths: Vec<(Path, f64)> = keys
            .iter()
            .filter_map(|k| match &k.req {
                Req::Estimate { path, departure }
                | Req::Prob {
                    path, departure, ..
                } => Some((
                    Path::from_edges_unchecked(
                        path.iter().map(|&e| pathcost_roadnet::EdgeId(e)).collect(),
                    ),
                    *departure,
                )),
                _ => None,
            })
            .take(4)
            .collect();
        let mut probes = Vec::new();
        for pair in paths.chunks(2) {
            let departure = pair[0].1;
            let candidates: Vec<&Path> = pair.iter().map(|(p, _)| p).collect();
            probes.push(self.rank(&candidates, departure));
            probes.push(self.route(&pair[0].0, departure));
        }
        probes
    }
}

fn ids(path: &Path) -> Vec<u32> {
    path.edges().iter().map(|e| e.0).collect()
}

fn hms(hours: u32, minutes: u32) -> f64 {
    Timestamp::from_day_hms(0, hours, minutes, 0).seconds()
}

/// One request as the benchmark builds it (edge and vertex ids, seconds).
#[derive(Debug, Clone)]
pub enum Req {
    Estimate {
        path: Vec<u32>,
        departure: f64,
    },
    Prob {
        path: Vec<u32>,
        departure: f64,
        budget: f64,
    },
    Rank {
        candidates: Vec<Vec<u32>>,
        departure: f64,
        budget: f64,
    },
    Route {
        source: u32,
        destination: u32,
        departure: f64,
        budget: f64,
    },
}

impl Req {
    /// The `"type"` a successful answer must carry.
    pub fn answer_type(&self) -> &'static str {
        match self {
            Req::Estimate { .. } => "distribution",
            Req::Prob { .. } => "probability",
            Req::Rank { .. } => "ranking",
            Req::Route { .. } => "route",
        }
    }

    fn body(&self) -> String {
        fn list(ids: &[u32]) -> String {
            let mut s = String::from("[");
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{id}");
            }
            s.push(']');
            s
        }
        match self {
            Req::Estimate { path, departure } => format!(
                r#"{{"type":"estimate","path":{},"departure_s":{departure}}}"#,
                list(path)
            ),
            Req::Prob {
                path,
                departure,
                budget,
            } => format!(
                r#"{{"type":"prob","path":{},"departure_s":{departure},"budget_s":{budget}}}"#,
                list(path)
            ),
            Req::Rank {
                candidates,
                departure,
                budget,
            } => format!(
                r#"{{"type":"rank","candidates":[{}],"departure_s":{departure},"budget_s":{budget}}}"#,
                candidates
                    .iter()
                    .map(|c| list(c))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            Req::Route {
                source,
                destination,
                departure,
                budget,
            } => format!(
                r#"{{"type":"route","source":{source},"destination":{destination},"departure_s":{departure},"budget_s":{budget},"k":1}}"#
            ),
        }
    }
}

/// A request together with its pre-rendered `POST /query` body.
#[derive(Debug, Clone)]
pub struct Key {
    pub req: Req,
    pub body: String,
}

impl Key {
    fn new(req: Req) -> Key {
        let body = req.body();
        Key { req, body }
    }
}
