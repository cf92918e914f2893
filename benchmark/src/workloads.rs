//! The six workloads: what each one serves, on what, and why.
//!
//! Everything here is plain data. The **network** of a workload is a fixed
//! fixture (the paper evaluates on one fixed road network too), generated
//! from [`NETWORK_SEED`], as is the pool of popular path destinations; the
//! **traffic** — query locations, weights, sources, which destination each
//! request goes to, users, order — is drawn from `--seed`. Path-skyline cost is
//! exponential in the instance, so a seed-dependent network would make
//! runs with different seeds incomparable; a seed-dependent request list
//! over one network does not.
//!
//! Request costs are heavy-tailed (p99 is 20–200× p50), so a thousand
//! independent uniform draws would leave run-to-run differences of 10–30 %
//! between seeds — wider than any regression bound. The traffic is therefore
//! drawn by **randomised quasi-Monte-Carlo**: each seed takes the same
//! low-discrepancy point set ([`rqmc_sequence`]), shifts it by a seeded random
//! offset and shuffles its order. Every seed then covers the network (and
//! the source × target square, and the Zipf ranks) evenly, while no two
//! seeds share a request.

use crate::adapter::{self, Network};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Seed of every workload's network fixture.
pub const NETWORK_SEED: u64 = 2010;
/// Seed used when `--seed` is absent; the digests in `expected/` pin it.
pub const DEFAULT_SEED: u64 = 2010;

/// One request, as plain data (the adapter turns it into the engine's type).
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    Skyline {
        node: u32,
        cea: bool,
    },
    TopK {
        node: u32,
        weights: Vec<f64>,
        k: usize,
        cea: bool,
    },
    TopKIncremental {
        node: u32,
        weights: Vec<f64>,
        take: usize,
        cea: bool,
    },
    PathSkyline {
        source: u32,
        target: u32,
    },
    AlphaPath {
        source: u32,
        target: u32,
        weights: Vec<f64>,
    },
}

impl Req {
    /// True for the requests served from the paged store.
    pub fn is_facility(&self) -> bool {
        !(self.is_alpha_path() || self.is_path_skyline())
    }

    pub fn is_alpha_path(&self) -> bool {
        matches!(self, Req::AlphaPath { .. })
    }

    pub fn is_path_skyline(&self) -> bool {
        matches!(self, Req::PathSkyline { .. })
    }

    /// Feeds the request into an input digest.
    pub fn digest(&self, h: &mut crate::stats::Fnv) {
        let weights = |h: &mut crate::stats::Fnv, w: &[f64]| w.iter().for_each(|&x| h.f64(x));
        match self {
            Req::Skyline { node, cea } => {
                h.bytes(b"S");
                h.u64(u64::from(*node) << 1 | u64::from(*cea));
            }
            Req::TopK {
                node,
                weights: w,
                k,
                cea,
            } => {
                h.bytes(b"K");
                h.u64(u64::from(*node) << 1 | u64::from(*cea));
                h.u64(*k as u64);
                weights(h, w);
            }
            Req::TopKIncremental {
                node,
                weights: w,
                take,
                cea,
            } => {
                h.bytes(b"I");
                h.u64(u64::from(*node) << 1 | u64::from(*cea));
                h.u64(*take as u64);
                weights(h, w);
            }
            Req::PathSkyline { source, target } => {
                h.bytes(b"P");
                h.u64(u64::from(*source) << 32 | u64::from(*target));
            }
            Req::AlphaPath {
                source,
                target,
                weights: w,
            } => {
                h.bytes(b"A");
                h.u64(u64::from(*source) << 32 | u64::from(*target));
                weights(h, w);
            }
        }
    }
}

/// Buffer-pool sizing of a stack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Buffer {
    /// A fraction of the data pages (per shard on a partitioned store).
    Fraction(f64),
    /// Every page fits and is read once during set-up: zero physical reads
    /// while serving.
    Hot,
}

/// Path-query side of a stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSpec {
    /// Prep-table cache capacity (tables).
    pub cache_capacity: usize,
    /// Build a route index and attach it to the path context.
    pub route_index: bool,
}

/// What set-up has to build before the first request can be served.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StackSpec {
    /// The store always lives in real files under `benchmark/out/`, one per
    /// region, so physical reads are syscalls. (The path workloads never
    /// read theirs; they keep it on a file all the same, because building
    /// an in-memory disk page-faults its way through fresh memory and read
    /// 0.5 ms in one process and 0.75 ms in the next.)
    pub buffer: Buffer,
    /// 1 = one monolithic store; more = a region-partitioned store, one
    /// disk per region, served with region-affine scheduling.
    pub regions: usize,
    /// Closed-loop clients: a worker claims its next request only when its
    /// previous one completes. Every workload runs one: on the reference
    /// box a second busy vCPU slows both by anything between 1.02× and
    /// 1.65×, changing by the minute, so a two-worker workload read 2 %
    /// run-to-run spread in one hour and 30 % in the next. Two-worker
    /// behaviour is reported per layer instead (`engine.scaling`).
    pub workers: usize,
    pub paths: Option<PathSpec>,
}

impl StackSpec {
    /// True when path requests must be answered by the route index.
    pub fn serves_from_index(&self) -> bool {
        self.paths.is_some_and(|p| p.route_index)
    }
}

/// Name and one-line rationale of a workload (mirrored in BENCHMARK.json).
pub struct Def {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Def; 6] = [
    Def {
        name: "facility_cold",
        why: "skyline/top-k mix on a FileDisk store with the paper's 1% buffer: the disk and the storage miss path do most of the work",
    },
    Def {
        name: "facility_hot",
        why: "same graph and requests fully buffered and pre-warmed: zero physical reads, so expansion, core and the storage hit path dominate",
    },
    Def {
        name: "alpha_serve",
        why: "alpha-path requests to 256 Zipf targets through a 64-table prep cache: p50 is warm A*, p99 and most wall are backward prep scans",
    },
    Def {
        name: "path_explore",
        why: "path-skyline requests whose targets all fit the prep cache: label creation and dominance checks do the work, prep almost none",
    },
    Def {
        name: "index_serve",
        why: "alpha-path and path-skyline requests to fresh targets served by the route index: set-up is the index build, queries are short",
    },
    Def {
        name: "mixed_partitioned",
        why: "facility and alpha-path requests interleaved on a 4-region FileDisk store, region-affine scheduling: every layer in one request stream",
    },
];

/// Sizes of the six workloads. `full` is what BENCHMARK.json measures;
/// `quick` only proves the harness still runs (`--quick`, the unit test).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Divider of the paper's default workload for the facility graph `F`.
    pub facility_scale: usize,
    pub facility_requests: usize,
    pub alpha_nodes: usize,
    pub alpha_requests: usize,
    pub alpha_targets: usize,
    pub alpha_cache: usize,
    pub explore_nodes: usize,
    pub explore_requests: usize,
    pub explore_targets: usize,
    pub index_nodes: usize,
    pub index_requests: usize,
    pub mixed_facility_requests: usize,
    pub mixed_alpha_per_facility: usize,
    pub mixed_targets: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            facility_scale: 20,
            facility_requests: 2048,
            alpha_nodes: 5000,
            alpha_requests: 2048,
            alpha_targets: 256,
            alpha_cache: 64,
            explore_nodes: 144,
            explore_requests: 8192,
            explore_targets: 96,
            index_nodes: 250,
            index_requests: 4096,
            mixed_facility_requests: 384,
            mixed_alpha_per_facility: 3,
            mixed_targets: 256,
        }
    }

    pub fn quick() -> Self {
        Self {
            facility_scale: 400,
            facility_requests: 48,
            alpha_nodes: 400,
            alpha_requests: 96,
            alpha_targets: 32,
            alpha_cache: 8,
            explore_nodes: 80,
            explore_requests: 64,
            explore_targets: 8,
            index_nodes: 80,
            index_requests: 96,
            mixed_facility_requests: 24,
            mixed_alpha_per_facility: 3,
            mixed_targets: 16,
        }
    }
}

/// `k` of the top-k requests and `take` of the incremental ones.
const TOP_K: usize = 4;
/// Users whose preference vectors the alpha-path requests draw from.
const USERS: usize = 256;

/// The generated inputs of one workload run.
pub struct Inputs {
    pub network: Network,
    pub requests: Vec<Req>,
    pub stack: StackSpec,
    /// Seconds spent generating (reported as `gen.workload_s`, not set-up).
    pub gen_s: f64,
}

impl Inputs {
    /// FNV-1a over graph shape, cost bits and the request list.
    pub fn digest(&self) -> u64 {
        let mut h = crate::stats::Fnv::default();
        self.network.digest(&mut h);
        h.u64(self.requests.len() as u64);
        self.requests.iter().for_each(|r| r.digest(&mut h));
        h.finish()
    }
}

/// `count` points of the unit cube `[0, 1)^d`, evenly spread: the Kronecker
/// sequence `frac(offset + i·α)` with the generalised golden-ratio vector
/// `α` (Roberts' R_d sequence), shifted by a random offset per dimension (a
/// Cranley–Patterson rotation, which keeps the sampling unbiased). Every
/// prefix of the sequence is evenly spread too.
fn rqmc_sequence(count: usize, d: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
    // φ_d, the positive root of x^(d+1) = x + 1, by fixed-point iteration.
    let mut phi = 2.0f64;
    for _ in 0..64 {
        phi = (1.0 + phi).powf(1.0 / (d as f64 + 1.0));
    }
    let alphas: Vec<f64> = (1..=d).map(|j| phi.powi(-(j as i32))).collect();
    let offsets: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
    (1..=count)
        .map(|i| {
            alphas
                .iter()
                .zip(&offsets)
                .map(|(a, o)| (o + i as f64 * a).fract())
                .collect()
        })
        .collect()
}

/// [`rqmc_sequence`] in random order, so that time order carries no pattern.
fn rqmc_points(count: usize, d: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
    let mut points = rqmc_sequence(count, d, rng);
    for i in (1..points.len()).rev() {
        points.swap(i, rng.gen_range(0..=i));
    }
    points
}

/// The entry of `items` a unit-interval coordinate falls on. With `items` a
/// network's [`Network::spatial_order`], evenly spread coordinates give
/// nodes evenly spread over the map.
fn pick<T: Copy>(u: f64, items: &[T]) -> T {
    items[((u * items.len() as f64) as usize).min(items.len() - 1)]
}

/// The store-served mix: skyline / top-k / incremental top-k round-robin,
/// CEA/LSA alternating, seeded weights, locations evenly spread over the
/// map (`order` is the network's spatial order).
fn facility_requests(count: usize, order: &[u32], d: usize, rng: &mut ChaCha8Rng) -> Vec<Req> {
    rqmc_points(count, 1, rng)
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let node = pick(point[0], order);
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
            let cea = i % 2 == 0;
            match i % 3 {
                0 => Req::Skyline { node, cea },
                1 => Req::TopK {
                    node,
                    weights,
                    k: TOP_K,
                    cea,
                },
                _ => Req::TopKIncremental {
                    node,
                    weights,
                    take: TOP_K,
                    cea,
                },
            }
        })
        .collect()
}

/// The `count` destinations path requests go to. Which places are popular
/// is a property of the network, not of the traffic sample, so the pool is
/// part of the fixture: it does not depend on `--seed`. (With a Zipf law one
/// target draws a sixth of all requests; whether it sits in the middle or
/// in a corner moves the median latency by a third.) Every prefix of the
/// pool is evenly spread over the map.
fn target_pool(count: usize, order: &[u32]) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(NETWORK_SEED ^ 0x7A46_E751);
    rqmc_sequence(count, 1, &mut rng)
        .iter()
        .map(|p| pick(p[0], order))
        .collect()
}

/// The service's registered users (one preference vector each): like the
/// destinations, a fixture. Which user sends which request is traffic.
fn user_pool(d: usize) -> Vec<Vec<f64>> {
    adapter::preference_pool(USERS, d, NETWORK_SEED)
}

/// Alpha-path requests: evenly spread sources, targets Zipf(1.0) over a
/// pool of `targets` nodes, preferences from the user pool.
fn alpha_requests(
    count: usize,
    order: &[u32],
    d: usize,
    targets: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<Req> {
    let pool = target_pool(targets, order);
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=pool.len())
        .map(|rank| {
            acc += 1.0 / rank as f64;
            acc
        })
        .collect();
    cdf.iter_mut().for_each(|c| *c /= acc);
    let users = user_pool(d);
    rqmc_points(count, 3, rng)
        .iter()
        .map(|p| {
            let rank = cdf.partition_point(|&c| c < p[1]).min(pool.len() - 1);
            Req::AlphaPath {
                source: pick(p[0], order),
                target: pool[rank],
                weights: users[(p[2] * users.len() as f64) as usize % users.len()].clone(),
            }
        })
        .collect()
}

/// Generates the inputs of workload `name` for `seed`.
///
/// # Panics
/// Panics on an unknown workload name (the CLI validates it first).
pub fn generate(name: &str, seed: u64, sizes: &Sizes) -> Inputs {
    let started = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBE7C_4A11);
    let file_store = |buffer, regions, paths| StackSpec {
        buffer,
        regions,
        workers: 1,
        paths,
    };
    let path_only = |cache_capacity, route_index| StackSpec {
        buffer: Buffer::Fraction(0.01),
        regions: 1,
        workers: 1,
        paths: Some(PathSpec {
            cache_capacity,
            route_index,
        }),
    };
    let (network, requests, stack) = match name {
        "facility_cold" | "facility_hot" => {
            let network = adapter::facility_network(sizes.facility_scale, NETWORK_SEED);
            let requests = facility_requests(
                sizes.facility_requests,
                &network.spatial_order(),
                network.cost_types(),
                &mut rng,
            );
            let buffer = if name == "facility_hot" {
                Buffer::Hot
            } else {
                Buffer::Fraction(0.01)
            };
            (network, requests, file_store(buffer, 1, None))
        }
        "alpha_serve" => {
            let network = adapter::path_network(sizes.alpha_nodes, 3, NETWORK_SEED);
            let requests = alpha_requests(
                sizes.alpha_requests,
                &network.spatial_order(),
                3,
                sizes.alpha_targets,
                &mut rng,
            );
            (network, requests, path_only(sizes.alpha_cache, false))
        }
        "path_explore" => {
            let network = adapter::path_network(sizes.explore_nodes, 3, NETWORK_SEED);
            let order = network.spatial_order();
            let targets = target_pool(sizes.explore_targets, &order);
            let requests = rqmc_points(sizes.explore_requests, 2, &mut rng)
                .iter()
                .map(|p| Req::PathSkyline {
                    source: pick(p[0], &order),
                    target: pick(p[1], &targets),
                })
                .collect();
            // Twice the target count: every lookup hits after warm-up.
            (
                network,
                requests,
                path_only(2 * sizes.explore_targets, false),
            )
        }
        "index_serve" => {
            let network = adapter::path_network(sizes.index_nodes, 2, NETWORK_SEED);
            let order = network.spatial_order();
            let users = user_pool(2);
            // Three alpha-path requests per path-skyline request: with an
            // even split the median latency falls in the gap between the two
            // kinds' latency modes and flips between them from seed to seed.
            let requests = rqmc_points(sizes.index_requests, 3, &mut rng)
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let (source, target) = (pick(p[0], &order), pick(p[1], &order));
                    if i % 4 == 3 {
                        Req::PathSkyline { source, target }
                    } else {
                        Req::AlphaPath {
                            source,
                            target,
                            weights: users[(p[2] * users.len() as f64) as usize % users.len()]
                                .clone(),
                        }
                    }
                })
                .collect();
            (network, requests, path_only(64, true))
        }
        "mixed_partitioned" => {
            let network = adapter::facility_network(sizes.facility_scale, NETWORK_SEED);
            let order = network.spatial_order();
            let d = network.cost_types();
            let per = sizes.mixed_alpha_per_facility;
            let facility = facility_requests(sizes.mixed_facility_requests, &order, d, &mut rng);
            let mut alpha = alpha_requests(
                sizes.mixed_facility_requests * per,
                &order,
                d,
                sizes.mixed_targets,
                &mut rng,
            )
            .into_iter();
            let mut requests = Vec::with_capacity(facility.len() * (per + 1));
            for req in facility {
                requests.push(req);
                requests.extend(alpha.by_ref().take(per));
            }
            let paths = Some(PathSpec {
                cache_capacity: sizes.alpha_cache,
                route_index: false,
            });
            (
                network,
                requests,
                file_store(Buffer::Fraction(0.2), 4, paths),
            )
        }
        other => panic!("unknown workload {other:?}"),
    };
    Inputs {
        network,
        requests,
        stack,
        gen_s: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let sizes = Sizes::quick();
        for def in &WORKLOADS {
            let a = generate(def.name, 7, &sizes);
            let b = generate(def.name, 7, &sizes);
            let c = generate(def.name, 8, &sizes);
            assert_eq!(a.requests, b.requests, "{}", def.name);
            assert_eq!(a.digest(), b.digest(), "{}", def.name);
            assert_ne!(a.digest(), c.digest(), "{}", def.name);
            assert!(!a.requests.is_empty());
        }
    }

    #[test]
    fn the_hot_and_cold_pair_share_graph_and_requests() {
        let sizes = Sizes::quick();
        let cold = generate("facility_cold", 3, &sizes);
        let hot = generate("facility_hot", 3, &sizes);
        assert_eq!(cold.digest(), hot.digest());
        assert_eq!(cold.stack.buffer, Buffer::Fraction(0.01));
        assert_eq!(hot.stack.buffer, Buffer::Hot);
    }

    #[test]
    fn mixed_interleaves_facility_and_alpha_requests() {
        let sizes = Sizes::quick();
        let mixed = generate("mixed_partitioned", 3, &sizes);
        let facility = mixed.requests.iter().filter(|r| r.is_facility()).count();
        assert_eq!(facility, sizes.mixed_facility_requests);
        assert_eq!(
            mixed.requests.len(),
            facility * (sizes.mixed_alpha_per_facility + 1)
        );
        assert!(mixed.requests[0].is_facility() && !mixed.requests[1].is_facility());
    }
}
