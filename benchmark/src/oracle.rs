//! The correctness gate: answers re-derived independently of the code path
//! that served them, and the pinned digests of the default seed.
//!
//! Facility answers are checked against cost vectors from plain in-memory
//! Dijkstra runs plus the brute-force skyline / top-k below; alpha-path
//! answers against plain Dijkstra; path skylines against the un-prepped
//! label-correcting search. Nothing here touches the store, LSA/CEA, the
//! prep cache or the route index.

use crate::adapter::{self, Network, Output, Plain};
use crate::workloads::Req;

/// Requests re-derived per run (evenly spaced over the request list).
pub const SAMPLES: usize = 32;

/// Relative tolerance of a top-k score: the engine and the oracle may sum
/// `Σ wᵢ·cᵢ` in different orders. Cost vectors themselves must match bit
/// for bit — both sides add the same edge costs along the same path.
const SCORE_TOLERANCE: f64 = 1e-9;

fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// Facilities no other facility dominates, as sorted `(id, costs)`.
fn brute_force_skyline(costs: &[Vec<f64>]) -> Vec<(u32, Vec<f64>)> {
    let reachable = |c: &[f64]| c.iter().all(|x| x.is_finite());
    costs
        .iter()
        .enumerate()
        .filter(|(_, c)| reachable(c) && !costs.iter().any(|o| dominates(o, c)))
        .map(|(id, c)| (id as u32, c.clone()))
        .collect()
}

/// The `k` facilities of smallest weighted sum, ascending (ties by id).
fn brute_force_topk(costs: &[Vec<f64>], weights: &[f64], k: usize) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f64)> = costs
        .iter()
        .enumerate()
        .map(|(id, c)| (id as u32, c.iter().zip(weights).map(|(c, w)| c * w).sum()))
        .filter(|(_, s): &(u32, f64)| s.is_finite())
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

fn check_topk(
    served: &[(u32, f64, Vec<f64>)],
    costs: &[Vec<f64>],
    weights: &[f64],
    k: usize,
) -> Result<(), String> {
    let expected = brute_force_topk(costs, weights, k);
    if served.len() != expected.len() {
        return Err(format!("top-k size {} != {}", served.len(), expected.len()));
    }
    for ((id, score, vector), (want_id, want_score)) in served.iter().zip(&expected) {
        if id != want_id {
            return Err(format!("top-k member {id} != {want_id}"));
        }
        if (score - want_score).abs() > SCORE_TOLERANCE * want_score.abs() {
            return Err(format!("top-k score {score} != {want_score}"));
        }
        if vector != &costs[*id as usize] {
            return Err(format!("top-k cost vector of facility {id} differs"));
        }
    }
    Ok(())
}

/// Re-derives the answer to `req` and compares it with `output`.
pub fn check(network: &Network, req: &Req, output: &Output) -> Result<(), String> {
    let served = adapter::plain(output);
    match (req, served) {
        (Req::Skyline { node, .. }, Plain::Skyline(mut members)) => {
            let costs = adapter::oracle_facility_costs(network, *node);
            members.sort_by_key(|(id, _)| *id);
            if members == brute_force_skyline(&costs) {
                Ok(())
            } else {
                Err("skyline differs from the brute-force skyline".to_string())
            }
        }
        (
            Req::TopK {
                node, weights, k, ..
            },
            Plain::TopK(entries),
        ) => check_topk(
            &entries,
            &adapter::oracle_facility_costs(network, *node),
            weights,
            *k,
        ),
        (
            Req::TopKIncremental {
                node,
                weights,
                take,
                ..
            },
            Plain::TopK(entries),
        ) => check_topk(
            &entries,
            &adapter::oracle_facility_costs(network, *node),
            weights,
            *take,
        ),
        (Req::PathSkyline { source, target }, served @ Plain::Paths(_)) => {
            if served == adapter::oracle_paths(network, *source, *target) {
                Ok(())
            } else {
                Err("path skyline differs from the un-prepped search".to_string())
            }
        }
        (
            Req::AlphaPath {
                source,
                target,
                weights,
            },
            served @ Plain::AlphaPath(_),
        ) => {
            if served == adapter::oracle_alpha(network, *source, *target, weights) {
                Ok(())
            } else {
                Err("alpha path differs from plain Dijkstra".to_string())
            }
        }
        (req, served) => Err(format!("answer kind mismatch: {req:?} got {served:?}")),
    }
}

/// Indices of the sampled requests: evenly spaced, first request included.
pub fn sample_indices(requests: usize) -> Vec<usize> {
    let samples = SAMPLES.min(requests);
    (0..samples).map(|i| i * requests / samples).collect()
}

/// Digests pinned for the default seed at full size, one line per workload:
/// `<workload> <input digest> <output digest>` (hex).
const PINNED: &str = include_str!("../expected/digests.txt");

/// The pinned `(input, output)` digests of `workload`, if any.
pub fn pinned(workload: &str) -> Option<(u64, u64)> {
    PINNED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()? != workload {
            return None;
        }
        let hex = |f: &str| u64::from_str_radix(f.trim_start_matches("0x"), 16).ok();
        Some((hex(fields.next()?)?, hex(fields.next()?)?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_skyline_keeps_only_undominated_points() {
        let costs = vec![
            vec![1.0, 5.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0], // dominated by (2, 2)
            vec![5.0, 1.0],
            vec![f64::INFINITY, 0.0], // unreachable
        ];
        let ids: Vec<u32> = brute_force_skyline(&costs).iter().map(|m| m.0).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn brute_force_topk_orders_by_weighted_sum() {
        let costs = vec![vec![4.0, 4.0], vec![1.0, 9.0], vec![3.0, 1.0]];
        let top = brute_force_topk(&costs, &[1.0, 0.5], 2);
        assert_eq!(top, vec![(2, 3.5), (1, 5.5)]);
        assert!(check_topk(
            &[(2, 3.5, vec![3.0, 1.0]), (1, 5.5, vec![1.0, 9.0])],
            &costs,
            &[1.0, 0.5],
            2
        )
        .is_ok());
        assert!(check_topk(&[(1, 5.5, vec![1.0, 9.0])], &costs, &[1.0, 0.5], 1).is_err());
    }

    #[test]
    fn samples_are_spread_over_the_list() {
        assert_eq!(sample_indices(4), vec![0, 1, 2, 3]);
        let s = sample_indices(1024);
        assert_eq!(s.len(), SAMPLES);
        assert_eq!((s[0], s[1], s[31]), (0, 32, 992));
    }

    #[test]
    fn every_workload_has_pinned_digests() {
        for def in &crate::workloads::WORKLOADS {
            assert!(pinned(def.name).is_some(), "{} is not pinned", def.name);
        }
        assert!(pinned("no_such_workload").is_none());
    }
}
