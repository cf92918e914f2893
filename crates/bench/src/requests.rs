//! Shared scaffolding for building deterministic mixed query batches.
//!
//! The `partition` experiment and the engine's concurrency and
//! observability tests drive the engine with the same shape of batch: the
//! workload's query locations cycled up to the batch size, seeded random
//! weighted-sum coefficients, and LSA/CEA alternation — only the
//! request-kind mix differs. This helper owns the scaffolding so the
//! batches cannot drift apart.

use mcn_core::Algorithm;
use mcn_engine::QueryRequest;
use mcn_graph::NetworkLocation;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds a deterministic mixed batch: `queries` cycled `batch` times, one
/// fresh weight vector of arity `d` per request, CEA/LSA alternating by
/// index, and the request kind chosen by `kind(index, location, weights,
/// algorithm)`. Deterministic in `seed`.
pub fn mixed_request_batch(
    queries: &[NetworkLocation],
    d: usize,
    batch: usize,
    seed: u64,
    kind: impl Fn(usize, NetworkLocation, Vec<f64>, Algorithm) -> QueryRequest,
) -> Vec<QueryRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    queries
        .iter()
        .cycle()
        .take(batch)
        .enumerate()
        .map(|(i, &location)| {
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
            let algorithm = if i % 2 == 0 {
                Algorithm::Cea
            } else {
                Algorithm::Lsa
            };
            kind(i, location, weights, algorithm)
        })
        .collect()
}

/// The facility mix: skyline / batch top-4 / incremental top-4 round-robin
/// over [`mixed_request_batch`], `d` cost types. Deterministic in `seed`.
pub fn build_request_batch(
    queries: &[NetworkLocation],
    d: usize,
    batch: usize,
    seed: u64,
) -> Vec<QueryRequest> {
    const K: usize = 4;
    mixed_request_batch(
        queries,
        d,
        batch,
        seed ^ 0x0051_C0DE,
        |i, location, weights, algorithm| match i % 3 {
            0 => QueryRequest::Skyline {
                location,
                algorithm,
            },
            1 => QueryRequest::TopK {
                location,
                weights,
                k: K,
                algorithm,
            },
            _ => QueryRequest::TopKIncremental {
                location,
                weights,
                take: K,
                algorithm,
            },
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_gen::{generate_workload, WorkloadSpec};

    #[test]
    fn request_batch_is_deterministic_and_mixed() {
        let spec = WorkloadSpec::tiny(2010);
        let workload = generate_workload(&spec);
        let a = build_request_batch(&workload.queries, spec.cost_types, 9, 2010);
        let b = build_request_batch(&workload.queries, spec.cost_types, 9, 2010);
        assert_eq!(a, b);
        assert!(a.iter().any(|r| r.kind() == "skyline"));
        assert!(a.iter().any(|r| r.kind() == "topk"));
        assert!(a.iter().any(|r| r.kind() == "topk-inc"));
    }
}
