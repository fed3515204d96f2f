//! The `sssp` workload: `parallel_sssp` over a seeded Barabási–Albert
//! graph, checked against sequential Dijkstra.

use std::time::Instant;

use zmsq::Zmsq;
use zmsq_graph::{gen, parallel_sssp, CsrGraph, SsspResult};

/// Edge weights are drawn from `1..=MAX_WEIGHT` (as in `fig7_sssp`).
pub const MAX_WEIGHT: u32 = 100;

/// Build the graph; the source is its highest-degree node.
pub fn graph(seed: u64, nodes: usize, attach: usize) -> (CsrGraph, u32) {
    let g = gen::barabasi_albert(nodes, attach, MAX_WEIGHT, seed);
    let src = g.max_degree_node();
    (g, src)
}

/// One solve on `q`, with its wall time in seconds.
pub fn solve<Q>(g: &CsrGraph, src: u32, q: &Q, threads: usize) -> (SsspResult, f64)
where
    Q: pq_traits::ConcurrentPriorityQueue<u32> + Sync,
{
    let t0 = Instant::now();
    let r = parallel_sssp(g, src, q, threads);
    (r, t0.elapsed().as_secs_f64())
}

/// The queue a user builds for SSSP: the default configuration.
pub fn queue() -> Zmsq<u32> {
    Zmsq::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmsq_graph::sequential_sssp;

    #[test]
    fn small_solve_matches_dijkstra() {
        let (g, src) = graph(1, 2_000, 4);
        let q = queue();
        let (r, secs) = solve(&g, src, &q, 2);
        assert!(secs > 0.0);
        assert_eq!(r.dist, sequential_sssp(&g, src));
        assert!(r.processed >= g.num_nodes() as u64);
    }
}
