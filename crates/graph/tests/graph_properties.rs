//! Property tests for the graph substrate.

use proptest::prelude::*;
use sparseweaver_graph::{generators, io, Csr, EdgeId, GraphBuilder, VertexId};

/// The CSR arrays `(offsets, targets, weights, sources)`.
type Arrays = (Vec<EdgeId>, Vec<VertexId>, Vec<u32>, Vec<VertexId>);

fn arrays(g: &Csr) -> Arrays {
    (
        g.offsets().to_vec(),
        g.targets().to_vec(),
        g.weights().to_vec(),
        g.sources().to_vec(),
    )
}

/// Reference implementations: the straightforward sort-based CSR build,
/// reverse and builder the linear-time library code must reproduce
/// exactly. The sort is stable, so repeated pairs keep input order.
mod oracle {
    use super::*;
    use std::collections::HashSet;

    pub fn from_weighted_edges(n: usize, edges: &[(VertexId, VertexId, u32)]) -> Arrays {
        let mut sorted = edges.to_vec();
        sorted.sort_by_key(|&(s, d, _)| (s, d));
        let mut offsets = vec![0 as EdgeId; n + 1];
        for &(s, _, _) in &sorted {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let sources = sorted.iter().map(|e| e.0).collect();
        let targets = sorted.iter().map(|e| e.1).collect();
        let weights = sorted.iter().map(|e| e.2).collect();
        (offsets, targets, weights, sources)
    }

    pub fn reverse(g: &Csr) -> Arrays {
        let rev: Vec<_> = g.iter_edges().map(|(s, d, w)| (d, s, w)).collect();
        from_weighted_edges(g.num_vertices(), &rev)
    }

    pub fn build(
        n: usize,
        edges: &[(VertexId, VertexId, u32)],
        symmetric: bool,
        keep_self_loops: bool,
    ) -> Arrays {
        let mut seen = HashSet::new();
        let mut kept = Vec::new();
        for &(s, d, w) in edges {
            if (s != d || keep_self_loops) && seen.insert((s, d)) {
                kept.push((s, d, w));
            }
        }
        let mut all = kept.clone();
        if symmetric {
            for &(s, d, w) in &kept {
                if s != d && !seen.contains(&(d, s)) {
                    all.push((d, s, w));
                }
            }
        }
        from_weighted_edges(n, &all)
    }
}

/// Weighted edge lists over few vertices and weights, so repeated pairs
/// (with equal and with different weights), self-loops and edges whose
/// mirror was added with another weight are all common.
fn weighted_edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (1usize..24).prop_flat_map(|n| {
        let edges = prop::collection::vec((0u32..n as u32, 0u32..n as u32, 0u32..6), 0..160);
        (Just(n), edges)
    })
}

fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..60).prop_flat_map(|n| {
        let edges = prop::collection::vec((0u32..n as u32, 0u32..n as u32), 0..200);
        (Just(n), edges)
    })
}

#[test]
fn builder_keeps_the_weight_an_edge_was_added_with() {
    for symmetric in [false, true] {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 42);
        b.add_weighted_edge(1, 0, 7);
        b.add_weighted_edge(1, 2, 5);
        b.symmetric(symmetric);
        let g = b.build();
        let edges = [(0, 1, 42), (1, 0, 7), (1, 2, 5)];
        assert_eq!(arrays(&g), oracle::build(3, &edges, symmetric, false));
        assert_eq!(g.neighbor_weights(0), &[42]);
        assert_eq!(g.neighbor_weights(1), &[7, 5]);
        assert_eq!(
            g.neighbor_weights(2),
            if symmetric { &[5][..] } else { &[] }
        );
    }
}

proptest! {
    /// The counting-sort CSR build equals a stable comparison sort, repeated
    /// pairs and self-loops included.
    #[test]
    fn from_weighted_edges_matches_stable_sort((n, edges) in weighted_edge_list()) {
        let g = Csr::from_weighted_edges(n, &edges);
        prop_assert_eq!(arrays(&g), oracle::from_weighted_edges(n, &edges));
    }

    /// The one-pass reverse equals re-sorting the flipped edges.
    #[test]
    fn reverse_matches_stable_sort((n, edges) in weighted_edge_list()) {
        let g = Csr::from_weighted_edges(n, &edges);
        prop_assert_eq!(arrays(&g.reverse()), oracle::reverse(&g));
    }

    /// The builder's dedup, self-loop and mirror handling equals the
    /// set-based reference under every option.
    #[test]
    fn builder_matches_reference(
        (n, edges) in weighted_edge_list(),
        symmetric in any::<bool>(),
        keep_self_loops in any::<bool>(),
    ) {
        let mut b = GraphBuilder::new(n);
        b.symmetric(symmetric).keep_self_loops(keep_self_loops);
        for &(s, d, w) in &edges {
            b.add_weighted_edge(s, d, w);
        }
        prop_assert_eq!(
            arrays(&b.build()),
            oracle::build(n, &edges, symmetric, keep_self_loops)
        );
    }

    /// Degree sums equal the edge count, always.
    #[test]
    fn degree_sum_is_edge_count((n, edges) in edge_list()) {
        let g = Csr::from_edges(n, &edges);
        let sum: usize = (0..n as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, g.num_edges());
    }

    /// Reversing twice is the identity on the edge multiset.
    #[test]
    fn double_reverse_is_identity((n, edges) in edge_list()) {
        let g = Csr::from_edges(n, &edges);
        prop_assert_eq!(g.reverse().reverse(), g);
    }

    /// The reverse graph preserves the edge count and flips every edge.
    #[test]
    fn reverse_flips_edges((n, edges) in edge_list()) {
        let g = Csr::from_edges(n, &edges);
        let r = g.reverse();
        prop_assert_eq!(r.num_edges(), g.num_edges());
        let mut fwd: Vec<_> = g.iter_edges().map(|(s, d, w)| (d, s, w)).collect();
        let mut bwd: Vec<_> = r.iter_edges().collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        prop_assert_eq!(fwd, bwd);
    }

    /// The per-edge source array is consistent with the offsets.
    #[test]
    fn sources_consistent_with_offsets((n, edges) in edge_list()) {
        let g = Csr::from_edges(n, &edges);
        for v in 0..n as u32 {
            let lo = g.offsets()[v as usize] as usize;
            let hi = g.offsets()[v as usize + 1] as usize;
            for e in lo..hi {
                prop_assert_eq!(g.sources()[e], v);
            }
        }
    }

    /// Builder symmetrization produces symmetric graphs with no
    /// self-loops and no duplicates.
    #[test]
    fn builder_symmetric_invariants((n, edges) in edge_list()) {
        let mut b = GraphBuilder::new(n);
        for (s, d) in edges {
            b.add_edge(s, d);
        }
        let g = b.symmetric(true).build();
        prop_assert!(g.is_symmetric());
        let mut seen = std::collections::HashSet::new();
        for (s, d, _) in g.iter_edges() {
            prop_assert_ne!(s, d, "self loop");
            prop_assert!(seen.insert((s, d)), "duplicate edge ({}, {})", s, d);
        }
    }

    /// Edge-list text I/O round-trips the edge multiset and weights.
    #[test]
    fn io_round_trips((n, edges) in edge_list(), wseed in 0u64..100) {
        let g0 = Csr::from_edges(n, &edges);
        let g = generators::with_random_weights(&g0, 16, wseed);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).expect("write");
        let back = io::read_edge_list(&buf[..]).expect("read");
        let a: Vec<_> = g.iter_edges().collect();
        let b: Vec<_> = back.iter_edges().collect();
        prop_assert_eq!(a, b);
    }

    /// Generators honor their vertex counts and symmetry for any seed.
    #[test]
    fn generators_basic_invariants(seed in 0u64..500) {
        let p = generators::powerlaw(64, 256, 1.8, seed);
        prop_assert_eq!(p.num_vertices(), 64);
        prop_assert!(p.is_symmetric());
        let r = generators::rmat(5, 100, 0.57, 0.19, 0.19, seed);
        prop_assert_eq!(r.num_vertices(), 32);
        prop_assert!(r.is_symmetric());
        let u = generators::uniform(40, 100, seed);
        prop_assert!(u.is_symmetric());
    }
}
