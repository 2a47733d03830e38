//! Host-side references the simulated outputs are checked against.
//! Written here, independently of the algorithms' own reference
//! implementations, so a bug shared by the device kernels and the
//! library's oracle still shows.

use sparseweaver::graph::{Csr, Direction};

/// Relative tolerance for PageRank ranks: device and host sum the same
/// terms in different orders, which moves the last few bits only.
pub const RANK_REL_TOL: f64 = 1e-9;

/// Levels of a BFS from `source` following `graph`'s edges; unreached
/// vertices get `u64::MAX`.
pub fn bfs_levels(graph: &Csr, source: u32) -> Vec<u64> {
    let mut level = vec![u64::MAX; graph.num_vertices()];
    level[source as usize] = 0;
    let mut frontier = vec![source];
    let mut depth = 0;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in graph.neighbors(u) {
                if level[v as usize] == u64::MAX {
                    level[v as usize] = depth;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    level
}

/// `iterations` power iterations of PageRank with damping `damping` on
/// `graph`, computed over `view` = `graph.view(direction)`: pull gathers
/// each vertex's in-edges from the reversed view, push scatters each
/// vertex's out-edges. Dangling vertices leak their mass, as on the
/// device.
pub fn pagerank(
    graph: &Csr,
    view: &Csr,
    direction: Direction,
    iterations: u32,
    damping: f64,
) -> Vec<f64> {
    let n = graph.num_vertices();
    let base = (1.0 - damping) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let contrib: Vec<f64> = (0..n)
            .map(|u| match graph.degree(u as u32) {
                0 => 0.0,
                d => rank[u] / d as f64,
            })
            .collect();
        let mut accum = vec![0.0; n];
        for v in 0..n as u32 {
            match direction {
                Direction::Pull => {
                    accum[v as usize] = view.neighbors(v).iter().map(|&u| contrib[u as usize]).sum()
                }
                Direction::Push => {
                    for &w in view.neighbors(v) {
                        accum[w as usize] += contrib[v as usize];
                    }
                }
            }
        }
        for (r, a) in rank.iter_mut().zip(&accum) {
            *r = base + damping * a;
        }
    }
    rank
}

/// `None` when `got` equals `want` exactly, else what differs.
pub fn levels_match(got: &[u64], want: &[u64]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} levels, host BFS has {}", got.len(), want.len()));
    }
    let i = got.iter().zip(want).position(|(g, w)| g != w)?;
    Some(format!(
        "vertex {i}: level {} , host BFS {}",
        got[i], want[i]
    ))
}

/// `None` when every rank is within [`RANK_REL_TOL`] (relative) of the
/// host's, else the first vertex that is not.
pub fn ranks_match(got: &[f64], want: &[f64]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} ranks, host has {}", got.len(), want.len()));
    }
    let i = got.iter().zip(want).position(|(g, w)| {
        let diff = (g - w).abs();
        diff.is_nan() || diff > RANK_REL_TOL * w.abs().max(g.abs())
    })?;
    Some(format!("vertex {i}: rank {} , host {}", got[i], want[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_levels_on_a_path_with_an_island() {
        // 0 -> 1 -> 2, 3 unreachable.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2)]);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, u64::MAX]);
    }

    #[test]
    fn pagerank_push_and_pull_agree_and_keep_cycle_uniform() {
        let edges: Vec<(u32, u32)> = (0..6u32).map(|v| (v, (v + 1) % 6)).collect();
        let g = Csr::from_edges(6, &edges);
        let pull = pagerank(&g, &g.view(Direction::Pull), Direction::Pull, 5, 0.85);
        let push = pagerank(&g, &g.view(Direction::Push), Direction::Push, 5, 0.85);
        assert!(ranks_match(&pull, &push).is_none());
        assert!(pull.iter().all(|r| (r - 1.0 / 6.0).abs() < 1e-12));
    }

    #[test]
    fn mismatches_are_reported() {
        assert!(levels_match(&[0, 1], &[0, 2]).is_some());
        assert!(levels_match(&[0, 1], &[0, 1]).is_none());
        assert!(ranks_match(&[1.0], &[1.0 + 1e-6]).is_some());
        assert!(ranks_match(&[1.0], &[1.0 + 1e-12]).is_none());
        assert!(ranks_match(&[f64::NAN], &[1.0]).is_some());
    }
}
