//! Canonical interconnect builders.
//!
//! These correspond to the simulated network architectures of §5.1 of the
//! paper:
//!
//! * [`ideal_switch`] — a single non-blocking switch with `d·B` per server
//!   (the "Ideal Switch" baseline); modelled as a star through a virtual hub
//!   node with effectively infinite hub capacity.
//! * [`fat_tree`] / [`oversubscribed_fat_tree`] — k-ary fat-trees; the
//!   evaluation's "Fat-tree" baseline uses a full-bisection tree whose link
//!   bandwidth is chosen so the total cost matches TopoOpt (§5.2).
//! * [`expander`] — a Jellyfish-style random regular graph baseline.
//! * [`ring_permutation`] — +p regular rings used for AllReduce
//!   permutations (Figure 7).
//! * [`from_permutations`] — assemble a direct-connect TopoOpt topology from
//!   a set of ring permutations.
//! * [`torus_2d`] — classic accelerator interconnect, used in ablations.

use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A fat-tree instance: the host-level graph plus bookkeeping about which
/// node indices are hosts vs. switches.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// The full graph: hosts `0..num_hosts`, then edge, aggregation, core
    /// switches.
    pub graph: Graph,
    /// Number of host (server) nodes.
    pub num_hosts: usize,
    /// Number of switch nodes (edge + aggregation + core).
    pub num_switches: usize,
    /// Fat-tree arity `k`.
    pub k: usize,
}

/// Star topology through a virtual hub: every server connects to node
/// `n` (the hub) with `per_server_bps` up and down. The hub is non-blocking
/// (its internal capacity never limits flows), which models the paper's Ideal
/// Switch.
pub fn ideal_switch(n: usize, per_server_bps: f64) -> Graph {
    let mut g = Graph::new(n + 1);
    let hub = n;
    for s in 0..n {
        g.add_edge(s, hub, per_server_bps);
        g.add_edge(hub, s, per_server_bps);
    }
    g
}

/// Build a k-ary fat-tree with `k^3 / 4` hosts and full bisection bandwidth.
/// Every link has `link_bps` capacity. If `hosts_needed` is smaller than the
/// tree's natural host count, surplus hosts are simply left unused by callers
/// (they still exist in the graph).
pub fn fat_tree(k: usize, link_bps: f64) -> FatTree {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even and >= 2");
    let num_pods = k;
    let hosts_per_edge = k / 2;
    let edge_per_pod = k / 2;
    let agg_per_pod = k / 2;
    let num_core = (k / 2) * (k / 2);
    let num_hosts = num_pods * edge_per_pod * hosts_per_edge;
    let num_edge = num_pods * edge_per_pod;
    let num_agg = num_pods * agg_per_pod;
    let total = num_hosts + num_edge + num_agg + num_core;
    let mut g = Graph::new(total);

    let edge_base = num_hosts;
    let agg_base = num_hosts + num_edge;
    let core_base = num_hosts + num_edge + num_agg;

    // Hosts <-> edge switches.
    for pod in 0..num_pods {
        for e in 0..edge_per_pod {
            let edge_sw = edge_base + pod * edge_per_pod + e;
            for h in 0..hosts_per_edge {
                let host = pod * edge_per_pod * hosts_per_edge + e * hosts_per_edge + h;
                g.add_bidi_edge(host, edge_sw, link_bps);
            }
        }
    }
    // Edge <-> aggregation within each pod (complete bipartite).
    for pod in 0..num_pods {
        for e in 0..edge_per_pod {
            let edge_sw = edge_base + pod * edge_per_pod + e;
            for a in 0..agg_per_pod {
                let agg_sw = agg_base + pod * agg_per_pod + a;
                g.add_bidi_edge(edge_sw, agg_sw, link_bps);
            }
        }
    }
    // Aggregation <-> core. Aggregation switch `a` in each pod connects to
    // core group `a` (each group has k/2 core switches).
    for pod in 0..num_pods {
        for a in 0..agg_per_pod {
            let agg_sw = agg_base + pod * agg_per_pod + a;
            for c in 0..(k / 2) {
                let core_sw = core_base + a * (k / 2) + c;
                g.add_bidi_edge(agg_sw, core_sw, link_bps);
            }
        }
    }

    FatTree { graph: g, num_hosts, num_switches: num_edge + num_agg + num_core, k }
}

/// Smallest even `k` such that a k-ary fat-tree has at least `hosts` hosts.
pub fn fat_tree_arity_for_hosts(hosts: usize) -> usize {
    let mut k = 2;
    while k * k * k / 4 < hosts {
        k += 2;
    }
    k
}

/// A 2:1 oversubscribed fat-tree: identical to [`fat_tree`] except the
/// uplink (edge→aggregation and aggregation→core) capacity is halved. The
/// paper omits half of the ToR uplinks; in a flow-level model halving the
/// uplink capacity produces the same 2:1 oversubscription while keeping the
/// routing structure intact.
pub fn oversubscribed_fat_tree(k: usize, link_bps: f64) -> FatTree {
    let mut ft = fat_tree(k, link_bps);
    let num_hosts = ft.num_hosts;
    let halved: Vec<_> = ft
        .graph
        .edges()
        .filter(|(_, e)| e.src >= num_hosts && e.dst >= num_hosts)
        .map(|(id, _)| id)
        .collect();
    for id in halved {
        ft.graph.edge_mut(id).capacity_bps *= 0.5;
    }
    ft
}

/// Jellyfish-style random regular graph: every server gets `d` bidirectional
/// links of `link_bps` to distinct random peers. Uses a stub-matching
/// construction with retry, seeded for reproducibility.
pub fn expander(n: usize, d: usize, link_bps: f64, seed: u64) -> Graph {
    assert!(d < n, "degree must be smaller than node count");
    let mut rng = StdRng::seed_from_u64(seed);
    for _attempt in 0..200 {
        if let Some(g) = try_random_regular(n, d, link_bps, &mut rng) {
            return g;
        }
    }
    // Fall back to a deterministic circulant graph, which is also a good
    // expander for small degree.
    circulant(n, d, link_bps)
}

fn try_random_regular(n: usize, d: usize, link_bps: f64, rng: &mut StdRng) -> Option<Graph> {
    // Stub matching: each node has d stubs; shuffle and pair them up.
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(rng);
    let mut adj = vec![vec![false; n]; n];
    let mut pairs = Vec::new();
    for chunk in stubs.chunks(2) {
        if chunk.len() < 2 {
            break;
        }
        let (a, b) = (chunk[0], chunk[1]);
        if a == b || adj[a][b] {
            return None; // self-loop or duplicate; retry
        }
        adj[a][b] = true;
        adj[b][a] = true;
        pairs.push((a, b));
    }
    let mut g = Graph::new(n);
    for (a, b) in pairs {
        g.add_bidi_edge(a, b, link_bps);
    }
    if g.is_strongly_connected() {
        Some(g)
    } else {
        None
    }
}

/// Deterministic circulant graph: node `i` connects to `i±1, i±2, …` until
/// degree `d` is used up. Always connected for `d >= 2`.
pub fn circulant(n: usize, d: usize, link_bps: f64) -> Graph {
    let mut g = Graph::new(n);
    let mut added = 0;
    let mut offset = 1;
    while added < d && offset <= n / 2 {
        let antipodal = offset * 2 == n;
        for i in 0..n {
            let j = (i + offset) % n;
            // Each undirected pair {i, i+offset} is generated once per i,
            // except at the antipodal offset where i and j generate the same
            // pair; add it only from the smaller endpoint then.
            if !antipodal || i < j {
                g.add_bidi_edge(i, j, link_bps);
            }
        }
        // Each offset consumes 2 degree per node (one to +offset, one to
        // -offset), except the antipodal offset which consumes 1.
        added += if antipodal { 1 } else { 2 };
        offset += 1;
    }
    g
}

/// The +p regular ring of Figure 7: a directed edge from `i` to
/// `(i + p) mod n` for every node. Only generates a single Hamiltonian ring
/// when `gcd(p, n) == 1`.
pub fn ring_permutation(n: usize, p: usize, link_bps: f64) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + p) % n, link_bps);
    }
    g
}

/// Assemble a direct-connect topology as the union of several +p ring
/// permutations (each adds out-degree 1 and in-degree 1 at every node).
pub fn from_permutations(n: usize, ps: &[usize], link_bps: f64) -> Graph {
    let mut g = Graph::new(n);
    for &p in ps {
        for i in 0..n {
            g.add_edge(i, (i + p) % n, link_bps);
        }
    }
    g
}

/// 2-D torus over a `rows x cols` grid with bidirectional links.
pub fn torus_2d(rows: usize, cols: usize, link_bps: f64) -> Graph {
    let n = rows * cols;
    let mut g = Graph::new(n);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            let right = id(r, (c + 1) % cols);
            let down = id((r + 1) % rows, c);
            if cols > 1 {
                g.add_bidi_edge(id(r, c), right, link_bps);
            }
            if rows > 1 {
                g.add_bidi_edge(id(r, c), down, link_bps);
            }
        }
    }
    g
}

/// A uniform-random d-regular-ish directed graph used for stress tests:
/// each node picks `d` random distinct out-neighbours.
pub fn random_out_regular(n: usize, d: usize, link_bps: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for i in 0..n {
        let mut targets: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        targets.shuffle(&mut rng);
        for &j in targets.iter().take(d.min(n - 1)) {
            g.add_edge(i, j, link_bps);
        }
        let _ = rng.gen::<u8>();
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{average_path_length, diameter};

    #[test]
    fn ideal_switch_is_two_hops_between_servers() {
        let g = ideal_switch(8, 100.0e9);
        assert_eq!(g.num_nodes(), 9);
        assert_eq!(diameter(&g), Some(2));
        assert!(g.has_edge(0, 8));
        assert!(g.has_edge(8, 0));
    }

    #[test]
    fn fat_tree_k4_has_16_hosts_and_20_switches() {
        let ft = fat_tree(4, 10.0e9);
        assert_eq!(ft.num_hosts, 16);
        assert_eq!(ft.num_switches, 8 + 8 + 4);
        assert!(ft.graph.is_strongly_connected());
        // Host to host in another pod: host-edge-agg-core-agg-edge-host = 6 hops.
        assert_eq!(diameter(&ft.graph), Some(6));
    }

    #[test]
    fn fat_tree_arity_for_hosts_rounds_up() {
        assert_eq!(fat_tree_arity_for_hosts(16), 4);
        assert_eq!(fat_tree_arity_for_hosts(17), 6);
        assert_eq!(fat_tree_arity_for_hosts(128), 8);
        assert_eq!(fat_tree_arity_for_hosts(432), 12);
        assert_eq!(fat_tree_arity_for_hosts(2000), 20);
    }

    #[test]
    fn oversubscribed_fat_tree_halves_uplink_capacity_and_stays_connected() {
        let full = fat_tree(4, 1.0);
        let over = oversubscribed_fat_tree(4, 1.0);
        assert_eq!(over.graph.num_edges(), full.graph.num_edges());
        assert!(over.graph.total_capacity() < full.graph.total_capacity());
        assert!(over.graph.is_strongly_connected());
        // Host-facing links keep full capacity.
        assert!((over.graph.capacity_between(0, over.num_hosts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expander_is_connected_and_respects_degree() {
        let g = expander(32, 4, 25.0e9, 7);
        assert!(g.is_strongly_connected());
        assert!(g.respects_degree(4));
        // Expanders should have small average path length (≈ log_d n).
        assert!(average_path_length(&g) < 4.0);
    }

    #[test]
    fn circulant_fallback_connected() {
        let g = circulant(10, 4, 1.0);
        assert!(g.is_strongly_connected());
        assert!(g.respects_degree(4));
    }

    #[test]
    fn ring_permutation_plus_one_is_directed_cycle() {
        let g = ring_permutation(6, 1, 1.0);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(diameter(&g), Some(5));
        for i in 0..6 {
            assert!(g.has_edge(i, (i + 1) % 6));
        }
    }

    #[test]
    fn coprime_permutation_forms_single_cycle() {
        // +5 on 12 nodes: gcd(5,12)=1, so the walk visits every node.
        let g = ring_permutation(12, 5, 1.0);
        assert!(g.is_strongly_connected());
        // +4 on 12 nodes: gcd=4, graph splits into 4 cycles of length 3.
        let g2 = ring_permutation(12, 4, 1.0);
        assert!(!g2.is_strongly_connected());
    }

    #[test]
    fn from_permutations_unions_rings_and_cuts_diameter() {
        let single = from_permutations(16, &[1], 1.0);
        let multi = from_permutations(16, &[1, 3, 7], 1.0);
        assert_eq!(multi.max_out_degree(), 3);
        assert!(diameter(&multi).unwrap() < diameter(&single).unwrap());
    }

    #[test]
    fn torus_dimensions_and_connectivity() {
        let g = torus_2d(4, 4, 1.0);
        assert_eq!(g.num_nodes(), 16);
        assert!(g.is_strongly_connected());
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn expander_deterministic_for_same_seed() {
        let a = expander(20, 3, 1.0, 42);
        let b = expander(20, 3, 1.0, 42);
        assert_eq!(a.capacity_matrix(), b.capacity_matrix());
    }

    #[test]
    fn random_out_regular_has_requested_out_degree() {
        let g = random_out_regular(10, 3, 1.0, 1);
        for v in 0..10 {
            assert_eq!(g.out_degree(v), 3);
        }
    }
}
