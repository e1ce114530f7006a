//! Ordering contract of `build_job_flows`: remapping a job's sparse MP
//! entries onto global server ids must yield exactly the flows (same
//! entries, same order) that remapping into a dense cluster-wide matrix and
//! reading it back with `entries_desc` yields. The dense remap lives only
//! here, as the oracle.

use proptest::prelude::*;
use topoopt_graph::{topologies, TrafficMatrix};
use topoopt_netsim::multijob::build_job_flows;
use topoopt_netsim::{allreduce_flows, mp_flows, AllReducePlan, FlowSpec, SimNetwork};
use topoopt_strategy::TrafficDemands;

/// The historical construction: every entry added into a dense
/// `net.num_servers`-wide matrix, flows built from its `entries_desc`.
fn dense_oracle(
    net: &SimNetwork,
    demands: &TrafficDemands,
    plans: &[AllReducePlan],
    server_map: &[usize],
) -> Vec<FlowSpec> {
    let mut mp = TrafficMatrix::new(net.num_servers);
    for (src, dst, bytes) in demands.mp.entries_desc() {
        mp.add(server_map[src], server_map[dst], bytes);
    }
    let mut flows = Vec::new();
    for p in plans {
        let perms = p
            .permutations
            .iter()
            .map(|perm| {
                topoopt_collectives::ring::RingPermutation::new(
                    perm.members.iter().map(|&m| server_map[m]).collect(),
                    perm.stride,
                )
            })
            .collect();
        flows.extend(allreduce_flows(net, &AllReducePlan { permutations: perms, bytes: p.bytes }));
    }
    flows.extend(mp_flows(net, &mp.entries_desc()));
    flows
}

fn demands_from(n: usize, entries: &[(usize, usize, f64)]) -> TrafficDemands {
    let mut mp = TrafficMatrix::new(n);
    for &(s, d, b) in entries {
        mp.set(s, d, b);
    }
    TrafficDemands { num_servers: n, allreduce_groups: vec![], mp, samples_per_server: 1.0 }
}

fn assert_matches_oracle(
    net: &SimNetwork,
    demands: &TrafficDemands,
    plans: &[AllReducePlan],
    server_map: &[usize],
) {
    let sparse = build_job_flows(net, demands, plans, server_map);
    let dense = dense_oracle(net, demands, plans, server_map);
    assert_eq!(sparse.len(), dense.len());
    for (i, (a, b)) in sparse.iter().zip(&dense).enumerate() {
        assert_eq!((a.src, a.dst, &a.path), (b.src, b.dst, &b.path), "flow {i} endpoints");
        assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "flow {i} bytes");
        assert_eq!(a.relay_factor.to_bits(), b.relay_factor.to_bits(), "flow {i} relay factor");
    }
}

/// Every ordered pair of a `n`-server job with demand, using only three
/// distinct byte values so most entries tie and order falls to the
/// (global) row-major tie-break.
fn tied_entries(n: usize) -> Vec<(usize, usize, f64)> {
    let values = [4.0e6, 1.0e6, 4.0e6 * 0.25];
    let mut v = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s != d {
                v.push((s, d, values[(s * 7 + d * 3) % values.len()]));
            }
        }
    }
    v
}

#[test]
fn sparse_remap_matches_dense_oracle_on_tied_bytes() {
    let n = 6usize;
    let total = 20usize;
    let net = SimNetwork::without_rules(topologies::ideal_switch(total, 100.0e9), total);
    let demands = demands_from(n, &tied_entries(n));
    let plans = vec![AllReducePlan::natural_ring((0..n).collect(), 3.0e6)];
    let maps: [Vec<usize>; 4] = [
        (0..n).collect(),                          // identity
        (0..n).map(|i| 10 + i).collect(),          // offset
        (0..n).rev().map(|i| 3 * i + 1).collect(), // reversed: global order flips
        vec![17, 2, 9, 0, 13, 5],                  // shuffled
    ];
    for map in &maps {
        assert_matches_oracle(&net, &demands, &plans, map);
    }
}

#[test]
fn reversed_map_reorders_ties_by_global_ids() {
    // Two tied entries whose local and global row-major orders disagree:
    // the global order must win, as it did in the dense matrix.
    let net = SimNetwork::without_rules(topologies::ideal_switch(4, 100.0e9), 4);
    let demands = demands_from(2, &[(0, 1, 5.0e6), (1, 0, 5.0e6)]);
    let flows = build_job_flows(&net, &demands, &[], &[3, 1]);
    let pairs: Vec<(usize, usize)> = flows.iter().map(|f| (f.src, f.dst)).collect();
    assert_eq!(pairs, vec![(1, 3), (3, 1)]);
}

#[test]
#[should_panic(expected = "server_map must not repeat a server")]
fn repeated_server_in_map_is_rejected() {
    let net = SimNetwork::without_rules(topologies::ideal_switch(4, 100.0e9), 4);
    let demands = demands_from(3, &[(0, 2, 1.0e6), (1, 2, 1.0e6)]);
    // Local 0 and 1 both map to global 2: the dense remap silently summed
    // them into one flow, the sparse one would emit two.
    build_job_flows(&net, &demands, &[], &[2, 2, 0]);
}

#[test]
#[should_panic(expected = "server_map names a non-server")]
fn non_server_id_in_map_is_rejected() {
    // Node 4 is the ideal switch's hub, not a server.
    let net = SimNetwork::without_rules(topologies::ideal_switch(4, 100.0e9), 4);
    let demands = demands_from(2, &[(0, 1, 1.0e6)]);
    build_job_flows(&net, &demands, &[], &[0, 4]);
}

/// The first `n` entries of the permutation of `0..total` that sorts `keys`
/// (ties broken by index): a uniformly shuffled injective server map.
fn shuffled_map(keys: &[u64], n: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..keys.len()).collect();
    ids.sort_by_key(|&i| (keys[i], i));
    ids.truncate(n);
    ids
}

proptest! {
    #[test]
    fn sparse_remap_matches_dense_oracle(
        n in 2usize..9,
        extra in 0usize..24,
        keys in proptest::collection::vec(0u64..1_000_000, 40),
        cells in proptest::collection::vec((0usize..9, 0usize..9, 0usize..4), 0usize..40),
        reverse in proptest::bool::ANY
    ) {
        let total = (n + extra).min(keys.len());
        let net = SimNetwork::without_rules(topologies::ideal_switch(total, 100.0e9), total);
        // Four byte levels: ties are the common case.
        let entries: Vec<(usize, usize, f64)> = cells
            .iter()
            .filter(|&&(s, d, _)| s < n && d < n && s != d)
            .map(|&(s, d, level)| (s, d, 1.0e6 * (1u64 << level) as f64))
            .collect();
        let demands = demands_from(n, &entries);
        let mut map = shuffled_map(&keys[..total], n);
        if reverse {
            map.sort_unstable_by(|a, b| b.cmp(a));
        }
        let plans = vec![AllReducePlan::natural_ring((0..n).collect(), 2.0e6)];
        assert_matches_oracle(&net, &demands, &plans, &map);
    }
}
