//! Constructors for every interconnect simulated in §5.1.
//!
//! Each architecture is described by the per-server degree `d` and
//! per-interface bandwidth `B`; the Fat-tree baselines take their own link
//! bandwidth (the evaluation picks `B'` so the Fat-tree's cost matches
//! TopoOpt — see `topoopt-cost`).

use serde::{Deserialize, Serialize};
use topoopt_graph::topologies;
use topoopt_graph::Graph;

/// The network architectures compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// TopoOpt: one-shot reconfigured direct-connect fabric from the
    /// co-optimization framework.
    TopoOpt,
    /// OCS-reconfig: direct-connect fabric re-optimised every demand window
    /// with Algorithm 5.
    OcsReconfig,
    /// Ideal Switch: a single non-blocking switch with `d·B` per server.
    IdealSwitch,
    /// Full-bisection Fat-tree with cost-equivalent (reduced) link bandwidth.
    FatTree,
    /// 2:1 oversubscribed Fat-tree at full `d·B` host bandwidth.
    OversubFatTree,
    /// SiP-ML (SiP-Ring algorithm, no host-based forwarding).
    SipMl,
    /// Static expander (Jellyfish-style random regular graph).
    Expander,
}

impl Architecture {
    /// All architectures, in the order the paper's figures list them.
    pub fn all() -> [Architecture; 7] {
        [
            Architecture::TopoOpt,
            Architecture::OcsReconfig,
            Architecture::IdealSwitch,
            Architecture::FatTree,
            Architecture::OversubFatTree,
            Architecture::SipMl,
            Architecture::Expander,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::TopoOpt => "TopoOpt",
            Architecture::OcsReconfig => "OCS-reconfig",
            Architecture::IdealSwitch => "Ideal Switch",
            Architecture::FatTree => "Fat-tree",
            Architecture::OversubFatTree => "Oversub Fat-tree",
            Architecture::SipMl => "SiP-ML",
            Architecture::Expander => "Expander",
        }
    }

    /// True when the architecture forwards traffic through hosts (servers
    /// act as relays) rather than switches.
    pub fn uses_host_forwarding(&self) -> bool {
        matches!(self, Architecture::TopoOpt | Architecture::OcsReconfig | Architecture::Expander)
    }
}

/// A built network: the physical graph plus which nodes are servers.
#[derive(Debug, Clone)]
pub struct BuiltNetwork {
    /// Which architecture this is.
    pub architecture: Architecture,
    /// The physical topology. Servers are nodes `0..num_servers`; any extra
    /// nodes are switches.
    pub graph: Graph,
    /// Number of server nodes.
    pub num_servers: usize,
    /// Per-interface bandwidth used for server links (bps).
    pub link_bps: f64,
    /// Server degree.
    pub degree: usize,
}

/// Build the static baseline architectures. `TopoOpt` and `OcsReconfig`
/// depend on the traffic demands and are built from a
/// [`crate::TopologyFinderOutput`] or from
/// [`crate::ocs_reconfig::ocs_reconfig_topology`] respectively; requesting
/// them here builds the degree-matched circulant placeholder so callers can
/// still measure a static fabric.
pub fn build_architecture(
    arch: Architecture,
    num_servers: usize,
    degree: usize,
    link_bps: f64,
    fat_tree_link_bps: f64,
    seed: u64,
) -> BuiltNetwork {
    let graph = match arch {
        Architecture::IdealSwitch => {
            topologies::ideal_switch(num_servers, degree as f64 * link_bps)
        }
        Architecture::FatTree => {
            let k = topologies::fat_tree_arity_for_hosts(num_servers);
            topologies::fat_tree(k, fat_tree_link_bps).graph
        }
        Architecture::OversubFatTree => {
            let k = topologies::fat_tree_arity_for_hosts(num_servers);
            topologies::oversubscribed_fat_tree(k, degree as f64 * link_bps).graph
        }
        Architecture::Expander => topologies::expander(num_servers, degree, link_bps, seed),
        Architecture::TopoOpt | Architecture::OcsReconfig | Architecture::SipMl => {
            // Demand-aware fabrics need demands; callers use
            // TopologyFinder / the ocs_reconfig module. Provide the
            // degree-matched circulant as a neutral static stand-in.
            topologies::circulant(num_servers, degree, link_bps)
        }
    };
    BuiltNetwork { architecture: arch, graph, num_servers, link_bps, degree }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_enumeration() {
        assert_eq!(Architecture::all().len(), 7);
        assert_eq!(Architecture::TopoOpt.name(), "TopoOpt");
        assert!(Architecture::TopoOpt.uses_host_forwarding());
        assert!(!Architecture::FatTree.uses_host_forwarding());
        assert!(!Architecture::SipMl.uses_host_forwarding());
    }

    #[test]
    fn ideal_switch_has_hub_node() {
        let b = build_architecture(Architecture::IdealSwitch, 16, 4, 100.0e9, 0.0, 1);
        assert_eq!(b.graph.num_nodes(), 17);
        assert!((b.graph.capacity_between(0, 16) - 400.0e9).abs() < 1.0);
    }

    #[test]
    fn fat_tree_hosts_cover_requested_servers() {
        let b = build_architecture(Architecture::FatTree, 128, 4, 100.0e9, 100.0e9, 1);
        // k = 8 fat-tree has exactly 128 hosts.
        assert!(b.graph.num_nodes() > 128);
        assert!(b.graph.is_strongly_connected());
    }

    #[test]
    fn expander_respects_degree() {
        let b = build_architecture(Architecture::Expander, 64, 4, 25.0e9, 0.0, 3);
        assert!(b.graph.respects_degree(4));
        assert!(b.graph.is_strongly_connected());
    }

    #[test]
    fn oversub_fat_tree_has_less_core_capacity_than_full() {
        let full = build_architecture(Architecture::FatTree, 16, 4, 100.0e9, 400.0e9, 1);
        let over = build_architecture(Architecture::OversubFatTree, 16, 4, 100.0e9, 0.0, 1);
        assert!(over.graph.total_capacity() < full.graph.total_capacity());
    }
}
