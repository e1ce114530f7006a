//! Sharding a TopoOpt cluster into disjoint per-job partitions.
//!
//! The optical switches let TopoOpt cut the fabric into isolated shards
//! (Figure 26): a job's servers and the circuits between them are completely
//! disjoint from every other job's, so jobs never contend for bandwidth.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Tracks which servers are free and which shard each allocated server
/// belongs to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterShards {
    total_servers: usize,
    free: BTreeSet<usize>,
    /// shard id -> servers
    shards: Vec<Option<Vec<usize>>>,
}

impl ClusterShards {
    /// A cluster of `total_servers` free servers.
    pub fn new(total_servers: usize) -> Self {
        ClusterShards { total_servers, free: (0..total_servers).collect(), shards: Vec::new() }
    }

    /// Total number of servers in the cluster.
    pub fn total_servers(&self) -> usize {
        self.total_servers
    }

    /// Number of currently free servers.
    pub fn free_servers(&self) -> usize {
        self.free.len()
    }

    /// Allocate a shard of `size` servers; returns the shard id and the
    /// allocated server ids, or `None` if not enough servers are free.
    pub fn allocate(&mut self, size: usize) -> Option<(usize, Vec<usize>)> {
        if size == 0 || self.free.len() < size {
            return None;
        }
        let servers: Vec<usize> = self.free.iter().take(size).cloned().collect();
        for s in &servers {
            self.free.remove(s);
        }
        let id = self.shards.len();
        self.shards.push(Some(servers.clone()));
        Some((id, servers))
    }

    /// Release a shard's servers back to the free pool.
    pub fn release(&mut self, shard_id: usize) -> bool {
        if shard_id >= self.shards.len() {
            return false;
        }
        match self.shards[shard_id].take() {
            Some(servers) => {
                for s in servers {
                    self.free.insert(s);
                }
                true
            }
            None => false,
        }
    }

    /// Number of active shards.
    pub fn active_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.is_some()).count()
    }

    /// Verify no server belongs to two shards and every allocated server is
    /// not in the free pool.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for (id, shard) in self.shards.iter().enumerate() {
            if let Some(servers) = shard {
                for &s in servers {
                    if !seen.insert(s) {
                        return Err(format!("server {s} appears in two shards"));
                    }
                    if self.free.contains(&s) {
                        return Err(format!("server {s} of shard {id} is also free"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Current load: fraction of servers allocated to jobs.
    pub fn load(&self) -> f64 {
        1.0 - self.free.len() as f64 / self.total_servers.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut c = ClusterShards::new(32);
        let (id, servers) = c.allocate(16).unwrap();
        assert_eq!(servers.len(), 16);
        assert_eq!(c.free_servers(), 16);
        assert_eq!(c.active_shards(), 1);
        assert!((c.load() - 0.5).abs() < 1e-12);
        c.validate().unwrap();
        assert!(c.release(id));
        assert_eq!(c.free_servers(), 32);
        assert!(!c.release(id), "double release must fail");
    }

    #[test]
    fn allocation_fails_when_full() {
        let mut c = ClusterShards::new(8);
        assert!(c.allocate(8).is_some());
        assert!(c.allocate(1).is_none());
        assert!(c.allocate(0).is_none());
    }

    #[test]
    fn shards_are_disjoint() {
        let mut c = ClusterShards::new(48);
        let (_, a) = c.allocate(16).unwrap();
        let (_, b) = c.allocate(16).unwrap();
        let (_, d) = c.allocate(16).unwrap();
        let mut all: Vec<usize> = a.into_iter().chain(b).chain(d).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 48);
        c.validate().unwrap();
    }

    proptest! {
        #[test]
        fn validation_holds_under_random_alloc_release(
            ops in proptest::collection::vec((1usize..20, proptest::bool::ANY), 1..60)
        ) {
            let mut c = ClusterShards::new(64);
            let mut live: Vec<usize> = Vec::new();
            for (size, release_first) in ops {
                if release_first && !live.is_empty() {
                    let id = live.remove(0);
                    prop_assert!(c.release(id));
                }
                if let Some((id, _)) = c.allocate(size) {
                    live.push(id);
                }
                c.validate().unwrap();
                prop_assert!(c.load() >= 0.0 && c.load() <= 1.0);
            }
        }
    }
}
