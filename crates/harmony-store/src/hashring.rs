//! Consistent-hash token ring with virtual nodes.
//!
//! Keys are hashed onto a 64-bit token space; each physical node owns several
//! tokens (virtual nodes) and a key's primary replica is the node owning the
//! first token at or after the key's hash, walking clockwise. The replication
//! strategy ([`crate::placement`]) then walks the ring from that point to pick
//! the remaining replicas.

use harmony_sim::rng::{fnv1a, mix};
use harmony_sim::topology::NodeId;
use serde::{Deserialize, Serialize};

/// Hashes a key onto the 64-bit token space.
pub fn key_token(key: &str) -> u64 {
    mix(fnv1a(key.as_bytes()), 0x9E37_79B9_7F4A_7C15)
}

/// A token owned by a (virtual) node on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenEntry {
    /// Position on the ring.
    pub token: u64,
    /// The physical node owning this token.
    pub node: NodeId,
}

/// A consistent-hash ring mapping tokens to physical nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashRing {
    entries: Vec<TokenEntry>,
    nodes: usize,
    vnodes_per_node: usize,
}

impl HashRing {
    /// Builds a ring for nodes `0..node_count`, each owning `vnodes_per_node`
    /// pseudo-random (but deterministic) tokens.
    ///
    /// # Panics
    /// Panics if `node_count` or `vnodes_per_node` is zero.
    pub fn new(node_count: usize, vnodes_per_node: usize) -> Self {
        assert!(node_count > 0, "ring needs at least one node");
        let members: Vec<NodeId> = (0..node_count as u32).map(NodeId).collect();
        HashRing::with_members(&members, vnodes_per_node)
    }

    /// Builds a ring over an explicit membership set — the elastic form of
    /// [`HashRing::new`]. Each member keeps the tokens its id has always
    /// hashed to, so adding or removing a member only moves the key ranges
    /// adjacent to its tokens (the consistent-hashing property node churn
    /// relies on); `new(n, v)` is exactly `with_members(&[0..n], v)`.
    ///
    /// # Panics
    /// Panics if `members` is empty or `vnodes_per_node` is zero.
    pub fn with_members(members: &[NodeId], vnodes_per_node: usize) -> Self {
        assert!(!members.is_empty(), "ring needs at least one node");
        assert!(vnodes_per_node > 0, "each node needs at least one token");
        let mut entries = Vec::with_capacity(members.len() * vnodes_per_node);
        for &node in members {
            for v in 0..vnodes_per_node {
                let token = mix(fnv1a(format!("node{}", node.0).as_bytes()), v as u64 + 1);
                entries.push(TokenEntry { token, node });
            }
        }
        entries.sort_by_key(|e| (e.token, e.node.0));
        entries.dedup_by_key(|e| e.token);
        HashRing {
            entries,
            nodes: members.len(),
            vnodes_per_node,
        }
    }

    /// Number of physical nodes the ring was built for.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of tokens on the ring.
    pub fn token_count(&self) -> usize {
        self.entries.len()
    }

    /// Virtual nodes configured per physical node.
    pub fn vnodes_per_node(&self) -> usize {
        self.vnodes_per_node
    }

    /// The index in the token list of the first token at or after `token`
    /// (wrapping to 0 past the end): the ring range the token falls in.
    /// Every token in one range has the same successor, so placement is a
    /// function of this index alone.
    pub fn successor_index(&self, token: u64) -> usize {
        match self.entries.binary_search_by(|e| e.token.cmp(&token)) {
            Ok(i) => i,
            Err(i) => {
                if i == self.entries.len() {
                    0
                } else {
                    i
                }
            }
        }
    }

    /// The primary replica for a key.
    pub fn primary_for_key(&self, key: &str) -> NodeId {
        self.entries[self.successor_index(key_token(key))].node
    }

    /// Walks the ring clockwise starting at token index `start`, yielding
    /// the owning physical node of each token (with repetitions —
    /// deduplication is the replication strategy's job).
    ///
    /// # Panics
    /// Panics if `start` is not below [`HashRing::token_count`].
    pub fn walk_from_index(&self, start: usize) -> impl Iterator<Item = NodeId> + '_ {
        assert!(
            start < self.entries.len(),
            "ring index {start} out of range"
        );
        let (before, after) = self.entries.split_at(start);
        after.iter().chain(before).map(|e| e.node)
    }

    /// Walks the ring clockwise starting at the key's token: the walk from
    /// the key's [`HashRing::successor_index`].
    pub fn walk_from_key<'a>(&'a self, key: &str) -> impl Iterator<Item = NodeId> + 'a {
        self.walk_from_index(self.successor_index(key_token(key)))
    }

    /// The first `count` *distinct* physical nodes encountered walking the
    /// ring from token index `start`.
    pub fn preference_list_from(&self, start: usize, count: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(count);
        for node in self.walk_from_index(start) {
            if !out.contains(&node) {
                out.push(node);
                if out.len() == count {
                    break;
                }
            }
        }
        out
    }

    /// The first `count` *distinct* physical nodes encountered walking the
    /// ring from the key's position. This is `SimpleStrategy` placement.
    pub fn preference_list(&self, key: &str, count: usize) -> Vec<NodeId> {
        self.preference_list_from(self.successor_index(key_token(key)), count)
    }

    /// The fraction of the token space owned by each node (useful for
    /// checking balance); indexed by node id. Rings built over an elastic
    /// membership can have non-contiguous ids (a decommissioned slot leaves
    /// a hole), so the vector is sized to the highest member id and the
    /// holes simply own zero.
    pub fn ownership(&self) -> Vec<f64> {
        let slots = self
            .entries
            .iter()
            .map(|e| e.node.index() + 1)
            .max()
            .unwrap_or(0);
        let mut owned = vec![0.0f64; slots];
        let len = self.entries.len();
        for i in 0..len {
            let cur = self.entries[i];
            let next_token = self.entries[(i + 1) % len].token;
            let span = next_token.wrapping_sub(cur.token);
            owned[cur.node.index()] += span as f64;
        }
        let total: f64 = owned.iter().sum();
        if total > 0.0 {
            for o in owned.iter_mut() {
                *o /= total;
            }
        }
        owned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_ring_panics() {
        HashRing::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_vnodes_panics() {
        HashRing::new(3, 0);
    }

    #[test]
    fn token_count_and_accessors() {
        let ring = HashRing::new(5, 16);
        assert_eq!(ring.node_count(), 5);
        assert_eq!(ring.vnodes_per_node(), 16);
        // Collisions are possible in principle but astronomically unlikely.
        assert_eq!(ring.token_count(), 80);
    }

    #[test]
    fn key_lookup_is_deterministic() {
        let ring = HashRing::new(10, 32);
        let a = ring.primary_for_key("user1234");
        let b = ring.primary_for_key("user1234");
        assert_eq!(a, b);
        let ring2 = HashRing::new(10, 32);
        assert_eq!(ring2.primary_for_key("user1234"), a);
    }

    #[test]
    fn preference_list_distinct_and_sized() {
        let ring = HashRing::new(8, 16);
        for k in 0..200 {
            let key = format!("user{k}");
            let prefs = ring.preference_list(&key, 5);
            assert_eq!(prefs.len(), 5);
            let distinct: HashSet<_> = prefs.iter().collect();
            assert_eq!(distinct.len(), 5);
            assert_eq!(prefs[0], ring.primary_for_key(&key));
        }
    }

    #[test]
    fn preference_list_clamps_to_cluster_size() {
        let ring = HashRing::new(3, 8);
        let prefs = ring.preference_list("k", 5);
        assert_eq!(prefs.len(), 3);
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::new(1, 4);
        assert_eq!(ring.primary_for_key("anything"), NodeId(0));
        let own = ring.ownership();
        assert!((own[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ownership_sums_to_one_and_is_roughly_balanced() {
        let ring = HashRing::new(10, 64);
        let own = ring.ownership();
        let total: f64 = own.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (i, o) in own.iter().enumerate() {
            assert!(*o > 0.02 && *o < 0.25, "node {i} owns {o}");
        }
    }

    #[test]
    fn membership_rings_keep_surviving_tokens_and_report_ownership() {
        // Removing a member only moves its ranges: surviving nodes keep
        // their token positions, and ownership() handles the id hole left
        // by the departed node instead of indexing out of bounds.
        let full = HashRing::new(4, 16);
        let shrunk = HashRing::with_members(&[NodeId(1), NodeId(2), NodeId(3)], 16);
        assert_eq!(shrunk.node_count(), 3);
        for k in 0..200 {
            let key = format!("user{k}");
            let primary = shrunk.primary_for_key(&key);
            assert_ne!(primary, NodeId(0));
            // A key whose full-ring primary survives keeps that primary.
            if full.primary_for_key(&key) != NodeId(0) {
                assert_eq!(primary, full.primary_for_key(&key), "{key} moved");
            }
        }
        let own = shrunk.ownership();
        assert_eq!(own.len(), 4, "sized to the highest member id");
        assert_eq!(own[0], 0.0, "the departed slot owns nothing");
        assert!((own.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // new(n, v) is exactly with_members(0..n, v).
        let a = HashRing::new(4, 16);
        let b = HashRing::with_members(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 16);
        for k in 0..50 {
            let key = format!("u{k}");
            assert_eq!(a.primary_for_key(&key), b.primary_for_key(&key));
        }
    }

    #[test]
    fn keys_spread_across_nodes() {
        let ring = HashRing::new(10, 32);
        let mut hit: HashSet<NodeId> = HashSet::new();
        for k in 0..1000 {
            hit.insert(ring.primary_for_key(&format!("user{k}")));
        }
        assert_eq!(hit.len(), 10, "every node should own some keys");
    }

    #[test]
    fn walk_covers_all_tokens() {
        let ring = HashRing::new(4, 8);
        let walked: Vec<NodeId> = ring.walk_from_key("abc").collect();
        assert_eq!(walked.len(), ring.token_count());
    }

    #[test]
    fn keys_in_one_range_share_their_walk() {
        let ring = HashRing::new(6, 8);
        for k in 0..200 {
            let key = format!("user{k}");
            let start = ring.successor_index(key_token(&key));
            let from_key: Vec<NodeId> = ring.walk_from_key(&key).collect();
            let from_index: Vec<NodeId> = ring.walk_from_index(start).collect();
            assert_eq!(from_key, from_index);
            assert_eq!(from_key[0], ring.primary_for_key(&key));
            assert_eq!(
                ring.preference_list(&key, 4),
                ring.preference_list_from(start, 4)
            );
        }
        // The last range wraps: its walk continues at index 0.
        let last = ring.token_count() - 1;
        let wrapped: Vec<NodeId> = ring.walk_from_index(last).take(2).collect();
        assert_eq!(wrapped[1], ring.walk_from_index(0).next().unwrap());
    }
}
