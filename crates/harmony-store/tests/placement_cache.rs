//! Property tests for the memoised placement table: the cache must be
//! *invisible* — every cached lookup equals a fresh ring walk — a cached
//! lookup must not need the key's name, and a topology change must drop
//! every memoised entry rather than serving placements computed for the
//! previous ring, even when the new ring has as many tokens as the old.
//!
//! Sampling is deterministic per property (the mini-proptest shim derives
//! its seed from the property name), so a failure reproduces exactly.

use harmony_chaos::FaultEvent;
use harmony_sim::engine::Simulation;
use harmony_sim::latency::Latency;
use harmony_sim::rng::RngFactory;
use harmony_sim::topology::{NetworkModel, Topology};
use harmony_store::cluster::Cluster;
use harmony_store::config::StoreConfig;
use harmony_store::hashring::HashRing;
use harmony_store::keys::{KeyId, KeyTable};
use harmony_store::messages::StoreEvent;
use harmony_store::placement::{PlacementCache, ReplicationStrategy, MAX_RF};
use harmony_store::types::{Mutation, Timestamp};
use proptest::prelude::*;

fn strategies() -> [ReplicationStrategy; 2] {
    [
        ReplicationStrategy::Simple,
        ReplicationStrategy::NetworkTopology,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached `replicas_for(KeyId)` equals a fresh ring walk for arbitrary
    /// keys, strategies, cluster shapes and replication factors — on the
    /// first (computing) lookup and on every subsequent (cached) one.
    #[test]
    fn cached_lookup_equals_fresh_ring_walk(
        racks in 1usize..4,
        nodes_per_rack in 1usize..5,
        vnodes in 1usize..24,
        rf in 1usize..=MAX_RF,
        key_indices in prop::collection::vec(0u64..500, 1..60),
    ) {
        let topology = Topology::single_dc(racks as u16, nodes_per_rack as u16);
        let ring = HashRing::new(topology.len(), vnodes);
        for strategy in strategies() {
            let mut cache = PlacementCache::new();
            let mut table = KeyTable::new();
            for &index in &key_indices {
                let name = format!("user{index}");
                let key = table.intern(&name);
                let fresh = strategy.replicas_for(&ring, &topology, &name, rf);
                // First lookup computes...
                let cached =
                    cache.replicas_for(key, || &name, strategy, &ring, &topology, rf);
                prop_assert_eq!(cached.as_slice(), fresh.as_slice());
                // ...second lookup serves the memoised entry without asking
                // for the name; still equal.
                let cached_again = cache.replicas_for(
                    key,
                    || panic!("a cached lookup resolved {name}"),
                    strategy,
                    &ring,
                    &topology,
                    rf,
                );
                prop_assert_eq!(cached_again.as_slice(), fresh.as_slice());
            }
        }
    }

    /// After a topology change plus `invalidate()`, every lookup reflects
    /// the *new* ring — no entry computed for the old topology survives.
    #[test]
    fn topology_change_invalidates_every_entry(
        vnodes in 1usize..24,
        old_nodes in 2usize..8,
        grown_by in 1usize..6,
        rf in 1usize..=3,
        key_indices in prop::collection::vec(0u64..300, 1..60),
    ) {
        let strategy = ReplicationStrategy::Simple;
        let old_topology = Topology::single_dc(1, old_nodes as u16);
        let old_ring = HashRing::new(old_topology.len(), vnodes);
        // The "changed" cluster: more nodes, so placements genuinely move.
        let new_topology = Topology::single_dc(1, (old_nodes + grown_by) as u16);
        let new_ring = HashRing::new(new_topology.len(), vnodes);

        let mut cache = PlacementCache::new();
        let mut table = KeyTable::new();
        let keys: Vec<(KeyId, String)> = key_indices
            .iter()
            .map(|i| {
                let name = format!("user{i}");
                (table.intern(&name), name)
            })
            .collect();
        // Warm the cache on the old topology.
        for (key, name) in &keys {
            cache.replicas_for(*key, || name, strategy, &old_ring, &old_topology, rf);
        }
        let generation = cache.generation();

        // Topology change: the owner must invalidate.
        cache.invalidate();
        prop_assert_eq!(cache.generation(), generation + 1);
        prop_assert_eq!(cache.cached_len(), 0);

        let mut any_moved = false;
        for (key, name) in &keys {
            let fresh = strategy.replicas_for(&new_ring, &new_topology, name, rf);
            let cached =
                cache.replicas_for(*key, || name, strategy, &new_ring, &new_topology, rf);
            prop_assert_eq!(cached.as_slice(), fresh.as_slice());
            let old = strategy.replicas_for(&old_ring, &old_topology, name, rf);
            any_moved |= old != fresh;
        }
        // Sanity: growing the cluster moved at least one placement for most
        // draws — i.e. the equality above is not vacuous. (Not asserted per
        // key: individual keys may legitimately stay put.)
        if keys.len() >= 20 {
            prop_assert!(
                any_moved,
                "growing {} -> {} nodes moved no placement across {} keys",
                old_nodes,
                old_nodes + grown_by,
                keys.len()
            );
        }
    }

    /// Elastic churn through the real cluster path: a random mid-run
    /// sequence of joins and decommissions (driven by `FaultEvent`s, the way
    /// a chaos schedule drives them) must keep the memoised placement table
    /// indistinguishable from fresh ring walks, and must invalidate it
    /// exactly once per topology change — no more (cache thrash), no less
    /// (stale placements from a previous ring).
    #[test]
    fn cache_tracks_fresh_walks_under_join_decommission_churn(
        seed in 0u64..1_000,
        churn in prop::collection::vec(0u8..2, 1..6),
        key_indices in prop::collection::vec(0u64..200, 5..40),
    ) {
        let config = StoreConfig {
            replication_factor: 3,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(
            config,
            Topology::single_dc(2, 3),
            NetworkModel::uniform(Latency::constant_ms(0.2)),
            RngFactory::new(seed),
        );
        let mut sim: Simulation<StoreEvent> = Simulation::new(seed);
        let keys: Vec<(KeyId, String)> = key_indices
            .iter()
            .map(|i| {
                let name = format!("user{i}");
                let id = cluster.intern_key(&name);
                (id, name)
            })
            .collect();
        for (i, (_, name)) in keys.iter().enumerate() {
            cluster.load_direct(name, &Mutation::single("f", b"v".to_vec()), Timestamp(i as u64 + 1));
        }

        for (step, kind) in churn.iter().enumerate() {
            let invalidations_before = cluster.placement_invalidations();
            let members = cluster.fault_state().members();
            // Decommission the lowest-numbered member, unless that would
            // shrink the membership too far — then grow instead.
            if *kind == 1 || members.len() <= 3 {
                cluster.apply_fault(
                    &FaultEvent::JoinNode {
                        dc: 0,
                        rack: step as u16 % 2,
                    },
                    &mut sim,
                );
            } else {
                cluster.apply_fault(
                    &FaultEvent::DecommissionNode { node: members[0] },
                    &mut sim,
                );
            }
            // Exactly one invalidation per topology change.
            prop_assert_eq!(
                cluster.placement_invalidations(),
                invalidations_before + 1,
                "churn step {} must invalidate exactly once",
                step
            );
            // Every cached lookup equals a fresh ring walk on the new ring,
            // and no placement references a non-member.
            for (id, name) in &keys {
                let fresh = cluster.replicas_for(name);
                let cached = cluster.replicas_for_id(*id);
                prop_assert_eq!(cached.as_slice(), fresh.as_slice(), "key {}", name);
                for node in cached.as_slice() {
                    prop_assert!(cluster.fault_state().is_member(*node));
                }
            }
            // Second pass: the memoised entries (now warm) still agree.
            for (id, name) in &keys {
                let fresh = cluster.replicas_for(name);
                let warm = cluster.replicas_for_id(*id);
                prop_assert_eq!(warm.as_slice(), fresh.as_slice());
            }
        }
    }

    /// Without an invalidation the cache keeps serving the memoised entry —
    /// that is the point of the generation counter: the *owner* of ring and
    /// topology decides when placements may change.
    #[test]
    fn entries_persist_until_invalidated(
        vnodes in 1usize..16,
        nodes in 2usize..8,
        key_index in 0u64..100,
    ) {
        let topology = Topology::single_dc(1, nodes as u16);
        let ring = HashRing::new(topology.len(), vnodes);
        let mut cache = PlacementCache::new();
        let mut table = KeyTable::new();
        let name = format!("user{key_index}");
        let key = table.intern(&name);
        let first = cache.replicas_for(key, || &name, ReplicationStrategy::Simple, &ring, &topology, 2);
        prop_assert_eq!(cache.cached_len(), 1);
        let second = cache.replicas_for(key, || &name, ReplicationStrategy::Simple, &ring, &topology, 2);
        prop_assert_eq!(first, second);
        prop_assert_eq!(cache.generation(), 0);
    }

    /// A hit is two array loads: once a key's range is known and walked, a
    /// lookup must not resolve the key's name — not for the key itself, and
    /// not for any other key that falls in an already walked range.
    #[test]
    fn cached_lookup_never_resolves_the_name(
        nodes in 2usize..10,
        vnodes in 1usize..8,
        rf in 1usize..=3,
        key_indices in prop::collection::vec(0u64..400, 1..80),
    ) {
        let topology = Topology::single_dc(1, nodes as u16);
        let ring = HashRing::new(topology.len(), vnodes);
        let strategy = ReplicationStrategy::NetworkTopology;
        let mut cache = PlacementCache::new();
        let mut table = KeyTable::new();
        let keys: Vec<(KeyId, String)> = key_indices
            .iter()
            .map(|i| {
                let name = format!("user{i}");
                (table.intern(&name), name)
            })
            .collect();
        for (key, name) in &keys {
            cache.replicas_for(*key, || name, strategy, &ring, &topology, rf);
        }
        prop_assert_eq!(cache.cached_len(), table.len());
        for (key, name) in &keys {
            let fresh = strategy.replicas_for(&ring, &topology, name, rf);
            let cached = cache.replicas_for(
                *key,
                || panic!("the lookup of cached key {name} resolved its name"),
                strategy,
                &ring,
                &topology,
                rf,
            );
            prop_assert_eq!(cached.as_slice(), fresh.as_slice());
        }
    }

    /// A decommission followed by a join leaves the ring with as many
    /// tokens as before but different ones (the joiner takes a fresh id, so
    /// fresh tokens): the range table must still be rebuilt, and every
    /// cached set must equal a fresh ring walk afterwards.
    #[test]
    fn decommission_then_join_keeps_the_token_count_and_refreshes_every_range(
        seed in 0u64..1_000,
        vnodes in 1usize..24,
        key_indices in prop::collection::vec(0u64..300, 20..60),
    ) {
        let config = StoreConfig {
            replication_factor: 3,
            vnodes_per_node: vnodes,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(
            config,
            Topology::single_dc(2, 3),
            NetworkModel::uniform(Latency::constant_ms(0.2)),
            RngFactory::new(seed),
        );
        let mut sim: Simulation<StoreEvent> = Simulation::new(seed);
        let keys: Vec<(KeyId, String)> = key_indices
            .iter()
            .enumerate()
            .map(|(i, index)| {
                let name = format!("user{index}");
                let id = cluster.load_direct(
                    &name,
                    &Mutation::single("f", b"v".to_vec()),
                    Timestamp(i as u64 + 1),
                );
                (id, name)
            })
            .collect();
        let ring_before = cluster.ring().clone();
        let topology_before = cluster.topology().clone();
        let old: Vec<_> = keys.iter().map(|(id, _)| cluster.replicas_for_id(*id)).collect();

        let victim = cluster.fault_state().members()[0];
        cluster.apply_fault(&FaultEvent::DecommissionNode { node: victim }, &mut sim);
        cluster.apply_fault(&FaultEvent::JoinNode { dc: 0, rack: 0 }, &mut sim);
        prop_assert_eq!(cluster.ring().token_count(), ring_before.token_count());
        prop_assert_eq!(cluster.placement_invalidations(), 2);

        let mut any_moved = false;
        for ((id, name), old) in keys.iter().zip(&old) {
            let fresh = cluster.replicas_for(name);
            let cached = cluster.replicas_for_id(*id);
            prop_assert_eq!(cached.as_slice(), fresh.as_slice(), "key {}", name);
            prop_assert!(!cached.as_slice().contains(&victim));
            any_moved |= old.as_slice() != fresh.as_slice();
        }
        // The victim held replicas of some of these keys, so the equality
        // above is not vacuous.
        prop_assert!(any_moved, "no placement moved across {} keys", keys.len());

        // The cluster looks every key up again between the two changes (the
        // rebalance after the decommission), so replay the two rings on a
        // bare cache with nothing between them but `invalidate()`: only the
        // invalidation, not a change in the token count, may drop the old
        // ranges.
        let (strategy, rf) = (cluster.config().strategy, cluster.config().replication_factor);
        let mut cache = PlacementCache::new();
        for (id, name) in &keys {
            cache.replicas_for(*id, || name, strategy, &ring_before, &topology_before, rf);
        }
        cache.invalidate();
        for (id, name) in &keys {
            let fresh = strategy.replicas_for(cluster.ring(), cluster.topology(), name, rf);
            let cached =
                cache.replicas_for(*id, || name, strategy, cluster.ring(), cluster.topology(), rf);
            prop_assert_eq!(cached.as_slice(), fresh.as_slice(), "key {}", name);
        }
    }
}
