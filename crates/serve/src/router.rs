//! Consistent-hash shard routing for the dfserve fleet.
//!
//! A [`HashRing`] places every replica at `vnodes_per_replica` pseudo-random
//! positions (virtual nodes) on a 64-bit ring; a request's **routing key**
//! — fnv1a64 over the compound's canonical fingerprint bytes
//! ([`routing_key`], reusing `dfchem`'s canonical-bytes discipline) — maps
//! to the first virtual node clockwise from the key. Virtual nodes give the
//! two classical consistent-hashing properties the fleet relies on:
//!
//! * **Balance** — with enough virtual nodes per replica the arc lengths
//!   (and therefore the expected key share per replica) concentrate around
//!   `1/N`, locked by `tests/ring_proptests.rs`.
//! * **Minimal disruption** — adding a replica moves only the keys that
//!   now land on the new replica's arcs (~`K/(N+1)` of them); removing one
//!   moves only the removed replica's keys. No global reshuffle, so
//!   per-shard caches stay warm across fleet resizes.
//!
//! Routing keys are *content*-addressed: two ids that materialize to the
//! same topology hash identically, so duplicate library entries share a
//! home shard (and therefore one cache line fleet-wide). Because the key
//! is a pure function of the compound id, the fleet memoizes it in a
//! [`KeyCache`]; bulk lookups hash the uncached tail through `dfpool`'s
//! order-preserving `parallel_map`, which is what makes routing decisions
//! bit-identical at any router thread count.
//!
//! [`WatermarkConfig`] is the router half of admission control: per-shard
//! depth watermarks translate a hot shard's congestion into a depth *bias*
//! fed to the existing degradation ladder, so the shard degrades to
//! cheaper tiers **before** it ever reaches the shed bound.

use dfchem::genmol::CompoundId;
use dftensor::hash::fnv1a64;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Default virtual nodes per replica: enough to keep the max/mean key
/// share within ~1.35x at 16 replicas (see `ring_proptests.rs`).
pub const DEFAULT_VNODES: usize = 64;

/// Domain-separation salt for ring positions.
const RING_SALT: u64 = 0x5E7E_4F1E_E7D1_5C00;

/// Position of one virtual node on the 64-bit ring: a pure function of
/// `(replica, vnode)` so every router instance agrees on the layout.
/// Positions go through `derive_seed` (SplitMix64 finalizer) — plain
/// FNV-1a of these short structured inputs clusters badly in the high
/// bits, and ring routing orders by the full 64-bit value.
fn vnode_position(replica: u32, vnode: u32) -> u64 {
    dftensor::rng::derive_seed(dftensor::rng::derive_seed(RING_SALT, replica as u64), vnode as u64)
}

/// A consistent-hash ring over replica ids with virtual nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes_per_replica: usize,
    /// `(position, replica)` sorted by position (replica breaks the
    /// astronomically unlikely position tie deterministically).
    points: Vec<(u64, u32)>,
    /// Live members, ascending.
    members: Vec<u32>,
}

impl HashRing {
    /// Builds a ring over `replicas` (deduplicated) with
    /// `vnodes_per_replica` virtual nodes each (>= 1).
    pub fn new(replicas: &[u32], vnodes_per_replica: usize) -> HashRing {
        assert!(vnodes_per_replica >= 1, "a replica needs at least one virtual node");
        let mut members: Vec<u32> = replicas.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut ring = HashRing { vnodes_per_replica, points: Vec::new(), members: Vec::new() };
        for r in members {
            ring.add_replica(r);
        }
        ring
    }

    /// Live replica ids, ascending.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Number of live replicas.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds `replica` (no-op if already present). Only keys landing on the
    /// new replica's arcs move — everything else keeps its home shard.
    pub fn add_replica(&mut self, replica: u32) {
        if self.members.contains(&replica) {
            return;
        }
        self.members.push(replica);
        self.members.sort_unstable();
        for v in 0..self.vnodes_per_replica {
            let pos = vnode_position(replica, v as u32);
            let at = self.points.partition_point(|&p| p < (pos, replica));
            self.points.insert(at, (pos, replica));
        }
    }

    /// Removes `replica` (no-op if absent). Only its keys move, each to
    /// the ring successor of the arc it sat on.
    pub fn remove_replica(&mut self, replica: u32) {
        self.members.retain(|&r| r != replica);
        self.points.retain(|&(_, r)| r != replica);
    }

    /// Routes a 64-bit key to its home replica: the first virtual node at
    /// or clockwise of the key. `None` on an empty ring.
    pub fn route(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|&(pos, _)| pos < key);
        let (_, replica) = self.points[if at == self.points.len() { 0 } else { at }];
        Some(replica)
    }

    /// Every live replica in ring order starting from the key's home
    /// replica — the failover re-issue order. Distinct; length equals the
    /// member count.
    pub fn successors(&self, key: u64) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(self.members.len());
        if self.points.is_empty() {
            return out;
        }
        let start = self.points.partition_point(|&(pos, _)| pos < key);
        for i in 0..self.points.len() {
            let (_, replica) = self.points[(start + i) % self.points.len()];
            if !out.contains(&replica) {
                out.push(replica);
                if out.len() == self.members.len() {
                    break;
                }
            }
        }
        out
    }
}

/// The fleet's routing key for a compound: fnv1a64 over the canonical
/// bytes of its topology-only circular fingerprint
/// (`dfchem::Fingerprint::canonical_bytes`). Content-addressed — two ids
/// that materialize to the same topology share a key, so they share a
/// home shard and a cache line — and RNG-free, so the key is a pure
/// function of `(id, campaign_seed)`. The fingerprint reads no coordinate,
/// so the compound is materialized as its bond graph only (bit-equal to
/// the positional topology's, hence the same key).
pub fn routing_key(id: CompoundId, campaign_seed: u64) -> u64 {
    let compound =
        dfchem::genmol::Compound::materialize_graph_only(id.library, id.index, campaign_seed);
    let fp = dfchem::Fingerprint::compute(&dfchem::FingerprintConfig::default(), &compound.mol);
    let mut bytes = Vec::new();
    fp.canonical_bytes(&mut bytes);
    // SplitMix64-finalized so keys spread over the full ring even when
    // canonical byte strings are short or structurally similar.
    dftensor::rng::derive_seed(fnv1a64(&bytes), RING_SALT)
}

/// Memoizes [`routing_key`] per compound id (the key is a pure function
/// of the id, so the memo is semantically transparent — it only avoids
/// re-materializing the topology on every request).
#[derive(Debug, Default)]
pub struct KeyCache {
    map: HashMap<CompoundId, u64>,
    hits: u64,
    misses: u64,
}

impl KeyCache {
    /// An empty cache.
    pub fn new() -> KeyCache {
        KeyCache::default()
    }

    /// Rebuilds a cache from precomputed `(id, key)` entries (e.g. shared
    /// across several fleet instances in a bench ladder).
    pub fn from_entries(entries: &[(CompoundId, u64)]) -> KeyCache {
        KeyCache { map: entries.iter().copied().collect(), hits: 0, misses: 0 }
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Every memoized `(id, key)` pair, sorted by id — feed to
    /// [`KeyCache::from_entries`] to share hashing work across fleet
    /// instances (keys are only valid for the same campaign seed).
    pub fn entries(&self) -> Vec<(CompoundId, u64)> {
        let mut out: Vec<(CompoundId, u64)> = self.map.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// The routing key for `id`, computing and memoizing it on a miss.
    pub fn key(&mut self, id: CompoundId, campaign_seed: u64) -> u64 {
        match self.map.get(&id) {
            Some(&k) => {
                self.hits += 1;
                k
            }
            None => {
                self.misses += 1;
                let k = routing_key(id, campaign_seed);
                self.map.insert(id, k);
                k
            }
        }
    }

    /// Bulk lookup: hashes the uncached tail of `ids` in parallel on the
    /// current `dfpool` pool (order-preserving `parallel_map`, so the
    /// result — and the memo contents — are bit-identical at any router
    /// thread count), then answers every id from the memo.
    pub fn bulk_keys(&mut self, ids: &[CompoundId], campaign_seed: u64) -> Vec<u64> {
        let _span = dftrace::span("serve.router.hash_keys");
        let mut missing: Vec<CompoundId> = Vec::new();
        for &id in ids {
            if !self.map.contains_key(&id) && !missing.contains(&id) {
                missing.push(id);
            }
        }
        if !missing.is_empty() {
            let pool = dfpool::current();
            let keys =
                pool.parallel_map(missing.len(), 16, |i| routing_key(missing[i], campaign_seed));
            self.misses += missing.len() as u64;
            for (&id, &k) in missing.iter().zip(keys.iter()) {
                self.map.insert(id, k);
            }
        }
        ids.iter()
            .map(|id| {
                let k = *self.map.get(id).expect("filled above");
                self.hits += 1;
                k
            })
            .collect()
    }
}

/// Router-side admission control: per-shard depth watermarks feeding the
/// shard's existing degradation ladder.
///
/// When a shard's queue depth reaches `degrade_depth`, the router submits
/// with a depth **bias** of `bias_per_excess` per unit of depth beyond
/// the watermark. The biased depth pushes the ladder toward cheaper tiers
/// earlier than the shard's own thresholds would — a hot shard starts
/// answering from the inline tiers while real depth is still well below
/// the shed bound, instead of queueing model work until it sheds. The
/// bias can only ever *degrade* (the shed decision is always taken on the
/// true depth — see `AdmissionController::decide_biased`), so watermark
/// routing never rejects a request the plain ladder would have admitted.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WatermarkConfig {
    /// Shard depth at which the router starts biasing the ladder.
    pub degrade_depth: usize,
    /// Bias added per unit of depth beyond the watermark.
    pub bias_per_excess: usize,
}

impl WatermarkConfig {
    /// A watermark that never biases (router admission disabled).
    pub fn disabled() -> WatermarkConfig {
        WatermarkConfig { degrade_depth: usize::MAX, bias_per_excess: 0 }
    }

    /// The ladder bias for a shard currently at `depth`.
    pub fn bias(&self, depth: usize) -> usize {
        depth.saturating_sub(self.degrade_depth).saturating_mul(self.bias_per_excess)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfchem::genmol::Library;

    #[test]
    fn route_is_deterministic_and_in_members() {
        let ring = HashRing::new(&[0, 1, 2, 3], 16);
        for key in [0u64, 1, u64::MAX, 0xDEAD_BEEF, 1 << 63] {
            let r = ring.route(key).expect("non-empty ring");
            assert!(ring.members().contains(&r));
            assert_eq!(ring.route(key), Some(r), "routing must be stable");
        }
        assert!(HashRing::new(&[], 8).route(42).is_none());
    }

    #[test]
    fn successors_cover_all_members_distinctly() {
        let ring = HashRing::new(&[0, 1, 2, 3, 4], 8);
        let succ = ring.successors(0x1234_5678_9ABC_DEF0);
        assert_eq!(succ.len(), 5);
        let mut sorted = succ.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(succ[0], ring.route(0x1234_5678_9ABC_DEF0).unwrap());
    }

    #[test]
    fn add_remove_round_trips_the_layout() {
        let mut ring = HashRing::new(&[0, 1, 2], 32);
        let reference = HashRing::new(&[0, 1, 2], 32);
        ring.add_replica(3);
        ring.remove_replica(3);
        let keys: Vec<u64> = (0..500).map(|i| fnv1a64(&(i as u64).to_le_bytes())).collect();
        for &k in &keys {
            assert_eq!(ring.route(k), reference.route(k));
        }
    }

    #[test]
    fn watermark_bias_kicks_in_past_the_watermark() {
        let w = WatermarkConfig { degrade_depth: 10, bias_per_excess: 3 };
        assert_eq!(w.bias(0), 0);
        assert_eq!(w.bias(10), 0);
        assert_eq!(w.bias(11), 3);
        assert_eq!(w.bias(14), 12);
        assert_eq!(WatermarkConfig::disabled().bias(usize::MAX), 0);
    }

    /// The key is built from the coordinate-free bond graph; it must be
    /// the key of the positional topology's fingerprint.
    #[test]
    fn routing_keys_are_those_of_the_positional_topology() {
        for library in Library::ALL {
            for index in 0..100 {
                let c = dfchem::genmol::Compound::materialize_topology(library, index, 11);
                let fp =
                    dfchem::Fingerprint::compute(&dfchem::FingerprintConfig::default(), &c.mol);
                let mut bytes = Vec::new();
                fp.canonical_bytes(&mut bytes);
                let key = dftensor::rng::derive_seed(fnv1a64(&bytes), RING_SALT);
                assert_eq!(routing_key(c.id, 11), key, "{}", c.id);
            }
        }
    }

    #[test]
    fn key_cache_memoizes_and_matches_direct_hashing() {
        let id = CompoundId { library: Library::Chembl, index: 7 };
        let direct = routing_key(id, 11);
        let mut cache = KeyCache::new();
        assert_eq!(cache.key(id, 11), direct);
        assert_eq!(cache.key(id, 11), direct);
        assert_eq!(cache.stats(), (1, 1));
        let bulk = cache.bulk_keys(&[id, id], 11);
        assert_eq!(bulk, vec![direct, direct]);
    }
}
