//! Content-addressed LRU cache with hit/miss/eviction accounting.
//!
//! Keys are `dftensor::hash::fnv1a64` digests of **canonical featurization bytes** (see
//! `MolGraph::canonical_bytes` and the voxel-bit hashing in the service),
//! so two requests share a cache line exactly when the model would see
//! identical inputs — renamed compounds, re-materialized molecules and
//! duplicate library entries all collapse onto one entry.
//!
//! The implementation is a slab-backed doubly-linked recency list plus a
//! `HashMap` index: O(1) lookup, insert and eviction, no iteration over
//! the map anywhere (map iteration order is nondeterministic; eviction
//! order must not be). Eviction order, and therefore every hit/miss
//! decision downstream, is a pure function of the operation sequence —
//! locked by `tests/cache_proptests.rs` against a reference model.

use std::collections::HashMap;

/// Monotonic cache accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (new keys only; overwrites count separately).
    pub insertions: u64,
    /// In-place overwrites of an existing key.
    pub updates: u64,
    /// Entries pushed out by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// hits / (hits + misses); 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        dftrace::rate::mean(self.hits as f64, (self.hits + self.misses) as f64)
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from 64-bit content digests to values.
#[derive(Debug)]
pub struct LruCache<V> {
    cap: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot (evicted first).
    tail: usize,
    stats: CacheStats,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries (>= 1).
    pub fn new(capacity: usize) -> LruCache<V> {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        LruCache {
            cap: capacity,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, bumping it to most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        match self.map.get(&key).copied() {
            Some(i) => {
                self.stats.hits += 1;
                self.unlink(i);
                self.push_front(i);
                Some(&self.slots[i].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks for `key` without touching recency or accounting.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.map.get(&key).map(|&i| &self.slots[i].value)
    }

    /// Inserts (or overwrites) `key`, returning the evicted `(key, value)`
    /// if capacity pressure pushed the least-recently-used entry out.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.stats.updates += 1;
            self.slots[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return None;
        }
        let evicted = if self.map.len() >= self.cap {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "full cache must have a tail");
            self.unlink(lru);
            let old_key = self.slots[lru].key;
            self.map.remove(&old_key);
            self.free.push(lru);
            self.stats.evictions += 1;
            Some((lru, old_key))
        } else {
            None
        };
        self.stats.insertions += 1;
        let slot = Slot { key, value, prev: NIL, next: NIL };
        let (i, old) = match self.free.pop() {
            Some(i) => {
                let old = std::mem::replace(&mut self.slots[i], slot);
                (i, Some(old.value))
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1, None)
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted.map(|(slot_idx, old_key)| {
            debug_assert_eq!(slot_idx, i, "evicted slot is reused immediately");
            (old_key, old.expect("evicted slot held a value"))
        })
    }

    /// Keys from most- to least-recently used (test/diagnostic helper).
    pub fn keys_by_recency(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.slots[i].key);
            i = self.slots[i].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_bumps_recency_and_counts() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(1), Some(&"a"));
        // 1 is now MRU; inserting 3 evicts 2.
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(c.get(2), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 3, 1));
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Some(&11));
        assert_eq!(c.stats().updates, 1);
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let mut c = LruCache::new(1);
        assert!(c.insert(1, 1).is_none());
        assert_eq!(c.insert(2, 2), Some((1, 1)));
        assert_eq!(c.insert(3, 3), Some((2, 2)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.keys_by_recency(), vec![3]);
    }

    #[test]
    fn peek_leaves_state_untouched() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.peek(1), Some(&"a"));
        // 1 was NOT bumped: inserting 3 still evicts it.
        assert_eq!(c.insert(3, "c"), Some((1, "a")));
        assert_eq!(c.stats().hits, 0);
    }
}
