//! The least-recently-used map behind [`crate::plan_cache::PlanCache`].
//!
//! Not synchronised: the plan cache keeps its `Lru` behind one mutex.

use std::collections::HashMap;
use std::hash::Hash;

/// One slot: the value plus the clock reading of its last use.
struct Entry<V> {
    value: V,
    last_used: u64,
}

/// A bounded map that evicts the entry stamped longest ago, and counts its
/// own traffic. Every stamp is a fresh clock reading, so no two resident
/// entries tie and the victim does not depend on the map's iteration order.
pub(crate) struct Lru<K, V> {
    map: HashMap<K, Entry<V>>,
    clock: u64,
    capacity: usize,
    /// Lookups ([`Lru::get`]) that found their key.
    pub(crate) hits: u64,
    /// Lookups that did not.
    pub(crate) misses: u64,
    /// Entries pushed out by an [`Lru::insert`] at capacity.
    pub(crate) evictions: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// A map holding at most `capacity` entries (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            clock: 0,
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look `key` up, stamping the entry as just used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.clock;
                self.hits += 1;
                Some(&entry.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or replace) `key`, stamped as just used. A new key arriving
    /// at capacity first evicts the least recently stamped entry; replacing
    /// a resident key evicts nothing.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // O(n) scan: capacities are tens to hundreds of entries, and a
            // new key means a plan was just built, which costs far more than
            // the scan.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        let last_used = self.clock;
        self.map.insert(key, Entry { value, last_used });
    }

    /// Drop every entry; the counters and the clock keep their totals.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    /// Entries resident.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}
