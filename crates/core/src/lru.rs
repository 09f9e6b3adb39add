//! The one least-recently-used map behind [`crate::plan_cache::PlanCache`]
//! and [`crate::compose::CompositionCache`].
//!
//! Not synchronised: each cache keeps its `Lru` (and whatever else one
//! request must update with it) behind one mutex.

use std::borrow::Borrow;
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
    /// Lookups ([`Lru::get`], [`Lru::take`]) that found their key.
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

    /// Take `key`'s value out of the map. Counted like a lookup; the clock
    /// does not advance, since nothing stays behind to be stamped.
    pub(crate) fn take<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let taken = self.map.remove(key).map(|entry| entry.value);
        match taken {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        taken
    }

    /// Insert (or replace) `key`, stamped as just used. A new key arriving
    /// at capacity first evicts the least recently stamped entry; replacing
    /// a resident key evicts nothing.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // O(n) scan: capacities are tens to hundreds of entries, and a
            // new key means a plan or a composition was just built, which
            // costs far more than the scan.
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

    /// Keep the entries whose value passes `keep` (no counter moves).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        self.map.retain(|_, entry| keep(&entry.value));
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
