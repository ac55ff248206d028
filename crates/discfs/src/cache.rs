//! The policy-result cache.
//!
//! Paper §5: *"When read or write operations occur however, the KeyNote
//! \[session\] is consulted again on whether the specific requests should
//! be granted ... To improve performance, we use a cache of requested
//! operations and policy results."* Figure 12's search benchmark ran
//! with a cache of 128 policy results; `DiscfsConfig::standard` asks for
//! the same.
//!
//! Keys are `(peer key, handle, epoch)`. Epochs make invalidation O(1):
//! submitting credentials bumps the peer's epoch, revocation or
//! environment changes (time-of-day) bump a global epoch, and stale
//! entries simply stop matching until LRU eviction reclaims them.
//!
//! # Concurrency
//!
//! One `RwLock<HashMap>` holds every entry. A *hit* takes the **read**
//! lock only: the recency stamp is an `AtomicU64` inside the entry, so
//! hits from many clients proceed in parallel and none of them is an
//! exclusive acquisition. Misses (insert) and invalidation take the
//! write lock.
//!
//! Replacement is exact LRU at every capacity: each touch stamps the
//! entry with a fresh value of one counter, and a full cache evicts
//! the entry with the smallest stamp. Stamps are unique, so which
//! entry goes never depends on the map's iteration order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::perm::Perm;

/// A cache key: requester, file, and invalidation epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Requester public key bytes.
    pub(crate) peer: [u8; 32],
    /// `(inode, generation)` of the file.
    pub(crate) handle: (u32, u32),
    /// Peer-session epoch (bumped on credential submission) and global
    /// environment epoch (bumped on time/revocation changes). Kept as a
    /// pair — combining them arithmetically invites collisions.
    pub(crate) epoch: (u64, u64),
}

/// Hit/miss/eviction counters (for the Figure 12 analysis and the cache
/// ablation bench).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// One cached decision. The recency stamp is atomic so a hit can bump
/// it under the *read* lock.
struct Entry {
    perm: Perm,
    stamp: AtomicU64,
}

/// A bounded LRU map from `CacheKey` to granted [`Perm`].
pub struct PolicyCache {
    entries: RwLock<HashMap<CacheKey, Entry>>,
    capacity: usize,
    tick: AtomicU64,
    stats: CacheStats,
}

impl PolicyCache {
    /// Creates a cache holding at most `capacity` results. A capacity
    /// of 0 disables caching (every check is a full KeyNote query — the
    /// ablation baseline).
    pub(crate) fn new(capacity: usize) -> PolicyCache {
        PolicyCache {
            entries: RwLock::new(HashMap::new()),
            capacity,
            tick: AtomicU64::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Looks up a cached decision. A hit touches only the read lock
    /// plus atomic counters — concurrent lookups do not exclude each
    /// other.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<Perm> {
        if self.capacity == 0 {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let entries = self.entries.read();
        match entries.get(key) {
            Some(entry) => {
                entry
                    .stamp
                    .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.perm)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a decision, evicting the least-recently-used entry when
    /// the cache is full. The victim is found by a linear scan of the
    /// stamps, which is what lets a hit get by with the read lock (a
    /// recency list would have to be relinked on every hit). It runs
    /// only on a miss that has just paid a KeyNote query and costs
    /// about half a microsecond at the paper's 128 entries.
    pub(crate) fn insert(&self, key: CacheKey, perm: Perm) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.write();
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, entry)| entry.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                entries.remove(&oldest);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        entries.insert(
            key,
            Entry {
                perm,
                stamp: AtomicU64::new(stamp),
            },
        );
    }

    /// Drops one decision. The read lock finds whether it is there, so
    /// the usual absence costs no exclusive acquisition.
    pub(crate) fn remove(&self, key: &CacheKey) {
        if self.entries.read().contains_key(key) {
            self.entries.write().remove(key);
        }
    }

    /// Drops every entry (full invalidation after revocation).
    pub(crate) fn clear(&self) {
        self.entries.write().clear();
    }

    /// Current entry count.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Access to the counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(peer: u8, ino: u32, epoch: u64) -> CacheKey {
        CacheKey {
            peer: [peer; 32],
            handle: (ino, 1),
            epoch: (epoch, 0),
        }
    }

    #[test]
    fn hit_after_insert() {
        let cache = PolicyCache::new(4);
        cache.insert(key(1, 10, 0), Perm::RW);
        assert_eq!(cache.get(&key(1, 10, 0)), Some(Perm::RW));
        assert_eq!(cache.stats().hits(), 1);
    }

    #[test]
    fn different_epoch_misses() {
        let cache = PolicyCache::new(4);
        cache.insert(key(1, 10, 0), Perm::RW);
        assert_eq!(cache.get(&key(1, 10, 1)), None);
    }

    #[test]
    fn different_peer_misses() {
        let cache = PolicyCache::new(4);
        cache.insert(key(1, 10, 0), Perm::RW);
        assert_eq!(cache.get(&key(2, 10, 0)), None);
    }

    /// Recency-ordered list, least recent first: the definition of
    /// LRU the cache is checked against.
    struct Model {
        capacity: usize,
        entries: Vec<(CacheKey, Perm)>,
        evictions: u64,
    }

    impl Model {
        fn get(&mut self, key: &CacheKey) -> Option<Perm> {
            let at = self.entries.iter().position(|(k, _)| k == key)?;
            let entry = self.entries.remove(at);
            self.entries.push(entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: CacheKey, perm: Perm) {
            if self.capacity == 0 {
                return;
            }
            if let Some(at) = self.entries.iter().position(|(k, _)| *k == key) {
                self.entries.remove(at);
            } else if self.entries.len() >= self.capacity {
                self.entries.remove(0);
                self.evictions += 1;
            }
            self.entries.push((key, perm));
        }
    }

    #[test]
    fn agrees_with_a_reference_lru_at_every_capacity() {
        const PERMS: [Perm; 4] = [Perm::NONE, Perm::R, Perm::RW, Perm::RWX];
        for capacity in [0usize, 1, 8, 32, 128] {
            let cache = PolicyCache::new(capacity);
            let mut model = Model {
                capacity,
                entries: Vec::new(),
                evictions: 0,
            };
            let keys = 3 * capacity.max(1) as u64;
            let mut rng = 0x5EED_0000 + capacity as u64;
            let mut gets = 0u64;
            for step in 0..10_000 {
                // xorshift64
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let k = (rng >> 16) % keys;
                let k = key((k % 3) as u8, (k / 3) as u32, 0);
                match rng % 100 {
                    0 => {
                        cache.clear();
                        model.entries.clear();
                    }
                    1..=40 => {
                        let perm = PERMS[(rng >> 40) as usize % PERMS.len()];
                        cache.insert(k, perm);
                        model.insert(k, perm);
                    }
                    _ => {
                        gets += 1;
                        assert_eq!(
                            cache.get(&k),
                            model.get(&k),
                            "capacity {capacity}, step {step}"
                        );
                    }
                }
                assert!(cache.len() <= capacity);
                assert_eq!(cache.len(), model.entries.len());
                assert_eq!(cache.stats().evictions(), model.evictions);
                assert_eq!(cache.stats().hits() + cache.stats().misses(), gets);
            }
            assert!(capacity == 0 || model.evictions > 0, "capacity {capacity}");
        }
    }

    #[test]
    fn cyclic_walk_wider_than_the_cache_hits_only_the_immediate_re_reference() {
        // The walk behind `meta_walk`'s 0.66 hit fraction: 400 handles
        // visited in a cycle through 128 entries, each one looked up
        // twice in a row (LOOKUP then READ). LRU has always evicted a
        // handle by the time the cycle returns to it, so the second
        // reference hits and the revisit never does.
        let cache = PolicyCache::new(128);
        for cycle in 0..3u64 {
            for ino in 0..400 {
                let k = key(1, ino, 0);
                assert_eq!(cache.get(&k), None, "cycle {cycle}, handle {ino}");
                cache.insert(k, Perm::R);
                assert_eq!(cache.get(&k), Some(Perm::R));
            }
        }
        assert_eq!(cache.stats().hits(), 3 * 400);
        assert_eq!(cache.stats().misses(), 3 * 400);
        assert_eq!(cache.stats().evictions(), 3 * 400 - 128);
        assert_eq!(cache.len(), 128);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = PolicyCache::new(0);
        cache.insert(key(1, 1, 0), Perm::R);
        assert_eq!(cache.get(&key(1, 1, 0)), None);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn clear_empties() {
        let cache = PolicyCache::new(4);
        cache.insert(key(1, 1, 0), Perm::R);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&key(1, 1, 0)), None);
    }

    #[test]
    fn reinsert_updates_value() {
        let cache = PolicyCache::new(4);
        cache.insert(key(1, 1, 0), Perm::R);
        cache.insert(key(1, 1, 0), Perm::RWX);
        assert_eq!(cache.get(&key(1, 1, 0)), Some(Perm::RWX));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_hits_and_inserts_account_exactly() {
        // hits + misses == total gets, across 4 threads.
        let cache = std::sync::Arc::new(PolicyCache::new(64));
        let threads = 4;
        let per_thread = 1000u32;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let k = key(t as u8, i % 16, 0);
                        if cache.get(&k).is_none() {
                            cache.insert(k, Perm::R);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits() + stats.misses(), (threads * per_thread) as u64);
    }
}
