//! The bounded LRU map behind `Ffs`'s two in-core caches (see the
//! "In-core caches" section of the crate docs).
//!
//! Both caches are write-through and live inside the `FsInner` the
//! filesystem lock already guards, so this type needs no locking and
//! never holds anything the store does not: eviction just forgets.

use std::collections::HashMap;
use std::hash::Hash;

/// Hit, miss and eviction counts of the in-core caches
/// ([`crate::Ffs::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Directory searches answered from the name cache.
    pub name_hits: u64,
    /// Directory searches that had to read the directory's blocks.
    pub name_misses: u64,
    /// Directories dropped from the name cache to make room.
    pub name_evictions: u64,
    /// Pointer-block uses answered from the pointer-block cache.
    pub ptr_hits: u64,
    /// Pointer-block uses that had to read the block from the store.
    pub ptr_misses: u64,
    /// Pointer blocks dropped from the cache to make room.
    pub ptr_evictions: u64,
}

/// A map of at most `capacity` entries that forgets the least recently
/// used one to admit a new key.
pub(crate) struct Lru<K, V> {
    /// Value and the stamp of its last use.
    map: HashMap<K, (V, u64)>,
    capacity: usize,
    stamp: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    pub(crate) fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            capacity,
            stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Counts one use of `key` as a hit or a miss and, on a hit, marks
    /// the entry most recently used.
    pub(crate) fn touch(&mut self, key: K) -> bool {
        self.stamp += 1;
        match self.map.get_mut(&key) {
            Some(slot) => {
                slot.1 = self.stamp;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// The entry for `key`, uncounted (pair with [`Lru::touch`]).
    pub(crate) fn peek(&self, key: K) -> Option<&V> {
        self.map.get(&key).map(|slot| &slot.0)
    }

    /// Mutable form of [`Lru::peek`].
    pub(crate) fn peek_mut(&mut self, key: K) -> Option<&mut V> {
        self.map.get_mut(&key).map(|slot| &mut slot.0)
    }

    /// Installs `value` as the most recently used entry, evicting the
    /// least recently used one when `key` is new and the map is full.
    /// The scan is linear in a capacity of at most a few hundred and
    /// runs only on such an insertion.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.stamp += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.1)
                .map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (value, self.stamp));
    }

    /// Removes and returns the entry for `key` (invalidation, or taking
    /// a value out to edit it before it is inserted again).
    pub(crate) fn remove(&mut self, key: K) -> Option<V> {
        self.map.remove(&key).map(|slot| slot.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert!(lru.touch(1));
        lru.insert(3, "c");
        assert_eq!(lru.peek(2), None, "2 was the least recently used");
        assert_eq!(lru.peek(1), Some(&"a"));
        assert_eq!(lru.peek(3), Some(&"c"));
        assert!(!lru.touch(2));
        assert_eq!((lru.hits, lru.misses, lru.evictions), (1, 1, 1));
        // Replacing a present key evicts nothing.
        lru.insert(3, "d");
        assert_eq!(lru.evictions, 1);
        assert_eq!(lru.remove(3), Some("d"));
        assert_eq!(lru.remove(3), None);
    }
}
