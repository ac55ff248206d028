//! A write-back buffer cache over any [`BlockStore`].
//!
//! The classic hot-path fix: once a block is in the cache, a read is a
//! shard-local lock plus a refcounted handle clone — no allocation, no
//! inner-backend lock, no timing charge, no hashing. Writes are held
//! dirty and written back on [`BlockStore::flush`] or eviction, so a
//! burst of rewrites to the same block reaches the backend once.
//!
//! When a shard overflows, its least-recently-used entry leaves; a
//! dirty victim is first written back as the [`IoClass`] it was written
//! with (`StoreStats::writeback_blocks` counts those).
//!
//! Write-back is what the cache is for under `ffs`, which rewrites an
//! inode-table block, a bitmap block and a pointer block for every
//! 8 KiB file write: a write-through prototype more than doubled
//! `stack_mixed`'s `setup_s` (ROADMAP, ablate-or-delete item).
//!
//! # Crash consistency (the clean-flag discipline)
//!
//! The filesystem's recovery protocol (PR 2) relies on two WAL
//! ordering invariants: the superblock's *dirty* marker precedes any
//! mutation in the journal, and its *clean* marker follows every
//! mutation it covers. A coalescing write-back cache would break both
//! if it buffered block 0 — the dirty and clean markers are successive
//! writes to the *same* block and would collapse into one. So:
//!
//! * **Block 0 is written through**: the dirty marker reaches the
//!   inner store (and its journal) immediately, before any buffered
//!   mutation can be written back. Reads of block 0 are still cached.
//! * `Ffs::sync` flushes the store *before* writing the clean marker
//!   (and flushes again after), so the clean marker can never overtake
//!   a buffered mutation on its way into the journal.
//!
//! This cache is the only store layer that must know which block holds
//! the marker, because its eviction is the only one that reorders
//! writes. Every other layer passes blocks on in the order it was
//! given them or, like `ReplicatedStore`, in block order, where block
//! 0 commits in the first epoch of the flush that carries it (the
//! `replicated` module docs, *Epochs*).
//!
//! Between syncs the cache trades durability for speed exactly like a
//! kernel page cache: dropping the store without a flush loses the
//! dirty blocks, and the volume mounts through the recovery sweep
//! (the written-through dirty marker guarantees the sweep runs — a
//! crashed cached volume never fast-paths on stale bitmaps).
//!
//! # Buffers
//!
//! The cache allocates its block buffers once, zeroed, when it is
//! built: each shard's share of `capacity` plus one, because a block
//! enters its shard before the shard's victim leaves. A block entering
//! the cache — a write miss, a read miss, a readahead prefetch — is
//! copied into one of its shard's spare buffers, and an evicted block's
//! buffer goes back to the spares when no reader holds it. A buffer a
//! reader still holds is simply dropped; the next insert that finds no
//! spare allocates one, and that one joins the spares when its block
//! leaves. So the cache holds `capacity` × 8 KiB (and one block a
//! shard) from construction, allocated by the thread that built it,
//! whichever threads fill and empty it.
//!
//! That matters for the resident set. glibc's malloc gives each thread
//! an arena and each arena keeps its own high-water mark. While the
//! inserting thread allocated a block and the evicting one freed it,
//! engine workers each kept an arena's worth of cache blocks, and after
//! a reboot the recovery pass on the main thread filled the new cache
//! in the main arena while the old one's pages sat free in the
//! workers' arenas: `stack_mixed`'s `peak_rss_mb` read 17.0-21.3 MB
//! from run to run (13.4-13.7 under `MALLOC_ARENA_MAX=1`). With the
//! buffers allocated up front it reads 14.9-15.7.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::{block_overwrite, vectored, BlockStore, IoClass, StoreStats, BLOCK_SIZE};

/// Lock shards: adjacent blocks land on different shards so a
/// sequential scan does not serialize on one mutex.
const CACHE_SHARDS: usize = 8;

struct Entry {
    data: Bytes,
    dirty: bool,
    /// The class of the write that dirtied the entry — the write-back
    /// goes down as the same class, so timing-model inners keep
    /// charging metadata traffic as free.
    class: IoClass,
    /// LRU stamp from the store-wide counter.
    seq: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    /// Second-chance (clock) queue: exactly one `(idx, seq-at-queue)`
    /// record per cached block, pushed when the block *enters* the
    /// cache. A hit only bumps the entry's seq — no queue traffic, so
    /// the hot read path stays allocation-free. Eviction pops the
    /// front: a seq mismatch means the block was touched since it was
    /// queued, so it is re-queued with its current seq (the "second
    /// chance") instead of evicted. Amortized O(1) per eviction.
    clock: VecDeque<(u64, u64)>,
    /// Bumped on every write into this shard. A read's misses and the
    /// readahead prefetch are fetched from the inner store with *no*
    /// shard lock held; before inserting the fetched data they re-check
    /// this version — if a write landed in between, the fetch may
    /// predate it (and the written entry may already have been evicted,
    /// so a Vacant slot proves nothing), and caching it clean would
    /// serve stale bytes forever. A changed version skips the insert;
    /// the fetched data is still returned to the caller, which is
    /// linearizable for a read that overlapped the write.
    write_version: u64,
    /// Block buffers no entry holds (module docs, *Buffers*).
    spares: Vec<Vec<u8>>,
}

impl Shard {
    /// Queues a block that just entered the cache. Rewrites of an
    /// already-cached block keep their existing queue record (its seq
    /// mismatch acts as the touched bit).
    fn note_insert(&mut self, idx: u64, seq: u64, was_present: bool) {
        if !was_present {
            self.clock.push_back((idx, seq));
        }
    }

    /// Removes and returns the least-recently-used entry, giving
    /// touched-since-queued entries a second chance. Terminates: the
    /// caller holds the shard lock, so each entry is re-queued at most
    /// once per call before its seq matches.
    fn pop_lru(&mut self) -> Option<(u64, Entry)> {
        while let Some((idx, seq)) = self.clock.pop_front() {
            match self.map.get(&idx) {
                // Defensive: no current path removes a map entry
                // without popping its queue record.
                None => continue,
                Some(entry) if entry.seq != seq => {
                    let current = entry.seq;
                    self.clock.push_back((idx, current));
                }
                Some(_) => {
                    let entry = self.map.remove(&idx).expect("checked above");
                    return Some((idx, entry));
                }
            }
        }
        None
    }
}

/// `block` in a spare buffer, or in a fresh one when readers hold every
/// buffer the shard had.
fn pooled(spares: &mut Vec<Vec<u8>>, block: &[u8]) -> Bytes {
    match spares.pop() {
        Some(mut buf) => {
            buf.copy_from_slice(block);
            Bytes::from(buf)
        }
        None => Bytes::copy_from_slice(block),
    }
}

/// A sharded write-back LRU block cache wrapping an inner store.
pub struct CachedStore<S> {
    inner: S,
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    /// Sequential-readahead window in blocks (0 = disabled). See
    /// [`CachedStore::with_readahead`].
    readahead_window: usize,
    /// Last one-block data-read index (`u64::MAX` = none yet) — the
    /// stride detector's memory.
    ra_last: AtomicU64,
    /// Consecutive ascending-stride reads observed so far.
    ra_streak: AtomicU64,
    seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    readahead: AtomicU64,
    vectored_reads: AtomicU64,
    vectored_writes: AtomicU64,
    writeback_blocks: AtomicU64,
}

impl<S: BlockStore> CachedStore<S> {
    /// Wraps `inner` with a cache of roughly `capacity` blocks
    /// (rounded up to a multiple of the shard count, minimum one block
    /// per shard), with readahead disabled. The block buffers are
    /// allocated here (module docs, *Buffers*).
    pub fn new(inner: S, capacity: usize) -> CachedStore<S> {
        CachedStore::with_readahead(inner, capacity, 0)
    }

    /// Like [`CachedStore::new`] plus **sequential readahead**: once
    /// one-block data reads hit three consecutive ascending indices
    /// (two stride confirmations — one adjacent pair can be luck, a
    /// run is a scan) and the current read *missed*, the next `window`
    /// blocks are prefetched from the inner store in one call and
    /// inserted clean. Prefetched blocks served
    /// later count as ordinary cache hits, so the accounting invariant
    /// `cache_hits + cache_misses == reads issued` is untouched;
    /// [`StoreStats::readahead_blocks`] counts the prefetched traffic
    /// (zero for random access). A window of 0 disables readahead.
    pub fn with_readahead(inner: S, capacity: usize, window: usize) -> CachedStore<S> {
        let per_shard_capacity = capacity.div_ceil(CACHE_SHARDS).max(1);
        CachedStore {
            inner,
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        spares: (0..=per_shard_capacity)
                            .map(|_| vec![0; BLOCK_SIZE])
                            .collect(),
                        ..Shard::default()
                    })
                })
                .collect(),
            per_shard_capacity,
            readahead_window: window,
            ra_last: AtomicU64::new(u64::MAX),
            ra_streak: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            readahead: AtomicU64::new(0),
            vectored_reads: AtomicU64::new(0),
            vectored_writes: AtomicU64::new(0),
            writeback_blocks: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Blocks currently held dirty (not yet written back).
    #[cfg(test)]
    fn dirty_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map.values().filter(|e| e.dirty).count())
            .sum()
    }

    fn stamp(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn shard(&self, idx: u64) -> &Mutex<Shard> {
        &self.shards[(idx % CACHE_SHARDS as u64) as usize]
    }

    /// Evicts least-recently-used entries while the shard is over
    /// capacity, writing a dirty victim back first (under the shard
    /// lock, so no concurrent miss can read the pre-write-back state),
    /// and returns each victim's buffer to the spares unless a reader
    /// holds it.
    fn evict_overflow(&self, shard: &mut Shard) {
        while shard.map.len() > self.per_shard_capacity {
            let Some((victim, entry)) = shard.pop_lru() else {
                break;
            };
            if entry.dirty {
                self.writeback_blocks.fetch_add(1, Ordering::Relaxed);
                self.inner.write(entry.class, &[(victim, &entry.data)]);
            }
            if let Ok(buf) = entry.data.try_into_mut() {
                shard.spares.push(buf.into());
            }
        }
    }

    /// Caches a copy of `data` — fetched as `version`ed with no shard
    /// lock held — as a clean entry, unless a write landed in the shard
    /// since (resident or already evicted again, it is newer than the
    /// fetched bytes) or the block is already present (a concurrent
    /// fetch, or a duplicate index earlier in the same call). Returns
    /// whether it was inserted.
    fn insert_fetched(&self, idx: u64, version: u64, data: &[u8], class: IoClass) -> bool {
        let mut guard = self.shard(idx).lock();
        let shard = &mut *guard;
        if shard.write_version != version {
            return false;
        }
        let stamp = self.stamp();
        match shard.map.entry(idx) {
            MapEntry::Occupied(_) => return false,
            MapEntry::Vacant(slot) => slot.insert(Entry {
                data: pooled(&mut shard.spares, data),
                dirty: false,
                class,
                seq: stamp,
            }),
        };
        shard.note_insert(idx, stamp, false);
        self.evict_overflow(shard);
        true
    }

    /// The stride detector behind sequential readahead, fed by every
    /// one-block data read — an 8 KiB NFS READ; a longer read already
    /// batches its own extent. Hits keep the streak alive; only a miss
    /// triggers a prefetch (a scan inside the cached working set has
    /// nothing to fetch). Runs with no shard lock held: the window
    /// spans every cache shard, and the prefetch inserts take those
    /// locks one at a time.
    fn maybe_readahead(&self, idx: u64, missed: bool) {
        if self.readahead_window == 0 {
            return;
        }
        let prev = self.ra_last.swap(idx, Ordering::Relaxed);
        if prev == u64::MAX || idx != prev.wrapping_add(1) {
            self.ra_streak.store(0, Ordering::Relaxed);
            return;
        }
        let streak = self.ra_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if !missed || streak < 2 {
            // Three consecutive ascending reads before the first
            // prefetch: one adjacent pair can be luck, a run is a scan.
            return;
        }
        let start = idx + 1;
        let end = (start + self.readahead_window as u64).min(self.inner.block_count());
        let wanted: Vec<(u64, u64)> = (start..end)
            .filter_map(|b| {
                let shard = self.shard(b).lock();
                (!shard.map.contains_key(&b)).then_some((b, shard.write_version))
            })
            .collect();
        if wanted.is_empty() {
            return;
        }
        let idxs: Vec<u64> = wanted.iter().map(|(b, _)| *b).collect();
        let fetched = self.inner.read(IoClass::Data, &idxs);
        for ((b, version), data) in wanted.into_iter().zip(fetched) {
            if self.insert_fetched(b, version, &data, IoClass::Data) {
                self.readahead.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<S: BlockStore> BlockStore for CachedStore<S> {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    /// Hits are served under shard locks as handle clones; the misses —
    /// however many, wherever they land — are fetched from the inner
    /// store in **one** call with no shard lock held, then copied into
    /// the cache clean (`insert_fetched`); the caller gets the fetched
    /// handles.
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        self.vectored_reads
            .fetch_add(vectored(class, idxs.len()), Ordering::Relaxed);
        let mut out: Vec<Option<Bytes>> = vec![None; idxs.len()];
        let mut missed: Vec<(usize, u64, u64)> = Vec::new();
        for (pos, &idx) in idxs.iter().enumerate() {
            assert!(idx < self.inner.block_count(), "block {idx} out of range");
            let mut shard = self.shard(idx).lock();
            let stamp = self.stamp();
            if let Some(entry) = shard.map.get_mut(&idx) {
                entry.seq = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                out[pos] = Some(entry.data.clone());
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                missed.push((pos, idx, shard.write_version));
            }
        }
        let any_missed = !missed.is_empty();
        if any_missed {
            let wanted: Vec<u64> = missed.iter().map(|(_, idx, _)| *idx).collect();
            let fetched = self.inner.read(class, &wanted);
            for ((pos, idx, version), block) in missed.into_iter().zip(fetched) {
                self.insert_fetched(idx, version, &block, class);
                out[pos] = Some(block);
            }
        }
        if let (IoClass::Data, &[idx]) = (class, idxs) {
            self.maybe_readahead(idx, any_missed);
        }
        out.into_iter()
            .map(|block| block.expect("every position is a hit or a fetched miss"))
            .collect()
    }

    /// Each block lands dirty in its cache shard (the write-back cache
    /// absorbs the burst; the inner store sees it at flush or eviction,
    /// as the class it was written with): a cached block in the entry's
    /// own buffer when no reader holds it (`block_overwrite`), a new
    /// one in a spare buffer. Block 0 (the superblock) is written
    /// through so the clean-flag discipline survives: see the module
    /// docs.
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        self.vectored_writes
            .fetch_add(vectored(class, writes.len()), Ordering::Relaxed);
        for &(idx, data) in writes {
            assert!(idx < self.inner.block_count(), "block {idx} out of range");
            assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
            let mut guard = self.shard(idx).lock();
            let shard = &mut *guard;
            shard.write_version += 1;
            let stamp = self.stamp();
            let write_through = idx == 0;
            if write_through {
                self.inner.write(class, &[(idx, data)]);
            }
            let (entry, was_present) = match shard.map.entry(idx) {
                MapEntry::Occupied(slot) => {
                    let entry = slot.into_mut();
                    block_overwrite(&mut entry.data, data);
                    (entry, true)
                }
                MapEntry::Vacant(slot) => (
                    slot.insert(Entry {
                        data: pooled(&mut shard.spares, data),
                        dirty: false,
                        class,
                        seq: stamp,
                    }),
                    false,
                ),
            };
            entry.dirty = !write_through;
            entry.class = class;
            entry.seq = stamp;
            shard.note_insert(idx, stamp, was_present);
            self.evict_overflow(shard);
        }
    }

    /// Writes every dirty block back to the inner store (per shard, in
    /// block order), then forwards the flush so journaled inners apply
    /// their WAL. The write-backs happen *under each shard's lock*: an
    /// entry is only marked clean once its data has reached the inner
    /// store, so a concurrent eviction-then-miss on the same shard can
    /// never resurrect the backend's pre-flush content. Ordering note:
    /// block 0 is never dirty here (write-through), so the
    /// filesystem's clean-marker write — which `Ffs::sync` issues
    /// *after* this flush — always lands in the inner journal after
    /// every mutation it covers.
    fn flush(&self) -> std::io::Result<()> {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let mut dirty: Vec<u64> = shard
                .map
                .iter()
                .filter(|(_, e)| e.dirty)
                .map(|(&idx, _)| idx)
                .collect();
            dirty.sort_unstable();
            for idx in dirty {
                let entry = shard.map.get_mut(&idx).expect("dirty entry exists");
                self.inner.write(entry.class, &[(idx, &entry.data)]);
                entry.dirty = false;
            }
        }
        self.inner.flush()
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.inner.stats();
        stats.cache_hits += self.hits.load(Ordering::Relaxed);
        stats.cache_misses += self.misses.load(Ordering::Relaxed);
        stats.readahead_blocks += self.readahead.load(Ordering::Relaxed);
        stats.vectored_reads += self.vectored_reads.load(Ordering::Relaxed);
        stats.vectored_writes += self.vectored_writes.load(Ordering::Relaxed);
        stats.writeback_blocks += self.writeback_blocks.load(Ordering::Relaxed);
        stats
    }

    fn label(&self) -> &'static str {
        "cached"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimStore;

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    #[test]
    fn reads_are_served_from_cache_after_first_touch() {
        let clock = netsim::SimClock::new();
        let disk = SimStore::new(&clock, crate::DiskModel::quantum_fireball_ct10(), 16);
        let store = CachedStore::new(disk, 16);
        store.write_block(3, &block_of(7));
        // The write cached the block dirty: reads never reach the
        // inner store, so they cost no disk time.
        let before = clock.now();
        for _ in 0..10 {
            assert_eq!(store.read_block(3), block_of(7));
        }
        assert_eq!(clock.now(), before, "a hit is not charged");
        let stats = store.stats();
        assert_eq!(stats.cache_hits, 10);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.reads, 0, "inner store never saw a read");
    }

    #[test]
    fn an_unshared_cached_block_is_overwritten_in_place() {
        crate::check_overwrite_in_place(&CachedStore::new(SimStore::untimed(16), 16), 5);
    }

    /// The buffers shard `s` holds, in its entries and its spares.
    fn buffers(store: &CachedStore<SimStore>, s: usize) -> Vec<*const u8> {
        let shard = store.shards[s].lock();
        let mut ptrs: Vec<*const u8> = shard.map.values().map(|e| e.data.as_ptr()).collect();
        ptrs.extend(shard.spares.iter().map(|buf| buf.as_ptr()));
        ptrs.sort_unstable();
        ptrs
    }

    #[test]
    fn a_readers_handle_keeps_its_bytes_when_the_slot_is_reused() {
        // One block a shard: 1, 9, 17 and 25 all land on shard 1.
        let store = CachedStore::new(SimStore::untimed(64), 8);
        store.write_block(1, &block_of(1));
        let held = store.read_block(1);
        for idx in [9, 17, 25] {
            store.write_block(idx, &block_of(idx as u8));
        }
        assert!(!store.shards[1].lock().map.contains_key(&1), "block 1 left");
        assert!(
            !buffers(&store, 1).contains(&held.as_ptr()),
            "a buffer a reader holds never returns to the pool"
        );
        assert_eq!(held, block_of(1), "the reader's handle keeps its bytes");
        assert_eq!(store.read_block(1), block_of(1), "written back on eviction");
    }

    #[test]
    fn an_all_zero_write_keeps_its_pool_buffer() {
        let store = CachedStore::new(SimStore::untimed(64), 8);
        let pool = buffers(&store, 2);
        store.write_block(2, &block_of(0));
        assert_ne!(
            store.shards[2].lock().map[&2].data.as_ptr(),
            crate::zero_block().as_ptr(),
            "zeros are copied into a pool buffer, not shared"
        );
        // Each write evicts the shard's one block; none allocates.
        for idx in [10, 18] {
            store.write_block(idx, &block_of(idx as u8));
            assert_eq!(buffers(&store, 2), pool, "block {idx} reused a buffer");
        }
        assert_eq!(store.read_block(2), block_of(0));
    }

    #[test]
    fn writes_are_held_back_until_flush() {
        let store = CachedStore::new(SimStore::untimed(16), 16);
        store.write_block(5, &block_of(1));
        store.write_block(5, &block_of(2));
        store.write_block(5, &block_of(3));
        assert_eq!(store.stats().writes, 0, "writes absorbed by the cache");
        assert_eq!(store.dirty_blocks(), 1);
        store.flush().unwrap();
        assert_eq!(store.stats().writes, 1, "one write-back for three writes");
        assert_eq!(store.dirty_blocks(), 0);
        assert_eq!(store.inner().read_block(5), block_of(3));
    }

    #[test]
    fn block_zero_is_written_through() {
        let store = CachedStore::new(SimStore::untimed(16), 16);
        store.write_block_meta(0, &block_of(0x5B));
        assert_eq!(store.inner().read_block_meta(0), block_of(0x5B));
        assert_eq!(store.dirty_blocks(), 0);
        // And still cached for reads.
        assert_eq!(store.read_block_meta(0), block_of(0x5B));
        assert_eq!(store.stats().cache_hits, 1);
    }

    #[test]
    fn eviction_writes_dirty_victims_back() {
        // Capacity 8 over 8 shards = 1 block per shard: two dirty
        // blocks on the same shard force a write-back.
        let store = CachedStore::new(SimStore::untimed(64), 8);
        store.write_block(9, &block_of(9)); // shard 1
        store.write_block(17, &block_of(17)); // shard 1: evicts 9
        assert_eq!(
            store.inner().read_block(9),
            block_of(9),
            "victim written back"
        );
        assert_eq!(store.read_block(17), block_of(17));
        assert_eq!(
            store.read_block(9),
            block_of(9),
            "evicted block re-readable"
        );
    }

    #[test]
    fn overflow_writes_back_exactly_the_lru_dirty_victim() {
        // Capacity 512 over 8 shards = 64 per shard. Blocks ≡ 0 (mod 8)
        // all land on shard 0 (skipping block 0, which is write-through
        // and never dirty), so 65 dirty inserts overflow it by one.
        let store = CachedStore::new(SimStore::untimed(8192), 512);
        for i in 1..=65u64 {
            store.write_block(i * 8, &block_of(i as u8));
        }
        let stats = store.stats();
        assert_eq!(stats.writeback_blocks, 1);
        assert_eq!(stats.writes, 1, "inner saw exactly the victim");
        assert_eq!(store.inner().read_block(8), block_of(1), "the oldest");
        assert_eq!(store.dirty_blocks(), 64);
        // The evicted block is still readable (from the inner store).
        for i in 1..=65u64 {
            assert_eq!(store.read_block(i * 8), block_of(i as u8));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics_at_the_call_site() {
        // The BlockStore contract: out-of-range access panics
        // immediately, not later at flush/eviction time.
        CachedStore::new(SimStore::untimed(16), 64).write_block(40, &block_of(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics_at_the_call_site() {
        CachedStore::new(SimStore::untimed(16), 64).read_block(16);
    }

    #[test]
    fn vectored_read_partitions_hits_and_misses() {
        let inner = SimStore::untimed(32);
        for i in 0..32u64 {
            inner.write_block(i, &block_of(i as u8 + 1));
        }
        let store = CachedStore::new(inner, 32);
        // Warm half the working set.
        for i in (0..32u64).step_by(2) {
            store.read_block(i);
        }
        let before = store.stats();
        let idxs: Vec<u64> = (0..32).collect();
        let blocks = store.read_blocks(&idxs);
        for (i, block) in blocks.iter().enumerate() {
            assert_eq!(block, &block_of(i as u8 + 1));
        }
        let stats = store.stats();
        assert_eq!(stats.cache_hits - before.cache_hits, 16, "warm half hits");
        assert_eq!(stats.cache_misses - before.cache_misses, 16);
        assert_eq!(
            stats.vectored_reads - before.vectored_reads,
            2,
            "one call here, one forwarded miss fetch to the inner store"
        );
        // The misses are now cached: the same vectored read is all hits.
        let before = store.stats();
        store.read_blocks(&idxs);
        let stats = store.stats();
        assert_eq!(stats.cache_hits - before.cache_hits, 32);
        assert_eq!(stats.cache_misses, before.cache_misses);
    }

    #[test]
    fn sequential_scan_triggers_readahead_but_random_does_not() {
        let blocks = 256u64;
        let inner = SimStore::untimed(blocks);
        for i in 0..blocks {
            inner.write_block(i, &block_of((i % 251) as u8));
        }
        let store = CachedStore::with_readahead(inner, blocks as usize, 8);
        let mut issued = 0u64;
        for i in 0..blocks {
            assert_eq!(store.read_block(i), block_of((i % 251) as u8));
            issued += 1;
        }
        let stats = store.stats();
        assert!(
            stats.readahead_blocks > 0,
            "a sequential scan must prefetch: {stats:?}"
        );
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            issued,
            "readahead never distorts the hit/miss accounting"
        );
        assert!(
            stats.cache_hits > stats.cache_misses,
            "most of the scan is served from prefetched blocks: {stats:?}"
        );

        // Random access on a fresh instance: the stride never forms.
        let inner = SimStore::untimed(blocks);
        for i in 0..blocks {
            inner.write_block(i, &block_of((i % 251) as u8));
        }
        let store = CachedStore::with_readahead(inner, blocks as usize, 8);
        let mut x = 0xDEADBEEFu64;
        let mut issued = 0u64;
        for _ in 0..blocks {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            store.read_block(x % blocks);
            issued += 1;
        }
        let stats = store.stats();
        assert_eq!(stats.readahead_blocks, 0, "random access never prefetches");
        assert_eq!(stats.cache_hits + stats.cache_misses, issued);
    }

    #[test]
    fn readahead_is_off_by_default() {
        let store = CachedStore::new(SimStore::untimed(64), 64);
        assert_eq!(store.readahead_window, 0);
        for i in 0..64u64 {
            store.read_block(i);
        }
        assert_eq!(store.stats().readahead_blocks, 0);
        assert_eq!(store.stats().cache_misses, 64, "every first touch misses");
    }

    /// An inner store whose first fetch of `victim` races the cache
    /// that wraps it: while the fetch is "in flight" (no shard lock
    /// held), it writes newer data for `victim` through the cache and
    /// then forces that entry's eviction — so at insert time the
    /// victim's slot is vacant again, but the fetched bytes predate the
    /// write. The caches below are sized at one block per shard and
    /// `evictor` shares the victim's shard, so one extra write is a
    /// guaranteed eviction.
    struct RacyInner {
        inner: SimStore,
        cache: std::sync::OnceLock<std::sync::Weak<CachedStore<std::sync::Arc<RacyInner>>>>,
        fired: std::sync::atomic::AtomicBool,
        victim: u64,
        evictor: u64,
    }

    impl RacyInner {
        fn new(blocks: u64, victim: u64, evictor: u64) -> RacyInner {
            RacyInner {
                inner: SimStore::untimed(blocks),
                cache: std::sync::OnceLock::new(),
                fired: std::sync::atomic::AtomicBool::new(false),
                victim,
                evictor,
            }
        }
    }

    impl BlockStore for RacyInner {
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
            let out = self.inner.read(class, idxs);
            if idxs.contains(&self.victim) && !self.fired.swap(true, Ordering::SeqCst) {
                let cache = self
                    .cache
                    .get()
                    .and_then(|weak| weak.upgrade())
                    .expect("test wires the cache in before reading");
                cache.write_block(self.victim, &block_of(0xEE));
                cache.write_block(self.evictor, &block_of(0xF0));
            }
            out
        }
        fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
            self.inner.write(class, writes)
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
        fn label(&self) -> &'static str {
            "racy"
        }
    }
    use crate::StoreStats;
    use std::sync::Arc;

    /// The fetch returns the pre-write bytes — legal for a read that
    /// overlaps a write — but the cache must not have kept them: the
    /// racing write (already evicted down to the inner store) is newer.
    fn assert_racing_write_wins(read_victim: impl Fn(&CachedStore<Arc<RacyInner>>) -> Bytes) {
        let racy = Arc::new(RacyInner::new(64, 1, 9));
        racy.inner.write_block(1, &block_of(0x01)); // the stale bytes
        let cache = Arc::new(CachedStore::new(Arc::clone(&racy), 8));
        racy.cache.set(Arc::downgrade(&cache)).ok();
        assert_eq!(read_victim(&cache), block_of(0x01));
        assert_eq!(
            cache.read_block(1),
            block_of(0xEE),
            "a stale fetch must never be cached over a racing write"
        );
    }

    #[test]
    fn vectored_miss_never_caches_data_staler_than_a_racing_write() {
        assert_racing_write_wins(|cache| cache.read_blocks(&[2, 1, 3]).swap_remove(1));
    }

    /// A one-block read holds no shard lock across its fetch either:
    /// the version check has to cover it, in both classes.
    #[test]
    fn a_one_block_miss_never_caches_data_staler_than_a_racing_write() {
        assert_racing_write_wins(|cache| cache.read_block(1));
        assert_racing_write_wins(|cache| cache.read_block_meta(1));
    }

    #[test]
    fn readahead_never_caches_data_staler_than_a_racing_write() {
        let racy = Arc::new(RacyInner::new(64, 3, 11));
        for i in 0..8u64 {
            racy.inner.write_block(i, &block_of(i as u8 + 1));
        }
        let cache = Arc::new(CachedStore::with_readahead(Arc::clone(&racy), 8, 4));
        racy.cache.set(Arc::downgrade(&cache)).ok();
        // Three ascending one-block reads form the stride; the miss at
        // 2 prefetches [3, 7) — and the hook races a write to block 3
        // into that unlocked fetch.
        for i in 0..3u64 {
            assert_eq!(cache.read_block(i), block_of(i as u8 + 1));
        }
        let stats = cache.stats();
        assert_eq!(
            stats.readahead_blocks, 3,
            "blocks 4..7 prefetched; the raced block 3 skipped"
        );
        assert_eq!(
            cache.read_block(3),
            block_of(0xEE),
            "a stale prefetch must never be cached over a racing write"
        );
    }

    #[test]
    fn flush_forwards_to_the_inner_store() {
        let store = CachedStore::new(SimStore::untimed(8), 8);
        store.write_block(1, &block_of(1));
        store.flush().unwrap();
        store.flush().unwrap();
        // SimStore::flush is a no-op but the dirty set must be clear.
        assert_eq!(store.dirty_blocks(), 0);
    }
}
