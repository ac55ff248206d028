//! One volume striped across N inner block stores.
//!
//! The ROADMAP's sharded block store: block `i` lives on shard
//! `i % N` at inner index `i / N`, so sequential block runs spread
//! round-robin across shards and every shard carries its own lock —
//! concurrent I/O to different shards never contends. Flushes run the
//! shards in parallel, one scoped thread each, which matters for
//! persistent inners whose flush does real disk work (`sync_data`,
//! about 11-12 ms a flush on the benchmark's `stack_mixed`).
//!
//! # One I/O path
//!
//! Reads and writes run on the caller's thread: a one-block call goes
//! straight to its shard, and a longer one makes one subcall per
//! involved shard, each carrying that shard's blocks in the caller's
//! order. So each shard's journal holds its blocks' records in the
//! order the caller wrote them, and a read that starts after a write
//! returned sees all of it.
//!
//! Reads stay on the caller's thread because the thread that reads a
//! block is the one whose malloc arena ends up holding it once a cache
//! above keeps it. When per-shard workers served the benchmark's
//! `stack_mixed` reads (a readahead cache's 8-block prefetches), the
//! blocks that became cache entries were allocated in four more malloc
//! arenas, each keeping its own high-water mark: 21.4 MB resident
//! against 19.4 MB inline, for the same live heap and no measured gain.
//! Writes stay there too: the cache above the benchmark's sharded store
//! hands it one block a write, so a thread per shard would have no
//! multi-block write to run in parallel.
//!
//! # Crash model
//!
//! Each shard journals independently; there is no
//! cross-shard commit record. A process crash — every shard's journal
//! intact on disk — replays completely and is covered by the test
//! matrix; a torn *single* shard journal replays to a record prefix of
//! that shard's write order (a property test tears one at every
//! record). Ordering *across* shards is a multi-device failure the
//! current design does not cover (it would need a distributed commit
//! record); the ROADMAP tracks that as an open item.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::{vectored, BlockStore, IoClass, StoreStats};

/// A block store striping one volume across N inner stores.
pub struct ShardedStore {
    shards: Vec<Arc<dyn BlockStore>>,
    block_count: u64,
    flushes: AtomicU64,
    vectored_reads: AtomicU64,
    vectored_writes: AtomicU64,
}

impl ShardedStore {
    /// Stripes a volume of `block_count` blocks across `shards`.
    ///
    /// Every shard must hold at least `ceil(block_count / N)` blocks
    /// (the builder in [`crate::StoreBackend::Sharded`] sizes them
    /// that way).
    ///
    /// # Panics
    ///
    /// Panics on zero shards or an undersized shard.
    pub fn new(shards: Vec<Arc<dyn BlockStore>>, block_count: u64) -> ShardedStore {
        assert!(!shards.is_empty(), "sharded store needs at least one shard");
        let per_shard = block_count.div_ceil(shards.len() as u64);
        for (i, shard) in shards.iter().enumerate() {
            assert!(
                shard.block_count() >= per_shard,
                "shard {i} holds {} blocks, needs {per_shard}",
                shard.block_count()
            );
        }
        ShardedStore {
            shards,
            block_count,
            flushes: AtomicU64::new(0),
            vectored_reads: AtomicU64::new(0),
            vectored_writes: AtomicU64::new(0),
        }
    }

    /// Which shard serves block `idx` — exposed so tests can pin the
    /// routing function (every block maps to exactly one shard).
    pub fn shard_of(&self, idx: u64) -> usize {
        (idx % self.shards.len() as u64) as usize
    }

    /// Per-shard counter snapshots (figures, routing tests).
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    fn route(&self, idx: u64) -> (&Arc<dyn BlockStore>, u64) {
        assert!(idx < self.block_count, "block {idx} out of range");
        let n = self.shards.len() as u64;
        (&self.shards[(idx % n) as usize], idx / n)
    }

    /// Splits a block list into `(shard, output positions, shard-local
    /// indices)` sublists, one per involved shard, preserving the
    /// caller's order within each.
    fn partition(&self, idxs: impl Iterator<Item = u64>) -> Vec<(usize, Vec<usize>, Vec<u64>)> {
        let n = self.shards.len() as u64;
        let mut per_shard: Vec<(usize, Vec<usize>, Vec<u64>)> = (0..self.shards.len())
            .map(|shard| (shard, Vec::new(), Vec::new()))
            .collect();
        for (pos, idx) in idxs.enumerate() {
            assert!(idx < self.block_count, "block {idx} out of range");
            let (_, positions, inner) = &mut per_shard[(idx % n) as usize];
            positions.push(pos);
            inner.push(idx / n);
        }
        per_shard.retain(|(_, positions, _)| !positions.is_empty());
        per_shard
    }
}

impl BlockStore for ShardedStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    /// A one-block call is routed straight to its shard. A longer one
    /// is partitioned by shard, and each involved shard gets one
    /// subcall on the caller's thread (see the module docs).
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        if let &[idx] = idxs {
            let (shard, inner_idx) = self.route(idx);
            return shard.read(class, &[inner_idx]);
        }
        self.vectored_reads
            .fetch_add(vectored(class, idxs.len()), Ordering::Relaxed);
        let mut out: Vec<Option<Bytes>> = vec![None; idxs.len()];
        for (shard, positions, inner_idxs) in self.partition(idxs.iter().copied()) {
            let blocks = self.shards[shard].read(class, &inner_idxs);
            for (pos, block) in positions.into_iter().zip(blocks) {
                out[pos] = Some(block);
            }
        }
        out.into_iter()
            .map(|block| block.expect("every position served by exactly one shard"))
            .collect()
    }

    /// Routed and partitioned like [`ShardedStore::read`]: each
    /// involved shard gets one subcall on the caller's slices, in the
    /// caller's order.
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        if let &[(idx, block)] = writes {
            let (shard, inner_idx) = self.route(idx);
            return shard.write(class, &[(inner_idx, block)]);
        }
        self.vectored_writes
            .fetch_add(vectored(class, writes.len()), Ordering::Relaxed);
        for (shard, positions, inner_idxs) in self.partition(writes.iter().map(|(idx, _)| *idx)) {
            let blocks: Vec<(u64, &[u8])> = inner_idxs
                .into_iter()
                .zip(positions)
                .map(|(inner, pos)| (inner, writes[pos].1))
                .collect();
            self.shards[shard].write(class, &blocks);
        }
    }

    /// Flushes every shard **in parallel**, one scoped thread per
    /// shard, and returns the first error, if any. Every shard is
    /// flushed whatever another returns; only a flush of them all
    /// counts in `flushes`.
    fn flush(&self) -> std::io::Result<()> {
        let results: Vec<std::io::Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || shard.flush()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard flush thread"))
                .collect()
        });
        for result in results {
            result?;
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Field-wise sum of the shard counters, except `flushes`, which
    /// reports sharded flush calls (each fans out to every shard); the
    /// store's own multi-block-call counters are added on top of
    /// whatever its shards counted for the subcalls they received.
    fn stats(&self) -> StoreStats {
        let mut stats = self
            .shards
            .iter()
            .fold(StoreStats::default(), |acc, s| acc.merge(&s.stats()));
        stats.flushes = self.flushes.load(Ordering::Relaxed);
        stats.vectored_reads += self.vectored_reads.load(Ordering::Relaxed);
        stats.vectored_writes += self.vectored_writes.load(Ordering::Relaxed);
        stats
    }

    fn label(&self) -> &'static str {
        "sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimStore, BLOCK_SIZE};

    fn sharded(n: usize, total: u64) -> ShardedStore {
        ShardedStore::new(shards_of(n, total), total)
    }

    fn shards_of(n: usize, total: u64) -> Vec<Arc<dyn BlockStore>> {
        let per = total.div_ceil(n as u64);
        (0..n)
            .map(|_| Arc::new(SimStore::untimed(per)) as Arc<dyn BlockStore>)
            .collect()
    }

    #[test]
    fn stripes_round_robin_and_reads_back() {
        let store = sharded(4, 64);
        for i in 0..64u64 {
            let mut block = vec![0u8; BLOCK_SIZE];
            block[0] = i as u8;
            store.write_block(i, &block);
        }
        for i in 0..64u64 {
            assert_eq!(store.read_block(i)[0], i as u8);
        }
        // Exactly one write landed on a shard per block, evenly.
        let per_shard: Vec<u64> = store.shard_stats().iter().map(|s| s.writes).collect();
        assert_eq!(per_shard, vec![16, 16, 16, 16]);
        assert_eq!(store.stats().writes, 64);
    }

    #[test]
    fn every_block_maps_to_exactly_one_shard() {
        let store = sharded(3, 31);
        for i in 0..31u64 {
            assert_eq!(store.shard_of(i), (i % 3) as usize);
        }
    }

    #[test]
    fn parallel_flush_reaches_every_shard() {
        let store = sharded(4, 16);
        store.write_block(1, &vec![1u8; BLOCK_SIZE]);
        store.flush().unwrap();
        assert_eq!(store.stats().flushes, 1);
    }

    #[test]
    fn vectored_ops_scatter_and_gather_in_caller_order() {
        let store = sharded(4, 64);
        // A deliberately scattered write order over all four shards.
        let idxs = [7, 0, 63, 12, 33, 1, 42, 8];
        write_stamped(&store, &idxs, 1);
        // The read returns the blocks in the caller's order.
        for (&idx, block) in idxs.iter().zip(store.read_blocks(&idxs)) {
            assert_eq!(block, stamped(idx, 1));
        }
        // One subcall per involved shard: shards 0, 1 and 3 get two or
        // three blocks each, counted as a vectored write by both layers.
        let per_shard: Vec<u64> = store.shard_stats().iter().map(|s| s.writes).collect();
        assert_eq!(per_shard, vec![3, 2, 1, 2]);
        assert_eq!(store.stats().vectored_writes, 1 + 3);
    }

    /// A block of `idx` as write number `version` left it.
    fn stamped(idx: u64, version: u64) -> Vec<u8> {
        let mut block = vec![version as u8; BLOCK_SIZE];
        block[..8].copy_from_slice(&idx.to_le_bytes());
        block[8..16].copy_from_slice(&version.to_le_bytes());
        block
    }

    /// Writes every block of `idxs` as write number `version`, in one call.
    fn write_stamped(store: &ShardedStore, idxs: &[u64], version: u64) {
        let blocks: Vec<Vec<u8>> = idxs.iter().map(|&i| stamped(i, version)).collect();
        let writes: Vec<(u64, &[u8])> = idxs
            .iter()
            .zip(&blocks)
            .map(|(&i, b)| (i, &b[..]))
            .collect();
        store.write_blocks(&writes);
    }

    /// A shard that counts its flushes and, when `fails`, returns an
    /// error from each.
    struct FlushProbe {
        inner: SimStore,
        fails: bool,
        flushed: AtomicU64,
    }

    impl BlockStore for FlushProbe {
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
            self.inner.read(class, idxs)
        }
        fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
            self.inner.write(class, writes)
        }
        fn flush(&self) -> std::io::Result<()> {
            self.flushed.fetch_add(1, Ordering::SeqCst);
            if self.fails {
                return Err(std::io::Error::other("shard disk gone"));
            }
            Ok(())
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
        fn label(&self) -> &'static str {
            "flush-probe"
        }
    }

    #[test]
    fn a_failed_shard_flush_is_returned_after_every_shard_flushed() {
        let probes: Vec<Arc<FlushProbe>> = (0..4)
            .map(|shard| {
                Arc::new(FlushProbe {
                    inner: SimStore::untimed(4),
                    fails: shard == 2,
                    flushed: AtomicU64::new(0),
                })
            })
            .collect();
        let store = ShardedStore::new(
            probes
                .iter()
                .map(|p| Arc::clone(p) as Arc<dyn BlockStore>)
                .collect(),
            16,
        );
        let err = store
            .flush()
            .expect_err("shard 2's error reaches the caller");
        assert_eq!(err.to_string(), "shard disk gone");
        let flushed: Vec<u64> = probes
            .iter()
            .map(|p| p.flushed.load(Ordering::SeqCst))
            .collect();
        assert_eq!(flushed, vec![1, 1, 1, 1], "every shard was flushed");
        assert_eq!(store.stats().flushes, 0, "a failed flush is not counted");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        sharded(2, 10).read_block(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_vectored_panics() {
        sharded(2, 10).read_blocks(&[3, 10]);
    }
}
