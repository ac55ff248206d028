//! One volume striped across N inner block stores, with optional
//! per-shard worker threads.
//!
//! The ROADMAP's sharded block store: block `i` lives on shard
//! `i % N` at inner index `i / N`, so sequential block runs spread
//! round-robin across shards and every shard carries its own lock —
//! concurrent I/O to different shards never contends. Flushes run the
//! shards in parallel, which matters for persistent inners whose flush
//! does real disk work.
//!
//! # Per-shard worker threads (the parallel write path)
//!
//! Per-shard locking removes *contention*, but a single client still
//! drives one shard at a time: its thread executes every block's I/O
//! itself. [`ShardedStore::with_workers`] attaches one worker thread
//! per shard, each owning a **bounded** submission queue
//! ([`WORKER_QUEUE_DEPTH`] jobs — a slow shard back-pressures its
//! callers instead of buffering unbounded work). A multi-block
//! [`BlockStore::write`] partitions its block list by shard, submits
//! **one job per involved shard**, and joins the replies — so a single
//! client's streaming write burst executes on all N shards concurrently
//! ([`StoreStats::worker_jobs`] counts the jobs). `flush` goes through
//! the queues too.
//!
//! Reads never go to the workers: a multi-block [`BlockStore::read`]
//! makes one subcall per involved shard on the caller's thread. When
//! the workers served the benchmark's `stack_mixed` reads (a readahead
//! cache's 8-block prefetches), the blocks that became cache entries
//! were allocated in four more malloc arenas, each keeping its own
//! high-water mark: 21.4 MB resident against 19.4 MB inline, for the
//! same live heap and no measured gain.
//!
//! Ordering and shutdown guarantees:
//!
//! * A write returns only after every shard job completed, so a read
//!   (on its caller's thread, straight on the shards) that starts
//!   after it returned sees all of it.
//! * Per-shard job order equals submission order (the queue is FIFO),
//!   and within one job the shard applies blocks in the caller's
//!   order — so each shard's journal holds the same records in the
//!   same order as the workers-off path, byte-identical.
//! * `flush` is submitted as a job per shard and therefore drains
//!   everything queued before it; `Drop` disconnects the queues, lets
//!   each worker drain what remains, and joins the threads, so no job
//!   is still running when the shard stores are dropped.
//! * A write whose blocks all land on one shard skips the queue and
//!   runs inline — dispatch only pays off when there is parallelism
//!   to win.
//!
//! # Crash model
//!
//! Each shard journals independently; there is no
//! cross-shard commit record. A process crash — every shard's journal
//! intact on disk — replays completely and is covered by the test
//! matrix; a torn *single* shard journal replays to a record prefix of
//! that shard's write order, identical with workers on or off (the
//! property tests pin the journals byte-identical). Ordering *across*
//! shards is a multi-device failure the current design does not cover
//! (it would need a distributed commit record); the ROADMAP tracks
//! that as an open item.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use bytes::Bytes;

use crate::{vectored, BlockStore, IoClass, StoreStats};

/// Bounded submission-queue depth per worker: enough for a handful of
/// concurrent callers, small enough that a stalled shard back-pressures
/// instead of buffering unbounded block copies.
pub(crate) const WORKER_QUEUE_DEPTH: usize = 4;

/// A unit of work submitted to one shard's worker. Reads never are:
/// they run on the caller's thread (see the module docs).
enum Job {
    /// Write these `(shard-local index, block)` pairs in order.
    Write {
        class: IoClass,
        blocks: Vec<(u64, Bytes)>,
        reply: mpsc::Sender<()>,
    },
    /// Flush the shard (FIFO: drains everything queued before it).
    Flush {
        reply: mpsc::Sender<std::io::Result<()>>,
    },
}

/// The per-shard worker threads and their submission queues.
struct WorkerPool {
    senders: Vec<mpsc::SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

fn worker_loop(shard: Arc<dyn BlockStore>, jobs: mpsc::Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Write {
                class,
                blocks,
                reply,
            } => {
                let refs: Vec<(u64, &[u8])> =
                    blocks.iter().map(|(idx, data)| (*idx, &data[..])).collect();
                shard.write(class, &refs);
                // A dropped caller is not an error for the worker.
                let _ = reply.send(());
            }
            Job::Flush { reply } => {
                let _ = reply.send(shard.flush());
            }
        }
    }
}

/// A block store striping one volume across N inner stores.
pub struct ShardedStore {
    shards: Vec<Arc<dyn BlockStore>>,
    block_count: u64,
    flushes: AtomicU64,
    vectored_reads: AtomicU64,
    vectored_writes: AtomicU64,
    worker_jobs: AtomicU64,
    workers: Option<WorkerPool>,
}

impl ShardedStore {
    /// Stripes a volume of `block_count` blocks across `shards`,
    /// without worker threads (I/O runs on the caller's thread).
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
            worker_jobs: AtomicU64::new(0),
            workers: None,
        }
    }

    /// Like [`ShardedStore::new`], plus one worker thread per shard
    /// behind a bounded submission queue for multi-block writes and
    /// flushes; reads stay on the caller's thread (2.0 MB less resident
    /// set on `stack_mixed`). See the module docs for both, and for the
    /// ordering and shutdown guarantees.
    pub fn with_workers(shards: Vec<Arc<dyn BlockStore>>, block_count: u64) -> ShardedStore {
        let mut store = ShardedStore::new(shards, block_count);
        let mut senders = Vec::with_capacity(store.shards.len());
        let mut handles = Vec::with_capacity(store.shards.len());
        for shard in &store.shards {
            let (tx, rx) = mpsc::sync_channel(WORKER_QUEUE_DEPTH);
            let shard = Arc::clone(shard);
            senders.push(tx);
            handles.push(std::thread::spawn(move || worker_loop(shard, rx)));
        }
        store.workers = Some(WorkerPool { senders, handles });
        store
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

    fn submit(&self, shard: usize, job: Job) {
        let pool = self.workers.as_ref().expect("submit requires workers");
        self.worker_jobs.fetch_add(1, Ordering::Relaxed);
        pool.senders[shard]
            .send(job)
            .expect("shard worker thread alive");
    }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        if let Some(pool) = self.workers.take() {
            // Disconnect the queues first: each worker drains whatever
            // is still queued, then exits; joining here means the
            // workers' clones of the shard Arcs are gone and all work
            // has finished before the shards themselves are dropped.
            drop(pool.senders);
            for handle in pool.handles {
                handle.join().ok();
            }
        }
    }
}

impl BlockStore for ShardedStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    /// A one-block call is routed straight to its shard. A longer one
    /// is partitioned by shard, and each involved shard gets one inline
    /// subcall on the caller's thread, workers or not (see the module
    /// docs for why reads never go to the workers).
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

    /// Routed and partitioned like [`ShardedStore::read`]. With workers
    /// and ≥ 2 involved shards, one job per shard runs concurrently and
    /// the call joins them; each job carries a copy of its blocks (the
    /// bounded queue crosses a thread boundary). Otherwise each shard
    /// gets one inline subcall on the caller's slices. Per-shard order
    /// is the caller's order either way.
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        if let &[(idx, block)] = writes {
            let (shard, inner_idx) = self.route(idx);
            return shard.write(class, &[(inner_idx, block)]);
        }
        self.vectored_writes
            .fetch_add(vectored(class, writes.len()), Ordering::Relaxed);
        let per_shard = self.partition(writes.iter().map(|(idx, _)| *idx));
        if per_shard.len() > 1 && self.workers.is_some() {
            let mut pending: Vec<mpsc::Receiver<()>> = Vec::new();
            for (shard, positions, inner_idxs) in per_shard {
                let blocks: Vec<(u64, Bytes)> = inner_idxs
                    .into_iter()
                    .zip(positions)
                    .map(|(inner, pos)| (inner, Bytes::copy_from_slice(writes[pos].1)))
                    .collect();
                let (reply, rx) = mpsc::channel();
                self.submit(
                    shard,
                    Job::Write {
                        class,
                        blocks,
                        reply,
                    },
                );
                pending.push(rx);
            }
            for rx in pending {
                rx.recv().expect("shard worker reply");
            }
        } else {
            for (shard, positions, inner_idxs) in per_shard {
                let blocks: Vec<(u64, &[u8])> = inner_idxs
                    .into_iter()
                    .zip(positions)
                    .map(|(inner, pos)| (inner, writes[pos].1))
                    .collect();
                self.shards[shard].write(class, &blocks);
            }
        }
    }

    /// Flushes every shard **in parallel** — through the worker queues
    /// when attached (FIFO behind any submitted work, so the queues
    /// drain first), one scoped thread per shard otherwise — and
    /// returns the first error, if any.
    fn flush(&self) -> std::io::Result<()> {
        let results: Vec<std::io::Result<()>> = if self.workers.is_some() {
            let rxs: Vec<mpsc::Receiver<std::io::Result<()>>> = (0..self.shards.len())
                .map(|shard| {
                    let (reply, rx) = mpsc::channel();
                    self.submit(shard, Job::Flush { reply });
                    rx
                })
                .collect();
            rxs.into_iter()
                .map(|rx| rx.recv().expect("shard worker reply"))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|shard| scope.spawn(move || shard.flush()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard flush thread"))
                    .collect()
            })
        };
        for result in results {
            result?;
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Field-wise sum of the shard counters, except `flushes`, which
    /// reports sharded flush calls (each fans out to every shard); the
    /// store's own multi-block-call and worker-job counters are added on
    /// top of whatever its shards counted for the subcalls they
    /// received.
    fn stats(&self) -> StoreStats {
        let mut stats = self
            .shards
            .iter()
            .fold(StoreStats::default(), |acc, s| acc.merge(&s.stats()));
        stats.flushes = self.flushes.load(Ordering::Relaxed);
        stats.vectored_reads += self.vectored_reads.load(Ordering::Relaxed);
        stats.vectored_writes += self.vectored_writes.load(Ordering::Relaxed);
        stats.worker_jobs += self.worker_jobs.load(Ordering::Relaxed);
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
        for workers in [false, true] {
            let store = if workers {
                ShardedStore::with_workers(shards_of(4, 64), 64)
            } else {
                sharded(4, 64)
            };
            // A deliberately scattered write order over all four shards.
            let idxs = [7, 0, 63, 12, 33, 1, 42, 8];
            write_stamped(&store, &idxs, 1);
            // 8 blocks over 4 shards: one write job per shard.
            let jobs = if workers { 4 } else { 0 };
            assert_eq!(store.stats().worker_jobs, jobs, "workers={workers}");
            // Vectored read returns the blocks in the caller's order,
            // inline: no job.
            for (&idx, block) in idxs.iter().zip(store.read_blocks(&idxs)) {
                assert_eq!(block, stamped(idx, 1), "workers={workers}");
            }
            let stats = store.stats();
            assert!(stats.vectored_writes >= 1, "workers={workers}");
            assert_eq!(stats.worker_jobs, jobs, "workers={workers}");
        }
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

    #[test]
    fn inline_reads_see_worker_writes_once_they_return() {
        const ROUNDS: u64 = 200;
        let store = ShardedStore::with_workers(shards_of(4, 64), 64);
        let extent: Vec<u64> = (0..8).collect();
        write_stamped(&store, &extent, 1);
        // The last version whose write call has returned.
        let returned = AtomicU64::new(1);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for version in 2..=ROUNDS {
                    write_stamped(&store, &extent, version);
                    returned.store(version, Ordering::SeqCst);
                }
            });
            // Read until the writer has finished, then once more. A
            // writer that panics ends the loop too, and the scope
            // re-raises its panic.
            loop {
                let finished = writer.is_finished();
                let floor = returned.load(Ordering::SeqCst);
                for (&idx, block) in extent.iter().zip(store.read_blocks(&extent)) {
                    let version = u64::from_le_bytes(block[8..16].try_into().unwrap());
                    assert!(
                        (floor..=ROUNDS).contains(&version),
                        "block {idx} holds version {version}, {floor} had returned"
                    );
                    assert_eq!(block, stamped(idx, version), "block {idx}");
                }
                if finished {
                    break;
                }
            }
        });
        assert_eq!(returned.into_inner(), ROUNDS);
        // Every write job went to the workers; no read did.
        assert_eq!(store.stats().worker_jobs, 4 * ROUNDS);
    }

    #[test]
    fn single_shard_vectored_call_runs_inline() {
        let store = ShardedStore::with_workers(shards_of(4, 64), 64);
        // Blocks 0, 4, 8 all live on shard 0: no dispatch.
        let block = vec![9u8; BLOCK_SIZE];
        store.write_blocks(&[(0, &block), (4, &block), (8, &block)]);
        assert_eq!(store.stats().worker_jobs, 0, "single shard stays inline");
        assert_eq!(store.read_block(4), block);
    }

    #[test]
    fn worker_flush_drains_and_reaches_every_shard() {
        let store = ShardedStore::with_workers(shards_of(3, 30), 30);
        let block = vec![3u8; BLOCK_SIZE];
        let writes: Vec<(u64, &[u8])> = (0..30).map(|i| (i, block.as_slice())).collect();
        store.write_blocks(&writes);
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.flushes, 1);
        // One write job per shard plus one flush job per shard.
        assert_eq!(stats.worker_jobs, 6);
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
