//! `store` — the pluggable block-store subsystem.
//!
//! The paper's DisCFS prototype kept files on one local disk. This
//! crate turns the storage layer into an abstraction the rest of the
//! stack programs against: a [`BlockStore`] trait for 8 KB
//! block-addressed devices, two base backends, and three composable
//! wrappers spanning the design space the ROADMAP's production
//! north-star needs.
//!
//! # Base backends
//!
//! * [`SimStore`] — the original simulated timing-model disk
//!   (seek/rotation/transfer charged to a shared [`netsim::SimClock`]);
//!   the default for paper-figure reproduction. It holds only the
//!   blocks once written non-zero, so a volume costs memory for its
//!   data, not for its size: an unwritten 256 MiB volume held 778 KB
//!   of handles, one for each block, before.
//! * [`FileStore`] — a persistent file-backed store with a write-ahead
//!   journal: every write is appended (checksummed) to the journal
//!   before the data file is touched, so a crash mid-update replays
//!   cleanly on reopen. A write's record is on the journal file when
//!   the call returns: one append per call, however many blocks. The
//!   journal is also the dirty buffer: an un-flushed block is read back
//!   from its record, and memory holds only its offset.
//!
//! # Wrappers
//!
//! * [`EncryptedStore`] — encryption at rest over any other backend:
//!   a per-block ChaCha20 keystream under a key derived with
//!   HMAC-SHA256.
//! * [`CachedStore`] — a sharded write-back LRU buffer cache over any
//!   backend: repeated reads are served from memory as cheap handle
//!   clones, writes are held dirty until `flush`/eviction, and the
//!   superblock (block 0) is written through so the filesystem's
//!   clean-flag discipline survives composition.
//! * [`ShardedStore`] — stripes one volume's blocks across N inner
//!   stores (`idx % N`), giving per-shard locking and a parallel
//!   flush — the ROADMAP's sharded block store.
//!
//! # One I/O path
//!
//! Every block moves through one pair of trait methods,
//! [`BlockStore::read`] and [`BlockStore::write`]: a call names its
//! [`IoClass`] and carries a whole extent, so a backend takes its
//! lock, appends to its journal and makes its RPC once per call, and a
//! one-block call is the same code with a run of one. `ffs` issues one
//! call per file operation's extent.
//!
//! Reads return [`Bytes`] handles — reference-counted views, not
//! copies. The in-memory backends keep their blocks as handles, so a
//! read costs a refcount bump per block and the `Vec` of handles (32
//! bytes a block): **no block-sized allocation and no 8 KB copy**
//! (`tests/zero_copy.rs` proves it with a byte-counting allocator).
//! Callers that need a mutable view use [`BlockStore::read_block_into`]
//! or `Bytes::to_vec`; holes and fresh blocks share [`zero_block`].
//!
//! What a backend does with a call is in its own docs: [`FileStore`]
//! appends a write's records in one `write` (a call is a durability
//! unit); [`CachedStore`] fetches a read's misses in one inner call
//! with no shard lock held, and prefetches when one-block data reads
//! form an ascending stride ([`StoreBackend::CachedReadahead`]);
//! [`SimStore`] charges an ascending run one seek ([`DiskModel::run_cost`])
//! whether it arrives as one call or as N;
//! [`ShardedStore`] routes a one-block call to its shard and splits a
//! longer one into one subcall per involved shard, all on the caller's
//! thread; only its flush fans out, one scoped thread per shard.
//! `StoreStats::vectored_reads` / `vectored_writes` count the calls
//! that carried more than one data block, at each layer that received
//! them.
//!
//! # Buffers
//!
//! Spare 8 KiB block buffers are one bounded pool per volume stack that
//! [`StoreBackend::build`] builds. A block that needs a buffer of its
//! own draws from it: an overwrite of a shared or zero block in the
//! sim, cached and replicated stores, and every block entering a
//! [`CachedStore`], which reserves its capacity in the pool when it is
//! built and returns an evicted block's buffer. [`ReplicatedStore`]
//! recycles into it: the blocks an epoch commits, and the writes
//! [`ReplicatedStore::reacquire`] discards. Only a whole block no
//! reader holds goes in, and the pool keeps at most two calls' worth
//! (254 buffers; one epoch on three nodes with two replicas is about
//! 190 blocks) beyond what caches reserved, and frees the rest.
//!
//! The pool is for the resident set. glibc's malloc keeps an arena per
//! thread, and a thread cannot reuse what another thread's arena holds
//! free. The replicated write-back buffer is filled on engine workers,
//! and the nodes' copies are made on the syncing thread, so while each
//! committed block went back to a worker's arena, `repl_mixed`'s first
//! sync took every node copy fresh and `peak_rss_mb` read 57.1-57.4 MB
//! (43.6-44.0 under `MALLOC_ARENA_MAX=1`). With the committed blocks
//! becoming the next epoch's node copies it read about 45.2, and about
//! 44.1 since the three nodes' simulated disks hold only the blocks
//! written; 55.6-55.9 with no pool, or one the nodes' stores did not
//! share.
//!
//! # Distributed volume tier
//!
//! The paper's DisCFS is a *distributed* filesystem; this tier puts
//! the block layer itself behind simulated network boundaries:
//!
//! * [`BlockServer`] serves any backend as an ONC-RPC program, framed
//!   and checksummed as NFS is — one simulated storage node, answering
//!   each call on the caller's thread at the far end of a
//!   [`NodeLink`].
//! * [`RemoteStore`] is the client: a [`BlockStore`] whose every call
//!   is one RPC for each 127 blocks (every message fits
//!   [`onc_rpc::frame::DEFAULT_MAX_FRAME`], as on the NFS path), with
//!   per-node timeout/retry and a **dead-node latch** once the link
//!   fails. It is [`ReplicatedStore`]'s node client; no preset mounts
//!   a bare one.
//! * [`ReplicatedStore`] stripes one volume R-way across N nodes with
//!   **epoch-stamped commits**: a flush is one or more epochs, each a
//!   block-order prefix of the buffer whose share lands on every node
//!   as one call, one journaled durability unit whose last record
//!   stamps the epoch, so a node torn mid-epoch replays to the
//!   *previous* epoch and reopening rebuilds it from the fresh
//!   replicas — the volume always recovers to one consistent epoch,
//!   never a mix of old and new shards (a flush torn between its
//!   epochs keeps a prefix of its writes, which the filesystem's dirty
//!   marker already covers). A node death is detected on the failing
//!   RPC, reads fail over to the next serving replica
//!   ([`StoreStats::replica_reads`]), and the dead node's replica set
//!   is rebuilt onto a spare ([`StoreStats::rebuilds`]). The
//!   [`StoreBackend::Replicated`] preset builds the whole fleet.
//!
//! Wire traffic shows up in the stats ([`StoreStats::rpc_calls`],
//! [`StoreStats::bytes_on_wire`], [`StoreStats::retries`]) and is
//! charged to the shared [`netsim::SimClock`], so virtual-time figures
//! capture network latency and serialization alongside disk time.
//!
//! # Failure model
//!
//! The distributed tier is built to survive a *lossy* network, not
//! just a cleanly-severed one. Three layers cooperate:
//!
//! **Faults.** Any netsim link can carry a seeded
//! [`netsim::FaultPlan`]: per-message drop and duplicate
//! probabilities, extra delay jitter, scheduled partition windows
//! (`partition(from, until)` on the virtual clock), and a `flap(n)`
//! test hook that drops exactly the next `n` sends. Injected faults
//! (drops and duplicates — jitter is charged, not counted) surface as
//! [`StoreStats::faults_injected`]. The wire protocol is fault-safe by
//! construction: every request carries a fresh req-id, so a stale or
//! duplicated reply is drained and ignored, and re-sent block writes
//! are idempotent.
//!
//! **Retry and death.** [`RemoteStore`] re-sends a timed-out attempt
//! at once, with no backoff between attempts, counting
//! [`StoreStats::retries`]; a timed-out attempt costs its
//! [`RemoteOptions::timeout`] on the virtual clock, never on the wall.
//! Only when the attempts' timeouts add up to
//! [`RemoteOptions::deadline`] is the node declared dead, and death is
//! **not terminal**: the latch records a `DeadCause`. A `Timeout`
//! looks like loss or a partition, so the replicated tier puts the
//! node in *probation* and periodically probes it with a cheap
//! un-retried length RPC (`RemoteStore::probe`); a successful probe
//! revives the node
//! ([`StoreStats::nodes_revived`]). If its epoch record matches the
//! committed epoch it rejoins live with **no data copied**; if it
//! missed commits it is re-synced from its peers first. A
//! `Disconnected`/`Protocol` cause means the process is gone — only a
//! spare-rebuild brings the data back.
//!
//! **Background rebuild.** The operation that detects a death only
//! marks the node and enqueues the lost replica set; a rate-limited
//! rebuilder ([`RebuildConfig`]: `blocks_per_tick` copies per
//! `tick_interval` of virtual time, one read call per source node and
//! one write call a chunk) drains the queue off the hot path while
//! degraded reads keep failing over. Mount recovery drains the same
//! queue, unmetered, before the volume opens. The backlog is observable
//! as [`StoreStats::rebuild_backlog`]; a completed rebuild stamps the
//! node's epoch record *last*, so a torn rebuild reads as stale and is
//! simply redone. See the `remote` and `replicated` module docs for
//! the full protocol.
//!
//! **Leases and fencing.** With more than one front-end, idempotence
//! is no longer enough: a coordinator that lost ownership during a
//! partition must not land *any* write on a healed node. Each storage
//! node keeps a `(coordinator_id, fence_token)` lease
//! ([`NodeLease`]) with a virtual-clock expiry. The invariants:
//!
//! - **Who may write:** any client whose stamped token is ≥ the node's
//!   granted token. Token 0 vs token 0 is the unleased legacy mode —
//!   single-coordinator presets never touch leases and keep working.
//! - **What bumps the token:** only a *fresh* grant through
//!   [`RemoteStore::try_acquire_lease`] — first lease, takeover, or
//!   post-expiry re-acquisition. The node's counter is monotonic for
//!   its lifetime; expiry alone never lowers or reuses a token, so a
//!   frame stamped under a superseded lease is always recognizable.
//!   Renewal — and re-acquisition by the unexpired current holder,
//!   e.g. a retransmitted acquire frame — extends expiry without
//!   bumping.
//! - **Why a fenced write is never partially applied:** the server
//!   checks the token *before touching the store*, and one mutating
//!   frame (a write of any length, or a flush) is applied by one serve
//!   loop in one step — so a frame is either entirely below the fence
//!   (rejected with [`RemoteError::Fenced`], store untouched) or
//!   entirely at it.
//!
//! A `Fenced` reply is a server verdict, not a network failure: the
//! client counts it in [`StoreStats::fenced`], does **not** retry, and
//! does not declare the node dead. [`ReplicatedStore`] reacts by
//! latching the whole volume read-only until
//! [`ReplicatedStore::reacquire`] wins a fresh lease and re-syncs.
//! Epoch flushes commit on a *majority* of each block's replica set
//! acking under the current token (the minority goes to
//! probation/rebuild instead of blocking the flush), and a read that
//! observes a replica behind the committed epoch schedules a
//! read-repair through the rebuild queue, counted as
//! [`StoreStats::read_repairs`].
//!
//! Backend choice is threaded through the stack as a [`StoreBackend`]
//! value (`ffs::Ffs::format_backend`, `discfs::Testbed::with_backend`),
//! so benchmarks can compare backends without touching filesystem
//! code. Wrapper presets nest:
//! `StoreBackend::Cached { inner: Box::new(StoreBackend::Sharded {
//! .. }), .. }` builds a buffer cache over a sharded volume.
//!
//! # Example
//!
//! ```
//! use store::{BlockStore, CachedStore, SimStore, BLOCK_SIZE};
//!
//! let store = CachedStore::new(SimStore::untimed(128), 16);
//! let block = vec![0xAB; BLOCK_SIZE];
//! store.write_block(0, &block);
//! assert_eq!(store.read_block(0), block); // served from the cache
//! let stats = store.stats();
//! assert_eq!(stats.cache_hits, 1);
//! assert!(stats.cache_hit_ratio() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cached;
mod encrypted;
mod file;
mod remote;
mod replicated;
mod sharded;
mod sim;

pub use bytes::Bytes;
pub use cached::CachedStore;
pub use encrypted::EncryptedStore;
#[doc(hidden)]
pub use file::temp_dir_for_tests;
pub use file::{FileStore, JOURNAL_RECORD_LEN};
pub use remote::{
    BlockServer, LeaseGrant, NodeLease, NodeLink, RemoteError, RemoteOptions, RemoteStore,
};
pub use replicated::{RebuildConfig, ReplicatedStore};
pub use sharded::ShardedStore;
pub use sim::{DiskModel, SimStore};

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use bytes::BytesMut;
use netsim::SimClock;
use parking_lot::Mutex;

/// Block size shared by every backend: 8 KB, the classic NFSv2
/// transfer size.
pub const BLOCK_SIZE: usize = 8192;

/// The shared all-zero block: one allocation for the whole process,
/// cloned as a cheap handle wherever a hole or freshly-allocated block
/// is read. Backends return it instead of materializing zeros.
pub fn zero_block() -> Bytes {
    static ZERO: OnceLock<Bytes> = OnceLock::new();
    ZERO.get_or_init(|| Bytes::from(vec![0u8; BLOCK_SIZE]))
        .clone()
}

/// The most spare buffers a [`BlockPool`] keeps beside what a cache
/// reserves in it: two calls' worth, so one replicated epoch's
/// committed blocks (about 190 on three nodes with two replicas) all
/// wait for the next epoch's node copies.
const SPARE_BOUND: usize = 2 * remote::CALL_BLOCKS;

/// One volume's spare block buffers (crate docs, *Buffers*): a bounded
/// free list behind one mutex, cloned as a handle. A store built by its
/// own public constructor has a pool of its own.
///
/// Lock order: the mutex is a leaf. It is taken under a cache shard
/// lock, a [`SimStore`]'s state lock or the replicated state lock, and
/// takes no lock itself.
#[derive(Clone)]
pub(crate) struct BlockPool(Arc<Mutex<Spares>>);

struct Spares {
    free: Vec<BytesMut>,
    /// The most buffers `free` keeps: [`SPARE_BOUND`] plus every
    /// reservation.
    bound: usize,
}

impl BlockPool {
    /// An empty pool bounded at [`SPARE_BOUND`].
    pub(crate) fn new() -> BlockPool {
        BlockPool(Arc::new(Mutex::new(Spares {
            free: Vec::new(),
            bound: SPARE_BOUND,
        })))
    }

    /// Allocates `n` zeroed buffers on the calling thread, adds them to
    /// the pool and raises its bound by as many.
    pub(crate) fn reserve(&self, n: usize) {
        let bufs: Vec<BytesMut> = (0..n).map(|_| BytesMut::zeroed(BLOCK_SIZE)).collect();
        let mut spares = self.0.lock();
        spares.bound += n;
        spares.free.extend(bufs);
    }

    /// `block` in a spare buffer, or in a fresh one when the pool is
    /// empty.
    pub(crate) fn copy(&self, block: &[u8]) -> Bytes {
        let spare = self.0.lock().free.pop();
        match spare {
            Some(mut buf) if buf.len() == block.len() => {
                buf.copy_from_slice(block);
                buf.freeze()
            }
            _ => Bytes::copy_from_slice(block),
        }
    }

    /// Keeps `block`'s buffer when it is a whole block no reader holds
    /// and the pool has room; otherwise drops it.
    pub(crate) fn recycle(&self, block: Bytes) {
        if let Ok(buf) = block.try_into_mut() {
            if buf.len() == BLOCK_SIZE {
                let mut spares = self.0.lock();
                if spares.free.len() < spares.bound {
                    spares.free.push(buf);
                }
            }
        }
    }

    /// Stores `block` in `slot`, in the slot's own buffer when nothing
    /// else holds that buffer: an overwrite of a block no reader has a
    /// handle to reuses its allocation. A buffer some reader still
    /// holds (or the zero block) is never mutated; the slot then gets
    /// the shared [`zero_block`] when `block` is all zeros, else a copy
    /// in a spare buffer ([`BlockPool::copy`]).
    ///
    /// An unshared buffer keeps its allocation through an all-zero
    /// write too: `ffs` zeroes every block it allocates just before it
    /// writes the block's data, so a file rewritten block by block
    /// would otherwise free and reallocate each block on every pass.
    /// The zero test reads 16 bytes at a time: testing byte by byte
    /// made volume setup slower than copying the zeros did.
    pub(crate) fn overwrite(&self, slot: &mut Bytes, block: &[u8]) {
        let old = std::mem::replace(slot, zero_block());
        *slot = match old.try_into_mut() {
            Ok(mut buf) if buf.len() == block.len() => {
                buf.copy_from_slice(block);
                buf.freeze()
            }
            _ if block
                .chunks_exact(16)
                .all(|word| u128::from_ne_bytes(word.try_into().expect("16 bytes")) == 0) =>
            {
                zero_block()
            }
            _ => self.copy(block),
        };
    }

    /// Where the buffers the pool holds start.
    #[cfg(test)]
    pub(crate) fn spares(&self) -> Vec<*const u8> {
        self.0.lock().free.iter().map(|buf| buf.as_ptr()).collect()
    }
}

/// Checks [`BlockPool::overwrite`]'s rule through `store`'s own calls at
/// block `idx`, which no flush may move out of the store's hands
/// in between: an overwrite of an unshared block keeps its
/// allocation, zeros included; a reader's earlier handle keeps the
/// old bytes; and an all-zero write over a shared block is the shared
/// zero block.
#[cfg(test)]
pub(crate) fn check_overwrite_in_place(store: &dyn BlockStore, idx: u64) {
    let read = || store.read(IoClass::Data, &[idx]).remove(0);
    let write = |byte: u8| store.write(IoClass::Data, &[(idx, &[byte; BLOCK_SIZE][..])]);
    let filled = |block: &Bytes, byte: u8| block.iter().all(|&b| b == byte);
    write(1);
    let first = read();
    let at = first.as_ptr();
    drop(first);
    write(2);
    let second = read();
    assert_eq!(
        second.as_ptr(),
        at,
        "an unshared block is overwritten in place"
    );
    assert!(filled(&second, 2));
    write(3);
    assert!(
        filled(&second, 2),
        "a reader's handle keeps the bytes it read"
    );
    let third = read();
    assert_ne!(third.as_ptr(), at);
    assert!(filled(&third, 3));
    write(0);
    assert!(filled(&third, 3));
    assert_eq!(read().as_ptr(), zero_block().as_ptr());
    drop((second, third));
    write(4);
    let fourth = read();
    let at = fourth.as_ptr();
    drop(fourth);
    write(0);
    let zeroed = read();
    assert_eq!(zeroed.as_ptr(), at, "an unshared block is zeroed in place");
    assert!(filled(&zeroed, 0));
}

/// Counters every backend reports through [`BlockStore::stats`].
///
/// Fields irrelevant to a backend stay zero (e.g. `journal_records` on
/// the sim store). Wrappers merge their own counters into the inner
/// backend's snapshot, so the stats of a composed stack read top-down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Charged block reads.
    pub reads: u64,
    /// Charged block writes.
    pub writes: u64,
    /// Journal records written since the last flush (file backend).
    pub journal_records: u64,
    /// Journal appends since open (file backend): the journal write
    /// syscalls, one per [`BlockStore::write`] call.
    pub journal_batches: u64,
    /// Reads served from a [`CachedStore`] without touching the inner
    /// backend.
    pub cache_hits: u64,
    /// Reads a [`CachedStore`] had to forward to the inner backend.
    pub cache_misses: u64,
    /// Dirty blocks a [`CachedStore`] wrote back on eviction: when a
    /// cache shard overflows, its LRU victim leaves, through the inner
    /// store if it was dirty.
    pub writeback_blocks: u64,
    /// [`BlockStore::read`] calls that carried more than one data
    /// block ([`FileStore`] counts both classes, as in `reads`). Each
    /// layer of a composition counts the calls *it* receives (a cache
    /// forwards only its misses, a sharded store fans one call out to
    /// its shards), so the merged stats of a wrapped stack sum them.
    pub(crate) vectored_reads: u64,
    /// [`BlockStore::write`] calls that carried more than one data
    /// block (same per-layer accounting as `vectored_reads`).
    pub vectored_writes: u64,
    /// Always zero: [`ShardedStore`] has no worker threads to submit
    /// jobs to. Kept only because the pinned benchmark package still
    /// reads it.
    pub worker_jobs: u64,
    /// Blocks a [`CachedStore`] prefetched through its sequential
    /// readahead window (zero when readahead is disabled or the access
    /// pattern never forms an ascending stride).
    pub readahead_blocks: u64,
    /// Completed [`BlockStore::flush`] calls.
    pub(crate) flushes: u64,
    /// RPC round-trips a `RemoteStore` client issued: one per request
    /// frame that reached the wire, retries included.
    pub rpc_calls: u64,
    /// Request plus response frame bytes a `RemoteStore` moved over
    /// its link.
    pub bytes_on_wire: u64,
    /// Request frames a `RemoteStore` re-sent after a timeout.
    pub retries: u64,
    /// Messages dropped or duplicated by a [`netsim::FaultPlan`] on a
    /// `RemoteStore`'s link (both directions; jitter is not counted).
    pub faults_injected: u64,
    /// Reads a `ReplicatedStore` served from a non-primary replica —
    /// failover traffic, zero while every node is healthy.
    pub replica_reads: u64,
    /// Replica sets a `ReplicatedStore` rebuilt onto a spare node
    /// after declaring a node dead.
    pub rebuilds: u64,
    /// Probation nodes a `ReplicatedStore` revived after a successful
    /// probe (a partitioned-then-healed node coming back, with or
    /// without an epoch re-sync).
    pub nodes_revived: u64,
    /// Blocks still queued for the background rebuilder — a gauge, not
    /// a counter, but merged additively like everything else (layers
    /// other than `ReplicatedStore` report zero).
    pub rebuild_backlog: u64,
    /// Mutating frames a `RemoteStore` had rejected by a node's fence
    /// (the write was never applied — a newer coordinator holds the
    /// lease), plus 1 while a `ReplicatedStore` is latched read-only
    /// by such a rejection.
    pub fenced: u64,
    /// Read-repairs a `ReplicatedStore` scheduled: a replica observed
    /// behind the committed epoch, queued for re-sync through the
    /// background rebuilder.
    pub read_repairs: u64,
}

impl StoreStats {
    /// Fraction of cached reads served without touching the backend,
    /// in `[0, 1]`. Zero when nothing was read through a cache.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Field-wise sum — how [`ShardedStore`] aggregates its shards.
    pub(crate) fn merge(&self, other: &StoreStats) -> StoreStats {
        StoreStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            journal_records: self.journal_records + other.journal_records,
            journal_batches: self.journal_batches + other.journal_batches,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            writeback_blocks: self.writeback_blocks + other.writeback_blocks,
            vectored_reads: self.vectored_reads + other.vectored_reads,
            vectored_writes: self.vectored_writes + other.vectored_writes,
            worker_jobs: self.worker_jobs + other.worker_jobs,
            readahead_blocks: self.readahead_blocks + other.readahead_blocks,
            flushes: self.flushes + other.flushes,
            rpc_calls: self.rpc_calls + other.rpc_calls,
            bytes_on_wire: self.bytes_on_wire + other.bytes_on_wire,
            retries: self.retries + other.retries,
            faults_injected: self.faults_injected + other.faults_injected,
            replica_reads: self.replica_reads + other.replica_reads,
            rebuilds: self.rebuilds + other.rebuilds,
            nodes_revived: self.nodes_revived + other.nodes_revived,
            rebuild_backlog: self.rebuild_backlog + other.rebuild_backlog,
            fenced: self.fenced + other.fenced,
            read_repairs: self.read_repairs + other.read_repairs,
        }
    }
}

/// Which of the two kinds of traffic a [`BlockStore`] call carries.
/// Contents are treated alike; the class decides what a backend
/// charges and counts. The block protocol sends the discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// File and directory contents: timing-model backends charge seek
    /// and transfer time, and `reads` / `writes` count the blocks.
    Data = 0,
    /// Hot metadata (superblock, bitmaps, inode table, pointer blocks)
    /// that a real filesystem absorbs in its buffer cache: neither
    /// charged nor counted.
    Meta = 1,
}

/// A block-addressed storage device of fixed-size [`BLOCK_SIZE`]
/// blocks.
///
/// The filesystem layer validates block numbers before issuing I/O, so
/// out-of-range access is a bug and implementations panic on it.
///
/// # What to implement
///
/// [`BlockStore::read`] and [`BlockStore::write`]. Every backend in
/// this workspace implements that pair and inherits the nine older
/// names below it, each a one-line provided form over the pair. The
/// pair has defaults too, over the old names, for `discfs_bench`'s
/// `TracedStore`, which overrides the names and inherits the pair.
/// **The two sets of defaults call each other**: an implementation
/// that overrides neither the pair nor every name the pair's defaults
/// call (`read_blocks`, `read_block_meta`, `write_blocks`,
/// `write_blocks_meta`) overflows the stack on its first call, so CI
/// greps for a definition of an old name outside this file. The
/// pair's defaults go when `TracedStore` has moved.
pub trait BlockStore: Send + Sync {
    /// Number of addressable blocks.
    fn block_count(&self) -> u64;

    /// Reads every block in `idxs` (any order, duplicates allowed) as
    /// shared handles, in matching order: a whole extent in one call,
    /// of which a one-block call is the shortest.
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        match class {
            IoClass::Data => self.read_blocks(idxs),
            IoClass::Meta => idxs.iter().map(|&i| self.read_block_meta(i)).collect(),
        }
    }

    /// Writes every `(idx, block)` pair **in order** (a later pair for
    /// the same index wins). Each block must be exactly [`BLOCK_SIZE`]
    /// bytes. Journaled backends treat one call as a durability unit:
    /// its records are on the journal when the call returns.
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        match class {
            IoClass::Data => self.write_blocks(writes),
            IoClass::Meta => self.write_blocks_meta(writes),
        }
    }

    /// `read(Data, &[idx])`, unwrapped.
    fn read_block(&self, idx: u64) -> Bytes {
        self.read(IoClass::Data, &[idx]).pop().expect("one block")
    }

    /// Reads block `idx` into `buf` (exactly one block) — the
    /// read-modify-write path.
    fn read_block_into(&self, idx: u64, buf: &mut [u8]) {
        buf.copy_from_slice(&self.read_block(idx));
    }

    /// `write(Data, &[(idx, data)])`.
    fn write_block(&self, idx: u64, data: &[u8]) {
        self.write(IoClass::Data, &[(idx, data)])
    }

    /// `read(Data, idxs)`.
    fn read_blocks(&self, idxs: &[u64]) -> Vec<Bytes> {
        self.read(IoClass::Data, idxs)
    }

    /// `write(Data, writes)`.
    fn write_blocks(&self, writes: &[(u64, &[u8])]) {
        self.write(IoClass::Data, writes)
    }

    /// `read(Meta, &[idx])`, unwrapped.
    fn read_block_meta(&self, idx: u64) -> Bytes {
        self.read(IoClass::Meta, &[idx]).pop().expect("one block")
    }

    /// Reads a metadata block into `buf` (exactly one block).
    fn read_block_meta_into(&self, idx: u64, buf: &mut [u8]) {
        buf.copy_from_slice(&self.read_block_meta(idx));
    }

    /// `write(Meta, &[(idx, data)])`.
    fn write_block_meta(&self, idx: u64, data: &[u8]) {
        self.write(IoClass::Meta, &[(idx, data)])
    }

    /// `write(Meta, writes)`.
    fn write_blocks_meta(&self, writes: &[(u64, &[u8])]) {
        self.write(IoClass::Meta, writes)
    }

    /// Makes completed writes durable (write-back caches write their
    /// dirty blocks down; journaled backends apply and truncate their
    /// journal).
    ///
    /// # Errors
    ///
    /// I/O failure of the underlying medium; in-memory backends never
    /// fail.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }

    /// Snapshot of this backend's counters.
    fn stats(&self) -> StoreStats;

    /// Short human-readable backend name (figure labels).
    fn label(&self) -> &'static str;
}

/// What a call adds to [`StoreStats::vectored_reads`] / `vectored_writes`:
/// 1 when it carries more than one data block.
pub(crate) fn vectored(class: IoClass, blocks: usize) -> u64 {
    u64::from(class == IoClass::Data && blocks > 1)
}

macro_rules! forward_block_store {
    ($($ty:ty),*) => {$(
        impl<S: BlockStore + ?Sized> BlockStore for $ty {
            fn block_count(&self) -> u64 {
                (**self).block_count()
            }
            fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
                (**self).read(class, idxs)
            }
            fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
                (**self).write(class, writes)
            }
            fn flush(&self) -> std::io::Result<()> {
                (**self).flush()
            }
            fn stats(&self) -> StoreStats {
                (**self).stats()
            }
            fn label(&self) -> &'static str {
                (**self).label()
            }
        }
    )*};
}

forward_block_store!(Arc<S>, Box<S>, &'_ S);

/// Declarative backend selection, threaded through `ffs`, `discfs`
/// and the benchmark harness.
#[derive(Debug, Clone)]
pub enum StoreBackend {
    /// In-memory store charging the paper's disk timing model to the
    /// shared clock.
    SimTimed,
    /// In-memory store with no timing (fast unit tests).
    SimInstant,
    /// Persistent file-backed store with a write-ahead journal rooted
    /// at the given directory.
    ///
    /// Block-level persistence: journaled writes survive a crash and
    /// replay on the next open. A volume formatted here reopens with
    /// its files intact through `ffs::Ffs::mount_on` /
    /// `Ffs::open_or_format` (the `format_*` paths refuse to clobber
    /// an existing volume).
    FileJournal {
        /// Directory holding `blocks.dat` and `journal.wal`.
        dir: PathBuf,
    },
    /// Encrypted-at-rest journaled file store: a persistent
    /// [`FileStore`] whose blocks are ChaCha20-encrypted before they
    /// touch the journal or data file. The volume reopens with the
    /// same key; a different key reads keystream noise.
    EncryptedJournal {
        /// Directory holding `blocks.dat` and `journal.wal`.
        dir: PathBuf,
        /// Master key; per-purpose subkeys are derived from it.
        key: [u8; 32],
    },
    /// A write-back buffer cache ([`CachedStore`]) over any inner
    /// backend: hot reads become handle clones, repeated writes are
    /// absorbed until the next flush. Its `capacity` × 8 KiB of block
    /// buffers are allocated into the volume's pool when the store is
    /// built, and an evicted block's buffer goes back to the pool (crate
    /// docs and the `cached` module docs, *Buffers*).
    Cached {
        /// Cache capacity in blocks, allocated up front.
        capacity: usize,
        /// The wrapped backend.
        inner: Box<StoreBackend>,
    },
    /// A [`CachedStore`] with sequential readahead: once an ascending
    /// stride is detected among one-block data reads, the next
    /// `window` blocks are prefetched from the inner backend in one
    /// call ([`StoreStats::readahead_blocks`] counts them). Otherwise
    /// identical to [`StoreBackend::Cached`], capacity allocated into
    /// the volume's pool up front included.
    CachedReadahead {
        /// Cache capacity in blocks, allocated up front.
        capacity: usize,
        /// Readahead window in blocks (0 disables readahead).
        window: usize,
        /// The wrapped backend.
        inner: Box<StoreBackend>,
    },
    /// One volume striped across N instances of the inner backend
    /// ([`ShardedStore`]): block `i` lives on shard `i % shards`,
    /// each shard has its own lock, and flushes run in parallel.
    /// Persistent inner backends get per-shard subdirectories
    /// (`shard-0`, `shard-1`, …).
    Sharded {
        /// Number of shards (inner store instances).
        shards: u32,
        /// Ignored: every sharded store runs its I/O on the caller's
        /// thread (the `sharded` module docs). Kept only because the
        /// pinned benchmark package still sets it.
        workers: bool,
        /// The backend each shard is built from.
        inner: Box<StoreBackend>,
    },
    /// One volume replicated R-way across N storage nodes (plus idle
    /// spares) with epoch-stamped commits and rebuild-onto-spare after
    /// a node death ([`ReplicatedStore`]). Each node is the inner
    /// backend served by a [`BlockServer`] behind a simulated network
    /// link ([`NodeLink`]) and reached through a [`RemoteStore`]
    /// client; `nodes: 1, replicas: 1, spares: 0` is one node, so
    /// caching/sharding presets compose over the network exactly as
    /// they do locally. Persistent inners get per-node subdirectories
    /// (`node-0`, …, `spare-0`, …).
    Replicated {
        /// Number of storage nodes.
        nodes: u32,
        /// Copies kept of every block (1 ≤ replicas ≤ nodes).
        replicas: u32,
        /// Idle spare nodes available for rebuilds.
        spares: u32,
        /// Charge the paper's 100 Mbps Ethernet timing on every link.
        ethernet: bool,
        /// Timeout and deadline shared by every node's client
        /// ([`RemoteOptions::default`] for the stock schedule).
        opts: RemoteOptions,
        /// The backend each node serves.
        inner: Box<StoreBackend>,
    },
}

impl StoreBackend {
    /// Builds the backend, attaching timing-model backends to `clock`.
    ///
    /// # Panics
    ///
    /// Panics when a [`StoreBackend::FileJournal`] directory cannot be
    /// created or opened — backend construction happens at format time
    /// where the caller cannot continue anyway — or when a
    /// [`StoreBackend::Sharded`] asks for zero shards.
    pub fn build(&self, clock: &SimClock, block_count: u64) -> Arc<dyn BlockStore> {
        self.build_in(clock, block_count, &BlockPool::new())
    }

    /// [`StoreBackend::build`] with every layer that allocates blocks
    /// drawing from and recycling into `pool`, the volume's one pool.
    fn build_in(
        &self,
        clock: &SimClock,
        block_count: u64,
        pool: &BlockPool,
    ) -> Arc<dyn BlockStore> {
        let sim = |model| Arc::new(SimStore::new(clock, model, block_count).in_pool(pool.clone()));
        let cached = |inner: &StoreBackend, capacity, window| {
            let inner = inner.build_in(clock, block_count, pool);
            Arc::new(CachedStore::in_pool(inner, capacity, window, pool.clone()))
        };
        match self {
            StoreBackend::SimTimed => sim(DiskModel::quantum_fireball_ct10()),
            StoreBackend::SimInstant => sim(DiskModel::instant()),
            StoreBackend::FileJournal { dir } => {
                Arc::new(FileStore::open(dir, block_count).expect("open file-backed block store"))
            }
            StoreBackend::EncryptedJournal { dir, key } => Arc::new(EncryptedStore::new(
                FileStore::open(dir, block_count).expect("open file-backed block store"),
                key,
            )),
            StoreBackend::Cached { capacity, inner } => cached(inner, *capacity, 0),
            StoreBackend::CachedReadahead {
                capacity,
                window,
                inner,
            } => cached(inner, *capacity, *window),
            StoreBackend::Sharded { shards, inner, .. } => {
                assert!(*shards > 0, "sharded store needs at least one shard");
                let per_shard = block_count.div_ceil(*shards as u64);
                let stores: Vec<Arc<dyn BlockStore>> = (0..*shards)
                    .map(|i| {
                        inner
                            .with_subdir(&format!("shard-{i}"))
                            .build_in(clock, per_shard, pool)
                    })
                    .collect();
                Arc::new(ShardedStore::new(stores, block_count))
            }
            StoreBackend::Replicated {
                nodes,
                replicas,
                spares,
                ethernet,
                opts,
                inner,
            } => {
                assert!(*nodes > 0, "replicated store needs at least one node");
                let node_bc = ReplicatedStore::node_block_count(
                    block_count,
                    *nodes as usize,
                    *replicas as usize,
                );
                let serve = |spec: StoreBackend| {
                    RemoteStore::serve_local(
                        spec.build_in(clock, node_bc, pool),
                        clock,
                        link_config(*ethernet),
                        *opts,
                    )
                };
                let node_stores: Vec<RemoteStore> = (0..*nodes)
                    .map(|i| serve(inner.with_subdir(&format!("node-{i}"))))
                    .collect();
                let spare_stores: Vec<RemoteStore> = (0..*spares)
                    .map(|i| serve(inner.with_subdir(&format!("spare-{i}"))))
                    .collect();
                let volume = ReplicatedStore::new(
                    node_stores,
                    spare_stores,
                    block_count,
                    *replicas as usize,
                );
                Arc::new(volume.in_pool(pool.clone()))
            }
        }
    }

    /// A copy of this spec with every persistence directory pushed
    /// down into `name` — how [`StoreBackend::Sharded`] gives each
    /// shard of a persistent backend its own subdirectory.
    pub(crate) fn with_subdir(&self, name: &str) -> StoreBackend {
        match self {
            StoreBackend::FileJournal { dir } => StoreBackend::FileJournal {
                dir: dir.join(name),
            },
            StoreBackend::EncryptedJournal { dir, key } => StoreBackend::EncryptedJournal {
                dir: dir.join(name),
                key: *key,
            },
            StoreBackend::Cached { capacity, inner } => StoreBackend::Cached {
                capacity: *capacity,
                inner: Box::new(inner.with_subdir(name)),
            },
            StoreBackend::CachedReadahead {
                capacity,
                window,
                inner,
            } => StoreBackend::CachedReadahead {
                capacity: *capacity,
                window: *window,
                inner: Box::new(inner.with_subdir(name)),
            },
            StoreBackend::Sharded {
                shards,
                workers,
                inner,
            } => StoreBackend::Sharded {
                shards: *shards,
                workers: *workers,
                inner: Box::new(inner.with_subdir(name)),
            },
            StoreBackend::Replicated {
                nodes,
                replicas,
                spares,
                ethernet,
                opts,
                inner,
            } => StoreBackend::Replicated {
                nodes: *nodes,
                replicas: *replicas,
                spares: *spares,
                ethernet: *ethernet,
                opts: *opts,
                inner: Box::new(inner.with_subdir(name)),
            },
            other => other.clone(),
        }
    }

    /// Whether stores built from this backend keep their contents
    /// across a rebuild (i.e. state lives on the filesystem, not in
    /// the store object).
    pub fn is_persistent(&self) -> bool {
        match self {
            StoreBackend::FileJournal { .. } | StoreBackend::EncryptedJournal { .. } => true,
            StoreBackend::Cached { inner, .. }
            | StoreBackend::CachedReadahead { inner, .. }
            | StoreBackend::Sharded { inner, .. }
            | StoreBackend::Replicated { inner, .. } => inner.is_persistent(),
            _ => false,
        }
    }

    /// Backend label without building it.
    pub fn label(&self) -> &'static str {
        match self {
            StoreBackend::SimTimed => "sim-timed",
            StoreBackend::SimInstant => "sim-instant",
            StoreBackend::FileJournal { .. } => "file-journal",
            StoreBackend::EncryptedJournal { .. } => "encrypted-journal",
            StoreBackend::Cached { .. } => "cached",
            StoreBackend::CachedReadahead { .. } => "cached-readahead",
            StoreBackend::Sharded { .. } => "sharded",
            StoreBackend::Replicated { .. } => "replicated",
        }
    }
}

/// Link parameters for the network-backed presets.
fn link_config(ethernet: bool) -> netsim::LinkConfig {
    if ethernet {
        netsim::LinkConfig::ethernet_100mbps()
    } else {
        netsim::LinkConfig::instant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_builder_produces_working_stores() {
        let clock = SimClock::new();
        let dir = crate::file::temp_dir_for_tests("builder");
        let backends = [
            StoreBackend::SimTimed,
            StoreBackend::SimInstant,
            StoreBackend::FileJournal {
                dir: dir.join("file"),
            },
            StoreBackend::EncryptedJournal {
                dir: dir.join("enc"),
                key: [8; 32],
            },
            StoreBackend::Cached {
                capacity: 8,
                inner: Box::new(StoreBackend::FileJournal {
                    dir: dir.join("cached"),
                }),
            },
            StoreBackend::Sharded {
                shards: 4,
                workers: false,
                inner: Box::new(StoreBackend::FileJournal {
                    dir: dir.join("sharded"),
                }),
            },
            StoreBackend::Cached {
                capacity: 8,
                inner: Box::new(StoreBackend::Sharded {
                    shards: 2,
                    workers: false,
                    inner: Box::new(StoreBackend::SimInstant),
                }),
            },
            StoreBackend::CachedReadahead {
                capacity: 8,
                window: 4,
                inner: Box::new(StoreBackend::SimInstant),
            },
            StoreBackend::Replicated {
                nodes: 1,
                replicas: 1,
                spares: 0,
                ethernet: false,
                opts: RemoteOptions::default(),
                inner: Box::new(StoreBackend::FileJournal {
                    dir: dir.join("remote"),
                }),
            },
            StoreBackend::Cached {
                capacity: 8,
                inner: Box::new(StoreBackend::Sharded {
                    shards: 2,
                    workers: false,
                    inner: Box::new(StoreBackend::Replicated {
                        nodes: 1,
                        replicas: 1,
                        spares: 0,
                        ethernet: false,
                        opts: RemoteOptions::default(),
                        inner: Box::new(StoreBackend::SimInstant),
                    }),
                }),
            },
            StoreBackend::Replicated {
                nodes: 4,
                replicas: 2,
                spares: 1,
                ethernet: false,
                opts: RemoteOptions::default(),
                inner: Box::new(StoreBackend::FileJournal {
                    dir: dir.join("replicated"),
                }),
            },
        ];
        for spec in backends {
            let store = spec.build(&clock, 16);
            let mut block = vec![0u8; BLOCK_SIZE];
            block[0] = 0x42;
            store.write_block(3, &block);
            assert_eq!(store.read_block(3), block, "{}", spec.label());
            assert_eq!(store.block_count(), 16, "{}", spec.label());
            store.flush().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An in-tree twin of `discfs_bench`'s `TracedStore`: it overrides
    /// the ten old names, notes each call it forwards under the same
    /// name, and inherits the pair.
    struct NamesOnly {
        inner: SimStore,
        forwarded: parking_lot::Mutex<Vec<&'static str>>,
    }

    macro_rules! noted {
        ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
            fn $name(&self, $($arg: $ty),*) $(-> $ret)? {
                self.forwarded.lock().push(stringify!($name));
                self.inner.$name($($arg),*)
            }
        )*};
    }

    impl BlockStore for NamesOnly {
        noted! {
            read_block(idx: u64) -> Bytes;
            read_block_into(idx: u64, buf: &mut [u8]);
            write_block(idx: u64, data: &[u8]);
            read_blocks(idxs: &[u64]) -> Vec<Bytes>;
            write_blocks(writes: &[(u64, &[u8])]);
            read_block_meta(idx: u64) -> Bytes;
            read_block_meta_into(idx: u64, buf: &mut [u8]);
            write_block_meta(idx: u64, data: &[u8]);
            write_blocks_meta(writes: &[(u64, &[u8])]);
            flush() -> std::io::Result<()>;
        }
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
        fn label(&self) -> &'static str {
            self.inner.label()
        }
    }

    /// The contract `discfs_bench` builds on until it moves to the
    /// pair: whichever way `Ffs` reaches such an interposer behind its
    /// `Arc<dyn BlockStore>` — through the pair (its data path) or a
    /// name (its metadata path) — the interposer forwards exactly one
    /// call (a traced run records one span) and the store receives it.
    #[test]
    fn an_interposer_that_knows_only_the_ten_names_sees_one_call_per_call() {
        let traced = Arc::new(NamesOnly {
            inner: SimStore::untimed(8),
            forwarded: parking_lot::Mutex::new(Vec::new()),
        });
        let (a, data, meta) = (vec![0xA1u8; BLOCK_SIZE], IoClass::Data, IoClass::Meta);
        type Call<'a> = (&'a str, &'a dyn Fn(&dyn BlockStore));
        let calls: [Call; 16] = [
            // The pair, in the shapes `Ffs` issues.
            ("write_blocks", &|d| d.write(data, &[(1, &a), (2, &a)])),
            ("write_blocks", &|d| d.write(data, &[(3, &a)])),
            ("write_blocks_meta", &|d| d.write(meta, &[(4, &a), (5, &a)])),
            ("read_blocks", &|d| drop(d.read(data, &[2, 1]))),
            ("read_blocks", &|d| assert_eq!(d.read(data, &[3]), [&a[..]])),
            ("read_block_meta", &|d| {
                assert_eq!(d.read(meta, &[4]), [&a[..]])
            }),
            // Every name.
            ("write_blocks", &|d| d.write_block(6, &a)),
            ("write_blocks", &|d| d.write_blocks(&[(6, &a), (7, &a)])),
            ("write_blocks_meta", &|d| d.write_block_meta(4, &a)),
            ("write_blocks_meta", &|d| d.write_blocks_meta(&[(5, &a)])),
            ("read_blocks", &|d| assert_eq!(d.read_block(6), a)),
            ("read_blocks", &|d| drop(d.read_blocks(&[7, 6]))),
            ("read_block_meta", &|d| assert_eq!(d.read_block_meta(4), a)),
            ("read_blocks", &|d| {
                d.read_block_into(7, &mut [0; BLOCK_SIZE])
            }),
            ("read_block_meta", &|d| {
                d.read_block_meta_into(5, &mut [0; BLOCK_SIZE])
            }),
            ("flush", &|d| d.flush().unwrap()),
        ];
        let disk: Arc<dyn BlockStore> = traced.clone();
        for (forwarded_as, call) in calls {
            call(&disk);
            assert_eq!(
                std::mem::take(&mut *traced.forwarded.lock()),
                [forwarded_as]
            );
        }
        // `SimStore` counts data blocks only: 6 written, 7 read.
        let stats = traced.inner.stats();
        assert_eq!((stats.writes, stats.reads), (6, 7));
    }

    #[test]
    fn hit_ratio_zero_cases() {
        let stats = StoreStats::default();
        assert_eq!(stats.cache_hit_ratio(), 0.0);
    }

    #[test]
    fn subdir_rewrites_nested_persistence_dirs() {
        let spec = StoreBackend::Cached {
            capacity: 4,
            inner: Box::new(StoreBackend::Sharded {
                shards: 2,
                workers: false,
                inner: Box::new(StoreBackend::FileJournal {
                    dir: PathBuf::from("/tmp/vol"),
                }),
            }),
        };
        assert!(spec.is_persistent());
        let sub = spec.with_subdir("a");
        match sub {
            StoreBackend::Cached { inner, .. } => match *inner {
                StoreBackend::Sharded { inner, .. } => match *inner {
                    StoreBackend::FileJournal { dir } => {
                        assert_eq!(dir, PathBuf::from("/tmp/vol/a"))
                    }
                    other => panic!("unexpected inner {other:?}"),
                },
                other => panic!("unexpected inner {other:?}"),
            },
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn zero_block_is_shared_and_zero() {
        let a = zero_block();
        let b = zero_block();
        assert_eq!(a.len(), BLOCK_SIZE);
        assert!(a.iter().all(|&x| x == 0));
        assert_eq!(a, b);
    }

    #[test]
    fn merge_sums_fieldwise() {
        let a = StoreStats {
            reads: 1,
            writes: 2,
            cache_hits: 3,
            ..StoreStats::default()
        };
        let b = StoreStats {
            reads: 10,
            journal_batches: 4,
            ..StoreStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.reads, 11);
        assert_eq!(m.writes, 2);
        assert_eq!(m.cache_hits, 3);
        assert_eq!(m.journal_batches, 4);
    }

    #[test]
    fn merge_sums_chaos_counters() {
        let a = StoreStats {
            faults_injected: 5,
            retries: 2,
            nodes_revived: 1,
            rebuild_backlog: 7,
            ..StoreStats::default()
        };
        let b = StoreStats {
            faults_injected: 3,
            retries: 4,
            rebuild_backlog: 1,
            ..StoreStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.faults_injected, 8);
        assert_eq!(m.retries, 6);
        assert_eq!(m.nodes_revived, 1);
        assert_eq!(m.rebuild_backlog, 8);
    }

    #[test]
    fn the_block_pool_keeps_only_unshared_blocks_up_to_its_bound() {
        let pool = BlockPool::new();
        let held = Bytes::from(vec![7u8; BLOCK_SIZE]);
        pool.recycle(held.clone());
        pool.recycle(zero_block());
        pool.recycle(Bytes::from(vec![7u8; 16]));
        for byte in 0..=u8::MAX {
            pool.recycle(Bytes::from(vec![byte; BLOCK_SIZE]));
            pool.recycle(Bytes::from(vec![byte; BLOCK_SIZE]));
            let spares = pool.spares();
            assert!(spares.len() <= SPARE_BOUND, "{} spares", spares.len());
            assert!(!spares.contains(&held.as_ptr()), "a reader's block");
            assert!(!spares.contains(&zero_block().as_ptr()));
        }
        assert_eq!(held, vec![7u8; BLOCK_SIZE]);
        // A reservation adds its buffers and raises the bound by as many.
        pool.reserve(3);
        assert_eq!(pool.spares().len(), SPARE_BOUND + 3);
        pool.recycle(Bytes::from(vec![1u8; BLOCK_SIZE]));
        assert_eq!(pool.spares().len(), SPARE_BOUND + 3);
    }

    #[test]
    fn merge_sums_fencing_counters() {
        let a = StoreStats {
            fenced: 2,
            read_repairs: 5,
            ..StoreStats::default()
        };
        let b = StoreStats {
            fenced: 1,
            read_repairs: 3,
            ..StoreStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.fenced, 3);
        assert_eq!(m.read_repairs, 8);
    }
}
