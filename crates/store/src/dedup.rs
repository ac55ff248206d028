//! The content-addressed deduplicating store.
//!
//! Every written block is keyed by its SHA-256. Identical content is
//! stored once and reference-counted; the all-zero block (freshly
//! allocated filesystem blocks, truncated tails) is represented
//! implicitly and never stored at all. Bifrost (arXiv:2201.10839)
//! identifies exactly this chunk-level dedup as the scaling lever for
//! secure file-sharing backends — the
//! [`StoreStats::dedup_hit_ratio`](crate::StoreStats::dedup_hit_ratio)
//! stat makes the win measurable per workload.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use discfs_crypto::sha256::Sha256;
use discfs_crypto::Digest;
use parking_lot::Mutex;

use crate::{vectored, zero_block, BlockStore, IoClass, StoreStats, BLOCK_SIZE};

type ChunkId = [u8; 32];

/// Snapshot file magic.
const SNAP_MAGIC: [u8; 8] = *b"DDUPSNP1";
/// Snapshot header size: magic + block_count + five counters + two
/// section lengths.
const SNAP_HEADER: usize = 8 + 8 * 8;

struct Chunk {
    /// Shared handle: a read of any block mapped to this chunk clones
    /// the refcounted handle instead of copying 8 KB.
    data: Bytes,
    refs: u64,
}

struct DedupState {
    /// Logical block number → content id (`None` = implicit zeros).
    table: Vec<Option<ChunkId>>,
    /// Content id → stored chunk + refcount.
    chunks: HashMap<ChunkId, Chunk>,
    reads: u64,
    writes: u64,
    dedup_hits: u64,
    zero_elisions: u64,
    /// Multi-block-call counters (not persisted in the snapshot — the
    /// on-disk format predates them and reopen tolerates stale
    /// workload counters anyway).
    vectored_reads: u64,
    vectored_writes: u64,
    flushes: u64,
    /// Whether anything snapshot-worthy changed since the last flush
    /// (any write path — content or write counters). Not persisted.
    snap_dirty: bool,
}

impl DedupState {
    fn empty(block_count: u64) -> DedupState {
        DedupState {
            table: vec![None; block_count as usize],
            chunks: HashMap::new(),
            reads: 0,
            writes: 0,
            dedup_hits: 0,
            zero_elisions: 0,
            vectored_reads: 0,
            vectored_writes: 0,
            flushes: 0,
            snap_dirty: false,
        }
    }

    fn unref(&mut self, id: ChunkId) {
        if let Some(chunk) = self.chunks.get_mut(&id) {
            chunk.refs -= 1;
            if chunk.refs == 0 {
                self.chunks.remove(&id);
            }
        }
    }
}

/// A content-addressed, deduplicating block store.
///
/// In-memory by default ([`DedupStore::new`]); [`DedupStore::open`]
/// attaches a snapshot file so the chunk table survives a process
/// restart: every [`BlockStore::flush`] atomically rewrites
/// `dedup.snap` (temp file + rename) with the full table, chunks, and
/// counters, and the next `open` restores it — durability at sync
/// granularity, matching what `Ffs::sync` provides on top.
pub struct DedupStore {
    state: Mutex<DedupState>,
    block_count: u64,
    /// Snapshot path for persistent stores (`None` = in-memory only).
    spill: Option<PathBuf>,
}

impl DedupStore {
    /// Creates an in-memory store of `block_count` addressable blocks.
    pub fn new(block_count: u64) -> DedupStore {
        DedupStore {
            state: Mutex::new(DedupState::empty(block_count)),
            block_count,
            spill: None,
        }
    }

    /// Opens a persistent dedup store rooted at `dir`, restoring the
    /// last flushed snapshot if one exists. Writes since the last
    /// flush are lost on a crash (the snapshot is only rewritten by
    /// [`BlockStore::flush`]); a torn or corrupted snapshot is
    /// rejected rather than half-loaded.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` for a corrupt snapshot.
    pub fn open(dir: &Path, block_count: u64) -> std::io::Result<DedupStore> {
        std::fs::create_dir_all(dir)?;
        let snap = dir.join("dedup.snap");
        let state = if snap.exists() {
            Self::load_snapshot(&std::fs::read(&snap)?, block_count)?
        } else {
            DedupState::empty(block_count)
        };
        let block_count = state.table.len() as u64;
        Ok(DedupStore {
            state: Mutex::new(state),
            block_count,
            spill: Some(snap),
        })
    }

    fn load_snapshot(bytes: &[u8], requested_blocks: u64) -> std::io::Result<DedupState> {
        let corrupt = || std::io::Error::new(std::io::ErrorKind::InvalidData, "corrupt snapshot");
        if bytes.len() < SNAP_HEADER + 32 || bytes[0..8] != SNAP_MAGIC {
            return Err(corrupt());
        }
        let payload_len = bytes.len() - 32;
        let checksum = Sha256::digest(&bytes[..payload_len]);
        if bytes[payload_len..] != checksum[..] {
            return Err(corrupt());
        }
        let u64_at =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        let block_count = u64_at(8).max(requested_blocks);
        let n_mappings = u64_at(56) as usize;
        let n_chunks = u64_at(64) as usize;
        let mut state = DedupState::empty(block_count);
        state.reads = u64_at(16);
        state.writes = u64_at(24);
        state.dedup_hits = u64_at(32);
        state.zero_elisions = u64_at(40);
        state.flushes = u64_at(48);
        let mut pos = SNAP_HEADER;
        for _ in 0..n_mappings {
            if pos + 40 > payload_len {
                return Err(corrupt());
            }
            let idx = u64_at(pos);
            let id: ChunkId = bytes[pos + 8..pos + 40].try_into().expect("32 bytes");
            if idx >= block_count {
                return Err(corrupt());
            }
            state.table[idx as usize] = Some(id);
            pos += 40;
        }
        for _ in 0..n_chunks {
            if pos + 40 + BLOCK_SIZE > payload_len {
                return Err(corrupt());
            }
            let id: ChunkId = bytes[pos..pos + 32].try_into().expect("32 bytes");
            let refs = u64_at(pos + 32);
            // No per-chunk SHA-256 here: the whole-snapshot checksum
            // verified above already covers every chunk byte, so
            // re-hashing each 8 KB chunk on load only slowed reopen.
            let data = Bytes::copy_from_slice(&bytes[pos + 40..pos + 40 + BLOCK_SIZE]);
            if refs == 0 {
                return Err(corrupt());
            }
            state.chunks.insert(id, Chunk { data, refs });
            pos += 40 + BLOCK_SIZE;
        }
        if pos != payload_len {
            return Err(corrupt());
        }
        // Every mapping must resolve to a loaded chunk.
        for id in state.table.iter().flatten() {
            if !state.chunks.contains_key(id) {
                return Err(corrupt());
            }
        }
        Ok(state)
    }

    /// One write applied under the state lock.
    fn apply_write(s: &mut DedupState, idx: u64, data: &[u8], count_stats: bool) {
        s.snap_dirty = true;

        let zero = data.iter().all(|&b| b == 0);
        let old = s.table[idx as usize];

        if zero {
            // The implicit zero chunk: nothing stored, nothing hashed
            // beyond the scan above. Counted separately from dedup
            // hits — the filesystem zeroes every block it allocates,
            // and folding that into the hit ratio would report ~50%
            // "dedup" on fully unique data.
            if let Some(old_id) = old {
                s.unref(old_id);
                s.table[idx as usize] = None;
            }
            if count_stats {
                s.zero_elisions += 1;
            }
            return;
        }

        let id: ChunkId = Sha256::digest(data)
            .try_into()
            .expect("SHA-256 is 32 bytes");
        if old == Some(id) {
            // Same content rewritten in place.
            if count_stats {
                s.dedup_hits += 1;
            }
            return;
        }
        if let Some(old_id) = old {
            s.unref(old_id);
        }
        if let Some(chunk) = s.chunks.get_mut(&id) {
            chunk.refs += 1;
            if count_stats {
                s.dedup_hits += 1;
            }
        } else {
            s.chunks.insert(
                id,
                Chunk {
                    data: Bytes::copy_from_slice(data),
                    refs: 1,
                },
            );
            if count_stats {
                s.writes += 1;
            }
        }
        s.table[idx as usize] = Some(id);
    }

    fn write_snapshot(&self, state: &DedupState, snap: &Path) -> std::io::Result<()> {
        let mappings: Vec<(u64, ChunkId)> = state
            .table
            .iter()
            .enumerate()
            .filter_map(|(idx, id)| id.map(|id| (idx as u64, id)))
            .collect();
        let mut chunk_ids: Vec<&ChunkId> = state.chunks.keys().collect();
        chunk_ids.sort_unstable();
        let mut out = Vec::with_capacity(
            SNAP_HEADER + mappings.len() * 40 + chunk_ids.len() * (40 + BLOCK_SIZE) + 32,
        );
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&(state.table.len() as u64).to_le_bytes());
        out.extend_from_slice(&state.reads.to_le_bytes());
        out.extend_from_slice(&state.writes.to_le_bytes());
        out.extend_from_slice(&state.dedup_hits.to_le_bytes());
        out.extend_from_slice(&state.zero_elisions.to_le_bytes());
        out.extend_from_slice(&state.flushes.to_le_bytes());
        out.extend_from_slice(&(mappings.len() as u64).to_le_bytes());
        out.extend_from_slice(&(chunk_ids.len() as u64).to_le_bytes());
        for (idx, id) in &mappings {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(id);
        }
        for id in chunk_ids {
            let chunk = &state.chunks[id];
            out.extend_from_slice(id);
            out.extend_from_slice(&chunk.refs.to_le_bytes());
            out.extend_from_slice(&chunk.data);
        }
        let checksum = Sha256::digest(&out);
        out.extend_from_slice(&checksum);
        // Atomic replace: a crash mid-write leaves the old snapshot.
        let tmp = snap.with_extension("snap.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, snap)
    }
}

impl BlockStore for DedupStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    /// One lock acquisition; every block is a refcount bump off the
    /// chunk table (repeated reads of a chunk never re-copy it, and
    /// holes share the process-wide zero block).
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        let mut s = self.state.lock();
        s.vectored_reads += vectored(class, idxs.len());
        if class == IoClass::Data {
            s.reads += idxs.len() as u64;
        }
        idxs.iter()
            .map(|&idx| {
                assert!(idx < self.block_count, "block {idx} out of range");
                match s.table[idx as usize] {
                    Some(id) => s.chunks[&id].data.clone(),
                    None => zero_block(),
                }
            })
            .collect()
    }

    /// One lock acquisition; every block is hashed and deduplicated.
    /// Metadata traffic (superblock, bitmaps, inode table, indirect
    /// blocks) is stored and deduplicated like any content but kept
    /// out of the workload counters: a sync-heavy run rewriting the
    /// same bitmap blocks must not read as a dedup win (or loss) of
    /// the *data* stream the hit ratio describes.
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        let mut s = self.state.lock();
        s.vectored_writes += vectored(class, writes.len());
        for &(idx, data) in writes {
            assert!(idx < self.block_count, "block {idx} out of range");
            assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
            Self::apply_write(&mut s, idx, data, class == IoClass::Data);
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        let mut s = self.state.lock();
        s.flushes += 1;
        if let Some(snap) = &self.spill {
            // A no-op flush (nothing written since the last snapshot)
            // skips the O(stored data) serialization; only the
            // read/flush counters go stale, which reopen tolerates.
            if s.snap_dirty {
                self.write_snapshot(&s, snap)?;
                s.snap_dirty = false;
            }
        }
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        let s = self.state.lock();
        StoreStats {
            reads: s.reads,
            writes: s.writes,
            dedup_hits: s.dedup_hits,
            zero_elisions: s.zero_elisions,
            unique_blocks: s.chunks.len() as u64,
            vectored_reads: s.vectored_reads,
            vectored_writes: s.vectored_writes,
            flushes: s.flushes,
            ..StoreStats::default()
        }
    }

    fn label(&self) -> &'static str {
        if self.spill.is_some() {
            "dedup-persistent"
        } else {
            "dedup"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    #[test]
    fn duplicate_content_stored_once() {
        let store = DedupStore::new(16);
        for idx in 0..10 {
            store.write_block(idx, &block_of(0xAA));
        }
        let stats = store.stats();
        assert_eq!(stats.unique_blocks, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.dedup_hits, 9);
        assert!(stats.dedup_hit_ratio() > 0.89);
        for idx in 0..10 {
            assert_eq!(store.read_block(idx), block_of(0xAA));
        }
    }

    #[test]
    fn refcounts_release_chunks() {
        let store = DedupStore::new(4);
        store.write_block(0, &block_of(1));
        store.write_block(1, &block_of(1));
        assert_eq!(store.stats().unique_blocks, 1);
        // Overwrite both references; the chunk must be collected.
        store.write_block(0, &block_of(2));
        store.write_block(1, &block_of(3));
        let stats = store.stats();
        assert_eq!(stats.unique_blocks, 2);
    }

    #[test]
    fn zero_writes_do_not_inflate_hit_ratio() {
        // The filesystem zeroes every block it allocates; those writes
        // must not read as "dedup wins" on otherwise unique data.
        let store = DedupStore::new(16);
        for idx in 0..8u64 {
            store.write_block(idx, &block_of(0)); // alloc-time zeroing
            store.write_block(idx, &block_of(idx as u8 + 1)); // unique data
        }
        let stats = store.stats();
        assert_eq!(stats.zero_elisions, 8);
        assert_eq!(stats.dedup_hits, 0);
        assert_eq!(stats.dedup_hit_ratio(), 0.0);
    }

    #[test]
    fn zero_blocks_are_implicit() {
        let store = DedupStore::new(4);
        store.write_block(2, &block_of(0));
        assert_eq!(store.stats().unique_blocks, 0);
        assert_eq!(store.stats().zero_elisions, 1);
        assert_eq!(store.read_block(2), block_of(0));
        // Zeroing a real block releases its chunk.
        store.write_block(3, &block_of(9));
        assert_eq!(store.stats().unique_blocks, 1);
        store.write_block(3, &block_of(0));
        assert_eq!(store.stats().unique_blocks, 0);
        assert_eq!(store.read_block(3), block_of(0));
    }

    #[test]
    fn snapshot_restores_table_chunks_and_stats() {
        let dir = crate::temp_dir_for_tests("dedup-snap");
        {
            let store = DedupStore::open(&dir, 16).unwrap();
            store.write_block(0, &block_of(7));
            store.write_block(1, &block_of(7));
            store.write_block(2, &block_of(9));
            store.flush().unwrap();
        }
        let store = DedupStore::open(&dir, 16).unwrap();
        assert_eq!(store.read_block(0), block_of(7));
        assert_eq!(store.read_block(1), block_of(7));
        assert_eq!(store.read_block(2), block_of(9));
        let stats = store.stats();
        assert_eq!(stats.unique_blocks, 2);
        assert_eq!(stats.dedup_hits, 1, "hit counters survive reopen");
        assert_eq!(stats.flushes, 1);
        // Dedup keeps working against restored chunks.
        store.write_block(3, &block_of(7));
        assert_eq!(store.stats().dedup_hits, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unflushed_writes_are_lost_but_snapshot_state_survives() {
        let dir = crate::temp_dir_for_tests("dedup-crash");
        {
            let store = DedupStore::open(&dir, 8).unwrap();
            store.write_block(0, &block_of(1));
            store.flush().unwrap();
            store.write_block(1, &block_of(2)); // never flushed
        }
        let store = DedupStore::open(&dir, 8).unwrap();
        assert_eq!(store.read_block(0), block_of(1));
        assert_eq!(store.read_block(1), block_of(0), "unflushed write gone");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_op_flush_skips_the_snapshot_rewrite() {
        let dir = crate::temp_dir_for_tests("dedup-noop-flush");
        {
            let store = DedupStore::open(&dir, 8).unwrap();
            store.write_block(0, &block_of(3));
            store.flush().unwrap(); // snapshot written with flushes = 1
            store.flush().unwrap(); // nothing changed: serialization skipped
        }
        let store = DedupStore::open(&dir, 8).unwrap();
        assert_eq!(store.read_block(0), block_of(3));
        assert_eq!(
            store.stats().flushes,
            1,
            "the second flush must not have rewritten the snapshot"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let dir = crate::temp_dir_for_tests("dedup-corrupt");
        {
            let store = DedupStore::open(&dir, 8).unwrap();
            store.write_block(0, &block_of(5));
            store.flush().unwrap();
        }
        let snap = dir.join("dedup.snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        let err = match DedupStore::open(&dir, 8) {
            Ok(_) => panic!("corrupt snapshot must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_content_is_kept_apart() {
        let store = DedupStore::new(8);
        for idx in 0..8u64 {
            store.write_block(idx, &block_of(idx as u8 + 1));
        }
        assert_eq!(store.stats().unique_blocks, 8);
        for idx in 0..8u64 {
            assert_eq!(store.read_block(idx), block_of(idx as u8 + 1));
        }
    }
}
