//! The persistent file-backed store with a write-ahead journal.
//!
//! Write path: every block write is appended to the journal as a
//! checksummed record. The journal is the store's only dirty buffer:
//! memory keeps the block's index and the journal offset of its latest
//! payload (16 bytes a block), not a copy of the block, and a read of
//! an un-flushed block is a `pread` from the journal. A
//! [`BlockStore::flush`] copies the dirty blocks from the journal to
//! `blocks.dat` in ascending block order, through one 8 KiB buffer, and
//! truncates the journal. If the process dies between those steps (the
//! "crash" the property tests simulate by dropping the store without
//! flushing), [`FileStore::open`] replays every complete, valid journal
//! record into the data file before serving reads — so an acknowledged
//! write is never lost and a torn final record is cleanly discarded.
//! Replay reads the journal one record at a time.
//!
//! # One append per call
//!
//! A [`BlockStore::write`] of W blocks encodes its W records into one
//! buffer and appends them to `journal.wal` in one `write` before it
//! returns. [`StoreStats::journal_batches`] counts those appends.
//! Nothing acknowledged is held back in memory, so a process that is
//! killed outright (SIGKILL, abort: no destructor runs) loses no
//! acknowledged write: the records are in the OS page cache, and the
//! next [`FileStore::open`] replays them. Durability against *power
//! loss* is [`BlockStore::flush`]'s job: appends are not fsynced, the
//! flush's `sync_data` is.
//!
//! # Journal record format
//!
//! ```text
//! +--------+-------------+------------------+-----------------+
//! | "WAL2" | block index | payload          | checksum        |
//! | 4      | u64 LE      | BLOCK_SIZE bytes | u64 LE          |
//! +--------+-------------+------------------+-----------------+
//! |<------------- checksummed ------------->|
//!   [`JOURNAL_RECORD_LEN`] = 20 + BLOCK_SIZE bytes
//! ```
//!
//! The checksum is [`onc_rpc::frame::checksum64`] over everything
//! before it, so a flipped bit in the *index* is caught too: a record
//! with an intact payload must not replay into the wrong block. It is
//! the tree's one integrity checksum; its definition, and why a
//! tripwire rather than a cryptographic hash is what a record on the
//! server's own disk needs, are in [`onc_rpc::frame`]. Replay stops at
//! the first record that is short, has the wrong magic, fails its
//! checksum or names a block past the end of the store.
//!
//! Builds before this format wrote `"WALR"` records (SHA-256 between
//! index and payload, 8236 bytes). Those cannot be told from a torn
//! record by checksum, so the magic changed with the layout, and
//! [`FileStore::open`] refuses a journal that starts with the old
//! magic rather than truncating away its un-checkpointed writes.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use onc_rpc::frame::checksum64;
use parking_lot::Mutex;

use crate::{BlockStore, IoClass, StoreStats, BLOCK_SIZE};

/// Journal record magic. The digit is the record layout's version.
const RECORD_MAGIC: [u8; 4] = *b"WAL2";
/// Magic of the previous layout, which this build cannot replay.
const LEGACY_RECORD_MAGIC: [u8; 4] = *b"WALR";
/// Magic + block index, ahead of the payload.
const RECORD_PREFIX: usize = 4 + 8;
/// Bytes of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Total on-disk size of one journal record (prefix, one block,
/// checksum).
///
/// Public so crash-injection tests can truncate `journal.wal` at (and
/// inside) exact record boundaries.
pub const JOURNAL_RECORD_LEN: usize = RECORD_PREFIX + BLOCK_SIZE + CHECKSUM_LEN;

/// Appends the journal record for a write of `payload` to block `idx`.
fn encode_record(buf: &mut Vec<u8>, idx: u64, payload: &[u8]) {
    buf.reserve(JOURNAL_RECORD_LEN);
    let start = buf.len();
    buf.extend_from_slice(&RECORD_MAGIC);
    buf.extend_from_slice(&idx.to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = record_checksum(&buf[start..]);
    buf.extend_from_slice(&sum);
}

/// The trailer of a record whose magic ‖ index ‖ payload are `covered`.
fn record_checksum(covered: &[u8]) -> [u8; CHECKSUM_LEN] {
    checksum64(covered).to_le_bytes()
}

/// Parses one journal record: `Some((block index, payload))` when it is
/// whole, carries the magic, passes its checksum and names a block
/// below `block_count`.
fn decode_record(record: &[u8], block_count: u64) -> Option<(u64, &[u8])> {
    if record.len() != JOURNAL_RECORD_LEN || record[..4] != RECORD_MAGIC {
        return None;
    }
    let (covered, sum) = record.split_at(RECORD_PREFIX + BLOCK_SIZE);
    if record_checksum(covered) != sum {
        return None;
    }
    let idx = u64::from_le_bytes(covered[4..RECORD_PREFIX].try_into().expect("8 bytes"));
    (idx < block_count).then_some((idx, &covered[RECORD_PREFIX..]))
}

struct FileState {
    data: File,
    /// The journal file; its cursor stays at `journal_len` (reads are
    /// positional).
    journal: File,
    /// Bytes of whole records in the journal file.
    journal_len: u64,
    /// Journaled writes not yet applied to the data file: block index →
    /// journal offset of that block's latest payload.
    dirty: HashMap<u64, u64>,
    reads: u64,
    writes: u64,
    journal_records: u64,
    journal_batches: u64,
    vectored_reads: u64,
    vectored_writes: u64,
    flushes: u64,
}

impl FileState {
    /// Appends whole encoded `records` to the journal file in one
    /// write.
    fn append(&mut self, records: &[u8]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.journal.write_all(records) {
            // A partial append would leave a torn record mid-file; the
            // next append would land behind the fragment and misalign
            // the fixed-size record stream, silently discarding
            // everything after it at replay. Roll the file and its
            // cursor back to the last record boundary so the stream
            // stays dense.
            self.journal.set_len(self.journal_len).ok();
            self.journal.seek(SeekFrom::Start(self.journal_len)).ok();
            return Err(e);
        }
        self.journal_len += records.len() as u64;
        self.journal_batches += 1;
        Ok(())
    }
}

/// A persistent block store rooted at a directory.
pub struct FileStore {
    state: Mutex<FileState>,
    block_count: u64,
}

impl FileStore {
    /// Opens (creating if needed) the store under `dir`, replaying any
    /// journal left behind by an unclean shutdown.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating or reading the backing
    /// files. A journal left by a build with the previous record layout
    /// is [`std::io::ErrorKind::InvalidData`]; the journal is not
    /// touched.
    pub fn open(dir: &Path, block_count: u64) -> std::io::Result<FileStore> {
        std::fs::create_dir_all(dir)?;
        let data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("blocks.dat"))?;
        // Never shrink an existing data file: reopening a volume with a
        // smaller block count must not silently destroy its tail. The
        // store simply grows to cover whatever is already on disk.
        let existing_blocks = data.metadata()?.len().div_ceil(BLOCK_SIZE as u64);
        let block_count = block_count.max(existing_blocks);
        data.set_len(block_count * BLOCK_SIZE as u64)?;
        let mut journal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("journal.wal"))?;

        Self::replay(&data, &mut journal, block_count)?;

        Ok(FileStore {
            state: Mutex::new(FileState {
                data,
                journal,
                journal_len: 0,
                dirty: HashMap::new(),
                reads: 0,
                writes: 0,
                journal_records: 0,
                journal_batches: 0,
                vectored_reads: 0,
                vectored_writes: 0,
                flushes: 0,
            }),
            block_count,
        })
    }

    /// Applies every complete, checksum-valid journal record to the
    /// data file, then truncates the journal. A torn or corrupt record
    /// ends the replay — records are written in order, so everything
    /// before it is intact. A journal in the previous record layout is
    /// an error and is left as it was found. The journal is read one
    /// record at a time into one buffer, however long it is.
    fn replay(data: &File, journal: &mut File, block_count: u64) -> std::io::Result<()> {
        journal.seek(SeekFrom::Start(0))?;
        let mut record = Vec::with_capacity(JOURNAL_RECORD_LEN);
        let mut applied = 0u64;
        loop {
            record.clear();
            Read::take(&mut *journal, JOURNAL_RECORD_LEN as u64).read_to_end(&mut record)?;
            let Some((idx, payload)) = decode_record(&record, block_count) else {
                if applied == 0 && record.starts_with(&LEGACY_RECORD_MAGIC) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "journal.wal holds records in the earlier \"WALR\" layout; open the \
                         store with the build that wrote it so they are applied, or remove \
                         the journal to discard them",
                    ));
                }
                break;
            };
            data.write_all_at(payload, idx * BLOCK_SIZE as u64)?;
            applied += 1;
        }
        if applied > 0 {
            data.sync_data()?;
        }
        journal.set_len(0)?;
        journal.seek(SeekFrom::Start(0))?;
        Ok(())
    }

    /// Simulates a crash: drops the store without applying the journal
    /// to the data file. Every acknowledged write is already on the
    /// journal and is recovered by the next [`FileStore::open`]; only
    /// the in-memory index of journal offsets goes. This exists so
    /// tests can exercise that path explicitly.
    pub fn crash(self) {
        drop(self);
    }
}

impl BlockStore for FileStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    /// One state-lock acquisition for the whole extent. A dirty block
    /// is read from its latest journal record, any other from the data
    /// file; both are positional reads. The file store has no separate
    /// metadata path; both classes count.
    fn read(&self, _class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        let mut s = self.state.lock();
        s.vectored_reads += u64::from(idxs.len() > 1);
        s.reads += idxs.len() as u64;
        idxs.iter()
            .map(|&idx| {
                assert!(idx < self.block_count, "block {idx} out of range");
                let (file, at) = match s.dirty.get(&idx) {
                    Some(&at) => (&s.journal, at),
                    None => (&s.data, idx * BLOCK_SIZE as u64),
                };
                let mut buf = vec![0u8; BLOCK_SIZE];
                file.read_exact_at(&mut buf, at).expect("block read");
                Bytes::from(buf)
            })
            .collect()
    }

    /// Journals `writes` as one append, so the call is a durability
    /// unit, then records where each block's payload sits in the
    /// journal; a block named twice reads its later pair. The records
    /// are encoded before the state lock is taken.
    fn write(&self, _class: IoClass, writes: &[(u64, &[u8])]) {
        let mut records = Vec::with_capacity(writes.len() * JOURNAL_RECORD_LEN);
        for &(idx, data) in writes {
            assert!(idx < self.block_count, "block {idx} out of range");
            assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
            encode_record(&mut records, idx, data);
        }
        let mut s = self.state.lock();
        let mut payload_at = s.journal_len + RECORD_PREFIX as u64;
        s.append(&records).expect("journal append");
        s.journal_records += writes.len() as u64;
        s.writes += writes.len() as u64;
        s.vectored_writes += u64::from(writes.len() > 1);
        for &(idx, _) in writes {
            s.dirty.insert(idx, payload_at);
            payload_at += JOURNAL_RECORD_LEN as u64;
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        let mut s = self.state.lock();
        // Every acknowledged record is already on the journal, so if
        // applying fails midway, replay can still finish the job on
        // the next open. Apply without draining: if any step fails,
        // the dirty map and the journal it points into still hold the
        // acknowledged writes, so reads stay correct and a later flush
        // or replay can retry. Ascending block order, so the data file
        // is written front to back.
        let mut pending: Vec<(u64, u64)> = s.dirty.iter().map(|(&idx, &at)| (idx, at)).collect();
        pending.sort_unstable_by_key(|&(idx, _)| idx);
        let mut block = vec![0u8; BLOCK_SIZE];
        for (idx, at) in pending {
            s.journal.read_exact_at(&mut block, at)?;
            s.data.write_all_at(&block, idx * BLOCK_SIZE as u64)?;
        }
        s.data.sync_data()?;
        // Only now is it safe to forget the journal and the offsets
        // into it.
        s.dirty.clear();
        s.journal.set_len(0)?;
        s.journal_len = 0;
        s.journal.seek(SeekFrom::Start(0))?;
        s.journal_records = 0;
        s.flushes += 1;
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        let s = self.state.lock();
        StoreStats {
            reads: s.reads,
            writes: s.writes,
            journal_records: s.journal_records,
            journal_batches: s.journal_batches,
            vectored_reads: s.vectored_reads,
            vectored_writes: s.vectored_writes,
            flushes: s.flushes,
            ..StoreStats::default()
        }
    }

    fn label(&self) -> &'static str {
        "file-journal"
    }
}

/// A unique scratch directory under the system temp dir (test helper
/// shared by this crate's unit, property, and bench code).
#[doc(hidden)]
pub fn temp_dir_for_tests(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("discfs-store-{}-{}-{}", std::process::id(), tag, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persists_across_reopen_after_flush() {
        let dir = temp_dir_for_tests("reopen");
        let mut block = vec![0u8; BLOCK_SIZE];
        block[7] = 0x77;
        {
            let store = FileStore::open(&dir, 8).unwrap();
            store.write_block(2, &block);
            store.flush().unwrap();
        }
        let store = FileStore::open(&dir, 8).unwrap();
        assert_eq!(store.read_block(2), block);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_recovers_unflushed_writes() {
        let dir = temp_dir_for_tests("replay");
        let mut block = vec![0u8; BLOCK_SIZE];
        block[0] = 0x55;
        {
            let store = FileStore::open(&dir, 8).unwrap();
            store.write_block(5, &block);
            store.crash(); // no flush
        }
        let store = FileStore::open(&dir, 8).unwrap();
        assert_eq!(store.read_block(5), block, "journal must replay");
        // The journal was truncated after replay: stats start clean.
        assert_eq!(store.stats().journal_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_record_is_discarded() {
        let dir = temp_dir_for_tests("torn");
        let mut block = vec![0u8; BLOCK_SIZE];
        block[0] = 0x99;
        {
            let store = FileStore::open(&dir, 8).unwrap();
            store.write_block(1, &block);
            store.crash();
        }
        // Tear the last record: chop 100 bytes off the journal.
        let journal_path = dir.join("journal.wal");
        let len = std::fs::metadata(&journal_path).unwrap().len();
        let journal = OpenOptions::new().write(true).open(&journal_path).unwrap();
        journal.set_len(len - 100).unwrap();
        drop(journal);

        let store = FileStore::open(&dir, 8).unwrap();
        // The torn write is gone; the block reads as zeros.
        assert!(store.read_block(1).iter().all(|&b| b == 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_record_index_is_rejected() {
        let dir = temp_dir_for_tests("bad-idx");
        let mut block = vec![0u8; BLOCK_SIZE];
        block[0] = 0x44;
        {
            let store = FileStore::open(&dir, 8).unwrap();
            store.write_block(2, &block);
            store.crash();
        }
        // Flip a bit in the record's index field (bytes 4..12): the
        // payload is intact, but the checksum covers the index too, so
        // replay must refuse to write the payload anywhere.
        let journal_path = dir.join("journal.wal");
        let mut bytes = std::fs::read(&journal_path).unwrap();
        bytes[4] ^= 0x01; // idx 2 -> 3
        std::fs::write(&journal_path, &bytes).unwrap();

        let store = FileStore::open(&dir, 8).unwrap();
        assert!(store.read_block(2).iter().all(|&b| b == 0));
        assert!(store.read_block(3).iter().all(|&b| b == 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_record() -> Vec<u8> {
        let payload: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i * 11 + 3) as u8).collect();
        let mut record = Vec::new();
        encode_record(&mut record, 5, &payload);
        assert_eq!(record.len(), JOURNAL_RECORD_LEN);
        assert_eq!(decode_record(&record, 8), Some((5, &payload[..])));
        record
    }

    #[test]
    fn every_single_bit_flip_of_a_record_is_rejected() {
        let record = sample_record();
        // Far more blocks than any flipped index can name, so it is the
        // checksum that has to refuse, not the range check.
        let block_count = u64::MAX;
        for bit in 0..record.len() * 8 {
            let mut bad = record.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(decode_record(&bad, block_count), None, "bit {bit}");
        }
    }

    #[test]
    fn every_truncation_of_a_record_is_rejected() {
        let record = sample_record();
        for keep in 0..record.len() {
            assert_eq!(decode_record(&record[..keep], 8), None, "cut to {keep}");
        }
        // A record naming a block past the end is refused as well.
        assert_eq!(decode_record(&record, 5), None);
    }

    /// The journal format, pinned byte for byte: a change of layout
    /// has to come with a change of magic, or a later build takes an
    /// earlier build's records for torn ones.
    #[test]
    fn record_bytes_are_pinned() {
        let record = sample_record();
        assert_eq!(&record[..4], b"WAL2");
        assert_eq!(record[4..12], 5u64.to_le_bytes());
        assert_eq!(record[12], 3);
        assert_eq!(
            record[RECORD_PREFIX + BLOCK_SIZE..],
            0x7b9d_e911_53af_3945u64.to_le_bytes()
        );
    }

    /// A journal in the previous layout (SHA-256 between index and
    /// payload) is refused, not mistaken for a torn record and
    /// truncated: its writes are still there for the build that can
    /// replay them.
    #[test]
    fn journal_in_the_previous_layout_is_refused_and_kept() {
        let dir = temp_dir_for_tests("legacy-journal");
        std::fs::create_dir_all(&dir).unwrap();
        let mut legacy = b"WALR".to_vec();
        legacy.extend_from_slice(&5u64.to_le_bytes());
        legacy.extend_from_slice(&[0xab; 32]);
        legacy.extend_from_slice(&[3u8; BLOCK_SIZE]);
        std::fs::write(dir.join("journal.wal"), &legacy).unwrap();
        let err = FileStore::open(&dir, 16).err().expect("legacy journal");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(dir.join("journal.wal")).unwrap(), legacy);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same refusals through a real replay: a flipped bit in each
    /// field and a cut inside each field leave the block unwritten, and
    /// end the replay for the intact record behind it.
    #[test]
    fn replay_stops_at_a_flipped_or_torn_record() {
        let first = vec![0x5au8; BLOCK_SIZE];
        let second = vec![0xc3u8; BLOCK_SIZE];
        type Damage = fn(&mut Vec<u8>);
        let damage: [(&str, Damage); 6] = [
            ("magic bit", |j| j[1] ^= 0x10),
            ("index bit", |j| j[4] ^= 0x01),
            ("payload bit", |j| j[RECORD_PREFIX + 4096] ^= 0x80),
            ("checksum bit", |j| j[JOURNAL_RECORD_LEN - 1] ^= 0x02),
            ("zeroed payload tail", |j| {
                j[JOURNAL_RECORD_LEN - CHECKSUM_LEN - 512..JOURNAL_RECORD_LEN - CHECKSUM_LEN]
                    .fill(0)
            }),
            ("cut inside the checksum", |j| {
                j.truncate(JOURNAL_RECORD_LEN - 3)
            }),
        ];
        for (what, apply) in damage {
            let dir = temp_dir_for_tests("replay-damage");
            {
                let store = FileStore::open(&dir, 8).unwrap();
                store.write_block(2, &first);
                store.write_block(6, &second);
                store.crash();
            }
            let journal_path = dir.join("journal.wal");
            let mut journal = std::fs::read(&journal_path).unwrap();
            assert_eq!(journal.len(), 2 * JOURNAL_RECORD_LEN);
            apply(&mut journal);
            std::fs::write(&journal_path, &journal).unwrap();

            let store = FileStore::open(&dir, 8).unwrap();
            for idx in 0..8 {
                assert!(
                    store.read_block(idx).iter().all(|&b| b == 0),
                    "{what}: block {idx} was written"
                );
            }
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn flush_then_crash_keeps_data() {
        let dir = temp_dir_for_tests("flush-crash");
        let a = vec![1u8; BLOCK_SIZE];
        let b = vec![2u8; BLOCK_SIZE];
        {
            let store = FileStore::open(&dir, 8).unwrap();
            store.write_block(0, &a);
            store.flush().unwrap();
            store.write_block(1, &b);
            store.crash();
        }
        let store = FileStore::open(&dir, 8).unwrap();
        assert_eq!(store.read_block(0), a);
        assert_eq!(store.read_block(1), b);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The SIGKILL model: `forget` runs no destructor, so whatever the
    /// reopened store reads back was on the journal when `write_block`
    /// returned.
    #[test]
    fn a_write_is_on_the_journal_when_the_call_returns() {
        let dir = temp_dir_for_tests("sigkill");
        let mut block = vec![0u8; BLOCK_SIZE];
        block[3] = 0x33;
        let store = FileStore::open(&dir, 8).unwrap();
        store.write_block(4, &block);
        let len = std::fs::metadata(dir.join("journal.wal")).unwrap().len();
        assert_eq!(len, JOURNAL_RECORD_LEN as u64);
        std::mem::forget(store);
        let store = FileStore::open(&dir, 8).unwrap();
        assert_eq!(store.read_block(4), block);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_journal_append_per_call() {
        let dir = temp_dir_for_tests("appends");
        let (n, w) = (5u64, 39u64);
        let block_of = |i: u64| {
            let mut b = vec![0u8; BLOCK_SIZE];
            b[0] = i as u8 + 1;
            b
        };
        {
            let store = FileStore::open(&dir, 64).unwrap();
            for i in 0..n {
                store.write_block(i, &block_of(i));
            }
            let blocks: Vec<Vec<u8>> = (n..n + w).map(block_of).collect();
            let writes: Vec<(u64, &[u8])> = (n..).zip(blocks.iter().map(Vec::as_slice)).collect();
            store.write_blocks(&writes);
            let stats = store.stats();
            assert_eq!(stats.journal_batches, n + 1);
            assert_eq!(stats.journal_records, n + w);
            assert_eq!(stats.vectored_writes, 1);
            let len = std::fs::metadata(dir.join("journal.wal")).unwrap().len();
            assert_eq!(len, (n + w) * JOURNAL_RECORD_LEN as u64);
            store.crash();
        }
        // Every record, scalar or vectored, replays on reopen.
        let store = FileStore::open(&dir, 64).unwrap();
        for i in 0..n + w {
            assert_eq!(store.read_block(i), block_of(i));
        }
        // Vectored read agrees with the scalar one.
        let idxs: Vec<u64> = (0..n + w).collect();
        let vectored = store.read_blocks(&idxs);
        for (i, block) in vectored.iter().enumerate() {
            assert_eq!(block, &store.read_block(i as u64));
        }
        assert_eq!(store.stats().vectored_reads, 1);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A block rewritten before the flush has two records on the
    /// journal; reads, the flush and a replay all take the newer one.
    #[test]
    fn two_writes_to_one_block_read_the_newer() {
        let dir = temp_dir_for_tests("rewrite");
        let (old, new) = (vec![1u8; BLOCK_SIZE], vec![2u8; BLOCK_SIZE]);
        {
            let store = FileStore::open(&dir, 8).unwrap();
            store.write_block(3, &old);
            store.write_block(3, &new);
            assert_eq!(store.read_block(3), new);
            store.crash();
        }
        let store = FileStore::open(&dir, 8).unwrap();
        assert_eq!(store.read_block(3), new, "replay");
        store.write_block(3, &old);
        store.write_block(3, &new);
        store.flush().unwrap();
        assert_eq!(store.read_block(3), new, "flushed");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vectored_write_naming_one_block_twice_reads_the_later_pair() {
        let dir = temp_dir_for_tests("vectored-twice");
        let (a, b) = (vec![1u8; BLOCK_SIZE], vec![2u8; BLOCK_SIZE]);
        let store = FileStore::open(&dir, 8).unwrap();
        store.write_blocks(&[(1, &a), (5, &b), (1, &b)]);
        assert_eq!(store.read_block(1), b, "later pair for the same index wins");
        assert_eq!(store.read_block(5), b);
        let stats = store.stats();
        assert_eq!((stats.writes, stats.vectored_writes), (3, 1));
        store.flush().unwrap();
        assert_eq!(store.read_blocks(&[1, 5]), vec![b.clone(), b]);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
