//! The simulated timing-model store.
//!
//! The paper's server stored files on a Quantum Fireball CT10 (a 1999
//! 5400 RPM IDE disk). [`DiskModel::quantum_fireball_ct10`] charges the
//! shared [`SimClock`] a seek + rotational delay for non-sequential
//! accesses and a media-rate transfer time per block, so virtual-time
//! results have the right storage-bound shape. [`IoClass::Meta`] calls
//! are neither charged nor counted: they carry what the server's buffer
//! cache would hold (bitmaps, inode table, a pointer block's first
//! read); `ffs` keeps pointer blocks and directory names in core
//! itself, so repeated uses of those never arrive here.
//!
//! Blocks are held as shared [`Bytes`] handles: a read clones a
//! refcount instead of copying 8 KB, and a write overwrites a block in
//! its own buffer when no reader still holds a handle to it (one that
//! is held gets a copy, in a spare buffer of the volume's pool when it
//! has one, so the reader keeps what it read). A pass that rewrites a
//! file thus reuses the file's blocks instead of reallocating them.
//! The store holds a map entry only for a block once written non-zero:
//! one never written, or written as zeros over the zero block or a
//! buffer a reader holds (`ffs` formats a volume by zeroing its inode
//! table), has no entry and reads as the process-wide zero block. A
//! store costs what its data costs, not what its size does: a 256 MiB
//! volume built and never written holds no memory per block (it held a
//! 24-byte handle for each, 778 KB).

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use netsim::SimClock;
use parking_lot::Mutex;

use crate::{vectored, zero_block, BlockPool, BlockStore, IoClass, StoreStats, BLOCK_SIZE};

/// Timing model for the simulated disk.
#[derive(Debug, Clone, Copy)]
pub struct DiskModel {
    /// Average seek time applied to non-sequential accesses.
    pub(crate) avg_seek: Duration,
    /// Average rotational delay (half a revolution).
    pub(crate) rotational: Duration,
    /// Sustained media transfer rate in bytes/second.
    pub(crate) transfer_rate: u64,
}

impl DiskModel {
    /// The paper's disk: Quantum Fireball CT10, 5400 RPM IDE.
    ///
    /// 8.5 ms average seek, 5.55 ms rotational latency (half of an
    /// 11.1 ms revolution at 5400 RPM), ~15 MB/s media rate.
    pub fn quantum_fireball_ct10() -> DiskModel {
        DiskModel {
            avg_seek: Duration::from_micros(8500),
            rotational: Duration::from_micros(5550),
            transfer_rate: 15_000_000,
        }
    }

    /// A free disk for tests that do not measure time.
    pub fn instant() -> DiskModel {
        DiskModel {
            avg_seek: Duration::ZERO,
            rotational: Duration::ZERO,
            transfer_rate: u64::MAX,
        }
    }

    fn transfer_time(&self, bytes: usize) -> Duration {
        if self.transfer_rate == u64::MAX {
            return Duration::ZERO;
        }
        Duration::from_nanos((bytes as u64).saturating_mul(1_000_000_000) / self.transfer_rate)
    }

    /// Charges `clock` for one data-block access at `block` with the
    /// head last at `last`: seek + rotational delay unless the access
    /// is sequential (the same or the next block), then one block's
    /// transfer time. The one charging rule of [`SimStore`].
    fn charge(&self, clock: &SimClock, last: &mut Option<u64>, block: u64) {
        let sequential = *last == Some(block.wrapping_sub(1)) || *last == Some(block);
        if !sequential {
            clock.advance(self.avg_seek + self.rotational);
        }
        clock.advance(self.transfer_time(BLOCK_SIZE));
        *last = Some(block);
    }

    /// The model's cost for one **contiguous run** of `run_len` data
    /// blocks starting from a cold head position: one average seek +
    /// rotational delay for the run, then media-rate transfer per
    /// block. This is exactly what the per-block charge produces for
    /// an ascending run (sequential accesses skip the seek), exposed
    /// so tests and benchmarks can assert that one N-block call and N
    /// one-block calls are charged alike — the contract behind the
    /// virtual-time figures not depending on how a caller batches.
    pub fn run_cost(&self, run_len: usize) -> Duration {
        if run_len == 0 {
            return Duration::ZERO;
        }
        self.avg_seek + self.rotational + self.transfer_time(BLOCK_SIZE) * run_len as u32
    }
}

struct SimState {
    /// The blocks once written non-zero; any other reads as
    /// [`zero_block`].
    blocks: HashMap<u64, Bytes>,
    last_block: Option<u64>,
    reads: u64,
    writes: u64,
    vectored_reads: u64,
    vectored_writes: u64,
}

/// An in-memory block device with virtual-time charging.
pub struct SimStore {
    state: Mutex<SimState>,
    block_count: u64,
    model: DiskModel,
    clock: SimClock,
    /// Where a block written over a zero block or a reader's buffer
    /// gets its copy.
    pool: BlockPool,
}

impl SimStore {
    /// Creates a store of `block_count` blocks charging `clock`.
    pub fn new(clock: &SimClock, model: DiskModel, block_count: u64) -> SimStore {
        SimStore {
            state: Mutex::new(SimState {
                blocks: HashMap::new(),
                last_block: None,
                reads: 0,
                writes: 0,
                vectored_reads: 0,
                vectored_writes: 0,
            }),
            block_count,
            model,
            clock: clock.clone(),
            pool: BlockPool::new(),
        }
    }

    /// This store drawing its block copies from `pool`.
    pub(crate) fn in_pool(mut self, pool: BlockPool) -> SimStore {
        self.pool = pool;
        self
    }

    /// Creates an untimed store (unit tests).
    pub fn untimed(block_count: u64) -> SimStore {
        SimStore::new(&SimClock::new(), DiskModel::instant(), block_count)
    }
}

impl BlockStore for SimStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    /// One lock acquisition for the whole extent. A data block is
    /// charged and counted as it is visited, so an ascending run pays
    /// one seek however many calls it arrives in, and a scattered one
    /// pays one per jump.
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        let mut s = self.state.lock();
        s.vectored_reads += vectored(class, idxs.len());
        idxs.iter()
            .map(|&idx| {
                assert!(idx < self.block_count, "block {idx} out of range");
                if class == IoClass::Data {
                    self.model.charge(&self.clock, &mut s.last_block, idx);
                    s.reads += 1;
                }
                s.blocks.get(&idx).cloned().unwrap_or_else(zero_block)
            })
            .collect()
    }

    /// One lock acquisition, charging and counting like
    /// [`SimStore::read`].
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        let mut s = self.state.lock();
        s.vectored_writes += vectored(class, writes.len());
        for &(idx, block) in writes {
            assert!(idx < self.block_count, "block {idx} out of range");
            assert_eq!(block.len(), BLOCK_SIZE, "partial block write");
            if class == IoClass::Data {
                self.model.charge(&self.clock, &mut s.last_block, idx);
                s.writes += 1;
            }
            let mut slot = s.blocks.remove(&idx).unwrap_or_else(zero_block);
            self.pool.overwrite(&mut slot, block);
            if slot.as_ptr() != zero_block().as_ptr() {
                s.blocks.insert(idx, slot);
            }
        }
    }

    fn stats(&self) -> StoreStats {
        let s = self.state.lock();
        StoreStats {
            reads: s.reads,
            writes: s.writes,
            vectored_reads: s.vectored_reads,
            vectored_writes: s.vectored_writes,
            ..StoreStats::default()
        }
    }

    fn label(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let disk = SimStore::untimed(8);
        let mut block = vec![0u8; BLOCK_SIZE];
        block[0] = 0xab;
        block[BLOCK_SIZE - 1] = 0xcd;
        disk.write_block(3, &block);
        assert_eq!(disk.read_block(3), block);
        // Other blocks stay zero.
        assert!(disk.read_block(2).iter().all(|&b| b == 0));
    }

    #[test]
    fn sequential_access_is_cheaper() {
        let clock = SimClock::new();
        let disk = SimStore::new(&clock, DiskModel::quantum_fireball_ct10(), 64);
        let block = vec![0u8; BLOCK_SIZE];
        disk.write_block(0, &block);
        let after_first = clock.now();
        disk.write_block(1, &block);
        let sequential_cost = clock.now() - after_first;
        disk.write_block(40, &block);
        let seek_cost = clock.now() - after_first - sequential_cost;
        assert!(
            seek_cost > sequential_cost * 5,
            "seek {seek_cost:?} vs sequential {sequential_cost:?}"
        );
    }

    #[test]
    fn io_counters() {
        let disk = SimStore::untimed(4);
        let block = vec![0u8; BLOCK_SIZE];
        disk.write_block(0, &block);
        disk.read_block(0);
        disk.read_block(1);
        let stats = disk.stats();
        assert_eq!((stats.reads, stats.writes), (2, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        SimStore::untimed(4).read_block(4);
    }

    #[test]
    fn an_unshared_block_is_overwritten_in_place() {
        crate::check_overwrite_in_place(&SimStore::untimed(8), 5);
    }

    #[test]
    fn meta_io_is_free() {
        let clock = SimClock::new();
        let disk = SimStore::new(&clock, DiskModel::quantum_fireball_ct10(), 8);
        disk.write_block_meta(5, &vec![1u8; BLOCK_SIZE]);
        assert_eq!(disk.read_block_meta(5)[0], 1);
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn vectored_charging_matches_the_looped_path() {
        let model = DiskModel::quantum_fireball_ct10();
        let idxs: Vec<u64> = (0..16).collect();
        let block = vec![1u8; BLOCK_SIZE];
        let writes: Vec<(u64, &[u8])> = (32..48).map(|i| (i, &block[..])).collect();
        // An ascending run of reads, then one of writes, block by block.
        let clock_loop = SimClock::new();
        let looped = SimStore::new(&clock_loop, model, 64);
        for &i in &idxs {
            looped.read(IoClass::Data, &[i]);
        }
        for w in &writes {
            looped.write(IoClass::Data, &[*w]);
        }
        // The same two runs as one call each: a seek and 16 transfers apiece.
        let clock_vec = SimClock::new();
        let vectored = SimStore::new(&clock_vec, model, 64);
        assert_eq!(vectored.read(IoClass::Data, &idxs).len(), 16);
        assert_eq!(clock_vec.now(), model.run_cost(16));
        vectored.write(IoClass::Data, &writes);
        assert_eq!(clock_vec.now(), model.run_cost(16) * 2);
        assert_eq!(clock_vec.now(), clock_loop.now(), "identical charges");
        // Counted alike; only a call of more than one data block is vectored.
        let (one, many) = (looped.stats(), vectored.stats());
        assert_eq!((one.reads, one.writes), (many.reads, many.writes));
        assert_eq!((many.reads, many.writes), (16, 16));
        assert_eq!((one.vectored_reads, one.vectored_writes), (0, 0));
        assert_eq!((many.vectored_reads, many.vectored_writes), (1, 1));
    }

    #[test]
    fn vectored_write_roundtrips_and_counts() {
        let disk = SimStore::untimed(8);
        let a = vec![1u8; BLOCK_SIZE];
        let b = vec![2u8; BLOCK_SIZE];
        disk.write_blocks(&[(1, &a), (5, &b), (1, &b)]);
        assert_eq!(disk.read_block(1), b, "later pair for the same index wins");
        assert_eq!(disk.read_block(5), b);
        let stats = disk.stats();
        assert_eq!(stats.writes, 3);
        assert_eq!(stats.vectored_writes, 1);
    }

    #[test]
    fn read_into_matches_handle_read() {
        let disk = SimStore::untimed(4);
        let block: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 253) as u8).collect();
        disk.write_block(1, &block);
        let mut buf = vec![0u8; BLOCK_SIZE];
        disk.read_block_into(1, &mut buf);
        assert_eq!(buf, block);
        disk.read_block_meta_into(1, &mut buf);
        assert_eq!(buf, block);
        // Only the charged read counts; the meta read is free.
        assert_eq!((disk.stats().reads, disk.stats().writes), (1, 1));
    }
}
