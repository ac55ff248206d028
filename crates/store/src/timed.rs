//! Virtual-time charging over any [`BlockStore`] — the ROADMAP's
//! "timed wrapper for persistent backends".
//!
//! [`SimStore`](crate::SimStore) bakes the paper's disk timing model
//! into the in-memory backend, which meant virtual-time figures could
//! only be produced there: `FileJournal` or `Dedup` volumes reported
//! wall time alone. [`TimedStore`] lifts the same seek/rotation/
//! transfer model into a wrapper, so a benchmark can put *any* backend
//! on the shared [`SimClock`] and compare backends in virtual time —
//! e.g. how much of a dedup store's absorbed write stream turns into
//! saved disk seconds.
//!
//! Charging is `SimStore`'s, by the one function on [`DiskModel`] both
//! call: non-sequential data accesses pay seek + rotational delay,
//! every data block pays media-rate transfer time, and [`IoClass::Meta`]
//! is free. What `ffs` sends down the free path is what its
//! server's buffer cache would hold: bitmaps (kept in core), the inode
//! table, and the first read of a pointer block — later uses come from
//! `ffs`'s own pointer-block cache and reach no store at all.
//! Directory blocks are data: a READDIR or a cold LOOKUP is charged, a
//! warm LOOKUP is answered by `ffs`'s name cache without a call here.

use bytes::Bytes;
use netsim::SimClock;
use parking_lot::Mutex;

use crate::{BlockStore, DiskModel, IoClass, StoreStats};

/// Charges [`DiskModel`] costs on an inner store's data-path I/O.
pub struct TimedStore<S> {
    inner: S,
    clock: SimClock,
    model: DiskModel,
    last_block: Mutex<Option<u64>>,
}

impl<S: BlockStore> TimedStore<S> {
    /// Wraps `inner`, charging `model` costs to `clock`.
    pub fn new(inner: S, clock: &SimClock, model: DiskModel) -> TimedStore<S> {
        TimedStore {
            inner,
            clock: clock.clone(),
            model,
            last_block: Mutex::new(None),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The clock charged by this wrapper.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Charges a data extent under one head-position lock: each
    /// **contiguous ascending run** inside it pays one seek + rotation
    /// and per-block transfer time — [`DiskModel::run_cost`] — and
    /// every jump between runs pays a fresh seek. The head position
    /// outlives the call, so a run that arrives as N one-block calls is
    /// charged what one N-block call is: batching buys fewer lock
    /// round-trips, not a different cost model. Metadata is free.
    fn charge_run(&self, class: IoClass, blocks: impl Iterator<Item = u64>) {
        if class == IoClass::Meta {
            return;
        }
        let mut last = self.last_block.lock();
        for block in blocks {
            self.model.charge(&self.clock, &mut last, block);
        }
    }
}

impl<S: BlockStore> BlockStore for TimedStore<S> {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        self.charge_run(class, idxs.iter().copied());
        self.inner.read(class, idxs)
    }

    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        self.charge_run(class, writes.iter().map(|(idx, _)| *idx));
        self.inner.write(class, writes)
    }

    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        "timed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DedupStore, BLOCK_SIZE};
    use std::time::Duration;

    #[test]
    fn charges_virtual_time_on_any_backend() {
        let clock = SimClock::new();
        let store = TimedStore::new(
            DedupStore::new(64),
            &clock,
            DiskModel::quantum_fireball_ct10(),
        );
        let block = vec![3u8; BLOCK_SIZE];
        store.write_block(0, &block);
        let after_first = clock.now();
        assert!(after_first > Duration::ZERO, "write must be charged");
        store.write_block(1, &block);
        let sequential = clock.now() - after_first;
        store.write_block(40, &block);
        let seek = clock.now() - after_first - sequential;
        assert!(
            seek > sequential * 5,
            "seek {seek:?} vs sequential {sequential:?}"
        );
        // Content still round-trips through the wrapped backend.
        assert_eq!(store.read_block(0), block);
        assert!(store.stats().dedup_hits > 0, "inner stats visible");
    }

    #[test]
    fn contiguous_run_charges_one_seek() {
        let clock = SimClock::new();
        let model = DiskModel::quantum_fireball_ct10();
        let store = TimedStore::new(DedupStore::new(64), &clock, model);
        // One vectored contiguous run: seek + rotation once, transfer
        // per block — the exposed run model, exactly.
        let run: Vec<u64> = (8..24).collect();
        store.read_blocks(&run);
        assert_eq!(clock.now(), model.run_cost(16));
        // The same run one block at a time, from the same head
        // position, is charged the same.
        let looped_clock = SimClock::new();
        let looped = TimedStore::new(DedupStore::new(64), &looped_clock, model);
        for &idx in &run {
            looped.read_block(idx);
        }
        assert_eq!(looped_clock.now(), clock.now(), "looped == vectored");
        // A scattered extent of the same size pays a seek per jump.
        clock.reset();
        let scattered: Vec<u64> = (0..16).map(|i| (i * 3) % 64).collect();
        store.read_blocks(&scattered);
        assert!(clock.now() > model.run_cost(16) * 4, "jumps pay seeks");
    }

    #[test]
    fn meta_traffic_is_free() {
        let clock = SimClock::new();
        let store = TimedStore::new(
            DedupStore::new(8),
            &clock,
            DiskModel::quantum_fireball_ct10(),
        );
        store.write_block_meta(2, &vec![1u8; BLOCK_SIZE]);
        assert_eq!(store.read_block_meta(2)[0], 1);
        assert_eq!(clock.now(), Duration::ZERO);
    }
}
