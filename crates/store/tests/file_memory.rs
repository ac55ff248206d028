//! The file store keeps no copy of an un-flushed block: its journal is
//! its dirty buffer, and memory holds the journal offset of each dirty
//! block (16 bytes and a hash-table slot), not the block. A store that
//! kept an 8 KiB copy until the next flush would grow by 8 MiB here.
//!
//! A test binary of its own, because it installs a global allocator
//! that counts live bytes. The count lives in a `const`-initialised
//! thread-local, so what libtest's other threads allocate is not
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use store::{temp_dir_for_tests, BlockStore, FileStore, BLOCK_SIZE};

struct LiveBytes;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: delegates to the system allocator unchanged; the counter is a
// `Cell` in a const-initialised thread-local with no destructor, which
// neither allocates nor can be gone when accessed.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + layout.size() as i64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const WRITES: u64 = 1024;

/// Block `i`'s contents in write round `round`: every block and round
/// distinct.
fn block_of(round: u8, i: u64) -> Vec<u8> {
    let mut block = vec![round; BLOCK_SIZE];
    block[..8].copy_from_slice(&i.to_le_bytes());
    block
}

fn write_round(store: &FileStore, round: u8) {
    for i in 0..WRITES {
        store.write_block(i, &block_of(round, i));
    }
}

fn assert_reads_back(store: &FileStore, round: u8, when: &str) {
    for i in 0..WRITES {
        assert_eq!(store.read_block(i), block_of(round, i), "block {i} {when}");
    }
}

#[test]
fn unflushed_writes_keep_no_block_in_memory() {
    let dir = temp_dir_for_tests("memory");
    let store = FileStore::open(&dir, WRITES).unwrap();
    let before = LIVE.with(Cell::get);
    write_round(&store, 1);
    let growth = LIVE.with(Cell::get) - before;
    assert!(
        growth <= 64 << 10,
        "{WRITES} un-flushed writes left {growth} live heap bytes"
    );
    assert_reads_back(&store, 1, "before the flush");
    store.flush().unwrap();
    assert_reads_back(&store, 1, "after the flush");
    // Dirty again, then dropped without a flush: the journal replays.
    write_round(&store, 2);
    store.crash();
    let store = FileStore::open(&dir, WRITES).unwrap();
    assert_reads_back(&store, 2, "after the crash and reopen");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
