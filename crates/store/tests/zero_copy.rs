//! Zero-copy reads, measured: a hot read on a handle-serving backend
//! allocates no block. Before PR 3 every read built a fresh 8 KB `Vec`;
//! now it clones a refcount into the `Vec` of handles a read returns
//! (32 bytes a handle): at most 128 bytes for each layer it crosses.
//! The simulated disk copies no write of zeros either: such a block is
//! the shared zero block.
//!
//! A test binary of its own, because it installs a byte-counting global
//! allocator. The count lives in a `const`-initialised thread-local, so
//! what libtest's other threads allocate is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use netsim::{LinkConfig, SimClock};
use store::{
    BlockStore, CachedStore, IoClass, RemoteOptions, RemoteStore, ShardedStore, SimStore,
    BLOCK_SIZE,
};

struct CountingAlloc;

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates to the system allocator unchanged; the counter is a
// `Cell` in a const-initialised thread-local with no destructor, which
// neither allocates nor can be gone when accessed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BLOCKS: u64 = 256;

fn sharded_sim(shards: usize, total: u64) -> ShardedStore {
    ShardedStore::new(
        (0..shards)
            .map(|_| {
                Arc::new(SimStore::untimed(total.div_ceil(shards as u64))) as Arc<dyn BlockStore>
            })
            .collect(),
        total,
    )
}

#[test]
fn zero_writes_share_the_zero_block() {
    let store = SimStore::untimed(BLOCKS);
    let zeros = vec![0u8; BLOCK_SIZE];
    let mut one = zeros.clone();
    one[BLOCK_SIZE - 1] = 1;
    let before = ALLOC_BYTES.with(Cell::get);
    for i in 0..BLOCKS {
        store.write_block(i, &zeros);
    }
    let zero_writes = ALLOC_BYTES.with(Cell::get) - before;
    assert!(
        zero_writes < BLOCK_SIZE as u64,
        "{BLOCKS} all-zero writes allocated {zero_writes} bytes"
    );
    let before = ALLOC_BYTES.with(Cell::get);
    store.write_block(7, &one);
    let one_write = ALLOC_BYTES.with(Cell::get) - before;
    assert!(
        (BLOCK_SIZE as u64..2 * BLOCK_SIZE as u64).contains(&one_write),
        "a non-zero write allocated {one_write} bytes, not one block"
    );
    assert_eq!(store.read_block(7), one);
    assert_eq!(store.read_block(8), zeros);
}

#[test]
fn hot_reads_allocate_no_block() {
    let reads = 1000u64;
    let cases: Vec<(&str, u64, Box<dyn BlockStore>)> = vec![
        ("sim-instant", 1, Box::new(SimStore::untimed(BLOCKS))),
        (
            "cached(sim) hits",
            1,
            Box::new(CachedStore::new(SimStore::untimed(BLOCKS), BLOCKS as usize)),
        ),
        ("sharded-4(sim)", 2, Box::new(sharded_sim(4, BLOCKS))),
    ];
    for (name, layers, store) in cases {
        for i in 0..BLOCKS {
            // Sixteen distinct contents, none all-zero.
            store.write_block(i, &[i as u8 % 16 + 1; BLOCK_SIZE]);
        }
        // Touch once so caches are warm, then count.
        for i in 0..BLOCKS {
            std::hint::black_box(store.read_block(i));
        }
        let before = ALLOC_BYTES.with(Cell::get);
        let mut x = 1u64;
        for _ in 0..reads {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(store.read_block(x % BLOCKS));
        }
        let per_read = (ALLOC_BYTES.with(Cell::get) - before) / reads;
        assert!(
            per_read <= 128 * layers,
            "{name}: hot read path must not allocate a block ({per_read} bytes a read)"
        );
    }
}

/// A hot 8-block read from a remote node over an instant link. The
/// node's thread builds the reply; on the client's thread the one copy
/// is the reply's conversion to `Bytes` (the vendored `Bytes` is an
/// `Arc<[u8]>`), and every block is a slice of it: 8 blocks and at
/// most 1 KiB besides, where a copy per block would double it.
#[test]
fn a_hot_remote_read_copies_the_reply_once() {
    let remote = RemoteStore::serve_local(
        SimStore::untimed(BLOCKS),
        &SimClock::new(),
        LinkConfig::instant(),
        RemoteOptions::default(),
    );
    let idxs: Vec<u64> = (0..8).collect();
    for &i in &idxs {
        remote.write_block(i, &[i as u8 + 1; BLOCK_SIZE]);
    }
    std::hint::black_box(remote.read(IoClass::Data, &idxs));
    let reads = 100;
    let before = ALLOC_BYTES.with(Cell::get);
    for _ in 0..reads {
        std::hint::black_box(remote.read(IoClass::Data, &idxs));
    }
    let per_read = (ALLOC_BYTES.with(Cell::get) - before) / reads;
    assert!(
        per_read <= 8 * BLOCK_SIZE as u64 + 1024,
        "a hot 8-block remote read allocated {per_read} bytes"
    );
}
