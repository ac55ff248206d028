//! Zero-copy reads, measured: a hot read on a handle-serving backend
//! allocates no block. Before PR 3 every read built a fresh 8 KB `Vec`;
//! now it clones a refcount into the `Vec` of handles a read returns
//! (32 bytes a handle): at most 128 bytes for each layer it crosses.
//! The simulated disk and the replicated store's write buffer copy no
//! write of zeros either: such a block is the shared zero block, and
//! the disk holds nothing for a block never written non-zero. A
//! replicated flush hands each committed block's buffer to the nodes'
//! copies of the next epoch. And a storage node asked for a reply
//! larger than a frame refuses before it reserves one.
//!
//! A test binary of its own, because it installs a byte-counting global
//! allocator. The count lives in a `const`-initialised thread-local, so
//! what libtest's other threads allocate is not counted. Spare block
//! buffers belong to each volume, so the tests run in parallel: no
//! other test's writes can take the buffers a flush measured here
//! recycles.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use netsim::{LinkConfig, SimClock};
use onc_rpc::frame::{self, DEFAULT_MAX_FRAME};
use onc_rpc::{AcceptStat, ReplyBody, RpcCall, RpcReply};
use store::{
    zero_block, BlockServer, BlockStore, CachedStore, IoClass, RemoteOptions, RemoteStore,
    ShardedStore, SimStore, StoreBackend, BLOCK_SIZE,
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

/// A volume of `blocks` blocks built as a server builds it: three
/// in-process nodes, two replicas a block, over instant links, all
/// drawing from the volume's one block pool. Each node answers on the
/// calling thread, so the count sees its copies.
fn replicated(blocks: u64) -> Arc<dyn BlockStore> {
    StoreBackend::Replicated {
        nodes: 3,
        replicas: 2,
        spares: 0,
        ethernet: false,
        opts: RemoteOptions::default(),
        inner: Box::new(StoreBackend::SimInstant),
    }
    .build(&SimClock::new(), blocks)
}

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
    let one_write = allocated(|| store.write_block(7, &one));
    assert_one_block_of_its_own(one_write, &store, 7);
    assert_eq!(store.read_block(7), one);
    assert_eq!(store.read_block(8), zeros);
}

/// The simulated disk holds only the blocks written non-zero: a
/// 1 Mi-block (8 GiB) store costs nothing a block when built (24 MiB
/// while it held a handle for every block), a non-zero write costs its
/// block and its map entry, and a read of a block never written hands
/// out the shared zero block. The store's block pool starts empty, so
/// each of the 64 writes allocates a fresh block: 8 192 bytes and the
/// 40-byte `Arc` around it.
#[test]
fn a_sim_store_holds_only_the_blocks_written() {
    let blocks: u64 = 1 << 20;
    let mut store = None;
    let built = allocated(|| store = Some(SimStore::untimed(blocks)));
    let store = store.unwrap();
    assert!(
        built < 4096,
        "a {blocks}-block store allocated {built} bytes"
    );

    let n = 64;
    let spread = blocks / n;
    let data: Vec<Vec<u8>> = (0..n).map(|i| stamped(i, 2)).collect();
    let written =
        allocated(|| (0..n).for_each(|i| store.write_block(i * spread, &data[i as usize])));
    let block = BLOCK_SIZE as u64;
    assert!(
        (n * block..=n * (block + 40) + 16 * 1024).contains(&written),
        "{n} non-zero writes allocated {written} bytes ({:.3} blocks each)",
        written as f64 / (n * block) as f64
    );
    assert_eq!(store.read_block(5 * spread), data[5]);

    // Odd blocks: the writes went to multiples of `spread`.
    let reads = 1000;
    let read = allocated(|| {
        for i in 0..reads {
            let zero = store.read_block(i * 1000 + 1);
            assert_eq!(zero.as_ptr(), zero_block().as_ptr());
        }
    });
    assert!(
        read <= 128 * reads,
        "{reads} reads of blocks never written allocated {read} bytes"
    );
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

/// A full write-back cache recycles the buffer of the block a miss
/// displaces: write misses, read misses and readahead prefetches copy
/// into buffers the cache reserved in the volume's pool when it was
/// built, so together they allocate no block and no buffer's reference
/// count, only the `Vec`s a call passes around: 2 984 bytes. Each write
/// miss allocated a fresh block before, and while a recycled buffer
/// left its `Arc` behind each of the 51 inserts also allocated a new
/// 40-byte one (5 024 bytes). The volume is built as a server builds
/// it, so the disk under the cache draws from the same pool.
#[test]
fn a_full_cache_allocates_no_block_for_a_miss() {
    let (capacity, n) = (64u64, 16u64);
    let store = StoreBackend::CachedReadahead {
        capacity: capacity as usize,
        window: n as usize,
        inner: Box::new(StoreBackend::SimInstant),
    }
    .build(&SimClock::new(), BLOCKS);
    for i in 0..BLOCKS {
        store.write_block(i, &[i as u8 % 16 + 1; BLOCK_SIZE]);
    }
    store.flush().unwrap();
    // Twice the capacity, so each shard's eviction queue has grown to
    // its size for good. A vectored read never triggers readahead.
    let filled = 2 * capacity;
    store.read_blocks(&(0..filled).collect::<Vec<_>>());
    let writes: Vec<u64> = (filled..filled + n).collect();
    let reads: Vec<u64> = (filled + n..filled + 2 * n).collect();
    let stride = filled + 2 * n;
    let misses = allocated(|| {
        for &i in &writes {
            store.write_block(i, &[0xA5; BLOCK_SIZE]);
        }
        std::hint::black_box(store.read_blocks(&reads));
        // Three ascending one-block reads form a stride; the third
        // prefetches the `n` blocks after it.
        for i in stride..stride + 3 {
            std::hint::black_box(store.read_block(i));
        }
    });
    let stats = store.stats();
    assert_eq!(stats.readahead_blocks, n, "{stats:?}");
    assert_eq!(stats.cache_misses, filled + n + 3, "{stats:?}");
    assert!(
        misses < 3 * 1024,
        "{n} write misses, {n} read misses and {n} prefetches allocated {misses} bytes"
    );
}

/// The block protocol's call for `args`: program 0x2000_0B10 version 1
/// (`store::remote` module docs, *Wire format*), framed.
fn block_call(xid: u32, proc_num: u32, args: Vec<u8>) -> Vec<u8> {
    frame::encode_frame(&RpcCall::new(xid, 0x2000_0B10, 1, proc_num, args).encode())
}

/// A hot 8-block read from a remote node over an instant link. The
/// node answers on this thread too, so the count holds two shares. The
/// node's is its reply, 8 blocks and at most 1 KiB besides, measured by
/// handing the same READ call to a node of its own. The client's one
/// copy is the reply's conversion to `Bytes` (the vendored `Bytes` is
/// an `Arc<[u8]>`), and every block is a slice of it: 8 blocks and at
/// most 1 KiB besides, where a copy per block would double it.
#[test]
fn a_hot_remote_read_copies_the_reply_once() {
    let bound = 8 * BLOCK_SIZE as u64 + 1024;
    let idxs: Vec<u64> = (0..8).collect();
    let written = || {
        let store = SimStore::untimed(BLOCKS);
        for &i in &idxs {
            store.write_block(i, &[i as u8 + 1; BLOCK_SIZE]);
        }
        store
    };
    let remote = RemoteStore::serve_local(
        written(),
        &SimClock::new(),
        LinkConfig::instant(),
        RemoteOptions::default(),
    );
    std::hint::black_box(remote.read(IoClass::Data, &idxs));
    let reads = 100;
    let before = ALLOC_BYTES.with(Cell::get);
    for _ in 0..reads {
        std::hint::black_box(remote.read(IoClass::Data, &idxs));
    }
    let per_read = (ALLOC_BYTES.with(Cell::get) - before) / reads;

    // READ = 2: data, eight indices.
    let mut args = vec![0, 0, 0, 0, 0, 0, 0, 8];
    idxs.iter().for_each(|i| args.extend(i.to_be_bytes()));
    let read = block_call(7, 2, args);
    let node = BlockServer::new(written());
    std::hint::black_box(node.handle(&read, Duration::ZERO));
    let node_share = allocated(|| {
        std::hint::black_box(node.handle(&read, Duration::ZERO));
    });
    assert!(
        node_share <= bound,
        "a node answering an 8-block READ allocated {node_share} bytes"
    );
    let client_share = per_read.saturating_sub(node_share);
    assert!(
        client_share <= bound,
        "a hot 8-block remote read allocated {client_share} bytes on the client \
         ({per_read} with the node's {node_share})"
    );
}

/// Allocated bytes on this thread while `f` runs.
fn allocated(f: impl FnOnce()) -> u64 {
    let before = ALLOC_BYTES.with(Cell::get);
    f();
    ALLOC_BYTES.with(Cell::get) - before
}

/// Formatting a volume zeroes its inode table, ~256 blocks that sat in
/// the replicated store's write buffer as 8 KiB copies until the first
/// sync. The buffer now holds them as the shared zero block: fresh zero
/// writes cost their buffer entries only, and zero writes over buffered
/// blocks cost nothing.
#[test]
fn buffered_zero_writes_share_the_zero_block() {
    let blocks = BLOCKS + 1;
    let store = replicated(blocks);
    let zeros = vec![0u8; BLOCK_SIZE];
    let mut one = zeros.clone();
    one[BLOCK_SIZE - 1] = 1;
    // Blocks 1..=256, all buffered: no flush runs here.
    let fresh = allocated(|| (1..blocks).for_each(|i| store.write_block(i, &zeros)));
    assert!(
        fresh < BLOCKS * 128,
        "{BLOCKS} fresh zero writes allocated {fresh} bytes"
    );
    let again = allocated(|| (1..blocks).for_each(|i| store.write_block(i, &zeros)));
    assert!(
        again < BLOCK_SIZE as u64,
        "{BLOCKS} zero writes over buffered blocks allocated {again} bytes"
    );
    let one_write = allocated(|| store.write_block(7, &one));
    assert_one_block_of_its_own(one_write, &store, 7);
    assert_eq!(store.read_block(7), one);
    assert_eq!(store.read_block(8), zeros);
}

/// A non-zero write over a zero block allocated `bytes` and put block
/// `idx` in a buffer of its own: a spare one from the pool when there
/// is one (0 bytes, or a handle's worth), else a fresh one.
fn assert_one_block_of_its_own(bytes: u64, store: &dyn BlockStore, idx: u64) {
    assert!(
        bytes < 2 * BLOCK_SIZE as u64,
        "a non-zero write allocated {bytes} bytes, more than one block"
    );
    assert_ne!(store.read_block(idx).as_ptr(), zero_block().as_ptr());
}

/// Blocks on three nodes with two replicas that one epoch commits: each
/// node's data call holds 126 blocks and the epoch record, and a node
/// holds two replicas of every three blocks.
const EPOCH_BLOCKS: u64 = 126 * 3 / 2;

/// Block `idx`'s bytes in write pass `pass`: never all zeros.
fn stamped(idx: u64, pass: u8) -> Vec<u8> {
    let mut block = vec![pass; BLOCK_SIZE];
    block[..8].copy_from_slice(&idx.to_le_bytes());
    block
}

/// A flush commits its buffer an epoch at a time, and each committed
/// block's buffer goes to the volume's pool, which the next epoch's
/// node copies draw from. Two epochs' worth of blocks, two replicas
/// each: `2 × written` bytes of node copies, of which the second
/// epoch's first half reuses the first epoch's buffers, so the copies
/// allocate `1.5 × written` (1.54 measured); each was fresh before
/// (2.01). The volume's pool starts empty and holds none of another
/// volume's buffers, so this holds whatever ran before. The frames
/// that carry the blocks to the nodes are measured apart, as the same
/// flush of zeros: a node keeps an all-zero block as the shared zero
/// block, no copy.
#[test]
fn a_flush_makes_committed_blocks_the_next_epochs_node_copies() {
    let written = 2 * EPOCH_BLOCKS;
    let flush = |block: &dyn Fn(u64) -> Vec<u8>| {
        let store = replicated(written + 1);
        for i in 1..=written {
            store.write_block(i, &block(i));
        }
        let calls = store.stats().rpc_calls;
        let flushed = allocated(|| store.flush().unwrap());
        // Two epochs: one call to each of the three nodes apiece.
        assert_eq!(store.stats().rpc_calls - calls, 2 * 3, "two epochs");
        for i in [1, EPOCH_BLOCKS, written] {
            assert_eq!(store.read_block(i), block(i));
        }
        flushed
    };
    let frames = flush(&|_| vec![0; BLOCK_SIZE]);
    let copies = flush(&|i| stamped(i, 1)) - frames;
    let block = BLOCK_SIZE as u64;
    // Beside the blocks: a 40-byte handle a fresh copy, and the maps.
    assert!(
        copies <= 3 * EPOCH_BLOCKS * block + 256 * 1024,
        "the nodes' copies of {written} blocks allocated {copies} bytes ({:.2} blocks each)",
        copies as f64 / (written * block) as f64
    );
}

/// Two volumes in one process keep their buffers apart: the buffers
/// volume A's flush recycles stay in A's pool, and new blocks written
/// to volume B are copied into buffers of B's own. While the spare
/// buffers were one pool for the whole process, B's writes took A's.
#[test]
fn two_volumes_keep_their_buffers_apart() {
    let written = EPOCH_BLOCKS;
    let (a, b) = (replicated(written + 1), replicated(written + 1));
    for i in 1..=written {
        a.write_block(i, &stamped(i, 1));
    }
    // Where A's write-back buffer holds each block: the buffers its
    // flush hands to A's pool. No handle is kept, so all of them go.
    let recycled: Vec<*const u8> = (1..=written).map(|i| a.read_block(i).as_ptr()).collect();
    a.flush().unwrap();
    for i in 1..=written {
        b.write_block(i, &stamped(i, 2));
    }
    for i in 1..=written {
        let block = b.read_block(i);
        assert_eq!(block, stamped(i, 2));
        assert!(
            !recycled.contains(&block.as_ptr()),
            "volume B's block {i} is in a buffer volume A recycled"
        );
    }
    for i in [1, written] {
        assert_eq!(a.read_block(i), stamped(i, 1));
    }
}

/// Only a buffer no reader holds enters the pool: a handle read from
/// the write-back buffer keeps its bytes through the flush that commits
/// its block and through the writes and flush after it, which reuse
/// the buffers that flush recycled.
#[test]
fn a_handle_read_before_a_flush_keeps_its_bytes() {
    let written = 2 * EPOCH_BLOCKS;
    let store = replicated(written + 1);
    for i in 1..=written {
        store.write_block(i, &stamped(i, 1));
    }
    let held = store.read_block(5);
    store.flush().unwrap();
    for i in 1..=written {
        store.write_block(i, &stamped(i, 2));
    }
    let rewritten = store.read_block(5);
    assert_ne!(rewritten.as_ptr(), held.as_ptr());
    store.flush().unwrap();
    assert_eq!(held, stamped(5, 1), "the reader's handle keeps its bytes");
    assert_eq!(rewritten, stamped(5, 2));
    for i in [1, 5, written] {
        assert_eq!(store.read_block(i), stamped(i, 2));
    }
}

/// The largest READ call one frame holds asks for 131 066 blocks: a
/// 1 GiB reply for 1 MiB of arguments. The node refuses it
/// (`GARBAGE_ARGS`) before it reads or reserves anything, so serving it
/// allocates less than twice the call; without the check the node
/// reserved count × 8 KiB. `handle` runs on this thread, so the count
/// sees all of it.
#[test]
fn a_node_refuses_a_read_too_large_to_answer_before_reserving_it() {
    let count = (DEFAULT_MAX_FRAME - 48) / 8;
    let mut args = Vec::with_capacity(8 + 8 * count);
    args.extend_from_slice(&0u32.to_be_bytes()); // data
    args.extend_from_slice(&(count as u32).to_be_bytes());
    for _ in 0..count {
        args.extend_from_slice(&1u64.to_be_bytes());
    }
    let read = block_call(1, 2, args);
    let read_len = read.len() as u64;
    assert_eq!(read_len, 8 + DEFAULT_MAX_FRAME as u64, "one full frame");
    let node = BlockServer::new(SimStore::untimed(BLOCKS));
    let mut reply = None;
    let served = allocated(|| reply = node.handle(&read, Duration::ZERO));
    assert!(
        served < 2 * read_len,
        "a {read_len}-byte READ made the node allocate {served} bytes"
    );
    let reply = reply.expect("a refusal is a reply");
    let reply = RpcReply::decode(frame::unframe(&reply).unwrap()).unwrap();
    assert_eq!(reply.body, ReplyBody::Error(AcceptStat::GarbageArgs));
}
