//! Zero-copy reads, measured: a hot read on a handle-serving backend
//! allocates no block. Before PR 3 every read built a fresh 8 KB `Vec`;
//! now it clones a refcount into the `Vec` of handles a read returns
//! (32 bytes a handle): at most 128 bytes for each layer it crosses.
//! The simulated disk and the replicated store's write buffer copy no
//! write of zeros either: such a block is the shared zero block. And a
//! storage node asked for a reply larger than a frame refuses before it
//! reserves one.
//!
//! A test binary of its own, because it installs a byte-counting global
//! allocator. The count lives in a `const`-initialised thread-local, so
//! what libtest's other threads allocate is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use netsim::{LinkConfig, SimClock};
use onc_rpc::frame::{self, DEFAULT_MAX_FRAME};
use onc_rpc::{AcceptStat, ReplyBody, RpcCall, RpcReply};
use store::{
    BlockServer, BlockStore, CachedStore, IoClass, RemoteOptions, RemoteStore, ReplicatedStore,
    ShardedStore, SimStore, BLOCK_SIZE,
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

/// A full write-back cache recycles the buffer of the block a miss
/// displaces: write misses, read misses and readahead prefetches copy
/// into buffers the cache allocated when it was built, so together they
/// allocate less than one block besides the `Vec`s a call passes
/// around. Each write miss allocated a fresh block before.
#[test]
fn a_full_cache_allocates_no_block_for_a_miss() {
    let (capacity, n) = (64u64, 16u64);
    let inner = SimStore::untimed(BLOCKS);
    for i in 0..BLOCKS {
        inner.write_block(i, &[i as u8 % 16 + 1; BLOCK_SIZE]);
    }
    let store = CachedStore::with_readahead(inner, capacity as usize, n as usize);
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
        misses < BLOCK_SIZE as u64,
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
    let (nodes, replicas, blocks) = (3, 2, BLOCKS + 1);
    let clock = SimClock::new();
    let node_bc = ReplicatedStore::node_block_count(blocks, nodes, replicas);
    let store = ReplicatedStore::new(
        (0..nodes)
            .map(|_| {
                RemoteStore::serve_local(
                    SimStore::untimed(node_bc),
                    &clock,
                    LinkConfig::instant(),
                    RemoteOptions::default(),
                )
            })
            .collect(),
        Vec::new(),
        blocks,
        replicas,
    );
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
    assert!(
        (BLOCK_SIZE as u64..2 * BLOCK_SIZE as u64).contains(&one_write),
        "a non-zero write allocated {one_write} bytes, not one block"
    );
    assert_eq!(store.read_block(7), one);
    assert_eq!(store.read_block(8), zeros);
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
