//! What a replicated flush makes the process hold, measured. A flush
//! commits its buffer as frame-sized epochs and drops each epoch's
//! blocks as it lands, so the live heap during the flush stays within
//! one call's worth of the larger of the heap before it (the buffer)
//! and after it (the nodes' copies). When a flush sent each node its
//! whole share in one WRITE, the message alone held 5.6 MB here, on top
//! of the buffer and the nodes' growing copies.
//!
//! A test binary of its own, because it installs a global allocator
//! that counts live bytes and keeps their high-water mark. The count is
//! process-wide, so this binary runs one test; the nodes answer on the
//! flushing thread, so their copies count as they land.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netsim::{LinkConfig, NetError, SimClock, Transport};
use onc_rpc::frame::{DEFAULT_MAX_FRAME, FRAME_HEADER};
use store::{
    BlockServer, BlockStore, NodeLink, RemoteOptions, RemoteStore, ReplicatedStore, SimStore,
};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// SAFETY: delegates to the system allocator unchanged; the counters are
// static atomics, which neither allocate nor can be gone when accessed.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed) + layout.size() as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// A client link that keeps the size of the largest message it sent.
struct Recorder {
    inner: NodeLink<SimStore>,
    largest: Arc<AtomicUsize>,
}

impl Transport for Recorder {
    fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
        self.largest.fetch_max(msg.len(), Ordering::Relaxed);
        self.inner.send(msg)
    }
    fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.inner.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.inner.recv_timeout(timeout)
    }
}

const BLOCKS: u64 = 1024;
const NODES: usize = 3;
const REPLICAS: usize = 2;

#[test]
fn a_flush_holds_at_most_one_call_beyond_its_buffer_or_its_nodes() {
    let node_bc = ReplicatedStore::node_block_count(BLOCKS + 1, NODES, REPLICAS);
    let largest = Arc::new(AtomicUsize::new(0));
    let nodes = (0..NODES)
        .map(|_| {
            let node = BlockServer::new(SimStore::untimed(node_bc));
            let link = Recorder {
                inner: NodeLink::new(node, &SimClock::new(), LinkConfig::instant(), None),
                largest: Arc::clone(&largest),
            };
            RemoteStore::connect(link, RemoteOptions::default()).unwrap()
        })
        .collect();
    let store = ReplicatedStore::new(nodes, Vec::new(), BLOCKS + 1, REPLICAS);
    // Blocks 1..=1024, all distinct and none zero, so every buffered
    // block and every node's copy is 8 KiB of heap.
    for i in 1..=BLOCKS {
        let mut block = vec![(i % 251) as u8 + 1; store::BLOCK_SIZE];
        block[..8].copy_from_slice(&i.to_le_bytes());
        store.write_block(i, &block);
    }

    let before = live();
    PEAK.store(before, Ordering::Relaxed);
    store.flush().unwrap();
    let peak = PEAK.load(Ordering::Relaxed);
    let after = live();
    let slack = 2 << 20;
    assert!(
        peak <= before.max(after) + slack,
        "the flush peaked at {:.2} MB live: before {:.2}, after {:.2}",
        peak as f64 / 1e6,
        before as f64 / 1e6,
        after as f64 / 1e6,
    );
    assert!(
        store.epoch() >= 5,
        "1 024 blocks on 3 nodes is several epochs"
    );

    // The largest message any node received, the connect-time LEN and
    // the flush's WRITEs included.
    let largest = largest.load(Ordering::Relaxed);
    assert!(
        largest <= FRAME_HEADER + DEFAULT_MAX_FRAME,
        "a node received a {largest}-byte message"
    );
    for i in [1, 500, BLOCKS] {
        assert_eq!(store.read_block(i)[..8], i.to_le_bytes());
    }
}
