//! Multi-coordinator safety figures for the lease-fencing layer
//! (PR 10).
//!
//! PR 6 built the replicated volume tier and PR 8 its failure model;
//! PR 10 made *concurrent coordinators* safe: server-side
//! `(coordinator_id, fence_token)` leases, fence-stamped mutating
//! frames, majority-quorum epoch flushes, and a read-only latch on the
//! fenced coordinator. These figures pin what that safety costs:
//!
//! * **Failover time** — virtual time from a coordinator's last lease
//!   grant (it never renews: it falls silent after one flush) to a
//!   successor's lease serving committed writes: the dead
//!   coordinator's TTL dominates (a lease cannot be stolen while
//!   unexpired), acquisition and the first quorum flush add only the
//!   wire time.
//! * **Quorum-write latency** — p50/p99 virtual-time flush latency on
//!   a leased volume vs the single-coordinator (token-0 legacy)
//!   baseline: the fence adds 8 bytes per mutating frame and one
//!   compare on the node, so the distributions coincide.
//!
//! That no fenced write is ever applied is pinned by the split-brain
//! matrix in `tests/chaos.rs`.
//!
//! Env knob: `BENCH_QUICK=1` shrinks the extents (CI smoke).

use std::sync::Arc;
use std::time::Duration;

use bench_harness::{bench_opts, bench_quick as quick, percentile, unique_block};

use netsim::{LinkConfig, SimClock};
use store::{BlockStore, NodeLease, RemoteError, RemoteStore, ReplicatedStore, SimStore};

const NODES: usize = 4;
const REPLICAS: usize = 2;
const TTL: Duration = Duration::from_secs(30);

/// Blocks per measured volume.
fn extent_blocks() -> u64 {
    if quick() {
        32
    } else {
        128
    }
}

/// Flushes measured per latency distribution.
fn flush_iters() -> u64 {
    if quick() {
        16
    } else {
        64
    }
}

/// Shared storage nodes: the store and its lease table outlive any one
/// coordinator's connection — exactly the multi-coordinator topology.
type SharedNode = (Arc<SimStore>, Arc<NodeLease>);

fn shared_nodes(blocks: u64) -> Vec<SharedNode> {
    let node_bc = ReplicatedStore::node_block_count(blocks, NODES, REPLICAS);
    (0..NODES)
        .map(|_| {
            (
                Arc::new(SimStore::untimed(node_bc)),
                Arc::new(NodeLease::default()),
            )
        })
        .collect()
}

/// One coordinator's connections to every shared node.
fn connect(backing: &[SharedNode], clock: &SimClock, link: LinkConfig) -> Vec<RemoteStore> {
    backing
        .iter()
        .map(|(node, lease)| {
            RemoteStore::serve_shared(
                Arc::clone(node) as Arc<dyn BlockStore>,
                Arc::clone(lease),
                clock,
                link,
                bench_opts(),
                None,
            )
        })
        .collect()
}

/// Failover: coordinator A falls silent, B acquires once the lease
/// expires and serves a committed write. The TTL dominates.
fn figure_failover_time() {
    println!("\n== PR 10 figure: coordinator death -> new lease serving writes ==");
    let w = extent_blocks();
    let link = LinkConfig::ethernet_100mbps();
    let clock = SimClock::new();
    let backing = shared_nodes(w);

    let store_a = ReplicatedStore::new(connect(&backing, &clock, link), Vec::new(), w, REPLICAS);
    // The lease runs from its grant, through the flush below: A never
    // renews it.
    let leased_at = clock.now();
    store_a.try_acquire_lease(1, TTL).unwrap();
    let writes: Vec<(u64, Vec<u8>)> = (0..w).map(|i| (i, unique_block(i, 1))).collect();
    let refs: Vec<(u64, &[u8])> = writes.iter().map(|(i, b)| (*i, b.as_slice())).collect();
    store_a.write_blocks(&refs);
    store_a.flush().unwrap();

    // A falls silent here: no renewals, no further writes.
    let store_b = ReplicatedStore::new(connect(&backing, &clock, link), Vec::new(), w, REPLICAS);
    let poll = Duration::from_millis(100);
    let mut refused = 0u64;
    while let Err(e) = store_b.try_acquire_lease(2, TTL) {
        assert!(
            matches!(e, RemoteError::LeaseHeld { .. }),
            "only an unexpired lease may refuse takeover: {e}"
        );
        refused += 1;
        clock.advance(poll);
    }
    let acquired = clock.now() - leased_at;
    store_b.write_block(0, &unique_block(0, 2));
    store_b.flush().unwrap();
    let failover = clock.now() - leased_at;

    println!(
        "  TTL {TTL:?}: lease acquired after {acquired:?} ({refused} refused polls), \
         first committed write at {failover:?}"
    );
    assert!(acquired >= TTL, "an unexpired lease cannot be stolen");
    assert!(
        failover <= TTL + Duration::from_secs(1),
        "failover must not overshoot the TTL by more than the wire time: {failover:?}"
    );
    assert!(
        refused >= 1,
        "takeover must be refused while the lease holds"
    );
}

/// Quorum-write flush latency, leased vs token-0 legacy baseline.
fn figure_quorum_write_latency() {
    println!("\n== PR 10 figure: quorum-write p50/p99, leased vs single-coordinator ==");
    let w = extent_blocks();
    let iters = flush_iters();
    let sweep = |leased: bool| -> Vec<Duration> {
        let clock = SimClock::new();
        let backing = shared_nodes(w);
        let store = ReplicatedStore::new(
            connect(&backing, &clock, LinkConfig::ethernet_100mbps()),
            Vec::new(),
            w,
            REPLICAS,
        );
        if leased {
            store
                .try_acquire_lease(1, Duration::from_secs(3600))
                .unwrap();
        }
        let mut lat = Vec::with_capacity(iters as usize);
        for k in 0..iters {
            store.write_block(k % w, &unique_block(k % w, k));
            let before = clock.now();
            store.flush().unwrap();
            lat.push(clock.now() - before);
        }
        lat.sort_unstable();
        lat
    };
    let legacy = sweep(false);
    let leased = sweep(true);
    for (name, lat) in [("legacy", &legacy), ("leased", &leased)] {
        println!(
            "  {name:6}: p50 {:?} p99 {:?}",
            percentile(lat, 0.50),
            percentile(lat, 0.99)
        );
    }
    // The fence is 8 bytes and one compare: the leased distribution
    // must sit on top of the baseline.
    assert!(
        percentile(&leased, 0.99) <= percentile(&legacy, 0.99).mul_f64(1.25),
        "fencing must not move the flush tail"
    );
}

fn main() {
    figure_failover_time();
    figure_quorum_write_latency();
}
