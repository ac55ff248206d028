//! Multi-coordinator safety figures for the lease-fencing layer
//! (PR 10).
//!
//! PR 6 built the replicated volume tier and PR 8 its failure model;
//! PR 10 made *concurrent coordinators* safe: server-side
//! `(coordinator_id, fence_token)` leases, fence-stamped mutating
//! frames, majority-quorum epoch flushes, and a read-only latch on the
//! fenced coordinator. These figures pin what that safety costs:
//!
//! * **Failover time** — virtual time from a coordinator falling
//!   silent to a successor's lease serving committed writes: the dead
//!   coordinator's TTL dominates (a lease cannot be stolen while
//!   unexpired), acquisition and the first quorum flush add only the
//!   wire time.
//! * **Quorum-write latency** — p50/p99 virtual-time flush latency on
//!   a leased volume vs the single-coordinator (token-0 legacy)
//!   baseline: the fence adds 8 bytes per mutating frame and one
//!   compare on the node, so the distributions coincide.
//! * **Fencing under chaos** — 8 seeded two-coordinator schedules
//!   (loss + duplicated frames on the stale coordinator's links):
//!   every straggler write bounces off the fence, zero fenced writes
//!   are applied anywhere, byte-verified through the new coordinator.
//!
//! Env knob: `BENCH_QUICK=1` shrinks the extents (CI smoke).

use std::sync::Arc;
use std::time::Duration;

use bench_harness::{bench_quick as quick, percentile};
use criterion::{criterion_group, criterion_main, Criterion};

use netsim::{FaultPlan, LinkConfig, SimClock};
use store::{
    BlockStore, NodeLease, RemoteError, RemoteOptions, RemoteStore, ReplicatedStore, SimStore,
    BLOCK_SIZE,
};

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

fn unique_block(i: u64, tag: u64) -> Vec<u8> {
    let mut block = vec![0u8; BLOCK_SIZE];
    block[..8].copy_from_slice(&i.to_le_bytes());
    block[8..16].copy_from_slice(&i.wrapping_mul(0x9E37_79B9).wrapping_add(tag).to_le_bytes());
    block
}

fn bench_opts() -> RemoteOptions {
    RemoteOptions {
        timeout: Duration::from_millis(10),
        base: Duration::from_millis(2),
        multiplier: 2.0,
        max_backoff: Duration::from_millis(40),
        deadline: Duration::from_millis(500),
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
fn connect(
    backing: &[SharedNode],
    clock: &SimClock,
    link: LinkConfig,
    opts: RemoteOptions,
    plans: Option<&[FaultPlan]>,
) -> Vec<RemoteStore> {
    backing
        .iter()
        .enumerate()
        .map(|(i, (node, lease))| {
            RemoteStore::serve_shared(
                Arc::clone(node) as Arc<dyn BlockStore>,
                Arc::clone(lease),
                clock,
                link,
                opts,
                plans.map(|p| &p[i]),
            )
        })
        .collect()
}

/// Failover: coordinator A falls silent, B acquires once the lease
/// expires and serves a committed write. The TTL dominates.
fn figure_failover_time(_c: &mut Criterion) {
    println!("\n== PR 10 figure: coordinator death -> new lease serving writes ==");
    let w = extent_blocks();
    let link = LinkConfig::ethernet_100mbps();
    let clock = SimClock::new();
    let backing = shared_nodes(w);

    let store_a = ReplicatedStore::new(
        connect(&backing, &clock, link, bench_opts(), None),
        Vec::new(),
        w,
        REPLICAS,
    );
    store_a.try_acquire_lease(1, TTL).unwrap();
    let writes: Vec<(u64, Vec<u8>)> = (0..w).map(|i| (i, unique_block(i, 1))).collect();
    let refs: Vec<(u64, &[u8])> = writes.iter().map(|(i, b)| (*i, b.as_slice())).collect();
    store_a.write_blocks(&refs);
    store_a.flush().unwrap();

    // A falls silent here: no renewals, no further writes.
    let death = clock.now();
    let store_b = ReplicatedStore::new(
        connect(&backing, &clock, link, bench_opts(), None),
        Vec::new(),
        w,
        REPLICAS,
    );
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
    let acquired = clock.now() - death;
    store_b.write_block(0, &unique_block(0, 2));
    store_b.flush().unwrap();
    let failover = clock.now() - death;

    println!(
        "  TTL {TTL:?}: lease acquired after {acquired:?} ({refused} refused polls), \
         first committed write at {failover:?}"
    );
    assert!(
        acquired >= TTL - poll,
        "an unexpired lease cannot be stolen"
    );
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
fn figure_quorum_write_latency(_c: &mut Criterion) {
    println!("\n== PR 10 figure: quorum-write p50/p99, leased vs single-coordinator ==");
    let w = extent_blocks();
    let iters = flush_iters();
    let sweep = |leased: bool| -> Vec<Duration> {
        let clock = SimClock::new();
        let backing = shared_nodes(w);
        let store = ReplicatedStore::new(
            connect(
                &backing,
                &clock,
                LinkConfig::ethernet_100mbps(),
                bench_opts(),
                None,
            ),
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

/// 8 seeded two-coordinator schedules: zero fenced writes applied.
fn figure_zero_fenced_writes_applied(_c: &mut Criterion) {
    println!("\n== PR 10 figure: fenced writes applied across 8 seeded schedules ==");
    let w = extent_blocks().min(64);
    let mut rejections_total = 0u64;
    let mut fenced_errors_total = 0u64;
    for seed in 0..8u64 {
        let clock = SimClock::new();
        let backing = shared_nodes(w);
        // Stale coordinator A rides lossy, frame-duplicating links —
        // the schedule that replays stale frames after a lease change.
        let plans: Vec<FaultPlan> = (0..NODES)
            .map(|i| {
                FaultPlan::seeded(seed * 9000 + i as u64)
                    .with_loss(0.005)
                    .with_duplication(0.02)
                    .with_jitter(Duration::from_micros(200))
            })
            .collect();
        let store_a = ReplicatedStore::new(
            connect(
                &backing,
                &clock,
                LinkConfig::ethernet_100mbps(),
                bench_opts(),
                Some(&plans),
            ),
            Vec::new(),
            w,
            REPLICAS,
        );
        store_a.try_acquire_lease(1, TTL).unwrap();
        let refs: Vec<(u64, Vec<u8>)> = (0..w).map(|i| (i, unique_block(i, seed))).collect();
        let slices: Vec<(u64, &[u8])> = refs.iter().map(|(i, b)| (*i, b.as_slice())).collect();
        store_a.write_blocks(&slices);
        store_a.flush().unwrap();

        // Takeover: B acquires after expiry and rewrites the extent.
        clock.advance(TTL + Duration::from_secs(1));
        let clients_b = connect(
            &backing,
            &clock,
            LinkConfig::instant(),
            RemoteOptions::default(),
            None,
        );
        for c in &clients_b {
            c.try_acquire_lease(2, TTL).unwrap();
        }
        let store_b = ReplicatedStore::new(clients_b, Vec::new(), w, REPLICAS);
        let refs_b: Vec<(u64, Vec<u8>)> =
            (0..w).map(|i| (i, unique_block(i, 1000 + seed))).collect();
        let slices_b: Vec<(u64, &[u8])> = refs_b.iter().map(|(i, b)| (*i, b.as_slice())).collect();
        store_b.write_blocks(&slices_b);
        store_b.flush().unwrap();

        // A's stragglers: every one must bounce off the fence.
        let junk = vec![0xEE; BLOCK_SIZE];
        for i in 0..(4 + seed % 4) {
            store_a.write_block(i % w, &junk);
        }
        assert!(
            store_a.flush().is_err(),
            "seed {seed}: straggler not fenced"
        );
        assert!(store_a.is_fenced(), "seed {seed}: A must latch read-only");
        fenced_errors_total += store_a.stats().fenced;
        rejections_total += backing
            .iter()
            .map(|(_, lease)| lease.fenced_rejections())
            .sum::<u64>();

        // Byte-verify through B: zero fenced writes applied anywhere.
        let mut applied = 0u64;
        for i in 0..w {
            if store_b.read_block(i) != unique_block(i, 1000 + seed) {
                applied += 1;
            }
        }
        assert_eq!(applied, 0, "seed {seed}: a fenced write landed");
    }
    println!(
        "  8 schedules: {rejections_total} frames refused at the nodes, \
         {fenced_errors_total} fenced errors at the stale coordinators, 0 applied"
    );
    assert!(rejections_total >= 8, "every schedule must hit the fence");
}

criterion_group!(
    fenced,
    figure_failover_time,
    figure_quorum_write_latency,
    figure_zero_fenced_writes_applied
);
criterion_main!(fenced);
