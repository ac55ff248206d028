//! Degraded-mode figures for the chaos layer (PR 8).
//!
//! PR 6 built the replicated volume tier; PR 8 gave it a failure
//! model: seeded link faults, exponential backoff under a deadline,
//! probation + revival, and rate-limited background rebuild. These
//! figures pin what degradation *costs* (the rebuild budget itself is
//! pinned by `tests/chaos.rs`):
//!
//! * **Read latency under faults** — p50/p99 virtual-time read latency
//!   on a 4-node R=2 volume: healthy, with 1% per-message loss (the
//!   tail absorbs the retransmit backoff, the median barely moves),
//!   and with one node dead (reads fail over to the surviving replica
//!   at near-healthy latency). Zero failed reads in all three.
//! * **WAN object store** — the same volume on
//!   [`LinkConfig::s3_object_storage`] links: per-block reads cost the
//!   ~40 ms request round-trip regardless of size (latency dominates),
//!   so a vectored bulk read amortizes it across the whole extent.
//!
//! Env knob: `BENCH_QUICK=1` shrinks the extents (CI smoke).

use std::time::Duration;

use bench_harness::{bench_opts, bench_quick as quick, percentile, unique_block};

use netsim::{FaultPlan, LinkConfig, SimClock};
use store::{BlockStore, RemoteStore, ReplicatedStore, SimStore};

/// Blocks per measured volume.
fn extent_blocks() -> u64 {
    if quick() {
        64
    } else {
        256
    }
}

const NODES: usize = 4;
const REPLICAS: usize = 2;

/// A 4-node R=2 volume; each node optionally behind a seeded fault
/// plan.
fn volume(
    clock: &SimClock,
    blocks: u64,
    link: LinkConfig,
    plans: Option<&[FaultPlan]>,
) -> ReplicatedStore {
    let node_bc = ReplicatedStore::node_block_count(blocks, NODES, REPLICAS);
    let node = |i: usize| -> RemoteStore {
        match plans {
            Some(plans) => RemoteStore::serve_local_with_faults(
                SimStore::untimed(node_bc),
                clock,
                link,
                bench_opts(),
                &plans[i],
            ),
            None => RemoteStore::serve_local(SimStore::untimed(node_bc), clock, link, bench_opts()),
        }
    };
    ReplicatedStore::new((0..NODES).map(node).collect(), Vec::new(), blocks, REPLICAS)
}

/// Fills the volume and flushes, so reads hit committed data.
fn fill(store: &ReplicatedStore, blocks: u64) {
    let writes: Vec<(u64, Vec<u8>)> = (0..blocks).map(|i| (i, unique_block(i, 0))).collect();
    let refs: Vec<(u64, &[u8])> = writes.iter().map(|(i, b)| (*i, b.as_slice())).collect();
    store.write_blocks(&refs);
    store.flush().unwrap();
}

/// Per-read virtual-time latencies over the whole extent, verifying
/// every byte; returns (sorted latencies, failed reads).
fn read_sweep(clock: &SimClock, store: &ReplicatedStore, blocks: u64) -> (Vec<Duration>, u64) {
    let mut lat = Vec::with_capacity(blocks as usize);
    let mut failed = 0u64;
    for i in 0..blocks {
        let before = clock.now();
        let block = store.read_block(i);
        lat.push(clock.now() - before);
        if block != unique_block(i, 0) {
            failed += 1;
        }
    }
    lat.sort_unstable();
    (lat, failed)
}

/// Degraded read latency: healthy vs 1% loss vs one node dead.
fn figure_degraded_read_latency() {
    println!("\n== PR 8 figure: p50/p99 read latency, healthy vs 1% loss vs node dead ==");
    let w = extent_blocks();
    let link = LinkConfig::ethernet_100mbps();

    // Healthy.
    let clock = SimClock::new();
    let store = volume(&clock, w, link, None);
    fill(&store, w);
    let (healthy, healthy_failed) = read_sweep(&clock, &store, w);

    // 1% per-message loss on every node link (plus light jitter).
    let clock = SimClock::new();
    let plans: Vec<FaultPlan> = (0..NODES)
        .map(|i| {
            FaultPlan::seeded(0x8E_D0 + i as u64)
                .with_loss(0.01)
                .with_jitter(Duration::from_micros(200))
        })
        .collect();
    let store = volume(&clock, w, link, Some(&plans));
    fill(&store, w);
    let (lossy, lossy_failed) = read_sweep(&clock, &store, w);
    let faults = store.stats().faults_injected;

    // One node dead (no spare: reads fail over, nothing rebuilds yet).
    let clock = SimClock::new();
    let store = volume(&clock, w, link, None);
    fill(&store, w);
    store.kill_node(1);
    let (dead, dead_failed) = read_sweep(&clock, &store, w);

    for (name, lat, failed) in [
        ("healthy", &healthy, healthy_failed),
        ("1% loss", &lossy, lossy_failed),
        ("node dead", &dead, dead_failed),
    ] {
        println!(
            "  {name:9}: p50 {:?} p99 {:?} max {:?} ({failed} failed reads)",
            percentile(lat, 0.50),
            percentile(lat, 0.99),
            lat.last().unwrap()
        );
    }
    assert_eq!(
        healthy_failed + lossy_failed + dead_failed,
        0,
        "no read may fail"
    );
    assert!(faults > 0, "the loss plan must actually have fired");
    assert!(
        percentile(&lossy, 0.99) >= percentile(&healthy, 0.99),
        "retransmit backoff must show in the lossy tail"
    );
    // Failover reads ride the same link class as primary reads: the
    // dead-node median stays within 2x of healthy.
    assert!(
        percentile(&dead, 0.50) <= percentile(&healthy, 0.50) * 2,
        "failover must serve reads at near-healthy latency"
    );
}

/// WAN object store: per-block reads pay the fixed request round-trip;
/// vectored bulk reads amortize it away.
fn figure_s3_wan_volume() {
    println!("\n== PR 8 figure: volume on S3-style object links vs Ethernet ==");
    let w = extent_blocks();
    let sweep = |link: LinkConfig| -> (Duration, Duration) {
        let clock = SimClock::new();
        let store = volume(&clock, w, link, None);
        fill(&store, w);
        clock.reset();
        for i in 0..w {
            assert_eq!(store.read_block(i), unique_block(i, 0));
        }
        let scalar = clock.now();
        clock.reset();
        let idxs: Vec<u64> = (0..w).collect();
        let blocks = store.read_blocks(&idxs);
        for (i, block) in blocks.iter().enumerate() {
            assert_eq!(block.as_ref(), unique_block(i as u64, 0));
        }
        (scalar, clock.now())
    };
    let (eth_scalar, _) = sweep(LinkConfig::ethernet_100mbps());
    let (s3_scalar, s3_vectored) = sweep(LinkConfig::s3_object_storage());
    let per_read_ms = s3_scalar.as_secs_f64() * 1e3 / w as f64;
    let amortization = s3_scalar.as_secs_f64() / s3_vectored.as_secs_f64();
    println!(
        "  {w} scalar reads: Ethernet {eth_scalar:?}, S3 {s3_scalar:?} \
         ({per_read_ms:.1} ms/read); S3 vectored {s3_vectored:?} = {amortization:.0}x"
    );
    // 20 ms one-way latency each direction: every scalar read costs at
    // least the 40 ms round-trip, dwarfing the Ethernet volume.
    assert!(
        per_read_ms >= 40.0,
        "object-store latency must dominate scalar reads, got {per_read_ms:.1} ms"
    );
    assert!(
        s3_scalar > eth_scalar * 10,
        "the WAN volume must be at least 10x slower per scalar read"
    );
    assert!(
        amortization > 10.0,
        "vectored reads must amortize the request latency, got {amortization:.0}x"
    );
}

fn main() {
    figure_degraded_read_latency();
    figure_s3_wan_volume();
}
