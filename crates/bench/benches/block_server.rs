//! The distributed volume tier figures (PR 6).
//!
//! PR 5 made one process's block I/O parallel; this PR puts the block
//! layer behind simulated network links. The figures pin the wire-level
//! behaviour of the new tier:
//!
//! * **Striped wire batching** — a W-block extent over
//!   `Sharded{Remote × 4}` costs exactly one RPC per involved node
//!   when vectored (vs one per block scalar), and the virtual clock
//!   shows the saved per-frame latency; the stripe spreads wire bytes
//!   evenly across the nodes.
//! * **Replication write amplification** — the same write burst
//!   through R=2 moves exactly twice the data writes of R=1 (plus one
//!   epoch record per node per commit), and roughly twice the wire
//!   bytes.
//! * **Read-from-nearest-replica** — with one replica across a 5 ms
//!   WAN link and one on 100 Mbps Ethernet, reads are served by the
//!   near replica: the virtual-time read sweep runs several times
//!   faster than a volume whose replicas are both far.
//! * **Node-death rebuild** — killing a node of a 4-node R=2 volume
//!   with a spare causes **zero failed reads**: the detecting read
//!   fails over to the surviving replica and the dead node's replica
//!   set is rebuilt onto the spare.
//!
//! Env knob: `BENCH_QUICK=1` shrinks the extents (CI smoke).

use std::sync::Arc;
use std::time::Duration;

use bench_harness::bench_quick as quick;
use criterion::{criterion_group, criterion_main, Criterion};

use netsim::{LinkConfig, SimClock};
use store::{
    BlockStore, RemoteOptions, RemoteStore, ReplicatedStore, ShardedStore, SimStore, BLOCK_SIZE,
};

/// Blocks per measured extent / volume.
fn extent_blocks() -> u64 {
    if quick() {
        64
    } else {
        256
    }
}

const NODES: usize = 4;

fn unique_block(i: u64) -> Vec<u8> {
    let mut block = vec![0u8; BLOCK_SIZE];
    block[..8].copy_from_slice(&i.to_le_bytes());
    block[8..16].copy_from_slice(&i.wrapping_mul(0x9E37_79B9).to_le_bytes());
    block
}

/// One simulated storage node on `link`: an in-memory store behind a
/// `BlockServer` thread.
fn node_on(clock: &SimClock, link: LinkConfig, blocks: u64) -> RemoteStore {
    RemoteStore::serve_local(
        SimStore::untimed(blocks),
        clock,
        link,
        RemoteOptions::default(),
    )
}

/// A 4-node replicated volume on Ethernet links.
fn volume(clock: &SimClock, blocks: u64, replicas: usize, spares: usize) -> ReplicatedStore {
    let node_bc = ReplicatedStore::node_block_count(blocks, NODES, replicas);
    let link = LinkConfig::ethernet_100mbps();
    ReplicatedStore::new(
        (0..NODES).map(|_| node_on(clock, link, node_bc)).collect(),
        (0..spares).map(|_| node_on(clock, link, node_bc)).collect(),
        blocks,
        replicas,
    )
}

/// Striped wire batching: one RPC per node for a vectored extent, one
/// per block for the scalar loop — and the stripe balances the bytes.
fn figure_striped_wire_batching(_c: &mut Criterion) {
    println!("\n== PR 6 figure: RPCs for a W-block extent over Sharded{{Remote x 4}} ==");
    let w = extent_blocks();
    let link = LinkConfig::ethernet_100mbps();
    let build = |clock: &SimClock| {
        let nodes: Vec<Arc<RemoteStore>> = (0..NODES)
            .map(|_| Arc::new(node_on(clock, link, w.div_ceil(NODES as u64))))
            .collect();
        let striped = ShardedStore::new(
            nodes
                .iter()
                .map(|n| Arc::clone(n) as Arc<dyn BlockStore>)
                .collect(),
            w,
        );
        (striped, nodes)
    };
    let rpcs =
        |nodes: &[Arc<RemoteStore>]| -> u64 { nodes.iter().map(|n| n.stats().rpc_calls).sum() };

    let blocks: Vec<Vec<u8>> = (0..w).map(unique_block).collect();

    let clock = SimClock::new();
    let (striped, nodes) = build(&clock);
    let before = rpcs(&nodes);
    clock.reset();
    for (i, block) in blocks.iter().enumerate() {
        striped.write_block(i as u64, block);
    }
    let scalar_time = clock.now();
    let scalar_rpcs = rpcs(&nodes) - before;

    let clock = SimClock::new();
    let (striped, nodes) = build(&clock);
    let before = rpcs(&nodes);
    clock.reset();
    let writes: Vec<(u64, &[u8])> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u64, b.as_slice()))
        .collect();
    striped.write_blocks(&writes);
    let vectored_time = clock.now();
    let vectored_rpcs = rpcs(&nodes) - before;

    println!(
        "  {w}-block write: scalar {scalar_rpcs} RPCs / {scalar_time:?}, \
         vectored {vectored_rpcs} RPCs / {vectored_time:?}"
    );
    assert_eq!(scalar_rpcs, w, "one RPC per block on the scalar path");
    assert_eq!(
        vectored_rpcs, NODES as u64,
        "one RPC per involved node on the vectored path"
    );
    assert!(
        vectored_time < scalar_time,
        "batching must save per-frame wire latency: {vectored_time:?} vs {scalar_time:?}"
    );
    // The stripe spreads the bytes: no node carries more than twice the
    // even share.
    let bytes: Vec<u64> = nodes.iter().map(|n| n.stats().bytes_on_wire).collect();
    let total: u64 = bytes.iter().sum();
    for (i, b) in bytes.iter().enumerate() {
        assert!(
            *b <= total * 2 / NODES as u64,
            "node {i} carries {b} of {total} wire bytes"
        );
    }
}

/// Replication write amplification: R=2 moves exactly 2x the data
/// writes of R=1 (epoch records aside) and about 2x the wire bytes.
fn figure_replication_write_amplification(_c: &mut Criterion) {
    println!("\n== PR 6 figure: write amplification of R=2 vs R=1 over 4 nodes ==");
    let w = extent_blocks();
    let mut measured: Vec<(usize, u64, u64)> = Vec::new();
    for replicas in [1usize, 2] {
        let clock = SimClock::new();
        let store = volume(&clock, w, replicas, 0);
        for i in 0..w {
            store.write_block(i, &unique_block(i));
        }
        store.flush().unwrap();
        let stats = store.stats();
        // One epoch record per node per commit rides along.
        let data_writes = stats.writes - NODES as u64;
        println!(
            "  R={replicas}: {data_writes} data writes, {} bytes on wire",
            stats.bytes_on_wire
        );
        measured.push((replicas, data_writes, stats.bytes_on_wire));
    }
    let (_, writes_r1, bytes_r1) = measured[0];
    let (_, writes_r2, bytes_r2) = measured[1];
    assert_eq!(writes_r2, writes_r1 * 2, "R=2 writes every block twice");
    let byte_ratio = bytes_r2 as f64 / bytes_r1 as f64;
    assert!(
        byte_ratio > 1.7,
        "R=2 must move ~2x the wire bytes, got {byte_ratio:.2}x"
    );
    println!("  wire amplification: {byte_ratio:.2}x");
}

/// Read-from-nearest-replica: a volume with one far (5 ms WAN) and one
/// near (Ethernet) replica reads at near-replica latency.
fn figure_read_from_nearest_replica(_c: &mut Criterion) {
    println!("\n== PR 6 figure: read latency with a near replica vs far-only ==");
    let w = extent_blocks();
    let node_bc = ReplicatedStore::node_block_count(w, 2, 2);
    let far_link = LinkConfig {
        latency: Duration::from_millis(5),
        bandwidth: 12_500_000,
    };
    let near_link = LinkConfig::ethernet_100mbps();
    let sweep = |links: [LinkConfig; 2]| -> (Duration, u64) {
        let clock = SimClock::new();
        let store = ReplicatedStore::new(
            links.iter().map(|l| node_on(&clock, *l, node_bc)).collect(),
            Vec::new(),
            w,
            2,
        );
        for i in 0..w {
            store.write_block(i, &unique_block(i));
        }
        store.flush().unwrap();
        clock.reset();
        for i in 0..w {
            assert_eq!(store.read_block(i), unique_block(i));
        }
        (clock.now(), store.stats().replica_reads)
    };
    let (near_time, via_replica) = sweep([far_link, near_link]);
    let (far_time, _) = sweep([far_link, far_link]);
    let speedup = far_time.as_secs_f64() / near_time.as_secs_f64();
    println!(
        "  {w} reads: near-replica {near_time:?} vs far-only {far_time:?} = {speedup:.1}x \
         ({via_replica} served by the non-primary replica)"
    );
    assert!(
        via_replica >= w / 2,
        "blocks whose primary is the far node must be served by the near replica"
    );
    assert!(
        speedup > 3.0,
        "nearest-replica reads must beat far-only by a wide margin, got {speedup:.1}x"
    );
}

/// Node-death rebuild: zero failed reads through the death of a node,
/// one rebuild onto the spare.
fn figure_node_death_rebuild(_c: &mut Criterion) {
    println!("\n== PR 6 figure: node death on a 4-node R=2 volume with a spare ==");
    let w = extent_blocks();
    let clock = SimClock::new();
    let store = volume(&clock, w, 2, 1);
    for i in 0..w {
        store.write_block(i, &unique_block(i));
    }
    store.flush().unwrap();
    store.kill_node(2);
    let mut failed = 0u64;
    for i in 0..w {
        if store.read_block(i) != unique_block(i) {
            failed += 1;
        }
    }
    let stats = store.stats();
    println!(
        "  killed node 2: {failed} failed reads, {} failover reads, {} rebuild(s), \
         live nodes {}",
        stats.replica_reads,
        stats.rebuilds,
        store.live_nodes()
    );
    assert_eq!(failed, 0, "a single node death must not fail any read");
    assert_eq!(
        stats.rebuilds, 1,
        "the spare must take the dead node's place"
    );
    assert_eq!(store.live_nodes(), NODES, "back to full strength");
}

criterion_group!(
    block_server,
    figure_striped_wire_batching,
    figure_replication_write_amplification,
    figure_read_from_nearest_replica,
    figure_node_death_rebuild
);
criterion_main!(block_server);
