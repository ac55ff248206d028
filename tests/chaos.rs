//! Chaos matrix: seeded random fault schedules — message loss, delay
//! jitter, duplication, a partition window, and one node revival —
//! driven through the full IKE/NFS/credential stack on a replicated
//! volume.
//!
//! Every seed must finish with **zero failed client operations**,
//! byte-exact file contents versus an in-test model, and an fsck-clean
//! volume after a remount — the paper's "share files across the open
//! Internet" claim exercised on a wire that actually misbehaves.
//!
//! The store-level tests at the bottom pin the two structural
//! properties the chaos runs rely on: a partitioned-then-healed node
//! is *revived*, not rebuilt, when its epoch is current; and rebuild
//! runs off the detecting operation's critical path under the
//! configured block budget.

use std::sync::Arc;
use std::time::Duration;

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use ffs::FsConfig;
use netsim::{FaultPlan, LinkConfig, SimClock};
use store::{
    BlockStore, FileStore, RebuildConfig, RemoteOptions, RemoteStore, ReplicatedStore, SimStore,
};

const NODES: usize = 4;
const REPLICAS: usize = 2;
/// Virtual length of each seed's partition window.
const PARTITION: Duration = Duration::from_secs(30);

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

fn grant_root(bed: &Testbed, holder: &SigningKey) -> String {
    CredentialIssuer::new(bed.admin())
        .holder(&holder.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue()
}

/// Retry policy sized for chaos runs: a dropped frame costs a 10 ms
/// timeout of virtual time, not 200 ms, while the waiting budget still
/// allows 50 attempts before a node is declared dead, so the plans'
/// loss never passes for a dead node.
fn chaos_opts() -> RemoteOptions {
    RemoteOptions {
        timeout: Duration::from_millis(10),
        deadline: Duration::from_millis(500),
    }
}

/// Deterministic file body for (seed, file index).
fn body(seed: u64, i: usize) -> Vec<u8> {
    let len = 4 * 8192 + 1000 * i; // ≥ 4 blocks: every node sees primary traffic
    (0..len)
        .map(|j| ((seed as usize).wrapping_mul(31) + i * 17 + j) as u8)
        .collect()
}

/// A replicated `FileJournal` volume whose every node link carries a
/// seeded fault plan (loss + duplication + jitter). Returns the store,
/// the per-node plans (for scheduling the partition), and the shared
/// clock.
fn faulty_volume(
    dir: &std::path::Path,
    seed: u64,
    blocks: u64,
) -> (Arc<ReplicatedStore>, Vec<FaultPlan>, SimClock) {
    let clock = SimClock::new();
    let node_bc = ReplicatedStore::node_block_count(blocks, NODES, REPLICAS);
    let mut plans = Vec::new();
    let mut nodes = Vec::new();
    for i in 0..NODES {
        let plan = FaultPlan::seeded(seed * 1000 + i as u64)
            .with_loss(0.005 + 0.005 * (seed % 3) as f64)
            .with_duplication(0.01)
            .with_jitter(Duration::from_micros(200));
        let inner = FileStore::open(&dir.join(format!("node-{i}")), node_bc)
            .expect("open node journal store");
        nodes.push(RemoteStore::serve_shared(
            Arc::new(inner),
            Arc::default(),
            &clock,
            LinkConfig::ethernet_100mbps(),
            chaos_opts(),
            Some(&plan),
        ));
        plans.push(plan);
    }
    let store = Arc::new(ReplicatedStore::new(nodes, Vec::new(), blocks, REPLICAS));
    (store, plans, clock)
}

/// What one chaos run ends with. Nothing in the stack waits on the
/// wall clock, so two runs of one seed end equal.
#[derive(Debug, PartialEq)]
struct RunEnd {
    /// The virtual clock.
    now: Duration,
    retries: u64,
    faults_injected: u64,
    rpc_calls: u64,
    /// Each node's state and dead cause (`ReplicatedStore::node_states`).
    nodes: Vec<String>,
    /// The node states after each change from the partition to the
    /// end of the heal: the order nodes died, revived and rebuilt.
    transitions: Vec<Vec<String>>,
}

/// One full chaos schedule: workload under loss, a partition that
/// sends one node to probation, (odd seeds) commits the node misses,
/// heal, revival, and a remount — asserting the seed-parity recovery
/// path and byte-exact data throughout.
fn run_seed(seed: u64) -> RunEnd {
    let dir = store::temp_dir_for_tests(&format!("chaos-seed-{seed}"));
    let fs_config = FsConfig {
        total_blocks: 512,
        inode_count: 128,
    };
    let (store, plans, clock) = faulty_volume(&dir, seed, fs_config.total_blocks);
    let bed = Testbed::with_store(
        fs_config,
        LinkConfig::instant(),
        128,
        &clock,
        store.clone() as Arc<dyn BlockStore>,
    );

    // Phase 1 — workload under loss/dup/jitter: every op must succeed.
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).expect("connect under loss");
    let root = client.remote().root();
    let mut files = Vec::new();
    for i in 0..4 {
        let name = format!("f{i}");
        let file = client.create_with_credential(&root, &name, 0o644).unwrap();
        let data = body(seed, i);
        client.client().write_all(&file.fh, 0, &data).unwrap();
        files.push((file.fh, data));
    }
    bed.sync().expect("sync under loss");
    let epoch_before = store.epoch();

    // Phase 2 — partition one node. The detecting read fails over
    // (zero failed ops) and the node lands in probation.
    let victim = (seed as usize) % NODES;
    let mut transitions = vec![store.node_states()];
    let mut note = |states: Vec<String>| {
        if transitions.last() != Some(&states) {
            transitions.push(states);
        }
    };
    plans[victim].partition(clock.now(), clock.now() + PARTITION);
    for (fh, data) in &files {
        let back = client.client().read_all(fh, 0, data.len()).unwrap();
        assert_eq!(&back, data, "read under partition (seed {seed})");
        note(store.node_states());
    }
    assert_eq!(
        store.probation_nodes(),
        1,
        "partitioned node must sit in probation, not be rebuilt (seed {seed})"
    );
    assert_eq!(store.live_nodes(), NODES - 1);
    if seed % 2 == 1 {
        // Odd seeds commit an epoch the victim misses: revival must
        // then re-sync it from its peers.
        let extra = client.create_with_credential(&root, "late", 0o644).unwrap();
        let data = body(seed, 9);
        client.client().write_all(&extra.fh, 0, &data).unwrap();
        files.push((extra.fh, data));
        bed.sync().expect("degraded sync");
        note(store.node_states());
        // Ffs::sync commits twice (bulk apply, then the clean marker),
        // so the probation node is now at least one epoch behind.
        assert!(store.epoch() > epoch_before);
    }

    // Phase 3 — heal and revive. Probes ride the background tick; a
    // few forced ticks bound the run against probe frames lost to the
    // plan's residual loss rate.
    clock.advance(PARTITION + Duration::from_secs(1));
    for _ in 0..50 {
        if store.probation_nodes() == 0 && store.rebuild_backlog() == 0 {
            break;
        }
        store.rebuild_tick();
        note(store.node_states());
    }
    assert_eq!(
        store.probation_nodes(),
        0,
        "seed {seed}: node not revived ({:?})",
        store.node_states()
    );
    assert_eq!(
        store.live_nodes(),
        NODES,
        "seed {seed}: node not back ({:?})",
        store.node_states()
    );
    assert_eq!(store.rebuild_backlog(), 0, "seed {seed}: backlog left");
    let stats = store.stats();
    assert!(
        stats.nodes_revived >= 1,
        "seed {seed}: revival must be counted: {stats:?}"
    );
    if seed.is_multiple_of(2) {
        assert_eq!(
            stats.rebuilds, 0,
            "seed {seed}: current-epoch node must be revived, NOT rebuilt: {stats:?}"
        );
    } else {
        assert!(
            stats.rebuilds >= 1,
            "seed {seed}: stale node must re-sync through the rebuild queue: {stats:?}"
        );
    }
    assert!(
        stats.faults_injected > 0,
        "seed {seed}: the plan must actually have fired: {stats:?}"
    );

    // The revived node serves reads again: byte-exact vs the model.
    for (fh, data) in &files {
        let back = client.client().read_all(fh, 0, data.len()).unwrap();
        assert_eq!(&back, data, "read after revival (seed {seed})");
    }
    bed.fs().check().expect("fsck after revival");

    // Phase 4 — remount the same volume (links still faulty): clean
    // fsck, data still byte-exact through fresh credentials.
    drop(client);
    let bed = bed.reboot();
    bed.fs().check().expect("fsck after remount");
    let carol = key(3);
    let carol_client = bed.connect(&carol).unwrap();
    for (fh, data) in &files {
        let cred = CredentialIssuer::new(bed.admin())
            .holder(&carol.public())
            .grant(fh, Perm::R)
            .issue();
        carol_client.submit_credential(&cred).unwrap();
        let back = carol_client.client().read_all(fh, 0, data.len()).unwrap();
        assert_eq!(&back, data, "read after remount (seed {seed})");
    }
    std::fs::remove_dir_all(&dir).ok();
    let stats = store.stats();
    RunEnd {
        now: clock.now(),
        retries: stats.retries,
        faults_injected: stats.faults_injected,
        rpc_calls: stats.rpc_calls,
        nodes: store.node_states(),
        transitions,
    }
}

#[test]
fn chaos_seeds_0_to_3() {
    // Seed 0 twice: a schedule replays exactly.
    let first = run_seed(0);
    assert_eq!(run_seed(0), first, "seed 0 did not replay");
    for seed in 1..4 {
        run_seed(seed);
    }
}

#[test]
fn chaos_seeds_4_to_7() {
    for seed in 4..8 {
        run_seed(seed);
    }
}

/// A burst of link flaps (exactly-next-N drops) mid-workload: the
/// retry schedule rides them out without any node ever leaving
/// service.
#[test]
fn flap_burst_is_absorbed_by_retries() {
    let dir = store::temp_dir_for_tests("chaos-flap");
    let fs_config = FsConfig {
        total_blocks: 256,
        inode_count: 64,
    };
    let (store, plans, clock) = faulty_volume(&dir, 99, fs_config.total_blocks);
    let bed = Testbed::with_store(
        fs_config,
        LinkConfig::instant(),
        128,
        &clock,
        store.clone() as Arc<dyn BlockStore>,
    );
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).unwrap();
    let root = client.remote().root();
    let file = client
        .create_with_credential(&root, "flappy", 0o644)
        .unwrap();
    for round in 0..4u8 {
        for plan in &plans {
            plan.flap(3);
        }
        let data = vec![round; 24 * 1024];
        client.client().write_all(&file.fh, 0, &data).unwrap();
        let back = client.client().read_all(&file.fh, 0, 24 * 1024).unwrap();
        assert_eq!(back, data);
    }
    bed.sync().unwrap();
    assert_eq!(store.live_nodes(), NODES, "flaps must never cost a node");
    let stats = store.stats();
    assert!(stats.retries > 0, "flaps must force retries: {stats:?}");
    bed.fs().check().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Virtual-clock lease TTL for the split-brain matrix: long enough
/// that a coordinator's own workload never outlives its lease, short
/// against the partition windows that force a handoff.
const LEASE_TTL: Duration = Duration::from_secs(60);

/// One shared storage node for the multi-coordinator runs: a journaled
/// store plus its server-side lease table. Every coordinator gets its
/// own `serve_shared` connection per node — its own link, fault plan,
/// and fence token — while the blocks and the fence are shared.
type SharedNode = (Arc<FileStore>, Arc<store::NodeLease>);

fn shared_nodes(dir: &std::path::Path, blocks: u64) -> Vec<SharedNode> {
    let node_bc = ReplicatedStore::node_block_count(blocks, NODES, REPLICAS);
    (0..NODES)
        .map(|i| {
            let inner = FileStore::open(&dir.join(format!("node-{i}")), node_bc)
                .expect("open node journal store");
            (Arc::new(inner), Arc::new(store::NodeLease::default()))
        })
        .collect()
}

/// Connects one coordinator to every shared node. A faulty
/// coordinator (A in the matrix) rides chaos links; a takeover
/// coordinator connects clean — the faults under test live on the
/// stale coordinator's side of the partition, and recovery pushes
/// whole-node rebuild batches that need the patient retry policy.
fn connect_coordinator(
    backing: &[SharedNode],
    clock: &SimClock,
    plans: Option<&[FaultPlan]>,
) -> Vec<RemoteStore> {
    let (link, opts) = match plans {
        Some(_) => (LinkConfig::ethernet_100mbps(), chaos_opts()),
        None => (LinkConfig::instant(), RemoteOptions::default()),
    };
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

/// Two-coordinator split-brain schedule: coordinator A loses one node
/// mid-flush, then loses the network entirely; B acquires the expired
/// lease, mounts A's committed history, and writes; the healed A's
/// straggler writes must all bounce off the fence. Every node ends on
/// ONE epoch history, the remounted volume is fsck-clean, and no
/// client read fails at any point in the handoff.
fn run_split_brain(seed: u64) {
    let dir = store::temp_dir_for_tests(&format!("split-brain-{seed}"));
    let fs_config = FsConfig {
        total_blocks: 512,
        inode_count: 128,
    };
    let backing = shared_nodes(&dir, fs_config.total_blocks);
    let clock = SimClock::new();
    let plans: Vec<FaultPlan> = (0..NODES)
        .map(|i| {
            FaultPlan::seeded(seed * 7000 + i as u64)
                .with_loss(0.005 + 0.005 * (seed % 3) as f64)
                .with_duplication(0.01)
                .with_jitter(Duration::from_micros(200))
        })
        .collect();

    // Coordinator A: faulty links, the lease, a committed workload.
    let store_a = Arc::new(ReplicatedStore::new(
        connect_coordinator(&backing, &clock, Some(&plans)),
        Vec::new(),
        fs_config.total_blocks,
        REPLICAS,
    ));
    store_a
        .try_acquire_lease(1, LEASE_TTL)
        .expect("A acquires the virgin volume's lease");
    let bed_a = Testbed::with_store(
        fs_config,
        LinkConfig::instant(),
        128,
        &clock,
        store_a.clone() as Arc<dyn BlockStore>,
    );
    let bob = key(2);
    let mut client_a = bed_a.connect_owner(&bob).expect("connect A");
    let root = client_a.remote().root();
    let mut files = Vec::new();
    for i in 0..3 {
        let file = client_a
            .create_with_credential(&root, &format!("a{i}"), 0o644)
            .unwrap();
        let data = body(seed, i);
        client_a.client().write_all(&file.fh, 0, &data).unwrap();
        files.push((file.fh, data));
    }
    bed_a.sync().expect("A's baseline sync");

    // Partition one node out from under A mid-flush: the quorum
    // commit proceeds, the victim lands in probation one epoch behind.
    let victim = (seed as usize) % NODES;
    plans[victim].partition(clock.now(), clock.now() + Duration::from_secs(3600));
    let late = client_a
        .create_with_credential(&root, "late", 0o644)
        .unwrap();
    let late_data = body(seed, 9);
    client_a
        .client()
        .write_all(&late.fh, 0, &late_data)
        .unwrap();
    files.push((late.fh, late_data));
    bed_a.sync().expect("A's degraded quorum sync");
    assert_eq!(
        store_a.probation_nodes(),
        1,
        "seed {seed}: victim must sit in probation ({:?})",
        store_a.node_states()
    );
    let epoch_a = store_a.epoch();

    // A loses the network entirely; its lease expires on the virtual
    // clock while it is cut off.
    let cut = clock.now();
    for plan in &plans {
        plan.partition(cut, cut + Duration::from_secs(3600));
    }
    clock.advance(LEASE_TTL + Duration::from_secs(1));

    // Coordinator B: clean links to the same nodes. The lease is
    // acquired on the raw clients FIRST — mount recovery itself
    // writes (it re-syncs the victim), and those writes must carry
    // B's fence token.
    let clients_b = connect_coordinator(&backing, &clock, None);
    for c in &clients_b {
        c.try_acquire_lease(2, LEASE_TTL)
            .expect("B takes over the expired lease");
    }
    let store_b = Arc::new(ReplicatedStore::new(
        clients_b,
        Vec::new(),
        fs_config.total_blocks,
        REPLICAS,
    ));
    assert_eq!(
        store_b.epoch(),
        epoch_a,
        "seed {seed}: B must mount A's committed history"
    );
    let bed_b = Testbed::with_store(
        fs_config,
        LinkConfig::instant(),
        128,
        &clock,
        store_b.clone() as Arc<dyn BlockStore>,
    );
    let carol = key(3);
    let mut client_b = bed_b.connect(&carol).expect("connect B");
    // Zero failed client reads during the handoff: every file A
    // committed is byte-exact through B.
    for (fh, data) in &files {
        let cred = CredentialIssuer::new(bed_b.admin())
            .holder(&carol.public())
            .grant(fh, Perm::R)
            .issue();
        client_b.submit_credential(&cred).unwrap();
        let back = client_b.client().read_all(fh, 0, data.len()).unwrap();
        assert_eq!(&back, data, "read through B during handoff (seed {seed})");
    }
    client_b
        .submit_credential(&grant_root(&bed_b, &carol))
        .unwrap();
    let bfile = client_b.create_with_credential(&root, "b0", 0o644).unwrap();
    let bdata = body(seed, 5);
    client_b.client().write_all(&bfile.fh, 0, &bdata).unwrap();
    files.push((bfile.fh, bdata));
    bed_b.sync().expect("B's sync under its own lease");
    let epoch_b = store_b.epoch();
    assert!(epoch_b > epoch_a, "seed {seed}: B must commit new epochs");

    // Heal A's links. Its buffered stragglers replay — and every one
    // of them must bounce off the fence without touching a node.
    clock.advance(Duration::from_secs(3600));
    let probe = 17u64;
    let committed = store_b.read_block(probe);
    store_a.write_block(probe, &[0xEE; store::BLOCK_SIZE]);
    assert!(
        store_a.flush().is_err(),
        "seed {seed}: the stale coordinator's flush must be fenced"
    );
    assert!(store_a.is_fenced(), "seed {seed}: A must latch read-only");
    assert!(
        store_a.flush().is_err(),
        "seed {seed}: fenced latch fails fast without retrying"
    );
    let stats_a = store_a.stats();
    assert!(
        stats_a.fenced >= 1,
        "seed {seed}: fenced writes must be counted: {stats_a:?}"
    );
    let rejections: u64 = backing.iter().map(|(_, l)| l.fenced_rejections()).sum();
    assert!(
        rejections >= 1,
        "seed {seed}: a node must have refused A's straggler"
    );
    assert_eq!(
        store_b.read_block(probe),
        committed,
        "seed {seed}: zero fenced writes applied"
    );
    assert_eq!(store_b.epoch(), epoch_b, "seed {seed}: history unforked");

    // Tear down both coordinators and remount fresh: ONE epoch
    // history on every node, fsck-clean, all data byte-exact.
    drop(client_a);
    drop(client_b);
    drop(bed_a);
    drop(bed_b);
    drop(store_a);
    drop(store_b);
    clock.advance(LEASE_TTL + Duration::from_secs(1));
    let clients_c = connect_coordinator(&backing, &clock, None);
    for c in &clients_c {
        c.try_acquire_lease(3, LEASE_TTL)
            .expect("fresh mount takes the lease");
    }
    let store_c = Arc::new(ReplicatedStore::new(
        clients_c,
        Vec::new(),
        fs_config.total_blocks,
        REPLICAS,
    ));
    store_c.pump_rebuild();
    assert_eq!(
        store_c.epoch(),
        epoch_b,
        "seed {seed}: remount adopts B's committed history"
    );
    let node_bc = ReplicatedStore::node_block_count(fs_config.total_blocks, NODES, REPLICAS);
    let records: Vec<_> = backing
        .iter()
        .map(|(node, _)| node.read_block(node_bc - 1))
        .collect();
    assert!(
        records.iter().all(|r| *r == records[0]),
        "seed {seed}: every node must hold the same epoch record"
    );
    assert!(
        records[0].starts_with(b"DISCEPOC"),
        "seed {seed}: committed record"
    );
    let bed_c = Testbed::with_store(
        fs_config,
        LinkConfig::instant(),
        128,
        &clock,
        store_c.clone() as Arc<dyn BlockStore>,
    );
    bed_c.fs().check().expect("fsck after split-brain heal");
    let dave = key(4);
    let client_c = bed_c.connect(&dave).unwrap();
    for (fh, data) in &files {
        let cred = CredentialIssuer::new(bed_c.admin())
            .holder(&dave.public())
            .grant(fh, Perm::R)
            .issue();
        client_c.submit_credential(&cred).unwrap();
        let back = client_c.client().read_all(fh, 0, data.len()).unwrap();
        assert_eq!(&back, data, "read after split-brain heal (seed {seed})");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn split_brain_seeds_0_to_3() {
    for seed in 0..4 {
        run_split_brain(seed);
    }
}

#[test]
fn split_brain_seeds_4_to_7() {
    for seed in 4..8 {
        run_split_brain(seed);
    }
}

/// Builds a clean (fault-free) replicated volume over simulated
/// Ethernet with one hot spare, fully written and committed.
fn committed_volume(blocks: u64, cfg: RebuildConfig) -> (ReplicatedStore, SimClock) {
    let clock = SimClock::new();
    let node_bc = ReplicatedStore::node_block_count(blocks, NODES, REPLICAS);
    let node = |clock: &SimClock| {
        RemoteStore::serve_local(
            SimStore::untimed(node_bc),
            clock,
            LinkConfig::ethernet_100mbps(),
            RemoteOptions::default(),
        )
    };
    let store = ReplicatedStore::new(
        (0..NODES).map(|_| node(&clock)).collect(),
        vec![node(&clock)],
        blocks,
        REPLICAS,
    )
    .with_rebuild_config(cfg);
    let block = vec![0x5A; store::BLOCK_SIZE];
    for idx in 0..blocks {
        store.write_block(idx, &block);
    }
    store.flush().unwrap();
    (store, clock)
}

/// Rebuild rate policy that keeps the background work out of ordinary
/// operations entirely (huge tick interval): only explicit
/// `rebuild_tick`/`pump_rebuild` calls drain the queue.
fn manual_rebuild() -> RebuildConfig {
    RebuildConfig {
        blocks_per_tick: 8,
        tick_interval: Duration::from_secs(3600),
    }
}

/// The acceptance criterion's decoupling proof: the *detecting* read's
/// virtual-time cost must not depend on the volume size, because it
/// only marks the node dead and enqueues work — the copying happens
/// later, under the block budget.
#[test]
fn rebuild_runs_off_the_detecting_operations_critical_path() {
    let detect_cost = |blocks: u64| {
        let (store, clock) = committed_volume(blocks, manual_rebuild());
        store.kill_node(1);
        let before = clock.now();
        store.read_block(1); // primary replica lives on the dead node 1
        let cost = clock.now() - before;
        // The work is queued — proportional to the volume — not done.
        assert_eq!(
            store.rebuild_backlog(),
            blocks / NODES as u64 * REPLICAS as u64,
            "full replica set of the dead node must be queued"
        );
        assert_eq!(store.stats().rebuilds, 0, "nothing rebuilt yet");
        cost
    };
    let small = detect_cost(256);
    let large = detect_cost(1024);
    assert_eq!(
        small, large,
        "detecting read's virtual-time cost must be independent of volume size"
    );
}

/// The budget is real: each tick copies at most `blocks_per_tick`
/// blocks, degraded reads keep failing over while the backlog drains,
/// and the drained node returns to service.
#[test]
fn rebuild_respects_the_block_budget_per_tick() {
    let blocks = 256;
    let (store, _clock) = committed_volume(blocks, manual_rebuild());
    store.kill_node(1);
    store.read_block(1); // detect: enqueue only
    let full = store.rebuild_backlog();
    assert_eq!(full, blocks / NODES as u64 * REPLICAS as u64);
    store.rebuild_tick();
    assert_eq!(
        store.rebuild_backlog(),
        full - 8,
        "one tick must copy exactly blocks_per_tick blocks"
    );
    // Degraded reads keep working mid-rebuild.
    for idx in 0..blocks {
        assert_eq!(store.read_block(idx), vec![0x5A; store::BLOCK_SIZE]);
    }
    store.pump_rebuild();
    assert_eq!(store.rebuild_backlog(), 0);
    assert_eq!(store.live_nodes(), NODES);
    let stats = store.stats();
    assert_eq!(stats.rebuilds, 1, "exactly one spare rebuild: {stats:?}");
    assert_eq!(stats.rebuild_backlog, 0);
}
