//! Multi-client authorization scaling: the PR 4 figures.
//!
//! The paper's Figure 12 argues KeyNote compliance checks are
//! affordable because the policy-decision cache absorbs them. This
//! bench extends that story to *concurrency*: M authenticated clients
//! drive a mixed read/getattr/lookup workload through the full
//! IPsec + NFS + credential stack against one server, and throughput
//! must scale because a cached decision touches no global lock.
//!
//! Figures (asserted; that a cache hit takes no exclusive lock is
//! pinned by the `discfs` unit tests):
//!
//! * **Client scaling** — wall-clock ops/sec at 1/2/4/8 clients on a
//!   cache-hit-dominated run; ≥ 3× at 4 clients vs 1 (asserted when
//!   the host has ≥ 4 cores; always recorded).
//! * **Policy-cache sweep** — virtual time of the same workload at
//!   cache sizes 0/8/32/128, reproducing the Figure 12 shape (the
//!   cacheless run pays a full 200 µs compliance check per decision).
//!
//! Env knob: `BENCH_QUICK=1` shrinks iteration counts (CI smoke).

use std::sync::Barrier;
use std::time::Instant;

use bench_harness::{bench_quick as quick, cores};

use discfs::{CredentialIssuer, DiscfsClient, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use ffs::{FsConfig, StoreBackend};
use netsim::LinkConfig;
use nfsv2::FHandle;

/// Files in the shared working set.
const FILES: usize = 16;

/// A populated server world: testbed + the working-set file handles.
struct WorldState {
    bed: Testbed,
    root: FHandle,
    files: Vec<FHandle>,
}

/// Builds a testbed on the instant in-memory backend (no disk or
/// network charges — the authorization layer is the subject) and
/// populates the working set through a setup client.
fn build_world(cache_size: usize) -> WorldState {
    let bed = Testbed::with_backend(
        FsConfig::small(),
        LinkConfig::instant(),
        cache_size,
        &StoreBackend::SimInstant,
    );
    let setup = SigningKey::from_seed(&[0xCE; 32]);
    let mut client = bed.connect_owner(&setup).expect("connect setup client");
    let root = client.remote().root();
    let files: Vec<FHandle> = (0..FILES)
        .map(|i| {
            let res = client
                .create_with_credential(&root, &format!("f{i}.dat"), 0o644)
                .expect("create working-set file");
            client
                .client()
                .write_all(&res.fh, 0, &vec![i as u8; 4096])
                .expect("populate file");
            res.fh
        })
        .collect();
    WorldState { bed, root, files }
}

/// Connects one worker identity and submits its credential chain:
/// RWX on the root (admin-signed) plus R on every working-set file.
/// The seed array is deliberately non-uniform so no worker can ever
/// collide with the testbed's `[X; 32]`-seeded identities (admin,
/// server, setup).
fn connect_worker(world: &WorldState, seed: u8) -> DiscfsClient {
    let mut seed_bytes = [0x77u8; 32];
    seed_bytes[0] = seed;
    seed_bytes[1] = 0x13;
    let key = SigningKey::from_seed(&seed_bytes);
    let client = world.bed.connect_owner(&key).expect("connect worker");
    for fh in &world.files {
        let cred = CredentialIssuer::new(world.bed.admin())
            .holder(&key.public())
            .grant(fh, Perm::R)
            .issue();
        client.submit_credential(&cred).expect("file grant");
    }
    client
}

/// Warms every (peer, handle) decision this worker will need so the
/// measured loop is cache-hit-dominated.
fn warm_worker(client: &DiscfsClient, world: &WorldState) {
    client.client().getattr(&world.root).expect("warm root");
    for (i, fh) in world.files.iter().enumerate() {
        client.client().getattr(fh).expect("warm getattr");
        client
            .client()
            .lookup(&world.root, &format!("f{i}.dat"))
            .expect("warm lookup");
        client.client().read(fh, 0, 4096).expect("warm read");
    }
}

/// The mixed workload: per 4 ops — 1 getattr, 1 lookup, 2 reads,
/// walking the working set pseudo-randomly. 5 policy decisions per 4
/// ops (lookup resolves directory + child).
fn drive(client: &DiscfsClient, world: &WorldState, ops: u64, salt: u64) {
    let mut x = salt | 1;
    for i in 0..ops {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (x % FILES as u64) as usize;
        match i % 4 {
            0 => {
                client.client().getattr(&world.files[j]).expect("getattr");
            }
            1 => {
                client
                    .client()
                    .lookup(&world.root, &format!("f{j}.dat"))
                    .expect("lookup");
            }
            _ => {
                client
                    .client()
                    .read(&world.files[j], 0, 4096)
                    .expect("read");
            }
        }
    }
}

/// One concurrent measurement round: fresh workers (distinct keys),
/// warmed, released together by a barrier; the scope exit joins them,
/// so elapsed covers exactly the concurrent drive phase. Returns
/// ops/sec.
fn scaling_round(world: &WorldState, clients: usize, key_base: u8, ops_per_client: u64) -> f64 {
    let workers: Vec<DiscfsClient> = (0..clients)
        .map(|i| connect_worker(world, key_base + i as u8))
        .collect();
    for worker in &workers {
        warm_worker(worker, world);
    }
    let barrier = Barrier::new(clients + 1);
    let total_ops = clients as u64 * ops_per_client;
    let mut start = None;
    std::thread::scope(|scope| {
        for (i, worker) in workers.into_iter().enumerate() {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                drive(&worker, world, ops_per_client, 0xD00D_0000 + i as u64);
            });
        }
        barrier.wait();
        start = Some(Instant::now());
    });
    let elapsed = start.expect("stamped at barrier release").elapsed();
    total_ops as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Scaling figure: wall-clock throughput at 1/2/4/8 concurrent
/// clients, cache-hit-dominated. Each point is the best of
/// [`SCALING_ROUNDS`] rounds so one scheduler hiccup on a busy CI
/// runner cannot fail the assertion.
const SCALING_ROUNDS: usize = 3;

fn figure_client_scaling() {
    println!("\n== PR 4 figure: multi-client mixed-workload throughput (cache-hit-dominated) ==");
    // Even quick mode keeps each measured round tens of milliseconds
    // long: sub-millisecond windows make the >= 3x assertion hostage
    // to a single scheduler stall on a shared CI runner.
    let ops_per_client = if quick() { 3000u64 } else { 8000 };
    let world = build_world(4096);
    // Wall-clock figure: drop the virtual-clock charge so the modeled
    // KeyNote cost does not sit in the middle of the real code path.
    world.bed.service().clear_policy_charge();
    let mut single_client = 0.0f64;
    for (c_idx, &clients) in [1usize, 2, 4, 8].iter().enumerate() {
        let ops_per_sec = (0..SCALING_ROUNDS)
            .map(|round| {
                // Distinct worker keys per round: a closing connection
                // from the previous round can then never race the new
                // round's warmed sessions.
                let key_base = 0x60 + (c_idx * SCALING_ROUNDS + round) as u8 * 8;
                scaling_round(&world, clients, key_base, ops_per_client)
            })
            .fold(0.0f64, f64::max);
        if clients == 1 {
            single_client = ops_per_sec;
        }
        println!(
            "  {clients} client(s): {ops_per_sec:>12.0} ops/s  ({:.2}x vs 1 client)",
            ops_per_sec / single_client
        );
        if clients == 4 {
            let scaling = ops_per_sec / single_client;
            if cores() >= 4 {
                assert!(
                    scaling >= 3.0,
                    "4-client cache-hit throughput must scale >= 3x vs 1 client, got {scaling:.2}x"
                );
            } else {
                println!("  ({} core(s): 4-client >= 3x assertion skipped)", cores());
            }
        }
    }
    // The run stayed cache-hit-dominated and the accounting is exact.
    let stats = world.bed.service().auth_stats();
    let cache = world.bed.service().cache().stats();
    assert_eq!(stats.decisions(), cache.hits() + cache.misses());
    let hit_ratio = cache.hits() as f64 / (cache.hits() + cache.misses()) as f64;
    println!("  overall policy-cache hit ratio: {hit_ratio:.3}");
    assert!(hit_ratio > 0.9, "run must be cache-hit-dominated");
}

/// Figure 12 shape: virtual time of the single-client workload as the
/// policy cache shrinks (200 µs per compliance check, 2 µs per hit —
/// the testbed's model of the paper's 450 MHz measurements).
fn figure_cache_sweep() {
    println!("\n== PR 4 figure: policy-cache sweep, virtual time (Figure 12 shape) ==");
    let ops = if quick() { 400u64 } else { 2000 };
    let mut cacheless = 0.0f64;
    for &cache_size in &[0usize, 8, 32, 128] {
        let world = build_world(cache_size);
        let worker = connect_worker(&world, 0x60);
        warm_worker(&worker, &world);
        world.bed.clock().reset();
        drive(&worker, &world, ops, 0xF1E1);
        let virtual_ms = world.bed.clock().now().as_secs_f64() * 1e3;
        let stats = world.bed.service().cache().stats();
        let ratio = stats.hits() as f64 / (stats.hits() + stats.misses()).max(1) as f64;
        if cache_size == 0 {
            cacheless = virtual_ms;
        }
        println!(
            "  cache {cache_size:>3}: {virtual_ms:>9.2} ms virtual ({:>5.2}x vs cacheless, hit ratio {ratio:.3})",
            cacheless / virtual_ms.max(1e-12),
        );
        if cache_size == 128 {
            assert!(
                virtual_ms * 10.0 < cacheless,
                "the 128-entry cache must absorb >= 90% of the compliance-check cost \
                 (got {virtual_ms:.2} ms vs {cacheless:.2} ms cacheless)"
            );
        }
    }
}

fn main() {
    figure_client_scaling();
    figure_cache_sweep();
}
