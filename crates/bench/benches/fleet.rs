//! Fleet-scale request serving: the PR 7 figures.
//!
//! The paper's testbed served a handful of clients, one server thread
//! each. This bench drives the event-driven engine at the scale that
//! architecture cannot reach: 1 000 (`BENCH_QUICK`) / 10 000 (full)
//! IKE-authenticated clients multiplexed onto a **fixed** worker pool
//! — the process thread count does not change as the fleet connects.
//!
//! Figures (asserted):
//!
//! * **Fleet latency** — per-request latency on the shared virtual
//!   clock for a bursty workload with Zipf-popular files (clients
//!   arrive in waves, each pipelining several requests); p50/p99
//!   recorded.
//! * **Zero per-connection threads** — `/proc/self/task` before vs
//!   after the fleet connects; delta must be 0 (the engine's
//!   `workers + 1` threads already exist).
//! * **Stalled-client fairness** — a slow-loris straggler floods a
//!   huge pipelined burst and never reads replies; its server-side
//!   queue caps at the configured bound and the healthy subset's
//!   wall-clock p99 stays within 2× of the no-straggler baseline
//!   (with an absolute floor absorbing single-core CI scheduler
//!   noise).
//!
//! Env knob: `BENCH_QUICK=1` shrinks the fleet (CI smoke).

use std::time::{Duration, Instant};

use bench_harness::{bench_quick as quick, percentile};

use discfs::{Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::{DetRng, RngCore};
use ffs::{FsConfig, StoreBackend};
use ipsec::ike::SecureChannel;
use netsim::{Endpoint, LinkConfig};
use nfsv2::proto::proc_nfs;
use nfsv2::{EngineConfig, FHandle, NfsClient};
use onc_rpc::Encoder;

/// Shared working set: Zipf-popular files, paper-era 8 KB transfers.
const FILES: usize = 128;
const FILE_SIZE: usize = 8192;
/// Zipf exponent for file popularity.
const ZIPF_S: f64 = 1.2;
/// Requests each bursting client pipelines per wave.
const PIPELINE: usize = 4;

struct Fleet {
    bed: Testbed,
    files: Vec<FHandle>,
    clients: Vec<FleetClient>,
    /// Kept alive so its connection stays in the engine's count.
    _setup: discfs::DiscfsClient,
}

struct FleetClient {
    nfs: NfsClient,
}

/// Builds the server world (engine running, working set populated) —
/// no fleet clients yet, so callers can snapshot the thread count
/// before the fleet connects.
fn build_world() -> (Testbed, Vec<FHandle>, discfs::DiscfsClient) {
    let bed = Testbed::with_backend(
        FsConfig::standard(),
        LinkConfig::instant(),
        4096,
        &StoreBackend::SimInstant,
    );
    // Populate the working set through a setup client, then make the
    // files world-readable — fleet clients authorize via the public
    // grant, no per-client credential exchange.
    let setup_key = SigningKey::from_seed(&[0xCE; 32]);
    let mut setup = bed.connect_owner(&setup_key).expect("connect setup client");
    let root = setup.remote().root();
    let files: Vec<FHandle> = (0..FILES)
        .map(|i| {
            let res = setup
                .create_with_credential(&root, &format!("f{i}.dat"), 0o644)
                .expect("create working-set file");
            setup
                .client()
                .write_all(&res.fh, 0, &vec![i as u8; FILE_SIZE])
                .expect("populate file");
            bed.service().set_public_access(&res.fh, Perm::R);
            res.fh
        })
        .collect();
    (bed, files, setup)
}

/// Connects `n` lightweight fleet clients: raw IKE channels speaking
/// framed RPC directly (handles are shared, so the fleet skips
/// per-client MOUNT round trips, as a host-wide automounter would).
fn connect_clients(bed: &Testbed, n: usize) -> Vec<FleetClient> {
    (0..n)
        .map(|i| {
            let (chan, _token) = connect_raw_client(bed, i as u64);
            FleetClient {
                nfs: NfsClient::new(Box::new(chan)),
            }
        })
        .collect()
}

fn build_fleet(n: usize) -> Fleet {
    let (bed, files, setup) = build_world();
    let clients = connect_clients(&bed, n);
    Fleet {
        bed,
        files,
        clients,
        _setup: setup,
    }
}

/// Waits (bounded) for the engine's responder-side attaches — the IKE
/// handshake completes as an async worker job, so the connection count
/// trails `connect_raw` returning by a beat.
fn await_connections(fleet: &Fleet, expect: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet.bed.engine().connections() != expect {
        assert!(
            Instant::now() < deadline,
            "engine attached {} of {expect} connections",
            fleet.bed.engine().connections()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn connect_raw_client(bed: &Testbed, i: u64) -> (SecureChannel<Endpoint>, u64) {
    let mut seed = [0x77u8; 32];
    seed[0..8].copy_from_slice(&i.to_le_bytes());
    seed[8] = 0x13;
    let key = SigningKey::from_seed(&seed);
    bed.connect_raw(&key).expect("fleet handshake")
}

/// Precomputed Zipf CDF over the working set.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (1..=FILES).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn sample_zipf(cdf: &[f64], rng: &mut DetRng) -> usize {
    // Uniform in [0, 1).
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// READ args for one whole working-set file.
fn read_args(fh: &FHandle) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_opaque_fixed(&fh.0);
    e.put_u32(0); // offset
    e.put_u32(FILE_SIZE as u32); // count
    e.put_u32(FILE_SIZE as u32); // totalcount (unused)
    e.finish()
}

/// Fleet latency figure: waves of bursting clients, Zipf reads, per-
/// request latency on the virtual clock.
fn figure_fleet_latency() {
    let n = if quick() { 1_000 } else { 10_000 };
    let waves = 8usize;
    println!(
        "\n== PR 7 figure: {n} clients, fixed {}-worker engine, Zipf({ZIPF_S}) bursts ==",
        EngineConfig::default().workers
    );

    // The engine's `workers + 1` threads exist as soon as the world is
    // built; the fleet connecting afterwards must not add a single one.
    let (bed, files, setup) = build_world();
    let threads_before = os_threads();
    let clients = connect_clients(&bed, n);
    let threads_after = os_threads();
    let fleet = Fleet {
        bed,
        files,
        clients,
        _setup: setup,
    };
    let fleet_threads = fleet.bed.engine().thread_count();

    // Zero per-connection threads: the entire fleet connected without
    // the process growing a single thread.
    assert_eq!(
        threads_before, threads_after,
        "connecting {n} clients must not spawn server threads"
    );
    await_connections(&fleet, n + 1); // + the setup client
    println!(
        "  {} connections multiplexed on {} engine threads",
        n + 1,
        fleet_threads
    );

    let cdf = zipf_cdf();
    let mut rng = DetRng::new(0xF1EE7);
    let clock = fleet.bed.clock().clone();
    clock.reset();

    // Waves of arrival bursts: each wave, one cohort pipelines
    // PIPELINE reads each; the driver then drains that cohort's
    // replies, stamping per-request virtual latency.
    let cohort = n / waves;
    let mut latencies: Vec<Duration> = Vec::with_capacity(n * PIPELINE);
    for wave in 0..waves {
        let members = &fleet.clients[wave * cohort..(wave + 1) * cohort];
        let mut outstanding: Vec<(usize, Vec<(u32, Duration)>)> = Vec::with_capacity(members.len());
        for (ci, client) in members.iter().enumerate() {
            let mut xids = Vec::with_capacity(PIPELINE);
            for _ in 0..PIPELINE {
                let fh = &fleet.files[sample_zipf(&cdf, &mut rng)];
                let sent_at = clock.now();
                let xid = client
                    .nfs
                    .send_call(nfsv2::NFS_PROGRAM, 2, proc_nfs::READ, read_args(fh))
                    .expect("burst send");
                xids.push((xid, sent_at));
            }
            outstanding.push((ci, xids));
        }
        for (ci, xids) in outstanding {
            for (xid, sent_at) in xids {
                members[ci].nfs.wait_reply(xid).expect("burst reply");
                latencies.push(clock.now() - sent_at);
            }
        }
    }

    latencies.sort();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "  {} requests: p50 {:.1} us, p99 {:.1} us (virtual)",
        latencies.len(),
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
    );
    let served = fleet
        .bed
        .engine()
        .stats()
        .requests_served
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        served >= (n * PIPELINE) as u64,
        "every burst request served"
    );
}

/// Stalled-client fairness figure: wall-clock p99 of a healthy cohort
/// with and without a flooding straggler.
fn figure_fairness() {
    let healthy_n = if quick() { 100 } else { 400 };
    let flood = if quick() { 20_000 } else { 100_000 };
    let rounds = if quick() { 20 } else { 40 };
    println!("\n== PR 7 figure: slow-loris straggler vs {healthy_n} healthy clients ==");

    let fleet = build_fleet(healthy_n);
    let args = read_args(&fleet.files[0]);
    // Warm-up round trip each.
    for client in &fleet.clients {
        let xid = client
            .nfs
            .send_call(nfsv2::NFS_PROGRAM, 2, proc_nfs::READ, args.clone())
            .expect("warm send");
        client.nfs.wait_reply(xid).expect("warm reply");
    }

    let measure_p99 = |rounds: usize| -> Duration {
        let mut samples = Vec::with_capacity(rounds * fleet.clients.len());
        for _ in 0..rounds {
            for client in &fleet.clients {
                let start = Instant::now();
                let xid = client
                    .nfs
                    .send_call(nfsv2::NFS_PROGRAM, 2, proc_nfs::READ, args.clone())
                    .expect("healthy send");
                client.nfs.wait_reply(xid).expect("healthy reply");
                samples.push(start.elapsed());
            }
        }
        samples.sort();
        percentile(&samples, 0.99)
    };

    let baseline_p99 = measure_p99(rounds);

    // The straggler floods and never reads a reply.
    let (straggler, token) = connect_raw_client(&fleet.bed, 0xDEAD);
    let straggler = NfsClient::new(Box::new(straggler));
    for _ in 0..flood {
        straggler
            .send_call(nfsv2::NFS_PROGRAM, 2, proc_nfs::READ, args.clone())
            .expect("flood send");
    }
    straggler.flush().expect("flood on the wire");

    let stressed_p99 = measure_p99(rounds);

    let high_water = fleet
        .bed
        .engine()
        .queue_high_water(token)
        .expect("straggler attached");
    assert_eq!(
        high_water,
        EngineConfig::default().queue_bound,
        "straggler queue must cap at the configured bound"
    );
    // The 2×-of-baseline fairness bound, with a floor absorbing
    // scheduler preemption on starved CI runners; genuine unfairness
    // (healthy requests queued behind the flood) costs hundreds of ms.
    let bound = (baseline_p99 * 2).max(Duration::from_millis(25));
    assert!(
        stressed_p99 <= bound,
        "healthy p99 {stressed_p99:?} exceeded fairness bound {bound:?} \
         (baseline {baseline_p99:?})"
    );
    println!(
        "  healthy p99: {:.1} us baseline, {:.1} us with straggler (bound {:.1} us); \
         straggler queue high-water {high_water}",
        baseline_p99.as_secs_f64() * 1e6,
        stressed_p99.as_secs_f64() * 1e6,
        bound.as_secs_f64() * 1e6,
    );
}

/// OS thread count of this process, when the platform exposes it.
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

fn main() {
    figure_fleet_latency();
    figure_fairness();
}
