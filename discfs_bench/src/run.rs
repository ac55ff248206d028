//! One run of one workload: set-up, warm-up, the measured window, the
//! checks after it, and the metrics. The traced mode adds a second,
//! interposed world, the single-thread probes, the bare-`Ffs` replay
//! and the comparison with CFS-NE.

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use discfs::{CredentialIssuer, DiscfsClient, Perm};
use discfs_crypto::ed25519::SigningKey;
use nfsv2::FHandle;
use store::StoreStats;

use crate::alloc_count;
use crate::driver::{pump, record_session, run_list, spawn_sampler, Conn, Recorder};
use crate::gen::{check_block, BlockTag, Rng};
use crate::plan::{
    Layout, Op, OpStream, RandomStream, Scale, SeqReadStream, SeqWriteStream, WalkStream,
    WorkloadKind, BLOCK,
};
use crate::probes::{self, Shape};
use crate::report::{Metric, RunReport, FAILED_OPS_FRAC};
use crate::stats::{
    kept_slices, median, peak_rss_mb, quartile_spread, slice_median, CpuSample, MIN_KEPT_SHARE,
    REPETITIONS, SLICES,
};
use crate::trace::{Layer, Side, Tracer};
use crate::world::{
    backend_for, build_dir, client_link, create_tree, discfs_make, fill_ops, plain_make,
    root_grant, scratch_dir, FfsReplay, Handles, PlainWorld, Server,
};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub kind: WorkloadKind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time in all. An untraced run divides it among its
    /// repetitions; the traced mode between an untraced and a traced
    /// window.
    pub measure: Duration,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// How many worlds an untraced run sets up and measures, each for
    /// its share of `measure`.
    pub repetitions: usize,
}

impl RunConfig {
    /// The benchmark's configuration for `kind`.
    pub fn new(kind: WorkloadKind, seed: u64, measure: Duration, trace: bool) -> RunConfig {
        RunConfig {
            kind,
            seed,
            measure,
            trace,
            scale: Scale::full(),
            repetitions: REPETITIONS,
        }
    }

    /// The unmeasured warm-up before a window of `window`: a fifth of
    /// it.
    fn warmup(window: Duration) -> Duration {
        window / 5
    }
}

/// The operation source of one connection, kept concrete so its state
/// can be checked against the volume afterwards.
enum Load {
    SeqRead(SeqReadStream),
    SeqWrite(SeqWriteStream),
    Walk(WalkStream),
    Random(RandomStream),
}

impl Load {
    /// The stream of the workload's first connection, or (`second`) of
    /// the overwriter `stack_mixed` adds. `session_setup` issues
    /// sessions, not a stream, and never asks.
    fn new(cfg: &RunConfig, layout: &Layout, second: bool) -> Load {
        let scale = &cfg.scale;
        let random = |file, blocks, reads_per_ten, sync_every| {
            let rng = Rng::new(cfg.seed, 2);
            Load::Random(RandomStream::new(
                file,
                blocks,
                reads_per_ten,
                sync_every,
                rng,
            ))
        };
        match cfg.kind {
            WorkloadKind::SeqRead | WorkloadKind::SessionSetup => {
                Load::SeqRead(SeqReadStream::new(0, layout.blocks_of(0), true))
            }
            WorkloadKind::SeqWrite => Load::SeqWrite(SeqWriteStream::new(scale.seq_blocks)),
            WorkloadKind::MetaWalk => Load::Walk(WalkStream::new(layout)),
            WorkloadKind::StackMixed if second => {
                random(1, scale.stack_blocks, 0, scale.stack_sync_every)
            }
            // Cycles are the overwriter's, from sync to sync.
            WorkloadKind::StackMixed => {
                Load::SeqRead(SeqReadStream::new(0, scale.stack_blocks, false))
            }
            WorkloadKind::ReplMixed => random(0, scale.repl_blocks, 7, scale.repl_sync_every),
        }
    }

    fn stream(&mut self) -> &mut dyn OpStream {
        match self {
            Load::SeqRead(s) => s,
            Load::SeqWrite(s) => s,
            Load::Walk(s) => s,
            Load::Random(s) => s,
        }
    }
}

struct ClientConn {
    client: DiscfsClient,
    token: u64,
    load: Load,
}

/// Failures and attempts outside the recorders (set-up checks,
/// read-backs, acceptance ranges).
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Checks {
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(what) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(what);
        }
    }

    fn absorb(&mut self, rec: &Recorder) {
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&rec.first_failure);
        }
    }
}

/// A world ready to be measured.
struct Ready {
    server: Server,
    layout: Layout,
    handles: Handles,
    conns: Vec<ClientConn>,
    owner: SigningKey,
    /// The credentials the owner's session holds (root grant, then one
    /// creator credential per created object).
    owner_credentials: Vec<String>,
    /// `session_setup`: the chain link every new user needs first.
    file_chain: Vec<String>,
    session_keys: Rng,
    /// Wall time of each credential submission, ms.
    submit_ms: Vec<f64>,
    scratch: Option<PathBuf>,
}

fn submit(client: &DiscfsClient, credential: &str, times: &mut Vec<f64>) -> Result<(), String> {
    let start = Instant::now();
    client
        .submit_credential(credential)
        .map_err(|e| format!("submit credential: {e}"))?;
    times.push(start.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// What every connection to one world shares.
struct Ground<'a> {
    server: &'a Server,
    sync: &'a (dyn Fn() -> std::io::Result<()> + Sync),
    layout: &'a Layout,
    handles: &'a Handles,
    seed: u64,
}

impl<'a> Ground<'a> {
    fn conn(
        &self,
        client: &'a DiscfsClient,
        window: usize,
        tracer: Option<&'a Arc<Tracer>>,
        conn_id: u32,
    ) -> Conn<'a> {
        Conn {
            nfs: client.client(),
            root: client.remote().root(),
            handles: self.handles,
            layout: self.layout,
            seed: self.seed,
            window,
            sync: self.sync,
            clock: self.server.clock(),
            tracer,
            conn_id,
        }
    }
}

/// Builds the world, creates and fills the layout, connects every
/// connection of the workload and gives each the credentials it needs.
fn set_up(cfg: &RunConfig, tracer: Option<&Arc<Tracer>>, tag: &str) -> Result<Ready, String> {
    let scratch = (cfg.kind == WorkloadKind::StackMixed).then(|| scratch_dir(tag));
    if let Some(dir) = &scratch {
        // A directory left by a killed run would be mounted, not formatted.
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let backend = backend_for(
        cfg.kind,
        &cfg.scale,
        scratch.as_deref().unwrap_or(std::path::Path::new("")),
    );
    let server = Server::start(&backend, tracer);
    let layout = Layout::for_workload(cfg.kind, &cfg.scale, cfg.seed);
    let mut keys = Rng::new(cfg.seed, 1);
    let owner = SigningKey::from_seed(&keys.key_seed());
    let mut submit_ms = Vec::new();

    let (client, token) = server.connect(&owner)?;
    let grant = root_grant(server.admin(), &owner.public());
    submit(&client, &grant, &mut submit_ms)?;
    let mut client = client;
    let root = client.remote().root();
    let handles = create_tree(root, &layout, &mut discfs_make(&mut client))?;
    {
        let sync = || server.sync();
        let ground = Ground {
            server: &server,
            sync: &sync,
            layout: &layout,
            handles: &handles,
            seed: cfg.seed,
        };
        // Filled at the workload's own window, so the engine's queue
        // high-water mark for the connection reflects the workload.
        let fill = ground.conn(&client, cfg.kind.window(), None, 0);
        run_list(&fill, &fill_ops(&layout))?;
    }
    let mut owner_credentials = vec![grant];
    owner_credentials.extend(client.wallet().credentials().iter().cloned());

    let chain_for = |fh: &FHandle| -> Vec<String> {
        client
            .wallet()
            .relevant_for(&fh.credential_string())
            .into_iter()
            .cloned()
            .collect()
    };
    let mut file_chain = Vec::new();
    let mut conns = Vec::new();
    if cfg.kind == WorkloadKind::SessionSetup {
        // Every measured session is a new user's; the owner's
        // connection has done its work.
        file_chain = chain_for(&handles.files[0]);
        drop(client);
    } else {
        let mut writer_conn = None;
        if cfg.kind == WorkloadKind::StackMixed {
            // The owner reads file 0; a second user, to whom the owner
            // delegates file 1, overwrites it.
            let writer = SigningKey::from_seed(&keys.key_seed());
            let target = handles.files[1];
            let mut chain = chain_for(&target);
            chain.push(
                CredentialIssuer::new(&owner)
                    .holder(&writer.public())
                    .grant(&target, Perm::RW)
                    .issue(),
            );
            let (client, token) = server.connect(&writer)?;
            for credential in &chain {
                submit(&client, credential, &mut submit_ms)?;
            }
            writer_conn = Some(ClientConn {
                client,
                token,
                load: Load::new(cfg, &layout, true),
            });
        }
        conns.push(ClientConn {
            client,
            token,
            load: Load::new(cfg, &layout, false),
        });
        conns.extend(writer_conn);
    }
    Ok(Ready {
        server,
        layout,
        handles,
        conns,
        owner,
        owner_credentials,
        file_chain,
        session_keys: Rng::new(cfg.seed, 3),
        submit_ms,
        scratch,
    })
}

impl Ready {
    fn tear_down(self) {
        let Ready {
            server,
            conns,
            scratch,
            ..
        } = self;
        drop(conns);
        drop(server);
        if let Some(dir) = scratch {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// What one window observed.
struct Phase {
    rec: Recorder,
    /// One sample per slice boundary (empty for an unsampled phase).
    samples: Vec<CpuSample>,
    virtual_time: Duration,
}

/// One `session_setup` operation: a newly delegated user connects,
/// submits the chain, reads, disconnects.
fn one_session(ready: &mut Ready, seed: u64, rec: &mut Recorder) {
    let mid = SigningKey::from_seed(&ready.session_keys.key_seed());
    let user = SigningKey::from_seed(&ready.session_keys.key_seed());
    let fh = ready.handles.files[0];
    let len = ready.layout.files[0].len;
    let to_mid = CredentialIssuer::new(&ready.owner)
        .holder(&mid.public())
        .grant(&fh, Perm::R)
        .issue();
    let to_user = CredentialIssuer::new(&mid)
        .holder(&user.public())
        .grant(&fh, Perm::R)
        .issue();
    let sent = Instant::now();
    let outcome = (|| {
        let (client, _) = ready.server.connect(&user)?;
        for credential in ready.file_chain.iter().chain([&to_mid, &to_user]) {
            submit(&client, credential, &mut ready.submit_ms)?;
        }
        let (_, data) = client
            .client()
            .read(&fh, 0, len)
            .map_err(|e| format!("first read: {e}"))?;
        let tag = BlockTag {
            seed,
            file: 0,
            block: 0,
            version: 0,
        };
        if data.len() != len as usize || !check_block(&data, tag) {
            return Err("first read: content is not the file's pattern".to_string());
        }
        Ok(())
    })();
    record_session(rec, ready.server.clock(), sent, outcome);
}

/// Runs every connection of the workload for `length`.
fn run_phase(
    ready: &mut Ready,
    cfg: &RunConfig,
    length: Duration,
    tracer: Option<&Arc<Tracer>>,
    sampled: bool,
) -> Result<Phase, String> {
    // Start a moment ahead so the sampler's first reading is on time.
    let start = Instant::now() + Duration::from_millis(2);
    let deadline = start + length;
    let sampler = sampled.then(|| spawn_sampler(start, length));
    let completed: Arc<AtomicU64> = Arc::default();
    let virtual_before = ready.server.clock().now();
    if let Some(t) = tracer {
        t.set_enabled(true);
    }

    let outcome: Result<Recorder, String> = if cfg.kind == WorkloadKind::SessionSetup {
        let mut rec = Recorder::new(start, length, &completed);
        while Instant::now() < deadline {
            one_session(ready, cfg.seed, &mut rec);
        }
        Ok(rec)
    } else {
        let Ready {
            server,
            layout,
            handles,
            conns,
            ..
        } = &mut *ready;
        let server = &*server;
        let sync = || server.sync();
        let ground = Ground {
            server,
            sync: &sync,
            layout,
            handles,
            seed: cfg.seed,
        };
        let window = cfg.kind.window();
        let run_one = |i: usize, c: &mut ClientConn| -> (Recorder, Result<(), String>) {
            let mut rec = Recorder::new(start, length, &completed);
            let conn = ground.conn(&c.client, window, tracer, i as u32 + 1);
            let result = pump(&conn, c.load.stream(), &mut rec, |_| {
                Instant::now() < deadline
            });
            (rec, result)
        };
        let results: Vec<(Recorder, Result<(), String>)> = std::thread::scope(|scope| {
            let mut iter = conns.iter_mut().enumerate();
            let first = iter.next();
            let others: Vec<_> = iter
                .map(|(i, c)| scope.spawn(move || run_one(i, c)))
                .collect();
            let mut results: Vec<_> = first.map(|(i, c)| run_one(i, c)).into_iter().collect();
            for handle in others {
                results.push(handle.join().unwrap_or_else(|_| {
                    (
                        Recorder::new(start, length, &completed),
                        Err("a load thread panicked".to_string()),
                    )
                }));
            }
            results
        });
        let mut merged: Option<Recorder> = None;
        let mut broken = None;
        for (rec, result) in results {
            if let Err(e) = result {
                broken.get_or_insert(e);
            }
            match &mut merged {
                Some(m) => m.merge(rec),
                None => merged = Some(rec),
            }
        }
        match (merged, broken) {
            (Some(mut rec), Some(e)) => {
                rec.first_failure.get_or_insert(e);
                Ok(rec)
            }
            (Some(rec), None) => Ok(rec),
            (None, _) => Err("workload has no connection".to_string()),
        }
    };

    if let Some(t) = tracer {
        t.set_enabled(false);
    }
    let virtual_time = ready.server.clock().now() - virtual_before;
    let samples = match sampler {
        Some(handle) => handle
            .join()
            .map_err(|_| "sampler thread panicked".to_string())?,
        None => Vec::new(),
    };
    Ok(Phase {
        rec: outcome?,
        samples,
        virtual_time,
    })
}

/// Reads `file` back over `client` and checks every block against
/// `versions`.
fn read_back(
    ground: &Ground<'_>,
    client: &DiscfsClient,
    file: u32,
    versions: &[u32],
) -> Result<(), String> {
    let ops: Vec<Op> = versions
        .iter()
        .enumerate()
        .map(|(block, &version)| Op::Read {
            file,
            block: block as u32,
            len: BLOCK,
            version,
        })
        .collect();
    run_list(&ground.conn(client, 8, None, 0), &ops)
}

/// The checks after the window; consumes the world and tears it down.
fn final_checks(ready: Ready, cfg: &RunConfig, checks: &mut Checks) {
    let Ready {
        mut server,
        layout,
        handles,
        mut conns,
        owner,
        owner_credentials,
        scratch,
        ..
    } = ready;
    let retries = server.store_stats().retries;
    // What the volume must hold, from the generators' final state.
    let expected = conns.iter().find_map(|conn| match &conn.load {
        Load::SeqWrite(stream) => {
            let (blocks, version) = stream.expected();
            Some((0, vec![version; blocks as usize]))
        }
        Load::Random(stream) => {
            let file = u32::from(cfg.kind == WorkloadKind::StackMixed);
            Some((file, stream.shadow().to_vec()))
        }
        Load::SeqRead(_) | Load::Walk(_) => None,
    });
    // The owner's connection reads back. A workload that syncs is first
    // rebooted: only what a sync made durable survives, every
    // acknowledged write must be there, and the owner reconnects.
    let mut reader = (!conns.is_empty()).then(|| conns.remove(0).client);
    if matches!(cfg.kind, WorkloadKind::StackMixed | WorkloadKind::ReplMixed) {
        drop(reader.take());
        drop(conns);
        checks.check(server.sync().map_err(|e| format!("final sync: {e}")));
        server = server.reboot();
        checks.check(
            server
                .fs()
                .check()
                .map_err(|problems| format!("fsck: {}", problems.join("; "))),
        );
        match server.connect(&owner) {
            Ok((client, _)) => {
                for credential in &owner_credentials {
                    checks.check(
                        client
                            .submit_credential(credential)
                            .map_err(|e| format!("credentials after reboot: {e}")),
                    );
                }
                reader = Some(client);
            }
            Err(e) => checks.check(Err(format!("reconnect after reboot: {e}"))),
        }
    }
    if let (Some((file, versions)), Some(client)) = (expected, &reader) {
        let sync = || server.sync();
        let ground = Ground {
            server: &server,
            sync: &sync,
            layout: &layout,
            handles: &handles,
            seed: cfg.seed,
        };
        checks.check(read_back(&ground, client, file, &versions));
    }
    if cfg.kind == WorkloadKind::ReplMixed {
        checks.check(if retries == 0 {
            Ok(())
        } else {
            Err(format!("store.remote.retries = {retries}, must be 0"))
        });
    }
    drop(reader);
    drop(server);
    if let Some(dir) = scratch {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The end-to-end metrics of a run's windows.
struct EndToEnd {
    metrics: Vec<Metric>,
    slices_kept: usize,
    noisy: bool,
    steal_frac: f64,
}

/// One slice of one window, as the estimators see it.
struct SliceStat<'a> {
    reads: u64,
    writes: u64,
    span: Option<Duration>,
    latency: &'a crate::stats::Histogram,
    cpu_us: Option<f64>,
    kept: bool,
}

fn end_to_end(phases: &[Phase], setup_s: f64, peak_rss_mb: f64) -> EndToEnd {
    // Pool the slices of every window.
    let mut slices: Vec<SliceStat<'_>> = Vec::new();
    let mut clean = 0;
    for phase in phases {
        let (keep, kept_here) = if phase.samples.len() == SLICES + 1 {
            kept_slices(&phase.samples)
        } else {
            (vec![true; SLICES], SLICES)
        };
        clean += kept_here;
        for (i, kept) in keep.into_iter().enumerate() {
            let (reads, writes) = phase.rec.slice_ops(i);
            let cpu_us = phase
                .samples
                .get(i)
                .zip(phase.samples.get(i + 1))
                .map(|(a, b)| b.cpu_since(a).as_secs_f64() * 1e6);
            slices.push(SliceStat {
                reads,
                writes,
                span: phase.rec.slice_span(i),
                latency: phase.rec.slice_latency(i),
                cpu_us,
                kept,
            });
        }
    }
    let keep: Vec<bool> = slices.iter().map(|s| s.kept).collect();
    let total_reads: u64 = slices.iter().map(|s| s.reads).sum();
    let total_writes: u64 = slices.iter().map(|s| s.writes).sum();
    let rate = |s: &SliceStat<'_>, n: u64| s.span.map(|span| n as f64 / span.as_secs_f64());
    // A workload with one class of operation reports its rate for the
    // class that does not occur: the contract wants every metric on
    // every workload and none at zero.
    let class = |n: u64, whole_class: u64, all: u64| if whole_class == 0 { all } else { n };
    let percentile = |s: &SliceStat<'_>, q: f64| s.latency.percentile(q).map(|ns| ns / 1e3);
    let columns: [(&'static str, Vec<Option<f64>>); 6] = [
        (
            "ops_per_s",
            slices.iter().map(|s| rate(s, s.reads + s.writes)).collect(),
        ),
        (
            "read_ops_per_s",
            slices
                .iter()
                .map(|s| rate(s, class(s.reads, total_reads, s.reads + s.writes)))
                .collect(),
        ),
        (
            "write_ops_per_s",
            slices
                .iter()
                .map(|s| rate(s, class(s.writes, total_writes, s.reads + s.writes)))
                .collect(),
        ),
        (
            "op_p50_us",
            slices.iter().map(|s| percentile(s, 0.50)).collect(),
        ),
        (
            "op_p99_us",
            slices.iter().map(|s| percentile(s, 0.99)).collect(),
        ),
        (
            "cpu_us_per_op",
            slices
                .iter()
                .map(|s| {
                    let ops = s.reads + s.writes;
                    s.cpu_us.filter(|_| ops > 0).map(|cpu| cpu / ops as f64)
                })
                .collect(),
        ),
    ];
    let mut metrics = vec![Metric::once("setup_s", setup_s)];
    for (name, values) in &columns {
        let (value, spread) = slice_median(values, &keep).unwrap_or((0.0, 0.0));
        metrics.push(Metric {
            name,
            value,
            spread,
        });
    }

    // CPU ticks are 10 ms: per slice they quantise the quotient, so the
    // kept slices' ticks and operations are each summed first.
    let kept_cpu: f64 = slices
        .iter()
        .filter(|s| s.kept)
        .filter_map(|s| s.cpu_us)
        .sum();
    let kept_ops: u64 = slices
        .iter()
        .filter(|s| s.kept && s.cpu_us.is_some())
        .map(|s| s.reads + s.writes)
        .sum();
    if kept_ops > 0 {
        let slot = metrics
            .iter_mut()
            .find(|m| m.name == "cpu_us_per_op")
            .expect("pushed above");
        slot.value = kept_cpu / kept_ops as f64;
    }
    // The paper's axis, over whole cycles so that a window-1 workload
    // reads the same to the last bit on every run; windows too short to
    // hold a cycle divide their virtual time by their operations.
    let cycles: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.rec.cycle_virtual_us_per_op())
        .collect();
    let virtual_us = match median(&cycles) {
        Some(m) => Metric {
            name: "virtual_us_per_op",
            value: m,
            spread: quartile_spread(&cycles),
        },
        None => {
            let time: f64 = phases.iter().map(|p| p.virtual_time.as_secs_f64()).sum();
            let ops: u64 = phases.iter().map(|p| p.rec.attempted).sum();
            Metric::once("virtual_us_per_op", time * 1e6 / ops.max(1) as f64)
        }
    };
    metrics.insert(6, virtual_us);
    metrics.push(Metric::once("peak_rss_mb", peak_rss_mb));
    let steal_frac = phases
        .iter()
        .filter_map(|p| Some(p.samples.last()?.steal_frac_since(p.samples.first()?)))
        .fold(0.0, f64::max);
    EndToEnd {
        metrics,
        slices_kept: clean,
        noisy: (clean as f64) < slices.len() as f64 * MIN_KEPT_SHARE,
        steal_frac,
    }
}

/// Runs `cfg` and reports. Never panics on a failing system: what goes
/// wrong is counted and described in the report.
pub fn run(cfg: &RunConfig) -> RunReport {
    let mut report = RunReport {
        workload: cfg.kind.name().to_string(),
        seed: cfg.seed,
        seconds: cfg.measure.as_secs_f64(),
        traced: cfg.trace,
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..RunReport::default()
    };
    let mut checks = Checks::default();
    let result = if cfg.trace {
        run_traced(cfg, &mut report, &mut checks)
    } else {
        run_untraced(cfg, &mut report, &mut checks)
    };
    if let Err(e) = result {
        checks.check(Err(e));
    }
    report.attempted = checks.attempted;
    report.failed = checks.failed;
    report.first_failure = checks.first_failure;
    let frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.end_to_end.push(Metric::once(FAILED_OPS_FRAC, frac));
    report
}

/// Sets a world up, timed.
fn timed_set_up(
    cfg: &RunConfig,
    tracer: Option<&Arc<Tracer>>,
    tag: usize,
) -> Result<(Ready, f64), String> {
    let start = Instant::now();
    let ready = set_up(cfg, tracer, &format!("{}-{tag}", cfg.kind.name()))?;
    Ok((ready, start.elapsed().as_secs_f64()))
}

/// The unmeasured warm-up before a window of `window`. Its operations
/// are verified like any other; only their failures are kept.
fn warm_up(
    ready: &mut Ready,
    cfg: &RunConfig,
    window: Duration,
    checks: &mut Checks,
) -> Result<(), String> {
    let warm = run_phase(ready, cfg, RunConfig::warmup(window), None, false)?;
    if warm.rec.failed > 0 {
        checks.absorb(&warm.rec);
    }
    Ok(())
}

fn warm_and_measure(
    ready: &mut Ready,
    cfg: &RunConfig,
    window: Duration,
    checks: &mut Checks,
) -> Result<Phase, String> {
    warm_up(ready, cfg, window, checks)?;
    let phase = run_phase(ready, cfg, window, None, true)?;
    checks.absorb(&phase.rec);
    Ok(phase)
}

/// Set-ups shorter than this in total are repeated (up to
/// [`MAX_EXTRA_SETUPS`] more) so that the median is of more than three
/// readings of a few tens or hundreds of milliseconds.
const MIN_SETUP_TIME: f64 = 1.5;
const MAX_EXTRA_SETUPS: usize = 9;

fn run_untraced(
    cfg: &RunConfig,
    report: &mut RunReport,
    checks: &mut Checks,
) -> Result<(), String> {
    let repetitions = cfg.repetitions.max(1);
    let window = cfg.measure / repetitions as u32;
    let mut phases = Vec::new();
    let mut setups = Vec::new();
    let mut peak_rss = 0.0;
    for i in 0..repetitions {
        let (mut ready, seconds) = timed_set_up(cfg, None, i)?;
        setups.push(seconds);
        phases.push(warm_and_measure(&mut ready, cfg, window, checks)?);
        final_checks(ready, cfg, checks);
        // One world's footprint. The high-water mark at exit would add
        // what the allocator happens to keep of earlier worlds, which
        // varied by 20 % between runs.
        if i == 0 {
            peak_rss = peak_rss_mb();
        }
    }
    let mut extra = 0;
    while setups.iter().sum::<f64>() < MIN_SETUP_TIME && extra < MAX_EXTRA_SETUPS {
        let (ready, seconds) = timed_set_up(cfg, None, repetitions + extra)?;
        setups.push(seconds);
        ready.tear_down();
        extra += 1;
    }
    let e2e = end_to_end(&phases, median(&setups).unwrap_or(0.0), peak_rss);
    report.end_to_end = e2e.metrics;
    report.slices_kept = e2e.slices_kept;
    report.noisy = e2e.noisy;
    report.ops_measured = phases.iter().map(|p| p.rec.ops_in_window()).sum();
    Ok(())
}

/// Counter readings bracketing the traced window.
struct Counters {
    served: u64,
    batches: u64,
    pauses: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    decisions: u64,
    exclusive: u64,
    store: StoreStats,
}

impl Counters {
    fn read(server: &Server) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let engine = server.engine().stats();
        let cache = server.service().cache().stats();
        let auth = server.service().auth_stats();
        Counters {
            served: engine.requests_served.load(Relaxed),
            batches: engine.batches_sent.load(Relaxed),
            pauses: engine.pauses.load(Relaxed),
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
            decisions: auth.decisions(),
            exclusive: auth.exclusive(),
            store: server.store_stats(),
        }
    }
}

fn ratio(a: f64, b: f64) -> Option<f64> {
    (b > 0.0).then(|| a / b)
}

/// `ops` of the workload's stream at window 1 on `conn`; returns
/// `(virtual time, wall time)`.
fn paper_pass(
    conn: &Conn<'_>,
    cfg: &RunConfig,
    layout: &Layout,
) -> Result<(Duration, Duration), String> {
    let mut load = Load::new(cfg, layout, false);
    let total = cfg.scale.paper_ops as u64;
    let mut rec = Recorder::new(Instant::now(), Duration::from_secs(3600), &Arc::default());
    let virtual_before = conn.clock.now();
    let start = Instant::now();
    pump(conn, load.stream(), &mut rec, |issued| issued < total)?;
    let wall = start.elapsed();
    match rec.first_failure {
        Some(what) => Err(what),
        None => Ok((conn.clock.now() - virtual_before, wall)),
    }
}

fn run_traced(cfg: &RunConfig, report: &mut RunReport, checks: &mut Checks) -> Result<(), String> {
    let window = cfg.measure / 2;
    let has_paper = matches!(
        cfg.kind,
        WorkloadKind::SeqRead | WorkloadKind::SeqWrite | WorkloadKind::MetaWalk
    );
    let mut layer: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(value) = value.filter(|v| v.is_finite()) {
            layer.push(Metric::once(name, value));
        }
    };

    // World A, untraced: the reference rate, the allocation counts and
    // the DisCFS side of the paper's comparison.
    let (mut world_a, setup_s) = timed_set_up(cfg, None, 0)?;
    // The comparison runs on the fresh world, as it will on CFS-NE's.
    let paper_discfs = if has_paper {
        let sync = || world_a.server.sync();
        let ground = Ground {
            server: &world_a.server,
            sync: &sync,
            layout: &world_a.layout,
            handles: &world_a.handles,
            seed: cfg.seed,
        };
        let conn = ground.conn(&world_a.conns[0].client, 1, None, 0);
        Some(paper_pass(&conn, cfg, &world_a.layout)?)
    } else {
        None
    };
    alloc_count::arm(true);
    let allocs_before = alloc_count::snapshot();
    let untraced = warm_and_measure(&mut world_a, cfg, window, checks)?;
    let allocs = alloc_count::snapshot();
    alloc_count::arm(false);
    let mut untraced_e2e = end_to_end(std::slice::from_ref(&untraced), setup_s, 0.0);
    let untraced_ops = untraced.rec.attempted.max(1) as f64;
    let owner_credentials = world_a.owner_credentials.clone();
    let owner = world_a.owner.clone();
    let admin = world_a.server.admin().clone();
    let probe_handles: Vec<FHandle> = world_a
        .handles
        .dirs
        .iter()
        .chain(&world_a.handles.files)
        .copied()
        .collect();
    final_checks(world_a, cfg, checks);
    if let Some(rss) = untraced_e2e
        .metrics
        .iter_mut()
        .find(|m| m.name == "peak_rss_mb")
    {
        rss.value = peak_rss_mb();
    }

    // World B, interposed: spans and counters over its own window.
    let tracer = Tracer::new(client_link());
    let (mut world_b, _) = timed_set_up(cfg, Some(&tracer), 1)?;
    warm_up(&mut world_b, cfg, window, checks)?;
    let before = Counters::read(&world_b.server);
    let traced = run_phase(&mut world_b, cfg, window, Some(&tracer), true)?;
    checks.absorb(&traced.rec);
    let after = Counters::read(&world_b.server);
    let high_water = world_b
        .conns
        .iter()
        .filter_map(|c| world_b.server.engine().queue_high_water(c.token))
        .max();
    let submit_ms = median(&world_b.submit_ms);
    let backend = backend_for(
        cfg.kind,
        &cfg.scale,
        &scratch_dir(&format!("{}-replay", cfg.kind.name())),
    );
    let layout = world_b.layout.clone();
    final_checks(world_b, cfg, checks);
    let traced_e2e = end_to_end(std::slice::from_ref(&traced), setup_s, 0.0);

    let trace_path = build_dir()
        .join("bench")
        .join(format!("trace-{}.json", cfg.kind.name()));
    match tracer.write_json(&trace_path, cfg.kind.name()) {
        Ok(()) => report.trace_file = Some(trace_path.display().to_string()),
        Err(e) => checks.check(Err(format!("span file: {e}"))),
    }

    // Spans. N is the operations that have an operation span; a session
    // has none (it is many calls), so its N is the sessions completed.
    let micros = |l: Layer| tracer.total(l).as_secs_f64() * 1e6;
    let n = if cfg.kind == WorkloadKind::SessionSetup {
        traced.rec.attempted as f64
    } else {
        tracer.count(Layer::Op) as f64
    };
    let per_op = |total_us: f64| ratio(total_us, n);
    let client_stub = micros(Layer::ClientCall) - micros(Layer::ClientChan);
    let client_chan = micros(Layer::ClientChan) - micros(Layer::ClientNet);
    let server_chan = micros(Layer::ServerChan) - micros(Layer::ServerNet);
    let service = micros(Layer::Service);
    put("discfs.service_us_per_op", per_op(service));
    // A session's handshake drives the network directly, not through a
    // channel, so its channel spans do not enclose its network spans.
    if cfg.kind != WorkloadKind::SessionSetup {
        put("ipsec.client_chan_us_per_op", per_op(client_chan));
        put("ipsec.server_chan_us_per_op", per_op(server_chan));
        put("nfsv2.client_stub_us_per_op", per_op(client_stub));
        put(
            "nfsv2.engine.residual_us_per_op",
            per_op(micros(Layer::Op) - client_stub - client_chan - server_chan - service),
        );
    }
    let (client_msgs, client_bytes) = tracer.sent_by(Side::Client);
    let (server_msgs, server_bytes) = tracer.sent_by(Side::Server);
    put(
        "netsim.msgs_per_op",
        per_op((client_msgs + server_msgs) as f64),
    );
    put(
        "netsim.wire_bytes_per_op",
        per_op((client_bytes + server_bytes) as f64),
    );
    let wire_virtual_us = tracer.wire_virtual().as_secs_f64() * 1e6;
    put("netsim.virtual_us_per_op", per_op(wire_virtual_us));
    let store_busy =
        micros(Layer::StoreRead) + micros(Layer::StoreWrite) + micros(Layer::StoreFlush);
    put("store.busy_us_per_op", per_op(store_busy));
    let per_call = |l: Layer, scale: f64| ratio(micros(l) / scale, tracer.count(l) as f64);
    put("store.read_us_per_call", per_call(Layer::StoreRead, 1.0));
    put("store.write_us_per_call", per_call(Layer::StoreWrite, 1.0));
    put("store.flush_ms_per_call", per_call(Layer::StoreFlush, 1e3));
    put("ffs.sync_ms", per_call(Layer::FfsSync, 1e3));
    put("discfs.submit_credential_ms", submit_ms);

    // Counters the layers export, over the traced window.
    let ops = (traced.rec.attempted.max(1)) as f64;
    let d = |a: u64, b: u64| (a - b) as f64;
    put(
        "nfsv2.engine.requests_per_batch",
        ratio(
            d(after.served, before.served),
            d(after.batches, before.batches),
        ),
    );
    put("nfsv2.engine.pauses", Some(d(after.pauses, before.pauses)));
    put(
        "nfsv2.engine.queue_high_water",
        high_water.map(|h| h as f64),
    );
    let decisions = d(after.decisions, before.decisions);
    let hits = d(after.hits, before.hits);
    let misses = d(after.misses, before.misses);
    put("discfs.policy.hit_frac", ratio(hits, hits + misses));
    put(
        "discfs.policy.evictions_per_kop",
        Some(d(after.evictions, before.evictions) * 1e3 / ops),
    );
    put(
        "discfs.auth.exclusive_per_decision",
        ratio(d(after.exclusive, before.exclusive), decisions),
    );
    let (s0, s1) = (&before.store, &after.store);
    put("ffs.store_reads_per_op", Some(d(s1.reads, s0.reads) / ops));
    put(
        "ffs.store_writes_per_op",
        Some(d(s1.writes, s0.writes) / ops),
    );
    // Virtual time nobody else accounts for is the disk model's (and,
    // under replication, the node links').
    let policy_virtual_us = hits * 2.0 + misses * 200.0;
    if cfg.kind != WorkloadKind::StackMixed {
        put(
            "store.sim.virtual_us_per_op",
            Some(
                (traced.virtual_time.as_secs_f64() * 1e6 - wire_virtual_us - policy_virtual_us)
                    .max(0.0)
                    / ops,
            ),
        );
    }
    match cfg.kind {
        WorkloadKind::StackMixed => {
            let cache_hits = d(s1.cache_hits, s0.cache_hits);
            put(
                "store.cached.hit_frac",
                ratio(cache_hits, cache_hits + d(s1.cache_misses, s0.cache_misses)),
            );
            put(
                "store.cached.readahead_blocks_per_kop",
                Some(d(s1.readahead_blocks, s0.readahead_blocks) * 1e3 / ops),
            );
            put(
                "store.cached.writeback_blocks_per_kop",
                Some(d(s1.writeback_blocks, s0.writeback_blocks) * 1e3 / ops),
            );
            put(
                "store.sharded.worker_jobs_per_op",
                Some(d(s1.worker_jobs, s0.worker_jobs) / ops),
            );
            put(
                "store.file.journal_batches_per_kwrite",
                ratio(
                    d(s1.journal_batches, s0.journal_batches) * 1e3,
                    d(s1.writes, s0.writes),
                ),
            );
        }
        WorkloadKind::ReplMixed => {
            put(
                "store.remote.rpc_calls_per_op",
                Some(d(s1.rpc_calls, s0.rpc_calls) / ops),
            );
            put(
                "store.remote.wire_bytes_per_user_byte",
                Some(d(s1.bytes_on_wire, s0.bytes_on_wire) / (ops * BLOCK as f64)),
            );
            put("store.remote.retries", Some(d(s1.retries, s0.retries)));
            put(
                "store.replicated.replica_reads",
                Some(d(s1.replica_reads, s0.replica_reads)),
            );
            put(
                "store.replicated.read_repairs",
                Some(d(s1.read_repairs, s0.read_repairs)),
            );
        }
        _ => {}
    }

    // The same operations on a bare Ffs over the same stack, one thread.
    if cfg.kind != WorkloadKind::SessionSetup {
        let mut replay = FfsReplay::start(&backend, &layout, cfg.seed)?;
        // On `stack_mixed` the overwriter's stream: the one that syncs.
        let mut source = Load::new(cfg, &layout, cfg.kind == WorkloadKind::StackMixed);
        let ops_list: Vec<Op> = (0..cfg.scale.replay_ops)
            .map(|_| source.stream().next_step().op)
            .collect();
        let counted = ops_list.iter().filter(|op| **op != Op::Sync).count() as f64;
        let (total, in_store, _, _) = replay.replay(&layout, &ops_list)?;
        drop(replay);
        std::fs::remove_dir_all(scratch_dir(&format!("{}-replay", cfg.kind.name()))).ok();
        let ffs_op = total.as_secs_f64() * 1e6 / counted;
        put("ffs.op_us_per_op", Some(ffs_op));
        put(
            "ffs.self_us_per_op",
            Some((total - in_store.min(total)).as_secs_f64() * 1e6 / counted),
        );
        if cfg.kind != WorkloadKind::StackMixed {
            // With two connections the replayed stream is one of two,
            // so the service's mean is not comparable.
            put("discfs.self_us_per_op", per_op(service).map(|s| s - ffs_op));
        }
    }

    // The paper's comparison: the same first operations on CFS-NE.
    if let Some((discfs_virtual, discfs_wall)) = paper_discfs {
        let plain = PlainWorld::start()?;
        let nfs = plain.remote.client();
        let handles = create_tree(plain.remote.root(), &layout, &mut plain_make(nfs))?;
        let sync = || plain.fs().sync();
        let outcome = {
            let conn = Conn {
                nfs,
                root: plain.remote.root(),
                handles: &handles,
                layout: &layout,
                seed: cfg.seed,
                window: 8,
                sync: &sync,
                clock: &plain.clock,
                tracer: None,
                conn_id: 0,
            };
            run_list(&conn, &fill_ops(&layout))
                .and_then(|()| paper_pass(&Conn { window: 1, ..conn }, cfg, &layout))
        };
        plain.shutdown();
        let (plain_virtual, plain_wall) = outcome?;
        let virtual_ratio = discfs_virtual.as_secs_f64() / plain_virtual.as_secs_f64();
        put("paper.discfs_over_cfsne_virtual", Some(virtual_ratio));
        put(
            "paper.discfs_over_cfsne_wall",
            Some(discfs_wall.as_secs_f64() / plain_wall.as_secs_f64()),
        );
        checks.check(if (0.85..=1.15).contains(&virtual_ratio) {
            Ok(())
        } else {
            Err(format!(
                "paper.discfs_over_cfsne_virtual = {virtual_ratio:.4}, outside 0.85-1.15"
            ))
        });
    }

    // Probes, shaped by what the interposers saw.
    let plaintext = |bytes: u64, msgs: u64| (bytes / msgs.max(1)).saturating_sub(28) as usize;
    let shape = Shape {
        request_len: plaintext(client_bytes, client_msgs),
        reply_len: plaintext(server_bytes, server_msgs),
        credentials: owner_credentials,
        holder: owner,
        admin,
        server_key: SigningKey::from_seed(&[0x5E; 32]),
        handles: probe_handles,
    };
    for (name, value) in probes::run_all(cfg.kind, &shape) {
        put(name, Some(value));
    }

    if alloc_count::installed() {
        put(
            "alloc.count_per_op",
            Some((allocs.0 - allocs_before.0) as f64 / untraced_ops),
        );
        put(
            "alloc.bytes_per_op",
            Some((allocs.1 - allocs_before.1) as f64 / untraced_ops),
        );
    }
    put(
        "env.steal_frac",
        Some(traced_e2e.steal_frac.max(untraced_e2e.steal_frac)),
    );
    put("env.slices_kept", Some(traced_e2e.slices_kept as f64));
    // The traced window's own latency, so that the span sums above can
    // be set against it, and what the interposers cost.
    let of = |e: &EndToEnd, name: &str| e.metrics.iter().find(|m| m.name == name).map(|m| m.value);
    if cfg.kind != WorkloadKind::SessionSetup {
        put("trace.op_mean_us", per_op(micros(Layer::Op)));
    }
    put("trace.op_p50_us", of(&traced_e2e, "op_p50_us"));
    if let (Some(u), Some(t)) = (of(&untraced_e2e, "ops_per_s"), of(&traced_e2e, "ops_per_s")) {
        put("trace.overhead_frac", ratio(u - t, u));
    }

    // Report in table order.
    layer.sort_by_key(|m| {
        crate::report::PER_LAYER
            .iter()
            .position(|d| d.name == m.name)
    });
    report.per_layer = layer;
    report.end_to_end = untraced_e2e.metrics;
    report.slices_kept = traced_e2e.slices_kept.min(untraced_e2e.slices_kept);
    report.noisy = traced_e2e.noisy || untraced_e2e.noisy;
    report.ops_measured = traced.rec.ops_in_window();
    Ok(())
}
