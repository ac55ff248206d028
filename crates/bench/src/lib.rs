//! Benchmark harness: adapters, the world builder and experiment
//! runners behind the paper's evaluation (§6).
//!
//! The `reproduce` binary regenerates Figures 7-12 on virtual time and
//! exits 1 when one loses the paper's shape. `tests/golden.rs` runs
//! them at [`Scale::Quick`] and holds each virtual time to the
//! nanosecond against `src/bin/reproduce_quick.txt`. Every other
//! asserted figure is a `cargo test` next to the code it pins. Wall-clock costs of single
//! layers are not measured here: `discfs_bench --trace` reports them
//! under the names in `BENCHMARK.json`.
//!
//! Three systems are measured, exactly as in the paper:
//!
//! * **FFS** — the local filesystem (direct `ffs` calls, timed disk).
//! * **CFS-NE** — the baseline: CFS with encryption off, which is the
//!   plain NFS export [`FfsService`], served on simulated 100 Mbps
//!   Ethernet.
//! * **DisCFS** — the full system: IPsec channel, KeyNote checks with
//!   the 128-entry policy cache, same network and disk.
//!
//! The two networked systems differ by the service (`FfsService` /
//! `DiscfsService`) and the channel (`PlainChannel` /
//! IKE + ESP) and by nothing else: [`build_world`] serves both from an
//! [`Engine`] of the same sizing, over the same link and disk models,
//! and [`NfsBench`] drives both, so their ratio varies what the paper
//! varies.
//!
//! Every workload reports both **virtual time** (network + disk + policy
//! model on the shared [`SimClock`]) and **wall time** (real compute of
//! the whole in-process stack). Figure shapes are judged on virtual
//! time; wall time cross-checks that the real code paths behave the
//! same way.

#![forbid(unsafe_code)]

use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bonnie::{BenchFile, BenchFs};
use discfs::{DiscfsClient, Testbed};
use discfs_crypto::ed25519::SigningKey;
use ffs::{Ffs, FsConfig, Ino, SetAttr};
use ipsec::PlainChannel;
use netsim::{Link, LinkConfig, SimClock};
use nfsv2::{
    ClientError, Engine, EngineConfig, FHandle, Fattr, FfsService, NfsClient, NfsStat, RemoteFs,
    Sattr,
};

// ---------------------------------------------------------------------------
// FFS adapter (the "local file system" series).
// ---------------------------------------------------------------------------

/// Direct access to a local `ffs` volume.
pub struct FfsBench {
    fs: Arc<Ffs>,
}

impl FfsBench {
    /// Wraps a volume.
    pub fn new(fs: Arc<Ffs>) -> FfsBench {
        FfsBench { fs }
    }

    fn resolve_parent(&self, path: &str) -> (Ino, String) {
        let (parent, name) = split_parent(path);
        let dir = self.fs.resolve_path(parent).expect("parent path exists");
        (dir, name.to_string())
    }
}

/// An open file on the local volume.
pub struct FfsFile<'a> {
    fs: &'a Ffs,
    ino: Ino,
}

impl BenchFile for FfsFile<'_> {
    fn write_at(&mut self, offset: u64, data: &[u8]) {
        self.fs.write(self.ino, offset, data).expect("ffs write");
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Vec<u8> {
        self.fs.read(self.ino, offset, len).expect("ffs read")
    }
}

impl BenchFs for FfsBench {
    fn create<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let (dir, name) = self.resolve_parent(path);
        let ino = match self.fs.lookup(dir, &name) {
            Ok(ino) => {
                self.fs
                    .setattr(
                        ino,
                        SetAttr {
                            size: Some(0),
                            ..Default::default()
                        },
                    )
                    .expect("truncate");
                ino
            }
            Err(_) => self.fs.create(dir, &name, 0o644, 0, 0).expect("ffs create"),
        };
        Box::new(FfsFile { fs: &self.fs, ino })
    }

    fn open<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let ino = self.fs.resolve_path(path).expect("path exists");
        Box::new(FfsFile { fs: &self.fs, ino })
    }

    fn mkdir(&mut self, path: &str) {
        let (dir, name) = self.resolve_parent(path);
        self.fs.mkdir(dir, &name, 0o755, 0, 0).expect("ffs mkdir");
    }

    fn write_file(&mut self, path: &str, data: &[u8]) {
        let mut f = self.create(path);
        f.write_at(0, data);
    }

    fn read_file(&mut self, path: &str) -> Vec<u8> {
        let ino = self.fs.resolve_path(path).expect("path exists");
        let size = self.fs.getattr(ino).expect("getattr").size;
        self.fs.read(ino, 0, size as usize).expect("ffs read")
    }

    fn readdir(&mut self, path: &str) -> Vec<(String, bool)> {
        let ino = self.fs.resolve_path(path).expect("path exists");
        self.fs
            .readdir(ino)
            .expect("readdir")
            .into_iter()
            .filter(|e| e.name != "." && e.name != "..")
            .map(|e| {
                let is_dir = self
                    .fs
                    .getattr(e.ino)
                    .map(|a| a.kind == ffs::FileKind::Directory)
                    .unwrap_or(false);
                (e.name, is_dir)
            })
            .collect()
    }

    fn remove(&mut self, path: &str) {
        let (dir, name) = self.resolve_parent(path);
        self.fs.unlink(dir, &name).expect("unlink");
    }

    fn sync(&mut self) {
        self.fs.sync().expect("ffs sync");
    }
}

// ---------------------------------------------------------------------------
// NFS adapter (the CFS-NE and DisCFS series).
// ---------------------------------------------------------------------------

/// What an [`NfsBench`] is mounted through. The two differ in how a
/// file or directory is made and in nothing else.
enum Mount {
    /// Plain NFS (CFS-NE): CREATE and MKDIR.
    Plain(RemoteFs),
    /// DisCFS: the credential-returning side procedures, so the session
    /// holds the rights to touch what it created.
    Discfs(DiscfsClient),
}

/// A mounted remote filesystem driven as a benchmark filesystem.
pub struct NfsBench {
    mount: Mount,
}

impl NfsBench {
    /// Wraps a plain NFS mount.
    pub fn plain(remote: RemoteFs) -> NfsBench {
        NfsBench {
            mount: Mount::Plain(remote),
        }
    }

    /// Wraps a connected DisCFS client.
    pub fn discfs(client: DiscfsClient) -> NfsBench {
        NfsBench {
            mount: Mount::Discfs(client),
        }
    }

    fn remote(&self) -> &RemoteFs {
        match &self.mount {
            Mount::Plain(remote) => remote,
            Mount::Discfs(client) => client.remote(),
        }
    }

    fn resolve(&self, path: &str) -> (FHandle, Fattr) {
        self.remote()
            .resolve(path)
            .unwrap_or_else(|e| panic!("lookup {path}: {e}"))
    }

    /// The handle of `path`'s parent directory, and its last component.
    fn resolve_parent<'p>(&self, path: &'p str) -> (FHandle, &'p str) {
        let (parent, name) = split_parent(path);
        (self.resolve(parent).0, name)
    }

    fn open_handle(&self, fh: FHandle) -> Box<dyn BenchFile + '_> {
        Box::new(NfsFile {
            client: self.remote().client(),
            fh,
        })
    }

    /// Makes the file or directory `name` in `dir`.
    fn make(&mut self, dir: &FHandle, name: &str, is_dir: bool) -> FHandle {
        let mode = if is_dir { 0o755 } else { 0o644 };
        let made = match &mut self.mount {
            Mount::Plain(remote) => {
                let (client, sattr) = (remote.client(), Sattr::with_mode(mode));
                let made = if is_dir {
                    client.mkdir(dir, name, &sattr)
                } else {
                    client.create(dir, name, &sattr)
                };
                made.map(|(fh, _)| fh).map_err(|e| e.to_string())
            }
            Mount::Discfs(client) => {
                let made = if is_dir {
                    client.mkdir_with_credential(dir, name, mode)
                } else {
                    client.create_with_credential(dir, name, mode)
                };
                made.map(|res| res.fh).map_err(|e| e.to_string())
            }
        };
        made.unwrap_or_else(|e| panic!("make {name}: {e}"))
    }
}

/// `path` as (parent path, last component).
fn split_parent(path: &str) -> (&str, &str) {
    let trimmed = path.trim_matches('/');
    trimmed.rsplit_once('/').unwrap_or(("", trimmed))
}

/// An open remote file.
pub struct NfsFile<'a> {
    client: &'a NfsClient,
    fh: FHandle,
}

impl BenchFile for NfsFile<'_> {
    fn write_at(&mut self, offset: u64, data: &[u8]) {
        self.client
            .write_all(&self.fh, offset, data)
            .expect("nfs write");
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Vec<u8> {
        self.client
            .read_all(&self.fh, offset, len)
            .expect("nfs read")
    }
}

impl BenchFs for NfsBench {
    fn create<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let (dir, name) = self.resolve_parent(path);
        let fh = match self.remote().client().lookup(&dir, name) {
            Ok((fh, _)) => {
                let mut truncate = Sattr::unchanged();
                truncate.size = 0;
                self.remote()
                    .client()
                    .setattr(&fh, &truncate)
                    .unwrap_or_else(|e| panic!("truncate {path}: {e}"));
                fh
            }
            Err(ClientError::Status(NfsStat::NoEnt)) => self.make(&dir, name, false),
            Err(e) => panic!("create {path}: lookup failed: {e}"),
        };
        self.open_handle(fh)
    }

    fn open<'a>(&'a mut self, path: &str) -> Box<dyn BenchFile + 'a> {
        let (fh, _) = self.resolve(path);
        self.open_handle(fh)
    }

    fn mkdir(&mut self, path: &str) {
        let (dir, name) = self.resolve_parent(path);
        self.make(&dir, name, true);
    }

    fn write_file(&mut self, path: &str, data: &[u8]) {
        let mut f = self.create(path);
        f.write_at(0, data);
    }

    fn read_file(&mut self, path: &str) -> Vec<u8> {
        self.remote()
            .read_file(path)
            .unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    fn readdir(&mut self, path: &str) -> Vec<(String, bool)> {
        let (fh, _) = self.resolve(path);
        self.remote()
            .client()
            .readdir_all(&fh)
            .unwrap_or_else(|e| panic!("readdir {path}: {e}"))
            .into_iter()
            .filter(|e| e.name != "." && e.name != "..")
            .map(|e| {
                let full = format!("{}/{}", path.trim_matches('/'), e.name);
                let is_dir = self
                    .remote()
                    .resolve(&full)
                    .map(|(_, a)| a.ftype == nfsv2::FType::Directory)
                    .unwrap_or(false);
                (e.name, is_dir)
            })
            .collect()
    }

    fn remove(&mut self, path: &str) {
        let (dir, name) = self.resolve_parent(path);
        self.remote()
            .client()
            .remove(&dir, name)
            .unwrap_or_else(|e| panic!("remove {path}: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Worlds.
// ---------------------------------------------------------------------------

/// Which system a world simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Local filesystem.
    Ffs,
    /// CFS with encryption off, over plain remote NFS.
    CfsNe,
    /// The full DisCFS stack.
    Discfs,
}

impl SystemKind {
    /// All three systems, in the paper's presentation order.
    pub const ALL: [SystemKind; 3] = [SystemKind::Ffs, SystemKind::CfsNe, SystemKind::Discfs];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Ffs => "FFS",
            SystemKind::CfsNe => "CFS-NE",
            SystemKind::Discfs => "DisCFS",
        }
    }
}

/// A running world: a filesystem under benchmark plus its clock.
pub struct World {
    /// The filesystem interface workloads run against.
    pub fs: Box<dyn BenchFs>,
    /// The shared virtual clock.
    pub clock: SimClock,
    /// Kept alive: what serves the mount (CFS-NE's engine, DisCFS's
    /// testbed). Dropped after `fs`, so the client goes first.
    server: Option<Box<dyn Any>>,
}

impl World {
    /// Empties DisCFS's policy cache; FFS and CFS-NE have none.
    pub fn clear_policy_cache(&self) {
        let bed = self
            .server
            .as_ref()
            .and_then(|s| s.downcast_ref::<Testbed>());
        if let Some(bed) = bed {
            bed.service().clear_policy_cache();
        }
    }
}

/// Builds a world for `kind` with the given volume geometry and cache
/// size (cache size only affects DisCFS), on the paper's timing-model
/// disk. The two networked worlds run the same [`Engine`] with the same
/// sizing over the same link and disk models and are driven through the
/// same [`NfsBench`]; they differ by the service behind the engine and
/// the channel in front of it.
pub fn build_world(kind: SystemKind, fs_config: FsConfig, cache_size: usize) -> World {
    match kind {
        SystemKind::Ffs => {
            let clock = SimClock::new();
            let fs = Arc::new(Ffs::format_timed(&clock, fs_config));
            World {
                fs: Box::new(FfsBench::new(fs)),
                clock,
                server: None,
            }
        }
        SystemKind::CfsNe => {
            let clock = SimClock::new();
            let fs = Arc::new(Ffs::format_timed(&clock, fs_config));
            let service = Arc::new(FfsService::new(fs, 1));
            // A plain channel runs no handshake: the key signs nothing.
            let identity = SigningKey::from_seed(&[0x5E; 32]);
            let engine = Engine::start(service, identity, EngineConfig::default());
            let (client_end, server_end) = Link::pair(&clock, LinkConfig::ethernet_100mbps());
            engine.accept_channel(Box::new(PlainChannel::new(server_end)));
            let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
            let remote = RemoteFs::mount(client, "/").expect("mount CFS-NE");
            World {
                fs: Box::new(NfsBench::plain(remote)),
                clock,
                server: Some(Box::new(engine)),
            }
        }
        SystemKind::Discfs => {
            let bed = Testbed::with_config(fs_config, LinkConfig::ethernet_100mbps(), cache_size);
            let clock = bed.clock().clone();
            let user = SigningKey::from_seed(&[0xB0; 32]);
            let client = bed.connect_owner(&user).expect("connect DisCFS");
            World {
                fs: Box::new(NfsBench::discfs(client)),
                clock,
                server: Some(Box::new(bed)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Experiment runner.
// ---------------------------------------------------------------------------

/// One measured result.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Virtual (modeled) elapsed time.
    pub virtual_time: Duration,
    /// Real elapsed compute time.
    pub wall_time: Duration,
    /// Bytes moved by the workload.
    pub bytes: u64,
}

impl Measurement {
    /// Throughput in KB/s of virtual time (the paper's K/sec axis).
    pub fn kb_per_sec_virtual(&self) -> f64 {
        if self.virtual_time.is_zero() {
            return f64::INFINITY;
        }
        (self.bytes as f64 / 1024.0) / self.virtual_time.as_secs_f64()
    }
}

/// The Bonnie phases as figure identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 7: sequential output, per char.
    F7OutChar,
    /// Figure 8: sequential output, per block.
    F8OutBlock,
    /// Figure 9: sequential rewrite.
    F9Rewrite,
    /// Figure 10: sequential input, per char.
    F10InChar,
    /// Figure 11: sequential input, per block.
    F11InBlock,
}

impl Figure {
    /// All Bonnie figures in order.
    pub const ALL: [Figure; 5] = [
        Figure::F7OutChar,
        Figure::F8OutBlock,
        Figure::F9Rewrite,
        Figure::F10InChar,
        Figure::F11InBlock,
    ];

    /// The paper's caption.
    pub fn caption(self) -> &'static str {
        match self {
            Figure::F7OutChar => "Figure 7: Bonnie Sequential Output (Char)",
            Figure::F8OutBlock => "Figure 8: Bonnie Sequential Output (Block)",
            Figure::F9Rewrite => "Figure 9: Bonnie Sequential Output (Rewrite)",
            Figure::F10InChar => "Figure 10: Bonnie Sequential Input (Char)",
            Figure::F11InBlock => "Figure 11: Bonnie Sequential Input (Block)",
        }
    }
}

/// The size of the figures' workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled down to seconds of runtime, with the paper's shapes: a
    /// 16 MB Bonnie file and a 96-file source tree. The golden's scale.
    Quick,
    /// The paper's parameters: a 100 MB file, a kernel-sized tree.
    Paper,
}

impl Scale {
    /// The Bonnie file size of Figures 7-11.
    pub fn bonnie_file_size(self) -> u64 {
        match self {
            Scale::Quick => 16 * 1024 * 1024,
            Scale::Paper => 100 * 1024 * 1024,
        }
    }

    /// The source tree Figure 12 searches.
    pub fn search_tree(self) -> bonnie::TreeSpec {
        match self {
            Scale::Quick => bonnie::TreeSpec {
                dirs: 8,
                files_per_dir: 12,
                avg_file_size: 4 * 1024,
                seed: 0x0B5D,
            },
            Scale::Paper => bonnie::TreeSpec::kernel_like(),
        }
    }
}

/// Whether one figure's three measurements have the paper's shape: FFS
/// fastest, and DisCFS within 15 % of CFS-NE ("virtually identical").
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// FFS beat both networked systems.
    pub ffs_fastest: bool,
    /// DisCFS's virtual time over CFS-NE's.
    pub ratio: f64,
}

impl Shape {
    /// The shape of `results`, one measurement per [`SystemKind`].
    ///
    /// # Panics
    ///
    /// When a system is missing from `results`.
    pub fn of(results: &[(SystemKind, Measurement)]) -> Shape {
        let time = |kind: SystemKind| {
            results
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, m)| m.virtual_time)
                .expect("all systems measured")
        };
        let (ffs, cfs, dis) = (
            time(SystemKind::Ffs),
            time(SystemKind::CfsNe),
            time(SystemKind::Discfs),
        );
        Shape {
            ffs_fastest: ffs < cfs && ffs < dis,
            ratio: dis.as_secs_f64() / cfs.as_secs_f64(),
        }
    }

    /// DisCFS within 15 % of CFS-NE.
    pub fn close(&self) -> bool {
        (0.85..1.15).contains(&self.ratio)
    }
}

/// Runs one Bonnie figure against one system (timing-model disk).
pub fn run_bonnie_figure(
    kind: SystemKind,
    figure: Figure,
    file_size: u64,
    fs_config: FsConfig,
) -> Measurement {
    let mut world = build_world(kind, fs_config, 128);
    // Input and rewrite phases need a populated file (not measured).
    let needs_prefill = matches!(
        figure,
        Figure::F9Rewrite | Figure::F10InChar | Figure::F11InBlock
    );
    if needs_prefill {
        let mut f = world.fs.create("bonnie.dat");
        bonnie::seq_output_block(&mut *f, file_size);
    }

    let mut file = if needs_prefill {
        world.fs.open("bonnie.dat")
    } else {
        world.fs.create("bonnie.dat")
    };

    world.clock.reset();
    let wall_start = Instant::now();
    let result = match figure {
        Figure::F7OutChar => bonnie::seq_output_char(&mut *file, file_size),
        Figure::F8OutBlock => bonnie::seq_output_block(&mut *file, file_size),
        Figure::F9Rewrite => bonnie::seq_rewrite(&mut *file, file_size),
        Figure::F10InChar => bonnie::seq_input_char(&mut *file, file_size).0,
        Figure::F11InBlock => bonnie::seq_input_block(&mut *file, file_size).0,
    };
    Measurement {
        virtual_time: world.clock.now(),
        wall_time: wall_start.elapsed(),
        bytes: result.bytes,
    }
}

/// Runs the Figure 12 search workload; returns the totals and timing.
pub fn run_search(
    kind: SystemKind,
    spec: &bonnie::TreeSpec,
    fs_config: FsConfig,
    cache_size: usize,
) -> (bonnie::SearchTotals, Measurement) {
    let mut world = build_world(kind, fs_config, cache_size);
    world.fs.mkdir("src");
    bonnie::generate_tree(&mut *world.fs, "src", spec);
    // The search starts with a cold policy cache, as Figure 12 measures
    // it: every handle's first decision is a full compliance check, and
    // the 128 entries absorb the repeats (§5's cache of "requested
    // operations and policy results"). The tree build would otherwise
    // leave its last decisions warm.
    world.clear_policy_cache();

    world.clock.reset();
    let wall_start = Instant::now();
    let totals = bonnie::search(&mut *world.fs, "src");
    let measurement = Measurement {
        virtual_time: world.clock.now(),
        wall_time: wall_start.elapsed(),
        bytes: totals.bytes,
    };
    (totals, measurement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonnie::TreeSpec;

    const SMALL: u64 = 256 * 1024;

    #[test]
    fn all_systems_run_block_output() {
        for kind in SystemKind::ALL {
            let m = run_bonnie_figure(kind, Figure::F8OutBlock, SMALL, FsConfig::small());
            assert_eq!(m.bytes, SMALL, "{kind:?}");
            assert!(m.virtual_time > Duration::ZERO, "{kind:?} charges time");
        }
    }

    #[test]
    fn ffs_is_fastest_and_baselines_close() {
        // The paper's headline shape, on every Bonnie figure.
        for figure in Figure::ALL {
            let results = SystemKind::ALL.map(|kind| {
                (
                    kind,
                    run_bonnie_figure(kind, figure, SMALL, FsConfig::small()),
                )
            });
            let shape = Shape::of(&results);
            assert!(
                shape.ffs_fastest,
                "{figure:?}: FFS must be fastest: {results:?}"
            );
            assert!(
                shape.close(),
                "{figure:?}: DisCFS/CFS-NE ratio {:.3} out of band",
                shape.ratio
            );
        }
    }

    #[test]
    fn search_totals_identical_across_systems() {
        let spec = TreeSpec {
            dirs: 2,
            files_per_dir: 4,
            avg_file_size: 512,
            seed: 42,
        };
        let (t_ffs, _) = run_search(SystemKind::Ffs, &spec, FsConfig::small(), 128);
        let (t_cfs, _) = run_search(SystemKind::CfsNe, &spec, FsConfig::small(), 128);
        let (t_dis, _) = run_search(SystemKind::Discfs, &spec, FsConfig::small(), 128);
        assert_eq!(t_ffs, t_cfs);
        assert_eq!(t_ffs, t_dis);
        assert_eq!(t_ffs.files, 8);
    }

    #[test]
    fn read_phases_preserve_data() {
        let mut world = build_world(SystemKind::Discfs, FsConfig::small(), 128);
        {
            let mut f = world.fs.create("bonnie.dat");
            bonnie::seq_output_char(&mut *f, 64 * 1024);
        }
        let mut f = world.fs.open("bonnie.dat");
        let (res, checksum) = bonnie::seq_input_char(&mut *f, 64 * 1024);
        assert_eq!(res.bytes, 64 * 1024);
        assert!(checksum > 0);
    }
}
