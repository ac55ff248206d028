//! The systems a workload can run on, each assembled from public APIs:
//! a DisCFS server as `Testbed` users get it ([`Server`], untraced), the
//! same server assembled by hand around the interposers of
//! [`crate::trace`] (traced), the paper's CFS-NE baseline
//! ([`PlainWorld`]) and a bare `Ffs` for single-thread replays
//! ([`FfsReplay`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use discfs::{
    CredentialIssuer, DiscfsClient, DiscfsConfig, DiscfsService, Perm, PolicyCharge, Testbed,
};
use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use discfs_crypto::rng::DetRng;
use ffs::{Ffs, FsConfig, Ino, SetAttr};
use ipsec::{ike, PlainChannel};
use netsim::{Link, LinkConfig, SimClock};
use nfsv2::{Engine, EngineConfig, FHandle, NfsClient, RemoteFs, Sattr};
use store::{BlockStore, RemoteOptions, StoreBackend, StoreStats};

use crate::gen::{fill_block, BlockTag};
use crate::plan::{Layout, Op, Scale, WorkloadKind, BLOCK};
use crate::trace::{
    Layer, Side, TracedChannel, TracedService, TracedStore, TracedTransport, Tracer,
};

/// Policy-cache entries: what `Testbed::new()` gives.
pub const POLICY_CACHE: usize = 128;

/// The client link: what `Testbed::new()` gives.
pub fn client_link() -> LinkConfig {
    LinkConfig::ethernet_100mbps()
}

/// The volume geometry: what `Testbed::new()` gives (256 MiB).
pub fn fs_config() -> FsConfig {
    FsConfig::standard()
}

/// The storage stack `kind` runs on. Persistent layers live under
/// `scratch`, a directory inside the checkout that the run removes.
pub fn backend_for(kind: WorkloadKind, scale: &Scale, scratch: &Path) -> StoreBackend {
    match kind {
        WorkloadKind::StackMixed => StoreBackend::CachedReadahead {
            capacity: scale.stack_cache_blocks,
            window: 8,
            inner: Box::new(StoreBackend::Sharded {
                shards: 4,
                workers: true,
                inner: Box::new(StoreBackend::EncryptedJournal {
                    dir: scratch.to_path_buf(),
                    key: [0x5C; 32],
                }),
            }),
        },
        WorkloadKind::ReplMixed => StoreBackend::Replicated {
            nodes: 3,
            replicas: 2,
            spares: 0,
            ethernet: true,
            // Long enough that a node thread losing its CPU for a
            // while is not taken for a lost frame: a retry here would
            // be the host's doing, and `store.remote.retries` must
            // read 0.
            opts: RemoteOptions {
                timeout: Duration::from_secs(2),
                deadline: Duration::from_secs(10),
                ..RemoteOptions::default()
            },
            inner: Box::new(StoreBackend::SimTimed),
        },
        _ => StoreBackend::SimTimed,
    }
}

/// A DisCFS server hand-assembled around the interposers; mirrors what
/// `Testbed` builds.
struct TracedServer {
    clock: SimClock,
    store: Arc<dyn BlockStore>,
    service: Arc<DiscfsService>,
    engine: Engine,
    admin: SigningKey,
    server_key: SigningKey,
    tracer: Arc<Tracer>,
    connections: AtomicU64,
}

enum ServerKind {
    Bed(Box<Testbed>),
    Traced(Box<TracedServer>),
}

/// A running DisCFS server and the network it lives on.
pub struct Server {
    kind: ServerKind,
    backend: StoreBackend,
}

/// The keys `Testbed` uses, so a traced server accepts the same
/// credentials and clients pin the same identity.
const ADMIN_SEED: [u8; 32] = [0xAD; 32];
const SERVER_SEED: [u8; 32] = [0x5E; 32];

impl Server {
    /// Starts a server on `backend`. With a tracer the store, the
    /// service and (per connection) both channel ends are interposed;
    /// without one this is a plain `Testbed`.
    pub fn start(backend: &StoreBackend, tracer: Option<&Arc<Tracer>>) -> Server {
        let kind =
            match tracer {
                None if backend.is_persistent() => ServerKind::Bed(Box::new(
                    Testbed::with_backend(fs_config(), client_link(), POLICY_CACHE, backend),
                )),
                // An in-memory stack must outlive a reboot to have anything
                // to remount, so the testbed is handed the built store.
                None => {
                    let clock = SimClock::new();
                    let store = backend.build(&clock, fs_config().total_blocks);
                    ServerKind::Bed(Box::new(Testbed::with_store(
                        fs_config(),
                        client_link(),
                        POLICY_CACHE,
                        &clock,
                        store,
                    )))
                }
                Some(tracer) => {
                    let clock = SimClock::new();
                    let store: Arc<dyn BlockStore> = Arc::new(TracedStore::new(
                        backend.build(&clock, fs_config().total_blocks),
                        tracer,
                    ));
                    ServerKind::Traced(Box::new(TracedServer::assemble(clock, store, tracer)))
                }
            };
        Server {
            kind,
            backend: backend.clone(),
        }
    }

    /// Connects `identity`: IKE, then mount. Returns the client and the
    /// engine's token for the connection.
    ///
    /// # Errors
    ///
    /// A failed handshake or mount, as text.
    pub fn connect(&self, identity: &SigningKey) -> Result<(DiscfsClient, u64), String> {
        match &self.kind {
            ServerKind::Bed(bed) => bed.connect_tracked(identity).map_err(|e| e.to_string()),
            ServerKind::Traced(t) => t.connect(identity),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        match &self.kind {
            ServerKind::Bed(bed) => bed.clock(),
            ServerKind::Traced(t) => &t.clock,
        }
    }

    /// The server volume.
    pub fn fs(&self) -> &Arc<Ffs> {
        self.service().storage().fs()
    }

    /// The DisCFS service (policy cache and authorization counters).
    pub fn service(&self) -> &Arc<DiscfsService> {
        match &self.kind {
            ServerKind::Bed(bed) => bed.service(),
            ServerKind::Traced(t) => &t.service,
        }
    }

    /// The request engine (its counters).
    pub fn engine(&self) -> &Engine {
        match &self.kind {
            ServerKind::Bed(bed) => bed.engine(),
            ServerKind::Traced(t) => &t.engine,
        }
    }

    /// The administrator key, root of the trust graph.
    pub fn admin(&self) -> &SigningKey {
        match &self.kind {
            ServerKind::Bed(bed) => bed.admin(),
            ServerKind::Traced(t) => &t.admin,
        }
    }

    /// Counters of the whole store stack.
    pub fn store_stats(&self) -> StoreStats {
        self.fs().disk().stats()
    }

    /// Syncs the server volume (`Testbed::sync`).
    ///
    /// # Errors
    ///
    /// I/O failure of the backing store.
    pub fn sync(&self) -> std::io::Result<()> {
        let start = match &self.kind {
            ServerKind::Bed(_) => None,
            ServerKind::Traced(t) => Some((&t.tracer, t.tracer.start())),
        };
        let result = self.fs().sync();
        if let Some((tracer, start)) = start {
            tracer.finish(start, Layer::FfsSync, 0, 0);
        }
        result
    }

    /// Reboots the server (`Testbed::reboot`): quiesce, sync, tear
    /// down, mount again. A persistent stack is rebuilt from its files;
    /// an in-memory one is remounted from the same store object.
    pub fn reboot(self) -> Server {
        let Server { kind, backend } = self;
        let kind = match kind {
            ServerKind::Bed(bed) => ServerKind::Bed(Box::new(bed.reboot())),
            ServerKind::Traced(t) => {
                t.engine.shutdown();
                t.service
                    .storage()
                    .fs()
                    .sync()
                    .expect("sync volume before reboot");
                let TracedServer {
                    clock,
                    store,
                    service,
                    engine,
                    tracer,
                    ..
                } = *t;
                drop(engine);
                drop(service);
                let store = if backend.is_persistent() {
                    drop(store);
                    Arc::new(TracedStore::new(
                        backend.build(&clock, fs_config().total_blocks),
                        &tracer,
                    ))
                } else {
                    store
                };
                ServerKind::Traced(Box::new(TracedServer::assemble(clock, store, &tracer)))
            }
        };
        Server { kind, backend }
    }
}

impl TracedServer {
    fn assemble(clock: SimClock, store: Arc<dyn BlockStore>, tracer: &Arc<Tracer>) -> TracedServer {
        let fs = Arc::new(
            Ffs::open_or_format(Arc::clone(&store), fs_config())
                .expect("mount or format the server volume"),
        );
        let admin = SigningKey::from_seed(&ADMIN_SEED);
        let server_key = SigningKey::from_seed(&SERVER_SEED);
        let mut config = DiscfsConfig::standard(admin.public(), server_key.clone());
        config.cache_size = POLICY_CACHE;
        let service = Arc::new(DiscfsService::new(fs, config));
        service.set_policy_charge(PolicyCharge {
            clock: clock.clone(),
            cache_hit: Duration::from_micros(2),
            cache_miss: Duration::from_micros(200),
        });
        let engine = Engine::start(
            Arc::new(TracedService::new(Arc::clone(&service), tracer)),
            server_key.clone(),
            EngineConfig::default(),
        );
        TracedServer {
            clock,
            store,
            service,
            engine,
            admin,
            server_key,
            tracer: Arc::clone(tracer),
            connections: AtomicU64::new(1),
        }
    }

    fn connect(&self, identity: &SigningKey) -> Result<(DiscfsClient, u64), String> {
        let conn = self.connections.fetch_add(1, Ordering::Relaxed);
        let (client_end, server_end) = Link::pair(&self.clock, client_link());
        let client_end = TracedTransport::new(client_end, &self.tracer, Side::Client, conn as u32);
        let server_end = TracedTransport::new(server_end, &self.tracer, Side::Server, conn as u32);
        // The engine only runs the responder handshake itself on a bare
        // endpoint, so an interposed link is answered from a helper
        // thread and the finished channel handed over.
        let server_key = self.server_key.clone();
        let seed = EngineConfig::default().handshake_seed.wrapping_add(conn);
        let responder = std::thread::spawn(move || {
            ike::respond(server_end, &server_key, &mut DetRng::new(seed))
        });
        let mut rng = DetRng::new(0xC11E_0000 + conn);
        let initiated = ike::initiate(
            client_end,
            identity,
            Some(&self.server_key.public()),
            &mut rng,
        );
        let responded = responder
            .join()
            .map_err(|_| "responder thread panicked".to_string())?;
        let client_chan = initiated.map_err(|e| format!("IKE initiator: {e}"))?;
        let server_chan = responded.map_err(|e| format!("IKE responder: {e}"))?;
        let token = self.engine.accept_channel(Box::new(TracedChannel::new(
            server_chan,
            &self.tracer,
            Side::Server,
            conn as u32,
        )));
        let client = DiscfsClient::attach_over(
            Box::new(TracedChannel::new(
                client_chan,
                &self.tracer,
                Side::Client,
                conn as u32,
            )),
            identity.public(),
            "/",
        )
        .map_err(|e| e.to_string())?;
        Ok((client, token))
    }
}

/// The administrator's grant of the export root to `holder`, as the
/// paper's measurement user owning the test directory.
pub fn root_grant(admin: &SigningKey, holder: &VerifyingKey) -> String {
    CredentialIssuer::new(admin)
        .holder(holder)
        .grant_handle_string("1.1", Perm::RWX)
        .comment("benchmark root grant")
        .issue()
}

/// How a system brings a file or directory into being:
/// `(parent, name, is a directory)` to its handle.
pub type Make<'a> = dyn FnMut(&FHandle, &str, bool) -> Result<FHandle, String> + 'a;

/// DisCFS creates through the credential-returning procedures, so the
/// creator's session holds the rights to what it made.
pub fn discfs_make(
    client: &mut DiscfsClient,
) -> impl FnMut(&FHandle, &str, bool) -> Result<FHandle, String> + '_ {
    move |dir, name, is_dir| {
        if is_dir {
            client.mkdir_with_credential(dir, name, 0o755)
        } else {
            client.create_with_credential(dir, name, 0o644)
        }
        .map(|res| res.fh)
        .map_err(|e| format!("create {name}: {e}"))
    }
}

/// Plain NFS (CFS-NE) creates with CREATE and MKDIR.
pub fn plain_make(
    client: &NfsClient,
) -> impl FnMut(&FHandle, &str, bool) -> Result<FHandle, String> + '_ {
    move |dir, name, is_dir| {
        if is_dir {
            client.mkdir(dir, name, &Sattr::with_mode(0o755))
        } else {
            client.create(dir, name, &Sattr::with_mode(0o644))
        }
        .map(|(fh, _)| fh)
        .map_err(|e| format!("create {name}: {e}"))
    }
}

/// Where the layout's files ended up on one system.
#[derive(Debug, Clone, Default)]
pub struct Handles {
    /// Handle of each layout directory.
    pub dirs: Vec<FHandle>,
    /// Handle of each layout file.
    pub files: Vec<FHandle>,
    /// Sorted names the generator put in each directory.
    pub dir_names: Vec<Vec<String>>,
}

impl Handles {
    /// The directory holding `file`, or `root`.
    pub fn parent_of(&self, layout: &Layout, file: u32, root: FHandle) -> FHandle {
        match layout.files[file as usize].dir {
            Some(d) => self.dirs[d as usize],
            None => root,
        }
    }
}

/// Creates the layout's directories and (empty) files. Content is
/// written afterwards by [`fill_ops`] through the ordinary load path.
///
/// # Errors
///
/// The first create that fails, as text.
pub fn create_tree(root: FHandle, layout: &Layout, make: &mut Make<'_>) -> Result<Handles, String> {
    let mut handles = Handles::default();
    for (d, name) in layout.dirs.iter().enumerate() {
        handles.dirs.push(make(&root, name, true)?);
        handles.dir_names.push(
            layout
                .names_in(d as u32)
                .into_iter()
                .map(str::to_string)
                .collect(),
        );
    }
    for file in 0..layout.files.len() as u32 {
        let parent = handles.parent_of(layout, file, root);
        let fh = make(&parent, &layout.files[file as usize].name, false)?;
        handles.files.push(fh);
    }
    Ok(handles)
}

/// The writes that give every layout file its version-0 content.
pub fn fill_ops(layout: &Layout) -> Vec<Op> {
    let mut ops = Vec::new();
    for (file, spec) in layout.files.iter().enumerate() {
        for block in 0..layout.blocks_of(file as u32) {
            ops.push(Op::Write {
                file: file as u32,
                block,
                len: (spec.len - block * BLOCK).min(BLOCK),
                version: 0,
            });
        }
    }
    ops
}

/// The paper's CFS-NE baseline: the CFS code path with encryption off
/// over plain NFS, on the same link and disk models. It still runs on
/// the thread-per-connection server.
pub struct PlainWorld {
    /// The shared virtual clock.
    pub clock: SimClock,
    /// The mounted client.
    pub remote: RemoteFs,
    fs: Arc<Ffs>,
    server: std::thread::JoinHandle<()>,
}

impl PlainWorld {
    /// Starts a CFS-NE server on the paper's disk model and mounts it.
    ///
    /// # Errors
    ///
    /// A failed mount, as text.
    pub fn start() -> Result<PlainWorld, String> {
        let clock = SimClock::new();
        let fs = Arc::new(
            Ffs::open_or_format_backend(&StoreBackend::SimTimed, &clock, fs_config())
                .map_err(|e| format!("format CFS-NE volume: {e:?}"))?,
        );
        let service = Arc::new(cfs::CfsService::passthrough(Arc::clone(&fs), 1));
        let (client_end, server_end) = Link::pair(&clock, client_link());
        let server = nfsv2::server::spawn(service, Box::new(PlainChannel::new(server_end)));
        let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
        let remote = RemoteFs::mount(client, "/").map_err(|e| format!("mount CFS-NE: {e}"))?;
        Ok(PlainWorld {
            clock,
            remote,
            fs,
            server,
        })
    }

    /// The server volume.
    pub fn fs(&self) -> &Arc<Ffs> {
        &self.fs
    }

    /// Disconnects and waits for the server thread to end.
    pub fn shutdown(self) {
        drop(self.remote);
        self.server.join().ok();
    }
}

/// Runs `f`, adding the time it takes to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// A bare `Ffs` over a timed copy of a workload's store stack, for
/// replaying the workload's operations on one thread.
pub struct FfsReplay {
    fs: Ffs,
    /// Time spent inside `Ffs` calls (not in generating their input).
    fs_time: Duration,
    store_time: Arc<Tracer>,
    dirs: Vec<Ino>,
    files: Vec<Ino>,
    seed: u64,
    buf: Vec<u8>,
}

impl FfsReplay {
    /// Formats a volume on `backend` and creates and fills `layout`.
    ///
    /// # Errors
    ///
    /// A failed create or write, as text.
    pub fn start(backend: &StoreBackend, layout: &Layout, seed: u64) -> Result<FfsReplay, String> {
        let clock = SimClock::new();
        let store_time = Tracer::new(LinkConfig::instant());
        let store: Arc<dyn BlockStore> = Arc::new(TracedStore::new(
            backend.build(&clock, fs_config().total_blocks),
            &store_time,
        ));
        let fs = Ffs::format_on(store, fs_config());
        let mut replay = FfsReplay {
            fs,
            fs_time: Duration::ZERO,
            store_time,
            dirs: Vec::new(),
            files: Vec::new(),
            seed,
            buf: vec![0; BLOCK as usize],
        };
        let root = replay.fs.root();
        for name in &layout.dirs {
            let ino = replay
                .fs
                .mkdir(root, name, 0o755, 0, 0)
                .map_err(|e| format!("replay mkdir {name}: {e}"))?;
            replay.dirs.push(ino);
        }
        for spec in &layout.files {
            let parent = spec.dir.map_or(root, |d| replay.dirs[d as usize]);
            let ino = replay
                .fs
                .create(parent, &spec.name, 0o644, 0, 0)
                .map_err(|e| format!("replay create {}: {e}", spec.name))?;
            replay.files.push(ino);
        }
        for op in fill_ops(layout) {
            replay.apply(layout, &op)?;
        }
        Ok(replay)
    }

    /// Applies one operation through `Ffs`'s public API.
    ///
    /// # Errors
    ///
    /// A failing filesystem call, as text.
    pub fn apply(&mut self, layout: &Layout, op: &Op) -> Result<(), String> {
        let fail = |e: ffs::FsError| format!("replay {op:?}: {e}");
        let fs = &self.fs;
        let spent = &mut self.fs_time;
        match *op {
            Op::Read {
                file, block, len, ..
            } => {
                let ino = self.files[file as usize];
                let data = timed(spent, || fs.read(ino, (block * BLOCK) as u64, len as usize));
                std::hint::black_box(data.map_err(fail)?);
            }
            Op::Write {
                file,
                block,
                len,
                version,
            } => {
                let tag = BlockTag {
                    seed: self.seed,
                    file,
                    block,
                    version,
                };
                let data = &mut self.buf[..len as usize];
                fill_block(data, tag);
                let ino = self.files[file as usize];
                timed(spent, || fs.write(ino, (block * BLOCK) as u64, data)).map_err(fail)?;
            }
            Op::Truncate { file } => {
                let set = SetAttr {
                    size: Some(0),
                    ..SetAttr::default()
                };
                let ino = self.files[file as usize];
                timed(spent, || fs.setattr(ino, set)).map_err(fail)?;
            }
            Op::Lookup { file } => {
                let spec = &layout.files[file as usize];
                let parent = spec.dir.map_or(fs.root(), |d| self.dirs[d as usize]);
                let ino = timed(spent, || fs.lookup(parent, &spec.name));
                std::hint::black_box(ino.map_err(fail)?);
            }
            Op::Readdir { dir } => {
                let ino = self.dirs[dir as usize];
                let entries = timed(spent, || fs.readdir(ino));
                std::hint::black_box(entries.map_err(fail)?);
            }
            Op::Sync => timed(spent, || fs.sync()).map_err(|e| format!("replay sync: {e}"))?,
        }
        Ok(())
    }

    /// Replays `ops`; returns `(time in Ffs and below, time in the
    /// store, store reads, store writes)` for them.
    ///
    /// # Errors
    ///
    /// A failing filesystem call, as text.
    pub fn replay(
        &mut self,
        layout: &Layout,
        ops: &[Op],
    ) -> Result<(Duration, Duration, u64, u64), String> {
        let before = self.fs.disk().stats();
        self.store_time.set_enabled(true);
        self.fs_time = Duration::ZERO;
        for op in ops {
            self.apply(layout, op)?;
        }
        let total = self.fs_time;
        self.store_time.set_enabled(false);
        let after = self.fs.disk().stats();
        let in_store = [Layer::StoreRead, Layer::StoreWrite, Layer::StoreFlush]
            .into_iter()
            .map(|l| self.store_time.total(l))
            .sum();
        Ok((
            total,
            in_store,
            after.reads - before.reads,
            after.writes - before.writes,
        ))
    }
}

/// A scratch directory inside the checkout's build directory
/// (`$CARGO_TARGET_DIR`, else `target`), unique to this process and
/// `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    build_dir()
        .join("discfs_bench_scratch")
        .join(format!("{}-{tag}", std::process::id()))
}

/// Where build outputs and the benchmark's own files go.
pub fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}
