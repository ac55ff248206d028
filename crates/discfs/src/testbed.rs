//! An in-process replica of the paper's experimental setup (Figure 6):
//! "Alice" the server host and any number of "Bob" clients, connected
//! by simulated 100 Mbps Ethernet.
//!
//! Examples, integration tests and the benchmark harness all build
//! their worlds through this module so the topology stays consistent.
//!
//! Since the engine migration the server side is **not**
//! thread-per-connection: every accepted endpoint — including its IKE
//! responder handshake — is multiplexed onto one [`nfsv2::Engine`]
//! with a fixed worker pool. A testbed serving 10 000 clients still
//! runs `workers + 1` server threads.

use std::sync::Arc;

use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use discfs_crypto::rng::DetRng;
use ffs::{BlockStore, Ffs, FsConfig, StoreBackend};
use ipsec::ike::SecureChannel;
use netsim::{Endpoint, Link, LinkConfig, SimClock};
use nfsv2::{Engine, EngineConfig};

use crate::client::{DiscfsClient, DiscfsClientError};
use crate::cred::CredentialIssuer;
use crate::perm::Perm;
use crate::server::{DiscfsConfig, DiscfsService};

/// A running DisCFS server plus the network it lives on.
pub struct Testbed {
    clock: SimClock,
    fs_config: FsConfig,
    link_config: LinkConfig,
    cache_size: usize,
    backend: StoreBackend,
    /// A caller-constructed store mounted via [`Testbed::with_store`];
    /// [`Testbed::reboot`] remounts it instead of rebuilding from the
    /// `backend` spec.
    prebuilt: Option<Arc<dyn BlockStore>>,
    service: Arc<DiscfsService>,
    server_public: VerifyingKey,
    admin: SigningKey,
    connection_counter: std::sync::atomic::AtomicU64,
    /// The event-driven request engine serving every connection.
    engine: Engine,
}

impl Testbed {
    /// Builds a testbed with the paper's network/disk models.
    pub fn new() -> Testbed {
        Testbed::with_config(FsConfig::standard(), LinkConfig::ethernet_100mbps(), 128)
    }

    /// Builds a zero-latency testbed (fast unit tests).
    pub fn instant() -> Testbed {
        Testbed::with_config(FsConfig::small(), LinkConfig::instant(), 128)
    }

    /// Full control over geometry, link model and cache size, on the
    /// paper's timing-model disk.
    pub fn with_config(fs_config: FsConfig, link_config: LinkConfig, cache_size: usize) -> Testbed {
        Testbed::with_backend(fs_config, link_config, cache_size, &StoreBackend::SimTimed)
    }

    /// Full control including the storage backend the server's volume
    /// lives on (see [`StoreBackend`] for the options).
    ///
    /// On a persistent backend whose directory already holds a
    /// formatted volume, the testbed **mounts** it instead of
    /// reformatting — files and directories from a previous testbed
    /// come back intact, and credentials issued against the old
    /// instance keep working (the admin key is deterministic). See
    /// [`Testbed::reboot`] for the full cycle.
    ///
    /// # Panics
    ///
    /// Panics when the backend holds a damaged volume (superblock
    /// present but unusable) — data is never silently destroyed.
    pub fn with_backend(
        fs_config: FsConfig,
        link_config: LinkConfig,
        cache_size: usize,
        backend: &StoreBackend,
    ) -> Testbed {
        Testbed::with_engine_config(
            fs_config,
            link_config,
            cache_size,
            backend,
            EngineConfig::default(),
        )
    }

    /// As [`Testbed::with_backend`], with explicit engine sizing
    /// (worker count, per-connection queue bound, batch quantum).
    pub fn with_engine_config(
        fs_config: FsConfig,
        link_config: LinkConfig,
        cache_size: usize,
        backend: &StoreBackend,
        engine_config: EngineConfig,
    ) -> Testbed {
        let clock = SimClock::new();
        let fs = Arc::new(
            Ffs::open_or_format_backend(backend, &clock, fs_config)
                .expect("mount or format the server volume"),
        );
        Testbed::assemble(
            clock,
            fs,
            fs_config,
            link_config,
            cache_size,
            backend.clone(),
            None,
            engine_config,
        )
    }

    /// Builds a testbed on a **prebuilt** block store that shares
    /// `clock` — for chaos tests that assemble the storage fleet by
    /// hand (fault plans, tuned [`ffs::RemoteOptions`], rebuild
    /// budgets) before mounting DisCFS on it. A store already holding
    /// a formatted volume is mounted, not reformatted, and
    /// [`Testbed::reboot`] remounts the **same** store instead of
    /// rebuilding from a [`StoreBackend`] spec.
    ///
    /// # Panics
    ///
    /// Panics when the store holds a damaged volume (superblock
    /// present but unusable) — data is never silently destroyed.
    pub fn with_store(
        fs_config: FsConfig,
        link_config: LinkConfig,
        cache_size: usize,
        clock: &SimClock,
        store: Arc<dyn BlockStore>,
    ) -> Testbed {
        let fs = Arc::new(
            Ffs::open_or_format(Arc::clone(&store), fs_config)
                .expect("mount or format the server volume"),
        );
        Testbed::assemble(
            clock.clone(),
            fs,
            fs_config,
            link_config,
            cache_size,
            StoreBackend::SimInstant,
            Some(store),
            EngineConfig::default(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        clock: SimClock,
        fs: Arc<Ffs>,
        fs_config: FsConfig,
        link_config: LinkConfig,
        cache_size: usize,
        backend: StoreBackend,
        prebuilt: Option<Arc<dyn BlockStore>>,
        engine_config: EngineConfig,
    ) -> Testbed {
        let admin = SigningKey::from_seed(&[0xAD; 32]);
        let server_key = SigningKey::from_seed(&SERVER_KEY_SEED);
        let server_public = server_key.public();
        let mut config = DiscfsConfig::standard(admin.public(), server_key.clone());
        config.cache_size = cache_size;
        let service = Arc::new(DiscfsService::new(fs, config));
        // Charge policy decisions to the virtual clock: a cache hit is a
        // hash lookup (~2 µs on the paper's 450 MHz PIII); a miss runs a
        // signature-verified KeyNote query (~200 µs).
        service.set_policy_charge(crate::server::PolicyCharge {
            clock: clock.clone(),
            cache_hit: std::time::Duration::from_micros(2),
            cache_miss: std::time::Duration::from_micros(200),
        });
        let engine = Engine::start(service.clone(), server_key, engine_config);
        Testbed {
            clock,
            fs_config,
            link_config,
            cache_size,
            backend,
            prebuilt,
            service,
            server_public,
            admin,
            connection_counter: std::sync::atomic::AtomicU64::new(1),
            engine,
        }
    }

    /// Syncs the server volume: durable bitmaps + clean superblock,
    /// then a backend flush (see `ffs::Ffs::sync`). Call before
    /// dropping a testbed whose volume should reopen cleanly.
    ///
    /// # Errors
    ///
    /// I/O failure of the backing store.
    pub fn sync(&self) -> std::io::Result<()> {
        self.fs().sync()
    }

    /// Simulates a server reboot: quiesces the engine, syncs the
    /// volume, tears this testbed down, and builds a fresh one on the
    /// same backend configuration.
    ///
    /// On a persistent backend ([`StoreBackend::is_persistent`]) the
    /// new instance mounts the old volume — every file, directory and
    /// credential-protected handle survives. On an in-memory backend
    /// the reboot necessarily formats from scratch (there is nothing
    /// durable to come back to).
    ///
    /// The engine shutdown **joins** every server thread after
    /// draining all queued requests, so no thread still holds the old
    /// store — and no acknowledged write is in flight — when the sync
    /// runs and the volume reopens. Clients of the old instance simply
    /// observe a dead connection.
    pub fn reboot(self) -> Testbed {
        // Quiesce FIRST: the engine threads own a clone of the service
        // (and through it the store); a straggler finishing an
        // acknowledged write after the sync would leave that write
        // uncovered by it.
        self.engine.shutdown();
        self.sync().expect("sync volume before reboot");
        let Testbed {
            clock,
            fs_config,
            link_config,
            cache_size,
            backend,
            prebuilt,
            service,
            engine,
            ..
        } = self;
        drop(engine);
        drop(service);
        match prebuilt {
            Some(store) => Testbed::with_store(fs_config, link_config, cache_size, &clock, store),
            None => Testbed::with_backend(fs_config, link_config, cache_size, &backend),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The server's backing volume (block-store stats, fsck).
    pub fn fs(&self) -> &Arc<Ffs> {
        self.service.storage().fs()
    }

    /// Counters of the volume's storage backend — e.g. the cache hit
    /// ratio when the testbed runs on [`StoreBackend::Cached`].
    pub fn store_stats(&self) -> ffs::StoreStats {
        self.fs().disk().stats()
    }

    /// The server service (policy cache stats, audit log, env control).
    pub fn service(&self) -> &Arc<DiscfsService> {
        &self.service
    }

    /// The request engine (stats, per-connection queue high-water).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The administrator signing key (root of the trust graph).
    pub fn admin(&self) -> &SigningKey {
        &self.admin
    }

    /// Connects a new client with `identity`, running IKE and mounting
    /// the root export; the IKE AUTH rides with the MOUNT call, so this
    /// costs four link messages. The server side joins the shared
    /// engine — no thread is spawned per connection.
    ///
    /// # Errors
    ///
    /// Handshake or mount failures.
    pub fn connect(&self, identity: &SigningKey) -> Result<DiscfsClient, DiscfsClientError> {
        let (client_end, conn_id, _token) = self.accept_endpoint();
        let mut rng = DetRng::new(0xC11E_0000 + conn_id);
        DiscfsClient::attach(
            client_end,
            identity,
            Some(&self.server_public),
            "/",
            &mut rng,
        )
    }

    /// Connects like [`Testbed::connect`], then submits an administrator
    /// grant of `RWX` on the export root to `identity`: the paper's
    /// measurement user owning the test directory.
    ///
    /// # Errors
    ///
    /// Handshake or mount failures, or the server refusing the grant.
    pub fn connect_owner(&self, identity: &SigningKey) -> Result<DiscfsClient, DiscfsClientError> {
        let client = self.connect(identity)?;
        let grant = CredentialIssuer::new(&self.admin)
            .holder(&identity.public())
            .grant_handle_string("1.1", Perm::RWX)
            .issue();
        client.submit_credential(&grant)?;
        Ok(client)
    }

    /// Connects like [`Testbed::connect`] but also returns the engine
    /// token of the server-side connection, for tests that inspect
    /// per-connection engine state (queue high-water, liveness).
    ///
    /// # Errors
    ///
    /// Handshake or mount failures.
    pub fn connect_tracked(
        &self,
        identity: &SigningKey,
    ) -> Result<(DiscfsClient, u64), DiscfsClientError> {
        let (client_end, conn_id, token) = self.accept_endpoint();
        let mut rng = DetRng::new(0xC11E_0000 + conn_id);
        let client = DiscfsClient::attach(
            client_end,
            identity,
            Some(&self.server_public),
            "/",
            &mut rng,
        )?;
        Ok((client, token))
    }

    /// Runs IKE as `identity` and returns the **raw** secure channel
    /// plus the engine token, without mounting anything — for tests
    /// that speak the wire protocol directly (e.g. sending malformed
    /// frames). The AUTH goes out on its own ([`ipsec::ike::initiate`]),
    /// so the engine attaches the connection before the test speaks.
    ///
    /// # Errors
    ///
    /// Handshake failures.
    pub fn connect_raw(
        &self,
        identity: &SigningKey,
    ) -> Result<(SecureChannel<Endpoint>, u64), ipsec::IpsecError> {
        let (client_end, conn_id, token) = self.accept_endpoint();
        let mut rng = DetRng::new(0xC11E_0000 + conn_id);
        let chan = ipsec::ike::initiate(client_end, identity, Some(&self.server_public), &mut rng)?;
        Ok((chan, token))
    }

    fn accept_endpoint(&self) -> (Endpoint, u64, u64) {
        let conn_id = self
            .connection_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (client_end, server_end) = Link::pair(&self.clock, self.link_config);
        let token = self.engine.accept(server_end);
        (client_end, conn_id, token)
    }
}

/// Deterministic server key seed (identity survives reboots).
const SERVER_KEY_SEED: [u8; 32] = [0x5E; 32];

impl Default for Testbed {
    fn default() -> Self {
        Testbed::new()
    }
}
