//! DisCFS — the Distributed Credential Filesystem.
//!
//! A Rust reproduction of the system described in *"Secure and Flexible
//! Global File Sharing"* (Miltchev, Prevelakis, Ioannidis, Keromytis,
//! Smith). Under DisCFS, **credentials identify both the files stored
//! in the file system and the users permitted to access them**, as well
//! as the circumstances under which access is allowed. Users delegate
//! access rights simply by issuing new credentials, so files can be
//! shared with remote users the server has never heard of — no accounts,
//! no ACLs, no administrator in the loop.
//!
//! # Architecture (paper §4–§5)
//!
//! * Identity — the client's Ed25519 key, authenticated by the IKE
//!   handshake of the [`ipsec`] channel. All NFS requests on the
//!   connection are bound to that key.
//! * Authorization — [`keynote`] compliance checks: the administrator's
//!   local policy delegates to user keys through chains of signed
//!   credentials; each query returns a value from the 8-element
//!   permission lattice ([`Perm`]), whose index is the octal mode.
//! * Files — handles are `(inode, generation)` pairs served by the
//!   [`ffs`] volume via the [`nfsv2`] protocol; credentials name
//!   handles in their `HANDLE ==` conditions (paper Figure 5).
//! * The [`server::DiscfsService`] glues these together with the
//!   policy-result [`cache`], [`revocation`] list, and [`audit`] log;
//!   [`client::DiscfsClient`] is the `cattach` + wallet side.
//!
//! # Authorization hot path
//!
//! Every NFS operation is a policy decision, so a decision that is
//! already cached takes no lock exclusively:
//!
//! * **One peer map** — the per-client-key KeyNote sessions live in one
//!   `RwLock<HashMap>` keyed by the client key. Resolving a request
//!   takes its *read* lock to clone the peer's `Arc`'d state; the
//!   session itself (behind a per-peer mutex) is only locked on cache
//!   misses and credential changes.
//! * **Atomic epochs** — each peer carries an `AtomicU64` credential
//!   epoch and the server keeps a global environment epoch (time of
//!   day, virtual time, public grants, revocations). A cached decision
//!   is valid iff both epochs it was keyed under are current; loading
//!   them is two atomic loads, and every invalidation is one atomic
//!   increment.
//! * **One policy cache** — [`cache::PolicyCache`] is the paper's
//!   cache of policy results (128 entries, exact LRU) behind one
//!   `RwLock`. A hit takes the read lock and bumps an atomic recency
//!   stamp; only misses and invalidation write.
//! * **One lookup per handle** — `authorize` returns the granted
//!   [`Perm`] and every NFS method threads it into attribute
//!   presentation, so read/getattr perform exactly one policy lookup
//!   per request (lookup does two: directory traversal + child mode —
//!   distinct handles).
//! * **Ring audit log** — [`audit::AuditLog`] is a fixed-capacity ring
//!   with an atomic cursor and per-slot locks; records are binary
//!   (key bytes, static op name, `(inode, generation)`) and the
//!   authorizer keys — the distinct issuers of the peer's credentials —
//!   are a shared handle cached per peer, replaced only when that set
//!   changes, so an append allocates nothing and hex is rendered only
//!   when the log is read.
//!
//! The invariants, pinned by `server::AuthStats` counters in tests:
//!
//! 1. A cached decision may be served only while both the peer
//!    credential epoch and the global environment epoch match the key
//!    it was inserted under.
//! 2. Credential submission, creator-credential issue, and revocation
//!    purge bump the **peer** epoch (under the session lock, after the
//!    session mutation, so a miss that sees the new epoch sees the new
//!    credential set). Time/hour changes, public-grant changes, and
//!    revocations bump the **global** epoch.
//! 3. A policy-cache hit performs zero exclusive-lock acquisitions
//!    (`AuthStats::exclusive` is flat across a hit-only run), and
//!    `AuthStats::decisions == cache hits + misses` at all times.
//!
//! # Request engine
//!
//! The connection layer in front of that decision path is the
//! event-driven engine of `nfsv2::engine` (PR 7). The paper's testbed
//! model — one synchronous server thread per connection — cannot reach
//! the client populations the hot path was built for, so the engine
//! multiplexes every session onto a **fixed** pool:
//!
//! * **Threading model** — exactly `workers + 1` server threads
//!   regardless of connection count: one readiness loop polling the
//!   `netsim` channels (edge-triggered tokens via `netsim::ReadySet`),
//!   plus a worker pool draining a shared job queue. IKE responder
//!   handshakes run as worker jobs too, one job a step, each queued
//!   only once the peer's message is in, so even connection setup
//!   spawns nothing and no worker waits on a peer.
//! * **Bounded queues, backpressure** — the loop decodes frames into a
//!   per-connection request queue capped at `queue_bound`; a full
//!   queue pauses reading that connection (the flood stays in the
//!   network, not in server memory) until a worker drains it. A
//!   stalled or slow-loris client therefore sheds **its own** load
//!   while healthy neighbors keep their latency — the fairness bound
//!   pinned by `tests/engine.rs`. That holds during the handshake too:
//!   peers that never finish IKE hold no worker, so they neither starve
//!   honest handshakes nor delay a reboot.
//! * **Batched serving** — a worker serves up to `batch` requests per
//!   scheduling quantum, encoding all replies into one buffer and one
//!   transport send (one ESP seal per batch) over the zero-copy
//!   `Bytes` frame path, then requeues the connection at the tail for
//!   round-robin fairness. Per-connection execution stays serialized,
//!   so pipelined requests observe FIFO order.
//! * **Clean failure** — malformed frames (bad checksum, oversized
//!   length, truncation) condemn only the offending connection, which
//!   is dropped and recorded in the [`audit`] log; disconnects drain
//!   quietly. [`Testbed::reboot`] quiesces the engine — joins the loop
//!   and every worker, draining accepted requests — before the store
//!   syncs and drops.
//!
//! [`Testbed`] runs every connection through the engine, so the whole
//! integration suite exercises this path; `EngineStats` exposes the
//! counters the tests pin.
//!
//! # Storage backends
//!
//! The server's volume is built on the pluggable block-store subsystem
//! (the `store` crate): [`Testbed::with_backend`] selects where blocks
//! live via `ffs::StoreBackend` —
//!
//! * `SimTimed` / `SimInstant` — the in-memory simulated disk, with or
//!   without the paper's Quantum Fireball timing model (the default
//!   everywhere, so figure reproduction is unchanged);
//! * `FileJournal` — persistent file-backed storage with a write-ahead
//!   journal for crash consistency;
//! * `EncryptedJournal` — ChaCha20 encryption-at-rest over the
//!   journaled-file store;
//! * `Cached { capacity, inner }` — a sharded write-back LRU buffer
//!   cache over any of the above: a served-from-cache read is a
//!   refcounted handle clone, so a hot working set stops paying the
//!   backend's locking, cipher, or timing costs entirely (cache
//!   hit/miss counters surface through [`Testbed::store_stats`]);
//! * `Sharded { shards, workers, inner }` — the volume striped
//!   `i % N` across N inner stores with per-shard locks and a parallel
//!   flush; `workers` gives each shard its own I/O thread.
//!
//! Wrappers nest: a production-shaped server volume is
//! `Cached { inner: Sharded { inner: FileJournal } }`, and the whole
//! credential stack (and [`Testbed::reboot`]) runs over it unchanged.
//!
//! ## Persistent volumes
//!
//! The paper's volumes are long-lived server-side entities that
//! principals reconnect to across sessions. On a persistent backend,
//! a [`Testbed`] built over a directory that already holds a volume
//! **mounts** it (`ffs::Ffs::mount_on`) instead of reformatting:
//! files, directories, and `(inode, generation)` file
//! handles all come back, and because the testbed's admin key is
//! deterministic, credentials issued before the restart keep
//! authorizing the same handles after it. [`Testbed::sync`] makes the
//! volume durable; [`Testbed::reboot`] packages the whole
//! sync → teardown → mount cycle.
//!
//! ```
//! use discfs::Testbed;
//! use ffs::{FsConfig, StoreBackend};
//! use netsim::LinkConfig;
//!
//! let bed = Testbed::with_backend(
//!     FsConfig::small(),
//!     LinkConfig::instant(),
//!     128,
//!     &StoreBackend::SimInstant,
//! );
//! // The volume formats and checks clean on the untimed backend.
//! bed.fs().check().unwrap();
//! ```
//!
//! ## Distributed volume tier
//!
//! The paper's volumes live on network-attached storage nodes; the
//! `store` crate now models that tier. A `store::BlockServer` answers
//! for any block store as an ONC-RPC program, in the same frames as
//! NFS, at the far end of a simulated link and on the caller's thread; `store::RemoteStore` is its client —
//! an ordinary `BlockStore` with per-request timeout and retry — and
//! `store::ReplicatedStore` stripes a volume R-way across N such
//! nodes, committing each flush under an epoch record so a torn
//! write replays to one consistent epoch. One backend preset composes
//! the tier under the credential stack unchanged:
//! `Replicated { nodes, replicas, spares, ethernet, opts, inner }`, an
//! N-node volume (100 Mbps Ethernet timing or instant links, a tunable
//! timeout/backoff policy) that keeps serving every read through the
//! death of any single node and rebuilds the lost replicas onto a
//! spare; `nodes: 1, replicas: 1, spares: 0` is one storage node.
//!
//! ```
//! use discfs::Testbed;
//! use ffs::{FsConfig, StoreBackend};
//! use netsim::LinkConfig;
//! use store::RemoteOptions;
//!
//! let backend = StoreBackend::Replicated {
//!     nodes: 4,
//!     replicas: 2,
//!     spares: 1,
//!     ethernet: false,
//!     opts: RemoteOptions::default(),
//!     inner: Box::new(StoreBackend::SimInstant),
//! };
//! let bed = Testbed::with_backend(FsConfig::small(), LinkConfig::instant(), 128, &backend);
//! bed.fs().check().unwrap();
//! assert!(bed.store_stats().rpc_calls > 0); // every block crossed the wire
//! ```
//!
//! ## Multi-coordinator safety
//!
//! Two front-ends mounting the same nodes — or one stale front-end
//! surviving a partition — must not fork the volume. The storage
//! nodes themselves arbitrate: a coordinator acquires a
//! `(coordinator_id, fence_token)` lease per node
//! (`store::RemoteStore::try_acquire_lease`), every mutating frame
//! carries the token, and a node that has granted a higher token
//! refuses the frame with a typed `Fenced` error *before* touching
//! its store. The fenced coordinator latches read-only (the count
//! surfaces as `StoreStats::fenced` through [`Testbed::store_stats`]),
//! while epoch flushes commit on a majority of each block's replica
//! set and replicas observed behind the committed epoch are re-synced
//! through the rebuild queue (`StoreStats::read_repairs`). A second
//! [`Testbed`] built over the *same* shared node stores
//! ([`Testbed::with_store`] mounts, never reformats) is exactly the
//! takeover coordinator: acquire the lease on fresh clients, mount,
//! and the stale coordinator's stragglers bounce off the fence — the
//! split-brain matrix in `tests/chaos.rs` drives that handoff under
//! seeded link faults. Invariants live in the `store` crate docs
//! (*Failure model* and *Leases and fencing*).
//!
//! # Quickstart
//!
//! ```
//! use discfs::{CredentialIssuer, Perm, Testbed};
//! use discfs_crypto::ed25519::SigningKey;
//!
//! let bed = Testbed::instant();
//! let bob = SigningKey::from_seed(&[0xB0; 32]);
//! let alice = SigningKey::from_seed(&[0xA1; 32]);
//!
//! // The administrator grants Bob the root directory.
//! let root_cred = CredentialIssuer::new(bed.admin())
//!     .holder(&bob.public())
//!     .grant_handle_string("1.1", Perm::RWX)
//!     .issue();
//!
//! // Bob attaches, submits his credential, and stores a file.
//! let mut bob_client = bed.connect(&bob).unwrap();
//! bob_client.submit_credential(&root_cred).unwrap();
//! let root = bob_client.remote().root();
//! let created = bob_client.create_with_credential(&root, "paper.tex", 0o644).unwrap();
//! bob_client.client().write_all(&created.fh, 0, b"\\title{DisCFS}").unwrap();
//!
//! // Bob delegates read access to Alice by issuing a credential —
//! // no administrator involved.
//! let to_alice = CredentialIssuer::new(&bob)
//!     .holder(&alice.public())
//!     .grant(&created.fh, Perm::R)
//!     .issue();
//!
//! let alice_client = bed.connect(&alice).unwrap();
//! alice_client.submit_credential(&created.credential).unwrap(); // chain link 1
//! alice_client.submit_credential(&to_alice).unwrap();           // chain link 2
//! let text = alice_client.client().read_all(&created.fh, 0, 100).unwrap();
//! assert_eq!(text, b"\\title{DisCFS}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod audit;
pub mod cache;
pub mod client;
pub mod cred;
pub mod perm;
pub mod revocation;
pub mod rpc;
pub mod server;
pub mod testbed;
pub mod wallet;

pub use cache::PolicyCache;
pub use client::{DiscfsClient, DiscfsClientError};
pub use cred::{root_policy, CredentialIssuer};
pub use perm::Perm;
pub use server::{DiscfsConfig, DiscfsService, PolicyCharge};
pub use testbed::Testbed;
pub use wallet::{Wallet, WalletEntry};

#[cfg(test)]
mod tests {
    use super::*;
    use discfs_crypto::ed25519::SigningKey;
    use nfsv2::{ClientError, NfsStat};

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed(&[seed; 32])
    }

    /// Grants `holder` RWX on the root directory, signed by the admin.
    fn root_grant(bed: &Testbed, holder: &SigningKey) -> String {
        CredentialIssuer::new(bed.admin())
            .holder(&holder.public())
            .grant_handle_string("1.1", Perm::RWX)
            .issue()
    }

    #[test]
    fn ten_decisions_on_one_handle_cost_one_miss_and_three_exclusive_locks() {
        // Every decision is exactly one cache lookup, hits + misses ==
        // decisions, and a warm decision takes no exclusive lock.
        let fs = std::sync::Arc::new(ffs::Ffs::format_in_memory(ffs::FsConfig::small()));
        let config = DiscfsConfig::standard(key(0xAD).public(), key(0x5E));
        let service = DiscfsService::new(fs, config);
        let peer = key(0x77).public();
        let fh = nfsv2::FHandle::pack(1, 1, 0);
        for _ in 0..10 {
            let perm = service.permissions_for(&peer, &fh);
            assert_eq!(perm, Perm::NONE, "no credentials, nothing granted");
        }
        let stats = service.auth_stats();
        let cache = service.cache().stats();
        assert_eq!(stats.decisions(), 10);
        assert_eq!(cache.hits() + cache.misses(), stats.decisions());
        assert_eq!(cache.misses(), 1, "one cold compliance check");
        // 1 peer-map insert + 1 session lock + 1 cache insert on the
        // miss; the nine warm decisions add nothing exclusive.
        assert_eq!(stats.exclusive(), 3);
    }

    #[test]
    fn attach_without_credentials_shows_mode_000() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        let attr = client.client().getattr(&client.remote().root()).unwrap();
        assert_eq!(
            attr.mode & 0o777,
            0o000,
            "no credentials, no visible access"
        );
    }

    #[test]
    fn credentials_change_visible_mode() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect_owner(&bob).unwrap();
        let attr = client.client().getattr(&client.remote().root()).unwrap();
        assert_eq!(attr.mode & 0o777, 0o777);
    }

    #[test]
    fn read_denied_without_credentials() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        let err = client.client().readdir_all(&client.remote().root());
        assert!(matches!(err, Err(ClientError::Status(NfsStat::Acces))));
    }

    #[test]
    fn create_returns_working_credential() {
        let bed = Testbed::instant();
        let bob = key(2);
        let mut client = bed.connect_owner(&bob).unwrap();
        let root = client.remote().root();
        let res = client
            .create_with_credential(&root, "notes.txt", 0o644)
            .unwrap();
        // The credential parses, verifies, and names the new handle.
        let assertion = keynote::Assertion::parse(&res.credential).unwrap();
        assertion.verify().unwrap();
        assert!(res.credential.contains(&res.fh.credential_string()));
        // And the file is immediately usable.
        client.client().write_all(&res.fh, 0, b"hello").unwrap();
        assert_eq!(client.client().read_all(&res.fh, 0, 10).unwrap(), b"hello");
    }

    #[test]
    fn plain_nfs_create_leaves_file_inaccessible() {
        // The §5 pitfall: CREATE via the standard procedure yields a
        // file the creator holds no credential for.
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect_owner(&bob).unwrap();
        let root = client.remote().root();
        let (fh, _) = client
            .client()
            .create(&root, "orphan.txt", &nfsv2::Sattr::with_mode(0o644))
            .unwrap();
        let err = client.client().read(&fh, 0, 10);
        assert!(matches!(err, Err(ClientError::Status(NfsStat::Acces))));
    }

    #[test]
    fn figure1_delegation_admin_bob_alice() {
        let bed = Testbed::instant();
        let bob = key(2);
        let alice = key(3);

        let mut bob_client = bed.connect_owner(&bob).unwrap();
        let root = bob_client.remote().root();
        let res = bob_client
            .create_with_credential(&root, "doc", 0o644)
            .unwrap();
        bob_client
            .client()
            .write_all(&res.fh, 0, b"shared doc")
            .unwrap();

        // Bob issues Alice a read-only credential.
        let to_alice = CredentialIssuer::new(&bob)
            .holder(&alice.public())
            .grant(&res.fh, Perm::R)
            .issue();

        let alice_client = bed.connect(&alice).unwrap();
        // Without the chain: denied.
        assert!(alice_client.client().read(&res.fh, 0, 10).is_err());
        // Alice submits both links (server→bob via create-credential,
        // bob→alice) and reads.
        alice_client.submit_credential(&res.credential).unwrap();
        alice_client.submit_credential(&to_alice).unwrap();
        assert_eq!(
            alice_client.client().read_all(&res.fh, 0, 20).unwrap(),
            b"shared doc"
        );
        // But she cannot write: Bob granted R only.
        assert!(matches!(
            alice_client.client().write(&res.fh, 0, b"evil"),
            Err(ClientError::Status(NfsStat::Acces))
        ));
    }

    #[test]
    fn creator_credential_is_verified_whenever_it_arrives_as_text() {
        // The server adds the credential it signs at CREATE to the
        // creator's session without verifying it. That shortcut is for
        // the signer only: the same credential coming back over
        // SUBMIT_CRED is text, and text is verified.
        let bed = Testbed::instant();
        let (bob, alice) = (key(2), key(3));
        let mut bob_client = bed.connect_owner(&bob).unwrap();
        let root = bob_client.remote().root();
        let res = bob_client
            .create_with_credential(&root, "doc", 0o644)
            .unwrap();
        assert_eq!(bob_client.credential_count().unwrap(), 2);
        assert!(bob_client.client().write(&res.fh, 0, b"mine").is_ok());
        keynote::Assertion::parse(&res.credential)
            .unwrap()
            .verify()
            .expect("what the server signed verifies");

        // Alice rewrites the licensee to herself: refused.
        let alice_client = bed.connect(&alice).unwrap();
        let forged = res.credential.replace(
            &keynote::key_principal(&bob.public()),
            &keynote::key_principal(&alice.public()),
        );
        assert_ne!(forged, res.credential);
        assert!(matches!(
            alice_client.submit_credential(&forged),
            Err(DiscfsClientError::CredentialRejected(
                rpc::DiscfsRpcStatus::BadCredential
            ))
        ));
        assert_eq!(alice_client.credential_count().unwrap(), 0);
        // The genuine text is accepted (and grants her nothing: it
        // names Bob).
        alice_client.submit_credential(&res.credential).unwrap();
        assert!(alice_client.client().read(&res.fh, 0, 4).is_err());
    }

    #[test]
    fn revoked_key_loses_access_immediately() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect_owner(&bob).unwrap();
        let root = client.remote().root();
        assert!(client.client().readdir_all(&root).is_ok());

        bed.service().revoke_key(&bob.public(), None);
        assert!(matches!(
            client.client().readdir_all(&root),
            Err(ClientError::Status(NfsStat::Acces))
        ));
    }

    #[test]
    fn revoked_credential_cannot_be_resubmitted() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        let cred = root_grant(&bed, &bob);
        let id = keynote::Assertion::parse(&cred).unwrap().id().to_string();
        bed.service().revoke_credential(&id, None);
        assert!(matches!(
            client.submit_credential(&cred),
            Err(DiscfsClientError::CredentialRejected(
                rpc::DiscfsRpcStatus::Revoked
            ))
        ));
    }

    #[test]
    fn revocation_in_a_300_credential_session_rebuilds_the_index() {
        // The session's query index files credentials by position;
        // revocation removes some from the middle. Every survivor must
        // still answer for its own handle, the revoked ones for none,
        // and a credential submitted afterwards must take effect at
        // once (index rebuilt, peer epoch bumped past the cached NONE).
        let bed = Testbed::instant();
        let (bob, carol, dave) = (key(2), key(3), key(4));
        let client = bed.connect(&bob).unwrap();
        let handle = |ino: u32| nfsv2::FHandle::pack(1, ino, 1);
        let grant = |issuer: &SigningKey, holder: &SigningKey, ino: u32, perm: Perm| {
            CredentialIssuer::new(issuer)
                .holder(&holder.public())
                .grant(&handle(ino), perm)
                .issue()
        };
        let held = |ino: u32| bed.service().permissions_for(&bob.public(), &handle(ino));

        let direct: Vec<String> = (1000..1298)
            .map(|ino| grant(bed.admin(), &bob, ino, Perm::RW))
            .collect();
        for credential in &direct {
            client.submit_credential(credential).unwrap();
        }
        // A two-link chain through carol for handle 2000.
        client
            .submit_credential(&grant(bed.admin(), &carol, 2000, Perm::RWX))
            .unwrap();
        client
            .submit_credential(&grant(&carol, &bob, 2000, Perm::R))
            .unwrap();
        assert_eq!(client.credential_count().unwrap(), 300);
        assert_eq!(held(1000), Perm::RW);
        assert_eq!(held(1100), Perm::RW);
        assert_eq!(held(1297), Perm::RW);
        assert_eq!(held(2000), Perm::R);
        assert_eq!(held(1298), Perm::NONE);

        // One credential, by id, out of the middle.
        let revoked = keynote::Assertion::parse(&direct[100]).unwrap();
        bed.service().revoke_credential(revoked.id(), None);
        assert_eq!(client.credential_count().unwrap(), 299);
        assert_eq!(held(1100), Perm::NONE);
        for ino in [1000, 1099, 1101, 1297] {
            assert_eq!(held(ino), Perm::RW, "handle {ino} kept its credential");
        }
        assert_eq!(held(2000), Perm::R);
        assert!(matches!(
            client.submit_credential(&direct[100]),
            Err(DiscfsClientError::CredentialRejected(
                rpc::DiscfsRpcStatus::Revoked
            ))
        ));
        // A different, unrevoked credential for the same handle grants.
        client
            .submit_credential(&grant(bed.admin(), &bob, 1100, Perm::R))
            .unwrap();
        assert_eq!(held(1100), Perm::R);

        // An issuer key: everything carol signed goes, nothing else.
        bed.service().revoke_key(&carol.public(), None);
        assert_eq!(client.credential_count().unwrap(), 299);
        assert_eq!(held(2000), Perm::NONE);
        assert_eq!(held(1100), Perm::R);
        assert_eq!(held(1297), Perm::RW);
        // The same grant through an unrevoked intermediary works again.
        client
            .submit_credential(&grant(bed.admin(), &dave, 2000, Perm::RWX))
            .unwrap();
        client
            .submit_credential(&grant(&dave, &bob, 2000, Perm::R))
            .unwrap();
        assert_eq!(held(2000), Perm::R);
    }

    #[test]
    fn admin_can_revoke_remotely_others_cannot() {
        let bed = Testbed::instant();
        let bob = key(2);
        let mallory = key(4);

        let bob_client = bed.connect_owner(&bob).unwrap();

        // Mallory (not admin) cannot revoke Bob.
        let mallory_client = bed.connect(&mallory).unwrap();
        assert!(mallory_client.revoke_key(&bob.public()).is_err());
        assert!(bob_client
            .client()
            .readdir_all(&bob_client.remote().root())
            .is_ok());

        // The admin can.
        let admin_key = SigningKey::from_seed(bed.admin().seed());
        let admin_client = bed.connect(&admin_key).unwrap();
        admin_client.revoke_key(&bob.public()).unwrap();
        assert!(bob_client
            .client()
            .readdir_all(&bob_client.remote().root())
            .is_err());
    }

    #[test]
    fn time_of_day_conditions_enforced() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        let cred = CredentialIssuer::new(bed.admin())
            .holder(&bob.public())
            .grant_handle_string("1.1", Perm::RWX)
            .valid_hours(9, 17)
            .issue();
        client.submit_credential(&cred).unwrap();

        bed.service().set_hour(10);
        assert!(client.client().readdir_all(&client.remote().root()).is_ok());

        bed.service().set_hour(20);
        assert!(client
            .client()
            .readdir_all(&client.remote().root())
            .is_err());

        bed.service().set_hour(16);
        assert!(client.client().readdir_all(&client.remote().root()).is_ok());
    }

    #[test]
    fn credential_expiry_enforced() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        let cred = CredentialIssuer::new(bed.admin())
            .holder(&bob.public())
            .grant_handle_string("1.1", Perm::RWX)
            .expires_at(100)
            .issue();
        client.submit_credential(&cred).unwrap();

        bed.service().set_time(50);
        assert!(client.client().readdir_all(&client.remote().root()).is_ok());
        bed.service().set_time(150);
        assert!(client
            .client()
            .readdir_all(&client.remote().root())
            .is_err());
    }

    #[test]
    fn audit_log_records_requester_and_authorizers() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect_owner(&bob).unwrap();
        client
            .client()
            .readdir_all(&client.remote().root())
            .unwrap();

        let records = bed.service().audit().records();
        assert!(!records.is_empty());
        let read_record = records
            .iter()
            .rfind(|r| r.op() == "readdir" && r.allowed)
            .expect("readdir must be audited");
        assert_eq!(
            read_record.requester(),
            discfs_crypto::hex::encode(&bob.public().0)
        );
        // The admin key (credential issuer) appears as an authorizer.
        let admin_principal = keynote::key_principal(&bed.admin().public());
        assert!(read_record.authorizers().contains(&admin_principal));
    }

    #[test]
    fn policy_cache_hits_on_repeated_ops() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect_owner(&bob).unwrap();
        let root = client.remote().root();
        for _ in 0..20 {
            client.client().readdir_all(&root).unwrap();
        }
        let stats = bed.service().cache().stats();
        assert!(stats.hits() > 10, "hits = {}", stats.hits());
    }

    #[test]
    fn credential_count_reflects_submissions() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        assert_eq!(client.credential_count().unwrap(), 0);
        client.submit_credential(&root_grant(&bed, &bob)).unwrap();
        assert_eq!(client.credential_count().unwrap(), 1);
    }

    #[test]
    fn a_resubmitted_credential_is_a_no_op() {
        // Each copy used to be verified, stored and indexed, and to
        // bump the peer's epoch, discarding its cached decisions.
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        let root = client.remote().root();
        let grant = root_grant(&bed, &bob);
        client.submit_credential(&grant).unwrap();
        client.client().getattr(&root).unwrap();
        let stats = bed.service().cache().stats();
        let (hits, misses) = (stats.hits(), stats.misses());
        for _ in 1..5 {
            client.submit_credential(&grant).unwrap();
        }
        assert_eq!(client.credential_count().unwrap(), 1);
        client.client().getattr(&root).unwrap();
        assert_eq!(stats.misses(), misses, "the cached decision survives");
        assert_eq!(stats.hits(), hits + 1);
    }

    #[test]
    fn malformed_credential_rejected() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        assert!(matches!(
            client.submit_credential("not a keynote assertion"),
            Err(DiscfsClientError::CredentialRejected(
                rpc::DiscfsRpcStatus::BadCredential
            ))
        ));
    }

    #[test]
    fn two_clients_isolated_sessions() {
        let bed = Testbed::instant();
        let bob = key(2);
        let carol = key(5);
        let bob_client = bed.connect(&bob).unwrap();
        let carol_client = bed.connect(&carol).unwrap();
        bob_client
            .submit_credential(&root_grant(&bed, &bob))
            .unwrap();
        // Bob's credentials do not leak authority to Carol.
        assert!(bob_client
            .client()
            .readdir_all(&bob_client.remote().root())
            .is_ok());
        assert!(carol_client
            .client()
            .readdir_all(&carol_client.remote().root())
            .is_err());
    }

    #[test]
    fn public_access_grants_and_revokes() {
        let bed = Testbed::instant();
        let bob = key(2);
        let stranger = key(9);
        let mut bob_client = bed.connect_owner(&bob).unwrap();
        let file = bob_client
            .create_with_credential(&bob_client.remote().root(), "pub.txt", 0o644)
            .unwrap();
        bob_client
            .client()
            .write_all(&file.fh, 0, b"published")
            .unwrap();

        let visitor = bed.connect(&stranger).unwrap();
        assert!(visitor.client().read(&file.fh, 0, 9).is_err());

        bed.service().set_public_access(&file.fh, Perm::R);
        assert_eq!(
            visitor.client().read_all(&file.fh, 0, 9).unwrap(),
            b"published"
        );
        // Read-only: writes still need a credential chain.
        assert!(visitor.client().write(&file.fh, 0, b"deface").is_err());

        bed.service().set_public_access(&file.fh, Perm::NONE);
        assert!(visitor.client().read(&file.fh, 0, 9).is_err());
    }

    #[test]
    fn public_access_unions_with_credentials() {
        // A user holding W on a public-R file ends up with R|W... per
        // the union in permissions_for.
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect(&bob).unwrap();
        let w_only = CredentialIssuer::new(bed.admin())
            .holder(&bob.public())
            .grant_handle_string("1.1", Perm::W.union(Perm::X))
            .issue();
        client.submit_credential(&w_only).unwrap();
        // WX alone cannot list the root...
        assert!(client
            .client()
            .readdir_all(&client.remote().root())
            .is_err());
        // ...until the root is published readable.
        let root = client.remote().root();
        bed.service().set_public_access(&root, Perm::R);
        assert!(client.client().readdir_all(&root).is_ok());
        // And the reported mode reflects the union.
        let attr = client.client().getattr(&root).unwrap();
        assert_eq!(
            attr.mode & 0o777,
            0o777,
            "WX credential + public R = RWX view"
        );
    }

    #[test]
    fn one_policy_lookup_per_request() {
        // PR 4: authorize() threads the granted perms into present(),
        // so read/getattr resolve exactly one decision per request and
        // lookup exactly two (directory + child, distinct handles).
        let bed = Testbed::instant();
        let bob = key(2);
        let mut client = bed.connect_owner(&bob).unwrap();
        let root = client.remote().root();
        let file = client
            .create_with_credential(&root, "pinned.txt", 0o644)
            .unwrap();
        client.client().write_all(&file.fh, 0, b"data").unwrap();

        let stats = bed.service().auth_stats();
        let pin = |op: &str, expected: u64, run: &dyn Fn()| {
            let before = stats.decisions();
            run();
            assert_eq!(
                stats.decisions() - before,
                expected,
                "{op} must resolve exactly {expected} decision(s)"
            );
        };
        pin("getattr", 1, &|| {
            client.client().getattr(&file.fh).unwrap();
        });
        pin("read", 1, &|| {
            client.client().read(&file.fh, 0, 4).unwrap();
        });
        pin("lookup", 2, &|| {
            client.client().lookup(&root, "pinned.txt").unwrap();
        });
        pin("readdir", 1, &|| {
            client.client().readdir_all(&root).unwrap();
        });
        // Decisions and cache accounting agree.
        let cache = bed.service().cache().stats();
        assert_eq!(stats.decisions(), cache.hits() + cache.misses());
    }

    #[test]
    fn cache_hits_take_no_exclusive_locks() {
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect_owner(&bob).unwrap();
        let root = client.remote().root();
        // Warm the decision.
        client.client().getattr(&root).unwrap();
        client.client().getattr(&root).unwrap();

        let stats = bed.service().auth_stats();
        let hits_before = bed.service().cache().stats().hits();
        let exclusive_before = stats.exclusive();
        for _ in 0..32 {
            client.client().getattr(&root).unwrap();
        }
        assert_eq!(
            stats.exclusive() - exclusive_before,
            0,
            "cache-hit authorizations must not take exclusive locks"
        );
        assert_eq!(bed.service().cache().stats().hits() - hits_before, 32);
    }

    /// Figure 12's shape on virtual time: the same warmed client and
    /// 400-operation mix (per four: a GETATTR, a LOOKUP and two READs
    /// over 16 files, five decisions) cost over ten times less with the
    /// paper's 128-entry cache than with none, where every decision pays
    /// the full compliance check.
    #[test]
    fn a_128_entry_cache_absorbs_the_compliance_check_cost() {
        let virtual_time = |capacity: usize| {
            let bed = Testbed::with_backend(
                ffs::FsConfig::small(),
                netsim::LinkConfig::instant(),
                capacity,
                &ffs::StoreBackend::SimInstant,
            );
            let mut setup = bed.connect_owner(&key(0xCE)).unwrap();
            let root = setup.remote().root();
            let files: Vec<nfsv2::FHandle> = (0..16u8)
                .map(|i| {
                    let name = format!("f{i}.dat");
                    let fh = setup
                        .create_with_credential(&root, &name, 0o644)
                        .unwrap()
                        .fh;
                    setup.client().write_all(&fh, 0, &[i; 4096]).unwrap();
                    fh
                })
                .collect();
            let worker_key = key(0x60);
            let worker = bed.connect_owner(&worker_key).unwrap();
            for fh in &files {
                let grant = CredentialIssuer::new(bed.admin())
                    .holder(&worker_key.public())
                    .grant(fh, Perm::R)
                    .issue();
                worker.submit_credential(&grant).unwrap();
            }
            let nfs = worker.client();
            nfs.getattr(&root).unwrap();
            for (i, fh) in files.iter().enumerate() {
                nfs.getattr(fh).unwrap();
                nfs.lookup(&root, &format!("f{i}.dat")).unwrap();
                nfs.read(fh, 0, 4096).unwrap();
            }
            bed.clock().reset();
            let mut x = 0xF1E1u64;
            for op in 0..400 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (x % files.len() as u64) as usize;
                let done = match op % 4 {
                    0 => nfs.getattr(&files[j]).map(|_| ()),
                    1 => nfs.lookup(&root, &format!("f{j}.dat")).map(|_| ()),
                    _ => nfs.read(&files[j], 0, 4096).map(|_| ()),
                };
                done.unwrap();
            }
            bed.clock().now()
        };
        let (cacheless, cached) = (virtual_time(0), virtual_time(128));
        assert!(
            cached * 10 < cacheless,
            "the 128-entry cache must absorb >= 90% of the compliance-check cost \
             ({cached:?} vs {cacheless:?} cacheless)"
        );
    }

    #[test]
    fn revocation_invalidates_by_epoch_not_just_cache_clear() {
        // The PR 4 satellite bugfix: purging revoked credentials bumps
        // every peer's credential epoch, so even a cache that somehow
        // retained (or re-learned) pre-revocation entries could never
        // serve them — the post-revocation decision must be a miss.
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect_owner(&bob).unwrap();
        let root = client.remote().root();
        client.client().getattr(&root).unwrap();
        client.client().getattr(&root).unwrap(); // warm: hits

        bed.service().revoke_key(&bob.public(), None);
        let misses_before = bed.service().cache().stats().misses();
        let attr = client.client().getattr(&root).unwrap();
        assert_eq!(attr.mode & 0o777, 0, "revoked key sees mode 000");
        assert!(
            bed.service().cache().stats().misses() > misses_before,
            "first post-revocation decision must be a cache miss"
        );
    }

    #[test]
    fn lapsed_revocation_cannot_pin_a_stale_denial() {
        // A forget_after revocation lapses when virtual time passes its
        // horizon. set_time expires the revocation list *before*
        // bumping the global epoch (mutate-then-bump), so the denial
        // cached while revoked can never be re-learned under the new
        // epoch: the first post-lapse decision re-evaluates cleanly.
        let bed = Testbed::instant();
        let bob = key(2);
        let client = bed.connect_owner(&bob).unwrap();
        let root = client.remote().root();
        client.client().readdir_all(&root).unwrap();

        bed.service().revoke_key(&bob.public(), Some(100));
        // Denied while revoked — and the NONE decision gets cached.
        for _ in 0..3 {
            assert!(client.client().readdir_all(&root).is_err());
        }
        // Time passes the forget horizon: the revocation lapses. Bob's
        // admin-signed credential survived the purge (its authorizer
        // was never revoked), so access must come back immediately.
        bed.service().set_time(150);
        client
            .client()
            .readdir_all(&root)
            .expect("lapsed revocation must not leave a stale cached denial");
    }
}
