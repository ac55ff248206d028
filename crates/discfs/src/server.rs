//! The DisCFS server: a user-level NFS service whose every decision is
//! a KeyNote compliance check.
//!
//! Request flow (paper §4–§5):
//!
//! 1. The IPsec channel authenticates the client key; the server binds
//!    every request on the connection to that key ([`RequestCtx::peer`]).
//! 2. A **persistent KeyNote session** per client key holds the
//!    administrator policy plus every credential the client has
//!    submitted over the side RPC program.
//! 3. Each NFS operation asks the session what permissions the peer
//!    holds on the file's `HANDLE`; results go through the
//!    [`PolicyCache`] (default 128 entries, as in Figure 12).
//! 4. Attach semantics: everything is visible with **mode 000** until
//!    credentials arrive; GETATTR reports the *granted* permissions as
//!    the file mode, so unmodified NFS clients behave sensibly.
//! 5. CREATE/MKDIR via the side program return a fresh RWX credential
//!    for the creator, signed by the server's key (which the root
//!    policy trusts) — the paper's added procedures.
//!
//! # Authorization hot path
//!
//! A decision that is already cached (the whole point of Figure 12's
//! policy cache) locks no session and takes no lock exclusively:
//!
//! * The peer-session table is one `RwLock<HashMap>` from client key
//!   to that key's `Arc`'d session state. The hot path takes the
//!   *read* lock just long enough to clone the `Arc`.
//! * Each peer's state carries an `AtomicU64` **credential epoch**
//!   (bumped on `SUBMIT_CRED` and revocation purge) read with a plain
//!   atomic load; the KeyNote [`Session`] and the creator grants,
//!   behind one `Mutex`, are only locked on cache misses and credential
//!   mutations.
//! * The environment (`hour`, `time`, global epoch) is three atomics;
//!   the per-decision virtual-time charge is a read-mostly
//!   `Arc`-swap cell.
//! * The [`PolicyCache`] is one `RwLock<HashMap>` too; a hit takes its
//!   read lock and stamps the entry through an atomic.
//!
//! [`DiscfsService::auth_stats`] counts every exclusive-lock
//! acquisition on this path so benchmarks can pin the invariant:
//! a cache-hit authorization performs **zero** exclusive acquisitions.
//!
//! A **miss** costs what the delegation chain for that handle costs,
//! however many credentials the session holds: the KeyNote session
//! files each credential under the `HANDLE == "…"` equality its
//! conditions require and evaluates only the ones filed under the
//! handle asked about (see "Cost of a query" in the `keynote` crate
//! docs). The session is told who asks (`_ACTION_AUTHORIZERS`) and the
//! `app_domain` once, when it is created; a miss writes the handle,
//! hour and time into the attributes' existing buffers. With 401
//! credentials a miss is ~1.4 µs (85 µs when every credential was
//! evaluated), so the 128-entry cache now hides microseconds, not a
//! scan. Everything that arrives as text (`SUBMIT_CRED`) is parsed and
//! verified.
//!
//! # Creator grants
//!
//! The credential CREATE/MKDIR returns is signed and sent, but the
//! creator's KeyNote session never sees it. The peer keeps a *creator
//! grant* beside the session instead: the new file's `(inode,
//! generation)` mapped to the credential's id (the SHA-256 of its text,
//! [`keynote::Assertion::id`]), about 40 bytes with the map's overhead
//! where the parsed assertion held ~1.8 KB. A miss on a handle that has
//! a grant answers `RWX` without a query: the credential grants `RWX`,
//! the top of the lattice, so KeyNote could answer nothing wider. Every
//! other handle goes to KeyNote as before.
//!
//! * *No epoch bump.* KeyNote compliance is monotone in the assertion
//!   set (RFC 2704): a new credential can only widen a decision. The
//!   grant names only the new `(inode, generation)`, so it can change
//!   only a decision about that handle. A creator who probed the handle
//!   before it existed has cached a denial of it: the create removes
//!   that one entry ([`PolicyCache`]), and every other cached decision
//!   of the creator stays, where a bump threw them all away.
//! * *No cap slot.* `MAX_PEER_CREDENTIALS` counts submitted
//!   credentials only; grants are bounded by the inodes the peer
//!   creates. Resubmitting one's own creator credential is a no-op.
//! * *Revocation.* Revoking a grant's id drops the grant; revoking the
//!   server key drops them all. While any remains, the audit authorizer
//!   set keeps the server key, which is what signed them.
//! * *The miss is still charged.* A decision a grant answers costs the
//!   policy charge's `cache_miss` and fills a cache entry, as the query
//!   it replaces did: what a decision should cost is the cost model's
//!   question, not this one's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use discfs_crypto::sha256::Sha256;
use discfs_crypto::{hex, Digest};
use ffs::Ffs;
use keynote::Session;
use nfsv2::{
    DirOpArgs, FHandle, Fattr, FfsService, NfsService, NfsStat, ReaddirEntry, RequestCtx, Sattr,
    StatfsRes,
};
use onc_rpc::{AcceptStat, Decoder, Encoder};
use parking_lot::{Mutex, RwLock};
use std::time::Duration;

use crate::audit::AuditLog;
use crate::cache::{CacheKey, PolicyCache};
use crate::cred::{root_policy, CredentialIssuer};
use crate::perm::Perm;
use crate::revocation::RevocationList;
use crate::rpc::{
    encode_create_res, proc_discfs, CreateWithCredRes, DiscfsRpcStatus, DISCFS_PROGRAM,
};

/// Submitted credentials one peer's session may hold; `SUBMIT_CRED`
/// refuses more. Creator grants take no slot (see the module docs).
/// Each credential has one authorizer, so this also bounds the distinct
/// issuers a peer can make an audit record pin.
const MAX_PEER_CREDENTIALS: usize = 4096;

/// Bytes of one assertion's text that `SUBMIT_CRED` accepts.
const MAX_ASSERTION_BYTES: usize = 8 << 10;

/// Server configuration.
pub struct DiscfsConfig {
    /// Filesystem id baked into handles.
    pub(crate) fsid: u32,
    /// Local policy assertions (authorizer `POLICY`).
    pub(crate) policy: Vec<String>,
    /// The server's signing key (issues CREATE/MKDIR credentials).
    pub(crate) server_key: SigningKey,
    /// Keys allowed to drive revocation remotely.
    pub(crate) admin_keys: Vec<VerifyingKey>,
    /// Policy-result cache capacity (paper: 128).
    pub cache_size: usize,
    /// Audit log capacity.
    pub(crate) audit_capacity: usize,
}

impl DiscfsConfig {
    /// The standard setup: `admin` and the server key are policy roots;
    /// `admin` may revoke; cache size 128.
    pub fn standard(admin: VerifyingKey, server_key: SigningKey) -> DiscfsConfig {
        let policy = vec![root_policy(&[admin, server_key.public()])];
        DiscfsConfig {
            fsid: 1,
            policy,
            server_key,
            admin_keys: vec![admin],
            cache_size: 128,
            audit_capacity: 4096,
        }
    }
}

/// Per-client-key session state, shared between the peer map and any
/// request currently using it.
struct PeerState {
    /// Credential epoch: the high bits are a server-wide session
    /// counter (so a reconnected peer never matches the old session's
    /// cache entries), the low bits count credential changes.
    epoch: AtomicU64,
    /// What the peer holds — locked only on cache misses and credential
    /// mutations, never on the cache-hit path.
    held: Mutex<Held>,
    /// The audit authorizer set: the distinct issuer keys of the
    /// session's credentials, and the server key while a creator grant
    /// remains, sorted. Replaced only when that set changes, so every
    /// audit record between two changes shares one allocation, and
    /// appending a record is a refcount bump.
    authorizers: RwLock<Arc<[VerifyingKey]>>,
}

/// A peer's credentials: the submitted ones in its persistent KeyNote
/// session, and the creator grants beside it.
struct Held {
    session: Session,
    /// Creator grants: `(inode, generation)` of a file the peer created
    /// → the id of the `RWX` credential issued for it.
    created: HashMap<(u32, u32), [u8; 32]>,
}

impl Held {
    /// Whether a creator grant's credential has the id `id` (hex).
    fn holds_creator_grant(&self, id: &str) -> bool {
        hex::decode_array::<32>(id).is_ok_and(|id| self.created.values().any(|held| *held == id))
    }
}

impl PeerState {
    /// The shared authorizer-set handle for audit records.
    fn authorizers(&self) -> Arc<[VerifyingKey]> {
        self.authorizers.read().clone()
    }

    /// Puts `issuer` into the authorizer set, at the cost of one search
    /// of the sorted set rather than a sort of all the peer's issuers:
    /// the set is copied only when the issuer is new. Call with the
    /// peer's `held` locked.
    fn issuer_added(&self, issuer: &VerifyingKey) {
        let set = self.authorizers();
        if let Err(at) = set.binary_search(issuer) {
            let mut grown = set.to_vec();
            grown.insert(at, *issuer);
            *self.authorizers.write() = grown.into();
        }
    }

    /// [`PeerState::credentials_changed`] for a session that has just
    /// gained its last credential.
    fn credential_added(&self, session: &Session) {
        let issuer = session
            .credentials()
            .last()
            .and_then(|a| a.authorizer().as_key());
        if let Some(issuer) = issuer {
            self.issuer_added(issuer);
        }
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Bumps the credential epoch, and replaces the authorizer set if
    /// the change added an issuer or removed one's last credential.
    /// Call with the credentials mutated (added or purged) while still
    /// holding their lock, so a concurrent miss that observes the new
    /// epoch also observes the new credential set.
    fn credentials_changed(&self, held: &Held, server: &VerifyingKey) {
        let mut issuers: Vec<VerifyingKey> = held.session.credential_issuers().copied().collect();
        if !held.created.is_empty() && !issuers.contains(server) {
            issuers.push(*server);
        }
        issuers.sort_unstable();
        if **self.authorizers.read() != issuers[..] {
            *self.authorizers.write() = issuers.into();
        }
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

/// Exclusive lock-acquisition and decision counters for the
/// authorization path — the instrumentation behind the "cache hits
/// take no exclusive lock" guarantee (see the module docs).
#[derive(Debug, Default)]
pub struct AuthStats {
    exclusive: AtomicU64,
    decisions: AtomicU64,
}

impl AuthStats {
    /// Exclusive acquisitions on the authorization path: peer-map
    /// write locks, session mutexes, and policy-cache inserts. Zero
    /// across a run means every decision was served lock-free from the
    /// cache.
    pub fn exclusive(&self) -> u64 {
        self.exclusive.load(Ordering::Relaxed)
    }

    /// Policy decisions resolved ([`DiscfsService::permissions_for`]
    /// calls). Each performs exactly one policy-cache lookup, so
    /// `decisions == cache hits + cache misses` at all times.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }
}

/// The DisCFS service.
pub struct DiscfsService {
    storage: FfsService,
    server_key: SigningKey,
    admin_keys: Vec<VerifyingKey>,
    policy: Vec<String>,
    peers: RwLock<HashMap<[u8; 32], Arc<PeerState>>>,
    /// Server-wide session counter feeding new peers' epoch high bits.
    epoch_counter: AtomicU64,
    cache: PolicyCache,
    revocations: RwLock<RevocationList>,
    audit: AuditLog,
    /// Environment attributes exposed to policy conditions — atomics,
    /// read on every decision without taking any lock.
    env_hour: AtomicU32,
    env_time: AtomicU64,
    /// Global invalidation epoch: bumped by time/hour changes, public
    /// grant changes, and revocations.
    env_epoch: AtomicU64,
    /// Optional virtual-time charge per policy decision, so benchmarks
    /// account the KeyNote evaluation cost on the simulated clock.
    /// Read-mostly Arc-swap cell: readers clone the Arc under a read
    /// lock held for nanoseconds; writers swap the whole Arc.
    policy_charge: RwLock<Option<Arc<PolicyCharge>>>,
    /// Baseline permissions granted to *any* authenticated key, keyed by
    /// `(inode, generation)` — the paper's §7 future-work scenario of
    /// "untrusted users characteristic of the WWW" (anonymous browsing).
    public_grants: RwLock<HashMap<(u32, u32), Perm>>,
    auth_stats: AuthStats,
}

/// Virtual-time cost model for policy decisions.
#[derive(Clone)]
pub struct PolicyCharge {
    /// The clock to charge.
    pub clock: netsim::SimClock,
    /// Cost of a policy-cache hit.
    pub cache_hit: Duration,
    /// Cost of a full KeyNote compliance check.
    pub cache_miss: Duration,
}

impl DiscfsService {
    /// Creates a service exporting `fs`.
    pub fn new(fs: Arc<Ffs>, config: DiscfsConfig) -> DiscfsService {
        DiscfsService {
            storage: FfsService::new(fs, config.fsid),
            server_key: config.server_key,
            admin_keys: config.admin_keys,
            policy: config.policy,
            peers: RwLock::new(HashMap::new()),
            epoch_counter: AtomicU64::new(1),
            cache: PolicyCache::new(config.cache_size),
            revocations: RwLock::new(RevocationList::new()),
            audit: AuditLog::new(config.audit_capacity),
            env_hour: AtomicU32::new(12),
            env_time: AtomicU64::new(0),
            env_epoch: AtomicU64::new(0),
            policy_charge: RwLock::new(None),
            public_grants: RwLock::new(HashMap::new()),
            auth_stats: AuthStats::default(),
        }
    }

    /// Grants `perms` on `fh` to every authenticated client, with no
    /// credential required — anonymous-Web-style publication (§7 future
    /// work). The requester still authenticates a key (for auditing),
    /// but needs no delegation chain. Pass [`Perm::NONE`] to unpublish.
    pub fn set_public_access(&self, fh: &FHandle, perms: Perm) {
        let (_, ino, generation) = fh.unpack();
        {
            let mut grants = self.public_grants.write();
            if perms.is_none() {
                grants.remove(&(ino, generation));
            } else {
                grants.insert((ino, generation), perms);
            }
        }
        // Cached decisions may now be stale in either direction.
        self.env_epoch.fetch_add(1, Ordering::Release);
    }

    /// Installs a virtual-time cost model for policy decisions: each
    /// cache hit or full KeyNote check advances the simulated clock, so
    /// the benchmark testbed's figures include the cost of access
    /// control (paper §6).
    pub fn set_policy_charge(&self, charge: PolicyCharge) {
        *self.policy_charge.write() = Some(Arc::new(charge));
    }

    fn charge(&self) -> Option<Arc<PolicyCharge>> {
        self.policy_charge.read().clone()
    }

    /// The exported storage service.
    pub fn storage(&self) -> &FfsService {
        &self.storage
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The policy cache (stats for benches).
    pub fn cache(&self) -> &PolicyCache {
        &self.cache
    }

    /// Forgets every cached decision, so that each peer's next decision
    /// on each handle runs in full: a measurement's cold start. What
    /// any peer may do is unchanged.
    pub fn clear_policy_cache(&self) {
        self.cache.clear();
    }

    /// Authorization-path lock and decision counters.
    pub fn auth_stats(&self) -> &AuthStats {
        &self.auth_stats
    }

    /// Peers with live server-side session state (a KeyNote session and
    /// its credentials). A departed client's entry is removed by
    /// `connection_closed`.
    pub fn peer_session_count(&self) -> usize {
        self.peers.read().len()
    }

    /// Sets the hour-of-day seen by `hour` conditions. Invalidates
    /// cached decisions.
    ///
    /// Mutate-then-bump discipline (shared with `purge_revoked` and
    /// `set_public_access`): every state change — the hour itself and
    /// the opportunistic revocation expiry — lands *before* the epoch
    /// bump, so a decision cached under the new epoch can only reflect
    /// the new state. (A decision that raced the mutation caches under
    /// the old epoch, which the bump retires.)
    pub fn set_hour(&self, hour: u32) {
        self.env_hour.store(hour % 24, Ordering::Relaxed);
        // Let the revocation list forget expired entries opportunistically.
        let time = self.env_time.load(Ordering::Relaxed);
        self.revocations.write().expire(time);
        self.env_epoch.fetch_add(1, Ordering::Release);
    }

    /// Sets the virtual wall time seen by `time` conditions (credential
    /// expiry). Invalidates cached decisions. Same mutate-then-bump
    /// ordering as [`DiscfsService::set_hour`] — expiring lapsed
    /// revocations before the bump, so a `forget_after` revocation
    /// that ends at `time` cannot leave a stale `NONE` cached under
    /// the new epoch.
    pub fn set_time(&self, time: u64) {
        self.env_time.store(time, Ordering::Relaxed);
        self.revocations.write().expire(time);
        self.env_epoch.fetch_add(1, Ordering::Release);
    }

    /// Revokes a key server-side (local administration path).
    pub fn revoke_key(&self, key: &VerifyingKey, forget_after: Option<u64>) {
        self.revocations.write().revoke_key(key, forget_after);
        self.purge_revoked();
    }

    /// Revokes a credential by id server-side.
    pub(crate) fn revoke_credential(&self, id: &str, forget_after: Option<u64>) {
        self.revocations.write().revoke_credential(id, forget_after);
        self.purge_revoked();
    }

    /// Removes revoked credentials and creator grants from every live
    /// session and invalidates cached decisions — twice over: every
    /// touched peer's credential epoch is bumped (so a stale
    /// [`CacheKey`] can never resurrect a revoked grant, even if the
    /// shared cache were replaced or resized concurrently), the global
    /// epoch is bumped, and the decision cache is flushed.
    fn purge_revoked(&self) {
        let revocations = self.revocations.read();
        let server = self.server_key.public();
        let server_revoked = revocations.is_key_revoked(&server);
        // Read lock on the peer map: peers mutate through their own
        // Arc'd state, the map itself is untouched.
        for state in self.peers.read().values() {
            let mut held = state.held.lock();
            held.session.retain_credentials(|a| {
                if revocations.is_credential_revoked(a.id()) {
                    return false;
                }
                match a.authorizer().as_key() {
                    Some(key) => !revocations.is_key_revoked(key),
                    None => true,
                }
            });
            held.created.retain(|_, id| {
                !server_revoked && !revocations.is_credential_revoked(&hex::encode(id))
            });
            state.credentials_changed(&held, &server);
        }
        drop(revocations);
        self.env_epoch.fetch_add(1, Ordering::Release);
        self.cache.clear();
    }

    /// The peer's shared session state, created on first use. The
    /// steady-state path is a read lock plus an Arc clone.
    fn peer_state(&self, peer: &VerifyingKey) -> Arc<PeerState> {
        if let Some(state) = self.peers.read().get(&peer.0) {
            return state.clone();
        }
        self.auth_stats.exclusive.fetch_add(1, Ordering::Relaxed);
        self.peers
            .write()
            .entry(peer.0)
            .or_insert_with(|| {
                let mut session = Session::new(&Perm::VALUE_SET);
                for p in &self.policy {
                    session
                        .add_policy(p)
                        .expect("configured policy assertions must parse");
                }
                // The session serves one key for its whole life: who
                // asks and in which domain never change, so `decide`
                // only describes what does (handle, hour, time).
                session.set_attribute("app_domain", "DisCFS");
                session.add_requester_key(peer);
                let counter = self.epoch_counter.fetch_add(1, Ordering::Relaxed) + 1;
                Arc::new(PeerState {
                    epoch: AtomicU64::new(counter << 20),
                    held: Mutex::new(Held {
                        session,
                        created: HashMap::new(),
                    }),
                    authorizers: RwLock::new(Arc::new([])),
                })
            })
            .clone()
    }

    /// Computes the permissions `peer` holds on `fh` (cached).
    pub fn permissions_for(&self, peer: &VerifyingKey, fh: &FHandle) -> Perm {
        let state = self.peer_state(peer);
        self.decide(peer, &state, fh)
    }

    /// Resolves one policy decision. The cache-hit path is read locks
    /// and atomic loads only; misses fall through to the KeyNote query
    /// under the peer's session lock.
    fn decide(&self, peer: &VerifyingKey, state: &PeerState, fh: &FHandle) -> Perm {
        self.auth_stats.decisions.fetch_add(1, Ordering::Relaxed);
        let env_epoch = self.env_epoch.load(Ordering::Acquire);
        let peer_epoch = state.epoch.load(Ordering::Acquire);
        let (_, ino, generation) = fh.unpack();
        let key = CacheKey {
            peer: peer.0,
            handle: (ino, generation),
            epoch: (peer_epoch, env_epoch),
        };
        if let Some(perm) = self.cache.get(&key) {
            if let Some(charge) = self.charge() {
                charge.clock.advance(charge.cache_hit);
            }
            return perm;
        }
        // Miss path: revocation screen, creator grant or full
        // compliance check, public baseline, insert. Revocation is
        // checked here rather than per request — any revocation bumps
        // the epochs above, so no cached decision can outlive it.
        // (Scoped so the read guard is not held across the KeyNote
        // query.)
        let key_revoked = { self.revocations.read().is_key_revoked(peer) };
        let perm = if key_revoked {
            Perm::NONE
        } else {
            self.auth_stats.exclusive.fetch_add(1, Ordering::Relaxed);
            let mut held = state.held.lock();
            let queried = if held.created.contains_key(&(ino, generation)) {
                // The creator's RWX: the top of the lattice, so the
                // query could answer nothing wider.
                Perm::RWX
            } else {
                let session = &mut held.session;
                // Written into the attributes' own buffers: no allocation.
                session.set_attribute_fmt("HANDLE", format_args!("{}", fh.credential_name()));
                session.set_attribute_fmt(
                    "hour",
                    format_args!("{}", self.env_hour.load(Ordering::Relaxed)),
                );
                session.set_attribute_fmt(
                    "time",
                    format_args!("{}", self.env_time.load(Ordering::Relaxed)),
                );
                match session.query() {
                    Ok(value) => Perm::from_value_string(value.as_str()),
                    Err(_) => Perm::NONE,
                }
            };
            drop(held);
            // Public (anonymous-Web) baseline applies to everyone.
            queried.union(
                self.public_grants
                    .read()
                    .get(&(ino, generation))
                    .copied()
                    .unwrap_or(Perm::NONE),
            )
        };
        if let Some(charge) = self.charge() {
            charge.clock.advance(charge.cache_miss);
        }
        self.auth_stats.exclusive.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key, perm);
        perm
    }

    /// The permissions the requester holds on `fh` (NONE when the
    /// channel carries no identity) — the attach-semantics input to
    /// [`DiscfsService::present`].
    fn granted_for(&self, ctx: &RequestCtx, fh: &FHandle) -> Perm {
        match ctx.peer {
            Some(peer) => self.permissions_for(&peer, fh),
            None => Perm::NONE,
        }
    }

    /// Authorizes an operation: the peer must hold `required` on `fh`.
    /// Returns the full granted permission set so callers can thread it
    /// into [`DiscfsService::present`] without a second lookup.
    fn authorize(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        required: Perm,
        op: &'static str,
    ) -> Result<Perm, NfsStat> {
        let Some(peer) = ctx.peer else {
            // No channel identity at all: nothing can be authorized.
            return Err(NfsStat::Acces);
        };
        let state = self.peer_state(&peer);
        let granted = self.decide(&peer, &state, fh);
        let allowed = granted.contains(required);
        // Log "key A was used and key B authorized" (§4.2): the issuers
        // of the session's credentials are the candidate authorizers —
        // a shared handle, replaced only when the issuer set changes.
        let (_, ino, generation) = fh.unpack();
        self.audit.record(
            self.env_time.load(Ordering::Relaxed),
            &peer.0,
            op,
            (ino, generation),
            required,
            granted,
            allowed,
            state.authorizers(),
        );
        if allowed {
            Ok(granted)
        } else {
            Err(NfsStat::Acces)
        }
    }

    /// Issues the creator credential for a freshly created file (paper
    /// §5's added CREATE/MKDIR procedures) and keeps its creator grant
    /// beside the creator's session: no epoch bump and no cap slot (see
    /// the module docs). What a revoked server key signs grants nothing
    /// here, as a submitted credential it signed would not.
    fn issue_creator_credential(&self, peer: &VerifyingKey, fh: &FHandle, name: &str) -> String {
        let credential = CredentialIssuer::new(&self.server_key)
            .holder(peer)
            .grant(fh, Perm::RWX)
            .comment(name)
            .issue();
        let id = Sha256::digest(credential.as_bytes())
            .try_into()
            .expect("SHA-256 is 32 bytes");
        let (_, ino, generation) = fh.unpack();
        let server = self.server_key.public();
        let state = self.peer_state(peer);
        // The revocation list, then the grants: `purge_revoked`'s lock
        // order, so a purge for the server key sees this grant.
        let revocations = self.revocations.read();
        if !revocations.is_key_revoked(&server) {
            let mut held = state.held.lock();
            held.created.insert((ino, generation), id);
            state.issuer_added(&server);
            // The one decision the grant can change: a denial the
            // creator cached by probing the handle before it existed.
            self.cache.remove(&CacheKey {
                peer: peer.0,
                handle: (ino, generation),
                epoch: (
                    state.epoch.load(Ordering::Acquire),
                    self.env_epoch.load(Ordering::Acquire),
                ),
            });
        }
        credential
    }

    fn submit_credential(&self, peer: &VerifyingKey, text: &str) -> DiscfsRpcStatus {
        if text.len() > MAX_ASSERTION_BYTES {
            return DiscfsRpcStatus::BadCredential;
        }
        let Ok(assertion) = keynote::Assertion::parse(text) else {
            return DiscfsRpcStatus::BadCredential;
        };
        // Revocation screening before the session sees it.
        {
            let revocations = self.revocations.read();
            if revocations.is_credential_revoked(assertion.id()) {
                return DiscfsRpcStatus::Revoked;
            }
            if let Some(key) = assertion.authorizer().as_key() {
                if revocations.is_key_revoked(key) {
                    return DiscfsRpcStatus::Revoked;
                }
            }
        }
        let state = self.peer_state(peer);
        let mut held = state.held.lock();
        // A resubmit changes nothing: no verification, no second copy,
        // and no epoch bump to throw away the peer's cached decisions.
        // The same holds for the creator's own creator credential.
        if held.session.holds_credential(assertion.id())
            || (assertion.authorizer().as_key() == Some(&self.server_key.public())
                && held.holds_creator_grant(assertion.id()))
        {
            return DiscfsRpcStatus::Ok;
        }
        if held.session.credentials().len() >= MAX_PEER_CREDENTIALS {
            return DiscfsRpcStatus::BadCredential;
        }
        match held.session.add_assertion(assertion) {
            Ok(()) => {
                state.credential_added(&held.session);
                DiscfsRpcStatus::Ok
            }
            Err(_) => DiscfsRpcStatus::BadCredential,
        }
    }

    fn create_with_cred(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        mode: u32,
        mkdir: bool,
    ) -> Result<CreateWithCredRes, NfsStat> {
        let peer = ctx.peer.ok_or(NfsStat::Acces)?;
        self.authorize(
            ctx,
            &args.dir,
            Perm::W.union(Perm::X),
            if mkdir { "mkdir" } else { "create" },
        )?;
        let sattr = Sattr::with_mode(mode);
        let (fh, attr) = if mkdir {
            self.storage.mkdir(ctx, args, &sattr)?
        } else {
            self.storage.create(ctx, args, &sattr)?
        };
        let credential = self.issue_creator_credential(&peer, &fh, &args.name);
        Ok(CreateWithCredRes {
            fh,
            attr,
            credential,
        })
    }

    /// Rewrites attributes so the reported mode/owner reflect *granted*
    /// rights, not the stored Unix bits (attach semantics, §5). The
    /// caller supplies `granted` — typically straight from
    /// [`DiscfsService::authorize`] — so presentation never re-queries
    /// the policy for a handle that was just decided.
    fn present(&self, ctx: &RequestCtx, granted: Perm, mut attr: Fattr) -> Fattr {
        attr.mode = (attr.mode & 0o170000) | granted.mode_bits();
        if ctx.uid != u32::MAX {
            attr.uid = ctx.uid;
            attr.gid = ctx.gid;
        }
        attr
    }
}

impl NfsService for DiscfsService {
    fn mount(&self, ctx: &RequestCtx, path: &str) -> Result<FHandle, NfsStat> {
        // Attach always succeeds for authenticated peers; without
        // credentials the tree simply shows mode 000.
        if ctx.peer.is_none() {
            return Err(NfsStat::Acces);
        }
        self.storage.mount(ctx, path)
    }

    fn getattr(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<Fattr, NfsStat> {
        let attr = self.storage.getattr(ctx, fh)?;
        let granted = self.granted_for(ctx, fh);
        Ok(self.present(ctx, granted, attr))
    }

    fn setattr(&self, ctx: &RequestCtx, fh: &FHandle, sattr: &Sattr) -> Result<Fattr, NfsStat> {
        // Only size/time updates are meaningful: access control lives in
        // credentials, so chmod/chown are accepted but inert (§5: the
        // setattr procedure "becomes superfluous").
        let granted = self.authorize(ctx, fh, Perm::W, "setattr")?;
        let attr = self.storage.setattr(ctx, fh, sattr)?;
        Ok(self.present(ctx, granted, attr))
    }

    fn lookup(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(FHandle, Fattr), NfsStat> {
        self.authorize(ctx, &args.dir, Perm::X, "lookup")?;
        let (fh, attr) = self.storage.lookup(ctx, args)?;
        // One decision for the directory, one for the child (its mode
        // must reflect the rights granted on *it*) — distinct handles,
        // so neither lookup is redundant.
        let granted = self.granted_for(ctx, &fh);
        let attr = self.present(ctx, granted, attr);
        Ok((fh, attr))
    }

    fn readlink(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<String, NfsStat> {
        self.authorize(ctx, fh, Perm::R, "readlink")?;
        self.storage.readlink(ctx, fh)
    }

    fn read(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        count: u32,
    ) -> Result<(Fattr, Vec<u8>), NfsStat> {
        let granted = self.authorize(ctx, fh, Perm::R, "read")?;
        let (attr, data) = self.storage.read(ctx, fh, offset, count)?;
        Ok((self.present(ctx, granted, attr), data))
    }

    fn write(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        data: &[u8],
    ) -> Result<Fattr, NfsStat> {
        let granted = self.authorize(ctx, fh, Perm::W, "write")?;
        let attr = self.storage.write(ctx, fh, offset, data)?;
        Ok(self.present(ctx, granted, attr))
    }

    fn create(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        // The plain NFS CREATE path works but yields no credential —
        // exactly the §5 pitfall ("he would not be able to access the
        // newly created file"); clients should use the side program.
        self.authorize(ctx, &args.dir, Perm::W.union(Perm::X), "create")?;
        let (fh, attr) = self.storage.create(ctx, args, sattr)?;
        let granted = self.granted_for(ctx, &fh);
        let attr = self.present(ctx, granted, attr);
        Ok((fh, attr))
    }

    fn remove(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        self.authorize(ctx, &args.dir, Perm::W.union(Perm::X), "remove")?;
        self.storage.remove(ctx, args)
    }

    fn rename(&self, ctx: &RequestCtx, from: &DirOpArgs, to: &DirOpArgs) -> Result<(), NfsStat> {
        self.authorize(ctx, &from.dir, Perm::W.union(Perm::X), "rename")?;
        self.authorize(ctx, &to.dir, Perm::W.union(Perm::X), "rename")?;
        self.storage.rename(ctx, from, to)
    }

    fn link(&self, ctx: &RequestCtx, from: &FHandle, to: &DirOpArgs) -> Result<(), NfsStat> {
        self.authorize(ctx, from, Perm::R, "link")?;
        self.authorize(ctx, &to.dir, Perm::W.union(Perm::X), "link")?;
        self.storage.link(ctx, from, to)
    }

    fn symlink(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        target: &str,
        sattr: &Sattr,
    ) -> Result<(), NfsStat> {
        self.authorize(ctx, &args.dir, Perm::W.union(Perm::X), "symlink")?;
        self.storage.symlink(ctx, args, target, sattr)
    }

    fn mkdir(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        self.authorize(ctx, &args.dir, Perm::W.union(Perm::X), "mkdir")?;
        let (fh, attr) = self.storage.mkdir(ctx, args, sattr)?;
        let granted = self.granted_for(ctx, &fh);
        let attr = self.present(ctx, granted, attr);
        Ok((fh, attr))
    }

    fn rmdir(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        self.authorize(ctx, &args.dir, Perm::W.union(Perm::X), "rmdir")?;
        self.storage.rmdir(ctx, args)
    }

    fn readdir(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        cookie: u32,
        count: u32,
    ) -> Result<(Vec<ReaddirEntry>, bool), NfsStat> {
        self.authorize(ctx, fh, Perm::R, "readdir")?;
        self.storage.readdir(ctx, fh, cookie, count)
    }

    fn statfs(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<StatfsRes, NfsStat> {
        if ctx.peer.is_none() {
            return Err(NfsStat::Acces);
        }
        self.storage.statfs(ctx, fh)
    }

    fn extension(
        &self,
        ctx: &RequestCtx,
        prog: u32,
        proc_num: u32,
        args: &[u8],
    ) -> Option<Result<Vec<u8>, AcceptStat>> {
        if prog != DISCFS_PROGRAM {
            return None;
        }
        Some(self.discfs_dispatch(ctx, proc_num, args))
    }

    fn connection_closed(&self, ctx: &RequestCtx) {
        // The persistent KeyNote session ends with the connection; the
        // client resubmits credentials next time (credential caching is
        // the client wallet's job, §4.1).
        if let Some(peer) = ctx.peer {
            self.peers.write().remove(&peer.0);
        }
    }

    fn connection_aborted(&self, ctx: &RequestCtx, reason: &str) {
        // A protocol violation (malformed frame, broken record stream)
        // is an auditable event: log which authenticated key sent
        // garbage before the session state is torn down.
        let peer = ctx.peer.map(|p| p.0).unwrap_or([0u8; 32]);
        self.audit
            .record_abort(self.env_time.load(Ordering::Relaxed), &peer, reason);
    }
}

impl DiscfsService {
    fn discfs_dispatch(
        &self,
        ctx: &RequestCtx,
        proc_num: u32,
        args: &[u8],
    ) -> Result<Vec<u8>, AcceptStat> {
        let mut d = Decoder::new(args);
        let peer = match ctx.peer {
            Some(p) => p,
            None => return Err(AcceptStat::SystemErr),
        };
        match proc_num {
            proc_discfs::NULL => Ok(Vec::new()),
            proc_discfs::SUBMIT_CRED => {
                let text = d.get_string().map_err(|_| AcceptStat::GarbageArgs)?;
                let status = self.submit_credential(&peer, &text);
                let mut e = Encoder::new();
                e.put_u32(status as u32);
                Ok(e.finish())
            }
            proc_discfs::CREATE | proc_discfs::MKDIR => {
                let dir_args = DirOpArgs::decode(&mut d).map_err(|_| AcceptStat::GarbageArgs)?;
                let mode = d.get_u32().map_err(|_| AcceptStat::GarbageArgs)?;
                let result =
                    self.create_with_cred(ctx, &dir_args, mode, proc_num == proc_discfs::MKDIR);
                Ok(encode_create_res(&result))
            }
            proc_discfs::CRED_COUNT => {
                // Submitted credentials and creator grants alike.
                let state = self.peer_state(&peer);
                let held = state.held.lock();
                let count = held.session.credentials().len() + held.created.len();
                drop(held);
                let mut e = Encoder::new();
                e.put_u32(count as u32);
                Ok(e.finish())
            }
            proc_discfs::REVOKE_KEY => {
                if !self.admin_keys.contains(&peer) {
                    let mut e = Encoder::new();
                    e.put_u32(DiscfsRpcStatus::Denied as u32);
                    return Ok(e.finish());
                }
                let key_bytes = d
                    .get_opaque_fixed(32)
                    .map_err(|_| AcceptStat::GarbageArgs)?;
                let key_array: [u8; 32] = key_bytes.try_into().expect("32 bytes");
                let status = match VerifyingKey::from_bytes(&key_array) {
                    Ok(key) => {
                        self.revoke_key(&key, None);
                        DiscfsRpcStatus::Ok
                    }
                    Err(_) => DiscfsRpcStatus::BadCredential,
                };
                let mut e = Encoder::new();
                e.put_u32(status as u32);
                Ok(e.finish())
            }
            proc_discfs::REVOKE_CRED => {
                if !self.admin_keys.contains(&peer) {
                    let mut e = Encoder::new();
                    e.put_u32(DiscfsRpcStatus::Denied as u32);
                    return Ok(e.finish());
                }
                let id = d.get_string().map_err(|_| AcceptStat::GarbageArgs)?;
                self.revoke_credential(&id, None);
                let mut e = Encoder::new();
                e.put_u32(DiscfsRpcStatus::Ok as u32);
                Ok(e.finish())
            }
            _ => Err(AcceptStat::ProcUnavail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs::FsConfig;
    use keynote::key_principal;

    fn key(seed: u8) -> SigningKey {
        SigningKey::from_seed(&[seed; 32])
    }

    /// The admin, the peer every test audits, and two more issuers.
    fn keys() -> [SigningKey; 4] {
        [key(0xAD), key(2), key(3), key(4)]
    }

    /// A service on an in-memory volume whose admin is `key(0xAD)`.
    fn service() -> DiscfsService {
        service_on(FsConfig::small())
    }

    /// The same on a volume of `config`; the server key is `key(0x5E)`.
    fn service_on(config: FsConfig) -> DiscfsService {
        let fs = Arc::new(Ffs::format_in_memory(config));
        DiscfsService::new(fs, DiscfsConfig::standard(key(0xAD).public(), key(0x5E)))
    }

    fn ctx(peer: &SigningKey) -> RequestCtx {
        RequestCtx {
            peer: Some(peer.public()),
            uid: u32::MAX,
            gid: u32::MAX,
        }
    }

    /// Submits the admin's RWX on the root to `peer` and returns the
    /// root's handle.
    fn owner(service: &DiscfsService, peer: &SigningKey) -> FHandle {
        let root = service.storage().mount(&ctx(peer), "/").unwrap();
        let grant = CredentialIssuer::new(&key(0xAD))
            .holder(&peer.public())
            .grant(&root, Perm::RWX)
            .issue();
        assert_eq!(
            service.submit_credential(&peer.public(), &grant),
            DiscfsRpcStatus::Ok
        );
        root
    }

    /// `peer` creates `name` in `dir` through the credential-returning
    /// CREATE.
    fn create(
        service: &DiscfsService,
        peer: &SigningKey,
        dir: &FHandle,
        name: &str,
    ) -> CreateWithCredRes {
        let args = DirOpArgs {
            dir: *dir,
            name: name.to_string(),
        };
        service
            .create_with_cred(&ctx(peer), &args, 0o644, false)
            .unwrap()
    }

    /// What CRED_COUNT answers `peer`.
    fn credential_count(service: &DiscfsService, peer: &SigningKey) -> u32 {
        let reply = service
            .discfs_dispatch(&ctx(peer), proc_discfs::CRED_COUNT, &[])
            .unwrap();
        Decoder::new(&reply).get_u32().unwrap()
    }

    fn credential_id(text: &str) -> String {
        keynote::Assertion::parse(text).unwrap().id().to_string()
    }

    /// Submits to `peer`'s session a grant of R on `ino` from `issuer`
    /// to `holder`.
    fn submit(
        service: &DiscfsService,
        peer: &SigningKey,
        issuer: &SigningKey,
        holder: &SigningKey,
        ino: u32,
    ) {
        let text = CredentialIssuer::new(issuer)
            .holder(&holder.public())
            .grant(&FHandle::pack(1, ino, 1), Perm::R)
            .issue();
        let status = service.submit_credential(&peer.public(), &text);
        assert_eq!(status, DiscfsRpcStatus::Ok);
    }

    /// Audits one READ of inode 1 by `peer` and returns its record.
    fn audited_read(service: &DiscfsService, peer: &SigningKey) -> crate::audit::AuditRecord {
        let _ = service.authorize(&ctx(peer), &FHandle::pack(1, 1, 1), Perm::R, "read");
        service
            .audit()
            .records()
            .pop()
            .expect("the read was audited")
    }

    fn principals(keys: &[&SigningKey]) -> Vec<String> {
        let mut names: Vec<String> = keys.iter().map(|k| key_principal(&k.public())).collect();
        names.sort();
        names
    }

    #[test]
    fn audit_records_each_issuer_once_sorted() {
        let service = service();
        let [admin, bob, carol, _] = keys();
        submit(&service, &bob, &admin, &carol, 1);
        submit(&service, &bob, &carol, &bob, 1);
        submit(&service, &bob, &admin, &bob, 2);
        let record = audited_read(&service, &bob);
        assert_eq!(record.authorizers(), principals(&[&admin, &carol]));
    }

    #[test]
    fn records_share_one_issuer_set_until_an_issuer_joins() {
        let service = service();
        let [admin, bob, _, dave] = keys();
        submit(&service, &bob, &admin, &bob, 1);
        let first = audited_read(&service, &bob);
        let second = audited_read(&service, &bob);
        assert!(Arc::ptr_eq(&first.authorizers, &second.authorizers));

        // A known issuer: the epoch moves, the set does not.
        let state = service.peer_state(&bob.public());
        let epoch = state.epoch.load(Ordering::Acquire);
        submit(&service, &bob, &admin, &bob, 2);
        assert_eq!(state.epoch.load(Ordering::Acquire), epoch + 1);
        let known = audited_read(&service, &bob);
        assert!(Arc::ptr_eq(&first.authorizers, &known.authorizers));

        // A new issuer replaces it.
        submit(&service, &bob, &dave, &bob, 3);
        let joined = audited_read(&service, &bob);
        assert!(!Arc::ptr_eq(&first.authorizers, &joined.authorizers));
        assert_eq!(joined.authorizers(), principals(&[&admin, &dave]));
    }

    #[test]
    fn a_purged_issuer_leaves_later_records() {
        let service = service();
        let [admin, bob, carol, _] = keys();
        submit(&service, &bob, &admin, &bob, 1);
        submit(&service, &bob, &carol, &bob, 2);
        let before = audited_read(&service, &bob);
        assert_eq!(before.authorizers(), principals(&[&admin, &carol]));

        service.revoke_key(&carol.public(), None);
        let after = audited_read(&service, &bob);
        assert_eq!(after.authorizers(), principals(&[&admin]));
        // The record made before the purge keeps what it saw.
        assert_eq!(before.authorizers(), principals(&[&admin, &carol]));
    }

    #[test]
    fn creates_take_no_slot_of_the_session_cap() {
        // Each creator credential used to take a slot: a session that
        // had created 4 096 files accepted no delegated credential.
        let service = service_on(FsConfig::standard());
        let bob = key(2);
        let root = owner(&service, &bob);
        let created = MAX_PEER_CREDENTIALS + 104;
        let mut last = None;
        for i in 0..created {
            last = Some(create(&service, &bob, &root, &format!("f{i:04}")).fh);
        }
        let grant = CredentialIssuer::new(&key(0xAD))
            .holder(&bob.public())
            .grant(&FHandle::pack(1, 9999, 1), Perm::R)
            .issue();
        assert_eq!(
            service.submit_credential(&bob.public(), &grant),
            DiscfsRpcStatus::Ok,
            "a delegated credential after {created} creates"
        );
        // CRED_COUNT still counts both kinds.
        assert_eq!(credential_count(&service, &bob) as usize, created + 2);
        let last = last.unwrap();
        assert_eq!(service.permissions_for(&bob.public(), &last), Perm::RWX);
    }

    #[test]
    fn a_create_keeps_the_creators_cached_decisions() {
        let service = service();
        let bob = key(2);
        let root = owner(&service, &bob);
        assert_eq!(service.permissions_for(&bob.public(), &root), Perm::RWX);
        let stats = service.cache().stats();
        let epoch = service
            .peer_state(&bob.public())
            .epoch
            .load(Ordering::Acquire);
        let made = create(&service, &bob, &root, "new");
        let misses = stats.misses();
        assert_eq!(service.permissions_for(&bob.public(), &root), Perm::RWX);
        assert_eq!(
            stats.misses(),
            misses,
            "the root's decision survives a CREATE"
        );
        let state = service.peer_state(&bob.public());
        assert_eq!(state.epoch.load(Ordering::Acquire), epoch);
        // The new file is one miss, answered by the grant.
        assert_eq!(service.permissions_for(&bob.public(), &made.fh), Perm::RWX);
        assert_eq!(stats.misses(), misses + 1);
        assert_eq!(credential_count(&service, &bob), 2);
    }

    #[test]
    fn a_create_drops_the_creators_cached_denial_of_the_new_handle() {
        let service = service();
        let bob = key(2);
        let root = owner(&service, &bob);
        let (fsid, ino, generation) = create(&service, &bob, &root, "a").fh.unpack();
        let probed = FHandle::pack(fsid, ino + 1, generation);
        assert_eq!(service.permissions_for(&bob.public(), &probed), Perm::NONE);
        let made = create(&service, &bob, &root, "b");
        assert_eq!(made.fh, probed, "the probe named the next handle");
        assert_eq!(service.permissions_for(&bob.public(), &made.fh), Perm::RWX);
    }

    #[test]
    fn a_submit_widens_a_cached_denial_at_once() {
        // SUBMIT_CRED keeps its epoch bump: without it the cached NONE
        // below would outlive the grant.
        let service = service();
        let bob = key(2);
        let root = service.storage().mount(&ctx(&bob), "/").unwrap();
        for _ in 0..2 {
            assert_eq!(service.permissions_for(&bob.public(), &root), Perm::NONE);
        }
        owner(&service, &bob);
        assert_eq!(service.permissions_for(&bob.public(), &root), Perm::RWX);
    }

    #[test]
    fn revoking_a_creator_credential_ends_the_creators_access() {
        let service = service();
        let bob = key(2);
        let root = owner(&service, &bob);
        let [first, second, third] =
            ["a", "b", "c"].map(|name| create(&service, &bob, &root, name));
        for made in [&first, &second, &third] {
            assert_eq!(service.permissions_for(&bob.public(), &made.fh), Perm::RWX);
        }
        service.revoke_credential(&credential_id(&first.credential), None);
        assert_eq!(
            service.permissions_for(&bob.public(), &first.fh),
            Perm::NONE
        );
        assert_eq!(
            service.permissions_for(&bob.public(), &second.fh),
            Perm::RWX
        );
        assert_eq!(credential_count(&service, &bob), 3);
        let read = service.read(&ctx(&bob), &first.fh, 0, 1);
        assert_eq!(read.unwrap_err(), NfsStat::Acces);
        // The revoked credential cannot come back by submission.
        assert_eq!(
            service.submit_credential(&bob.public(), &first.credential),
            DiscfsRpcStatus::Revoked
        );

        // Revoking the server key ends every creator grant, and what
        // it signs after that grants nothing.
        service.revoke_key(&key(0x5E).public(), None);
        assert_eq!(
            service.permissions_for(&bob.public(), &second.fh),
            Perm::NONE
        );
        assert_eq!(
            service.permissions_for(&bob.public(), &third.fh),
            Perm::NONE
        );
        let late = create(&service, &bob, &root, "d");
        assert_eq!(service.permissions_for(&bob.public(), &late.fh), Perm::NONE);
        assert_eq!(credential_count(&service, &bob), 1);
        assert_eq!(service.permissions_for(&bob.public(), &root), Perm::RWX);
    }

    #[test]
    fn resubmitting_ones_creator_credential_is_a_no_op() {
        let service = service();
        let bob = key(2);
        let root = owner(&service, &bob);
        let made = create(&service, &bob, &root, "mine");
        assert_eq!(service.permissions_for(&bob.public(), &root), Perm::RWX);
        let epoch = service
            .peer_state(&bob.public())
            .epoch
            .load(Ordering::Acquire);
        assert_eq!(
            service.submit_credential(&bob.public(), &made.credential),
            DiscfsRpcStatus::Ok
        );
        let state = service.peer_state(&bob.public());
        assert_eq!(state.epoch.load(Ordering::Acquire), epoch, "no bump");
        assert_eq!(state.held.lock().session.credentials().len(), 1, "no slot");
        assert_eq!(credential_count(&service, &bob), 2);
    }

    #[test]
    fn a_creator_grant_keeps_the_server_key_among_the_authorizers() {
        let service = service();
        let [admin, bob, ..] = keys();
        let root = owner(&service, &bob);
        let server = key(0x5E);
        let [first, second] = ["a", "b"].map(|name| create(&service, &bob, &root, name));
        let record = audited_read(&service, &bob);
        assert_eq!(record.authorizers(), principals(&[&admin, &server]));

        service.revoke_credential(&credential_id(&first.credential), None);
        let one_left = audited_read(&service, &bob);
        assert_eq!(one_left.authorizers(), principals(&[&admin, &server]));
        service.revoke_credential(&credential_id(&second.credential), None);
        let none_left = audited_read(&service, &bob);
        assert_eq!(none_left.authorizers(), principals(&[&admin]));
    }
}
