//! The network block server and its client — the distributed volume
//! tier's transport layer.
//!
//! The paper's DisCFS vision is *global* file sharing, but every
//! backend so far lived inside one process. This module puts a
//! [`BlockStore`] behind a network boundary: a [`BlockServer`] answers
//! block-protocol calls for any store (one simulated storage node), a
//! [`NodeLink`] carries them over a netsim link to it, and a
//! [`RemoteStore`] is the client-side [`BlockStore`] that speaks to it
//! — [`ReplicatedStore`](crate::ReplicatedStore)'s node client, one per
//! storage node.
//!
//! A node has no thread of its own: like the paper's server it answers
//! one call at a time, on the caller's thread inside the client's send
//! ([`NodeLink`]), so its work lands on the virtual clock in the same
//! order on every run.
//!
//! # Wire format
//!
//! The block protocol is ONC-RPC program `0x2000_0B10`, version 1
//! (RFC 5531). Every message is one [`onc_rpc::frame`] frame around an
//! `RpcCall` or an `RpcReply`, as for NFS. Arguments and results are
//! XDR: integers are words, 64-bit ones unsigned hypers, a block is
//! fixed-length opaque of `BLOCK_SIZE` bytes, and class 0 is data, 1
//! metadata.
//!
//! | Procedure | Arguments | Results after `OK` |
//! | --- | --- | --- |
//! | 1 LEN | none | block count |
//! | 2 READ | class, count, index × count | count, block × count |
//! | 3 WRITE | fence token, class, count, (index, block) × count | none |
//! | 4 FLUSH | fence token | none |
//! | 5 ACQUIRE_LEASE | coordinator id, ttl (ns) | fence token, expiry (ns) |
//!
//! Every result starts with a discriminant word:
//!
//! - `OK` (0), then the results above;
//! - `FENCED` (1), then the node's granted fence token
//!   ([`RemoteError::Fenced`]);
//! - `LEASE_HELD` (2), then the holder's coordinator id and the lease's
//!   expiry ([`RemoteError::LeaseHeld`]).
//!
//! The server checks a WRITE's or a FLUSH's fence token first. It
//! refuses with `GARBAGE_ARGS` an unknown class, a count the arguments
//! do not hold, an index past the end and trailing bytes; a failed
//! flush is `SYSTEM_ERR` (both [`RemoteError::Server`]); an unknown
//! procedure is `PROC_UNAVAIL`, another program `PROG_UNAVAIL`. Nothing
//! refused reaches the store. The `xid` is the request id, a u32 that
//! wraps, by which a client that re-sent drains stale replies.
//!
//! Messages arrive whole, so a frame is checked and decoded in place
//! ([`onc_rpc::frame::unframe`]).
//!
//! # The frame bound
//!
//! Every message, call or reply, holds at most
//! [`onc_rpc::frame::DEFAULT_MAX_FRAME`] payload bytes (1 MiB), the
//! bound the NFS path has: `CALL_BLOCKS` = 127 blocks a call, in a
//! WRITE's arguments or a READ's results. `unframe` enforces it on both
//! ends, before any checksum or decode: the node drops a larger call as
//! it drops any misframed one, and a larger reply is a
//! [`RemoteError::Protocol`] at the client. The node also refuses with
//! `GARBAGE_ARGS` a READ whose reply would not fit, before it reads or
//! reserves anything, so a call of a few bytes cannot make it hold a
//! reply of many. The client splits: [`RemoteStore::try_read`] and
//! [`RemoteStore::try_write`] send a larger extent as calls of at most
//! `CALL_BLOCKS` blocks, in order. A split WRITE is not atomic on the
//! node — a crash can keep its first calls and lose the rest — so
//! `ReplicatedStore`, which needs each node's share of an epoch to be
//! one durability unit, sizes its epochs to one call per node and
//! class and never hands a node more.
//!
//! Blocks stay zero-copy: the server
//! writes a WRITE's blocks as slices of the message, the client slices
//! a READ reply into [`Bytes`] handles of one buffer. The frame
//! checksum is the folded 32-bit [`onc_rpc::frame::checksum`]: a
//! tripwire, not a MAC ([`onc_rpc::frame`] says why that suffices
//! between a coordinator and its own nodes). A message that is not one
//! frame around an RPC message is dropped by the server and is a
//! [`RemoteError::Protocol`] at the client.
//!
//! # Failure model
//!
//! [`RemoteStore`] retries a timed-out request (same id, so a late
//! or fault-duplicated reply is recognized and drained) under
//! exponential backoff with decorrelated jitter: after each timeout it
//! waits `min(max_backoff, uniform(base, prev × multiplier))`. Every
//! wait is virtual: a timed-out attempt costs its
//! [`RemoteOptions::timeout`] on the link's clock, a backoff sleep its
//! length, and neither any wall time. The client keeps re-sending until
//! the accumulated waiting budget (attempt timeouts plus backoff
//! sleeps) crosses [`RemoteOptions::deadline`]. Only then is the node
//! declared **dead**, with a [`DeadCause`] recording *why*:
//!
//! - [`DeadCause::Timeout`] — the deadline lapsed with no reply. This
//!   is what a lossy link or a partition window looks like, so death is
//!   **non-terminal**: [`RemoteStore::probe`] issues one cheap,
//!   un-retried length request that bypasses the dead latch, and a
//!   reply revives the node. `ReplicatedStore` holds such nodes in
//!   *probation*, probes them in the background, and re-syncs a
//!   revived node from its peers before it serves reads again.
//! - [`DeadCause::Disconnected`] — the link dropped, which is how a
//!   killed node ([`RemoteStore::kill_server`]) manifests; the process
//!   is gone and only a rebuild onto a spare brings the data back.
//! - [`DeadCause::Protocol`] — a frame failed to parse or checksum. A
//!   node that cannot frame correctly cannot be trusted with retries.
//!
//! A dead node fails every later call without touching the wire;
//! `ReplicatedStore` uses that latch to fail over (see
//! [`crate::ReplicatedStore`]). Fault injection ([`netsim::FaultPlan`])
//! plugs in below this whole policy: [`RemoteStore::serve_shared`] with
//! a plan runs the wire protocol over a lossy, duplicating, jittery,
//! partitionable link, and the client counts the plan's injected
//! faults in its [`StoreStats::faults_injected`].
//!
//! # Leases and fencing
//!
//! Retries and fault-duplicated frames are safe against *one*
//! coordinator because block writes are idempotent — but with two
//! front-ends on one node, a frame from a coordinator that has since
//! lost ownership must not be applied at all. The server enforces that
//! with **fencing tokens**:
//!
//! - ACQUIRE_LEASE ([`RemoteStore::try_acquire_lease`]) grants a
//!   `(coordinator_id, fence_token)` lease with a virtual-clock expiry
//!   (the transport's [`netsim::SimClock`]). The token is a per-node
//!   monotonic counter: every *fresh* grant — first lease, takeover,
//!   post-expiry re-acquisition — bumps it, and it **never** goes back
//!   down, not even when a lease expires. Re-acquisition by the
//!   current holder while its lease is unexpired is **idempotent**
//!   (same token, expiry extended): a retransmitted or
//!   fault-duplicated acquire frame cannot fence its own coordinator.
//! - Every mutating request (WRITE, FLUSH) carries the client's
//!   current token. The server checks it **before touching the store**
//!   and rejects the frame with a typed [`RemoteError::Fenced`] reply
//!   whenever a higher token has been granted — so a fenced write is
//!   never partially applied: the whole frame, however many blocks, is
//!   either below the fence and dropped, or at the fence and applied
//!   in full.
//! - A second coordinator can only acquire once the current lease has
//!   expired on the virtual clock (or by re-acquiring under the same
//!   coordinator id); until then it gets [`RemoteError::LeaseHeld`].
//! - Token `0` is the *unleased* legacy mode: while no lease has ever
//!   been granted on a node, bare clients write freely (the
//!   single-coordinator presets keep working unchanged). The first
//!   grant fences them out.
//!
//! Lease state lives in a [`NodeLease`] shared by every server
//! attached to the same node ([`RemoteStore::serve_shared`]), so two
//! coordinators' connections to one node see one fence. A `Fenced`
//! reply is a *server verdict*, not a network failure: the client
//! surfaces it without retrying and without latching the node dead
//! (counting it in [`StoreStats::fenced`]) — `ReplicatedStore` reacts
//! by latching the whole volume read-only.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes};
use discfs_crypto::rng::{DetRng, RngCore};
use netsim::{Endpoint, Link, LinkConfig, NetError, SimClock, Transport};
use onc_rpc::frame::{self, DEFAULT_MAX_FRAME, FRAME_HEADER};
use onc_rpc::XdrError;
use onc_rpc::{AcceptStat, Decoder, ReplyBody, RpcCall, RpcCallView, RpcReply, RpcReplyView};
use parking_lot::Mutex;

use crate::{vectored, BlockStore, IoClass, StoreStats, BLOCK_SIZE};

/// The block protocol's program number, from the range RFC 5531
/// leaves to users, and its one version.
const BLOCK_PROGRAM: u32 = 0x2000_0B10;
const BLOCK_VERSION: u32 = 1;

// Procedures (module docs, *Wire format*).
const PROC_LEN: u32 = 1;
const PROC_READ: u32 = 2;
const PROC_WRITE: u32 = 3;
const PROC_FLUSH: u32 = 4;
const PROC_ACQUIRE_LEASE: u32 = 5;

// Result discriminants: the first word of every result.
const OK: u32 = 0;
const FENCED: u32 = 1;
const LEASE_HELD: u32 = 2;

/// Bytes a call adds to its arguments: frame and RPC headers.
const CALL_OVERHEAD: usize = FRAME_HEADER + 40;

/// The most blocks one call carries (module docs, *The frame bound*):
/// 127, the WRITE arguments that fit [`DEFAULT_MAX_FRAME`] beside the
/// call header, fence token, class and count. A READ reply of as many
/// blocks fits too.
pub(crate) const CALL_BLOCKS: usize =
    (DEFAULT_MAX_FRAME + FRAME_HEADER - CALL_OVERHEAD - 16) / (8 + BLOCK_SIZE);

/// Appends a result: its discriminant, then unsigned hypers.
fn put_result(out: &mut Vec<u8>, verdict: u32, hypers: &[u64]) {
    out.put_u32(verdict);
    for &h in hypers {
        out.put_u64(h);
    }
}

/// Errors a [`RemoteStore`] request can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The link failed (node dead or request timed out past the retry
    /// budget).
    Net(NetError),
    /// A reply was not one frame, failed its checksum or did not
    /// decode.
    Protocol(String),
    /// The server refused the call (`GARBAGE_ARGS`, or `SYSTEM_ERR` for
    /// a failed flush).
    Server(String),
    /// A mutating request carried a fence token below the node's
    /// current grant: a newer lease exists, this coordinator must stop
    /// writing. Never retried, and the frame was not applied at all.
    Fenced {
        /// The node's currently-granted fence token.
        granted: u64,
    },
    /// A lease acquisition was refused because another coordinator's
    /// lease is still unexpired.
    LeaseHeld {
        /// The coordinator id holding the lease.
        holder: u64,
        /// When the lease expires on the node's virtual clock.
        expires: Duration,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Net(e) => write!(f, "network error: {e}"),
            RemoteError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            RemoteError::Server(msg) => write!(f, "server error: {msg}"),
            RemoteError::Fenced { granted } => {
                write!(f, "fenced: node granted fence token {granted}")
            }
            RemoteError::LeaseHeld { holder, expires } => {
                write!(f, "lease held by coordinator {holder} until {expires:?}")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

/// A reply that does not decode is a protocol error.
impl From<XdrError> for RemoteError {
    fn from(e: XdrError) -> RemoteError {
        RemoteError::Protocol(format!("reply does not decode: {e}"))
    }
}

/// Builds one call: the frame and RPC headers, then the `args_len`
/// bytes of XDR arguments that `write_args` appends straight into the
/// message, so a block payload is copied once.
fn encode_call(
    xid: u32,
    proc: u32,
    args_len: usize,
    write_args: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut msg = Vec::with_capacity(CALL_OVERHEAD + args_len);
    let start = frame::begin_frame(&mut msg);
    RpcCall::new(xid, BLOCK_PROGRAM, BLOCK_VERSION, proc, Vec::new()).encode_into(&mut msg);
    write_args(&mut msg);
    debug_assert_eq!(msg.len(), CALL_OVERHEAD + args_len, "call arguments length");
    frame::end_frame(&mut msg, start);
    msg
}

/// Server-side lease state for one storage node: the current
/// `(coordinator_id, fence_token)` grant and its virtual-clock expiry.
///
/// Shared (via `Arc`) by every server attached to the same node —
/// two coordinators' connections see one fence — and by tests and
/// benches that want the server's own view of rejections. The fence
/// token is monotonic for the node's lifetime: grants bump it, nothing
/// lowers it, so a frame stamped under an older lease can always be
/// recognized and refused (module docs, *Leases and fencing*).
#[derive(Debug, Default)]
pub struct NodeLease {
    slot: Mutex<LeaseSlot>,
    fenced_rejections: AtomicU64,
}

#[derive(Debug, Default)]
struct LeaseSlot {
    holder: u64,
    token: u64,
    expires: Duration,
}

impl NodeLease {
    /// Mutating frames this node refused because their token was below
    /// the current grant — the server-side count of fenced writes,
    /// none of which touched the store.
    pub fn fenced_rejections(&self) -> u64 {
        self.fenced_rejections.load(Ordering::Relaxed)
    }

    /// Grants a lease to `coordinator` unless another coordinator's
    /// lease is unexpired at `now`. A fresh grant — first lease,
    /// takeover, or post-expiry re-acquisition — bumps the fence
    /// token; re-acquisition by the *current holder while unexpired*
    /// is idempotent (same token, expiry extended), so a retransmitted
    /// or fault-duplicated acquire frame can never fence its own
    /// coordinator.
    fn acquire(
        &self,
        coordinator: u64,
        ttl: Duration,
        now: Duration,
    ) -> Result<(u64, Duration), (u64, Duration)> {
        let mut s = self.slot.lock();
        let expired = now >= s.expires;
        let fresh = now.saturating_add(ttl);
        if s.token != 0 && s.holder == coordinator && !expired {
            s.expires = s.expires.max(fresh);
            return Ok((s.token, s.expires));
        }
        if s.token != 0 && !expired {
            return Err((s.holder, s.expires));
        }
        s.token += 1;
        s.holder = coordinator;
        s.expires = fresh;
        Ok((s.token, s.expires))
    }

    /// Admits a mutating frame stamped `token` iff no higher token has
    /// been granted (token 0 vs token 0 is the unleased legacy mode).
    fn check(&self, token: u64) -> Result<(), u64> {
        let granted = self.slot.lock().token;
        if token >= granted {
            Ok(())
        } else {
            self.fenced_rejections.fetch_add(1, Ordering::Relaxed);
            Err(granted)
        }
    }
}

/// A granted lease as seen by the client: the fence token to stamp on
/// mutating frames and when the grant expires on the node's virtual
/// clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGrant {
    /// The fence token granted to this coordinator.
    pub(crate) token: u64,
    /// Virtual-clock instant the lease expires.
    pub(crate) expires: Duration,
}

/// Answers block-protocol calls for one [`BlockStore`] — one simulated
/// storage node.
///
/// [`BlockServer::handle`] takes one call message and returns at most
/// one reply (the paper's sequential RPC model). It runs on whatever
/// thread hands it the call, a [`NodeLink`]'s sender in the volume, so
/// a store that panics panics that thread.
///
/// Every mutating request is admitted through the node's [`NodeLease`]
/// fence *before* the store is touched; servers sharing one store must
/// share one lease (`BlockServer::with_lease`) or the fence has
/// holes.
pub struct BlockServer<S> {
    store: S,
    lease: Arc<NodeLease>,
}

impl<S: BlockStore> BlockServer<S> {
    /// Wraps `store` for serving, with a private lease table.
    pub fn new(store: S) -> BlockServer<S> {
        BlockServer::with_lease(store, Arc::new(NodeLease::default()))
    }

    /// Wraps `store` for serving under a shared lease table — the
    /// multi-coordinator path: every server attached to the same node
    /// store passes the same `lease` so all connections see one fence.
    pub(crate) fn with_lease(store: S, lease: Arc<NodeLease>) -> BlockServer<S> {
        BlockServer { store, lease }
    }

    /// Answers one call message at virtual time `now`, the clock that
    /// leases expire on. A message that is not one frame, within the
    /// frame bound, around an RPC call gets no reply: the client times
    /// out and retries, or declares this node dead. Every other call
    /// gets exactly one reply frame, its results or a refusal.
    pub fn handle(&self, msg: &[u8], now: Duration) -> Option<Vec<u8>> {
        let call = RpcCallView::decode(frame::unframe(msg).ok()?).ok()?;
        let mut reply = Vec::new();
        let start = frame::begin_frame(&mut reply);
        RpcReply::success(call.xid, Vec::new()).encode_into(&mut reply);
        if let Err(stat) = self.results(&call, now, &mut reply) {
            reply.truncate(start + FRAME_HEADER);
            RpcReply::error(call.xid, stat).encode_into(&mut reply);
        }
        frame::end_frame(&mut reply, start);
        Some(reply)
    }

    /// Appends the results of `call` to `out`, or refuses the call with
    /// an accept status. Nothing a refused call asked for reaches the
    /// store.
    fn results(
        &self,
        call: &RpcCallView<'_>,
        now: Duration,
        out: &mut Vec<u8>,
    ) -> Result<(), AcceptStat> {
        if call.prog != BLOCK_PROGRAM || call.vers != BLOCK_VERSION {
            return Err(AcceptStat::ProgUnavail);
        }
        let mut args = Decoder::new(call.args);
        let blocks = self.store.block_count();
        match call.proc_num {
            PROC_LEN => {
                require(args.is_exhausted())?;
                put_result(out, OK, &[blocks]);
            }
            PROC_READ => {
                let (class, count) = extent(&mut args, 8)?;
                // The reply must fit one frame too: `out` holds its
                // frame and RPC headers already.
                require(
                    count.saturating_mul(BLOCK_SIZE) + 8 + out.len()
                        <= FRAME_HEADER + DEFAULT_MAX_FRAME,
                )?;
                let idxs = (0..count)
                    .map(|_| block_index(&mut args, blocks))
                    .collect::<Result<Vec<_>, _>>()?;
                let read = self.store.read(class, &idxs);
                out.reserve_exact(8 + read.len() * BLOCK_SIZE);
                out.put_u32(OK);
                out.put_u32(read.len() as u32);
                for block in &read {
                    out.extend_from_slice(block);
                }
            }
            PROC_WRITE | PROC_FLUSH => {
                // The fence check comes before anything else.
                if let Err(granted) = self.lease.check(args.get_u64()?) {
                    put_result(out, FENCED, &[granted]);
                } else if call.proc_num == PROC_FLUSH {
                    require(args.is_exhausted())?;
                    self.store.flush().map_err(|_| AcceptStat::SystemErr)?;
                    put_result(out, OK, &[]);
                } else {
                    let (class, count) = extent(&mut args, 8 + BLOCK_SIZE)?;
                    let writes = (0..count)
                        .map(|_| {
                            let idx = block_index(&mut args, blocks)?;
                            Ok((idx, args.get_opaque_fixed(BLOCK_SIZE)?))
                        })
                        .collect::<Result<Vec<_>, AcceptStat>>()?;
                    self.store.write(class, &writes);
                    put_result(out, OK, &[]);
                }
            }
            PROC_ACQUIRE_LEASE => {
                let coordinator = args.get_u64()?;
                let ttl = Duration::from_nanos(args.get_u64()?);
                require(args.is_exhausted())?;
                let (verdict, (word, expires)) = match self.lease.acquire(coordinator, ttl, now) {
                    Ok(grant) => (OK, grant),
                    Err(holder) => (LEASE_HELD, holder),
                };
                put_result(out, verdict, &[word, duration_nanos(expires)]);
            }
            _ => return Err(AcceptStat::ProcUnavail),
        }
        Ok(())
    }
}

/// `GARBAGE_ARGS` unless `ok`.
fn require(ok: bool) -> Result<(), AcceptStat> {
    ok.then_some(()).ok_or(AcceptStat::GarbageArgs)
}

/// A READ's or a WRITE's class and count: `count` items of `item_len`
/// bytes must be exactly the rest of the arguments.
fn extent(args: &mut Decoder<'_>, item_len: usize) -> Result<(IoClass, usize), AcceptStat> {
    let class = match args.get_u32()? {
        0 => IoClass::Data,
        1 => IoClass::Meta,
        _ => return Err(AcceptStat::GarbageArgs),
    };
    let count = args.get_u32()? as usize;
    require(count.saturating_mul(item_len) == args.remaining())?;
    Ok((class, count))
}

fn block_index(args: &mut Decoder<'_>, block_count: u64) -> Result<u64, AcceptStat> {
    let idx = args.get_u64()?;
    require(idx < block_count)?;
    Ok(idx)
}

/// Nanoseconds of `d`, saturating: a lease of a long ttl expires past
/// what u64 nanos hold.
fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Retry policy for a [`RemoteStore`]: exponential backoff with
/// decorrelated jitter under an overall per-operation deadline.
///
/// After a timed-out attempt the client waits
/// `min(max_backoff, uniform(base, prev × multiplier))` before
/// re-sending (the AWS "decorrelated jitter" schedule — retries from
/// many clients de-synchronize instead of stampeding a recovering
/// node). Timeouts and backoff waits are charged to the link's virtual
/// clock, never spent on the wall, and the node is declared dead only
/// once the accumulated waiting budget — attempt timeouts plus backoff
/// sleeps — reaches `deadline`.
#[derive(Debug, Clone, Copy)]
pub struct RemoteOptions {
    /// Wait per request attempt before it counts as timed out. A
    /// timed-out attempt costs this much virtual time (charged by the
    /// link's `recv_timeout`, as a [`NodeLink`] does) and no wall time.
    pub timeout: Duration,
    /// Floor of every backoff sleep (and the first retry's window).
    pub base: Duration,
    /// Growth factor of the decorrelated-jitter window: each sleep is
    /// drawn from `[base, prev × multiplier]`.
    pub multiplier: f64,
    /// Hard cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Total waiting budget per operation (timeouts + backoff sleeps)
    /// before the node is declared dead.
    pub deadline: Duration,
}

impl Default for RemoteOptions {
    fn default() -> RemoteOptions {
        RemoteOptions {
            timeout: Duration::from_millis(200),
            base: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(160),
            deadline: Duration::from_secs(2),
        }
    }
}

/// Why a [`RemoteStore`] declared its node dead. `ReplicatedStore`
/// branches on this: a [`DeadCause::Timeout`] looks like loss or a
/// partition, so the node goes into probation and is probed for
/// revival; the other causes mean the process or its framing is gone,
/// so only a spare-rebuild brings the data back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeadCause {
    /// The per-operation deadline lapsed with no reply — possibly a
    /// transient partition; the node may come back.
    Timeout,
    /// The link dropped: the node is gone (killed, or its link closed).
    Disconnected,
    /// The node sent an unparseable or mis-checksummed frame.
    Protocol,
}

/// One storage node behind its link, as the client's [`Transport`]: a
/// [`BlockServer`] that answers each call on the sending thread.
///
/// The link is [`Link::pair`]'s two endpoints, with the fault plan on
/// both when there is one, so every call and reply pays its wire time
/// and meets its faults in [`Endpoint::send`] as it would between two
/// threads. `send` puts the call on the wire, then drains the node's
/// end and answers what arrived — nothing, the call, or it twice —
/// with [`BlockServer::handle`]; the replies wait at the client's end.
/// No reply can arrive after `send` returns, so a `recv_timeout` that
/// finds none queued charges its whole timeout to the link's virtual
/// clock and returns [`NetError::Timeout`] at once. A killed node
/// (`RemoteStore::kill_server`) takes calls off the wire unanswered,
/// and every receive from it is [`NetError::Disconnected`].
pub struct NodeLink<S> {
    client: Endpoint,
    node: Endpoint,
    server: BlockServer<S>,
    clock: SimClock,
    killed: Arc<AtomicBool>,
}

impl<S: BlockStore> NodeLink<S> {
    /// `server` behind a fresh link on `clock`, faulty when `faults` is
    /// given.
    pub fn new(
        server: BlockServer<S>,
        clock: &SimClock,
        config: LinkConfig,
        faults: Option<&netsim::FaultPlan>,
    ) -> NodeLink<S> {
        let (client, node) = match faults {
            Some(plan) => Link::pair_faulty(clock, config, plan),
            None => Link::pair(clock, config),
        };
        NodeLink {
            client,
            node,
            server,
            clock: clock.clone(),
            killed: Arc::default(),
        }
    }
}

impl<S: BlockStore> Transport for NodeLink<S> {
    fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
        self.client.send(msg)?;
        while let Some(call) = self.node.try_recv()? {
            if self.killed.load(Ordering::SeqCst) {
                continue;
            }
            if let Some(reply) = self.server.handle(&call, self.clock.now()) {
                self.node.send(reply)?;
            }
        }
        Ok(())
    }

    /// Nothing arrives while the caller blocks: a receive with no reply
    /// queued is a timeout that waited no time.
    fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.recv_timeout(Duration::ZERO)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        if self.killed.load(Ordering::SeqCst) {
            return Err(NetError::Disconnected);
        }
        self.client.try_recv()?.ok_or_else(|| {
            self.clock.advance(timeout);
            NetError::Timeout
        })
    }

    fn fault_plan(&self) -> Option<netsim::FaultPlan> {
        self.client.fault_plan()
    }

    fn sim_clock(&self) -> Option<SimClock> {
        Some(self.clock.clone())
    }
}

/// A client-side [`BlockStore`] speaking the block-server wire
/// protocol over a [`Transport`].
///
/// Requests are issued sequentially under one link lock (the paper's
/// single-flow RPC model; the virtual clock charges each frame's
/// latency and serialization time). A request that times out is
/// re-sent under exponential backoff with decorrelated jitter until
/// the [`RemoteOptions::deadline`] waiting budget lapses — response
/// frames echo the request id, so a stale or fault-duplicated reply
/// from an earlier attempt is drained, never mistaken for the current
/// one. A disconnected link or a lapsed deadline declares the node
/// **dead** (with a `DeadCause`): every later call fails
/// immediately, and the fallible `try_*` methods surface that to
/// `ReplicatedStore`'s failover, while `RemoteStore::probe` can
/// revive a node whose death was only a timeout. The infallible
/// [`BlockStore`] methods panic on a dead node; no preset mounts a bare
/// `RemoteStore` (a one-node volume is `StoreBackend::Replicated`
/// with `nodes: 1, replicas: 1, spares: 0`).
pub struct RemoteStore {
    link: Mutex<Box<dyn Transport>>,
    next_xid: AtomicU32,
    block_count: u64,
    opts: RemoteOptions,
    /// One-way link latency, used by `ReplicatedStore` to rank
    /// replicas (read-from-nearest).
    latency_hint: Duration,
    dead: AtomicBool,
    cause: Mutex<Option<DeadCause>>,
    /// The link's fault plan and clock, captured at connect so
    /// `stats()` and backoff never have to take the link lock (held
    /// across a whole call, retries and the node's work included).
    faults: Option<netsim::FaultPlan>,
    clock: Option<SimClock>,
    /// The decorrelated-jitter draws.
    backoff_rng: Mutex<DetRng>,
    /// The kill switch of the [`NodeLink`] behind a `serve_*` store.
    kill: Option<Arc<AtomicBool>>,
    /// The fence token granted by the node's last lease reply (0 =
    /// unleased legacy mode), stamped on every mutating call.
    fence: AtomicU64,
    fenced_writes: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    vectored_reads: AtomicU64,
    vectored_writes: AtomicU64,
    flushes: AtomicU64,
    rpc_calls: AtomicU64,
    bytes_on_wire: AtomicU64,
    retries: AtomicU64,
}

impl RemoteStore {
    /// Connects over an arbitrary transport, learning the node's block
    /// count with an initial length request.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`] from the length request.
    pub fn connect<T: Transport + 'static>(
        link: T,
        opts: RemoteOptions,
    ) -> Result<RemoteStore, RemoteError> {
        RemoteStore::connect_with_hint(link, opts, Duration::ZERO)
    }

    fn connect_with_hint<T: Transport + 'static>(
        link: T,
        opts: RemoteOptions,
        latency_hint: Duration,
    ) -> Result<RemoteStore, RemoteError> {
        let faults = link.fault_plan();
        let clock = link.sim_clock();
        let mut store = RemoteStore {
            link: Mutex::new(Box::new(link)),
            next_xid: AtomicU32::new(1),
            block_count: 0,
            opts,
            latency_hint,
            dead: AtomicBool::new(false),
            cause: Mutex::new(None),
            faults,
            clock,
            backoff_rng: Mutex::new(DetRng::new(0x5DEE_CE66_D0F1_5A4D)),
            kill: None,
            fence: AtomicU64::new(0),
            fenced_writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            vectored_reads: AtomicU64::new(0),
            vectored_writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            rpc_calls: AtomicU64::new(0),
            bytes_on_wire: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        };
        [store.block_count] = hypers(&store.call(PROC_LEN, 0, |_| {})?)?;
        Ok(store)
    }

    /// Serves `store` as one self-contained simulated storage node
    /// behind a fresh [`NodeLink`] on `clock`, and connects to it. The
    /// node store is the returned client's, and goes with it.
    pub fn serve_local<S: BlockStore + 'static>(
        store: S,
        clock: &SimClock,
        config: LinkConfig,
        opts: RemoteOptions,
    ) -> RemoteStore {
        RemoteStore::serve_on(BlockServer::new(store), clock, config, opts, None)
    }

    /// One more connection to a *shared* node: `store` and `lease` are
    /// `Arc`s that other connections (other coordinators') hold too, so
    /// every connection sees the same blocks behind the same fence —
    /// the multi-coordinator path, see the module docs, *Leases and
    /// fencing*. With `faults`, the plan is installed on both
    /// directions of this connection's link: every request and reply
    /// is subject to its loss, duplication, jitter and partition
    /// schedule. The connect-time length request already rides the
    /// faulty link, so the plan's loss rate must leave the backoff
    /// schedule room to get one request through within the deadline.
    pub fn serve_shared(
        store: Arc<dyn BlockStore>,
        lease: Arc<NodeLease>,
        clock: &SimClock,
        config: LinkConfig,
        opts: RemoteOptions,
        faults: Option<&netsim::FaultPlan>,
    ) -> RemoteStore {
        let server = BlockServer::with_lease(store, lease);
        RemoteStore::serve_on(server, clock, config, opts, faults)
    }

    fn serve_on<S: BlockStore + 'static>(
        server: BlockServer<S>,
        clock: &SimClock,
        config: LinkConfig,
        opts: RemoteOptions,
        faults: Option<&netsim::FaultPlan>,
    ) -> RemoteStore {
        let link = NodeLink::new(server, clock, config, faults);
        let kill = Arc::clone(&link.killed);
        let mut remote = RemoteStore::connect_with_hint(link, opts, config.latency)
            .expect("local block server must answer the length request");
        remote.kill = Some(kill);
        remote
    }

    /// Number of addressable blocks on the node (learned at connect).
    pub(crate) fn remote_block_count(&self) -> u64 {
        self.block_count
    }

    /// Whether this node has been declared dead (disconnected link,
    /// lapsed deadline, or a protocol violation).
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Why the node was declared dead (`None` while it is healthy).
    /// The first cause wins: a probe failure on an already-dead node
    /// never overwrites the original diagnosis.
    pub(crate) fn dead_cause(&self) -> Option<DeadCause> {
        *self.cause.lock()
    }

    /// Cheap revival probe: one un-retried length request that
    /// bypasses the dead latch. A valid reply clears the latch — the
    /// node is revived and serves normal calls again — and returns its
    /// current block count. The caller (`ReplicatedStore`) still
    /// compares epoch records before trusting the node's data: a
    /// partitioned-then-healed node is *revived*, a node that missed
    /// commits is additionally *re-synced*.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; a failed probe leaves the dead latch and
    /// [`DeadCause`] untouched.
    pub(crate) fn probe(&self) -> Result<u64, RemoteError> {
        let link = self.link.lock();
        let xid = self.next_xid.fetch_add(1, Ordering::Relaxed);
        let call = encode_call(xid, PROC_LEN, 0, |_| {});
        let [blocks] = hypers(&self.attempt(&**link, call, xid)?)?;
        *self.cause.lock() = None;
        self.dead.store(false, Ordering::SeqCst);
        Ok(blocks)
    }

    /// The one-way link latency hint used for replica ranking.
    pub(crate) fn latency_hint(&self) -> Duration {
        self.latency_hint
    }

    /// The link's virtual clock, when connected over a simulated link
    /// (`ReplicatedStore` rate-limits its background work against it).
    pub(crate) fn sim_clock(&self) -> Option<&SimClock> {
        self.clock.as_ref()
    }

    /// Crashes the node behind a `serve_*` store (test/bench hook): it
    /// answers nothing more and its link reads as disconnected, so the
    /// next call declares it dead. No-op for stores connected over an
    /// external transport.
    pub(crate) fn kill_server(&self) {
        if let Some(kill) = &self.kill {
            kill.store(true, Ordering::SeqCst);
        }
    }

    /// Acquires (or re-acquires) the node's lease for `coordinator`:
    /// on a grant the returned fence token is remembered and stamped
    /// on every later mutating call. Re-acquiring an unexpired lease
    /// extends it under the same token. Refused with
    /// [`RemoteError::LeaseHeld`] while another coordinator's lease is
    /// unexpired on the node's virtual clock.
    ///
    /// # Errors
    ///
    /// [`RemoteError::LeaseHeld`] on a refusal; any transport-level
    /// [`RemoteError`] otherwise (network errors declare the node
    /// dead, as for any RPC).
    pub fn try_acquire_lease(
        &self,
        coordinator: u64,
        ttl: Duration,
    ) -> Result<LeaseGrant, RemoteError> {
        let results = self.call(PROC_ACQUIRE_LEASE, 16, |msg| {
            msg.put_u64(coordinator);
            msg.put_u64(duration_nanos(ttl));
        })?;
        let [token, expires] = hypers(&results)?;
        self.fence.store(token, Ordering::SeqCst);
        Ok(LeaseGrant {
            token,
            expires: Duration::from_nanos(expires),
        })
    }

    /// The fence token this client stamps on mutating calls (0 =
    /// unleased legacy mode).
    pub(crate) fn fence_token(&self) -> u64 {
        self.fence.load(Ordering::SeqCst)
    }

    fn mark_dead(&self, cause: DeadCause) {
        let mut slot = self.cause.lock();
        if slot.is_none() {
            *slot = Some(cause);
        }
        self.dead.store(true, Ordering::SeqCst);
    }

    /// The backoff sleep after one of `prev`: decorrelated jitter,
    /// `min(max_backoff, uniform(base, prev × multiplier))`, drawn from
    /// the store's [`DetRng`] (seeded alike in every store, so backoff
    /// schedules replay exactly).
    fn backoff_sleep(&self, prev: Duration) -> Duration {
        let hi = prev.mul_f64(self.opts.multiplier.max(1.0));
        let span = hi.saturating_sub(self.opts.base);
        let draw = (self.backoff_rng.lock().next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (self.opts.base + span.mul_f64(draw)).min(self.opts.max_backoff)
    }

    /// One send + await-matching-reply attempt: no retries, no dead
    /// latch. Stale replies (timed-out or fault-duplicated earlier
    /// attempts) are drained by the `xid` check. Returns the results
    /// after the `OK` discriminant, as a slice of the reply message.
    fn attempt(&self, link: &dyn Transport, call: Vec<u8>, xid: u32) -> Result<Bytes, RemoteError> {
        self.rpc_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_on_wire
            .fetch_add(call.len() as u64, Ordering::Relaxed);
        if link.send(call).is_err() {
            return Err(RemoteError::Net(NetError::Disconnected));
        }
        loop {
            let msg = link
                .recv_timeout(self.opts.timeout)
                .map_err(RemoteError::Net)?;
            self.bytes_on_wire
                .fetch_add(msg.len() as u64, Ordering::Relaxed);
            let payload = frame::unframe(&msg).map_err(|e| RemoteError::Protocol(e.to_string()))?;
            let reply = RpcReplyView::decode(payload)?;
            if reply.xid != xid {
                // Stale reply from a timed-out or duplicated attempt.
                continue;
            }
            let ReplyBody::Success(results) = reply.body else {
                return Err(RemoteError::Server(format!(
                    "node refused the call: {:?}",
                    reply.body
                )));
            };
            let verdict = Decoder::new(results).get_u32()?;
            let rest = &results[4..];
            return match verdict {
                OK => {
                    let start = msg.len() - rest.len();
                    Ok(Bytes::from(msg).slice(start..))
                }
                FENCED => {
                    let [granted] = hypers(rest)?;
                    Err(RemoteError::Fenced { granted })
                }
                LEASE_HELD => {
                    let [holder, expires] = hypers(rest)?;
                    Err(RemoteError::LeaseHeld {
                        holder,
                        expires: Duration::from_nanos(expires),
                    })
                }
                _ => Err(RemoteError::Protocol(format!(
                    "unknown result discriminant {verdict}"
                ))),
            };
        }
    }

    /// One call: send, await the matching reply, re-send on timeout
    /// under backoff until the deadline, fail fast on a dead node or
    /// link. `write_args` appends the `args_len` bytes of arguments to
    /// the message; each attempt hands its message to the link, so a
    /// re-send after a timeout encodes it again. Returns the results
    /// after the `OK` discriminant.
    fn call(
        &self,
        proc: u32,
        args_len: usize,
        write_args: impl Fn(&mut Vec<u8>),
    ) -> Result<Bytes, RemoteError> {
        if self.is_dead() {
            return Err(RemoteError::Net(NetError::Disconnected));
        }
        let link = self.link.lock();
        let xid = self.next_xid.fetch_add(1, Ordering::Relaxed);
        // The deadline meters *waiting*, deterministically: per-attempt
        // timeouts plus backoff sleeps, not wall time.
        let mut waited = Duration::ZERO;
        let mut prev = self.opts.base;
        loop {
            let call = encode_call(xid, proc, args_len, &write_args);
            match self.attempt(&**link, call, xid) {
                Ok(resp) => return Ok(resp),
                Err(RemoteError::Net(NetError::Timeout)) => {
                    waited += self.opts.timeout;
                    if waited >= self.opts.deadline {
                        self.mark_dead(DeadCause::Timeout);
                        return Err(RemoteError::Net(NetError::Timeout));
                    }
                    let sleep = self.backoff_sleep(prev);
                    prev = sleep;
                    waited += sleep;
                    // Charge the wait to the virtual clock so partition
                    // windows heal and virtual time sees the backoff.
                    if let Some(clock) = &self.clock {
                        clock.advance(sleep);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    // Re-send the same call (same xid).
                }
                Err(RemoteError::Net(NetError::Disconnected)) => {
                    self.mark_dead(DeadCause::Disconnected);
                    return Err(RemoteError::Net(NetError::Disconnected));
                }
                Err(e @ RemoteError::Protocol(_)) => {
                    // A node that cannot frame cannot be trusted with
                    // a retry.
                    self.mark_dead(DeadCause::Protocol);
                    return Err(e);
                }
                Err(e @ RemoteError::Fenced { .. }) => {
                    // A server *verdict*, not a network failure: the
                    // node is healthy, this coordinator is superseded.
                    // Never retried — a fenced write must stay unwritten.
                    if matches!(proc, PROC_WRITE | PROC_FLUSH) {
                        self.fenced_writes.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
                Err(e @ RemoteError::LeaseHeld { .. }) => return Err(e),
                Err(e @ RemoteError::Server(_)) => return Err(e),
            }
        }
    }

    /// Fallible [`BlockStore::read`]: one round trip for each
    /// 127 blocks (`CALL_BLOCKS`) of the extent, in order.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead.
    pub(crate) fn try_read(&self, class: IoClass, idxs: &[u64]) -> Result<Vec<Bytes>, RemoteError> {
        for &idx in idxs {
            assert!(idx < self.block_count, "block {idx} out of range");
        }
        let mut blocks = Vec::with_capacity(idxs.len());
        for part in idxs.chunks(CALL_BLOCKS) {
            let results = self.call(PROC_READ, 8 + part.len() * 8, |msg| {
                msg.put_u32(class as u32);
                msg.put_u32(part.len() as u32);
                for &idx in part {
                    msg.put_u64(idx);
                }
            })?;
            let mut d = Decoder::new(&results);
            let count = d.get_u32()? as usize;
            if count != part.len() || d.remaining() != count * BLOCK_SIZE {
                let why = format!("READ of {} answered {count}", part.len());
                return Err(RemoteError::Protocol(why));
            }
            // Each block is a zero-copy slice handle into the reply.
            blocks.extend(
                (0..count).map(|i| results.slice(4 + i * BLOCK_SIZE..4 + (i + 1) * BLOCK_SIZE)),
            );
        }
        self.vectored_reads
            .fetch_add(vectored(class, idxs.len()), Ordering::Relaxed);
        if class == IoClass::Data {
            self.reads.fetch_add(idxs.len() as u64, Ordering::Relaxed);
        }
        Ok(blocks)
    }

    /// One-block [`RemoteStore::try_read`].
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead.
    pub(crate) fn try_read_block(&self, idx: u64, class: IoClass) -> Result<Bytes, RemoteError> {
        Ok(self.try_read(class, &[idx])?.pop().expect("one block"))
    }

    /// Fallible [`BlockStore::write`]: one round trip for each 127
    /// blocks (`CALL_BLOCKS`), in order, each stamped with the fence
    /// token. Only a write of at most `CALL_BLOCKS` blocks is one
    /// durability unit on the node: an error part-way through a longer
    /// one may leave its first calls applied.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead.
    pub(crate) fn try_write(
        &self,
        class: IoClass,
        writes: &[(u64, &[u8])],
    ) -> Result<(), RemoteError> {
        for &(idx, data) in writes {
            assert!(idx < self.block_count, "block {idx} out of range");
            assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
        }
        let token = self.fence_token();
        for part in writes.chunks(CALL_BLOCKS) {
            let args_len = 16 + part.len() * (8 + BLOCK_SIZE);
            let results = self.call(PROC_WRITE, args_len, |msg| {
                msg.put_u64(token);
                msg.put_u32(class as u32);
                msg.put_u32(part.len() as u32);
                for &(idx, data) in part {
                    msg.put_u64(idx);
                    msg.extend_from_slice(data);
                }
            })?;
            hypers::<0>(&results)?;
        }
        self.vectored_writes
            .fetch_add(vectored(class, writes.len()), Ordering::Relaxed);
        if class == IoClass::Data {
            self.writes
                .fetch_add(writes.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Fallible flush.
    ///
    /// # Errors
    ///
    /// Any [`RemoteError`]; network errors declare the node dead,
    /// server errors carry the node's flush failure.
    pub(crate) fn try_flush(&self) -> Result<(), RemoteError> {
        let token = self.fence_token();
        hypers::<0>(&self.call(PROC_FLUSH, 8, |msg| msg.put_u64(token))?)?;
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Results that are exactly `N` XDR unsigned hypers.
fn hypers<const N: usize>(results: &[u8]) -> Result<[u64; N], RemoteError> {
    let mut d = Decoder::new(results);
    let mut words = [0; N];
    for word in &mut words {
        *word = d.get_u64()?;
    }
    if !d.is_exhausted() {
        return Err(RemoteError::Protocol("trailing bytes in a reply".into()));
    }
    Ok(words)
}

impl BlockStore for RemoteStore {
    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        self.try_read(class, idxs).expect("remote read failed")
    }

    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        self.try_write(class, writes).expect("remote write failed")
    }

    fn flush(&self) -> std::io::Result<()> {
        self.try_flush().map_err(std::io::Error::other)
    }

    /// Client-side counters only: logical reads/writes as issued by
    /// callers, plus the wire-level `rpc_calls` / `bytes_on_wire` /
    /// `retries`, and the link fault plan's
    /// injected-fault count when one is installed. The node's own
    /// store counters live on the server side of the link.
    fn stats(&self) -> StoreStats {
        StoreStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            vectored_reads: self.vectored_reads.load(Ordering::Relaxed),
            vectored_writes: self.vectored_writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            rpc_calls: self.rpc_calls.load(Ordering::Relaxed),
            bytes_on_wire: self.bytes_on_wire.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            fenced: self.fenced_writes.load(Ordering::Relaxed),
            faults_injected: self
                .faults
                .as_ref()
                .map_or(0, netsim::FaultPlan::faults_injected),
            ..StoreStats::default()
        }
    }

    fn label(&self) -> &'static str {
        "remote"
    }
}

#[cfg(test)]
mod hostile;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimStore;
    use onc_rpc::Encoder;

    fn local_node(blocks: u64) -> RemoteStore {
        RemoteStore::serve_local(
            SimStore::untimed(blocks),
            &SimClock::new(),
            LinkConfig::instant(),
            RemoteOptions::default(),
        )
    }

    /// An 8-block node behind an instant link.
    fn node_link(clock: &SimClock, lease: &Arc<NodeLease>) -> NodeLink<SimStore> {
        let server = BlockServer::with_lease(SimStore::untimed(8), Arc::clone(lease));
        NodeLink::new(server, clock, LinkConfig::instant(), None)
    }

    /// A transport that keeps a copy of every message it sends.
    struct Recorder {
        inner: NodeLink<SimStore>,
        sent: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Transport for Recorder {
        fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
            self.sent.lock().push(msg.clone());
            self.inner.send(msg)
        }
        fn recv(&self) -> Result<Vec<u8>, NetError> {
            self.inner.recv()
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
            self.inner.recv_timeout(timeout)
        }
    }

    /// An extent of more than 127 blocks goes as calls of at most 127,
    /// in order, and reads back whole.
    #[test]
    fn a_large_extent_is_split_into_frame_sized_calls() {
        assert_eq!(CALL_BLOCKS, 127);
        let store = local_node(400);
        let blocks: Vec<Vec<u8>> = (0..300u32)
            .map(|i| vec![(i % 250) as u8 + 1; BLOCK_SIZE])
            .collect();
        let writes: Vec<(u64, &[u8])> = (50..).zip(blocks.iter().map(|b| &b[..])).collect();
        let calls = store.stats().rpc_calls;
        store.try_write(IoClass::Data, &writes).unwrap();
        assert_eq!(store.stats().rpc_calls - calls, 3, "127 + 127 + 46 blocks");
        let idxs: Vec<u64> = (50..350).collect();
        let back = store.try_read(IoClass::Data, &idxs).unwrap();
        assert_eq!(store.stats().rpc_calls - calls, 6);
        assert!(back
            .iter()
            .zip(&blocks)
            .all(|(got, put)| got[..] == put[..]));
        assert_eq!(store.stats().writes, 300);
    }

    /// The block protocol's wire format, pinned word by word: the call
    /// a client sends to read metadata block 42, its second call (the
    /// connect-time LEN was the first).
    #[test]
    fn call_bytes_are_pinned() {
        let server = BlockServer::new(SimStore::untimed(64));
        let sent = Arc::default();
        let store = RemoteStore::connect(
            Recorder {
                inner: NodeLink::new(server, &SimClock::new(), LinkConfig::instant(), None),
                sent: Arc::clone(&sent),
            },
            RemoteOptions::default(),
        )
        .unwrap();
        store.try_read(IoClass::Meta, &[42]).unwrap();
        let words: Vec<u32> = sent.lock()[1]
            .chunks_exact(4)
            .map(|w| u32::from_be_bytes(w.try_into().unwrap()))
            .collect();
        #[rustfmt::skip]
        let expected = [
            56, 0x78a4_371f,               // frame: payload length, checksum
            2, 0, 2,                       // xid, CALL, RPC version 2
            0x2000_0B10, 1, 2,             // program, version, READ
            0, 0, 0, 0,                    // AUTH_NONE credential and verifier
            1, 1, 0, 42,                   // metadata, one index: block 42
        ];
        assert_eq!(words, expected);
    }

    #[test]
    fn remote_round_trip_scalar_and_vectored() {
        let store = local_node(16);
        assert_eq!(store.block_count(), 16);
        let a = vec![0xA1u8; BLOCK_SIZE];
        let b = vec![0xB2u8; BLOCK_SIZE];
        store.write_block(3, &a);
        store.write_blocks(&[(5, &b), (6, &a)]);
        store.write_block_meta(0, &b);
        assert_eq!(store.read_block(3), a);
        assert_eq!(
            store.read_blocks(&[5, 6, 3]),
            vec![
                Bytes::from(b.clone()),
                Bytes::from(a.clone()),
                Bytes::from(a.clone())
            ]
        );
        assert_eq!(store.read_block_meta(0), b);
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.reads, 4);
        assert_eq!(stats.writes, 3, "meta writes uncounted");
        assert_eq!(stats.flushes, 1);
        // connect (LEN) + 3 writes + 3 reads + flush.
        assert_eq!(stats.rpc_calls, 8);
        assert_eq!(stats.retries, 0);
        assert!(stats.bytes_on_wire > 6 * BLOCK_SIZE as u64);
    }

    #[test]
    fn virtual_clock_charges_wire_time() {
        let clock = SimClock::new();
        let store = RemoteStore::serve_local(
            SimStore::untimed(8),
            &clock,
            LinkConfig::ethernet_100mbps(),
            RemoteOptions::default(),
        );
        clock.reset();
        store.write_block(1, &vec![1u8; BLOCK_SIZE]);
        // Request carries 8 KB at 12.5 MB/s (~655 µs) + 120 µs latency
        // each way.
        let t = clock.now();
        assert!(t > Duration::from_micros(700), "write charged {t:?}");
    }

    #[test]
    fn killed_server_declares_the_node_dead() {
        let store = local_node(8);
        store.write_block(2, &vec![9u8; BLOCK_SIZE]);
        assert!(!store.is_dead());
        store.kill_server();
        assert!(store.try_read_block(2, IoClass::Data).is_err());
        assert!(store.is_dead());
        // Dead latch: later calls fail without touching the wire.
        let calls = store.stats().rpc_calls;
        assert!(store.try_flush().is_err());
        assert_eq!(store.stats().rpc_calls, calls);
    }

    #[test]
    fn timeout_retries_then_succeeds() {
        // A transport that swallows the first request (send succeeds,
        // reply never comes) — the retry must carry the same id and
        // the late... nothing: the swallowed request simply never
        // reaches the server.
        struct Flaky {
            inner: NodeLink<SimStore>,
            drop_first: AtomicBool,
        }
        impl Transport for Flaky {
            fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
                if self.drop_first.swap(false, Ordering::SeqCst) {
                    return Ok(()); // swallowed
                }
                self.inner.send(msg)
            }
            fn recv(&self) -> Result<Vec<u8>, NetError> {
                self.inner.recv()
            }
            fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
                self.inner.recv_timeout(timeout)
            }
        }
        // Armed from the start: the connect-time LEN request itself is
        // swallowed, times out, and the retry succeeds. The timed-out
        // attempt cost its 50 ms on the virtual clock.
        let clock = SimClock::new();
        let store = RemoteStore::connect(
            Flaky {
                inner: node_link(&clock, &Arc::default()),
                drop_first: AtomicBool::new(true),
            },
            RemoteOptions {
                timeout: Duration::from_millis(50),
                ..RemoteOptions::default()
            },
        )
        .unwrap();
        assert_eq!(store.block_count(), 8);
        assert_eq!(store.stats().retries, 1);
        assert_eq!(clock.now(), Duration::from_millis(50));
    }

    /// Chaos-grade options: a 10 ms per-attempt timeout, so a lost
    /// frame costs little virtual time, and a deadline that leaves
    /// room for ~17 attempts, so a lossy link never passes for a dead
    /// node.
    fn chaos_opts() -> RemoteOptions {
        RemoteOptions {
            timeout: Duration::from_millis(10),
            base: Duration::from_millis(2),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(40),
            deadline: Duration::from_millis(500),
        }
    }

    #[test]
    fn duplicated_write_rpc_is_idempotent_and_dup_replies_drain() {
        let clock = SimClock::new();
        // Every frame is delivered twice: the server applies each write
        // twice (a no-op the second time) and every reply arrives in
        // duplicate, so each rpc leaves a stale reply behind that the
        // next rpc's request-id check must drain.
        let plan = netsim::FaultPlan::seeded(11).with_duplication(1.0);
        let store = RemoteStore::serve_shared(
            Arc::new(SimStore::untimed(8)),
            Arc::default(),
            &clock,
            LinkConfig::instant(),
            chaos_opts(),
            Some(&plan),
        );
        let a = vec![0xAAu8; BLOCK_SIZE];
        let b = vec![0xBBu8; BLOCK_SIZE];
        store.write_block(1, &a);
        store.write_blocks(&[(2, &b[..]), (3, &a[..])]);
        assert_eq!(store.read_block(1), a);
        assert_eq!(store.read_block(2), b);
        assert_eq!(store.read_block(3), a);
        let stats = store.stats();
        // No timeout ever fired: duplication alone never stalls an op.
        assert_eq!(stats.retries, 0);
        assert!(stats.faults_injected >= 6, "{}", stats.faults_injected);
        assert!(!store.is_dead());
    }

    #[test]
    fn lossy_link_retries_with_backoff_and_succeeds() {
        let clock = SimClock::new();
        let plan = netsim::FaultPlan::seeded(12).with_loss(0.25);
        let store = RemoteStore::serve_shared(
            Arc::new(SimStore::untimed(16)),
            Arc::default(),
            &clock,
            LinkConfig::instant(),
            chaos_opts(),
            Some(&plan),
        );
        let data = vec![0x5Au8; BLOCK_SIZE];
        for i in 0..16 {
            store.write_block(i, &data);
        }
        for i in 0..16 {
            assert_eq!(store.read_block(i), data);
        }
        let stats = store.stats();
        assert!(!store.is_dead());
        assert!(stats.faults_injected > 0);
        // 25% loss over 30+ round trips: some attempt timed out and
        // was re-sent under backoff.
        assert!(stats.retries > 0);

        // The sleeps come from the store's `DetRng`: each within
        // [base, max_backoff], and the same schedule from every store.
        let opts = chaos_opts();
        let schedule = || {
            let store = RemoteStore::serve_local(
                SimStore::untimed(1),
                &SimClock::new(),
                LinkConfig::instant(),
                opts,
            );
            let mut prev = opts.base;
            (0..64)
                .map(|_| {
                    prev = store.backoff_sleep(prev);
                    prev
                })
                .collect::<Vec<_>>()
        };
        let sleeps = schedule();
        assert_eq!(sleeps, schedule());
        assert!(sleeps
            .iter()
            .all(|s| (opts.base..=opts.max_backoff).contains(s)));
        assert!(sleeps.windows(2).any(|w| w[0] != w[1]), "{sleeps:?}");
        // Backoff waits were charged to the virtual clock.
        assert!(clock.now() > Duration::ZERO);
    }

    #[test]
    fn timeout_death_is_probation_and_probe_revives() {
        let clock = SimClock::new();
        let plan = netsim::FaultPlan::seeded(13);
        let store = RemoteStore::serve_shared(
            Arc::new(SimStore::untimed(8)),
            Arc::default(),
            &clock,
            LinkConfig::instant(),
            chaos_opts(),
            Some(&plan),
        );
        let data = vec![0x77u8; BLOCK_SIZE];
        store.write_block(4, &data);
        // Partition the link for longer than any deadline can wait
        // out: every re-send is dropped, the waiting budget lapses,
        // and the node dies with the probation-eligible cause.
        plan.partition(clock.now(), clock.now() + Duration::from_secs(60));
        assert!(store.try_read_block(4, IoClass::Data).is_err());
        assert!(store.is_dead());
        assert_eq!(store.dead_cause(), Some(DeadCause::Timeout));
        // Heal: jump the virtual clock past the window, then probe.
        clock.advance(Duration::from_secs(60));
        assert_eq!(store.probe().unwrap(), 8);
        assert!(!store.is_dead());
        assert_eq!(store.dead_cause(), None);
        assert_eq!(store.read_block(4), data);
    }

    #[test]
    fn disconnect_cause_is_terminal_for_probes() {
        let store = local_node(8);
        store.kill_server();
        assert!(store.try_flush().is_err());
        assert_eq!(store.dead_cause(), Some(DeadCause::Disconnected));
        // The node is gone: probing cannot revive it, and the
        // original cause survives the failed probe.
        assert!(store.probe().is_err());
        assert!(store.is_dead());
        assert_eq!(store.dead_cause(), Some(DeadCause::Disconnected));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_is_caught_client_side() {
        local_node(4).read_block(4);
    }

    /// Two coordinator clients on one shared node (one store, one
    /// lease) — the multi-coordinator unit under test.
    fn shared_node(blocks: u64) -> (Arc<SimStore>, Arc<NodeLease>) {
        (
            Arc::new(SimStore::untimed(blocks)),
            Arc::new(NodeLease::default()),
        )
    }

    fn coordinator(store: &Arc<SimStore>, lease: &Arc<NodeLease>, clock: &SimClock) -> RemoteStore {
        RemoteStore::serve_shared(
            Arc::clone(store) as Arc<dyn BlockStore>,
            Arc::clone(lease),
            clock,
            LinkConfig::instant(),
            RemoteOptions::default(),
            None,
        )
    }

    #[test]
    fn lease_grants_renews_and_expires_on_the_virtual_clock() {
        let clock = SimClock::new();
        let (store, lease) = shared_node(8);
        let a = coordinator(&store, &lease, &clock);
        let b = coordinator(&store, &lease, &clock);
        let ttl = Duration::from_secs(10);
        let grant = a.try_acquire_lease(1, ttl).unwrap();
        assert_eq!(grant.token, 1);
        assert_eq!(a.fence_token(), 1);
        assert_eq!(lease.slot.lock().holder, 1);
        // B is refused while A's lease is unexpired.
        match b.try_acquire_lease(2, ttl) {
            Err(RemoteError::LeaseHeld { holder, .. }) => assert_eq!(holder, 1),
            other => panic!("expected LeaseHeld, got {other:?}"),
        }
        assert!(!b.is_dead(), "a refusal is a verdict, not a failure");
        // The holder renews by re-acquiring: the expiry moves, the
        // token does not.
        let renewed = a.try_acquire_lease(1, ttl).unwrap();
        assert_eq!(renewed.token, 1);
        assert!(renewed.expires >= grant.expires);
        // B is refused 1 ms before expiry and takes over 1 ms after it,
        // and the token only ever goes up.
        let ms = Duration::from_millis(1);
        clock.advance(renewed.expires - ms - clock.now());
        assert!(
            matches!(
                b.try_acquire_lease(2, ttl),
                Err(RemoteError::LeaseHeld { holder: 1, .. })
            ),
            "an unexpired lease cannot be stolen"
        );
        clock.advance(ms * 2);
        let grant_b = b.try_acquire_lease(2, ttl).unwrap();
        assert_eq!(grant_b.token, 2);
        // A's grant was superseded: its flush is fenced.
        match a.try_flush() {
            Err(RemoteError::Fenced { granted }) => assert_eq!(granted, 2),
            other => panic!("expected Fenced, got {other:?}"),
        }
    }

    #[test]
    fn stale_token_write_is_fenced_not_applied_and_node_stays_alive() {
        let clock = SimClock::new();
        let (store, lease) = shared_node(8);
        let a = coordinator(&store, &lease, &clock);
        let b = coordinator(&store, &lease, &clock);
        let ttl = Duration::from_millis(1);
        a.try_acquire_lease(1, ttl).unwrap();
        let block = |byte: u8| vec![byte; BLOCK_SIZE];
        a.try_write(IoClass::Data, &[(3, &block(0xAA))]).unwrap();
        clock.advance(Duration::from_secs(1));
        b.try_acquire_lease(2, ttl).unwrap();
        b.try_write(IoClass::Data, &[(3, &block(0xBB))]).unwrap();
        // A still stamps token 1: every mutating op is refused, the
        // store is untouched, and the node is NOT declared dead.
        let errs = [
            a.try_write(IoClass::Data, &[(3, &block(0xCC))])
                .unwrap_err(),
            a.try_write(IoClass::Meta, &[(4, &block(0xCC)), (5, &block(0xCC))])
                .unwrap_err(),
            a.try_flush().unwrap_err(),
        ];
        for e in errs {
            assert!(matches!(e, RemoteError::Fenced { granted: 2 }), "{e}");
        }
        assert!(!a.is_dead());
        assert_eq!(a.stats().fenced, 3);
        assert_eq!(lease.fenced_rejections(), 3);
        assert_eq!(b.try_read_block(3, IoClass::Data).unwrap()[0], 0xBB);
        // Reads are not fenced: A may still serve while superseded.
        assert_eq!(a.try_read_block(3, IoClass::Data).unwrap()[0], 0xBB);
    }

    #[test]
    fn token_zero_is_legacy_mode_until_the_first_grant() {
        let clock = SimClock::new();
        let (store, lease) = shared_node(8);
        let bare = coordinator(&store, &lease, &clock);
        let leased = coordinator(&store, &lease, &clock);
        // Never-leased node: a bare (token 0) client writes freely.
        bare.try_write(IoClass::Data, &[(1, &[0x11; BLOCK_SIZE])])
            .unwrap();
        // The first grant fences the bare client out.
        leased.try_acquire_lease(7, Duration::from_secs(1)).unwrap();
        assert!(matches!(
            bare.try_write(IoClass::Data, &[(1, &[0x22; BLOCK_SIZE])]),
            Err(RemoteError::Fenced { granted: 1 })
        ));
        assert_eq!(leased.try_read_block(1, IoClass::Data).unwrap()[0], 0x11);
    }

    /// Sends one call of the block program, built by `onc_rpc`, and
    /// returns the body of the reply.
    fn exchange(node: &NodeLink<SimStore>, xid: u32, proc: u32, args: &[u8]) -> ReplyBody {
        let call = RpcCall::new(xid, BLOCK_PROGRAM, BLOCK_VERSION, proc, args.into());
        node.send(frame::encode_frame(&call.encode())).unwrap();
        let reply = node.recv().expect("the node answered");
        RpcReply::decode(frame::unframe(&reply).unwrap())
            .unwrap()
            .body
    }

    /// The reply body of a result: its discriminant, then hypers.
    fn result(verdict: u32, hypers: &[u64]) -> ReplyBody {
        let mut e = Encoder::new();
        e.put_u32(verdict);
        for &h in hypers {
            e.put_u64(h);
        }
        ReplyBody::Success(e.finish())
    }

    /// READ or WRITE arguments laid out by `onc_rpc::Encoder`, not by
    /// the client: `[class][count][index…]`; a WRITE puts `token` first
    /// and a block of `fill` after each index.
    fn io_args(proc: u32, token: u64, class: u32, count: u32, idxs: &[u64], fill: u8) -> Vec<u8> {
        let mut e = Encoder::new();
        if proc == PROC_WRITE {
            e.put_u64(token);
        }
        e.put_u32(class).put_u32(count);
        for &idx in idxs {
            e.put_u64(idx);
            if proc == PROC_WRITE {
                e.put_opaque_fixed(&[fill; BLOCK_SIZE]);
            }
        }
        e.finish()
    }

    /// Regression for the fault-duplication hole: a mutating call
    /// duplicated by a `FaultPlan` and re-delivered *after* the lease
    /// changed hands must be rejected by its stale fence token — the
    /// exact bytes that were once accepted must now bounce. Without the
    /// server-side token check the replay would silently overwrite the
    /// new coordinator's data.
    #[test]
    fn duplicated_frame_replayed_after_lease_change_is_fenced() {
        let clock = SimClock::new();
        let lease = Arc::new(NodeLease::default());
        let end = node_link(&clock, &lease);
        let acquire = |coordinator: u64| {
            let mut args = Encoder::new();
            args.put_u64(coordinator).put_u64(1_000_000); // ttl: 1 ms
            args.finish()
        };
        let write = |token: u64, fill: u8| io_args(PROC_WRITE, token, 0, 1, &[3], fill);
        // Coordinator 1 acquires token 1, until 1 ms, and lands a write.
        let grant = exchange(&end, 1, PROC_ACQUIRE_LEASE, &acquire(1));
        assert_eq!(grant, result(OK, &[1, 1_000_000]));
        assert_eq!(
            exchange(&end, 2, PROC_WRITE, &write(1, 0xAA)),
            result(OK, &[])
        );
        // The lease changes hands; coordinator 2 writes its own data.
        clock.advance(Duration::from_secs(1));
        let grant = exchange(&end, 3, PROC_ACQUIRE_LEASE, &acquire(2));
        assert_eq!(grant, result(OK, &[2, 1_001_000_000]));
        assert_eq!(
            exchange(&end, 4, PROC_WRITE, &write(2, 0xBB)),
            result(OK, &[])
        );
        // The fault-duplicated replay of coordinator 1's call — the
        // byte-identical message a `FaultPlan` dup would re-deliver —
        // bounces off the fence and the block keeps coordinator 2's
        // data.
        assert_eq!(
            exchange(&end, 2, PROC_WRITE, &write(1, 0xAA)),
            result(FENCED, &[2]),
            "stale replay must be rejected"
        );
        assert_eq!(lease.fenced_rejections(), 1);
        let read = io_args(PROC_READ, 0, 0, 1, &[3], 0);
        let ReplyBody::Success(blocks) = exchange(&end, 5, PROC_READ, &read) else {
            panic!("READ refused");
        };
        assert_eq!(blocks[8], 0xBB, "the replay must not have been applied");
    }

    /// A call the node cannot serve is answered `GARBAGE_ARGS`, and the
    /// node goes on serving. Passed to the store, block 99 of 8 would
    /// panic the calling coordinator's thread.
    #[test]
    fn a_request_for_a_block_the_node_does_not_have_is_an_error_reply() {
        let end = node_link(&SimClock::new(), &Arc::default());
        // A block past the end, alone and behind a good one; a class
        // nobody defined; counts the arguments do not hold.
        let refused: [(u32, u32, &[u64]); 5] = [
            (0, 1, &[99]),
            (1, 2, &[3, 8]),
            (2, 1, &[3]),
            (0, 2, &[3]),
            (0, u32::MAX, &[3]),
        ];
        for proc in [PROC_READ, PROC_WRITE] {
            for (class, count, idxs) in refused {
                let args = io_args(proc, 0, class, count, idxs, 0x5A);
                let reply = exchange(&end, 1, proc, &args);
                let garbage = ReplyBody::Error(AcceptStat::GarbageArgs);
                assert_eq!(reply, garbage, "proc {proc}: {class}, {count}, {idxs:?}");
            }
        }
        // The same node on the same link still serves, and no refused
        // write touched the store.
        let write = io_args(PROC_WRITE, 0, 0, 1, &[7], 0x5A);
        assert_eq!(exchange(&end, 2, PROC_WRITE, &write), result(OK, &[]));
        let read = io_args(PROC_READ, 0, 0, 2, &[7, 3], 0);
        let ReplyBody::Success(blocks) = exchange(&end, 3, PROC_READ, &read) else {
            panic!("READ refused");
        };
        assert_eq!(blocks[..8], [0, 0, 0, 0, 0, 0, 0, 2]); // OK, two blocks
        assert!(blocks[8..8 + BLOCK_SIZE].iter().all(|&b| b == 0x5A));
        assert!(blocks[8 + BLOCK_SIZE..].iter().all(|&b| b == 0));
    }
}
