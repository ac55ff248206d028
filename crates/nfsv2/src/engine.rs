//! The event-driven request engine: thousands of connections, a fixed
//! thread pool.
//!
//! The [`Engine`] is the crate's NFS server: the paper's user-level
//! daemon, built so that 10 000 clients do not mean 10 000 server
//! threads. It is an epoll-style architecture on the simulated network:
//!
//! * **One readiness loop thread** blocks on a [`netsim::ReadySet`]
//!   that every registered channel pokes when a message lands. Per
//!   wakeup it does O(ready) work: drain the readable channels through
//!   non-blocking [`SecureTransport::try_recv`], split each message
//!   into its frames with the connection's [`FrameDecoder`] (a message
//!   holds whole frames: [`onc_rpc::frame`], *The rule*), and move them
//!   into that connection's *bounded* queue. A message may carry
//!   several frames (a pipelining [`NfsClient`](crate::NfsClient)
//!   sends half its window in one); they enter the queue together, so
//!   one quantum answers them in one batch. The loop never
//!   decrypts-blocking, dispatches, or touches the filesystem.
//! * **A fixed worker pool** executes everything else: IKE responder
//!   handshake steps (so `accept` never blocks and no per-connection
//!   thread exists even during session setup) and request batches. A
//!   handshaking endpoint is registered with the readiness loop like a
//!   connection; the loop schedules the INIT step, then the AUTH step,
//!   only once that message has arrived, so no worker ever waits on a
//!   peer's handshake. An AUTH may carry the client's first ESP
//!   record (`ipsec::ike` module docs): the AUTH step attaches the
//!   channel only once the signature verifies and the record opens, and
//!   the record's calls enter the connection's queue ahead of anything
//!   the channel receives later, under the same bound and quantum. A
//!   worker serves at most [`EngineConfig::batch`] requests per scheduling
//!   quantum, then requeues the connection behind everyone else —
//!   round-robin over connections, so one busy peer cannot starve the
//!   rest. Each request is routed into the [`NfsService`] by the
//!   engine's private `dispatch` module. All replies of a quantum are
//!   encoded into a single framed buffer and sent as one transport
//!   message (one ESP seal per batch).
//! * **Backpressure**: when a connection's queue reaches
//!   [`EngineConfig::queue_bound`], the loop stops draining its channel
//!   — excess requests stay "in the network" and the sender eventually
//!   stalls on its own unacknowledged pipeline. A slow-loris client
//!   sheds its *own* load; a worker un-pauses the connection the next
//!   time it frees queue space. Memory per connection is O(bound). The
//!   same holds before the connection exists: a peer that never
//!   finishes its handshake holds one parked entry, not a worker.
//! * **Malformed input**: a frame that declares a length over
//!   [`frame::DEFAULT_MAX_FRAME`] or fails its checksum, a message
//!   that ends inside a frame — or a broken ESP record stream —
//!   condemns the connection. It is dropped cleanly (the service's
//!   `connection_aborted` + `connection_closed` hooks fire, so DisCFS
//!   audits the event) and neighbors never notice. A well-formed frame
//!   that is not an RPC call is skipped, and the connection lives on.
//!   A service call that panics condemns its connection the same way
//!   ("service call panicked"): the worker catches the panic, sends
//!   the replies of the calls served before it in the quantum, drops
//!   the connection and takes its next job, so no peer can empty the
//!   pool.
//!
//! [`Engine::shutdown`] quiesces in order: stop the loop (no new input),
//! serve every already-queued request, join all threads. Only then may
//! the owner sync and drop the store underneath — the join-before-sync
//! discipline `Testbed::reboot` relies on.

pub(crate) mod dispatch;

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use discfs_crypto::rng::DetRng;
use ipsec::{ike, IpsecError, SecureTransport};
use netsim::{Endpoint, ReadySet, Transport};
use onc_rpc::frame::{self, FrameDecoder};
use onc_rpc::RpcCallView;
use parking_lot::{Condvar, Mutex};

use crate::service::{NfsService, RequestCtx};
use dispatch::{dispatch, request_ctx};

/// Sizing knobs for an [`Engine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (handshakes + request batches). The engine's
    /// total thread count is `workers + 1` regardless of connections.
    pub workers: usize,
    /// Max decoded requests queued per connection before its channel
    /// stops being drained (backpressure).
    pub queue_bound: usize,
    /// Max requests a worker serves for one connection per scheduling
    /// quantum before yielding to others.
    pub batch: usize,
    /// Seed base for the responder-side handshake RNGs.
    pub handshake_seed: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 4,
            queue_bound: 64,
            batch: 32,
            handshake_seed: 0x5EED_E4614E,
        }
    }
}

/// Why the engine dropped a connection.
enum DropReason {
    /// Peer went away (endpoint dropped) — the normal end of life.
    Disconnect,
    /// Protocol violation: the connection is condemned and audited.
    Violation(&'static str),
}

/// One multiplexed connection.
struct Conn {
    token: u64,
    chan: Box<dyn SecureTransport>,
    peer: Option<VerifyingKey>,
    /// Frames of the messages read so far that the queue had no room
    /// for. Loop thread only.
    decoder: Mutex<FrameDecoder>,
    /// Decoded requests awaiting a worker. Bounded by `queue_bound`.
    queue: Mutex<VecDeque<Bytes>>,
    /// Highest queue depth ever observed (the backpressure witness).
    high_water: AtomicUsize,
    /// True while a Serve job for this connection exists — at most one
    /// worker touches a connection at a time, preserving request order.
    scheduled: AtomicBool,
    /// Set by the loop when the queue is full; cleared by the worker
    /// that frees space (which re-arms the readiness token).
    paused: AtomicBool,
    /// Guards against double-drop.
    closing: AtomicBool,
}

/// An endpoint whose IKE responder handshake is under way. It is
/// parked in `Shared::handshakes` while the peer's next message is
/// outstanding, and out of it while a worker takes a step.
struct Handshake {
    endpoint: Endpoint,
    /// Set once the INIT step has answered: the AUTH step is next.
    pending: Option<ike::PendingResponder>,
}

/// Work items for the pool.
enum Job {
    /// Take one responder handshake step on the peer's message `msg`;
    /// the last step attaches the channel.
    Handshake {
        token: u64,
        hs: Box<Handshake>,
        msg: Vec<u8>,
    },
    /// Attach an already-established channel.
    Attach {
        token: u64,
        chan: Box<dyn SecureTransport>,
    },
    /// Serve one scheduling quantum of a connection's queue.
    Serve { token: u64 },
}

/// The pool's MPMC job queue (`std::sync::mpsc` has no cloneable
/// receiver, so the pool rolls its own).
#[derive(Default)]
struct JobQueue {
    state: Mutex<Jobs>,
    cv: Condvar,
}

#[derive(Default)]
struct Jobs {
    queue: VecDeque<Job>,
    /// Under `queue`'s lock: a worker that saw it clear sleeps on `cv`
    /// before `close` can set it and notify, so no wakeup is missed.
    closed: bool,
}

impl JobQueue {
    fn push(&self, job: Job) {
        self.state.lock().queue.push_back(job);
        self.cv.notify_one();
    }

    /// Blocks for the next job; `None` once closed *and* empty, so
    /// closing still drains everything already queued.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.state.lock();
        loop {
            if let Some(job) = jobs.queue.pop_front() {
                return Some(job);
            }
            if jobs.closed {
                return None;
            }
            jobs = self.cv.wait(jobs);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

/// Counters exposed by [`Engine::stats`].
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Connections successfully attached (handshake done).
    pub connections_accepted: AtomicU64,
    /// Connections dropped for any reason.
    pub connections_dropped: AtomicU64,
    /// Connections condemned for malformed frames, broken records or
    /// a service call that panicked.
    pub malformed_drops: AtomicU64,
    /// Responder handshakes that failed.
    pub handshake_failures: AtomicU64,
    /// Requests dispatched into the service.
    pub requests_served: AtomicU64,
    /// Reply messages sent (each covers a whole batch).
    pub batches_sent: AtomicU64,
    /// Times a connection hit its queue bound and was paused.
    pub pauses: AtomicU64,
}

/// The event-driven request engine. See the module docs for the
/// architecture.
pub struct Engine {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
}

struct Shared {
    service: Arc<dyn NfsService>,
    identity: SigningKey,
    config: EngineConfig,
    ready: Arc<ReadySet>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Handshakes waiting for the peer's next message.
    handshakes: Mutex<HashMap<u64, Box<Handshake>>>,
    jobs: JobQueue,
    next_token: AtomicU64,
    shutdown: AtomicBool,
    stats: EngineStats,
}

/// Token reserved for control wakeups (shutdown); connection tokens
/// start above it.
const CONTROL_TOKEN: u64 = 0;

/// The loop re-checks the shutdown flag at least this often even if no
/// traffic arrives.
const LOOP_TICK: Duration = Duration::from_millis(25);

impl Engine {
    /// Starts the loop thread and worker pool for `service`. `identity`
    /// is the server key the responder handshake signs with.
    pub fn start(
        service: Arc<dyn NfsService>,
        identity: SigningKey,
        config: EngineConfig,
    ) -> Engine {
        let config = EngineConfig {
            workers: config.workers.max(1),
            queue_bound: config.queue_bound.max(1),
            batch: config.batch.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            service,
            identity,
            config,
            ready: ReadySet::new(),
            conns: Mutex::new(HashMap::new()),
            handshakes: Mutex::new(HashMap::new()),
            jobs: JobQueue::default(),
            next_token: AtomicU64::new(CONTROL_TOKEN + 1),
            shutdown: AtomicBool::new(false),
            stats: EngineStats::default(),
        });
        let mut threads = Vec::with_capacity(config.workers + 1);
        let loop_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("engine-loop".into())
                .spawn(move || loop_shared.run_loop())
                .expect("spawn engine loop"),
        );
        for i in 0..config.workers {
            let worker_shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("engine-worker-{i}"))
                    .spawn(move || worker_shared.run_worker())
                    .expect("spawn engine worker"),
            );
        }
        Engine {
            shared,
            threads: Mutex::new(threads),
            stopped: AtomicBool::new(false),
        }
    }

    /// Accepts a raw endpoint: it joins the readiness loop at once,
    /// each IKE responder handshake step runs as a worker job once its
    /// message has arrived (never on the caller or a dedicated thread),
    /// then the established channel is served under the same token.
    /// Returns the connection's token.
    pub fn accept(&self, endpoint: Endpoint) -> u64 {
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        self.shared.park(
            token,
            Box::new(Handshake {
                endpoint,
                pending: None,
            }),
        );
        token
    }

    /// Accepts an already-established channel (plain channels, tests).
    pub fn accept_channel(&self, chan: Box<dyn SecureTransport>) -> u64 {
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        self.shared.jobs.push(Job::Attach { token, chan });
        token
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.shared.stats
    }

    /// Fixed thread count: loop + workers, independent of connections.
    pub fn thread_count(&self) -> usize {
        self.shared.config.workers + 1
    }

    /// Currently attached connections.
    pub fn connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// The highest queue depth `token`'s connection ever reached, or
    /// `None` if it is not (or no longer) attached.
    pub fn queue_high_water(&self, token: u64) -> Option<usize> {
        self.shared
            .conns
            .lock()
            .get(&token)
            .map(|c| c.high_water.load(Ordering::Relaxed))
    }

    /// Whether `token` is still attached.
    pub fn is_connected(&self, token: u64) -> bool {
        self.shared.conns.lock().contains_key(&token)
    }

    /// Quiesces the engine: stops the readiness loop (no further input
    /// is accepted from any channel), lets the workers drain every
    /// request already queued, then joins all threads. Idempotent.
    ///
    /// After `shutdown` returns, no engine thread can touch the service
    /// again — the owner may safely sync and drop the store.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ready.push(CONTROL_TOKEN);
        let mut threads = self.threads.lock();
        // Join the loop first (it is threads[0]): once it exits, no new
        // requests can enter any queue.
        if !threads.is_empty() {
            threads.remove(0).join().ok();
        }
        // Make sure every queued request has a Serve job covering it,
        // then let the workers drain the job queue and exit.
        {
            let conns = self.shared.conns.lock();
            for conn in conns.values() {
                let backlog = !conn.queue.lock().is_empty();
                if backlog && !conn.scheduled.swap(true, Ordering::SeqCst) {
                    self.shared.jobs.push(Job::Serve { token: conn.token });
                }
            }
        }
        self.shared.jobs.close();
        for handle in threads.drain(..) {
            handle.join().ok();
        }
        // Peers still mid-handshake see a hang-up.
        self.shared.handshakes.lock().clear();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    // ---- readiness loop (single thread) ----------------------------------

    fn run_loop(self: Arc<Self>) {
        loop {
            let tokens = self.ready.wait(LOOP_TICK);
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            for token in tokens {
                if token == CONTROL_TOKEN {
                    continue;
                }
                let conn = {
                    let conns = self.conns.lock();
                    conns.get(&token).cloned()
                };
                match conn {
                    Some(conn) => self.poll_conn(&conn),
                    None => self.poll_handshake(token),
                }
            }
        }
    }

    /// Schedules the next step of a parked handshake once the peer's
    /// message is in. A token that is neither parked nor attached
    /// belongs to a handshake a worker holds (it re-arms the token when
    /// it parks the handshake again) or to one that is gone.
    fn poll_handshake(&self, token: u64) {
        let mut handshakes = self.handshakes.lock();
        let Some(hs) = handshakes.remove(&token) else {
            return;
        };
        match hs.endpoint.try_recv() {
            Ok(Some(msg)) => {
                drop(handshakes);
                self.jobs.push(Job::Handshake { token, hs, msg });
            }
            Ok(None) => {
                handshakes.insert(token, hs);
            }
            // The peer hung up mid-handshake.
            Err(_) => self.handshake_failed(),
        }
    }

    /// Parks `hs` until the peer's next message arrives. The
    /// registration is made under the map lock and re-arms the token
    /// when that message (or a hang-up) is already in, so a wakeup the
    /// loop skipped while a worker held the handshake is not lost.
    fn park(&self, token: u64, hs: Box<Handshake>) {
        let mut handshakes = self.handshakes.lock();
        hs.endpoint.register_ready(&self.ready, token);
        handshakes.insert(token, hs);
    }

    /// Drains one readable connection: channel → frame decoder →
    /// bounded queue, then schedules a worker if requests are waiting.
    fn poll_conn(&self, conn: &Arc<Conn>) {
        if conn.closing.load(Ordering::Acquire) {
            return;
        }
        let mut reason: Option<DropReason> = None;
        loop {
            // Move already-decoded frames into the queue first, up to
            // the bound.
            let mut decoder = conn.decoder.lock();
            {
                let mut queue = conn.queue.lock();
                while queue.len() < self.config.queue_bound {
                    match decoder.pop_frame() {
                        Some(frame) => queue.push_back(frame),
                        None => break,
                    }
                }
                conn.high_water.fetch_max(queue.len(), Ordering::Relaxed);
                if queue.len() >= self.config.queue_bound {
                    // Full: pause. The worker that frees space clears
                    // the flag and re-arms our token, at which point we
                    // resume exactly here with the leftover frames.
                    drop(queue);
                    drop(decoder);
                    conn.paused.store(true, Ordering::SeqCst);
                    self.stats.pauses.fetch_add(1, Ordering::Relaxed);
                    // Re-check: a worker may have drained and cleared
                    // `paused` between our len check and the store,
                    // never seeing our pause — undo and retry.
                    if conn.queue.lock().len() >= self.config.queue_bound {
                        break;
                    }
                    conn.paused.store(false, Ordering::SeqCst);
                    continue;
                }
            }
            // Queue has room and the decoder is empty: pull one more
            // transport message.
            match conn.chan.try_recv() {
                Ok(Some(msg)) => {
                    if decoder.feed(Bytes::from(msg)).is_err() {
                        reason = Some(DropReason::Violation("malformed frame"));
                        break;
                    }
                }
                Ok(None) => break,
                Err(IpsecError::Net(_)) => {
                    reason = Some(DropReason::Disconnect);
                    break;
                }
                // A record that fails authentication or replay
                // protection inside the tunnel means the stream is
                // broken beyond recovery at this layer.
                Err(_) => {
                    reason = Some(DropReason::Violation("broken record stream"));
                    break;
                }
            }
        }
        match reason {
            Some(DropReason::Disconnect) => {
                // Serve what was already accepted, then close.
                self.schedule(conn);
                self.drop_conn(conn, DropReason::Disconnect);
            }
            Some(violation) => self.drop_conn(conn, violation),
            None => self.schedule(conn),
        }
    }

    /// Ensures a Serve job exists when the connection has queued work.
    fn schedule(&self, conn: &Arc<Conn>) {
        let backlog = !conn.queue.lock().is_empty();
        if backlog && !conn.scheduled.swap(true, Ordering::SeqCst) {
            self.jobs.push(Job::Serve { token: conn.token });
        }
    }

    // ---- worker pool ------------------------------------------------------

    fn run_worker(self: Arc<Self>) {
        while let Some(job) = self.jobs.pop() {
            match job {
                Job::Handshake { token, hs, msg } => self.handshake_step(token, hs, msg),
                Job::Attach { token, chan } => self.attach(token, chan, None),
                Job::Serve { token } => {
                    let conn = {
                        let conns = self.conns.lock();
                        conns.get(&token).cloned()
                    };
                    if let Some(conn) = conn {
                        self.serve_quantum(&conn);
                    }
                }
            }
        }
    }

    /// Takes the step of `hs` that `msg` answers: INIT gets the signed
    /// reply and the handshake is parked for AUTH; AUTH attaches the
    /// channel, with the first record's calls when one rode with it.
    fn handshake_step(&self, token: u64, hs: Box<Handshake>, msg: Vec<u8>) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Handshake { endpoint, pending } = *hs;
        match pending {
            None => {
                let mut rng = DetRng::new(
                    self.config
                        .handshake_seed
                        .wrapping_add(token.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                match ike::respond_init(&endpoint, &msg, &self.identity, &mut rng) {
                    Ok(pending) => self.park(
                        token,
                        Box::new(Handshake {
                            endpoint,
                            pending: Some(pending),
                        }),
                    ),
                    Err(_) => self.handshake_failed(),
                }
            }
            Some(pending) => match pending.complete(endpoint, &msg) {
                Ok((chan, first)) => self.attach(token, Box::new(chan), first),
                Err(_) => self.handshake_failed(),
            },
        }
    }

    fn handshake_failed(&self) {
        self.stats
            .handshake_failures
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Serves `chan` under `token`. `first` is the payload of a record
    /// that rode with the IKE AUTH: its frames are in the decoder before
    /// the channel can be polled, so they queue ahead of the records
    /// that follow it.
    fn attach(&self, token: u64, chan: Box<dyn SecureTransport>, first: Option<Vec<u8>>) {
        let mut decoder = FrameDecoder::new();
        let first_fed = first.map(|msg| decoder.feed(Bytes::from(msg)).is_ok());
        let conn = Arc::new(Conn {
            token,
            peer: chan.peer_identity(),
            chan,
            decoder: Mutex::new(decoder),
            queue: Mutex::new(VecDeque::new()),
            high_water: AtomicUsize::new(0),
            scheduled: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            closing: AtomicBool::new(false),
        });
        // Opened before it can be served or dropped, so the service sees
        // every close after its open.
        self.service
            .connection_opened(&RequestCtx::of_peer(conn.peer));
        // Counted before it can be served, so a client that sees a
        // reply also sees its connection counted.
        self.stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        self.conns.lock().insert(token, Arc::clone(&conn));
        // Register only after the map insert: a wakeup that fires
        // immediately (messages already pending) must find the
        // connection.
        conn.chan.register_ready(&self.ready, token);
        match first_fed {
            // The loop moves the decoded calls into the queue.
            Some(true) => self.ready.push(token),
            Some(false) => self.drop_conn(&conn, DropReason::Violation("malformed frame")),
            None => {}
        }
    }

    /// Serves one scheduling quantum: up to `batch` requests, one
    /// framed reply message, then yields the connection.
    fn serve_quantum(&self, conn: &Arc<Conn>) {
        loop {
            let batch: Vec<Bytes> = {
                let mut queue = conn.queue.lock();
                let n = queue.len().min(self.config.batch);
                queue.drain(..n).collect()
            };
            if batch.is_empty() {
                conn.scheduled.store(false, Ordering::SeqCst);
                // The loop may have refilled the queue after our drain
                // but before the store above, and seen `scheduled` still
                // true — re-claim and keep going if so.
                let refilled = !conn.queue.lock().is_empty();
                if refilled && !conn.scheduled.swap(true, Ordering::SeqCst) {
                    continue;
                }
                return;
            }
            let mut out = Vec::new();
            let mut served = 0u64;
            let mut panicked = false;
            for req in &batch {
                let Ok(call) = RpcCallView::decode(req) else {
                    // Garbage that framed correctly but is not a call is
                    // ignored; the connection lives on.
                    continue;
                };
                let ctx = request_ctx(conn.peer, &call.cred);
                let dispatched =
                    panic::catch_unwind(AssertUnwindSafe(|| dispatch(&*self.service, &ctx, &call)));
                let Ok(reply) = dispatched else {
                    panicked = true;
                    break;
                };
                let start = frame::begin_frame(&mut out);
                reply.encode_into(&mut out);
                frame::end_frame(&mut out, start);
                served += 1;
            }
            self.stats
                .requests_served
                .fetch_add(served, Ordering::Relaxed);
            if !out.is_empty() {
                self.stats.batches_sent.fetch_add(1, Ordering::Relaxed);
                if conn.chan.send(out).is_err() {
                    self.drop_conn(conn, DropReason::Disconnect);
                    return;
                }
            }
            if panicked {
                // The calls before it are answered above; it is not.
                self.drop_conn(conn, DropReason::Violation("service call panicked"));
                return;
            }
            // We just freed queue space: resume a paused connection.
            if conn.paused.swap(false, Ordering::SeqCst) {
                self.ready.push(conn.token);
            }
            // Quantum done. If more work remains, requeue behind other
            // connections instead of monopolizing this worker
            // (`scheduled` stays true — the job still exists).
            let more = !conn.queue.lock().is_empty();
            if more {
                self.jobs.push(Job::Serve { token: conn.token });
                return;
            }
            conn.scheduled.store(false, Ordering::SeqCst);
            let refilled = !conn.queue.lock().is_empty();
            if refilled && !conn.scheduled.swap(true, Ordering::SeqCst) {
                continue;
            }
            return;
        }
    }

    // ---- teardown ---------------------------------------------------------

    fn drop_conn(&self, conn: &Arc<Conn>, reason: DropReason) {
        if conn.closing.swap(true, Ordering::SeqCst) {
            return;
        }
        let ctx = RequestCtx::of_peer(conn.peer);
        if let DropReason::Violation(what) = reason {
            self.stats.malformed_drops.fetch_add(1, Ordering::Relaxed);
            self.service.connection_aborted(&ctx, what);
        }
        self.stats
            .connections_dropped
            .fetch_add(1, Ordering::Relaxed);
        self.service.connection_closed(&ctx);
        // Removed from the map last, so an observer that sees the
        // connection gone also sees the service-side session torn down
        // (`is_connected`/`connections` double as teardown barriers).
        self.conns.lock().remove(&conn.token);
    }
}
