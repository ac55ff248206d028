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
//!   non-blocking [`SecureTransport::try_recv`], feed the bytes to each
//!   connection's incremental [`FrameDecoder`], and move decoded
//!   requests into that connection's *bounded* queue. A message may
//!   carry several frames (a pipelining [`NfsClient`](crate::NfsClient)
//!   sends half its window in one); they enter the queue together, so
//!   one quantum answers them in one batch. The loop never
//!   decrypts-blocking, dispatches, or touches the filesystem.
//! * **A fixed worker pool** executes everything else: IKE responder
//!   handshakes (so `accept` never blocks and no per-connection thread
//!   exists even during session setup) and request batches. A worker
//!   serves at most [`EngineConfig::batch`] requests per scheduling
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
//!   time it frees queue space. Memory per connection is O(bound).
//! * **Malformed input**: a frame that declares a length over
//!   [`frame::DEFAULT_MAX_FRAME`] or fails its checksum — or a broken
//!   ESP record stream — condemns the connection. It is dropped cleanly
//!   (the service's `connection_aborted` + `connection_closed` hooks
//!   fire, so DisCFS audits the event) and neighbors never notice. A
//!   well-formed frame that is not an RPC call is skipped, and the
//!   connection lives on.
//!
//! [`Engine::shutdown`] quiesces in order: stop the loop (no new input),
//! serve every already-queued request, join all threads. Only then may
//! the owner sync and drop the store underneath — the join-before-sync
//! discipline `Testbed::reboot` relies on.

pub(crate) mod dispatch;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use discfs_crypto::rng::DetRng;
use ipsec::{ike, IpsecError, SecureTransport};
use netsim::{Endpoint, ReadySet};
use onc_rpc::frame::{self, FrameDecoder};
use onc_rpc::RpcCallView;

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
    /// Reassembles frames from the record stream. Loop thread only.
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

/// Work items for the pool.
enum Job {
    /// Run the IKE responder handshake, then attach the channel.
    Handshake { token: u64, endpoint: Endpoint },
    /// Attach an already-established channel.
    Attach {
        token: u64,
        chan: Box<dyn SecureTransport>,
    },
    /// Serve one scheduling quantum of a connection's queue.
    Serve { token: u64 },
}

/// A condvar-backed MPMC job queue (`std::sync::mpsc` has no cloneable
/// receiver, so the pool rolls its own).
#[derive(Default)]
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
    closed: AtomicBool,
}

impl JobQueue {
    fn push(&self, job: Job) {
        self.jobs.lock().expect("job queue poisoned").push_back(job);
        self.cv.notify_one();
    }

    /// Blocks for the next job; `None` once closed *and* empty, so
    /// closing still drains everything already queued.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            jobs = self.cv.wait(jobs).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
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
    /// Connections condemned for malformed frames / broken records.
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

    /// Accepts a raw endpoint: the IKE responder handshake runs as a
    /// worker job (never on the caller or a dedicated thread), then the
    /// established channel joins the readiness loop. Returns the
    /// connection's token.
    pub fn accept(&self, endpoint: Endpoint) -> u64 {
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        self.shared.jobs.push(Job::Handshake { token, endpoint });
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
        self.shared.conns.lock().expect("conn map poisoned").len()
    }

    /// The highest queue depth `token`'s connection ever reached, or
    /// `None` if it is not (or no longer) attached.
    pub fn queue_high_water(&self, token: u64) -> Option<usize> {
        self.shared
            .conns
            .lock()
            .expect("conn map poisoned")
            .get(&token)
            .map(|c| c.high_water.load(Ordering::Relaxed))
    }

    /// Whether `token` is still attached.
    pub fn is_connected(&self, token: u64) -> bool {
        self.shared
            .conns
            .lock()
            .expect("conn map poisoned")
            .contains_key(&token)
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
        let mut threads = self.threads.lock().expect("thread list poisoned");
        // Join the loop first (it is threads[0]): once it exits, no new
        // requests can enter any queue.
        if !threads.is_empty() {
            threads.remove(0).join().ok();
        }
        // Make sure every queued request has a Serve job covering it,
        // then let the workers drain the job queue and exit.
        {
            let conns = self.shared.conns.lock().expect("conn map poisoned");
            for conn in conns.values() {
                let backlog = !conn.queue.lock().expect("queue poisoned").is_empty();
                if backlog && !conn.scheduled.swap(true, Ordering::SeqCst) {
                    self.shared.jobs.push(Job::Serve { token: conn.token });
                }
            }
        }
        self.shared.jobs.close();
        for handle in threads.drain(..) {
            handle.join().ok();
        }
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
                    let conns = self.conns.lock().expect("conn map poisoned");
                    conns.get(&token).cloned()
                };
                if let Some(conn) = conn {
                    self.poll_conn(&conn);
                }
            }
        }
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
            let mut decoder = conn.decoder.lock().expect("decoder poisoned");
            {
                let mut queue = conn.queue.lock().expect("queue poisoned");
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
                    if conn.queue.lock().expect("queue poisoned").len() >= self.config.queue_bound {
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
        let backlog = !conn.queue.lock().expect("queue poisoned").is_empty();
        if backlog && !conn.scheduled.swap(true, Ordering::SeqCst) {
            self.jobs.push(Job::Serve { token: conn.token });
        }
    }

    // ---- worker pool ------------------------------------------------------

    fn run_worker(self: Arc<Self>) {
        while let Some(job) = self.jobs.pop() {
            match job {
                Job::Handshake { token, endpoint } => self.handshake(token, endpoint),
                Job::Attach { token, chan } => self.attach(token, chan),
                Job::Serve { token } => {
                    let conn = {
                        let conns = self.conns.lock().expect("conn map poisoned");
                        conns.get(&token).cloned()
                    };
                    if let Some(conn) = conn {
                        self.serve_quantum(&conn);
                    }
                }
            }
        }
    }

    fn handshake(&self, token: u64, endpoint: Endpoint) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut rng = DetRng::new(
            self.config
                .handshake_seed
                .wrapping_add(token.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        match ike::respond(endpoint, &self.identity, &mut rng) {
            Ok(chan) => self.attach(token, Box::new(chan)),
            Err(_) => {
                self.stats
                    .handshake_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn attach(&self, token: u64, chan: Box<dyn SecureTransport>) {
        let conn = Arc::new(Conn {
            token,
            peer: chan.peer_identity(),
            chan,
            decoder: Mutex::new(FrameDecoder::new()),
            queue: Mutex::new(VecDeque::new()),
            high_water: AtomicUsize::new(0),
            scheduled: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            closing: AtomicBool::new(false),
        });
        self.conns
            .lock()
            .expect("conn map poisoned")
            .insert(token, Arc::clone(&conn));
        // Register only after the map insert: a wakeup that fires
        // immediately (messages already pending) must find the
        // connection.
        conn.chan.register_ready(&self.ready, token);
        self.stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Serves one scheduling quantum: up to `batch` requests, one
    /// framed reply message, then yields the connection.
    fn serve_quantum(&self, conn: &Arc<Conn>) {
        loop {
            let batch: Vec<Bytes> = {
                let mut queue = conn.queue.lock().expect("queue poisoned");
                let n = queue.len().min(self.config.batch);
                queue.drain(..n).collect()
            };
            if batch.is_empty() {
                conn.scheduled.store(false, Ordering::SeqCst);
                // The loop may have refilled the queue after our drain
                // but before the store above, and seen `scheduled` still
                // true — re-claim and keep going if so.
                let refilled = !conn.queue.lock().expect("queue poisoned").is_empty();
                if refilled && !conn.scheduled.swap(true, Ordering::SeqCst) {
                    continue;
                }
                return;
            }
            let mut out = Vec::new();
            let mut served = 0u64;
            for req in &batch {
                let Ok(call) = RpcCallView::decode(req) else {
                    // Garbage that framed correctly but is not a call is
                    // ignored; the connection lives on.
                    continue;
                };
                let ctx = request_ctx(conn.peer, &call.cred);
                let reply = dispatch(&*self.service, &ctx, &call);
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
            // We just freed queue space: resume a paused connection.
            if conn.paused.swap(false, Ordering::SeqCst) {
                self.ready.push(conn.token);
            }
            // Quantum done. If more work remains, requeue behind other
            // connections instead of monopolizing this worker
            // (`scheduled` stays true — the job still exists).
            let more = !conn.queue.lock().expect("queue poisoned").is_empty();
            if more {
                self.jobs.push(Job::Serve { token: conn.token });
                return;
            }
            conn.scheduled.store(false, Ordering::SeqCst);
            let refilled = !conn.queue.lock().expect("queue poisoned").is_empty();
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
        let ctx = RequestCtx {
            peer: conn.peer,
            uid: u32::MAX,
            gid: u32::MAX,
        };
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
        self.conns
            .lock()
            .expect("conn map poisoned")
            .remove(&conn.token);
    }
}
