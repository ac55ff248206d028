//! Simulated network substrate for the DisCFS reproduction.
//!
//! The paper's testbed was two x86 hosts ("Alice" the server, "Bob" the
//! client) on 100 Mbps Ethernet. This crate substitutes an in-process
//! message-passing network whose *virtual clock* charges each message
//! the latency and serialization delay the real wire would have cost:
//!
//! * [`SimClock`] — a shared monotonic virtual clock (nanoseconds).
//! * [`LinkConfig`] — latency/bandwidth parameters
//!   ([`LinkConfig::ethernet_100mbps`] matches the paper's testbed).
//! * [`Link::pair`] — a duplex connection: two [`Endpoint`]s that can be
//!   moved to different threads (client thread / server thread, exactly
//!   like the two hosts in the paper's Figure 6). Each direction is
//!   one message queue under one lock ([`Endpoint`] gives the rules).
//! * [`Transport`] — the byte-message interface the RPC and IPsec layers
//!   build on.
//!
//! Virtual time accounting is deliberately simple: every message
//! advances the shared clock by `latency + len/bandwidth`, one after
//! another — the serialization of request/response traffic on a single
//! TCP/UDP flow. The figures issue RPCs one at a time (as Bonnie does);
//! a client that pipelines (`nfsv2`'s outbox, `discfs_bench`'s
//! `seq_*` workloads) puts several calls in one message and pays the
//! latency once for all of them, the bytes for each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Errors from the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The peer endpoint was dropped.
    Disconnected,
    /// A receive with a timeout expired.
    Timeout,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for NetError {}

/// A shared monotonic virtual clock.
///
/// All simulated resources advance the same clock — network links here,
/// disk timing models in the `store` crate's `SimStore` backend — so
/// `now()` reflects the modeled elapsed time of the whole experiment.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Resets the clock to zero (between benchmark phases).
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
    }
}

/// Latency/bandwidth parameters of a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// One-way propagation + protocol-stack latency per message.
    pub latency: Duration,
    /// Serialization bandwidth in bytes per second.
    pub bandwidth: u64,
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// SplitMix64 step — the deterministic generator behind [`FaultPlan`].
/// The workspace's one generator is `discfs_crypto::rng::DetRng`; this
/// crate keeps its own because it does not depend on the crypto crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// What a [`FaultPlan`] decided for one message.
enum FaultAction {
    /// Silently discard the message (the sender sees success).
    Drop,
    /// Deliver, possibly twice, possibly after extra delay.
    Deliver {
        /// Enqueue the message a second time (a retransmitting WAN).
        duplicate: bool,
        /// Extra one-way delay charged to the virtual clock.
        jitter: Duration,
    },
}

struct FaultState {
    rng: u64,
    drop_p: f64,
    dup_p: f64,
    jitter: Duration,
    /// Virtual-time windows during which every message is dropped.
    partitions: Vec<(Duration, Duration)>,
    /// Messages still to be dropped unconditionally (the flap hook).
    flap_remaining: u64,
}

struct FaultInner {
    state: Mutex<FaultState>,
    injected: AtomicU64,
}

/// A deterministic, seeded fault-injection plan for a link.
///
/// A plan is a cheaply-clonable handle to shared state: install the
/// same plan on both endpoints of a link ([`Link::pair_faulty`]) and
/// every message in either direction is subjected to, in order:
///
/// 1. **Flap** — [`FaultPlan::flap`] drops the next `n` messages
///    unconditionally (a momentary link sever, the test hook).
/// 2. **Partition** — messages sent while the virtual clock is inside
///    a [`FaultPlan::partition`] window are dropped; the window heals
///    by itself once the clock passes `until`.
/// 3. **Loss** — each message is dropped with probability
///    [`FaultPlan::with_loss`]'s `p`.
/// 4. **Duplication** — each delivered message is enqueued twice with
///    probability [`FaultPlan::with_duplication`]'s `p` (request/reply
///    layers must de-duplicate by request id).
/// 5. **Jitter** — each delivered message is charged a uniform extra
///    delay in `[0, max]` ([`FaultPlan::with_jitter`]).
///
/// All randomness comes from one SplitMix64 stream seeded at
/// construction, so a fault schedule replays exactly for a given seed
/// and message sequence. Dropped and duplicated messages are counted
/// by [`FaultPlan::faults_injected`] (jitter is noise, not a fault,
/// and is not counted).
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<FaultInner>,
}

impl FaultPlan {
    /// A clean plan (no faults) with a deterministic seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(FaultInner {
                state: Mutex::new(FaultState {
                    // Pre-mix so nearby seeds diverge immediately.
                    rng: seed ^ 0xD1B5_4A32_D192_ED03,
                    drop_p: 0.0,
                    dup_p: 0.0,
                    jitter: Duration::ZERO,
                    partitions: Vec::new(),
                    flap_remaining: 0,
                }),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Sets the per-message drop probability, builder-style.
    pub fn with_loss(self, p: f64) -> FaultPlan {
        self.inner.state.lock().drop_p = p;
        self
    }

    /// Sets the per-message duplication probability, builder-style.
    pub fn with_duplication(self, p: f64) -> FaultPlan {
        self.inner.state.lock().dup_p = p;
        self
    }

    /// Sets the maximum extra per-message delay, builder-style.
    pub fn with_jitter(self, max: Duration) -> FaultPlan {
        self.inner.state.lock().jitter = max;
        self
    }

    /// Schedules a partition: every message sent while the virtual
    /// clock reads within `[from, until)` is dropped.
    pub fn partition(&self, from: Duration, until: Duration) {
        self.inner.state.lock().partitions.push((from, until));
    }

    /// Test hook: drop the next `n` messages unconditionally — a link
    /// flap, independent of the virtual clock.
    pub fn flap(&self, n: u64) {
        self.inner.state.lock().flap_remaining += n;
    }

    /// Messages dropped or duplicated by this plan so far.
    pub fn faults_injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }

    /// Decides the fate of one message sent at virtual time `now`.
    fn on_send(&self, now: Duration) -> FaultAction {
        let mut st = self.inner.state.lock();
        if st.flap_remaining > 0 {
            st.flap_remaining -= 1;
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
            return FaultAction::Drop;
        }
        if st
            .partitions
            .iter()
            .any(|&(from, until)| now >= from && now < until)
        {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
            return FaultAction::Drop;
        }
        if st.drop_p > 0.0 && unit_f64(&mut st.rng) < st.drop_p {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
            return FaultAction::Drop;
        }
        let duplicate = st.dup_p > 0.0 && unit_f64(&mut st.rng) < st.dup_p;
        if duplicate {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
        }
        let jitter = if st.jitter.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_nanos((unit_f64(&mut st.rng) * st.jitter.as_nanos() as f64) as u64)
        };
        FaultAction::Deliver { duplicate, jitter }
    }
}

impl LinkConfig {
    /// The paper's testbed: 100 Mbps Ethernet.
    ///
    /// 120 µs one-way message latency models interrupt + protocol stack
    /// costs on ~2001 hardware (a 450 MHz PIII server); 100 Mbps =
    /// 12.5 MB/s serialization rate.
    pub fn ethernet_100mbps() -> LinkConfig {
        LinkConfig {
            latency: Duration::from_micros(120),
            bandwidth: 12_500_000,
        }
    }

    /// A zero-cost link for tests that do not measure time.
    pub fn instant() -> LinkConfig {
        LinkConfig {
            latency: Duration::ZERO,
            bandwidth: u64::MAX,
        }
    }

    /// The virtual-time cost of transmitting `len` bytes.
    pub fn transfer_time(&self, len: usize) -> Duration {
        if self.bandwidth == u64::MAX {
            return self.latency;
        }
        self.latency
            + Duration::from_nanos((len as u64).saturating_mul(1_000_000_000) / self.bandwidth)
    }
}

/// Byte-message transport: the interface RPC and IPsec layers build on.
pub trait Transport: Send + Sync {
    /// Sends one message.
    fn send(&self, msg: Vec<u8>) -> Result<(), NetError>;
    /// Receives one message, blocking until available.
    fn recv(&self) -> Result<Vec<u8>, NetError>;
    /// Receives with a timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError>;

    /// Receives without blocking: `Ok(None)` when no message is ready.
    ///
    /// The default delegates to a zero-duration [`Transport::recv_timeout`]
    /// so every existing transport keeps working; [`Endpoint`] overrides
    /// it with a true non-blocking receive.
    fn try_recv(&self) -> Result<Option<Vec<u8>>, NetError> {
        match self.recv_timeout(Duration::ZERO) {
            Ok(msg) => Ok(Some(msg)),
            Err(NetError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Registers a readiness watcher: after this call, every message that
    /// becomes receivable on this transport pushes `token` into `set`.
    ///
    /// The default is a no-op (readiness-oblivious transports simply never
    /// wake the set); [`Endpoint`] implements real edge wakeups.
    fn register_ready(&self, set: &Arc<ReadySet>, token: u64) {
        let _ = (set, token);
    }

    /// The [`FaultPlan`] injecting faults on this transport, when one
    /// is installed. Request/response layers use it to surface
    /// fault-injection counters in their own stats without holding the
    /// transport lock.
    fn fault_plan(&self) -> Option<FaultPlan> {
        None
    }

    /// The virtual clock this transport charges, when it has one —
    /// a client above it reads the time its wire and timeouts cost
    /// (a replicated volume paces its background rebuild by it).
    fn sim_clock(&self) -> Option<SimClock> {
        None
    }
}

/// An edge-triggered readiness queue: the wait surface of the request
/// engine's event loop.
///
/// Producers ([`Endpoint::send`], endpoint drops) push the consumer-chosen
/// `u64` token of the connection that became readable; the single loop
/// thread blocks in [`ReadySet::wait`] and drains whatever accumulated.
/// Tokens are deduplicated while queued, so a pipelined burst of N
/// messages costs one wakeup, and a token re-armed after being drained
/// costs exactly one more — O(ready) work per loop iteration regardless
/// of how many connections are registered.
#[derive(Default)]
pub struct ReadySet {
    inner: Mutex<ReadyInner>,
    cv: Condvar,
}

#[derive(Default)]
struct ReadyInner {
    queue: VecDeque<u64>,
    queued: HashSet<u64>,
}

impl ReadySet {
    /// Creates an empty set.
    pub fn new() -> Arc<ReadySet> {
        Arc::new(ReadySet::default())
    }

    /// Marks `token` ready, waking one waiter. Idempotent while the token
    /// is still queued.
    pub fn push(&self, token: u64) {
        let mut inner = self.inner.lock();
        if inner.queued.insert(token) {
            inner.queue.push_back(token);
            self.cv.notify_one();
        }
    }

    /// Blocks until at least one token is ready (or `timeout` expires),
    /// then drains and returns every queued token, oldest first.
    pub fn wait(&self, timeout: Duration) -> Vec<u64> {
        let mut inner = self
            .cv
            .wait_timeout_while(self.inner.lock(), timeout, |i| i.queue.is_empty());
        inner.queued.clear();
        inner.queue.drain(..).collect()
    }
}

/// One direction of a [`Link`]: everything in it sits under `state`,
/// and `cv` wakes the receiving endpoint's blocked receives.
#[derive(Default)]
struct Pipe {
    state: Mutex<Dir>,
    cv: Condvar,
}

#[derive(Default)]
struct Dir {
    /// Messages sent and not yet received, oldest first.
    queue: VecDeque<Vec<u8>>,
    /// Set when either endpoint is dropped: sends fail from then on,
    /// and receives drain `queue` and then report `Disconnected`.
    closed: bool,
    /// The [`ReadySet`] and token the receiving endpoint registered.
    watcher: Option<(Arc<ReadySet>, u64)>,
    /// Receives asleep on `cv`. A send notifies only when there is one:
    /// a notify is a system call even with nobody waiting.
    waiting: usize,
}

impl Dir {
    /// Pokes the watcher, if there is one.
    fn wake_watcher(&self) {
        if let Some((set, token)) = &self.watcher {
            set.push(*token);
        }
    }

    /// The next message, or why there is none (`Timeout`: not yet).
    fn pop(&mut self) -> Result<Vec<u8>, NetError> {
        match self.queue.pop_front() {
            Some(msg) => Ok(msg),
            None if self.closed => Err(NetError::Disconnected),
            None => Err(NetError::Timeout),
        }
    }
}

/// One side of a duplex [`Link`].
///
/// Each direction is one queue under one lock: a send pushes its
/// message and pokes the receiver's watcher under that lock, a receive
/// pops or waits on it, and a registration arms its token under it, so
/// none of them can see another half done. Dropping an endpoint closes
/// both directions: the peer's sends fail from then on, and its
/// receives get what was already queued, then `Disconnected`.
pub struct Endpoint {
    clock: SimClock,
    config: LinkConfig,
    /// Direction peer → us: what our `recv` drains.
    incoming: Arc<Pipe>,
    /// Direction us → peer: what our `send` fills.
    outgoing: Arc<Pipe>,
    /// Faults applied to messages this endpoint sends
    /// ([`Link::pair_faulty`] installs one plan on both sides).
    faults: Option<FaultPlan>,
}

/// Constructor namespace for link pairs.
pub struct Link;

impl Link {
    /// Creates a connected pair of endpoints sharing `clock`.
    pub fn pair(clock: &SimClock, config: LinkConfig) -> (Endpoint, Endpoint) {
        let (ab, ba) = (Arc::new(Pipe::default()), Arc::new(Pipe::default()));
        let end = |incoming, outgoing| Endpoint {
            clock: clock.clone(),
            config,
            incoming,
            outgoing,
            faults: None,
        };
        (end(Arc::clone(&ba), Arc::clone(&ab)), end(ab, ba))
    }

    /// Like [`Link::pair`], with `faults` installed on **both**
    /// endpoints: every message in either direction is subjected to
    /// the plan's drop/duplicate/jitter/partition schedule.
    pub fn pair_faulty(
        clock: &SimClock,
        config: LinkConfig,
        faults: &FaultPlan,
    ) -> (Endpoint, Endpoint) {
        let (mut a, mut b) = Link::pair(clock, config);
        a.faults = Some(faults.clone());
        b.faults = Some(faults.clone());
        (a, b)
    }

    /// A zero-latency loopback pair (local filesystem comparisons).
    pub fn loopback(clock: &SimClock) -> (Endpoint, Endpoint) {
        Link::pair(clock, LinkConfig::instant())
    }
}

impl Endpoint {
    /// Enqueues one message toward the peer and wakes it.
    fn enqueue(&self, msg: Vec<u8>) -> Result<(), NetError> {
        let mut dir = self.outgoing.state.lock();
        if dir.closed {
            return Err(NetError::Disconnected);
        }
        dir.queue.push_back(msg);
        dir.wake_watcher();
        let waiting = dir.waiting > 0;
        drop(dir);
        if waiting {
            self.outgoing.cv.notify_one();
        }
        Ok(())
    }
}

impl Transport for Endpoint {
    fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
        self.clock.advance(self.config.transfer_time(msg.len()));
        if let Some(faults) = &self.faults {
            match faults.on_send(self.clock.now()) {
                // The sender still paid the wire time, but the message
                // never lands: the sender cannot tell (UDP semantics).
                FaultAction::Drop => return Ok(()),
                FaultAction::Deliver { duplicate, jitter } => {
                    if !jitter.is_zero() {
                        self.clock.advance(jitter);
                    }
                    if duplicate {
                        self.enqueue(msg.clone())?;
                    }
                    return self.enqueue(msg);
                }
            }
        }
        self.enqueue(msg)
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        let mut dir = self.incoming.state.lock();
        while dir.queue.is_empty() && !dir.closed {
            dir.waiting += 1;
            dir = self.incoming.cv.wait(dir);
            dir.waiting -= 1;
        }
        dir.pop()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let pipe = &self.incoming;
        let mut dir = pipe.state.lock();
        dir.waiting += 1;
        dir = pipe
            .cv
            .wait_timeout_while(dir, timeout, |d| d.queue.is_empty() && !d.closed);
        dir.waiting -= 1;
        dir.pop()
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, NetError> {
        match self.incoming.state.lock().pop() {
            Ok(msg) => Ok(Some(msg)),
            Err(NetError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn register_ready(&self, set: &Arc<ReadySet>, token: u64) {
        let mut dir = self.incoming.state.lock();
        dir.watcher = Some((Arc::clone(set), token));
        // Messages that arrived — or a peer that left — before
        // registration would otherwise never produce an edge: arm the
        // token once if there is anything to observe.
        if !dir.queue.is_empty() || dir.closed {
            dir.wake_watcher();
        }
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.clone()
    }

    fn sim_clock(&self) -> Option<SimClock> {
        Some(self.clock.clone())
    }
}

impl Drop for Endpoint {
    /// A dropped endpoint is a disconnect from the peer's point of view:
    /// its sends fail, and its receives, blocked ones and the watcher's
    /// loop included, are woken to drain the queue and see
    /// `Disconnected` instead of sleeping forever.
    fn drop(&mut self) {
        let mut dir = self.incoming.state.lock();
        dir.closed = true;
        // Nobody is left to receive these.
        dir.queue.clear();
        drop(dir);
        let mut dir = self.outgoing.state.lock();
        dir.closed = true;
        dir.wake_watcher();
        drop(dir);
        self.outgoing.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_between_threads() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        let server = std::thread::spawn(move || {
            let msg = b.recv().unwrap();
            b.send([&msg[..], b" world"].concat()).unwrap();
        });
        a.send(b"hello".to_vec()).unwrap();
        assert_eq!(a.recv().unwrap(), b"hello world");
        server.join().unwrap();
    }

    #[test]
    fn clock_charges_latency_and_bandwidth() {
        let clock = SimClock::new();
        let config = LinkConfig {
            latency: Duration::from_micros(100),
            bandwidth: 1_000_000, // 1 MB/s
        };
        let (a, _b) = Link::pair(&clock, config);
        a.send(vec![0u8; 1_000_000]).unwrap();
        // 100 µs latency + 1 s transfer.
        let now = clock.now();
        assert!(now >= Duration::from_millis(1000), "clock = {now:?}");
        assert!(now <= Duration::from_millis(1001), "clock = {now:?}");
    }

    #[test]
    fn ethernet_preset_transfer_time() {
        let cfg = LinkConfig::ethernet_100mbps();
        // An 8 KB NFS block at 12.5 MB/s is ~655 µs + 120 µs latency.
        let t = cfg.transfer_time(8192);
        assert!(
            t > Duration::from_micros(700) && t < Duration::from_micros(850),
            "{t:?}"
        );
    }

    #[test]
    fn disconnect_detected() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        drop(b);
        assert_eq!(a.send(vec![1]), Err(NetError::Disconnected));
        assert_eq!(a.recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn recv_timeout() {
        let clock = SimClock::new();
        let (a, _b) = Link::pair(&clock, LinkConfig::instant());
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn flap_drops_exactly_next_n() {
        let clock = SimClock::new();
        let plan = FaultPlan::seeded(1);
        let (a, b) = Link::pair_faulty(&clock, LinkConfig::instant(), &plan);
        plan.flap(2);
        a.send(vec![1]).unwrap();
        a.send(vec![2]).unwrap();
        a.send(vec![3]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![3]);
        assert_eq!(b.try_recv().unwrap(), None);
        assert_eq!(plan.faults_injected(), 2);
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let clock = SimClock::new();
        let plan = FaultPlan::seeded(2);
        // Nonzero latency so the clock moves through the window.
        let config = LinkConfig {
            latency: Duration::from_millis(1),
            bandwidth: u64::MAX,
        };
        let (a, b) = Link::pair_faulty(&clock, config, &plan);
        plan.partition(Duration::from_millis(1), Duration::from_millis(4));
        a.send(vec![1]).unwrap(); // sent at t=1ms: inside the window
        a.send(vec![2]).unwrap(); // t=2ms: inside
        a.send(vec![3]).unwrap(); // t=3ms: inside
        a.send(vec![4]).unwrap(); // t=4ms: healed
        assert_eq!(b.recv().unwrap(), vec![4]);
        assert_eq!(b.try_recv().unwrap(), None);
        assert_eq!(plan.faults_injected(), 3);
    }

    #[test]
    fn duplication_delivers_twice() {
        let clock = SimClock::new();
        let plan = FaultPlan::seeded(3).with_duplication(1.0);
        let (a, b) = Link::pair_faulty(&clock, LinkConfig::instant(), &plan);
        a.send(vec![7]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![7]);
        assert_eq!(b.recv().unwrap(), vec![7]);
        assert_eq!(b.try_recv().unwrap(), None);
        assert_eq!(plan.faults_injected(), 1);
    }

    #[test]
    fn jitter_charges_the_clock() {
        let clock = SimClock::new();
        let plan = FaultPlan::seeded(4).with_jitter(Duration::from_millis(10));
        let (a, b) = Link::pair_faulty(&clock, LinkConfig::instant(), &plan);
        a.send(vec![1]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1]);
        // Instant link: any elapsed time must be jitter, and jitter
        // alone is not a counted fault.
        assert!(clock.now() <= Duration::from_millis(10));
        assert_eq!(plan.faults_injected(), 0);
    }

    #[test]
    fn seeded_plans_replay_identically() {
        let run = |seed: u64| {
            let clock = SimClock::new();
            let plan = FaultPlan::seeded(seed).with_loss(0.3).with_duplication(0.2);
            let (a, b) = Link::pair_faulty(&clock, LinkConfig::instant(), &plan);
            let mut delivered = Vec::new();
            for i in 0..100u8 {
                a.send(vec![i]).unwrap();
            }
            while let Some(msg) = b.try_recv().unwrap() {
                delivered.push(msg[0]);
            }
            (delivered, plan.faults_injected())
        };
        assert_eq!(run(42), run(42));
        let ((d1, f1), (d2, _)) = (run(42), run(43));
        assert!(f1 > 0, "loss plan injected nothing");
        assert_ne!(d1, d2, "different seeds produced identical schedules");
    }

    #[test]
    fn fault_plan_and_clock_visible_through_transport() {
        let clock = SimClock::new();
        let plan = FaultPlan::seeded(5);
        let (a, _b) = Link::pair_faulty(&clock, LinkConfig::instant(), &plan);
        let t: &dyn Transport = &a;
        assert!(t.fault_plan().is_some());
        let c = t.sim_clock().expect("endpoint exposes its clock");
        clock.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_secs(1));
        // Plain pairs report no plan.
        let (p, _q) = Link::pair(&clock, LinkConfig::instant());
        assert!(Transport::fault_plan(&p).is_none());
    }

    #[test]
    fn clock_reset() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(5));
        assert_eq!(clock.now(), Duration::from_secs(5));
        clock.reset();
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn ready_set_wakes_on_send_and_dedups_tokens() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        let set = ReadySet::new();
        b.register_ready(&set, 7);
        assert!(set.wait(Duration::from_millis(1)).is_empty());
        a.send(vec![1]).unwrap();
        a.send(vec![2]).unwrap();
        a.send(vec![3]).unwrap();
        // Three sends, one queued token.
        assert_eq!(set.wait(Duration::from_secs(1)), vec![7]);
        assert_eq!(b.try_recv().unwrap().unwrap(), vec![1]);
        assert_eq!(b.try_recv().unwrap().unwrap(), vec![2]);
        assert_eq!(b.try_recv().unwrap().unwrap(), vec![3]);
        assert_eq!(b.try_recv().unwrap(), None);
        // Edge re-arms after the drain.
        a.send(vec![4]).unwrap();
        assert_eq!(set.wait(Duration::from_secs(1)), vec![7]);
    }

    #[test]
    fn register_after_send_still_arms_token() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        a.send(vec![9]).unwrap();
        let set = ReadySet::new();
        b.register_ready(&set, 3);
        assert_eq!(set.wait(Duration::from_secs(1)), vec![3]);
        assert_eq!(b.try_recv().unwrap().unwrap(), vec![9]);
    }

    #[test]
    fn peer_drop_wakes_watcher() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        let set = ReadySet::new();
        b.register_ready(&set, 11);
        drop(a);
        assert_eq!(set.wait(Duration::from_secs(1)), vec![11]);
        assert_eq!(b.try_recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn register_after_peer_drop_still_arms_token() {
        // The peer finished its handshake and left before the server got
        // round to watching the channel: no edge will ever follow.
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        drop(a);
        let set = ReadySet::new();
        b.register_ready(&set, 5);
        assert_eq!(set.wait(Duration::from_secs(1)), vec![5]);
        assert_eq!(b.try_recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn messages_sent_before_drop_are_delivered_before_disconnect() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        a.send(vec![1]).unwrap();
        a.send(vec![2]).unwrap();
        drop(a);
        assert_eq!(b.try_recv().unwrap().unwrap(), vec![1]);
        assert_eq!(b.try_recv().unwrap().unwrap(), vec![2]);
        assert_eq!(b.try_recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn ready_wakeup_crosses_threads() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        let set = ReadySet::new();
        b.register_ready(&set, 1);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            a.send(vec![42]).unwrap();
            a // keep the endpoint alive until we joined
        });
        assert_eq!(set.wait(Duration::from_secs(5)), vec![1]);
        assert_eq!(b.try_recv().unwrap().unwrap(), vec![42]);
        drop(sender.join().unwrap());
    }

    /// Returns once a receive of `a`'s peer is asleep on the condvar.
    fn until_peer_waits(a: &Endpoint) {
        while a.outgoing.state.lock().waiting == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn blocked_recv_sees_a_peer_dropped_on_another_thread() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        let dropper = std::thread::spawn(move || {
            until_peer_waits(&a);
            drop(a);
        });
        assert_eq!(b.recv(), Err(NetError::Disconnected));
        dropper.join().unwrap();
    }

    #[test]
    fn blocked_recv_timeout_gets_a_message_sent_on_another_thread() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        let sender = std::thread::spawn(move || {
            until_peer_waits(&a);
            a.send(vec![8]).unwrap();
            a
        });
        let timeout = Duration::from_secs(5);
        let start = std::time::Instant::now();
        assert_eq!(b.recv_timeout(timeout), Ok(vec![8]));
        // Woken by the send, not found when the wait ran out.
        assert!(start.elapsed() < timeout);
        drop(sender.join().unwrap());
    }

    #[test]
    fn default_try_recv_via_recv_timeout() {
        // Exercise the trait-default path used by transports that do not
        // override `try_recv`.
        struct Wrapper(Endpoint);
        impl Transport for Wrapper {
            fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
                self.0.send(msg)
            }
            fn recv(&self) -> Result<Vec<u8>, NetError> {
                self.0.recv()
            }
            fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
                self.0.recv_timeout(timeout)
            }
        }
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        let w = Wrapper(b);
        assert_eq!(w.try_recv().unwrap(), None);
        a.send(vec![5]).unwrap();
        assert_eq!(w.try_recv().unwrap().unwrap(), vec![5]);
        drop(a);
        assert_eq!(w.try_recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn messages_preserve_order() {
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        for i in 0..100u8 {
            a.send(vec![i]).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use discfs_crypto::rng::check::check;

    /// Clock accounting is exact: each message charges
    /// latency + ceil-free bytes/bandwidth, accumulated.
    #[test]
    fn clock_accounting_exact() {
        check("clock_accounting_exact", 64, |src| {
            let clock = SimClock::new();
            let config = LinkConfig {
                latency: Duration::from_micros(50),
                bandwidth: 1_000_000,
            };
            let (a, _b) = Link::pair(&clock, config);
            let mut expected = Duration::ZERO;
            for size in src.vec(1..20, |src| src.range(0usize..100_000)) {
                a.send(vec![0u8; size]).unwrap();
                expected += Duration::from_micros(50)
                    + Duration::from_nanos((size as u64) * 1_000_000_000 / 1_000_000);
            }
            assert_eq!(clock.now(), expected);
        });
    }

    /// FIFO order holds for any message sequence.
    #[test]
    fn fifo_order() {
        check("fifo_order", 64, |src| {
            let payloads = src.vec(1..30, |src| src.vec(0..50, |src| src.any::<u8>()));
            let clock = SimClock::new();
            let (a, b) = Link::pair(&clock, LinkConfig::instant());
            for p in &payloads {
                a.send(p.clone()).unwrap();
            }
            for p in &payloads {
                assert_eq!(&b.recv().unwrap(), p);
            }
        });
    }
}
