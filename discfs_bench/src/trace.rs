//! Tracing from outside: interposers on the stack's public trait seams
//! (`netsim::Transport`, `ipsec::SecureTransport`, `nfsv2::NfsService`,
//! `store::BlockStore`) that record a span around every call they
//! forward. Nothing inside the measured program changes.
//!
//! Spans carry the connection and, where it is visible, the RPC
//! transaction id: the channel interposers see plaintext frames, the
//! service interposer takes the id of the oldest unanswered request of
//! its connection (the engine serves a connection in arrival order),
//! and the store interposer inherits it from the service call running
//! on its thread. Below ESP the id is not visible; network spans carry
//! id 0. Totals per layer cover every span of the traced window; the
//! span file holds the first [`SPAN_FILE_CAP`] of them.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use discfs_crypto::ed25519::VerifyingKey;
use ipsec::{IpsecError, SecureTransport};
use netsim::{FaultPlan, LinkConfig, NetError, ReadySet, SimClock, Transport};
use nfsv2::{
    DirOpArgs, FHandle, Fattr, NfsService, NfsStat, ReaddirEntry, RequestCtx, Sattr, StatfsRes,
};
use onc_rpc::AcceptStat;
use store::{BlockStore, Bytes, StoreStats};

/// Spans kept for the span file; totals are not capped.
pub const SPAN_FILE_CAP: usize = 200_000;

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One client-visible operation: send to verified reply.
    Op,
    /// Time inside `NfsClient::send_call` / `wait_reply`.
    ClientCall,
    /// Client `SecureTransport` calls (ESP seal/open plus the network
    /// call beneath, which for `recv` includes waiting for the reply).
    ClientChan,
    /// Client `Transport` calls.
    ClientNet,
    /// Server `SecureTransport` calls.
    ServerChan,
    /// Server `Transport` calls.
    ServerNet,
    /// `NfsService` method calls (policy decision, FFS, store).
    Service,
    /// Block reads reaching the top of the store stack.
    StoreRead,
    /// Block writes reaching the top of the store stack.
    StoreWrite,
    /// Flushes reaching the top of the store stack.
    StoreFlush,
    /// Volume syncs the load thread asked for.
    FfsSync,
}

const LAYERS: usize = 11;

impl Layer {
    const ALL: [Layer; LAYERS] = [
        Layer::Op,
        Layer::ClientCall,
        Layer::ClientChan,
        Layer::ClientNet,
        Layer::ServerChan,
        Layer::ServerNet,
        Layer::Service,
        Layer::StoreRead,
        Layer::StoreWrite,
        Layer::StoreFlush,
        Layer::FfsSync,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::ClientCall => "nfsv2.client",
            Layer::ClientChan => "ipsec.client_chan",
            Layer::ClientNet => "netsim.client",
            Layer::ServerChan => "ipsec.server_chan",
            Layer::ServerNet => "netsim.server",
            Layer::Service => "discfs.service",
            Layer::StoreRead => "store.read",
            Layer::StoreWrite => "store.write",
            Layer::StoreFlush => "store.flush",
            Layer::FfsSync => "ffs.sync",
        }
    }
}

struct SpanRec {
    layer: Layer,
    conn: u32,
    xid: u32,
    start_ns: u64,
    dur_ns: u64,
}

thread_local! {
    /// The request the current thread is serving, set by the service
    /// interposer so store spans beneath it inherit the identity.
    static CURRENT_REQUEST: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
}

/// The in-memory span recorder shared by every interposer of a world.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    totals: [AtomicU64; LAYERS],
    counts: [AtomicU64; LAYERS],
    spans: Mutex<Vec<SpanRec>>,
    kept: AtomicU64,
    link: LinkConfig,
    /// Messages and bytes sent on the client link, by sending side.
    wire_msgs: [AtomicU64; 2],
    wire_bytes: [AtomicU64; 2],
    wire_virtual_ns: AtomicU64,
    /// Client key → connection id, registered by the server channel
    /// interposer.
    peers: Mutex<HashMap<[u8; 32], u32>>,
    /// Per connection, ids of requests received and not yet served.
    unanswered: Mutex<HashMap<u32, VecDeque<u32>>>,
}

/// The transaction id of the first RPC message in a framed buffer
/// (8-byte frame header, then the id), or 0 when too short.
fn first_xid(framed: &[u8]) -> u32 {
    framed
        .get(8..12)
        .map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))
        .unwrap_or(0)
}

impl Tracer {
    /// A recorder, disabled until [`Tracer::set_enabled`]. `link` is
    /// the client link's model, used to price observed message sizes.
    pub fn new(link: LinkConfig) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            totals: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
            kept: AtomicU64::new(0),
            link,
            wire_msgs: [AtomicU64::new(0), AtomicU64::new(0)],
            wire_bytes: [AtomicU64::new(0), AtomicU64::new(0)],
            wire_virtual_ns: AtomicU64::new(0),
            peers: Mutex::new(HashMap::new()),
            unanswered: Mutex::new(HashMap::new()),
        })
    }

    /// Starts or stops recording. A span that straddles the switch is
    /// dropped.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// The start of a span, or `None` while disabled.
    pub fn start(&self) -> Option<Instant> {
        self.enabled.load(Ordering::Relaxed).then(Instant::now)
    }

    /// Closes a span opened by [`Tracer::start`].
    pub fn finish(&self, start: Option<Instant>, layer: Layer, conn: u32, xid: u32) {
        let Some(start) = start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let i = layer as usize;
        self.totals[i].fetch_add(dur_ns, Ordering::Relaxed);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        // Past the cap a span costs two atomic adds and no lock.
        if self.kept.fetch_add(1, Ordering::Relaxed) < SPAN_FILE_CAP as u64 {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(SpanRec {
                layer,
                conn,
                xid,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// Total time recorded for `layer`.
    pub fn total(&self, layer: Layer) -> Duration {
        Duration::from_nanos(self.totals[layer as usize].load(Ordering::Relaxed))
    }

    /// Spans recorded for `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.counts[layer as usize].load(Ordering::Relaxed)
    }

    /// `(messages, bytes)` the `side` end sent on the client link.
    pub fn sent_by(&self, side: Side) -> (u64, u64) {
        (
            self.wire_msgs[side as usize].load(Ordering::Relaxed),
            self.wire_bytes[side as usize].load(Ordering::Relaxed),
        )
    }

    /// What the link model charges for every message seen, both ways.
    pub fn wire_virtual(&self) -> Duration {
        Duration::from_nanos(self.wire_virtual_ns.load(Ordering::Relaxed))
    }

    fn count_message(&self, side: Side, len: usize) {
        self.wire_msgs[side as usize].fetch_add(1, Ordering::Relaxed);
        self.wire_bytes[side as usize].fetch_add(len as u64, Ordering::Relaxed);
        self.wire_virtual_ns.fetch_add(
            self.link.transfer_time(len).as_nanos() as u64,
            Ordering::Relaxed,
        );
    }

    fn request_arrived(&self, conn: u32, xid: u32) {
        self.unanswered
            .lock()
            .expect("request map poisoned")
            .entry(conn)
            .or_default()
            .push_back(xid);
    }

    /// The request a service call on behalf of `peer` is answering.
    fn request_served(&self, peer: Option<VerifyingKey>) -> (u32, u32) {
        let Some(peer) = peer else { return (0, 0) };
        let Some(&conn) = self.peers.lock().expect("peer map poisoned").get(&peer.0) else {
            return (0, 0);
        };
        let xid = self
            .unanswered
            .lock()
            .expect("request map poisoned")
            .get_mut(&conn)
            .and_then(VecDeque::pop_front)
            .unwrap_or(0);
        (conn, xid)
    }

    /// Writes the kept spans as JSON: one array per span,
    /// `[layer, conn, xid, start_us, dur_us]`.
    ///
    /// # Errors
    ///
    /// I/O failure creating or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span list poisoned");
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"columns\": [\"layer\", \"conn\", \"xid\", \"start_us\", \"dur_us\"],"
        )?;
        write!(out, "\"totals_us\": {{")?;
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {:.3}",
                layer.name(),
                self.total(layer).as_secs_f64() * 1e6
            )?;
        }
        writeln!(out, "}},\n\"spans\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "[\"{}\",{},{},{:.3},{:.3}]{sep}",
                s.layer.name(),
                s.conn,
                s.xid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Which end of the client link an interposer sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The load generator's end.
    Client,
    /// The engine's end.
    Server,
}

/// A `netsim::Transport` that times the calls it forwards and counts
/// the messages it sends.
pub struct TracedTransport<T> {
    inner: T,
    tracer: Arc<Tracer>,
    side: Side,
    layer: Layer,
    conn: u32,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`, the `side` end of connection `conn`.
    pub fn new(inner: T, tracer: &Arc<Tracer>, side: Side, conn: u32) -> TracedTransport<T> {
        TracedTransport {
            inner,
            tracer: Arc::clone(tracer),
            side,
            layer: match side {
                Side::Client => Layer::ClientNet,
                Side::Server => Layer::ServerNet,
            },
            conn,
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
        let len = msg.len();
        let start = self.tracer.start();
        let result = self.inner.send(msg);
        if start.is_some() {
            self.tracer.count_message(self.side, len);
        }
        self.tracer.finish(start, self.layer, self.conn, 0);
        result
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        let start = self.tracer.start();
        let result = self.inner.recv();
        self.tracer.finish(start, self.layer, self.conn, 0);
        result
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let start = self.tracer.start();
        let result = self.inner.recv_timeout(timeout);
        self.tracer.finish(start, self.layer, self.conn, 0);
        result
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, NetError> {
        let start = self.tracer.start();
        let result = self.inner.try_recv();
        // An empty poll is the engine loop idling, not work on a message.
        if matches!(result, Ok(Some(_))) {
            self.tracer.finish(start, self.layer, self.conn, 0);
        }
        result
    }

    fn register_ready(&self, set: &Arc<ReadySet>, token: u64) {
        self.inner.register_ready(set, token);
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan()
    }

    fn sim_clock(&self) -> Option<SimClock> {
        self.inner.sim_clock()
    }
}

/// An `ipsec::SecureTransport` that times the calls it forwards.
pub struct TracedChannel<C> {
    inner: C,
    tracer: Arc<Tracer>,
    side: Side,
    conn: u32,
}

impl<C: SecureTransport> TracedChannel<C> {
    /// Wraps `inner`, the `side` end of connection `conn`. The server
    /// end registers its peer so service spans can find the connection.
    pub fn new(inner: C, tracer: &Arc<Tracer>, side: Side, conn: u32) -> TracedChannel<C> {
        if let (Side::Server, Some(peer)) = (side, inner.peer_identity()) {
            tracer
                .peers
                .lock()
                .expect("peer map poisoned")
                .insert(peer.0, conn);
        }
        TracedChannel {
            inner,
            tracer: Arc::clone(tracer),
            side,
            conn,
        }
    }

    fn layer(&self) -> Layer {
        match self.side {
            Side::Client => Layer::ClientChan,
            Side::Server => Layer::ServerChan,
        }
    }

    fn received(&self, start: Option<Instant>, msg: &[u8]) {
        let xid = first_xid(msg);
        if start.is_some() && self.side == Side::Server {
            self.tracer.request_arrived(self.conn, xid);
        }
        self.tracer.finish(start, self.layer(), self.conn, xid);
    }
}

impl<C: SecureTransport> SecureTransport for TracedChannel<C> {
    fn send(&self, msg: Vec<u8>) -> Result<(), IpsecError> {
        let xid = first_xid(&msg);
        let start = self.tracer.start();
        let result = self.inner.send(msg);
        self.tracer.finish(start, self.layer(), self.conn, xid);
        result
    }

    fn recv(&self) -> Result<Vec<u8>, IpsecError> {
        let start = self.tracer.start();
        let result = self.inner.recv();
        if let Ok(msg) = &result {
            self.received(start, msg);
        }
        result
    }

    fn peer_identity(&self) -> Option<VerifyingKey> {
        self.inner.peer_identity()
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, IpsecError> {
        let start = self.tracer.start();
        let result = self.inner.try_recv();
        if let Ok(Some(msg)) = &result {
            self.received(start, msg);
        }
        result
    }

    fn register_ready(&self, set: &Arc<ReadySet>, token: u64) {
        self.inner.register_ready(set, token);
    }
}

/// An `nfsv2::NfsService` that times the calls it forwards.
pub struct TracedService<S> {
    inner: Arc<S>,
    tracer: Arc<Tracer>,
}

impl<S: NfsService> TracedService<S> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<S>, tracer: &Arc<Tracer>) -> TracedService<S> {
        TracedService {
            inner,
            tracer: Arc::clone(tracer),
        }
    }

    fn span<R>(&self, ctx: &RequestCtx, call: impl FnOnce(&S) -> R) -> R {
        let Some(start) = self.tracer.start() else {
            return call(&self.inner);
        };
        let (conn, xid) = self.tracer.request_served(ctx.peer);
        CURRENT_REQUEST.with(|c| c.set((conn, xid)));
        let result = call(&self.inner);
        CURRENT_REQUEST.with(|c| c.set((0, 0)));
        self.tracer.finish(Some(start), Layer::Service, conn, xid);
        result
    }
}

impl<S: NfsService> NfsService for TracedService<S> {
    fn mount(&self, ctx: &RequestCtx, path: &str) -> Result<FHandle, NfsStat> {
        self.span(ctx, |s| s.mount(ctx, path))
    }
    fn getattr(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<Fattr, NfsStat> {
        self.span(ctx, |s| s.getattr(ctx, fh))
    }
    fn setattr(&self, ctx: &RequestCtx, fh: &FHandle, sattr: &Sattr) -> Result<Fattr, NfsStat> {
        self.span(ctx, |s| s.setattr(ctx, fh, sattr))
    }
    fn lookup(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(FHandle, Fattr), NfsStat> {
        self.span(ctx, |s| s.lookup(ctx, args))
    }
    fn readlink(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<String, NfsStat> {
        self.span(ctx, |s| s.readlink(ctx, fh))
    }
    fn read(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        count: u32,
    ) -> Result<(Fattr, Vec<u8>), NfsStat> {
        self.span(ctx, |s| s.read(ctx, fh, offset, count))
    }
    fn write(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        offset: u32,
        data: &[u8],
    ) -> Result<Fattr, NfsStat> {
        self.span(ctx, |s| s.write(ctx, fh, offset, data))
    }
    fn create(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        self.span(ctx, |s| s.create(ctx, args, sattr))
    }
    fn remove(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        self.span(ctx, |s| s.remove(ctx, args))
    }
    fn rename(&self, ctx: &RequestCtx, from: &DirOpArgs, to: &DirOpArgs) -> Result<(), NfsStat> {
        self.span(ctx, |s| s.rename(ctx, from, to))
    }
    fn link(&self, ctx: &RequestCtx, from: &FHandle, to: &DirOpArgs) -> Result<(), NfsStat> {
        self.span(ctx, |s| s.link(ctx, from, to))
    }
    fn symlink(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        target: &str,
        sattr: &Sattr,
    ) -> Result<(), NfsStat> {
        self.span(ctx, |s| s.symlink(ctx, args, target, sattr))
    }
    fn mkdir(
        &self,
        ctx: &RequestCtx,
        args: &DirOpArgs,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), NfsStat> {
        self.span(ctx, |s| s.mkdir(ctx, args, sattr))
    }
    fn rmdir(&self, ctx: &RequestCtx, args: &DirOpArgs) -> Result<(), NfsStat> {
        self.span(ctx, |s| s.rmdir(ctx, args))
    }
    fn readdir(
        &self,
        ctx: &RequestCtx,
        fh: &FHandle,
        cookie: u32,
        count: u32,
    ) -> Result<(Vec<ReaddirEntry>, bool), NfsStat> {
        self.span(ctx, |s| s.readdir(ctx, fh, cookie, count))
    }
    fn statfs(&self, ctx: &RequestCtx, fh: &FHandle) -> Result<StatfsRes, NfsStat> {
        self.span(ctx, |s| s.statfs(ctx, fh))
    }
    fn extension(
        &self,
        ctx: &RequestCtx,
        prog: u32,
        proc_num: u32,
        args: &[u8],
    ) -> Option<Result<Vec<u8>, AcceptStat>> {
        self.span(ctx, |s| s.extension(ctx, prog, proc_num, args))
    }
    fn connection_closed(&self, ctx: &RequestCtx) {
        self.inner.connection_closed(ctx);
    }
    fn connection_aborted(&self, ctx: &RequestCtx, reason: &str) {
        self.inner.connection_aborted(ctx, reason);
    }
}

/// A `store::BlockStore` that times the calls it forwards: the top of
/// the store stack as the filesystem sees it.
pub struct TracedStore {
    inner: Arc<dyn BlockStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn BlockStore>, tracer: &Arc<Tracer>) -> TracedStore {
        TracedStore {
            inner,
            tracer: Arc::clone(tracer),
        }
    }

    fn span<R>(&self, layer: Layer, call: impl FnOnce(&dyn BlockStore) -> R) -> R {
        let start = self.tracer.start();
        let result = call(&*self.inner);
        let (conn, xid) = CURRENT_REQUEST.with(Cell::get);
        self.tracer.finish(start, layer, conn, xid);
        result
    }
}

impl BlockStore for TracedStore {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read_block(&self, idx: u64) -> Bytes {
        self.span(Layer::StoreRead, |s| s.read_block(idx))
    }
    fn read_block_into(&self, idx: u64, buf: &mut [u8]) {
        self.span(Layer::StoreRead, |s| s.read_block_into(idx, buf))
    }
    fn write_block(&self, idx: u64, data: &[u8]) {
        self.span(Layer::StoreWrite, |s| s.write_block(idx, data))
    }
    fn read_blocks(&self, idxs: &[u64]) -> Vec<Bytes> {
        self.span(Layer::StoreRead, |s| s.read_blocks(idxs))
    }
    fn write_blocks(&self, writes: &[(u64, &[u8])]) {
        self.span(Layer::StoreWrite, |s| s.write_blocks(writes))
    }
    fn read_block_meta(&self, idx: u64) -> Bytes {
        self.span(Layer::StoreRead, |s| s.read_block_meta(idx))
    }
    fn read_block_meta_into(&self, idx: u64, buf: &mut [u8]) {
        self.span(Layer::StoreRead, |s| s.read_block_meta_into(idx, buf))
    }
    fn write_block_meta(&self, idx: u64, data: &[u8]) {
        self.span(Layer::StoreWrite, |s| s.write_block_meta(idx, data))
    }
    fn write_blocks_meta(&self, writes: &[(u64, &[u8])]) {
        self.span(Layer::StoreWrite, |s| s.write_blocks_meta(writes))
    }
    fn flush(&self) -> std::io::Result<()> {
        self.span(Layer::StoreFlush, |s| s.flush())
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Link;
    use store::SimStore;

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_records_spans() {
        let tracer = Tracer::new(LinkConfig::ethernet_100mbps());
        let clock = SimClock::new();
        let (a, b) = Link::pair(&clock, LinkConfig::instant());
        let a = TracedTransport::new(a, &tracer, Side::Client, 1);
        let b = TracedTransport::new(b, &tracer, Side::Server, 1);
        a.send(vec![0; 100]).unwrap();
        assert_eq!(b.recv().unwrap().len(), 100);
        assert_eq!(tracer.count(Layer::ClientNet), 0);

        tracer.set_enabled(true);
        a.send(vec![0; 1000]).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap().len(), 1000);
        assert!(b.try_recv().unwrap().is_none());
        assert_eq!(tracer.count(Layer::ClientNet), 1);
        assert_eq!(
            tracer.count(Layer::ServerNet),
            1,
            "empty polls are not spans"
        );
        assert_eq!(tracer.sent_by(Side::Client), (1, 1000));
        assert_eq!(tracer.sent_by(Side::Server), (0, 0));
        assert_eq!(
            tracer.wire_virtual(),
            LinkConfig::ethernet_100mbps().transfer_time(1000)
        );
    }

    #[test]
    fn store_interposer_forwards_and_times() {
        let tracer = Tracer::new(LinkConfig::instant());
        tracer.set_enabled(true);
        let clock = SimClock::new();
        let inner: Arc<dyn BlockStore> =
            Arc::new(SimStore::new(&clock, store::DiskModel::instant(), 8));
        let traced = TracedStore::new(inner, &tracer);
        let block = vec![7u8; store::BLOCK_SIZE];
        traced.write_block(3, &block);
        assert_eq!(&traced.read_block(3)[..], &block[..]);
        traced.flush().unwrap();
        assert_eq!(tracer.count(Layer::StoreWrite), 1);
        assert_eq!(tracer.count(Layer::StoreRead), 1);
        assert_eq!(tracer.count(Layer::StoreFlush), 1);
        assert_eq!(traced.block_count(), 8);
    }

    #[test]
    fn xid_is_read_behind_the_frame_header() {
        let call = onc_rpc::RpcCall::new(0xABCD_0123, 1, 2, 3, vec![]);
        let framed = onc_rpc::frame::encode_frame(&call.encode());
        assert_eq!(first_xid(&framed), 0xABCD_0123);
        assert_eq!(first_xid(&[1, 2, 3]), 0);
    }

    #[test]
    fn span_file_is_written() {
        let tracer = Tracer::new(LinkConfig::instant());
        tracer.set_enabled(true);
        let start = tracer.start();
        tracer.finish(start, Layer::Op, 2, 77);
        let dir = crate::world::scratch_dir("trace-test");
        let path = dir.join("trace-test.json");
        tracer.write_json(&path, "test").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("[\"op\",2,77,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
