//! The closed-loop load generator: one [`pump`] per connection keeps a
//! fixed number of requests in flight through
//! `NfsClient::send_call`/`wait_reply`, checks every reply against what
//! the generator knows, and files each latency under the wall-clock
//! slice it completed in. A reply that is wrong or an error is counted,
//! never unwrapped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::SimClock;
use nfsv2::proto::{proc_nfs, NFS_PROGRAM, NFS_VERSION};
use nfsv2::{ClientError, DirOpArgs, FHandle, Fattr, NfsClient, NfsStat, Sattr};
use onc_rpc::{Decoder, Encoder};

use crate::gen::{check_block, fill_block, BlockTag};
use crate::plan::{Layout, Op, OpStream, Step, BLOCK};
use crate::stats::{CpuSample, Histogram, SLICES};
use crate::trace::{Layer, Tracer};
use crate::world::Handles;

/// Everything a pump needs to talk to one mounted system.
pub struct Conn<'a> {
    /// The connection.
    pub nfs: &'a NfsClient,
    /// The export root.
    pub root: FHandle,
    /// Where the layout's files are on this system.
    pub handles: &'a Handles,
    /// The workload's layout.
    pub layout: &'a Layout,
    /// The run's seed (block patterns derive from it).
    pub seed: u64,
    /// Requests kept in flight.
    pub window: usize,
    /// How [`Op::Sync`] reaches the server.
    pub sync: &'a (dyn Fn() -> std::io::Result<()> + Sync),
    /// The virtual clock cycle marks read.
    pub clock: &'a SimClock,
    /// Where client-side spans go, when tracing.
    pub tracer: Option<&'a Arc<Tracer>>,
    /// Connection id for spans.
    pub conn_id: u32,
}

#[derive(Default)]
struct SliceAcc {
    latency: Histogram,
    reads: u64,
    writes: u64,
    /// When the slice's last operation completed, from the window's
    /// start.
    last_done: Option<Duration>,
}

/// What one connection observed during one phase.
pub struct Recorder {
    start: Instant,
    slice: Duration,
    slices: Vec<SliceAcc>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong data.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// `(virtual ns, operations completed by all connections)` at each
    /// cycle end.
    marks: Vec<(u64, u64)>,
    completed: Arc<AtomicU64>,
}

impl Recorder {
    /// A recorder for a window of `length` starting at `start`.
    /// `completed` is shared by the connections of a run.
    pub fn new(start: Instant, length: Duration, completed: &Arc<AtomicU64>) -> Recorder {
        Recorder {
            start,
            slice: length / SLICES as u32,
            slices: (0..SLICES).map(|_| SliceAcc::default()).collect(),
            attempted: 0,
            failed: 0,
            first_failure: None,
            marks: Vec::new(),
            completed: Arc::clone(completed),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    fn complete(&mut self, is_write: bool, sent: Instant, done: Instant) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let Some(since) = done.checked_duration_since(self.start) else {
            return;
        };
        let index = (since.as_nanos() / self.slice.as_nanos().max(1)) as usize;
        // An operation finishing after the window is verified and
        // counted as attempted, but belongs to no slice.
        if let Some(acc) = self.slices.get_mut(index) {
            acc.latency.record((done - sent).as_nanos() as u64);
            acc.last_done = acc.last_done.max(Some(since));
            if is_write {
                acc.writes += 1;
            } else {
                acc.reads += 1;
            }
        }
    }

    fn mark(&mut self, clock: &SimClock) {
        self.marks.push((
            clock.now().as_nanos() as u64,
            self.completed.load(Ordering::Relaxed),
        ));
    }

    /// Folds another connection's observations of the same window in.
    pub fn merge(&mut self, other: Recorder) {
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.latency.merge(&theirs.latency);
            mine.reads += theirs.reads;
            mine.writes += theirs.writes;
            mine.last_done = mine.last_done.max(theirs.last_done);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.marks.extend(other.marks);
    }

    /// `(reads, writes)` completed in slice `i`.
    pub fn slice_ops(&self, i: usize) -> (u64, u64) {
        (self.slices[i].reads, self.slices[i].writes)
    }

    /// The time the operations of slice `i` took: from the last
    /// completion before the slice (the window's start for the first)
    /// to the last completion in it. Unlike the fixed slice length this
    /// ends on an operation boundary, so a slice holding a dozen long
    /// operations does not read a rate quantised to whole operations.
    pub fn slice_span(&self, i: usize) -> Option<Duration> {
        let end = self.slices[i].last_done?;
        let begin = self.slices[..i]
            .iter()
            .rev()
            .find_map(|s| s.last_done)
            .unwrap_or(Duration::ZERO);
        end.checked_sub(begin).filter(|d| !d.is_zero())
    }

    /// Latencies of the operations completed in slice `i`.
    pub fn slice_latency(&self, i: usize) -> &Histogram {
        &self.slices[i].latency
    }

    /// Operations completed inside the window.
    pub fn ops_in_window(&self) -> u64 {
        self.slices.iter().map(|s| s.reads + s.writes).sum()
    }

    /// Virtual microseconds per operation of each complete cycle.
    pub fn cycle_virtual_us_per_op(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| (w[1].0 - w[0].0) as f64 / 1e3 / (w[1].1 - w[0].1) as f64)
            .collect()
    }
}

/// Samples the CPU counters at every slice boundary of a window, from
/// its own thread so a load thread stuck in a long operation does not
/// delay a reading.
pub fn spawn_sampler(start: Instant, length: Duration) -> std::thread::JoinHandle<Vec<CpuSample>> {
    std::thread::spawn(move || {
        let slice = length / SLICES as u32;
        (0..=SLICES as u32)
            .map(|k| {
                let due = start + slice * k;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                CpuSample::now()
            })
            .collect()
    })
}

struct InFlight {
    xid: u32,
    op: Op,
    ends_cycle: bool,
    sent: Instant,
    span: Option<Instant>,
}

fn encode_call(conn: &Conn<'_>, op: &Op, buf: &mut [u8]) -> (u32, Vec<u8>) {
    let mut e = Encoder::new();
    let files = &conn.handles.files;
    match *op {
        Op::Read {
            file, block, len, ..
        } => {
            e.put_opaque_fixed(&files[file as usize].0);
            e.put_u32(block * BLOCK);
            e.put_u32(len);
            e.put_u32(len);
            (proc_nfs::READ, e.finish())
        }
        Op::Write {
            file,
            block,
            len,
            version,
        } => {
            let data = &mut buf[..len as usize];
            fill_block(
                data,
                BlockTag {
                    seed: conn.seed,
                    file,
                    block,
                    version,
                },
            );
            e.put_opaque_fixed(&files[file as usize].0);
            e.put_u32(0);
            e.put_u32(block * BLOCK);
            e.put_u32(len);
            e.put_opaque(data);
            (proc_nfs::WRITE, e.finish())
        }
        Op::Truncate { file } => {
            e.put_opaque_fixed(&files[file as usize].0);
            let mut sattr = Sattr::unchanged();
            sattr.size = 0;
            sattr.encode(&mut e);
            (proc_nfs::SETATTR, e.finish())
        }
        Op::Lookup { file } => {
            DirOpArgs {
                dir: conn.handles.parent_of(conn.layout, file, conn.root),
                name: conn.layout.files[file as usize].name.clone(),
            }
            .encode(&mut e);
            (proc_nfs::LOOKUP, e.finish())
        }
        Op::Readdir { dir } => {
            e.put_opaque_fixed(&conn.handles.dirs[dir as usize].0);
            e.put_u32(0);
            e.put_u32(BLOCK);
            (proc_nfs::READDIR, e.finish())
        }
        Op::Sync => unreachable!("sync is not an RPC"),
    }
}

/// Checks the reply to `op` against what the generator expects.
fn verify(conn: &Conn<'_>, op: &Op, results: &[u8]) -> Result<(), String> {
    let xdr = |e: onc_rpc::XdrError| format!("{op:?}: reply does not decode: {e:?}");
    let mut d = Decoder::new(results);
    let stat = NfsStat::from_u32(d.get_u32().map_err(xdr)?).map_err(xdr)?;
    if stat != NfsStat::Ok {
        return Err(format!("{op:?}: status {stat}"));
    }
    match *op {
        Op::Read {
            file,
            block,
            len,
            version,
        } => {
            Fattr::decode(&mut d).map_err(xdr)?;
            let data = d.get_opaque().map_err(xdr)?;
            let tag = BlockTag {
                seed: conn.seed,
                file,
                block,
                version,
            };
            if data.len() != len as usize {
                return Err(format!("{op:?}: {} bytes returned", data.len()));
            }
            if !check_block(&data, tag) {
                return Err(format!("{op:?}: content is not the block's pattern"));
            }
        }
        Op::Write { block, len, .. } => {
            let attr = Fattr::decode(&mut d).map_err(xdr)?;
            if attr.size < block * BLOCK + len {
                return Err(format!("{op:?}: file size {} after write", attr.size));
            }
        }
        Op::Truncate { .. } => {
            let attr = Fattr::decode(&mut d).map_err(xdr)?;
            if attr.size != 0 {
                return Err(format!("{op:?}: file size {} after truncate", attr.size));
            }
        }
        Op::Lookup { file } => {
            let fh = d.get_opaque_fixed(32).map_err(xdr)?;
            if fh[..] != conn.handles.files[file as usize].0[..] {
                return Err(format!("{op:?}: a different handle came back"));
            }
        }
        Op::Readdir { dir } => {
            let mut names = Vec::new();
            while d.get_bool().map_err(xdr)? {
                d.get_u32().map_err(xdr)?;
                let name = d.get_string().map_err(xdr)?;
                d.get_u32().map_err(xdr)?;
                if name != "." && name != ".." {
                    names.push(name);
                }
            }
            if !d.get_bool().map_err(xdr)? {
                return Err(format!("{op:?}: listing did not fit one reply"));
            }
            names.sort_unstable();
            if names != conn.handles.dir_names[dir as usize] {
                return Err(format!(
                    "{op:?}: {} names, not the generator's",
                    names.len()
                ));
            }
        }
        Op::Sync => unreachable!("sync is not an RPC"),
    }
    Ok(())
}

/// A transport that is gone cannot carry the rest of the workload.
fn is_fatal(e: &ClientError) -> bool {
    matches!(e, ClientError::Net(_))
}

/// Drives `stream` over `conn` with `conn.window` requests in flight
/// while `keep_going(issued so far)` holds, then collects the replies
/// still outstanding.
///
/// # Errors
///
/// A dead transport; every other failure is counted in `rec`.
pub fn pump(
    conn: &Conn<'_>,
    stream: &mut dyn OpStream,
    rec: &mut Recorder,
    mut keep_going: impl FnMut(u64) -> bool,
) -> Result<(), String> {
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(conn.window);
    let mut buf = vec![0u8; BLOCK as usize];
    let mut issued = 0u64;
    let trace_start = || conn.tracer.and_then(|t| t.start());
    let trace_finish = |start: Option<Instant>, layer: Layer, xid: u32| {
        if let Some(t) = conn.tracer {
            t.finish(start, layer, conn.conn_id, xid);
        }
    };
    loop {
        while inflight.len() < conn.window && keep_going(issued) {
            let Step { op, ends_cycle } = stream.next_step();
            if op == Op::Sync {
                if let Err(e) = (conn.sync)() {
                    rec.fail(format!("sync: {e}"));
                }
                if ends_cycle {
                    rec.mark(conn.clock);
                }
                continue;
            }
            issued += 1;
            rec.attempted += 1;
            let sent = Instant::now();
            let span = trace_start();
            let (proc_num, args) = encode_call(conn, &op, &mut buf);
            let call = trace_start();
            let xid = conn.nfs.send_call(NFS_PROGRAM, NFS_VERSION, proc_num, args);
            match xid {
                Ok(xid) => {
                    trace_finish(call, Layer::ClientCall, xid);
                    inflight.push_back(InFlight {
                        xid,
                        op,
                        ends_cycle,
                        sent,
                        span,
                    });
                }
                Err(e) => {
                    rec.fail(format!("{op:?}: send: {e}"));
                    return Err(format!("connection lost sending {op:?}: {e}"));
                }
            }
        }
        let Some(next) = inflight.pop_front() else {
            return Ok(());
        };
        let call = trace_start();
        let reply = conn.nfs.wait_reply(next.xid);
        trace_finish(call, Layer::ClientCall, next.xid);
        let outcome = match &reply {
            Ok(results) => verify(conn, &next.op, results),
            Err(e) => Err(format!("{:?}: {e}", next.op)),
        };
        let done = Instant::now();
        trace_finish(next.span, Layer::Op, next.xid);
        match outcome {
            Ok(()) => rec.complete(next.op.is_write(), next.sent, done),
            Err(what) => rec.fail(what),
        }
        if next.ends_cycle {
            rec.mark(conn.clock);
        }
        if let Err(e) = &reply {
            if is_fatal(e) {
                rec.failed += inflight.len() as u64;
                return Err(format!("connection lost waiting for {:?}: {e}", next.op));
            }
        }
    }
}

/// A finite list of operations as a stream (fills, read-backs).
pub struct ListStream<'a> {
    ops: &'a [Op],
    pos: usize,
}

impl<'a> ListStream<'a> {
    /// Streams `ops` once; the caller must stop the pump at `ops.len()`.
    pub fn new(ops: &'a [Op]) -> ListStream<'a> {
        ListStream { ops, pos: 0 }
    }
}

impl OpStream for ListStream<'_> {
    fn next_step(&mut self) -> Step {
        let op = self.ops[self.pos];
        self.pos += 1;
        Step {
            op,
            ends_cycle: false,
        }
    }
}

/// Runs the finite list `ops` over `conn` and reports the first failure.
///
/// # Errors
///
/// A dead transport, or the first operation that failed verification.
pub fn run_list(conn: &Conn<'_>, ops: &[Op]) -> Result<(), String> {
    if ops.is_empty() {
        return Ok(());
    }
    let mut rec = Recorder::new(Instant::now(), Duration::from_secs(1), &Arc::default());
    let total = ops.len() as u64;
    pump(conn, &mut ListStream::new(ops), &mut rec, |issued| {
        issued < total
    })?;
    match rec.first_failure {
        Some(what) => Err(what),
        None => Ok(()),
    }
}

/// Records one operation that is not an NFS call (a whole session).
pub fn record_session(
    rec: &mut Recorder,
    clock: &SimClock,
    sent: Instant,
    outcome: Result<(), String>,
) {
    rec.attempted += 1;
    match outcome {
        Ok(()) => rec.complete(false, sent, Instant::now()),
        Err(what) => rec.fail(what),
    }
    rec.mark(clock);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_files_operations_under_their_slice() {
        let completed = Arc::default();
        let start = Instant::now();
        let mut rec = Recorder::new(start, Duration::from_secs(SLICES as u64), &completed);
        let at = |ms: u64| start + Duration::from_millis(ms);
        rec.complete(false, at(100), at(500));
        rec.complete(true, at(1200), at(1500));
        rec.complete(false, at(7_000), at(9_000)); // past the window
        assert_eq!(rec.slice_ops(0), (1, 0));
        assert_eq!(rec.slice_ops(1), (0, 1));
        assert_eq!(rec.slice_span(0), Some(Duration::from_millis(500)));
        assert_eq!(rec.slice_span(1), Some(Duration::from_millis(1000)));
        assert_eq!(rec.slice_span(2), None);
        assert_eq!(rec.ops_in_window(), 2);
        assert_eq!(completed.load(Ordering::Relaxed), 3);
        let p50 = rec.slice_latency(0).percentile(0.5).unwrap();
        assert!((p50 / 1e6 - 400.0).abs() < 8.0, "{p50}");
    }

    #[test]
    fn cycles_divide_virtual_time_by_operations() {
        let completed: Arc<AtomicU64> = Arc::default();
        let clock = SimClock::new();
        let mut rec = Recorder::new(Instant::now(), Duration::from_secs(1), &completed);
        rec.mark(&clock);
        clock.advance(Duration::from_micros(1000));
        completed.store(10, Ordering::Relaxed);
        rec.mark(&clock);
        clock.advance(Duration::from_micros(3000));
        completed.store(20, Ordering::Relaxed);
        rec.mark(&clock);
        rec.mark(&clock); // an empty cycle is skipped
        assert_eq!(rec.cycle_virtual_us_per_op(), vec![100.0, 300.0]);
    }

    #[test]
    fn merged_recorders_add_up() {
        let completed = Arc::default();
        let start = Instant::now();
        let mut a = Recorder::new(start, Duration::from_secs(SLICES as u64), &completed);
        let mut b = Recorder::new(start, Duration::from_secs(SLICES as u64), &completed);
        a.complete(false, start, start + Duration::from_millis(10));
        b.complete(true, start, start + Duration::from_millis(20));
        b.attempted = 2;
        b.fail("boom".into());
        a.merge(b);
        assert_eq!(a.slice_ops(0), (1, 1));
        assert_eq!(a.slice_latency(0).count(), 2);
        assert_eq!((a.attempted, a.failed), (2, 1));
        assert_eq!(a.first_failure.as_deref(), Some("boom"));
    }
}
