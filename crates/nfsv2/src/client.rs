//! The NFSv2 client library.
//!
//! The paper's client was the OpenBSD kernel NFS client plus the
//! modified CFS `cattach` utility. In this reproduction [`NfsClient`]
//! provides typed stubs for every NFSv2/MOUNT procedure over a
//! [`SecureTransport`], and [`RemoteFs`] offers path-level helpers
//! (resolve/read/write whole files) that examples and benchmarks use as
//! their "mounted filesystem".
//!
//! Pipelined calls share transport messages: [`NfsClient::send_call`]
//! frames into a per-connection outbox that goes out when the calls
//! queued are at least the calls on the wire, and always before the
//! client receives. [`NfsClient`]'s docs give the rule in full and the
//! measurement that turned down holding calls until the caller blocks.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use ipsec::{IpsecError, SecureTransport};
use netsim::NetError;
use onc_rpc::frame::{self, FrameDecoder};
use onc_rpc::{AcceptStat, Decoder, Encoder, ReplyBody, RpcCall, RpcReply, XdrError};
use parking_lot::Mutex;

use crate::proto::{
    proc_mount, proc_nfs, DirOpArgs, FHandle, Fattr, NfsStat, ReaddirEntry, Sattr, MAX_DATA,
    MOUNT_PROGRAM, MOUNT_VERSION, NFS_PROGRAM, NFS_VERSION,
};

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport failure.
    Net(IpsecError),
    /// Reply failed to decode.
    Xdr(XdrError),
    /// Server accepted the call but reported an RPC-level error.
    Rpc(AcceptStat),
    /// Server denied the call.
    Denied,
    /// The NFS procedure returned a non-OK status.
    Status(NfsStat),
}

impl From<IpsecError> for ClientError {
    fn from(e: IpsecError) -> Self {
        ClientError::Net(e)
    }
}

impl From<XdrError> for ClientError {
    fn from(e: XdrError) -> Self {
        ClientError::Xdr(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Net(e) => write!(f, "transport: {e}"),
            ClientError::Xdr(e) => write!(f, "reply decode: {e}"),
            ClientError::Rpc(s) => write!(f, "rpc error: {s:?}"),
            ClientError::Denied => write!(f, "rpc denied"),
            ClientError::Status(s) => write!(f, "nfs status: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Reply-side state: replies that arrived for transactions nobody has
/// collected yet (pipelining means replies can land out of order
/// relative to who asks first). Each received message is decoded on its
/// own: a message holds whole frames (`onc_rpc::frame`, *The rule*), so
/// nothing carries over from one message to the next.
#[derive(Default)]
struct Inbox {
    pending: HashMap<u32, Result<Vec<u8>, ClientError>>,
}

impl Inbox {
    /// Decodes every frame of one received message. A reply to a call
    /// outstanding in `outbox` goes into `pending` and off the calls on
    /// the wire; any other (never sent, or answered already) is dropped.
    /// A frame that fails to decode holds up none after it, and a
    /// message cut inside a frame holds up none before the cut: the
    /// error is returned once every whole frame is in, the framing's
    /// first.
    fn absorb(&mut self, msg: Vec<u8>, outbox: &Mutex<Outbox>) -> Result<(), ClientError> {
        let mut decoder = FrameDecoder::new();
        let fed = decoder.feed(Bytes::from(msg));
        let mut first_err = fed.err().map(|_| ClientError::Xdr(XdrError::BadValue));
        while let Some(bytes) = decoder.pop_frame() {
            let reply = match RpcReply::decode(&bytes) {
                Ok(reply) => reply,
                Err(e) => {
                    first_err.get_or_insert(e.into());
                    continue;
                }
            };
            let mut outbox = outbox.lock();
            if !outbox.outstanding.remove(&reply.xid) {
                continue;
            }
            outbox.on_wire = outbox.on_wire.saturating_sub(1);
            let outcome = match reply.body {
                ReplyBody::Success(results) => Ok(results),
                ReplyBody::Error(stat) => Err(ClientError::Rpc(stat)),
                ReplyBody::Denied(_) => Err(ClientError::Denied),
            };
            self.pending.insert(reply.xid, outcome);
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// Bytes queued at which the outbox goes out whatever is on the wire:
/// what one 32-reply engine batch of 8 KiB READs already puts in a
/// message. It bounds what a sender that never reads can hold.
pub const OUTBOX_BYTES: usize = 256 * 1024;

/// Send-side state ([`NfsClient`], *The outbox*). One lock covers the
/// transaction counter, the buffer and the hand-over to the transport,
/// so frames reach the wire in xid order whichever thread framed them.
struct Outbox {
    next_xid: u32,
    /// Framed calls not yet handed to the transport.
    buf: Vec<u8>,
    /// Calls framed in `buf`.
    queued: usize,
    /// Calls handed to the transport whose reply [`Inbox::absorb`] has
    /// not yet decoded.
    on_wire: usize,
    /// Xids issued whose reply [`Inbox::absorb`] has not yet decoded.
    outstanding: HashSet<u32>,
}

impl Outbox {
    /// Hands everything queued to `chan` as one message.
    fn flush(&mut self, chan: &dyn SecureTransport) -> Result<(), ClientError> {
        if self.queued == 0 {
            return Ok(());
        }
        let calls = std::mem::take(&mut self.queued);
        if let Err(e) = chan.send(std::mem::take(&mut self.buf)) {
            // The buffer's calls are lost, and no reply will answer
            // them: they are the last `calls` xids issued, in a row.
            for back in 1..=calls as u32 {
                self.outstanding.remove(&self.next_xid.wrapping_sub(back));
            }
            return Err(e.into());
        }
        self.on_wire += calls;
        Ok(())
    }
}

/// A typed NFSv2 client over one connection.
///
/// Calls are framed ([`onc_rpc::frame`]) so a server batch can answer
/// many of them in one transport message. Besides the synchronous
/// [`NfsClient::call_raw`] path, the client supports *pipelining*:
/// [`NfsClient::send_call`] issues a request without waiting, and
/// [`NfsClient::try_take_reply`] / [`NfsClient::wait_reply`] collect
/// replies by transaction id — the fleet bench drives thousands of
/// virtual clients this way from one thread.
///
/// # The outbox
///
/// A link message costs the same 120 µs of interrupt and protocol stack
/// whether it carries one call or eight, so pipelined calls share
/// messages. [`NfsClient::send_call`] frames each call into a
/// per-connection *outbox*, and the outbox goes to the transport as one
/// message (one ESP seal, one link latency) under one rule:
///
/// * **at once, when the calls queued are at least the calls on the
///   wire** (sent, reply not yet decoded). With one call outstanding
///   nothing is on the wire and every call is a message of its own,
///   byte for byte what an unbuffered client sends. With a window of W
///   the sizes ramp 1, 1, 2, 4, … and, once one reply batch has
///   answered half a window, stay at two half-window messages in
///   flight: the server works on one while the client checks the
///   replies to the other. A server that answers every message alone
///   gets the ramp again each window, two calls a message;
/// * **always before the client receives** ([`NfsClient::wait_reply`]
///   with the reply not yet in, [`NfsClient::try_take_reply`],
///   [`NfsClient::peer_alive`]), on [`NfsClient::flush`] — for a caller
///   that sends and never receives — on drop, and at [`OUTBOX_BYTES`]
///   queued.
///
/// The rule is clocked by replies, not by a timer or a setting. Holding
/// calls back until the caller blocks ("cork until block") makes fewer
/// messages still — 0.25 an operation on `discfs_bench`'s sequential
/// workloads against this rule's 0.5 — but then client and server take
/// turns: the server idles while the client fills its window and the
/// client idles while the server answers all of it. On `seq_write` that
/// cost 40-49 % of the operations a second (27-33 k to 14-19 k in 4 of
/// 4 pairs, median latency 240-280 µs to 390-560 µs) where this rule
/// costs 6.5 % (34.1 k to 31.9 k over ten pairs, 230 µs to 252 µs).
pub struct NfsClient {
    chan: Box<dyn SecureTransport>,
    /// Locked after `inbox` where both are held.
    outbox: Mutex<Outbox>,
    inbox: Mutex<Inbox>,
}

impl NfsClient {
    /// Wraps a transport (plain for CFS-NE, IPsec for DisCFS).
    pub fn new(chan: Box<dyn SecureTransport>) -> NfsClient {
        NfsClient {
            chan,
            outbox: Mutex::new(Outbox {
                next_xid: 1,
                buf: Vec::new(),
                queued: 0,
                on_wire: 0,
                outstanding: HashSet::new(),
            }),
            inbox: Mutex::new(Inbox::default()),
        }
    }

    /// Queues a call without waiting for its reply, returning the
    /// transaction id to collect it with. The call goes to the
    /// transport before this returns when at least as many calls are
    /// queued as are on the wire (always, with one call outstanding) or
    /// [`OUTBOX_BYTES`] are queued; otherwise with the next call that
    /// meets the rule, or when the client next receives.
    ///
    /// # Errors
    ///
    /// [`ClientError::Net`] when this call sent the queue and the
    /// transport failed. A failure sending it later is returned by the
    /// [`wait_reply`](NfsClient::wait_reply),
    /// [`try_take_reply`](NfsClient::try_take_reply) or
    /// [`flush`](NfsClient::flush) that did.
    pub fn send_call(
        &self,
        prog: u32,
        vers: u32,
        proc_num: u32,
        args: Vec<u8>,
    ) -> Result<u32, ClientError> {
        let mut outbox = self.outbox.lock();
        let xid = outbox.next_xid;
        outbox.next_xid = xid.wrapping_add(1);
        outbox.outstanding.insert(xid);
        // Ten words of AUTH_NONE call header.
        outbox.buf.reserve(frame::FRAME_HEADER + 40 + args.len());
        let start = frame::begin_frame(&mut outbox.buf);
        RpcCall::new(xid, prog, vers, proc_num, args).encode_into(&mut outbox.buf);
        frame::end_frame(&mut outbox.buf, start);
        outbox.queued += 1;
        if outbox.queued >= outbox.on_wire || outbox.buf.len() >= OUTBOX_BYTES {
            outbox.flush(&*self.chan)?;
        }
        Ok(xid)
    }

    /// Hands every queued call to the transport now. Receiving does
    /// this by itself; it is for a caller that sends and does not
    /// receive.
    ///
    /// # Errors
    ///
    /// [`ClientError::Net`] on transport failure.
    pub fn flush(&self) -> Result<(), ClientError> {
        self.outbox.lock().flush(&*self.chan)
    }

    /// Collects the reply to `xid` if it has arrived, sending what is
    /// queued and draining whatever the transport has ready without
    /// blocking.
    ///
    /// # Errors
    ///
    /// Transport/decode failures (sending the queue included), or the
    /// reply's own error outcome.
    pub fn try_take_reply(&self, xid: u32) -> Result<Option<Vec<u8>>, ClientError> {
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(outcome) = inbox.pending.remove(&xid) {
                return outcome.map(Some);
            }
            self.flush()?;
            match self.chan.try_recv()? {
                Some(msg) => inbox.absorb(msg, &self.outbox)?,
                None => return Ok(None),
            }
        }
    }

    /// Blocks until the reply to `xid` arrives and returns it, sending
    /// what is queued before each receive.
    ///
    /// # Errors
    ///
    /// Transport/decode failures (sending the queue included), or the
    /// reply's own error outcome.
    pub fn wait_reply(&self, xid: u32) -> Result<Vec<u8>, ClientError> {
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(outcome) = inbox.pending.remove(&xid) {
                return outcome;
            }
            self.flush()?;
            let msg = self.chan.recv()?;
            inbox.absorb(msg, &self.outbox)?;
        }
    }

    /// Whether the transport still has a live peer (probes without
    /// consuming data beyond buffering it in the inbox). Sends what is
    /// queued first; `false` when that fails.
    pub fn peer_alive(&self) -> bool {
        let mut inbox = self.inbox.lock();
        if self.flush().is_err() {
            return false;
        }
        loop {
            match self.chan.try_recv() {
                Ok(Some(msg)) => {
                    if inbox.absorb(msg, &self.outbox).is_err() {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(IpsecError::Net(NetError::Disconnected)) => return false,
                Err(_) => return false,
            }
        }
    }

    /// Issues a raw RPC and returns the result bytes.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] except `Status` (status handling is the
    /// typed stubs' job).
    pub fn call_raw(
        &self,
        prog: u32,
        vers: u32,
        proc_num: u32,
        args: Vec<u8>,
    ) -> Result<Vec<u8>, ClientError> {
        let xid = self.send_call(prog, vers, proc_num, args)?;
        self.wait_reply(xid)
    }

    fn call_nfs(&self, proc_num: u32, args: Vec<u8>) -> Result<Vec<u8>, ClientError> {
        self.call_raw(NFS_PROGRAM, NFS_VERSION, proc_num, args)
    }

    /// Decodes `stat` and returns the remaining decoder on success.
    fn status<'a>(&self, results: &'a [u8]) -> Result<Decoder<'a>, ClientError> {
        let mut d = Decoder::new(results);
        let stat = NfsStat::from_u32(d.get_u32()?)?;
        if stat != NfsStat::Ok {
            return Err(ClientError::Status(stat));
        }
        Ok(d)
    }

    /// MOUNT MNT: obtain the root handle for an export path.
    pub fn mount(&self, path: &str) -> Result<FHandle, ClientError> {
        let mut e = Encoder::new();
        e.put_string(path);
        let results = self.call_raw(MOUNT_PROGRAM, MOUNT_VERSION, proc_mount::MNT, e.finish())?;
        let mut d = Decoder::new(&results);
        let stat = d.get_u32()?;
        if stat != 0 {
            return Err(ClientError::Status(NfsStat::from_u32(stat)?));
        }
        let bytes = d.get_opaque_fixed(32)?;
        Ok(FHandle(bytes.try_into().expect("32 bytes")))
    }

    /// NULL: protocol ping.
    #[cfg(test)]
    pub(crate) fn null(&self) -> Result<(), ClientError> {
        self.call_nfs(proc_nfs::NULL, Vec::new()).map(|_| ())
    }

    /// GETATTR.
    pub fn getattr(&self, fh: &FHandle) -> Result<Fattr, ClientError> {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&fh.0);
        let results = self.call_nfs(proc_nfs::GETATTR, e.finish())?;
        let mut d = self.status(&results)?;
        Ok(Fattr::decode(&mut d)?)
    }

    /// SETATTR.
    pub fn setattr(&self, fh: &FHandle, sattr: &Sattr) -> Result<Fattr, ClientError> {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&fh.0);
        sattr.encode(&mut e);
        let results = self.call_nfs(proc_nfs::SETATTR, e.finish())?;
        let mut d = self.status(&results)?;
        Ok(Fattr::decode(&mut d)?)
    }

    /// LOOKUP.
    pub fn lookup(&self, dir: &FHandle, name: &str) -> Result<(FHandle, Fattr), ClientError> {
        let mut e = Encoder::new();
        DirOpArgs {
            dir: *dir,
            name: name.to_string(),
        }
        .encode(&mut e);
        let results = self.call_nfs(proc_nfs::LOOKUP, e.finish())?;
        let mut d = self.status(&results)?;
        let fh = FHandle(d.get_opaque_fixed(32)?.try_into().expect("32-byte handle"));
        Ok((fh, Fattr::decode(&mut d)?))
    }

    /// READLINK.
    #[cfg(test)]
    pub(crate) fn readlink(&self, fh: &FHandle) -> Result<String, ClientError> {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&fh.0);
        let results = self.call_nfs(proc_nfs::READLINK, e.finish())?;
        let mut d = self.status(&results)?;
        Ok(d.get_string()?)
    }

    /// READ (single call; at most `MAX_DATA`, 8 KiB).
    pub fn read(
        &self,
        fh: &FHandle,
        offset: u32,
        count: u32,
    ) -> Result<(Fattr, Vec<u8>), ClientError> {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&fh.0);
        e.put_u32(offset);
        e.put_u32(count);
        e.put_u32(count); // totalcount (unused)
        let results = self.call_nfs(proc_nfs::READ, e.finish())?;
        let mut d = self.status(&results)?;
        let attr = Fattr::decode(&mut d)?;
        Ok((attr, d.get_opaque()?.to_vec()))
    }

    /// WRITE (single call; at most `MAX_DATA`, 8 KiB).
    pub fn write(&self, fh: &FHandle, offset: u32, data: &[u8]) -> Result<Fattr, ClientError> {
        debug_assert!(data.len() <= MAX_DATA);
        let mut e = Encoder::new();
        e.put_opaque_fixed(&fh.0);
        e.put_u32(0); // beginoffset (unused)
        e.put_u32(offset);
        e.put_u32(data.len() as u32); // totalcount (unused)
        e.put_opaque(data);
        let results = self.call_nfs(proc_nfs::WRITE, e.finish())?;
        let mut d = self.status(&results)?;
        Ok(Fattr::decode(&mut d)?)
    }

    /// CREATE.
    pub fn create(
        &self,
        dir: &FHandle,
        name: &str,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), ClientError> {
        self.diropres_call(proc_nfs::CREATE, dir, name, sattr)
    }

    /// MKDIR.
    pub fn mkdir(
        &self,
        dir: &FHandle,
        name: &str,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), ClientError> {
        self.diropres_call(proc_nfs::MKDIR, dir, name, sattr)
    }

    fn diropres_call(
        &self,
        proc_num: u32,
        dir: &FHandle,
        name: &str,
        sattr: &Sattr,
    ) -> Result<(FHandle, Fattr), ClientError> {
        let mut e = Encoder::new();
        DirOpArgs {
            dir: *dir,
            name: name.to_string(),
        }
        .encode(&mut e);
        sattr.encode(&mut e);
        let results = self.call_nfs(proc_num, e.finish())?;
        let mut d = self.status(&results)?;
        let fh = FHandle(d.get_opaque_fixed(32)?.try_into().expect("32-byte handle"));
        Ok((fh, Fattr::decode(&mut d)?))
    }

    /// REMOVE.
    pub fn remove(&self, dir: &FHandle, name: &str) -> Result<(), ClientError> {
        self.name_only_call(proc_nfs::REMOVE, dir, name)
    }

    fn name_only_call(&self, proc_num: u32, dir: &FHandle, name: &str) -> Result<(), ClientError> {
        let mut e = Encoder::new();
        DirOpArgs {
            dir: *dir,
            name: name.to_string(),
        }
        .encode(&mut e);
        let results = self.call_nfs(proc_num, e.finish())?;
        self.status(&results)?;
        Ok(())
    }

    /// RENAME.
    pub fn rename(
        &self,
        from_dir: &FHandle,
        from_name: &str,
        to_dir: &FHandle,
        to_name: &str,
    ) -> Result<(), ClientError> {
        let mut e = Encoder::new();
        DirOpArgs {
            dir: *from_dir,
            name: from_name.to_string(),
        }
        .encode(&mut e);
        DirOpArgs {
            dir: *to_dir,
            name: to_name.to_string(),
        }
        .encode(&mut e);
        let results = self.call_nfs(proc_nfs::RENAME, e.finish())?;
        self.status(&results)?;
        Ok(())
    }

    /// LINK.
    #[cfg(test)]
    pub(crate) fn link(
        &self,
        from: &FHandle,
        to_dir: &FHandle,
        to_name: &str,
    ) -> Result<(), ClientError> {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&from.0);
        DirOpArgs {
            dir: *to_dir,
            name: to_name.to_string(),
        }
        .encode(&mut e);
        let results = self.call_nfs(proc_nfs::LINK, e.finish())?;
        self.status(&results)?;
        Ok(())
    }

    /// SYMLINK.
    #[cfg(test)]
    pub(crate) fn symlink(
        &self,
        dir: &FHandle,
        name: &str,
        target: &str,
        sattr: &Sattr,
    ) -> Result<(), ClientError> {
        let mut e = Encoder::new();
        DirOpArgs {
            dir: *dir,
            name: name.to_string(),
        }
        .encode(&mut e);
        e.put_string(target);
        sattr.encode(&mut e);
        let results = self.call_nfs(proc_nfs::SYMLINK, e.finish())?;
        self.status(&results)?;
        Ok(())
    }

    /// One READDIR call from `cookie`.
    pub(crate) fn readdir(
        &self,
        fh: &FHandle,
        cookie: u32,
        count: u32,
    ) -> Result<(Vec<ReaddirEntry>, bool), ClientError> {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&fh.0);
        e.put_u32(cookie);
        e.put_u32(count);
        let results = self.call_nfs(proc_nfs::READDIR, e.finish())?;
        let mut d = self.status(&results)?;
        let mut entries = Vec::new();
        while d.get_bool()? {
            entries.push(ReaddirEntry {
                fileid: d.get_u32()?,
                name: d.get_string()?,
                cookie: d.get_u32()?,
            });
        }
        let eof = d.get_bool()?;
        Ok((entries, eof))
    }

    /// Reads a whole directory (following cookies to EOF).
    pub fn readdir_all(&self, fh: &FHandle) -> Result<Vec<ReaddirEntry>, ClientError> {
        let mut all = Vec::new();
        let mut cookie = 0;
        loop {
            let (entries, eof) = self.readdir(fh, cookie, 4096)?;
            if let Some(last) = entries.last() {
                cookie = last.cookie;
            }
            let empty = entries.is_empty();
            all.extend(entries);
            if eof || empty {
                break;
            }
        }
        Ok(all)
    }

    /// STATFS.
    #[cfg(test)]
    pub(crate) fn statfs(&self, fh: &FHandle) -> Result<crate::proto::StatfsRes, ClientError> {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&fh.0);
        let results = self.call_nfs(proc_nfs::STATFS, e.finish())?;
        let mut d = self.status(&results)?;
        Ok(crate::proto::StatfsRes::decode(&mut d)?)
    }

    // -- multi-call helpers -------------------------------------------------

    /// Reads an arbitrary range, issuing as many READs as needed.
    pub fn read_all(&self, fh: &FHandle, offset: u64, len: usize) -> Result<Vec<u8>, ClientError> {
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let chunk = (end - pos).min(MAX_DATA as u64) as u32;
            let (_, data) = self.read(fh, pos as u32, chunk)?;
            if data.is_empty() {
                break; // EOF
            }
            pos += data.len() as u64;
            out.extend(data);
        }
        Ok(out)
    }

    /// Writes an arbitrary range, issuing as many WRITEs as needed.
    pub fn write_all(&self, fh: &FHandle, offset: u64, data: &[u8]) -> Result<(), ClientError> {
        let mut pos = 0usize;
        while pos < data.len() {
            let chunk = (data.len() - pos).min(MAX_DATA);
            self.write(fh, (offset + pos as u64) as u32, &data[pos..pos + chunk])?;
            pos += chunk;
        }
        Ok(())
    }
}

impl Drop for NfsClient {
    /// Calls still queued go out; a transport error has nobody left to
    /// hear it.
    fn drop(&mut self) {
        let _ = self.outbox.lock().flush(&*self.chan);
    }
}

/// Path-level convenience layer: the client's view of the mount point.
pub struct RemoteFs {
    client: NfsClient,
    root: FHandle,
}

impl RemoteFs {
    /// Mounts the export at `path` ("" or "/" for the root).
    ///
    /// # Errors
    ///
    /// Propagates client errors from the MOUNT call.
    pub fn mount(client: NfsClient, path: &str) -> Result<RemoteFs, ClientError> {
        let root = client.mount(path)?;
        Ok(RemoteFs { client, root })
    }

    /// The root handle.
    pub fn root(&self) -> FHandle {
        self.root
    }

    /// The underlying typed client.
    pub fn client(&self) -> &NfsClient {
        &self.client
    }

    /// Resolves a `/`-separated path to a handle.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] with [`NfsStat::NoEnt`] on a missing
    /// component.
    pub fn resolve(&self, path: &str) -> Result<(FHandle, Fattr), ClientError> {
        let mut fh = self.root;
        let mut attr = self.client.getattr(&fh)?;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            let (next, next_attr) = self.client.lookup(&fh, part)?;
            fh = next;
            attr = next_attr;
        }
        Ok((fh, attr))
    }

    /// Creates (or truncates) a file at `path` and writes `data`.
    ///
    /// # Errors
    ///
    /// Lookup/create/write errors.
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<FHandle, ClientError> {
        let (dir, name) = self.split_parent(path)?;
        let fh = match self.client.lookup(&dir, &name) {
            Ok((fh, _)) => {
                let mut truncate = Sattr::unchanged();
                truncate.size = 0;
                self.client.setattr(&fh, &truncate)?;
                fh
            }
            Err(ClientError::Status(NfsStat::NoEnt)) => {
                let (fh, _) = self.client.create(&dir, &name, &Sattr::with_mode(0o644))?;
                fh
            }
            Err(e) => return Err(e),
        };
        self.client.write_all(&fh, 0, data)?;
        Ok(fh)
    }

    /// Reads the whole file at `path`.
    ///
    /// # Errors
    ///
    /// Lookup/read errors.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, ClientError> {
        let (fh, attr) = self.resolve(path)?;
        self.client.read_all(&fh, 0, attr.size as usize)
    }

    /// Creates a directory path component under its parent.
    ///
    /// # Errors
    ///
    /// Lookup/mkdir errors.
    #[cfg(test)]
    pub(crate) fn mkdir_path(&self, path: &str) -> Result<FHandle, ClientError> {
        let (dir, name) = self.split_parent(path)?;
        let (fh, _) = self.client.mkdir(&dir, &name, &Sattr::with_mode(0o755))?;
        Ok(fh)
    }

    fn split_parent(&self, path: &str) -> Result<(FHandle, String), ClientError> {
        let trimmed = path.trim_matches('/');
        let (parent, name) = match trimmed.rsplit_once('/') {
            Some((p, n)) => (p, n),
            None => ("", trimmed),
        };
        let (dir, _) = self.resolve(parent)?;
        Ok((dir, name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsec::PlainChannel;
    use netsim::{Link, LinkConfig, SimClock};

    #[test]
    fn a_failed_flush_leaves_no_lost_call_outstanding() {
        let (near, far) = Link::pair(&SimClock::new(), LinkConfig::instant());
        let client = NfsClient::new(Box::new(PlainChannel::new(near)));
        let call = || client.send_call(NFS_PROGRAM, NFS_VERSION, proc_nfs::NULL, Vec::new());
        // Messages of 1, 1 and 2 calls put four on the wire, so the
        // next three wait in the outbox.
        for _ in 0..7 {
            call().unwrap();
        }
        assert_eq!(client.outbox.lock().queued, 3);
        drop(far);
        assert!(matches!(client.flush(), Err(ClientError::Net(_))));
        let outbox = client.outbox.lock();
        let mut outstanding: Vec<u32> = outbox.outstanding.iter().copied().collect();
        outstanding.sort_unstable();
        assert_eq!(
            outstanding,
            [1, 2, 3, 4],
            "only calls that were sent await a reply"
        );
        assert_eq!((outbox.queued, outbox.buf.len()), (0, 0));
    }
}
