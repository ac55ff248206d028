//! The client outbox's rule (`nfsv2::client` module docs), pinned
//! against a scripted peer: a transport that records every message
//! the client hands it and answers only when told — by the test, or by
//! a blocking receive that finds nothing ready. No server thread, no
//! clock, no sleep, so every message count here repeats exactly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use bytes::Bytes;
use discfs_crypto::ed25519::VerifyingKey;
use ipsec::{IpsecError, SecureTransport};
use netsim::NetError;
use nfsv2::proto::{proc_nfs, NFS_VERSION};
use nfsv2::{ClientError, NfsClient, NFS_PROGRAM, OUTBOX_BYTES};
use onc_rpc::frame::{self, FrameDecoder};
use onc_rpc::{RpcCall, RpcCallView, RpcReply};
use parking_lot::{Mutex, MutexGuard};

#[derive(Default)]
struct Wire {
    /// Call messages, as handed to `send`.
    sent: Vec<Vec<u8>>,
    /// How many of `sent` have been answered.
    answered: usize,
    /// Reply messages not yet received.
    ready: VecDeque<Vec<u8>>,
    /// How many call messages each of the next reply messages answers;
    /// one each once this runs out.
    coalesce: VecDeque<usize>,
}

impl Wire {
    /// Answers the next unanswered call messages with one reply
    /// message, every call in them echoing its xid. `false` when there
    /// is nothing to answer.
    fn answer_next(&mut self) -> bool {
        let n = self.coalesce.pop_front().unwrap_or(1);
        let end = (self.answered + n).min(self.sent.len());
        let mut reply = Vec::new();
        for msg in &self.sent[self.answered..end] {
            for xid in xids_in(msg) {
                let results = xid.to_be_bytes().to_vec();
                reply.extend(frame::encode_frame(
                    &RpcReply::success(xid, results).encode(),
                ));
            }
        }
        self.answered = end;
        if reply.is_empty() {
            return false;
        }
        self.ready.push_back(reply);
        true
    }
}

/// The client's end of the scripted wire.
#[derive(Clone, Default)]
struct Peer {
    wire: Arc<Mutex<Wire>>,
    fail_sends: Arc<AtomicBool>,
}

impl Peer {
    fn client(&self) -> NfsClient {
        NfsClient::new(Box::new(self.clone()))
    }

    fn wire(&self) -> MutexGuard<'_, Wire> {
        self.wire.lock()
    }

    /// Calls carried by each message sent so far.
    fn message_sizes(&self) -> Vec<usize> {
        self.wire().sent.iter().map(|m| xids_in(m).len()).collect()
    }

    /// Every xid that reached the wire, in wire order.
    fn xids_on_wire(&self) -> Vec<u32> {
        let wire = self.wire();
        wire.sent.iter().flat_map(|m| xids_in(m)).collect()
    }
}

impl SecureTransport for Peer {
    fn send(&self, msg: Vec<u8>) -> Result<(), IpsecError> {
        if self.fail_sends.load(Ordering::SeqCst) {
            return Err(IpsecError::Net(NetError::Disconnected));
        }
        self.wire().sent.push(msg);
        Ok(())
    }

    /// A receive that would block tells the peer to answer; one with
    /// nothing left to answer is a bug in the client (it is waiting for
    /// a call it never sent) and fails rather than hangs.
    fn recv(&self) -> Result<Vec<u8>, IpsecError> {
        let mut wire = self.wire();
        if wire.ready.is_empty() && !wire.answer_next() {
            return Err(IpsecError::Net(NetError::Timeout));
        }
        Ok(wire.ready.pop_front().expect("just answered"))
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, IpsecError> {
        Ok(self.wire().ready.pop_front())
    }

    fn peer_identity(&self) -> Option<VerifyingKey> {
        None
    }
}

/// The xid of every call in a message, in order.
fn xids_in(msg: &[u8]) -> Vec<u32> {
    let mut decoder = FrameDecoder::new();
    decoder
        .feed(Bytes::copy_from_slice(msg))
        .expect("a message of whole, well-formed frames");
    std::iter::from_fn(|| decoder.pop_frame())
        .map(|payload| RpcCallView::decode(&payload).expect("a call").xid)
        .collect()
}

fn getattr(client: &NfsClient) -> Result<u32, ClientError> {
    client.send_call(NFS_PROGRAM, NFS_VERSION, proc_nfs::GETATTR, vec![0x5A; 32])
}

fn echoed(results: &[u8]) -> u32 {
    u32::from_be_bytes(results.try_into().expect("one word"))
}

/// Keeps `depth` calls outstanding until `total` are issued, collecting
/// the oldest first — the shape of `discfs_bench`'s pump — and checks
/// every reply echoes its xid.
fn pump(client: &NfsClient, total: usize, depth: usize) {
    let mut outstanding = VecDeque::new();
    let mut issued = 0;
    loop {
        while outstanding.len() < depth && issued < total {
            outstanding.push_back(getattr(client).expect("send"));
            issued += 1;
        }
        let Some(xid) = outstanding.pop_front() else {
            return;
        };
        assert_eq!(echoed(&client.wait_reply(xid).expect("reply")), xid);
    }
}

#[test]
fn one_call_at_a_time_is_one_unbuffered_message_per_call() {
    let peer = Peer::default();
    let client = peer.client();
    for i in 0..5u32 {
        let args = vec![i as u8; 7 + 4 * i as usize];
        let xid = client
            .send_call(NFS_PROGRAM, NFS_VERSION, proc_nfs::READ, args.clone())
            .expect("send");
        // On the wire before send_call returned, and the image an
        // unbuffered client sends: one frame around one encoded call.
        let call = RpcCall::new(xid, NFS_PROGRAM, NFS_VERSION, proc_nfs::READ, args);
        let wire = peer.wire();
        assert_eq!(wire.sent.len(), i as usize + 1);
        assert_eq!(wire.sent[i as usize], frame::encode_frame(&call.encode()));
        drop(wire);
        assert_eq!(echoed(&client.wait_reply(xid).expect("reply")), xid);
    }
    assert_eq!(peer.xids_on_wire(), [1, 2, 3, 4, 5]);
}

#[test]
fn a_window_of_eight_ramps_then_alternates_half_windows() {
    // The ramp's first three messages (four calls) reach the engine
    // inside one quantum and share a reply batch; after that every
    // call message is answered by one reply message.
    let peer = Peer::default();
    peer.wire().coalesce.push_back(3);
    let client = peer.client();
    pump(&client, 48, 8);
    let mut expected = vec![1, 1, 2];
    expected.extend([4; 11]);
    assert_eq!(peer.message_sizes(), expected);
    assert_eq!(peer.xids_on_wire(), (1..=48).collect::<Vec<u32>>());
}

#[test]
fn the_ramp_repeats_when_every_message_is_answered_alone() {
    // The floor of the rule: a server that never batches across call
    // messages hands the ramp's own sizes back, two calls a message.
    let peer = Peer::default();
    let client = peer.client();
    pump(&client, 32, 8);
    assert_eq!(peer.message_sizes(), [1, 1, 2, 4].repeat(4));
    assert_eq!(peer.xids_on_wire(), (1..=32).collect::<Vec<u32>>());
}

#[test]
fn a_caller_that_only_polls_makes_progress() {
    let peer = Peer::default();
    let client = peer.client();
    let xids: Vec<u32> = (0..5).map(|_| getattr(&client).expect("send")).collect();
    // Four on the wire; the fifth waits for company.
    assert_eq!(peer.message_sizes(), [1, 1, 2]);
    assert_eq!(client.try_take_reply(xids[4]), Ok(None));
    assert_eq!(
        peer.message_sizes(),
        [1, 1, 2, 1],
        "the poll sends the queue"
    );
    while peer.wire().answer_next() {}
    for xid in xids {
        let results = client.try_take_reply(xid).expect("poll").expect("arrived");
        assert_eq!(echoed(&results), xid);
        assert_eq!(client.try_take_reply(xid), Ok(None), "taken once");
    }
}

#[test]
fn peer_alive_sends_the_queue() {
    let peer = Peer::default();
    let client = peer.client();
    for _ in 0..3 {
        getattr(&client).expect("send");
    }
    assert_eq!(peer.message_sizes(), [1, 1]);
    assert!(client.peer_alive());
    assert_eq!(peer.message_sizes(), [1, 1, 1]);
}

#[test]
fn drop_sends_what_is_queued() {
    let peer = Peer::default();
    let client = peer.client();
    for _ in 0..11 {
        getattr(&client).expect("send");
    }
    assert_eq!(peer.message_sizes(), [1, 1, 2, 4]);
    drop(client);
    assert_eq!(peer.message_sizes(), [1, 1, 2, 4, 3]);
    assert_eq!(peer.xids_on_wire(), (1..=11).collect::<Vec<u32>>());
}

#[test]
fn a_sender_that_never_reads_holds_at_most_the_byte_bound() {
    const CALLS: usize = 600;
    let peer = Peer::default();
    let client = peer.client();
    let block = vec![0xC3u8; 8 * 1024];
    let frame_len = frame::encode_frame(
        &RpcCall::new(1, NFS_PROGRAM, NFS_VERSION, proc_nfs::WRITE, block.clone()).encode(),
    )
    .len();
    // The count rule alone would hold 256 calls (2 MiB) for the tenth
    // message.
    let per_message = OUTBOX_BYTES.div_ceil(frame_len);
    for sent in 1..=CALLS {
        client
            .send_call(NFS_PROGRAM, NFS_VERSION, proc_nfs::WRITE, block.clone())
            .expect("send");
        // Every frame is `frame_len` bytes.
        let on_wire = peer.wire().sent.iter().map(Vec::len).sum::<usize>() / frame_len;
        assert!(
            sent - on_wire < per_message,
            "{} calls held back after {sent} sends",
            sent - on_wire
        );
    }
    let wire = peer.wire();
    assert!(wire.sent.iter().all(|m| m.len() < OUTBOX_BYTES + frame_len));
    assert!(wire.sent.iter().any(|m| m.len() >= OUTBOX_BYTES));
}

#[test]
fn two_threads_on_one_client_lose_and_duplicate_nothing() {
    const PER_THREAD: usize = 500;
    let peer = Peer::default();
    let client = peer.client();
    let start = Barrier::new(2);
    let collected: Vec<Vec<u32>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut mine = Vec::with_capacity(PER_THREAD);
                    let mut outstanding = VecDeque::new();
                    while mine.len() < PER_THREAD {
                        while outstanding.len() < 4 && mine.len() + outstanding.len() < PER_THREAD {
                            outstanding.push_back(getattr(&client).expect("send"));
                        }
                        let xid = outstanding.pop_front().expect("one outstanding");
                        assert_eq!(echoed(&client.wait_reply(xid).expect("reply")), xid);
                        mine.push(xid);
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut all: Vec<u32> = collected.into_iter().flatten().collect();
    all.sort_unstable();
    let every_xid: Vec<u32> = (1..=2 * PER_THREAD as u32).collect();
    assert_eq!(all, every_xid, "each xid answered to exactly one caller");
    assert_eq!(peer.xids_on_wire(), every_xid, "frames leave in xid order");
}

#[test]
fn a_send_failure_surfaces_where_the_send_ran() {
    let down = ClientError::Net(IpsecError::Net(NetError::Disconnected));

    // send_call's own send.
    let peer = Peer::default();
    let client = peer.client();
    peer.fail_sends.store(true, Ordering::SeqCst);
    assert_eq!(getattr(&client), Err(down.clone()));

    // A deferred one: the third call is queued behind two on the wire.
    for receive in 0..4 {
        let peer = Peer::default();
        let client = peer.client();
        getattr(&client).expect("send");
        getattr(&client).expect("send");
        peer.fail_sends.store(true, Ordering::SeqCst);
        let queued = getattr(&client).expect("queued, not sent");
        match receive {
            0 => assert_eq!(client.flush(), Err(down.clone())),
            1 => assert_eq!(client.wait_reply(queued), Err(down.clone())),
            2 => assert_eq!(client.try_take_reply(queued), Err(down.clone())),
            _ => assert!(!client.peer_alive()),
        }
        assert_eq!(peer.message_sizes(), [1, 1]);
    }
}

/// One framed reply to `xid` whose results are `results`.
fn reply_frame(xid: u32, results: Vec<u8>) -> Vec<u8> {
    frame::encode_frame(&RpcReply::success(xid, results).encode())
}

#[test]
fn a_junk_frame_does_not_strand_the_reply_after_it() {
    let peer = Peer::default();
    let client = peer.client();
    for _ in 0..5 {
        getattr(&client).expect("send");
    }
    client.flush().expect("flush");
    // One message: a frame that is no reply, then the reply to xid 5.
    let mut msg = frame::encode_frame(&[1, 2, 3]);
    msg.extend(reply_frame(5, 5u32.to_be_bytes().to_vec()));
    peer.wire().ready.push_back(msg);
    assert!(matches!(client.try_take_reply(5), Err(ClientError::Xdr(_))));
    let results = client.try_take_reply(5).expect("no error left");
    assert_eq!(echoed(&results.expect("the reply came with the junk")), 5);
    // It was counted off the five calls on the wire: with four left,
    // the fourth call queued goes out.
    let before = peer.message_sizes().len();
    for _ in 0..4 {
        getattr(&client).expect("send");
    }
    assert_eq!(peer.message_sizes()[before..], [4]);
}

#[test]
fn replies_to_calls_not_outstanding_are_dropped() {
    let peer = Peer::default();
    let client = peer.client();
    let xid = getattr(&client).expect("send");
    // 1 000 replies of 1 000 bytes to xids the client never sent.
    let mut strays = Vec::new();
    for stray in 1000..2000 {
        strays.extend(reply_frame(stray, vec![0; 1000]));
    }
    peer.wire().ready.push_back(strays);
    assert_eq!(echoed(&client.wait_reply(xid).expect("reply")), xid);
    for stray in 1000..2000 {
        assert_eq!(client.try_take_reply(stray), Ok(None), "xid {stray}");
    }
    // A second reply to a call already answered is dropped too.
    peer.wire().ready.push_back(reply_frame(xid, vec![0; 4]));
    assert_eq!(client.try_take_reply(xid), Ok(None));
}
