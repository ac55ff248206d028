//! Hostile input through the block protocol's two entry points, the
//! node reading calls and the client reading replies: one frame check
//! ([`frame::unframe`]) and one XDR decoder ([`Decoder`]).
//!
//! A case mutates the RPC message of a valid call or reply with
//! [`DetRng::mutate`] and frames it again; under the old frame the
//! checksum would refuse it before any decoder ran. So a flipped bit in
//! a block reaches the store or the caller as data. What the decoders
//! owe is never to panic, to refuse what they cannot serve, and to
//! return only results of the shape asked for.

use discfs_crypto::rng::DetRng;

use super::*;
use crate::SimStore;

const CASES: u64 = 1000;
const BLOCKS: u64 = 8;

fn snapshot(store: &SimStore) -> Vec<Bytes> {
    store.read(IoClass::Data, &(0..BLOCKS).collect::<Vec<_>>())
}

/// Hands the call `payload`, framed, to a node over `store` and
/// returns the body of its reply, if any. The node must not panic,
/// answers at most once by its type, and its reply must fit the frame
/// bound.
fn serve_one(store: &Arc<SimStore>, lease: Arc<NodeLease>, payload: &[u8]) -> Option<ReplyBody> {
    let server = BlockServer::with_lease(Arc::clone(store), lease);
    let reply = server.handle(&frame::encode_frame(payload), Duration::ZERO)?;
    assert!(
        reply.len() <= FRAME_HEADER + DEFAULT_MAX_FRAME,
        "a reply over the bound"
    );
    let reply = RpcReply::decode(frame::unframe(&reply).unwrap()).unwrap();
    Some(reply.body)
}

#[test]
fn mutated_calls_get_an_error_reply_or_a_clean_drop() {
    // The five calls, built by the client's encoder. WRITE and FLUSH carry
    // the largest token, so that a lease an earlier case granted does
    // not fence them before their arguments decode.
    let calls = [
        encode_call(1, PROC_LEN, 0, |_| {}),
        encode_call(2, PROC_READ, 24, |m| {
            m.extend([0, 0, 0, 0, 0, 0, 0, 2]); // data, two indices
            m.put_u64(1);
            m.put_u64(6);
        }),
        encode_call(3, PROC_WRITE, 16 + 2 * (8 + BLOCK_SIZE), |m| {
            m.put_u64(u64::MAX);
            m.extend([0, 0, 0, 1, 0, 0, 0, 2]); // metadata, two blocks
            for idx in [2, 5] {
                m.put_u64(idx);
                m.extend_from_slice(&[0xA5; BLOCK_SIZE]);
            }
        }),
        encode_call(4, PROC_FLUSH, 8, |m| m.put_u64(u64::MAX)),
        encode_call(5, PROC_ACQUIRE_LEASE, 16, |m| {
            m.put_u64(9);
            m.put_u64(1_000_000);
        }),
    ];
    let corpus: Vec<&[u8]> = calls.iter().map(|c| frame::unframe(c).unwrap()).collect();
    let (store, lease) = (Arc::new(SimStore::untimed(BLOCKS)), Arc::default());
    let mut rng = DetRng::new(0xB10C);
    let mut outcomes = [0; 3]; // dropped, refused, answered
    for case in 0..CASES as usize {
        let n = corpus.len();
        let hostile = rng.mutate(corpus[case % n], corpus[(case * 7 + 3) % n]);
        let before = snapshot(&store);
        let reply = serve_one(&store, Arc::clone(&lease), &hostile);
        match &reply {
            None => outcomes[0] += 1,
            Some(ReplyBody::Error(_)) => outcomes[1] += 1,
            Some(ReplyBody::Success(_)) => outcomes[2] += 1,
            Some(ReplyBody::Denied(_)) => panic!("case {case}: a block node never denies"),
        }
        // Only a call the node served may change the store.
        if !matches!(&reply, Some(ReplyBody::Success(r)) if r[..4] == OK.to_be_bytes()) {
            assert_eq!(snapshot(&store), before, "case {case}: {reply:?} wrote");
        }
    }
    // A mutated call may stay valid (a flipped data bit), be refused,
    // or not parse as a call at all; the cases reach all three.
    assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
}

/// The calls a hostile peer tries first; none touches the store.
#[test]
fn named_hostile_calls_are_refused() {
    use AcceptStat::{GarbageArgs, ProcUnavail, ProgUnavail};
    let (p, v) = (BLOCK_PROGRAM, BLOCK_VERSION);
    // `count = u32::MAX` is a case of remote's own
    // `a_request_for_a_block_the_node_does_not_have_is_an_error_reply`.
    // A word after FLUSH's, ACQUIRE_LEASE's and LEN's arguments; the
    // NFS program; another version; procedures nobody defined, 6 among
    // them (it was SHUTDOWN, which stopped a serve thread).
    let cases: [(u32, u32, u32, &[u32], AcceptStat); 8] = [
        (p, v, PROC_FLUSH, &[0, 0, 0], GarbageArgs),
        (p, v, PROC_ACQUIRE_LEASE, &[0, 9, 0, 1, 0], GarbageArgs),
        (p, v, PROC_LEN, &[0], GarbageArgs),
        (100_003, 2, PROC_READ, &[0, 1, 0, 1], ProgUnavail),
        (p, 2, PROC_LEN, &[], ProgUnavail),
        (p, v, 0, &[], ProcUnavail),
        (p, v, 6, &[], ProcUnavail),
        (p, v, 7, &[], ProcUnavail),
    ];
    let store = Arc::new(SimStore::untimed(BLOCKS));
    let before = snapshot(&store);
    for (prog, vers, proc_num, words, stat) in cases {
        let args = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let call = RpcCall::new(7, prog, vers, proc_num, args).encode();
        let reply = serve_one(&store, Arc::default(), &call);
        assert_eq!(
            reply,
            Some(ReplyBody::Error(stat)),
            "{prog} {vers} {proc_num} {words:?}"
        );
    }
    assert_eq!(snapshot(&store), before);
}

/// A READ call for `count` indices, all of block 1.
fn read_call(count: usize) -> Vec<u8> {
    let mut args = vec![0, 0, 0, 0]; // data
    args.put_u32(count as u32);
    for _ in 0..count {
        args.put_u64(1);
    }
    RpcCall::new(7, BLOCK_PROGRAM, BLOCK_VERSION, PROC_READ, args).encode()
}

/// The frame bound (module docs, *The frame bound*) at its edges: a
/// message one byte over it is dropped unread;
/// a READ whose reply would not fit is refused, however small the call,
/// and the largest READ that fits is served in one reply.
#[test]
fn the_frame_bound_holds_at_its_edges() {
    let store = Arc::new(SimStore::untimed(BLOCKS));
    let before = snapshot(&store);
    // A WRITE of 127 blocks padded to the bound, then one byte over it.
    // At the bound the padding is trailing garbage; over it, the call is
    // never decoded.
    let mut call = RpcCall::new(7, BLOCK_PROGRAM, BLOCK_VERSION, PROC_WRITE, Vec::new()).encode();
    call.put_u64(0);
    call.put_u32(IoClass::Data as u32);
    call.put_u32(CALL_BLOCKS as u32);
    for _ in 0..CALL_BLOCKS {
        call.put_u64(3);
        call.extend_from_slice(&[0x5A; BLOCK_SIZE]);
    }
    call.resize(DEFAULT_MAX_FRAME, 0);
    let at_bound = serve_one(&store, Arc::default(), &call);
    assert_eq!(at_bound, Some(ReplyBody::Error(AcceptStat::GarbageArgs)));
    call.push(0);
    assert_eq!(serve_one(&store, Arc::default(), &call), None);
    assert_eq!(snapshot(&store), before, "a dropped frame wrote");

    // 131 066 indices is the largest READ call that fits one frame:
    // 1 MiB of arguments that ask for 1 GiB of reply.
    let largest_call = (DEFAULT_MAX_FRAME - 48) / 8;
    assert_eq!(read_call(largest_call).len(), DEFAULT_MAX_FRAME);
    let largest_reply = serve_one(&store, Arc::default(), &read_call(CALL_BLOCKS));
    assert!(
        matches!(&largest_reply, Some(ReplyBody::Success(r)) if r.len() == 8 + CALL_BLOCKS * BLOCK_SIZE),
        "{largest_reply:?}"
    );
    for count in [CALL_BLOCKS + 1, largest_call] {
        let reply = serve_one(&store, Arc::default(), &read_call(count));
        let refused = Some(ReplyBody::Error(AcceptStat::GarbageArgs));
        assert_eq!(reply, refused, "READ of {count}");
    }
}

/// Rewrites the next reply's RPC message, once.
type Lie = Arc<Mutex<Option<Box<dyn FnOnce(&[u8]) -> Vec<u8> + Send>>>>;

/// A link that tells the [`Lie`] set on it, framed again.
struct Lying {
    inner: NodeLink<Arc<SimStore>>,
    lie: Lie,
}

impl Transport for Lying {
    fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
        self.inner.send(msg)
    }
    fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.inner.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let reply = self.inner.recv_timeout(timeout)?;
        Ok(match self.lie.lock().take() {
            Some(lie) => frame::encode_frame(&lie(frame::unframe(&reply).unwrap())),
            None => reply,
        })
    }
}

/// A client of a fresh node over a [`Lying`] link, and the lie's slot.
fn lied_to(store: &Arc<SimStore>, lease: Arc<NodeLease>) -> (RemoteStore, Lie) {
    let server = BlockServer::with_lease(Arc::clone(store), lease);
    let lie = Lie::default();
    let link = Lying {
        inner: NodeLink::new(server, &SimClock::new(), LinkConfig::instant(), None),
        lie: Arc::clone(&lie),
    };
    let timeout = Duration::from_millis(5);
    let opts = RemoteOptions {
        timeout,
        ..RemoteOptions::default()
    };
    (RemoteStore::connect(link, opts).unwrap(), lie)
}

#[test]
fn mutated_replies_are_an_error_or_the_shape_asked_for() {
    let store = Arc::new(SimStore::untimed(BLOCKS));
    let mut failed = 0;
    for case in 0..CASES {
        // Every other node is leased to coordinator 1, so the replies
        // include FENCED and LEASE_HELD as well as OK.
        let lease = Arc::new(NodeLease::default());
        if case % 2 == 1 {
            lease.acquire(1, Duration::MAX, Duration::ZERO).unwrap();
        }
        let (remote, lie) = lied_to(&store, lease);
        let mut rng = DetRng::new(case);
        *lie.lock() = Some(Box::new(move |reply| rng.mutate(reply, reply)));
        let outcome = match case % 5 {
            0 => remote.try_read(IoClass::Data, &[1, 6]).map(|blocks| {
                assert!(blocks.len() == 2 && blocks.iter().all(|b| b.len() == BLOCK_SIZE));
            }),
            1 => remote.try_write(IoClass::Data, &[(2, &[0x3C; BLOCK_SIZE])]),
            2 => remote.try_flush(),
            3 => remote
                .try_acquire_lease(1 + case % 3, Duration::from_secs(1))
                .map(|grant| {
                    assert_eq!(remote.fence_token(), grant.token);
                }),
            _ => remote.probe().map(drop),
        };
        failed += u64::from(outcome.is_err());
    }
    assert!(
        failed > 0 && failed < CASES,
        "{failed} of {CASES} calls failed"
    );
}

/// A READ reply that carries another number of blocks than asked for
/// is a protocol error, whatever its count word says.
#[test]
fn a_read_reply_with_another_count_is_a_protocol_error() {
    let store = Arc::new(SimStore::untimed(BLOCKS));
    for count in [0, 1, 3, u32::MAX] {
        let (remote, lie) = lied_to(&store, Arc::default());
        // The count follows a 24-byte reply header and `OK`.
        *lie.lock() = Some(Box::new(move |reply| {
            let mut lie = reply.to_vec();
            lie[28..32].copy_from_slice(&count.to_be_bytes());
            lie
        }));
        let read = remote.try_read(IoClass::Data, &[1, 6]);
        assert!(
            matches!(read, Err(RemoteError::Protocol(_))),
            "count {count}: {read:?}"
        );
    }
}
