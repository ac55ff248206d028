//! Server robustness: the engine's frame path reading a hostile peer's
//! calls. Anyone with a key pair can complete IKE, so what arrives on
//! an authenticated channel is as untrusted as the channel's bytes:
//! the frame decoder, the RPC decoder, the NFS argument decoders and
//! the DisCFS control procedures (`discfs::rpc`) all read it.
//!
//! Real calls are recorded from a client of a [`Testbed`]'s engine, one
//! per procedure, over a [`PlainChannel`] that names the peer as an
//! IPsec channel would: the administrator, whose root policy lets every
//! call reach the decoders behind authorization. Each case mutates one
//! (`DetRng::mutate`) and sends it on a fresh connection. Half of the
//! cases mutate the call inside a valid frame, and a NULL call follows
//! it: the case ends when the NULL call is answered, with at most one
//! reply (an error or a result) to the hostile call before it, or when
//! the server drops the connection. The other half mutate the frame
//! too, and the client hangs up after sending it: a message that no
//! longer holds whole frames condemns the connection at once, and one
//! that still does is served until the hang-up. Either way the engine
//! must close the connection cleanly, and after every case of a
//! procedure the volume is fsck-clean. The engine catches a service
//! call that panics and condemns its connection, so a case fails when
//! its connection is condemned and its message was whole frames.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use discfs::rpc::{proc_discfs, DISCFS_PROGRAM, DISCFS_VERSION};
use discfs::{CredentialIssuer, DiscfsClient, Perm, Testbed};
use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use discfs_crypto::rng::check::{check, Source};
use discfs_crypto::rng::DetRng;
use ipsec::{IpsecError, PlainChannel, SecureTransport};
use netsim::{Endpoint, Link, NetError, Transport};
use nfsv2::Sattr;
use onc_rpc::frame::{self, FrameDecoder};
use onc_rpc::{ReplyBody, RpcCall, RpcReply};
use parking_lot::Mutex;
use std::sync::Arc;

const CASES: u32 = 1000;

/// How long a case may wait for the server before it counts as hung.
const PATIENCE: Duration = Duration::from_secs(30);

/// The xid of the NULL call that follows a hostile call.
const SENTINEL: u32 = 0xFFFF_FF00;

/// A plain channel that names its peer, as an IPsec channel does after
/// IKE, and keeps a copy of every message it receives when it records.
struct Named {
    chan: PlainChannel<Endpoint>,
    peer: VerifyingKey,
    received: Option<Arc<Mutex<Vec<Vec<u8>>>>>,
}

impl SecureTransport for Named {
    fn send(&self, msg: Vec<u8>) -> Result<(), IpsecError> {
        self.chan.send(msg)
    }
    fn recv(&self) -> Result<Vec<u8>, IpsecError> {
        let msg = self.chan.recv()?;
        self.note(&msg);
        Ok(msg)
    }
    fn try_recv(&self) -> Result<Option<Vec<u8>>, IpsecError> {
        let msg = self.chan.try_recv()?;
        if let Some(msg) = &msg {
            self.note(msg);
        }
        Ok(msg)
    }
    fn register_ready(&self, set: &Arc<netsim::ReadySet>, token: u64) {
        self.chan.register_ready(set, token);
    }
    fn peer_identity(&self) -> Option<VerifyingKey> {
        Some(self.peer)
    }
}

impl Named {
    fn note(&self, msg: &[u8]) {
        if let Some(received) = &self.received {
            received.lock().push(msg.to_vec());
        }
    }
}

/// Attaches a connection from the administrator to `bed`'s engine and
/// returns the client's end.
fn connect(bed: &Testbed, received: Option<Arc<Mutex<Vec<Vec<u8>>>>>) -> Endpoint {
    let (client_end, server_end) = Link::loopback(bed.clock());
    bed.engine().accept_channel(Box::new(Named {
        chan: PlainChannel::new(server_end),
        peer: bed.admin().public(),
        received,
    }));
    client_end
}

/// Records one real call of each procedure on `bed`'s volume, made by
/// the administrator after its MOUNT: each procedure's name and the RPC
/// message of its call.
fn record(bed: &Testbed) -> Vec<(&'static str, Vec<u8>)> {
    let received = Arc::new(Mutex::new(Vec::new()));
    let chan = PlainChannel::new(connect(bed, Some(received.clone())));
    let admin = bed.admin().public();
    let mut client = DiscfsClient::attach_over(Box::new(chan), admin, "/").unwrap();
    let root = client.remote().root();
    let nfs = client.client();
    let (file, _) = nfs.create(&root, "f", &Sattr::with_mode(0o644)).unwrap();
    let mut calls = vec![("create", last_call(&received))];
    nfs.write(&file, 0, &[7; 3000]).unwrap();
    calls.push(("write", last_call(&received)));
    nfs.getattr(&file).unwrap();
    calls.push(("getattr", last_call(&received)));
    nfs.lookup(&root, "f").unwrap();
    calls.push(("lookup", last_call(&received)));
    nfs.read(&file, 0, 4096).unwrap();
    calls.push(("read", last_call(&received)));

    let other = SigningKey::from_seed(&[0x0B; 32]).public();
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&other)
        .grant_handle_string("1.1", Perm::RX)
        .issue();
    client.submit_credential(&grant).unwrap();
    calls.push(("submit_cred", last_call(&received)));
    client.create_with_credential(&root, "g", 0o644).unwrap();
    calls.push(("create_with_cred", last_call(&received)));
    client.mkdir_with_credential(&root, "d", 0o755).unwrap();
    calls.push(("mkdir_with_cred", last_call(&received)));
    client.credential_count().unwrap();
    calls.push(("cred_count", last_call(&received)));
    client.revoke_key(&other).unwrap();
    calls.push(("revoke_key", last_call(&received)));
    client.revoke_credential("0123456789abcdef").unwrap();
    calls.push(("revoke_cred", last_call(&received)));
    calls.push(("null", control_call(1, proc_discfs::NULL)));
    calls
}

/// The RPC message of the one call the server last received.
fn last_call(received: &Mutex<Vec<Vec<u8>>>) -> Vec<u8> {
    let msg = received.lock().last().unwrap().clone();
    frame::unframe(&msg).unwrap().to_vec()
}

/// A DisCFS control call with no arguments.
fn control_call(xid: u32, proc_num: u32) -> Vec<u8> {
    RpcCall::new(xid, DISCFS_PROGRAM, DISCFS_VERSION, proc_num, Vec::new()).encode()
}

/// The payloads of one reply message, its frames checked.
fn frames(msg: Vec<u8>) -> Vec<Vec<u8>> {
    let mut decoder = FrameDecoder::new();
    decoder
        .feed(msg.into())
        .expect("the server frames its replies");
    std::iter::from_fn(|| decoder.pop_frame())
        .map(|payload| payload.to_vec())
        .collect()
}

/// One mutation of `msg` drawn from `src`, or `None` when it happens to
/// leave `msg` as it was.
fn mutated(src: &mut Source, msg: &[u8], donor: &[u8]) -> Option<Vec<u8>> {
    Some(DetRng::new(src.any()).mutate(msg, donor)).filter(|m| m != msg)
}

/// Sends `hostile` on a fresh connection and waits for the case to end
/// (module docs). `framed` says whether `hostile` is a payload to frame
/// or a whole message. Returns the replies that came before the NULL
/// call's.
fn serve_one(bed: &Testbed, hostile: &[u8], framed: bool) -> Vec<RpcReply> {
    let stats = bed.engine().stats();
    let dropped = stats.connections_dropped.load(Ordering::Relaxed);
    let condemned = stats.malformed_drops.load(Ordering::Relaxed);
    let client = connect(bed, None);
    let mut replies = Vec::new();
    let msg = if framed {
        frame::encode_frame(hostile)
    } else {
        hostile.to_vec()
    };
    let misframed = FrameDecoder::new().feed(msg.clone().into()).is_err();
    client.send(msg).unwrap();
    if framed {
        let sentinel = control_call(SENTINEL, proc_discfs::NULL);
        client.send(frame::encode_frame(&sentinel)).unwrap();
        'case: loop {
            match client.recv_timeout(PATIENCE) {
                Ok(msg) => {
                    for payload in frames(msg) {
                        let reply = RpcReply::decode(&payload).expect("a well-formed reply");
                        if reply.xid == SENTINEL {
                            break 'case;
                        }
                        replies.push(reply);
                    }
                }
                Err(NetError::Disconnected) => break,
                Err(e) => panic!("the server neither answered nor hung up: {e:?}"),
            }
        }
    }
    drop(client);
    let deadline = Instant::now() + PATIENCE;
    while stats.connections_dropped.load(Ordering::Relaxed) == dropped
        || bed.engine().connections() != 0
    {
        assert!(Instant::now() < deadline, "the connection was never closed");
        std::thread::sleep(Duration::from_micros(50));
    }
    assert_eq!(
        stats.malformed_drops.load(Ordering::Relaxed),
        condemned + u64::from(misframed),
        "only a message that is not whole frames condemns its connection"
    );
    replies
}

/// The recorded calls, sent as they came, are all answered.
#[test]
fn recorded_calls_are_answered() {
    let bed = Testbed::instant();
    for (name, call) in record(&bed) {
        let stats = bed.engine().stats();
        let served = stats.requests_served.load(Ordering::Relaxed);
        assert_eq!(serve_one(&bed, &call, true).len(), 1, "{name}");
        assert_eq!(
            stats.requests_served.load(Ordering::Relaxed),
            served + 2,
            "{name}: the call and the NULL after it"
        );
    }
}

/// A READ of zero bytes at offset 0 of a non-empty file is answered
/// `NFS_OK` with no data. It panicked the worker that served it, in
/// `ffs`'s extent arithmetic, so the call and every later one on the
/// connection went unanswered.
#[test]
fn a_read_of_zero_bytes_is_answered() {
    let bed = Testbed::instant();
    let (_, mut call) = record(&bed)
        .into_iter()
        .find(|(name, _)| *name == "read")
        .unwrap();
    // The arguments end in offset (0 here), count and totalcount.
    let at = call.len() - 8;
    call[at..].fill(0);
    let replies = serve_one(&bed, &call, true);
    assert_eq!(replies.len(), 1);
    let ReplyBody::Success(results) = &replies[0].body else {
        panic!("{:?}", replies[0].body);
    };
    assert_eq!(results[..4], [0; 4], "NFS_OK");
    // Attributes, then the data's length: none.
    assert_eq!(results[results.len() - 4..], [0; 4]);
}

/// 10³ mutated calls to each procedure, half mutated inside a valid
/// frame and half with the frame; the volume is fsck-clean after each
/// procedure's cases.
#[test]
fn mutated_calls_end_in_a_reply_or_a_clean_drop() {
    let bed = Testbed::instant();
    let corpus = record(&bed);
    for (at, (name, call)) in corpus.iter().enumerate() {
        let donor = &corpus[(at + 1) % corpus.len()].1;
        check(&format!("mutated_{name}_calls"), CASES, |src| {
            if src.bool() {
                if let Some(hostile) = mutated(src, call, donor) {
                    let replies = serve_one(&bed, &hostile, true);
                    assert!(replies.len() <= 1, "{} replies to one call", replies.len());
                }
            } else if let Some(hostile) = mutated(src, &frame::encode_frame(call), donor) {
                serve_one(&bed, &hostile, false);
            }
        });
        bed.sync().unwrap();
        let clean = bed.fs().check();
        assert_eq!(clean, Ok(()), "after mutated {name} calls");
    }
}
