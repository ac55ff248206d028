//! Client robustness: [`NfsClient`] decoding a hostile server's replies.
//! A client mounts servers it does not control; no reply may crash it
//! or leave a call waiting forever.
//!
//! Real replies are recorded from an [`Engine`] serving an
//! [`FfsService`], one per procedure. Each case mutates one
//! (`DetRng::mutate`) and hands it to the typed stub over a
//! [`PlainChannel`] whose far end the test then drops: the stub must
//! end in `Ok` or a [`ClientError`], and a reply to a call it never
//! made (a mangled xid) must end in the transport's error when the
//! server goes, not in a hang.
//!
//! A binary of its own, because it installs a byte-counting global
//! allocator (as `store/tests/zero_copy.rs` does): the count lives in a
//! `const`-initialised thread-local, so [`replay`] counts what the
//! client allocates on the caller thread, from building the client to
//! the stub's outcome, and nothing the test's server side does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread;

use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::check::{check, Source};
use discfs_crypto::rng::DetRng;
use ffs::{Ffs, FsConfig};
use ipsec::{IpsecError, PlainChannel, SecureTransport};
use netsim::{Link, NetError, SimClock, Transport};
use nfsv2::{ClientError, Engine, EngineConfig, FHandle, FfsService, NfsClient, RemoteFs};
use onc_rpc::frame;
use parking_lot::Mutex;

struct CountingAlloc;

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates to the system allocator unchanged; the counter is a
// `Cell` in a const-initialised thread-local with no destructor, which
// neither allocates nor can be gone when accessed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A client transport that keeps a copy of every message it receives.
struct Recorder(netsim::Endpoint, Arc<Mutex<Vec<Vec<u8>>>>);

impl SecureTransport for Recorder {
    fn send(&self, msg: Vec<u8>) -> Result<(), IpsecError> {
        Ok(self.0.send(msg)?)
    }
    fn recv(&self) -> Result<Vec<u8>, IpsecError> {
        let msg = self.0.recv()?;
        self.1.lock().push(msg.clone());
        Ok(msg)
    }
    fn peer_identity(&self) -> Option<discfs_crypto::ed25519::VerifyingKey> {
        None
    }
}

/// One typed call, made with handles the replayed reply does not check.
type Stub = fn(&NfsClient, &FHandle, &FHandle) -> Result<(), ClientError>;

const STUBS: [(&str, Stub); 5] = [
    ("getattr", |c, file, _| c.getattr(file).map(drop)),
    ("lookup", |c, _, root| c.lookup(root, "f").map(drop)),
    ("read", |c, file, _| c.read(file, 0, 4096).map(drop)),
    ("readdir", |c, _, root| c.readdir_all(root).map(drop)),
    ("write", |c, file, _| c.write(file, 0, &[1; 100]).map(drop)),
];

/// The RPC payload of the engine's reply to each of [`STUBS`], in
/// order, on a volume holding one 3 000-byte file `f`, its xid set to
/// 1: the xid of a fresh client's first call.
fn recorded_replies() -> Vec<Vec<u8>> {
    let clock = SimClock::new();
    let (client_end, server_end) = Link::loopback(&clock);
    let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
    let service = Arc::new(FfsService::new(fs, 1));
    let engine = Engine::start(
        service,
        SigningKey::from_seed(&[0x5E; 32]),
        EngineConfig::default(),
    );
    engine.accept_channel(Box::new(PlainChannel::new(server_end)));
    let got = Arc::new(Mutex::new(Vec::new()));
    let client = NfsClient::new(Box::new(Recorder(client_end, got.clone())));
    let remote = RemoteFs::mount(client, "/").unwrap();
    let file = remote.write_file("f", &[7; 3000]).unwrap();
    STUBS
        .iter()
        .map(|(name, stub)| {
            stub(remote.client(), &file, &remote.root()).unwrap_or_else(|e| panic!("{name}: {e}"));
            let msg = got.lock().last().unwrap().clone();
            let mut payload = frame::unframe(&msg).unwrap().to_vec();
            payload[..4].copy_from_slice(&1u32.to_be_bytes());
            payload
        })
        .collect()
}

/// Runs `stub` on a fresh client whose server answers its first call
/// with `reply` (one transport message) and then goes away. Returns the
/// stub's outcome and the bytes the caller thread allocated for it.
fn replay(stub: Stub, reply: Vec<u8>) -> (Result<(), ClientError>, u64) {
    let clock = SimClock::new();
    let (near, far) = Link::loopback(&clock);
    let caller = thread::spawn(move || {
        let before = ALLOC_BYTES.with(Cell::get);
        let client = NfsClient::new(Box::new(PlainChannel::new(near)));
        let outcome = stub(&client, &FHandle([1; 32]), &FHandle([2; 32]));
        drop(client);
        (outcome, ALLOC_BYTES.with(Cell::get) - before)
    });
    far.recv().expect("the stub's call");
    far.send(reply).unwrap();
    drop(far);
    caller.join().expect("the stub panicked on a hostile reply")
}

/// One mutation of `msg` drawn from `src`, or `None` when it happens to
/// leave `msg` as it was.
fn mutated(src: &mut Source, msg: &[u8], donor: &[u8]) -> Option<Vec<u8>> {
    Some(DetRng::new(src.any()).mutate(msg, donor)).filter(|m| m != msg)
}

/// The recorded replies as they came: every stub succeeds.
#[test]
fn recorded_replies_replay() {
    for ((name, stub), reply) in STUBS.iter().zip(recorded_replies()) {
        let (outcome, _) = replay(*stub, frame::encode_frame(&reply));
        assert_eq!(outcome, Ok(()), "{name}");
    }
}

/// A well-formed reply to a call the client never made leaves the call
/// waiting until the server goes, then ends in the transport's error.
#[test]
fn a_reply_to_another_xid_ends_when_the_server_goes() {
    let mut reply = recorded_replies().swap_remove(0);
    reply[..4].copy_from_slice(&2u32.to_be_bytes());
    let (outcome, _) = replay(STUBS[0].1, frame::encode_frame(&reply));
    assert_eq!(
        outcome,
        Err(ClientError::Net(IpsecError::Net(NetError::Disconnected)))
    );
}

/// What a stub may allocate on a hostile reply: a stated multiple of
/// the reply's length plus a constant. Two copies of a reply's bytes
/// (the results the RPC decoder takes out of the message, and the data
/// or names a stub returns) and the client's own state, about 340 to
/// 670 bytes: its maps, its outbox and the call it frames. The 4 911
/// cases below read at most 2 × length + 964 bytes (a 104-byte READDIR
/// reply) and 6 774 bytes at the most (a 3 146-byte READ reply).
const ALLOC_PER_REPLY_BYTE: u64 = 2;
const ALLOC_CONSTANT: u64 = 1024;

/// 10³ mutated replies to each procedure, half mutated inside a valid
/// frame (the RPC and NFS decoders see them) and half with the frame.
/// Each allocates within [`ALLOC_PER_REPLY_BYTE`] and
/// [`ALLOC_CONSTANT`].
#[test]
fn mutated_replies_end_in_ok_or_a_client_error() {
    let replies = recorded_replies();
    for (at, (name, stub)) in STUBS.iter().enumerate() {
        let reply = &replies[at];
        let donor = &replies[(at + 1) % replies.len()];
        check(&format!("mutated_{name}_replies"), 1000, |src| {
            let hostile = if src.bool() {
                mutated(src, reply, donor).map(|payload| frame::encode_frame(&payload))
            } else {
                mutated(src, &frame::encode_frame(reply), donor)
            };
            if let Some(hostile) = hostile {
                // Any outcome but a panic or a hang will do.
                let bound = ALLOC_PER_REPLY_BYTE * hostile.len() as u64 + ALLOC_CONSTANT;
                let (_, allocated) = replay(*stub, hostile);
                assert!(
                    allocated <= bound,
                    "{allocated} bytes allocated on a reply bounded at {bound}"
                );
            }
        });
    }
}
