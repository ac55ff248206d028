//! The event-driven request engine under hostile and crowded
//! conditions: backpressure fairness, malformed-frame isolation, and
//! the reboot quiesce discipline.
//!
//! These pin the PR 7 invariants:
//!
//! * A stalled (slow-loris) client sheds its **own** load: its bounded
//!   request queue caps at the configured bound and healthy neighbors
//!   keep their latency — p99 within 2× of the no-straggler baseline.
//! * Malformed input (a corrupt checksum, an oversized length, a
//!   message that ends inside a frame) condemns only the offending
//!   connection, which is dropped cleanly and audited. A message holds
//!   whole frames (`onc_rpc::frame`, *The rule*): nothing is carried
//!   over to be reassembled with the next one.
//! * A service call that panics condemns its own connection, not the
//!   worker that ran it: more such calls than there are workers leave
//!   the engine serving.
//! * `Testbed::reboot` quiesces the engine — drains accepted requests,
//!   joins every server thread — before the store drops.
//! * A failed responder handshake (a garbage IKE init, a peer gone
//!   mid-handshake, an AUTH with a bad signature however many calls
//!   ride with it) is counted in `handshake_failures`, attaches nothing,
//!   serves nothing and costs no worker; an unfinished one (a peer that
//!   never sends) holds no worker and does not delay a reboot.
//! * Calls riding with the AUTH are served in order under the queue
//!   bound and batch quantum, ahead of what follows them.
//!
//! That connection count does not change the thread count is
//! `tests/engine_threads.rs`, a binary of its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use discfs::{CredentialIssuer, DiscfsClient, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::DetRng;
use ffs::{Ffs, FsConfig, StoreBackend};
use ipsec::{ike, PlainChannel, SecureTransport};
use netsim::{Endpoint, Link, LinkConfig, NetError, SimClock, Transport};
use nfsv2::proto::proc_nfs;
use nfsv2::{Engine, EngineConfig, FfsService, NfsClient, RemoteFs};
use onc_rpc::{frame, Encoder, RpcCall, RpcReply};
use store::{BlockStore, IoClass, SimStore, StoreStats};

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

fn grant_root(bed: &Testbed, holder: &SigningKey) -> String {
    CredentialIssuer::new(bed.admin())
        .holder(&holder.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue()
}

fn connect_granted(bed: &Testbed, seed: u8) -> DiscfsClient {
    bed.connect_owner(&key(seed)).expect("connect")
}

/// Waits (bounded) for an engine-side condition to become true.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

#[test]
fn stalled_client_sheds_its_own_load_not_neighbors() {
    const QUEUE_BOUND: usize = 32;
    let bed = Testbed::with_engine_config(
        FsConfig::small(),
        LinkConfig::instant(),
        128,
        &StoreBackend::SimTimed,
        EngineConfig {
            workers: 2,
            queue_bound: QUEUE_BOUND,
            batch: 8,
            ..EngineConfig::default()
        },
    );

    let healthy_n: usize = if cfg!(debug_assertions) { 25 } else { 100 };
    let rounds: usize = if cfg!(debug_assertions) { 10 } else { 30 };
    let flood: usize = if cfg!(debug_assertions) {
        5_000
    } else {
        50_000
    };

    let healthy: Vec<DiscfsClient> = (0..healthy_n)
        .map(|i| connect_granted(&bed, 0x30 + (i % 100) as u8))
        .collect();
    // One warm-up round trip each (policy cache, engine attach).
    for client in &healthy {
        client.getattr(&client.remote().root()).expect("warm-up");
    }

    // p99 of sequential round-trip latencies across all healthy
    // clients, driven from one thread so client-side contention never
    // pollutes the measurement.
    let measure_p99 = |clients: &[DiscfsClient], rounds: usize| -> Duration {
        let mut samples = Vec::with_capacity(clients.len() * rounds);
        for _ in 0..rounds {
            for client in clients {
                let root = client.remote().root();
                let start = Instant::now();
                client.getattr(&root).expect("healthy getattr");
                samples.push(start.elapsed());
            }
        }
        samples.sort();
        samples[(samples.len() * 99) / 100 - 1]
    };

    // Phase A: no straggler.
    let baseline_p99 = measure_p99(&healthy, rounds);

    // The straggler floods a huge pipelined burst and never reads a
    // reply — the classic slow-loris shape on this wire.
    let straggler_key = key(0xF0);
    let (straggler, token) = bed
        .connect_tracked(&straggler_key)
        .expect("connect straggler");
    straggler
        .submit_credential(&grant_root(&bed, &straggler_key))
        .expect("straggler grant");
    let root = straggler.remote().root();
    let mut e = Encoder::new();
    e.put_opaque_fixed(&root.0);
    let args = e.finish();
    for _ in 0..flood {
        straggler
            .client()
            .send_call(nfsv2::NFS_PROGRAM, 2, proc_nfs::GETATTR, args.clone())
            .expect("flood send");
    }
    straggler.client().flush().expect("flood on the wire");

    // Phase B: same healthy clients, straggler mid-flood.
    let stressed_p99 = measure_p99(&healthy, rounds);

    // The straggler's queue capped at its bound — the flood stayed in
    // the network, not in server memory...
    assert_eq!(
        bed.engine().queue_high_water(token),
        Some(QUEUE_BOUND),
        "straggler queue must cap exactly at the configured bound"
    );
    assert!(
        bed.engine()
            .stats()
            .pauses
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the flood must actually trip backpressure"
    );
    // ...and the straggler only hurt itself. The floor term absorbs
    // scheduler preemption noise on starved CI runners (this suite
    // must pass on a single-core box where loop, workers and driver
    // share one CPU). Genuine unfairness — healthy requests queued
    // behind the straggler's multi-thousand-request backlog — costs
    // hundreds of milliseconds and sails past either term.
    let bound = (baseline_p99 * 2).max(Duration::from_millis(25));
    assert!(
        stressed_p99 <= bound,
        "healthy p99 degraded beyond 2x: baseline {baseline_p99:?}, \
         with straggler {stressed_p99:?}"
    );
}

/// Sends `msg` on a fresh connection beside a healthy neighbour and
/// checks that it condemns that connection alone: it is dropped
/// unanswered, `malformed_drops` rises by one, the drop is audited
/// ("key A sent garbage"), and the neighbour and a later connection are
/// served.
fn condemns_only_its_sender(msg: Vec<u8>) {
    let bed = Testbed::instant();
    let neighbor = connect_granted(&bed, 0x40);
    let root = neighbor.remote().root();
    neighbor.getattr(&root).expect("neighbor healthy before");
    let (attacker, token) = bed.connect_raw(&key(0x41)).expect("attacker handshake");
    // The responder side attaches asynchronously (the handshake is a
    // worker job); wait for it so the drop below is unambiguous.
    assert!(eventually(|| bed.engine().is_connected(token)));
    let stats = bed.engine().stats();
    let condemned = stats.malformed_drops.load(Ordering::Relaxed);
    let aborts = || {
        let records = bed.service().audit().records();
        let aborted = records.iter().filter(|r| r.op() == "abort");
        aborted.filter(|r| r.handle() == "malformed frame").count()
    };
    let aborted = aborts();

    attacker.send(msg).expect("send the bad message");
    assert!(
        eventually(|| !bed.engine().is_connected(token)),
        "the offending connection must be dropped"
    );
    assert!(attacker.recv().is_err(), "no frame of it is answered");
    assert_eq!(stats.malformed_drops.load(Ordering::Relaxed), condemned + 1);
    assert_eq!(aborts(), aborted + 1, "the drop leaves an audit record");
    neighbor
        .getattr(&root)
        .expect("neighbor unaffected by the attack");
    let after = connect_granted(&bed, 0x43);
    after
        .getattr(&after.remote().root())
        .expect("server healthy after the attack");
}

#[test]
fn corrupt_checksum_drops_only_the_offender() {
    let mut bad = frame::encode_frame(b"looks like a frame");
    let last = bad.len() - 1;
    bad[last] ^= 0xff; // checksum no longer matches
    condemns_only_its_sender(bad);
}

#[test]
fn oversized_length_drops_connection() {
    // A header declaring a payload far beyond the frame bound; no
    // payload needs to follow for the server to reject it.
    let declared = (frame::DEFAULT_MAX_FRAME as u32) + 1;
    let mut msg = declared.to_be_bytes().to_vec();
    msg.extend_from_slice(&0u32.to_be_bytes());
    condemns_only_its_sender(msg);
}

#[test]
fn a_message_that_ends_inside_a_frame_condemns_only_its_connection() {
    // A whole NULL call, then the first five bytes of the next: its
    // header cut short at the end of the message.
    let mut msg = null_calls(2);
    msg.truncate(msg.len() / 2 + 5);
    condemns_only_its_sender(msg);
}

#[test]
fn reboot_quiesces_engine_with_requests_in_flight() {
    let bed = Testbed::instant();
    let mut client = connect_granted(&bed, 0x50);
    let root = client.remote().root();
    // Plain CREATE would leave the new file's handle uncovered by the
    // root grant; the DisCFS procedure issues (and session-registers)
    // the creator credential.
    let created = client
        .create_with_credential(&root, "durable.txt", 0o644)
        .expect("create");
    client
        .client()
        .write(&created.fh, 0, b"before reboot")
        .expect("write");

    // Leave a large pipelined burst in flight, replies unread.
    let mut e = Encoder::new();
    e.put_opaque_fixed(&root.0);
    let args = e.finish();
    for _ in 0..500 {
        client
            .client()
            .send_call(nfsv2::NFS_PROGRAM, 2, proc_nfs::GETATTR, args.clone())
            .expect("in-flight send");
    }
    client.client().flush().expect("burst on the wire");

    // Reboot must quiesce: drain accepted requests, join every engine
    // thread, only then sync and drop the store — no deadlock, no
    // panic, no torn volume.
    let bed = bed.reboot();
    bed.fs().check().expect("volume consistent after reboot");

    // The old connection is dead (its server side went down with the
    // engine)...
    assert!(eventually(|| !client.client().peer_alive()));
    // ...and the new instance serves fresh connections.
    let fresh = connect_granted(&bed, 0x51);
    fresh
        .getattr(&fresh.remote().root())
        .expect("fresh client on the rebooted server");
}

/// Every departed client is noticed. `Endpoint::drop` used to wake the
/// engine loop while the channel still looked merely empty, and a loop
/// that won the race dropped the only edge it would ever get: the
/// connection, its ESP state and the peer's KeyNote session (with the
/// credentials loaded into it) stayed for good — about one drop in
/// three on a two-core host.
#[test]
fn every_disconnect_is_observed_and_tears_down_the_session() {
    const CYCLES: u32 = 2000;
    let bed = Testbed::new();
    let root_grant = |holder: &SigningKey, perm: Perm| {
        CredentialIssuer::new(bed.admin())
            .holder(&holder.public())
            .grant_handle_string("1.1", perm)
            .issue()
    };
    for i in 0..CYCLES {
        // A key of its own per cycle: a late teardown of cycle i must
        // not be able to hide behind (or remove) cycle i+1's session.
        let mut seed = [0x7e; 32];
        seed[..4].copy_from_slice(&i.to_le_bytes());
        let holder = SigningKey::from_seed(&seed);
        let client = bed.connect(&holder).expect("connect");
        client
            .submit_credential(&root_grant(&holder, Perm::R))
            .expect("first credential");
        client
            .submit_credential(&root_grant(&holder, Perm::RX))
            .expect("second credential");
        client
            .client()
            .readdir_all(&client.remote().root())
            .expect("readdir");
        drop(client);
    }
    let stats = bed.engine().stats();
    let all_gone = eventually(|| {
        bed.engine().connections() == 0
            && stats.connections_dropped.load(Ordering::Relaxed)
                == stats.connections_accepted.load(Ordering::Relaxed)
    });
    assert!(
        all_gone,
        "{} of {CYCLES} connections still attached; accepted {} dropped {}",
        bed.engine().connections(),
        stats.connections_accepted.load(Ordering::Relaxed),
        stats.connections_dropped.load(Ordering::Relaxed),
    );
    assert_eq!(
        stats.connections_accepted.load(Ordering::Relaxed),
        CYCLES as u64
    );
    assert_eq!(
        bed.service().peer_session_count(),
        0,
        "no KeyNote session may outlive its connection"
    );
}

/// The engine takes any established channel, not only the IKE one it
/// negotiates itself: plain NFS over a `PlainChannel` handed to
/// `accept_channel` is served, and its disconnect observed, like an
/// ESP connection's. (The bench harness serves CFS-NE this way.)
#[test]
fn plain_channel_connection_is_served_and_torn_down() {
    let clock = SimClock::new();
    let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
    let service = Arc::new(FfsService::new(fs, 1));
    let engine = Engine::start(service, key(1), EngineConfig::default());
    let (client_end, server_end) = Link::loopback(&clock);
    let token = engine.accept_channel(Box::new(PlainChannel::new(server_end)));

    let client = NfsClient::new(Box::new(PlainChannel::new(client_end)));
    let remote = RemoteFs::mount(client, "/").expect("mount");
    let body: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    remote.write_file("plain.dat", &body).expect("write");
    assert_eq!(remote.read_file("plain.dat").expect("read"), body);
    assert!(engine.is_connected(token));
    assert_eq!(engine.connections(), 1);

    drop(remote);
    let stats = engine.stats();
    let gone = eventually(|| {
        engine.connections() == 0
            && stats.connections_dropped.load(Ordering::Relaxed)
                == stats.connections_accepted.load(Ordering::Relaxed)
    });
    assert!(
        gone,
        "{} connection(s) still attached; accepted {} dropped {}",
        engine.connections(),
        stats.connections_accepted.load(Ordering::Relaxed),
        stats.connections_dropped.load(Ordering::Relaxed),
    );
    assert_eq!(stats.connections_accepted.load(Ordering::Relaxed), 1);
}

/// A responder handshake that fails costs the engine nothing but a
/// count: a peer whose IKE init is garbage, and one that hangs up after
/// the responder's reply, leave no connection behind and no worker
/// lost, so a well-formed initiator is still served.
#[test]
fn failed_handshakes_are_counted_and_lose_no_worker() {
    let clock = SimClock::new();
    let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
    let service = Arc::new(FfsService::new(fs, 1));
    // Two workers, two failures: a failure that cost its worker would
    // leave none to serve the third peer.
    let engine = Engine::start(
        service,
        key(1),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    );
    let stats = engine.stats();

    // Peer 1: an init of the wrong length.
    let (garbage_peer, server_end) = Link::loopback(&clock);
    engine.accept(server_end);
    garbage_peer.send(vec![0xAB; 7]).expect("send garbage init");
    assert!(
        garbage_peer.recv().is_err(),
        "the responder hangs up on a bad init"
    );

    // Peer 2: a well-formed init (ephemeral key, nonce, identity), then
    // gone before the authentication message.
    let (quitter, server_end) = Link::loopback(&clock);
    engine.accept(server_end);
    let mut init = vec![0x11; 64];
    init.extend_from_slice(&key(2).public().0);
    quitter.send(init).expect("send init");
    quitter.recv().expect("responder's signed reply");
    drop(quitter);

    assert!(
        eventually(|| stats.handshake_failures.load(Ordering::Relaxed) == 2),
        "handshake failures: {}",
        stats.handshake_failures.load(Ordering::Relaxed)
    );
    assert_eq!(stats.connections_accepted.load(Ordering::Relaxed), 0);
    assert_eq!(engine.connections(), 0);

    // A well-formed initiator still gets a channel and is served.
    let (client_end, server_end) = Link::loopback(&clock);
    engine.accept(server_end);
    let chan = ike::initiate(
        client_end,
        &key(3),
        Some(&key(1).public()),
        &mut DetRng::new(3),
    )
    .expect("handshake");
    let remote = RemoteFs::mount(NfsClient::new(Box::new(chan)), "/").expect("mount");
    remote
        .write_file("after.txt", b"still served")
        .expect("write");
    assert_eq!(
        remote.read_file("after.txt").expect("read"),
        b"still served"
    );
    assert_eq!(stats.connections_accepted.load(Ordering::Relaxed), 1);
    assert_eq!(stats.handshake_failures.load(Ordering::Relaxed), 2);
}

/// An initiator's link end that flips the first byte of its second
/// message: the signature of an AUTH riding with the first record.
struct BadAuth {
    end: Endpoint,
    sent: AtomicUsize,
}

impl Transport for BadAuth {
    fn send(&self, mut msg: Vec<u8>) -> Result<(), NetError> {
        if self.sent.fetch_add(1, Ordering::Relaxed) == 1 {
            msg[0] ^= 1;
        }
        self.end.send(msg)
    }
    fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.end.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.end.recv_timeout(timeout)
    }
}

/// `count` NULL calls, xids from 1, framed into one message.
fn null_calls(count: u32) -> Vec<u8> {
    (1..=count)
        .flat_map(|xid| {
            frame::encode_frame(&RpcCall::new(xid, nfsv2::NFS_PROGRAM, 2, 0, vec![]).encode())
        })
        .collect()
}

/// The xids of the next `count` replies on `chan`, in arrival order.
fn reply_xids(chan: &dyn SecureTransport, count: usize) -> Vec<u32> {
    let mut decoder = frame::FrameDecoder::new();
    let mut got = Vec::new();
    while got.len() < count {
        let msg = chan.recv().expect("reply message");
        decoder
            .feed(bytes::Bytes::from(msg))
            .expect("well-formed replies");
        while let Some(payload) = decoder.pop_frame() {
            got.push(RpcReply::decode(&payload).expect("rpc reply").xid);
        }
    }
    got
}

/// An engine on an in-memory `FfsService` whose server key is `key(1)`.
fn ffs_engine(config: EngineConfig) -> Engine {
    let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
    Engine::start(Arc::new(FfsService::new(fs, 1)), key(1), config)
}

/// An AUTH whose signature is bad fails the handshake whatever rides
/// with it: no call in its record is served, the peer is hung up on,
/// and the failure is counted.
#[test]
fn calls_riding_with_a_bad_auth_are_never_served() {
    let engine = ffs_engine(EngineConfig::default());
    let stats = engine.stats();
    let clock = SimClock::new();
    let (client_end, server_end) = Link::loopback(&clock);
    engine.accept(server_end);
    let transport = BadAuth {
        end: client_end,
        sent: AtomicUsize::new(0),
    };
    let chan = ike::initiate_deferred(
        transport,
        &key(3),
        Some(&key(1).public()),
        &mut DetRng::new(3),
    )
    .expect("INIT and RESP");
    chan.send(null_calls(3)).expect("AUTH and calls");
    assert!(chan.recv().is_err(), "the responder hangs up");
    assert!(eventually(|| stats
        .handshake_failures
        .load(Ordering::Relaxed)
        == 1));
    assert_eq!(stats.requests_served.load(Ordering::Relaxed), 0);
    assert_eq!(stats.connections_accepted.load(Ordering::Relaxed), 0);
    assert_eq!(engine.connections(), 0);
}

/// Forty calls ride with the AUTH against a queue bound of four and a
/// quantum of two: they are all served, in order, before the call sent
/// after them, and the queue never holds more than its bound.
#[test]
fn calls_riding_with_the_auth_are_served_in_order_under_the_bound() {
    let engine = ffs_engine(EngineConfig {
        queue_bound: 4,
        batch: 2,
        ..EngineConfig::default()
    });
    let clock = SimClock::new();
    let (client_end, server_end) = Link::loopback(&clock);
    let token = engine.accept(server_end);
    let chan = ike::initiate_deferred(
        client_end,
        &key(3),
        Some(&key(1).public()),
        &mut DetRng::new(3),
    )
    .expect("INIT and RESP");
    chan.send(null_calls(40)).expect("AUTH and calls");
    chan.send(frame::encode_frame(
        &RpcCall::new(41, nfsv2::NFS_PROGRAM, 2, 0, vec![]).encode(),
    ))
    .expect("a later call");
    assert_eq!(reply_xids(&chan, 41), (1..=41).collect::<Vec<_>>());
    assert_eq!(engine.queue_high_water(token), Some(4));
    assert!(engine.stats().pauses.load(Ordering::Relaxed) >= 1);
    assert_eq!(engine.stats().requests_served.load(Ordering::Relaxed), 41);
}

/// A first record whose frame is corrupt condemns the connection the
/// AUTH just attached, as the same frame arriving later would.
#[test]
fn a_corrupt_frame_riding_with_the_auth_condemns_the_connection() {
    let engine = ffs_engine(EngineConfig::default());
    let stats = engine.stats();
    let clock = SimClock::new();
    let (client_end, server_end) = Link::loopback(&clock);
    let token = engine.accept(server_end);
    let chan = ike::initiate_deferred(
        client_end,
        &key(3),
        Some(&key(1).public()),
        &mut DetRng::new(3),
    )
    .expect("INIT and RESP");
    let mut bad = frame::encode_frame(b"looks like a frame");
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    chan.send(bad).expect("AUTH and a corrupt frame");
    assert!(eventually(
        || stats.malformed_drops.load(Ordering::Relaxed) == 1
    ));
    assert_eq!(stats.connections_accepted.load(Ordering::Relaxed), 1);
    assert_eq!(stats.requests_served.load(Ordering::Relaxed), 0);
    assert!(!engine.is_connected(token));
}

/// Runs `work` on a thread of its own and waits at most ten seconds
/// for its result: a hang is a failed assertion, not a stuck suite.
fn within_bound<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    rx.recv_timeout(Duration::from_secs(10)).ok()
}

/// Peers that connect and never send their IKE init hold no worker:
/// with as many silent peers as the engine has workers (four), an
/// honest initiator still completes its handshake and is served.
#[test]
fn silent_handshakes_hold_no_worker() {
    let bed = Arc::new(Testbed::instant());
    let clock = SimClock::new();
    let silent: Vec<_> = (0..EngineConfig::default().workers)
        .map(|_| {
            let (peer, server_end) = Link::pair(&clock, LinkConfig::instant());
            bed.engine().accept(server_end);
            peer
        })
        .collect();
    let honest = {
        let bed = Arc::clone(&bed);
        within_bound(move || {
            let (chan, token) = bed.connect_raw(&key(0x60)).expect("handshake");
            assert!(eventually(|| bed.engine().is_connected(token)));
            chan
        })
    };
    assert!(
        honest.is_some(),
        "silent peers must not starve an honest handshake"
    );
    assert_eq!(bed.engine().connections(), 1);
    drop(silent);
    assert!(eventually(|| bed
        .engine()
        .stats()
        .handshake_failures
        .load(Ordering::Relaxed)
        == 4));
}

/// A peer stuck before its IKE init does not hold up a reboot: the
/// engine joins at once and the peer sees a hang-up.
#[test]
fn reboot_is_not_held_up_by_a_silent_handshake() {
    let bed = Testbed::instant();
    let clock = SimClock::new();
    let (silent, server_end) = Link::pair(&clock, LinkConfig::instant());
    bed.engine().accept(server_end);
    let rebooted = within_bound(move || bed.reboot());
    assert!(rebooted.is_some(), "reboot waited on a silent handshake");
    assert!(silent.recv_timeout(Duration::from_secs(10)).is_err());
}

#[test]
fn pipelined_reads_share_messages_and_reply_batches() {
    // Eight READs in flight on one connection: the client's outbox
    // puts several calls in a message and the engine answers at least
    // each message's worth in one batch. Two requests a batch is the
    // rule's floor whatever the thread timing (the ramp 1, 1, 2, 4
    // answered message by message; `nfsv2/tests/outbox.rs`). With one
    // call a message this ratio is the scheduler's: 1.2 to 8 on this
    // bed from run to run, 1.1 under `discfs_bench`'s `seq_read`.
    let bed = Testbed::instant();
    let mut client = connect_granted(&bed, 0x52);
    let root = client.remote().root();
    let created = client
        .create_with_credential(&root, "stream.dat", 0o644)
        .expect("create");
    let body: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    client
        .client()
        .write_all(&created.fh, 0, &body)
        .expect("fill");

    let stats = bed.engine().stats();
    let counts = || {
        (
            stats.requests_served.load(Ordering::Relaxed),
            stats.batches_sent.load(Ordering::Relaxed),
        )
    };
    let (served_before, batches_before) = counts();

    const READS: u32 = 2_000;
    const CHUNK: u32 = 4096;
    let nfs = client.client();
    let offset_of = |i: u32| i % (body.len() as u32 / CHUNK) * CHUNK;
    let read_args = |i: u32| {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&created.fh.0);
        e.put_u32(offset_of(i));
        e.put_u32(CHUNK);
        e.put_u32(CHUNK);
        e.finish()
    };
    let mut outstanding = std::collections::VecDeque::new();
    let mut issued = 0;
    loop {
        while outstanding.len() < 8 && issued < READS {
            let xid = nfs
                .send_call(nfsv2::NFS_PROGRAM, 2, proc_nfs::READ, read_args(issued))
                .expect("send");
            outstanding.push_back((xid, issued));
            issued += 1;
        }
        let Some((xid, i)) = outstanding.pop_front() else {
            break;
        };
        let results = nfs.wait_reply(xid).expect("reply");
        let offset = offset_of(i) as usize;
        assert!(
            results.ends_with(&body[offset..offset + CHUNK as usize]),
            "READ {i} returned the wrong bytes"
        );
    }

    let (served, batches) = counts();
    let (served, batches) = (served - served_before, batches - batches_before);
    assert_eq!(served, u64::from(READS));
    assert!(
        served >= 2 * batches,
        "{served} requests in {batches} reply batches"
    );
}

/// What a data block holding a poisoned file's contents starts with.
const POISON: &[u8] = b"a read of this block panics";

/// A simulated disk whose data reads panic on any block that starts
/// with [`POISON`]: a store fault that reaches the service as a panic.
struct PanicsOnRead(SimStore);

impl BlockStore for PanicsOnRead {
    fn block_count(&self) -> u64 {
        self.0.block_count()
    }
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<bytes::Bytes> {
        let blocks = self.0.read(class, idxs);
        let poisoned = blocks.iter().any(|b| b.starts_with(POISON));
        assert!(
            class == IoClass::Meta || !poisoned,
            "a read of the poisoned block"
        );
        blocks
    }
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        self.0.write(class, writes)
    }
    fn stats(&self) -> StoreStats {
        self.0.stats()
    }
    fn label(&self) -> &'static str {
        "panics-on-read"
    }
}

/// A service call that panics condemns its own connection and leaves
/// the worker that ran it serving. Five connections, more than the
/// engine's four workers, each send a GETATTR and a READ of a poisoned
/// block in one message: each gets the GETATTR's reply and then a
/// hang-up, and a sixth connection is still answered.
#[test]
fn a_panicking_service_call_condemns_its_connection_not_a_worker() {
    let clock = SimClock::new();
    let config = FsConfig::small();
    let disk = PanicsOnRead(SimStore::untimed(config.total_blocks));
    let fs = Arc::new(Ffs::format_on(Arc::new(disk), config));
    let engine = Engine::start(
        Arc::new(FfsService::new(fs, 1)),
        key(1),
        EngineConfig::default(),
    );
    let connect = || {
        let (client_end, server_end) = Link::loopback(&clock);
        engine.accept_channel(Box::new(PlainChannel::new(server_end)));
        PlainChannel::new(client_end)
    };
    let remote = RemoteFs::mount(NfsClient::new(Box::new(connect())), "/").expect("mount");
    let poisoned = remote.write_file("poisoned", POISON).expect("write");

    let call = |xid, proc_num, args: Vec<u8>| {
        frame::encode_frame(&RpcCall::new(xid, nfsv2::NFS_PROGRAM, 2, proc_num, args).encode())
    };
    let mut read = Encoder::new();
    read.put_opaque_fixed(&poisoned.0);
    for word in [0, 4096, 4096] {
        read.put_u32(word); // offset, count, totalcount
    }
    let mut msg = call(1, proc_nfs::GETATTR, poisoned.0.to_vec());
    msg.extend(call(2, proc_nfs::READ, read.finish()));
    let readers: Vec<_> = (0..=EngineConfig::default().workers)
        .map(|_| {
            let reader = connect();
            reader.send(msg.clone()).expect("send");
            reader
        })
        .collect();
    // Not asserted here: without the fix no drop is ever counted, and
    // the bounded wait below is what fails.
    let drops = || engine.stats().malformed_drops.load(Ordering::Relaxed);
    eventually(|| drops() == 5);
    let sixth = NfsClient::new(Box::new(connect()));
    assert_eq!(
        within_bound(move || sixth.getattr(&poisoned).is_ok()),
        Some(true),
        "a connection after the panicking calls must still be served"
    );
    assert_eq!(drops(), 5);
    for reader in readers {
        assert_eq!(reply_xids(&reader, 1), [1], "the call served first");
        assert!(reader.recv().is_err(), "then the connection is dropped");
    }
}
