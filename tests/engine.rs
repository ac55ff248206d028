//! The event-driven request engine under hostile and crowded
//! conditions: backpressure fairness, malformed-frame isolation, and
//! the reboot quiesce discipline.
//!
//! These pin the PR 7 invariants:
//!
//! * A stalled (slow-loris) client sheds its **own** load: its bounded
//!   request queue caps at the configured bound and healthy neighbors
//!   keep their latency — p99 within 2× of the no-straggler baseline.
//! * Malformed frames (corrupt checksum, oversized length) condemn
//!   only the offending connection, which is dropped cleanly and
//!   audited; split/interleaved *well-formed* frames reassemble.
//! * `Testbed::reboot` quiesces the engine — drains accepted requests,
//!   joins every server thread — before the store drops.
//! * A failed responder handshake (a garbage IKE init, a peer gone
//!   mid-handshake) is counted in `handshake_failures`, attaches
//!   nothing and costs no worker.
//!
//! That connection count does not change the thread count is
//! `tests/engine_threads.rs`, a binary of its own.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use discfs::{CredentialIssuer, DiscfsClient, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::DetRng;
use ffs::{Ffs, FsConfig, StoreBackend};
use ipsec::{ike, PlainChannel, SecureTransport};
use netsim::{Link, LinkConfig, SimClock, Transport};
use nfsv2::proto::proc_nfs;
use nfsv2::{Engine, EngineConfig, FfsService, NfsClient, RemoteFs};
use onc_rpc::{frame, Encoder, ReplyBody, RpcCall, RpcReply};

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

#[test]
fn corrupt_checksum_drops_only_the_offender() {
    let bed = Testbed::instant();
    let neighbor = connect_granted(&bed, 0x40);
    neighbor
        .getattr(&neighbor.remote().root())
        .expect("neighbor healthy before the attack");
    let aborted_before = bed
        .service()
        .audit()
        .records()
        .iter()
        .filter(|r| r.op() == "abort")
        .count();

    let (attacker, token) = bed.connect_raw(&key(0x41)).expect("attacker handshake");
    // The responder side attaches asynchronously (the handshake is a
    // worker job); wait for it so the drop below is unambiguous.
    assert!(eventually(|| bed.engine().is_connected(token)));
    let mut bad = frame::encode_frame(b"looks like a frame");
    let last = bad.len() - 1;
    bad[last] ^= 0xff; // checksum no longer matches
    attacker.send(bad).expect("send corrupt frame");

    assert!(
        eventually(|| !bed.engine().is_connected(token)),
        "offending connection must be dropped"
    );
    // The drop is audited ("key A sent garbage").
    let aborted_after = bed
        .service()
        .audit()
        .records()
        .iter()
        .filter(|r| r.op() == "abort" && r.handle() == "malformed frame")
        .count();
    assert!(
        aborted_after > aborted_before,
        "malformed-frame drop must leave an audit record"
    );
    assert!(
        bed.engine()
            .stats()
            .malformed_drops
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    // The neighbor never notices.
    neighbor
        .getattr(&neighbor.remote().root())
        .expect("neighbor unaffected by the attack");
}

#[test]
fn oversized_length_drops_connection() {
    let bed = Testbed::instant();
    let (attacker, token) = bed.connect_raw(&key(0x42)).expect("attacker handshake");
    assert!(eventually(|| bed.engine().is_connected(token)));
    // A header declaring a payload far beyond the frame bound; no
    // payload needs to follow for the server to reject it.
    let declared = (frame::DEFAULT_MAX_FRAME as u32) + 1;
    let mut msg = Vec::new();
    msg.extend_from_slice(&declared.to_be_bytes());
    msg.extend_from_slice(&0u32.to_be_bytes());
    attacker.send(msg).expect("send oversized header");

    assert!(
        eventually(|| !bed.engine().is_connected(token)),
        "oversized frame must condemn the connection"
    );
    // A fresh, honest connection still works: server state is clean.
    let after = connect_granted(&bed, 0x43);
    after
        .getattr(&after.remote().root())
        .expect("server healthy after the attack");
}

#[test]
fn split_and_interleaved_frames_reassemble() {
    let bed = Testbed::instant();
    let (chan, token) = bed.connect_raw(&key(0x44)).expect("handshake");

    // NULL carries no args and needs no authorization: a clean probe.
    let call = |xid: u32| {
        frame::encode_frame(&RpcCall::new(xid, nfsv2::NFS_PROGRAM, 2, 0, vec![]).encode())
    };

    // One frame split mid-header across two transport messages...
    let framed = call(1);
    chan.send(framed[..5].to_vec()).expect("first fragment");
    chan.send(framed[5..].to_vec()).expect("second fragment");
    // ...and a message that finishes one frame and starts another.
    let (second, third) = (call(2), call(3));
    let mut mixed = second.clone();
    mixed.extend_from_slice(&third[..7]);
    chan.send(mixed).expect("interleaved message");
    chan.send(third[7..].to_vec()).expect("tail fragment");

    let mut decoder = frame::FrameDecoder::new();
    let mut got = Vec::new();
    while got.len() < 3 {
        let msg = chan.recv().expect("reply message");
        decoder
            .feed(bytes::Bytes::from(msg))
            .expect("well-formed replies");
        while let Some(payload) = decoder.pop_frame() {
            let reply = RpcReply::decode(&payload).expect("rpc reply");
            assert!(matches!(reply.body, ReplyBody::Success(_)));
            got.push(reply.xid);
        }
    }
    assert_eq!(got, vec![1, 2, 3], "pipelined order preserved");
    assert!(
        bed.engine().is_connected(token),
        "fragmented but well-formed traffic must not be dropped"
    );
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
