//! Single-thread probes: each times one layer's public functions on
//! inputs shaped like the workload's (its message sizes, its session's
//! credentials), with nothing else running. They say what a layer
//! costs in isolation; the traced run says what it costs in place.

use std::sync::Arc;
use std::time::{Duration, Instant};

use discfs::{DiscfsConfig, DiscfsService, Perm};
use discfs_crypto::chacha20poly1305::ChaCha20Poly1305;
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::DetRng;
use discfs_crypto::sha256::Sha256;
use discfs_crypto::x25519;
use discfs_crypto::Digest;
use ffs::{Ffs, FsConfig};
use ipsec::esp::Sa;
use ipsec::ike;
use keynote::{Assertion, Session};
use netsim::{Link, LinkConfig, SimClock, Transport};
use nfsv2::{FHandle, NfsService, RequestCtx};
use onc_rpc::frame::{self, FrameDecoder};
use onc_rpc::{Encoder, RpcCall, RpcCallView, RpcReply};
use store::{BlockStore, Bytes, DiskModel, EncryptedStore, RemoteOptions, RemoteStore, SimStore};

use crate::plan::{WorkloadKind, BLOCK};

/// What the probes need to know about the workload.
pub struct Shape {
    /// Mean plaintext request message, bytes.
    pub request_len: usize,
    /// Mean plaintext reply message, bytes.
    pub reply_len: usize,
    /// The credentials a session of the workload holds.
    pub credentials: Vec<String>,
    /// The key those credentials were issued to.
    pub holder: SigningKey,
    /// The administrator key (policy root).
    pub admin: SigningKey,
    /// The server key (policy root; issued the creator credentials).
    pub server_key: SigningKey,
    /// Handles the session's credentials name.
    pub handles: Vec<FHandle>,
}

/// How long a probe repeats its subject.
const PROBE_TIME: Duration = Duration::from_millis(40);

/// Mean microseconds per call of `f`, repeated for [`PROBE_TIME`] (at
/// least three times).
fn micros_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < PROBE_TIME {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn megabytes_per_second(len: usize, micros: f64) -> f64 {
    len as f64 / micros
}

/// Every probe whose layer runs on `kind`, as `(metric name, value)`.
pub fn run_all(kind: WorkloadKind, shape: &Shape) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    crypto(&mut out);
    keynote_and_policy(shape, &mut out);
    wire(shape, &mut out);
    match kind {
        WorkloadKind::StackMixed => encrypted_store(&mut out),
        WorkloadKind::ReplMixed => remote_store(&mut out),
        _ => {}
    }
    machine(&mut out);
    out
}

fn crypto(out: &mut Vec<(&'static str, f64)>) {
    let key = SigningKey::from_seed(&[0x11; 32]);
    let public = key.public();
    let msg = [0x5Au8; 192];
    let sig = key.sign(&msg);
    out.push((
        "crypto.ed25519_sign_us",
        micros_per_call(|| {
            std::hint::black_box(key.sign(std::hint::black_box(&msg)));
        }),
    ));
    out.push((
        "crypto.ed25519_verify_us",
        micros_per_call(|| {
            std::hint::black_box(public.verify(std::hint::black_box(&msg), &sig)).ok();
        }),
    ));
    let scalar = [0x42u8; 32];
    out.push((
        "crypto.x25519_us",
        micros_per_call(|| {
            std::hint::black_box(x25519::x25519(
                std::hint::black_box(&scalar),
                &x25519::BASEPOINT,
            ));
        }),
    ));
    let block = vec![0xA5u8; BLOCK as usize];
    out.push((
        "crypto.sha256_mb_per_s",
        megabytes_per_second(
            block.len(),
            micros_per_call(|| {
                std::hint::black_box(Sha256::digest(std::hint::black_box(&block)));
            }),
        ),
    ));
    let aead = ChaCha20Poly1305::new(&[7; 32]);
    out.push((
        "crypto.chacha20poly1305_mb_per_s",
        megabytes_per_second(
            block.len(),
            micros_per_call(|| {
                std::hint::black_box(aead.seal(&[1; 12], b"hdr", std::hint::black_box(&block)));
            }),
        ),
    ));
}

fn keynote_and_policy(shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    let Some(sample) = shape.credentials.last() else {
        return;
    };
    out.push((
        "keynote.parse_verify_us",
        micros_per_call(|| {
            let parsed = Assertion::parse(std::hint::black_box(sample));
            std::hint::black_box(parsed.map(|a| a.verify().is_ok())).ok();
        }),
    ));

    // A KeyNote session as the server keeps one per client key.
    let policy = discfs::root_policy(&[shape.admin.public(), shape.server_key.public()]);
    let mut session = Session::new(&Perm::VALUE_SET);
    if session.add_policy(&policy).is_err() {
        return;
    }
    for credential in &shape.credentials {
        if session.add_credential(credential).is_err() {
            return;
        }
    }
    let handle = shape.handles.last().map(FHandle::credential_string);
    session.set_attribute("app_domain", "DisCFS");
    session.set_attribute("HANDLE", handle.as_deref().unwrap_or("1.1"));
    session.set_attribute("hour", "12");
    session.set_attribute("time", "0");
    session.add_requester_key(&shape.holder.public());
    out.push((
        "keynote.query_us",
        micros_per_call(|| {
            std::hint::black_box(session.query()).ok();
        }),
    ));

    // The decision path around it: a service holding the same session,
    // asked about one handle (always cached) and about more handles
    // than the policy cache holds (never cached).
    let fs = Arc::new(Ffs::format_in_memory(FsConfig::small()));
    let config = DiscfsConfig::standard(shape.admin.public(), shape.server_key.clone());
    let service = DiscfsService::new(fs, config);
    let ctx = RequestCtx {
        peer: Some(shape.holder.public()),
        uid: u32::MAX,
        gid: u32::MAX,
    };
    for credential in &shape.credentials {
        let mut e = Encoder::new();
        e.put_string(credential);
        service.extension(
            &ctx,
            discfs::rpc::DISCFS_PROGRAM,
            discfs::rpc::proc_discfs::SUBMIT_CRED,
            &e.finish(),
        );
    }
    let peer = shape.holder.public();
    let hot = shape
        .handles
        .last()
        .copied()
        .unwrap_or_else(|| FHandle::pack(1, 1, 1));
    out.push((
        "discfs.policy.decide_hit_us",
        micros_per_call(|| {
            std::hint::black_box(service.permissions_for(&peer, &hot));
        }),
    ));
    // Real handles first, then handles no credential names: either way
    // the decision is a full compliance check.
    let many: Vec<FHandle> = shape
        .handles
        .iter()
        .copied()
        .chain((0..).map(|i| FHandle::pack(1, 100_000 + i, 1)))
        .take(4 * crate::world::POLICY_CACHE)
        .collect();
    let mut next = 0;
    out.push((
        "discfs.policy.decide_miss_us",
        micros_per_call(|| {
            std::hint::black_box(service.permissions_for(&peer, &many[next % many.len()]));
            next += 1;
        }),
    ));
}

fn wire(shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    let request = vec![0x33u8; shape.request_len.max(1)];
    let reply = vec![0x44u8; shape.reply_len.max(1)];

    // IKE: both ends of a handshake over a free link; the responder
    // needs a thread of its own.
    let client_key = SigningKey::from_seed(&[0x21; 32]);
    let server_key = SigningKey::from_seed(&[0x22; 32]);
    let clock = SimClock::new();
    let mut n = 0u64;
    let handshake_us = micros_per_call(|| {
        n += 1;
        let (client_end, server_end) = Link::pair(&clock, LinkConfig::instant());
        let key = server_key.clone();
        let responder =
            std::thread::spawn(move || ike::respond(server_end, &key, &mut DetRng::new(n)).is_ok());
        let done = ike::initiate(client_end, &client_key, None, &mut DetRng::new(n + 1000));
        std::hint::black_box(done.is_ok() && responder.join().unwrap_or(false));
    });
    out.push(("ipsec.ike_handshake_ms", handshake_us / 1e3));

    // ESP: one seal and one open per message; an operation is a request
    // and a reply, so report the mean of the two sizes.
    let sa = Sa::new(7, &[9; 32], [3; 12]);
    let mut seq = 0u64;
    let mut seal = |payload: &[u8]| {
        micros_per_call(|| {
            seq += 1;
            std::hint::black_box(sa.seal(seq, std::hint::black_box(payload)));
        })
    };
    let seal_us = (seal(&request) + seal(&reply)) / 2.0;
    let open = |payload: &[u8]| {
        let record = sa.seal(1, payload);
        micros_per_call(|| {
            std::hint::black_box(sa.open(std::hint::black_box(&record))).ok();
        })
    };
    out.push(("ipsec.esp_seal_us_per_msg", seal_us));
    out.push((
        "ipsec.esp_open_us_per_msg",
        (open(&request) + open(&reply)) / 2.0,
    ));

    // ONC-RPC: what one operation costs in XDR (call and reply, each
    // encoded once and decoded once) and in framing.
    out.push((
        "onc-rpc.xdr_us_per_op",
        micros_per_call(|| {
            let call = RpcCall::new(1, 100_003, 2, 6, request.clone()).encode();
            std::hint::black_box(RpcCallView::decode(&call)).ok();
            let answer = RpcReply::success(1, reply.clone()).encode();
            std::hint::black_box(RpcReply::decode(&answer)).ok();
        }),
    ));
    out.push((
        "onc-rpc.frame_us_per_op",
        micros_per_call(|| {
            for payload in [&request, &reply] {
                let framed = frame::encode_frame(payload);
                let mut decoder = FrameDecoder::new();
                decoder.feed(Bytes::from(framed)).ok();
                std::hint::black_box(decoder.pop_frame());
            }
        }),
    ));

    let (a, b) = Link::pair(&clock, LinkConfig::instant());
    out.push((
        "netsim.send_recv_us",
        micros_per_call(|| {
            a.send(request.clone()).ok();
            std::hint::black_box(b.recv()).ok();
        }),
    ));
}

fn encrypted_store(out: &mut Vec<(&'static str, f64)>) {
    let clock = SimClock::new();
    let block = vec![0x6Bu8; BLOCK as usize];
    let encrypted = EncryptedStore::new(SimStore::new(&clock, DiskModel::instant(), 64), &[1; 32]);
    let mut idx = 0u64;
    out.push((
        "store.encrypted.us_per_block",
        micros_per_call(|| {
            idx = (idx + 1) % 64;
            encrypted.write_block(idx, &block);
            std::hint::black_box(encrypted.read_block(idx));
        }) / 2.0,
    ));
}

fn remote_store(out: &mut Vec<(&'static str, f64)>) {
    let clock = SimClock::new();
    let block = vec![0x6Bu8; BLOCK as usize];
    let remote = RemoteStore::serve_local(
        SimStore::new(&clock, DiskModel::instant(), 64),
        &clock,
        LinkConfig::instant(),
        RemoteOptions::default(),
    );
    remote.write_block(1, &block);
    out.push((
        "store.remote.rtt_us",
        micros_per_call(|| {
            std::hint::black_box(remote.read_block(1));
        }),
    ));
}

/// The fixed integer loop behind `env.spin_ms`.
fn spin() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ std::hint::black_box(i)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    x
}

fn machine(out: &mut Vec<(&'static str, f64)>) {
    let start = Instant::now();
    std::hint::black_box(spin());
    out.push(("env.spin_ms", start.elapsed().as_secs_f64() * 1e3));

    // A token bounced between two threads: what one hand-off costs.
    const ROUNDS: u32 = 2000;
    let (to_peer, from_main) = std::sync::mpsc::channel::<u32>();
    let (to_main, from_peer) = std::sync::mpsc::channel::<u32>();
    let peer = std::thread::spawn(move || {
        while let Ok(v) = from_main.recv() {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    let start = Instant::now();
    for i in 0..ROUNDS {
        if to_peer.send(i).is_err() || from_peer.recv().is_err() {
            break;
        }
    }
    let hop_us = start.elapsed().as_secs_f64() * 1e6 / (2 * ROUNDS) as f64;
    drop(to_peer);
    peer.join().ok();
    out.push(("env.thread_hop_us", hop_us));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::root_grant;

    #[test]
    fn every_probe_reports_a_positive_number() {
        let admin = SigningKey::from_seed(&[0xAD; 32]);
        let holder = SigningKey::from_seed(&[2; 32]);
        let shape = Shape {
            request_len: 120,
            reply_len: 2100,
            credentials: vec![root_grant(&admin, &holder.public())],
            holder,
            admin,
            server_key: SigningKey::from_seed(&[0x5E; 32]),
            handles: vec![FHandle::pack(1, 1, 1)],
        };
        for (kind, expected) in [
            (WorkloadKind::SeqRead, 17),
            (WorkloadKind::StackMixed, 18),
            (WorkloadKind::ReplMixed, 18),
        ] {
            let results = run_all(kind, &shape);
            assert_eq!(results.len(), expected, "{}", kind.name());
            for (name, value) in results {
                assert!(value.is_finite() && value > 0.0, "{name} = {value}");
            }
        }
    }
}
