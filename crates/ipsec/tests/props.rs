//! Property tests for the ESP layer and the IKE responder: the replay
//! window matches a reference model, records survive arbitrary payloads
//! while any corruption is detected, and a handshake or record a hostile
//! peer has mutated ends in an error, never in a panic. The same holds
//! for an AUTH that carries the initiator's first record.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::check::{check, Source};
use discfs_crypto::rng::DetRng;
use ipsec::esp::{ReplayWindow, Sa};
use ipsec::ike::{initiate, initiate_deferred, respond_init, PendingResponder, SecureChannel};
use ipsec::{IpsecError, SecureTransport};
use netsim::{Endpoint, Link, NetError, SimClock, Transport};

/// The sliding window agrees with an exact reference model: accept
/// iff (never seen) && (not older than 63 below the highest seen).
#[test]
fn replay_window_matches_model() {
    check("replay_window_matches_model", 128, |src| {
        let window = ReplayWindow::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut highest = 0u64;
        for seq in src.vec(1..100, |src| src.range(1u64..200)) {
            let expect_ok = !seen.contains(&seq) && (seq + 63 >= highest);
            let got = window.accept(seq);
            assert_eq!(
                got.is_ok(),
                expect_ok,
                "seq {} highest {} seen {:?} -> {:?}",
                seq,
                highest,
                seen.contains(&seq),
                got
            );
            if expect_ok {
                seen.insert(seq);
                highest = highest.max(seq);
            }
        }
    });
}

/// Arbitrary payloads round-trip through seal/open.
#[test]
fn esp_round_trip() {
    check("esp_round_trip", 128, |src| {
        let sa = Sa::new(src.any(), &src.bytes(), src.bytes());
        let seq = src.any::<u64>();
        let payload = src.vec(0..1000, |src| src.any::<u8>());
        let record = sa.seal(seq, &payload);
        let (got_seq, got_payload) = sa.open(&record).unwrap();
        assert_eq!(got_seq, seq);
        assert_eq!(got_payload, payload);
    });
}

/// Any single-byte corruption of a record is rejected.
#[test]
fn esp_corruption_detected() {
    check("esp_corruption_detected", 128, |src| {
        let sa = Sa::new(7, &[9; 32], [3; 12]);
        let mut record = sa.seal(42, &src.vec(1..200, |src| src.any::<u8>()));
        let idx = src.range(0..record.len());
        record[idx] = record[idx].wrapping_add(src.range(1u8..255));
        let result = sa.open(&record);
        assert!(
            matches!(
                result,
                Err(IpsecError::Crypto(_))
                    | Err(IpsecError::UnknownSpi)
                    | Err(IpsecError::BadHandshake)
            ),
            "corruption at byte {idx} slipped through: {result:?}"
        );
    });
}

/// Truncated records never panic and never succeed.
#[test]
fn esp_truncation_rejected() {
    check("esp_truncation_rejected", 128, |src| {
        let sa = Sa::new(7, &[9; 32], [3; 12]);
        let record = sa.seal(1, &src.vec(0..100, |src| src.any::<u8>()));
        let keep = src.range(0..record.len());
        assert!(sa.open(&record[..keep]).is_err());
    });
}

/// One mutation of `msg` drawn from `src` (`DetRng::mutate`, seeded by
/// a draw), or `None` when it happens to leave `msg` as it was.
fn mutated(src: &mut Source, msg: &[u8], donor: &[u8]) -> Option<Vec<u8>> {
    Some(DetRng::new(src.any()).mutate(msg, donor)).filter(|m| m != msg)
}

/// The responder's end of a fresh link, and an honest initiator running
/// on the other end until its handshake ends either way.
fn handshake_with_honest_initiator(
    seed: u64,
) -> (Endpoint, thread::JoinHandle<Result<(), IpsecError>>) {
    let clock = SimClock::new();
    let (client_end, server_end) = Link::loopback(&clock);
    let initiator = thread::spawn(move || {
        let key = SigningKey::from_seed(&[1; 32]);
        initiate(client_end, &key, None, &mut DetRng::new(seed)).map(drop)
    });
    (server_end, initiator)
}

/// An INIT a hostile peer has mutated is refused, or answered with a
/// RESP the peer's own transcript cannot verify: the handshake never
/// completes.
#[test]
fn mutated_init_never_completes_a_handshake() {
    let server = SigningKey::from_seed(&[2; 32]);
    let donor = [0x5A; 96];
    check("mutated_init_never_completes_a_handshake", 1000, |src| {
        let (end, initiator) = handshake_with_honest_initiator(src.any());
        let init = end.recv().unwrap();
        let Some(hostile) = mutated(src, &init, &donor) else {
            drop(end);
            initiator.join().unwrap().unwrap_err();
            return;
        };
        let mut rng = DetRng::new(src.any());
        let completed = respond_init(&end, &hostile, &server, &mut rng).and_then(|pending| {
            let auth = end.recv()?;
            pending.complete(end, &auth).map(drop)
        });
        assert!(completed.is_err(), "a mutated INIT completed a handshake");
        assert!(initiator.join().unwrap().is_err());
    });
}

/// An AUTH a hostile peer has mutated is refused.
#[test]
fn mutated_auth_is_refused() {
    let server = SigningKey::from_seed(&[2; 32]);
    check("mutated_auth_is_refused", 1000, |src| {
        let (end, initiator) = handshake_with_honest_initiator(src.any());
        let init = end.recv().unwrap();
        let pending = respond_init(&end, &init, &server, &mut DetRng::new(src.any())).unwrap();
        let auth = end.recv().unwrap();
        initiator.join().unwrap().unwrap();
        if let Some(hostile) = mutated(src, &auth, &init) {
            let result = pending.complete(end, &hostile).map(drop);
            assert!(
                matches!(
                    result,
                    Err(IpsecError::BadHandshake | IpsecError::Crypto(_))
                ),
                "mutated AUTH: {result:?}"
            );
        }
    });
}

/// A record a hostile peer has mutated is refused.
#[test]
fn mutated_records_are_refused() {
    let sa = Sa::new(7, &[9; 32], [3; 12]);
    check("mutated_records_are_refused", 1000, |src| {
        let record = sa.seal(src.any(), &src.vec(0..300, |src| src.any::<u8>()));
        let donor = sa.seal(1, b"another record");
        if let Some(hostile) = mutated(src, &record, &donor) {
            let result = sa.open(&hostile).map(drop);
            assert!(
                matches!(
                    result,
                    Err(IpsecError::BadHandshake | IpsecError::UnknownSpi | IpsecError::Crypto(_))
                ),
                "mutated record: {result:?}"
            );
        }
    });
}

/// An endpoint the initiator's channel and the test both send on, so a
/// test can put a raw record on the initiator's side of the link.
#[derive(Clone)]
struct Shared(Arc<Endpoint>);

impl Transport for Shared {
    fn send(&self, msg: Vec<u8>) -> Result<(), NetError> {
        self.0.send(msg)
    }
    fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.0.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.0.recv_timeout(timeout)
    }
}

/// A handshake whose AUTH rode with the initiator's first record: the
/// responder has answered INIT and holds the combined message.
struct Combined {
    pending: PendingResponder,
    end: Endpoint,
    /// `AUTH ‖ record`, as the initiator sent it.
    msg: Vec<u8>,
    /// The initiator's side of the link, raw.
    raw: Shared,
    /// The initiator's channel, kept so its end stays open.
    _client: SecureChannel<Shared>,
}

/// Runs a deferred initiator whose first send is `payload` against
/// `respond_init`, up to the combined message.
fn combined(seed: u64, payload: &[u8]) -> Combined {
    let clock = SimClock::new();
    let (client_end, end) = Link::loopback(&clock);
    let raw = Shared(Arc::new(client_end));
    let transport = raw.clone();
    let payload = payload.to_vec();
    let initiator = thread::spawn(move || {
        let key = SigningKey::from_seed(&[1; 32]);
        let chan = initiate_deferred(transport, &key, None, &mut DetRng::new(seed)).unwrap();
        chan.send(payload).unwrap();
        chan
    });
    let server = SigningKey::from_seed(&[2; 32]);
    let init = end.recv().unwrap();
    let pending = respond_init(&end, &init, &server, &mut DetRng::new(seed ^ 0xA5)).unwrap();
    let msg = end.recv().unwrap();
    Combined {
        pending,
        end,
        msg,
        raw,
        _client: initiator.join().unwrap(),
    }
}

/// A mutated `AUTH ‖ record` never panics the responder and never gives
/// a channel unless the signature is untouched and the record is either
/// untouched or gone (an AUTH alone is a valid third message). An
/// untouched message gives exactly the payload that was sealed.
#[test]
fn mutated_auth_with_record_is_refused() {
    check("mutated_auth_with_record_is_refused", 1000, |src| {
        let payload = src.vec(0..300, |src| src.any::<u8>());
        let Combined {
            pending, end, msg, ..
        } = combined(src.any(), &payload);
        let hostile = mutated(src, &msg, &payload);
        let sent = hostile.as_deref().unwrap_or(&msg);
        match pending.complete(end, sent) {
            Ok((_, first)) => {
                assert_eq!(sent[..64], msg[..64], "a changed signature completed");
                match first {
                    Some(got) => {
                        assert_eq!(sent, &msg[..], "a changed record opened");
                        assert_eq!(got, payload);
                    }
                    None => assert_eq!(sent.len(), 64, "a tail went unopened"),
                }
            }
            Err(e) => {
                assert!(
                    hostile.is_some(),
                    "the untouched message was refused: {e:?}"
                );
                assert!(
                    matches!(e, IpsecError::BadHandshake | IpsecError::Crypto(_)),
                    "unexpected error {e:?}"
                );
            }
        }
    });
}

#[test]
fn a_bad_signature_with_a_good_record_is_refused() {
    let Combined {
        pending,
        end,
        mut msg,
        ..
    } = combined(11, b"first call");
    msg[0] ^= 1;
    assert!(matches!(
        pending.complete(end, &msg).map(drop),
        Err(IpsecError::Crypto(_))
    ));
}

#[test]
fn a_good_signature_with_a_flipped_record_byte_is_refused() {
    let Combined {
        pending,
        end,
        mut msg,
        ..
    } = combined(12, b"first call");
    let last = msg.len() - 1;
    msg[last] ^= 1;
    assert_eq!(
        pending.complete(end, &msg).map(drop),
        Err(IpsecError::BadHandshake)
    );
}

#[test]
fn the_riding_record_replayed_alone_is_refused() {
    let Combined {
        pending,
        end,
        msg,
        raw,
        ..
    } = combined(13, b"first call");
    let (chan, first) = pending.complete(end, &msg).unwrap();
    assert_eq!(first.as_deref(), Some(&b"first call"[..]));
    raw.send(msg[64..].to_vec()).unwrap();
    assert_eq!(chan.recv(), Err(IpsecError::Replay));
}

#[test]
fn an_auth_alone_still_completes() {
    let (end, initiator) = handshake_with_honest_initiator(14);
    let server = SigningKey::from_seed(&[2; 32]);
    let init = end.recv().unwrap();
    let pending = respond_init(&end, &init, &server, &mut DetRng::new(15)).unwrap();
    let auth = end.recv().unwrap();
    initiator.join().unwrap().unwrap();
    assert_eq!(auth.len(), 64);
    let (chan, first) = pending.complete(end, &auth).unwrap();
    assert!(first.is_none());
    assert_eq!(
        chan.peer_identity(),
        Some(SigningKey::from_seed(&[1; 32]).public())
    );
}
