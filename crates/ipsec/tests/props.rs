//! Property tests for the ESP layer and the IKE responder: the replay
//! window matches a reference model, records survive arbitrary payloads
//! while any corruption is detected, and a handshake or record a hostile
//! peer has mutated ends in an error, never in a panic.

use std::collections::HashSet;
use std::thread;

use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::check::{check, Source};
use discfs_crypto::rng::DetRng;
use ipsec::esp::{ReplayWindow, Sa};
use ipsec::ike::{initiate, respond_init};
use ipsec::IpsecError;
use netsim::{Endpoint, Link, SimClock, Transport};

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
