//! Property tests for the crypto substrate: algebraic laws that must
//! hold for *all* inputs, not just the RFC vectors.

use discfs_crypto::chacha20::ChaCha20;
use discfs_crypto::chacha20poly1305::ChaCha20Poly1305;
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::field25519::Fe;
use discfs_crypto::scalar25519::Scalar;
use discfs_crypto::x25519;
use discfs_crypto::{hex, Digest};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(hex::decode(&encoded).unwrap(), data);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        split in any::<prop::sample::Index>(),
    ) {
        use discfs_crypto::sha256::Sha256;
        let split = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn field_ring_laws(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()) {
        let fa = Fe::from_bytes(&a);
        let fb = Fe::from_bytes(&b);
        let fc = Fe::from_bytes(&c);
        // Commutativity.
        prop_assert!(fa.add(fb).ct_eq(fb.add(fa)));
        prop_assert!(fa.mul(fb).ct_eq(fb.mul(fa)));
        // Associativity.
        prop_assert!(fa.add(fb).add(fc).ct_eq(fa.add(fb.add(fc))));
        prop_assert!(fa.mul(fb).mul(fc).ct_eq(fa.mul(fb.mul(fc))));
        // Distributivity.
        prop_assert!(fa.mul(fb.add(fc)).ct_eq(fa.mul(fb).add(fa.mul(fc))));
        // Additive inverse.
        prop_assert!(fa.sub(fa).is_zero());
        // Multiplicative inverse (for nonzero).
        if !fa.is_zero() {
            prop_assert!(fa.mul(fa.invert()).ct_eq(Fe::ONE));
        }
        // Serialization round trip is canonical.
        let canon = fa.to_bytes();
        prop_assert_eq!(Fe::from_bytes(&canon).to_bytes(), canon);
    }

    #[test]
    fn scalar_ring_laws(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let sa = Scalar::from_bytes_wide(&a);
        let sb = Scalar::from_bytes_wide(&b);
        prop_assert_eq!(sa.add(sb), sb.add(sa));
        prop_assert_eq!(sa.mul(sb), sb.mul(sa));
        prop_assert_eq!(sa.mul(Scalar::ONE), sa);
        prop_assert_eq!(sa.add(Scalar::ZERO), sa);
        // Canonical round trip.
        let back = Scalar::from_canonical_bytes(&sa.to_bytes()).unwrap();
        prop_assert_eq!(back, sa);
    }

    #[test]
    fn ed25519_sign_verify_all_messages(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        prop_assert!(key.public().verify(&msg, &sig).is_ok());
        // A different message fails.
        let mut other = msg.clone();
        other.push(0x55);
        prop_assert!(key.public().verify(&other, &sig).is_err());
    }

    #[test]
    fn ed25519_signature_tamper_detected(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..100),
        bit in 0usize..512,
    ) {
        let key = SigningKey::from_seed(&seed);
        let mut sig = key.sign(&msg);
        sig.0[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(key.public().verify(&msg, &sig).is_err());
    }

    #[test]
    fn x25519_dh_commutes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let pa = x25519::public_key(&a);
        let pb = x25519::public_key(&b);
        prop_assert_eq!(x25519::x25519(&a, &pb), x25519::x25519(&b, &pa));
    }

    #[test]
    fn chacha20_involution(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let cipher = ChaCha20::new(&key, &nonce);
        let mut buf = data.clone();
        cipher.apply_keystream(counter, &mut buf);
        cipher.apply_keystream(counter, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn aead_round_trip_and_tamper(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..50),
        plaintext in proptest::collection::vec(any::<u8>(), 0..300),
        flip in any::<prop::sample::Index>(),
    ) {
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), plaintext.clone());
        // Any single-byte flip breaks authentication.
        let mut corrupt = sealed.clone();
        let idx = flip.index(corrupt.len());
        corrupt[idx] ^= 0x01;
        prop_assert!(aead.open(&nonce, &aad, &corrupt).is_err());
    }

    /// Deterministic RNG streams are seed-stable and chunk-invariant.
    #[test]
    fn det_rng_chunk_invariant(
        seed in any::<u64>(),
        chunks in proptest::collection::vec(1usize..64, 1..10),
    ) {
        use discfs_crypto::rng::{DetRng, RngCore};
        let total: usize = chunks.iter().sum();
        let mut whole = vec![0u8; total];
        DetRng::new(seed).fill_bytes(&mut whole);
        let mut pieces = vec![0u8; total];
        let mut rng = DetRng::new(seed);
        let mut off = 0;
        for len in &chunks {
            rng.fill_bytes(&mut pieces[off..off + len]);
            off += len;
        }
        prop_assert_eq!(whole, pieces);
    }
}
