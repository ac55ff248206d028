//! Property tests for the crypto substrate: algebraic laws that must
//! hold for *all* inputs, not just the RFC vectors.

use discfs_crypto::chacha20::ChaCha20;
use discfs_crypto::chacha20poly1305::ChaCha20Poly1305;
use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::field25519::Fe;
use discfs_crypto::rng::check::check;
use discfs_crypto::scalar25519::Scalar;
use discfs_crypto::x25519;
use discfs_crypto::{hex, Digest};

/// The two widths KeyNote decodes: keys and signatures.
#[test]
fn hex_round_trip() {
    check("hex_round_trip", 64, |src| {
        let (key, sig) = (src.bytes::<32>(), src.bytes::<64>());
        assert_eq!(hex::decode_array::<32>(&hex::encode(&key)).unwrap(), key);
        assert_eq!(hex::decode_array::<64>(&hex::encode(&sig)).unwrap(), sig);
    });
}

#[test]
fn sha256_incremental_equals_oneshot() {
    check("sha256_incremental_equals_oneshot", 64, |src| {
        use discfs_crypto::sha256::Sha256;
        let data = src.vec(0..2000, |src| src.any::<u8>());
        let split = src.range(0..data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    });
}

#[test]
fn field_ring_laws() {
    check("field_ring_laws", 64, |src| {
        let fa = Fe::from_bytes(&src.bytes());
        let fb = Fe::from_bytes(&src.bytes());
        let fc = Fe::from_bytes(&src.bytes());
        // Commutativity.
        assert!(fa.add(fb).ct_eq(fb.add(fa)));
        assert!(fa.mul(fb).ct_eq(fb.mul(fa)));
        // Associativity.
        assert!(fa.add(fb).add(fc).ct_eq(fa.add(fb.add(fc))));
        assert!(fa.mul(fb).mul(fc).ct_eq(fa.mul(fb.mul(fc))));
        // Distributivity.
        assert!(fa.mul(fb.add(fc)).ct_eq(fa.mul(fb).add(fa.mul(fc))));
        // Additive inverse.
        assert!(fa.sub(fa).is_zero());
        // Multiplicative inverse (for nonzero).
        if !fa.is_zero() {
            assert!(fa.mul(fa.invert()).ct_eq(Fe::ONE));
        }
        // Serialization round trip is canonical.
        let canon = fa.to_bytes();
        assert_eq!(Fe::from_bytes(&canon).to_bytes(), canon);
    });
}

#[test]
fn scalar_ring_laws() {
    check("scalar_ring_laws", 64, |src| {
        let sa = Scalar::from_bytes_wide(&src.bytes::<32>());
        let sb = Scalar::from_bytes_wide(&src.bytes::<32>());
        assert_eq!(sa.add(sb), sb.add(sa));
        assert_eq!(sa.mul(sb), sb.mul(sa));
        assert_eq!(sa.mul(Scalar::ONE), sa);
        assert_eq!(sa.add(Scalar::ZERO), sa);
        // Canonical round trip.
        let back = Scalar::from_canonical_bytes(&sa.to_bytes()).unwrap();
        assert_eq!(back, sa);
    });
}

#[test]
fn ed25519_sign_verify_all_messages() {
    check("ed25519_sign_verify_all_messages", 64, |src| {
        let key = SigningKey::from_seed(&src.bytes());
        let msg = src.vec(0..300, |src| src.any::<u8>());
        let sig = key.sign(&msg);
        assert!(key.public().verify(&msg, &sig).is_ok());
        // A different message fails.
        let mut other = msg.clone();
        other.push(0x55);
        assert!(key.public().verify(&other, &sig).is_err());
    });
}

#[test]
fn ed25519_signature_tamper_detected() {
    check("ed25519_signature_tamper_detected", 64, |src| {
        let key = SigningKey::from_seed(&src.bytes());
        let msg = src.vec(1..100, |src| src.any::<u8>());
        let bit = src.range(0usize..512);
        let mut sig = key.sign(&msg);
        sig.0[bit / 8] ^= 1 << (bit % 8);
        assert!(key.public().verify(&msg, &sig).is_err());
    });
}

#[test]
fn x25519_dh_commutes() {
    check("x25519_dh_commutes", 64, |src| {
        let (a, b) = (src.bytes(), src.bytes());
        let pa = x25519::public_key(&a);
        let pb = x25519::public_key(&b);
        assert_eq!(x25519::x25519(&a, &pb), x25519::x25519(&b, &pa));
    });
}

#[test]
fn chacha20_involution() {
    check("chacha20_involution", 64, |src| {
        let cipher = ChaCha20::new(&src.bytes(), &src.bytes());
        let counter = src.any::<u32>();
        let data = src.vec(0..500, |src| src.any::<u8>());
        let mut buf = data.clone();
        cipher.apply_keystream(counter, &mut buf);
        cipher.apply_keystream(counter, &mut buf);
        assert_eq!(buf, data);
    });
}

#[test]
fn aead_round_trip_and_tamper() {
    check("aead_round_trip_and_tamper", 64, |src| {
        let aead = ChaCha20Poly1305::new(&src.bytes());
        let nonce = src.bytes();
        let aad = src.vec(0..50, |src| src.any::<u8>());
        let plaintext = src.vec(0..300, |src| src.any::<u8>());
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), plaintext);
        // Any single-byte flip breaks authentication.
        let mut corrupt = sealed.clone();
        let idx = src.range(0..corrupt.len());
        corrupt[idx] ^= 0x01;
        assert!(aead.open(&nonce, &aad, &corrupt).is_err());
    });
}

/// Deterministic RNG streams are seed-stable and chunk-invariant.
#[test]
fn det_rng_chunk_invariant() {
    check("det_rng_chunk_invariant", 64, |src| {
        use discfs_crypto::rng::{DetRng, RngCore};
        let seed = src.any::<u64>();
        let chunks = src.vec(1..10, |src| src.range(1usize..64));
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
        assert_eq!(whole, pieces);
    });
}
