//! X25519 Diffie-Hellman (RFC 7748).
//!
//! The `ipsec` crate's IKE-style handshake uses X25519 for its ephemeral
//! key agreement, mirroring the Diffie-Hellman exchange inside IKE that
//! the paper relies on for client/server channel keying.

use crate::field25519::Fe;

/// The X25519 base point u-coordinate (9).
pub const BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Clamps a 32-byte secret into an X25519 scalar.
fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// Computes the X25519 function: scalar multiplication on the
/// Montgomery u-line. `k` is the (unclamped) private scalar and `u` the
/// peer's public value.
pub fn x25519(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(*k);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);

    x2.mul(z2.invert()).to_bytes()
}

/// Derives the public key for a private scalar: `X25519(k, 9)`.
pub fn public_key(k: &[u8; 32]) -> [u8; 32] {
    x25519(k, &BASEPOINT)
}

/// An ephemeral X25519 keypair.
#[derive(Clone)]
pub struct EphemeralKeypair {
    /// The private scalar (kept for the duration of one handshake).
    pub(crate) private: [u8; 32],
    /// The corresponding public value.
    pub public: [u8; 32],
}

impl EphemeralKeypair {
    /// Generates a keypair from an RNG.
    pub fn generate<R: crate::rng::RngCore>(rng: &mut R) -> EphemeralKeypair {
        let mut private = [0u8; 32];
        rng.fill_bytes(&mut private);
        let public = public_key(&private);
        EphemeralKeypair { private, public }
    }

    /// Computes the shared secret with a peer's public value.
    pub fn agree(&self, peer_public: &[u8; 32]) -> [u8; 32] {
        x25519(&self.private, peer_public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let k = hex::decode_array::<32>(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman test.
    #[test]
    fn rfc7748_dh() {
        let alice_priv = hex::decode_array::<32>(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        )
        .unwrap();
        let bob_priv = hex::decode_array::<32>(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        )
        .unwrap();
        let alice_pub = public_key(&alice_priv);
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            hex::encode(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = x25519(&alice_priv, &bob_pub);
        let shared_b = x25519(&bob_priv, &alice_pub);
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex::encode(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn keypair_agreement() {
        let mut rng = crate::rng::DetRng::new(0x25519);
        let a = EphemeralKeypair::generate(&mut rng);
        let b = EphemeralKeypair::generate(&mut rng);
        assert_eq!(a.agree(&b.public), b.agree(&a.public));
        // Self-agreement differs from cross-agreement.
        assert_ne!(a.agree(&a.public), a.agree(&b.public));
    }

    #[test]
    fn iterated_x25519_one_round() {
        // RFC 7748 §5.2: after 1 iteration of k = X25519(k, u), u = old k.
        let mut k = BASEPOINT;
        let mut u = BASEPOINT;
        let res = x25519(&k, &u);
        let tmp = k;
        k = res;
        u = tmp;
        let _ = (k, u);
        assert_eq!(
            hex::encode(&res),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }
}
