//! HKDF (RFC 5869) over HMAC-SHA256.
//!
//! The IKE-style handshake in the `ipsec` crate derives its per-SA keys
//! and nonces from the Diffie-Hellman shared secret with this KDF.

use crate::{hmac::Hmac, sha256::Sha256};

/// HKDF-Extract: derives a pseudorandom key from input keying material.
pub fn extract(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    Hmac::<Sha256>::mac(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `len` bytes bound to `info`.
///
/// # Panics
///
/// Panics if `len > 255 * 32` (an RFC 5869 limit; callers in this
/// workspace derive at most a few hundred bytes).
pub fn expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * 32, "HKDF-Expand length limit exceeded");
    let mut okm = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut h = Hmac::<Sha256>::new(prk);
        h.update(&t);
        h.update(info);
        h.update(&[counter]);
        t = h.finalize();
        let take = (len - okm.len()).min(t.len());
        okm.extend_from_slice(&t[..take]);
        counter = counter
            .checked_add(1)
            .expect("len limit enforces counter bound");
    }
    okm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex::encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand(&prk, &info, 42);
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        );
    }

    // RFC 5869 test case 3 (empty salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0b; 22];
        let okm = expand(&extract(&[], &ikm), &[], 42);
        assert_eq!(
            hex::encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_lengths() {
        let prk = extract(b"salt", b"ikm");
        for len in [0, 1, 31, 32, 33, 64, 100] {
            assert_eq!(expand(&prk, b"info", len).len(), len);
        }
    }

    #[test]
    fn different_info_different_keys() {
        let prk = extract(b"salt", b"ikm");
        assert_ne!(expand(&prk, b"a", 32), expand(&prk, b"b", 32));
    }
}
