//! HMAC (RFC 2104), generic over any [`Digest`].

use crate::Digest;

/// Streaming HMAC state over digest `D`.
///
/// # Examples
///
/// ```
/// use discfs_crypto::{hmac::Hmac, sha256::Sha256};
///
/// let tag = Hmac::<Sha256>::mac(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC state keyed with `key` (any length).
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut block_key = vec![0u8; D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let hashed = D::digest(key);
            block_key[..hashed.len()].copy_from_slice(&hashed);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let ipad: Vec<u8> = block_key.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = block_key.iter().map(|b| b ^ 0x5c).collect();
        let mut inner = D::new();
        inner.update(&ipad);
        let mut outer = D::new();
        outer.update(&opad);
        Hmac { inner, outer }
    }

    /// Absorbs message data.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the tag (`D::OUTPUT_LEN` bytes).
    pub(crate) fn finalize(mut self) -> Vec<u8> {
        let inner_hash = self.inner.finalize();
        self.outer.update(&inner_hash);
        self.outer.finalize()
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, sha256::Sha256, sha512::Sha512};

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let data = b"Hi There";
        assert_eq!(
            hex::encode(&Hmac::<Sha256>::mac(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex::encode(&Hmac::<Sha512>::mac(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex::encode(&Hmac::<Sha256>::mac(
                b"Jefe",
                b"what do ya want for nothing?"
            )),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex::encode(&Hmac::<Sha256>::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // Long key must be hashed down to the block size first.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex::encode(&Hmac::<Sha256>::mac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = Hmac::<Sha256>::new(b"key");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), Hmac::<Sha256>::mac(b"key", b"hello world"));
    }
}
