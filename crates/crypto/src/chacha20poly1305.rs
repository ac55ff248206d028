//! The ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! This is the record-protection algorithm for the simulated IPsec ESP
//! channel: each NFS RPC travels inside one sealed record.
//!
//! Every form touches the payload in one buffer:
//! [`ChaCha20Poly1305::seal_append`] copies it once into the buffer it
//! will leave in (behind a record header, say) and encrypts it there,
//! [`ChaCha20Poly1305::open_in_place`] decrypts where the sealed bytes
//! already lie, and [`ChaCha20Poly1305::seal`] /
//! [`ChaCha20Poly1305::open`] do the same into a buffer of their own.

use crate::chacha20::ChaCha20;
use crate::poly1305::Poly1305;
use crate::{ct, CryptoError};

/// Length of the authentication tag that ends every sealed message.
pub const TAG_LEN: usize = 16;

/// An AEAD key.
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; 32],
}

impl ChaCha20Poly1305 {
    /// Creates an AEAD instance for a 256-bit key.
    pub fn new(key: &[u8; 32]) -> ChaCha20Poly1305 {
        ChaCha20Poly1305 { key: *key }
    }

    /// The Poly1305 tag over `aad` and `ciphertext` under the one-time
    /// key of `cipher`'s nonce.
    fn tag(cipher: &ChaCha20, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        // One-time Poly1305 key = first 32 bytes of ChaCha20 block 0.
        let block0 = cipher.block(0);
        let otk: [u8; 32] = block0[..32].try_into().expect("32-byte half");

        let mut mac = Poly1305::new(&otk);
        mac.update(aad);
        mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
        mac.update(ciphertext);
        mac.update(&[0u8; 16][..(16 - ciphertext.len() % 16) % 16]);
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finalize()
    }

    /// Seals `plaintext` and appends `ciphertext ‖ tag` to `out`, after
    /// whatever `out` already holds (a record header, say). The
    /// plaintext is copied once, into its final place, and encrypted
    /// there.
    pub fn seal_append(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        let cipher = ChaCha20::new(&self.key, nonce);
        out.reserve(plaintext.len() + TAG_LEN);
        let start = out.len();
        out.extend_from_slice(plaintext);
        cipher.apply_keystream(1, &mut out[start..]);
        let tag = Self::tag(&cipher, aad, &out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Seals `plaintext`, returning `ciphertext ‖ tag`.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_append(nonce, aad, plaintext, &mut out);
        out
    }

    /// Checks the tag that ends `sealed` and returns the ciphertext
    /// length in front of it.
    fn authenticate(cipher: &ChaCha20, aad: &[u8], sealed: &[u8]) -> Result<usize, CryptoError> {
        let Some(len) = sealed.len().checked_sub(TAG_LEN) else {
            return Err(CryptoError::BadLength);
        };
        let (ciphertext, tag) = sealed.split_at(len);
        if !ct::eq(&Self::tag(cipher, aad, ciphertext), tag) {
            return Err(CryptoError::BadTag);
        }
        Ok(len)
    }

    /// Opens `sealed` (`ciphertext ‖ tag`) where it lies, inside a
    /// record the caller owns, say: on success the plaintext stands in
    /// `sealed[..len]` and `len` is returned. On failure the buffer is
    /// left exactly as it was; nothing is decrypted before the tag has
    /// been checked.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadTag`] when authentication fails;
    /// [`CryptoError::BadLength`] when `sealed` is shorter than a tag.
    pub fn open_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &mut [u8],
    ) -> Result<usize, CryptoError> {
        let cipher = ChaCha20::new(&self.key, nonce);
        let len = Self::authenticate(&cipher, aad, sealed)?;
        cipher.apply_keystream(1, &mut sealed[..len]);
        Ok(len)
    }

    /// Opens `sealed` (`ciphertext ‖ tag`), returning the plaintext in a
    /// buffer of its own, allocated only once the tag has been checked.
    ///
    /// # Errors
    ///
    /// As [`ChaCha20Poly1305::open_in_place`].
    pub fn open(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let cipher = ChaCha20::new(&self.key, nonce);
        let len = Self::authenticate(&cipher, aad, sealed)?;
        let mut out = sealed[..len].to_vec();
        cipher.apply_keystream(1, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_seal() {
        let key: Vec<u8> = (0x80u8..0xa0).collect();
        let nonce = hex::decode_array::<12>("070000004041424344454647").unwrap();
        let aad = hex::decode("50515253c0c1c2c3c4c5c6c7").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you o\
nly one tip for the future, sunscreen would be it.";
        let aead = ChaCha20Poly1305::new(&key.try_into().unwrap());
        let sealed = aead.seal(&nonce, &aad, plaintext);
        let (ct_part, tag_part) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex::encode(ct_part),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex::encode(tag_part), "1ae10b594f09e26a7e902ecbd0600691");
    }

    #[test]
    fn round_trip() {
        let aead = ChaCha20Poly1305::new(&[9u8; 32]);
        let nonce = [3u8; 12];
        let sealed = aead.seal(&nonce, b"header", b"secret payload");
        let opened = aead.open(&nonce, b"header", &sealed).unwrap();
        assert_eq!(opened, b"secret payload");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let aead = ChaCha20Poly1305::new(&[9u8; 32]);
        let nonce = [3u8; 12];
        let mut sealed = aead.seal(&nonce, b"", b"data");
        sealed[0] ^= 1;
        assert_eq!(aead.open(&nonce, b"", &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampered_aad_rejected() {
        let aead = ChaCha20Poly1305::new(&[9u8; 32]);
        let nonce = [3u8; 12];
        let sealed = aead.seal(&nonce, b"aad1", b"data");
        assert_eq!(
            aead.open(&nonce, b"aad2", &sealed),
            Err(CryptoError::BadTag)
        );
    }

    #[test]
    fn wrong_nonce_rejected() {
        let aead = ChaCha20Poly1305::new(&[9u8; 32]);
        let sealed = aead.seal(&[1u8; 12], b"", b"data");
        assert!(aead.open(&[2u8; 12], b"", &sealed).is_err());
    }

    #[test]
    fn short_input_rejected() {
        let aead = ChaCha20Poly1305::new(&[9u8; 32]);
        assert_eq!(
            aead.open(&[1u8; 12], b"", &[0u8; 15]),
            Err(CryptoError::BadLength)
        );
    }

    #[test]
    fn empty_plaintext() {
        let aead = ChaCha20Poly1305::new(&[4u8; 32]);
        let nonce = [5u8; 12];
        let sealed = aead.seal(&nonce, b"only aad", b"");
        assert_eq!(sealed.len(), 16);
        assert_eq!(aead.open(&nonce, b"only aad", &sealed).unwrap(), b"");
    }

    /// A message per length class: empty, sub-block, one keystream
    /// step, an 8 KiB block with a ragged end.
    fn sample_messages() -> Vec<Vec<u8>> {
        [
            0usize,
            1,
            15,
            16,
            17,
            63,
            64,
            255,
            256,
            257,
            8192,
            8192 + 137,
        ]
        .iter()
        .map(|&len| (0..len).map(|i| (i * 13 + len) as u8).collect())
        .collect()
    }

    #[test]
    fn seal_append_equals_seal_after_any_prefix() {
        let aead = ChaCha20Poly1305::new(&[0x21; 32]);
        let nonce = [0x42u8; 12];
        for msg in sample_messages() {
            let sealed = aead.seal(&nonce, b"spi+seq header", &msg);
            assert_eq!(sealed.len(), msg.len() + TAG_LEN);
            let mut record = b"spi+seq header".to_vec();
            aead.seal_append(&nonce, b"spi+seq header", &msg, &mut record);
            assert_eq!(&record[..14], b"spi+seq header");
            assert_eq!(&record[14..], &sealed[..], "len {}", msg.len());
        }
    }

    #[test]
    fn open_in_place_equals_open() {
        let aead = ChaCha20Poly1305::new(&[0x21; 32]);
        let nonce = [0x42u8; 12];
        for msg in sample_messages() {
            let mut sealed = aead.seal(&nonce, b"aad", &msg);
            assert_eq!(aead.open(&nonce, b"aad", &sealed).unwrap(), msg);
            let len = aead.open_in_place(&nonce, b"aad", &mut sealed).unwrap();
            assert_eq!(&sealed[..len], &msg[..], "len {}", msg.len());
        }
    }

    /// A rejected buffer is returned byte-for-byte as it came in: no
    /// plaintext is produced before the tag has been checked.
    #[test]
    fn open_in_place_releases_nothing_on_failure() {
        let aead = ChaCha20Poly1305::new(&[0x21; 32]);
        let nonce = [0x42u8; 12];
        for msg in sample_messages() {
            let sealed = aead.seal(&nonce, b"aad", &msg);
            let rejected = |mut buf: Vec<u8>, aad: &[u8], expect: CryptoError| {
                let before = buf.clone();
                assert_eq!(aead.open_in_place(&nonce, aad, &mut buf), Err(expect));
                assert_eq!(buf, before);
                assert_eq!(aead.open(&nonce, aad, &before), Err(expect));
            };
            // Every bit of the tag, and the first and last ciphertext bytes.
            for bit in 0..TAG_LEN * 8 {
                let mut bad = sealed.clone();
                bad[msg.len() + bit / 8] ^= 1 << (bit % 8);
                rejected(bad, b"aad", CryptoError::BadTag);
            }
            if !msg.is_empty() {
                for at in [0, msg.len() - 1] {
                    let mut bad = sealed.clone();
                    bad[at] ^= 0x80;
                    rejected(bad, b"aad", CryptoError::BadTag);
                }
            }
            rejected(sealed.clone(), b"aae", CryptoError::BadTag);
            rejected(sealed.clone(), b"", CryptoError::BadTag);
            // Truncation: anything that still holds a tag's worth of
            // bytes fails the tag, anything shorter fails the length.
            for keep in [sealed.len() - 1, sealed.len() / 2, TAG_LEN, TAG_LEN - 1, 0] {
                if keep >= sealed.len() {
                    continue;
                }
                let expect = if keep >= TAG_LEN {
                    CryptoError::BadTag
                } else {
                    CryptoError::BadLength
                };
                rejected(sealed[..keep].to_vec(), b"aad", expect);
            }
        }
    }
}
