//! CFS cipher suite: seekable content encryption and deterministic
//! name encryption.

use discfs_crypto::chacha20::ChaCha20;
use discfs_crypto::hex;
use discfs_crypto::hmac::Hmac;
use discfs_crypto::sha256::Sha256;

/// Per-attach cipher state.
///
/// * **Content**: a ChaCha20 stream per inode (nonce derived from the
///   inode number), XORed at the exact byte offset so random-access NFS
///   reads and writes commute with encryption.
/// * **Names**: SIV-style deterministic encryption — the nonce is an
///   HMAC of the plaintext name, prepended to the ciphertext and hex
///   encoded. Deterministic so LOOKUP works; invertible so READDIR can
///   show plaintext to the key holder.
#[derive(Clone)]
pub struct CfsCipher {
    content_key: [u8; 32],
    name_key: [u8; 32],
}

impl CfsCipher {
    /// Derives sub-keys from an attach key.
    pub fn new(attach_key: &[u8; 32]) -> CfsCipher {
        let derive = |label: &[u8]| -> [u8; 32] {
            Hmac::<Sha256>::mac(attach_key, label)
                .try_into()
                .expect("HMAC-SHA256 is 32 bytes")
        };
        CfsCipher {
            content_key: derive(b"cfs-content"),
            name_key: derive(b"cfs-names"),
        }
    }

    fn content_nonce(&self, ino: u32) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&ino.to_be_bytes());
        nonce[4..8].copy_from_slice(b"file");
        nonce
    }

    /// En/decrypts `data` as the bytes at `offset` of file `ino`
    /// (XOR stream: the same operation both ways).
    pub fn apply_content(&self, ino: u32, offset: u64, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let cipher = ChaCha20::new(&self.content_key, &self.content_nonce(ino));
        // ChaCha20 counts 64-byte blocks and counter 0 is reserved; the
        // bytes up to the next block boundary take the tail of one
        // keystream block, everything after is whole blocks in place.
        let mut counter = ((offset / 64) as u32).wrapping_add(1);
        let skip = (offset % 64) as usize;
        let mut rest = data;
        if skip > 0 {
            let (head, tail) = rest.split_at_mut((64 - skip).min(rest.len()));
            for (b, k) in head.iter_mut().zip(&cipher.block(counter)[skip..]) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
            rest = tail;
        }
        cipher.apply_keystream(counter, rest);
    }

    /// Encrypts a file name deterministically.
    pub fn encrypt_name(&self, name: &str) -> String {
        if name == "." || name == ".." {
            return name.to_string();
        }
        let tag = Hmac::<Sha256>::mac(&self.name_key, name.as_bytes());
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&tag[..12]);
        let mut out = Vec::with_capacity(12 + name.len());
        out.extend_from_slice(&nonce);
        out.extend_from_slice(name.as_bytes());
        ChaCha20::new(&self.name_key, &nonce).apply_keystream(1, &mut out[12..]);
        hex::encode(&out)
    }

    /// Decrypts a name produced by [`CfsCipher::encrypt_name`].
    ///
    /// Returns `None` for names that are not valid ciphertexts (e.g.
    /// files written outside CFS).
    pub fn decrypt_name(&self, stored: &str) -> Option<String> {
        if stored == "." || stored == ".." {
            return Some(stored.to_string());
        }
        let mut bytes = hex::decode(stored).ok()?;
        if bytes.len() <= 12 {
            return None;
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&bytes[..12]);
        let mut pt = bytes.split_off(12);
        ChaCha20::new(&self.name_key, &nonce).apply_keystream(1, &mut pt);
        let name = String::from_utf8(pt).ok()?;
        // Verify the SIV relation so corrupted names are rejected.
        let tag = Hmac::<Sha256>::mac(&self.name_key, name.as_bytes());
        if tag[..12] != nonce {
            return None;
        }
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_round_trip_arbitrary_offsets() {
        let cipher = CfsCipher::new(&[1; 32]);
        let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut whole = original.clone();
        cipher.apply_content(42, 0, &mut whole);
        assert_ne!(whole, original);

        // Decrypting a sub-range in place matches the original slice.
        let mut tail = whole[300..800].to_vec();
        cipher.apply_content(42, 300, &mut tail);
        assert_eq!(tail, &original[300..800]);
    }

    #[test]
    fn chunked_encryption_equals_whole() {
        let cipher = CfsCipher::new(&[2; 32]);
        let data: Vec<u8> = (0..500u16).map(|i| (i % 256) as u8).collect();
        let mut whole = data.clone();
        cipher.apply_content(7, 0, &mut whole);

        let mut chunked = data.clone();
        let (a, rest) = chunked.split_at_mut(123);
        let (b, c) = rest.split_at_mut(200);
        cipher.apply_content(7, 0, a);
        cipher.apply_content(7, 123, b);
        cipher.apply_content(7, 323, c);
        assert_eq!(chunked, whole);
    }

    #[test]
    fn different_files_different_streams() {
        let cipher = CfsCipher::new(&[3; 32]);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        cipher.apply_content(1, 0, &mut a);
        cipher.apply_content(2, 0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn name_round_trip() {
        let cipher = CfsCipher::new(&[4; 32]);
        for name in ["paper.tex", "a", "file with spaces", "ümlaut.txt"] {
            let enc = cipher.encrypt_name(name);
            assert_ne!(enc, name);
            assert!(enc.chars().all(|c| c.is_ascii_hexdigit()));
            assert_eq!(cipher.decrypt_name(&enc).unwrap(), name);
        }
    }

    #[test]
    fn name_encryption_deterministic() {
        let cipher = CfsCipher::new(&[5; 32]);
        assert_eq!(cipher.encrypt_name("x.txt"), cipher.encrypt_name("x.txt"));
        assert_ne!(cipher.encrypt_name("x.txt"), cipher.encrypt_name("y.txt"));
    }

    #[test]
    fn dot_entries_pass_through() {
        let cipher = CfsCipher::new(&[6; 32]);
        assert_eq!(cipher.encrypt_name("."), ".");
        assert_eq!(cipher.encrypt_name(".."), "..");
        assert_eq!(cipher.decrypt_name(".").unwrap(), ".");
    }

    #[test]
    fn corrupted_name_rejected() {
        let cipher = CfsCipher::new(&[7; 32]);
        let mut enc = cipher.encrypt_name("real.txt");
        enc.replace_range(0..2, "00");
        // Either decodes to a mismatching SIV or fails UTF-8: both None
        // unless the flip is a no-op (it is not, first byte differs).
        assert!(cipher.decrypt_name(&enc).is_none() || enc == cipher.encrypt_name("real.txt"));
        assert!(cipher.decrypt_name("not-hex!").is_none());
        assert!(cipher.decrypt_name("abcd").is_none());
    }

    #[test]
    fn wrong_key_cannot_decrypt_names() {
        let c1 = CfsCipher::new(&[8; 32]);
        let c2 = CfsCipher::new(&[9; 32]);
        let enc = c1.encrypt_name("secret.doc");
        assert!(c2.decrypt_name(&enc).is_none());
    }
}
