//! Encryption-at-rest wrapper over any [`BlockStore`].
//!
//! OmniShare (arXiv:1511.02119) motivates client-independent encrypted
//! storage backends. Subkeys are derived from a master key with
//! HMAC-SHA256 labels, and each block is XORed with a ChaCha20
//! keystream whose nonce encodes the block number, so any block can be
//! read or written alone: random block access commutes with
//! encryption.
//!
//! Composes with any inner backend; the one preset is
//! [`StoreBackend::EncryptedJournal`](crate::StoreBackend), over a
//! journaled [`FileStore`](crate::FileStore). Because the keystream is
//! per-block, equal plaintexts at different block numbers produce
//! distinct ciphertexts.

use bytes::{Bytes, BytesMut};
use discfs_crypto::chacha20::ChaCha20;
use discfs_crypto::hmac::Hmac;
use discfs_crypto::sha256::Sha256;

use crate::{BlockStore, IoClass, StoreStats, BLOCK_SIZE};

/// An encrypted-at-rest view of an inner block store.
pub struct EncryptedStore<S> {
    inner: S,
    block_key: [u8; 32],
}

impl<S: BlockStore> EncryptedStore<S> {
    /// Wraps `inner`, deriving the block cipher key from `master_key`.
    pub fn new(inner: S, master_key: &[u8; 32]) -> EncryptedStore<S> {
        let block_key: [u8; 32] = Hmac::<Sha256>::mac(master_key, b"store-blocks")
            .try_into()
            .expect("HMAC-SHA256 is 32 bytes");
        EncryptedStore { inner, block_key }
    }

    fn nonce(idx: u64) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&idx.to_be_bytes());
        nonce[8..].copy_from_slice(b"blk\0");
        nonce
    }

    fn transform(&self, idx: u64, data: &mut [u8]) {
        let cipher = ChaCha20::new(&self.block_key, &Self::nonce(idx));
        // Counter 0 is left unused, as in ChaCha20-Poly1305 (RFC 8439),
        // where that block makes the MAC key.
        cipher.apply_keystream(1, data);
    }

    /// Decrypts a block read from the inner store. A block the inner
    /// store never wrote is all zeros; decrypting it would return
    /// keystream noise, so the zero block passes through unchanged —
    /// preserving the "fresh store reads as zeros" contract. (A real
    /// ciphertext of all zeros would require the plaintext to equal
    /// the keystream: probability 2^-65536, ignored.)
    fn unseal(&self, idx: u64, data: Bytes) -> Bytes {
        if data.iter().all(|&b| b == 0) {
            return data;
        }
        // A handle nothing else shares (a fresh file-store read) is
        // decrypted in its own buffer.
        let mut plain = data
            .try_into_mut()
            .unwrap_or_else(|shared| BytesMut::from(shared.as_slice()));
        self.transform(idx, &mut plain);
        plain.freeze()
    }
}

impl<S: BlockStore> BlockStore for EncryptedStore<S> {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    /// One inner call, each block unsealed on the way out.
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        self.inner
            .read(class, idxs)
            .into_iter()
            .zip(idxs)
            .map(|(data, &idx)| self.unseal(idx, data))
            .collect()
    }

    /// Every block is sealed with its per-block keystream, then the
    /// ciphertext extent goes to the inner store as one call (one
    /// journal append).
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        let sealed: Vec<(u64, Vec<u8>)> = writes
            .iter()
            .map(|&(idx, data)| {
                assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
                let mut buf = data.to_vec();
                self.transform(idx, &mut buf);
                (idx, buf)
            })
            .collect();
        let refs: Vec<(u64, &[u8])> = sealed.iter().map(|(idx, buf)| (*idx, &buf[..])).collect();
        self.inner.write(class, &refs);
    }

    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn label(&self) -> &'static str {
        "encrypted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimStore;

    #[test]
    fn round_trips_through_encryption() {
        let store = EncryptedStore::new(SimStore::untimed(8), &[9; 32]);
        let block: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        store.write_block(4, &block);
        assert_eq!(store.read_block(4), block);
        // The sim store shares its block with the read: decrypting it
        // in place would leave plaintext at rest for the next read.
        assert_eq!(store.read_block(4), block);
    }

    #[test]
    fn ciphertext_at_rest_differs_from_plaintext() {
        let inner = SimStore::untimed(8);
        let block = vec![0x5Au8; BLOCK_SIZE];
        {
            let store = EncryptedStore::new(inner, &[1; 32]);
            store.write_block(0, &block);
            // What the inner store holds is not the plaintext.
            let raw = store.inner.read_block(0);
            assert_ne!(raw, block);
            assert_eq!(store.read_block(0), block);
        }
    }

    #[test]
    fn same_plaintext_different_blocks_differ_at_rest() {
        let store = EncryptedStore::new(SimStore::untimed(8), &[2; 32]);
        let block = vec![0x77u8; BLOCK_SIZE];
        store.write_block(0, &block);
        store.write_block(1, &block);
        assert_ne!(
            store.inner.read_block(0),
            store.inner.read_block(1),
            "per-block nonces must separate the keystreams"
        );
    }

    #[test]
    fn wrong_key_reads_garbage() {
        let inner = SimStore::untimed(4);
        let block = vec![0x33u8; BLOCK_SIZE];
        EncryptedStore::new(&inner, &[3; 32]).write_block(2, &block);
        let wrong = EncryptedStore::new(&inner, &[4; 32]);
        assert_ne!(wrong.read_block(2), block);
    }
}
