//! ESP-style record protection: sealed datagrams with SPI, sequence
//! numbers and an anti-replay window.
//!
//! Record layout (all integers big-endian):
//!
//! ```text
//! +--------+------------+----------------------------------+
//! | SPI: 4 | seq: 8     | ChaCha20-Poly1305(payload) ‖ tag |
//! +--------+------------+----------------------------------+
//! ```
//!
//! The per-record nonce is `base_nonce XOR seq` (RFC 8439-style); the
//! SPI and sequence number are authenticated as associated data. Replay
//! defense is the classic 64-entry sliding window from RFC 4303.

use discfs_crypto::chacha20poly1305::{ChaCha20Poly1305, TAG_LEN};
use parking_lot::Mutex;

use crate::IpsecError;

/// Header length: SPI (4) + sequence (8).
pub(crate) const HEADER_LEN: usize = 12;

/// Keys and state for one direction of traffic.
pub struct Sa {
    spi: u32,
    aead: ChaCha20Poly1305,
    base_nonce: [u8; 12],
}

impl Sa {
    /// Creates an SA from negotiated key material.
    pub fn new(spi: u32, key: &[u8; 32], base_nonce: [u8; 12]) -> Sa {
        Sa {
            spi,
            aead: ChaCha20Poly1305::new(key),
            base_nonce,
        }
    }

    fn nonce_for(&self, seq: u64) -> [u8; 12] {
        let mut nonce = self.base_nonce;
        for (i, b) in seq.to_be_bytes().iter().enumerate() {
            nonce[4 + i] ^= b;
        }
        nonce
    }

    /// Seals a payload into a record with the given sequence number.
    /// Header, ciphertext and tag are written into the one record
    /// buffer; the payload is copied once and encrypted where it lands.
    pub fn seal(&self, seq: u64, payload: &[u8]) -> Vec<u8> {
        self.seal_after(&[], seq, payload)
    }

    /// [`Sa::seal`] into a buffer that starts with `prefix` (the IKE
    /// AUTH a first record rides with).
    pub(crate) fn seal_after(&self, prefix: &[u8], seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&self.spi.to_be_bytes());
        header[4..].copy_from_slice(&seq.to_be_bytes());
        let mut record = Vec::with_capacity(prefix.len() + HEADER_LEN + payload.len() + TAG_LEN);
        record.extend_from_slice(prefix);
        record.extend_from_slice(&header);
        self.aead
            .seal_append(&self.nonce_for(seq), &header, payload, &mut record);
        record
    }

    /// Checks a record's length and SPI and returns its sequence number.
    fn parse_header(&self, record: &[u8]) -> Result<u64, IpsecError> {
        if record.len() < HEADER_LEN + TAG_LEN {
            return Err(IpsecError::BadHandshake);
        }
        let spi = u32::from_be_bytes(record[0..4].try_into().expect("4 bytes"));
        if spi != self.spi {
            return Err(IpsecError::UnknownSpi);
        }
        Ok(u64::from_be_bytes(
            record[4..12].try_into().expect("8 bytes"),
        ))
    }

    /// Opens a record, returning `(seq, payload)`. Replay checking is
    /// the receiver window's job ([`ReplayWindow::accept`]).
    ///
    /// # Errors
    ///
    /// [`IpsecError::UnknownSpi`] on SPI mismatch,
    /// [`IpsecError::BadHandshake`] on truncation,
    /// [`IpsecError::Crypto`] on authentication failure.
    pub fn open(&self, record: &[u8]) -> Result<(u64, Vec<u8>), IpsecError> {
        let seq = self.parse_header(record)?;
        let (header, sealed) = record.split_at(HEADER_LEN);
        let payload = self.aead.open(&self.nonce_for(seq), header, sealed)?;
        Ok((seq, payload))
    }

    /// [`Sa::open`] for a receiver that owns the record, which is every
    /// receiver on the data path: the payload is decrypted where it
    /// arrived and the record's buffer, cut down to it, is what comes
    /// back. Nothing is allocated.
    ///
    /// # Errors
    ///
    /// As [`Sa::open`].
    pub(crate) fn open_in_place(&self, mut record: Vec<u8>) -> Result<(u64, Vec<u8>), IpsecError> {
        let seq = self.parse_header(&record)?;
        let (header, sealed) = record.split_at_mut(HEADER_LEN);
        let len = self
            .aead
            .open_in_place(&self.nonce_for(seq), header, sealed)?;
        record.truncate(HEADER_LEN + len);
        record.drain(..HEADER_LEN);
        Ok((seq, record))
    }
}

/// RFC 4303 sliding anti-replay window (64 entries).
#[derive(Debug, Default)]
pub struct ReplayWindow {
    state: Mutex<WindowState>,
}

#[derive(Debug, Default)]
struct WindowState {
    highest: u64,
    /// Bit i set ⇒ (highest − i) already seen.
    mask: u64,
}

impl ReplayWindow {
    /// Creates an empty window.
    pub fn new() -> ReplayWindow {
        ReplayWindow::default()
    }

    /// Accepts or rejects sequence number `seq`, updating the window.
    ///
    /// # Errors
    ///
    /// [`IpsecError::Replay`] for duplicates and for records older than
    /// the 64-entry window.
    pub fn accept(&self, seq: u64) -> Result<(), IpsecError> {
        let mut w = self.state.lock();
        if seq > w.highest {
            let shift = seq - w.highest;
            w.mask = if shift >= 64 { 0 } else { w.mask << shift };
            w.mask |= 1; // bit 0 = seq itself
            w.highest = seq;
            return Ok(());
        }
        let offset = w.highest - seq;
        if offset >= 64 {
            return Err(IpsecError::Replay);
        }
        let bit = 1u64 << offset;
        if w.mask & bit != 0 {
            return Err(IpsecError::Replay);
        }
        w.mask |= bit;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(spi: u32) -> Sa {
        Sa::new(spi, &[7u8; 32], [9u8; 12])
    }

    #[test]
    fn seal_open_round_trip() {
        let s = sa(0x1234);
        let record = s.seal(1, b"nfs call bytes");
        let (seq, payload) = s.open(&record).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(payload, b"nfs call bytes");
    }

    /// Opening the owned record gives what opening the borrowed one
    /// gives, payload or error, for every way the tests below damage a
    /// record.
    #[test]
    fn open_in_place_equals_open() {
        let s = sa(7);
        let payload: Vec<u8> = (0..8192 + 5).map(|i| (i * 31) as u8).collect();
        for len in [0, 1, 63, 64, 65, 8192, payload.len()] {
            let good = s.seal(9, &payload[..len]);
            let mut records = vec![good.clone(), good[..10].to_vec(), good[..27].to_vec()];
            for at in [0, 11, HEADER_LEN, good.len() - 1] {
                let mut bad = good.clone();
                bad[at] ^= 1;
                records.push(bad);
            }
            for record in records {
                assert_eq!(s.open_in_place(record.clone()), s.open(&record));
            }
            assert_eq!(s.open_in_place(good), Ok((9, payload[..len].to_vec())));
        }
    }

    #[test]
    fn different_seq_different_ciphertext() {
        let s = sa(1);
        assert_ne!(s.seal(1, b"x"), s.seal(2, b"x"));
    }

    #[test]
    fn wrong_spi_rejected() {
        let a = sa(1);
        let b = sa(2);
        let record = a.seal(1, b"x");
        assert_eq!(b.open(&record), Err(IpsecError::UnknownSpi));
    }

    #[test]
    fn tampered_record_rejected() {
        let s = sa(1);
        let mut record = s.seal(1, b"payload");
        let last = record.len() - 1;
        record[last] ^= 1;
        assert!(matches!(s.open(&record), Err(IpsecError::Crypto(_))));
    }

    #[test]
    fn tampered_header_rejected() {
        let s1 = sa(1);
        // Flip a seq byte: AAD covers the header, so the tag fails.
        let mut record = s1.seal(5, b"payload");
        record[11] ^= 0xff;
        assert!(matches!(s1.open(&record), Err(IpsecError::Crypto(_))));
    }

    #[test]
    fn truncated_record_rejected() {
        let s = sa(1);
        let record = s.seal(1, b"payload");
        assert_eq!(s.open(&record[..10]), Err(IpsecError::BadHandshake));
    }

    #[test]
    fn replay_window_duplicates() {
        let w = ReplayWindow::new();
        w.accept(1).unwrap();
        w.accept(2).unwrap();
        assert_eq!(w.accept(1), Err(IpsecError::Replay));
        assert_eq!(w.accept(2), Err(IpsecError::Replay));
        w.accept(3).unwrap();
    }

    #[test]
    fn replay_window_out_of_order_ok() {
        let w = ReplayWindow::new();
        w.accept(5).unwrap();
        w.accept(3).unwrap();
        w.accept(4).unwrap();
        assert_eq!(w.accept(3), Err(IpsecError::Replay));
    }

    #[test]
    fn replay_window_too_old() {
        let w = ReplayWindow::new();
        w.accept(100).unwrap();
        assert_eq!(w.accept(36), Err(IpsecError::Replay));
        w.accept(37).unwrap(); // exactly within the 64-entry window
    }

    #[test]
    fn replay_window_large_jump() {
        let w = ReplayWindow::new();
        w.accept(1).unwrap();
        w.accept(1000).unwrap();
        assert_eq!(w.accept(1), Err(IpsecError::Replay));
        w.accept(999).unwrap();
    }
}
