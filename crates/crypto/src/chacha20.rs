//! The ChaCha20 stream cipher (RFC 8439).
//!
//! Used (with Poly1305) to protect ESP-style records on the simulated
//! IPsec channel, by the CFS layer for file content encryption and by
//! `EncryptedStore` for blocks at rest.
//!
//! # The keystream kernel
//!
//! There is one keystream path, [`ChaCha20::apply_keystream`]. It
//! computes `LANES` = 4 consecutive blocks per step with the state held
//! word-sliced: sixteen rows of `LANES` words, row *i* holding word *i*
//! of every block, so each quarter-round operation is the same
//! operation on `LANES` independent values. The rounds are written as
//! a loop over the lanes around one scalar double round; that is the
//! shape the compiler's loop vectoriser turns into 128-bit operations
//! on every target that has them (the code itself is plain portable
//! safe Rust and is correct wherever it is not vectorised). The
//! keystream is then XORed into the data a 32-bit word at a time. On
//! 8 KiB this runs at about twice the speed of calling
//! [`ChaCha20::block`] per 64 bytes, which is what it replaced.
//!
//! [`ChaCha20::block`], the one-block function, stays for what is not
//! bulk data: the Poly1305 one-time key, the tail of a message that
//! does not fill a whole step, the deterministic RNG — and as the
//! reference the kernel's tests compare against.

/// Blocks computed per step of [`ChaCha20::apply_keystream`].
const LANES: usize = 4;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// A ChaCha20 cipher instance: 256-bit key + 96-bit nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One column round followed by one diagonal round.
#[inline(always)]
fn double_round(x: &mut [u32; 16]) {
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
}

impl ChaCha20 {
    /// Creates a cipher for the given key and nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> ChaCha20 {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut n = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            n[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha20 { key: k, nonce: n }
    }

    /// The initial state for block `counter`.
    fn state(&self, counter: u32) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..].copy_from_slice(&self.nonce);
        state
    }

    /// Produces the 64-byte keystream block for the given counter.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let state = self.state(counter);
        let mut working = state;
        for _ in 0..10 {
            double_round(&mut working);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// The keystream words of blocks `counter .. counter + LANES`
    /// (wrapping), word-sliced: `[i][lane]` is word `i` of block
    /// `counter + lane`.
    fn blocks(&self, counter: u32) -> [[u32; LANES]; 16] {
        let mut initial = self.state(counter).map(|word| [word; LANES]);
        for (lane, ctr) in initial[12].iter_mut().enumerate() {
            *ctr = counter.wrapping_add(lane as u32);
        }
        let mut rows = initial;
        for _ in 0..10 {
            // Every lane runs the same double round on its own column of
            // `rows`; this loop is the one the vectoriser widens.
            for lane in 0..LANES {
                let mut x = [0u32; 16];
                for (word, row) in x.iter_mut().zip(&rows) {
                    *word = row[lane];
                }
                double_round(&mut x);
                for (row, word) in rows.iter_mut().zip(x) {
                    row[lane] = word;
                }
            }
        }
        for (row, init) in rows.iter_mut().zip(&initial) {
            for (word, init) in row.iter_mut().zip(init) {
                *word = word.wrapping_add(*init);
            }
        }
        rows
    }

    /// XORs the keystream (starting at block `counter`) into `data` in
    /// place. Encryption and decryption are the same operation.
    pub fn apply_keystream(&self, mut counter: u32, data: &mut [u8]) {
        let mut steps = data.chunks_exact_mut(64 * LANES);
        for step in &mut steps {
            let rows = self.blocks(counter);
            for (lane, block) in step.chunks_exact_mut(64).enumerate() {
                for (word, row) in block.chunks_exact_mut(4).zip(&rows) {
                    let bytes: &mut [u8; 4] = word.try_into().expect("4-byte chunk");
                    *bytes = (u32::from_le_bytes(*bytes) ^ row[lane]).to_le_bytes();
                }
            }
            counter = counter.wrapping_add(LANES as u32);
        }
        for chunk in steps.into_remainder().chunks_mut(64) {
            let ks = self.block(counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn encrypt(cipher: &ChaCha20, counter: u32, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        cipher.apply_keystream(counter, &mut out);
        out
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block() {
        let key: Vec<u8> = (0u8..32).collect();
        let nonce = hex::decode_array::<12>("000000090000004a00000000").unwrap();
        let cipher = ChaCha20::new(&key.try_into().unwrap(), &nonce);
        let block = cipher.block(1);
        assert_eq!(
            hex::encode(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key: Vec<u8> = (0u8..32).collect();
        let nonce = hex::decode_array::<12>("000000000000004a00000000").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you o\
nly one tip for the future, sunscreen would be it.";
        let cipher = ChaCha20::new(&key.try_into().unwrap(), &nonce);
        let ct = encrypt(&cipher, 1, plaintext);
        assert_eq!(
            hex::encode(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn round_trip() {
        let cipher = ChaCha20::new(&[7u8; 32], &[9u8; 12]);
        let msg = b"the quick brown fox jumps over the lazy dog".to_vec();
        let ct = encrypt(&cipher, 1, &msg);
        assert_ne!(ct, msg);
        assert_eq!(encrypt(&cipher, 1, &ct), msg);
    }

    #[test]
    fn different_counters_differ() {
        let cipher = ChaCha20::new(&[7u8; 32], &[9u8; 12]);
        assert_ne!(cipher.block(0), cipher.block(1));
    }

    #[test]
    fn keystream_crosses_block_boundary() {
        let cipher = ChaCha20::new(&[1u8; 32], &[2u8; 12]);
        let msg = vec![0u8; 150];
        let ct = encrypt(&cipher, 5, &msg);
        // First 64 bytes must equal block 5, next 64 block 6.
        assert_eq!(&ct[..64], &cipher.block(5)[..]);
        assert_eq!(&ct[64..128], &cipher.block(6)[..]);
        assert_eq!(&ct[128..], &cipher.block(7)[..22]);
    }

    /// The pre-kernel `apply_keystream`: one [`ChaCha20::block`] per 64
    /// bytes, XORed bytewise.
    fn apply_per_block(cipher: &ChaCha20, mut counter: u32, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let ks = cipher.block(counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// Every length 0..=600 (0 to 9 blocks and a ragged end: whole
    /// steps, the per-block tail, and both together), from counters on
    /// either side of the 32-bit wrap, where lanes of one step hold
    /// counters 0xffff_fffe, 0xffff_ffff, 0, 1.
    #[test]
    fn multi_block_keystream_equals_per_block_reference() {
        let cipher = ChaCha20::new(&[0x5c; 32], &[0xa7; 12]);
        let pattern: Vec<u8> = (0..600u32).map(|i| (i * 31 + 7) as u8).collect();
        for counter in [0, 1, 7, u32::MAX - 5, u32::MAX - 2, u32::MAX - 1, u32::MAX] {
            for len in 0..=pattern.len() {
                let mut fast = pattern[..len].to_vec();
                let mut slow = fast.clone();
                cipher.apply_keystream(counter, &mut fast);
                apply_per_block(&cipher, counter, &mut slow);
                assert_eq!(fast, slow, "counter {counter:#x} len {len}");
            }
        }
    }

    /// An unaligned sub-slice of a larger buffer gets the same
    /// keystream: the kernel must not depend on the data's alignment.
    #[test]
    fn keystream_ignores_alignment() {
        let cipher = ChaCha20::new(&[3; 32], &[4; 12]);
        let mut aligned = vec![0u8; 1024];
        cipher.apply_keystream(9, &mut aligned);
        for shift in 1..8 {
            let mut buf = vec![0u8; 1024 + shift];
            cipher.apply_keystream(9, &mut buf[shift..]);
            assert_eq!(&buf[shift..], &aligned[..], "shift {shift}");
            assert!(buf[..shift].iter().all(|&b| b == 0));
        }
    }
}
