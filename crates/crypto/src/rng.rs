//! Randomness: the [`RngCore`] trait key generation and the IKE
//! handshake draw from, and [`DetRng`], the workspace's one generator —
//! a *deterministic* stream for reproducible simulations and
//! benchmarks, built on our own ChaCha20.

use crate::chacha20::ChaCha20;

/// A source of random bits.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A deterministic ChaCha20-based RNG seeded with 32 bytes.
///
/// Identical seeds yield identical streams on every platform, which the
/// benchmark harness relies on to regenerate the paper's workloads
/// bit-for-bit.
///
/// # Examples
///
/// ```
/// use discfs_crypto::rng::{DetRng, RngCore};
///
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub struct DetRng {
    cipher: ChaCha20,
    counter: u32,
    buf: [u8; 64],
    pos: usize,
}

impl DetRng {
    /// Creates a deterministic RNG from a 64-bit convenience seed.
    pub fn new(seed: u64) -> DetRng {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        DetRng::from_key(&key)
    }

    /// Creates a deterministic RNG from a full 256-bit key.
    pub(crate) fn from_key(key: &[u8; 32]) -> DetRng {
        DetRng {
            cipher: ChaCha20::new(key, &[0u8; 12]),
            counter: 0,
            buf: [0u8; 64],
            pos: 64,
        }
    }

    fn refill(&mut self) {
        self.buf = self.cipher.block(self.counter);
        self.counter = self.counter.wrapping_add(1);
        self.pos = 0;
    }

    /// A draw in `0..n` (0 when `n` is 0).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// One seeded, structure-aware mutation of `msg`, for driving a
    /// decoder with hostile input. It truncates, extends with random
    /// bytes, flips one to four bits, rewrites a four-byte-aligned word
    /// (where XDR keeps its counts and lengths) with an edge value, or
    /// splices the head of `msg` onto the tail of `donor`.
    pub fn mutate(&mut self, msg: &[u8], donor: &[u8]) -> Vec<u8> {
        let mut out = msg.to_vec();
        match self.below(5) {
            0 => out.truncate(self.below(msg.len())),
            1 => {
                let mut tail = [0; 16];
                self.fill_bytes(&mut tail);
                out.extend_from_slice(&tail[self.below(16)..]);
            }
            2 if !out.is_empty() => {
                for _ in 0..1 + self.below(4) {
                    let bit = self.below(out.len() * 8);
                    out[bit / 8] ^= 1 << (bit % 8);
                }
            }
            3 if out.len() >= 4 => {
                let at = 4 * self.below(out.len() / 4);
                let word = u32::from_be_bytes(out[at..at + 4].try_into().expect("4 bytes"));
                let (up, down) = (word.wrapping_add(1), word.wrapping_sub(1));
                let edges = [0, 1, up, down, 1 << 31, u32::MAX];
                out[at..at + 4].copy_from_slice(&edges[self.below(6)].to_be_bytes());
            }
            _ => {
                out.truncate(self.below(msg.len() + 1));
                out.extend_from_slice(&donor[self.below(donor.len() + 1)..]);
            }
        }
        out
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.pos == 64 {
                self.refill();
            }
            let take = (64 - self.pos).min(dest.len() - filled);
            dest[filled..filled + take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            filled += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_crosses_block_boundary() {
        let mut r = DetRng::new(9);
        let mut big = [0u8; 200];
        r.fill_bytes(&mut big);
        // Same stream read in pieces must match.
        let mut r2 = DetRng::new(9);
        let mut parts = [0u8; 200];
        for chunk in parts.chunks_mut(37) {
            r2.fill_bytes(chunk);
        }
        assert_eq!(big, parts);
    }

    #[test]
    fn mutations_replay_per_seed_and_change_the_message() {
        let msg: Vec<u8> = (0..64).collect();
        let donor = [0xEE; 40];
        let run = |seed| {
            let mut r = DetRng::new(seed);
            (0..200).map(|_| r.mutate(&msg, &donor)).collect::<Vec<_>>()
        };
        let cases = run(5);
        assert_eq!(cases, run(5));
        let changed = cases.iter().filter(|m| **m != msg).count();
        assert!(
            changed > 180,
            "{changed} of 200 mutations changed the message"
        );
        assert!(cases.iter().any(|m| m.len() < msg.len()));
        assert!(cases.iter().any(|m| m.len() > msg.len()));
        assert!(cases.iter().any(|m| m.windows(4).any(|w| w == [0xFF; 4])));
    }

    #[test]
    fn not_all_zero() {
        let mut r = DetRng::new(0);
        let mut buf = [0u8; 32];
        r.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 32]);
    }
}
