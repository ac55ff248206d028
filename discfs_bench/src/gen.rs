//! Seeded input generation: the random stream every workload draws
//! from, and the pattern-tagged file blocks whose content names the
//! file, block and version it belongs to, so a reply can be checked
//! without keeping a copy of the data.

/// SplitMix64: small, fast and reproducible across platforms. Every
/// generated input — offsets, orders, names, key seeds — comes from one
/// of these seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `lane` separates independent uses of one
    /// seed (one per connection, one for keys, ...).
    pub fn new(seed: u64, lane: u64) -> Rng {
        Rng(mix(seed ^ mix(lane.wrapping_add(0x6A09_E667_F3BC_C909))))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A uniform draw in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        // The bias of a plain modulo is below 2^-40 for the sizes used
        // here (at most a few thousand).
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// 32 bytes for an Ed25519 key seed.
    pub fn key_seed(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a block's content is derived from. Two tags that differ in any
/// field give different content in every 8-byte word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTag {
    /// The run's seed.
    pub seed: u64,
    /// Index of the file in the workload's layout.
    pub file: u32,
    /// Block index inside the file.
    pub block: u32,
    /// How many times the generator has rewritten this block.
    pub version: u32,
}

impl BlockTag {
    fn key(&self) -> u64 {
        mix(self.seed
            ^ mix(((self.file as u64) << 32 | self.block as u64) ^ mix(self.version as u64 + 1)))
    }
}

/// Fills `buf` with the pattern for `tag`. Word `i` of the block
/// depends only on the tag and `i`, so a buffer of any length is a
/// prefix of the full block (a short file, a partial READ).
pub fn fill_block(buf: &mut [u8], tag: BlockTag) {
    let key = tag.key();
    for (i, word) in buf.chunks_mut(8).enumerate() {
        let bytes = mix(key.wrapping_add(i as u64)).to_le_bytes();
        word.copy_from_slice(&bytes[..word.len()]);
    }
}

/// Whether `data` is exactly the pattern for `tag`.
pub fn check_block(data: &[u8], tag: BlockTag) -> bool {
    let key = tag.key();
    data.chunks(8).enumerate().all(|(i, word)| {
        let bytes = mix(key.wrapping_add(i as u64)).to_le_bytes();
        word == &bytes[..word.len()]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let mut a = Rng::new(42, 0);
        let mut b = Rng::new(42, 0);
        let mut c = Rng::new(42, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!((0..1000).all(|_| a.below(7) < 7));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..100).collect();
        Rng::new(1, 0).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<u32>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn blocks_verify_only_against_their_own_tag() {
        let tag = BlockTag {
            seed: 9,
            file: 1,
            block: 17,
            version: 3,
        };
        for len in [8192, 2048, 13] {
            let mut buf = vec![0u8; len];
            fill_block(&mut buf, tag);
            assert!(check_block(&buf, tag));
            for other in [
                BlockTag { seed: 10, ..tag },
                BlockTag { file: 2, ..tag },
                BlockTag { block: 18, ..tag },
                BlockTag { version: 4, ..tag },
            ] {
                assert!(!check_block(&buf, other), "len {len} {other:?}");
            }
            buf[len / 2] ^= 1;
            assert!(!check_block(&buf, tag));
        }
        // A short read of a block is a prefix of the full block.
        let mut full = vec![0u8; 8192];
        fill_block(&mut full, tag);
        assert!(check_block(&full[..2048], tag));
        assert!(check_block(&full[..13], tag));
    }
}
