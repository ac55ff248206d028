//! The Poly1305 one-time authenticator (RFC 8439).
//!
//! Radix 2^44: the 130-bit accumulator `h` and the clamped key `r` live
//! in three limbs of 44, 44 and 42 bits, and one block costs nine
//! 64×64→128-bit products (the radix-2^26 form this replaced needs
//! twenty-five 64-bit ones). [`Poly1305::update`] hands every whole
//! run of 16-byte blocks to one call that keeps `h` and `r` in
//! registers across the run; only a message's ragged head and tail go
//! through the 16-byte buffer.
//!
//! The radix-2^26 implementation is kept in the test module as the
//! reference the differential tests compare against.

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Streaming Poly1305 state.
#[derive(Clone)]
pub(crate) struct Poly1305 {
    r: [u64; 3],
    /// The second key half, added to the accumulator mod 2^128 at the end.
    pad: [u64; 2],
    h: [u64; 3],
    buf: [u8; 16],
    buf_len: usize,
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// The limb products of `a · b`, folded mod 2^130 − 5 but not yet
/// carried: a product landing at 2^132 or 2^176 comes back as 20× the
/// limb (2^130 ≡ 5, and the limb boundary sits two bits above). Limbs
/// of `a` may be as large as 2^46 (a partly carried `h` plus a block).
#[inline(always)]
fn mul(a: [u64; 3], b: [u64; 3]) -> [u128; 3] {
    let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
    let (s1, s2) = (b[1] * 20, b[2] * 20);
    [
        m(a[0], b[0]) + m(a[1], s2) + m(a[2], s1),
        m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], s2),
        m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]),
    ]
}

/// Carries limb products back into 44/44/42-bit limbs. Partial: the
/// middle limb can end a few bits above 2^44, which [`mul`] has room
/// for.
#[inline(always)]
fn carry(d: [u128; 3]) -> [u64; 3] {
    let d1 = d[1] + (d[0] >> 44);
    let d2 = d[2] + (d1 >> 44);
    let h0 = (d[0] as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    [
        h0 & MASK44,
        (d1 as u64 & MASK44) + (h0 >> 44),
        d2 as u64 & MASK42,
    ]
}

impl Poly1305 {
    /// Creates an authenticator from a 32-byte one-time key.
    pub(crate) fn new(key: &[u8; 32]) -> Poly1305 {
        // Clamp r per RFC 8439 §2.5 (the masks are the clamp, split at
        // the limb boundaries).
        let (t0, t1) = (le64(&key[0..8]), le64(&key[8..16]));
        Poly1305 {
            r: [
                t0 & 0xffc_0fff_ffff,
                ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
                (t1 >> 24) & 0x00f_ffff_fc0f,
            ],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            h: [0; 3],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorbs a run of whole 16-byte blocks. `hibit` is the 2^128 bit
    /// every block carries (`1 << 40` in the top limb), or 0 for the
    /// final partial block, whose padding already holds the 1.
    fn blocks(&mut self, data: &[u8], hibit: u64) {
        debug_assert_eq!(data.len() % 16, 0);
        let r = self.r;
        let mut h = self.h;
        let limbs = |block: &[u8]| {
            let (t0, t1) = (le64(&block[..8]), le64(&block[8..]));
            [
                t0 & MASK44,
                ((t0 >> 44) | (t1 << 20)) & MASK44,
                ((t1 >> 24) & MASK42) | hibit,
            ]
        };
        for block in data.chunks_exact(16) {
            let m = limbs(block);
            h = carry(mul([h[0] + m[0], h[1] + m[1], h[2] + m[2]], r));
        }
        self.h = h;
    }

    /// Absorbs message data.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return;
            }
            let block = self.buf;
            self.blocks(&block, 1 << 40);
            self.buf_len = 0;
        }
        let (whole, tail) = data.split_at(data.len() & !15);
        self.blocks(whole, 1 << 40);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes and returns the 16-byte tag.
    pub(crate) fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            // Pad the final partial block: append 0x01 then zeros, no hibit.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.blocks(&block, 0);
        }
        // Full carry, twice around: the first pass can leave h0 one
        // carry above 2^44 after the ×5 fold.
        let [mut h0, mut h1, mut h2] = self.h;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        h2 += h1 >> 44;
        h1 &= MASK44;

        // g = h − p = h + 5 − 2^130; h ≥ p exactly when that does not
        // borrow. Selected by mask, not by branch.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // tag = (h + pad) mod 2^128.
        let lo = u128::from(h0 | (h1 << 44)) + u128::from(self.pad[0]);
        let hi = ((h1 >> 20) | (h2 << 24))
            .wrapping_add(self.pad[1])
            .wrapping_add((lo >> 64) as u64);
        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&(lo as u64).to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }

    /// One-shot MAC (test aid).
    #[cfg(test)]
    fn mac(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::rng::{DetRng, RngCore};
    use reference::Reference;

    /// The radix-2^26 implementation, kept as the differential reference.
    mod reference {
        const MASK26: u64 = (1 << 26) - 1;

        /// Five 26-bit limbs, 64-bit products ("donna-32").
        pub(super) struct Reference {
            r: [u64; 5],
            s: [u64; 4],
            h: [u64; 5],
            buf: [u8; 16],
            buf_len: usize,
        }

        fn le32(b: &[u8]) -> u64 {
            u32::from_le_bytes(b.try_into().expect("4 bytes")) as u64
        }

        impl Reference {
            /// Creates an authenticator from a 32-byte one-time key.
            pub(super) fn new(key: &[u8; 32]) -> Reference {
                // Clamp r per RFC 8439 §2.5.
                let r = [
                    le32(&key[0..4]) & 0x3ffffff,
                    (le32(&key[3..7]) >> 2) & 0x3ffff03,
                    (le32(&key[6..10]) >> 4) & 0x3ffc0ff,
                    (le32(&key[9..13]) >> 6) & 0x3f03fff,
                    (le32(&key[12..16]) >> 8) & 0x00fffff,
                ];
                let s = [
                    le32(&key[16..20]),
                    le32(&key[20..24]),
                    le32(&key[24..28]),
                    le32(&key[28..32]),
                ];
                Reference {
                    r,
                    s,
                    h: [0; 5],
                    buf: [0; 16],
                    buf_len: 0,
                }
            }

            /// Absorbs one 16-byte block. `hibit` is 1<<24 for full blocks and 0
            /// for the padded final partial block.
            fn block(&mut self, m: &[u8; 16], hibit: u64) {
                let [r0, r1, r2, r3, r4] = self.r;
                let s1 = r1 * 5;
                let s2 = r2 * 5;
                let s3 = r3 * 5;
                let s4 = r4 * 5;

                let h0 = self.h[0] + (le32(&m[0..4]) & MASK26);
                let h1 = self.h[1] + ((le32(&m[3..7]) >> 2) & MASK26);
                let h2 = self.h[2] + ((le32(&m[6..10]) >> 4) & MASK26);
                let h3 = self.h[3] + ((le32(&m[9..13]) >> 6) & MASK26);
                let h4 = self.h[4] + ((le32(&m[12..16]) >> 8) | hibit);

                let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
                let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
                let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
                let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
                let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

                let mut c = d0 >> 26;
                self.h[0] = d0 & MASK26;
                let d1 = d1 + c;
                c = d1 >> 26;
                self.h[1] = d1 & MASK26;
                let d2 = d2 + c;
                c = d2 >> 26;
                self.h[2] = d2 & MASK26;
                let d3 = d3 + c;
                c = d3 >> 26;
                self.h[3] = d3 & MASK26;
                let d4 = d4 + c;
                c = d4 >> 26;
                self.h[4] = d4 & MASK26;
                self.h[0] += c * 5;
                let c2 = self.h[0] >> 26;
                self.h[0] &= MASK26;
                self.h[1] += c2;
            }

            /// Absorbs message data.
            pub(super) fn update(&mut self, mut data: &[u8]) {
                if self.buf_len > 0 {
                    let take = (16 - self.buf_len).min(data.len());
                    self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
                    self.buf_len += take;
                    data = &data[take..];
                    if self.buf_len == 16 {
                        let block = self.buf;
                        self.block(&block, 1 << 24);
                        self.buf_len = 0;
                    }
                }
                while data.len() >= 16 {
                    let block: [u8; 16] = data[..16].try_into().expect("16-byte chunk");
                    self.block(&block, 1 << 24);
                    data = &data[16..];
                }
                if !data.is_empty() {
                    self.buf[..data.len()].copy_from_slice(data);
                    self.buf_len = data.len();
                }
            }

            /// Finishes and returns the 16-byte tag.
            pub(super) fn finalize(mut self) -> [u8; 16] {
                if self.buf_len > 0 {
                    // Pad the final partial block: append 0x01 then zeros, no hibit.
                    let mut block = [0u8; 16];
                    block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
                    block[self.buf_len] = 1;
                    self.block(&block, 0);
                }
                // Full carry so each limb is < 2^26.
                let mut h = self.h;
                let mut c = h[1] >> 26;
                h[1] &= MASK26;
                h[2] += c;
                c = h[2] >> 26;
                h[2] &= MASK26;
                h[3] += c;
                c = h[3] >> 26;
                h[3] &= MASK26;
                h[4] += c;
                c = h[4] >> 26;
                h[4] &= MASK26;
                h[0] += c * 5;
                c = h[0] >> 26;
                h[0] &= MASK26;
                h[1] += c;

                // Conditional subtraction of p = 2^130 − 5: h >= p iff the top
                // four limbs are maximal and h0 >= 2^26 − 5. The branch leaks
                // only one comparison on the final accumulator value, which is
                // acceptable in this simulated-testbed threat model.
                if h[4] == MASK26
                    && h[3] == MASK26
                    && h[2] == MASK26
                    && h[1] == MASK26
                    && h[0] >= MASK26 - 4
                {
                    h[0] -= MASK26 - 4;
                    h[1] = 0;
                    h[2] = 0;
                    h[3] = 0;
                    h[4] = 0;
                }

                // Repack 26-bit limbs into four 32-bit words (mod 2^128).
                let w0 = (h[0] | (h[1] << 26)) & 0xffff_ffff;
                let w1 = ((h[1] >> 6) | (h[2] << 20)) & 0xffff_ffff;
                let w2 = ((h[2] >> 12) | (h[3] << 14)) & 0xffff_ffff;
                let w3 = ((h[3] >> 18) | (h[4] << 8)) & 0xffff_ffff;

                // tag = (h + s) mod 2^128.
                let mut tag = [0u8; 16];
                let mut carry: u64 = 0;
                for (i, (w, s)) in [w0, w1, w2, w3].iter().zip(self.s.iter()).enumerate() {
                    let sum = w + s + carry;
                    tag[i * 4..(i + 1) * 4].copy_from_slice(&(sum as u32).to_le_bytes());
                    carry = sum >> 32;
                }
                tag
            }

            /// One-shot MAC.
            pub(super) fn mac(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
                let mut p = Reference::new(key);
                p.update(data);
                p.finalize()
            }
        }
    }

    // RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_tag() {
        let key = hex::decode_array::<32>(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
        )
        .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        assert_eq!(
            hex::encode(&Poly1305::mac(&key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    // RFC 8439 §A.3 test vector 1: all-zero key and message.
    #[test]
    fn zero_key_zero_msg() {
        let key = [0u8; 32];
        let msg = [0u8; 64];
        assert_eq!(
            hex::encode(&Poly1305::mac(&key, &msg)),
            "00000000000000000000000000000000"
        );
    }

    // RFC 8439 §A.3 test vector 2: r = 0, s = text, message tag equals s.
    #[test]
    fn r_zero_tag_is_s() {
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&hex::decode("36e5f6b5c5e06070f0efca96227a863e").unwrap());
        let msg = b"Any submission to the IETF intended by the Contributor for publi\
cation as all or part of an IETF Internet-Draft or RFC and any statement made within the c\
ontext of an IETF activity is considered an \"IETF Contribution\". Such statements include \
oral statements in IETF sessions, as well as written and electronic communications made a\
t any time or place, which are addressed to";
        assert_eq!(
            hex::encode(&Poly1305::mac(&key, &msg[..])),
            "36e5f6b5c5e06070f0efca96227a863e"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = [0x42u8; 32];
        let data: Vec<u8> = (0..200u8).collect();
        for split in [0, 1, 15, 16, 17, 31, 100] {
            let mut p = Poly1305::new(&key);
            p.update(&data[..split]);
            p.update(&data[split..]);
            assert_eq!(p.finalize(), Poly1305::mac(&key, &data), "split {split}");
        }
    }

    #[test]
    fn different_messages_different_tags() {
        let key = [0x11u8; 32];
        assert_ne!(Poly1305::mac(&key, b"a"), Poly1305::mac(&key, b"b"));
    }

    const IETF_TEXT: &[u8] = b"Any submission to the IETF intended by the Contributor for publi\
cation as all or part of an IETF Internet-Draft or RFC and any statement made within the c\
ontext of an IETF activity is considered an \"IETF Contribution\". Such statements include \
oral statements in IETF sessions, as well as written and electronic communications made a\
t any time or place, which are addressed to";

    const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in \
the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

    /// `r ‖ s` from two 16-byte hex halves.
    fn key_of(r: &str, s: &str) -> [u8; 32] {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&hex::decode_array::<16>(r).unwrap());
        key[16..].copy_from_slice(&hex::decode_array::<16>(s).unwrap());
        key
    }

    // RFC 8439 §A.3, all eleven vectors. 5-11 are the arithmetic edge
    // cases: carries out of 2^128 and 2^130, h landing exactly on p, on
    // p − 1 and on 2^130 − 1 before the final reduction.
    #[test]
    fn rfc8439_a3_vectors() {
        const ZERO: &str = "00000000000000000000000000000000";
        const R1: &str = "01000000000000000000000000000000";
        const R2: &str = "02000000000000000000000000000000";
        const R_10: &str = "01000000000000000400000000000000";
        const FF: &str = "ffffffffffffffffffffffffffffffff";
        let text_key = "36e5f6b5c5e06070f0efca96227a863e";
        let h = |hex_str: &str| hex::decode(hex_str).unwrap();
        let vectors: Vec<([u8; 32], Vec<u8>, &str)> = vec![
            (key_of(ZERO, ZERO), vec![0u8; 64], ZERO),
            (key_of(ZERO, text_key), IETF_TEXT.to_vec(), text_key),
            (
                key_of(text_key, ZERO),
                IETF_TEXT.to_vec(),
                "f3477e7cd95417af89a6b8794c310cf0",
            ),
            (
                key_of(
                    "1c9240a5eb55d38af333888604f6b5f0",
                    "473917c1402b80099dca5cbc207075c0",
                ),
                JABBERWOCKY.to_vec(),
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            (key_of(R2, ZERO), h(FF), "03000000000000000000000000000000"),
            (key_of(R2, FF), h(R2), "03000000000000000000000000000000"),
            (
                key_of(R1, ZERO),
                h(
                    "fffffffffffffffffffffffffffffffff0ffffffffffffffffffffffffffffff\
                   11000000000000000000000000000000",
                ),
                "05000000000000000000000000000000",
            ),
            (
                key_of(R1, ZERO),
                h(
                    "fffffffffffffffffffffffffffffffffbfefefefefefefefefefefefefefefe\
                   01010101010101010101010101010101",
                ),
                ZERO,
            ),
            (
                key_of(R2, ZERO),
                h("fdffffffffffffffffffffffffffffff"),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                key_of(R_10, ZERO),
                h(
                    "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
                   0000000000000000000000000000000001000000000000000000000000000000",
                ),
                "14000000000000005500000000000000",
            ),
            (
                key_of(R_10, ZERO),
                h(
                    "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
                   00000000000000000000000000000000",
                ),
                "13000000000000000000000000000000",
            ),
        ];
        for (n, (key, msg, tag)) in vectors.iter().enumerate() {
            assert_eq!(
                hex::encode(&Poly1305::mac(key, msg)),
                *tag,
                "A.3 vector {}",
                n + 1
            );
            assert_eq!(
                hex::encode(&Reference::mac(key, msg)),
                *tag,
                "A.3 vector {} (reference)",
                n + 1
            );
        }
    }

    /// 1000 seeded keys, every message length 0..=130 under each: the
    /// radix-2^44 tag equals the radix-2^26 one. Lengths around 16, 32,
    /// 64 and 128 cross every buffer and run boundary of `update`.
    #[test]
    fn matches_radix_26_reference() {
        let mut rng = DetRng::new(0x706f6c79);
        let mut msg = [0u8; 130];
        for round in 0..1000 {
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut msg);
            if round % 4 == 0 {
                // Saturated messages push h towards the reduction edges.
                msg.fill(0xff);
            }
            for len in 0..=msg.len() {
                assert_eq!(
                    Poly1305::mac(&key, &msg[..len]),
                    Reference::mac(&key, &msg[..len]),
                    "round {round} len {len}"
                );
            }
        }
    }

    /// The same comparison on a long message cut into uneven `update`
    /// calls, so the buffered head/tail path meets the run path; once
    /// with random bytes and once with every key and message bit set,
    /// which drives the limbs to the top of their range on every step.
    #[test]
    fn split_updates_match_reference() {
        let mut rng = DetRng::new(0x73706c74);
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let mut msg = vec![0u8; 8192 + 37];
        rng.fill_bytes(&mut msg);
        for (key, msg) in [(key, msg.clone()), ([0xff; 32], vec![0xff; msg.len()])] {
            let expected = Reference::mac(&key, &msg);
            for step in [1usize, 3, 15, 16, 17, 33, 64, 65, 1000, 8192] {
                let mut p = Poly1305::new(&key);
                for piece in msg.chunks(step) {
                    p.update(piece);
                }
                assert_eq!(p.finalize(), expected, "step {step}");
            }
        }
    }
}
