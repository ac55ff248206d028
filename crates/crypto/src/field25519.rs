//! Arithmetic in GF(2^255 − 19), the base field of Curve25519.
//!
//! Elements are stored as five 51-bit limbs (little-endian), the classic
//! "radix 2^51" representation: products of two ≤54-bit limbs fit in a
//! `u128` with room for the reduction-by-19 folding. All public
//! operations keep limbs below 2^52, so any two results can be fed back
//! into [`Fe::mul`] without overflow.

use crate::ct;

/// Low 51 bits of a limb.
pub(crate) const MASK: u64 = (1 << 51) - 1;

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

// The inherent add/sub/mul/neg methods intentionally mirror the field
// operation names used by every curve25519 implementation; operator
// traits would hide the reduction semantics. Index-based loops follow
// the reference carry-chain formulations.
#[allow(clippy::should_implement_trait, clippy::needless_range_loop)]
impl Fe {
    /// The additive identity.
    pub(crate) const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);
    /// √−1 mod p = 2^((p−1)/4), needed during point decompression.
    pub(crate) const SQRT_M1: Fe = Fe([
        1718705420411056,
        234908883556509,
        2233514472574048,
        2117202627021982,
        765476049583133,
    ]);

    /// Constructs an element from a little-endian 32-byte encoding.
    ///
    /// The top bit (bit 255) is ignored per RFC 7748/8032 conventions;
    /// values ≥ p are accepted and reduced.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| -> u64 { u64::from_le_bytes(b.try_into().expect("8 bytes")) };
        let mut h = [0u64; 5];
        h[0] = load(&bytes[0..8]) & MASK;
        h[1] = (load(&bytes[6..14]) >> 3) & MASK;
        h[2] = (load(&bytes[12..20]) >> 6) & MASK;
        h[3] = (load(&bytes[19..27]) >> 1) & MASK;
        // Bit 204 is bit 12 of the load at byte 24; masking drops bit 255.
        h[4] = (load(&bytes[24..32]) >> 12) & MASK;
        Fe(h).reduce_weak()
    }

    /// Serializes to the canonical little-endian 32-byte form (< p).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut l = self.reduce_weak().0;
        // Compute q = floor(value / p) ∈ {0, 1} by propagating (x+19)
        // carries through the limbs.
        let mut q = (l[0].wrapping_add(19)) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        l[0] += 19 * q;
        l[1] += l[0] >> 51;
        l[0] &= MASK;
        l[2] += l[1] >> 51;
        l[1] &= MASK;
        l[3] += l[2] >> 51;
        l[2] &= MASK;
        l[4] += l[3] >> 51;
        l[3] &= MASK;
        l[4] &= MASK;
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0;
        for limb in l {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = acc as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        if idx < 32 {
            out[idx] = acc as u8;
        }
        out
    }

    /// One carry pass: brings all limbs below 2^52 (and usually 2^51).
    fn reduce_weak(self) -> Fe {
        let mut l = self.0;
        let c0 = l[0] >> 51;
        l[0] &= MASK;
        l[1] += c0;
        let c1 = l[1] >> 51;
        l[1] &= MASK;
        l[2] += c1;
        let c2 = l[2] >> 51;
        l[2] &= MASK;
        l[3] += c2;
        let c3 = l[3] >> 51;
        l[3] &= MASK;
        l[4] += c3;
        let c4 = l[4] >> 51;
        l[4] &= MASK;
        l[0] += c4 * 19;
        let c0b = l[0] >> 51;
        l[0] &= MASK;
        l[1] += c0b;
        Fe(l)
    }

    /// Addition.
    pub fn add(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
        .reduce_weak()
    }

    /// Subtraction (adds 2p first so limbs never underflow).
    pub fn sub(self, rhs: Fe) -> Fe {
        // 2p in radix-2^51 limbs: [2^52 − 38, 2^52 − 2, ..., 2^52 − 2].
        const TWO_P: [u64; 5] = [
            0xfffffffffffda,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
        ];
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + TWO_P[0] - b[0],
            a[1] + TWO_P[1] - b[1],
            a[2] + TWO_P[2] - b[2],
            a[3] + TWO_P[3] - b[3],
            a[4] + TWO_P[4] - b[4],
        ])
        .reduce_weak()
    }

    /// Negation.
    pub(crate) fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Multiplication with reduction modulo 2^255 − 19.
    pub fn mul(self, rhs: Fe) -> Fe {
        let a: [u128; 5] = [
            self.0[0] as u128,
            self.0[1] as u128,
            self.0[2] as u128,
            self.0[3] as u128,
            self.0[4] as u128,
        ];
        let b: [u128; 5] = [
            rhs.0[0] as u128,
            rhs.0[1] as u128,
            rhs.0[2] as u128,
            rhs.0[3] as u128,
            rhs.0[4] as u128,
        ];
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        let c0 = a[0] * b[0] + a[1] * b4_19 + a[2] * b3_19 + a[3] * b2_19 + a[4] * b1_19;
        let c1 = a[0] * b[1] + a[1] * b[0] + a[2] * b4_19 + a[3] * b3_19 + a[4] * b2_19;
        let c2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0] + a[3] * b4_19 + a[4] * b3_19;
        let c3 = a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0] + a[4] * b4_19;
        let c4 = a[0] * b[4] + a[1] * b[3] + a[2] * b[2] + a[3] * b[1] + a[4] * b[0];
        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Squaring: the ten cross products `a[i]·a[j]` (i < j) are computed
    /// once and doubled, 15 limb products instead of [`Fe::mul`]'s 25.
    pub(crate) fn square(self) -> Fe {
        let a: [u128; 5] = [
            self.0[0] as u128,
            self.0[1] as u128,
            self.0[2] as u128,
            self.0[3] as u128,
            self.0[4] as u128,
        ];
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let c0 = a[0] * a[0] + 2 * (a[1] * a4_19 + a[2] * a3_19);
        let c1 = a0_2 * a[1] + 2 * (a[2] * a4_19) + a[3] * a3_19;
        let c2 = a0_2 * a[2] + a[1] * a[1] + 2 * (a[3] * a4_19);
        let c3 = a0_2 * a[3] + a1_2 * a[2] + a[4] * a4_19;
        let c4 = a0_2 * a[4] + a1_2 * a[3] + a[2] * a[2];
        Fe::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Squares `k` times: x^(2^k).
    fn pow2k(self, k: u32) -> Fe {
        let mut x = self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// Carries the five column sums of a product into 51-bit limbs,
    /// folding the top carry back in as ×19.
    fn carry_wide(mut c: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        c[1] += c[0] >> 51;
        out[0] = (c[0] as u64) & MASK;
        c[2] += c[1] >> 51;
        out[1] = (c[1] as u64) & MASK;
        c[3] += c[2] >> 51;
        out[2] = (c[2] as u64) & MASK;
        c[4] += c[3] >> 51;
        out[3] = (c[3] as u64) & MASK;
        let carry = (c[4] >> 51) as u64;
        out[4] = (c[4] as u64) & MASK;
        out[0] += carry * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK;
        Fe(out)
    }

    /// Multiplies by a small constant (used by X25519's a24 = 121665).
    pub(crate) fn mul_small(self, n: u64) -> Fe {
        debug_assert!(n < (1 << 20));
        let mut c: [u128; 5] = [0; 5];
        for i in 0..5 {
            c[i] = self.0[i] as u128 * n as u128;
        }
        Fe::carry_wide(c)
    }

    /// Computes (x^(2^250 − 1), x^11), the shared prefix of the two
    /// addition chains below: 249 squarings and 10 multiplications. Each
    /// step's exponent is on the right.
    fn pow22501(self) -> (Fe, Fe) {
        let t0 = self.square(); //                      2
        let t1 = t0.pow2k(2).mul(self); //              9
        let t2 = t0.mul(t1); //                         11
        let t3 = t2.square().mul(t1); //                2^5 − 1
        let t4 = t3.pow2k(5).mul(t3); //                2^10 − 1
        let t5 = t4.pow2k(10).mul(t4); //               2^20 − 1
        let t6 = t5.pow2k(20).mul(t5); //               2^40 − 1
        let t7 = t6.pow2k(10).mul(t4); //               2^50 − 1
        let t8 = t7.pow2k(50).mul(t7); //               2^100 − 1
        let t9 = t8.pow2k(100).mul(t8); //              2^200 − 1
        let t10 = t9.pow2k(50).mul(t7); //              2^250 − 1
        (t10, t2)
    }

    /// Multiplicative inverse via Fermat's little theorem: x^(p−2), by
    /// an addition chain of 254 squarings and 11 multiplications.
    ///
    /// Returns zero for zero input (callers check separately).
    pub fn invert(self) -> Fe {
        // p − 2 = 2^255 − 21 = (2^250 − 1)·2^5 + 11.
        let (t250, t11) = self.pow22501();
        t250.pow2k(5).mul(t11)
    }

    /// Computes x^((p−5)/8), the core of the Ed25519 square-root step.
    pub(crate) fn pow_p58(self) -> Fe {
        // (p − 5) / 8 = 2^252 − 3 = (2^250 − 1)·2^2 + 1.
        let (t250, _) = self.pow22501();
        t250.pow2k(2).mul(self)
    }

    /// Returns true iff the element is zero (canonical comparison).
    pub fn is_zero(self) -> bool {
        ct::eq(&self.to_bytes(), &[0u8; 32])
    }

    /// Canonical equality.
    pub fn ct_eq(self, other: Fe) -> bool {
        ct::eq(&self.to_bytes(), &other.to_bytes())
    }

    /// Returns bit 0 of the canonical encoding (the "sign" of x).
    pub(crate) fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Constant-time conditional swap of two elements when `swap` is 1.
    pub(crate) fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
        debug_assert!(swap <= 1);
        let mask = swap.wrapping_neg();
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Fe {
        /// Bit-serial square-and-multiply by a little-endian exponent:
        /// the reference the addition chains are checked against.
        fn pow_vartime(self, exp_le: &[u8; 32]) -> Fe {
            let mut result = Fe::ONE;
            for byte in exp_le.iter().rev() {
                for bit in (0..8).rev() {
                    result = result.mul(result);
                    if (byte >> bit) & 1 == 1 {
                        result = result.mul(self);
                    }
                }
            }
            result
        }
    }

    fn fe(n: u64) -> Fe {
        Fe([n & MASK, 0, 0, 0, 0]).reduce_weak()
    }

    #[test]
    fn bytes_round_trip() {
        let mut b = [0u8; 32];
        b[0] = 42;
        b[17] = 0xa5;
        b[31] = 0x55;
        assert_eq!(Fe::from_bytes(&b).to_bytes(), b);
    }

    #[test]
    fn high_bit_ignored() {
        let mut b = [0u8; 32];
        b[0] = 7;
        let mut b_high = b;
        b_high[31] |= 0x80;
        assert!(Fe::from_bytes(&b).ct_eq(Fe::from_bytes(&b_high)));
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19.
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        assert!(Fe::from_bytes(&p).is_zero());
    }

    #[test]
    fn add_sub_inverse() {
        let a = fe(1234567);
        let b = fe(7654321);
        assert!(a.add(b).sub(b).ct_eq(a));
        assert!(a.sub(a).is_zero());
    }

    #[test]
    fn mul_identity_and_commutativity() {
        let a = fe(99999);
        assert!(a.mul(Fe::ONE).ct_eq(a));
        let b = fe(12345);
        assert!(a.mul(b).ct_eq(b.mul(a)));
    }

    #[test]
    fn small_multiplication() {
        assert!(fe(6).ct_eq(fe(2).mul(fe(3))));
        assert!(fe(121665 * 4).ct_eq(fe(4).mul_small(121665)));
    }

    #[test]
    fn invert_round_trip() {
        let a = fe(987654321);
        assert!(a.mul(a.invert()).ct_eq(Fe::ONE));
    }

    #[test]
    fn sqrt_m1_is_two_to_the_quarter_order() {
        assert!(Fe::SQRT_M1.square().ct_eq(Fe::ONE.neg()));
        // (p − 1)/4 = 2^253 − 5 = 0x1fff…fffb.
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfb;
        exp[31] = 0x1f;
        assert!(Fe::SQRT_M1.ct_eq(fe(2).pow_vartime(&exp)));
    }

    /// Field elements near 0, p and 2^255 first, then seeded random ones.
    fn samples(n: usize) -> Vec<Fe> {
        use crate::rng::RngCore;
        let mut out = vec![Fe::ZERO, Fe::ONE, Fe::ONE.neg(), fe(2), fe(19).neg()];
        out.push(Fe::from_bytes(&[0xff; 32])); // 2^255 − 1 ≡ 18
        let mut rng = crate::rng::DetRng::new(0x243f_6a88);
        while out.len() < n {
            let mut b = [0u8; 32];
            rng.fill_bytes(&mut b);
            out.push(Fe::from_bytes(&b));
        }
        out
    }

    #[test]
    fn square_matches_mul() {
        let mut two = [0u8; 32];
        two[0] = 2;
        for x in samples(500) {
            assert!(x.square().ct_eq(x.mul(x)));
            assert!(x.square().ct_eq(x.pow_vartime(&two)));
            // Limbs above 2^51 but inside the documented 2^52 bound.
            let h = MASK >> 1;
            let wide = Fe([x.0[0] + h, x.0[1] + h, x.0[2], x.0[3] + 1, x.0[4] + h]);
            assert!(wide.square().ct_eq(wide.mul(wide)));
        }
    }

    #[test]
    fn addition_chains_match_pow_vartime() {
        // p − 2 = 0x7fff…ffeb and (p − 5)/8 = 0x0fff…fffd.
        let mut inv_exp = [0xffu8; 32];
        inv_exp[0] = 0xeb;
        inv_exp[31] = 0x7f;
        let mut p58_exp = [0xffu8; 32];
        p58_exp[0] = 0xfd;
        p58_exp[31] = 0x0f;
        for x in samples(200) {
            assert!(x.invert().ct_eq(x.pow_vartime(&inv_exp)));
            assert!(x.pow_p58().ct_eq(x.pow_vartime(&p58_exp)));
        }
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn negation() {
        let a = fe(5);
        assert!(a.add(a.neg()).is_zero());
    }

    #[test]
    fn distributive_law() {
        let a = fe(111);
        let b = fe(222);
        let c = fe(333);
        assert!(a.mul(b.add(c)).ct_eq(a.mul(b).add(a.mul(c))));
    }

    #[test]
    fn cswap_swaps() {
        let mut a = fe(1);
        let mut b = fe(2);
        Fe::cswap(0, &mut a, &mut b);
        assert!(a.ct_eq(fe(1)) && b.ct_eq(fe(2)));
        Fe::cswap(1, &mut a, &mut b);
        assert!(a.ct_eq(fe(2)) && b.ct_eq(fe(1)));
    }

    #[test]
    fn pow_vartime_matches_repeated_mul() {
        let a = fe(3);
        let mut exp = [0u8; 32];
        exp[0] = 13;
        let expected = fe(1594323); // 3^13
        assert!(a.pow_vartime(&exp).ct_eq(expected));
    }
}
