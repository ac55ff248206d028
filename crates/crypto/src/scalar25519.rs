//! Arithmetic modulo the Ed25519 group order
//! L = 2^252 + 27742317777372353535851937790883648493.
//!
//! Ed25519 signing needs `(r + h·a) mod L` and reduction of 64-byte
//! hashes mod L (three per signature, one per verification). Scalars
//! are held as four little-endian `u64` limbs; wide values are reduced
//! limb-wise by folding at 2^252 (see `reduce_wide`). The signed-digit
//! recodings the point multiplications in [`crate::ed25519`] consume
//! live here too.

use crate::CryptoError;

/// L, the prime order of the Ed25519 base-point subgroup (little-endian limbs).
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// c = L − 2^252 (125 bits): 2^252 ≡ −c (mod L).
const C: [u64; 2] = [L[0], L[1]];

/// Window width of [`Scalar::non_adjacent_form`]: digits are odd and
/// below 2^(w−1) = 16 in magnitude, so eight odd multiples serve them.
pub(crate) const NAF_WIDTH: usize = 5;

/// A scalar in the range [0, L).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

/// Compares two 4-limb little-endian values: `a >= b`.
fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

/// Subtracts `b` from `a` in place; caller guarantees `a >= b`.
fn sub_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0, "caller must ensure a >= b");
}

// Inherent add/mul names match the reference implementations; index
// loops mirror the textbook carry chains.
#[allow(clippy::should_implement_trait, clippy::needless_range_loop)]
impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar one.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Reduces an arbitrary little-endian byte string (≤ 64 bytes) mod L.
    ///
    /// This is `sc_reduce` in ref10 terms, used both for hashing to a
    /// scalar and for clamped-key arithmetic.
    pub fn from_bytes_wide(bytes: &[u8]) -> Scalar {
        assert!(bytes.len() <= 64, "wide scalar input limited to 64 bytes");
        let mut padded = [0u8; 64];
        padded[..bytes.len()].copy_from_slice(bytes);
        let mut wide = [0u64; 8];
        for (limb, chunk) in wide.iter_mut().zip(padded.chunks_exact(8)) {
            *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        reduce_wide(wide)
    }

    /// Parses a canonical 32-byte little-endian scalar, rejecting values ≥ L.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidScalar`] if the value is ≥ L (RFC
    /// 8032 requires rejecting non-canonical `s` in signatures).
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Result<Scalar, CryptoError> {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if geq(&limbs, &L) {
            return Err(CryptoError::InvalidScalar);
        }
        Ok(Scalar(limbs))
    }

    /// Serializes to 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Addition mod L.
    pub fn add(self, rhs: Scalar) -> Scalar {
        let mut limbs = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        // Both inputs < L < 2^253, so the sum fits in 254 bits: no carry out.
        debug_assert_eq!(carry, 0);
        if geq(&limbs, &L) {
            sub_in_place(&mut limbs, &L);
        }
        Scalar(limbs)
    }

    /// Subtraction mod L.
    fn sub(self, rhs: Scalar) -> Scalar {
        let mut limbs = self.0;
        if !geq(&limbs, &rhs.0) {
            // self < rhs < L: lift by L (self + L < 2^254, no carry out).
            let mut carry = 0u64;
            for i in 0..4 {
                let (s1, c1) = limbs[i].overflowing_add(L[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                limbs[i] = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
        }
        sub_in_place(&mut limbs, &rhs.0);
        Scalar(limbs)
    }

    /// Multiplication mod L.
    pub fn mul(self, rhs: Scalar) -> Scalar {
        // Schoolbook 4x4 limb multiply into a 512-bit product.
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur = wide[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                wide[i + j] = cur as u64;
                carry = cur >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        reduce_wide(wide)
    }

    /// Computes `self * b + c mod L` (the signing equation `r + h·a`).
    pub(crate) fn mul_add(self, b: Scalar, c: Scalar) -> Scalar {
        self.mul(b).add(c)
    }

    /// Returns the i-th bit (little-endian) of the scalar (the
    /// reference ladder in the ed25519 tests).
    #[cfg(test)]
    pub(crate) fn bit(&self, i: usize) -> u8 {
        debug_assert!(i < 256);
        ((self.0[i / 64] >> (i % 64)) & 1) as u8
    }

    /// Signed radix-16 digits, least significant first: the scalar is
    /// Σ dᵢ·16^i with every dᵢ in [−8, 8]. Drives the fixed-base table.
    pub(crate) fn to_radix_16(self) -> [i8; 64] {
        let mut digits = [0i8; 64];
        for (i, byte) in self.to_bytes().iter().enumerate() {
            digits[2 * i] = (byte & 15) as i8;
            digits[2 * i + 1] = (byte >> 4) as i8;
        }
        // Recentre [0, 16) to [−8, 8), pushing the excess upward. The
        // top nibble of a scalar below 2^253 is at most 1, so the last
        // digit absorbs its carry without leaving the range.
        for i in 0..63 {
            let carry = (digits[i] + 8) >> 4;
            digits[i] -= carry << 4;
            digits[i + 1] += carry;
        }
        digits
    }

    /// Width-[`NAF_WIDTH`] non-adjacent form, least significant first:
    /// the scalar is Σ dᵢ·2^i where every nonzero dᵢ is odd, below 16 in
    /// magnitude, and followed by at least four zeros — about one
    /// nonzero digit in six.
    pub(crate) fn non_adjacent_form(self) -> [i8; 256] {
        const WIDTH: u64 = 1 << NAF_WIDTH;
        let mut naf = [0i8; 256];
        let x = [self.0[0], self.0[1], self.0[2], self.0[3], 0];
        let mut pos = 0;
        let mut carry = 0u64;
        while pos < 256 {
            let (limb, bit) = (pos / 64, pos % 64);
            let bits = if bit < 64 - NAF_WIDTH {
                x[limb] >> bit
            } else {
                (x[limb] >> bit) | (x[limb + 1] << (64 - bit))
            };
            let window = carry + (bits & (WIDTH - 1));
            if window & 1 == 0 {
                // Even (the carry, if any, rides along to the next bit).
                pos += 1;
                continue;
            }
            if window < WIDTH / 2 {
                carry = 0;
                naf[pos] = window as i8;
            } else {
                carry = 1;
                naf[pos] = (window as i64 - WIDTH as i64) as i8;
            }
            pos += NAF_WIDTH;
        }
        naf
    }
}

/// Reduces a 512-bit little-endian value mod L, limb-wise.
///
/// Split x = lo + hi·2^252; since 2^252 ≡ −c, x ≡ lo − hi·c. The product
/// hi·c is 127 bits shorter than x (512 → 385 → 258 → 131 bits, then
/// hi = 0), so at most four `lo` pieces — each below 2^252 < L — are
/// peeled off and combined with alternating sign by mod-L add/sub.
fn reduce_wide(mut x: [u64; 8]) -> Scalar {
    let mut acc = Scalar::ZERO;
    let mut negative = false;
    loop {
        let lo = Scalar([x[0], x[1], x[2], x[3] & ((1 << 60) - 1)]);
        acc = if negative { acc.sub(lo) } else { acc.add(lo) };
        // hi = x >> 252 (at most 260 bits).
        let mut hi = [0u64; 5];
        for (i, limb) in hi.iter_mut().enumerate() {
            *limb = x[i + 3] >> 60;
            if i + 4 < 8 {
                *limb |= x[i + 4] << 4;
            }
        }
        if hi == [0; 5] {
            return acc;
        }
        x = [0; 8];
        for i in 0..5 {
            let mut carry: u128 = 0;
            for j in 0..2 {
                let cur = x[i + j] as u128 + (hi[i] as u128) * (C[j] as u128) + carry;
                x[i + j] = cur as u64;
                carry = cur >> 64;
            }
            x[i + 2] = carry as u64;
        }
        negative = !negative;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{DetRng, RngCore};

    /// The bit-serial reduction `from_bytes_wide` used to be: shift in
    /// one bit, subtract L when exceeded. Kept as the reference.
    fn reduce_bit_serial(bytes: &[u8]) -> Scalar {
        let mut acc = [0u64; 4];
        for byte in bytes.iter().rev() {
            for bit_idx in (0..8).rev() {
                let mut carry = 0u64;
                for limb in acc.iter_mut() {
                    let new_carry = *limb >> 63;
                    *limb = (*limb << 1) | carry;
                    carry = new_carry;
                }
                assert_eq!(carry, 0);
                acc[0] |= ((byte >> bit_idx) & 1) as u64;
                if geq(&acc, &L) {
                    sub_in_place(&mut acc, &L);
                }
            }
        }
        Scalar(acc)
    }

    fn wide_from_limbs(low: [u64; 4]) -> [u8; 64] {
        let mut bytes = [0u8; 64];
        bytes[..32].copy_from_slice(&Scalar(low).to_bytes());
        bytes
    }

    #[test]
    fn wide_reduction_matches_bit_serial_reference() {
        let mut l_minus_1 = L;
        l_minus_1[0] -= 1;
        let mut l_plus_1 = L;
        l_plus_1[0] += 1;
        let mut inputs = vec![
            [0u8; 64],
            wide_from_limbs(l_minus_1),
            wide_from_limbs(L),
            wide_from_limbs(l_plus_1),
            [0xff; 64],
        ];
        // 2^252 − 1, 2^252 and 2^504: the fold boundaries.
        inputs.push(wide_from_limbs([
            u64::MAX,
            u64::MAX,
            u64::MAX,
            (1 << 60) - 1,
        ]));
        inputs.push(wide_from_limbs([0, 0, 0, 1 << 60]));
        let mut top = [0u8; 64];
        top[63] = 1;
        inputs.push(top);
        let mut rng = DetRng::new(0x5ca1_ab1e);
        for _ in 0..2000 {
            let mut bytes = [0u8; 64];
            rng.fill_bytes(&mut bytes);
            inputs.push(bytes);
        }
        for bytes in &inputs {
            assert_eq!(Scalar::from_bytes_wide(bytes), reduce_bit_serial(bytes));
        }
        // Short inputs are zero-extended.
        for len in 0..64 {
            let bytes = &inputs[4][..len];
            assert_eq!(Scalar::from_bytes_wide(bytes), reduce_bit_serial(bytes));
        }
    }

    #[test]
    fn sub_inverts_add() {
        let mut rng = DetRng::new(7);
        for _ in 0..200 {
            let mut bytes = [0u8; 64];
            rng.fill_bytes(&mut bytes);
            let a = Scalar::from_bytes_wide(&bytes[..32]);
            let b = Scalar::from_bytes_wide(&bytes[32..]);
            assert_eq!(a.add(b).sub(b), a);
            assert_eq!(a.sub(b).add(b), a);
        }
        assert_eq!(Scalar::ZERO.sub(Scalar::ONE).add(Scalar::ONE), Scalar::ZERO);
    }

    /// Recombines signed digits of weight `2^(shift·i)` mod L.
    fn recombine(digits: &[i8], shift: u32) -> Scalar {
        let radix = Scalar::from_bytes_wide(&[1 << shift]);
        let mut acc = Scalar::ZERO;
        for &d in digits.iter().rev() {
            acc = acc.mul(radix);
            let mag = Scalar::from_bytes_wide(&[d.unsigned_abs()]);
            acc = if d < 0 { acc.sub(mag) } else { acc.add(mag) };
        }
        acc
    }

    #[test]
    fn signed_digit_recodings_recombine() {
        let mut l_minus_1 = L;
        l_minus_1[0] -= 1;
        let mut scalars = vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar(l_minus_1),
            Scalar([0, 0, 0, 1 << 60]),
            Scalar([u64::MAX, u64::MAX, u64::MAX, (1 << 60) - 1]),
        ];
        let mut rng = DetRng::new(99);
        for _ in 0..300 {
            let mut bytes = [0u8; 64];
            rng.fill_bytes(&mut bytes);
            scalars.push(Scalar::from_bytes_wide(&bytes));
        }
        for s in scalars {
            let radix16 = s.to_radix_16();
            assert!(radix16.iter().all(|d| (-8..=8).contains(d)));
            assert_eq!(recombine(&radix16, 4), s);

            let naf = s.non_adjacent_form();
            assert_eq!(recombine(&naf, 1), s);
            for (i, &d) in naf.iter().enumerate() {
                if d != 0 {
                    assert!(d & 1 == 1 && d.unsigned_abs() < 16);
                    let gap = &naf[i + 1..(i + NAF_WIDTH).min(256)];
                    assert!(gap.iter().all(|&z| z == 0));
                }
            }
        }
    }

    #[test]
    fn zero_and_one() {
        assert_eq!(Scalar::ZERO.0, [0; 4]);
        assert_eq!(Scalar::ONE.add(Scalar::ZERO), Scalar::ONE);
        assert_eq!(Scalar::ONE.mul(Scalar::ONE), Scalar::ONE);
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut l_bytes = [0u8; 32];
        for (i, limb) in L.iter().enumerate() {
            l_bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_wide(&l_bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_err());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut limbs = L;
        limbs[0] -= 1;
        let mut bytes = [0u8; 32];
        for (i, limb) in limbs.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&bytes).unwrap();
        // (L-1) + 1 == 0 mod L.
        assert_eq!(s.add(Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_matches_small_values() {
        let s = Scalar::from_bytes_wide(&[42]);
        assert_eq!(s.to_bytes()[0], 42);
        assert_eq!(s.to_bytes()[1..], [0u8; 31]);
    }

    #[test]
    fn mul_small_numbers() {
        let six = Scalar::from_bytes_wide(&[6]);
        let seven = Scalar::from_bytes_wide(&[7]);
        let forty_two = Scalar::from_bytes_wide(&[42]);
        assert_eq!(six.mul(seven), forty_two);
    }

    #[test]
    fn mul_add_small() {
        let a = Scalar::from_bytes_wide(&[3]);
        let b = Scalar::from_bytes_wide(&[4]);
        let c = Scalar::from_bytes_wide(&[5]);
        assert_eq!(a.mul_add(b, c), Scalar::from_bytes_wide(&[17]));
    }

    #[test]
    fn add_commutes_and_associates() {
        let a = Scalar::from_bytes_wide(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3]);
        let b = Scalar::from_bytes_wide(&[0xca, 0xfe, 0xba, 0xbe, 9, 9]);
        let c = Scalar::from_bytes_wide(&[0x11; 40]);
        assert_eq!(a.add(b), b.add(a));
        assert_eq!(a.add(b).add(c), a.add(b.add(c)));
    }

    #[test]
    fn mul_distributes_over_add() {
        let a = Scalar::from_bytes_wide(&[0x77; 64]);
        let b = Scalar::from_bytes_wide(&[0x33; 50]);
        let c = Scalar::from_bytes_wide(&[0x99; 20]);
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn bit_extraction() {
        let s = Scalar::from_bytes_wide(&[0b1010_0101]);
        assert_eq!(s.bit(0), 1);
        assert_eq!(s.bit(1), 0);
        assert_eq!(s.bit(2), 1);
        assert_eq!(s.bit(5), 1);
        assert_eq!(s.bit(7), 1);
        assert_eq!(s.bit(255), 0);
    }

    #[test]
    fn round_trip_canonical() {
        let s = Scalar::from_bytes_wide(&[0xab; 33]);
        let round = Scalar::from_canonical_bytes(&s.to_bytes()).unwrap();
        assert_eq!(s, round);
    }
}
