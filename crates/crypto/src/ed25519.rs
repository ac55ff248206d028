//! Ed25519 signatures (RFC 8032).
//!
//! These play the role of the paper's DSA credential signatures: every
//! KeyNote credential carries an `ed25519-hex:` authorizer/licensee key
//! and a `sig-ed25519-sha512-hex:` signature computed here.
//!
//! # Algorithms
//!
//! The curve is −x² + y² = 1 + d·x²·y² over GF(2^255 − 19); `d`, `2d`
//! and the base point `B` are compile-time constants. Points are held in
//! extended coordinates (X : Y : Z : T) and added with the complete
//! "add-2008-hwcd-3" law, so every formula below is valid for every pair
//! of curve points, including the small-order ones.
//!
//! * **Fixed base, `[k]B`** (key derivation, signing): `k` is recoded
//!   into 64 signed radix-16 digits and the result is assembled from a
//!   table of `j·256^i·B` for i < 32, j ≤ 8 held in affine Niels form
//!   (y+x, y−x, 2d·x·y): the 32 odd-position digits are summed first,
//!   the sum is multiplied by 16 with four doublings, then the 32
//!   even-position digits are added — 64 mixed additions and 4 doublings
//!   instead of 256 doublings and ~128 additions.
//! * **Double scalar, `[a]A + [b]B`** (verification, which checks
//!   `[s]B − [k]A` against `R`): Straus/Shamir interleaving. Both scalars
//!   are recoded in width-5 non-adjacent form, the odd multiples
//!   A, 3A, …, 15A are cached in projective Niels form, those of `B` come
//!   from the static table, and a single run of at most 253 doublings
//!   serves both. A doubling whose result only feeds the next doubling
//!   skips computing `T`.
//!
//! The static table (32·8 + 8 affine Niels points of 120 bytes, about
//! 31 KiB) is built on first use.
//!
//! The bit-serial double-and-add these replaced survives under
//! `#[cfg(test)]` as the reference the fast paths are compared against.
//!
//! Point operations — table lookups and the non-adjacent-form loop in
//! particular — are *variable time*. That is an accepted trade-off for
//! this research reproduction: its threat model covers forged, stolen
//! and replayed credentials and a hostile network, not timing side
//! channels.

use std::sync::OnceLock;

use crate::field25519::Fe;
use crate::scalar25519::Scalar;
use crate::sha512::Sha512;
use crate::{ct, CryptoError, Digest};

/// The curve constant d = −121665/121666 mod p.
const D: Fe = Fe([
    929955233495203,
    466365720129213,
    1662059464998953,
    2033849074728123,
    1442794654840575,
]);

/// 2·d, used by the addition formula.
const D2: Fe = Fe([
    1859910466990425,
    932731440258426,
    1072319116312658,
    1815898335770999,
    633789495995903,
]);

/// A point on the Ed25519 curve in extended homogeneous coordinates
/// (X : Y : Z : T) with X·Y = T·Z.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// (X : Y : Z) without `T`: all a doubling needs.
#[derive(Clone, Copy)]
struct ProjectivePoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The "P¹×P¹" output of an addition or doubling, ((X : Z), (Y : T)):
/// three multiplications away from a [`ProjectivePoint`], four from an
/// [`EdwardsPoint`].
#[derive(Clone, Copy)]
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A cached addend (Y+X, Y−X, Z, 2d·T): saves the additions and the
/// multiplication by 2d when the same point is added repeatedly.
#[derive(Clone, Copy)]
struct ProjectiveNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// A cached addend with Z = 1, (y+x, y−x, 2d·x·y): one multiplication
/// fewer per addition than [`ProjectiveNiels`]. The static table's form.
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl ProjectivePoint {
    const IDENTITY: ProjectivePoint = ProjectivePoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
    };

    /// Doubling via "dbl-2008-hwcd" (a = −1): four squarings.
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square().mul_small(2);
        let xy_sq = self.x.add(self.y).square();
        let yy_plus_xx = yy.add(xx);
        let yy_minus_xx = yy.sub(xx);
        CompletedPoint {
            x: xy_sq.sub(yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(yy_minus_xx),
        }
    }
}

impl CompletedPoint {
    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
        }
    }

    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }
}

impl ProjectiveNiels {
    /// The addend for a signed digit: the point itself, or its negation
    /// (x → −x) when `digit` is negative.
    fn with_sign_of(&self, digit: i8) -> ProjectiveNiels {
        if digit >= 0 {
            return *self;
        }
        ProjectiveNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl AffineNiels {
    /// As [`ProjectiveNiels::with_sign_of`].
    fn with_sign_of(&self, digit: i8) -> AffineNiels {
        if digit >= 0 {
            return *self;
        }
        AffineNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

impl EdwardsPoint {
    /// The identity element (0, 1).
    pub const IDENTITY: EdwardsPoint = EdwardsPoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The standard base point B (y = 4/5, x even).
    pub const BASE: EdwardsPoint = EdwardsPoint {
        x: Fe([
            1738742601995546,
            1146398526822698,
            2070867633025821,
            562264141797630,
            587772402128613,
        ]),
        y: Fe([
            1801439850948184,
            1351079888211148,
            450359962737049,
            900719925474099,
            1801439850948198,
        ]),
        z: Fe::ONE,
        t: Fe([
            1841354044333475,
            16398895984059,
            755974180946558,
            900171276175154,
            1821297809914039,
        ]),
    };

    /// Decompresses a 32-byte point encoding (RFC 8032 §5.1.3).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when the encoding does not
    /// correspond to a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Result<EdwardsPoint, CryptoError> {
        let x_sign = (bytes[31] >> 7) & 1;
        let y = Fe::from_bytes(bytes);
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = D.mul(yy).add(Fe::ONE);
        // Candidate root: x = u·v^3·(u·v^7)^((p−5)/8).
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vxx = v.mul(x.square());
        if vxx.ct_eq(u) {
            // x is correct.
        } else if vxx.ct_eq(u.neg()) {
            x = x.mul(Fe::SQRT_M1);
        } else {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_zero() && x_sign == 1 {
            return Err(CryptoError::InvalidPoint);
        }
        if (x.is_negative() as u8) != x_sign {
            x = x.neg();
        }
        Ok(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// The affine coordinates (X/Z, Y/Z).
    fn to_affine(self) -> (Fe, Fe) {
        let zinv = self.z.invert();
        (self.x.mul(zinv), self.y.mul(zinv))
    }

    /// Compresses to the 32-byte encoding.
    pub fn compress(&self) -> [u8; 32] {
        let (x, y) = self.to_affine();
        let mut out = y.to_bytes();
        out[31] |= (x.is_negative() as u8) << 7;
        out
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_projective_niels(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(D2),
        }
    }

    fn to_affine_niels(self) -> AffineNiels {
        let (x, y) = self.to_affine();
        AffineNiels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(D2),
        }
    }

    /// The complete "add-2008-hwcd-3" addition (a = −1) against a cached
    /// addend.
    fn add_projective_niels(&self, other: &ProjectiveNiels) -> CompletedPoint {
        let pp = self.y.add(self.x).mul(other.y_plus_x);
        let mm = self.y.sub(self.x).mul(other.y_minus_x);
        let tt2d = self.t.mul(other.t2d);
        let zz = self.z.mul(other.z);
        let zz2 = zz.add(zz);
        CompletedPoint {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: zz2.add(tt2d),
            t: zz2.sub(tt2d),
        }
    }

    /// The same addition with the addend's Z = 1.
    fn add_affine_niels(&self, other: &AffineNiels) -> CompletedPoint {
        let pp = self.y.add(self.x).mul(other.y_plus_x);
        let mm = self.y.sub(self.x).mul(other.y_minus_x);
        let txy2d = self.t.mul(other.xy2d);
        let z2 = self.z.add(self.z);
        CompletedPoint {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: z2.add(txy2d),
            t: z2.sub(txy2d),
        }
    }

    /// Point addition.
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        self.add_projective_niels(&other.to_projective_niels())
            .to_extended()
    }

    /// Point doubling.
    pub fn double(&self) -> EdwardsPoint {
        self.to_projective().double().to_extended()
    }

    /// Negation: (x, y) → (−x, y).
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Fixed-base scalar multiplication `[k]B` from the static table.
    fn mul_base(k: &Scalar) -> EdwardsPoint {
        let rows = &base_tables().radix16;
        let digits = k.to_radix_16();
        let add_digit = |acc: EdwardsPoint, row: &[AffineNiels; 8], digit: i8| {
            if digit == 0 {
                return acc;
            }
            let multiple = &row[digit.unsigned_abs() as usize - 1];
            acc.add_affine_niels(&multiple.with_sign_of(digit))
                .to_extended()
        };
        // Row i holds multiples of 256^i·B, the weight of digit 2i; digit
        // 2i+1 weighs 16 times that, so the odd digits go in first and
        // ride through the multiplication by 16.
        let mut acc = EdwardsPoint::IDENTITY;
        for (row, pair) in rows.iter().zip(digits.chunks_exact(2)) {
            acc = add_digit(acc, row, pair[1]);
        }
        let mut times16 = acc.to_projective();
        for _ in 0..3 {
            times16 = times16.double().to_projective();
        }
        acc = times16.double().to_extended();
        for (row, pair) in rows.iter().zip(digits.chunks_exact(2)) {
            acc = add_digit(acc, row, pair[0]);
        }
        acc
    }

    /// Double-scalar multiplication `[a]A + [b]B` in one Straus/Shamir
    /// pass over width-5 non-adjacent forms.
    fn mul_double_base(a: &Scalar, point_a: &EdwardsPoint, b: &Scalar) -> EdwardsPoint {
        let a_naf = a.non_adjacent_form();
        let b_naf = b.non_adjacent_form();
        let Some(top) = (0..256).rev().find(|&i| a_naf[i] != 0 || b_naf[i] != 0) else {
            return EdwardsPoint::IDENTITY;
        };

        // Odd multiples A, 3A, …, 15A; digit d selects entry |d|/2.
        let a2 = point_a.double();
        let mut multiple = *point_a;
        let odd_a: [ProjectiveNiels; 8] = std::array::from_fn(|_| {
            let entry = multiple.to_projective_niels();
            multiple = a2.add_projective_niels(&entry).to_extended();
            entry
        });
        let odd_b = &base_tables().odd;

        let mut acc = ProjectivePoint::IDENTITY;
        let mut i = top;
        loop {
            let mut sum = acc.double();
            let (da, db) = (a_naf[i], b_naf[i]);
            if da != 0 {
                let multiple = &odd_a[da.unsigned_abs() as usize / 2];
                sum = sum
                    .to_extended()
                    .add_projective_niels(&multiple.with_sign_of(da));
            }
            if db != 0 {
                let multiple = &odd_b[db.unsigned_abs() as usize / 2];
                sum = sum
                    .to_extended()
                    .add_affine_niels(&multiple.with_sign_of(db));
            }
            if i == 0 {
                return sum.to_extended();
            }
            // The next step is a doubling, which does not read T.
            acc = sum.to_projective();
            i -= 1;
        }
    }

    /// Equality check via compressed encodings.
    pub fn ct_eq(&self, other: &EdwardsPoint) -> bool {
        ct::eq(&self.compress(), &other.compress())
    }

    /// Checks the affine curve equation −x² + y² = 1 + d·x²·y² (test aid).
    pub fn is_on_curve(&self) -> bool {
        let (x, y) = self.to_affine();
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(xx);
        let rhs = Fe::ONE.add(D.mul(xx).mul(yy));
        lhs.ct_eq(rhs)
    }
}

/// Precomputed multiples of the base point, built once per process.
struct BaseTables {
    /// `radix16[i][j]` = (j+1)·256^i·B.
    radix16: [[AffineNiels; 8]; 32],
    /// `odd[j]` = (2j+1)·B.
    odd: [AffineNiels; 8],
}

fn base_tables() -> &'static BaseTables {
    static TABLES: OnceLock<BaseTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let b = EdwardsPoint::BASE;
        let mut row_base = b;
        let radix16 = std::array::from_fn(|_| {
            let mut multiple = row_base;
            let row = std::array::from_fn(|_| {
                let entry = multiple.to_affine_niels();
                multiple = multiple.add(&row_base);
                entry
            });
            for _ in 0..8 {
                row_base = row_base.double();
            }
            row
        });
        let b2 = b.double();
        let mut multiple = b;
        let odd = std::array::from_fn(|_| {
            let entry = multiple.to_affine_niels();
            multiple = multiple.add(&b2);
            entry
        });
        BaseTables { radix16, odd }
    })
}

/// An Ed25519 private signing key (seed + cached expansion).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    /// Reduced secret scalar a.
    a: Scalar,
    /// The deterministic-nonce prefix (second half of SHA-512(seed)).
    prefix: [u8; 32],
    /// Compressed public key A = [a]B.
    public: VerifyingKey,
}

/// An Ed25519 public verification key (compressed point).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerifyingKey(pub [u8; 32]);

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", crate::hex::encode(&self.0[..8]))
    }
}

/// A detached Ed25519 signature (R ‖ s).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({}…)", crate::hex::encode(&self.0[..8]))
    }
}

/// Clamps a seed hash into an Ed25519 secret scalar per RFC 8032.
fn clamp(mut h: [u8; 32]) -> [u8; 32] {
    h[0] &= 248;
    h[31] &= 127;
    h[31] |= 64;
    h
}

impl SigningKey {
    /// Derives a signing key deterministically from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        let h = Sha512::digest(seed);
        let scalar_bytes = clamp(h[..32].try_into().expect("32-byte half"));
        let a = Scalar::from_bytes_wide(&scalar_bytes);
        let prefix: [u8; 32] = h[32..].try_into().expect("32-byte half");
        let public_point = EdwardsPoint::mul_base(&a);
        SigningKey {
            seed: *seed,
            a,
            prefix,
            public: VerifyingKey(public_point.compress()),
        }
    }

    /// Generates a fresh key from an RNG.
    pub fn generate<R: crate::rng::RngCore>(rng: &mut R) -> SigningKey {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        SigningKey::from_seed(&seed)
    }

    /// Returns the 32-byte seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Returns the public verification key.
    pub fn public(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `msg`, producing a 64-byte detached signature.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = Scalar::from_bytes_wide(&h.finalize());
        let r_point = EdwardsPoint::mul_base(&r).compress();

        let mut h2 = Sha512::new();
        h2.update(&r_point);
        h2.update(&self.public.0);
        h2.update(msg);
        let k = Scalar::from_bytes_wide(&h2.finalize());

        let s = k.mul_add(self.a, r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

impl VerifyingKey {
    /// Parses a verifying key from its 32-byte encoding, validating that
    /// it decompresses to a curve point.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<VerifyingKey, CryptoError> {
        EdwardsPoint::decompress(bytes)?;
        Ok(VerifyingKey(*bytes))
    }

    /// Verifies `sig` over `msg`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadSignature`] when the equation does not hold,
    /// [`CryptoError::InvalidPoint`]/[`CryptoError::InvalidScalar`] for
    /// malformed encodings.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let r_bytes: [u8; 32] = sig.0[..32].try_into().expect("32-byte half");
        let s_bytes: [u8; 32] = sig.0[32..].try_into().expect("32-byte half");
        let s = Scalar::from_canonical_bytes(&s_bytes)?;
        let a_point = EdwardsPoint::decompress(&self.0)?;

        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.0);
        h.update(msg);
        let k = Scalar::from_bytes_wide(&h.finalize());

        // Check [s]B == R + [k]A by computing [k](−A) + [s]B and
        // comparing with the signature's R encoding.
        let r_check = EdwardsPoint::mul_double_base(&k, &a_point.neg(), &s).compress();
        if ct::eq(&r_check, &r_bytes) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::rng::{DetRng, RngCore};

    // ---- the reference: the bit-serial path the fast ones replaced -------

    impl EdwardsPoint {
        /// "add-2008-hwcd-3" written out directly on two extended points.
        fn reference_add(&self, other: &EdwardsPoint) -> EdwardsPoint {
            let a = self.y.sub(self.x).mul(other.y.sub(other.x));
            let b = self.y.add(self.x).mul(other.y.add(other.x));
            let c = self.t.mul(D2).mul(other.t);
            let d = self.z.add(self.z).mul(other.z);
            let e = b.sub(a);
            let f = d.sub(c);
            let g = d.add(c);
            let h = b.add(a);
            EdwardsPoint {
                x: e.mul(f),
                y: g.mul(h),
                z: f.mul(g),
                t: e.mul(h),
            }
        }

        /// "dbl-2008-hwcd" on an extended point.
        fn reference_double(&self) -> EdwardsPoint {
            let a = self.x.mul(self.x);
            let b = self.y.mul(self.y);
            let c = self.z.mul(self.z).mul_small(2);
            let d = a.neg();
            let xy = self.x.add(self.y);
            let e = xy.mul(xy).sub(a).sub(b);
            let g = d.add(b);
            let f = g.sub(c);
            let h = d.sub(b);
            EdwardsPoint {
                x: e.mul(f),
                y: g.mul(h),
                z: f.mul(g),
                t: e.mul(h),
            }
        }

        /// `[k]P` by MSB-first double-and-add.
        fn mul_scalar(&self, k: &Scalar) -> EdwardsPoint {
            let mut acc = EdwardsPoint::IDENTITY;
            for i in (0..256).rev() {
                acc = acc.reference_double();
                if k.bit(i) == 1 {
                    acc = acc.reference_add(self);
                }
            }
            acc
        }
    }

    /// Verification as it was before the Straus pass: two independent
    /// double-and-add multiplications and one addition.
    fn reference_verify(
        key: &VerifyingKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), CryptoError> {
        let r_bytes: [u8; 32] = sig.0[..32].try_into().unwrap();
        let s_bytes: [u8; 32] = sig.0[32..].try_into().unwrap();
        let s = Scalar::from_canonical_bytes(&s_bytes)?;
        let a_point = EdwardsPoint::decompress(&key.0)?;
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&key.0);
        h.update(msg);
        let k = Scalar::from_bytes_wide(&h.finalize());
        let sb = EdwardsPoint::BASE.mul_scalar(&s);
        let ka_neg = a_point.neg().mul_scalar(&k);
        if ct::eq(&sb.reference_add(&ka_neg).compress(), &r_bytes) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// 0, 1, L−1, 2^252, long runs of ones, then `random` seeded scalars.
    fn test_scalars(random: usize) -> Vec<Scalar> {
        let mut out = vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar([0x5812631a5cf5d3ec, 0x14def9dea2f79cd6, 0, 1 << 60]),
            Scalar([0, 0, 0, 1 << 60]),
            Scalar([u64::MAX, u64::MAX, u64::MAX, (1 << 60) - 1]),
            Scalar([u64::MAX << 7, u64::MAX, 0x0000_ffff_ffff_ffff, 0]),
            Scalar([0, u64::MAX, u64::MAX << 32, 0x0fff_ffff]),
            Scalar([0xffff_ffff_0000_ffff, 0, u64::MAX, 0x00ff_ff00_ffff_ff00]),
        ];
        let mut rng = DetRng::new(0xd15c);
        for _ in 0..random {
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            out.push(Scalar::from_bytes_wide(&wide));
        }
        out
    }

    #[test]
    fn constants_match_their_definitions() {
        // d·121666 = −121665, 2d = d + d.
        assert!(D
            .mul(Fe([121666, 0, 0, 0, 0]))
            .ct_eq(Fe([121665, 0, 0, 0, 0]).neg()));
        assert!(D2.ct_eq(D.add(D)));
        // B is the point with y = 4/5 and even x.
        let mut enc = [0x66u8; 32];
        enc[0] = 0x58;
        let b = EdwardsPoint::decompress(&enc).unwrap();
        assert!(b.x.ct_eq(EdwardsPoint::BASE.x));
        assert!(b.y.ct_eq(EdwardsPoint::BASE.y));
        assert!(b.t.ct_eq(EdwardsPoint::BASE.t));
        assert_eq!(EdwardsPoint::BASE.compress(), enc);
        assert!(std::mem::size_of::<BaseTables>() < 64 * 1024);
    }

    #[test]
    fn add_and_double_match_reference_formulas() {
        let b = EdwardsPoint::BASE;
        let mut p = b;
        let mut q = b.reference_double();
        for _ in 0..20 {
            assert!(p.add(&q).ct_eq(&p.reference_add(&q)));
            assert!(p.double().ct_eq(&p.reference_double()));
            assert!(p.add(&p).ct_eq(&p.double()));
            p = p.reference_add(&q);
            q = q.reference_double().reference_add(&b);
        }
    }

    #[test]
    fn fixed_base_matches_double_and_add() {
        for k in test_scalars(1000) {
            let fast = EdwardsPoint::mul_base(&k);
            assert!(fast.is_on_curve());
            assert_eq!(
                fast.compress(),
                EdwardsPoint::BASE.mul_scalar(&k).compress()
            );
        }
    }

    #[test]
    fn double_scalar_matches_double_and_add() {
        let scalars = test_scalars(1000);
        // A fresh variable base every few scalars, including B itself and
        // a point outside the prime-order subgroup.
        let torsion = EdwardsPoint::decompress(&small_order_encodings()[4]).unwrap();
        let mut a_point = EdwardsPoint::BASE;
        for (i, pair) in scalars.windows(2).enumerate() {
            let (a, b) = (pair[0], pair[1]);
            if i % 16 == 0 {
                a_point = EdwardsPoint::BASE.mul_scalar(&a);
                if i % 32 == 0 {
                    a_point = a_point.reference_add(&torsion);
                }
            }
            let expected = a_point
                .mul_scalar(&a)
                .reference_add(&EdwardsPoint::BASE.mul_scalar(&b));
            let fast = EdwardsPoint::mul_double_base(&a, &a_point, &b);
            assert_eq!(fast.compress(), expected.compress());
            assert!(fast.t.mul(fast.z).ct_eq(fast.x.mul(fast.y)));
        }
    }

    #[test]
    fn variable_base_alone_matches_double_and_add() {
        // The double-scalar path with one side switched off.
        let mut a_point = EdwardsPoint::BASE.reference_double();
        for k in test_scalars(1000) {
            let var = EdwardsPoint::mul_double_base(&k, &a_point, &Scalar::ZERO);
            assert_eq!(var.compress(), a_point.mul_scalar(&k).compress());
            let fixed = EdwardsPoint::mul_double_base(&Scalar::ZERO, &a_point, &k);
            assert_eq!(fixed.compress(), EdwardsPoint::mul_base(&k).compress());
            a_point = a_point.reference_add(&EdwardsPoint::BASE);
        }
    }

    #[test]
    fn base_point_is_on_curve() {
        assert!(EdwardsPoint::BASE.is_on_curve());
        assert!(EdwardsPoint::IDENTITY.is_on_curve());
    }

    #[test]
    fn double_matches_add() {
        let b = EdwardsPoint::BASE;
        assert!(b.double().ct_eq(&b.add(&b)));
        let b4 = b.double().double();
        assert!(b4.ct_eq(&b.add(&b).add(&b).add(&b)));
    }

    #[test]
    fn identity_laws() {
        let b = EdwardsPoint::BASE;
        let id = EdwardsPoint::IDENTITY;
        assert!(b.add(&id).ct_eq(&b));
        assert!(b.add(&b.neg()).ct_eq(&id));
    }

    // RFC 8032 §7.1 TEST 1: empty message.
    #[test]
    fn rfc8032_test1() {
        let seed = hex::decode_array::<32>(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(&key.public().0),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = key.sign(b"");
        assert_eq!(
            hex::encode(&sig.0),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        key.public().verify(b"", &sig).unwrap();
    }

    // RFC 8032 §7.1 TEST 2: one-byte message 0x72.
    #[test]
    fn rfc8032_test2() {
        let seed = hex::decode_array::<32>(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(&key.public().0),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = key.sign(&[0x72]);
        assert_eq!(
            hex::encode(&sig.0),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        key.public().verify(&[0x72], &sig).unwrap();
    }

    // RFC 8032 §7.1 TEST 3: two-byte message af82.
    #[test]
    fn rfc8032_test3() {
        let seed = hex::decode_array::<32>(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        )
        .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(&key.public().0),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let sig = key.sign(&[0xaf, 0x82]);
        assert_eq!(
            hex::encode(&sig.0),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        key.public().verify(&[0xaf, 0x82], &sig).unwrap();
    }

    // RFC 8032 §7.1 TEST 1024: a 1023-byte message.
    #[test]
    fn rfc8032_test1024() {
        let seed = hex::decode_array::<32>(
            "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
        )
        .unwrap();
        let msg = hex::decode(
            "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98\
             fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8\
             79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d\
             658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc\
             1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe\
             ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e\
             06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef\
             efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7\
             aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1\
             85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2\
             d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24\
             554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270\
             88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc\
             2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07\
             07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba\
             b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a\
             ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e\
             c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7\
             51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c\
             42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8\
             ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df\
             f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08\
             d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649\
             de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4\
             88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3\
             2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e\
             6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f\
             b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5\
             0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1\
             369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d\
             b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c\
             0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0",
        )
        .unwrap();
        assert_eq!(msg.len(), 1023);
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(&key.public().0),
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e"
        );
        let sig = key.sign(&msg);
        assert_eq!(
            hex::encode(&sig.0),
            "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
             aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03"
        );
        key.public().verify(&msg, &sig).unwrap();
    }

    // RFC 8032 §7.1 TEST SHA(abc): the message is SHA-512("abc").
    #[test]
    fn rfc8032_test_sha_abc() {
        let seed = hex::decode_array::<32>(
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
        )
        .unwrap();
        let msg = Sha512::digest(b"abc");
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            hex::encode(&key.public().0),
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf"
        );
        let sig = key.sign(&msg);
        assert_eq!(
            hex::encode(&sig.0),
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589\
             09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"
        );
        key.public().verify(&msg, &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let key = SigningKey::from_seed(&[1u8; 32]);
        let sig = key.sign(b"hello");
        assert_eq!(
            key.public().verify(b"hellO", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = SigningKey::from_seed(&[2u8; 32]);
        let mut sig = key.sign(b"hello");
        sig.0[5] ^= 1;
        assert!(key.public().verify(b"hello", &sig).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = SigningKey::from_seed(&[3u8; 32]);
        let k2 = SigningKey::from_seed(&[4u8; 32]);
        let sig = k1.sign(b"msg");
        assert!(k2.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn non_canonical_s_rejected() {
        let key = SigningKey::from_seed(&[5u8; 32]);
        let mut sig = key.sign(b"msg");
        // Force s ≥ L by setting high bits.
        sig.0[63] = 0xff;
        assert!(key.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn invalid_public_key_rejected() {
        // Roughly half of all y values are not on the curve; verify that
        // decompression actually rejects some small-y encodings.
        let mut rejected = 0;
        for y in 0u8..32 {
            let mut enc = [0u8; 32];
            enc[0] = y;
            if VerifyingKey::from_bytes(&enc).is_err() {
                rejected += 1;
            }
        }
        assert!(
            rejected > 5,
            "expected several invalid encodings, got {rejected}"
        );
    }

    #[test]
    fn decompress_compress_round_trip() {
        let b = EdwardsPoint::BASE;
        for k in 1u8..6 {
            let p = b.mul_scalar(&Scalar::from_bytes_wide(&[k]));
            let enc = p.compress();
            let q = EdwardsPoint::decompress(&enc).unwrap();
            assert!(p.ct_eq(&q));
            assert!(q.is_on_curve());
        }
    }

    #[test]
    fn deterministic_signatures() {
        let key = SigningKey::from_seed(&[6u8; 32]);
        assert_eq!(key.sign(b"x").0.to_vec(), key.sign(b"x").0.to_vec());
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = EdwardsPoint::BASE;
        let five = Scalar::from_bytes_wide(&[5]);
        let expected = b.add(&b).add(&b).add(&b).add(&b);
        assert!(b.mul_scalar(&five).ct_eq(&expected));
    }

    /// The eight points of order dividing 8, canonically encoded: orders
    /// 1, 2, 4, 4, 8, 8, 8, 8 (each pair differs in the sign of x).
    fn small_order_encodings() -> [[u8; 32]; 8] {
        [
            "0100000000000000000000000000000000000000000000000000000000000000",
            "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000080",
            "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
            "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
            "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
            "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
        ]
        .map(|enc| hex::decode_array::<32>(enc).unwrap())
    }

    #[test]
    fn small_order_keys_verify_exactly_as_the_reference_does() {
        let mut accepted = 0;
        let mut rng = DetRng::new(0x0dd);
        for (idx, enc) in small_order_encodings().iter().enumerate() {
            let point = EdwardsPoint::decompress(enc).unwrap();
            assert!(point.is_on_curve());
            let eight = point.double().double().double();
            assert!(eight.ct_eq(&EdwardsPoint::IDENTITY), "encoding {idx}");
            // Parsing accepts them (no small-order screening, as before).
            let key = VerifyingKey::from_bytes(enc).unwrap();

            // R = [r]B, s = r: valid exactly when [k]A vanishes, which a
            // small-order A makes likely. Both outcomes must agree.
            for _ in 0..24 {
                let mut wide = [0u8; 64];
                rng.fill_bytes(&mut wide);
                let r = Scalar::from_bytes_wide(&wide);
                let msg = rng.next_u64().to_le_bytes();
                let mut sig = [0u8; 64];
                sig[..32].copy_from_slice(&EdwardsPoint::mul_base(&r).compress());
                sig[32..].copy_from_slice(&r.to_bytes());
                let sig = Signature(sig);
                let fast = key.verify(&msg, &sig);
                assert_eq!(fast, reference_verify(&key, &msg, &sig), "encoding {idx}");
                accepted += fast.is_ok() as usize;
            }
        }
        // The identity accepts all 24; the others roughly 1/2, 1/4, 1/8.
        assert!(accepted > 24 && accepted < 24 * 8, "accepted {accepted}");
    }

    #[test]
    fn scalar_at_or_above_group_order_rejected() {
        let key = SigningKey::from_seed(&[8u8; 32]);
        let sig = key.sign(b"msg");
        let s = Scalar::from_canonical_bytes(&sig.0[32..].try_into().unwrap()).unwrap();
        // s + L is the same scalar mod L, but not canonical: add L's
        // limbs without reduction.
        const L_BYTES: [u8; 32] = [
            0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
            0xde, 0x14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
        ];
        let mut s_plus_l = [0u8; 32];
        let mut carry = 0u16;
        for i in 0..32 {
            let sum = s.to_bytes()[i] as u16 + L_BYTES[i] as u16 + carry;
            s_plus_l[i] = sum as u8;
            carry = sum >> 8;
        }
        assert_eq!(carry, 0);
        for s_bytes in [s_plus_l, L_BYTES, [0xff; 32]] {
            let mut bad = sig;
            bad.0[32..].copy_from_slice(&s_bytes);
            assert_eq!(
                key.public().verify(b"msg", &bad),
                Err(CryptoError::InvalidScalar)
            );
            assert_eq!(
                reference_verify(&key.public(), b"msg", &bad),
                Err(CryptoError::InvalidScalar)
            );
        }
    }

    #[test]
    fn non_canonical_point_encodings_behave_as_before() {
        // y ≥ p is reduced, not rejected (`Fe::from_bytes` semantics):
        // y = p + 1 ≡ 1 decodes to the identity, y = p ≡ 0 to (√−1, 0).
        let mut p_plus_1 = [0xffu8; 32];
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        let id = EdwardsPoint::decompress(&p_plus_1).unwrap();
        assert!(id.ct_eq(&EdwardsPoint::IDENTITY));
        let mut p = p_plus_1;
        p[0] = 0xed;
        let order4 = EdwardsPoint::decompress(&p).unwrap();
        assert_eq!(order4.compress(), [0u8; 32]);
        // 2^255 − 1 ≡ 18 is reduced too; whether it is on the curve is
        // decided after reduction.
        let mut y18 = [0u8; 32];
        y18[0] = 18;
        let mut all_ones = [0xffu8; 32];
        all_ones[31] = 0x7f;
        assert_eq!(
            EdwardsPoint::decompress(&all_ones).map(|p| p.compress()),
            EdwardsPoint::decompress(&y18).map(|p| p.compress())
        );

        // x = 0 with the sign bit set is rejected: y = 1, y = −1 and the
        // non-canonical y = p + 1.
        let [one, minus_one, ..] = small_order_encodings();
        for mut enc in [one, minus_one, p_plus_1] {
            enc[31] |= 0x80;
            assert_eq!(
                EdwardsPoint::decompress(&enc).err(),
                Some(CryptoError::InvalidPoint)
            );
            assert_eq!(
                VerifyingKey::from_bytes(&enc),
                Err(CryptoError::InvalidPoint)
            );
            let sig = SigningKey::from_seed(&[9u8; 32]).sign(b"m");
            assert_eq!(
                VerifyingKey(enc).verify(b"m", &sig),
                Err(CryptoError::InvalidPoint)
            );
        }
    }

    #[test]
    fn random_signatures_and_forgeries_agree_with_reference() {
        let mut rng = DetRng::new(0xfa57);
        for i in 0..60u8 {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            let key = SigningKey::from_seed(&seed);
            assert_eq!(
                key.public().0,
                EdwardsPoint::BASE.mul_scalar(&key.a).compress()
            );
            let msg = vec![i; i as usize];
            let mut sig = key.sign(&msg);
            assert_eq!(key.public().verify(&msg, &sig), Ok(()));
            assert_eq!(reference_verify(&key.public(), &msg, &sig), Ok(()));
            sig.0[(i as usize * 7) % 64] ^= 1 << (i % 8);
            assert_eq!(
                key.public().verify(&msg, &sig),
                reference_verify(&key.public(), &msg, &sig)
            );
        }
    }
}
