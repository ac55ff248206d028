//! From-scratch cryptographic primitives for the DisCFS reproduction.
//!
//! The DisCFS paper relies on OpenBSD's crypto stack for three jobs:
//!
//! 1. **Credential signatures** — KeyNote assertions are signed with the
//!    issuer's public key (`dsa-hex:` keys in the paper's Figure 5). We
//!    provide [`ed25519`] as the modern discrete-log signature equivalent.
//! 2. **IKE key establishment** — the client/server channel is keyed with
//!    an authenticated Diffie-Hellman exchange. We provide [`x25519`]
//!    plus the [`hkdf`] key schedule.
//! 3. **IPsec ESP record protection** — we provide the
//!    [`chacha20poly1305`] AEAD.
//!
//! Everything is implemented in safe Rust with no external crypto
//! dependencies; every primitive is tested against its RFC/FIPS vectors.
//!
//! # Example
//!
//! ```
//! use discfs_crypto::ed25519::SigningKey;
//!
//! let key = SigningKey::from_seed(&[7u8; 32]);
//! let sig = key.sign(b"attack at dawn");
//! assert!(key.public().verify(b"attack at dawn", &sig).is_ok());
//! assert!(key.public().verify(b"attack at noon", &sig).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod chacha20;
pub mod chacha20poly1305;
pub mod ct;
pub mod ed25519;
pub mod field25519;
pub mod hex;
pub mod hkdf;
pub mod hmac;
mod poly1305;
pub mod rng;
pub mod scalar25519;
pub mod sha256;
pub mod sha512;
pub mod x25519;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature failed to verify.
    BadSignature,
    /// An encoded public key or point could not be decoded.
    InvalidPoint,
    /// An encoded scalar or private key was out of range.
    InvalidScalar,
    /// An AEAD ciphertext failed authentication.
    BadTag,
    /// An input had the wrong length for the primitive.
    BadLength,
    /// Hex input contained a non-hex character or odd length.
    BadHex,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::InvalidPoint => write!(f, "invalid curve point encoding"),
            CryptoError::InvalidScalar => write!(f, "invalid scalar encoding"),
            CryptoError::BadTag => write!(f, "AEAD authentication failed"),
            CryptoError::BadLength => write!(f, "input has invalid length"),
            CryptoError::BadHex => write!(f, "invalid hex encoding"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// A streaming hash function.
///
/// Implemented by [`sha256::Sha256`] and [`sha512::Sha512`];
/// [`hmac::Hmac`] is generic over it.
pub trait Digest: Clone {
    /// Digest length in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block length in bytes (needed by HMAC).
    const BLOCK_LEN: usize;

    /// Creates a fresh hash state.
    fn new() -> Self;
    /// Absorbs `data` into the state.
    fn update(&mut self, data: &[u8]);
    /// Consumes the state and returns the digest.
    fn finalize(self) -> Vec<u8>;

    /// One-shot convenience: hash `data` in a single call.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}
