//! Lowercase hex encoding/decoding.
//!
//! KeyNote credentials carry keys and signatures in hex (`ed25519-hex:`
//! fields), so this tiny codec is used throughout the workspace.

use crate::CryptoError;

/// Encodes `data` as a lowercase hex string.
///
/// # Examples
///
/// ```
/// assert_eq!(discfs_crypto::hex::encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
    }
    s
}

/// Decodes a hex string (upper- or lowercase) into bytes.
///
/// # Errors
///
/// Returns [`CryptoError::BadHex`] on odd length or non-hex characters.
pub(crate) fn decode(s: &str) -> Result<Vec<u8>, CryptoError> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(CryptoError::BadHex);
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or(CryptoError::BadHex)?;
        let lo = (pair[1] as char).to_digit(16).ok_or(CryptoError::BadHex)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

/// Decodes hex into a fixed-size array.
///
/// # Errors
///
/// Returns [`CryptoError::BadHex`] for invalid hex and
/// [`CryptoError::BadLength`] when the decoded length is not `N`.
///
/// # Examples
///
/// ```
/// use discfs_crypto::{hex, CryptoError};
///
/// assert_eq!(hex::decode_array::<2>("DEad"), Ok([0xde, 0xad]));
/// assert_eq!(hex::decode_array::<2>("xyz"), Err(CryptoError::BadHex));
/// assert_eq!(hex::decode_array::<3>("dead"), Err(CryptoError::BadLength));
/// ```
pub fn decode_array<const N: usize>(s: &str) -> Result<[u8; N], CryptoError> {
    let v = decode(s)?;
    v.try_into().map_err(|_| CryptoError::BadLength)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn mixed_case_accepted() {
        assert_eq!(decode("AbCd").unwrap(), vec![0xab, 0xcd]);
    }

    #[test]
    fn odd_length_rejected() {
        assert_eq!(decode("abc"), Err(CryptoError::BadHex));
    }

    #[test]
    fn non_hex_rejected() {
        assert_eq!(decode("zz"), Err(CryptoError::BadHex));
    }

    #[test]
    fn decode_array_checks_length() {
        assert_eq!(decode_array::<2>("abcd").unwrap(), [0xab, 0xcd]);
        assert_eq!(decode_array::<3>("abcd"), Err(CryptoError::BadLength));
    }
}
