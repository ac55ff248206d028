//! Principals: the parties named in assertions.
//!
//! RFC 2704 principals are either cryptographic keys (which can sign
//! credentials and requests) or opaque identifiers (which can only be
//! referred to). Keys are written `<algorithm>:<encoding>`, e.g.
//! `ed25519-hex:3081de02…`.

use discfs_crypto::ed25519::VerifyingKey;
use discfs_crypto::hex;

use crate::KeyNoteError;

/// The algorithm tag for Ed25519 keys in hex encoding.
pub(crate) const ED25519_HEX: &str = "ed25519-hex";

/// A KeyNote principal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Principal {
    /// The special local-policy root; only valid as an authorizer.
    Policy,
    /// An Ed25519 public key.
    Key(VerifyingKey),
    /// An opaque (non-cryptographic) identifier.
    Opaque(String),
}

impl Principal {
    /// Parses a principal string as it appears inside an assertion.
    ///
    /// `"POLICY"` (case-sensitive, per RFC 2704) maps to
    /// [`Principal::Policy`]; strings with a recognized algorithm prefix
    /// become keys; anything else is an opaque identifier.
    ///
    /// # Errors
    ///
    /// Returns [`KeyNoteError::BadPrincipal`] when a key prefix is
    /// present but the payload is not a valid key encoding.
    pub(crate) fn parse(s: &str) -> Result<Principal, KeyNoteError> {
        if s == "POLICY" {
            return Ok(Principal::Policy);
        }
        if let Some(hex_part) = s.strip_prefix("ed25519-hex:") {
            let bytes = hex::decode_array::<32>(hex_part)
                .map_err(|_| KeyNoteError::BadPrincipal(s.to_string()))?;
            let key = VerifyingKey::from_bytes(&bytes)
                .map_err(|_| KeyNoteError::BadPrincipal(s.to_string()))?;
            return Ok(Principal::Key(key));
        }
        // Unknown algorithm prefixes are an error (a typo in a key tag
        // must not silently become an opaque name that never matches).
        if s.contains(':') && s.split(':').next().is_some_and(|p| p.ends_with("-hex")) {
            return Err(KeyNoteError::BadPrincipal(s.to_string()));
        }
        Ok(Principal::Opaque(s.to_string()))
    }

    /// Renders the principal in assertion syntax.
    pub(crate) fn to_text(&self) -> String {
        match self {
            Principal::Policy => "POLICY".to_string(),
            Principal::Key(k) => format!("{ED25519_HEX}:{}", hex::encode(&k.0)),
            Principal::Opaque(s) => s.clone(),
        }
    }

    /// Returns the verifying key if this principal is a key.
    pub fn as_key(&self) -> Option<&VerifyingKey> {
        match self {
            Principal::Key(k) => Some(k),
            _ => None,
        }
    }
}

impl std::fmt::Display for Principal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

/// Renders a verifying key as a principal string (`ed25519-hex:…`).
///
/// This is the form used in `Authorizer`/`Licensees` fields and as the
/// identity DisCFS logs for auditing.
pub fn key_principal(key: &VerifyingKey) -> String {
    format!("{ED25519_HEX}:{}", hex::encode(&key.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use discfs_crypto::ed25519::SigningKey;

    #[test]
    fn parse_policy() {
        assert_eq!(Principal::parse("POLICY").unwrap(), Principal::Policy);
        // Case-sensitive: lowercase is an opaque name.
        assert!(matches!(
            Principal::parse("policy").unwrap(),
            Principal::Opaque(_)
        ));
    }

    #[test]
    fn parse_key_round_trip() {
        let key = SigningKey::from_seed(&[9; 32]).public();
        let text = key_principal(&key);
        let parsed = Principal::parse(&text).unwrap();
        assert_eq!(parsed, Principal::Key(key));
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn parse_opaque() {
        let p = Principal::parse("alice@example.com").unwrap();
        assert_eq!(p, Principal::Opaque("alice@example.com".into()));
    }

    #[test]
    fn bad_key_hex_rejected() {
        assert!(Principal::parse("ed25519-hex:zznothex").is_err());
        assert!(Principal::parse("ed25519-hex:abcd").is_err()); // too short
    }

    #[test]
    fn unknown_key_algorithm_rejected() {
        assert!(Principal::parse("rsa-hex:abcdef").is_err());
    }

    #[test]
    fn as_key() {
        let key = SigningKey::from_seed(&[9; 32]).public();
        assert!(Principal::Key(key).as_key().is_some());
        assert!(Principal::Policy.as_key().is_none());
        assert!(Principal::Opaque("x".into()).as_key().is_none());
    }
}
