//! Credential and key revocation.
//!
//! Paper §4.1: *"the traditional problem of credential revocation is
//! fairly straightforward to address: since the credentials related to
//! a specific file have to be examined by the DisCFS server where the
//! file is stored, revocation (especially if it is infrequent) can be
//! done by notifying the server about bad keys or credentials. If the
//! credentials are relatively short-lived, the server need only
//! remember such information for a short period of time."*
//!
//! This module is that server-side memory: sets of bad keys and bad
//! credential ids, each with an optional expiry (virtual time) after
//! which the entry can be forgotten — exactly the short-lived-credential
//! optimization the paper describes.

use std::collections::HashMap;

use discfs_crypto::ed25519::VerifyingKey;

/// The revocation list.
#[derive(Debug, Default)]
pub(crate) struct RevocationList {
    /// Bad keys → optional forget-after time.
    keys: HashMap<[u8; 32], Option<u64>>,
    /// Bad credential ids (see [`keynote::Assertion::id`]) → forget-after.
    credentials: HashMap<String, Option<u64>>,
}

impl RevocationList {
    /// An empty list.
    pub(crate) fn new() -> RevocationList {
        RevocationList::default()
    }

    /// Revokes every credential issued to or by `key`.
    ///
    /// `forget_after`: virtual time after which the server may drop the
    /// entry (pass the credential-lifetime horizon; `None` = keep
    /// forever).
    pub(crate) fn revoke_key(&mut self, key: &VerifyingKey, forget_after: Option<u64>) {
        self.keys.insert(key.0, forget_after);
    }

    /// Revokes a single credential by content id.
    pub(crate) fn revoke_credential(&mut self, id: &str, forget_after: Option<u64>) {
        self.credentials.insert(id.to_string(), forget_after);
    }

    /// Is this key revoked?
    pub(crate) fn is_key_revoked(&self, key: &VerifyingKey) -> bool {
        self.keys.contains_key(&key.0)
    }

    /// Is this credential revoked?
    pub(crate) fn is_credential_revoked(&self, id: &str) -> bool {
        self.credentials.contains_key(id)
    }

    /// Forgets entries whose horizon has passed (the "short period of
    /// time" bound from the paper).
    pub(crate) fn expire(&mut self, now: u64) {
        self.keys.retain(|_, t| t.is_none_or(|t| t > now));
        self.credentials.retain(|_, t| t.is_none_or(|t| t > now));
    }

    /// Number of live entries (keys + credentials).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.keys.len() + self.credentials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discfs_crypto::ed25519::SigningKey;

    fn key(seed: u8) -> VerifyingKey {
        SigningKey::from_seed(&[seed; 32]).public()
    }

    #[test]
    fn revoke_and_check_key() {
        let mut list = RevocationList::new();
        assert!(!list.is_key_revoked(&key(1)));
        list.revoke_key(&key(1), None);
        assert!(list.is_key_revoked(&key(1)));
        assert!(!list.is_key_revoked(&key(2)));
    }

    #[test]
    fn revoke_and_check_credential() {
        let mut list = RevocationList::new();
        list.revoke_credential("abc123", None);
        assert!(list.is_credential_revoked("abc123"));
        assert!(!list.is_credential_revoked("def456"));
    }

    #[test]
    fn expiry_forgets_old_entries() {
        let mut list = RevocationList::new();
        list.revoke_key(&key(1), Some(100));
        list.revoke_credential("short-lived", Some(50));
        list.revoke_credential("permanent", None);
        assert_eq!(list.len(), 3);

        list.expire(49);
        assert_eq!(list.len(), 3, "nothing expires before its horizon");

        list.expire(75);
        assert!(!list.is_credential_revoked("short-lived"));
        assert!(list.is_key_revoked(&key(1)));

        list.expire(1000);
        assert!(!list.is_key_revoked(&key(1)));
        assert!(
            list.is_credential_revoked("permanent"),
            "None = never forget"
        );
        assert_eq!(list.len(), 1);
    }
}
