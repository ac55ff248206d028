//! The credential wallet: client-side storage for credentials.
//!
//! Credentials travel out of band — "Bob only has to issue the
//! appropriate credential and send it to Alice (e.g., via email)" (§1).
//! A wallet collects what arrives, serializes to a plain-text format
//! suitable for mail/files, and finds the relevant subset to submit for
//! a given handle.

use std::collections::HashSet;

use keynote::Assertion;

/// A client-side collection of credential texts.
#[derive(Debug, Clone, Default)]
pub struct Wallet {
    credentials: Vec<String>,
    /// [`Assertion::id`] of every held credential: the duplicate check
    /// is one probe, not a text comparison per credential.
    ids: HashSet<String>,
}

impl Wallet {
    /// An empty wallet.
    pub fn new() -> Wallet {
        Wallet::default()
    }

    /// Adds a credential if it parses and its signature verifies;
    /// silently skips exact duplicates.
    ///
    /// # Errors
    ///
    /// The underlying [`keynote::KeyNoteError`] for malformed or
    /// forged input — a wallet must not accumulate garbage.
    pub fn add(&mut self, credential: &str) -> Result<(), keynote::KeyNoteError> {
        let assertion = Assertion::parse(credential)?;
        assertion.verify()?;
        if self.ids.insert(assertion.id().to_string()) {
            self.credentials.push(credential.to_string());
        }
        Ok(())
    }

    /// All credentials, in insertion order.
    pub fn credentials(&self) -> &[String] {
        &self.credentials
    }

    /// Serializes the wallet to a mail-friendly text format.
    pub fn export_text(&self) -> String {
        let mut out = String::new();
        for cred in &self.credentials {
            out.push_str("-----BEGIN DISCFS CREDENTIAL-----\n");
            out.push_str(cred);
            if !cred.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("-----END DISCFS CREDENTIAL-----\n");
        }
        out
    }

    /// Parses an exported wallet (or a mail containing credential
    /// blocks), adding every valid credential. Returns how many were
    /// added; invalid blocks are skipped (mail gets mangled).
    pub fn import_text(&mut self, text: &str) -> usize {
        let mut added = 0;
        let mut current: Option<String> = None;
        for line in text.lines() {
            match line.trim() {
                "-----BEGIN DISCFS CREDENTIAL-----" => {
                    current = Some(String::new());
                }
                "-----END DISCFS CREDENTIAL-----" => {
                    if let Some(body) = current.take() {
                        if self.add(&body).is_ok() {
                            added += 1;
                        }
                    }
                }
                _ => {
                    if let Some(body) = &mut current {
                        body.push_str(line);
                        body.push('\n');
                    }
                }
            }
        }
        added
    }

    /// The credentials that mention `handle` in their conditions — the
    /// subset worth submitting for an access to that file — plus every
    /// credential that could be an upstream chain link (those whose
    /// conditions don't name handles at all are kept conservatively).
    pub fn relevant_for(&self, handle: &str) -> Vec<&String> {
        // Quoted, so "1.5" finds neither "1.50" nor "11.5".
        let needle = format!("\"{handle}\"");
        self.credentials
            .iter()
            .filter(|c| c.contains(&needle) || !c.contains("HANDLE"))
            .collect()
    }

    /// Summarizes holdings: one entry per credential.
    pub fn inventory(&self) -> Vec<WalletEntry> {
        self.credentials
            .iter()
            .filter_map(|c| {
                let assertion = Assertion::parse(c).ok()?;
                Some(WalletEntry {
                    comment: assertion.comment().map(|s| s.to_string()),
                })
            })
            .collect()
    }
}

/// One wallet inventory line.
#[derive(Debug, Clone)]
pub struct WalletEntry {
    /// The credential's comment, if any.
    pub comment: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::CredentialIssuer;
    use crate::perm::Perm;
    use discfs_crypto::ed25519::SigningKey;

    fn sample_credential(seed: u8, handle: &str) -> String {
        let issuer = SigningKey::from_seed(&[seed; 32]);
        let holder = SigningKey::from_seed(&[seed + 1; 32]);
        CredentialIssuer::new(&issuer)
            .holder(&holder.public())
            .grant_handle_string(handle, Perm::R)
            .comment(&format!("cred-{seed}-{handle}"))
            .issue()
    }

    #[test]
    fn add_and_dedup() {
        let mut wallet = Wallet::new();
        let cred = sample_credential(1, "5.1");
        wallet.add(&cred).unwrap();
        wallet.add(&cred).unwrap();
        assert_eq!(wallet.credentials().len(), 1);
    }

    #[test]
    fn garbage_rejected() {
        let mut wallet = Wallet::new();
        assert!(wallet.add("not a credential").is_err());
        let tampered = sample_credential(1, "5.1").replace("\"R\"", "\"RWX\"");
        assert!(wallet.add(&tampered).is_err());
        assert!(wallet.credentials().is_empty());
    }

    #[test]
    fn export_import_round_trip() {
        let mut wallet = Wallet::new();
        wallet.add(&sample_credential(1, "5.1")).unwrap();
        wallet.add(&sample_credential(3, "6.2")).unwrap();
        let text = wallet.export_text();

        let mut restored = Wallet::new();
        assert_eq!(restored.import_text(&text), 2);
        assert_eq!(restored.credentials(), wallet.credentials());
    }

    #[test]
    fn import_survives_surrounding_mail_noise() {
        let mut wallet = Wallet::new();
        wallet.add(&sample_credential(1, "5.1")).unwrap();
        let mail = format!(
            "From: bob@example.com\nSubject: access\n\nHi Alice,\nhere you go:\n\n{}\ncheers,\nbob\n",
            wallet.export_text()
        );
        let mut restored = Wallet::new();
        assert_eq!(restored.import_text(&mail), 1);
    }

    #[test]
    fn import_skips_corrupted_blocks() {
        let mut wallet = Wallet::new();
        wallet.add(&sample_credential(1, "5.1")).unwrap();
        let mut text = wallet.export_text();
        // Corrupt the signature line.
        text = text.replace("sig-ed25519", "sig-ed25518");
        let mut restored = Wallet::new();
        assert_eq!(restored.import_text(&text), 0);
    }

    #[test]
    fn relevant_selection() {
        let mut wallet = Wallet::new();
        wallet.add(&sample_credential(1, "5.1")).unwrap();
        wallet.add(&sample_credential(3, "6.2")).unwrap();
        let relevant = wallet.relevant_for("5.1");
        assert_eq!(relevant.len(), 1);
        assert!(relevant[0].contains("5.1"));
    }

    #[test]
    fn relevant_selection_matches_whole_handles() {
        let mut wallet = Wallet::new();
        for handle in ["1.5", "1.50", "11.5", "21.51"] {
            wallet.add(&sample_credential(1, handle)).unwrap();
        }
        let relevant = wallet.relevant_for("1.5");
        assert_eq!(relevant.len(), 1);
        assert!(relevant[0].contains("HANDLE == \"1.5\""));
        assert!(wallet.relevant_for("1").is_empty());
    }

    #[test]
    fn inventory_lists_metadata() {
        let mut wallet = Wallet::new();
        wallet.add(&sample_credential(1, "5.1")).unwrap();
        let inv = wallet.inventory();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].comment.as_deref(), Some("cred-1-5.1"));
    }
}
