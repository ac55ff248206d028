//! Credential issuing: the user-facing "grant access" API.
//!
//! This is the heart of the paper's usage model: *"if Alice wants to
//! read Bob's paper, Bob only has to issue the appropriate credential
//! and send it to Alice (e.g., via email)."* A credential is a signed
//! KeyNote assertion whose conditions gate on `app_domain == "DisCFS"`
//! and the file `HANDLE`, returning a permission value from the octal
//! lattice (Figure 5 of the paper). Issuers simply sign with their own
//! key; whether the resulting chain reaches the server's policy is
//! decided at access time by the compliance checker — no contact with
//! the server or an administrator is needed to delegate.

use discfs_crypto::ed25519::{SigningKey, VerifyingKey};
use keynote::AssertionBuilder;
use nfsv2::FHandle;

use crate::perm::Perm;

/// Extra conditions attached to a grant.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Restrictions {
    /// Valid only while the server's virtual time is below this value.
    pub(crate) expires_at: Option<u64>,
    /// Valid only when the server's hour-of-day lies in `[start, end)`.
    /// (Paper §3.1: "the access policy can consider factors such as
    /// time-of-day, so that leisure-related files may not be available
    /// during office hours.")
    pub(crate) hours: Option<(u32, u32)>,
}

/// Builder for DisCFS credentials.
///
/// # Examples
///
/// ```
/// use discfs::{CredentialIssuer, Perm};
/// use discfs_crypto::ed25519::SigningKey;
/// use nfsv2::FHandle;
///
/// let bob = SigningKey::from_seed(&[2; 32]);
/// let alice = SigningKey::from_seed(&[3; 32]);
/// let handle = FHandle::pack(1, 666240, 1);
///
/// let cred = CredentialIssuer::new(&bob)
///     .holder(&alice.public())
///     .grant(&handle, Perm::R)
///     .comment("bob's paper, read-only for alice")
///     .issue();
/// assert!(cred.contains("Conditions:"));
/// keynote::Assertion::parse(&cred).unwrap().verify().unwrap();
/// ```
pub struct CredentialIssuer<'a> {
    issuer: &'a SigningKey,
    holders: Vec<VerifyingKey>,
    licensees_expr: Option<String>,
    grants: Vec<(String, Perm)>,
    restrictions: Restrictions,
    comment: Option<String>,
}

impl<'a> CredentialIssuer<'a> {
    /// Starts a credential signed by `issuer`.
    pub fn new(issuer: &'a SigningKey) -> CredentialIssuer<'a> {
        CredentialIssuer {
            issuer,
            holders: Vec::new(),
            licensees_expr: None,
            grants: Vec::new(),
            restrictions: Restrictions::default(),
            comment: None,
        }
    }

    /// Adds a holder key (multiple holders are OR-ed: any may use it).
    pub fn holder(mut self, key: &VerifyingKey) -> Self {
        self.holders.push(*key);
        self
    }

    /// Overrides the licensees structure entirely (e.g. a `k-of`
    /// threshold among co-authors).
    pub fn licensees_expr(mut self, expr: &str) -> Self {
        self.licensees_expr = Some(expr.to_string());
        self
    }

    /// Grants `perms` on `handle` (repeatable: one credential can cover
    /// a whole document set, like Bob's product literature in §2).
    pub fn grant(mut self, handle: &FHandle, perms: Perm) -> Self {
        self.grants.push((handle.credential_string(), perms));
        self
    }

    /// Grants by raw handle string (for pre-serialized handles).
    pub fn grant_handle_string(mut self, handle: &str, perms: Perm) -> Self {
        self.grants.push((handle.to_string(), perms));
        self
    }

    /// Expires the credential at virtual time `t`.
    pub fn expires_at(mut self, t: u64) -> Self {
        self.restrictions.expires_at = Some(t);
        self
    }

    /// Restricts validity to hours `[start, end)`.
    pub fn valid_hours(mut self, start: u32, end: u32) -> Self {
        self.restrictions.hours = Some((start, end));
        self
    }

    /// Attaches a human-readable comment (like `"testdir"` in Figure 5).
    pub fn comment(mut self, text: &str) -> Self {
        self.comment = Some(text.to_string());
        self
    }

    /// Renders the conditions program.
    fn conditions(&self) -> String {
        let mut guards = Vec::new();
        if let Some(expiry) = self.restrictions.expires_at {
            guards.push(format!("(time < {expiry})"));
        }
        if let Some((start, end)) = self.restrictions.hours {
            guards.push(format!("(hour >= {start} && hour < {end})"));
        }
        let extra = if guards.is_empty() {
            String::new()
        } else {
            format!(" && {}", guards.join(" && "))
        };
        self.grants
            .iter()
            .map(|(handle, perms)| {
                format!(
                    "(app_domain == \"DisCFS\") && (HANDLE == \"{handle}\"){extra} -> \"{}\";",
                    perms.value_string()
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Signs and returns the credential text.
    ///
    /// # Panics
    ///
    /// Panics when no holder and no grant were specified — an empty
    /// credential is always an authoring bug.
    pub fn issue(self) -> String {
        self.builder().sign(self.issuer)
    }

    fn builder(&self) -> AssertionBuilder {
        assert!(
            !self.holders.is_empty() || self.licensees_expr.is_some(),
            "credential needs at least one holder"
        );
        assert!(
            !self.grants.is_empty(),
            "credential needs at least one grant"
        );
        let mut builder = AssertionBuilder::new();
        if let Some(comment) = &self.comment {
            builder = builder.comment(comment);
        }
        match &self.licensees_expr {
            Some(expr) => builder = builder.licensees_expr(expr),
            None => {
                for holder in &self.holders {
                    builder = builder.licensee_key(holder);
                }
            }
        }
        builder.conditions(&self.conditions())
    }
}

/// Builds the administrator's root policy: trust `roots` uncondition-
/// ally in the `DisCFS` application domain.
///
/// The server key must be among the roots so that the credentials it
/// auto-issues at CREATE/MKDIR (paper §5's added procedures) form valid
/// chains.
pub fn root_policy(roots: &[VerifyingKey]) -> String {
    let mut builder = AssertionBuilder::new().comment("DisCFS administrator root policy");
    for root in roots {
        builder = builder.licensee_key(root);
    }
    builder
        .conditions("app_domain == \"DisCFS\" -> \"RWX\";")
        .policy()
}

#[cfg(test)]
mod tests {
    use super::*;
    use keynote::{Assertion, Session};

    fn admin() -> SigningKey {
        SigningKey::from_seed(&[1; 32])
    }
    fn bob() -> SigningKey {
        SigningKey::from_seed(&[2; 32])
    }
    fn alice() -> SigningKey {
        SigningKey::from_seed(&[3; 32])
    }

    fn query(
        policy: &str,
        creds: &[String],
        requester: &SigningKey,
        handle: &str,
        hour: u32,
        time: u64,
    ) -> Perm {
        let mut session = Session::new(&Perm::VALUE_SET);
        session.add_policy(policy).unwrap();
        for cred in creds {
            session.add_credential(cred).unwrap();
        }
        session.set_attribute("app_domain", "DisCFS");
        session.set_attribute("HANDLE", handle);
        session.set_attribute("hour", &hour.to_string());
        session.set_attribute("time", &time.to_string());
        session.add_requester_key(&requester.public());
        Perm::from_value_string(session.query().unwrap().as_str())
    }

    #[test]
    fn basic_grant_verifies_and_evaluates() {
        let handle = FHandle::pack(1, 666240, 1);
        let cred = CredentialIssuer::new(&admin())
            .holder(&bob().public())
            .grant(&handle, Perm::RWX)
            .comment("testdir")
            .issue();
        Assertion::parse(&cred).unwrap().verify().unwrap();
        let policy = root_policy(&[admin().public()]);
        assert_eq!(
            query(
                &policy,
                std::slice::from_ref(&cred),
                &bob(),
                "666240.1",
                12,
                0
            ),
            Perm::RWX
        );
        // Wrong handle: nothing.
        assert_eq!(
            query(&policy, &[cred], &bob(), "666240.2", 12, 0),
            Perm::NONE
        );
    }

    #[test]
    fn delegation_chain_narrows() {
        let handle = FHandle::pack(1, 42, 1);
        let policy = root_policy(&[admin().public()]);
        let to_bob = CredentialIssuer::new(&admin())
            .holder(&bob().public())
            .grant(&handle, Perm::RW)
            .issue();
        let to_alice = CredentialIssuer::new(&bob())
            .holder(&alice().public())
            .grant(&handle, Perm::R)
            .issue();
        let creds = vec![to_bob, to_alice];
        assert_eq!(query(&policy, &creds, &alice(), "42.1", 12, 0), Perm::R);
        // Alice cannot exceed what Bob delegated, even if Bob tries to
        // grant more than he holds.
        let to_carol_too_much = CredentialIssuer::new(&bob())
            .holder(&alice().public())
            .grant(&handle, Perm::RWX)
            .issue();
        let creds = vec![creds[0].clone(), to_carol_too_much];
        assert_eq!(query(&policy, &creds, &alice(), "42.1", 12, 0), Perm::RW);
    }

    #[test]
    fn multi_file_credential() {
        let h1 = FHandle::pack(1, 10, 1);
        let h2 = FHandle::pack(1, 11, 1);
        let policy = root_policy(&[admin().public()]);
        let cred = CredentialIssuer::new(&admin())
            .holder(&bob().public())
            .grant(&h1, Perm::R)
            .grant(&h2, Perm::RW)
            .issue();
        let creds = vec![cred];
        assert_eq!(query(&policy, &creds, &bob(), "10.1", 12, 0), Perm::R);
        assert_eq!(query(&policy, &creds, &bob(), "11.1", 12, 0), Perm::RW);
        assert_eq!(query(&policy, &creds, &bob(), "12.1", 12, 0), Perm::NONE);
    }

    #[test]
    fn expiry_condition() {
        let handle = FHandle::pack(1, 5, 1);
        let policy = root_policy(&[admin().public()]);
        let cred = CredentialIssuer::new(&admin())
            .holder(&bob().public())
            .grant(&handle, Perm::R)
            .expires_at(1000)
            .issue();
        let creds = vec![cred];
        assert_eq!(query(&policy, &creds, &bob(), "5.1", 12, 999), Perm::R);
        assert_eq!(query(&policy, &creds, &bob(), "5.1", 12, 1000), Perm::NONE);
        assert_eq!(query(&policy, &creds, &bob(), "5.1", 12, 5000), Perm::NONE);
    }

    #[test]
    fn office_hours_condition() {
        let handle = FHandle::pack(1, 6, 1);
        let policy = root_policy(&[admin().public()]);
        // Leisure files: available only OUTSIDE office hours would be
        // two ranges; here grant within 17–23 only.
        let cred = CredentialIssuer::new(&admin())
            .holder(&bob().public())
            .grant(&handle, Perm::R)
            .valid_hours(17, 23)
            .issue();
        let creds = vec![cred];
        assert_eq!(query(&policy, &creds, &bob(), "6.1", 12, 0), Perm::NONE);
        assert_eq!(query(&policy, &creds, &bob(), "6.1", 17, 0), Perm::R);
        assert_eq!(query(&policy, &creds, &bob(), "6.1", 22, 0), Perm::R);
        assert_eq!(query(&policy, &creds, &bob(), "6.1", 23, 0), Perm::NONE);
    }

    #[test]
    fn multiple_holders_any_may_use() {
        let handle = FHandle::pack(1, 7, 1);
        let policy = root_policy(&[admin().public()]);
        let cred = CredentialIssuer::new(&admin())
            .holder(&bob().public())
            .holder(&alice().public())
            .grant(&handle, Perm::RW)
            .issue();
        let creds = vec![cred];
        assert_eq!(query(&policy, &creds, &bob(), "7.1", 12, 0), Perm::RW);
        assert_eq!(query(&policy, &creds, &alice(), "7.1", 12, 0), Perm::RW);
    }

    #[test]
    fn threshold_licensees_via_expr() {
        let handle = FHandle::pack(1, 8, 1);
        let policy = root_policy(&[admin().public()]);
        let expr = format!(
            "2-of(\"{}\", \"{}\")",
            keynote::key_principal(&bob().public()),
            keynote::key_principal(&alice().public()),
        );
        let cred = CredentialIssuer::new(&admin())
            .licensees_expr(&expr)
            .grant(&handle, Perm::RW)
            .issue();

        let mut session = Session::new(&Perm::VALUE_SET);
        session.add_policy(&policy).unwrap();
        session.add_credential(&cred).unwrap();
        session.set_attribute("app_domain", "DisCFS");
        session.set_attribute("HANDLE", "8.1");
        session.add_requester_key(&bob().public());
        assert!(
            session.query().unwrap().is_min(),
            "one signature insufficient"
        );
        session.add_requester_key(&alice().public());
        assert_eq!(session.query().unwrap().as_str(), "RW");
    }

    #[test]
    #[should_panic(expected = "at least one holder")]
    fn empty_holder_rejected() {
        let handle = FHandle::pack(1, 1, 1);
        CredentialIssuer::new(&admin())
            .grant(&handle, Perm::R)
            .issue();
    }

    #[test]
    #[should_panic(expected = "at least one grant")]
    fn empty_grant_rejected() {
        CredentialIssuer::new(&admin())
            .holder(&bob().public())
            .issue();
    }
}
