//! Compliance checking: the KeyNote query engine.
//!
//! A [`Session`] mirrors the keynote(3) library interface the paper's
//! prototype used: create a session with a compliance value set, add
//! policy and credential assertions, describe the proposed action as
//! attributes, name the requesting principals, and query.
//!
//! The query computes, for the `POLICY` principal, the *support value*
//! of the delegation graph: a principal's support is `_MAX_TRUST` if it
//! signed the request, otherwise the maximum over assertions it
//! authorized of `min(conditions value, licensees value)`, where
//! licensee expressions combine sub-values with `min` (`&&`), `max`
//! (`||`) and k-th largest (`k-of`). Delegation chains therefore weaken
//! monotonically: no credential can grant more than its issuer holds —
//! the property that makes user-to-user delegation safe in DisCFS.

use std::collections::{HashMap, HashSet};

use discfs_crypto::ed25519::VerifyingKey;

use crate::assertion::Assertion;
use crate::ast::LicenseeExpr;
use crate::eval::{eval_program, EvalCtx};
use crate::values::ValueSet;
use crate::{KeyNoteError, Principal};

/// The result of a query: one value from the session's ordered set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplianceValue {
    index: usize,
    text: String,
}

impl ComplianceValue {
    /// The value string (e.g. `"RW"`).
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The value's position in the ordered set (0 = `_MIN_TRUST`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// True when the result is `_MIN_TRUST` (no authority at all).
    pub fn is_min(&self) -> bool {
        self.index == 0
    }
}

impl std::fmt::Display for ComplianceValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// A KeyNote session: assertions + action description + requesters.
#[derive(Clone)]
pub struct Session {
    values: ValueSet,
    policies: Vec<Assertion>,
    credentials: Vec<Assertion>,
    attributes: HashMap<String, String>,
    requesters: HashSet<Principal>,
}

impl Session {
    /// Creates a session with the given ordered compliance value set
    /// (minimum trust first).
    pub fn new<S: AsRef<str>>(values: &[S]) -> Session {
        Session::with_value_set(ValueSet::new(values))
    }

    /// Creates a session from a pre-built [`ValueSet`].
    pub fn with_value_set(values: ValueSet) -> Session {
        Session {
            values,
            policies: Vec::new(),
            credentials: Vec::new(),
            attributes: HashMap::new(),
            requesters: HashSet::new(),
        }
    }

    /// The session's value set.
    pub fn values(&self) -> &ValueSet {
        &self.values
    }

    /// Adds an unsigned local policy assertion (authorizer `POLICY`).
    ///
    /// # Errors
    ///
    /// Parse errors, or [`KeyNoteError::Syntax`] if the authorizer is
    /// not `POLICY` (signed credentials go through
    /// [`Session::add_credential`]).
    pub fn add_policy(&mut self, text: &str) -> Result<(), KeyNoteError> {
        let assertion = Assertion::parse(text)?;
        if assertion.authorizer() != &Principal::Policy {
            return Err(KeyNoteError::Syntax(
                "policy assertions must have Authorizer: \"POLICY\"".into(),
            ));
        }
        self.policies.push(assertion);
        Ok(())
    }

    /// Adds a signed credential after verifying its signature.
    ///
    /// # Errors
    ///
    /// Parse errors, [`KeyNoteError::AuthorizerNotAKey`], or
    /// [`KeyNoteError::BadSignature`].
    pub fn add_credential(&mut self, text: &str) -> Result<(), KeyNoteError> {
        self.add_assertion(Assertion::parse(text)?)
    }

    /// Adds an already-parsed signed credential after verifying its
    /// signature — for callers that had to inspect the assertion first
    /// (DisCFS screens it against the revocation list) and should not
    /// pay for a second parse.
    ///
    /// # Errors
    ///
    /// [`KeyNoteError::AuthorizerNotAKey`] or
    /// [`KeyNoteError::BadSignature`].
    pub fn add_assertion(&mut self, assertion: Assertion) -> Result<(), KeyNoteError> {
        assertion.verify()?;
        self.credentials.push(assertion);
        Ok(())
    }

    /// The credentials currently in the session.
    pub fn credentials(&self) -> &[Assertion] {
        &self.credentials
    }

    /// Number of policy assertions.
    pub fn policy_count(&self) -> usize {
        self.policies.len()
    }

    /// Drops credentials for which `keep` returns false (used by the
    /// DisCFS revocation path).
    pub fn retain_credentials<F: FnMut(&Assertion) -> bool>(&mut self, keep: F) {
        self.credentials.retain(keep);
    }

    /// Sets an action attribute (overwriting any previous value).
    pub fn set_attribute(&mut self, name: &str, value: &str) {
        self.attributes.insert(name.to_string(), value.to_string());
    }

    /// Removes all action attributes.
    pub fn clear_attributes(&mut self) {
        self.attributes.clear();
    }

    /// Adds a requesting principal (`_ACTION_AUTHORIZERS` member).
    pub fn add_requester(&mut self, principal: Principal) {
        self.requesters.insert(principal);
    }

    /// Convenience: adds a key requester.
    pub fn add_requester_key(&mut self, key: &VerifyingKey) {
        self.requesters.insert(Principal::Key(*key));
    }

    /// Removes all requesters.
    pub fn clear_requesters(&mut self) {
        self.requesters.clear();
    }

    /// Runs the compliance check.
    ///
    /// # Errors
    ///
    /// [`KeyNoteError::NoPolicy`] when no policy assertions exist; a
    /// session with policies always yields a value (possibly
    /// `_MIN_TRUST`).
    pub fn query(&self) -> Result<ComplianceValue, KeyNoteError> {
        if self.policies.is_empty() {
            return Err(KeyNoteError::NoPolicy);
        }

        // Group assertions by authorizer.
        let mut by_authorizer: HashMap<&Principal, Vec<&Assertion>> = HashMap::new();
        for a in self.policies.iter().chain(self.credentials.iter()) {
            by_authorizer.entry(a.authorizer()).or_default().push(a);
        }

        // Special attributes per RFC 2704 §3.
        let mut requester_names: Vec<String> =
            self.requesters.iter().map(|p| p.to_text()).collect();
        requester_names.sort();
        let action_authorizers = requester_names.join(",");
        let values_attr = self.values.values_attribute();
        let min_attr = self.values.min_value().to_string();
        let max_attr = self.values.max_value().to_string();

        let lookup = move |name: &str| -> Option<String> {
            match name {
                "_MIN_TRUST" => Some(min_attr.clone()),
                "_MAX_TRUST" => Some(max_attr.clone()),
                "_VALUES" => Some(values_attr.clone()),
                "_ACTION_AUTHORIZERS" => Some(action_authorizers.clone()),
                other => self.attributes.get(other).cloned(),
            }
        };
        let ctx = EvalCtx {
            attrs: &lookup,
            values: &self.values,
        };

        let mut memo: HashMap<Principal, Option<usize>> = HashMap::new();
        let index = self.support(&Principal::Policy, &by_authorizer, &ctx, &mut memo);
        Ok(ComplianceValue {
            index,
            text: self.values.value_at(index).to_string(),
        })
    }

    /// Computes a principal's support value by depth-first traversal of
    /// the delegation graph. `memo` holds `None` while a principal is
    /// on the current path (cycles contribute `_MIN_TRUST`).
    fn support(
        &self,
        principal: &Principal,
        by_authorizer: &HashMap<&Principal, Vec<&Assertion>>,
        ctx: &EvalCtx<'_>,
        memo: &mut HashMap<Principal, Option<usize>>,
    ) -> usize {
        if self.requesters.contains(principal) {
            return self.values.max_index();
        }
        match memo.get(principal) {
            Some(Some(v)) => return *v,
            Some(None) => return self.values.min_index(), // cycle
            None => {}
        }
        memo.insert(principal.clone(), None);

        let mut best = self.values.min_index();
        if let Some(assertions) = by_authorizer.get(principal) {
            for assertion in assertions {
                let lic_value = match assertion.licensees() {
                    Some(expr) => self.eval_licensees(expr, by_authorizer, ctx, memo),
                    None => self.values.min_index(),
                };
                if lic_value == self.values.min_index() {
                    continue;
                }
                let cond_value = match assertion.conditions() {
                    Some(program) => eval_program(program, ctx),
                    None => self.values.max_index(),
                };
                best = best.max(lic_value.min(cond_value));
            }
        }
        memo.insert(principal.clone(), Some(best));
        best
    }

    fn eval_licensees(
        &self,
        expr: &LicenseeExpr,
        by_authorizer: &HashMap<&Principal, Vec<&Assertion>>,
        ctx: &EvalCtx<'_>,
        memo: &mut HashMap<Principal, Option<usize>>,
    ) -> usize {
        match expr {
            LicenseeExpr::Principal(p) => self.support(p, by_authorizer, ctx, memo),
            LicenseeExpr::And(a, b) => self
                .eval_licensees(a, by_authorizer, ctx, memo)
                .min(self.eval_licensees(b, by_authorizer, ctx, memo)),
            LicenseeExpr::Or(a, b) => self
                .eval_licensees(a, by_authorizer, ctx, memo)
                .max(self.eval_licensees(b, by_authorizer, ctx, memo)),
            LicenseeExpr::KOf(k, subs) => {
                let mut values: Vec<usize> = subs
                    .iter()
                    .map(|s| self.eval_licensees(s, by_authorizer, ctx, memo))
                    .collect();
                values.sort_unstable_by(|a, b| b.cmp(a));
                // k ≥ 1 and k ≤ len are enforced at parse time.
                values[(*k as usize) - 1]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::AssertionBuilder;
    use discfs_crypto::ed25519::SigningKey;

    const PERMS: [&str; 8] = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"];

    fn admin() -> SigningKey {
        SigningKey::from_seed(&[1; 32])
    }
    fn bob() -> SigningKey {
        SigningKey::from_seed(&[2; 32])
    }
    fn alice() -> SigningKey {
        SigningKey::from_seed(&[3; 32])
    }

    fn admin_root_policy() -> String {
        AssertionBuilder::new()
            .licensee_key(&admin().public())
            .policy()
    }

    fn discfs_cred(issuer: &SigningKey, holder: &SigningKey, handle: &str, perm: &str) -> String {
        AssertionBuilder::new()
            .licensee_key(&holder.public())
            .conditions(&format!(
                "(app_domain == \"DisCFS\") && (HANDLE == \"{handle}\") -> \"{perm}\";"
            ))
            .sign(issuer)
    }

    fn discfs_session(handle: &str) -> Session {
        let mut s = Session::new(&PERMS);
        s.add_policy(&admin_root_policy()).unwrap();
        s.set_attribute("app_domain", "DisCFS");
        s.set_attribute("HANDLE", handle);
        s
    }

    #[test]
    fn direct_grant() {
        let mut s = discfs_session("666240");
        s.add_credential(&discfs_cred(&admin(), &bob(), "666240", "RWX"))
            .unwrap();
        s.add_requester_key(&bob().public());
        assert_eq!(s.query().unwrap().as_str(), "RWX");
    }

    #[test]
    fn no_credential_no_access() {
        let mut s = discfs_session("666240");
        s.add_requester_key(&bob().public());
        assert!(s.query().unwrap().is_min());
    }

    #[test]
    fn wrong_handle_no_access() {
        let mut s = discfs_session("111");
        s.add_credential(&discfs_cred(&admin(), &bob(), "666240", "RWX"))
            .unwrap();
        s.add_requester_key(&bob().public());
        assert!(s.query().unwrap().is_min());
    }

    #[test]
    fn figure1_delegation_chain() {
        // Paper Figure 1: administrator → Bob (RW) → Alice (R).
        let mut s = discfs_session("42");
        s.add_credential(&discfs_cred(&admin(), &bob(), "42", "RW"))
            .unwrap();
        s.add_credential(&discfs_cred(&bob(), &alice(), "42", "R"))
            .unwrap();
        s.add_requester_key(&alice().public());
        assert_eq!(s.query().unwrap().as_str(), "R");
    }

    #[test]
    fn chain_cannot_amplify() {
        // Bob holds R only, delegates "RWX" to Alice: chain min caps at R.
        let mut s = discfs_session("42");
        s.add_credential(&discfs_cred(&admin(), &bob(), "42", "R"))
            .unwrap();
        s.add_credential(&discfs_cred(&bob(), &alice(), "42", "RWX"))
            .unwrap();
        s.add_requester_key(&alice().public());
        assert_eq!(s.query().unwrap().as_str(), "R");
    }

    #[test]
    fn missing_middle_link_breaks_chain() {
        // Alice presents only Bob's credential; admin→Bob link absent.
        let mut s = discfs_session("42");
        s.add_credential(&discfs_cred(&bob(), &alice(), "42", "R"))
            .unwrap();
        s.add_requester_key(&alice().public());
        assert!(s.query().unwrap().is_min());
    }

    #[test]
    fn requester_must_sign_request() {
        // Bob has a credential but Alice is the requester.
        let mut s = discfs_session("42");
        s.add_credential(&discfs_cred(&admin(), &bob(), "42", "RWX"))
            .unwrap();
        s.add_requester_key(&alice().public());
        assert!(s.query().unwrap().is_min());
    }

    #[test]
    fn arbitrary_chain_length() {
        // The paper contrasts with Exokernel's 8-level limit: build a
        // 12-link chain and verify it still works.
        let mut s = discfs_session("7");
        let mut keys = vec![admin()];
        for i in 0..12 {
            keys.push(SigningKey::from_seed(&[10 + i as u8; 32]));
        }
        for w in keys.windows(2) {
            s.add_credential(&discfs_cred(&w[0], &w[1], "7", "R"))
                .unwrap();
        }
        s.add_requester_key(&keys.last().unwrap().public());
        assert_eq!(s.query().unwrap().as_str(), "R");
    }

    #[test]
    fn threshold_licensees() {
        // 2-of(bob, alice, carol) must sign together.
        let carol = SigningKey::from_seed(&[4; 32]);
        let expr = format!(
            "2-of(\"{}\", \"{}\", \"{}\")",
            crate::key_principal(&bob().public()),
            crate::key_principal(&alice().public()),
            crate::key_principal(&carol.public()),
        );
        let cred = AssertionBuilder::new()
            .licensees_expr(&expr)
            .conditions("(app_domain == \"DisCFS\") -> \"RW\";")
            .sign(&admin());

        let mut s = Session::new(&PERMS);
        s.add_policy(&admin_root_policy()).unwrap();
        s.set_attribute("app_domain", "DisCFS");
        s.add_credential(&cred).unwrap();

        s.add_requester_key(&bob().public());
        assert!(s.query().unwrap().is_min(), "one signer is not enough");

        s.add_requester_key(&alice().public());
        assert_eq!(s.query().unwrap().as_str(), "RW", "two signers suffice");
    }

    #[test]
    fn and_licensees_require_both() {
        let expr = format!(
            "\"{}\" && \"{}\"",
            crate::key_principal(&bob().public()),
            crate::key_principal(&alice().public()),
        );
        let cred = AssertionBuilder::new()
            .licensees_expr(&expr)
            .conditions("true -> \"R\";")
            .sign(&admin());
        let mut s = Session::new(&PERMS);
        s.add_policy(&admin_root_policy()).unwrap();
        s.add_credential(&cred).unwrap();
        s.add_requester_key(&bob().public());
        assert!(s.query().unwrap().is_min());
        s.add_requester_key(&alice().public());
        assert_eq!(s.query().unwrap().as_str(), "R");
    }

    #[test]
    fn multiple_credentials_max_wins() {
        let mut s = discfs_session("9");
        s.add_credential(&discfs_cred(&admin(), &bob(), "9", "W"))
            .unwrap();
        s.add_credential(&discfs_cred(&admin(), &bob(), "9", "RX"))
            .unwrap();
        s.add_requester_key(&bob().public());
        // max(W, RX) in the linear order is RX.
        assert_eq!(s.query().unwrap().as_str(), "RX");
    }

    #[test]
    fn cycle_terminates() {
        // bob delegates to alice, alice delegates back to bob; neither
        // signed the request and neither has root support.
        let mut s = discfs_session("5");
        s.add_credential(&discfs_cred(&bob(), &alice(), "5", "R"))
            .unwrap();
        s.add_credential(&discfs_cred(&alice(), &bob(), "5", "R"))
            .unwrap();
        s.add_requester_key(&SigningKey::from_seed(&[99; 32]).public());
        assert!(s.query().unwrap().is_min());
    }

    #[test]
    fn no_policy_is_error() {
        let s = Session::new(&PERMS);
        assert_eq!(s.query(), Err(KeyNoteError::NoPolicy));
    }

    #[test]
    fn bad_credential_signature_rejected_at_add() {
        let mut s = discfs_session("1");
        let cred = discfs_cred(&admin(), &bob(), "1", "R");
        let tampered = cred.replace("\"R\"", "\"RWX\"");
        assert_eq!(s.add_credential(&tampered), Err(KeyNoteError::BadSignature));
    }

    #[test]
    fn policy_with_key_authorizer_rejected() {
        let mut s = Session::new(&PERMS);
        let cred = discfs_cred(&admin(), &bob(), "1", "R");
        assert!(matches!(s.add_policy(&cred), Err(KeyNoteError::Syntax(_))));
    }

    #[test]
    fn retain_credentials_supports_revocation() {
        let mut s = discfs_session("8");
        let cred = discfs_cred(&admin(), &bob(), "8", "RW");
        s.add_credential(&cred).unwrap();
        s.add_requester_key(&bob().public());
        assert_eq!(s.query().unwrap().as_str(), "RW");

        let revoked_id = Assertion::parse(&cred).unwrap().id();
        s.retain_credentials(|a| a.id() != revoked_id);
        assert!(s.query().unwrap().is_min());
    }

    #[test]
    fn action_authorizers_attribute_visible() {
        let mut s = Session::new(&["false", "true"]);
        s.add_policy(&admin_root_policy()).unwrap();
        let cred = AssertionBuilder::new()
            .licensee_key(&bob().public())
            .conditions(&format!(
                "(_ACTION_AUTHORIZERS ~= \"{}\") -> \"true\";",
                crate::key_principal(&bob().public())
            ))
            .sign(&admin());
        s.add_credential(&cred).unwrap();
        s.add_requester_key(&bob().public());
        assert_eq!(s.query().unwrap().as_str(), "true");
    }

    #[test]
    fn policy_can_grant_directly_with_conditions() {
        // Policy with conditions and direct key licensee, no credentials.
        let mut s = Session::new(&["false", "true"]);
        let policy = AssertionBuilder::new()
            .licensee_key(&bob().public())
            .conditions("(door == \"front\") -> \"true\";")
            .policy();
        s.add_policy(&policy).unwrap();
        s.add_requester_key(&bob().public());
        s.set_attribute("door", "front");
        assert_eq!(s.query().unwrap().as_str(), "true");
        s.set_attribute("door", "back");
        assert_eq!(s.query().unwrap().as_str(), "false");
    }
}
