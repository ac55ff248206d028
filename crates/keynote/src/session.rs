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
use std::sync::Arc;

use discfs_crypto::ed25519::VerifyingKey;

use crate::assertion::Assertion;
use crate::ast::{LicenseeExpr, Program};
use crate::eval::{eval_program, required_equalities, EvalCtx};
use crate::values::ValueSet;
use crate::{KeyNoteError, Principal};

/// The result of a query: one value from the session's ordered set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplianceValue {
    index: usize,
    text: Arc<str>,
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

/// Where an assertion lives in its [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Policy(usize),
    Credential(usize),
}

/// The assertions of one authorizer, split by what a query must look at
/// (see "Cost of a query" in the crate docs).
#[derive(Clone, Default)]
struct Authorizer {
    /// Assertions with a clause no equality guards: always evaluated.
    always: Vec<Slot>,
    /// Attribute name → required literal → the assertions filed under
    /// that equality. A query probes each name (DisCFS credentials use
    /// two, `HANDLE` and `app_domain`) with the action's value for it.
    keyed: HashMap<String, HashMap<String, Vec<Slot>>>,
}

impl Authorizer {
    fn bucket_len(&self, attr: &str, literal: &str) -> usize {
        self.keyed
            .get(attr)
            .and_then(|buckets| buckets.get(literal))
            .map_or(0, Vec::len)
    }

    /// Files `slot` under one required equality per clause — the one
    /// whose bucket is emptiest, so an equality every credential shares
    /// (`app_domain == "DisCFS"`) does not collect them all — or on the
    /// always-list when some clause has none.
    fn insert(&mut self, slot: Slot, conditions: Option<&Program>) {
        // No conditions at all means `_MAX_TRUST` whatever the action.
        let clauses = conditions.map_or(&[][..], |program| &program.0);
        let mut required = Vec::new();
        let chosen: Option<Vec<(&str, &str)>> = clauses
            .iter()
            .map(|clause| {
                required.clear();
                required_equalities(&clause.test, &mut required);
                required
                    .iter()
                    .copied()
                    .min_by_key(|(attr, literal)| self.bucket_len(attr, literal))
            })
            .collect();
        match chosen {
            Some(chosen) if !chosen.is_empty() => {
                for (attr, literal) in chosen {
                    let bucket = self
                        .keyed
                        .entry(attr.to_string())
                        .or_default()
                        .entry(literal.to_string())
                        .or_default();
                    // Two clauses of one assertion may pick one bucket.
                    if bucket.last() != Some(&slot) {
                        bucket.push(slot);
                    }
                }
            }
            _ => self.always.push(slot),
        }
    }
}

/// Every assertion of a session, grouped by authorizer; kept in step
/// with `Session::policies` and `Session::credentials`.
#[derive(Clone, Default)]
struct Delegations {
    ids: HashMap<Principal, usize>,
    authorizers: Vec<Authorizer>,
}

impl Delegations {
    /// Enters `assertion`, stored (or about to be) at `slot`.
    fn insert(&mut self, slot: Slot, assertion: &Assertion) {
        let next = self.authorizers.len();
        let id = *self
            .ids
            .entry(assertion.authorizer().clone())
            .or_insert(next);
        if id == next {
            self.authorizers.push(Authorizer::default());
        }
        self.authorizers[id].insert(slot, assertion.conditions());
    }
}

/// A principal's support value during one query.
#[derive(Clone, Copy)]
struct Support {
    /// Best value established so far; never above the true value.
    value: usize,
    mark: Mark,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Not reached in the current pass.
    Fresh,
    /// On the current depth-first path.
    OnPath,
    /// Computed in the current pass.
    Done,
}

/// Mutable state of one query.
struct Walk {
    support: Vec<Support>,
    /// The current pass read the value of a principal still on the
    /// path, so it may have used a value that was not final yet.
    cut: bool,
    /// The current pass raised some principal's value.
    raised: bool,
}

#[cfg(test)]
thread_local! {
    /// Number of top-level conditions programs the indexed query
    /// evaluated on this thread (tests pin the bound the index exists
    /// for).
    pub(crate) static PROGRAMS_EVALUATED: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// A KeyNote session: assertions + action description + requesters.
#[derive(Clone)]
pub struct Session {
    values: ValueSet,
    policies: Vec<Assertion>,
    credentials: Vec<Assertion>,
    /// Each credential's [`Assertion::id`], kept in step with
    /// `credentials`: a credential already held is not added again.
    credential_ids: HashSet<String>,
    attributes: HashMap<String, String>,
    requesters: HashSet<Principal>,
    /// `_ACTION_AUTHORIZERS`: requester names, sorted, comma-joined;
    /// kept in step with `requesters`.
    action_authorizers: String,
    delegations: Delegations,
}

impl Session {
    /// Creates a session with the given ordered compliance value set
    /// (minimum trust first).
    pub fn new<S: AsRef<str>>(values: &[S]) -> Session {
        Session {
            values: ValueSet::new(values),
            policies: Vec::new(),
            credentials: Vec::new(),
            credential_ids: HashSet::new(),
            attributes: HashMap::new(),
            requesters: HashSet::new(),
            action_authorizers: String::new(),
            delegations: Delegations::default(),
        }
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
        self.delegations
            .insert(Slot::Policy(self.policies.len()), &assertion);
        self.policies.push(assertion);
        Ok(())
    }

    /// Adds a signed credential after verifying its signature. A
    /// credential the session already holds is a no-op, as in
    /// [`Session::add_assertion`].
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
    /// pay for a second parse. A credential the session already holds
    /// ([`Session::holds_credential`]) is a no-op: it is neither
    /// verified again nor stored twice.
    ///
    /// # Errors
    ///
    /// [`KeyNoteError::AuthorizerNotAKey`] or
    /// [`KeyNoteError::BadSignature`].
    pub fn add_assertion(&mut self, assertion: Assertion) -> Result<(), KeyNoteError> {
        if self.holds_credential(assertion.id()) {
            return Ok(());
        }
        assertion.verify()?;
        self.credential_ids.insert(assertion.id().to_string());
        self.delegations
            .insert(Slot::Credential(self.credentials.len()), &assertion);
        self.credentials.push(assertion);
        Ok(())
    }

    fn assertion(&self, slot: Slot) -> &Assertion {
        match slot {
            Slot::Policy(at) => &self.policies[at],
            Slot::Credential(at) => &self.credentials[at],
        }
    }

    /// The credentials currently in the session.
    pub fn credentials(&self) -> &[Assertion] {
        &self.credentials
    }

    /// Whether the session holds the credential whose
    /// [`Assertion::id`] is `id`: one hash lookup.
    pub fn holds_credential(&self, id: &str) -> bool {
        self.credential_ids.contains(id)
    }

    /// The keys that signed the session's credentials, each once however
    /// many credentials it signed, in no particular order. Read off the
    /// per-authorizer index, so the cost follows the number of distinct
    /// issuers, not of credentials.
    pub fn credential_issuers(&self) -> impl Iterator<Item = &VerifyingKey> {
        // Policies are all authorized by `POLICY`, and every credential
        // by a key: the keys are exactly the credential issuers.
        self.delegations.ids.keys().filter_map(Principal::as_key)
    }

    /// Drops credentials for which `keep` returns false (used by the
    /// DisCFS revocation path).
    pub fn retain_credentials<F: FnMut(&Assertion) -> bool>(&mut self, keep: F) {
        let before = self.credentials.len();
        self.credentials.retain(keep);
        if self.credentials.len() == before {
            return;
        }
        self.credential_ids = self
            .credentials
            .iter()
            .map(|a| a.id().to_string())
            .collect();
        // Slots name positions, and positions have shifted.
        self.delegations = Delegations::default();
        for (at, assertion) in self.policies.iter().enumerate() {
            self.delegations.insert(Slot::Policy(at), assertion);
        }
        for (at, assertion) in self.credentials.iter().enumerate() {
            self.delegations.insert(Slot::Credential(at), assertion);
        }
    }

    /// Sets an action attribute (overwriting any previous value).
    pub fn set_attribute(&mut self, name: &str, value: &str) {
        self.set_attribute_fmt(name, format_args!("{value}"));
    }

    /// Sets an action attribute from formatted text, e.g.
    /// `format_args!("{hour}")`. Overwriting an attribute reuses its
    /// buffer, so describing the next action to a long-lived session
    /// allocates nothing.
    pub fn set_attribute_fmt(&mut self, name: &str, value: std::fmt::Arguments<'_>) {
        use std::fmt::Write;
        let slot = match self.attributes.get_mut(name) {
            Some(slot) => {
                slot.clear();
                slot
            }
            None => self.attributes.entry(name.to_string()).or_default(),
        };
        slot.write_fmt(value)
            .expect("writing to a String cannot fail");
    }

    /// Removes all action attributes.
    #[cfg(test)]
    pub(crate) fn clear_attributes(&mut self) {
        self.attributes.clear();
    }

    /// Adds a requesting principal (`_ACTION_AUTHORIZERS` member).
    pub fn add_requester(&mut self, principal: Principal) {
        if self.requesters.insert(principal) {
            let mut names: Vec<String> = self.requesters.iter().map(Principal::to_text).collect();
            names.sort();
            self.action_authorizers = names.join(",");
        }
    }

    /// Convenience: adds a key requester.
    pub fn add_requester_key(&mut self, key: &VerifyingKey) {
        self.add_requester(Principal::Key(*key));
    }

    /// Removes all requesters.
    pub fn clear_requesters(&mut self) {
        self.requesters.clear();
        self.action_authorizers.clear();
    }

    fn eval_ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            attributes: &self.attributes,
            action_authorizers: &self.action_authorizers,
            values: &self.values,
        }
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
        let ctx = self.eval_ctx();
        let mut walk = Walk {
            support: vec![
                Support {
                    value: self.values.min_index(),
                    mark: Mark::Fresh,
                };
                self.delegations.authorizers.len()
            ],
            cut: false,
            raised: false,
        };
        // One depth-first pass settles a delegation graph without
        // cycles. A pass that read a principal still on its own path
        // used a value from below; values only rise, so passes repeat,
        // each starting from the last one's values, until one raises
        // nothing: the least fixed point, whatever the visiting order.
        let index = loop {
            let index = self.support(&Principal::Policy, &ctx, &mut walk);
            if !(walk.cut && walk.raised) {
                break index;
            }
            walk.cut = false;
            walk.raised = false;
            for support in &mut walk.support {
                support.mark = Mark::Fresh;
            }
        };
        Ok(ComplianceValue {
            index,
            text: self.values.shared_value_at(index),
        })
    }

    /// A principal's support value: `_MAX_TRUST` if it signed the
    /// request, otherwise the maximum over the assertions it authorized
    /// that the current action can satisfy.
    fn support(&self, principal: &Principal, ctx: &EvalCtx<'_>, walk: &mut Walk) -> usize {
        if self.requesters.contains(principal) {
            return self.values.max_index();
        }
        let Some(&id) = self.delegations.ids.get(principal) else {
            return self.values.min_index();
        };
        match walk.support[id].mark {
            Mark::Done => return walk.support[id].value,
            Mark::OnPath => {
                walk.cut = true;
                return walk.support[id].value;
            }
            Mark::Fresh => walk.support[id].mark = Mark::OnPath,
        }

        let authorizer = &self.delegations.authorizers[id];
        let mut best = walk.support[id].value;
        for &slot in &authorizer.always {
            best = best.max(self.assertion_value(slot, ctx, walk));
        }
        for (attr, buckets) in &authorizer.keyed {
            // Every clause of an assertion filed here requires the
            // equality it is filed under. An assertion in none of the
            // buckets the action's values select has no clause that can
            // hold: its conditions are `_MIN_TRUST`, and it would add
            // nothing to the maximum.
            let matching = self
                .attributes
                .get(attr)
                .and_then(|value| buckets.get(value));
            for &slot in matching.into_iter().flatten() {
                best = best.max(self.assertion_value(slot, ctx, walk));
            }
        }
        if best > walk.support[id].value {
            walk.raised = true;
        }
        walk.support[id] = Support {
            value: best,
            mark: Mark::Done,
        };
        best
    }

    /// `min(licensees value, conditions value)` of one assertion.
    fn assertion_value(&self, slot: Slot, ctx: &EvalCtx<'_>, walk: &mut Walk) -> usize {
        let assertion = self.assertion(slot);
        let licensees = match assertion.licensees() {
            Some(expr) => licensees_value(expr, &mut |p| self.support(p, ctx, walk)),
            None => self.values.min_index(),
        };
        if licensees == self.values.min_index() {
            return licensees;
        }
        #[cfg(test)]
        PROGRAMS_EVALUATED.with(|n| n.set(n.get() + 1));
        licensees.min(conditions_value(assertion, ctx))
    }

    /// The reference the index is tested against: every assertion of
    /// the session evaluated, round after round from `_MIN_TRUST`, until
    /// no principal's value rises — the same least fixed point by the
    /// textbook route, with no index and no graph walk.
    #[cfg(test)]
    pub(crate) fn query_full_scan(&self) -> Result<ComplianceValue, KeyNoteError> {
        if self.policies.is_empty() {
            return Err(KeyNoteError::NoPolicy);
        }
        let ctx = self.eval_ctx();
        let min = self.values.min_index();
        let mut support: HashMap<&Principal, usize> = HashMap::new();
        loop {
            let mut raised = false;
            for assertion in self.policies.iter().chain(&self.credentials) {
                let licensees = assertion.licensees().map_or(min, |expr| {
                    licensees_value(expr, &mut |p| {
                        if self.requesters.contains(p) {
                            self.values.max_index()
                        } else {
                            support.get(p).copied().unwrap_or(min)
                        }
                    })
                });
                let value = licensees.min(conditions_value(assertion, &ctx));
                let held = support.entry(assertion.authorizer()).or_insert(min);
                if value > *held {
                    *held = value;
                    raised = true;
                }
            }
            if !raised {
                break;
            }
        }
        let index = support.get(&Principal::Policy).copied().unwrap_or(min);
        Ok(ComplianceValue {
            index,
            text: self.values.shared_value_at(index),
        })
    }
}

/// An assertion's conditions value; no `Conditions` field means no
/// restriction.
fn conditions_value(assertion: &Assertion, ctx: &EvalCtx<'_>) -> usize {
    match assertion.conditions() {
        Some(program) => eval_program(program, ctx),
        None => ctx.values.max_index(),
    }
}

/// Combines the support of the principals in a licensees expression:
/// `min` for `&&`, `max` for `||`, k-th largest for `k-of`.
fn licensees_value(expr: &LicenseeExpr, support: &mut impl FnMut(&Principal) -> usize) -> usize {
    match expr {
        LicenseeExpr::Principal(p) => support(p),
        LicenseeExpr::And(a, b) => licensees_value(a, support).min(licensees_value(b, support)),
        LicenseeExpr::Or(a, b) => licensees_value(a, support).max(licensees_value(b, support)),
        LicenseeExpr::KOf(k, subs) => {
            let mut values: Vec<usize> = subs.iter().map(|s| licensees_value(s, support)).collect();
            values.sort_unstable_by(|a, b| b.cmp(a));
            // k ≥ 1 and k ≤ len are enforced at parse time.
            values[(*k as usize) - 1]
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

        let revoked = Assertion::parse(&cred).unwrap();
        s.retain_credentials(|a| a.id() != revoked.id());
        assert!(s.query().unwrap().is_min());
    }

    #[test]
    fn a_credential_already_held_is_added_once() {
        let mut s = discfs_session("8");
        let cred = discfs_cred(&admin(), &bob(), "8", "RW");
        let id = Assertion::parse(&cred).unwrap().id().to_string();
        assert!(!s.holds_credential(&id));
        for _ in 0..3 {
            s.add_credential(&cred).unwrap();
        }
        assert_eq!(s.credentials().len(), 1);
        assert!(s.holds_credential(&id));
        // The id set follows a purge: the credential can come back.
        s.retain_credentials(|a| a.id() != id);
        assert!(!s.holds_credential(&id));
        s.add_credential(&cred).unwrap();
        s.add_requester_key(&bob().public());
        assert_eq!(s.credentials().len(), 1);
        assert_eq!(s.query().unwrap().as_str(), "RW");
    }

    #[test]
    fn credential_issuers_are_distinct_and_follow_retain() {
        let mut s = discfs_session("8");
        let issuers = |s: &Session| {
            let mut keys: Vec<VerifyingKey> = s.credential_issuers().copied().collect();
            keys.sort();
            keys
        };
        assert!(issuers(&s).is_empty(), "the policy's POLICY is no issuer");
        s.add_credential(&discfs_cred(&admin(), &bob(), "8", "RW"))
            .unwrap();
        s.add_credential(&discfs_cred(&admin(), &bob(), "9", "R"))
            .unwrap();
        s.add_credential(&discfs_cred(&bob(), &alice(), "8", "R"))
            .unwrap();
        let mut both = vec![admin().public(), bob().public()];
        both.sort();
        assert_eq!(issuers(&s), both);
        // Bob's only credential goes, and with it Bob as an issuer.
        s.retain_credentials(|a| a.authorizer().as_key() != Some(&bob().public()));
        assert_eq!(issuers(&s), vec![admin().public()]);
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
