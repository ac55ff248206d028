//! KeyNote assertions: parsing, canonical text, signing, verification.
//!
//! An assertion is a small text document of `Field: value` lines.
//! Continuation lines (starting with whitespace) extend the previous
//! field. Policies are unsigned assertions whose authorizer is the
//! literal `POLICY`; credentials are signed by their authorizer key and
//! the signature covers the raw text from the first byte up to the
//! start of the `Signature` field (so a credential cannot be altered in
//! transit — the property the paper relies on when credentials travel
//! by email).

use std::collections::HashMap;

use discfs_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use discfs_crypto::sha256::Sha256;
use discfs_crypto::{hex, Digest};

use crate::ast::{LicenseeExpr, Program};
use crate::parser;
use crate::{KeyNoteError, Principal};

/// The signature algorithm tag emitted and accepted by this crate.
pub(crate) const SIG_PREFIX: &str = "sig-ed25519-sha512-hex:";

/// A parsed KeyNote assertion.
#[derive(Debug, Clone)]
pub struct Assertion {
    raw: String,
    /// SHA-256 of `raw` in hex, computed once at parse time.
    id: String,
    version: Option<String>,
    comment: Option<String>,
    authorizer: Principal,
    licensees: Option<LicenseeExpr>,
    conditions: Option<Program>,
    signature: Option<String>,
    /// Byte length of the raw text covered by the signature.
    signed_len: usize,
}

impl Assertion {
    /// Parses an assertion from its text form.
    ///
    /// # Errors
    ///
    /// Returns [`KeyNoteError::Syntax`] for malformed fields,
    /// duplicates, unknown field names or a missing `Authorizer`.
    pub fn parse(text: &str) -> Result<Assertion, KeyNoteError> {
        let mut fields: Vec<(String, String, usize)> = Vec::new(); // (name, body, byte offset)
        let mut offset = 0usize;
        for line in text.split_inclusive('\n') {
            let line_start = offset;
            offset += line.len();
            let trimmed_end = line.trim_end_matches(['\n', '\r']);
            if trimmed_end.trim().is_empty() {
                continue;
            }
            if trimmed_end.starts_with([' ', '\t']) {
                // Continuation of the previous field.
                match fields.last_mut() {
                    Some((_, body, _)) => {
                        body.push('\n');
                        body.push_str(trimmed_end.trim());
                    }
                    None => {
                        return Err(KeyNoteError::Syntax(
                            "continuation line before any field".into(),
                        ));
                    }
                }
            } else if let Some(colon) = trimmed_end.find(':') {
                let name = trimmed_end[..colon].trim().to_string();
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                    return Err(KeyNoteError::Syntax(format!(
                        "malformed field name {name:?}"
                    )));
                }
                let body = trimmed_end[colon + 1..].trim().to_string();
                fields.push((name, body, line_start));
            } else {
                return Err(KeyNoteError::Syntax(format!(
                    "line is neither a field nor a continuation: {trimmed_end:?}"
                )));
            }
        }

        let mut version = None;
        let mut comment = None;
        let mut local_constants_body = None;
        let mut authorizer_body = None;
        let mut licensees_body = None;
        let mut conditions_body = None;
        let mut signature = None;
        let mut signed_len = text.len();

        for (name, body, field_offset) in fields {
            let lower = name.to_ascii_lowercase();
            let slot: &mut Option<String> = match lower.as_str() {
                "keynote-version" => &mut version,
                "comment" => &mut comment,
                "local-constants" => &mut local_constants_body,
                "authorizer" => &mut authorizer_body,
                "licensees" => &mut licensees_body,
                "conditions" => &mut conditions_body,
                "signature" => {
                    signed_len = field_offset;
                    &mut signature
                }
                other => {
                    return Err(KeyNoteError::Syntax(format!("unknown field {other:?}")));
                }
            };
            if slot.is_some() {
                return Err(KeyNoteError::Syntax(format!("duplicate field {name:?}")));
            }
            *slot = Some(body);
        }

        let constants: HashMap<String, String> = match &local_constants_body {
            Some(body) => parser::parse_local_constants(body)?.into_iter().collect(),
            None => HashMap::new(),
        };

        let authorizer_body = authorizer_body.ok_or(KeyNoteError::MissingField("Authorizer"))?;
        let authorizer = parser::parse_authorizer(&authorizer_body, &constants)?;

        let licensees = match &licensees_body {
            Some(body) => parser::parse_licensees(body, &constants)?,
            None => None,
        };
        let conditions = match &conditions_body {
            Some(body) => Some(parser::parse_conditions(body)?),
            None => None,
        };
        let signature = match signature {
            Some(body) => {
                let trimmed = body.trim();
                let unquoted = trimmed
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .unwrap_or(trimmed);
                Some(unquoted.to_string())
            }
            None => None,
        };

        Ok(Assertion {
            raw: text.to_string(),
            id: hex::encode(&Sha256::digest(text.as_bytes())),
            version,
            comment,
            authorizer,
            licensees,
            conditions,
            signature,
            signed_len,
        })
    }

    /// The assertion's raw text as parsed.
    #[cfg(test)]
    pub(crate) fn raw(&self) -> &str {
        &self.raw
    }

    /// The `KeyNote-Version` field, if present.
    pub fn version(&self) -> Option<&str> {
        self.version.as_deref()
    }

    /// The `Comment` field, if present.
    pub fn comment(&self) -> Option<&str> {
        self.comment.as_deref()
    }

    /// The authorizer principal.
    pub fn authorizer(&self) -> &Principal {
        &self.authorizer
    }

    /// The parsed licensees expression (`None` when the field is absent
    /// or empty, in which case the assertion delegates to nobody).
    pub fn licensees(&self) -> Option<&LicenseeExpr> {
        self.licensees.as_ref()
    }

    /// The parsed conditions program (`None` = no restrictions).
    pub(crate) fn conditions(&self) -> Option<&Program> {
        self.conditions.as_ref()
    }

    /// A stable content identifier: SHA-256 of the raw text (hex).
    ///
    /// DisCFS revocation lists reference credentials by this id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Verifies the credential signature.
    ///
    /// # Errors
    ///
    /// * [`KeyNoteError::MissingField`] — unsigned assertion.
    /// * [`KeyNoteError::AuthorizerNotAKey`] — the authorizer cannot
    ///   have signed anything.
    /// * [`KeyNoteError::BadSignature`] — cryptographic failure or a
    ///   malformed signature string.
    pub fn verify(&self) -> Result<(), KeyNoteError> {
        let sig_text = self
            .signature
            .as_ref()
            .ok_or(KeyNoteError::MissingField("Signature"))?;
        let key: &VerifyingKey = self
            .authorizer
            .as_key()
            .ok_or(KeyNoteError::AuthorizerNotAKey)?;
        let sig_hex = sig_text
            .strip_prefix(SIG_PREFIX)
            .ok_or(KeyNoteError::BadSignature)?;
        let sig_bytes = hex::decode_array::<64>(sig_hex).map_err(|_| KeyNoteError::BadSignature)?;
        let signed = &self.raw.as_bytes()[..self.signed_len];
        key.verify(signed, &Signature(sig_bytes))
            .map_err(|_| KeyNoteError::BadSignature)
    }
}

/// Builds and signs KeyNote assertions with canonical formatting.
///
/// # Examples
///
/// ```
/// use discfs_crypto::ed25519::SigningKey;
/// use keynote::AssertionBuilder;
///
/// let issuer = SigningKey::from_seed(&[42; 32]);
/// let holder = SigningKey::from_seed(&[43; 32]);
/// let text = AssertionBuilder::new()
///     .licensee_key(&holder.public())
///     .conditions("(app_domain == \"DisCFS\") -> \"R\";")
///     .sign(&issuer);
/// let parsed = keynote::Assertion::parse(&text).unwrap();
/// parsed.verify().unwrap();
/// ```
#[derive(Debug, Default, Clone)]
pub struct AssertionBuilder {
    comment: Option<String>,
    local_constants: Vec<(String, String)>,
    licensees: Vec<String>,
    licensees_raw: Option<String>,
    conditions: Option<String>,
}

impl AssertionBuilder {
    /// Creates an empty builder.
    pub fn new() -> AssertionBuilder {
        AssertionBuilder::default()
    }

    /// Sets the `Comment` field (single line; newlines become spaces).
    pub fn comment(mut self, text: &str) -> Self {
        self.comment = Some(text.replace('\n', " "));
        self
    }

    /// Adds a `Local-Constants` binding.
    pub fn local_constant(mut self, name: &str, value: &str) -> Self {
        self.local_constants
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Adds a key licensee (multiple calls are OR-ed together).
    pub fn licensee_key(mut self, key: &VerifyingKey) -> Self {
        self.licensees.push(crate::key_principal(key));
        self
    }

    /// Adds an arbitrary principal licensee (OR-ed with others).
    pub fn licensee(mut self, principal: &str) -> Self {
        self.licensees.push(principal.to_string());
        self
    }

    /// Sets the complete licensees expression verbatim, overriding any
    /// accumulated [`Self::licensee_key`] calls. Use for `&&` or
    /// threshold structures.
    pub fn licensees_expr(mut self, expr: &str) -> Self {
        self.licensees_raw = Some(expr.to_string());
        self
    }

    /// Sets the `Conditions` program text.
    pub fn conditions(mut self, program: &str) -> Self {
        self.conditions = Some(program.replace('\n', " "));
        self
    }

    fn body(&self, authorizer: &str) -> String {
        let mut out = String::new();
        out.push_str("KeyNote-Version: 2\n");
        if let Some(comment) = &self.comment {
            out.push_str(&format!("Comment: {comment}\n"));
        }
        if !self.local_constants.is_empty() {
            let pairs: Vec<String> = self
                .local_constants
                .iter()
                .map(|(k, v)| format!("{k} = \"{v}\""))
                .collect();
            out.push_str(&format!("Local-Constants: {}\n", pairs.join(" ")));
        }
        out.push_str(&format!("Authorizer: \"{authorizer}\"\n"));
        let licensees = match &self.licensees_raw {
            Some(raw) => raw.clone(),
            None => self
                .licensees
                .iter()
                .map(|p| format!("\"{p}\""))
                .collect::<Vec<_>>()
                .join(" || "),
        };
        out.push_str(&format!("Licensees: {licensees}\n"));
        if let Some(conditions) = &self.conditions {
            out.push_str(&format!("Conditions: {conditions}\n"));
        }
        out
    }

    /// Produces a signed credential issued by `issuer`.
    pub fn sign(&self, issuer: &SigningKey) -> String {
        let mut text = self.body(&crate::key_principal(&issuer.public()));
        let sig = issuer.sign(text.as_bytes());
        text.push_str(&format!(
            "Signature: \"{SIG_PREFIX}{}\"\n",
            hex::encode(&sig.0)
        ));
        text
    }

    /// Produces an unsigned local-policy assertion (authorizer `POLICY`).
    pub fn policy(&self) -> String {
        self.body("POLICY")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admin() -> SigningKey {
        SigningKey::from_seed(&[1; 32])
    }

    fn bob() -> SigningKey {
        SigningKey::from_seed(&[2; 32])
    }

    #[test]
    fn build_sign_parse_verify() {
        let text = AssertionBuilder::new()
            .comment("testdir")
            .licensee_key(&bob().public())
            .conditions("(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RWX\";")
            .sign(&admin());
        let a = Assertion::parse(&text).unwrap();
        assert_eq!(a.comment(), Some("testdir"));
        assert_eq!(a.authorizer(), &Principal::Key(admin().public()));
        a.verify().unwrap();
    }

    #[test]
    fn tampered_credential_rejected() {
        let text = AssertionBuilder::new()
            .licensee_key(&bob().public())
            .conditions("(HANDLE == \"1\") -> \"R\";")
            .sign(&admin());
        // Escalate R to RWX.
        let tampered = text.replace("\"R\"", "\"RWX\"");
        assert_ne!(text, tampered);
        let a = Assertion::parse(&tampered).unwrap();
        assert_eq!(a.verify(), Err(KeyNoteError::BadSignature));
    }

    #[test]
    fn policy_assertion_unsigned() {
        let text = AssertionBuilder::new()
            .licensee_key(&admin().public())
            .policy();
        let a = Assertion::parse(&text).unwrap();
        assert_eq!(a.authorizer(), &Principal::Policy);
        assert_eq!(a.verify(), Err(KeyNoteError::MissingField("Signature")));
    }

    #[test]
    fn missing_authorizer_rejected() {
        assert_eq!(
            Assertion::parse("Licensees: \"x\"\n").unwrap_err(),
            KeyNoteError::MissingField("Authorizer")
        );
    }

    #[test]
    fn unknown_field_rejected() {
        let err = Assertion::parse("Authorizer: \"POLICY\"\nEvil-Field: x\n").unwrap_err();
        assert!(matches!(err, KeyNoteError::Syntax(_)));
    }

    #[test]
    fn duplicate_field_rejected() {
        let err = Assertion::parse("Authorizer: \"POLICY\"\nAuthorizer: \"POLICY\"\n").unwrap_err();
        assert!(matches!(err, KeyNoteError::Syntax(_)));
    }

    #[test]
    fn continuation_lines() {
        let text = "Authorizer: \"POLICY\"\nConditions: (a == \"1\")\n\t-> \"true\";\n";
        let a = Assertion::parse(text).unwrap();
        assert!(a.conditions().is_some());
        assert_eq!(a.conditions().unwrap().0.len(), 1);
    }

    #[test]
    fn local_constants_resolve_in_licensees() {
        let bob_key = crate::key_principal(&bob().public());
        let text = format!(
            "Local-Constants: BOB = \"{bob_key}\"\nAuthorizer: \"POLICY\"\nLicensees: BOB\n"
        );
        let a = Assertion::parse(&text).unwrap();
        let principals = a.licensees().unwrap().principals();
        assert_eq!(principals, vec![&Principal::Key(bob().public())]);
    }

    #[test]
    fn field_names_case_insensitive() {
        let a = Assertion::parse("AUTHORIZER: \"POLICY\"\nlicensees: \"x\"\n").unwrap();
        assert_eq!(a.authorizer(), &Principal::Policy);
        assert!(a.licensees().is_some());
    }

    #[test]
    fn id_is_stable_and_distinct() {
        let t1 = AssertionBuilder::new().licensee("a").sign(&admin());
        let t2 = AssertionBuilder::new().licensee("b").sign(&admin());
        let a1 = Assertion::parse(&t1).unwrap();
        let a1_again = Assertion::parse(&t1).unwrap();
        let a2 = Assertion::parse(&t2).unwrap();
        assert_eq!(a1.id(), a1_again.id());
        assert_ne!(a1.id(), a2.id());
    }

    #[test]
    fn signature_covers_every_prior_field() {
        // Flipping the comment must break the signature even though the
        // comment is semantically inert.
        let text = AssertionBuilder::new()
            .comment("v1")
            .licensee_key(&bob().public())
            .sign(&admin());
        let tampered = text.replace("Comment: v1", "Comment: v2");
        let a = Assertion::parse(&tampered).unwrap();
        assert_eq!(a.verify(), Err(KeyNoteError::BadSignature));
    }

    #[test]
    fn wrong_issuer_key_rejected() {
        // Signature by bob but authorizer claims admin.
        let body = AssertionBuilder::new().licensee("x");
        let forged = {
            let mut text = body.body(&crate::key_principal(&admin().public()));
            let sig = bob().sign(text.as_bytes());
            text.push_str(&format!(
                "Signature: \"{SIG_PREFIX}{}\"\n",
                hex::encode(&sig.0)
            ));
            text
        };
        let a = Assertion::parse(&forged).unwrap();
        assert_eq!(a.verify(), Err(KeyNoteError::BadSignature));
    }
}
