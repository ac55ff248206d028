//! The KeyNote trust-management system (RFC 2704).
//!
//! KeyNote is the policy engine at the heart of DisCFS: every access
//! decision is a *compliance check* asking whether a proposed action,
//! described as a set of name/value attributes, conforms to policy.
//! Policies are assertions; **credentials** are signed assertions that
//! can travel over the network, letting a local policy defer to remote
//! issuers and forming arbitrarily long delegation chains
//! (administrator → Bob → Alice in the paper's Figure 1).
//!
//! # Overview
//!
//! * [`Principal`] — a public key (`ed25519-hex:…`) or opaque name.
//! * [`Assertion`] — a parsed KeyNote assertion with `Authorizer`,
//!   `Licensees`, `Conditions`, `Local-Constants`, `Comment` and
//!   `Signature` fields.
//! * [`AssertionBuilder`] — constructs and signs credentials.
//! * [`Session`] — holds policies, credentials and an action attribute
//!   set, and answers queries with a value from an ordered
//!   *compliance value set* (for DisCFS: `false < X < W < WX < R < RX <
//!   RW < RWX`, translating directly to octal permission bits).
//!
//! # Cost of a query
//!
//! A long-lived session accumulates credentials — the DisCFS server
//! keeps one per client key, and a client that created 400 files holds
//! 400 creator credentials — but one action concerns one file. A query
//! costs what the delegation chain for *that* action costs, not what
//! the session holds:
//!
//! * **What is indexed.** When an assertion enters a session, each
//!   top-level clause of its conditions is searched for string
//!   equalities `attr == "literal"` (either operand order) that the
//!   clause's test cannot hold without: those reached from the root of
//!   the test through `&&` only. If every clause has one, the assertion
//!   is filed, per authorizer, under one such equality per clause — the
//!   one whose bucket is emptiest, so an equality all credentials share
//!   (`app_domain == "DisCFS"`) does not collect them all. A query looks
//!   at an authorizer's buckets only under the values the action's
//!   attributes actually have.
//! * **What is always evaluated.** An assertion with no conditions, or
//!   with a clause that has no such equality: the equality sits under
//!   `!` or in one arm of `||`, goes through `$` indirection, is a
//!   numeric or regex comparison, names a `_`-special attribute (the
//!   session supplies those, whatever the action says), or compares
//!   with `""` (which an *undefined* attribute also equals, RFC 2704).
//! * **Why the answer is exact.** An assertion the query passes over
//!   has, in every clause, a required equality that is false for this
//!   action; every clause test is false, so its conditions evaluate to
//!   `_MIN_TRUST`, and `min(licensees, _MIN_TRUST)` adds nothing to its
//!   authorizer's maximum. A principal's support is the least fixed
//!   point of those max/min equations — cycles in the delegation graph
//!   included, computed by repeating the depth-first pass until no
//!   value rises — so it does not depend on which assertions were
//!   visited or in what order, only on the ones that can contribute.
//!
//! Evaluation borrows: literals, attribute values and the special
//! attributes are compared in place (`Cow<str>`), the per-authorizer
//! grouping and the `_ACTION_AUTHORIZERS` text are kept up to date when
//! assertions and requesters change, and overwriting an attribute
//! reuses its buffer. A query allocates one small vector (and one per
//! `k-of` it meets).
//!
//! The index is not optional and has no parameters. The full scan it
//! replaced survives as the `#[cfg(test)]` oracle of the differential
//! tests in `src/differential.rs`.
//!
//! # Example
//!
//! ```
//! use discfs_crypto::ed25519::SigningKey;
//! use keynote::{AssertionBuilder, Session};
//!
//! let admin = SigningKey::from_seed(&[1; 32]);
//! let bob = SigningKey::from_seed(&[2; 32]);
//!
//! // Local policy: the administrator key is the root of trust.
//! let policy = format!(
//!     "Authorizer: \"POLICY\"\nLicensees: \"{}\"\n",
//!     keynote::key_principal(&admin.public())
//! );
//!
//! // Credential: admin grants Bob read-write on handle 666240.
//! let cred = AssertionBuilder::new()
//!     .licensee_key(&bob.public())
//!     .conditions("(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RW\";")
//!     .comment("testdir")
//!     .sign(&admin);
//!
//! let mut session = Session::new(&["false", "X", "W", "WX", "R", "RX", "RW", "RWX"]);
//! session.add_policy(&policy).unwrap();
//! session.add_credential(&cred).unwrap();
//! session.set_attribute("app_domain", "DisCFS");
//! session.set_attribute("HANDLE", "666240");
//! session.add_requester_key(&bob.public());
//! assert_eq!(session.query().unwrap().as_str(), "RW");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod assertion;
mod ast;
#[cfg(test)]
mod differential;
mod eval;
mod lexer;
mod parser;
mod principal;
pub mod regex;
mod session;
mod values;

pub use assertion::{Assertion, AssertionBuilder};
pub use principal::{key_principal, Principal};
pub use session::{ComplianceValue, Session};

/// Errors produced while parsing or evaluating KeyNote assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyNoteError {
    /// The assertion text could not be parsed.
    Syntax(String),
    /// A credential's signature did not verify.
    BadSignature,
    /// A credential is missing a required field (e.g. `Signature`).
    MissingField(&'static str),
    /// The authorizer of a credential is not a cryptographic key.
    AuthorizerNotAKey,
    /// A principal string could not be understood.
    BadPrincipal(String),
    /// A compliance value was referenced that is not in the query's set.
    UnknownValue(String),
    /// The session was queried without any policy assertions.
    NoPolicy,
}

impl std::fmt::Display for KeyNoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyNoteError::Syntax(msg) => write!(f, "syntax error: {msg}"),
            KeyNoteError::BadSignature => write!(f, "credential signature verification failed"),
            KeyNoteError::MissingField(name) => write!(f, "missing assertion field: {name}"),
            KeyNoteError::AuthorizerNotAKey => {
                write!(f, "credential authorizer is not a cryptographic key")
            }
            KeyNoteError::BadPrincipal(p) => write!(f, "malformed principal: {p}"),
            KeyNoteError::UnknownValue(v) => write!(f, "compliance value not in query set: {v}"),
            KeyNoteError::NoPolicy => write!(f, "no POLICY assertions in session"),
        }
    }
}

impl std::error::Error for KeyNoteError {}
