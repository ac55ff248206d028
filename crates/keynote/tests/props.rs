//! Property tests for the KeyNote engine.
//!
//! The two critical properties:
//! 1. **No panic, ever** — assertions and conditions arrive over the
//!    network from strangers; parsing and evaluation must fail closed,
//!    not crash the server.
//! 2. **Delegation monotonicity** — a chain can only narrow rights; no
//!    combination of credentials grants more than the weakest link.

use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::check::{check, TEXT};
use keynote::{Assertion, AssertionBuilder, Session};

const PERMS: [&str; 8] = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"];

/// Arbitrary bytes never panic the assertion parser.
#[test]
fn parser_never_panics() {
    check("parser_never_panics", 128, |src| {
        let _ = Assertion::parse(&src.string(0..501, TEXT));
    });
}

/// Structured-looking garbage never panics either.
#[test]
fn structured_garbage_never_panics() {
    check("structured_garbage_never_panics", 128, |src| {
        let field = src.string(1..21, &['A'..='Z', 'a'..='z', '-'..='-']);
        let body = src.string(0..201, TEXT);
        let text = format!("{field}: {body}\nAuthorizer: \"POLICY\"\n");
        let _ = Assertion::parse(&text);
    });
}

/// Arbitrary conditions bodies never panic parse or evaluation.
#[test]
fn conditions_never_panic() {
    check("conditions_never_panic", 128, |src| {
        let body = src.string(0..301, TEXT);
        let text = format!("Authorizer: \"POLICY\"\nLicensees: \"user\"\nConditions: {body}\n");
        if let Ok(_assertion) = Assertion::parse(&text) {
            let mut session = Session::new(&PERMS);
            if session.add_policy(&text).is_ok() {
                session.set_attribute("app_domain", "DisCFS");
                session.add_requester(keynote::Principal::Opaque("user".into()));
                // Whatever happens, it must be a value or a clean error.
                let _ = session.query();
            }
        }
    });
}

/// Builder output always reparses and verifies.
#[test]
fn builder_round_trip() {
    check("builder_round_trip", 128, |src| {
        let issuer = SigningKey::from_seed(&[src.range(1u8..255); 32]);
        let holder = SigningKey::from_seed(&[src.range(1u8..255); 32]);
        let digits = ['0'..='9'];
        let (major, minor) = (src.string(1..9, &digits), src.string(1..5, &digits));
        let perm = PERMS[src.range(1usize..8)];
        let comment = src.string(0..61, &[' '..='~']);
        let text = AssertionBuilder::new()
            .comment(&comment)
            .licensee_key(&holder.public())
            .conditions(&format!(
                "(app_domain == \"DisCFS\") && (HANDLE == \"{major}.{minor}\") -> \"{perm}\";"
            ))
            .sign(&issuer);
        let assertion = Assertion::parse(&text).expect("builder output parses");
        assertion.verify().expect("builder output verifies");
    });
}

/// Any single-byte corruption of the SIGNED PORTION of a credential
/// is caught (either it stops parsing or the signature fails).
/// Corruption inside the Signature field itself may be semantically
/// inert (hex is case-insensitive), but then the authorized content
/// is untouched — which is exactly the guarantee that matters.
#[test]
fn corruption_detected() {
    let issuer = SigningKey::from_seed(&[1; 32]);
    let holder = SigningKey::from_seed(&[2; 32]);
    let text = AssertionBuilder::new()
        .licensee_key(&holder.public())
        .conditions("(HANDLE == \"42.1\") -> \"RW\";")
        .sign(&issuer);
    let signed_prefix_len = text.find("Signature:").expect("signed credential");
    check("corruption_detected", 128, |src| {
        let mut bytes = text.clone().into_bytes();
        let pos = src.range(0..bytes.len());
        bytes[pos] = bytes[pos].wrapping_add(src.range(1u8..255));
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(assertion) = Assertion::parse(&corrupted) {
            if assertion.verify().is_ok() {
                // Verification can only still succeed when the signed
                // portion is byte-identical — i.e. the flip landed in
                // the Signature field and decoded to the same bytes.
                assert!(
                    pos >= signed_prefix_len,
                    "flip at {pos} inside signed portion passed verify"
                );
                assert_eq!(&corrupted[..signed_prefix_len], &text[..signed_prefix_len]);
            }
        }
    });
}

/// Delegation monotonicity: the value granted to the end of a chain
/// never exceeds the minimum link grant.
#[test]
fn chain_never_amplifies() {
    check("chain_never_amplifies", 128, |src| {
        let grants = src.vec(1..6, |src| src.range(0usize..8));
        let admin = SigningKey::from_seed(&[1; 32]);
        let policy = AssertionBuilder::new()
            .licensee_key(&admin.public())
            .policy();
        let mut keys = vec![admin];
        for i in 0..grants.len() {
            keys.push(SigningKey::from_seed(&[10 + i as u8; 32]));
        }
        let mut session = Session::new(&PERMS);
        session.add_policy(&policy).unwrap();
        for (i, pair) in keys.windows(2).enumerate() {
            let cred = AssertionBuilder::new()
                .licensee_key(&pair[1].public())
                .conditions(&format!(
                    "(app_domain == \"DisCFS\") -> \"{}\";",
                    PERMS[grants[i]]
                ))
                .sign(&pair[0]);
            session.add_credential(&cred).unwrap();
        }
        session.set_attribute("app_domain", "DisCFS");
        session.add_requester_key(&keys.last().unwrap().public());
        let value = session.query().unwrap();
        let min_grant = *grants.iter().min().expect("non-empty");
        assert!(
            value.index() <= min_grant,
            "chain yielded {} but weakest link grants {}",
            value.as_str(),
            PERMS[min_grant]
        );
        // And with all links present it is exactly the minimum.
        assert_eq!(value.index(), min_grant);
    });
}

/// Regex engine: never panics, and literal self-match always holds.
#[test]
fn regex_never_panics() {
    check("regex_never_panics", 128, |src| {
        let (pattern, subject) = (src.string(0..41, TEXT), src.string(0..81, TEXT));
        if let Ok(re) = keynote::regex::Regex::new(&pattern) {
            let _ = re.is_match(&subject);
        }
    });
}

/// Literal strings (no metacharacters) always match themselves.
#[test]
fn regex_literal_self_match() {
    check("regex_literal_self_match", 128, |src| {
        let subject = src.string(1..41, &['a'..='z', 'A'..='Z', '0'..='9', ' '..=' ']);
        let re = keynote::regex::Regex::new(&subject).expect("literal compiles");
        assert!(re.is_match(&subject));
    });
}
