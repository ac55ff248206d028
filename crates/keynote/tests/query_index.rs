//! Directed cases for the query index (crate docs, "Cost of a query"):
//! each is a shape where filing an assertion under the wrong equality —
//! or skipping it when its equality does not hold — would change the
//! answer. Every expected value follows from RFC 2704 alone.

use discfs_crypto::ed25519::SigningKey;
use keynote::{Assertion, AssertionBuilder, KeyNoteError, Session};

const PERMS: [&str; 8] = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"];

fn admin() -> SigningKey {
    SigningKey::from_seed(&[1; 32])
}
fn bob() -> SigningKey {
    SigningKey::from_seed(&[2; 32])
}

/// A session trusting `admin`, holding credentials `admin` issued to
/// `bob` with the given conditions, with `bob` as the requester.
fn session_with(conditions: &[&str]) -> Session {
    let mut session = Session::new(&PERMS);
    session
        .add_policy(
            &AssertionBuilder::new()
                .licensee_key(&admin().public())
                .policy(),
        )
        .unwrap();
    for program in conditions {
        let credential = AssertionBuilder::new()
            .licensee_key(&bob().public())
            .conditions(program)
            .sign(&admin());
        session.add_credential(&credential).unwrap();
    }
    session.add_requester_key(&bob().public());
    session
}

fn answer(session: &Session) -> String {
    session.query().unwrap().as_str().to_string()
}

#[test]
fn empty_literal_matches_an_undefined_attribute() {
    // RFC 2704: an undefined attribute dereferences to "". No action
    // attribute value selects this credential, so it cannot be filed
    // under `HANDLE == ""`.
    let mut session = session_with(&["(HANDLE == \"\") -> \"R\";"]);
    assert_eq!(answer(&session), "R");
    session.set_attribute("HANDLE", "");
    assert_eq!(answer(&session), "R");
    session.set_attribute("HANDLE", "5.1");
    assert_eq!(answer(&session), "false");
}

#[test]
fn literal_on_the_left() {
    let mut session = session_with(&["(\"5.1\" == HANDLE) -> \"RW\";"]);
    assert_eq!(answer(&session), "false");
    session.set_attribute("HANDLE", "5.1");
    assert_eq!(answer(&session), "RW");
    session.set_attribute("HANDLE", "5.10");
    assert_eq!(answer(&session), "false");
}

#[test]
fn equality_under_negation_is_not_required() {
    let mut session = session_with(&["!(HANDLE == \"5.1\") -> \"R\";"]);
    assert_eq!(answer(&session), "R");
    session.set_attribute("HANDLE", "6.1");
    assert_eq!(answer(&session), "R");
    session.set_attribute("HANDLE", "5.1");
    assert_eq!(answer(&session), "false");
}

#[test]
fn equality_in_one_arm_of_a_disjunction_is_not_required() {
    let mut session = session_with(&[
        "(app_domain == \"DisCFS\") && ((HANDLE == \"5.1\") || (hour < 9)) -> \"R\";",
    ]);
    session.set_attribute("app_domain", "DisCFS");
    session.set_attribute("HANDLE", "6.1");
    session.set_attribute("hour", "8");
    assert_eq!(answer(&session), "R", "the other arm holds");
    session.set_attribute("hour", "12");
    assert_eq!(answer(&session), "false");
    session.set_attribute("HANDLE", "5.1");
    assert_eq!(answer(&session), "R");
    session.set_attribute("app_domain", "other");
    assert_eq!(
        answer(&session),
        "false",
        "the guard outside the || is required"
    );
}

#[test]
fn special_attribute_equality_is_evaluated_not_looked_up() {
    // `_MAX_TRUST` is supplied by the session; an action attribute of
    // the same name must not select (or hide) the credential.
    let mut session = session_with(&["(_MAX_TRUST == \"RWX\") -> \"R\";"]);
    assert_eq!(answer(&session), "R");
    session.set_attribute("_MAX_TRUST", "spoofed");
    assert_eq!(answer(&session), "R");
}

#[test]
fn one_credential_granting_three_handles() {
    let mut session = session_with(&["(HANDLE == \"1.1\") -> \"R\"; \
          (HANDLE == \"2.1\") -> \"RW\"; \
          (app_domain == \"DisCFS\") && (HANDLE == \"3.1\") -> \"RWX\";"]);
    session.set_attribute("app_domain", "DisCFS");
    for (handle, expected) in [
        ("1.1", "R"),
        ("2.1", "RW"),
        ("3.1", "RWX"),
        ("4.1", "false"),
    ] {
        session.set_attribute("HANDLE", handle);
        assert_eq!(answer(&session), expected, "handle {handle}");
    }
}

#[test]
fn two_credentials_for_one_handle_max_wins() {
    let mut session = session_with(&[
        "(app_domain == \"DisCFS\") && (HANDLE == \"9.1\") -> \"W\";",
        "(app_domain == \"DisCFS\") && (HANDLE == \"9.1\") -> \"RX\";",
        "(app_domain == \"DisCFS\") && (HANDLE == \"8.1\") -> \"RWX\";",
    ]);
    session.set_attribute("app_domain", "DisCFS");
    session.set_attribute("HANDLE", "9.1");
    assert_eq!(answer(&session), "RX");
}

#[test]
fn nested_program_is_guarded_by_its_outer_test_only() {
    let mut session = session_with(&[
        "(app_domain == \"DisCFS\") -> { (HANDLE == \"1.1\") -> \"R\"; true -> \"X\"; };",
    ]);
    session.set_attribute("app_domain", "DisCFS");
    session.set_attribute("HANDLE", "2.1");
    assert_eq!(answer(&session), "X");
    session.set_attribute("HANDLE", "1.1");
    assert_eq!(answer(&session), "R");
}

#[test]
fn support_through_a_cycle_does_not_depend_on_visiting_order() {
    // Policy needs bob AND carol. Bob delegates to carol and to the
    // requester dave (RW); carol delegates back to bob (R). Carol's
    // support runs through bob: R. A walk that reaches carol while bob
    // is still on its path sees bob's value before it is final, and
    // must not keep what it computed from it.
    let carol = SigningKey::from_seed(&[3; 32]);
    let dave = SigningKey::from_seed(&[4; 32]);
    let link = |from: &SigningKey, to: &SigningKey, value: &str| {
        AssertionBuilder::new()
            .licensee_key(&to.public())
            .conditions(&format!("true -> \"{value}\";"))
            .sign(from)
    };
    let links = [
        link(&bob(), &carol, "RWX"),
        link(&bob(), &dave, "RW"),
        link(&carol, &bob(), "R"),
    ];
    let (bob_name, carol_name) = (
        keynote::key_principal(&bob().public()),
        keynote::key_principal(&carol.public()),
    );
    for licensees in [
        format!("\"{bob_name}\" && \"{carol_name}\""),
        format!("\"{carol_name}\" && \"{bob_name}\""),
    ] {
        for order in [[0, 1, 2], [1, 0, 2], [2, 1, 0], [2, 0, 1]] {
            let mut session = Session::new(&PERMS);
            session
                .add_policy(&AssertionBuilder::new().licensees_expr(&licensees).policy())
                .unwrap();
            for at in order {
                session.add_credential(&links[at]).unwrap();
            }
            session.add_requester_key(&dave.public());
            assert_eq!(answer(&session), "R", "{licensees}, order {order:?}");
        }
    }
}

#[test]
fn retained_session_answers_like_a_fresh_one() {
    let programs: Vec<String> = (0..40)
        .map(|i| format!("(app_domain == \"DisCFS\") && (HANDLE == \"{i}.1\") -> \"RW\";"))
        .collect();
    let refs: Vec<&str> = programs.iter().map(String::as_str).collect();
    let mut session = session_with(&refs);
    session.set_attribute("app_domain", "DisCFS");
    let revoked: Vec<String> = session
        .credentials()
        .iter()
        .step_by(3)
        .map(|a| a.id().to_string())
        .collect();
    session.retain_credentials(|a| !revoked.iter().any(|id| id == a.id()));
    assert_eq!(session.credentials().len(), 26);
    for i in 0..40 {
        session.set_attribute("HANDLE", &format!("{i}.1"));
        let expected = if i % 3 == 0 { "false" } else { "RW" };
        assert_eq!(answer(&session), expected, "handle {i}.1");
    }
}

#[test]
fn every_entry_point_refuses_a_tampered_credential_and_takes_the_genuine_one() {
    // A credential's text, tampered with, is refused by every way into
    // a session that takes text or a parsed assertion.
    let genuine = AssertionBuilder::new()
        .licensee_key(&bob().public())
        .conditions("(HANDLE == \"1.1\") -> \"R\";")
        .sign(&admin());
    let tampered = genuine.replace("\"R\"", "\"RWX\"");
    assert_ne!(tampered, genuine);

    let mut session = session_with(&[]);
    assert_eq!(
        session.add_credential(&tampered),
        Err(KeyNoteError::BadSignature)
    );
    assert_eq!(
        session.add_assertion(Assertion::parse(&tampered).unwrap()),
        Err(KeyNoteError::BadSignature)
    );
    assert!(matches!(
        session.add_policy(&tampered),
        Err(KeyNoteError::Syntax(_))
    ));
    assert!(session.credentials().is_empty());

    // The genuine text verifies and takes effect.
    session.add_credential(&genuine).unwrap();
    session.set_attribute("HANDLE", "1.1");
    assert_eq!(answer(&session), "R");
}
