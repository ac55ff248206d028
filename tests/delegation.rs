//! Delegation-graph integration tests: the trust-management claims of
//! §4.1–§4.2 exercised through the full server.

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

#[test]
fn long_chain_through_live_server() {
    // Exokernel caps capability trees at 8 levels; DisCFS chains are
    // arbitrary. Run a 10-link chain through the real server.
    let bed = Testbed::instant();
    let mut links = vec![SigningKey::from_seed(bed.admin().seed())];
    for i in 0..10u8 {
        links.push(key(50 + i));
    }
    let last = links.last().unwrap();
    let client = bed.connect(last).expect("attach");
    for pair in links.windows(2) {
        let cred = CredentialIssuer::new(&pair[0])
            .holder(&pair[1].public())
            .grant_handle_string("1.1", Perm::R)
            .issue();
        client
            .submit_credential(&cred)
            .expect("chain link accepted");
    }
    assert!(client.client().readdir_all(&client.remote().root()).is_ok());
}

#[test]
fn broken_chain_denies() {
    let bed = Testbed::instant();
    let mut links = vec![SigningKey::from_seed(bed.admin().seed())];
    for i in 0..5u8 {
        links.push(key(60 + i));
    }
    let last = links.last().unwrap();
    let client = bed.connect(last).expect("attach");
    for (i, pair) in links.windows(2).enumerate() {
        if i == 2 {
            continue; // withhold the middle link
        }
        let cred = CredentialIssuer::new(&pair[0])
            .holder(&pair[1].public())
            .grant_handle_string("1.1", Perm::R)
            .issue();
        client.submit_credential(&cred).unwrap();
    }
    assert!(
        client
            .client()
            .readdir_all(&client.remote().root())
            .is_err(),
        "a gap in the chain must deny access"
    );
}

#[test]
fn threshold_credential_requires_quorum() {
    // A 2-of-3 board must jointly authorize access to the minutes.
    let bed = Testbed::instant();
    let board: Vec<SigningKey> = (0..3u8).map(|i| key(70 + i)).collect();
    let clerk = key(80);

    // The admin requires two board members to co-sign for the clerk...
    // modelled as: admin delegates to 2-of(board), and the board members
    // each delegate to the clerk.
    let expr = format!(
        "2-of(\"{}\", \"{}\", \"{}\")",
        keynote::key_principal(&board[0].public()),
        keynote::key_principal(&board[1].public()),
        keynote::key_principal(&board[2].public()),
    );
    let quorum_cred = CredentialIssuer::new(bed.admin())
        .licensees_expr(&expr)
        .grant_handle_string("1.1", Perm::R)
        .issue();

    // With board member 0's delegation only, the clerk has one of the
    // two required supporters.
    let b0_to_clerk = CredentialIssuer::new(&board[0])
        .holder(&clerk.public())
        .grant_handle_string("1.1", Perm::R)
        .issue();
    let client = bed.connect(&clerk).expect("attach");
    client.submit_credential(&quorum_cred).unwrap();
    client.submit_credential(&b0_to_clerk).unwrap();
    assert!(
        client
            .client()
            .readdir_all(&client.remote().root())
            .is_err(),
        "one board member is not a quorum"
    );

    // Adding board member 2's delegation reaches the threshold.
    let b2_to_clerk = CredentialIssuer::new(&board[2])
        .holder(&clerk.public())
        .grant_handle_string("1.1", Perm::R)
        .issue();
    client.submit_credential(&b2_to_clerk).unwrap();
    assert!(client.client().readdir_all(&client.remote().root()).is_ok());
}

#[test]
fn per_file_granularity() {
    // Credentials name individual handles: access to one file reveals
    // nothing else — the granularity claim of §2.
    let bed = Testbed::instant();
    let bob = key(2);
    let mut bob_client = bed.connect_owner(&bob).expect("attach");
    let root = bob_client.remote().root();

    let public_doc = bob_client
        .create_with_credential(&root, "public.txt", 0o644)
        .expect("create public");
    let private_doc = bob_client
        .create_with_credential(&root, "private.txt", 0o600)
        .expect("create private");
    bob_client
        .client()
        .write_all(&public_doc.fh, 0, b"for alice")
        .unwrap();
    bob_client
        .client()
        .write_all(&private_doc.fh, 0, b"bob only")
        .unwrap();

    let alice = key(3);
    let cred = CredentialIssuer::new(&bob)
        .holder(&alice.public())
        .grant(&public_doc.fh, Perm::R)
        .issue();
    let alice_client = bed.connect(&alice).expect("attach");
    alice_client
        .submit_credential(&public_doc.credential)
        .unwrap();
    alice_client.submit_credential(&cred).unwrap();

    assert_eq!(
        alice_client
            .client()
            .read_all(&public_doc.fh, 0, 16)
            .unwrap(),
        b"for alice"
    );
    assert!(alice_client.client().read(&private_doc.fh, 0, 16).is_err());
    // She cannot even list the directory.
    assert!(alice_client.client().readdir_all(&root).is_err());
}

#[test]
fn multiple_grants_union_through_separate_credentials() {
    // R from one chain, W from another: the linear compliance order
    // means the single query yields max(R, W) = R in the paper's value
    // set, NOT the union. This test documents that faithful behavior.
    let bed = Testbed::instant();
    let bob = key(2);
    let client = bed.connect(&bob).expect("attach");
    let r_cred = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::R)
        .issue();
    let w_cred = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::W)
        .issue();
    client.submit_credential(&r_cred).unwrap();
    client.submit_credential(&w_cred).unwrap();

    // max(R=4, W=2) over the ordered value set is R: reads work…
    assert!(client.client().readdir_all(&client.remote().root()).is_ok());
    // …writes do not (the paper's linearized lattice, not a union).
    let err = client.client().create(
        &client.remote().root(),
        "f",
        &nfsv2::Sattr::with_mode(0o644),
    );
    assert!(err.is_err());

    // A single credential granting RW behaves as expected.
    let rw_cred = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    client.submit_credential(&rw_cred).unwrap();
    assert!(client
        .client()
        .create(
            &client.remote().root(),
            "f",
            &nfsv2::Sattr::with_mode(0o644)
        )
        .is_ok());
}

#[test]
fn audit_reconstructs_authorization_path() {
    let bed = Testbed::instant();
    let bob = key(2);
    let alice = key(3);

    let mut bob_client = bed.connect_owner(&bob).expect("attach");
    let file = bob_client
        .create_with_credential(&bob_client.remote().root(), "x", 0o644)
        .expect("create");

    let to_alice = CredentialIssuer::new(&bob)
        .holder(&alice.public())
        .grant(&file.fh, Perm::R)
        .issue();
    let alice_client = bed.connect(&alice).expect("attach");
    alice_client.submit_credential(&file.credential).unwrap();
    alice_client.submit_credential(&to_alice).unwrap();
    alice_client.client().read(&file.fh, 0, 4).unwrap();

    // The log shows Alice's key as requester and Bob's among the
    // authorizers — "key A was used and key B authorized" (§4.2).
    let records = bed
        .service()
        .audit()
        .by_requester(&discfs_crypto::hex::encode(&alice.public().0));
    let read_rec = records
        .iter()
        .rfind(|r| r.op() == "read" && r.allowed)
        .expect("alice's read is logged");
    let bob_principal = keynote::key_principal(&bob.public());
    assert!(
        read_rec.authorizers().contains(&bob_principal),
        "bob must appear as an authorizer: {:?}",
        read_rec.authorizers()
    );
}
