//! Adversarial integration tests: the security arguments of §4 under
//! attack, end to end.

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use nfsv2::{ClientError, NfsStat};

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

#[test]
fn stolen_credential_useless_without_private_key() {
    // Mallory intercepts Bob's credential in transit (it travels by
    // email, after all). She can submit it — but her requests are
    // signed by HER channel key, and the credential licenses Bob's.
    let bed = Testbed::instant();
    let bob = key(2);
    let mallory = key(6);

    let bob_cred = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();

    let mallory_client = bed.connect(&mallory).expect("mallory attaches");
    // Submission succeeds — the credential is genuine.
    mallory_client
        .submit_credential(&bob_cred)
        .expect("genuine credential");
    // But access is still denied: the compliance check requires the
    // requester (channel key) to appear in the delegation graph.
    let err = mallory_client
        .client()
        .readdir_all(&mallory_client.remote().root());
    assert!(matches!(err, Err(ClientError::Status(NfsStat::Acces))));
}

#[test]
fn tampered_credential_rejected_at_submission() {
    let bed = Testbed::instant();
    let bob = key(2);
    let cred = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::R)
        .issue();
    // Escalate R to RWX in the text.
    let tampered = cred.replace("-> \"R\";", "-> \"RWX\";");
    assert_ne!(cred, tampered);
    let client = bed.connect(&bob).expect("attach");
    assert!(client.submit_credential(&tampered).is_err());
}

#[test]
fn self_issued_credential_has_no_authority() {
    // Anyone can SIGN a credential; without a chain from POLICY it
    // grants nothing.
    let bed = Testbed::instant();
    let mallory = key(6);
    let self_grant = CredentialIssuer::new(&mallory)
        .holder(&mallory.public())
        .grant_handle_string("1.1", Perm::RWX)
        .comment("signed by myself, for myself")
        .issue();
    let client = bed.connect(&mallory).expect("attach");
    client
        .submit_credential(&self_grant)
        .expect("verifies fine");
    let err = client.client().readdir_all(&client.remote().root());
    assert!(err.is_err(), "self-signed authority must not work");
}

#[test]
fn delegation_cannot_escalate_rights() {
    // Bob holds R. He "generously" delegates RWX to Alice. The chain
    // minimum caps her at R.
    let bed = Testbed::instant();
    let bob = key(2);
    let _alice = key(3);

    let mut bob_client = bed.connect_owner(&bob).expect("attach");
    let root = bob_client.remote().root();
    let file = bob_client
        .create_with_credential(&root, "data", 0o644)
        .expect("create");
    bob_client
        .client()
        .write_all(&file.fh, 0, b"original")
        .unwrap();

    // Admin gives Carol R only on this file; Carol tries to give Dave RWX.
    let carol = key(4);
    let dave = key(5);
    let carol_r = CredentialIssuer::new(bed.admin())
        .holder(&carol.public())
        .grant(&file.fh, Perm::R)
        .issue();
    let dave_rwx = CredentialIssuer::new(&carol)
        .holder(&dave.public())
        .grant(&file.fh, Perm::RWX)
        .issue();

    let dave_client = bed.connect(&dave).expect("attach");
    dave_client.submit_credential(&carol_r).unwrap();
    dave_client.submit_credential(&dave_rwx).unwrap();
    // Read works (chain: admin→carol R, carol→dave RWX ⇒ min = R)…
    assert_eq!(
        dave_client.client().read_all(&file.fh, 0, 8).unwrap(),
        b"original"
    );
    // …write does not.
    assert!(dave_client.client().write(&file.fh, 0, b"evil!").is_err());
}

#[test]
fn handle_guessing_denied() {
    // Even knowing/guessing a valid handle, no credential ⇒ no access.
    let bed = Testbed::instant();
    let bob = key(2);
    let mut bob_client = bed.connect_owner(&bob).expect("attach");
    let secret = bob_client
        .create_with_credential(&bob_client.remote().root(), "secret", 0o600)
        .expect("create");
    bob_client
        .client()
        .write_all(&secret.fh, 0, b"top secret")
        .unwrap();

    let mallory = key(6);
    let mallory_client = bed.connect(&mallory).expect("attach");
    // Mallory "guesses" the exact handle bytes.
    let err = mallory_client.client().read(&secret.fh, 0, 10);
    assert!(matches!(err, Err(ClientError::Status(NfsStat::Acces))));
}

#[test]
fn recycled_inode_does_not_inherit_credentials() {
    // Bob holds a credential for file A. A is deleted; the inode is
    // recycled into Carol's file B. Bob's old credential must not open
    // B: the generation number in the handle differs.
    let bed = Testbed::instant();
    let owner = key(2);
    let mut owner_client = bed.connect_owner(&owner).expect("attach");
    let root = owner_client.remote().root();

    let file_a = owner_client
        .create_with_credential(&root, "a.txt", 0o644)
        .expect("create a");
    let (_, ino_a, gen_a) = file_a.fh.unpack();
    owner_client.client().remove(&root, "a.txt").unwrap();

    // Recreate until the inode number is reused.
    let mut file_b = None;
    for i in 0..600 {
        let f = owner_client
            .create_with_credential(&root, &format!("b{i}.txt"), 0o644)
            .expect("create b");
        let (_, ino_b, gen_b) = f.fh.unpack();
        if ino_b == ino_a {
            assert_ne!(gen_b, gen_a, "generation must change on reuse");
            file_b = Some(f);
            break;
        }
    }
    let file_b = file_b.expect("inode should recycle");
    owner_client
        .client()
        .write_all(&file_b.fh, 0, b"carol's data")
        .unwrap();

    // The old handle is stale at the protocol level.
    let err = owner_client.client().read(&file_a.fh, 0, 10);
    assert!(matches!(err, Err(ClientError::Status(NfsStat::Stale))));
}

#[test]
fn revocation_wins_over_valid_chain() {
    let bed = Testbed::instant();
    let bob = key(2);
    let client = bed.connect_owner(&bob).expect("attach");
    assert!(client.client().readdir_all(&client.remote().root()).is_ok());

    // Revoke mid-session: cached decisions must not linger.
    bed.service().revoke_key(&bob.public(), None);
    assert!(client
        .client()
        .readdir_all(&client.remote().root())
        .is_err());
}

#[test]
fn anonymous_channel_gets_nothing() {
    // A client that connects over a *plain* channel (no IKE identity)
    // cannot even mount: DisCFS requires the channel identity.
    use ipsec::PlainChannel;
    use netsim::{Link, SimClock};

    let bed = Testbed::instant();
    let clock = SimClock::new();
    let (client_end, server_end) = Link::loopback(&clock);
    let service = bed.service().clone();
    std::thread::spawn(move || {
        nfsv2::server::serve_connection(service, Box::new(PlainChannel::new(server_end)));
    });
    let client = nfsv2::NfsClient::new(Box::new(PlainChannel::new(client_end)));
    let err = client.mount("/");
    assert!(
        matches!(err, Err(ClientError::Status(NfsStat::Acces))),
        "got {err:?}"
    );
}

#[test]
fn expired_credential_cannot_be_replayed_later() {
    let bed = Testbed::instant();
    let bob = key(2);
    let client = bed.connect(&bob).expect("attach");
    let short_lived = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .expires_at(100)
        .issue();
    client.submit_credential(&short_lived).unwrap();

    bed.service().set_time(99);
    assert!(client.client().readdir_all(&client.remote().root()).is_ok());

    bed.service().set_time(101);
    assert!(client
        .client()
        .readdir_all(&client.remote().root())
        .is_err());

    // Submitting it again later changes nothing: conditions re-evaluate.
    client.submit_credential(&short_lived).unwrap();
    assert!(client
        .client()
        .readdir_all(&client.remote().root())
        .is_err());
}
