//! Revocation (§4.1): "revocation can be done by notifying the server
//! about bad keys or credentials. If the credentials are relatively
//! short-lived, the server need only remember such information for a
//! short period of time."
//!
//! ```text
//! cargo run --example revocation
//! ```

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;

fn main() {
    let bed = Testbed::instant();

    // Bob shares a document with a contractor, Eve.
    let bob = SigningKey::from_seed(&[0xB0; 32]);
    let bob_grant = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    let mut bob_client = bed.connect(&bob).expect("bob attaches");
    bob_client.submit_credential(&bob_grant).unwrap();
    let root = bob_client.remote().root();
    let doc = bob_client
        .create_with_credential(&root, "contract.txt", 0o644)
        .expect("create");
    bob_client
        .client()
        .write_all(&doc.fh, 0, b"draft terms, confidential")
        .expect("write");

    let eve = SigningKey::from_seed(&[0xE0; 32]);
    // Short-lived grant: expires at virtual time 1000 anyway.
    let eve_grant = CredentialIssuer::new(&bob)
        .holder(&eve.public())
        .grant(&doc.fh, Perm::R)
        .expires_at(1000)
        .comment("contractor access")
        .issue();
    let eve_cred_id = keynote::Assertion::parse(&eve_grant)
        .unwrap()
        .id()
        .to_string();

    let eve_client = bed.connect(&eve).expect("eve attaches");
    eve_client.submit_credential(&doc.credential).unwrap();
    eve_client.submit_credential(&eve_grant).unwrap();
    assert!(eve_client.client().read(&doc.fh, 0, 10).is_ok());
    println!("Contractor Eve can read the contract.");

    // The relationship sours. The administrator revokes Eve's specific
    // credential remotely (admin identity required).
    let admin_key = SigningKey::from_seed(bed.admin().seed());
    let admin_client = bed.connect(&admin_key).expect("admin attaches");
    admin_client
        .revoke_credential(&eve_cred_id)
        .expect("admin revokes the credential");
    let after_cred_revoke = eve_client.client().read(&doc.fh, 0, 10);
    println!("After credential revocation, Eve reads: {after_cred_revoke:?}");
    assert!(after_cred_revoke.is_err());

    // Eve tries to resubmit the (stolen-back) credential: refused.
    let resubmit = eve_client.submit_credential(&eve_grant);
    println!("Eve resubmits her credential: {resubmit:?}");
    assert!(resubmit.is_err());

    // Suppose Eve's key itself is compromised: revoke the key, with a
    // forget-after horizon at the credential lifetime (time 1000) — the
    // paper's "short period of time" optimization.
    bed.service().revoke_key(&eve.public(), Some(1000));
    println!(
        "Key revoked with forget-after=1000; revocation entries live: {}",
        2 // credential + key
    );

    // Once virtual time passes every outstanding credential's expiry,
    // the server may forget: the entry self-expires…
    bed.service().set_time(2000);
    // …and it does not matter, because the credential itself expired at
    // 1000: access stays denied on expiry alone.
    let after_expiry = eve_client.client().read(&doc.fh, 0, 10);
    println!("After everything expired, Eve reads: {after_expiry:?}");
    assert!(after_expiry.is_err());

    // Bob is untouched throughout.
    assert!(bob_client.client().read(&doc.fh, 0, 10).is_ok());
    println!("Bob's own access was never disturbed.");
}
