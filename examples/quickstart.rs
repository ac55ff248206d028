//! Quickstart: store a file on a DisCFS server and share it with a
//! user the server has never heard of.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;

fn main() {
    // A server ("Alice" in the paper's Figure 6) with an administrator
    // whose key is the root of the trust graph.
    let bed = Testbed::instant();
    println!("DisCFS server up; administrator key is the policy root.\n");

    // Bob is an internal user: the admin granted him the root directory.
    let bob = SigningKey::from_seed(&[0xB0; 32]);
    let bob_grant = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .comment("root directory for bob")
        .issue();
    println!("Administrator issued Bob a credential:\n{bob_grant}");

    // Bob attaches (IKE handshake binds his key to the connection),
    // submits his credential, and stores a paper.
    let mut bob_client = bed.connect(&bob).expect("bob attaches");
    bob_client.submit_credential(&bob_grant).expect("accepted");
    let root = bob_client.remote().root();
    let created = bob_client
        .create_with_credential(&root, "paper.tex", 0o644)
        .expect("create with credential");
    bob_client
        .client()
        .write_all(
            &created.fh,
            0,
            b"\\title{Secure and Flexible Global File Sharing}",
        )
        .expect("write");
    println!(
        "Bob stored paper.tex (handle {}); the server returned him a credential for it.\n",
        created.fh.credential_string()
    );

    // Alice is an *external* user — no account, unknown to the server.
    // Bob shares the paper by issuing a credential and emailing it to
    // her, together with his own chain link. Nobody talks to the admin.
    let alice = SigningKey::from_seed(&[0xA1; 32]);
    let to_alice = CredentialIssuer::new(&bob)
        .holder(&alice.public())
        .grant(&created.fh, Perm::R)
        .comment("read access to my paper for alice")
        .issue();
    println!("Bob issued Alice read access:\n{to_alice}");

    // Alice attaches with her own key and presents the chain.
    let alice_client = bed.connect(&alice).expect("alice attaches");
    alice_client
        .submit_credential(&created.credential)
        .expect("chain link: server -> bob");
    alice_client
        .submit_credential(&to_alice)
        .expect("chain link: bob -> alice");

    let text = alice_client
        .client()
        .read_all(&created.fh, 0, 100)
        .expect("alice reads");
    println!("Alice read the paper: {:?}", String::from_utf8_lossy(&text));

    // But writing is denied: Bob delegated R only.
    let denied = alice_client.client().write(&created.fh, 0, b"edit");
    println!("Alice's write attempt: {denied:?} (denied, as expected)");

    // The audit log shows key A used, key B authorized (§4.2).
    let denials = bed.service().audit().denials();
    println!(
        "\nAudit log recorded {} denial(s); last: op={} requester={}…",
        denials.len(),
        denials.last().map(|r| r.op()).unwrap_or("-"),
        &denials.last().map(|r| r.requester()).unwrap_or_default()[..16],
    );
}
