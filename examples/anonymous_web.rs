//! The paper's §7 future-work scenario: "new file sharing policies for
//! unusual scenarios, such as the untrusted users characteristic of the
//! WWW" — anonymous browsing of published files, with credentials still
//! gating everything else.
//!
//! ```text
//! cargo run --example anonymous_web
//! ```

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;

fn main() {
    let bed = Testbed::instant();

    // The webmaster publishes a site.
    let webmaster = SigningKey::from_seed(&[0x3B; 32]);
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&webmaster.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    let mut master_client = bed.connect(&webmaster).expect("webmaster attaches");
    master_client.submit_credential(&grant).unwrap();
    let root = master_client.remote().root();

    let index = master_client
        .create_with_credential(&root, "index.html", 0o644)
        .expect("create index");
    master_client
        .client()
        .write_all(&index.fh, 0, b"<h1>Welcome to DisCFS</h1>")
        .expect("write");
    let draft = master_client
        .create_with_credential(&root, "draft.html", 0o600)
        .expect("create draft");
    master_client
        .client()
        .write_all(&draft.fh, 0, b"<h1>Unreleased redesign</h1>")
        .expect("write");

    // Publish index.html to the world: read access for ANY key, no
    // credential needed (like a Web server's anonymous GET).
    bed.service().set_public_access(&index.fh, Perm::R);
    println!("index.html published for anonymous reading.\n");

    // A complete stranger — fresh keypair, no credentials, no account.
    let visitor = SigningKey::from_seed(&[0x77; 32]);
    let browser = bed.connect(&visitor).expect("visitor attaches");

    let page = browser
        .client()
        .read_all(&index.fh, 0, 100)
        .expect("anonymous read of the published page");
    println!(
        "visitor GET index.html → {:?}",
        String::from_utf8_lossy(&page)
    );

    // The unpublished draft stays protected.
    let denied = browser.client().read(&draft.fh, 0, 10);
    println!("visitor GET draft.html → {denied:?} (protected)");
    assert!(denied.is_err());

    // Anonymous visitors cannot deface the published page either.
    let deface = browser.client().write(&index.fh, 0, b"hacked");
    println!("visitor PUT index.html → {deface:?} (read-only publication)");
    assert!(deface.is_err());

    // Every anonymous access was still attributed to the visitor's key
    // in the audit log — accountability without accounts.
    let visits = bed
        .service()
        .audit()
        .by_requester(&discfs_crypto::hex::encode(&visitor.public().0));
    println!(
        "\naudit: {} operations recorded for the visitor's key",
        visits.len()
    );
    assert!(visits.iter().any(|r| r.op() == "read" && r.allowed));

    // Unpublishing takes effect immediately.
    bed.service().set_public_access(&index.fh, Perm::NONE);
    let after = browser.client().read(&index.fh, 0, 10);
    println!("after unpublish, visitor GET index.html → {after:?}");
    assert!(after.is_err());
}
