//! Workload-level integration: the paper's benchmark workloads run
//! through the full DisCFS stack with data integrity checks, plus the
//! wallet-based sharing workflow end to end.

use discfs::{CredentialIssuer, Perm, Testbed, Wallet};
use discfs_crypto::ed25519::SigningKey;

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

#[test]
fn bonnie_phases_preserve_data_through_discfs() {
    // Run the actual Figure 7/10 per-char workload through the full
    // stack and verify the checksum — corruption anywhere in
    // crypto/ESP/RPC/XDR/FFS would surface here.
    let bed = Testbed::instant();
    let user = key(2);
    let mut client = bed.connect_owner(&user).unwrap();
    let root = client.remote().root();
    let file = client
        .create_with_credential(&root, "bonnie.dat", 0o644)
        .unwrap();

    const SIZE: u64 = 300 * 1024 + 123;

    struct RemoteFile<'a> {
        client: &'a nfsv2::NfsClient,
        fh: nfsv2::FHandle,
    }
    impl bonnie::BenchFile for RemoteFile<'_> {
        fn write_at(&mut self, offset: u64, data: &[u8]) {
            self.client.write_all(&self.fh, offset, data).unwrap();
        }
        fn read_at(&mut self, offset: u64, len: usize) -> Vec<u8> {
            self.client.read_all(&self.fh, offset, len).unwrap()
        }
    }

    let mut f = RemoteFile {
        client: client.client(),
        fh: file.fh,
    };
    let out = bonnie::seq_output_char(&mut f, SIZE);
    assert_eq!(out.bytes, SIZE);

    let (input, checksum) = bonnie::seq_input_char(&mut f, SIZE);
    assert_eq!(input.bytes, SIZE);
    // Recompute the expected checksum from the generator pattern.
    let expected: u64 = (0..SIZE)
        .map(|i| i.wrapping_mul(31).wrapping_add(7) % 251)
        .sum();
    assert_eq!(checksum, expected, "end-to-end corruption detected");

    // Rewrite pass keeps length, dirties content.
    let rewrite = bonnie::seq_rewrite(&mut f, SIZE);
    assert_eq!(rewrite.bytes, SIZE);
    let (reread, _) = bonnie::seq_input_block(&mut f, SIZE);
    assert_eq!(reread.bytes, SIZE);

    bed.service().storage().fs().check().unwrap();
}

#[test]
fn search_workload_respects_credentials() {
    // Generate a small tree as the owner; a reader with credentials for
    // only ONE subdirectory can search just that part.
    let bed = Testbed::instant();
    let owner = key(2);
    let mut owner_client = bed.connect_owner(&owner).unwrap();
    let root = owner_client.remote().root();

    // Two project dirs with a couple of files each.
    let mut dirs = Vec::new();
    for d in 0..2 {
        let dir = owner_client
            .mkdir_with_credential(&root, &format!("proj{d}"), 0o755)
            .unwrap();
        let mut files = Vec::new();
        for f in 0..3 {
            let created = owner_client
                .create_with_credential(&dir.fh, &format!("src{f}.c"), 0o644)
                .unwrap();
            owner_client
                .client()
                .write_all(&created.fh, 0, format!("int f{d}_{f}(void);\n").as_bytes())
                .unwrap();
            files.push(created);
        }
        dirs.push((dir, files));
    }

    // Reader gets access to proj0 only (dir RX + files R).
    let reader = key(3);
    let mut issuer = CredentialIssuer::new(&owner)
        .holder(&reader.public())
        .grant(&dirs[0].0.fh, Perm::RX);
    for f in &dirs[0].1 {
        issuer = issuer.grant(&f.fh, Perm::R);
    }
    let cred = issuer.issue();

    let reader_client = bed.connect(&reader).unwrap();
    reader_client
        .submit_credential(&dirs[0].0.credential)
        .unwrap();
    for f in &dirs[0].1 {
        reader_client.submit_credential(&f.credential).unwrap();
    }
    reader_client.submit_credential(&cred).unwrap();

    // proj0 is fully readable.
    let listing = reader_client.client().readdir_all(&dirs[0].0.fh).unwrap();
    assert_eq!(listing.len(), 5); // 3 files + . + ..
    for f in &dirs[0].1 {
        let text = reader_client.client().read_all(&f.fh, 0, 64).unwrap();
        assert!(text.starts_with(b"int f0_"));
    }
    // proj1 is completely opaque.
    assert!(reader_client.client().readdir_all(&dirs[1].0.fh).is_err());
    assert!(reader_client
        .client()
        .read(&dirs[1].1[0].fh, 0, 10)
        .is_err());
}

#[test]
fn wallet_email_workflow() {
    // Bob exports his wallet "into an email"; Alice imports it on a
    // different machine (client) and gains exactly Bob's delegation.
    let bed = Testbed::instant();
    let bob = key(2);
    let alice = key(3);

    let mut bob_client = bed.connect_owner(&bob).unwrap();
    let doc = bob_client
        .create_with_credential(&bob_client.remote().root(), "memo.txt", 0o644)
        .unwrap();
    bob_client
        .client()
        .write_all(&doc.fh, 0, b"quarterly numbers")
        .unwrap();

    // Bob assembles the mail: his create-credential (chain link) plus a
    // fresh read grant for Alice.
    let mut outgoing = Wallet::new();
    outgoing.add(&doc.credential).unwrap();
    let read_grant = CredentialIssuer::new(&bob)
        .holder(&alice.public())
        .grant(&doc.fh, Perm::R)
        .comment("memo for alice")
        .issue();
    outgoing.add(&read_grant).unwrap();
    let email_body = format!("Hi Alice,\n\n{}\n-- bob", outgoing.export_text());

    // Alice, elsewhere: import, connect, submit only what's relevant.
    let mut alice_client = bed.connect(&alice).unwrap();
    let imported = alice_client.wallet_mut().import_text(&email_body);
    assert_eq!(imported, 2);
    let submitted = alice_client.submit_relevant(&doc.fh).unwrap();
    assert_eq!(submitted, 2);

    assert_eq!(
        alice_client.client().read_all(&doc.fh, 0, 32).unwrap(),
        b"quarterly numbers"
    );
    // Inventory names the credential she could ask to be revoked.
    let inventory = alice_client.wallet().inventory();
    assert!(inventory
        .iter()
        .any(|e| e.comment.as_deref() == Some("memo for alice")));
}
