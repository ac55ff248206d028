//! End-to-end integration: full client↔server stacks over simulated
//! networks, exercising every layer together (crypto → keynote → ipsec
//! → rpc → nfs → ffs → discfs).

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use ffs::{FsConfig, StoreBackend};
use netsim::LinkConfig;

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

fn grant_root(bed: &Testbed, holder: &SigningKey) -> String {
    CredentialIssuer::new(bed.admin())
        .holder(&holder.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue()
}

/// `connect` costs four link messages: INIT, RESP, the AUTH riding
/// with the MOUNT call, and the MOUNT reply. An AUTH sent alone would
/// be a fifth, 120 µs more.
#[test]
fn connect_costs_four_messages() {
    let link = LinkConfig::ethernet_100mbps();
    let bed = Testbed::with_backend(FsConfig::small(), link, 128, &StoreBackend::SimInstant);
    let before = bed.clock().now();
    let _client = bed.connect(&key(2)).expect("attach");
    let spent = bed.clock().now() - before;
    // ESP adds a 12-byte header and a 16-byte tag to a record.
    let (init, resp, auth, esp) = (96, 160, 64, 12 + 16);
    // Each RPC message is framed (8 bytes). The call: its 24-byte
    // header, an empty credential and verifier (8 each), the path "/"
    // (8). The reply: its 24-byte header with the verifier, the mount
    // status (4) and the root handle (32).
    let (mount_call, mount_reply) = (8 + 24 + 8 + 8 + 8, 8 + 24 + 4 + 32);
    let expected = link.transfer_time(init)
        + link.transfer_time(resp)
        + link.transfer_time(auth + esp + mount_call)
        + link.transfer_time(esp + mount_reply);
    assert_eq!(spent, expected, "spent {spent:?} ({} ns)", spent.as_nanos());
}

#[test]
fn full_stack_write_read_over_ethernet_model() {
    // Use the paper-model network (latency + bandwidth) end to end.
    let bed = Testbed::new();
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).expect("attach");
    let root = client.remote().root();

    let created = client
        .create_with_credential(&root, "large.bin", 0o644)
        .expect("create");
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    client
        .client()
        .write_all(&created.fh, 0, &payload)
        .expect("write 100KB");
    let back = client
        .client()
        .read_all(&created.fh, 0, payload.len())
        .expect("read 100KB");
    assert_eq!(back, payload);

    // The virtual clock advanced (network + disk were charged).
    assert!(bed.clock().now().as_millis() > 0);
}

#[test]
fn many_files_and_directories_through_discfs() {
    let bed = Testbed::instant();
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).expect("attach");
    let root = client.remote().root();

    let dir = client
        .mkdir_with_credential(&root, "project", 0o755)
        .expect("mkdir");
    for i in 0..25 {
        let f = client
            .create_with_credential(&dir.fh, &format!("src{i:02}.c"), 0o644)
            .expect("create");
        client
            .client()
            .write_all(&f.fh, 0, format!("/* file {i} */").as_bytes())
            .expect("write");
    }
    let listing = client.client().readdir_all(&dir.fh).expect("readdir");
    assert_eq!(listing.len(), 27); // 25 + . + ..

    // Storage-side invariants hold after all the traffic.
    bed.service().storage().fs().check().expect("fsck clean");
}

#[test]
fn concurrent_clients_share_one_server() {
    let bed = Testbed::instant();
    let writer = key(2);
    let mut writer_client = bed.connect_owner(&writer).expect("attach");
    let root = writer_client.remote().root();
    let shared = writer_client
        .create_with_credential(&root, "shared.log", 0o644)
        .expect("create");
    writer_client
        .client()
        .write_all(&shared.fh, 0, b"0000000000")
        .expect("seed");

    // Issue read credentials to 4 readers, then have them all read
    // concurrently while the writer updates.
    let mut reader_threads = Vec::new();
    for i in 0..4u8 {
        let reader = key(10 + i);
        let cred = CredentialIssuer::new(&writer)
            .holder(&reader.public())
            .grant(&shared.fh, Perm::R)
            .issue();
        let chain0 = shared.credential.clone();
        let client = bed.connect(&reader).expect("reader attaches");
        client.submit_credential(&chain0).unwrap();
        client.submit_credential(&cred).unwrap();
        let fh = shared.fh;
        reader_threads.push(std::thread::spawn(move || {
            for _ in 0..20 {
                let data = client.client().read_all(&fh, 0, 10).expect("read");
                assert_eq!(data.len(), 10);
            }
        }));
    }
    for round in 0..20 {
        writer_client
            .client()
            .write_all(&shared.fh, 0, format!("{round:010}").as_bytes())
            .expect("update");
    }
    for t in reader_threads {
        t.join().expect("reader thread clean");
    }
}

#[test]
fn reconnect_requires_resubmission() {
    // Sessions are per-connection (paper: persistent KeyNote session on
    // the server for the duration of the attach).
    let bed = Testbed::instant();
    let bob = key(2);
    let client1 = bed.connect_owner(&bob).expect("attach");
    assert_eq!(client1.credential_count().unwrap(), 1);
    drop(client1);

    // Wait (bounded) for the engine to observe the disconnect and tear
    // down the server-side session; the connection leaves the engine's
    // map only after `connection_closed` ran.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while bed.engine().connections() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "engine never observed the disconnect"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let client2 = bed.connect(&bob).expect("re-attach");
    assert_eq!(
        client2.credential_count().unwrap(),
        0,
        "fresh connection starts with an empty session"
    );
    // And access is denied until resubmission.
    assert!(client2
        .client()
        .readdir_all(&client2.remote().root())
        .is_err());
    client2.submit_credential(&grant_root(&bed, &bob)).unwrap();
    assert!(client2
        .client()
        .readdir_all(&client2.remote().root())
        .is_ok());
}

#[test]
fn mount_point_semantics_mode_000_until_credentials() {
    // Paper §5: "the file permissions of the attached directory are set
    // to 000 (meaning no access is granted)" until credentials arrive.
    let bed = Testbed::instant();
    let bob = key(2);
    let client = bed.connect(&bob).expect("attach");
    let root = client.remote().root();

    let before = client.client().getattr(&root).expect("getattr allowed");
    assert_eq!(before.mode & 0o777, 0);

    client.submit_credential(&grant_root(&bed, &bob)).unwrap();
    let after = client.client().getattr(&root).expect("getattr");
    assert_eq!(after.mode & 0o777, 0o777);
}

#[test]
fn read_only_holder_sees_read_only_mode() {
    let bed = Testbed::instant();
    let bob = key(2);
    let mut bob_client = bed.connect_owner(&bob).expect("attach");
    let root = bob_client.remote().root();
    let file = bob_client
        .create_with_credential(&root, "ro.txt", 0o644)
        .expect("create");

    let alice = key(3);
    let ro = CredentialIssuer::new(&bob)
        .holder(&alice.public())
        .grant(&file.fh, Perm::R)
        .issue();
    let alice_client = bed.connect(&alice).expect("attach");
    alice_client.submit_credential(&file.credential).unwrap();
    alice_client.submit_credential(&ro).unwrap();

    let attr = alice_client.client().getattr(&file.fh).expect("getattr");
    assert_eq!(attr.mode & 0o777, 0o444, "mode reflects granted rights");
}

#[test]
fn server_side_fsck_after_mixed_workload() {
    let bed = Testbed::instant();
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).expect("attach");
    let root = client.remote().root();

    let dir = client.mkdir_with_credential(&root, "work", 0o755).unwrap();
    let f1 = client.create_with_credential(&dir.fh, "a", 0o644).unwrap();
    let _f2 = client.create_with_credential(&dir.fh, "b", 0o644).unwrap();
    client
        .client()
        .write_all(&f1.fh, 0, &vec![7u8; 50_000])
        .unwrap();
    client.client().rename(&dir.fh, "b", &dir.fh, "c").unwrap();
    client.client().remove(&dir.fh, "a").unwrap();
    let mut sattr = nfsv2::Sattr::unchanged();
    sattr.size = 1000;
    // f1 was removed; truncate the remaining file instead.
    let (c_fh, _) = client.remote().resolve("work/c").unwrap();
    client.client().setattr(&c_fh, &sattr).unwrap();

    bed.service().storage().fs().check().expect("fsck clean");
}
