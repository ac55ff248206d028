//! Failure injection: connections dying mid-operation must never leave
//! the server wedged or the volume inconsistent.

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;

fn key(seed: u8) -> SigningKey {
    SigningKey::from_seed(&[seed; 32])
}

#[test]
fn client_vanishes_mid_write_volume_stays_consistent() {
    let bed = Testbed::instant();
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).unwrap();
    let root = client.remote().root();
    let file = client
        .create_with_credential(&root, "half-written", 0o644)
        .unwrap();
    // Write some blocks, then vanish without unmounting.
    client
        .client()
        .write_all(&file.fh, 0, &vec![7u8; 64 * 1024])
        .unwrap();
    drop(client);
    std::thread::sleep(std::time::Duration::from_millis(50));

    // The server survives; a fresh client sees the data; fsck is clean.
    let carol = key(3);
    let carol_client = bed.connect(&carol).unwrap();
    let cred = CredentialIssuer::new(bed.admin())
        .holder(&carol.public())
        .grant(&file.fh, Perm::R)
        .issue();
    carol_client.submit_credential(&cred).unwrap();
    let data = carol_client
        .client()
        .read_all(&file.fh, 0, 64 * 1024)
        .unwrap();
    assert_eq!(data.len(), 64 * 1024);
    bed.service().storage().fs().check().unwrap();
}

#[test]
fn many_connect_disconnect_cycles_do_not_leak_sessions() {
    let bed = Testbed::instant();
    for round in 0..30u8 {
        let user = key(100 + (round % 8));
        let client = bed.connect_owner(&user).unwrap();
        assert!(client.client().readdir_all(&client.remote().root()).is_ok());
        drop(client);
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    // The server's peer map holds at most the 8 distinct keys, and a
    // new connection still works (no wedged locks anywhere).
    let user = key(200);
    let client = bed.connect_owner(&user).unwrap();
    assert!(client.client().readdir_all(&client.remote().root()).is_ok());
}

#[test]
fn handshake_abandoned_midway_server_thread_exits() {
    // A client that connects and sends a valid INIT but never completes
    // the handshake: the responder must fail cleanly, not hang forever
    // holding resources (the endpoint drop unblocks it).
    use discfs_crypto::rng::DetRng;
    use netsim::{Link, SimClock, Transport};

    let clock = SimClock::new();
    let (client_end, server_end) = Link::loopback(&clock);
    let server_key = key(9);
    let handle = std::thread::spawn(move || {
        let mut rng = DetRng::new(1);
        ipsec::ike::respond(server_end, &server_key, &mut rng)
    });
    // Valid-length INIT, then silence and disconnect.
    let mut init = Vec::new();
    init.extend_from_slice(&[0u8; 32]); // bogus ephemeral (valid length)
    init.extend_from_slice(&[1u8; 32]); // nonce
    init.extend_from_slice(&key(8).public().0); // real identity key
    client_end.send(init).unwrap();
    drop(client_end);
    let result = handle.join().unwrap();
    assert!(result.is_err(), "abandoned handshake must error out");
}

#[test]
fn server_reboot_under_load_preserves_synced_state() {
    use ffs::{FsConfig, StoreBackend};
    use netsim::LinkConfig;

    // A DisCFS server on a persistent volume: clients write through
    // the full stack, the server syncs, a client vanishes mid-write,
    // and the server reboots. The new instance must mount the old
    // volume: synced data intact, file handles still valid, the
    // deterministic admin key still able to issue credentials for
    // pre-reboot handles.
    let dir = store::temp_dir_for_tests("testbed-reboot");
    let backend = StoreBackend::FileJournal { dir: dir.clone() };
    let bed = Testbed::with_backend(FsConfig::small(), LinkConfig::instant(), 128, &backend);
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).unwrap();
    let root = client.remote().root();
    let precious = client
        .create_with_credential(&root, "precious", 0o644)
        .unwrap();
    client
        .client()
        .write_all(&precious.fh, 0, &vec![0xABu8; 64 * 1024])
        .unwrap();
    bed.sync().unwrap();
    // Load at reboot time: another file written right before the
    // teardown, its client vanishing with the server. reboot() joins
    // the connection threads and takes a final sync, so this write is
    // covered too (the UNCLEAN-shutdown replay path is pinned down at
    // the ffs layer by crates/ffs/tests/crash.rs).
    let mid_flight = client
        .create_with_credential(&root, "mid-flight", 0o644)
        .unwrap();
    client
        .client()
        .write_all(&mid_flight.fh, 0, &vec![0xCDu8; 16 * 1024])
        .unwrap();
    drop(client);

    let bed = bed.reboot();
    bed.fs().check().unwrap();
    // The same admin issues a credential for the *old* handle: the
    // (inode, generation) pair must have survived the reboot.
    let carol = key(3);
    let carol_client = bed.connect(&carol).unwrap();
    let cred = CredentialIssuer::new(bed.admin())
        .holder(&carol.public())
        .grant(&precious.fh, Perm::R)
        .issue();
    carol_client.submit_credential(&cred).unwrap();
    let data = carol_client
        .client()
        .read_all(&precious.fh, 0, 64 * 1024)
        .unwrap();
    assert_eq!(data, vec![0xABu8; 64 * 1024], "synced data must survive");
    // The reboot's final sync covered the mid-flight file too — and
    // the mounted volume accepts new writes.
    let dave = key(4);
    let mut dave_client = bed.connect_owner(&dave).unwrap();
    let fresh = dave_client
        .create_with_credential(&root, "post-reboot", 0o644)
        .unwrap();
    dave_client
        .client()
        .write_all(&fresh.fh, 0, b"new life")
        .unwrap();
    bed.fs().check().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_reboot_on_cached_sharded_volume_preserves_synced_state() {
    use ffs::{FsConfig, StoreBackend};
    use netsim::LinkConfig;

    // The same reboot cycle over the composed storage stack: a
    // write-back buffer cache on top of a volume striped across four
    // journaled shards. The credential stack must not be able to tell
    // the difference — synced data, handles, and the admin trust root
    // all survive, and the cache's dirty blocks are written back by
    // the reboot's sync before the volume reopens.
    let dir = store::temp_dir_for_tests("testbed-reboot-wrapped");
    let backend = StoreBackend::Cached {
        capacity: 256,
        inner: Box::new(StoreBackend::Sharded {
            shards: 4,
            workers: false,
            inner: Box::new(StoreBackend::FileJournal { dir: dir.clone() }),
        }),
    };
    let bed = Testbed::with_backend(FsConfig::small(), LinkConfig::instant(), 128, &backend);
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).unwrap();
    let root = client.remote().root();
    let precious = client
        .create_with_credential(&root, "precious", 0o644)
        .unwrap();
    client
        .client()
        .write_all(&precious.fh, 0, &vec![0xABu8; 64 * 1024])
        .unwrap();
    bed.sync().unwrap();
    drop(client);

    let bed = bed.reboot();
    bed.fs().check().unwrap();
    let carol = key(3);
    let carol_client = bed.connect(&carol).unwrap();
    let cred = CredentialIssuer::new(bed.admin())
        .holder(&carol.public())
        .grant(&precious.fh, Perm::R)
        .issue();
    carol_client.submit_credential(&cred).unwrap();
    let data = carol_client
        .client()
        .read_all(&precious.fh, 0, 64 * 1024)
        .unwrap();
    assert_eq!(
        data,
        vec![0xABu8; 64 * 1024],
        "synced data survives a cached+sharded reboot"
    );
    // The cache shows its work: re-reading the same file through the
    // stack again is served from memory.
    let stats_before = bed.store_stats();
    let again = carol_client
        .client()
        .read_all(&precious.fh, 0, 64 * 1024)
        .unwrap();
    assert_eq!(again, data);
    let stats_after = bed.store_stats();
    assert!(
        stats_after.cache_hits > stats_before.cache_hits,
        "re-read must hit the cache: {stats_after:?}"
    );
    assert_eq!(
        stats_after.reads, stats_before.reads,
        "re-read must not touch the sharded backend"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_failure_no_space_reported_cleanly_over_wire() {
    use ffs::FsConfig;
    use netsim::LinkConfig;

    // Tiny volume: force NoSpc mid-stream.
    let bed = Testbed::with_config(
        FsConfig {
            total_blocks: 48,
            inode_count: 32,
        },
        LinkConfig::instant(),
        128,
    );
    let bob = key(2);
    let mut client = bed.connect_owner(&bob).unwrap();
    let root = client.remote().root();
    let file = client.create_with_credential(&root, "big", 0o644).unwrap();

    let mut wrote = 0u64;
    let chunk = vec![1u8; 8192];
    let err = loop {
        match client.client().write(&file.fh, wrote as u32, &chunk) {
            Ok(_) => wrote += 8192,
            Err(e) => break e,
        }
    };
    assert!(matches!(
        err,
        nfsv2::ClientError::Status(nfsv2::NfsStat::NoSpc)
    ));
    assert!(wrote > 0, "some writes succeeded before exhaustion");
    // Connection still live, volume still consistent, space recoverable.
    client.client().remove(&root, "big").unwrap();
    bed.service().storage().fs().check().unwrap();
    let file2 = client
        .create_with_credential(&root, "after", 0o644)
        .unwrap();
    client.client().write_all(&file2.fh, 0, &chunk).unwrap();
}
