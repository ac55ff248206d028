//! Storage-backend tour: the same DisCFS workload on each block-store
//! backend, showing what each one adds — journaled persistence with
//! crash replay, cache hits, encryption at rest, and the full
//! persistent-volume reboot cycle (`Ffs::mount` via
//! `Testbed::reboot`).
//!
//! Run with `cargo run --release --example storage_backends`.

use discfs::{CredentialIssuer, Perm, Testbed};
use discfs_crypto::ed25519::SigningKey;
use ffs::{FsConfig, StoreBackend};
use netsim::LinkConfig;
use store::{BlockStore, FileStore, BLOCK_SIZE};

/// Writes eight identical 16 KB files through a full DisCFS stack
/// (IKE handshake, credentials, NFS over the simulated wire) on the
/// given backend and reports the storage counters.
fn run_workload(backend: &StoreBackend) {
    let bed = Testbed::with_backend(FsConfig::small(), LinkConfig::instant(), 128, backend);
    let bob = SigningKey::from_seed(&[0xB0; 32]);
    let mut client = bed.connect(&bob).expect("connect");
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    client.submit_credential(&grant).expect("grant");

    let payload = vec![0x42u8; 2 * BLOCK_SIZE];
    let root = client.remote().root();
    for i in 0..8 {
        let created = client
            .create_with_credential(&root, &format!("report-{i}.dat"), 0o644)
            .expect("create");
        client
            .client()
            .write_all(&created.fh, 0, &payload)
            .expect("write");
    }

    let stats = bed.store_stats();
    println!(
        "  {:<18} writes {:>4}  journal appends {:>4}  cache hits {:>4}",
        backend.label(),
        stats.writes,
        stats.journal_batches,
        stats.cache_hits
    );
    bed.fs().check().expect("volume consistent");
    bed.fs().sync().expect("flush backend");
}

fn main() {
    println!("Eight identical 16 KB files through the full DisCFS stack:");
    let dir = std::env::temp_dir().join(format!("discfs-example-store-{}", std::process::id()));
    let backends = [
        StoreBackend::SimInstant,
        StoreBackend::FileJournal {
            dir: dir.join("tour"),
        },
        StoreBackend::EncryptedJournal {
            dir: dir.join("tour-enc"),
            key: [0x0E; 32],
        },
        // Composable wrappers: a write-back cache, a 4-way stripe, and
        // a cache over a striped persistent volume. A stripe runs its
        // I/O on the caller's thread and flushes its shards in
        // parallel; `workers` is ignored.
        StoreBackend::Cached {
            capacity: 256,
            inner: Box::new(StoreBackend::SimInstant),
        },
        StoreBackend::Sharded {
            shards: 4,
            workers: false,
            inner: Box::new(StoreBackend::SimInstant),
        },
        StoreBackend::Cached {
            capacity: 256,
            inner: Box::new(StoreBackend::Sharded {
                shards: 4,
                workers: false,
                inner: Box::new(StoreBackend::FileJournal {
                    dir: dir.join("tour-cached-sharded"),
                }),
            }),
        },
    ];
    for backend in &backends {
        run_workload(backend);
    }

    // The buffer cache at work: re-reading a hot working set through
    // the timing-model disk costs virtual time uncached and nothing
    // cached.
    println!("\nBuffer cache vs the timing-model disk (64 blocks re-read 4x):");
    use netsim::SimClock;
    use store::CachedStore;
    let clock = SimClock::new();
    let raw = store::SimStore::new(&clock, store::DiskModel::quantum_fireball_ct10(), 64);
    for i in 0..64 {
        raw.write_block_meta(i, &vec![i as u8; BLOCK_SIZE]);
    }
    clock.reset();
    for _ in 0..4 {
        for i in 0..64 {
            std::hint::black_box(raw.read_block(i));
        }
    }
    println!("  uncached: {:?} of virtual disk time", clock.now());
    let clock = SimClock::new();
    let cached = CachedStore::new(
        store::SimStore::new(&clock, store::DiskModel::quantum_fireball_ct10(), 64),
        64,
    );
    for i in 0..64 {
        cached
            .inner()
            .write_block_meta(i, &vec![i as u8; BLOCK_SIZE]);
    }
    for i in 0..64 {
        std::hint::black_box(cached.read_block(i)); // warm the cache
    }
    clock.reset();
    for _ in 0..4 {
        for i in 0..64 {
            std::hint::black_box(cached.read_block(i));
        }
    }
    let stats = cached.stats();
    println!(
        "  cached:   {:?} — {} hits, {} misses (hit ratio {:.3}) ✓",
        clock.now(),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_ratio()
    );

    // Crash consistency demo at the block level: journaled writes
    // survive a drop-before-flush.
    println!("\nWrite-ahead journal crash replay:");
    let crash_dir = dir.join("crash-demo");
    let block = vec![0xABu8; BLOCK_SIZE];
    {
        let fstore = FileStore::open(&crash_dir, 16).expect("open");
        fstore.write_block(3, &block);
        println!("  wrote block 3, then crashed without flushing");
        fstore.crash();
    }
    let fstore = FileStore::open(&crash_dir, 16).expect("reopen");
    assert_eq!(fstore.read_block(3), block);
    println!("  reopened: block 3 recovered from the journal ✓");
    drop(fstore);

    // Full persistent-volume reboot cycle: a DisCFS server writes a
    // file through the credential stack, syncs, reboots, and the new
    // instance *mounts* the surviving volume (Ffs::mount) — same
    // files, same file handles, same admin trust root.
    println!("\nServer reboot cycle on a persistent volume:");
    let backend = StoreBackend::FileJournal {
        dir: dir.join("reboot-demo"),
    };
    let bed = Testbed::with_backend(FsConfig::small(), LinkConfig::instant(), 128, &backend);
    let bob = SigningKey::from_seed(&[0xB1; 32]);
    let mut client = bed.connect(&bob).expect("connect");
    let grant = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant_handle_string("1.1", Perm::RWX)
        .issue();
    client.submit_credential(&grant).expect("grant");
    let root = client.remote().root();
    let created = client
        .create_with_credential(&root, "persistent.dat", 0o644)
        .expect("create");
    let message = b"survives the reboot";
    client
        .client()
        .write_all(&created.fh, 0, message)
        .expect("write");
    println!("  wrote /persistent.dat, syncing and rebooting the server");
    // reboot() joins the old connection's server thread and syncs
    // before the new instance mounts the volume.
    drop(client);
    let bed = bed.reboot();
    bed.fs().check().expect("mounted volume is consistent");
    let client = bed.connect(&bob).expect("reconnect");
    // The admin key is the same trust root, so a credential for the
    // *pre-reboot* file handle still authorizes access.
    let cred = CredentialIssuer::new(bed.admin())
        .holder(&bob.public())
        .grant(&created.fh, Perm::R)
        .issue();
    client.submit_credential(&cred).expect("grant old handle");
    let data = client
        .client()
        .read_all(&created.fh, 0, message.len())
        .expect("read after reboot");
    assert_eq!(data, message);
    println!("  rebooted: volume mounted, /persistent.dat intact, old handle still valid ✓");

    std::fs::remove_dir_all(&dir).ok();
}
