//! Persistence lifecycle matrix: volumes formatted, populated, synced,
//! dropped, and mounted again must come back byte-identical — across
//! every persistent backend config (true process-restart reopen) and
//! the in-memory backends (same-store remount). Plus the format/mount
//! contract itself: `format_*` refuses to clobber, `mount` refuses
//! garbage, `open_or_format` picks the right path.

use std::collections::BTreeMap;
use std::sync::Arc;

use discfs_crypto::rng::check::check;
use ffs::{BlockStore, Ffs, FsConfig, MountError, StoreBackend};
use netsim::SimClock;
use store::SimStore;

/// Small geometry so FileJournal-backed cases stay cheap.
fn config() -> FsConfig {
    FsConfig {
        total_blocks: 512,
        inode_count: 128,
    }
}

fn content(seed: u8, len_units: u8) -> Vec<u8> {
    let len = 1 + len_units as usize * 700; // 1 byte .. ~12 KB (crosses a block)
    (0..len)
        .map(|i| seed.wrapping_mul(37).wrapping_add((i % 251) as u8))
        .collect()
}

/// A matrix entry: how the store comes back for the volume's second
/// life.
enum Reopen {
    /// Rebuild the store from its on-disk directory (process restart).
    Backend(StoreBackend),
    /// Keep the same store object alive and remount it.
    SameStore(Arc<dyn BlockStore>),
}

/// One matrix entry: display label, the first-life store, and how to
/// get the store back for the second life.
type MatrixEntry = (String, Arc<dyn BlockStore>, Reopen);

fn matrix(tag: &str) -> (Vec<MatrixEntry>, std::path::PathBuf) {
    let clock = SimClock::new();
    let base = store::temp_dir_for_tests(tag);
    let blocks = config().total_blocks;
    let mut out: Vec<MatrixEntry> = Vec::new();
    for backend in [
        StoreBackend::FileJournal {
            dir: base.join("file"),
        },
        StoreBackend::EncryptedJournal {
            dir: base.join("enc"),
            key: [0x17; 32],
        },
        // Wrapper compositions: the cache is deliberately smaller than
        // the volume so evictions and write-backs fire mid-life.
        StoreBackend::Cached {
            capacity: 32,
            inner: Box::new(StoreBackend::FileJournal {
                dir: base.join("cached"),
            }),
        },
        StoreBackend::Sharded {
            shards: 4,
            workers: false,
            inner: Box::new(StoreBackend::FileJournal {
                dir: base.join("sharded"),
            }),
        },
        StoreBackend::Cached {
            capacity: 32,
            inner: Box::new(StoreBackend::Sharded {
                shards: 3,
                workers: false,
                inner: Box::new(StoreBackend::FileJournal {
                    dir: base.join("cached-sharded"),
                }),
            }),
        },
    ] {
        out.push((
            format!("{}-reopen", backend.label()),
            backend.build(&clock, blocks),
            Reopen::Backend(backend),
        ));
    }
    // Volatile nests: the store object survives the drop of the
    // filesystem.
    for backend in [
        StoreBackend::SimInstant,
        StoreBackend::CachedReadahead {
            capacity: 32,
            window: 8,
            inner: Box::new(StoreBackend::SimInstant),
        },
    ] {
        let store = backend.build(&clock, blocks);
        out.push((
            format!("{}-remount", backend.label()),
            store.clone(),
            Reopen::SameStore(store),
        ));
    }
    (out, base)
}

/// Writes `path -> data` into the filesystem, creating the file or
/// truncating an existing one first.
fn put_file(fs: &Ffs, dir: ffs::Ino, name: &str, data: &[u8]) {
    let ino = match fs.create(dir, name, 0o644, 0, 0) {
        Ok(ino) => ino,
        Err(ffs::FsError::Exists) => {
            let ino = fs.lookup(dir, name).unwrap();
            fs.setattr(
                ino,
                ffs::SetAttr {
                    size: Some(0),
                    ..Default::default()
                },
            )
            .unwrap();
            ino
        }
        Err(e) => panic!("create {name}: {e}"),
    };
    fs.write(ino, 0, data).unwrap();
}

/// Verifies every modelled file reads back byte-identical and fsck is
/// clean.
fn verify(fs: &Ffs, model: &BTreeMap<String, Vec<u8>>, label: &str) {
    fs.check()
        .unwrap_or_else(|p| panic!("{label}: fsck after mount: {p:?}"));
    for (path, data) in model {
        let ino = fs
            .resolve_path(path)
            .unwrap_or_else(|e| panic!("{label}: {path} lost: {e}"));
        let got = fs.read(ino, 0, data.len() + 1).unwrap();
        assert_eq!(&got, data, "{label}: {path} content differs after mount");
    }
}

/// Random file trees written, synced, dropped, and remounted
/// compare byte-identical against an in-memory model, across every
/// backend config of the matrix.
#[test]
fn remounted_tree_matches_model() {
    check("remounted_tree_matches_model", 6, |src| {
        let ops = src.vec(1..20, |src| {
            let dir_sel = src.range(0u8..4);
            let name = src.range(0u8..10);
            (dir_sel, name, src.any::<u8>(), src.range(0u8..18))
        });
        let (matrix, base) = matrix("persist-props");
        for (label, store, reopen) in matrix {
            let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            {
                let fs = Ffs::open_or_format(store, config()).unwrap();
                let root = fs.root();
                let mut dirs = vec![root];
                for d in 0..3 {
                    dirs.push(fs.mkdir(root, &format!("d{d}"), 0o755, 0, 0).unwrap());
                }
                for (dir_sel, name, seed, len_units) in &ops {
                    let dir = dirs[*dir_sel as usize];
                    let name_s = format!("f{name}");
                    let data = content(*seed, *len_units);
                    put_file(&fs, dir, &name_s, &data);
                    let path = if *dir_sel == 0 {
                        name_s
                    } else {
                        format!("d{}/{}", *dir_sel - 1, name_s)
                    };
                    model.insert(path, data);
                }
                fs.check().unwrap();
                fs.sync().unwrap();
                // fs (and, for the persistent configs, the store) drops
                // here: the only surviving state is on disk.
            }
            let store = match reopen {
                Reopen::Backend(backend) => backend.build(&SimClock::new(), config().total_blocks),
                Reopen::SameStore(store) => store,
            };
            let fs = Ffs::mount_on(store).unwrap_or_else(|e| panic!("{label}: mount failed: {e}"));
            verify(&fs, &model, &label);
            // The volume stays writable after a mount.
            put_file(&fs, fs.root(), "post-mount", b"still writable");
            assert_eq!(
                fs.read(fs.resolve_path("post-mount").unwrap(), 0, 32)
                    .unwrap(),
                b"still writable".to_vec(),
                "{}",
                &label
            );
            fs.check().unwrap();
        }
        std::fs::remove_dir_all(&base).ok();
    });
}

#[test]
#[should_panic(expected = "already holds a formatted volume")]
fn format_refuses_to_clobber_existing_volume() {
    let store: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(config().total_blocks));
    drop(Ffs::format_on(store.clone(), config()));
    let _ = Ffs::format_on(store, config());
}

#[test]
fn force_format_erases_an_existing_volume() {
    let store: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(config().total_blocks));
    {
        let fs = Ffs::format_on(store.clone(), config());
        let ino = fs.create(fs.root(), "old.dat", 0o644, 0, 0).unwrap();
        fs.write(ino, 0, b"doomed").unwrap();
    }
    let fs = Ffs::force_format_on(store, config());
    assert_eq!(fs.resolve_path("old.dat"), Err(ffs::FsError::NoEnt));
    fs.check().unwrap();
}

#[test]
fn mount_refuses_garbage() {
    // Never formatted: all zeros.
    let empty: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(64));
    assert_eq!(Ffs::mount_on(empty).err(), Some(MountError::NoSuperblock));
    // Random bytes in block 0.
    let noise: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(64));
    noise.write_block_meta(0, &vec![0xA5u8; ffs::BLOCK_SIZE]);
    assert_eq!(Ffs::mount_on(noise).err(), Some(MountError::NoSuperblock));
}

#[test]
fn mount_refuses_corrupted_superblock() {
    let store: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(config().total_blocks));
    drop(Ffs::format_on(store.clone(), config()));
    let mut sb = store.read_block_meta(0).to_vec();
    sb[13] ^= 0x80; // corrupt geometry under the checksum
    store.write_block_meta(0, &sb);
    assert_eq!(
        Ffs::mount_on(store.clone()).err(),
        Some(MountError::ChecksumMismatch)
    );
    // open_or_format must refuse too, not silently reformat.
    assert_eq!(
        Ffs::open_or_format(store, config()).err(),
        Some(MountError::ChecksumMismatch)
    );
}

#[test]
fn mount_refuses_a_volume_larger_than_its_disk() {
    let big: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(config().total_blocks));
    drop(Ffs::format_on(big.clone(), config()));
    // Copy only the superblock onto a smaller disk: geometry says 512
    // blocks, the disk has 64.
    let small: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(64));
    small.write_block_meta(0, &big.read_block_meta(0));
    assert_eq!(
        Ffs::mount_on(small).err(),
        Some(MountError::DiskTooSmall {
            volume_blocks: 512,
            disk_blocks: 64
        })
    );
}

#[test]
fn open_or_format_formats_fresh_then_mounts_existing() {
    let dir = store::temp_dir_for_tests("open-or-format");
    let backend = StoreBackend::FileJournal { dir: dir.clone() };
    let clock = SimClock::new();
    {
        let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
        let ino = fs.create(fs.root(), "keep.dat", 0o644, 0, 0).unwrap();
        fs.write(ino, 0, b"first life").unwrap();
        fs.sync().unwrap();
    }
    let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
    let ino = fs.resolve_path("keep.dat").expect("file survives reopen");
    assert_eq!(fs.read(ino, 0, 32).unwrap(), b"first life");
    fs.check().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unclean_shutdown_mounts_through_recovery_sweep() {
    // No sync before the drop: the superblock on disk is dirty, so the
    // mount must take the recovery path — and still find every file,
    // because the write-ahead journal replays complete records.
    let dir = store::temp_dir_for_tests("unclean");
    let backend = StoreBackend::FileJournal { dir: dir.clone() };
    let clock = SimClock::new();
    {
        let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
        let root = fs.root();
        let d = fs.mkdir(root, "docs", 0o755, 0, 0).unwrap();
        let a = fs.create(d, "a.txt", 0o644, 0, 0).unwrap();
        fs.write(a, 0, &content(9, 15)).unwrap();
        let b = fs.create(root, "b.txt", 0o644, 0, 0).unwrap();
        fs.write(b, 0, b"short").unwrap();
        fs.link(b, d, "b-link").unwrap();
        // Dropped without sync: "crash".
    }
    let fs = Ffs::mount_backend(&backend, &clock, config()).unwrap();
    fs.check().unwrap();
    assert_eq!(
        fs.read(fs.resolve_path("docs/a.txt").unwrap(), 0, usize::MAX >> 1)
            .unwrap(),
        content(9, 15)
    );
    assert_eq!(
        fs.read(fs.resolve_path("b.txt").unwrap(), 0, 16).unwrap(),
        b"short"
    );
    // The hard link survived with the right nlink.
    let attr = fs.getattr(fs.resolve_path("docs/b-link").unwrap()).unwrap();
    assert_eq!(attr.nlink, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn handles_and_generations_survive_remount() {
    // NFS-style (ino, generation) handles must stay valid across a
    // reboot — that is what lets DisCFS credentials outlive the server
    // process.
    let dir = store::temp_dir_for_tests("handles");
    let backend = StoreBackend::FileJournal { dir: dir.clone() };
    let clock = SimClock::new();
    let (ino, generation) = {
        let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
        let ino = fs.create(fs.root(), "h.dat", 0o644, 0, 0).unwrap();
        let generation = fs.getattr(ino).unwrap().generation;
        fs.sync().unwrap();
        (ino, generation)
    };
    let fs = Ffs::mount_backend(&backend, &clock, config()).unwrap();
    fs.validate_handle(ino, generation)
        .expect("handle valid after remount");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn encrypted_journal_requires_the_same_key() {
    let dir = store::temp_dir_for_tests("enc-key");
    let clock = SimClock::new();
    {
        let backend = StoreBackend::EncryptedJournal {
            dir: dir.clone(),
            key: [1; 32],
        };
        let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
        let ino = fs.create(fs.root(), "secret.dat", 0o644, 0, 0).unwrap();
        fs.write(ino, 0, b"classified").unwrap();
        fs.sync().unwrap();
    }
    // Right key: mounts and reads.
    let good = StoreBackend::EncryptedJournal {
        dir: dir.clone(),
        key: [1; 32],
    };
    let fs = Ffs::mount_backend(&good, &clock, config()).unwrap();
    assert_eq!(
        fs.read(fs.resolve_path("secret.dat").unwrap(), 0, 16)
            .unwrap(),
        b"classified"
    );
    drop(fs);
    // Wrong key: the superblock decrypts to noise and the mount fails
    // closed instead of serving garbage.
    let bad = StoreBackend::EncryptedJournal {
        dir: dir.clone(),
        key: [2; 32],
    };
    assert!(Ffs::mount_backend(&bad, &clock, config()).is_err());
    // open_or_format with the wrong key must ALSO fail closed: noise
    // is not a virgin store, so it must never format (= destroy) the
    // volume just because the superblock did not decrypt.
    assert!(matches!(
        Ffs::open_or_format_backend(&bad, &clock, config()),
        Err(MountError::CorruptVolume(_))
    ));
    // The volume is untouched: the right key still mounts and reads.
    let fs = Ffs::mount_backend(&good, &clock, config()).unwrap();
    assert_eq!(
        fs.read(fs.resolve_path("secret.dat").unwrap(), 0, 16)
            .unwrap(),
        b"classified"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_operations_do_not_dirty_a_clean_volume() {
    // A no-op failure (create of an existing name, unlink/rmdir of a
    // missing one) changes nothing, so it must not flip the durable
    // clean flag — otherwise the next mount pays a full recovery
    // sweep for a volume identical to its synced state. Byte 64 of
    // block 0 is the documented clean flag.
    let store: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(config().total_blocks));
    let fs = Ffs::format_on(store.clone(), config());
    let root = fs.root();
    fs.create(root, "present.dat", 0o644, 0, 0).unwrap();
    fs.sync().unwrap();
    assert_eq!(store.read_block_meta(0)[64], 1, "synced volume is clean");

    assert_eq!(
        fs.create(root, "present.dat", 0o644, 0, 0),
        Err(ffs::FsError::Exists)
    );
    assert_eq!(fs.unlink(root, "missing"), Err(ffs::FsError::NoEnt));
    assert_eq!(fs.rmdir(root, "missing"), Err(ffs::FsError::NoEnt));
    assert_eq!(fs.lookup(root, "missing"), Err(ffs::FsError::NoEnt));
    assert_eq!(
        store.read_block_meta(0)[64],
        1,
        "failed no-ops must leave the volume clean"
    );

    fs.create(root, "fresh.dat", 0o644, 0, 0).unwrap();
    assert_eq!(
        store.read_block_meta(0)[64],
        0,
        "a real mutation flips the dirty marker"
    );
    fs.check().unwrap();
}

#[test]
fn sync_traffic_does_not_count_as_data_writes() {
    // Superblock/bitmap rewrites are metadata: they must be stored but
    // not counted, or a sync-heavy run would report write counts
    // driven by its own bookkeeping.
    let clock = SimClock::new();
    let fs = Ffs::format_backend(&StoreBackend::SimInstant, &clock, config());
    let ino = fs.create(fs.root(), "data.dat", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, &content(5, 10)).unwrap();
    fs.sync().unwrap();
    let before = fs.disk().stats();
    for _ in 0..5 {
        // Dirty the volume with a metadata-only change, then sync.
        fs.setattr(
            ino,
            ffs::SetAttr {
                mode: Some(0o600),
                ..Default::default()
            },
        )
        .unwrap();
        fs.sync().unwrap();
    }
    let after = fs.disk().stats();
    assert_eq!(after.writes, before.writes, "sync churn must not count");
    fs.check().unwrap();
}

#[test]
fn open_or_format_refuses_unrecognized_nonzero_block_zero() {
    let store: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(config().total_blocks));
    store.write_block_meta(0, &vec![0x5Au8; ffs::BLOCK_SIZE]);
    assert!(matches!(
        Ffs::open_or_format(store, config()),
        Err(MountError::CorruptVolume(_))
    ));
}

#[test]
fn recovery_rewrites_a_directory_whose_block_was_stolen() {
    // A corrupt image can alias one data block from two inodes. When
    // the earlier inode (a file) wins the claim in the recovery sweep,
    // the directory that loses its block must be rewritten from its
    // parsed entries — its children must not silently vanish.
    let store: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(config().total_blocks));
    let (file_ino, dir_ino) = {
        let fs = Ffs::format_on(store.clone(), config());
        let file_ino = fs.create(fs.root(), "thief.dat", 0o644, 0, 0).unwrap();
        fs.write(file_ino, 0, b"short").unwrap();
        let dir_ino = fs.mkdir(fs.root(), "d", 0o755, 0, 0).unwrap();
        let child = fs.create(dir_ino, "child.dat", 0o644, 0, 0).unwrap();
        fs.write(child, 0, b"kept").unwrap();
        (file_ino, dir_ino)
        // No sync: dirty superblock, recovery path on mount.
    };
    assert!(file_ino < dir_ino, "the thief must claim its block first");
    // Documented layout: itable_start is the u64 at superblock byte
    // 40; 32 records of 256 bytes per table block; direct[0] at record
    // offset 52.
    let sb = store.read_block_meta(0);
    let itable_start = u64::from_be_bytes(sb[40..48].try_into().unwrap());
    let rec = |ino: u32| (itable_start + ino as u64 / 32, (ino as usize % 32) * 256);
    let (dblk, doff) = rec(dir_ino);
    let dir_direct0 = {
        let b = store.read_block_meta(dblk);
        u32::from_be_bytes(b[doff + 52..doff + 56].try_into().unwrap())
    };
    assert_ne!(dir_direct0, 0, "directory has a data block to steal");
    let (fblk, foff) = rec(file_ino);
    let mut b = store.read_block_meta(fblk).to_vec();
    b[foff + 52..foff + 56].copy_from_slice(&dir_direct0.to_be_bytes());
    store.write_block_meta(fblk, &b);

    let fs = Ffs::mount_on(store).expect("mount with a doubly-referenced block");
    fs.check()
        .unwrap_or_else(|p| panic!("fsck after stolen-block recovery: {p:?}"));
    let child = fs
        .resolve_path("d/child.dat")
        .expect("child survives the directory rewrite");
    assert_eq!(fs.read(child, 0, 8).unwrap(), b"kept");
}

#[test]
fn recovery_survives_wild_pointers_in_the_inode_table() {
    // Only block 0 is checksummed: a corrupt image can carry an
    // out-of-range block pointer inside a directory inode. The
    // recovery sweep must treat it as a hole and repair, not panic
    // the block store.
    let store: Arc<dyn BlockStore> = Arc::new(SimStore::untimed(config().total_blocks));
    {
        let fs = Ffs::format_on(store.clone(), config());
        let d = fs.mkdir(fs.root(), "d", 0o755, 0, 0).unwrap();
        let f = fs.create(d, "f.dat", 0o644, 0, 0).unwrap();
        fs.write(f, 0, b"inside the doomed subtree").unwrap();
        // No sync: the superblock stays dirty, forcing the recovery
        // path on mount.
    }
    // Locate the inode table via the documented superblock layout
    // (itable_start is the u64 at byte 40) and smash the root
    // directory's first direct pointer (record offset 256 for inode 1,
    // field offset 52) to a block far outside the volume.
    let sb = store.read_block_meta(0);
    let itable_start = u64::from_be_bytes(sb[40..48].try_into().unwrap());
    let mut block = store.read_block_meta(itable_start).to_vec();
    block[256 + 52..256 + 56].copy_from_slice(&u32::MAX.to_be_bytes());
    store.write_block_meta(itable_start, &block);

    let fs = Ffs::mount_on(store).expect("recovery must not panic on wild pointers");
    fs.check()
        .unwrap_or_else(|p| panic!("fsck after wild-pointer recovery: {p:?}"));
    // The root's entries lived behind the smashed pointer, so the
    // subtree is gone — but the volume is consistent and writable.
    assert_eq!(fs.resolve_path("d"), Err(ffs::FsError::NoEnt));
    let ino = fs.create(fs.root(), "fresh.dat", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, b"recovered").unwrap();
    fs.check().unwrap();
}
