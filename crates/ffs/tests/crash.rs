//! Crash injection: the write-ahead journal is truncated at every
//! record boundary (and inside records) to simulate a crash at every
//! possible durability point, and each resulting image must mount to a
//! consistent state — fsck-clean, with everything synced before the
//! crash intact — instead of panicking or serving a torn tree.

use std::path::Path;

use ffs::{Ffs, FsConfig, StoreBackend};
use netsim::SimClock;
use store::JOURNAL_RECORD_LEN;

/// Tiny geometry: keeps the per-truncation image copies cheap.
fn config() -> FsConfig {
    FsConfig {
        total_blocks: 96,
        inode_count: 64,
    }
}

fn payload(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(31).wrapping_add((i % 251) as u8))
        .collect()
}

fn copy_image(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for name in ["blocks.dat", "journal.wal"] {
        if src.join(name).exists() {
            std::fs::copy(src.join(name), dst.join(name)).unwrap();
        }
    }
}

/// Builds the master image: a synced baseline (which must survive any
/// crash) plus a burst of post-sync activity that lives only in the
/// journal, including an indirect-block file, a directory tree, and an
/// unlink — the operations whose torn prefixes exercise the recovery
/// sweep's repairs.
fn build_master(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let clock = SimClock::new();
    let backend = StoreBackend::FileJournal { dir: dir.into() };
    let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
    let root = fs.root();

    let stable = payload(1, 3 * ffs::BLOCK_SIZE + 17);
    let nested = payload(2, 900);
    let a = fs.create(root, "stable.dat", 0o644, 0, 0).unwrap();
    fs.write(a, 0, &stable).unwrap();
    let d = fs.mkdir(root, "dir", 0o755, 0, 0).unwrap();
    let b = fs.create(d, "nested.dat", 0o644, 0, 0).unwrap();
    fs.write(b, 0, &nested).unwrap();
    fs.sync().unwrap();

    // Post-sync: everything below is only in the journal.
    let c = fs.create(root, "late.dat", 0o644, 0, 0).unwrap();
    // 20 blocks: spills past the 12 direct pointers into the indirect
    // block, so a torn prefix can strand pointer-table updates.
    fs.write(c, 0, &payload(3, 20 * ffs::BLOCK_SIZE)).unwrap();
    let e = fs.mkdir(root, "late-dir", 0o755, 0, 0).unwrap();
    let f = fs.create(e, "deep.dat", 0o644, 0, 0).unwrap();
    fs.write(f, 0, &payload(4, 5000)).unwrap();
    fs.unlink(d, "nested.dat").unwrap();
    fs.rename(root, "late.dat", e, "moved.dat").unwrap();
    // Dropped without sync: the "crash".
    (stable, nested)
}

#[test]
fn every_journal_truncation_point_mounts_consistently() {
    let base = store::temp_dir_for_tests("crash-matrix");
    let master = base.join("master");
    let (stable, nested) = build_master(&master);

    let journal_len = std::fs::metadata(master.join("journal.wal")).unwrap().len();
    assert!(journal_len > 0, "post-sync writes must be journaled");
    assert_eq!(
        journal_len % JOURNAL_RECORD_LEN as u64,
        0,
        "journal is a whole number of records"
    );
    let records = journal_len / JOURNAL_RECORD_LEN as u64;

    // Crash points: every record boundary, plus two mid-record offsets
    // after each boundary (torn header, torn payload).
    let mut cuts: Vec<u64> = Vec::new();
    for r in 0..=records {
        let at = r * JOURNAL_RECORD_LEN as u64;
        cuts.push(at);
        if r < records {
            cuts.push(at + 17);
            cuts.push(at + JOURNAL_RECORD_LEN as u64 / 2);
        }
    }

    let clock = SimClock::new();
    for cut in cuts {
        let scratch = base.join(format!("cut-{cut}"));
        copy_image(&master, &scratch);
        let journal = std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join("journal.wal"))
            .unwrap();
        journal.set_len(cut).unwrap();
        drop(journal);

        let backend = StoreBackend::FileJournal {
            dir: scratch.clone(),
        };
        let fs = Ffs::mount_backend(&backend, &clock, config())
            .unwrap_or_else(|e| panic!("cut {cut}: mount failed: {e}"));
        fs.check()
            .unwrap_or_else(|p| panic!("cut {cut}: fsck after recovery: {p:?}"));

        // The synced baseline survives every crash point.
        let ino = fs
            .resolve_path("stable.dat")
            .unwrap_or_else(|e| panic!("cut {cut}: stable.dat lost: {e}"));
        assert_eq!(
            fs.read(ino, 0, stable.len() + 1).unwrap(),
            stable,
            "cut {cut}: synced content damaged"
        );
        // nested.dat was unlinked *after* the sync: depending on the
        // crash point it is either still present (with its synced
        // content) or already gone — but never torn.
        if let Ok(ino) = fs.resolve_path("dir/nested.dat") {
            assert_eq!(
                fs.read(ino, 0, nested.len() + 1).unwrap(),
                nested,
                "cut {cut}: nested.dat present but torn"
            );
        }
        // Whatever survived, the volume stays writable.
        let ino = fs.create(fs.root(), "after-crash", 0o644, 0, 0).unwrap();
        fs.write(ino, 0, b"recovered").unwrap();
        fs.check()
            .unwrap_or_else(|p| panic!("cut {cut}: fsck after post-recovery write: {p:?}"));

        drop(fs);
        std::fs::remove_dir_all(&scratch).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn repeated_crash_reopen_cycles_accumulate_files() {
    // Five lives, each ending in a drop without sync: the journal
    // replay plus recovery sweep must carry every previous life's file
    // forward.
    let dir = store::temp_dir_for_tests("crash-cycles");
    let backend = StoreBackend::FileJournal { dir: dir.clone() };
    let clock = SimClock::new();
    for life in 0..5u32 {
        let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
        for prev in 0..life {
            let ino = fs
                .resolve_path(&format!("life-{prev}.dat"))
                .unwrap_or_else(|e| panic!("life {life}: file from life {prev} lost: {e}"));
            assert_eq!(
                fs.read(ino, 0, 64).unwrap(),
                payload(prev as u8, 48),
                "life {life}: content from life {prev} damaged"
            );
        }
        let ino = fs
            .create(fs.root(), &format!("life-{life}.dat"), 0o644, 0, 0)
            .unwrap();
        fs.write(ino, 0, &payload(life as u8, 48)).unwrap();
        fs.check().unwrap();
        // Crash: no sync.
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_during_force_reformat_cannot_resurrect_the_old_volume() {
    // force_format_on journals an invalidated block 0 as its FIRST
    // write, so a reformat torn at any point replays to a store with
    // no superblock — never to the old clean superblock sitting over a
    // half-zeroed inode table.
    let dir = store::temp_dir_for_tests("crash-reformat");
    let backend = StoreBackend::FileJournal { dir: dir.clone() };
    let clock = SimClock::new();
    {
        let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
        let ino = fs.create(fs.root(), "old.dat", 0o644, 0, 0).unwrap();
        fs.write(ino, 0, b"previous life").unwrap();
        fs.sync().unwrap(); // clean superblock durable in blocks.dat
    }
    {
        // Reformat, then "crash" before any flush.
        let store = backend.build(&clock, config().total_blocks);
        let _fs = Ffs::force_format_on(store, config());
    }
    // Tear the reformat down to its very first journal record: only
    // the superblock invalidation replays.
    let journal = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("journal.wal"))
        .unwrap();
    journal.set_len(JOURNAL_RECORD_LEN as u64).unwrap();
    drop(journal);

    let store = backend.build(&clock, config().total_blocks);
    assert!(
        matches!(
            Ffs::mount_on(store.clone()),
            Err(ffs::MountError::NoSuperblock)
        ),
        "the old superblock must not survive a torn reformat"
    );
    // The image reads as virgin, so open_or_format starts fresh.
    let fs = Ffs::open_or_format(store, config()).unwrap();
    assert!(fs.resolve_path("old.dat").is_err());
    fs.check().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_volume_crash_rolls_back_to_the_synced_state() {
    // A write-back cache between the filesystem and the journal: the
    // post-sync burst lives only in cache memory (capacity exceeds the
    // volume, so nothing is evicted), EXCEPT the superblock dirty
    // marker, which CachedStore writes through. Dropping without sync
    // loses the cache — the mount must notice the dirty marker, run
    // the recovery sweep, and land exactly on the synced state.
    let dir = store::temp_dir_for_tests("crash-cached");
    let backend = StoreBackend::Cached {
        capacity: 4 * config().total_blocks as usize,
        inner: Box::new(StoreBackend::FileJournal { dir: dir.clone() }),
    };
    let clock = SimClock::new();
    let stable = payload(7, 2 * ffs::BLOCK_SIZE + 100);
    {
        let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
        let a = fs.create(fs.root(), "stable.dat", 0o644, 0, 0).unwrap();
        fs.write(a, 0, &stable).unwrap();
        fs.sync().unwrap();
        // Post-sync, never flushed: lost with the cache.
        let b = fs.create(fs.root(), "volatile.dat", 0o644, 0, 0).unwrap();
        fs.write(b, 0, &payload(8, 5000)).unwrap();
        // Dropped without sync: the "crash".
    }
    let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
    fs.check()
        .unwrap_or_else(|p| panic!("fsck after cached crash: {p:?}"));
    assert_eq!(
        fs.read(fs.resolve_path("stable.dat").unwrap(), 0, stable.len() + 1)
            .unwrap(),
        stable,
        "synced content survives losing the cache"
    );
    assert!(
        fs.resolve_path("volatile.dat").is_err(),
        "unflushed cached writes are gone, not torn"
    );
    let ino = fs.create(fs.root(), "after.dat", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, b"writable").unwrap();
    fs.check().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_volume_with_evictions_recovers_consistently() {
    // A cache far smaller than the working set: evicted dirty blocks
    // reach the journal in LRU order, an arbitrary subset of the
    // post-sync burst. The crash image is messier than a journal
    // prefix, but the written-through dirty marker guarantees the
    // recovery sweep runs — mount must produce a consistent, writable
    // volume with the synced baseline intact (nothing post-sync freed
    // a synced block, so eviction order cannot touch it).
    let dir = store::temp_dir_for_tests("crash-cached-evict");
    let backend = StoreBackend::Cached {
        capacity: 8,
        inner: Box::new(StoreBackend::FileJournal { dir: dir.clone() }),
    };
    let clock = SimClock::new();
    let stable = payload(11, 3 * ffs::BLOCK_SIZE);
    {
        let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
        let a = fs.create(fs.root(), "stable.dat", 0o644, 0, 0).unwrap();
        fs.write(a, 0, &stable).unwrap();
        fs.sync().unwrap();
        for i in 0..6u8 {
            let f = fs
                .create(fs.root(), &format!("burst-{i}.dat"), 0o644, 0, 0)
                .unwrap();
            fs.write(f, 0, &payload(20 + i, 4 * ffs::BLOCK_SIZE))
                .unwrap();
        }
        // Dropped without sync.
    }
    let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
    fs.check()
        .unwrap_or_else(|p| panic!("fsck after eviction crash: {p:?}"));
    assert_eq!(
        fs.read(fs.resolve_path("stable.dat").unwrap(), 0, stable.len() + 1)
            .unwrap(),
        stable,
        "synced content survives an eviction-heavy crash"
    );
    let ino = fs.create(fs.root(), "after.dat", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, b"writable").unwrap();
    fs.check().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_volume_crash_replays_every_shard_journal() {
    // Four journaled shards, no cache: every write reaches its shard's
    // WAL before being acknowledged, and a process crash leaves all
    // four journals intact on disk. The remount must replay each one
    // and recover synced AND unsynced data, exactly like the
    // single-store crash cycles — with the per-shard worker threads on
    // as well as off (the workers change who executes the I/O, not
    // what is journaled, and their Drop joins before the shards').
    for workers in [false, true] {
        let dir = store::temp_dir_for_tests("crash-sharded");
        let backend = StoreBackend::Sharded {
            shards: 4,
            workers,
            inner: Box::new(StoreBackend::FileJournal { dir: dir.clone() }),
        };
        let clock = SimClock::new();
        for life in 0..4u32 {
            let fs = Ffs::open_or_format_backend(&backend, &clock, config()).unwrap();
            for prev in 0..life {
                let ino = fs
                    .resolve_path(&format!("life-{prev}.dat"))
                    .unwrap_or_else(|e| {
                        panic!("workers={workers} life {life}: file from life {prev} lost: {e}")
                    });
                assert_eq!(
                    fs.read(ino, 0, 3 * ffs::BLOCK_SIZE).unwrap(),
                    payload(prev as u8, 2 * ffs::BLOCK_SIZE + 9),
                    "workers={workers} life {life}: content from life {prev} damaged"
                );
            }
            let ino = fs
                .create(fs.root(), &format!("life-{life}.dat"), 0o644, 0, 0)
                .unwrap();
            fs.write(ino, 0, &payload(life as u8, 2 * ffs::BLOCK_SIZE + 9))
                .unwrap();
            fs.check().unwrap();
            // Crash: no sync. All four shard journals survive the drop.
        }
        // The volume really is striped: every shard directory holds data.
        for shard in 0..4 {
            let blocks = dir.join(format!("shard-{shard}")).join("blocks.dat");
            assert!(
                blocks.exists(),
                "workers={workers}: shard {shard} has a data file"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn truncated_to_zero_journal_restores_the_synced_state_exactly() {
    let base = store::temp_dir_for_tests("crash-zero");
    let master = base.join("master");
    let (stable, nested) = build_master(&master);
    let journal = std::fs::OpenOptions::new()
        .write(true)
        .open(master.join("journal.wal"))
        .unwrap();
    journal.set_len(0).unwrap();
    drop(journal);

    let clock = SimClock::new();
    let backend = StoreBackend::FileJournal {
        dir: master.clone(),
    };
    let fs = Ffs::mount_backend(&backend, &clock, config()).unwrap();
    fs.check().unwrap();
    // Exactly the synced state: both files, nothing from after.
    assert_eq!(
        fs.read(fs.resolve_path("stable.dat").unwrap(), 0, stable.len() + 1)
            .unwrap(),
        stable
    );
    assert_eq!(
        fs.read(
            fs.resolve_path("dir/nested.dat").unwrap(),
            0,
            nested.len() + 1
        )
        .unwrap(),
        nested
    );
    assert!(fs.resolve_path("late-dir").is_err());
    assert!(fs.resolve_path("moved.dat").is_err());
    std::fs::remove_dir_all(&base).ok();
}

// -- recovery and the in-core caches -----------------------------------------

mod recovered_caches {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    use ffs::{Attr, BlockStore, Ffs, FsConfig, Ino, IoClass, SetAttr, StoreStats, BLOCK_SIZE};
    use store::{Bytes, SimStore};

    fn config() -> FsConfig {
        FsConfig {
            total_blocks: 256,
            inode_count: 64,
        }
    }

    /// A working disk plus the image a crash would leave: the image
    /// takes only the first `budget` block writes.
    struct CrashAfter {
        live: SimStore,
        image: Arc<SimStore>,
        budget: AtomicI64,
    }

    impl BlockStore for CrashAfter {
        fn block_count(&self) -> u64 {
            self.live.block_count()
        }
        fn read(&self, _class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
            self.live.read(IoClass::Meta, idxs)
        }
        fn write(&self, _class: IoClass, writes: &[(u64, &[u8])]) {
            for &write in writes {
                self.live.write(IoClass::Meta, &[write]);
                if self.budget.fetch_sub(1, Ordering::SeqCst) > 0 {
                    self.image.write(IoClass::Meta, &[write]);
                }
            }
        }
        fn stats(&self) -> StoreStats {
            self.live.stats()
        }
        fn label(&self) -> &'static str {
            "crash-after"
        }
    }

    /// A synced tree, then a burst that rewrites directories, moves a
    /// directory across parents and frees and allocates pointer blocks;
    /// the image keeps the first `cut` block writes of the burst.
    /// Returns the image and how many writes the burst made.
    fn crashed_image(cut: i64) -> (Arc<SimStore>, i64) {
        let image = Arc::new(SimStore::untimed(config().total_blocks));
        let disk = Arc::new(CrashAfter {
            live: SimStore::untimed(config().total_blocks),
            image: image.clone(),
            budget: AtomicI64::new(i64::MAX),
        });
        let fs = Ffs::format_on(disk.clone(), config());
        let root = fs.root();
        let a = fs.mkdir(root, "a", 0o755, 0, 0).unwrap();
        let b = fs.mkdir(root, "b", 0o755, 0, 0).unwrap();
        let x = fs.mkdir(a, "x", 0o755, 0, 0).unwrap();
        let g = fs.create(x, "g", 0o644, 0, 0).unwrap();
        fs.write(g, 0, b"kept").unwrap();
        let f = fs.create(a, "f", 0o644, 0, 0).unwrap();
        fs.write(f, 0, &vec![5u8; 20 * BLOCK_SIZE]).unwrap();
        fs.sync().unwrap();

        disk.budget.store(cut, Ordering::SeqCst);
        let late = fs.create(b, "late", 0o644, 0, 0).unwrap();
        fs.write(late, 0, &vec![6u8; 14 * BLOCK_SIZE]).unwrap();
        fs.rename(a, "x", b, "y").unwrap();
        fs.unlink(a, "f").unwrap();
        fs.mkdir(a, "z", 0o755, 0, 0).unwrap();
        fs.link(g, a, "g2").unwrap();
        let shrink = SetAttr {
            size: Some(BLOCK_SIZE as u64),
            ..Default::default()
        };
        fs.setattr(late, shrink).unwrap();
        (image, cut - disk.budget.load(Ordering::SeqCst))
    }

    fn copy_of(disk: &SimStore) -> Arc<SimStore> {
        let copy = SimStore::untimed(disk.block_count());
        for idx in 0..disk.block_count() {
            copy.write_block_meta(idx, &disk.read_block_meta(idx));
        }
        Arc::new(copy)
    }

    /// Every name under `dir` resolves alike on both filesystems, and
    /// regular files read alike. Access times are left out: each
    /// filesystem stamps its own reads, and a hard-linked file is read
    /// once per name.
    fn same_tree(warm: &Ffs, cold: &Ffs, dir: Ino) {
        let without_atime = |fs: &Ffs, ino: Ino| Attr {
            atime: 0,
            ..fs.getattr(ino).unwrap()
        };
        let listing = cold.readdir(dir).unwrap();
        for entry in &listing {
            assert_eq!(warm.lookup(dir, &entry.name), Ok(entry.ino));
            let attr = without_atime(warm, entry.ino);
            assert_eq!(attr, without_atime(cold, entry.ino));
            match attr.kind {
                ffs::FileKind::Directory if entry.name != "." && entry.name != ".." => {
                    same_tree(warm, cold, entry.ino)
                }
                ffs::FileKind::Regular => assert_eq!(
                    warm.read(entry.ino, 0, attr.size as usize),
                    cold.read(entry.ino, 0, attr.size as usize)
                ),
                _ => {}
            }
        }
        assert_eq!(warm.readdir(dir).unwrap(), listing);
    }

    /// Whatever write of a directory-rewriting burst the crash follows,
    /// recovery lands on a clean volume whose caches (filled by the
    /// sweep's own repairs) say what its blocks say — then and after
    /// more work on top.
    #[test]
    fn a_crash_between_write_dir_and_sync_recovers_with_coherent_caches() {
        let (_, writes) = crashed_image(i64::MAX);
        assert!(writes > 40, "the burst makes {writes} block writes");
        for cut in 0..=writes {
            let (image, _) = crashed_image(cut);
            let fs = Ffs::mount_on(image.clone())
                .unwrap_or_else(|e| panic!("cut {cut}: mount failed: {e}"));
            fs.check()
                .unwrap_or_else(|p| panic!("cut {cut}: fsck after recovery: {p:?}"));
            let root = fs.root();
            let a = fs.lookup(root, "a").unwrap();
            assert!(
                fs.lookup(a, "x").is_err() || fs.resolve_path("b/y").is_err(),
                "cut {cut}: the moved directory has two parents"
            );
            same_tree(&fs, &Ffs::mount_on(copy_of(&image)).unwrap(), root);

            // The recovered volume keeps working from those caches.
            let n = fs.create(a, "after", 0o644, 0, 0).unwrap();
            fs.write(n, 0, &vec![9u8; 13 * BLOCK_SIZE]).unwrap();
            for entry in fs.readdir(a).unwrap() {
                if fs.getattr(entry.ino).unwrap().kind == ffs::FileKind::Regular
                    && entry.name != "after"
                {
                    fs.unlink(a, &entry.name).unwrap();
                }
            }
            fs.sync().unwrap();
            fs.check()
                .unwrap_or_else(|p| panic!("cut {cut}: fsck after more work: {p:?}"));
            let cold = Ffs::mount_on(copy_of(&image)).unwrap();
            cold.check()
                .unwrap_or_else(|p| panic!("cut {cut}: cold fsck: {p:?}"));
            same_tree(&fs, &cold, root);
        }
    }
}
