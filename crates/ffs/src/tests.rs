//! Unit tests for the filesystem layer.

use crate::fs::SetAttr;
use crate::{Ffs, FileKind, FsConfig, FsError, BLOCK_SIZE};

fn fs() -> Ffs {
    Ffs::format_in_memory(FsConfig::small())
}

#[test]
fn fresh_filesystem_checks_clean() {
    fs().check().unwrap();
}

#[test]
fn create_and_lookup() {
    let fs = fs();
    let ino = fs.create(fs.root(), "a.txt", 0o644, 10, 20).unwrap();
    assert_eq!(fs.lookup(fs.root(), "a.txt").unwrap(), ino);
    let attr = fs.getattr(ino).unwrap();
    assert_eq!(attr.kind, FileKind::Regular);
    assert_eq!(attr.mode, 0o644);
    assert_eq!(attr.uid, 10);
    assert_eq!(attr.gid, 20);
    assert_eq!(attr.size, 0);
    assert_eq!(attr.nlink, 1);
    fs.check().unwrap();
}

#[test]
fn duplicate_create_rejected() {
    let fs = fs();
    fs.create(fs.root(), "a", 0o644, 0, 0).unwrap();
    assert_eq!(fs.create(fs.root(), "a", 0o644, 0, 0), Err(FsError::Exists));
}

#[test]
fn bad_names_rejected() {
    let fs = fs();
    for name in ["", ".", "..", "a/b", "nul\0byte"] {
        assert_eq!(
            fs.create(fs.root(), name, 0o644, 0, 0),
            Err(FsError::BadName),
            "name {name:?}"
        );
    }
    let long = "x".repeat(256);
    assert_eq!(
        fs.create(fs.root(), &long, 0o644, 0, 0),
        Err(FsError::BadName)
    );
    let ok = "x".repeat(255);
    fs.create(fs.root(), &ok, 0o644, 0, 0).unwrap();
}

#[test]
fn write_read_small() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, b"hello world").unwrap();
    assert_eq!(fs.read(ino, 0, 100).unwrap(), b"hello world");
    assert_eq!(fs.read(ino, 6, 5).unwrap(), b"world");
    assert_eq!(fs.getattr(ino).unwrap().size, 11);
    fs.check().unwrap();
}

/// A read of no bytes inside a file reads nothing. It took the last
/// byte of an empty extent, `offset + 0 - 1`: an overflow panic at
/// offset 0, and an extent of 2^51 blocks elsewhere.
#[test]
fn a_zero_length_read_reads_nothing() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, &[7; 3000]).unwrap();
    for offset in [0, 1, 2999] {
        assert_eq!(fs.read(ino, offset, 0).unwrap(), b"", "offset {offset}");
    }
    fs.check().unwrap();
}

#[test]
fn overwrite_middle() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, b"aaaaaaaaaa").unwrap();
    fs.write(ino, 3, b"BBB").unwrap();
    assert_eq!(fs.read(ino, 0, 10).unwrap(), b"aaaBBBaaaa");
    assert_eq!(fs.getattr(ino).unwrap().size, 10);
}

#[test]
fn write_across_block_boundaries() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    let data: Vec<u8> = (0..3 * BLOCK_SIZE + 100).map(|i| (i % 251) as u8).collect();
    fs.write(ino, 0, &data).unwrap();
    assert_eq!(fs.read(ino, 0, data.len()).unwrap(), data);
    // Unaligned read spanning blocks.
    assert_eq!(
        fs.read(ino, BLOCK_SIZE as u64 - 10, 20).unwrap(),
        &data[BLOCK_SIZE - 10..BLOCK_SIZE + 10]
    );
    fs.check().unwrap();
}

#[test]
fn sparse_file_reads_zeros() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    fs.write(ino, 5 * BLOCK_SIZE as u64, b"end").unwrap();
    assert_eq!(fs.getattr(ino).unwrap().size, 5 * BLOCK_SIZE as u64 + 3);
    let hole = fs.read(ino, 0, BLOCK_SIZE).unwrap();
    assert!(hole.iter().all(|&b| b == 0));
    assert_eq!(fs.read(ino, 5 * BLOCK_SIZE as u64, 3).unwrap(), b"end");
    fs.check().unwrap();
}

#[test]
fn large_file_uses_indirect_blocks() {
    // > 12 direct blocks (96 KB) and into the single-indirect range.
    let fs = fs();
    let ino = fs.create(fs.root(), "big", 0o644, 0, 0).unwrap();
    let chunk = vec![0xabu8; BLOCK_SIZE];
    let blocks = 20;
    for i in 0..blocks {
        fs.write(ino, (i * BLOCK_SIZE) as u64, &chunk).unwrap();
    }
    assert_eq!(fs.getattr(ino).unwrap().size, (blocks * BLOCK_SIZE) as u64);
    let back = fs.read(ino, (15 * BLOCK_SIZE) as u64, BLOCK_SIZE).unwrap();
    assert_eq!(back, chunk);
    fs.check().unwrap();
    // Deleting reclaims everything.
    let free_before = fs.statfs().free_blocks;
    fs.unlink(fs.root(), "big").unwrap();
    assert!(fs.statfs().free_blocks > free_before);
    fs.check().unwrap();
}

#[test]
fn double_indirect_range() {
    // Write a block beyond 12 + 2048 blocks to hit the double-indirect
    // path (sparse, so only a few blocks allocate).
    let fs = fs();
    let ino = fs.create(fs.root(), "huge", 0o644, 0, 0).unwrap();
    let fbn = (12 + 2048 + 5) as u64;
    fs.write(ino, fbn * BLOCK_SIZE as u64, b"deep").unwrap();
    assert_eq!(fs.read(ino, fbn * BLOCK_SIZE as u64, 4).unwrap(), b"deep");
    fs.check().unwrap();
    fs.unlink(fs.root(), "huge").unwrap();
    fs.check().unwrap();
}

#[test]
fn unlink_frees_space() {
    let fs = fs();
    let before = fs.statfs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, &vec![1u8; 4 * BLOCK_SIZE]).unwrap();
    assert!(fs.statfs().free_blocks < before.free_blocks);
    fs.unlink(fs.root(), "f").unwrap();
    assert_eq!(fs.statfs().free_blocks, before.free_blocks);
    assert_eq!(fs.statfs().free_inodes, before.free_inodes);
    assert_eq!(fs.lookup(fs.root(), "f"), Err(FsError::NoEnt));
    fs.check().unwrap();
}

#[test]
fn mkdir_and_nested_paths() {
    let fs = fs();
    let a = fs.mkdir(fs.root(), "a", 0o755, 0, 0).unwrap();
    let b = fs.mkdir(a, "b", 0o755, 0, 0).unwrap();
    let f = fs.create(b, "file", 0o644, 0, 0).unwrap();
    assert_eq!(fs.resolve_path("/a/b/file").unwrap(), f);
    assert_eq!(fs.getattr(a).unwrap().nlink, 3); // ".", parent entry, b's ".."
    assert_eq!(fs.getattr(fs.root()).unwrap().nlink, 3);
    fs.check().unwrap();
}

#[test]
fn rmdir_requires_empty() {
    let fs = fs();
    let a = fs.mkdir(fs.root(), "a", 0o755, 0, 0).unwrap();
    fs.create(a, "f", 0o644, 0, 0).unwrap();
    assert_eq!(fs.rmdir(fs.root(), "a"), Err(FsError::NotEmpty));
    fs.unlink(a, "f").unwrap();
    fs.rmdir(fs.root(), "a").unwrap();
    assert_eq!(fs.lookup(fs.root(), "a"), Err(FsError::NoEnt));
    assert_eq!(fs.getattr(fs.root()).unwrap().nlink, 2);
    fs.check().unwrap();
}

#[test]
fn unlink_directory_rejected() {
    let fs = fs();
    fs.mkdir(fs.root(), "d", 0o755, 0, 0).unwrap();
    assert_eq!(fs.unlink(fs.root(), "d"), Err(FsError::IsDir));
}

#[test]
fn rmdir_file_rejected() {
    let fs = fs();
    fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    assert_eq!(fs.rmdir(fs.root(), "f"), Err(FsError::NotDir));
}

#[test]
fn hard_links() {
    let fs = fs();
    let ino = fs.create(fs.root(), "orig", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, b"shared").unwrap();
    fs.link(ino, fs.root(), "alias").unwrap();
    assert_eq!(fs.getattr(ino).unwrap().nlink, 2);
    assert_eq!(fs.lookup(fs.root(), "alias").unwrap(), ino);
    fs.unlink(fs.root(), "orig").unwrap();
    // Data still reachable through the alias.
    assert_eq!(fs.read(ino, 0, 6).unwrap(), b"shared");
    assert_eq!(fs.getattr(ino).unwrap().nlink, 1);
    fs.unlink(fs.root(), "alias").unwrap();
    assert_eq!(fs.getattr(ino), Err(FsError::BadInode));
    fs.check().unwrap();
}

#[test]
fn link_to_directory_rejected() {
    let fs = fs();
    let d = fs.mkdir(fs.root(), "d", 0o755, 0, 0).unwrap();
    assert_eq!(fs.link(d, fs.root(), "dlink"), Err(FsError::IsDir));
}

#[test]
fn symlinks() {
    let fs = fs();
    let ino = fs.symlink(fs.root(), "ln", "/a/b/target", 0, 0).unwrap();
    assert_eq!(fs.readlink(ino).unwrap(), "/a/b/target");
    assert_eq!(fs.getattr(ino).unwrap().kind, FileKind::Symlink);
    // readlink on a regular file fails.
    let f = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    assert_eq!(fs.readlink(f), Err(FsError::BadType));
    fs.check().unwrap();
}

#[test]
fn rename_within_directory() {
    let fs = fs();
    let ino = fs.create(fs.root(), "old", 0o644, 0, 0).unwrap();
    fs.rename(fs.root(), "old", fs.root(), "new").unwrap();
    assert_eq!(fs.lookup(fs.root(), "new").unwrap(), ino);
    assert_eq!(fs.lookup(fs.root(), "old"), Err(FsError::NoEnt));
    fs.check().unwrap();
}

#[test]
fn rename_across_directories() {
    let fs = fs();
    let a = fs.mkdir(fs.root(), "a", 0o755, 0, 0).unwrap();
    let b = fs.mkdir(fs.root(), "b", 0o755, 0, 0).unwrap();
    let f = fs.create(a, "f", 0o644, 0, 0).unwrap();
    fs.write(f, 0, b"moved").unwrap();
    fs.rename(a, "f", b, "g").unwrap();
    assert_eq!(fs.lookup(b, "g").unwrap(), f);
    assert_eq!(fs.read(f, 0, 5).unwrap(), b"moved");
    fs.check().unwrap();
}

#[test]
fn rename_directory_updates_dotdot() {
    let fs = fs();
    let a = fs.mkdir(fs.root(), "a", 0o755, 0, 0).unwrap();
    let b = fs.mkdir(fs.root(), "b", 0o755, 0, 0).unwrap();
    let sub = fs.mkdir(a, "sub", 0o755, 0, 0).unwrap();
    fs.rename(a, "sub", b, "sub").unwrap();
    let entries = fs.readdir(sub).unwrap();
    let dotdot = entries.iter().find(|e| e.name == "..").unwrap();
    assert_eq!(dotdot.ino, b);
    assert_eq!(fs.getattr(a).unwrap().nlink, 2);
    assert_eq!(fs.getattr(b).unwrap().nlink, 3);
    fs.check().unwrap();
}

#[test]
fn rename_into_own_subtree_rejected() {
    let fs = fs();
    let a = fs.mkdir(fs.root(), "a", 0o755, 0, 0).unwrap();
    let sub = fs.mkdir(a, "sub", 0o755, 0, 0).unwrap();
    assert_eq!(
        fs.rename(fs.root(), "a", sub, "inside"),
        Err(FsError::InvalidMove)
    );
    fs.check().unwrap();
}

#[test]
fn rename_replaces_file() {
    let fs = fs();
    let src = fs.create(fs.root(), "src", 0o644, 0, 0).unwrap();
    let dst = fs.create(fs.root(), "dst", 0o644, 0, 0).unwrap();
    fs.write(dst, 0, &vec![9u8; BLOCK_SIZE * 2]).unwrap();
    fs.rename(fs.root(), "src", fs.root(), "dst").unwrap();
    assert_eq!(fs.lookup(fs.root(), "dst").unwrap(), src);
    assert_eq!(fs.getattr(dst), Err(FsError::BadInode)); // old dst freed
    fs.check().unwrap();
}

#[test]
fn rename_dir_over_nonempty_dir_rejected() {
    let fs = fs();
    fs.mkdir(fs.root(), "a", 0o755, 0, 0).unwrap();
    let b = fs.mkdir(fs.root(), "b", 0o755, 0, 0).unwrap();
    fs.create(b, "f", 0o644, 0, 0).unwrap();
    assert_eq!(
        fs.rename(fs.root(), "a", fs.root(), "b"),
        Err(FsError::NotEmpty)
    );
}

#[test]
fn rename_noop_same_name() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    fs.rename(fs.root(), "f", fs.root(), "f").unwrap();
    assert_eq!(fs.lookup(fs.root(), "f").unwrap(), ino);
    fs.check().unwrap();
}

#[test]
fn truncate_shrink_and_grow() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    fs.write(ino, 0, &vec![7u8; BLOCK_SIZE * 3]).unwrap();
    let free_full = fs.statfs().free_blocks;

    let attr = fs
        .setattr(
            ino,
            SetAttr {
                size: Some(100),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(attr.size, 100);
    assert!(fs.statfs().free_blocks > free_full);
    assert_eq!(fs.read(ino, 0, 100).unwrap(), vec![7u8; 100]);

    // Growing exposes zeros, not stale data.
    fs.setattr(
        ino,
        SetAttr {
            size: Some(BLOCK_SIZE as u64),
            ..Default::default()
        },
    )
    .unwrap();
    let data = fs.read(ino, 0, BLOCK_SIZE).unwrap();
    assert_eq!(&data[..100], &vec![7u8; 100][..]);
    assert!(
        data[100..].iter().all(|&b| b == 0),
        "stale bytes after grow"
    );
    fs.check().unwrap();
}

/// Truncate-to-zero and rewrite, twenty times over: the file must come
/// back to the blocks it just gave up, not take fresh ones further out
/// each cycle (on a sparse backing store every block ever touched is
/// memory that is never returned).
#[test]
fn truncate_rewrite_cycles_reuse_freed_blocks() {
    const FILE_BLOCKS: u64 = 64;
    let fs = Ffs::format_in_memory(FsConfig {
        total_blocks: 4096,
        inode_count: 64,
    });
    let highest_allocated = |fs: &Ffs| {
        let (_, block_bitmap, ..) = fs.bitmaps();
        block_bitmap.iter().rposition(|&used| used).unwrap() as u64
    };
    let ino = fs.create(fs.root(), "churn", 0o644, 0, 0).unwrap();
    let mut data = vec![0u8; FILE_BLOCKS as usize * BLOCK_SIZE];
    let mut first_extent = 0;
    for cycle in 0..20u8 {
        fs.setattr(
            ino,
            SetAttr {
                size: Some(0),
                ..Default::default()
            },
        )
        .unwrap();
        data.fill(cycle + 1);
        fs.write(ino, 0, &data).unwrap();
        if cycle == 0 {
            first_extent = highest_allocated(&fs);
        }
    }
    // The root directory block and the file's indirect block sit among
    // its data blocks; nothing else is allocated.
    assert_eq!(highest_allocated(&fs), first_extent);
    assert!(
        first_extent < fs.data_start() + FILE_BLOCKS + 4,
        "highest allocated block {first_extent}, data starts at {}",
        fs.data_start()
    );

    fs.sync().unwrap();
    let disk = fs.disk.clone();
    drop(fs);
    let fs = Ffs::mount_on(disk).unwrap();
    fs.check().unwrap();
    assert_eq!(fs.read(ino, 0, data.len()).unwrap(), data);
    assert_eq!(highest_allocated(&fs), first_extent);
}

#[test]
fn setattr_chmod_chown() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    let attr = fs
        .setattr(
            ino,
            SetAttr {
                mode: Some(0o600),
                uid: Some(42),
                gid: Some(43),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(attr.mode, 0o600);
    assert_eq!(attr.uid, 42);
    assert_eq!(attr.gid, 43);
    assert_eq!(
        attr.kind,
        FileKind::Regular,
        "chmod must not change the type"
    );
}

#[test]
fn readdir_lists_dot_entries() {
    let fs = fs();
    fs.create(fs.root(), "x", 0o644, 0, 0).unwrap();
    let names: Vec<String> = fs
        .readdir(fs.root())
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(names.contains(&".".to_string()));
    assert!(names.contains(&"..".to_string()));
    assert!(names.contains(&"x".to_string()));
}

#[test]
fn generation_numbers_detect_stale_handles() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    let generation = fs.getattr(ino).unwrap().generation;
    fs.validate_handle(ino, generation).unwrap();
    fs.unlink(fs.root(), "f").unwrap();

    // Recreate files until the inode number is reused.
    let mut reused = None;
    for i in 0..1000 {
        let newino = fs.create(fs.root(), &format!("g{i}"), 0o644, 0, 0).unwrap();
        if newino == ino {
            reused = Some(newino);
            break;
        }
    }
    let reused = reused.expect("inode should be recycled");
    assert_eq!(fs.validate_handle(reused, generation), Err(FsError::Stale));
    let new_generation = fs.getattr(reused).unwrap().generation;
    assert_ne!(new_generation, generation);
    fs.validate_handle(reused, new_generation).unwrap();
}

#[test]
fn out_of_space_reported_and_recoverable() {
    let fs = Ffs::format_in_memory(FsConfig {
        total_blocks: 64,
        inode_count: 64,
    });
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    let chunk = vec![1u8; BLOCK_SIZE];
    let mut written = 0u64;
    let err = loop {
        match fs.write(ino, written, &chunk) {
            Ok(_) => written += BLOCK_SIZE as u64,
            Err(e) => break e,
        }
    };
    assert_eq!(err, FsError::NoSpace);
    assert!(written > 0);
    // Deleting recovers the space and the filesystem stays consistent.
    fs.unlink(fs.root(), "f").unwrap();
    fs.check().unwrap();
    let ino2 = fs.create(fs.root(), "g", 0o644, 0, 0).unwrap();
    fs.write(ino2, 0, &chunk).unwrap();
    fs.check().unwrap();
}

#[test]
fn out_of_inodes() {
    let fs = Ffs::format_in_memory(FsConfig {
        total_blocks: 256,
        inode_count: 8,
    });
    let mut made = 0;
    for i in 0..16 {
        match fs.create(fs.root(), &format!("f{i}"), 0o644, 0, 0) {
            Ok(_) => made += 1,
            Err(FsError::NoSpace) => break,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(made, 6, "8 inodes minus reserved 0 and root 1");
    fs.check().unwrap();
}

#[test]
fn many_files_in_directory() {
    let fs = fs();
    for i in 0..300 {
        fs.create(fs.root(), &format!("file{i:04}"), 0o644, 0, 0)
            .unwrap();
    }
    assert_eq!(fs.readdir(fs.root()).unwrap().len(), 302);
    assert!(fs.lookup(fs.root(), "file0299").is_ok());
    fs.check().unwrap();
    for i in (0..300).step_by(2) {
        fs.unlink(fs.root(), &format!("file{i:04}")).unwrap();
    }
    assert_eq!(fs.readdir(fs.root()).unwrap().len(), 152);
    fs.check().unwrap();
}

#[test]
fn timestamps_advance() {
    let fs = fs();
    let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
    let t0 = fs.getattr(ino).unwrap();
    fs.write(ino, 0, b"x").unwrap();
    let t1 = fs.getattr(ino).unwrap();
    assert!(t1.mtime > t0.mtime);
    fs.read(ino, 0, 1).unwrap();
    let t2 = fs.getattr(ino).unwrap();
    assert!(t2.atime > t1.atime);
}

#[test]
fn read_of_directory_rejected() {
    let fs = fs();
    assert_eq!(fs.read(fs.root(), 0, 10), Err(FsError::IsDir));
    assert_eq!(fs.write(fs.root(), 0, b"x"), Err(FsError::IsDir));
}

#[test]
fn statfs_reports_consistent_numbers() {
    let fs = fs();
    let s = fs.statfs();
    assert_eq!(s.block_size, BLOCK_SIZE as u32);
    assert!(s.free_blocks < s.total_blocks); // root dir uses one block
    assert_eq!(s.free_inodes, s.total_inodes - 2);
}

// -- in-core caches: what they save, on the paper's timing model ------------

mod cache_accounting {
    use std::sync::Arc;

    use netsim::SimClock;
    use parking_lot::Mutex;

    use store::{Bytes, SimStore};

    use crate::{BlockStore, Ffs, FsConfig, IoClass, StoreStats, BLOCK_SIZE};
    use store::DiskModel;

    /// A directory of 24 one-block files written in creation order.
    fn directory_of_24(fs: &Ffs) -> crate::Ino {
        let dir = fs.mkdir(fs.root(), "d", 0o755, 0, 0).unwrap();
        for i in 0..24u8 {
            let ino = fs.create(dir, &format!("f{i}"), 0o644, 0, 0).unwrap();
            fs.write(ino, 0, &vec![i; BLOCK_SIZE]).unwrap();
        }
        dir
    }

    #[test]
    fn warm_lookups_cost_no_disk_time_and_no_store_read() {
        let clock = SimClock::new();
        let fs = Ffs::format_timed(&clock, FsConfig::small());
        let dir = directory_of_24(&fs);
        let (t0, reads0, stats0) = (clock.now(), fs.disk().stats().reads, fs.cache_stats());
        for i in 0..100 {
            fs.lookup(dir, &format!("f{}", i % 24)).unwrap();
        }
        assert_eq!(clock.now(), t0, "a warm LOOKUP moves no head");
        assert_eq!(fs.disk().stats().reads, reads0);
        let stats = fs.cache_stats();
        assert_eq!(stats.name_hits, stats0.name_hits + 100);
        assert_eq!(stats.name_misses, stats0.name_misses);
    }

    #[test]
    fn a_cold_directory_is_read_once() {
        let clock = SimClock::new();
        let store: Arc<dyn BlockStore> = Arc::new(SimStore::new(
            &clock,
            DiskModel::quantum_fireball_ct10(),
            FsConfig::small().total_blocks,
        ));
        let fs = Ffs::format_on(store.clone(), FsConfig::small());
        let dir = directory_of_24(&fs);
        fs.sync().unwrap();
        drop(fs);
        let fs = Ffs::mount_on(store).unwrap();
        let reads0 = fs.disk().stats().reads;
        for i in 0..24 {
            fs.lookup(dir, &format!("f{i}")).unwrap();
        }
        assert_eq!(fs.disk().stats().reads, reads0 + 1);
        let stats = fs.cache_stats();
        assert_eq!((stats.name_misses, stats.name_hits), (1, 23));
    }

    #[test]
    fn readdir_still_costs_one_store_read() {
        let clock = SimClock::new();
        let fs = Ffs::format_timed(&clock, FsConfig::small());
        let dir = directory_of_24(&fs);
        fs.lookup(dir, "f0").unwrap();
        for _ in 0..3 {
            let (t0, reads0) = (clock.now(), fs.disk().stats().reads);
            assert_eq!(fs.readdir(dir).unwrap().len(), 26);
            assert_eq!(fs.disk().stats().reads, reads0 + 1);
            assert!(clock.now() > t0, "READDIR reads the disk");
        }
    }

    #[test]
    fn a_directorys_files_read_in_creation_order_pay_one_seek() {
        let clock = SimClock::new();
        let fs = Ffs::format_timed(&clock, FsConfig::small());
        let dir = directory_of_24(&fs);
        let t0 = clock.now();
        for i in 0..24u8 {
            let ino = fs.lookup(dir, &format!("f{i}")).unwrap();
            assert_eq!(fs.read(ino, 0, BLOCK_SIZE).unwrap(), vec![i; BLOCK_SIZE]);
        }
        // The LOOKUP between two READs no longer drags the head back to
        // the directory block: the 24 file blocks are one run.
        assert_eq!(
            clock.now() - t0,
            DiskModel::quantum_fireball_ct10().run_cost(24)
        );
    }

    /// The timed disk, recording which blocks are read through the
    /// metadata path.
    struct MetaReads {
        inner: SimStore,
        seen: Mutex<Vec<u64>>,
    }

    impl BlockStore for MetaReads {
        fn block_count(&self) -> u64 {
            self.inner.block_count()
        }
        fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
            if class == IoClass::Meta {
                self.seen.lock().extend_from_slice(idxs);
            }
            self.inner.read(class, idxs)
        }
        fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
            self.inner.write(class, writes)
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
        fn label(&self) -> &'static str {
            "meta-reads"
        }
    }

    #[test]
    fn a_read_behind_the_indirect_pointer_is_one_store_read() {
        let clock = SimClock::new();
        let store = Arc::new(MetaReads {
            inner: SimStore::new(
                &clock,
                DiskModel::quantum_fireball_ct10(),
                FsConfig::small().total_blocks,
            ),
            seen: Mutex::new(Vec::new()),
        });
        let fs = Ffs::format_on(store.clone(), FsConfig::small());
        let ino = fs.create(fs.root(), "big", 0o644, 0, 0).unwrap();
        fs.write(ino, 0, &vec![7u8; 20 * BLOCK_SIZE]).unwrap();
        fs.sync().unwrap();
        drop(fs);
        // A fresh mount: the indirect block is fetched once, then kept.
        let fs = Ffs::mount_on(store.clone()).unwrap();
        let data_start = fs.data_start();
        let behind_indirect = 15 * BLOCK_SIZE as u64;
        let pointer_block_reads = |store: &MetaReads| {
            store
                .seen
                .lock()
                .iter()
                .filter(|&&b| b >= data_start)
                .count()
        };
        store.seen.lock().clear();
        fs.read(ino, behind_indirect, BLOCK_SIZE).unwrap();
        assert_eq!(pointer_block_reads(&store), 1, "cold: the indirect block");
        store.seen.lock().clear();
        let reads0 = store.stats().reads;
        fs.read(ino, behind_indirect, BLOCK_SIZE).unwrap();
        assert_eq!(
            store.stats().reads,
            reads0 + 1,
            "the data block, nothing else"
        );
        assert_eq!(
            pointer_block_reads(&store),
            0,
            "warm: no pointer block read"
        );
        let stats = fs.cache_stats();
        assert_eq!((stats.ptr_misses, stats.ptr_hits), (1, 1));
    }
}

// -- allocation groups: where inodes and blocks go on a many-group volume ---

mod allocation_groups {
    use netsim::SimClock;

    use crate::{Ffs, FsConfig, BLOCK_SIZE};
    use store::DiskModel;

    /// Used data blocks in group `g`.
    fn used_in_group(fs: &Ffs, g: u64) -> usize {
        let (_, block_bitmap, ..) = fs.bitmaps();
        let blocks = fs.layout().group_data(g);
        block_bitmap[blocks.start as usize..blocks.end as usize]
            .iter()
            .filter(|&&used| used)
            .count()
    }

    /// Directories made before their files, as `meta_walk`'s tree is:
    /// each directory's block heads its own group and its files follow
    /// it, so READDIR and the READs after it are one run.
    #[test]
    fn a_directory_made_before_its_files_reads_as_one_run() {
        const DIRS: usize = 4;
        const FILES: usize = 24;
        let clock = SimClock::new();
        let fs = Ffs::format_timed(&clock, FsConfig::standard());
        let dirs: Vec<_> = (0..DIRS)
            .map(|d| fs.mkdir(fs.root(), &format!("d{d}"), 0o755, 0, 0).unwrap())
            .collect();
        let files: Vec<Vec<_>> = dirs
            .iter()
            .map(|&dir| {
                (0..FILES)
                    .map(|f| fs.create(dir, &format!("f{f}"), 0o644, 0, 0).unwrap())
                    .collect()
            })
            .collect();
        for (d, inos) in files.iter().enumerate() {
            for (f, &ino) in inos.iter().enumerate() {
                fs.write(ino, 0, &vec![(d * FILES + f) as u8; BLOCK_SIZE])
                    .unwrap();
            }
        }
        let t0 = clock.now();
        for (d, &dir) in dirs.iter().enumerate() {
            assert_eq!(fs.readdir(dir).unwrap().len(), FILES + 2);
            for f in 0..FILES {
                let ino = fs.lookup(dir, &format!("f{f}")).unwrap();
                assert_eq!(
                    fs.read(ino, 0, BLOCK_SIZE).unwrap(),
                    vec![(d * FILES + f) as u8; BLOCK_SIZE]
                );
            }
        }
        assert_eq!(
            clock.now() - t0,
            DiskModel::quantum_fireball_ct10().run_cost(FILES + 1) * DIRS as u32
        );
    }

    #[test]
    fn files_go_in_their_directorys_group_and_directories_in_the_emptiest() {
        let fs = Ffs::format_in_memory(FsConfig::standard());
        let group = |ino| fs.layout().inode_group(ino);
        let root = fs.root();
        // Group 0 holds the root directory's block; the rest are empty.
        let a = fs.mkdir(root, "a", 0o755, 0, 0).unwrap();
        assert_eq!(group(a), 1);
        let f = fs.create(a, "f", 0o644, 0, 0).unwrap();
        let l = fs.symlink(a, "l", "f", 0, 0).unwrap();
        assert_eq!((group(f), group(l)), (1, 1));
        fs.write(f, 0, &vec![1u8; 4 * BLOCK_SIZE]).unwrap();
        // The directory's block, the link's and the file's four.
        assert_eq!(used_in_group(&fs, 1), 6);
        // A subdirectory goes to the emptiest group too, not its parent's.
        let b = fs.mkdir(a, "b", 0o755, 0, 0).unwrap();
        assert_eq!(group(b), 2);
        let c = fs.mkdir(root, "c", 0o755, 0, 0).unwrap();
        assert_eq!(group(c), 3);
        // Emptied, group 1 is again the lowest of the emptiest.
        fs.unlink(a, "f").unwrap();
        fs.unlink(a, "l").unwrap();
        fs.rmdir(a, "b").unwrap();
        fs.rmdir(root, "a").unwrap();
        assert_eq!(used_in_group(&fs, 1), 0);
        let d = fs.mkdir(root, "d", 0o755, 0, 0).unwrap();
        assert_eq!(group(d), 1);
        assert_eq!(group(fs.create(c, "g", 0o644, 0, 0).unwrap()), 3);
        fs.check().unwrap();
    }

    /// A root file written in order, as `seq_read`'s and `repl_mixed`'s
    /// are, runs on past the end of the root's group: one ascending
    /// extent from the block after the root directory's, with its
    /// indirect block between file blocks 11 and 12.
    #[test]
    fn a_root_file_written_in_order_is_one_extent_across_groups() {
        let fs = Ffs::format_in_memory(FsConfig::standard());
        let data_start = fs.data_start();
        let blocks = fs.layout().group_data(1).start - data_start + 64;
        let ino = fs.create(fs.root(), "big", 0o644, 0, 0).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        for fbn in 0..blocks {
            buf[..8].copy_from_slice(&fbn.to_be_bytes());
            fs.write(ino, fbn * BLOCK_SIZE as u64, &buf).unwrap();
        }
        let indirect = data_start + 1 + 12;
        let block_of = |fbn: u64| data_start + 1 + fbn + u64::from(fbn >= 12);
        let disk = fs.disk();
        for fbn in 0..blocks {
            let raw = disk.read_block_meta(block_of(fbn));
            assert_eq!(raw[..8], fbn.to_be_bytes(), "file block {fbn}");
        }
        let pointers = disk.read_block_meta(indirect);
        for fbn in [12, blocks - 1] {
            let at = (fbn - 12) as usize * 4;
            let ptr = u32::from_be_bytes(pointers[at..at + 4].try_into().unwrap());
            assert_eq!(u64::from(ptr), block_of(fbn));
        }
        // Nothing else is allocated.
        let (_, block_bitmap, ..) = fs.bitmaps();
        let last = block_bitmap.iter().rposition(|&used| used).unwrap() as u64;
        assert_eq!(last, block_of(blocks - 1));
        assert_eq!(
            fs.statfs().free_blocks,
            fs.statfs().total_blocks - (blocks + 2)
        );
    }
}
