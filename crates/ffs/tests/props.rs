//! Property tests: after ANY random sequence of filesystem operations,
//! the fsck-style checker must pass, data must read back, and space
//! accounting must balance.

use discfs_crypto::rng::check::{check, Source};
use ffs::{Ffs, FsConfig, FsError, SetAttr};

/// A randomly generated filesystem operation. Targets are small indexes
/// into a rolling name pool so that operations frequently collide
/// (exercising Exists/NoEnt paths).
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Mkdir(u8),
    Write { name: u8, offset: u16, len: u16 },
    Truncate { name: u8, size: u16 },
    Unlink(u8),
    Rmdir(u8),
    Rename(u8, u8),
    Link(u8, u8),
    Symlink(u8),
}

fn op(src: &mut Source) -> Op {
    match src.below(9) {
        0 => Op::Create(src.range(0..12)),
        1 => Op::Mkdir(src.range(0..6)),
        2 => Op::Write {
            name: src.range(0..12),
            offset: src.any(),
            len: src.range(0..2048),
        },
        3 => Op::Truncate {
            name: src.range(0..12),
            size: src.any(),
        },
        4 => Op::Unlink(src.range(0..12)),
        5 => Op::Rmdir(src.range(0..6)),
        6 => Op::Rename(src.range(0..12), src.range(0..12)),
        7 => Op::Link(src.range(0..12), src.range(0..12)),
        _ => Op::Symlink(src.range(0..12)),
    }
}

fn fname(i: u8) -> String {
    format!("file{i}")
}

fn dname(i: u8) -> String {
    format!("dir{i}")
}

fn apply(fs: &Ffs, op: &Op) {
    let root = fs.root();
    // Every error here is an *expected* failure mode (Exists, NoEnt,
    // NotEmpty, ...); panics and inconsistency are what we hunt.
    let _ = match op {
        Op::Create(i) => fs.create(root, &fname(*i), 0o644, 0, 0).map(|_| ()),
        Op::Mkdir(i) => fs.mkdir(root, &dname(*i), 0o755, 0, 0).map(|_| ()),
        Op::Write { name, offset, len } => fs.lookup(root, &fname(*name)).and_then(|ino| {
            let data = vec![*name; *len as usize];
            fs.write(ino, *offset as u64, &data).map(|_| ())
        }),
        Op::Truncate { name, size } => fs.lookup(root, &fname(*name)).and_then(|ino| {
            fs.setattr(
                ino,
                SetAttr {
                    size: Some(*size as u64),
                    ..Default::default()
                },
            )
            .map(|_| ())
        }),
        Op::Unlink(i) => fs.unlink(root, &fname(*i)),
        Op::Rmdir(i) => fs.rmdir(root, &dname(*i)),
        Op::Rename(a, b) => fs.rename(root, &fname(*a), root, &fname(*b)),
        Op::Link(a, b) => fs
            .lookup(root, &fname(*a))
            .and_then(|ino| fs.link(ino, root, &fname(*b))),
        Op::Symlink(i) => fs
            .symlink(root, &format!("link{i}"), "/some/target", 0, 0)
            .map(|_| ()),
    };
}

/// The one invariant to rule them all: any op sequence leaves a
/// filesystem that fsck finds consistent.
#[test]
fn random_ops_stay_consistent() {
    check("random_ops_stay_consistent", 64, |src| {
        let ops = src.vec(1..60, op);
        let fs = Ffs::format_in_memory(FsConfig::small());
        for op in &ops {
            apply(&fs, op);
        }
        if let Err(problems) = fs.check() {
            panic!("inconsistent after {ops:?}:\n{}", problems.join("\n"));
        }
    });
}

/// Written data always reads back, regardless of chunking.
#[test]
fn write_read_round_trip() {
    check("write_read_round_trip", 64, |src| {
        let chunks = src.vec(1..12, |src| (src.any::<u16>(), src.range(0u16..3000)));
        let fs = Ffs::format_in_memory(FsConfig::small());
        let ino = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
        // Shadow model: a simple Vec<u8>.
        let mut model: Vec<u8> = Vec::new();
        for (offset, len) in &chunks {
            let offset = *offset as u64 % (1 << 18);
            let data = vec![(*len % 251) as u8; *len as usize];
            match fs.write(ino, offset, &data) {
                Ok(_) => {
                    let end = offset as usize + data.len();
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[offset as usize..end].copy_from_slice(&data);
                }
                Err(FsError::NoSpace) => break,
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        let size = fs.getattr(ino).unwrap().size;
        assert_eq!(size, model.len() as u64);
        let back = fs.read(ino, 0, model.len()).unwrap();
        assert_eq!(back, model);
        fs.check().unwrap();
    });
}

/// Deleting everything returns the filesystem to its initial free
/// counts (no leaked blocks or inodes).
#[test]
fn space_fully_reclaimed() {
    check("space_fully_reclaimed", 64, |src| {
        let ops = src.vec(1..40, op);
        let fs = Ffs::format_in_memory(FsConfig::small());
        let initial = fs.statfs();
        for op in &ops {
            apply(&fs, op);
        }
        // Delete everything that exists.
        loop {
            let entries: Vec<_> = fs
                .readdir(fs.root())
                .unwrap()
                .into_iter()
                .filter(|e| e.name != "." && e.name != "..")
                .collect();
            if entries.is_empty() {
                break;
            }
            for e in entries {
                let _ = fs.unlink(fs.root(), &e.name);
                let _ = fs.rmdir(fs.root(), &e.name);
            }
        }
        let end = fs.statfs();
        assert_eq!(initial.free_blocks, end.free_blocks);
        assert_eq!(initial.free_inodes, end.free_inodes);
        fs.check().unwrap();
    });
}

/// Handles with an old generation are reliably detected as stale.
#[test]
fn stale_handles_detected() {
    check("stale_handles_detected", 64, |src| {
        let rounds = src.range(1usize..20);
        let fs = Ffs::format_in_memory(FsConfig {
            total_blocks: 256,
            inode_count: 16,
        });
        let mut old_handles = Vec::new();
        for round in 0..rounds {
            let name = format!("f{round}");
            let ino = fs.create(fs.root(), &name, 0o644, 0, 0).unwrap();
            let generation = fs.getattr(ino).unwrap().generation;
            fs.validate_handle(ino, generation).unwrap();
            fs.unlink(fs.root(), &name).unwrap();
            old_handles.push((ino, generation));
        }
        // Allocate a fresh file; all prior handles must now fail.
        let live = fs.create(fs.root(), "live", 0o644, 0, 0).unwrap();
        let live_generation = fs.getattr(live).unwrap().generation;
        for (ino, generation) in old_handles {
            assert!(fs.validate_handle(ino, generation).is_err());
        }
        fs.validate_handle(live, live_generation).unwrap();
    });
}

// -- in-core cache coherence -------------------------------------------------
//
// The name cache and the pointer-block cache are write-through, so the
// only way they can be wrong is by being stale. The live filesystem
// answers from them; a second `Ffs` mounted on a copy of the same store
// has nothing cached and answers from the blocks. The two must agree
// with each other and with a model that never looks at either.

mod coherence {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    use discfs_crypto::rng::{DetRng, RngCore};
    use ffs::{BlockStore, Ffs, FileKind, FsConfig, FsError, Ino, SetAttr, BLOCK_SIZE};
    use store::SimStore;

    const TARGET: &str = "/some/target";

    fn config() -> FsConfig {
        FsConfig {
            total_blocks: 4096,
            inode_count: 2048,
        }
    }

    /// The walk's generator: the whole run replays from its seed.
    struct Rng(DetRng);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0.next_u64()
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Node {
        Dir(usize),
        File(usize),
        Symlink(Ino),
    }

    struct MDir {
        ino: Ino,
        parent: usize,
        entries: BTreeMap<String, Node>,
        /// Names removed from this directory and not created again.
        removed: BTreeSet<String>,
    }

    struct MFile {
        ino: Ino,
        data: Vec<u8>,
        links: u32,
    }

    /// What the tree must look like, kept without reading the filesystem
    /// back (inode numbers are taken from the creating call's result).
    struct Model {
        dirs: BTreeMap<usize, MDir>,
        files: BTreeMap<usize, MFile>,
        next_id: usize,
    }

    impl Model {
        fn new(root: Ino) -> Model {
            let mut dirs = BTreeMap::new();
            dirs.insert(
                0,
                MDir {
                    ino: root,
                    parent: 0,
                    entries: BTreeMap::new(),
                    removed: BTreeSet::new(),
                },
            );
            Model {
                dirs,
                files: BTreeMap::new(),
                next_id: 1,
            }
        }

        fn fresh_id(&mut self) -> usize {
            self.next_id += 1;
            self.next_id - 1
        }

        fn ino_of(&self, node: Node) -> Ino {
            match node {
                Node::Dir(id) => self.dirs[&id].ino,
                Node::File(id) => self.files[&id].ino,
                Node::Symlink(ino) => ino,
            }
        }

        fn get(&self, dir: usize, name: &str) -> Option<Node> {
            self.dirs[&dir].entries.get(name).copied()
        }

        fn add(&mut self, dir: usize, name: &str, node: Node) {
            let d = self.dirs.get_mut(&dir).unwrap();
            d.entries.insert(name.to_string(), node);
            d.removed.remove(name);
        }

        fn del(&mut self, dir: usize, name: &str) -> Node {
            let d = self.dirs.get_mut(&dir).unwrap();
            d.removed.insert(name.to_string());
            d.entries.remove(name).unwrap()
        }

        /// Accounts for one directory entry to `node` going away.
        fn unref(&mut self, node: Node) {
            match node {
                Node::Dir(id) => {
                    assert!(self.dirs.remove(&id).unwrap().entries.is_empty());
                }
                Node::File(id) => {
                    let f = self.files.get_mut(&id).unwrap();
                    f.links -= 1;
                    if f.links == 0 {
                        self.files.remove(&id);
                    }
                }
                Node::Symlink(_) => {}
            }
        }

        fn random_dir(&self, rng: &mut Rng) -> usize {
            *self.dirs.keys().nth(rng.below(self.dirs.len())).unwrap()
        }

        fn random_file(&self, rng: &mut Rng) -> Option<usize> {
            if self.files.is_empty() {
                return None;
            }
            self.files.keys().nth(rng.below(self.files.len())).copied()
        }

        /// Whether `dir` is `ancestor` or lies below it.
        fn is_under(&self, mut dir: usize, ancestor: usize) -> bool {
            loop {
                if dir == ancestor {
                    return true;
                }
                if dir == 0 {
                    return false;
                }
                dir = self.dirs[&dir].parent;
            }
        }
    }

    fn name(rng: &mut Rng) -> String {
        format!("n{}", rng.below(6))
    }

    fn mkdir(fs: &Ffs, m: &mut Model, dir: usize, name: &str) {
        let free = m.get(dir, name).is_none();
        match fs.mkdir(m.dirs[&dir].ino, name, 0o755, 0, 0) {
            Ok(ino) => {
                assert!(free, "mkdir over an existing {name}");
                let id = m.fresh_id();
                m.dirs.insert(
                    id,
                    MDir {
                        ino,
                        parent: dir,
                        entries: BTreeMap::new(),
                        removed: BTreeSet::new(),
                    },
                );
                m.add(dir, name, Node::Dir(id));
            }
            Err(e) => assert_eq!((e, free), (FsError::Exists, false)),
        }
    }

    fn create(fs: &Ffs, m: &mut Model, dir: usize, name: &str) {
        let free = m.get(dir, name).is_none();
        match fs.create(m.dirs[&dir].ino, name, 0o644, 0, 0) {
            Ok(ino) => {
                assert!(free, "create over an existing {name}");
                let id = m.fresh_id();
                m.files.insert(
                    id,
                    MFile {
                        ino,
                        data: Vec::new(),
                        links: 1,
                    },
                );
                m.add(dir, name, Node::File(id));
            }
            Err(e) => assert_eq!((e, free), (FsError::Exists, false)),
        }
    }

    fn write(fs: &Ffs, m: &mut Model, file: usize, offset: usize, byte: u8, len: usize) {
        let f = m.files.get_mut(&file).unwrap();
        let data = vec![byte; len];
        assert_eq!(fs.write(f.ino, offset as u64, &data), Ok(len));
        if f.data.len() < offset + len {
            f.data.resize(offset + len, 0);
        }
        f.data[offset..offset + len].copy_from_slice(&data);
    }

    fn rename(fs: &Ffs, m: &mut Model, sd: usize, sn: &str, dd: usize, dn: &str) {
        let result = fs.rename(m.dirs[&sd].ino, sn, m.dirs[&dd].ino, dn);
        let Some(src) = m.get(sd, sn) else {
            assert_eq!(result, Err(FsError::NoEnt));
            return;
        };
        if sd == dd && sn == dn {
            assert_eq!(result, Ok(()));
            return;
        }
        let src_is_dir = matches!(src, Node::Dir(_));
        if let Node::Dir(id) = src {
            if sd != dd && m.is_under(dd, id) {
                assert_eq!(result, Err(FsError::InvalidMove));
                return;
            }
        }
        if let Some(dst) = m.get(dd, dn) {
            let replaceable = match dst {
                Node::Dir(id) => src_is_dir && m.dirs[&id].entries.is_empty(),
                _ => !src_is_dir,
            };
            if !replaceable {
                assert!(result.is_err(), "rename over an incompatible {dn}");
                return;
            }
            let dst = m.del(dd, dn);
            m.unref(dst);
        }
        assert_eq!(result, Ok(()));
        let node = m.del(sd, sn);
        m.add(dd, dn, node);
        if let Node::Dir(id) = node {
            m.dirs.get_mut(&id).unwrap().parent = dd;
        }
    }

    /// One random operation on the live filesystem and the model.
    fn step(fs: &Ffs, m: &mut Model, rng: &mut Rng) {
        let dir = m.random_dir(rng);
        let dir_ino = m.dirs[&dir].ino;
        let nm = name(rng);
        match rng.below(14) {
            0 | 1 => create(fs, m, dir, &nm),
            2 => mkdir(fs, m, dir, &nm),
            3 => {
                let free = m.get(dir, &nm).is_none();
                match fs.symlink(dir_ino, &nm, TARGET, 0, 0) {
                    Ok(ino) => {
                        assert!(free);
                        m.add(dir, &nm, Node::Symlink(ino));
                    }
                    Err(e) => assert_eq!((e, free), (FsError::Exists, false)),
                }
            }
            4 => {
                let Some(file) = m.random_file(rng) else {
                    return;
                };
                let free = m.get(dir, &nm).is_none();
                match fs.link(m.files[&file].ino, dir_ino, &nm) {
                    Ok(()) => {
                        assert!(free);
                        m.files.get_mut(&file).unwrap().links += 1;
                        m.add(dir, &nm, Node::File(file));
                    }
                    Err(e) => assert_eq!((e, free), (FsError::Exists, false)),
                }
            }
            5 => match (fs.unlink(dir_ino, &nm), m.get(dir, &nm)) {
                (Err(e), None) => assert_eq!(e, FsError::NoEnt),
                (Err(e), Some(Node::Dir(_))) => assert_eq!(e, FsError::IsDir),
                (Ok(()), Some(Node::File(_) | Node::Symlink(_))) => {
                    let node = m.del(dir, &nm);
                    m.unref(node);
                }
                (result, _) => panic!("unlink {nm}: {result:?} disagrees with the model"),
            },
            6 => match (fs.rmdir(dir_ino, &nm), m.get(dir, &nm)) {
                (Err(e), None) => assert_eq!(e, FsError::NoEnt),
                (Err(e), Some(Node::File(_) | Node::Symlink(_))) => assert_eq!(e, FsError::NotDir),
                (result, Some(Node::Dir(id))) => {
                    if m.dirs[&id].entries.is_empty() {
                        assert_eq!(result, Ok(()));
                        let node = m.del(dir, &nm);
                        m.unref(node);
                    } else {
                        assert_eq!(result, Err(FsError::NotEmpty));
                    }
                }
                (result, _) => panic!("rmdir {nm}: {result:?} disagrees with the model"),
            },
            7 => {
                let dst_dir = m.random_dir(rng);
                let dst_name = name(rng);
                rename(fs, m, dir, &nm, dst_dir, &dst_name);
            }
            8 | 9 => {
                let Some(file) = m.random_file(rng) else {
                    return;
                };
                // Mostly small; a third of the writes land on either
                // side of the first indirect pointer.
                let offset = match rng.below(3) {
                    0 => rng.below(4000),
                    1 => 11 * BLOCK_SIZE + rng.below(3 * BLOCK_SIZE),
                    _ => rng.below(15 * BLOCK_SIZE),
                };
                let len = 1 + rng.below(3000);
                write(fs, m, file, offset, rng.next() as u8, len);
            }
            10 => {
                let Some(file) = m.random_file(rng) else {
                    return;
                };
                let f = m.files.get_mut(&file).unwrap();
                let size = match rng.below(3) {
                    0 => 0,
                    1 => rng.below(f.data.len() + 1),
                    _ => rng.below(15 * BLOCK_SIZE),
                };
                let set = SetAttr {
                    size: Some(size as u64),
                    ..Default::default()
                };
                assert_eq!(fs.setattr(f.ino, set).unwrap().size, size as u64);
                f.data.resize(size, 0);
            }
            11 => {
                let expected = m.get(dir, &nm).map(|n| m.ino_of(n)).ok_or(FsError::NoEnt);
                assert_eq!(fs.lookup(dir_ino, &nm), expected);
            }
            12 => check_listing(fs, m, dir),
            _ => {
                let Some(file) = m.random_file(rng) else {
                    return;
                };
                let f = &m.files[&file];
                let offset = rng.below(f.data.len() + 1);
                let len = rng.below(2 * BLOCK_SIZE);
                let end = (offset + len).min(f.data.len());
                assert_eq!(
                    fs.read(f.ino, offset as u64, len).unwrap(),
                    f.data[offset..end]
                );
            }
        }
    }

    /// READDIR of model directory `dir` lists exactly the model's names.
    fn check_listing(fs: &Ffs, m: &Model, dir: usize) {
        let d = &m.dirs[&dir];
        let listed: BTreeMap<String, Ino> = fs
            .readdir(d.ino)
            .unwrap()
            .into_iter()
            .map(|e| (e.name, e.ino))
            .collect();
        let mut expected: BTreeMap<String, Ino> = d
            .entries
            .iter()
            .map(|(name, &node)| (name.clone(), m.ino_of(node)))
            .collect();
        expected.insert(".".into(), d.ino);
        expected.insert("..".into(), m.dirs[&d.parent].ino);
        assert_eq!(listed, expected, "listing of directory {}", d.ino);
    }

    /// A block-for-block copy of `disk`. The second mount gets a copy
    /// because its own reads write access times (and the dirty marker)
    /// to its store, which must not reach the live volume.
    fn copy_of(disk: &SimStore) -> Arc<SimStore> {
        let copy = SimStore::untimed(disk.block_count());
        for idx in 0..disk.block_count() {
            copy.write_block_meta(idx, &disk.read_block_meta(idx));
        }
        Arc::new(copy)
    }

    /// The live filesystem (answering from its caches), a cold second
    /// mount of the same blocks and the model all agree, and both
    /// filesystems are fsck-clean.
    fn check_against_second_mount(live: &Ffs, disk: &SimStore, m: &Model) {
        let cold = Ffs::mount_on(copy_of(disk)).expect("second mount");
        // Names and attributes first: nothing in this pass writes.
        for d in m.dirs.values() {
            for (name, &node) in &d.entries {
                let ino = m.ino_of(node);
                assert_eq!(live.lookup(d.ino, name), Ok(ino), "live {}/{name}", d.ino);
                assert_eq!(cold.lookup(d.ino, name), Ok(ino), "cold {}/{name}", d.ino);
                let attr = live.getattr(ino).unwrap();
                assert_eq!(attr, cold.getattr(ino).unwrap());
                match node {
                    Node::Dir(id) => {
                        let subdirs = m.dirs[&id]
                            .entries
                            .values()
                            .filter(|n| matches!(n, Node::Dir(_)))
                            .count();
                        assert_eq!(attr.kind, FileKind::Directory);
                        assert_eq!(attr.nlink, 2 + subdirs as u32);
                    }
                    Node::File(id) => {
                        let f = &m.files[&id];
                        assert_eq!(attr.kind, FileKind::Regular);
                        assert_eq!((attr.size, attr.nlink), (f.data.len() as u64, f.links));
                    }
                    Node::Symlink(_) => assert_eq!(attr.kind, FileKind::Symlink),
                }
            }
            for name in &d.removed {
                assert_eq!(live.lookup(d.ino, name), Err(FsError::NoEnt));
                assert_eq!(cold.lookup(d.ino, name), Err(FsError::NoEnt));
            }
        }
        // Listings, after the lookups: READDIR refreshes the name cache.
        for (&id, d) in &m.dirs {
            check_listing(live, m, id);
            assert_eq!(live.readdir(d.ino).unwrap(), cold.readdir(d.ino).unwrap());
        }
        // Contents last: READ writes an access time.
        for d in m.dirs.values() {
            for &node in d.entries.values() {
                match node {
                    Node::File(id) => {
                        let f = &m.files[&id];
                        assert_eq!(live.read(f.ino, 0, f.data.len() + 1).unwrap(), f.data);
                        assert_eq!(cold.read(f.ino, 0, f.data.len() + 1).unwrap(), f.data);
                    }
                    Node::Symlink(ino) => {
                        assert_eq!(live.readlink(ino).unwrap(), TARGET);
                        assert_eq!(cold.readlink(ino).unwrap(), TARGET);
                    }
                    Node::Dir(_) => {}
                }
            }
        }
        live.check().unwrap_or_else(|p| panic!("live fsck: {p:?}"));
        cold.check().unwrap_or_else(|p| panic!("cold fsck: {p:?}"));
    }

    fn live_volume() -> (Ffs, Arc<SimStore>) {
        let disk = Arc::new(SimStore::untimed(config().total_blocks));
        (Ffs::format_on(disk.clone(), config()), disk)
    }

    fn random_walk_stays_coherent(seed: u64) {
        let (fs, disk) = live_volume();
        let mut m = Model::new(fs.root());
        let mut rng = Rng(DetRng::new(seed));
        // More directories than the name cache keeps and more files with
        // an indirect block than the pointer-block cache keeps, so both
        // evict for the rest of the run.
        let mut parents = vec![0usize];
        while m.dirs.len() < 300 {
            let parent = parents.remove(0);
            for i in 0..3 {
                mkdir(&fs, &mut m, parent, &format!("n{i}"));
                let Some(Node::Dir(id)) = m.get(parent, &format!("n{i}")) else {
                    unreachable!("just made")
                };
                parents.push(id);
            }
        }
        for dir in 0..80 {
            create(&fs, &mut m, dir, "n3");
            let Some(Node::File(file)) = m.get(dir, "n3") else {
                unreachable!("just made")
            };
            write(&fs, &mut m, file, 12 * BLOCK_SIZE + 100, dir as u8, 10);
        }
        for i in 1..=2400 {
            step(&fs, &mut m, &mut rng);
            if i % 200 == 0 {
                fs.sync().unwrap();
                check_against_second_mount(&fs, &disk, &m);
            }
        }
        let stats = fs.cache_stats();
        assert!(stats.name_hits > 0 && stats.name_misses > 0 && stats.name_evictions > 0);
        assert!(stats.ptr_hits > 0 && stats.ptr_misses > 0 && stats.ptr_evictions > 0);
    }

    /// Runs `expect` against the live filesystem and against a cold
    /// second mount of the same blocks, then fscks both.
    fn on_both(live: &Ffs, disk: &SimStore, expect: impl Fn(&Ffs)) {
        expect(live);
        let cold = Ffs::mount_on(copy_of(disk)).expect("second mount");
        expect(&cold);
        live.check().unwrap_or_else(|p| panic!("live fsck: {p:?}"));
        cold.check().unwrap_or_else(|p| panic!("cold fsck: {p:?}"));
    }

    #[test]
    fn renaming_a_directory_across_parents_rewrites_dotdot() {
        let (fs, disk) = live_volume();
        let a = fs.mkdir(fs.root(), "a", 0o755, 0, 0).unwrap();
        let b = fs.mkdir(fs.root(), "b", 0o755, 0, 0).unwrap();
        let x = fs.mkdir(a, "x", 0o755, 0, 0).unwrap();
        let f = fs.create(x, "f", 0o644, 0, 0).unwrap();
        assert_eq!(fs.lookup(x, ".."), Ok(a));
        fs.rename(a, "x", b, "y").unwrap();
        on_both(&fs, &disk, |fs| {
            assert_eq!(fs.lookup(x, ".."), Ok(b));
            assert_eq!(fs.lookup(a, "x"), Err(FsError::NoEnt));
            assert_eq!(fs.lookup(b, "y"), Ok(x));
            assert_eq!(fs.lookup(x, "f"), Ok(f));
            assert_eq!(fs.getattr(a).unwrap().nlink, 2);
            assert_eq!(fs.getattr(b).unwrap().nlink, 3);
        });
    }

    #[test]
    fn a_name_created_again_is_a_new_file() {
        let (fs, disk) = live_volume();
        let first = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
        let first_gen = fs.getattr(first).unwrap().generation;
        assert_eq!(fs.lookup(fs.root(), "f"), Ok(first));
        fs.unlink(fs.root(), "f").unwrap();
        assert_eq!(fs.lookup(fs.root(), "f"), Err(FsError::NoEnt));
        let second = fs.create(fs.root(), "f", 0o644, 0, 0).unwrap();
        fs.write(second, 0, b"second").unwrap();
        on_both(&fs, &disk, |fs| {
            assert_eq!(fs.lookup(fs.root(), "f"), Ok(second));
            assert!(fs.validate_handle(first, first_gen).is_err());
            let attr = fs.getattr(second).unwrap();
            assert!(second != first || attr.generation > first_gen);
            assert_eq!(fs.read(second, 0, 10).unwrap(), b"second");
        });
    }

    #[test]
    fn reused_inodes_and_blocks_carry_nothing_over() {
        let (fs, disk) = live_volume();
        let root = fs.root();
        // A directory's inode comes back as another directory.
        let d = fs.mkdir(root, "d", 0o755, 0, 0).unwrap();
        fs.create(d, "f", 0o644, 0, 0).unwrap();
        assert!(fs.lookup(d, "f").is_ok());
        fs.unlink(d, "f").unwrap();
        fs.rmdir(root, "d").unwrap();
        let e = fs.mkdir(root, "e", 0o755, 0, 0).unwrap();
        assert_eq!(e, d, "the freed inode is the first free one");
        assert_eq!(fs.lookup(e, "f"), Err(FsError::NoEnt));
        assert_eq!(fs.readdir(e).unwrap().len(), 2);
        // A pointer block comes back as data, then as a pointer block.
        // The allocator hands out the lowest freed block first, so the
        // 13th block of each fill below is the same one: `big`'s
        // indirect block, then `thirteenth`'s data, then `big`'s
        // indirect block again.
        let shrink = SetAttr {
            size: Some(0),
            ..Default::default()
        };
        let big = fs.create(root, "big", 0o644, 0, 0).unwrap();
        let first: Vec<u8> = (0..20 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        fs.write(big, 0, &first).unwrap();
        assert_eq!(fs.read(big, 0, first.len()).unwrap(), first);
        fs.setattr(big, shrink).unwrap();
        let twelve = fs.create(root, "twelve", 0o644, 0, 0).unwrap();
        fs.write(twelve, 0, &vec![0xFF; 12 * BLOCK_SIZE]).unwrap();
        let thirteenth = fs.create(root, "thirteenth", 0o644, 0, 0).unwrap();
        fs.write(thirteenth, 0, &vec![0xFF; BLOCK_SIZE]).unwrap();
        fs.setattr(twelve, shrink).unwrap();
        fs.setattr(thirteenth, shrink).unwrap();
        let second: Vec<u8> = (0..20 * BLOCK_SIZE).map(|i| (i % 241) as u8).collect();
        fs.write(big, 0, &second).unwrap();
        on_both(&fs, &disk, |fs| {
            assert_eq!(fs.read(big, 0, second.len() + 1).unwrap(), second);
            assert_eq!(fs.getattr(thirteenth).unwrap().size, 0);
        });
    }

    #[test]
    fn hard_links_in_two_directories_stay_one_file() {
        let (fs, disk) = live_volume();
        let a = fs.mkdir(fs.root(), "a", 0o755, 0, 0).unwrap();
        let b = fs.mkdir(fs.root(), "b", 0o755, 0, 0).unwrap();
        let f = fs.create(a, "f", 0o644, 0, 0).unwrap();
        fs.write(f, 0, b"shared").unwrap();
        fs.link(f, b, "g").unwrap();
        on_both(&fs, &disk, |fs| {
            assert_eq!(fs.lookup(a, "f"), Ok(f));
            assert_eq!(fs.lookup(b, "g"), Ok(f));
            assert_eq!(fs.getattr(f).unwrap().nlink, 2);
        });
        fs.unlink(a, "f").unwrap();
        on_both(&fs, &disk, |fs| {
            assert_eq!(fs.lookup(a, "f"), Err(FsError::NoEnt));
            assert_eq!(fs.lookup(b, "g"), Ok(f));
            assert_eq!(fs.getattr(f).unwrap().nlink, 1);
            assert_eq!(fs.read(f, 0, 10).unwrap(), b"shared");
        });
    }

    #[test]
    fn caches_agree_with_a_second_mount_seed_7() {
        random_walk_stays_coherent(7);
    }

    #[test]
    fn caches_agree_with_a_second_mount_seed_23() {
        random_walk_stays_coherent(23);
    }
}
