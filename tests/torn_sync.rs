//! A replicated volume's sync, torn at every journal record boundary.
//!
//! A sync larger than one block-protocol call per node commits as
//! several epochs (`store::ReplicatedStore`, *Epochs*). Here one `Ffs`
//! sync spans at least three epochs on every node of a 3-node,
//! 2-replica volume of journaled node stores. Two kinds of crash are
//! replayed from copies of the nodes' files:
//!
//! - one node's journal cut at every record boundary, the others whole:
//!   the remount lands on the sync's last epoch and rebuilds the node;
//! - the coordinator's crash between two epochs, every node's journal
//!   cut where that epoch ended: the remount lands on that epoch, which
//!   holds a block-order prefix of the sync.
//!
//! Either way every replica of every block is equal, and an `Ffs`
//! mounted on the remount is fsck-clean.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ffs::{Ffs, FsConfig};
use netsim::{LinkConfig, SimClock};
use parking_lot::Mutex;
use store::{
    BlockStore, Bytes, FileStore, IoClass, NodeLease, RemoteOptions, RemoteStore, ReplicatedStore,
    StoreStats, JOURNAL_RECORD_LEN,
};

const NODES: usize = 3;
const REPLICAS: usize = 2;
const FS: FsConfig = FsConfig {
    total_blocks: 480,
    inode_count: 64,
};
/// The node whose journal alone is cut.
const VICTIM: usize = 1;

fn node_bc() -> u64 {
    ReplicatedStore::node_block_count(FS.total_blocks, NODES, REPLICAS)
}

fn journal(dir: &Path) -> PathBuf {
    dir.join("journal.wal")
}

/// Whole journal records in a node directory's journal.
fn records(dir: &Path) -> u64 {
    std::fs::metadata(journal(dir)).unwrap().len() / JOURNAL_RECORD_LEN as u64
}

/// One node write as the coordinator sent it: the node, its journal
/// length after the write, and whether the write stamped an epoch (its
/// last block is the epoch record's).
struct Call {
    node: usize,
    records: u64,
    stamped: bool,
}

/// A node store that logs every write call, in the order the
/// coordinator sends them.
struct Logged {
    node: usize,
    dir: PathBuf,
    inner: Arc<FileStore>,
    log: Arc<Mutex<Vec<Call>>>,
}

impl BlockStore for Logged {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read(&self, class: IoClass, idxs: &[u64]) -> Vec<Bytes> {
        self.inner.read(class, idxs)
    }
    fn write(&self, class: IoClass, writes: &[(u64, &[u8])]) {
        self.inner.write(class, writes);
        self.log.lock().push(Call {
            node: self.node,
            records: records(&self.dir),
            stamped: writes.last().is_some_and(|&(idx, _)| idx == node_bc() - 1),
        });
    }
    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn label(&self) -> &'static str {
        "logged"
    }
}

/// A volume over the given node stores, recovered as a mount does.
fn volume(nodes: Vec<Arc<dyn BlockStore>>, clock: &SimClock) -> Arc<ReplicatedStore> {
    let clients = nodes
        .into_iter()
        .map(|node| {
            RemoteStore::serve_shared(
                node,
                Arc::new(NodeLease::default()),
                clock,
                LinkConfig::instant(),
                RemoteOptions::default(),
                None,
            )
        })
        .collect();
    Arc::new(ReplicatedStore::new(
        clients,
        Vec::new(),
        FS.total_blocks,
        REPLICAS,
    ))
}

fn read_all(store: &dyn BlockStore) -> Vec<Bytes> {
    store.read(IoClass::Data, &(0..FS.total_blocks).collect::<Vec<_>>())
}

/// Copies node directory `from` to `to`, its journal cut to `keep`
/// records, and opens it (which replays the kept records).
fn open_cut(from: &Path, to: &Path, keep: u64) -> Arc<FileStore> {
    std::fs::create_dir_all(to).unwrap();
    std::fs::copy(from.join("blocks.dat"), to.join("blocks.dat")).unwrap();
    std::fs::copy(journal(from), journal(to)).unwrap();
    std::fs::OpenOptions::new()
        .write(true)
        .open(journal(to))
        .unwrap()
        .set_len(keep * JOURNAL_RECORD_LEN as u64)
        .unwrap();
    Arc::new(FileStore::open(to, node_bc()).unwrap())
}

/// The logical block `idx`'s replica `r` as its node stores it
/// (`store::ReplicatedStore`'s placement).
fn replica(nodes: &[Arc<FileStore>], idx: u64, r: usize) -> Bytes {
    let n = NODES as u64;
    let node = ((idx % n) as usize + r) % NODES;
    nodes[node].read_block((idx / n) * REPLICAS as u64 + r as u64)
}

/// The checks every remount passes: every replica of every block is
/// equal, so is every node's epoch record, and the volume is
/// fsck-clean. Returns the remount's image.
fn check_remount(nodes: &[Arc<FileStore>], store: Arc<ReplicatedStore>, what: &str) -> Vec<Bytes> {
    for idx in 0..FS.total_blocks {
        assert!(
            (1..REPLICAS).all(|r| replica(nodes, idx, r) == replica(nodes, idx, 0)),
            "{what}: the replicas of block {idx} differ"
        );
    }
    let record = nodes[0].read_block(node_bc() - 1);
    assert!(
        nodes
            .iter()
            .all(|nd| nd.read_block(node_bc() - 1) == record),
        "{what}: the epoch records differ"
    );
    let image = (0..FS.total_blocks)
        .map(|idx| replica(nodes, idx, 0))
        .collect();
    let fs = Ffs::mount_on(store).unwrap_or_else(|e| panic!("{what}: mount: {e:?}"));
    fs.check()
        .unwrap_or_else(|problems| panic!("{what}: fsck: {problems:?}"));
    image
}

#[test]
fn a_sync_torn_at_any_record_remounts_at_an_epoch_that_holds_a_prefix_of_it() {
    let base = store::temp_dir_for_tests("torn-sync");
    let master = base.join("master");
    let dirs: Vec<PathBuf> = (0..NODES)
        .map(|i| master.join(format!("node-{i}")))
        .collect();
    let clock = SimClock::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let files: Vec<Arc<FileStore>> = dirs
        .iter()
        .map(|dir| Arc::new(FileStore::open(dir, node_bc()).unwrap()))
        .collect();
    let store = volume(
        (0..NODES)
            .map(|node| {
                Arc::new(Logged {
                    node,
                    dir: dirs[node].clone(),
                    inner: Arc::clone(&files[node]),
                    log: Arc::clone(&log),
                }) as Arc<dyn BlockStore>
            })
            .collect(),
        &clock,
    );

    // Before: a synced volume holding one small file, checkpointed so
    // the journals hold the torn sync alone.
    let fs = Ffs::format_on(store.clone(), FS);
    let small = fs.create(fs.root(), "small", 0o644, 0, 0).unwrap();
    fs.write(small, 0, &[0x11; 3 * 8192]).unwrap();
    fs.sync().unwrap();
    for file in &files {
        file.flush().unwrap();
    }
    let (pre, pre_epoch) = (read_all(&*store), store.epoch());
    log.lock().clear();

    // The sync: 400 data blocks, a node's share of which is 267.
    for f in 0..4u8 {
        let ino = fs.create(fs.root(), &format!("f{f}"), 0o644, 0, 0).unwrap();
        let body: Vec<u8> = (0..100 * 8192).map(|i| (i / 8192) as u8 ^ f).collect();
        fs.write(ino, 0, &body).unwrap();
    }
    fs.sync().unwrap();
    let (post, last_epoch) = (read_all(&*store), store.epoch());
    drop(fs);
    drop(store);
    drop(files);

    // The points between two epochs: every node has stamped as many
    // epochs as the others, and each node's journal length there.
    let log = log.lock();
    let mut stamps = [0u64; NODES];
    let mut at = [0u64; NODES];
    let mut between = vec![(0, at)];
    for call in log.iter() {
        at[call.node] = call.records;
        stamps[call.node] += u64::from(call.stamped);
        if call.stamped && stamps.iter().all(|&s| s == stamps[0]) {
            between.push((stamps[0], at));
        }
    }
    // Three or more epochs of data on every node, then the clean
    // marker's epoch.
    assert!(
        stamps.iter().all(|&s| s == last_epoch - pre_epoch) && last_epoch - pre_epoch >= 4,
        "{stamps:?} epochs stamped, {pre_epoch} → {last_epoch} committed"
    );
    for (node, dir) in dirs.iter().enumerate() {
        assert_eq!(
            at[node],
            records(dir),
            "node {node}: the log saw every record"
        );
    }

    // The coordinator torn between two epochs.
    let mut prefixes = Vec::new();
    for &(epochs, kept) in &between {
        let what = format!("torn after {epochs} epochs");
        let cut = base.join(format!("between-{epochs}"));
        let nodes: Vec<Arc<FileStore>> = (0..NODES)
            .map(|i| open_cut(&dirs[i], &cut.join(format!("node-{i}")), kept[i]))
            .collect();
        let store = volume(nodes.iter().map(|nd| nd.clone() as _).collect(), &clock);
        assert_eq!(store.epoch(), pre_epoch + epochs, "{what}");
        let image = check_remount(&nodes, store, &what);
        // Block 0 commits in the sync's first epoch, with the dirty
        // marker, and the clean marker's epoch is the last: in between,
        // the remount's superblock is neither the one before the sync
        // nor the one after it.
        if epochs == 0 {
            assert!(image[0] == pre[0], "{what}: block 0 moved");
        } else if pre_epoch + epochs == last_epoch {
            assert!(image[0] == post[0], "{what}: not the clean marker");
        } else {
            assert!(
                image[0] != pre[0] && image[0] != post[0],
                "{what}: not the dirty marker"
            );
        }
        // Past block 0, the image is the sync's up to some block and
        // the volume's before it from there on.
        let new = (1..FS.total_blocks as usize)
            .find(|&i| image[i] != post[i])
            .unwrap_or(post.len());
        assert!(
            (new..pre.len()).all(|i| image[i] == pre[i]),
            "{what}: not a block-order prefix of the sync"
        );
        prefixes.push(new);
        std::fs::remove_dir_all(&cut).unwrap();
    }
    // Each epoch of data commits more of the sync; the clean marker's
    // epoch commits none.
    let mut grown = prefixes.clone();
    grown.dedup();
    assert!(
        prefixes.windows(2).all(|w| w[0] <= w[1]) && grown.len() == prefixes.len() - 1,
        "each epoch holds more of the sync: {prefixes:?}"
    );

    // One node's journal cut at every record boundary, the others
    // whole. They are opened once and only read: the remount rebuilds
    // the cut node alone.
    let whole: Vec<Arc<FileStore>> = (0..NODES)
        .map(|i| open_cut(&dirs[i], &base.join(format!("whole-{i}")), at[i]))
        .collect();
    for keep in 0..=at[VICTIM] {
        let what = format!("node {VICTIM} cut to {keep} records");
        let cut = base.join(format!("cut-{keep}"));
        let mut nodes = whole.clone();
        nodes[VICTIM] = open_cut(&dirs[VICTIM], &cut, keep);
        let store = volume(nodes.iter().map(|nd| nd.clone() as _).collect(), &clock);
        assert_eq!(store.epoch(), last_epoch, "{what}");
        let image = check_remount(&nodes, store, &what);
        assert!(image == post, "{what}: not the whole sync");
        drop(nodes);
        std::fs::remove_dir_all(&cut).unwrap();
    }
    for (i, node) in whole.iter().enumerate() {
        if i != VICTIM {
            assert_eq!(node.stats().journal_records, 0, "node {i} was written");
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
