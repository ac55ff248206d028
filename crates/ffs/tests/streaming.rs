//! One client streams an 8 MiB file through the full `ffs` file path
//! over `Sharded{FileJournal, 4}`: each 512 KB `Ffs::write` reaches the
//! store as vectored calls (one store call per extent, split into one
//! subcall per shard), and the file reads back whole after a sync.
//!
//! No wall clock: the test counts calls and compares bytes, so it runs
//! in debug builds too.

use ffs::{Ffs, FsConfig, StoreBackend, BLOCK_SIZE};
use netsim::SimClock;

/// Streamed file size in blocks: 8 MiB.
const FILE_BLOCKS: u64 = 1024;

/// Chunk gathered per `fs.write`/`fs.read` call: 64 blocks = 512 KB,
/// i.e. 16 blocks per shard on a 4-way stripe.
const CHUNK_BLOCKS: u64 = 64;

#[test]
fn streamed_writes_reach_the_store_vectored_and_read_back_after_sync() {
    let dir = store::temp_dir_for_tests("streaming");
    let backend = StoreBackend::Sharded {
        shards: 4,
        workers: false,
        inner: Box::new(StoreBackend::FileJournal { dir: dir.clone() }),
    };
    let config = FsConfig {
        total_blocks: FILE_BLOCKS + 2048,
        inode_count: 64,
    };
    let fs = Ffs::format_backend(&backend, &SimClock::new(), config);
    let ino = fs.create(fs.root(), "stream.dat", 0o644, 0, 0).unwrap();

    let chunk: Vec<u8> = (0..CHUNK_BLOCKS as usize * BLOCK_SIZE)
        .map(|i| (i % 251) as u8)
        .collect();
    let chunks = FILE_BLOCKS / CHUNK_BLOCKS;
    for c in 0..chunks {
        fs.write(ino, c * chunk.len() as u64, &chunk).unwrap();
    }
    let stats = fs.disk().stats();
    assert!(
        stats.vectored_writes > 0,
        "the pipelined write path must issue vectored calls: {stats:?}"
    );

    fs.sync().unwrap(); // dirty maps applied; reads hit the data files
    for c in 0..chunks {
        let got = fs.read(ino, c * chunk.len() as u64, chunk.len()).unwrap();
        assert_eq!(got, chunk, "chunk {c} round-trips");
    }
    drop(fs);
    std::fs::remove_dir_all(&dir).ok();
}
