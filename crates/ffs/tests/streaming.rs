//! Per-shard worker threads, judged end to end on the wall clock
//! (release builds only).
//!
//! One client streams an 8 MiB file through the full `ffs` file path
//! over `Sharded{FileJournal, 4}`, workers on vs off. The pipelined
//! write path gathers each 512 KB chunk into one vectored call that fans
//! out one job per shard, so the journal's per-record checksum, copy and
//! append run on all four workers concurrently: the write phase must be
//! **≥ 2× faster** with workers on a ≥ 4-core host (skipped below that).
//! The figure was set when the record checksum was a SHA-256 (~45 µs a
//! block); PR 14 made it `checksum64` (< 1 µs), so a 4-core run of this
//! test decides whether the workers still earn their place (ROADMAP
//! item 10). Best of three rounds a side, so one scheduler hiccup on a
//! shared runner cannot set the ratio.

use std::time::Instant;

use ffs::{Ffs, FsConfig, StoreBackend, BLOCK_SIZE};
use netsim::SimClock;

/// Streamed file size in blocks: 8 MiB.
const FILE_BLOCKS: u64 = 1024;

/// Chunk gathered per `fs.write`/`fs.read` call: 64 blocks = 512 KB,
/// i.e. 16 blocks per shard job on a 4-way stripe.
const CHUNK_BLOCKS: u64 = 64;

const SHARDS: u32 = 4;

const ROUNDS: usize = 3;

/// One streaming round over a fresh volume: chunked sequential write
/// of the whole file, a flush (untimed — fsync cost is the same with
/// or without workers), then a chunked sequential read-back. Returns
/// the write seconds.
fn write_seconds(workers: bool, round: usize) -> f64 {
    let dir = store::temp_dir_for_tests(&format!("streaming-{workers}-{round}"));
    let backend = StoreBackend::Sharded {
        shards: SHARDS,
        workers,
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

    let start = Instant::now();
    for c in 0..chunks {
        fs.write(ino, c * chunk.len() as u64, &chunk).unwrap();
    }
    let write_secs = start.elapsed().as_secs_f64();

    fs.sync().unwrap(); // dirty maps applied; reads hit the data files
    for c in 0..chunks {
        let got = fs.read(ino, c * chunk.len() as u64, chunk.len()).unwrap();
        assert_eq!(got, chunk, "chunk {c} round-trips");
    }
    let stats = fs.disk().stats();
    if workers {
        assert!(
            stats.worker_jobs > 0,
            "worker-enabled streaming must dispatch shard jobs: {stats:?}"
        );
    } else {
        assert_eq!(stats.worker_jobs, 0);
    }
    assert!(
        stats.vectored_writes > 0,
        "the pipelined write path must issue vectored calls"
    );
    drop(fs);
    std::fs::remove_dir_all(&dir).ok();
    write_secs
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall clock: release only")]
fn shard_workers_stream_journaled_writes_twice_as_fast() {
    let best = |workers: bool| {
        (0..ROUNDS)
            .map(|round| write_seconds(workers, round))
            .fold(f64::INFINITY, f64::min)
    };
    let (off, on) = (best(false), best(true));
    let speedup = off / on;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("worker write speedup {speedup:.2}x ({cores} core(s))");
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "4 per-shard workers must stream the journaled write path >= 2x faster \
             than the caller's thread alone, got {speedup:.2}x"
        );
    }
}
