//! The parallel I/O engine figure (PR 5).
//!
//! PRs 3–4 removed lock contention from the storage and authorization
//! paths, but block I/O still executed synchronously on the caller's
//! thread: one client streaming a large file used exactly one shard at
//! a time. This bench pins the fix end to end (its vectored-batching
//! and readahead-accounting halves are unit tests in `store::file`,
//! `store::timed` and `store::cached`):
//!
//! * **Worker streaming** — single-client large-file streaming through
//!   the full `ffs` file path over `Sharded{FileJournal, 4}`, workers
//!   on vs off. The pipelined write path gathers each 512 KB chunk
//!   into one vectored call that fans out one job per shard, so the
//!   journal's per-record checksum, copy and append run on all four
//!   workers concurrently: the write phase must be **≥ 2× faster**
//!   with workers on a ≥ 4-core host (skipped below that, always
//!   recorded). The figure was set when the record checksum was a
//!   SHA-256 (~45 µs a block); PR 14 made it `checksum64` (< 1 µs),
//!   so a 4-core run of this assertion is what decides whether the
//!   workers still earn their place (ROADMAP).
//!
//! Env knob: `BENCH_QUICK=1` shrinks the streamed file (CI smoke).

use std::time::Instant;

use bench_harness::{bench_quick as quick, cores, unique_block};

use ffs::{Ffs, FsConfig, StoreBackend};
use netsim::SimClock;
use store::BLOCK_SIZE;

/// Streamed file size in blocks (whole file = this × 8 KB).
fn file_blocks() -> u64 {
    if quick() {
        1024 // 8 MB
    } else {
        2048 // 16 MB
    }
}

/// Chunk gathered per `fs.write`/`fs.read` call: 64 blocks = 512 KB,
/// i.e. 16 blocks per shard job on a 4-way stripe.
const CHUNK_BLOCKS: u64 = 64;

const SHARDS: u32 = 4;

/// One streaming round over a fresh volume: chunked sequential write
/// of the whole file, a flush (untimed — fsync cost is the same with
/// or without workers), then a chunked sequential read-back. Returns
/// (write seconds, read seconds, store stats).
fn stream_round(workers: bool, round: usize) -> (f64, f64, ffs::StoreStats) {
    let dir = store::temp_dir_for_tests(&format!("streaming-{workers}-{round}"));
    let backend = StoreBackend::Sharded {
        shards: SHARDS,
        workers,
        inner: Box::new(StoreBackend::FileJournal { dir: dir.clone() }),
    };
    let clock = SimClock::new();
    let config = FsConfig {
        total_blocks: file_blocks() + 2048,
        inode_count: 64,
    };
    let fs = Ffs::format_backend(&backend, &clock, config);
    let ino = fs.create(fs.root(), "stream.dat", 0o644, 0, 0).unwrap();

    let chunk: Vec<u8> = (0..CHUNK_BLOCKS)
        .flat_map(|i| unique_block(i, 0).into_iter())
        .collect();
    let chunks = file_blocks() / CHUNK_BLOCKS;

    let start = Instant::now();
    for c in 0..chunks {
        fs.write(ino, c * chunk.len() as u64, &chunk).unwrap();
    }
    let write_secs = start.elapsed().as_secs_f64();

    fs.sync().unwrap(); // dirty maps applied; reads hit the data files

    let start = Instant::now();
    for c in 0..chunks {
        let got = fs.read(ino, c * chunk.len() as u64, chunk.len()).unwrap();
        assert_eq!(got.len(), chunk.len());
        std::hint::black_box(&got);
    }
    let read_secs = start.elapsed().as_secs_f64();
    // Data integrity spot check: first and last chunk round-trip.
    assert_eq!(fs.read(ino, 0, chunk.len()).unwrap(), chunk);
    let stats = fs.disk().stats();
    drop(fs);
    std::fs::remove_dir_all(&dir).ok();
    (write_secs, read_secs, stats)
}

const ROUNDS: usize = 3;

/// Worker-streaming figure: the tentpole assertion. Best-of-3 rounds
/// per configuration so one scheduler hiccup on a shared CI runner
/// cannot fail the ratio.
fn figure_worker_streaming() {
    println!("\n== PR 5 figure: single-client streaming over Sharded{{FileJournal,4}}, workers on/off ==");
    let mb = (file_blocks() * BLOCK_SIZE as u64) as f64 / (1024.0 * 1024.0);
    let mut best: Vec<(bool, f64, f64)> = Vec::new();
    for workers in [false, true] {
        let (mut write, mut read) = (f64::INFINITY, f64::INFINITY);
        for round in 0..ROUNDS {
            let (w, r, stats) = stream_round(workers, round);
            write = write.min(w);
            read = read.min(r);
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
        }
        println!(
            "  workers {}: write {:>8.1} MB/s, re-read {:>8.1} MB/s (best of {ROUNDS})",
            if workers { "on " } else { "off" },
            mb / write,
            mb / read,
        );
        best.push((workers, write, read));
    }
    let (_, write_off, read_off) = best[0];
    let (_, write_on, read_on) = best[1];
    let write_speedup = write_off / write_on;
    let read_speedup = read_off / read_on;
    let stream_speedup = (write_off + read_off) / (write_on + read_on);
    println!(
        "  worker speedup: write {write_speedup:.2}x, re-read {read_speedup:.2}x, streaming {stream_speedup:.2}x ({} core(s))",
        cores()
    );
    if cores() >= 4 {
        assert!(
            write_speedup >= 2.0,
            "4 per-shard workers must stream the journaled write path >= 2x faster \
             than the caller's thread alone, got {write_speedup:.2}x"
        );
    } else {
        println!(
            "  ({} core(s): >= 2x worker-streaming assertion skipped)",
            cores()
        );
    }
}

fn main() {
    figure_worker_streaming();
}
