//! The parallel I/O engine figures (PR 5), summarized to
//! `BENCH_5.json`.
//!
//! PRs 3–4 removed lock contention from the storage and authorization
//! paths, but block I/O still executed synchronously on the caller's
//! thread: one client streaming a large file used exactly one shard at
//! a time. This bench pins the three layers of the fix:
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
//! * **Vectored batching** — a W-block vectored write through
//!   `FileStore` costs exactly `ceil(W / JOURNAL_BATCH_RECORDS)`
//!   journal append syscalls, and a vectored contiguous read through
//!   `TimedStore` charges exactly one seek + rotation for the whole
//!   run ([`DiskModel::run_cost`]) — identical to the looped charge
//!   for the same order, and far below the scattered equivalent
//!   (virtual-time seek savings asserted).
//! * **Readahead accounting** — `CachedStore::with_readahead` on a
//!   sequential scan prefetches (`readahead_blocks > 0`) and on a
//!   random walk does not (`== 0`), while the cache invariant
//!   `cache_hits + cache_misses == reads issued` holds exactly in
//!   both cases.
//!
//! Env knobs: `BENCH_QUICK=1` shrinks the streamed file (CI smoke);
//! `BENCH_JSON=path` writes the summary JSON.

use std::time::Instant;

use bench_harness::{bench_quick as quick, cores, record_json, write_json_summary};
use criterion::{criterion_group, criterion_main, Criterion};

use ffs::{Ffs, FsConfig, StoreBackend};
use netsim::SimClock;
use store::{
    BlockStore, CachedStore, DiskModel, FileStore, SimStore, TimedStore, BLOCK_SIZE,
    JOURNAL_BATCH_RECORDS,
};

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

fn unique_block(i: u64) -> Vec<u8> {
    let mut block = vec![0u8; BLOCK_SIZE];
    block[..8].copy_from_slice(&i.to_le_bytes());
    block[8..16].copy_from_slice(&i.wrapping_mul(0x9E37_79B9).to_le_bytes());
    block
}

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
        .flat_map(|i| unique_block(i).into_iter())
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
fn figure_worker_streaming(_c: &mut Criterion) {
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
    record_json("streaming_write_speedup_workers", write_speedup);
    record_json("streaming_read_speedup_workers", read_speedup);
    record_json("streaming_speedup_workers", stream_speedup);
    record_json("streaming_write_mb_per_sec_workers", mb / write_on);
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

/// Vectored batching figure, journal half: a W-block vectored write
/// through `FileStore` is sealed in exactly ceil(W/batch) journal
/// append syscalls.
fn figure_vectored_write_batching(_c: &mut Criterion) {
    println!("\n== PR 5 figure: journal syscalls for a vectored W-block write ==");
    let dir = store::temp_dir_for_tests("streaming-vectored-batch");
    let w = 64u64;
    let store = FileStore::open(&dir, w * 2).unwrap();
    let blocks: Vec<Vec<u8>> = (0..w).map(unique_block).collect();
    let writes: Vec<(u64, &[u8])> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u64, b.as_slice()))
        .collect();
    store.write_blocks(&writes);
    let stats = store.stats();
    let ceil = w.div_ceil(JOURNAL_BATCH_RECORDS as u64);
    println!(
        "  {w}-block vectored write: {} journal batches (bound: {ceil}), {} records sealed",
        stats.journal_batches, stats.batched_records
    );
    assert_eq!(
        stats.journal_batches, ceil,
        "a W-block vectored write costs exactly ceil(W/{JOURNAL_BATCH_RECORDS}) journal syscalls"
    );
    assert_eq!(stats.batched_records, w, "the tail batch is sealed too");
    assert_eq!(stats.vectored_writes, 1);
    record_json(
        "vectored_write_journal_batches_64",
        stats.journal_batches as f64,
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Vectored batching figure, virtual-time half: a contiguous vectored
/// read charges the run model exactly (and the looped path charges the
/// same for the same order — the figures are unchanged); a scattered
/// read of equal size pays a seek per jump.
fn figure_vectored_seek_savings(_c: &mut Criterion) {
    println!("\n== PR 5 figure: virtual-time seek savings of contiguous vectored runs ==");
    let n = 64usize;
    let model = DiskModel::quantum_fireball_ct10();

    let run: Vec<u64> = (0..n as u64).collect();
    let clock = SimClock::new();
    let vectored = TimedStore::new(SimStore::untimed(256), &clock, model);
    vectored.read_blocks(&run);
    let vectored_contiguous = clock.now();
    assert_eq!(
        vectored_contiguous,
        model.run_cost(n),
        "a contiguous vectored run charges one seek + rotation plus per-block transfer"
    );

    let clock = SimClock::new();
    let looped = TimedStore::new(SimStore::untimed(256), &clock, model);
    for &idx in &run {
        looped.read_block(idx);
    }
    assert_eq!(
        clock.now(),
        vectored_contiguous,
        "looped and vectored charging agree for the same access order"
    );

    // The same extent scattered: every jump pays seek + rotation.
    let scattered: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 256).collect();
    let clock = SimClock::new();
    let scattered_store = TimedStore::new(SimStore::untimed(256), &clock, model);
    scattered_store.read_blocks(&scattered);
    let scattered_time = clock.now();
    let saved = scattered_time.saturating_sub(vectored_contiguous);
    println!(
        "  {n}-block read: contiguous {vectored_contiguous:?} vs scattered {scattered_time:?} \
         = {saved:?} of seek time saved by streaming in order"
    );
    assert!(
        scattered_time > vectored_contiguous * 5,
        "scattered access must pay per-jump seeks: {scattered_time:?} vs {vectored_contiguous:?}"
    );
    record_json("vectored_seek_saved_ms_64", saved.as_secs_f64() * 1e3);
}

/// Readahead figure: exact hit/miss accounting with prefetch traffic
/// on a sequential scan and none on a random walk.
fn figure_readahead_accounting(_c: &mut Criterion) {
    println!("\n== PR 5 figure: sequential readahead accounting ==");
    let blocks = 512u64;

    let populate = |inner: &SimStore| {
        for i in 0..blocks {
            inner.write_block(i, &unique_block(i));
        }
    };

    // Sequential scan: the stride detector prefetches the window.
    let inner = SimStore::untimed(blocks);
    populate(&inner);
    let store = CachedStore::with_readahead(inner, blocks as usize, 8);
    let mut issued = 0u64;
    for i in 0..blocks {
        assert_eq!(store.read_block(i), unique_block(i));
        issued += 1;
    }
    let seq = store.stats();
    println!(
        "  sequential scan of {blocks}: {} hits / {} misses, {} blocks prefetched",
        seq.cache_hits, seq.cache_misses, seq.readahead_blocks
    );
    assert_eq!(
        seq.cache_hits + seq.cache_misses,
        issued,
        "readahead never distorts the hit/miss accounting"
    );
    assert!(
        seq.readahead_blocks > 0,
        "a sequential scan must prefetch: {seq:?}"
    );
    assert!(
        seq.cache_hits > seq.cache_misses,
        "most of a sequential scan is served from prefetched blocks"
    );

    // Random walk: the stride never forms, nothing is prefetched.
    let inner = SimStore::untimed(blocks);
    populate(&inner);
    let store = CachedStore::with_readahead(inner, blocks as usize, 8);
    let mut x = 0xDEADBEEFu64;
    let mut issued = 0u64;
    for _ in 0..blocks {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::hint::black_box(store.read_block(x % blocks));
        issued += 1;
    }
    let rand = store.stats();
    println!(
        "  random walk of {blocks}:     {} hits / {} misses, {} blocks prefetched",
        rand.cache_hits, rand.cache_misses, rand.readahead_blocks
    );
    assert_eq!(rand.readahead_blocks, 0, "random access never prefetches");
    assert_eq!(rand.cache_hits + rand.cache_misses, issued);

    record_json("readahead_blocks_seq_512", seq.readahead_blocks as f64);
    record_json(
        "readahead_seq_hit_ratio",
        seq.cache_hits as f64 / (seq.cache_hits + seq.cache_misses) as f64,
    );
    write_json_summary();
}

criterion_group!(
    streaming,
    figure_worker_streaming,
    figure_vectored_write_batching,
    figure_vectored_seek_savings,
    figure_readahead_accounting
);
criterion_main!(streaming);
