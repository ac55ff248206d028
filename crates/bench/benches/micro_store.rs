//! The PR 3 hot-path figures of the block-store subsystem, asserted:
//! handle-based reads allocate no block, and a cached re-read beats the
//! uncached backend by ≥ 5× in virtual time. (The journal's one append
//! per call is a unit test in `store::file`; per-call store costs are
//! `discfs_bench --trace`'s `store.{read,write}_us_per_call`.)
//!
//! Env knob: `BENCH_QUICK=1` shrinks iteration counts (CI smoke).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench_harness::{bench_quick as quick, unique_block};

use netsim::SimClock;
use store::{BlockStore, CachedStore, DedupStore, FileStore, ShardedStore, SimStore};

/// Counts allocated bytes so the zero-copy read-path claim is
/// measured, not asserted by eye.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to the system allocator unchanged; the counter is
// a relaxed atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BLOCKS: u64 = 256;

fn sharded_sim(shards: usize, total: u64) -> ShardedStore {
    ShardedStore::new(
        (0..shards)
            .map(|_| {
                Arc::new(SimStore::untimed(total.div_ceil(shards as u64))) as Arc<dyn BlockStore>
            })
            .collect(),
        total,
    )
}

/// Ops/sec of a closure repeated `iters` times.
fn ops_per_sec(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Zero-copy figure: reads on handle-serving backends must allocate
/// no block. Before PR 3 every `read_block` built a fresh 8 KB `Vec`;
/// now it clones a refcount into the `Vec` of handles a read returns
/// (32 bytes a handle): at most 128 bytes for each layer it crosses.
fn figure_zero_copy_reads() {
    println!("\n== PR 3 figure: bytes allocated per hot-path read (was: 8192) ==");
    let reads = 1000u64;
    let cases: Vec<(&str, u64, Box<dyn BlockStore>)> = vec![
        ("sim-instant", 1, Box::new(SimStore::untimed(BLOCKS))),
        ("dedup", 1, Box::new(DedupStore::new(BLOCKS))),
        (
            "cached(sim) hits",
            1,
            Box::new(CachedStore::new(SimStore::untimed(BLOCKS), BLOCKS as usize)),
        ),
        ("sharded-4(sim)", 2, Box::new(sharded_sim(4, BLOCKS))),
    ];
    for (name, layers, store) in cases {
        for i in 0..BLOCKS {
            store.write_block(i, &unique_block(i % 16, 0));
        }
        // Touch once so caches are warm, then count.
        for i in 0..BLOCKS {
            std::hint::black_box(store.read_block(i));
        }
        let before = ALLOC_BYTES.load(Ordering::Relaxed);
        let mut x = 1u64;
        for _ in 0..reads {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(store.read_block(x % BLOCKS));
        }
        let per_read = (ALLOC_BYTES.load(Ordering::Relaxed) - before) / reads;
        println!("  {name:<18} {per_read:>4} bytes / read, {layers} layer(s)");
        assert!(
            per_read <= 128 * layers,
            "{name}: hot read path must not allocate a block"
        );
    }
}

/// Buffer-cache figure: re-reading a working set through `CachedStore`
/// vs. hitting the timing-model backend every time. Virtual time is
/// the deterministic axis (the cache absorbs the disk model's seek and
/// transfer charges entirely); wall-clock ops/sec are reported too.
fn figure_cached_reread() {
    println!("\n== PR 3 figure: cached re-read vs uncached backend reads ==");
    let passes = if quick() { 4u64 } else { 16 };

    // Virtual time, uncached: every read pays the disk model.
    let clock = SimClock::new();
    let uncached = SimStore::new(&clock, store::DiskModel::quantum_fireball_ct10(), BLOCKS);
    for i in 0..BLOCKS {
        uncached.write_block_meta(i, &unique_block(i, 0));
    }
    clock.reset();
    for _ in 0..passes {
        for i in 0..BLOCKS {
            std::hint::black_box(uncached.read_block(i));
        }
    }
    let uncached_virtual = clock.now();

    // Virtual time, cached: the first pass misses, the rest are free.
    let clock = SimClock::new();
    let cached = CachedStore::new(
        SimStore::new(&clock, store::DiskModel::quantum_fireball_ct10(), BLOCKS),
        BLOCKS as usize,
    );
    for i in 0..BLOCKS {
        cached.inner().write_block_meta(i, &unique_block(i, 0));
    }
    for i in 0..BLOCKS {
        std::hint::black_box(cached.read_block(i)); // warm (miss pass)
    }
    clock.reset();
    for _ in 0..passes {
        for i in 0..BLOCKS {
            std::hint::black_box(cached.read_block(i));
        }
    }
    let cached_virtual = clock.now();
    let speedup = if cached_virtual.is_zero() {
        f64::INFINITY
    } else {
        uncached_virtual.as_secs_f64() / cached_virtual.as_secs_f64()
    };
    println!(
        "  virtual time for {passes}x{BLOCKS} reads: uncached {uncached_virtual:?}, cached {cached_virtual:?} ({speedup:.1}x)"
    );
    assert!(
        speedup >= 5.0,
        "cached re-read must be >= 5x faster than uncached backend reads, got {speedup:.2}x"
    );

    // Wall clock on a persistent backend: FileStore pread vs cache hit.
    let dir = store::temp_dir_for_tests("bench-reread");
    let file = FileStore::open(&dir, BLOCKS).unwrap();
    for i in 0..BLOCKS {
        file.write_block(i, &unique_block(i, 0));
    }
    file.flush().unwrap(); // dirty map cleared: reads hit the data file
    let iters = if quick() { 20_000 } else { 200_000 };
    let mut x = 3u64;
    let uncached_ops = ops_per_sec(iters, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        std::hint::black_box(file.read_block(x % BLOCKS));
    });
    let cached_file = CachedStore::new(file, BLOCKS as usize);
    for i in 0..BLOCKS {
        std::hint::black_box(cached_file.read_block(i)); // warm
    }
    let cached_ops = ops_per_sec(iters, || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        std::hint::black_box(cached_file.read_block(x % BLOCKS));
    });
    println!(
        "  wall clock random reads: file-journal {uncached_ops:.0} ops/s, cached {cached_ops:.0} ops/s ({:.1}x)",
        cached_ops / uncached_ops
    );
    let stats = cached_file.stats();
    println!(
        "  cache accounting: {} hits / {} misses (hit ratio {:.3})",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_ratio()
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    figure_zero_copy_reads();
    figure_cached_reread();
}
