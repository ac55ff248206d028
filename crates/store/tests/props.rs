//! Property tests for the block-store subsystem: every backend must be
//! indistinguishable from a flat array of blocks, and the file
//! backend's journal must survive a crash before flush.

use std::collections::HashMap;
use std::sync::Arc;

use netsim::{LinkConfig, SimClock};
use proptest::prelude::*;
use store::{
    BlockStore, Bytes, CachedStore, EncryptedStore, FileStore, IoClass, RemoteOptions, RemoteStore,
    ReplicatedStore, ShardedStore, SimStore, StoreBackend, BLOCK_SIZE, JOURNAL_RECORD_LEN,
};

const BLOCKS: u64 = 32;

/// One simulated storage node: a `BlockServer` over `store` behind its
/// link, returned as the connected client.
fn local_node<S: BlockStore + Send + 'static>(store: S, clock: &SimClock) -> RemoteStore {
    RemoteStore::serve_local(
        store,
        clock,
        LinkConfig::instant(),
        RemoteOptions::default(),
    )
}

/// A 4-node, R-replica volume over in-memory node stores, plus
/// `spares` idle spares.
fn replicated_volume(clock: &SimClock, replicas: usize, spares: usize) -> ReplicatedStore {
    let node_bc = ReplicatedStore::node_block_count(BLOCKS, 4, replicas);
    ReplicatedStore::new(
        (0..4)
            .map(|_| local_node(SimStore::untimed(node_bc), clock))
            .collect(),
        (0..spares)
            .map(|_| local_node(SimStore::untimed(node_bc), clock))
            .collect(),
        BLOCKS,
        replicas,
    )
}

/// Expands a compact op description into a full block whose content is
/// determined by `seed`.
fn block_for(seed: u8) -> Vec<u8> {
    let mut block = vec![0u8; BLOCK_SIZE];
    if seed == 0 {
        return block; // all-zero block: a hole's contents
    }
    for (i, b) in block.iter_mut().enumerate() {
        *b = seed.wrapping_mul(31).wrapping_add((i % 251) as u8);
    }
    block
}

fn all_backends(tag: &str) -> Vec<(Box<dyn BlockStore>, Option<std::path::PathBuf>)> {
    let clock = SimClock::new();
    let dir = store::temp_dir_for_tests(tag);
    vec![
        (
            Box::new(SimStore::untimed(BLOCKS)) as Box<dyn BlockStore>,
            None,
        ),
        (
            Box::new(SimStore::new(
                &clock,
                store::DiskModel::quantum_fireball_ct10(),
                BLOCKS,
            )),
            None,
        ),
        (
            Box::new(FileStore::open(&dir.join("file"), BLOCKS).expect("temp store")),
            None,
        ),
        (
            Box::new(EncryptedStore::new(
                FileStore::open(&dir.join("enc"), BLOCKS).expect("temp store"),
                &[0x44; 32],
            )),
            None,
        ),
        (
            Box::new(EncryptedStore::new(SimStore::untimed(BLOCKS), &[0x43; 32])),
            None,
        ),
        // The wrappers: a small cache (evictions exercised), a sharded
        // stripe, and a cache over shards.
        (
            Box::new(CachedStore::new(SimStore::untimed(BLOCKS), 8)),
            None,
        ),
        (
            Box::new(ShardedStore::new(
                (0..4)
                    .map(|_| Arc::new(SimStore::untimed(BLOCKS.div_ceil(4))) as Arc<dyn BlockStore>)
                    .collect(),
                BLOCKS,
            )),
            None,
        ),
        (
            Box::new(CachedStore::new(
                ShardedStore::new(
                    (0..3)
                        .map(|_| {
                            Arc::new(SimStore::untimed(BLOCKS.div_ceil(3))) as Arc<dyn BlockStore>
                        })
                        .collect(),
                    BLOCKS,
                ),
                6,
            )),
            None,
        ),
        // The parallel I/O engine compositions: worker threads behind
        // the stripe, a readahead cache, and the full
        // Cached{Sharded{FileJournal}} stack with workers on.
        (
            Box::new(ShardedStore::with_workers(
                (0..4)
                    .map(|_| Arc::new(SimStore::untimed(BLOCKS.div_ceil(4))) as Arc<dyn BlockStore>)
                    .collect(),
                BLOCKS,
            )),
            None,
        ),
        (
            Box::new(CachedStore::with_readahead(SimStore::untimed(BLOCKS), 8, 4)),
            None,
        ),
        (
            Box::new(
                StoreBackend::Cached {
                    capacity: 6,
                    inner: Box::new(StoreBackend::Sharded {
                        shards: 4,
                        workers: true,
                        inner: Box::new(StoreBackend::FileJournal {
                            dir: dir.join("cached-sharded-workers"),
                        }),
                    }),
                }
                .build(&clock, BLOCKS),
            ),
            None,
        ),
        // The distributed volume tier: a single network node, the full
        // Cached{Sharded{one-node Replicated}} nest, and a 4-node
        // replicated volume.
        (
            Box::new(local_node(SimStore::untimed(BLOCKS), &clock)),
            None,
        ),
        (
            Box::new(
                StoreBackend::Cached {
                    capacity: 6,
                    inner: Box::new(StoreBackend::Sharded {
                        shards: 2,
                        workers: false,
                        inner: Box::new(StoreBackend::Replicated {
                            nodes: 1,
                            replicas: 1,
                            spares: 0,
                            ethernet: false,
                            opts: RemoteOptions::default(),
                            inner: Box::new(StoreBackend::SimInstant),
                        }),
                    }),
                }
                .build(&clock, BLOCKS),
            ),
            None,
        ),
        (Box::new(replicated_volume(&clock, 2, 0)), Some(dir)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any write sequence reads back exactly like a flat block array,
    /// on every backend, through both the charged and the meta paths.
    #[test]
    fn roundtrip_matches_model_on_all_backends(
        ops in proptest::collection::vec((0u64..BLOCKS, 0u8..16, any::<bool>()), 1..40)
    ) {
        for (store, dir) in all_backends("props-roundtrip") {
            let mut model: HashMap<u64, u8> = HashMap::new();
            for (idx, seed, meta) in &ops {
                let data = block_for(*seed);
                if *meta {
                    store.write_block_meta(*idx, &data);
                } else {
                    store.write_block(*idx, &data);
                }
                model.insert(*idx, *seed);
            }
            for idx in 0..BLOCKS {
                let expected = block_for(model.get(&idx).copied().unwrap_or(0));
                prop_assert_eq!(&store.read_block(idx), &expected, "backend {}", store.label());
                prop_assert_eq!(
                    &store.read_block_meta(idx),
                    &expected,
                    "backend {} meta",
                    store.label()
                );
            }
            store.flush().unwrap();
            if let Some(dir) = dir {
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    /// Crash before flush: every journaled write survives reopen; the
    /// data file alone (journal wiped) only holds flushed state.
    #[test]
    fn journal_replay_after_crash(
        flushed in proptest::collection::vec((0u64..BLOCKS, 1u8..16), 0..12),
        unflushed in proptest::collection::vec((0u64..BLOCKS, 1u8..16), 1..12),
    ) {
        let dir = store::temp_dir_for_tests("props-journal");
        let mut model: HashMap<u64, u8> = HashMap::new();
        {
            let store = FileStore::open(&dir, BLOCKS).unwrap();
            for (idx, seed) in &flushed {
                store.write_block(*idx, &block_for(*seed));
                model.insert(*idx, *seed);
            }
            store.flush().unwrap();
            for (idx, seed) in &unflushed {
                store.write_block(*idx, &block_for(*seed));
                model.insert(*idx, *seed);
            }
            store.crash(); // drop-before-flush
        }
        let store = FileStore::open(&dir, BLOCKS).unwrap();
        for idx in 0..BLOCKS {
            let expected = block_for(model.get(&idx).copied().unwrap_or(0));
            prop_assert_eq!(
                &store.read_block(idx),
                &expected,
                "block {} after replay",
                idx
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal truncated at an arbitrary byte offset replays exactly
    /// the longest intact prefix of acknowledged writes — never torn
    /// or misplaced data.
    #[test]
    fn journal_prefix_replay_under_arbitrary_truncation(
        writes in proptest::collection::vec((0u64..BLOCKS, 1u8..16), 1..16),
        cut_percent in 0u8..101,
    ) {
        let dir = store::temp_dir_for_tests("props-truncate");
        {
            let store = FileStore::open(&dir, BLOCKS).unwrap();
            for (idx, seed) in &writes {
                store.write_block(*idx, &block_for(*seed));
            }
            store.crash();
        }
        let journal_path = dir.join("journal.wal");
        let len = std::fs::metadata(&journal_path).unwrap().len();
        let cut = len * cut_percent as u64 / 100;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&journal_path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        // One record per write, in order: exactly the complete records
        // below the cut replay.
        let kept = (cut / JOURNAL_RECORD_LEN as u64) as usize;
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (idx, seed) in writes.iter().take(kept) {
            model.insert(*idx, *seed);
        }
        let store = FileStore::open(&dir, BLOCKS).unwrap();
        for idx in 0..BLOCKS {
            let expected = block_for(model.get(&idx).copied().unwrap_or(0));
            prop_assert_eq!(
                &store.read_block(idx),
                &expected,
                "block {} after cut {} ({} records kept)",
                idx,
                cut,
                kept
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The backend selector builds stores that satisfy the same
    /// roundtrip contract (spot check with one op sequence).
    #[test]
    fn backend_selector_roundtrips(
        idx in 0u64..BLOCKS,
        seed in 1u8..16,
    ) {
        let clock = SimClock::new();
        let dir = store::temp_dir_for_tests("props-selector");
        let specs = [
            StoreBackend::SimTimed,
            StoreBackend::SimInstant,
            StoreBackend::FileJournal { dir: dir.join("file") },
            StoreBackend::EncryptedJournal { dir: dir.join("enc"), key: [10; 32] },
            StoreBackend::Cached {
                capacity: 8,
                inner: Box::new(StoreBackend::FileJournal { dir: dir.join("cached") }),
            },
            StoreBackend::Sharded {
                shards: 4,
                workers: false,
                inner: Box::new(StoreBackend::FileJournal { dir: dir.join("sharded") }),
            },
            StoreBackend::Sharded {
                shards: 4,
                workers: true,
                inner: Box::new(StoreBackend::FileJournal { dir: dir.join("sharded-w") }),
            },
            StoreBackend::CachedReadahead {
                capacity: 8,
                window: 4,
                inner: Box::new(StoreBackend::SimInstant),
            },
            StoreBackend::Replicated {
                nodes: 1,
                replicas: 1,
                spares: 0,
                ethernet: false,
                opts: RemoteOptions::default(),
                inner: Box::new(StoreBackend::FileJournal { dir: dir.join("remote") }),
            },
            StoreBackend::Replicated {
                nodes: 4,
                replicas: 2,
                spares: 0,
                ethernet: false,
                opts: RemoteOptions::default(),
                inner: Box::new(StoreBackend::FileJournal { dir: dir.join("replicated") }),
            },
        ];
        for spec in &specs {
            let store = spec.build(&clock, BLOCKS);
            let data = block_for(seed);
            store.write_block(idx, &data);
            prop_assert_eq!(&store.read_block(idx), &data, "{}", spec.label());
            store.flush().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The one I/O path's contract: a run of blocks moves the same
    /// bytes and is counted alike as one many-block call, as one-block
    /// calls and through the ten provided names — in either class, on
    /// every backend of the wrapper matrix. Duplicate indices resolve
    /// like the loop (last pair wins). `reads` is compared over a cold
    /// read of the device and `writes` after a flush: behind a warm
    /// cache the counters depend on residency, which a many-block call
    /// (every lookup before any insert) legitimately changes. The
    /// device is read in descending order: ascending one-block data
    /// reads are what the readahead nest prefetches on, by design.
    #[test]
    fn vectored_ops_match_per_block_loop(
        ops in proptest::collection::vec((0u64..BLOCKS, 0u8..16), 1..40),
        meta in any::<bool>(),
    ) {
        let class = if meta { IoClass::Meta } else { IoClass::Data };
        let model = SimStore::untimed(BLOCKS);
        for (idx, seed) in &ops {
            model.write_block(*idx, &block_for(*seed));
        }
        let blocks: Vec<Vec<u8>> = ops.iter().map(|(_, seed)| block_for(*seed)).collect();
        let writes: Vec<(u64, &[u8])> = ops
            .iter()
            .zip(&blocks)
            .map(|((idx, _), data)| (*idx, data.as_slice()))
            .collect();
        let idxs: Vec<u64> = (0..BLOCKS).rev().collect();

        // One many-block call each way.
        let many_read = |s: &dyn BlockStore| s.read(class, &idxs);
        let many_write = |s: &dyn BlockStore| s.write(class, &writes);
        // The same blocks, one call a block.
        let single_read = |s: &dyn BlockStore| -> Vec<Bytes> {
            idxs.iter().map(|&i| s.read(class, &[i]).remove(0)).collect()
        };
        let single_write = |s: &dyn BlockStore| writes.iter().for_each(|w| s.write(class, &[*w]));
        // The ten names in turn (many-block calls are the first shape's).
        let named_read = |s: &dyn BlockStore| -> Vec<Bytes> {
            let into = |read: &dyn Fn(&mut [u8])| {
                let mut buf = vec![0u8; BLOCK_SIZE];
                read(&mut buf);
                Bytes::from(buf)
            };
            let one = |i: u64| match (class, i % 3) {
                (IoClass::Data, 0) => s.read_block(i),
                (IoClass::Data, 1) => s.read_blocks(&[i]).remove(0),
                (IoClass::Meta, 0 | 1) => s.read_block_meta(i),
                (IoClass::Data, _) => into(&|buf| s.read_block_into(i, buf)),
                (IoClass::Meta, _) => into(&|buf| s.read_block_meta_into(i, buf)),
            };
            idxs.iter().copied().map(one).collect()
        };
        let named_write = |s: &dyn BlockStore| {
            for (nth, &(idx, data)) in writes.iter().enumerate() {
                match (class, nth % 2) {
                    (IoClass::Data, 0) => s.write_block(idx, data),
                    (IoClass::Data, _) => s.write_blocks(&[(idx, data)]),
                    (IoClass::Meta, 0) => s.write_block_meta(idx, data),
                    (IoClass::Meta, _) => s.write_blocks_meta(&[(idx, data)]),
                }
            }
        };
        type Read<'a> = &'a dyn Fn(&dyn BlockStore) -> Vec<Bytes>;
        type Write<'a> = &'a dyn Fn(&dyn BlockStore);
        let shapes: [(&str, Read, Write); 3] = [
            ("one many-block call", &many_read, &many_write),
            ("one-block calls", &single_read, &single_write),
            ("the ten names", &named_read, &named_write),
        ];

        // counted[nest] = (reads, writes) of the first shape.
        let mut counted: Vec<(u64, u64)> = Vec::new();
        for (shape, read, write) in shapes {
            for (nest, (store, dir)) in all_backends("props-vectored").into_iter().enumerate() {
                let at = format!("backend {} ({nest}), {shape}", store.label());
                prop_assert!(read(&*store).iter().all(|b| b == &store::zero_block()), "{}", at);
                let cold = store.stats().reads;
                write(&*store);
                store.flush().unwrap();
                let counts = (cold, store.stats().writes);
                if counted.len() == nest {
                    counted.push(counts);
                }
                prop_assert_eq!(counts, counted[nest], "{}: (reads, writes)", at);
                for (block, &idx) in read(&*store).iter().zip(&idxs) {
                    prop_assert_eq!(block, &model.read_block(idx), "{}, block {}", at, idx);
                }
                if let Some(dir) = dir {
                    std::fs::remove_dir_all(&dir).ok();
                }
            }
        }
    }

    /// Equivalence: any workload over `CachedStore(X)` or
    /// `ShardedStore([X; N])` reads back byte-identical to the same
    /// workload over plain `X` — for every block, through both paths,
    /// after a flush.
    #[test]
    fn wrappers_are_byte_identical_to_plain_store(
        ops in proptest::collection::vec((0u64..BLOCKS, 0u8..16, any::<bool>()), 1..48)
    ) {
        let plain = SimStore::untimed(BLOCKS);
        // A deliberately tiny cache so evictions and write-backs fire.
        let cached = CachedStore::new(SimStore::untimed(BLOCKS), 4);
        let sharded = ShardedStore::new(
            (0..5)
                .map(|_| Arc::new(SimStore::untimed(BLOCKS.div_ceil(5))) as Arc<dyn BlockStore>)
                .collect(),
            BLOCKS,
        );
        let stores: [&dyn BlockStore; 3] = [&plain, &cached, &sharded];
        for (idx, seed, meta) in &ops {
            for store in stores {
                if *meta {
                    store.write_block_meta(*idx, &block_for(*seed));
                } else {
                    store.write_block(*idx, &block_for(*seed));
                }
            }
        }
        for store in &stores[1..] {
            store.flush().unwrap();
        }
        for idx in 0..BLOCKS {
            let expected = plain.read_block(idx);
            prop_assert_eq!(&cached.read_block(idx), &expected, "cached, block {}", idx);
            prop_assert_eq!(&sharded.read_block(idx), &expected, "sharded, block {}", idx);
            prop_assert_eq!(
                &cached.read_block_meta(idx), &expected, "cached meta, block {}", idx
            );
            prop_assert_eq!(
                &sharded.read_block_meta(idx), &expected, "sharded meta, block {}", idx
            );
        }
    }

    /// Equivalence on persistent backends across a full
    /// sync/drop/mount cycle: wrapping FileJournal in a cache, in
    /// shards, or in both must not change what comes back after a
    /// process restart.
    #[test]
    fn wrapped_persistent_stores_survive_reopen_byte_identical(
        ops in proptest::collection::vec((0u64..BLOCKS, 0u8..16), 1..24)
    ) {
        let clock = SimClock::new();
        let dir = store::temp_dir_for_tests("props-wrap-reopen");
        let specs = [
            ("plain", StoreBackend::FileJournal { dir: dir.join("plain") }),
            (
                "cached",
                StoreBackend::Cached {
                    capacity: 6,
                    inner: Box::new(StoreBackend::FileJournal { dir: dir.join("cached") }),
                },
            ),
            (
                "sharded",
                StoreBackend::Sharded {
                    shards: 4,
                    workers: false,
                    inner: Box::new(StoreBackend::FileJournal { dir: dir.join("sharded") }),
                },
            ),
            (
                "sharded-workers",
                StoreBackend::Sharded {
                    shards: 4,
                    workers: true,
                    inner: Box::new(StoreBackend::FileJournal { dir: dir.join("sharded-w") }),
                },
            ),
            (
                "cached-sharded",
                StoreBackend::Cached {
                    capacity: 6,
                    inner: Box::new(StoreBackend::Sharded {
                        shards: 3,
                        workers: false,
                        inner: Box::new(StoreBackend::FileJournal { dir: dir.join("both") }),
                    }),
                },
            ),
            (
                "cached-sharded-workers",
                StoreBackend::Cached {
                    capacity: 6,
                    inner: Box::new(StoreBackend::Sharded {
                        shards: 3,
                        workers: true,
                        inner: Box::new(StoreBackend::FileJournal { dir: dir.join("both-w") }),
                    }),
                },
            ),
        ];
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (label, spec) in &specs {
            model.clear();
            {
                let store = spec.build(&clock, BLOCKS);
                for (idx, seed) in &ops {
                    store.write_block(*idx, &block_for(*seed));
                    model.insert(*idx, *seed);
                }
                store.flush().unwrap();
                // Dropped here: the second life reads only from disk.
            }
            let store = spec.build(&clock, BLOCKS);
            for idx in 0..BLOCKS {
                let expected = block_for(model.get(&idx).copied().unwrap_or(0));
                prop_assert_eq!(
                    &store.read_block(idx), &expected, "{}, block {} after reopen", label, idx
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A torn vectored write through the worker pool must be
/// indistinguishable from the sequential (workers-off) path at the
/// journal level: each shard's journal holds the same records in the
/// same order, and truncating one shard's journal replays exactly a
/// record prefix of that shard's write order.
#[test]
fn torn_vectored_write_through_workers_replays_to_a_record_prefix() {
    let clock = SimClock::new();
    let base = store::temp_dir_for_tests("props-vectored-torn");
    const SHARDS: u64 = 4;
    // A scattered burst touching every shard, no duplicate indices.
    let spec: Vec<(u64, u8)> = (0..20u64)
        .map(|i| ((i * 7) % BLOCKS, (i % 13) as u8 + 1))
        .collect();
    for (name, workers) in [("workers", true), ("plain", false)] {
        let backend = StoreBackend::Sharded {
            shards: SHARDS as u32,
            workers,
            inner: Box::new(StoreBackend::FileJournal {
                dir: base.join(name),
            }),
        };
        let store = backend.build(&clock, BLOCKS);
        let blocks: Vec<Vec<u8>> = spec.iter().map(|(_, seed)| block_for(*seed)).collect();
        let writes: Vec<(u64, &[u8])> = spec
            .iter()
            .zip(&blocks)
            .map(|((idx, _), data)| (*idx, data.as_slice()))
            .collect();
        store.write_blocks(&writes);
        // Crash: drop without flush. The vectored write returned, so
        // every record is already on its shard's journal.
        drop(store);
    }
    // The journals are byte-identical with workers on or off: the
    // worker pool changes who executes the I/O, not what is journaled.
    for shard in 0..SHARDS {
        let with = std::fs::read(base.join(format!("workers/shard-{shard}/journal.wal"))).unwrap();
        let without = std::fs::read(base.join(format!("plain/shard-{shard}/journal.wal"))).unwrap();
        assert_eq!(
            with, without,
            "shard {shard}: worker journal differs from the sequential path"
        );
        assert!(!with.is_empty(), "shard {shard} saw part of the burst");
    }
    // Tear one worker-written shard journal at every record boundary
    // (and mid-record): the reopened shard holds exactly the prefix of
    // its per-shard write order.
    let victim = 1u64;
    let shard_writes: Vec<(u64, u8)> = spec
        .iter()
        .filter(|(idx, _)| idx % SHARDS == victim)
        .map(|(idx, seed)| (idx / SHARDS, *seed))
        .collect();
    let per_shard = BLOCKS.div_ceil(SHARDS);
    let master = base.join(format!("workers/shard-{victim}"));
    let journal_len = std::fs::metadata(master.join("journal.wal")).unwrap().len();
    assert_eq!(
        journal_len,
        (shard_writes.len() * JOURNAL_RECORD_LEN) as u64,
        "one journal record per block routed to the shard"
    );
    for kept in 0..=shard_writes.len() {
        for extra in [0u64, 17] {
            let cut = (kept * JOURNAL_RECORD_LEN) as u64 + extra;
            if cut > journal_len {
                continue;
            }
            let scratch = base.join(format!("cut-{cut}"));
            std::fs::create_dir_all(&scratch).unwrap();
            for file in ["blocks.dat", "journal.wal"] {
                std::fs::copy(master.join(file), scratch.join(file)).unwrap();
            }
            std::fs::OpenOptions::new()
                .write(true)
                .open(scratch.join("journal.wal"))
                .unwrap()
                .set_len(cut)
                .unwrap();
            let store = FileStore::open(&scratch, per_shard).unwrap();
            let mut model: HashMap<u64, u8> = HashMap::new();
            for (idx, seed) in shard_writes.iter().take(kept) {
                model.insert(*idx, *seed);
            }
            for idx in 0..per_shard {
                let expected = block_for(model.get(&idx).copied().unwrap_or(0));
                assert_eq!(
                    store.read_block(idx),
                    expected,
                    "cut {cut}: shard block {idx} must hold the {kept}-record prefix"
                );
            }
            drop(store);
            std::fs::remove_dir_all(&scratch).ok();
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn cache_stats_account_for_every_read() {
    let store = CachedStore::new(SimStore::untimed(BLOCKS), BLOCKS as usize);
    for idx in 0..BLOCKS {
        store.write_block(idx, &block_for((idx % 7) as u8 + 1));
    }
    let mut issued = 0u64;
    for round in 0..3u64 {
        for idx in 0..BLOCKS {
            let _ = store.read_block((idx + round) % BLOCKS);
            issued += 1;
        }
    }
    let stats = store.stats();
    // Every read is either a hit or a miss — nothing double-counted,
    // nothing lost — and every miss (there are none here: the writes
    // populated the cache) is exactly one inner read.
    assert_eq!(stats.cache_hits + stats.cache_misses, issued);
    assert_eq!(stats.reads, stats.cache_misses, "inner reads == misses");
    assert_eq!(stats.cache_misses, 0, "write-populated cache never misses");
    assert_eq!(stats.cache_hit_ratio(), 1.0);

    // A cold cache over a populated inner store: first touch misses,
    // re-reads hit.
    store.flush().unwrap();
    let cold = CachedStore::new(store, BLOCKS as usize);
    for _ in 0..2 {
        for idx in 0..BLOCKS {
            let _ = cold.read_block(idx);
        }
    }
    let stats = cold.stats();
    assert_eq!(stats.cache_misses, BLOCKS, "one miss per first touch");
    assert!(stats.cache_hits >= BLOCKS, "re-reads are hits");
}

/// The node-death matrix: on a 4-node R=2 volume with one spare, kill
/// each node in turn — every read still serves (zero failed reads),
/// the dead node's replica set is rebuilt onto the spare, and the
/// rebuilt volume survives the death of a *second* node (which proves
/// the rebuild actually restored R-way redundancy, not just a live
/// node count).
#[test]
fn node_death_matrix_survives_any_single_node() {
    for victim in 0..4usize {
        let clock = SimClock::new();
        let store = replicated_volume(&clock, 2, 1);
        for idx in 0..BLOCKS {
            store.write_block(idx, &block_for((idx % 11) as u8 + 1));
        }
        store.flush().unwrap();
        store.kill_node(victim);
        for idx in 0..BLOCKS {
            assert_eq!(
                store.read_block(idx),
                block_for((idx % 11) as u8 + 1),
                "victim {victim}: block {idx} must serve with a dead node"
            );
        }
        let stats = store.stats();
        assert_eq!(stats.rebuilds, 1, "victim {victim}: spare swapped in");
        assert!(
            stats.replica_reads >= 1,
            "victim {victim}: the detecting read failed over"
        );
        assert_eq!(
            store.live_nodes(),
            4,
            "victim {victim}: back to full strength"
        );
        assert_eq!(store.spare_count(), 0);
        // Writes keep working against the rebuilt fleet.
        store.write_block(5, &block_for(99));
        store.flush().unwrap();
        // Second death, no spare left: the volume serves degraded from
        // the surviving replicas — including blocks whose only live
        // copy now sits on the rebuilt ex-spare.
        store.kill_node((victim + 1) % 4);
        for idx in 0..BLOCKS {
            let seed = if idx == 5 { 99 } else { (idx % 11) as u8 + 1 };
            assert_eq!(
                store.read_block(idx),
                block_for(seed),
                "victim {victim}: block {idx} must serve after a second death"
            );
        }
        assert_eq!(store.live_nodes(), 3);
    }
}

/// The torn-replicated-write matrix: three epochs are committed to a
/// 4-node R=2 volume on journaled node stores, then one node's journal
/// is truncated at every record boundary (and mid-record) — a crash
/// torn at an arbitrary point of that node's durability stream.
/// Remounting must always recover the volume to ONE consistent epoch:
/// the maximum committed one, never a mix — the victim is rebuilt from
/// the fresh replicas no matter where its journal tore.
#[test]
fn torn_replicated_write_replays_to_a_single_epoch() {
    const NODES: usize = 4;
    const REPLICAS: usize = 2;
    const EPOCHS: u64 = 3;
    let base = store::temp_dir_for_tests("props-replicated-torn");
    let node_bc = ReplicatedStore::node_block_count(BLOCKS, NODES, REPLICAS);
    let seed_at = |epoch: u64, idx: u64| ((epoch * 40 + idx) % 250) as u8 + 1;
    let open_volume = |dir: &std::path::Path, clock: &SimClock| {
        ReplicatedStore::new(
            (0..NODES)
                .map(|i| {
                    local_node(
                        FileStore::open(&dir.join(format!("node-{i}")), node_bc).unwrap(),
                        clock,
                    )
                })
                .collect(),
            Vec::new(),
            BLOCKS,
            REPLICAS,
        )
    };
    {
        let clock = SimClock::new();
        let store = open_volume(&base.join("master"), &clock);
        for epoch in 1..=EPOCHS {
            for idx in 0..BLOCKS {
                store.write_block(idx, &block_for(seed_at(epoch, idx)));
            }
            store.flush().unwrap();
            assert_eq!(store.epoch(), epoch);
        }
        // Crash: the node journals keep the full epoch history (the
        // replicated flush never truncates them).
        drop(store);
    }
    let victim = 1usize;
    let journal_len = std::fs::metadata(base.join(format!("master/node-{victim}/journal.wal")))
        .unwrap()
        .len();
    let records = journal_len / JOURNAL_RECORD_LEN as u64;
    assert_eq!(
        journal_len,
        records * JOURNAL_RECORD_LEN as u64,
        "whole records only"
    );
    assert!(
        records > EPOCHS,
        "data records plus one epoch record per epoch"
    );
    for kept in 0..=records {
        for extra in [0u64, 17] {
            let cut = kept * JOURNAL_RECORD_LEN as u64 + extra;
            if cut > journal_len {
                continue;
            }
            // A scratch copy of the whole fleet with the victim's
            // journal torn at `cut`.
            let scratch = base.join(format!("cut-{cut}"));
            for i in 0..NODES {
                let node_dir = scratch.join(format!("node-{i}"));
                std::fs::create_dir_all(&node_dir).unwrap();
                for file in ["blocks.dat", "journal.wal"] {
                    std::fs::copy(
                        base.join(format!("master/node-{i}")).join(file),
                        node_dir.join(file),
                    )
                    .unwrap();
                }
            }
            std::fs::OpenOptions::new()
                .write(true)
                .open(scratch.join(format!("node-{victim}/journal.wal")))
                .unwrap()
                .set_len(cut)
                .unwrap();
            let clock = SimClock::new();
            let store = open_volume(&scratch, &clock);
            assert_eq!(
                store.epoch(),
                EPOCHS,
                "cut {cut}: recovery must land on the max committed epoch"
            );
            for idx in 0..BLOCKS {
                assert_eq!(
                    store.read_block(idx),
                    block_for(seed_at(EPOCHS, idx)),
                    "cut {cut}: block {idx} must read at the final epoch"
                );
            }
            // The victim's rebuilt content is real, not just its epoch
            // stamp: kill a neighbour so reads whose surviving replica
            // lives on the victim are served from the rebuilt data.
            store.kill_node((victim + 1) % NODES);
            for idx in 0..BLOCKS {
                assert_eq!(
                    store.read_block(idx),
                    block_for(seed_at(EPOCHS, idx)),
                    "cut {cut}: block {idx} must serve from the rebuilt victim"
                );
            }
            drop(store);
            std::fs::remove_dir_all(&scratch).ok();
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The chaos counters aggregate through a wrapper nest exactly like
/// the PR 6 wire counters: duplicates injected on the leaf remote
/// store's link and the backoff retries its losses force both surface
/// in the top-level stats merge.
#[test]
fn chaos_counters_aggregate_through_wrappers() {
    let clock = SimClock::new();
    let plan = netsim::FaultPlan::seeded(42)
        .with_duplication(1.0)
        .with_loss(0.2);
    let opts = RemoteOptions {
        timeout: std::time::Duration::from_millis(10),
        base: std::time::Duration::from_millis(1),
        max_backoff: std::time::Duration::from_millis(20),
        deadline: std::time::Duration::from_secs(5),
        ..RemoteOptions::default()
    };
    let leaf = RemoteStore::serve_shared(
        Arc::new(SimStore::untimed(BLOCKS)),
        Arc::default(),
        &clock,
        LinkConfig::instant(),
        opts,
        Some(&plan),
    );
    let store = CachedStore::new(Arc::new(leaf), 4);
    for idx in 0..BLOCKS {
        store.write_block(idx, &block_for((idx % 5) as u8 + 1));
    }
    store.flush().unwrap();
    for idx in 0..BLOCKS {
        assert_eq!(store.read_block(idx), block_for((idx % 5) as u8 + 1));
    }
    let stats = store.stats();
    assert!(
        stats.faults_injected > 0,
        "duplicated/dropped frames must be counted through the nest: {stats:?}"
    );
    assert!(
        stats.retries > 0,
        "20% loss must force at least one backoff retry: {stats:?}"
    );
}

/// The new wire counters aggregate through the full
/// `Cached{Sharded{Replicated}}` nest of one-node volumes: RPC traffic
/// from the leaf node clients surfaces in the top-level stats merge.
#[test]
fn wire_stats_aggregate_through_the_preset_nest() {
    let clock = SimClock::new();
    let striped = StoreBackend::Sharded {
        shards: 4,
        workers: false,
        inner: Box::new(StoreBackend::Replicated {
            nodes: 1,
            replicas: 1,
            spares: 0,
            ethernet: true,
            opts: RemoteOptions::default(),
            inner: Box::new(StoreBackend::SimInstant),
        }),
    };

    // Striped wire batching, on the bare stripe: a W-block extent is W
    // RPCs as a scalar loop and one RPC per involved node as a vectored
    // call, which saves the per-frame latency of the rest. A volume
    // buffers writes until its flush, so the extent is read back.
    let bare = striped.build(&clock, BLOCKS);
    let blocks: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|idx| block_for((idx % 5) as u8 + 1))
        .collect();
    let writes: Vec<(u64, &[u8])> = (0..).zip(blocks.iter().map(Vec::as_slice)).collect();
    bare.write_blocks(&writes);
    bare.flush().unwrap();
    let (rpcs, start) = (bare.stats().rpc_calls, clock.now());
    for (idx, block) in (0..).zip(&blocks) {
        assert_eq!(&bare.read_block(idx), block);
    }
    assert_eq!(bare.stats().rpc_calls - rpcs, BLOCKS);
    let scalar_time = clock.now() - start;
    let idxs: Vec<u64> = (0..BLOCKS).collect();
    let (rpcs, start) = (bare.stats().rpc_calls, clock.now());
    assert_eq!(bare.read_blocks(&idxs), blocks);
    assert_eq!(bare.stats().rpc_calls - rpcs, 4);
    assert!(clock.now() - start < scalar_time);

    let store = StoreBackend::Cached {
        capacity: 8,
        inner: Box::new(striped),
    }
    .build(&clock, BLOCKS);
    for idx in 0..BLOCKS {
        store.write_block(idx, &block_for((idx % 5) as u8 + 1));
    }
    store.flush().unwrap();
    for idx in 0..BLOCKS {
        assert_eq!(store.read_block(idx), block_for((idx % 5) as u8 + 1));
    }
    let stats = store.stats();
    assert!(
        stats.rpc_calls > 0,
        "leaf RPC traffic must surface: {stats:?}"
    );
    assert!(stats.bytes_on_wire > BLOCKS * BLOCK_SIZE as u64);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.replica_reads, 0);
    assert_eq!(stats.rebuilds, 0);

    // And a healthy replicated volume reports replication counters
    // without any failover noise.
    let replicated = replicated_volume(&clock, 2, 1);
    for idx in 0..BLOCKS {
        replicated.write_block(idx, &block_for(3));
    }
    replicated.flush().unwrap();
    let stats = replicated.stats();
    assert_eq!(stats.replica_reads, 0);
    assert_eq!(stats.rebuilds, 0);
    assert!(stats.rpc_calls > 0);
    assert_eq!(
        stats.writes,
        BLOCKS * 2 + 4,
        "R-way amplification plus epoch records"
    );
}

#[test]
fn shard_routing_is_exhaustive_and_disjoint() {
    for shards in [1usize, 2, 3, 5, 8] {
        let total = BLOCKS;
        let store = ShardedStore::new(
            (0..shards)
                .map(|_| {
                    Arc::new(SimStore::untimed(total.div_ceil(shards as u64)))
                        as Arc<dyn BlockStore>
                })
                .collect(),
            total,
        );
        // Write every block once with unique content.
        let mut expected_per_shard = vec![0u64; shards];
        for idx in 0..total {
            store.write_block(idx, &block_for((idx % 250) as u8 + 1));
            let shard = store.shard_of(idx);
            assert!(shard < shards, "routing stays in range");
            expected_per_shard[shard] += 1;
        }
        // Exactly one shard saw each block: per-shard write counters
        // sum to the total with no overlap and no gap.
        let per_shard: Vec<u64> = store.shard_stats().iter().map(|s| s.writes).collect();
        assert_eq!(per_shard, expected_per_shard, "{shards} shards");
        assert_eq!(per_shard.iter().sum::<u64>(), total);
        // And every block reads back its own content (no aliasing
        // between shards).
        for idx in 0..total {
            assert_eq!(
                store.read_block(idx),
                block_for((idx % 250) as u8 + 1),
                "block {idx} with {shards} shards"
            );
        }
    }
}
