#!/usr/bin/env python3
"""Gate a smoke run on counts the program makes.

Usage: smoke_counts.py target/bench/smoke.json

Reads the last run in a `discfs_bench --json` report and fails when a
metric has left the band its workload is given below. A band's metric
is looked up in the run's `per_layer` metrics (a traced run has them),
then in its `end_to_end` ones, and a metric found in neither fails
the run (KeyError). Wall-clock metrics are not looked at: they vary
5-55 % on a shared runner.
"""
import json
import sys

# workload -> (traced, metric -> (low, high), inclusive).
#
# meta_walk (both repeat exactly): alloc.count_per_op was 1 065 when a
# policy-cache miss evaluated every credential the session held and is
# ~45 since it evaluates the delegation chain; hit_frac is a property of
# the walk (400 handles through 128 entries) and moves only if the cache
# key, capacity or replacement changes. store.sim.virtual_us_per_op
# counts seeks a cycle: each 784-operation cycle transfers 400 blocks
# (279 us an operation) and pays 14 050 us a seek. One cursor for the
# whole volume read 851-853 (32 seeks: a directory's block away from
# its files); allocation groups read ~566 (16: one per directory).
# peak_rss_mb (end_to_end) read 15.2-15.3 while every audit record
# pinned a list of one issuer per credential the session held: its
# 400 set-up creates left ~8.9 KB of live heap each (34 KB each at
# 2 000; quadratic). With one shared set of distinct issuers a create
# costs ~2.4 KB, and with zero blocks shared on the simulated disk the
# run reads ~10.9. It read 10.61-10.68 over five runs while the
# simulated disk held a 24-byte handle for every block of the volume,
# and 9.82-10.07 since it holds only the blocks written non-zero. Each
# of the 400 set-up creates then kept its creator credential as a parsed
# assertion in the creator's KeyNote session (~1.8 KB); with a ~40-byte
# creator grant beside the session instead it read 8.84-9.07 over ten
# runs: the band's top is that highest reading plus 0.3 MB.
#
# seq_read (eight READs in flight; set by the client outbox's rule,
# banded not exact: a reply batch that answers the whole window
# restarts the ramp): one call a message read 1.6-1.9 messages an
# operation and 1.1-1.6 requests a reply batch; the outbox reads
# 0.51-0.64 and 3.2-3.9. The rule's floor, every message answered
# alone, is 1.0 and 2.0.
#
# seq_write: alloc.bytes_per_op read ~105 000 (13 blocks' worth for
# one 8 KiB WRITE) while the vendored Bytes copied every message it was
# built from, Encoder::finish copied every encoded message and the
# simulated disk put every overwritten block in a fresh allocation;
# with a Bytes that keeps its Vec, a finish that returns its buffer and
# an unshared block overwritten in place it reads ~48 000. It is
# banded, not exact; a copy of the block back on the path is 8 192.
#
# stack_mixed: peak_rss_mb read 54-56 while the file store kept an
# 8 KiB copy of every un-flushed block, 21-22 once the journal was its
# only dirty buffer, and ~19 since the sharded store reads on the
# caller's thread: when its four workers served the readahead cache's
# 8-block prefetches, each kept a malloc arena of cache blocks. It still
# read 17.1-19.3 while the cache allocated a block on every insert, on
# whichever thread inserted it, and freed it on whichever evicted it;
# with the cache's buffers allocated when it is built and recycled on
# eviction it reads ~15.2, hence the band of 16.5.
# store.sharded.worker_jobs_per_op read 0.19 then and ~0.002 with only
# flush jobs; it reads 0 since the sharded store has no workers, and
# the counter stays only for the pinned bench. A job queue back in the
# sharded store shows here.
#
# repl_mixed: peak_rss_mb read 69.3 while a sync sent each node its
# whole share in one WRITE (an 11.2 MB message beside the 16.8 MB
# write-back buffer on the first sync) and ~59 since every block
# protocol message fits one 1 MiB frame: a sync commits frame-sized
# epochs and frees each as it lands. It read 57.2-57.3 while each
# committed block went back to the malloc arena of the engine worker
# that wrote it and every node copy on the syncing thread was fresh,
# and ~45.2 since committed blocks become the next epoch's node copies
# through the store's block-buffer pool, hence the band of 50.
# store.remote.retries is 0 on the lossless link; a call the node
# drops as over the bound, or a reply the client refuses, shows here
# first.
#
# session_setup (untraced: end_to_end metrics come from an untraced
# world in a traced run too, so tracing would only add a traced world,
# whose connect still sends the AUTH alone): virtual_us_per_op repeats
# exactly per seed. It read 2 824-2 840 while the client's IKE AUTH
# went out as a link message of its own; riding with the MOUNT call it
# reads 2 704-2 720 (one 120 us message fewer a session), hence the
# band's top of 2 760.
BANDS = {
    "meta_walk": (True, {
        "alloc.count_per_op": (0.0, 200.0),
        "discfs.policy.hit_frac": (0.65, 0.67),
        "store.sim.virtual_us_per_op": (0.0, 700.0),
        "peak_rss_mb": (0.0, 9.37),
    }),
    "seq_read": (True, {
        "netsim.msgs_per_op": (0.0, 0.8),
        "nfsv2.engine.requests_per_batch": (2.5, 32.0),
    }),
    "seq_write": (True, {
        "alloc.bytes_per_op": (0.0, 80000.0),
    }),
    "stack_mixed": (True, {
        "peak_rss_mb": (0.0, 16.5),
        "store.sharded.worker_jobs_per_op": (0.0, 0.01),
    }),
    "session_setup": (False, {
        "virtual_us_per_op": (0.0, 2760.0),
    }),
    "repl_mixed": (True, {
        "peak_rss_mb": (0.0, 50.0),
        "store.remote.retries": (0.0, 0.0),
    }),
}

run = json.load(open(sys.argv[1]))["runs"][-1]
traced, bands = BANDS.get(run["workload"], (None, None))
if run["traced"] != traced:
    sys.exit(f"no bands for the last run in the report ({run['workload']}, traced={run['traced']})")
per_layer = run.get("per_layer") or {}
failed = False
for name, (low, high) in bands.items():
    value = (per_layer.get(name) or run["end_to_end"][name])["value"]
    ok = low <= value <= high
    failed |= not ok
    print(f"{name} = {value:.4f} (allowed {low}-{high}) {'ok' if ok else 'OUT OF BAND'}")
sys.exit(1 if failed else 0)
