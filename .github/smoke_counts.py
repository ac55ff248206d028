#!/usr/bin/env python3
"""Gate the traced meta_walk smoke run on counts the program makes.

Usage: smoke_counts.py target/bench/smoke.json

Reads the last run in a `discfs_bench --json` report and fails when a
count that repeats exactly from run to run has left its band. Wall-clock
metrics are not looked at: they vary 5-55 % on a shared runner.
"""
import json
import sys

# metric -> (low, high), inclusive. alloc.count_per_op was 1 065 when a
# policy-cache miss evaluated every credential the session held and is
# ~45 since it evaluates the delegation chain; hit_frac is a property of
# the walk (400 handles through 128 entries) and moves only if the cache
# key, capacity or replacement changes.
BANDS = {
    "alloc.count_per_op": (0.0, 200.0),
    "discfs.policy.hit_frac": (0.65, 0.67),
}

run = json.load(open(sys.argv[1]))["runs"][-1]
if run["workload"] != "meta_walk" or not run["traced"]:
    sys.exit("last run in the report is not a traced meta_walk run")
failed = False
for name, (low, high) in BANDS.items():
    value = run["per_layer"][name]["value"]
    ok = low <= value <= high
    failed |= not ok
    print(f"{name} = {value:.4f} (allowed {low}-{high}) {'ok' if ok else 'OUT OF BAND'}")
sys.exit(1 if failed else 0)
