#!/usr/bin/env sh
# Gate on the accounting rule, not seconds — the simulator's half.
#
# An access the MMU allows costs a load or a store, so LU on one simulated
# host (no faults after the first touch, no scheduler, no network) should
# take about what its sequential kernel takes: apps.dsm_overhead_x on
# lu1_seq is the run's wall clock over the reference's, both from one
# process, so runner speed cancels. 1.01-1.17 when a range access is one
# copy between the page and the caller's slice; 3.0-3.3 with PR 20's
# staging buffer and conversion call per element put back under today's
# kernel (read_range4k 110 -> 780 ns, write_range4k 50 -> 900 ns). That
# path read 1.3-1.7 while the kernel stalled on its own stores and the
# reference took 0.136 s, not 0.034: the slower the kernel, the less
# this ratio sees. The limit is the alarm for a per-element software
# cost coming back on the access path.
#
# The two terms are still taken seconds apart on a shared runner, so a
# reading over the limit is taken again, twice at most. A per-element cost
# fails all three.
set -eu
cd "$(dirname "$0")/.."

LIMIT=1.5
for attempt in 1 2 3; do
    if cargo run --release --quiet --manifest-path examples/mvbench/Cargo.toml -- \
        --workload lu1_seq --seed 1 --seconds 2 --trace 1 | tail -n 1 |
        python3 -c '
import json, sys
out = json.load(sys.stdin)
m = {k: v["value"] for k, v in out["metrics"].items()}
ok, x = out["correct"], m["apps.dsm_overhead_x"]
rd, wr = m["sim-mem.read_range4k_ns"], m["sim-mem.write_range4k_ns"]
print(f"lu1_seq: correct={ok} dsm_overhead_x={x:.2f} "
      f"read_range4k_ns={rd:.0f} write_range4k_ns={wr:.0f} "
      f"(limit '"$LIMIT"', attempt '"$attempt"')")
sys.exit(0 if ok and x <= '"$LIMIT"' else 1)'; then
        exit 0
    fi
done
exit 1
