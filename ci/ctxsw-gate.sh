#!/usr/bin/env sh
# Gate on switches, not seconds.
#
# Context switches per simulated message are a property of the design, not
# of the runner. A run's application threads are fibers on the caller's OS
# thread and its DSM servers passive scheduler slots, so handing the
# schedule over is a stack switch and a message costs no OS switch at all
# (≈ 0.00003 per message on water4_seq: the few the kernel takes by
# itself). Any OS switch per message means application slots are OS
# threads again: 0.37 when each was one parked on a condvar, 1.06 when a
# parked thread was woken to re-check for itself, 7.3 when every server
# was an OS thread woken per message.
set -eu
cd "$(dirname "$0")/.."

LIMIT=0.01
cargo run --release --quiet --manifest-path examples/mvbench/Cargo.toml -- \
    --workload water4_seq --seed 1 --seconds 2 --trace 1 | tail -n 1 |
    python3 -c '
import json, sys
out = json.load(sys.stdin)
ok, got = out["correct"], out["metrics"]["sim-core.sched.ctxsw_per_event"]["value"]
print(f"water4_seq: correct={ok} ctxsw_per_event={got:.5f} (limit '"$LIMIT"')")
sys.exit(0 if ok and got <= '"$LIMIT"' else 1)'
