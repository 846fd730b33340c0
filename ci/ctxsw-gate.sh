#!/usr/bin/env sh
# Gate on switches, not seconds.
#
# Context switches per simulated message are a property of the design, not
# of the runner. DSM servers are passive scheduler slots, a parked thread's
# condition is re-checked by whichever thread dispatches, and a request
# (send + wait) is one park: only an application thread whose reply is in
# gets switched to (≈ 0.37 switches per message on water4_seq). The limit
# is the alarm for a parked thread being woken to re-check for itself or a
# request parking twice (1.06), as it was for a server thread coming back
# (7.3 when every server was an OS thread woken per message).
set -eu
cd "$(dirname "$0")/.."

LIMIT=0.8
cargo run --release --quiet --manifest-path examples/mvbench/Cargo.toml -- \
    --workload water4_seq --seed 1 --seconds 2 --trace 1 | tail -n 1 |
    python3 -c '
import json, sys
out = json.load(sys.stdin)
ok, got = out["correct"], out["metrics"]["sim-core.sched.ctxsw_per_event"]["value"]
print(f"water4_seq: correct={ok} ctxsw_per_event={got:.2f} (limit '"$LIMIT"')")
sys.exit(0 if ok and got <= '"$LIMIT"' else 1)'
