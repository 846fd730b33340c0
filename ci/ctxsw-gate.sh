#!/usr/bin/env sh
# Gate on switches, not seconds.
#
# Context switches per simulated message are a property of the design, not
# of the runner: with DSM servers as passive scheduler slots only
# application threads hand the schedule to each other (≈ 1 switch per
# message on water4_seq; 7.3 when every server was an OS thread woken per
# message). The limit is the alarm for a server thread coming back.
set -eu
cd "$(dirname "$0")/.."

LIMIT=4.0
cargo run --release --quiet --manifest-path examples/mvbench/Cargo.toml -- \
    --workload water4_seq --seed 1 --seconds 2 --trace 1 | tail -n 1 |
    python3 -c '
import json, sys
out = json.load(sys.stdin)
ok, got = out["correct"], out["metrics"]["sim-core.sched.ctxsw_per_event"]["value"]
print(f"water4_seq: correct={ok} ctxsw_per_event={got:.2f} (limit '"$LIMIT"')")
sys.exit(0 if ok and got <= '"$LIMIT"' else 1)'
