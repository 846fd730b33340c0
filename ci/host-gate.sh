#!/usr/bin/env sh
# Gate on switches and on the accounting rule, not seconds.
#
# Switches are the design check. One server thread serves every host from
# one inbox, so a remote fault is a hand-off from the faulting thread to
# the server thread and back: two switches, the floor of that design.
# core.hostrun.ctxsw_per_fault on sor2_host reads 2.01 (22 readings).
# It read 2.40-2.82 while the window-closing Ack woke a sleeping server
# after every fault (a second hand-off whenever it found the server
# asleep), and 5.04-5.22 with a server thread per host. Fails above 2.3.
#
# The ratio is the alarm for a per-element software cost coming back on
# the access path. On a page-based DSM an access the MMU allows costs a
# load or a store and only a fault costs protocol time, so a real-memory
# run's wall clock per fault (core.hostrun.us_per_fault) is close to what
# one fault costs in the ping-pong benchmark of the same process
# (core.hostrun.{read,write}_fault_us.p50). SOR's per-fault wall also
# carries its compute and copies: 0.99-1.63 (22 readings, median 1.50);
# 1.47-1.98 while every Ack woke the server; 2.7-3.6 when every byte paid
# an address decode. Fails above 1.9.
#
# The two numbers are taken seconds apart and a shared runner changes speed
# under a run, which is where the spread comes from; so a reading over a
# limit is taken again, twice at most. A design regression fails all three.
set -eu
cd "$(dirname "$0")/.."

LIMIT=1.9
SWITCHES=2.3
for attempt in 1 2 3; do
    if cargo run --release --quiet --manifest-path examples/mvbench/Cargo.toml -- \
        --workload sor2_host --seed 1 --seconds 2 --trace 1 | tail -n 1 |
        python3 -c '
import json, sys
out = json.load(sys.stdin)
m = {k: v["value"] for k, v in out["metrics"].items()}
ok, per_fault = out["correct"], m["core.hostrun.us_per_fault"]
switches = m["core.hostrun.ctxsw_per_fault"]
fault = max(m["core.hostrun.read_fault_us.p50"], m["core.hostrun.write_fault_us.p50"])
print(f"sor2_host: correct={ok} ctxsw_per_fault={switches:.2f} (limit '"$SWITCHES"') "
      f"us_per_fault={per_fault:.1f} ping-pong fault={fault:.1f} us "
      f"ratio={per_fault / fault:.2f} (limit '"$LIMIT"', attempt '"$attempt"')")
sys.exit(0 if ok and switches <= '"$SWITCHES"' and per_fault <= '"$LIMIT"' * fault else 1)'; then
        exit 0
    fi
done
exit 1
