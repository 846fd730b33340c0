#!/usr/bin/env sh
# Gate on the accounting rule, not seconds.
#
# On a page-based DSM an access the MMU allows costs a load or a store and
# only a fault costs protocol time, so a real-memory run's wall clock per
# fault (core.hostrun.us_per_fault on sor2_host) is about what one fault
# costs in the ping-pong driver of the same process
# (core.hostrun.{read,write}_fault_us.p50). Both numbers come from one
# process, so runner speed mostly cancels: 1.02-1.17 (median 1.04) with one
# copy per access and the server's messages to itself kept off the
# socket, 1.1-1.4 with a staging buffer and a conversion call per element,
# 2.7-3.6 when every byte paid an address decode. The limit is the alarm
# for a per-element software cost coming back on the access path.
#
# The two numbers are taken seconds apart and a shared runner changes speed
# under a run, which is where the spread comes from; so a reading over the
# limit is taken again, twice at most. A per-element cost fails all three.
set -eu
cd "$(dirname "$0")/.."

LIMIT=1.35
for attempt in 1 2 3; do
    if cargo run --release --quiet --manifest-path examples/mvbench/Cargo.toml -- \
        --workload sor2_host --seed 1 --seconds 2 --trace 1 | tail -n 1 |
        python3 -c '
import json, sys
out = json.load(sys.stdin)
m = {k: v["value"] for k, v in out["metrics"].items()}
ok, per_fault = out["correct"], m["core.hostrun.us_per_fault"]
fault = max(m["core.hostrun.read_fault_us.p50"], m["core.hostrun.write_fault_us.p50"])
print(f"sor2_host: correct={ok} us_per_fault={per_fault:.1f} ping-pong fault={fault:.1f} us "
      f"ratio={per_fault / fault:.2f} (limit '"$LIMIT"', attempt '"$attempt"')")
sys.exit(0 if ok and per_fault <= '"$LIMIT"' * fault else 1)'; then
        exit 0
    fi
done
exit 1
