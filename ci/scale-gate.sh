#!/usr/bin/env sh
# Gate on a ratio, not seconds.
#
# The dispatcher picks off a fixed min-tree over its schedulable slots and
# mailbox heads, so a scheduling step costs O(log slots) however many
# threads are parked. The wake benchmark of mvbench takes the same steps
# with 8 and with 128 threads (half of them parked and re-checked at every
# step), seconds apart in one process, so the runner's speed cancels in
# sim-core.sched.wake_us.t128 / sim-core.sched.wake_us.t8: 2.2 to 2.8 with
# the tree (sixteen times the re-checks a step, each a short walk up it),
# 4 to 5 with the ordered BTreeSet index it replaced, 14 to 25 when every
# pick passed over every slot. The limit is the alarm for a per-step pass
# over all slots coming back.
#
# The benchmark drives OS-thread slots (`Scheduler::attach`), which only
# code outside `millipage::run` still uses: a run's application threads are
# fibers. The index it guards is the same for both.
#
# The two numbers are still taken seconds apart on a shared runner, so a
# reading over the limit is taken again, twice at most. A pass over all
# slots fails all three.
set -eu
cd "$(dirname "$0")/.."

LIMIT=6
for attempt in 1 2 3; do
    if cargo run --release --quiet --manifest-path examples/mvbench/Cargo.toml -- \
        --workload sor32_seq --seed 1 --seconds 2 --trace 1 | tail -n 1 |
        python3 -c '
import json, sys
out = json.load(sys.stdin)
m = {k: v["value"] for k, v in out["metrics"].items()}
ok, t8, t128 = out["correct"], m["sim-core.sched.wake_us.t8"], m["sim-core.sched.wake_us.t128"]
print(f"sor32_seq: correct={ok} wake_us.t8={t8:.1f} wake_us.t128={t128:.1f} "
      f"ratio={t128 / t8:.1f} (limit '"$LIMIT"', attempt '"$attempt"')")
sys.exit(0 if ok and t128 <= '"$LIMIT"' * t8 else 1)'; then
        exit 0
    fi
done
exit 1
