#!/usr/bin/env sh
# Gate on the simulator's threading design, not seconds.
#
# A simulated run is fibers on one OS thread, and so are its wire and its
# memory. The wire: the fabric sits behind an `Rc`, every mailbox is one
# `RefCell`, the moved-heads mask and the counters are `Cell`s, and the
# fiber run owns the delivery gate (DESIGN §4, §10). The memory: a host's
# `AddressSpace` keeps each page in a `RefCell` and its protections and
# TLB generation in `Cell`s. A lock, an atomic, a `Weak` or `parking_lot`
# back in non-test sim-net or sim-mem code is a multi-threaded simulator
# coming back: on water4_seq the wire's were 3.05 mailbox lock pairs, 4.97
# mask read-modify-writes and a `Weak::upgrade` per message, about 8 % of
# its wall clock; on sor4_hlrc the memory's page locks and atomics were
# 13 % of its CPU. Test modules (from each file's `#[cfg(test)]` on) may
# use what they like.
set -eu
cd "$(dirname "$0")/.."

status=0
for f in crates/sim-net/src/*.rs crates/sim-mem/src/*.rs; do
    hits=$(sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -nE '\b(Mutex|RwLock|Condvar|Atomic[A-Za-z0-9]*|Weak|OnceLock|parking_lot)\b') || true
    if [ -n "$hits" ]; then
        echo "$hits" | sed "s|^|$f:|"
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "sync-gate: sim-net and sim-mem are single-threaded; the lines above name a lock, an atomic, a Weak or parking_lot" >&2
else
    echo "sync-gate: no lock, atomic, Weak or parking_lot in sim-net or sim-mem"
fi
exit "$status"
