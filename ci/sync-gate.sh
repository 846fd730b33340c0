#!/usr/bin/env sh
# Gate on the wire's threading design, not seconds.
#
# A simulated run is fibers on one OS thread, and so is its wire: the
# fabric sits behind an `Rc`, every mailbox is one `RefCell`, the
# moved-heads mask and the counters are `Cell`s, and the fiber run owns the
# delivery gate (DESIGN §4, §10). A lock, an atomic or a `Weak` back in
# sim-net's non-test code is a multi-threaded wire coming back: on
# water4_seq that was 3.05 mailbox lock pairs, 4.97 mask read-modify-writes
# and a `Weak::upgrade` per message, about 8 % of its wall clock. Test
# modules (from each file's `#[cfg(test)]` on) may use what they like.
set -eu
cd "$(dirname "$0")/.."

status=0
for f in crates/sim-net/src/*.rs; do
    hits=$(sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -nE '\b(Mutex|RwLock|Condvar|Atomic[A-Za-z0-9]*|Weak|OnceLock)\b') || true
    if [ -n "$hits" ]; then
        echo "$hits" | sed "s|^|$f:|"
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "sync-gate: sim-net is single-threaded; the lines above name a lock, an atomic or a Weak" >&2
else
    echo "sync-gate: no lock, atomic or Weak in sim-net"
fi
exit "$status"
