#!/usr/bin/env sh
# Gate on the simulator's threading design, not seconds.
#
# A simulated run is fibers on one OS thread, and so are its wire, its
# memory and its schedule. The wire: the fabric sits behind an `Rc`, every
# mailbox is one `RefCell`, the moved-heads and woken-hosts masks and the
# counters are `Cell`s, and the fiber run owns the delivery gate (DESIGN
# §4, §10). The memory: a host's `AddressSpace` keeps each page in a
# `RefCell` and its protections in `Cell`s. A lock, an atomic, a `Weak`
# or `parking_lot` back in non-test sim-net or sim-mem code
# is a multi-threaded simulator coming back: on water4_seq the wire's were
# 3.05 mailbox lock pairs, 4.97 mask read-modify-writes and a
# `Weak::upgrade` per message, about 8 % of its wall clock; on sor4_hlrc the
# memory's page locks and atomics were 13 % of its CPU.
#
# The schedule: a fiber run holds the scheduler's state itself, so none of
# its steps takes a lock, a condvar or an atomic. The `Mutex` and `Condvar`s
# left in sim-core's sched.rs serve only `Scheduler::attach`'s OS threads
# (and hand the state to a fiber run and back at its ends, and a run's
# decision log to its mode at a verdict); an atomic there is the
# multi-threaded schedule coming back, which took 2.81 uncontended
# state-lock pairs per water4_seq message.
#
# The protocol state: one OS thread builds, serves and checks a run's
# stack on either backend (the simulator's caller; the host backend's
# `mv-server` thread), so `HostState`, `HomeTable`, the shards and the busy
# window take no lock (DESIGN §3, §11). A lock in non-test core code is
# that state shared across threads again: on water4_seq its `rc`,
# `prefetch_waiters` and home-table locks were 0.69 lock pairs per
# message. Atomics stay where state does cross threads on the host
# backend (counters, diagnostics, inbox, completion words), never in
# home.rs or clock.rs. The one lock left is explore.rs's process-wide
# panic-hook guard. Test modules (from each file's `#[cfg(test)]` on) may
# use what they like.
set -eu
cd "$(dirname "$0")/.."

status=0
check() {
    pattern=$1
    shift
    for f in "$@"; do
        hits=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$pattern") || true
        if [ -n "$hits" ]; then
            echo "$hits" | sed "s|^|$f:|"
            status=1
        fi
    done
}
check '\b(Mutex|RwLock|Condvar|Atomic[A-Za-z0-9]*|Weak|OnceLock|parking_lot)\b' \
    crates/sim-net/src/*.rs crates/sim-mem/src/*.rs
check '\bAtomic[A-Za-z0-9]*\b' crates/sim-core/src/sched.rs
check '\b(Mutex|RwLock|Condvar)\b' $(ls crates/core/src/*.rs | grep -v '/explore\.rs$')
check '\bAtomic[A-Za-z0-9]*\b' crates/core/src/home.rs crates/sim-core/src/clock.rs
if [ "$status" -ne 0 ]; then
    echo "sync-gate: sim-net, sim-mem, the fiber schedule and the protocol state are single-threaded; the lines above name a lock, an atomic, a Weak or parking_lot" >&2
else
    echo "sync-gate: no lock, atomic, Weak or parking_lot in sim-net or sim-mem, no atomic in sched.rs, home.rs or clock.rs, and no lock in core outside explore.rs"
fi
exit "$status"
