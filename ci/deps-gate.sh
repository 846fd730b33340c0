#!/usr/bin/env sh
# Dependency gate: the root Cargo.lock may name only the workspace's own
# crates and the external set DESIGN.md §3 "Dependency policy" allows.
# A new external crate is a design decision; this makes it a visible one.
# The real-memory crate `hostmv` may depend on one workspace crate,
# `sim-core` (the shared address and fault vocabulary), so it never links
# the simulator.
set -eu
cd "$(dirname "$0")/.."

ALLOWED="proptest bytes libc"
HOSTMV_ALLOWED="sim-core"
METADATA=$(cargo metadata --no-deps --format-version 1)
MEMBERS=$(echo "$METADATA" | python3 -c '
import json, sys
print(" ".join(p["name"] for p in json.load(sys.stdin)["packages"]))')
HOSTMV_DEPS=$(echo "$METADATA" | python3 -c '
import json, sys
pkgs = {p["name"]: p for p in json.load(sys.stdin)["packages"]}
print(" ".join(d["name"] for d in pkgs["hostmv"]["dependencies"] if d["name"] in pkgs))')

status=0
for pkg in $(sed -n 's/^name = "\(.*\)"$/\1/p' Cargo.lock); do
    case " $MEMBERS $ALLOWED " in
    *" $pkg "*) ;;
    *)
        echo "Cargo.lock names $pkg: not a workspace crate, not in {$ALLOWED}"
        status=1
        ;;
    esac
done
[ "$status" -eq 0 ] && echo "Cargo.lock: workspace crates + {$ALLOWED} only"
for dep in $HOSTMV_DEPS; do
    case " $HOSTMV_ALLOWED " in
    *" $dep "*) ;;
    *)
        echo "hostmv depends on $dep: of the workspace only {$HOSTMV_ALLOWED} is allowed"
        status=1
        ;;
    esac
done
[ "$status" -eq 0 ] && echo "hostmv: workspace dependencies {$HOSTMV_DEPS} only"
exit "$status"
