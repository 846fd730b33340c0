#!/usr/bin/env sh
# Dependency gate: the root Cargo.lock may name only the workspace's own
# crates and the external set DESIGN.md §3 "Dependency policy" allows.
# A new external crate is a design decision; this makes it a visible one.
set -eu
cd "$(dirname "$0")/.."

ALLOWED="proptest parking_lot bytes libc"
MEMBERS=$(cargo metadata --no-deps --format-version 1 | python3 -c '
import json, sys
print(" ".join(p["name"] for p in json.load(sys.stdin)["packages"]))')

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
exit "$status"
