#!/usr/bin/env sh
# Dependency gate: the root Cargo.lock may name only the workspace's own
# crates and the external set DESIGN.md §3 "Dependency policy" allows.
# A new external crate is a design decision; this makes it a visible one.
# The real-memory crate `hostmv` may depend on one workspace crate,
# `sim-core` (the shared address and fault vocabulary), so it never links
# the simulator. Planted protocol bugs stay out of every plain build:
# millipage's `mutants` feature is off by default, and no manifest names
# it but core's [features], the harness (crates/bench) that turns it on
# and the root package's [dev-dependencies] (its tests plant bugs).
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
if ! echo "$METADATA" | python3 -c '
import json, sys
core = next(p for p in json.load(sys.stdin)["packages"] if p["name"] == "millipage")
seen, todo = set(), ["default"]
while todo:
    f = todo.pop()
    if f not in seen:
        seen.add(f)
        todo += core["features"].get(f, [])
if "mutants" in seen:
    sys.exit("millipage default features enable mutants")
'; then
    status=1
fi
# (manifest, the one [section] of it that may name mutants; "*" for any)
MUTANTS_ALLOWED="crates/core/Cargo.toml:features crates/bench/Cargo.toml:* Cargo.toml:dev-dependencies"
if ! git ls-files '*Cargo.toml' | python3 -c '
import re, sys
allowed = dict(a.split(":") for a in sys.argv[1].split())
bad = 0
for path in sys.stdin.read().split():
    section = ""
    for n, line in enumerate(open(path), 1):
        m = re.match(r"\s*\[+([^]]+)\]", line)
        if m:
            section = m.group(1).strip()
        if "mutants" in line and allowed.get(path) not in ("*", section):
            print(f"{path}:{n} names mutants outside its allowed place: {line.strip()}")
            bad = 1
sys.exit(bad)
' "$MUTANTS_ALLOWED"; then
    status=1
fi
[ "$status" -eq 0 ] && echo "mutants: off by default, named only in {$MUTANTS_ALLOWED}"
exit "$status"
