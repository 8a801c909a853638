#!/bin/sh
# Full local gate: configure, build, run every test (test_pinned checks
# the deterministic pins of bench/baseline_perf.json), smoke-run every
# bench (the net, exact and store benches check their pinned bands).
# Mirrors what CI would run.
set -eu
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

for b in build/bench/bench_*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    "$b"
done
echo "check.sh: all green"
