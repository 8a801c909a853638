#!/bin/bash
# Same-machine A/B of two commits on the end-to-end benchmark.
#
#   scripts/perf_ab.sh [-w WORKLOADS] [-t 0|1] BASE HEAD [SEEDS]
#
# Checks BASE and HEAD out into git worktrees under a temporary
# directory, builds the benchmark in each, then runs
# `python3 perfbench/run.py` for every workload and seed (each run as long
# as HEAD's BENCHMARK.json `run_seconds`), BASE and HEAD
# back to back per seed (alternating which goes first), so both sides
# see the same stretch of host load. Prints, per metric, each side's
# median and quartiles over the seeds, the median HEAD/BASE ratio of the
# pairs with its quartiles, and how many pairs HEAD won (by the
# metric's direction in BENCHMARK.json; ties count for neither). Then
# every run's value of each end-to-end metric, so no run goes
# unreported.
#
#   SEEDS      space- or comma-separated seeds (default "1 2 3")
#   -w         comma-separated workloads (default all three)
#   -t         1 for traced runs, which report the per-layer metrics
#
# Every run must pass its output checks; the script stops at the first
# that does not. Results are kept in the temporary directory, whose path
# is printed, until the script exits.
set -euo pipefail

workloads=sched-bulk,serve-small,compile-cold
trace=0
while getopts "w:t:" opt; do
    case "$opt" in
        w) workloads=$OPTARG ;;
        t) trace=$OPTARG ;;
        *) sed -n '4p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify "$2^{commit}")
seeds=${3:-1 2 3}
seeds=${seeds//,/ }

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
cleanup() {
    git worktree remove --force "$tmp/base" 2>/dev/null || true
    git worktree remove --force "$tmp/head" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

for side in base head; do
    rev=$base
    [ "$side" = head ] && rev=$head
    git worktree add --quiet --detach "$tmp/$side" "$rev"
    # Builds the benchmark (and runs its metric unit tests).
    (cd "$tmp/$side" &&
        CARGO_TARGET_DIR="$tmp/$side-build" \
            python3 perfbench/run.py --unit-tests >/dev/null 2>&1) || {
        echo "perf_ab: building $side ($rev) failed" >&2
        exit 1
    }
done

seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$tmp/head/BENCHMARK.json")
echo "perf_ab: BASE $base, HEAD $head, seeds $seeds, ${seconds}s runs in $tmp" >&2

mkdir -p "$tmp/results"
for workload in ${workloads//,/ }; do
    first=base
    for seed in $seeds; do
        order="base head"
        [ "$first" = head ] && order="head base"
        for side in $order; do
            out="$tmp/results/$workload.$side.$seed.json"
            (cd "$tmp/$side" &&
                CARGO_TARGET_DIR="$tmp/$side-build" \
                    python3 perfbench/run.py --workload "$workload" \
                    --seed "$seed" --seconds "$seconds" --trace "$trace" |
                tail -n 1 >"$out")
            echo "perf_ab: $workload seed $seed $side done" >&2
        done
        [ "$first" = base ] && first=head || first=base
    done
done

python3 - "$tmp/results" "$tmp/head/BENCHMARK.json" "$workloads" "$seeds" <<'EOF'
import json, os, statistics, sys

results, spec_path = sys.argv[1], sys.argv[2]
workloads, seeds = sys.argv[3].split(","), sys.argv[4].split()
with open(spec_path) as f:
    spec = json.load(f)
higher = {m["name"]: m["better"] == "higher"
          for m in spec["end_to_end"] + spec["per_layer"]}

def metrics(workload, side, seed):
    with open(os.path.join(results, f"{workload}.{side}.{seed}.json")) as f:
        return json.load(f)["metrics"]

def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

def fmt(t):
    return "/".join(f"{v:.4g}" for v in t)

print(f"{'workload':<13} {'metric':<38} {'BASE q1/med/q3':>26} "
      f"{'HEAD q1/med/q3':>26} {'HEAD/BASE q1/med/q3':>21} wins")
for workload in workloads:
    runs = [(metrics(workload, "base", s), metrics(workload, "head", s))
            for s in seeds]
    for name in sorted(runs[0][0]):
        b = [r[0][name]["value"] for r in runs]
        h = [r[1][name]["value"] for r in runs]
        ratios = [y / x for x, y in zip(b, h) if x]
        if not ratios:
            continue
        up = higher.get(name, True)
        wins = sum((y > x) if up else (y < x) for x, y in zip(b, h))
        print(f"{workload:<13} {name:<38} {fmt(summary(b)):>26} "
              f"{fmt(summary(h)):>26} {fmt(summary(ratios)):>21} "
              f"{wins}/{len(b)}")

print(f"\nEvery run (seeds {' '.join(seeds)}):")
for workload in workloads:
    for m in spec["end_to_end"]:
        name = m["name"]
        for side in ("base", "head"):
            values = [metrics(workload, side, s).get(name, {}).get("value")
                      for s in seeds]
            if all(v is None for v in values):
                break
            print(f"{workload:<13} {name:<15} {side.upper():<4} "
                  + " ".join("-" if v is None else f"{v:.4g}"
                             for v in values))
EOF
