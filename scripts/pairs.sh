#!/usr/bin/env bash
# Interleaved benchmark pairs: two checkouts of this repository, run
# alternately on the same seeds.
#
#   scripts/pairs.sh BASE HEAD [--pairs N] [--workloads W1,W2,...]
#
# BASE and HEAD are checkout directories (a `git clone` or `git archive` of
# each commit). Each is built into its own target directory,
# CHECKOUT/.bench_build. Then, for every workload (default: all of
# BENCHMARK.json's) and seed s = 1..N (default N = 10), both sides run
#
#   benchmark/run.sh --workload W --seed s --seconds 10 --trace 0
#
# once, BASE first on odd seeds and HEAD first on even ones, so neither side
# always runs on the warmer host. For every metric of the result (the last
# JSON line) the summary gives each side's median and quartiles, the change
# of the medians, and "wins k/N": the pairs in which HEAD is better, in the
# direction BENCHMARK.json gives. `batch_ms_p50` and `calib_ms_p50`, the two
# clocks `batch_rel_p50` is the ratio of, are printed beside it. Every run's
# full output is kept in the directory the summary names. The script only
# calls each checkout's `benchmark/run.sh`, so it changes nothing the
# benchmark measures.
set -euo pipefail

usage() {
    echo "usage: scripts/pairs.sh BASE HEAD [--pairs N] [--workloads W1,W2,...]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
shift 2
pairs=10
workloads=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --workloads) workloads="$2"; shift 2 ;;
        *) usage ;;
    esac
done
for side in "$base" "$head"; do
    [ -f "$side/benchmark/run.sh" ] || { echo "$side has no benchmark/run.sh" >&2; exit 2; }
done
if [ -z "$workloads" ]; then
    workloads=$(python3 -c 'import json, sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$head/BENCHMARK.json")
fi

out=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
for side in "$base" "$head"; do
    echo "building $side" >&2
    (cd "$side" && CARGO_TARGET_DIR="$side/.bench_build" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One run of workload $2 at seed $3 on side $1 ("base" or "head").
run_one() {
    local name=$1 w=$2 s=$3 dir
    [ "$name" = base ] && dir=$base || dir=$head
    echo "  $w seed $s: $name" >&2
    CARGO_TARGET_DIR="$dir/.bench_build" bash "$dir/benchmark/run.sh" \
        --workload "$w" --seed "$s" --seconds 10 --trace 0 \
        > "$out/$w.$s.$name.log" 2>&1 ||
        echo "  $w seed $s: $name exited non-zero (see $out/$w.$s.$name.log)" >&2
}

for w in ${workloads//,/ }; do
    for s in $(seq 1 "$pairs"); do
        if [ $((s % 2)) -eq 1 ]; then
            run_one base "$w" "$s"; run_one head "$w" "$s"
        else
            run_one head "$w" "$s"; run_one base "$w" "$s"
        fi
    done
done

python3 - "$out" "$head/BENCHMARK.json" "$pairs" "$workloads" <<'PY'
import json, os, statistics, sys

out, spec, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
better = {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
          for m in json.load(open(spec)).get(key, [])}
CLOCKS = ("batch_ms_p50", "calib_ms_p50")

def read(path):
    """Metrics of the result line, plus the two clocks from any JSON line."""
    if not os.path.exists(path):
        return None
    lines = []
    for line in open(path):
        line = line.strip()
        if line.startswith("{"):
            try:
                lines.append(json.loads(line))
            except ValueError:
                pass
    if not lines or "metrics" not in lines[-1]:
        return None
    result = lines[-1]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    for line in lines:
        for clock in CLOCKS:
            if clock in line and clock not in values:
                values[clock] = line[clock]
    values["failed"] = result.get("failed", 0) + (0 if result.get("correct") else 1)
    return values

def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def fmt(x):
    return f"{x:.4g}"

for w in workloads.split(","):
    runs = [(read(f"{out}/{w}.{s}.base.log"), read(f"{out}/{w}.{s}.head.log"))
            for s in range(1, pairs + 1)]
    done = [(b, h) for b, h in runs if b is not None and h is not None]
    print(f"== {w}: {len(done)} of {pairs} pairs complete")
    if not done:
        continue
    names = [k for k in done[0][1] if k not in CLOCKS and k != "failed"]
    order = []
    for k in names:
        order.append((k, ""))
        if k.endswith("batch_rel_p50"):
            order += [(c, "  ") for c in CLOCKS if c in done[0][1]]
    order.append(("failed", ""))
    print(f"{'metric':<28} {'base median [q1 .. q3]':<36} {'head median [q1 .. q3]':<36} {'change':>8}  wins")
    for k, indent in order:
        pts = [(b[k], h[k]) for b, h in done if k in b and k in h]
        if not pts:
            continue
        bq, hq = summary([p[0] for p in pts]), summary([p[1] for p in pts])
        lower = better.get(k, better.get(f"engine.{k}", "lower")) != "higher"
        wins = sum((h < b) if lower else (h > b) for b, h in pts)
        change = f"{(hq[1] - bq[1]) / bq[1] * 100:+.1f} %" if bq[1] else "-"
        cell = lambda q: f"{fmt(q[1])} [{fmt(q[0])} .. {fmt(q[2])}]"
        print(f"{indent + k:<28} {cell(bq):<36} {cell(hq):<36} {change:>8}  {wins}/{len(pts)}")
print(f"(raw output: {out})")
PY
