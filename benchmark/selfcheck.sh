#!/usr/bin/env bash
# Runs the benchmark against itself: two sets of N runs of every workload,
# the sets interleaved run by run, same code on both sides.
#
#   benchmark/selfcheck.sh [N]       N >= 5 runs per set and workload (default 5)
#   benchmark/selfcheck.sh --smoke   every workload once at reduced scale (CI)
#
# Run i of both sets uses seed i, so the two sets must agree on every counter
# to the last digit, and on every clock within the metric's bound. Prints, per
# workload and end-to-end metric, both series, medians, quartiles, the
# relative difference of the medians against the bound, and the spread
# (interquartile distance over median) of each set across its N seeds.
# Exits non-zero when a median moved by more than its bound, a counter
# differs between the sets, or a run fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec python3 - "$@" <<'PY'
import json, os, statistics, subprocess, sys, time

spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
COUNTERS = {"wire_bytes_per_batch", "wire_msgs_per_batch"}


def run(workload, seed, extra=()):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0", *extra]
    started = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    took = time.time() - started
    if out.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"FAIL: {' '.join(cmd)} reported {result['failed']} failures")
    return {k: v["value"] for k, v in result["metrics"].items()}, took


if "--smoke" in sys.argv[1:]:
    started = time.time()
    for w in workloads:
        _, took = run(w, 1, ["--smoke"])
        print(f"smoke {w:14s} ok in {took:5.1f} s")
    total = time.time() - started
    print(f"smoke total {total:.1f} s")
    sys.exit(0 if total < 30 else f"FAIL: smoke took {total:.1f} s, limit 30 s")

n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
if n < 5:
    sys.exit("N must be at least 5")

print(f"selfcheck: 2 interleaved sets x {n} runs x {len(workloads)} workloads, seeds 1..{n}, "
      f"--seconds {spec['run_seconds']}, {os.cpu_count()} cores")
sets = {w: ([], []) for w in workloads}
longest = 0.0
for i in range(1, n + 1):
    for w in workloads:
        for side in (0, 1):
            values, took = run(w, i)
            sets[w][side].append(values)
            longest = max(longest, took)
            print(f"run {i}/{n} set {'AB'[side]} {w:14s} {took:5.1f} s", file=sys.stderr)


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


failures = []
for w in workloads:
    print(f"\n== {w}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = [r[name] for r in sets[w][0]]
        b = [r[name] for r in sets[w][1]]
        ma, mb = statistics.median(a), statistics.median(b)
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (mb - ma) / ma
        spreads = []
        print(f"{name} [{m['unit']}], {m['better']} is better, bound {bound}")
        for label, series, med in (("A", a, ma), ("B", b, mb)):
            q1, q3 = quartiles(series)
            spreads.append((q3 - q1) / med)
            print(f"  {label}: " + " ".join(f"{v:.6g}" for v in series))
            print(f"     median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  spread {spreads[-1]:.4f}")
        verdict = "ok"
        if name in COUNTERS and a != b:
            verdict = "COUNTER DIFFERS"
        elif abs(worse) > bound:
            verdict = "BEYOND BOUND"
        elif abs(worse) > bound / 2:
            verdict = "ok (beyond half the bound: add sampled rounds before touching the bound)"
        wide = name != "setup_s" and max(spreads) > bound / 3
        print(f"  B against A: {worse:+.4f} of the median, bound {bound}: {verdict}"
              + ("; spread above a third of the bound" if wide else ""))
        if verdict.isupper():
            failures.append(f"{w} {name}: {verdict}")

print(f"\nlongest run {longest:.1f} s")
if failures:
    print("FAIL:\n  " + "\n  ".join(failures))
    sys.exit(1)
print(f"PASS: two interleaved sets of {n} runs agree within every bound")
PY
