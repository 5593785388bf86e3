"""Steadiness of the end-to-end metrics across seeds and across sets of runs.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads poly-divide --runs 5

Runs perfbench/run.py once per seed for each workload (seeds
base + 1000*set + k), one run at a time, and prints for every end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.
The spread of setup_s is shown but not held to its bound.  With two or
more sets it also prints how much each later set's median is worse than
the first's, against the same bound, and whether the share of failed
verdicts is exactly the same in every run.  Raw results go to
perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first, later, better):
    """How much `later` is worse than `first`, as a share of `first`."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for s in range(args.sets):
        for k in range(args.runs):
            seed = args.base_seed + 1000 * s + k
            for w in args.workloads:
                start = time.monotonic()
                line = run_once(w, seed, args.seconds, 0)
                results[w][s].append({"seed": seed, "wall_s": time.monotonic() - start, **line})
                print(f"set {s} {w} seed {seed}: {time.monotonic() - start:.1f}s wall, "
                      f"{line['failed']}/{line['attempted']} failed, correct={line['correct']}",
                      file=sys.stderr, flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    raw = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    raw.write_text(json.dumps({"args": vars(args), "results": results}, indent=1))

    all_ok = True
    for w in args.workloads:
        print(f"\n{w}")
        print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>7s} {'bound':>6s}")
        medians = {}
        for m in spec["end_to_end"]:
            for s in range(args.sets):
                values = [r["metrics"][m["name"]]["value"] for r in results[w][s]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                gated = m["name"] != "setup_s"
                flag = "" if not gated else ("ok" if spread <= m["bound"] / 3 else
                                             ("over 1/3" if spread <= m["bound"] else "OVER"))
                all_ok &= spread <= m["bound"] or not gated
                medians.setdefault(m["name"], []).append(med)
                print(f"  {m['name']:18s} {s:3d} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} "
                      f"{m['bound']:6.2f} {flag}")
        for name, meds in medians.items():
            m = next(x for x in spec["end_to_end"] if x["name"] == name)
            for s in range(1, len(meds)):
                drift = worse_by(meds[0], meds[s], m["better"])
                all_ok &= drift <= m["bound"]
                print(f"  {name:18s} set {s} median worse than set 0 by {drift:+.3f} "
                      f"(bound {m['bound']}) {'ok' if drift <= m['bound'] else 'OVER'}")
        shares = {(r["failed"], r["attempted"]) for rs in results[w] for r in rs}
        ratios = {f / a for f, a in shares}
        all_ok &= len(ratios) == 1
        print(f"  failed/attempted: {sorted(shares)} -> {'same share' if len(ratios) == 1 else 'DIFFERENT'}")
        walls = [r["wall_s"] for rs in results[w] for r in rs]
        print(f"  wall per run: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    print(f"\nraw results: {raw}\n{'steady' if all_ok else 'NOT steady'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
