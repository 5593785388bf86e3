"""qformkit benchmark: seeded workloads of exact verdicts, timed in rounds.

    python3 perfbench/run.py --workload contain-sweep --seed 0 --seconds 40 --trace 0

Run from the root of a qformkit checkout; qformkit is imported from its
src/ directory and nowhere else.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
--workload all runs every workload, each in a process of its own.

Every run does a fixed amount of work: the workload's seeded corpus,
visited in a fixed number of rounds (set by --seconds and the measured
cost of a round on the reference machine, see README), each round in a
seeded shuffled order, one verdict at a time.  Timings are medians and
percentiles pooled over all rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = ("contain-sweep", "poly-divide", "simdiag-pairs", "cli-oneshot")

# Seconds one round of each corpus takes on the reference machine (see
# README); --seconds S gives round(S / ROUND_SECONDS) rounds.
ROUND_SECONDS = {"contain-sweep": 7.4, "poly-divide": 7.0, "simdiag-pairs": 4.4, "cli-oneshot": 5.0}

SETUP_SAMPLES = 5  # fresh interpreters per set-up measurement; the median is reported
CLI_SAMPLES = 5  # fresh interpreters per cli.* layer measurement

END_TO_END_UNITS = {
    "setup_s": "s", "verdicts_per_s": "1/s", "verdict_ms_p50": "ms", "verdict_ms_tail": "ms",
    "confirm_ms_p50": "ms", "refute_ms_p50": "ms", "peak_rss_mb": "MB",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples beyond
    it (50 when n < 20), and the nearest-rank index of that percentile."""
    p = max(50, math.floor(100 * (1 - 10 / n))) if n else 50
    return p, max(0, math.ceil(p * n / 100) - 1)


class Verdicts:
    """Outcome bookkeeping: the first output of each item is checked
    independently; a repeat is compared with it by key."""

    def __init__(self, items, cli):
        self.items = items
        self.cli = cli
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.reasons = {}

    def judge(self, i, out, exc):
        item = self.items[i]
        self.attempted += 1
        if exc is not None:
            reason = f"raised {type(exc).__name__}: {exc}"
        elif self.cli:
            prev = self.first.get(i)
            if prev is None:
                reason = W.check_cli(item, out)
                self.first[i] = (out, reason)
            elif prev[0] == out:
                reason = prev[1]
            else:
                reason = "output differs from an earlier run of the same command"
        else:
            k = W.key(item["kind"], out)
            prev = self.first.get(i)
            if prev is not None and prev[0] == k:
                reason = prev[1]
            else:
                reason = W.check_output(item, out)
                self.first.setdefault(i, (k, reason))
        if reason is None:
            return True
        self.failed += 1
        self.reasons.setdefault(item["name"], reason)
        if not item["fault"]:
            self.unexpected.append(item["name"])
        return False


class Bench:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.items = corpus.build(workload, seed)
        self.cli = workload == "cli-oneshot"
        self.rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
        self.order_rng = random.Random(f"order:{workload}:{seed}")
        self.verdicts = Verdicts(self.items, self.cli)
        self.workdir = None
        if self.cli:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            self.workdir = tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=out)
            self.argvs = W.write_cli_files(self.items, self.workdir)
        else:
            self.parsed = [W.parse_inputs(item) for item in self.items]

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def call(self, i, inprocess_cli=False):
        """The verdict of item i, untimed wrapper: (output, exception)."""
        try:
            if self.cli:
                if inprocess_cli:
                    return W.inprocess_cli(self.argvs[i]), None
                return W.spawn_cli(self.argvs[i], str(ROOT)), None
            return W.RUNNERS[self.items[i]["kind"]](self.parsed[i]), None
        except Exception as exc:  # a verdict that raises is a failed verdict
            return None, exc

    def orders(self, rounds):
        for _ in range(rounds):
            order = list(range(len(self.items)))
            self.order_rng.shuffle(order)
            yield order

    def timed_rounds(self, rounds, inprocess_cli=False):
        """[(item index, ns, ok)] over `rounds` shuffled rounds."""
        samples = []
        gc.collect()
        gc.freeze()  # keep the corpus out of the collector's generations
        for order in self.orders(rounds):
            for i in order:
                start = perf_counter_ns()
                out, exc = self.call(i, inprocess_cli)
                elapsed = perf_counter_ns() - start
                samples.append((i, elapsed, self.verdicts.judge(i, out, exc)))
        gc.unfreeze()
        return samples

    # --- end-to-end -------------------------------------------------------

    def setup_seconds(self):
        """Median over fresh interpreters of importing qformkit and parsing
        this corpus through its loaders."""
        spec = json.dumps({
            "module": "qformkit.cli" if self.cli else "qformkit",
            "inputs": [[loader, obj] for item in self.items for loader, obj in item["inputs"].values()],
        })
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        values = []
        for _ in range(SETUP_SAMPLES):
            proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=spec,
                                  capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
            values.append(float(proc.stdout.strip().splitlines()[-1]))
        return statistics.median(values)

    def end_to_end(self):
        samples = self.timed_rounds(self.rounds)
        usage = resource.RUSAGE_CHILDREN if self.cli else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(usage).ru_maxrss / 1024
        setup = self.setup_seconds()
        ok = [(i, ns) for i, ns, good in samples if good]
        times = sorted(ns / 1e6 for _, ns in ok)
        p, idx = tail_percentile(len(times))

        def p50(outcome):
            return statistics.median(ns / 1e6 for i, ns in ok if self.items[i]["outcome"] == outcome)

        values = {
            "setup_s": setup,
            "verdicts_per_s": len(ok) / (sum(ns for _, ns, _ in samples) / 1e9),
            "verdict_ms_p50": statistics.median(times),
            "verdict_ms_tail": times[idx],
            "confirm_ms_p50": p50("confirm"),
            "refute_ms_p50": p50("refute"),
            "peak_rss_mb": peak_mb,
        }
        log(f"{self.workload} seed {self.seed}: {self.rounds} rounds of {len(self.items)} items, "
            f"{len(times)} timed verdicts; verdict_ms_tail is p{p}")
        return {name: (v, END_TO_END_UNITS[name]) for name, v in values.items()}

    # --- per layer --------------------------------------------------------

    def per_layer(self):
        from spans import Tracer, count_constructions

        half = max(1, self.rounds // 2)
        untraced = self.timed_rounds(half, inprocess_cli=True)
        tracer = Tracer()
        verdict_ns, good = [], 0
        bits = 0
        tracer.install()
        try:
            for order in self.orders(half):
                for i in order:
                    if self.cli:
                        out, exc, ns = tracer.span("verdict", W.inprocess_cli, self.argvs[i])
                    else:
                        # parsed again under spans, outside the verdict, for the parse_ms metrics
                        parsed, exc, _ = tracer.span("setup.parse", W.parse_inputs, self.items[i])
                        out, exc, ns = tracer.span("verdict", W.RUNNERS[self.items[i]["kind"]], parsed)
                    verdict_ns.append(ns)
                    good += self.verdicts.judge(i, out, exc)
                    bits = max(bits, tracer.diag_bits_max())
        finally:
            tracer.remove()
        fractions = quadexts = counted = 0
        for i in range(len(self.items)):
            fn = (lambda i=i: W.inprocess_cli(self.argvs[i])) if self.cli else (
                lambda i=i: W.RUNNERS[self.items[i]["kind"]](self.parsed[i]))
            out, exc, nf, nq = count_constructions(fn)
            self.verdicts.judge(i, out, exc)
            fractions, quadexts, counted = fractions + nf, quadexts + nq, counted + 1
        spans_path = self.write_spans(tracer)
        s = tracer.summarize()
        v = len(verdict_ns)

        def ms(name, table="incl_ns"):
            return s[table].get(name, 0) / v / 1e6

        def per(name):
            return s["calls"].get(name, 0) / v

        rate_u = sum(1 for *_, good in untraced if good) / (sum(ns for _, ns, _ in untraced) / 1e9)
        rate_t = good / (sum(verdict_ns) / 1e9)
        interp, imp, numpy_imp = self.cli_layers()
        values = {
            "forms.diagonalize_ms": (ms("forms.diagonalize"), "ms"),
            "forms.diagonalize_calls": (per("forms.diagonalize"), "count"),
            "forms.diag_bits_max": (bits, "bits"),
            "forms.classify_ms": (ms("forms.classify"), "ms"),
            "forms.evaluate_ms": (ms("forms.evaluate"), "ms"),
            "forms.evaluate_calls": (per("forms.evaluate"), "count"),
            "forms.parse_ms": (ms("forms.parse"), "ms"),
            "linalg.mat_mul_ms": (ms("linalg.mat_mul"), "ms"),
            "linalg.mat_vec_ms": (ms("linalg.mat_vec"), "ms"),
            "linalg.mat_vec_calls": (per("linalg.mat_vec"), "count"),
            "linalg.rref_ms": (ms("linalg.rref"), "ms"),
            "linalg.rref_calls": (per("linalg.rref"), "count"),
            "scalars.quadext_made": (quadexts / counted, "count"),
            "scalars.fraction_made": (fractions / counted, "count"),
            "containment.decide_self_ms": (ms("containment.decide", "self_ns"), "ms"),
            "containment.witness_ms": (ms("containment.witness"), "ms"),
            "containment.members_tried": (tracer.under("containment.witness", "linalg.mat_vec") / v, "count"),
            "containment.verify_ms": (ms("containment.verify"), "ms"),
            "polys.divide_ms": (ms("polys.divide"), "ms"),
            "polys.evaluate_ms": (ms("polys.evaluate"), "ms"),
            "polys.evaluate_calls": (per("polys.evaluate"), "count"),
            "polys.sample_ms": (ms("polys.sample"), "ms"),
            "polys.sample_calls": (per("polys.sample"), "count"),
            "polys.verify_ms": (ms("polys.verify"), "ms"),
            "polys.parse_ms": (ms("polys.parse"), "ms"),
            "semidefinite.psd_self_ms": (ms("semidefinite.psd", "self_ns"), "ms"),
            "semidefinite.kernel_ms": (ms("semidefinite.kernel"), "ms"),
            "semidefinite.classify_calls": (tracer.under("semidefinite.simdiag", "forms.classify") / v, "count"),
            "relativity.check_ms": (ms("relativity.check"), "ms"),
            "cli.interpreter_ms": (interp, "ms"),
            "cli.import_ms": (imp, "ms"),
            "cli.numpy_import_ms": (numpy_imp, "ms"),
            "trace.untraced_verdicts_per_s": (rate_u, "1/s"),
            "trace.traced_verdicts_per_s": (rate_t, "1/s"),
            "trace.overhead_pct": ((rate_u / rate_t - 1) * 100, "%"),
        }
        log(f"{self.workload} seed {self.seed}: traced {v} verdicts in {half} rounds; spans in {spans_path}")
        return values

    def write_spans(self, tracer):
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{self.workload}-s{self.seed}.json"
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": tracer.spans}, fh)
        return path

    def cli_layers(self):
        """Medians over fresh interpreters: bare start-up (spawn to exit),
        and the in-process time of `import qformkit.cli` and of `import numpy`."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        timer = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
        interp, imp, numpy_imp = [], [], []
        for _ in range(CLI_SAMPLES):
            start = perf_counter_ns()
            subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT, timeout=60)
            interp.append((perf_counter_ns() - start) / 1e6)
            for module, into in (("qformkit.cli", imp), ("numpy", numpy_imp)):
                proc = subprocess.run([sys.executable, "-c", timer.format(module)], check=True, env=env,
                                      cwd=ROOT, capture_output=True, text=True, timeout=60)
                into.append(float(proc.stdout) * 1000)
        return statistics.median(interp), statistics.median(imp), statistics.median(numpy_imp)


def result_line(bench, metrics):
    v = bench.verdicts
    for name, reason in sorted(v.reasons.items()):
        log(f"  failed: {name}: {reason}")
    return {
        "correct": not v.unexpected,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Each workload in a process of its own; one line per workload, then a
    summary whose metric names carry the workload as a prefix."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            log(f"{workload}: exit {proc.returncode}")
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": workload, **line}), flush=True)
        summary["correct"] = summary["correct"] and line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        for name, m in line["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "qformkit" / "__init__.py").is_file():
        log(f"error: no qformkit sources under {src}; run from the root of a qformkit checkout")
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    W.load()
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        bench.close()
    print(json.dumps(result_line(bench, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
