"""hypack benchmark: four short-operation workloads, checked against an
independent half-plane route.

One run (this is what BENCHMARK.json's command names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Every workload runs in a fresh interpreter with OpenBLAS/OpenMP pinned to
one thread.  With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics from spans around each layer.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record of the run (every
repetition's time, the src/ line count, the spans' summary) is written to
DIR (default perfbench/out/runs).

Two sets of runs, each a directory of run records written with --out,
compared metric by metric:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload W --seed $s --seconds 20 --trace 0 --out DIR_A
    done
    python3 perfbench/run.py compare DIR_A DIR_B

Exits 2 without a result when the checkout has no src/hypack.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import NAMES as WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5          # timed fresh-interpreter set-ups per run (plus one warm-up)
RUN_LIMIT_S = 170.0       # a run must end well inside 180 s
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _env():
    env = dict(os.environ)
    env.update(PIN)
    env.pop("PYTHONPATH", None)          # the worker puts the checkout's src/ first
    return env


def _worker(args, timeout):
    """Run the worker; return its last stdout line, or exit on failure."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker {' '.join(args)} did not finish within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return lines[-1]


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# Seconds of each speed probe (worker.py) on the reference machine at its
# best speed (README, "Estimator").
PROBE_REF_S = {"python": 0.014, "numpy": 0.019}


def op_seconds(res):
    """Seconds per operation: each instance's fastest repetition, scaled to
    the reference speed by the low tenth of its probes (the mean of each
    before/after pair), averaged over the instances (whose work differs).
    The low tenth, not the fastest probe, so that one freak probe does not
    set the scale; runs of fewer than ten repetitions use the fastest."""
    per = []
    for label in res["timed_ops"]:
        probes = [0.5 * (b + a) for b, a in res["probes"][label]]
        best = statistics.quantiles(probes, n=10)[0] if len(probes) >= 10 else min(probes)
        per.append(min(res["times"][label]) * PROBE_REF_S[res["probe"]] / best)
    return sum(per) / len(per)


def setup_seconds(setups):
    """Median of the set-ups, each scaled by the probes just before and
    just after it."""
    return statistics.median(t * PROBE_REF_S["python"] / (0.5 * (b + a))
                             for t, b, a in setups)


def raw_op_seconds(res, estimator):
    per = [estimator(res["times"][label]) for label in res["timed_ops"]]
    return sum(per) / len(per)


def run_once(a) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "hypack", "__init__.py")):
        print(f"no hypack sources under {os.path.join(ROOT, 'src')}; nothing to measure",
              file=sys.stderr)
        return 2
    if a.workload not in WORKLOADS:
        print(f"unknown workload {a.workload!r}; expected one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    began = time.perf_counter()
    setups = []                            # (seconds, probe before, probe after)
    if not a.trace:
        for i in range(SETUP_PROBES + 1):
            value = json.loads(_worker(["setup", a.workload], 60))
            if i:                          # the first one warms the file cache
                setups.append(value)
    os.makedirs(a.out, exist_ok=True)
    stem = os.path.join(a.out, f"{a.workload}-seed{a.seed}-trace{int(a.trace)}")
    left = RUN_LIMIT_S - (time.perf_counter() - began)
    res = json.loads(_worker(["run", a.workload, str(a.seed), repr(a.seconds),
                              str(int(a.trace)), stem + ".spans.npz" if a.trace else "-"],
                             left))

    timed = [t for label in res["timed_ops"] for t in res["times"][label]]
    record = dict(res)
    record.update({"src_lines": src_lines(), "python": platform.python_version(),
                   "machine": f"{os.cpu_count()} cpus, {platform.machine()}",
                   "setups": setups,
                   "raw_setup_s": statistics.median(t for t, _, _ in setups) if setups else None,
                   "raw_op_s": {"median": raw_op_seconds(res, statistics.median),
                                "min": raw_op_seconds(res, min)}})
    if a.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "op_s": {"value": op_seconds(res), "unit": "s"},
            "setup_s": {"value": setup_seconds(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    record["metrics"] = metrics
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for p in res["problems"]:
        print(f"problem: {p}")
    print(f"src_lines {record['src_lines']}  rounds {res['rounds']}  "
          f"timed ops {len(timed)}  record {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Comparing sets of runs
# ---------------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load(folder):
    runs = []
    for path in sorted(glob.glob(os.path.join(folder, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def compare(a) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [_load(a.first), _load(a.second)]
    names = sorted({r["workload"] for s in sets for r in s})
    print(f"{'workload':17} {'metric':28} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B vs A':>8}  verdict")
    for name in names:
        for trace in (0, 1):
            runs = [[r for r in s if r["workload"] == name and r["trace"] == trace]
                    for s in sets]
            if not all(runs):
                continue
            if trace == 0:
                shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                          for rs in runs]
                print(f"{name:17} {'failed share':28} {shares[0]:34.6f} {shares[1]:34.6f}"
                      f"          {'same' if shares[0] == shares[1] else 'DIFFERENT'}")
            metrics = sorted(set(runs[0][0]["metrics"]) & set(runs[1][0]["metrics"]))
            for m in metrics:
                vals = [[r["metrics"][m]["value"] for r in rs if m in r["metrics"]]
                        for rs in runs]
                qa, qb = _quartiles(vals[0]), _quartiles(vals[1])
                change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                worse = change if better.get(m) == "lower" else -change
                verdict = ""
                if m in bounds:
                    bound = bounds[m]["bound"]
                    spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)]
                    verdict = ("within bound" if worse <= bound else "WORSE than bound") + \
                        f" {bound:.2f}; spreads {spreads[0]:.3f} / {spreads[1]:.3f}"
                print(f"{name:17} {m:28} {qa[1]:12.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                      f"{qb[1]:12.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}] {change:+8.1%}  {verdict}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("first")
        p.add_argument("second")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(HERE, "out", "runs"))
    return run_once(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
