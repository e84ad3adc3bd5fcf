"""One workload in a fresh interpreter; started by run.py, not by hand.

    worker.py setup <workload>
        time `import hypack` plus building and validating the workload's
        Triangulation, with a speed probe just before and just after it;
        print the three seconds.
    worker.py run <workload> <seed> <seconds> <trace> <spans-file>
        build the seeded inputs, run whole rounds of the workload's
        operations for <seconds>, check every output and print one JSON
        object with the timings, counts and (traced) layer metrics.  Each
        timed operation is bracketed by two speed probes.

The speed probes are fixed loops of the benchmark's own, one for Python
arithmetic and one for numpy passes over 8 MB arrays.  A shared virtual
machine can switch between a fast and a slow state about 1.5 times apart
within seconds (README, "Estimator"), so run.py scales each time by the
probes taken around it.

run.py sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1
in the environment, so the pin is in place before numpy loads.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]


def _import_hypack():
    import hypack
    if not os.path.abspath(hypack.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hypack was imported from {hypack.__file__}, not from {SRC}")
    return hypack


def python_probe() -> float:
    """Seconds for a fixed pure-Python float loop."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(200_000):
        s += (i % 7) * 0.5
    return time.perf_counter() - t0


class NumpyProbe:
    """Seconds for two masked accumulations over 2^20 int64 entries, the
    kind of pass check_admissible makes."""

    def __init__(self):
        import numpy as np
        self.masks = np.arange(1 << 20, dtype=np.int64)
        self.acc = np.zeros(1 << 20)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.acc.fill(0.0)
        for i in range(2):
            self.acc += 0.5 * ((self.masks >> i) & 1)
        return time.perf_counter() - t0


def setup_probe(name: str):
    import route                         # the standard library's math only
    n, faces = route.surface(name)
    before = python_probe()
    t0 = time.perf_counter()
    hp = _import_hypack()
    tri = hp.Triangulation(n, faces)
    defects = tri.validate()
    t1 = time.perf_counter()
    after = python_probe()
    if defects:
        raise SystemExit(f"{name}: surface is not closed: {defects[:3]}")
    print(json.dumps([t1 - t0, before, after]))


def run(name: str, seed: int, seconds: float, trace: bool, spans_path: str):
    rec = None
    if trace:
        import tracing
        hp = _import_hypack()
        rec = tracing.Recorder()
        tracing.install(rec)
    else:
        hp = _import_hypack()
    import workloads
    ops, facts = workloads.build(name, seed, hp)
    kind = workloads.PROBE[name]
    probe = NumpyProbe() if kind == "numpy" else python_probe

    try:                                 # warm-up, not counted
        probe()
        ops[0].run()
    except Exception:                    # counted when the timed loop meets it
        pass

    verdicts: dict = {}                  # output bytes -> problems found
    times = {op.label: [] for op in ops}
    probes = {op.label: [] for op in ops if op.timed}   # (before, after) pairs
    op_spans: list[int] = []
    solve_traces = []
    attempted = failed = 0
    problems: list[str] = []
    rounds = 0
    t_start = time.perf_counter()
    while True:
        for op in ops:
            attempted += 1
            if op.timed:
                before = probe()
            if rec is not None and op.timed:
                span = rec.open(rec.name_id("op"))
            t0 = time.perf_counter()
            try:
                out = op.run()
                err = None
            except Exception as exc:     # an operation that raises has failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if op.timed:
                probes[op.label].append((before, probe()))
            if rec is not None and op.timed:
                rec.close(span)
                op_spans.append(span)
                if hasattr(out, "trace"):
                    solve_traces.append(out.trace)
            times[op.label].append(dt)
            if err is None:
                key = (op.label, op.key(out))
                if key not in verdicts:
                    verdicts[key] = op.check(out)
                bad = verdicts[key]
            else:
                bad = [err]
            if bad:
                failed += 1
                if not op.known_fault:
                    problems.append(f"{op.label}: " + "; ".join(bad))
        rounds += 1
        if time.perf_counter() - t_start >= seconds:
            break
    elapsed = time.perf_counter() - t_start
    # report bytes must repeat exactly: one distinct output per operation
    for op in ops:
        keys = {k for k in verdicts if k[0] == op.label}
        if len(keys) > 1:
            problems.append(f"{op.label}: {len(keys)} different outputs in one run")

    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "rounds": rounds, "elapsed_s": elapsed,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "times": {label: ts for label, ts in times.items()},
        "probe": kind, "probes": probes,
        "timed_ops": list(dict.fromkeys(op.label for op in ops if op.timed)),
        "known_fault_ops": list(dict.fromkeys(op.label for op in ops if op.known_fault)),
        "facts": facts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        result["layers"] = tracing.layer_metrics(rec, op_spans, solve_traces)
        result["missing"] = rec.missing
        result["spans"] = len(rec.name)
        if spans_path != "-":
            tracing.dump(rec, spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 3:
        setup_probe(sys.argv[2])
    elif mode == "run" and len(sys.argv) == 7:
        run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1",
            sys.argv[6])
    else:
        raise SystemExit(__doc__)
