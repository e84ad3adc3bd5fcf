"""Spans around hypack's layers, installed from outside the program.

`install(rec)` replaces each traced function by a wrapper in the module
whose code calls it (solve looks up `vertex_curvature_sums` in
hypack.flow, so that is where the wrapper goes).  Each call records one
span: name, parent span, start and end.  Spans stay in memory and are
written out when the run ends.  A traced name that a later change removes
or renames is skipped with a note, and the metrics that need it are left
out of the result; the run itself goes on.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import route

# (module, attribute, span name).  A span name ending in ":" gets the face
# case of the call's three curvatures appended.
TARGETS = (
    ("hypack.surface", "Triangulation.validate", "surface.validate"),
    ("hypack", "check_admissible", "surface.check"),
    ("hypack.flow", "check_admissible", "surface.check"),
    ("hypack.tangency", "solve_quadrilateral", "hyptrig.polygon"),
    ("hypack.tangency", "solve_pentagon", "hyptrig.polygon"),
    ("hypack.packing", "corner_curvatures", "face:"),
    ("hypack.tangency", "corner_curvatures", "face:"),
    ("hypack.packing", "solve_face", "solve_face:"),
    ("hypack.packing", "face_jacobian", "tangency.jacobian"),
    ("hypack.flow", "vertex_curvature_sums", "packing.L"),
    ("hypack.flow", "global_jacobian", "packing.hessian"),
    ("hypack.realize", "vertex_curvatures", "packing.report"),
    ("hypack.flow", "flow_step", "flow.step"),
    ("hypack", "solve", "flow.solve"),
    ("hypack", "realize_metric", "realize.metric"),
    ("hypack", "report_document", "realize.report_doc"),
)

CASES = ("triangle", "quad", "pentagon", "hexagon", "horocycle")


class Recorder:
    """Spans in parallel columns; index -1 is the root (no parent)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()


def _wrap(rec: Recorder, span: str, fn):
    if span.endswith(":"):
        ids = {c: rec.name_id(span + c) for c in CASES}

        def traced(k1, k2, k3, *a, **kw):
            idx = rec.open(ids[route.face_case(k1, k2, k3)])
            try:
                return fn(k1, k2, k3, *a, **kw)
            finally:
                rec.close(idx)
    else:
        nid = rec.name_id(span)

        def traced(*a, **kw):
            idx = rec.open(nid)
            try:
                return fn(*a, **kw)
            finally:
                rec.close(idx)
    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder) -> list:
    """Wrap every reachable target; note the ones that are gone.  Returns
    what `uninstall` needs to put the originals back."""
    undo = []
    for modname, attr, span in TARGETS:
        where = f"{modname}.{attr}"
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            rec.missing.append(where)
            continue
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, last, None) if owner is not None else None
        if not callable(fn):
            rec.missing.append(where)
            continue
        undo.append((owner, last, fn))
        setattr(owner, last, _wrap(rec, span, fn))
    for where in rec.missing:
        print(f"note: traced function {where} not found; its layer metrics are "
              f"left out", file=sys.stderr)
    return undo


def uninstall(undo: list):
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def layer_metrics(rec: Recorder, op_spans: list[int], solve_traces: list) -> dict:
    """Per-layer metrics over the timed operations.

    Counts and times are per operation (the workload's timed operation is
    the unit); face times are microseconds per face evaluation of each
    case; surface.validate_s is seconds per validate() call, set-up
    included.
    """
    n = len(rec.name)
    names = rec.names
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    # which spans fall under a timed operation
    inside = [False] * n
    ops = set(op_spans)
    for i in range(n):
        p = rec.parent[i]
        inside[i] = i in ops or (p >= 0 and inside[p])
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    validate = []
    for i in range(n):
        nm = names[rec.name[i]]
        if nm == "surface.validate":
            validate.append(dur[i])
        if not inside[i]:
            continue
        count[nm] = count.get(nm, 0) + 1
        total[nm] = total.get(nm, 0.0) + dur[i]
        self_t[nm] = self_t.get(nm, 0.0) + dur[i] - child[i]
    n_ops = max(len(op_spans), 1)
    present = {s for m, a, s in TARGETS if f"{m}.{a}" not in rec.missing}

    def c(nm):
        return count.get(nm, 0) / n_ops

    def t(nm, table=total):
        return table.get(nm, 0.0) / n_ops

    out = {}

    def put(need, name, value, unit):
        if all(s in present for s in need):
            out[name] = {"value": value, "unit": unit}

    put(["surface.validate"], "surface.validate_s",
        sum(validate) / len(validate) if validate else 0.0, "s")
    put(["surface.check"], "surface.check_calls", c("surface.check"), "count")
    put(["surface.check"], "surface.check_s", t("surface.check"), "s")
    put(["hyptrig.polygon"], "hyptrig.polygon_solves", c("hyptrig.polygon"), "count")
    put(["hyptrig.polygon"], "hyptrig.polygon_s", t("hyptrig.polygon"), "s")
    face_names = [p + c_ for p in ("face:", "solve_face:") for c_ in CASES]
    put(["face:", "solve_face:"], "tangency.face_evals",
        sum(count.get(f, 0) for f in face_names) / n_ops, "count")
    for case in CASES:
        calls = count.get("face:" + case, 0) + count.get("solve_face:" + case, 0)
        spent = total.get("face:" + case, 0.0) + total.get("solve_face:" + case, 0.0)
        put(["face:", "solve_face:"], f"tangency.face_us.{case}",
            1e6 * spent / calls if calls else 0.0, "us")
    put(["tangency.jacobian"], "tangency.jacobian_calls", c("tangency.jacobian"), "count")
    put(["tangency.jacobian"], "tangency.jacobian_s", t("tangency.jacobian"), "s")
    sf = ["solve_face:" + c_ for c_ in CASES]
    put(["solve_face:"], "tangency.solve_face_calls",
        sum(count.get(f, 0) for f in sf) / n_ops, "count")
    put(["solve_face:"], "tangency.solve_face_s",
        sum(total.get(f, 0.0) for f in sf) / n_ops, "s")
    put(["packing.L"], "packing.L_evals", c("packing.L"), "count")
    put(["packing.L"], "packing.L_s", t("packing.L"), "s")
    put(["packing.hessian"], "packing.hessian_builds", c("packing.hessian"), "count")
    put(["packing.hessian"], "packing.hessian_s", t("packing.hessian"), "s")
    put(["packing.hessian"], "packing.hessian_self_s", t("packing.hessian", self_t), "s")
    put(["packing.report"], "packing.report_s", t("packing.report"), "s")
    put(["flow.step"], "flow.step_attempts", c("flow.step"), "count")
    put(["flow.solve"], "flow.self_s", t("flow.solve", self_t), "s")
    put(["realize.metric"], "realize.metric_s", t("realize.metric"), "s")
    put(["realize.metric"], "realize.self_s", t("realize.metric", self_t), "s")
    put(["realize.report_doc"], "realize.report_doc_s", t("realize.report_doc"), "s")

    # accepted flow steps and Newton steps from the public SolveResult.trace
    phases = []
    for tr in solve_traces:
        ph = getattr(tr, "phase", None)
        if ph is None:
            phases = None
            break
        phases.append(list(ph))
    if phases is None:
        print("note: SolveResult.trace has no phase list; flow step counts are "
              "left out", file=sys.stderr)
    else:
        # the first trace row is the starting state, not a step
        acc = sum(max(p.count("flow") - 1, 0) for p in phases) / n_ops
        newton = sum(p.count("newton") for p in phases) / n_ops
        out["flow.accepted_steps"] = {"value": acc, "unit": "count"}
        out["flow.newton_steps"] = {"value": newton, "unit": "count"}
        if "flow.step" in present:
            attempts = c("flow.step")
            out["flow.step_accept_ratio"] = {
                "value": acc / attempts if attempts else 0.0, "unit": "ratio"}
    return out


def dump(rec: Recorder, path: str):
    """Write every span: names table plus the four columns."""
    import numpy as np
    np.savez_compressed(path, names=np.array(rec.names),
                        name=np.frombuffer(rec.name, dtype=np.int32),
                        parent=np.frombuffer(rec.parent, dtype=np.int32),
                        start=np.frombuffer(rec.start, dtype=np.float64),
                        end=np.frombuffer(rec.end, dtype=np.float64))
