"""Tests of the benchmark's independent route and of its tracing.

Run from the repository root with `python3 -m pytest perfbench -q`.
The oracles are derived here again rather than imported from the test
suite under tests/.
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import route  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_three_horocycle_face_matches_quadrature_picture():
    # ideal points 0, 1, inf: horocycles y = 1 and circles of radius 1/2
    # centred at (0, 1/2) and (1, 1/2); every arc has length 1
    top = quad(lambda x: 1.0, 0.0, 1.0)[0]
    side = quad(lambda t: 0.5 / (0.5 + 0.5 * math.sin(t)), 0.0, math.pi / 2)[0]
    assert top == pytest.approx(1.0, abs=1e-12)
    assert side == pytest.approx(1.0, abs=1e-12)
    for gen, l, L in route.face(1.0, 1.0, 1.0):
        assert gen is None
        assert l == pytest.approx(side, abs=1e-12)
        assert L == pytest.approx(1.0, abs=1e-12)


def test_symmetric_circle_face_matches_cosine_law():
    # equilateral triangle of side 2 arccoth 2: cos theta = 5/8 and
    # L = theta cosh r with cosh r = 2 / sqrt(3)
    expect = math.acos(5.0 / 8.0) * 2.0 / math.sqrt(3.0)
    for _, _, L in route.face(2.0, 2.0, 2.0):
        assert L == pytest.approx(expect, abs=1e-12)


def test_symmetric_tetrahedron_scalar_oracle():
    # L = 1 at every vertex of the tetrahedron: each vertex has three
    # congruent all-hypercycle corners with L = 1/3, i.e. s sinh r = 1/3 with
    # the right-angled hexagon side cosh s = cosh 2r / (cosh 2r - 1)
    def eq(r):
        s = math.acosh(math.cosh(2.0 * r) / (math.cosh(2.0 * r) - 1.0))
        return s * math.sinh(r) - 1.0 / 3.0
    k = math.tanh(brentq(eq, 1e-4, 1.0, xtol=1e-15))
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for L in route.vertex_L(faces, [k] * 4):
        assert L == pytest.approx(1.0, abs=1e-10)


def _kind_sample(rng, kinds):
    ks = []
    for kd in kinds:
        if kd == "circle":
            ks.append(1.0 + rng.uniform(0.02, 5.0))
        elif kd == "hypercycle":
            ks.append(rng.uniform(0.05, 0.98))
        else:
            ks.append(1.0)
    rng.shuffle(ks)
    return ks


@pytest.mark.parametrize("case, kinds", enumerate([
    ("circle",) * 3, ("circle", "circle", "hypercycle"),
    ("circle", "hypercycle", "hypercycle"), ("hypercycle",) * 3,
    ("horocycle", "circle", "hypercycle"), ("horocycle", "horocycle", "circle"),
]))
def test_route_matches_program_quadrature(case, kinds):
    from hypack.tangency import realize_face
    rng = np.random.default_rng(case)
    for _ in range(15):
        ks = _kind_sample(rng, kinds)
        emb = realize_face(*ks)
        for i, (_, l, L) in enumerate(route.face(*ks)):
            assert l == pytest.approx(emb.arc_length(i, method="quadrature"), rel=1e-8)
            assert L == pytest.approx(l * ks[i], rel=1e-15)


def test_route_matches_quadrature_on_the_fault_face():
    from hypack.tangency import realize_face
    ks = workloads.FAULT_FACE
    emb = realize_face(*ks)
    for i, (_, l, _) in enumerate(route.face(*ks)):
        assert l == pytest.approx(emb.arc_length(i, method="quadrature"), rel=1e-9)


def test_polygon_area_of_the_all_hypercycle_face_is_pi():
    assert route.polygon_area(0.3, 0.5, 0.7) == math.pi


def test_surfaces():
    n, faces = route.genus2()
    assert (n, len(faces), route.euler_characteristic(n, faces)) == (15, 34, -2)
    for a, b in ((4, 5), (16, 16), (32, 32)):
        n, faces = route.torus_grid(a, b)
        assert (n, len(faces), route.euler_characteristic(n, faces)) == (a * b, 2 * a * b, 0)
    sizes = [route.surface(name)[0] for name in workloads.NAMES]
    assert sizes == [15, 256, 20, 1024]


def test_face_case():
    assert route.face_case(2.0, 3.0, 4.0) == "triangle"
    assert route.face_case(2.0, 3.0, 0.5) == "quad"
    assert route.face_case(2.0, 0.3, 0.5) == "pentagon"
    assert route.face_case(0.2, 0.3, 0.5) == "hexagon"
    assert route.face_case(1.0, 0.3, 5.0) == "horocycle"


def test_tracing_skips_a_renamed_function(monkeypatch, capsys):
    import hypack
    renamed = tuple((m, "solve_face_renamed" if a == "solve_face" else a, s)
                    for m, a, s in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", renamed + (("hypack.no_such_module", "f", "x"),))
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        n, faces = route.genus2()
        tri = hypack.Triangulation(n, faces)
        span = rec.open(rec.name_id("op"))
        hypack.report_document(hypack.realize_metric(tri, np.zeros(n)))
        rec.close(span)
        metrics = tracing.layer_metrics(rec, [span], [])
    finally:
        tracing.uninstall(undo)
    assert rec.missing == ["hypack.packing.solve_face_renamed", "hypack.no_such_module.f"]
    assert "solve_face_renamed" in capsys.readouterr().err
    assert "tangency.solve_face_calls" not in metrics
    assert "tangency.face_evals" not in metrics
    assert metrics["packing.report_s"]["value"] > 0.0
    assert metrics["realize.report_doc_s"]["value"] > 0.0
    assert metrics["realize.self_s"]["value"] < metrics["realize.metric_s"]["value"]
    assert not hasattr(hypack.realize_metric, "__wrapped__")
