import json
import math
import re

import numpy as np
import pytest

import hypack.packing
import hypack.realize
from hypack.flow import solve
from hypack.packing import vertex_curvatures
from hypack.realize import (
    RealizedMetric,
    classify,
    gauss_bonnet_audit,
    realize_metric,
    render_face_svg,
    report_document,
)
from hypack.surface import Triangulation
from hypack.tangency import KIND_TOL

from conftest import OCTA_FACES, radius, torus_grid

CONE_ALL2 = 2.6869943815735949          # 3 * arccos(5/8)
BOUNDARY_TETRA = 17.030678280288161     # 3 * s(r*)


def _mixed_states(rng):
    """A mixed octahedron state and a 6x6 torus state with exact cusps."""
    K_torus = np.where(rng.random(36) < 0.2, 0.0, rng.normal(0.0, 0.7, 36))
    return [(Triangulation(6, OCTA_FACES), np.log([2.0, 0.5, 1.0, 1.7, 0.3, 3.0])),
            (torus_grid(6, 6), K_torus)]


def _json_report(metric):
    """The report as a dict through json.dumps: the byte oracle of report_document."""
    vertices = []
    for v in range(len(metric.k)):
        rec = {"index": v, "k": float(metric.k[v]),
               "class": metric.classes[v], "L": float(metric.L[v])}
        if metric.classes[v] == "cone":
            rec["cone_angle"] = metric.cone_angles[v]
            rec["gaussian_curvature"] = metric.gaussian_curvature[v]
        elif metric.classes[v] == "boundary":
            rec["boundary_length"] = metric.boundary_lengths[v]
        else:
            rec["cusp"] = True
        vertices.append(rec)
    doc = {
        "schema_version": 1,
        "vertices": vertices,
        "global": {
            "chi_S": metric.chi_surface,
            "chi_realized": metric.chi_realized,
            "total_area": metric.total_area,
            "audit_residual": metric.audit_residual,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _torus32_with_cusps(rng):
    K = np.where(rng.random(1024) < 0.2, 0.0, rng.normal(0.0, 0.7, 1024))
    return torus_grid(32, 32), K


class TestClassify:
    def test_solved_tetrahedron(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4))
        i1, i2, i3 = classify(np.exp(res.K))
        assert i1 == (0, 1, 2, 3)
        assert i2 == () and i3 == ()

    def test_cusps_within_tolerance(self):
        i1, i2, i3 = classify([1.0, 1.0 + 1e-12, 1.0 - 1e-12])
        assert i2 == (0, 1, 2)

    def test_one_of_each(self):
        i1, i2, i3 = classify([0.5, 1.0, 2.0])
        assert (i1, i2, i3) == ((0,), (1,), (2,))

    def test_partition(self, rng):
        for tol in (1e-12, 1e-9, 1e-3):
            k = 10.0 ** rng.uniform(-1, 1, size=12)
            i1, i2, i3 = classify(k, tol)
            assert sorted(i1 + i2 + i3) == list(range(12))

    def test_positive_only(self):
        with pytest.raises(ValueError):
            classify([1.0, -0.5])

    def test_tolerance_below_kernel_horocycle_tolerance(self, tetrahedron):
        # the face kernel solves |k - 1| <= KIND_TOL as a horocycle, which
        # has no cone angle, so a class tolerance below it is refused
        with pytest.raises(ValueError, match=r"0\.0.*1e-12"):
            classify([1.0 + 1e-13, 2.0], 0.0)
        K = np.log(np.array([1.0 + 1e-13, 2.0, 1.5, 0.5]))
        with pytest.raises(ValueError, match="KIND_TOL"):
            realize_metric(tetrahedron, K, tol=0.0)
        assert realize_metric(tetrahedron, K, tol=KIND_TOL).cusps == (0,)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_not_finite(self, tol):
        # an infinite tolerance would make every vertex a cusp
        with pytest.raises(ValueError, match="must be finite"):
            classify([0.5, 1.0, 2.0], tol)


class TestConeData:
    def test_tetra_all_two(self, tetrahedron):
        K = np.log(np.full(4, 2.0))
        cones = realize_metric(tetrahedron, K).cone_angles
        assert set(cones) == {0, 1, 2, 3}
        for th in cones.values():
            assert th == pytest.approx(CONE_ALL2, abs=1e-12)
        # discrete Gaussian curvature = 2 pi - Theta
        assert 2 * math.pi - cones[0] == pytest.approx(3.5961909256059916, abs=1e-12)

    def test_circle_neighborhood_identity(self, octahedron, rng):
        # L_v = Theta_v cosh r_v when every incident corner is a circle
        K = np.log(rng.uniform(1.5, 4.0, size=6))
        rep = vertex_curvatures(octahedron, K)
        cones = realize_metric(octahedron, K).cone_angles
        for v in range(6):
            r = radius(math.exp(K[v]))
            assert abs(rep.L[v] - cones[v] * math.cosh(r)) < 1e-10

    def test_non_circle_vertex_rejected(self, tetrahedron):
        # the hypercycle vertex 3 has no cone angle
        K = np.log(np.array([2.0, 2.0, 2.0, 0.5]))
        assert set(realize_metric(tetrahedron, K).cone_angles) == {0, 1, 2}


class TestBoundaryData:
    def test_solved_tetrahedron(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4))
        m = realize_metric(tetrahedron, res.K)
        lengths, cusps = m.boundary_lengths, m.cusps
        assert cusps == ()
        for v in range(4):
            assert lengths[v] == pytest.approx(BOUNDARY_TETRA, abs=1e-8)

    def test_arc_total_identity(self, tetrahedron, rng):
        # L_v = sum over corners of s * sinh r_v at hypercycle vertices
        K = np.log(rng.uniform(0.1, 0.9, size=4))
        rep = vertex_curvatures(tetrahedron, K)
        lengths = realize_metric(tetrahedron, K).boundary_lengths
        for v in range(4):
            r = radius(math.exp(K[v]))
            assert rep.L[v] == pytest.approx(lengths[v] * math.sinh(r), rel=1e-10)

    def test_cusp_listed_without_length(self, tetrahedron):
        K = np.log(np.array([0.5, 1.0, 2.0, 0.7]))
        m = realize_metric(tetrahedron, K)
        lengths, cusps = m.boundary_lengths, m.cusps
        assert cusps == (1,)
        assert set(lengths) == {0, 3}

    def test_boundary_closure_combinatorics(self, tetrahedron):
        # one axis segment per incident face at every boundary vertex
        res = solve(tetrahedron, np.ones(4))
        rep = vertex_curvatures(tetrahedron, res.K)
        for v in range(4):
            segments = [rep.faces[fi].gen_angle[tetrahedron.faces[fi].index(v)]
                        for fi in tetrahedron.vertex_faces[v]]
            assert len(segments) == tetrahedron.degree(v)
            assert all(s > 0 for s in segments)


class TestAudit:
    def test_tetra_exact_hexagon_case(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4))
        rep = vertex_curvatures(tetrahedron, res.K)
        for fg in rep.faces:
            assert fg.polygon_area == pytest.approx(math.pi, abs=1e-14)
        assert gauss_bonnet_audit(tetrahedron, res.K) < 1e-10

    def test_arbitrary_states(self, tetrahedron, octahedron, rng):
        for tri in (tetrahedron, octahedron):
            for _ in range(10):
                K = rng.uniform(-2.0, 2.0, size=tri.num_vertices)
                assert gauss_bonnet_audit(tri, K) < 1e-8

    def test_with_cusp_entries(self, tetrahedron):
        K = np.log(np.array([0.5, 1.0, 2.0, 1.5]))
        assert gauss_bonnet_audit(tetrahedron, K) < 1e-8

    def test_near_cusps_are_realized_as_horocycles(self, rng):
        # cusps within CLASS_TOL of k = 1 but beyond KIND_TOL: those above
        # k = 1, evaluated as circles, would leave their angles in the face
        # areas but out of the cone sums, and the audit near 1e-4; a flow
        # solve of planted cusps lands within 2e-10 of k = 1
        tri, K = _mixed_states(rng)[1]
        cusp = K == 0.0
        offset = rng.choice([-1.0, 1.0], K.size) * rng.uniform(1e-11, 9e-10, K.size)
        near = np.where(cusp, offset, K)
        exact, m = realize_metric(tri, K), realize_metric(tri, near)
        assert m.classes == exact.classes and len(m.cusps) == np.count_nonzero(cusp) > 0
        assert m.audit_residual < 1e-10
        assert m.total_area == pytest.approx(exact.total_area, abs=1e-9)
        assert np.array_equal(m.k, np.exp(near))  # the solved values

    def test_near_cusps_at_a_loose_class_tolerance(self, rng):
        # with tol = 1e-6, vertices planted within (KIND_TOL, 1e-6] of k = 1,
        # on both sides, are cusps realized at k = 1: they add nothing to
        # any cone or boundary sum, which equal those of the exact cusps
        tri, K = _torus32_with_cusps(rng)
        cusp = K == 0.0
        offset = rng.choice([-1.0, 1.0], K.size) * rng.uniform(1e-11, 1e-6, K.size)
        near = np.where(cusp, np.log1p(offset), K)
        off = np.exp(near[cusp]) - 1.0
        assert (off > KIND_TOL).any() and (off < -KIND_TOL).any()
        assert KIND_TOL < np.abs(off).min() and np.abs(off).max() <= 1e-6
        exact, m = realize_metric(tri, K, tol=1e-6), realize_metric(tri, near, tol=1e-6)
        assert m.cusps == tuple(np.flatnonzero(cusp).tolist()) == exact.cusps
        assert m.classes == exact.classes
        assert list(m.cone_angles.items()) == list(exact.cone_angles.items())
        assert list(m.boundary_lengths.items()) == list(exact.boundary_lengths.items())
        assert m.total_area == exact.total_area
        assert m.audit_residual < 1e-8
        assert report_document(m) == _json_report(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_state_not_finite_is_named_before_the_kernel(self, bad, monkeypatch):
        def refuse(*args):
            raise AssertionError("face kernel called on a state that is not finite")
        monkeypatch.setattr(hypack.realize, "vertex_curvatures", refuse)
        K = np.zeros(256)
        K[200] = bad
        for call in (realize_metric, gauss_bonnet_audit):
            with pytest.raises(ValueError, match=f"entry 200 is {bad}$") as err:
                call(torus_grid(16, 16), K)
            assert err.type is ValueError

    @pytest.mark.parametrize("shape", [(1, 4), (2, 4), (5,)], ids=["1xn", "2xn", "n+1"])
    def test_state_of_another_shape_is_rejected_before_the_kernel(self, tetrahedron, shape,
                                                                 monkeypatch):
        def refuse(*args):
            raise AssertionError("face kernel called on a state of the wrong shape")
        monkeypatch.setattr(hypack.realize, "vertex_curvatures", refuse)
        for call in (realize_metric, gauss_bonnet_audit):
            with pytest.raises(ValueError, match=re.escape(
                    f"expected 4 state entries, got shape {shape}")) as err:
                call(tetrahedron, np.zeros(shape))
            assert err.type is ValueError

    @pytest.mark.parametrize("big", [800.0, -800.0])
    def test_state_beyond_exp_is_named_before_the_kernel(self, big, monkeypatch):
        # exp(800) overflows to inf (a RuntimeWarning, an error under the
        # suite's filter) and exp(-800) is 0: both are named by index
        def refuse(*args):
            raise AssertionError("face kernel called on a state exp cannot represent")
        monkeypatch.setattr(hypack.realize, "vertex_curvatures", refuse)
        K = np.zeros(16)
        K[5] = big
        for call in (realize_metric, gauss_bonnet_audit):
            with pytest.raises(ValueError, match=f"^exp\\(K\\) must be positive and finite; "
                                                 f"entry 5 is {big}$") as err:
                call(torus_grid(4, 4), K)
            assert err.type is ValueError

    def test_all_circle_counting_identity(self, octahedron, rng):
        # sum_f (pi - sum theta) = -2 pi chi + sum_v (2 pi - Theta_v)
        K = np.log(rng.uniform(1.2, 3.0, size=6))
        rep = vertex_curvatures(octahedron, K)
        lhs = sum(fg.polygon_area for fg in rep.faces)
        cones = realize_metric(octahedron, K).cone_angles
        rhs = -2 * math.pi * 2 + sum(2 * math.pi - th for th in cones.values())
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestRealizedMetric:
    def test_solved_tetrahedron(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4))
        m = realize_metric(tetrahedron, res.K)
        assert m.classes == ("boundary",) * 4
        assert m.chi_surface == 2
        assert m.chi_realized == -2
        assert m.total_area == pytest.approx(4 * math.pi, abs=1e-10)
        assert m.audit_residual < 1e-10
        assert m.cusps == ()
        assert not m.cone_angles

    def test_mixed_octahedron(self, octahedron):
        res = solve(octahedron, [12.0, 1, 1, 1, 1, 1])
        m = realize_metric(octahedron, res.K)
        assert m.classes[0] == "cone"
        assert all(c == "boundary" for c in m.classes[1:])
        assert 0 in m.cone_angles
        assert m.gaussian_curvature[0] == pytest.approx(
            2 * math.pi - m.cone_angles[0], abs=1e-14)
        assert m.audit_residual < 1e-8

    def test_corner_sums_match_loop_over_faces(self, rng):
        # per-vertex sums of the kernel arrays equal, bit for bit, a loop
        # over the FaceGeometry records of the incident faces in face order
        for tri, K in _mixed_states(rng):
            m = realize_metric(tri, K)
            assert set(m.classes) == {"cone", "boundary", "cusp"}
            faces = vertex_curvatures(tri, K).faces
            sums = {}
            for v, cls in enumerate(m.classes):
                if cls != "cusp":
                    sums[v] = 0.0
                    for fi in tri.vertex_faces[v]:
                        sums[v] += faces[fi].gen_angle[tri.faces[fi].index(v)]
            cones = {v: x for v, x in sums.items() if m.classes[v] == "cone"}
            lengths = {v: x for v, x in sums.items() if m.classes[v] == "boundary"}
            assert list(m.cone_angles.items()) == list(cones.items())
            assert list(m.boundary_lengths.items()) == list(lengths.items())
            assert m.total_area == sum(fg.polygon_area for fg in faces)

    def test_builds_no_face_records(self, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("face_records called on the realize path")
        monkeypatch.setattr(hypack.packing, "face_records", refuse)
        for tri, K in _mixed_states(rng):
            assert report_document(realize_metric(tri, K))
            assert gauss_bonnet_audit(tri, K) < 1e-8

    def test_report_document(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4))
        m = realize_metric(tetrahedron, res.K)
        doc1 = report_document(m)
        doc2 = report_document(m)
        assert doc1 == doc2
        parsed = json.loads(doc1)
        assert parsed["schema_version"] == 1
        assert len(parsed["vertices"]) == 4
        rec = parsed["vertices"][0]
        assert rec["class"] == "boundary"
        assert "boundary_length" in rec
        assert parsed["global"]["chi_realized"] == -2
        assert parsed["global"]["audit_residual"] < 1e-10


class TestReportBytes:
    """report_document against the json.dumps oracle, byte for byte."""

    def test_mixed_states(self, rng):
        for tri, K in _mixed_states(rng):
            m = realize_metric(tri, K)
            assert set(m.classes) == {"cone", "boundary", "cusp"}
            assert report_document(m) == _json_report(m)

    def test_torus32_with_cusps(self, rng):
        m = realize_metric(*_torus32_with_cusps(rng))
        assert 150 < len(m.cusps) < 260
        assert len(m.cone_angles) > 100 and len(m.boundary_lengths) > 100
        assert report_document(m) == _json_report(m)

    def test_special_values(self):
        # numpy scalars in the dicts, non-finite numbers, signed zero,
        # the smallest subnormal and a huge value all keep json's spelling
        f64 = np.float64
        m = RealizedMetric(
            k=np.array([1e300, 5e-324, 1.0, -0.0, math.nan]),
            classes=("cone", "boundary", "cusp", "cone", "boundary"),
            L=np.array([math.inf, -math.inf, 0.1, -0.0, 1.0 / 3.0]),
            cone_angles={0: f64(math.nan), 3: f64(-0.0)},
            gaussian_curvature={0: f64(math.inf), 3: 5e-324},
            boundary_lengths={1: f64(-math.inf), 4: 1e300},
            cusps=(2,),
            total_area=f64(2.5e-310),
            chi_surface=2,
            chi_realized=-1,
            audit_residual=f64(math.nan),
        )
        doc = report_document(m)
        assert doc == _json_report(m)
        for word in ("NaN", "-Infinity", "-0.0", "5e-324", "1e+300"):
            assert word in doc
        assert "np.float64" not in doc

    def test_finite_numpy_floats(self):
        # finite numpy floats in the dicts reach %s, which spells them by
        # numpy's own str: it must agree with float's repr, as json uses
        f64 = np.float64
        m = RealizedMetric(
            k=np.array([2.0, 0.5, 1.0]),
            classes=("cone", "boundary", "cusp"),
            L=np.array([1e16, 1e-5, 0.1 + 0.2]),
            cone_angles={0: f64(1e16)},
            gaussian_curvature={0: f64(1e-5)},
            boundary_lengths={1: f64(0.1 + 0.2)},
            cusps=(2,),
            total_area=f64(1.2345678901234568e+17),
            chi_surface=2,
            chi_realized=0,
            audit_residual=f64(1e-5),
        )
        doc = report_document(m)
        assert doc == _json_report(m)
        for word in ("1e+16", "1e-05", "0.30000000000000004", "1.2345678901234568e+17"):
            assert word in doc
        assert "np.float64" not in doc

    def test_numpy_sums_that_are_not_finite(self):
        # numpy scalars whose sum meets inf - inf, or overflows with every
        # value finite: no numpy warning, and json's spelling
        f64 = np.float64
        for cone, gauss in ((math.inf, -math.inf), (1e308, 1e308)):
            m = RealizedMetric(
                k=np.array([2.0, 0.5]), classes=("cone", "boundary"), L=np.array([1.0, 2.0]),
                cone_angles={0: f64(cone)}, gaussian_curvature={0: f64(gauss)},
                boundary_lengths={1: f64(1e308)}, cusps=(), total_area=f64(1e308),
                chi_surface=2, chi_realized=1, audit_residual=f64(0.5))
            assert report_document(m) == _json_report(m)

    def test_no_vertices(self):
        m = RealizedMetric(k=np.zeros(0), classes=(), L=np.zeros(0), cone_angles={},
                           gaussian_curvature={}, boundary_lengths={}, cusps=(),
                           total_area=0.0, chi_surface=0, chi_realized=0,
                           audit_residual=0.0)
        doc = report_document(m)
        assert doc == _json_report(m)
        assert '"vertices": []' in doc

    def test_skips_the_pure_python_encoder(self, monkeypatch, rng):
        # json's pure-Python encoder runs whenever json.dumps is given an indent
        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python json encoder on the report path")
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps([1.0], indent=2)
        assert report_document(realize_metric(*_torus32_with_cusps(rng)))


class TestRenderSvg:
    def test_deterministic(self):
        assert render_face_svg(1, 1, 1) == render_face_svg(1, 1, 1)
        assert render_face_svg(2.0, 0.5, 1.3) == render_face_svg(2.0, 0.5, 1.3)

    def test_three_horocycles(self):
        svg = render_face_svg(1, 1, 1)
        # unit circle + 3 horocycle circles + 3 tangency dots, no arcs
        assert svg.count("<circle") == 7
        assert svg.count("<path") == 0
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_horocycles_internally_tangent(self):
        svg = render_face_svg(1, 1, 1)
        # parse the circles: each horocycle circle touches the unit circle
        import re
        circles = re.findall(
            r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="([\d.]+)"', svg)
        disk_cx, disk_cy, disk_r = map(float, circles[0])
        for cx, cy, r in [map(float, c) for c in circles[1:4]]:
            d = math.hypot(cx - disk_cx, cy - disk_cy)
            assert d + r == pytest.approx(disk_r, abs=1e-3)

    def test_hypercycles_render_as_arcs(self):
        svg = render_face_svg(0.4, 0.6, 0.8)
        assert svg.count("<path") == 3
        svg2 = render_face_svg(2.0, 2.0, 0.5)
        assert svg2.count("<path") == 1

    def test_symmetric_circles_congruent(self):
        import re
        svg = render_face_svg(2, 2, 2)
        circles = re.findall(r'<circle[^/]*r="([\d.]+)"', svg)
        # curves are circles[1:4]; all three congruent by symmetry
        radii = [float(r) for r in circles[1:4]]
        assert radii[0] == pytest.approx(radii[1], abs=2e-6)

    def test_extreme_faces_render_finite(self, rng):
        # |ln k| up to 30 and far below 1: every coordinate is a finite number
        faces = [tuple(np.exp(rng.uniform(-30.0, 30.0, size=3)).tolist()) for _ in range(500)]
        for ks in faces + [(1e-14,) * 3]:
            svg = render_face_svg(*ks)
            assert "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize("ks", [(math.inf, 1.0, 1.0), (1e300,) * 3, (0.0, 1.0, 1.0),
                                    (math.nan, 1.0, 1.0)])
    def test_unrepresentable_face_raises(self, ks):
        with pytest.raises(ValueError):
            render_face_svg(*ks)
