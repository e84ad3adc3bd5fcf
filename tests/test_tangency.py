import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypack.tangency import (
    CurveKind,
    InfeasibleGeometryError,
    classify_curvature,
    corner_curvatures,
    curvature_to_radius,
    face_jacobian,
    face_kernel,
    face_potential,
    realize_face,
    solve_face,
    solve_pentagon,
    solve_quadrilateral,
)

LN3 = 1.0986122886681098
HALF_LN3 = 0.5493061443340548  # 0.5 * ln 3
FACE222_L = 1.0342246196750180  # arccos(5/8) * 2/sqrt(3)


class TestEdgeLength:
    """FaceGeometry.edge_lengths = (d01, d02, d12), d_ij = r_i + r_j."""

    def test_two_circles(self):
        assert solve_face(2.0, 2.0, 3.0).edge_lengths[0] == pytest.approx(LN3, abs=1e-14)

    def test_horocycle_infinite(self):
        assert solve_face(1.0, 5.0, 3.0).edge_lengths[:2] == (math.inf, math.inf)

    def test_mixed(self):
        assert solve_face(0.5, 2.0, 3.0).edge_lengths[0] == pytest.approx(LN3, abs=1e-14)


class TestSolveFace:
    def test_three_circles_golden(self):
        fg = solve_face(2.0, 2.0, 2.0)
        for L in fg.total_curvature:
            assert L == pytest.approx(FACE222_L, abs=1e-12)
        assert fg.area == pytest.approx(math.pi - 3 * FACE222_L, abs=1e-12)

    def test_three_horocycles_golden(self):
        fg = solve_face(1.0, 1.0, 1.0)
        for L in fg.total_curvature:
            assert L == pytest.approx(1.0, abs=1e-9)
        assert fg.area == pytest.approx(math.pi - 3.0, abs=1e-9)
        assert fg.gen_angle == (None, None, None)
        assert fg.edge_lengths == (math.inf, math.inf, math.inf)

    def test_symmetric_hypercycles(self):
        # equal hypercycles: L = s sinh r with cosh s = cosh 2r/(cosh 2r - 1)
        for k in (0.2, 0.5, 0.9):
            r = math.atanh(k)
            s = math.acosh(math.cosh(2 * r) / (math.cosh(2 * r) - 1.0))
            fg = solve_face(k, k, k)
            for L, g in zip(fg.total_curvature, fg.gen_angle):
                assert L == pytest.approx(s * math.sinh(r), rel=1e-12)
                assert g == pytest.approx(s, rel=1e-12)

    def test_table_identities(self, rng):
        # l = theta sinh r (circle), l = s cosh r (hypercycle), L = l k
        for _ in range(50):
            ks = 10.0 ** rng.uniform(-1.3, 1.3, size=3)
            fg = solve_face(*ks)
            for i in range(3):
                k = fg.curvatures[i]
                r = curvature_to_radius(k)
                if fg.kinds[i] is CurveKind.CIRCLE:
                    assert fg.arc_length[i] == pytest.approx(
                        fg.gen_angle[i] * math.sinh(r), rel=1e-12)
                elif fg.kinds[i] is CurveKind.HYPERCYCLE:
                    assert fg.arc_length[i] == pytest.approx(
                        fg.gen_angle[i] * math.cosh(r), rel=1e-12)
                assert fg.total_curvature[i] == pytest.approx(
                    fg.arc_length[i] * k, rel=1e-12)

    def test_permutation_symmetry(self, rng):
        for _ in range(20):
            ks = tuple(10.0 ** rng.uniform(-1.3, 1.3, size=3))
            base = solve_face(*ks)
            for perm in itertools.permutations(range(3)):
                out = solve_face(*(ks[p] for p in perm))
                for i in range(3):
                    assert out.total_curvature[i] == base.total_curvature[perm[i]]
                    assert out.arc_length[i] == base.arc_length[perm[i]]
                assert out.area == base.area

    def test_curvature_sum_below_pi(self, rng):
        for _ in range(50):
            ks = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
            fg = solve_face(*ks)
            assert 0.0 < sum(fg.total_curvature) < math.pi

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_face(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_face(1.0, -2.0, 1.0)


class TestPerFaceGaussBonnet:
    """area(region between arcs) recomputed from polygon angle sums minus
    the geometric corner regions (circle sector theta(cosh r - 1),
    hypercycle collar s sinh r, horocycle cusp region l)."""

    @pytest.mark.parametrize("ks", [
        (2.0, 2.0, 2.0), (1.5, 3.0, 8.0),          # triangle
        (2.0, 2.0, 0.5), (5.0, 1.2, 0.05),         # quadrilateral
        (2.0, 0.5, 0.5), (1.3, 0.9, 0.1),          # pentagon
        (0.5, 0.5, 0.5), (0.9, 0.3, 0.05),         # hexagon
        (1.0, 1.0, 1.0), (1.0, 2.0, 0.5),          # ideal vertices
    ])
    def test_area_from_angle_sums(self, ks):
        fg = solve_face(*ks)
        area = fg.polygon_area
        for i in range(3):
            k = fg.curvatures[i]
            r = curvature_to_radius(k)
            if fg.kinds[i] is CurveKind.CIRCLE:
                area -= fg.gen_angle[i] * (math.cosh(r) - 1.0)
            elif fg.kinds[i] is CurveKind.HYPERCYCLE:
                area -= fg.gen_angle[i] * math.sinh(r)
            else:
                area -= fg.arc_length[i]
        assert abs(area - fg.area) < 1e-10

    def test_hexagon_polygon_area_is_pi(self):
        fg = solve_face(0.4, 0.6, 0.8)
        assert fg.polygon_area == pytest.approx(math.pi, abs=1e-14)


class TestLimits:
    """Asymptotics of the total geodesic curvature."""

    def test_vanishing_curvature(self):
        for others in itertools.product((0.5, 2.0), repeat=2):
            fg = solve_face(1e-8, *others)
            assert fg.total_curvature[0] < 1e-4

    def test_one_huge_curvature(self):
        # converges like sqrt(8 r k_s): about 4.0e-3 at k = 1e6
        fg = solve_face(1e6, 2.0, 2.0)
        assert abs(fg.total_curvature[0] - math.pi) < 5e-3
        fg2 = solve_face(1e8, 2.0, 2.0)
        assert abs(fg2.total_curvature[0] - math.pi) < 5e-4
        # rate check: error shrinks like k^(-1/2)
        ratio = (abs(fg.total_curvature[0] - math.pi)
                 / abs(fg2.total_curvature[0] - math.pi))
        assert ratio == pytest.approx(10.0, rel=0.05)

    def test_two_huge_curvatures(self):
        fg = solve_face(1e6, 1e6, 2.0)
        assert abs(fg.total_curvature[0] + fg.total_curvature[1] - math.pi) < 1e-4

    def test_three_huge_curvatures(self):
        fg = solve_face(1e6, 1e6, 1e6)
        assert abs(sum(fg.total_curvature) - math.pi) < 1e-4

    def test_continuity_across_kinds(self):
        at_one = solve_face(1.0, 2.0, 2.0).total_curvature[0]
        for k in (1.0 - 1e-7, 1.0 + 1e-7):
            val = solve_face(k, 2.0, 2.0).total_curvature[0]
            assert abs(val - at_one) < 1e-5


class TestRealizeFace:
    def test_embedding_invariants(self, rng):
        for _ in range(30):
            ks = 10.0 ** rng.uniform(-1.3, 1.3, size=3)
            emb = realize_face(*ks)
            for c in emb.circles:
                assert abs(c.cy / c.radius - c.k) < 1e-10
            # pairwise external tangency
            pairs = ((0, 1), (0, 2), (1, 2))
            for (i, j), tp in zip(pairs, emb.tangency_points):
                ci, cj = emb.circles[i], emb.circles[j]
                gap = math.hypot(ci.cx - cj.cx, ci.cy - cj.cy) - (ci.radius + cj.radius)
                assert abs(gap) < 1e-10 * (ci.radius + cj.radius)
                assert tp[1] > 0.0  # tangency point lies in the upper half-plane

    def test_circles_tangent_in_exact_arithmetic(self, rng):
        # |c_i - c_j| = r_i + r_j to 1e-11 relative, on the returned floats
        # taken exactly, over |ln k| <= 10
        for ks in np.exp(rng.uniform(-10.0, 10.0, size=(300, 3))):
            emb = realize_face(*ks.tolist())
            circles = [tuple(map(Fraction, (c.cx, c.cy, c.radius))) for c in emb.circles]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                (xi, yi, ri), (xj, yj, rj) = circles[i], circles[j]
                gap2 = (xi - xj) ** 2 + (yi - yj) ** 2 - (ri + rj) ** 2
                assert abs(gap2) <= Fraction(2e-11) * (ri + rj) ** 2

    def test_three_horocycles(self):
        emb = realize_face(1.0, 1.0, 1.0)
        for i in range(3):
            assert emb.arc_length(i) == pytest.approx(1.0, abs=1e-12)
        # congruent to the construction with ideal points at 0, 1, inf:
        # the line y = 1 and circles of radius 1/2 at (0, 1/2), (1, 1/2);
        # isometry-invariant data (chords between tangency points) agrees
        t02, t12 = (0.0, 1.0), (1.0, 1.0)  # contacts on the line y = 1
        t01 = (0.5, 0.5)                   # contact of the two disks
        def coshm1(p, q):
            return ((p[0]-q[0])**2 + (p[1]-q[1])**2) / (2*p[1]*q[1])
        oracle = sorted([coshm1(t01, t02), coshm1(t01, t12), coshm1(t02, t12)])
        mine = sorted(
            coshm1(emb.tangency_points[i], emb.tangency_points[j])
            for i, j in ((0, 1), (0, 2), (1, 2)))
        assert mine == pytest.approx(oracle, rel=1e-12)

    def test_normalization(self):
        emb = realize_face(3.0, 0.7, 1.4)
        assert emb.tangency_points[0] == pytest.approx((0.0, 1.0), abs=1e-15)
        assert emb.circles[0].cx < 0 < emb.circles[1].cx

    def test_permuted_input_congruent(self):
        a = realize_face(2.0, 0.5, 1.0)
        b = realize_face(0.5, 1.0, 2.0)
        # same face geometry after relabeling
        la = [a.arc_length(i) for i in range(3)]
        lb = [b.arc_length(i) for i in range(3)]
        assert lb == pytest.approx([la[1], la[2], la[0]], rel=1e-12)

    def test_cross_check_solve_face(self, rng):
        # the face kernel against adaptive quadrature of ds = |dz|/y
        samples = [(2.0, 2.0, 2.0), (1.0, 1.0, 1.0), (2.0, 2.0, 0.5),
                   (2.0, 0.5, 0.4), (0.5, 0.6, 0.7), (1.0, 3.0, 0.2)]
        samples += [tuple(rng.uniform(0.05, 20.0, size=3)) for _ in range(100)]
        for ks in samples:
            fg = solve_face(*ks)
            emb = realize_face(*ks)
            for i in range(3):
                assert emb.arc_length(i) == pytest.approx(fg.arc_length[i], rel=1e-8)


# Signs of ln k per corner for the five face cases: three circles
# (triangle), one hypercycle (quadrilateral), two (pentagon), three
# (hexagon), and a horocycle (ideal vertex).
FACE_CASES = ((1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1), (0, 1, -1))


class TestRouteAgreement:
    """corner_curvatures (the closed form the solver evaluates) against
    quadrature along the half-plane embedding."""

    def test_reproducer_face(self):
        # a face whose quadrilateral split a bracketed Newton iteration can
        # stop short of (f(x) = 6.4e-4, L off by 5.8e-4) while reporting
        # convergence
        ks = (1.1307453759447548, 2.5404926670117565, 0.7991123188093775)
        L = corner_curvatures(*ks)
        emb = realize_face(*ks)
        for i in range(3):
            assert abs(emb.arc_length(i) * ks[i] - L[i]) < 1e-12

    @given(st.sampled_from(FACE_CASES),
           st.tuples(*[st.floats(min_value=-9.2, max_value=1.4)] * 3),
           st.permutations(range(3)))
    @settings(max_examples=300, deadline=None)
    def test_corner_curvatures_match_embedding(self, signs, log_mags, perm):
        # |ln k| from 1e-4 to 4 on circle and hypercycle corners
        ks = [math.exp(s * math.exp(m)) for s, m in zip(signs, log_mags)]
        ks = [ks[p] for p in perm]
        L = corner_curvatures(*ks)
        emb = realize_face(*ks)
        for i in range(3):
            assert abs(emb.arc_length(i) * ks[i] - L[i]) < 1e-9


class TestFaceJacobian:
    def test_symmetric_input(self):
        J = face_jacobian(2.0, 2.0, 2.0)
        assert J[0][0] == pytest.approx(J[1][1], rel=1e-9)
        assert J[0][0] == pytest.approx(J[2][2], rel=1e-9)
        assert J[0][1] == pytest.approx(J[0][2], rel=1e-9)
        assert J[0][1] == pytest.approx(J[1][2], rel=1e-9)

    def test_symmetry_sign_dominance(self, rng):
        for _ in range(200):
            ks = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
            J = face_jacobian(*ks)
            mag = max(abs(J[i][j]) for i in range(3) for j in range(3))
            for i in range(3):
                assert J[i][i] > 0.0
                row_off = 0.0
                for j in range(3):
                    if i != j:
                        assert J[i][j] < 0.0
                        row_off += abs(J[i][j])
                    assert abs(J[i][j] - J[j][i]) <= 1e-6 * (1.0 + mag)
                assert J[i][i] - row_off > 0.0

    def test_row_sums_match_area_derivative(self):
        # row sums equal -d area/d S_i
        ks = (1.5, 0.8, 2.5)
        J = face_jacobian(*ks)
        S = [math.log(k) for k in ks]
        for i in range(3):
            h = 1e-6
            up, dn = list(ks), list(ks)
            up[i] = math.exp(S[i] + h)
            dn[i] = math.exp(S[i] - h)
            darea = (solve_face(*up).area - solve_face(*dn).area) / (2 * h)
            assert sum(J[i][j] for j in range(3)) == pytest.approx(-darea, rel=1e-4)

    def test_exact_on_all_cases(self):
        # the forward-mode Jacobian, unsymmetrized, against central
        # differences of L on faces of all five cases
        rng = np.random.default_rng(6)
        for signs in FACE_CASES:
            K = rng.uniform(0.05, 3.0, size=(200, 3)) * np.array(signs)
            J = face_kernel(np.exp(K), jac=True).J
            mag = np.abs(J).max(axis=(1, 2))
            assert np.all(np.abs(J - J.transpose(0, 2, 1)).max(axis=(1, 2))
                          <= 1e-12 * (1.0 + mag))
            h = 1e-4
            for j in range(3):
                up, dn = K.copy(), K.copy()
                up[:, j] += h
                dn[:, j] -= h
                fd = (face_kernel(np.exp(up)).L - face_kernel(np.exp(dn)).L) / (2 * h)
                assert np.abs(J[:, :, j] - fd).max() < 1e-7
            assert face_jacobian(*np.exp(K[0])) == J[0].tolist()


class TestFaceKernel:
    def test_value_path_carries_no_jacobian(self):
        assert face_kernel([(2.0, 0.5, 1.0)]).J is None

    def test_jacobian_path_keeps_the_values(self):
        # a Newton solve reads its residual, areas and certificate from the
        # jac=True output, so every value must be bit-identical to jac=False:
        # faces of all five cases, with |ln k| down to 1e-6 so that H takes
        # its series on some corners, and K = 0, where every corner is a
        # horocycle
        rng = np.random.default_rng(19)
        K = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(4.0), (300, 3)))
                            * np.array(signs) for signs in FACE_CASES] + [np.zeros((2, 3))])
        k = np.exp(rng.permuted(K, axis=1))
        with_jac, values = face_kernel(k, jac=True), face_kernel(k)
        assert np.isnan(values.gen).any()
        for name in ("kind", "gen", "arc", "L", "area", "polygon_area"):
            assert np.array_equal(getattr(with_jac, name), getattr(values, name),
                                  equal_nan=True), name

    def test_unevaluable_face_raises(self):
        # exp(-400) hypercycles: (k_i + k_j)(k_i + k_m) underflows to 0, so L = inf
        k = math.exp(-400.0)
        with pytest.raises(InfeasibleGeometryError, match="curvatures"):
            face_kernel([(2.0, 2.0, 2.0), (k, k, k)])
        with pytest.raises(InfeasibleGeometryError, match="curvatures"):
            face_kernel([(k, k, k)], jac=True)
        with pytest.raises(ValueError, match="positive"):
            face_kernel([(2.0, 0.0, 2.0)])

    def test_overflowing_products_raise(self):
        # k^2 or D overflows while the other stays finite: x came out inf or
        # 0, and with it a finite but wrong L = (0, 2e-240, 2e-80) and area pi
        for bad in ([(1e160, 1e-160, 1.0)], [(1e154, 1e154, 1e154)]):
            with pytest.raises(InfeasibleGeometryError, match="curvatures"):
                face_kernel(bad)

    def test_huge_curvature_below_the_overflow(self):
        # k^2 = 1e300 is finite: the huge circle's corner takes L = pi
        fa = face_kernel([(1e150, 1e-150, 0.5)])
        assert fa.L[0, 0] == pytest.approx(math.pi, rel=1e-15)
        assert abs(fa.area[0]) < 1e-15

    def test_area_is_nonnegative_to_rounding(self):
        # the area pi - sum L of every finite face is >= 0 up to rounding,
        # so the kernel's finiteness check is the only per-face check: 4000
        # faces per corner mix, |ln k| uniform or log-uniform down to 1e-15
        # on [0, 35], with k = 1 exactly at the horocycle corners
        rng = np.random.default_rng(15)
        n = 4000
        for signs in FACE_CASES:
            mags = np.where(rng.random((n, 3)) < 0.5, rng.uniform(0.0, 35.0, (n, 3)),
                            np.exp(rng.uniform(math.log(1e-15), math.log(35.0), (n, 3))))
            K = rng.permuted(mags * np.array(signs), axis=1)
            assert face_kernel(np.exp(K)).area.min() >= -1e-14


class TestFacePotential:
    def test_gradient_is_total_curvature(self):
        # 4-point central differences in K = ln k against the kernel's L on
        # 250 faces, |ln k| <= 4, with k = 1 exactly at 50 corners
        rng = np.random.default_rng(16)
        K = rng.uniform(-4.0, 4.0, size=(250, 3))
        K[::5, 1] = 0.0
        h = 1e-3
        for i in range(3):
            def w(d):
                up = K.copy()
                up[:, i] += d
                return face_potential(np.exp(up))
            fd = (8.0 * (w(h) - w(-h)) - (w(2 * h) - w(-2 * h))) / (12.0 * h)
            assert np.abs(fd - face_kernel(np.exp(K)).L[:, i]).max() <= 1e-8

    def test_commutes_with_permuting_corners(self):
        rng = np.random.default_rng(17)
        k = np.exp(rng.uniform(-30.0, 30.0, size=(300, 3)))
        k[::3, 2] = 1.0
        w = face_potential(k)
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(face_potential(k[:, perm]), w)

    def test_rejects_what_the_kernel_rejects(self):
        for bad in ([(2.0, 0.0, 2.0)], [(2.0, -1.0, 2.0)], [(2.0, math.nan, 2.0)]):
            with pytest.raises(ValueError, match="positive"):
                face_potential(bad)
        # e2 overflows at 1e200, and at an infinite curvature
        for bad in ([(2.0, 2.0, 2.0), (1e200, 1e200, 1e200)], [(math.inf, 1.0, 0.5)]):
            for f in (face_kernel, face_potential):
                with pytest.raises(InfeasibleGeometryError, match="curvatures"):
                    f(bad)


class TestCurvatureRadius:
    def test_circle(self):
        assert curvature_to_radius(2.0) == pytest.approx(HALF_LN3, abs=1e-15)

    def test_horocycle(self):
        assert curvature_to_radius(1.0) == math.inf

    def test_hypercycle(self):
        assert curvature_to_radius(0.5) == pytest.approx(HALF_LN3, abs=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            curvature_to_radius(0.0)
        with pytest.raises(ValueError):
            curvature_to_radius(-3.0)

    def test_near_one_dispatches_horocycle(self):
        assert classify_curvature(1.0 + 1e-13) is CurveKind.HOROCYCLE
        assert classify_curvature(1.0 + 1e-11) is CurveKind.CIRCLE

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, exponent):
        k = 10.0 ** exponent
        kind = classify_curvature(k)
        if kind is CurveKind.HOROCYCLE:
            return
        r = curvature_to_radius(k)
        back = 1.0 / math.tanh(r) if kind is CurveKind.CIRCLE else math.tanh(r)
        assert abs(back - k) <= 1e-14 * k

    def test_round_trip_extremes(self):
        for k in (1e-6, 1e-3, 0.999999, 1.000001, 1e3, 1e6):
            kind = classify_curvature(k)
            r = curvature_to_radius(k)
            back = 1.0 / math.tanh(r) if kind is CurveKind.CIRCLE else math.tanh(r)
            assert abs(back - k) <= 1e-14 * k


class TestQuadrilateral:
    def test_golden_111(self):
        # root of sinh x = tanh(1) cosh(1 - x), recomputed at 40 digits
        sol = solve_quadrilateral(1.0, 1.0, 1.0)
        assert sol.x == pytest.approx(0.7252493001498881, abs=1e-12)
        assert sol.y == pytest.approx(0.9503552048224797, abs=1e-12)

    @given(st.tuples(*[st.floats(min_value=0.05, max_value=4.0)] * 3))
    @settings(max_examples=100, deadline=None)
    def test_residuals_and_bounds(self, radii):
        r1, r2, r3 = radii
        l1, l2, l3 = r2 + r3, r1 + r3, r1 + r2
        sol = solve_quadrilateral(l1, l2, l3)
        la, lc = (l3, l1) if l1 < l3 else (l1, l3)
        # defining equations: sinh lc = sinh x cosh y, cosh l2 = cosh(la - x) cosh y
        cosh_y = math.cosh(sol.y)
        assert abs(math.sinh(sol.x) * cosh_y - math.sinh(lc)) < 1e-12 * (1.0 + math.sinh(lc))
        assert abs(math.cosh(la - sol.x) * cosh_y - math.cosh(l2)) < 1e-12 * (1.0 + math.cosh(l2))
        # split stays strictly inside, and the proof's bounds hold
        assert 0.0 < sol.x < la
        assert lc > sol.x
        assert l2 > la - sol.x

    def test_mirrored_branch_consistent(self):
        # radii (0.9, 0.5, 0.3) give l1 < l3; the split runs along l3
        sol = solve_quadrilateral(0.8, 1.2, 1.4)
        cosh_y = math.cosh(sol.y)
        assert math.sinh(sol.x) * cosh_y == pytest.approx(math.sinh(0.8), rel=1e-13)
        assert math.cosh(1.4 - sol.x) * cosh_y == pytest.approx(math.cosh(1.2), rel=1e-13)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            solve_quadrilateral(1.0, -1.0, 1.0)


class TestPentagon:
    def test_symmetric_split(self):
        sol = solve_pentagon(1.0, 1.0, 1.4)
        assert sol.x == 0.7

    def test_golden_111(self):
        sol = solve_pentagon(1.0, 1.0, 1.0)
        assert sol.x == 0.5
        assert math.cosh(sol.y) == pytest.approx(2.2552519304127616, abs=1e-13)

    @given(st.tuples(*[st.floats(min_value=0.05, max_value=4.0)] * 3))
    @settings(max_examples=100, deadline=None)
    def test_residuals_and_bounds(self, radii):
        rc, rg, rh = radii
        l1, l2, l3 = rc + rg, rc + rh, rg + rh
        sol = solve_pentagon(l1, l2, l3)
        # defining equations: sinh l1 = sinh x cosh y, sinh l2 = sinh(l3 - x) cosh y
        cosh_y = math.cosh(sol.y)
        assert abs(math.sinh(sol.x) * cosh_y - math.sinh(l1)) < 1e-12 * (1.0 + math.sinh(l1))
        assert abs(math.sinh(l3 - sol.x) * cosh_y - math.sinh(l2)) < 1e-12 * (1.0 + math.sinh(l2))
        assert 0.0 < sol.x < l3
        assert sol.x < l1
        assert l3 - sol.x < l2

    def test_infeasible_inputs(self):
        # l3 >= l1 + l2 corresponds to a non-positive circle radius
        with pytest.raises(InfeasibleGeometryError):
            solve_pentagon(0.1, 0.1, 5.0)
