import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypack.hyptrig import (
    BigonResult,
    CurveKind,
    InfeasibleGeometryError,
    bigon_kernel,
    classify_curvature,
    curvature_to_radius,
    hexagon_sides,
    solve_pentagon,
    solve_quadrilateral,
    triangle_angles,
)

HALF_LN3 = 0.5493061443340548  # 0.5 * ln 3


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


class TestTriangleAngles:
    """The three-circle kernel: angles of the triangle with sides
    r_j + r_k, the angle at center i opposite side r_j + r_k."""

    def test_equilateral_cosh_5_3(self):
        # equal sides with cosh d = 5/3 (tangent circles of curvature 2)
        r = 0.5 * math.acosh(5.0 / 3.0)
        th = triangle_angles(r, r, r)
        expect = math.acos(5.0 / 8.0)
        for t in th:
            assert t == pytest.approx(expect, abs=1e-14)

    def test_symmetry(self):
        th = triangle_angles(0.65, 0.65, 0.65)
        assert th[0] == th[1] == th[2]

    def test_thin_triangle_limit(self):
        # sides (25, 30, 30) and (20, 30, 30): the angle opposite the
        # short side collapses as that side grows with the others fixed
        assert triangle_angles(17.5, 12.5, 12.5)[0] < 1e-6
        assert (triangle_angles(17.5, 12.5, 12.5)[0]
                > triangle_angles(20.0, 10.0, 10.0)[0])

    @given(st.tuples(*[st.floats(min_value=0.01, max_value=5.0)] * 3))
    @settings(max_examples=100, deadline=None)
    def test_angle_sum_below_pi(self, radii):
        th = triangle_angles(*radii)
        assert 0.0 < sum(th) < math.pi


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


class TestHexagon:
    def test_golden_111(self):
        s = hexagon_sides(1.0, 1.0, 1.0)
        expect = (math.cosh(1.0) + math.cosh(1.0) ** 2) / math.sinh(1.0) ** 2
        assert s[0] == pytest.approx(math.acosh(expect), abs=1e-14)
        assert s[0] == pytest.approx(1.7049128323580137, abs=1e-12)
        assert s[0] == s[1] == s[2]

    def test_symmetric_closed_form(self):
        # equal radii r: cosh s = cosh(2r) / (cosh(2r) - 1)
        for r in (0.2, 0.7, 1.9):
            s = hexagon_sides(2 * r, 2 * r, 2 * r)[0]
            assert math.cosh(s) == pytest.approx(
                math.cosh(2 * r) / (math.cosh(2 * r) - 1.0), rel=1e-13)

    def test_permutation_equivariance(self):
        d = (0.4, 1.1, 2.3)
        s = hexagon_sides(*d)
        s_perm = hexagon_sides(d[2], d[0], d[1])
        assert s_perm == (s[2], s[0], s[1])


class TestBigon:
    def test_horocycle_case(self):
        res = bigon_kernel(1.0, 2.0)
        assert res.theta1 is None
        assert res.l1 == pytest.approx(1.0, abs=1e-15)
        assert res.dl1_dk2 == pytest.approx(-0.5, abs=1e-15)
        assert res.dl2_dk1 == pytest.approx(-0.5, abs=1e-15)

    @given(st.floats(min_value=0.05, max_value=8.0),
           st.floats(min_value=1.01, max_value=8.0))
    @settings(max_examples=100, deadline=None)
    def test_mixed_partials_agree(self, k1, k2):
        res = bigon_kernel(k1, k2)
        assert abs(res.dl1_dk2 - res.dl2_dk1) < 1e-10 * (1.0 + abs(res.dl1_dk2))

    @pytest.mark.parametrize("k1,k2", [(0.3, 1.5), (2.5, 3.0), (1.0, 2.0),
                                       (0.95, 1.2), (5.0, 1.05)])
    def test_partials_match_finite_differences(self, k1, k2):
        res = bigon_kernel(k1, k2)
        h = 1e-6
        fd1 = (bigon_kernel(k1, k2 + h).l1 - bigon_kernel(k1, k2 - h).l1) / (2 * h)
        fd2 = (bigon_kernel(k1 + h, k2).l2 - bigon_kernel(k1 - h, k2).l2) / (2 * h)
        assert fd1 == pytest.approx(res.dl1_dk2, rel=1e-6)
        assert fd2 == pytest.approx(res.dl2_dk1, rel=1e-6)

    def test_limit_at_k1_one(self):
        # dl2/dk1 -> -2/k2^2 from either side
        k2 = 3.0
        for k1 in (1.0 - 1e-6, 1.0 + 1e-6):
            res = bigon_kernel(k1, k2)
            assert res.dl2_dk1 == pytest.approx(-2.0 / k2 ** 2, rel=1e-5)

    def test_l1_continuous_at_one(self):
        k2 = 3.0
        at_one = bigon_kernel(1.0, k2).l1
        for k1 in (1.0 - 1e-7, 1.0 + 1e-7):
            assert bigon_kernel(k1, k2).l1 == pytest.approx(at_one, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            bigon_kernel(2.0, 1.0)
        with pytest.raises(ValueError):
            bigon_kernel(-1.0, 2.0)

    def test_result_type(self):
        assert isinstance(bigon_kernel(2.0, 2.0), BigonResult)
