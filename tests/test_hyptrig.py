import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypack.hyptrig import BigonResult, bigon_kernel
from hypack.tangency import (
    CurveKind,
    InfeasibleGeometryError,
    classify_curvature,
    curvature_to_radius,
    solve_pentagon,
    solve_quadrilateral,
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


class TestBigon:
    def test_horocycle_case(self):
        res = bigon_kernel(1.0, 2.0)
        assert res.theta1 is None
        assert res.l1 == pytest.approx(1.0, abs=1e-15)

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
