import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from hypack import flow
from hypack.flow import (
    FlowConfig,
    SolveStatus,
    StiffnessError,
    flow_step,
    rate_estimate,
    solve,
)
from hypack.packing import vertex_curvature_sums
from hypack.surface import Triangulation

from conftest import TETRA_FACES, torus_grid

# symmetric tetrahedron solution for unit targets, frozen from the
# scalar equation s(r) sinh r = 1/3, cosh s(r) = cosh 2r / (cosh 2r - 1)
K_STAR_TETRA = -2.8367372338609138
K_TETRA_ABS_TOL = 1e-9


def scalar_tetra_oracle():
    """Recompute k* with an independent scalar root-find."""
    def eq(r):
        s = math.acosh(math.cosh(2 * r) / (math.cosh(2 * r) - 1.0))
        return s * math.sinh(r) - 1.0 / 3.0
    r = brentq(eq, 1e-4, 1.0, xtol=1e-15)
    return math.tanh(r)


class TestFlowStep:
    def test_fixed_point(self, tetrahedron):
        K_hat = np.full(4, K_STAR_TETRA)
        L_hat = vertex_curvature_sums(tetrahedron, K_hat)
        K_new, err, rate = flow_step(tetrahedron, K_hat, L_hat, 0.5, np.zeros(4))
        assert np.max(np.abs(K_new - K_hat)) < 1e-13
        assert err < 1e-13
        assert np.max(np.abs(rate)) < 1e-13

    def test_symmetry_preserved(self, tetrahedron):
        K = np.full(4, 0.7)
        rate = np.ones(4) - vertex_curvature_sums(tetrahedron, K)
        K_new, _, rate_new = flow_step(tetrahedron, K, np.ones(4), 0.1, rate)
        assert np.all(K_new == K_new[0])
        assert np.array_equal(rate_new,
                              np.ones(4) - vertex_curvature_sums(tetrahedron, K_new))

    def test_velocity_bound(self, octahedron, rng):
        # |dK_i/dt| < pi deg(i) + Lhat_i everywhere
        L_hat = rng.uniform(0.5, 3.0, size=6)
        for _ in range(20):
            K = rng.uniform(-2.0, 2.0, size=6)
            v = L_hat - vertex_curvature_sums(octahedron, K)
            for i in range(6):
                assert abs(v[i]) < math.pi * octahedron.degree(i) + L_hat[i]

    def test_rejects_bad_step(self, tetrahedron):
        with pytest.raises(ValueError):
            flow_step(tetrahedron, np.zeros(4), np.ones(4), -0.1, np.zeros(4))


class TestSolve:
    def test_tetra_unit_targets(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4))
        assert res.status is SolveStatus.CONVERGED
        assert np.allclose(res.K, K_STAR_TETRA, atol=1e-8)
        assert np.max(np.abs(np.exp(res.K) - scalar_tetra_oracle())) < 1e-8

    def test_initial_state_independence(self, tetrahedron, rng):
        base = solve(tetrahedron, np.ones(4)).K
        for _ in range(2):
            K0 = rng.uniform(-1.0, 1.0, size=4)
            res = solve(tetrahedron, np.ones(4), K0)
            assert res.status is SolveStatus.CONVERGED
            assert np.max(np.abs(res.K - base)) < 1e-9

    def test_infeasible_with_witness(self, tetrahedron):
        res = solve(tetrahedron, [10.0, 1.0, 1.0, 1.0])
        assert res.status is SolveStatus.INFEASIBLE
        assert res.witness == (0,)
        res = solve(tetrahedron, [3.2] * 4)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.witness == (0, 1, 2, 3)

    @pytest.mark.parametrize("surface, target, witness", [
        (lambda: Triangulation(4, TETRA_FACES), [3 * math.pi, 0.5, 0.5, 0.5], (0,)),  # tight
        (lambda: torus_grid(4, 4), [5 * math.pi] * 2 + [0.5] * 14, (0, 1)),           # tight
        (lambda: torus_grid(6, 6), [6 * math.pi + 0.1] + [0.5] * 35, (0,)),   # 36 vertices
    ])
    def test_infeasible_witness_at_every_size(self, surface, target, witness):
        res = solve(surface(), target)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.witness == witness

    def test_unevaluable_trial_fails_the_step(self, tetrahedron):
        # admissible by 1e-6; a Newton trial underflows exp(K) to 0, which
        # the face kernel rejects, so backtracking shortens it until it stalls
        with pytest.raises(StiffnessError, match="backtracking stalled"):
            solve(tetrahedron, [3 * math.pi - 1e-6, 1.0, 1.0, 1.0])

    def test_six_curvature_evaluations_per_flow_step(self, tetrahedron, monkeypatch):
        import hypack.flow as flow_module
        calls = {"L": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(flow_module, "vertex_curvature_sums",
                            counted("L", flow_module.vertex_curvature_sums))
        monkeypatch.setattr(flow_module, "flow_step", counted("step", flow_module.flow_step))
        res = solve(tetrahedron, np.ones(4), config=FlowConfig(newton=False))
        assert res.status is SolveStatus.CONVERGED
        # the starting residual, then stages 2-7 of each attempted step: the
        # first stage is the current rate and the last one the next rate
        assert calls["L"] == 1 + 6 * calls["step"]

    @pytest.mark.parametrize("target", [[10.0, 1.0, 1.0, 1.0], [3.2] * 4])
    def test_newton_drift_guard(self, tetrahedron, target):
        # gate off and Newton from K = 0: the iterates drift, and the guard
        # ends the solve before exp(K) leaves the kernel's range
        res = solve(tetrahedron, target,
                    config=FlowConfig(check_admissibility=False, newton_switch_tol=1e9))
        assert res.status is SolveStatus.INFEASIBLE and res.witness is None
        assert res.trace.phase[-1] == "newton"

    def test_infeasible_flow_does_not_converge(self, tetrahedron):
        cfg = FlowConfig(check_admissibility=False)
        for target in ([10.0, 1.0, 1.0, 1.0], [3.2] * 4):
            res = solve(tetrahedron, target, config=cfg)
            assert res.status is not SolveStatus.CONVERGED

    def test_newton_off_matches_newton_on(self, tetrahedron):
        on = solve(tetrahedron, np.ones(4))
        off = solve(tetrahedron, np.ones(4), config=FlowConfig(newton=False))
        assert off.status is SolveStatus.CONVERGED
        assert np.max(np.abs(on.K - off.K)) < 1e-8

    def test_lyapunov_monotone(self, tetrahedron, rng):
        res = solve(tetrahedron, np.ones(4), rng.uniform(-1, 1, 4),
                    config=FlowConfig(newton=False))
        C = [r * r for r, ph in zip(res.trace.residual_2norm, res.trace.phase)
             if ph == "flow"]
        for a, b in zip(C, C[1:]):
            assert b <= a + 1e-12

    def test_equivariance_under_relabeling(self, octahedron, rng):
        L = rng.uniform(0.5, 2.5, size=6)
        res = solve(octahedron, L)
        perm = rng.permutation(6)
        faces_p = [tuple(int(perm[v]) for v in f) for f in octahedron.faces]
        tri_p = Triangulation(6, faces_p)
        res_p = solve(tri_p, _permute_targets(L, perm))
        assert res.status is res_p.status is SolveStatus.CONVERGED
        assert np.max(np.abs(res_p.K[perm] - res.K)) < 1e-8

    def test_octahedron_mixed_targets(self, octahedron):
        res = solve(octahedron, [12.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert res.status is SolveStatus.CONVERGED
        k = np.exp(res.K)
        assert k[0] > 1.0
        assert np.all(k[1:] < 1.0)

    def test_trace_monotone_time(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4))
        ts = res.trace.ts
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_max_steps(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4), config=FlowConfig(max_steps=3))
        assert res.status is SolveStatus.MAX_STEPS_EXCEEDED

    def test_stiffness_error(self, tetrahedron, monkeypatch):
        monkeypatch.setattr(flow, "_STEP_ERROR_TOL", 1e-30)
        monkeypatch.setattr(flow, "_REL_STEP_ERROR", 1e-30)
        with pytest.raises(StiffnessError):
            solve(tetrahedron, np.ones(4))

    def test_validates_surface(self):
        broken = Triangulation(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        with pytest.raises(ValueError, match="closed surface"):
            solve(broken, np.ones(4))

    def test_nonpositive_targets(self, tetrahedron):
        with pytest.raises(ValueError):
            solve(tetrahedron, [1.0, -1.0, 1.0, 1.0])

    @pytest.mark.parametrize("gate", [True, False])
    def test_infinite_target_rejected(self, tetrahedron, gate):
        with pytest.raises(ValueError, match="finite"):
            solve(tetrahedron, [math.inf, 1.0, 1.0, 1.0],
                  config=FlowConfig(check_admissibility=gate))

    def test_csv_export(self, tetrahedron, tmp_path):
        res = solve(tetrahedron, np.ones(4))
        path = tmp_path / "traj.csv"
        res.trace.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert "vertices=4" in lines[0]
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert len(lines) == len(res.trace.ts) + 1


def _permute_targets(L, perm):
    out = np.empty_like(np.asarray(L, dtype=float))
    out[perm] = np.asarray(L, dtype=float)
    return out


class TestRateEstimate:
    def test_converged_run(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4), config=FlowConfig(newton=False))
        est = rate_estimate(res.trace)
        assert est is not None
        assert est.lam > 0.0
        assert est.r_squared > 0.99
        assert est.n_samples >= 10

    def test_insufficient_samples(self, tetrahedron):
        res = solve(tetrahedron, [10.0, 1, 1, 1],
                    config=FlowConfig(check_admissibility=False))
        assert rate_estimate(res.trace) is None

    def test_window_robustness(self, tetrahedron):
        a = rate_estimate(solve(tetrahedron, np.ones(4),
                                config=FlowConfig(newton=False)).trace)
        b = rate_estimate(solve(
            tetrahedron, np.ones(4),
            config=FlowConfig(newton=False, residual_tol=2e-10,
                              newton_switch_tol=2e-3)).trace)
        assert abs(a.lam - b.lam) < 0.1 * a.lam


class TestLargerSurface:
    def test_torus_newton_from_start(self):
        from conftest import torus_grid
        tri = torus_grid(8, 8)  # 64 vertices, Newton from K = 0
        cfg = FlowConfig(newton_switch_tol=10.0, residual_tol=1e-9)
        res = solve(tri, np.full(64, 0.5), config=cfg)
        assert res.status is SolveStatus.CONVERGED
        L = vertex_curvature_sums(tri, res.K)
        assert np.max(np.abs(L - 0.5)) < 1e-9


class TestConfigValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            FlowConfig(residual_tol=-1.0)
        with pytest.raises(ValueError):
            FlowConfig(newton_switch_tol=1e-12)  # below residual_tol


def test_import_loads_no_scipy():
    # scipy belongs to the quadrature oracle and the tests, and mpmath to the
    # tests alone; the solve path must not pull either in at import time
    import hypack
    src = os.path.dirname(os.path.dirname(hypack.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import hypack, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
