import csv
import math
import os
import subprocess
import sys
import tracemalloc
from functools import cached_property

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
from hypack.packing import _face_curvatures, _hessian_entries
from hypack.packing import global_jacobian, vertex_curvature_sums, vertex_curvatures
from hypack.surface import Triangulation, check_admissible, violating_subset
from hypack.realize import realize_metric
from hypack.tangency import FaceArrays, InfeasibleGeometryError, corner_curvatures

from conftest import TETRA_FACES, genus2, torus_grid
from test_oracle import oracle_face
from test_surface import brute_force_admissible

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


def _unevaluable_after_first_call(monkeypatch):
    """Make every Newton evaluation in solve after the starting one raise."""
    calls = []
    evaluate = flow._evaluate

    def first_call_only(tri, K, target, **kw):
        calls.append(K)
        if len(calls) > 1:
            raise InfeasibleGeometryError("unevaluable trial")
        return evaluate(tri, K, target, **kw)

    monkeypatch.setattr(flow, "_evaluate", first_call_only)


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

    def test_near_tight_target_converges(self, tetrahedron):
        # admissible by 1e-6: the solution has K_0 ~ 31.9, and its
        # curvature sums match the 120-digit oracle
        target = [3 * math.pi - 1e-6, 1.0, 1.0, 1.0]
        res = solve(tetrahedron, target)
        assert res.status is SolveStatus.CONVERGED and res.K[0] > 30.0
        k = np.exp(res.K)
        L = np.zeros(4)
        for face in TETRA_FACES:
            for v, (_, Lv) in zip(face, oracle_face(k[list(face)], dps=120)):
                L[v] += float(Lv)
        assert np.max(np.abs(L - target)) < 1e-9

    def test_unevaluable_trial_fails_the_step(self, tetrahedron, monkeypatch):
        # every trial after the starting residual is unevaluable, so Newton
        # backtracking shortens the step until it stalls
        _unevaluable_after_first_call(monkeypatch)
        with pytest.raises(StiffnessError, match="backtracking stalled"):
            solve(tetrahedron, np.ones(4), config=FlowConfig(newton_switch_tol=1e9))

    @pytest.mark.parametrize("offset", [1e-7, 1.0])
    def test_unevaluable_jacobians_fail_a_trial_unless_it_ends_the_solve(
            self, tetrahedron, monkeypatch, offset):
        # every Jacobian derivation after the starting one raises: from near
        # the solution the first full trial is below residual_tol and ends
        # the solve without its Jacobians; from far, every trial would need
        # them for the next step, so each fails and backtracking stalls
        derive = FaceArrays.__dict__["jacobians"].func
        reads = []

        def first_read_only(self):
            reads.append(self)
            if len(reads) > 1:
                raise InfeasibleGeometryError("unevaluable Jacobian")
            return derive(self)

        prop = cached_property(first_read_only)
        prop.__set_name__(FaceArrays, "jacobians")
        monkeypatch.setattr(FaceArrays, "jacobians", prop)
        K0 = np.full(4, K_STAR_TETRA + offset)
        if offset < 1e-3:
            res = solve(tetrahedron, np.ones(4), K0)
            assert res.status is SolveStatus.CONVERGED and len(res.trace.K) == 2
            assert len(reads) == 1
        else:
            with pytest.raises(StiffnessError, match="backtracking stalled"):
                solve(tetrahedron, np.ones(4), K0)
            assert len(reads) > 10

    def test_six_curvature_evaluations_per_flow_step(self, tetrahedron, monkeypatch):
        import hypack.flow as flow_module
        calls = {"L": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return wrapper

        monkeypatch.setattr(flow_module, "vertex_curvature_sums",
                            counted("L", flow_module.vertex_curvature_sums))
        monkeypatch.setattr(flow_module, "_evaluate", counted("L", flow_module._evaluate))
        monkeypatch.setattr(flow_module, "flow_step", counted("step", flow_module.flow_step))
        res = solve(tetrahedron, np.ones(4), config=FlowConfig(newton=False))
        assert res.status is SolveStatus.CONVERGED
        # the starting residual, then stages 2-7 of each attempted step: the
        # first stage is the current rate and the last one the next rate;
        # then the certificate's areas at the converged K, which a flow step
        # does not keep
        assert calls["L"] == 1 + 6 * calls["step"] + 1

    @pytest.mark.parametrize("target, witness", [([10.0, 1.0, 1.0, 1.0], (0,)),
                                                 ([3.2] * 4, (0, 1, 2, 3))])
    def test_newton_drift_guard(self, tetrahedron, target, witness):
        # gate off and Newton from K = 0: the iterates drift, and the guard
        # ends the solve with the feasibility check's witness before exp(K)
        # leaves the kernel's range
        res = solve(tetrahedron, target,
                    config=FlowConfig(check_admissibility=False, newton_switch_tol=1e9))
        assert res.status is SolveStatus.INFEASIBLE and res.witness == witness
        assert res.trace.phase[-1] == "newton"

    @pytest.mark.parametrize("newton_switch_tol", [1e-3, 1e9])
    def test_gate_off_near_tight_target_converges(self, tetrahedron, newton_switch_tol):
        # admissible by 1e-3 with the solution at K_0 ~ 18.09, past the
        # drift limit: the drift check finds no witness and the solve goes on
        res = solve(tetrahedron, [3 * math.pi - 1e-3, 1.0, 1.0, 1.0],
                    config=FlowConfig(check_admissibility=False,
                                      newton_switch_tol=newton_switch_tol))
        assert res.status is SolveStatus.CONVERGED
        assert res.K[0] == pytest.approx(18.088, abs=1e-3)

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

    def test_max_steps_is_the_newton_budget(self):
        # Newton from the first step; this target takes 7 Newton steps
        res = solve(torus_grid(8, 8), [0.5] * 64,
                    config=FlowConfig(max_steps=2, newton_switch_tol=1e9))
        assert res.status is SolveStatus.MAX_STEPS_EXCEEDED
        assert res.trace.phase == ["flow", "newton", "newton"]

    def test_stiffness_error(self, tetrahedron, monkeypatch):
        # no error estimate is below 0, so every step is rejected
        monkeypatch.setattr(flow, "_STEP_ERROR_TOL", 0.0)
        monkeypatch.setattr(flow, "_REL_STEP_ERROR", 0.0)
        with pytest.raises(StiffnessError):
            solve(tetrahedron, np.ones(4), config=FlowConfig(newton=False))

    @pytest.mark.parametrize("surface", [genus2, lambda: torus_grid(8, 8)],
                             ids=["genus2", "torus8x8"])
    def test_default_solve_is_newton_from_the_start(self, surface):
        tri = surface()
        K_star = np.random.default_rng(1).normal(0.0, 0.7, tri.num_vertices)
        target = vertex_curvature_sums(tri, K_star)
        res = solve(tri, target)
        assert res.status is SolveStatus.CONVERGED
        # the first row is the starting state; every step after it is Newton
        steps = res.trace.phase[1:]
        assert steps and set(steps) == {"newton"} and len(steps) <= 8
        flowed = solve(tri, target, config=FlowConfig(newton=False))
        assert flowed.status is SolveStatus.CONVERGED
        assert "newton" not in flowed.trace.phase
        assert np.max(np.abs(res.K - flowed.K)) < 1e-9
        assert np.max(np.abs(res.K - K_star)) < 1e-9

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
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        # the vertex count is the number of K columns
        assert header == ["t", "residual_max", "residual_2norm", "K0", "K1", "K2", "K3"]
        lines = path.read_text().splitlines()
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert len(lines) == len(res.trace.ts) + 1

    def test_csv_rows_spell_each_entry_as_its_float_repr(self, octahedron, tmp_path):
        # a flow solve of many rows, against a row spelled entry by entry
        res = solve(octahedron, [12.0, 1, 1, 1, 1, 1], config=FlowConfig(newton=False))
        tr = res.trace
        assert len(tr.K) > 10
        path = tmp_path / "traj.csv"
        tr.write_csv(str(path))
        rows = [",".join(["t", "residual_max", "residual_2norm"] + [f"K{i}" for i in range(6)])]
        rows += [",".join([repr(t), repr(rm), repr(r2)] + [repr(float(x)) for x in K])
                 for t, rm, r2, K in zip(tr.ts, tr.residual_max, tr.residual_2norm, tr.K)]
        assert path.read_text(encoding="utf-8") == "\n".join(rows) + "\n"


def _permute_targets(L, perm):
    out = np.empty_like(np.asarray(L, dtype=float))
    out[perm] = np.asarray(L, dtype=float)
    return out


def icosahedron() -> Triangulation:
    """Apex 0, upper ring 1-5, lower ring 6-10, apex 11."""
    faces = []
    for j in range(5):
        a, b = 1 + j, 1 + (j + 1) % 5
        c, d = 6 + j, 6 + (j + 1) % 5
        faces += [(0, a, b), (a, c, b), (b, c, d), (11, d, c)]
    return Triangulation(12, faces)


class TestCertificate:
    @pytest.mark.parametrize("surface", [lambda: torus_grid(3, 4), icosahedron],
                             ids=["torus3x4", "icosahedron"])
    def test_certified_targets_are_admissible(self, surface):
        # targets L(K) + d with |d_i| up to the area A_i of the faces at i,
        # or up to 0.34 A_i, just past what the certificate accepts.  A
        # quarter have every d_i >= 0 and up to A_i: sum d then passes
        # sum A / 3, which breaks the bound at W = V, so a certificate
        # without its factor 3 accepts inadmissible targets
        tri = surface()
        rng = np.random.default_rng(12)
        accepted = inadmissible = 0
        for trial in range(48):
            K = rng.normal(0.0, 1.5, 12)
            rep = vertex_curvatures(tri, K)
            A = np.bincount(tri.face_array.ravel(), weights=np.repeat(rep.arrays.area, 3))
            d = rng.uniform(-1.0, 1.0, 12) * A * (0.34 if trial % 2 else 1.0)
            target = rep.L + (np.abs(d) if trial % 4 < 2 else d)
            if not (target > 0.0).all():
                continue
            worst, _ = brute_force_admissible(tri, target)
            inadmissible += worst <= 0.0
            if flow._certified(tri, rep.L - target, rep.arrays.area):
                accepted += 1
                assert worst > 0.0
        assert accepted >= 15 and inadmissible >= 5


def reference_solve(tri, target, K0=None, config=FlowConfig(), *, uncertified_ok=False):
    """(status, trace rows of K) of the solve loop with a Jacobian call per
    Newton step and a value-only call per trial: the public
    global_jacobian, vertex_curvature_sums and np.linalg.solve, and the
    certificate from its own vertex_curvatures call, which must hold
    unless uncertified_ok, where the maximum flow decides instead (as in
    solve).  Without K0 it starts where solve does, from flow's table of
    the one-corner curve.  No drift guard: on
    an admissible target the guard finds no witness and changes nothing."""
    target = np.asarray(target, dtype=float)
    K = _default_start(tri, target) if K0 is None else np.array(K0, dtype=float)
    rows = [K]
    res = vertex_curvature_sums(tri, K) - target
    h, steps, newton = flow._INITIAL_STEP, 0, False
    while np.max(np.abs(res)) >= config.residual_tol:
        if steps >= config.max_steps:
            return SolveStatus.MAX_STEPS_EXCEEDED, rows
        steps += 1
        res_max = float(np.max(np.abs(res)))
        newton = newton or (config.newton and res_max < config.newton_switch_tol)
        if newton:
            direction = np.linalg.solve(flow.global_jacobian(tri, K), res)
            alpha = min(1.0, flow._NEWTON_MAX_STEP / np.max(np.abs(direction)))
            floor = 1e-12 * alpha
            while True:
                K_try = K - alpha * direction
                try:
                    res_try = vertex_curvature_sums(tri, K_try) - target
                except ValueError:
                    res_try = None
                if res_try is not None and np.linalg.norm(res_try) < np.linalg.norm(res):
                    break
                alpha *= 0.5
                assert alpha >= floor
            K, res = K_try, res_try
        else:
            h = min(h, flow._MAX_STEP)
            eff_tol = min(flow._STEP_ERROR_TOL, flow._REL_STEP_ERROR * res_max)
            K_new, err, rate_new = flow_step(tri, K, target, h, -res)
            if not err < eff_tol:
                h *= 0.5
                continue
            K, res = K_new, -rate_new
            h *= min(5.0, 0.9 * (eff_tol / err) ** 0.2) if err > 0.0 else 5.0
        rows.append(K)
    rep = vertex_curvatures(tri, K)
    slack = np.bincount(tri.face_array.ravel(),
                        weights=np.repeat(rep.arrays.area - 1e-12 * math.pi, 3))
    certified = bool(np.all(3.0 * np.abs(rep.L - target) < slack))
    assert certified or (uncertified_ok and check_admissible(tri, target).admissible)
    return SolveStatus.CONVERGED, rows


def _default_start(tri, target):
    """solve's K0 when none is given: each vertex where one corner between
    two horocycles, L(e^K, 1, 1), is its share Lhat_i / deg(i)."""
    deg = np.array([tri.degree(v) for v in range(tri.num_vertices)])
    return np.interp(target / deg, flow._START_L, flow._START_K)


def _newton_trials(trace):
    """Trials of the Newton steps in trace: a step that took fraction
    alpha = alpha0 2^-m of its direction d took m + 1, where alpha0 =
    min(1, c / max|d|) for the cap c.  Its move is alpha d, so
    alpha0 / alpha = min(1 / alpha, c / max|alpha d|)."""
    cap = flow._NEWTON_MAX_STEP
    return sum(1 + round(math.log2(min(1.0 / (t1 - t0), cap / np.max(np.abs(K1 - K0)))))
               for t0, t1, K0, K1, ph in zip(trace.ts, trace.ts[1:], trace.K, trace.K[1:],
                                             trace.phase[1:])
               if ph == "newton")


def _planted(tri, seed, sigma=0.7):
    return vertex_curvature_sums(tri, np.random.default_rng(seed).normal(0.0, sigma,
                                                                         tri.num_vertices))


ITERATE_CASES = {
    **{f"genus2-{seed}": (genus2, seed, None, FlowConfig()) for seed in range(4)},
    "torus8x8": (lambda: torus_grid(8, 8), 1, None, FlowConfig()),
    # a start above the solution: the first two capped steps still halve
    "far-backtracks": (genus2, 0, 3.0, FlowConfig()),
    "handover": (genus2, 2, None, FlowConfig(newton_switch_tol=1e-3)),
}


def _count_derived(monkeypatch, log=None):
    """Count the evaluations of each field FaceArrays derives on first read
    (jacobians derives J_diag and J_pair together), and append (name,
    arrays) of each to log, if given."""
    counts = dict.fromkeys(("kind", "gen", "area", "polygon_area", "jacobians"), 0)
    for name in counts:
        def counted(self, derive=FaceArrays.__dict__[name].func, name=name):
            counts[name] += 1
            if log is not None:
                log.append((name, self))
            return derive(self)
        prop = cached_property(counted)
        prop.__set_name__(FaceArrays, name)
        monkeypatch.setattr(FaceArrays, name, prop)
    return counts


class TestOneEvaluationPerIterate:
    @staticmethod
    def _problem(case):
        surface, seed, K0, cfg = ITERATE_CASES[case]
        tri = surface()
        return tri, _planted(tri, seed), None if K0 is None else np.full(tri.num_vertices, K0), cfg

    @pytest.mark.parametrize("case", ITERATE_CASES)
    def test_iterates_match_the_reference_loop(self, case):
        tri, target, K0, cfg = self._problem(case)
        res = solve(tri, target, K0, config=cfg)
        status, rows = reference_solve(tri, target, K0, cfg)
        assert res.status is status is SolveStatus.CONVERGED
        assert len(res.trace.K) == len(rows)
        assert all(np.array_equal(a, b) for a, b in zip(res.trace.K, rows))
        assert np.array_equal(res.K, rows[-1])
        if case == "handover":
            assert set(res.trace.phase[1:]) == {"flow", "newton"}
        if case == "far-backtracks":
            assert _newton_trials(res.trace) > len(rows) - 1

    @pytest.mark.parametrize("case", ["genus2-0", "torus8x8", "far-backtracks"])
    def test_one_kernel_call_per_evaluated_iterate(self, case, monkeypatch):
        # the start and each Newton trial: no Jacobian call per step and no
        # call for the certificate.  The Jacobians are derived once per
        # Newton step, from the iterate it starts at, in one derivation of
        # both: never of a rejected trial, nor of the final one, which ends
        # the solve
        import hypack.packing
        tri, target, K0, cfg = self._problem(case)
        calls = []
        kernel = hypack.packing.face_kernel

        def counted(k):
            calls.append(k)
            return kernel(k)

        for module in (flow, hypack.packing):
            monkeypatch.setattr(module, "face_kernel", counted)
        log = []
        _count_derived(monkeypatch, log)
        res = solve(tri, target, K0, config=cfg)
        assert res.status is SolveStatus.CONVERGED
        assert len(calls) == 1 + _newton_trials(res.trace)
        steps = res.trace.phase.count("newton")
        assert steps == len(res.trace.K) - 1 >= 3
        derived_at = [fa.k for n, fa in log if n == "jacobians"]
        assert len(derived_at) == steps
        assert all(np.array_equal(k, _face_curvatures(tri, K))
                   for k, K in zip(derived_at, res.trace.K[:-1]))

    @pytest.mark.parametrize("surface", [genus2, lambda: torus_grid(16, 16)],
                             ids=["genus2", "torus16x16"])
    def test_a_newton_solve_derives_only_the_certificate_areas(self, surface, monkeypatch):
        # the iterates read L and, once per Newton step, J alone (J_diag and
        # J_pair in one derivation); the certificate reads the face areas of
        # the converged K once, and realization none of the derived fields:
        # it sums the kernel's own w and G, and no J
        tri = surface()
        counts = _count_derived(monkeypatch)
        res = solve(tri, _planted(tri, 0))
        steps = len(res.trace.K) - 1
        assert res.status is SolveStatus.CONVERGED and steps > 1
        assert counts == {"kind": 0, "gen": 0, "area": 1, "polygon_area": 0,
                          "jacobians": steps}
        counts.update(dict.fromkeys(counts, 0))
        realize_metric(tri, res.K)
        assert counts == {"kind": 0, "gen": 0, "area": 0, "polygon_area": 0,
                          "jacobians": 0}

    @pytest.mark.parametrize("surface", [genus2, lambda: torus_grid(8, 8)],
                             ids=["genus2", "torus8x8"])
    def test_a_flow_solve_derives_no_jacobian(self, surface, monkeypatch):
        tri = surface()
        counts = _count_derived(monkeypatch)
        res = solve(tri, _planted(tri, 0), config=FlowConfig(newton=False))
        assert res.status is SolveStatus.CONVERGED
        assert counts["jacobians"] == 0 and counts["area"] == 1


def _start_of(tri, target):
    """The K0 a default solve starts from: its first trace row."""
    cfg = FlowConfig(max_steps=0, check_admissibility=False)
    return solve(tri, target, config=cfg).trace.K[0]


def _planted_cusps(tri, seed, sigma):
    """Planted targets, log k ~ N(0, sigma), with about a fifth of the
    vertices on horocycles (K = 0) on odd seeds."""
    rng = np.random.default_rng([seed, round(10 * sigma)])
    K_star = rng.normal(0.0, sigma, tri.num_vertices)
    if seed % 2:
        K_star[rng.random(tri.num_vertices) < 0.2] = 0.0
    return vertex_curvature_sums(tri, K_star)


class TestDefaultStart:
    """Without K0 a solve starts each vertex where one corner between two
    horocycles, L(e^K, 1, 1), is its share Lhat_i / deg(i) of the target."""

    def test_the_table_rises_strictly(self):
        assert np.all(np.diff(flow._START_L) > 0.0)

    def test_each_corner_meets_its_share(self):
        tri = genus2()
        deg = np.array([tri.degree(v) for v in range(tri.num_vertices)])
        lo, hi = flow._START_L[0], flow._START_L[-1]
        for seed in range(20):
            share = np.exp(np.random.default_rng(seed).uniform(np.log(lo), np.log(hi),
                                                               tri.num_vertices))
            K0 = _start_of(tri, share * deg)
            got = [corner_curvatures(math.exp(K), 1.0, 1.0)[0] for K in K0]
            assert np.max(np.abs(np.array(got) - share)) < 1e-3

    def test_shares_beyond_the_table_clamp_to_its_ends(self):
        tri = genus2()
        deg = np.array([tri.degree(v) for v in range(tri.num_vertices)])
        share = np.where(np.arange(tri.num_vertices) % 2, 1e-9, 1e3)
        K0 = _start_of(tri, share * deg)
        assert np.array_equal(K0, np.where(share < 1.0, flow._START_K[0], flow._START_K[-1]))
        assert np.max(np.abs(K0)) < flow._DRIFT_LIMIT

    @pytest.mark.parametrize("j", [7, 8, 11, 12, 16, 23, 25, 29, 33])
    def test_a_planted_genus2_state_takes_four_newton_steps(self, j):
        # as perfbench's solve-genus2 pool draws its states; from K = 0
        # each of them takes five
        tri = genus2()
        K_star = np.random.default_rng([2, j]).normal(0.0, 0.7, tri.num_vertices)
        res = solve(tri, vertex_curvature_sums(tri, K_star))
        assert res.status is SolveStatus.CONVERGED
        assert res.trace.phase[1:] == ["newton"] * 4
        assert np.max(np.abs(res.K - K_star)) < 1e-9

    @pytest.mark.parametrize("sigma", [0.7, 2.0, 4.0])
    @pytest.mark.parametrize("surface", [genus2, lambda: torus_grid(8, 8)],
                             ids=["genus2", "torus8x8"])
    def test_no_more_steps_than_from_zero(self, surface, sigma):
        tri = surface()
        for seed in range(4):
            target = _planted_cusps(tri, seed, sigma)
            default = solve(tri, target)
            zero = solve(tri, target, np.zeros(tri.num_vertices))
            assert default.status is zero.status is SolveStatus.CONVERGED, seed
            assert len(default.trace.K) <= len(zero.trace.K), seed


@pytest.mark.parametrize("K0", [-6.0, -8.0])
def test_newton_from_a_start_far_below_the_solution(K0):
    # without the step cap Newton stalled here: from -8 the first
    # direction is 310 long, the fraction of it that lowered the residual
    # landed where M is singular to rounding, and no trial from there did
    tri = genus2()
    K_star = np.random.default_rng(0).normal(0.0, 0.7, tri.num_vertices)
    res = solve(tri, _planted(tri, 0), np.full(tri.num_vertices, K0))
    assert res.status is SolveStatus.CONVERGED
    assert np.max(np.abs(res.K - K_star)) < 1e-9


@pytest.mark.parametrize("surface", [genus2, lambda: torus_grid(8, 8)],
                         ids=["genus2", "torus8x8"])
def test_newton_converges_from_random_starts(surface):
    # K0 ~ N(mu, s) with mu in (-15, 15) and s in (0, 6), against planted
    # targets at sigma 0.7, 2 and 4; before the step cap most such starts
    # stalled
    tri = surface()
    rng = np.random.default_rng(2026)
    for trial in range(30):
        K_star = rng.normal(0.0, (0.7, 2.0, 4.0)[trial % 3], tri.num_vertices)
        K0 = rng.normal(rng.uniform(-15.0, 15.0), rng.uniform(0.0, 6.0), tri.num_vertices)
        res = solve(tri, vertex_curvature_sums(tri, K_star), K0)
        assert res.status is SolveStatus.CONVERGED, trial


def _resolve_problem(tri, j):
    """(K*, target) of a warm re-solve: the targets of K* + delta,
    delta_i = +-3e-6 with random signs, as perfbench's resolve-torus16
    draws its pool state j."""
    rng = np.random.default_rng([3, j])
    K_star = rng.normal(0.0, 0.7, tri.num_vertices)
    return K_star, vertex_curvature_sums(
        tri, K_star + 3e-6 * rng.choice((-1.0, 1.0), tri.num_vertices))


@pytest.fixture(scope="module")
def torus16():
    return torus_grid(16, 16)


class TestConjugateGradientStep:
    """From flow._CG_MIN_VERTICES vertices up a Newton step solves by CG on
    M's edge form; below, by one dense solve."""

    @pytest.mark.parametrize("case", [f"warm-{j}" for j in range(40)]
                             + [f"sigma{s}-{seed}" for s in (0.7, 2, 4, 6) for seed in range(4)])
    def test_solution_matches_the_dense_loop(self, torus16, case):
        tri = torus16
        if case.startswith("warm"):
            K0, target = _resolve_problem(tri, int(case[5:]))
        else:
            sigma, seed = case[5:].split("-")
            K0, target = None, _planted(tri, int(seed), float(sigma))
        res = solve(tri, target, K0)
        # at sigma = 6, seed 3, faces of curvature ~2e5 have areas that round
        # to 0, so the certificate fails and the maximum flow decides
        status, rows = reference_solve(tri, target, K0, uncertified_ok=case == "sigma6-3")
        assert res.status is status is SolveStatus.CONVERGED
        # the iterates differ by up to ~1e-10, CG's relative tolerance on
        # the first, long steps; the Newton steps after them remove it down
        # to what rounding leaves.  Each route's final residual is known to
        # about one rounding of the largest target, eps max(Lhat) per entry;
        # the difference of the two, at most twice that, has 2-norm at most
        # c eps max(Lhat) with c = 2 sqrt(n), and M^-1 maps it to a K
        # difference of at most that over lambda_min(M) in the 2-norm, which
        # bounds the max-norm.  Where that exceeds 1e-12, the dense route
        # alone can move as much with the BLAS thread count: 1.5e-12 at
        # sigma = 6, seed 0, before the step cap changed that solve
        assert len(res.trace.K) == len(rows)
        lam_min = np.linalg.eigvalsh(flow.global_jacobian(tri, rows[-1]))[0]
        c = 2.0 * math.sqrt(tri.num_vertices)
        bound = max(1e-12, c * np.finfo(float).eps * np.max(target) / lam_min)
        assert np.max(np.abs(res.K - rows[-1])) <= bound

    @pytest.mark.parametrize("surface, dense", [(genus2, True),
                                                (lambda: torus_grid(8, 8), True),
                                                (lambda: torus_grid(16, 16), False)],
                             ids=["genus2", "torus8x8", "torus16x16"])
    def test_each_size_takes_its_path(self, surface, dense, monkeypatch):
        calls = []
        dense_solve = np.linalg.solve

        def counted(a, b):
            calls.append(a.shape)
            return dense_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        tri = surface()
        res = solve(tri, _planted(tri, 1))
        assert res.status is SolveStatus.CONVERGED
        steps = res.trace.phase.count("newton")
        assert steps >= 4 and len(calls) == (steps if dense else 0)

    def test_cold_32x32_solve_makes_no_dense_matrix(self):
        # the dense M alone would be 8 MB
        tri = torus_grid(32, 32)
        target = _planted(tri, 0)
        tracemalloc.start()
        try:
            res = solve(tri, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status is SolveStatus.CONVERGED
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n, sigma, seed",
                             [(32, 0.7, 0), (32, 0.7, 1), (16, 2, 0), (16, 2, 1)])
    def test_the_forcing_term_keeps_the_newton_path(self, n, sigma, seed, monkeypatch):
        # CG solves a step only to max(_CG_RTOL, min(_CG_ETA_MAX, |b|_2^2)):
        # the steps and the final K are those of solving every step to _CG_RTOL
        tri = torus_grid(n, n)
        target = _planted(tri, seed, sigma)
        res = solve(tri, target)
        monkeypatch.setattr(flow, "_CG_ETA_MAX", 0.0)
        exact = solve(tri, target)
        assert res.status is exact.status is SolveStatus.CONVERGED
        assert res.trace.phase.count("newton") == exact.trace.phase.count("newton")
        assert np.max(np.abs(res.K - exact.K)) <= 1e-11

    def test_a_warm_step_solves_to_its_forcing_term(self, torus16, monkeypatch):
        K0, target = _resolve_problem(torus16, 0)
        b = vertex_curvature_sums(torus16, K0) - target
        calls = []
        cg = flow._cg_solve

        def recorded(index, entries, rhs, rtol):
            calls.append((rhs, rtol))
            return cg(index, entries, rhs, rtol)

        monkeypatch.setattr(flow, "_cg_solve", recorded)
        res = solve(torus16, target, K0)
        assert res.status is SolveStatus.CONVERGED and res.trace.phase == ["flow", "newton"]
        [(rhs, rtol)] = calls
        norm2 = math.sqrt(b @ b) ** 2
        assert np.array_equal(rhs, b) and flow._CG_RTOL < norm2 < flow._CG_ETA_MAX
        assert rtol == max(flow._CG_RTOL, min(flow._CG_ETA_MAX, norm2))

    @pytest.mark.parametrize("fault", ["negated", "no iterations left"])
    def test_cg_raises_stiffness_error(self, torus16, fault):
        tri = torus16
        K = np.random.default_rng(0).normal(0.0, 0.7, 256)
        entries = _hessian_entries(tri, vertex_curvatures(tri, K).arrays)
        b = np.random.default_rng(1).normal(0.0, 1.0, 256)
        index = tri._hessian_index
        assert np.max(np.abs(flow._cg_solve(index, entries, b, flow._CG_RTOL)
                             - np.linalg.solve(global_jacobian(tri, K), b))) < 1e-8
        rtol = flow._CG_RTOL
        if fault == "negated":
            entries, match = -entries, "not positive definite"
        else:
            rtol, match = 0.0, "in 256 iterations"
        with pytest.raises(StiffnessError, match=match):
            flow._cg_solve(index, entries, b, rtol)


@pytest.fixture
def gate_calls(monkeypatch):
    """The targets of every violating_subset call that solve makes."""
    calls = []

    def counted(tri, l_hat):
        calls.append(list(l_hat))
        return violating_subset(tri, l_hat)

    monkeypatch.setattr(flow, "violating_subset", counted)
    return calls


class TestAdmissibilityGate:
    @pytest.mark.parametrize("surface", [lambda: Triangulation(4, TETRA_FACES), genus2,
                                         lambda: torus_grid(8, 8)],
                             ids=["tetra", "genus2", "torus8x8"])
    def test_converged_solve_runs_no_maximum_flow(self, surface, gate_calls):
        tri = surface()
        K_star = np.random.default_rng(3).normal(0.0, 0.7, tri.num_vertices)
        res = solve(tri, vertex_curvature_sums(tri, K_star))
        assert res.status is SolveStatus.CONVERGED and res.witness is None
        assert gate_calls == []

    @pytest.mark.parametrize("ending", ["drift", "stiffness", "no steps",
                                        "certificate", "kernel"])
    @pytest.mark.parametrize("target", [[10.0, 1.0, 1.0, 1.0], [3.2] * 4])
    def test_every_uncertified_ending_runs_it_once(self, tetrahedron, gate_calls,
                                                   monkeypatch, ending, target):
        K0, cfg = None, FlowConfig()
        if ending == "stiffness":
            _unevaluable_after_first_call(monkeypatch)
        elif ending == "no steps":
            cfg = FlowConfig(max_steps=0)
        elif ending == "certificate":
            # the starting residual passes a loose tolerance; the
            # certificate cannot hold on an infeasible target
            cfg = FlowConfig(residual_tol=5.0)
        elif ending == "kernel":
            K0 = [800.0, 0.0, 0.0, 0.0]  # exp(800) overflows
        res = solve(tetrahedron, target, K0, config=cfg)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.witness == check_admissible(tetrahedron, target).witness
        assert gate_calls == [target]
        if ending == "drift":
            assert np.max(np.abs(res.K)) > 15.0 and res.trace.phase[-1] == "newton"

    @pytest.mark.parametrize("K0", [np.zeros(3), np.zeros((4, 1)), [0.0, math.nan, 0.0, 0.0],
                                    [0.0, 0.0, math.inf, 0.0], [-math.inf, 0.0, 0.0, 0.0]],
                             ids=["short", "column", "nan", "inf", "-inf"])
    def test_bad_start_raises_before_any_maximum_flow(self, tetrahedron, gate_calls, K0):
        # a finite K0 that the kernel cannot evaluate is an ending ("kernel"
        # above); a K0 of the wrong shape or not finite is a bad input
        for target in ([10.0, 1.0, 1.0, 1.0], np.ones(4)):
            with pytest.raises(ValueError, match="K0"):
                solve(tetrahedron, target, K0)
        assert gate_calls == []

    def test_near_tight_target_runs_it_once_and_converges(self, tetrahedron, gate_calls):
        # the areas of the faces at vertex 0 round to 0 at K_0 ~ 31.9, so
        # the certificate fails and the maximum flow finds no witness
        res = solve(tetrahedron, [3 * math.pi - 1e-6, 1.0, 1.0, 1.0])
        assert res.status is SolveStatus.CONVERGED and res.K[0] > 30.0
        assert len(gate_calls) == 1

    def test_admissible_target_keeps_its_ending(self, tetrahedron, gate_calls, monkeypatch):
        res = solve(tetrahedron, np.ones(4), config=FlowConfig(max_steps=0))
        assert res.status is SolveStatus.MAX_STEPS_EXCEEDED and res.witness is None
        with pytest.raises(InfeasibleGeometryError):
            solve(tetrahedron, np.ones(4), [800.0, 0.0, 0.0, 0.0])
        _unevaluable_after_first_call(monkeypatch)
        with pytest.raises(StiffnessError, match="backtracking stalled"):
            solve(tetrahedron, np.ones(4))
        assert len(gate_calls) == 3

    def test_gate_off_runs_only_the_drift_guard(self, tetrahedron, gate_calls, monkeypatch):
        off = FlowConfig(check_admissibility=False)
        res = solve(tetrahedron, [3.2] * 4, config=off)
        assert res.status is SolveStatus.INFEASIBLE and res.witness == (0, 1, 2, 3)
        assert len(gate_calls) == 1
        res = solve(tetrahedron, [3.2] * 4,
                    config=FlowConfig(check_admissibility=False, max_steps=0))
        assert res.status is SolveStatus.MAX_STEPS_EXCEEDED and res.witness is None
        with pytest.raises(InfeasibleGeometryError):
            solve(tetrahedron, [3.2] * 4, [800.0, 0.0, 0.0, 0.0], config=off)
        _unevaluable_after_first_call(monkeypatch)
        with pytest.raises(StiffnessError):
            solve(tetrahedron, [3.2] * 4, config=off)
        assert len(gate_calls) == 1


class TestRateEstimate:
    def test_converged_run(self, tetrahedron):
        res = solve(tetrahedron, np.ones(4), config=FlowConfig(newton=False))
        est = rate_estimate(res.trace)
        assert est is not None
        assert est.lam > 0.0
        assert est.r_squared > 0.99
        assert est.n_samples >= 10

    def test_rate_is_pinned(self, tetrahedron):
        # the fit window's top is a constant, so newton_switch_tol does
        # not move the rate of the flow on unit targets; pinned from K = 0
        for switch in (1e-2, math.inf):
            est = rate_estimate(solve(tetrahedron, np.ones(4), np.zeros(4),
                                      config=FlowConfig(newton=False,
                                                        newton_switch_tol=switch)).trace)
            assert est.lam == pytest.approx(0.6464068075858324, rel=1e-6)
            assert est.r_squared == pytest.approx(0.9999477805109847, rel=1e-6)
            assert est.n_samples == 16

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
        with pytest.raises(ValueError, match="max_steps"):
            FlowConfig(max_steps=-5)

    @pytest.mark.parametrize("steps", [2.5, True, "3", None])
    def test_rejects_a_step_budget_that_is_not_an_integer(self, steps):
        # 2.5 used to let a flow solve take a third step attempt
        with pytest.raises(ValueError, match="max_steps"):
            FlowConfig(max_steps=steps)

    def test_takes_a_numpy_step_budget(self, tetrahedron):
        cfg = FlowConfig(max_steps=np.int64(2), newton=False)
        res = solve(tetrahedron, np.ones(4), config=cfg)
        assert res.status is SolveStatus.MAX_STEPS_EXCEEDED
        assert res.trace.phase == ["flow", "flow", "flow"]  # K0 and two steps


def test_import_loads_no_scipy():
    # scipy belongs to the quadrature oracle and the tests, and mpmath to the
    # tests alone; the solve path must not pull either in at import time,
    # nor numpy.polynomial, which costs milliseconds and np.polyval replaces
    import hypack
    src = os.path.dirname(os.path.dirname(hypack.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import hypack, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath') or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
