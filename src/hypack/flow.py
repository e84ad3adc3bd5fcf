"""Curvature flow dK_i/dt = -(L_i - Lhat_i) and its Newton accelerator.

The flow is the negative gradient flow of a smooth strictly convex
potential, so for admissible targets it converges exponentially to the
unique log-curvature vector realizing the prescribed per-vertex total
geodesic curvatures.  Time integration uses an embedded Dormand-Prince
5(4) pair with per-step error control; once the residual is small a
Newton iteration on the same gradient, with one dense symmetric solve
per step and a backtracking line search, finishes the job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .packing import global_jacobian, vertex_curvature_sums
# check_admissible stays importable from here, where perfbench's tracer wraps it
from .surface import Triangulation, check_admissible, violating_subset  # noqa: F401

__all__ = [
    "FlowConfig",
    "FlowTrace",
    "SolveResult",
    "SolveStatus",
    "StiffnessError",
    "RateEstimate",
    "flow_step",
    "solve",
    "rate_estimate",
]

# Dormand-Prince 5(4) tableau; row 7 of A is the 5th-order weights (FSAL).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)

# flow step size: first trial, cap, and the floor below which the
# flow raises StiffnessError
_INITIAL_STEP = 0.01
# a flow step is accepted when its error estimate is below both bounds;
# the relative cap keeps the decaying tail accuracy-limited instead of
# stability-limited
_STEP_ERROR_TOL = 1e-8
_REL_STEP_ERROR = 0.05
_MAX_STEP = 5.0
_MIN_STEP = 1e-14
_NEWTON_DAMPING = 1.0       # first Newton step fraction tried before halving

# Guards check_admissibility=False: |K_i| beyond this while the residual
# stalls ends the flow or Newton as INFEASIBLE.  Below ~36.7, where exp(K)
# leaves the polygon solvers' double-precision range, so divergence is
# diagnosed first.  With the gate on, INFEASIBLE always has a witness.
_DRIFT_LIMIT = 30.0


class StiffnessError(RuntimeError):
    """Step size underflowed while the error estimate stayed too large."""

    def __init__(self, message, K=None, t=None):
        super().__init__(message)
        self.K = K
        self.t = t


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_STEPS_EXCEEDED = "max_steps_exceeded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FlowConfig:
    """Solver knobs.  residual_tol and newton_switch_tol are max-norm
    bounds on L - Lhat.  The adaptive Dormand-Prince 5(4) flow is the
    only time stepper.  With newton on, the flow hands over to Newton
    once the residual is below newton_switch_tol."""

    residual_tol: float = 1e-10
    max_time: float = 1e5
    max_steps: int = 50_000
    newton: bool = True
    newton_switch_tol: float = 1e-3
    check_admissibility: bool = True

    def __post_init__(self):
        for name in ("residual_tol", "max_time", "newton_switch_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.newton_switch_tol <= self.residual_tol:
            raise ValueError("newton_switch_tol must exceed residual_tol")


@dataclass
class FlowTrace:
    """Accepted-step history: strictly increasing times, state snapshots,
    residual norms, and the phase ('flow' or 'newton') of each row."""

    ts: list[float] = field(default_factory=list)
    K: list[np.ndarray] = field(default_factory=list)
    residual_max: list[float] = field(default_factory=list)
    residual_2norm: list[float] = field(default_factory=list)
    phase: list[str] = field(default_factory=list)
    config: FlowConfig | None = None

    def append(self, t, K, res, phase):
        self.ts.append(t)
        self.K.append(np.array(K, copy=True))
        self.residual_max.append(float(np.max(np.abs(res))))
        self.residual_2norm.append(float(np.linalg.norm(res)))
        self.phase.append(phase)

    def write_csv(self, path: str):
        """One row per accepted step: t, residual_max, residual_2norm, K...;
        header row carries the vertex count."""
        n = len(self.K[0]) if self.K else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,residual_max,residual_2norm," +
                     ",".join(f"K{i}" for i in range(n)) +
                     f"  # vertices={n}\n")
            for t, rm, r2, K in zip(self.ts, self.residual_max,
                                    self.residual_2norm, self.K):
                fh.write(f"{t!r},{rm!r},{r2!r},"
                         + ",".join(repr(float(x)) for x in K) + "\n")


@dataclass(frozen=True)
class SolveResult:
    K: np.ndarray
    trace: FlowTrace
    status: SolveStatus
    witness: tuple[int, ...] | None = None


def flow_step(tri: Triangulation, K, l_hat, h: float, rate):
    """One embedded Dormand-Prince 5(4) step of dK/dt = -(L - Lhat).

    `rate` is Lhat - L(K), the first stage, which the caller already has.
    Returns (K', error_estimate, rate at K' = the last stage, first same as
    last); the caller accepts the step when the max-norm difference of the
    5th- and 4th-order solutions is below its bound, and else halves h.
    """
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    K = np.asarray(K, dtype=float)
    target = np.asarray(l_hat, dtype=float)
    ks = [np.asarray(rate, dtype=float)]
    for i in range(1, 7):
        y = K + h * sum(a * kk for a, kk in zip(_DP_A[i], ks))
        ks.append(target - vertex_curvature_sums(tri, y))
    K5 = K + h * sum(b * kk for b, kk in zip(_DP_B5, ks))
    K4 = K + h * sum(b * kk for b, kk in zip(_DP_B4, ks))
    return K5, float(np.max(np.abs(K5 - K4))), ks[6]


def _newton_direction(tri, K, res):
    # M is SPD at every state and symmetric to rounding: one dense solve
    return np.linalg.solve(global_jacobian(tri, K), res)


def _drifted(K, res_max: float, cfg: FlowConfig) -> bool:
    """Gate off, some |K_i| beyond _DRIFT_LIMIT and the residual not small."""
    return (not cfg.check_admissibility and res_max > cfg.residual_tol * 10
            and float(np.max(np.abs(K))) > _DRIFT_LIMIT)


def solve(tri: Triangulation, l_hat, K0=None, config: FlowConfig | None = None) -> SolveResult:
    """Drive the flow (plus optional Newton finish) to the packing with
    prescribed total geodesic curvatures.

    The target is first checked by check_admissible's maximum flow, at
    every size, and an infeasible one is rejected with its witness.  With
    check_admissibility off, divergence (some K_i beyond +-30 while the
    residual stalls) ends the solve as INFEASIBLE without a witness.  A
    trial state the face kernel cannot evaluate counts as a failed step.
    On convergence the result is independent of K0 (the packing is unique).
    """
    cfg = config or FlowConfig()
    defects = tri.validate()
    if defects:
        raise ValueError("triangulation is not a closed surface: "
                         + "; ".join(str(d) for d in defects[:5]))
    target = np.asarray(l_hat, dtype=float)
    if target.shape != (tri.num_vertices,):
        raise ValueError(f"expected {tri.num_vertices} targets, got {target.shape}")
    if not np.all((target > 0.0) & (target < math.inf)):
        raise ValueError("target curvatures must be positive and finite")

    trace = FlowTrace(config=cfg)
    if cfg.check_admissibility:
        witness = violating_subset(tri, target)
        if witness is not None:
            return SolveResult(K=np.zeros(tri.num_vertices), trace=trace,
                               status=SolveStatus.INFEASIBLE, witness=witness)

    K = (np.zeros(tri.num_vertices) if K0 is None
         else np.array(K0, dtype=float, copy=True))
    t = 0.0
    h = _INITIAL_STEP
    res = vertex_curvature_sums(tri, K) - target
    trace.append(t, K, res, "flow")
    steps = 0

    # ---- flow phase ----
    while True:
        res_max = float(np.max(np.abs(res)))
        if res_max < cfg.residual_tol:
            return SolveResult(K=K, trace=trace, status=SolveStatus.CONVERGED)
        if cfg.newton and res_max < cfg.newton_switch_tol:
            break
        if steps >= cfg.max_steps or t >= cfg.max_time:
            return SolveResult(K=K, trace=trace, status=SolveStatus.MAX_STEPS_EXCEEDED)
        if _drifted(K, res_max, cfg):
            return SolveResult(K=K, trace=trace, status=SolveStatus.INFEASIBLE)

        h = min(h, _MAX_STEP, max(cfg.max_time - t, _MIN_STEP))
        eff_tol = min(_STEP_ERROR_TOL, _REL_STEP_ERROR * res_max)
        steps += 1
        try:
            K_new, err, rate_new = flow_step(tri, K, target, h, -res)
        except ValueError:  # a stage left the range the face kernel can evaluate
            err = math.inf
        if err < eff_tol:
            t += h
            K = K_new
            res = -rate_new
            trace.append(t, K, res, "flow")
            if err > 0.0:
                h = min(_MAX_STEP, h * min(5.0, 0.9 * (eff_tol / err) ** 0.2))
            else:
                h = min(_MAX_STEP, 5.0 * h)
        else:
            h *= 0.5
            if h < _MIN_STEP:
                raise StiffnessError(
                    f"step size underflowed at t={t} (residual {res_max:.3e})",
                    K=K, t=t)

    # ---- Newton phase ----
    res_norm = float(np.linalg.norm(res))
    for _ in range(200):
        res_max = float(np.max(np.abs(res)))
        if res_max < cfg.residual_tol:
            return SolveResult(K=K, trace=trace, status=SolveStatus.CONVERGED)
        if steps >= cfg.max_steps:
            return SolveResult(K=K, trace=trace, status=SolveStatus.MAX_STEPS_EXCEEDED)
        if _drifted(K, res_max, cfg):
            return SolveResult(K=K, trace=trace, status=SolveStatus.INFEASIBLE)
        direction = _newton_direction(tri, K, res)
        alpha = _NEWTON_DAMPING
        while True:
            K_try = K - alpha * direction
            try:
                res_try = vertex_curvature_sums(tri, K_try) - target
            except ValueError:  # the trial left the range the face kernel can evaluate
                res_try = None
            if res_try is not None and float(np.linalg.norm(res_try)) < res_norm:
                break
            alpha *= 0.5
            if alpha < 1e-12:
                raise StiffnessError("Newton backtracking stalled", K=K, t=t)
        K = K_try
        res = res_try
        res_norm = float(np.linalg.norm(res))
        t += alpha
        steps += 1
        trace.append(t, K, res, "newton")
    return SolveResult(K=K, trace=trace, status=SolveStatus.MAX_STEPS_EXCEEDED)


@dataclass(frozen=True)
class RateEstimate:
    lam: float
    r_squared: float
    n_samples: int


def rate_estimate(trace: FlowTrace) -> RateEstimate | None:
    """Exponential decay rate of the residual over the pure-flow window.

    Least-squares slope of ln(residual 2-norm) against t over flow-phase
    samples with residual in (10 * residual_tol, newton_switch_tol);
    None when fewer than 10 samples land in the window.
    """
    cfg = trace.config or FlowConfig()
    lo = 10.0 * cfg.residual_tol
    hi = cfg.newton_switch_tol
    ts, ys = [], []
    for t, r2, ph in zip(trace.ts, trace.residual_2norm, trace.phase):
        if ph == "flow" and lo < r2 < hi:
            ts.append(t)
            ys.append(math.log(r2))
    if len(ts) < 10:
        return None
    tarr = np.array(ts)
    yarr = np.array(ys)
    A = np.vstack([tarr, np.ones_like(tarr)]).T
    coef, *_ = np.linalg.lstsq(A, yarr, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((yarr - fit) ** 2))
    ss_tot = float(np.sum((yarr - yarr.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateEstimate(lam=-float(coef[0]), r_squared=r2, n_samples=len(ts))
