"""Newton's method and the curvature flow dK_i/dt = -(L_i - Lhat_i).

The flow is the negative gradient flow of a smooth strictly convex
potential, so for admissible targets it converges exponentially to the
unique log-curvature vector realizing the prescribed per-vertex total
geodesic curvatures.  The same convexity makes damped Newton on that
gradient converge from any start.  One loop takes Newton steps from K0
by default: one dense solve each, halved from the full step until the
residual falls.  The start and every Newton trial are one face-kernel
evaluation (_evaluate), which gives the residual, the face areas and the
face Jacobians together: an accepted trial's Jacobians make the next
step's matrix, and its areas the certificate.  With newton=False it
integrates the flow instead, with an embedded Dormand-Prince 5(4) pair
under per-step error control; with a finite newton_switch_tol it
integrates the flow until the residual is below that bound and takes
Newton steps from there on.  A converged K whose residual is small
against its face areas proves the target admissible (_certified); only a
solve without that proof runs the maximum flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .packing import _assemble_jacobian, _sum_at_vertices, vertex_curvature_sums, vertex_curvatures
# global_jacobian stays importable from here, where perfbench's tracer wraps it
from .packing import global_jacobian  # noqa: F401
from .tangency import FaceArrays
# check_admissible stays importable from here, where perfbench's tracer wraps it
from .surface import Triangulation, check_admissible, violating_subset  # noqa: F401
from .surface import _checked_targets, _count

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

# flow step size: first trial, cap, and the floor that raises StiffnessError
_INITIAL_STEP = 0.01
_MAX_STEP = 5.0
_MIN_STEP = 1e-14
# a flow step is accepted when its error estimate is below both bounds;
# the relative cap keeps the decaying tail accuracy-limited instead of
# stability-limited
_STEP_ERROR_TOL = 1e-8
_REL_STEP_ERROR = 0.05

# |K_i| beyond this while the residual stalls runs the feasibility check
# once, which ends the flow or Newton as INFEASIBLE if it finds a witness.
# The area of a face whose curvatures all grow falls like 0.16 e^(-2K),
# so from K ~ 17 its L sum
# to pi to rounding and a drifting Newton iteration stalls instead; at 15
# the area is still 34 ulps of pi.
_DRIFT_LIMIT = 15.0

# rate_estimate fits residuals below this: the flow's exponential tail,
# past the transient of its first steps
_RATE_WINDOW_TOP = 1e-3


class StiffnessError(RuntimeError):
    """The flow's step size or Newton's step fraction underflowed."""

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
    bounds on L - Lhat.  By default (newton on, newton_switch_tol
    infinite) every step is a Newton step from K0.  With newton off every
    step is a step of the adaptive Dormand-Prince 5(4) flow, the only
    time stepper; with a finite newton_switch_tol the flow hands over to
    Newton for good once the residual is below it.  max_steps, the only
    budget, counts flow step attempts and Newton steps alike; at 0 the
    solve only evaluates the residual at K0."""

    residual_tol: float = 1e-10
    max_steps: int = 50_000
    newton: bool = True
    newton_switch_tol: float = math.inf
    check_admissibility: bool = True

    def __post_init__(self):
        for name in ("residual_tol", "newton_switch_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        _count(self.max_steps, "max_steps", 0)
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


def _evaluate(tri: Triangulation, K, target, *, jac: bool = True) -> tuple[np.ndarray, FaceArrays]:
    """The residual L(K) - Lhat and the kernel's arrays at K, the face
    areas and (under jac) the face Jacobians among them, from one
    face_kernel call."""
    rep = vertex_curvatures(tri, K, jac=jac)
    return rep.L - target, rep.arrays


def _newton_step(tri: Triangulation, K, res, J, target):
    """One Newton step on L(K) = Lhat: a dense solve with the Hessian
    assembled from the face Jacobians J at K (SPD, symmetric to rounding),
    then alpha halved from 1 until the residual 2-norm falls.  Each trial
    is one _evaluate call, and a trial whose values or Jacobians the
    kernel cannot evaluate fails.  Returns (K', residual at K', arrays at
    K', alpha); raises StiffnessError once alpha is below 1e-12."""
    direction = np.linalg.solve(_assemble_jacobian(tri, J), res)
    res_norm = float(np.linalg.norm(res))
    alpha = 1.0
    while alpha >= 1e-12:
        K_try = K - alpha * direction
        try:
            res_try, fa_try = _evaluate(tri, K_try, target)
        except ValueError:  # the trial left the range the face kernel can evaluate
            res_try = None
        if res_try is not None and float(np.linalg.norm(res_try)) < res_norm:
            return K_try, res_try, fa_try, alpha
        alpha *= 0.5
    raise StiffnessError("Newton backtracking stalled", K=K)


def solve(tri: Triangulation, l_hat, K0=None, config: FlowConfig | None = None) -> SolveResult:
    """Take Newton steps from K0 (by default) or flow steps to the packing
    with prescribed total geodesic curvatures.

    Each pass takes a Newton step or, with newton off or until a finite
    newton_switch_tol is reached, a flow step; max_steps counts both.  A
    trial the kernel cannot evaluate fails (a Newton trial, also when only
    its Jacobians overflow).  The first divergence (some
    K_i beyond +-15 while the residual stalls) runs check_admissible's
    maximum flow once, and a witness ends the solve as INFEASIBLE.  With
    check_admissibility on (the default), a converged solve must also
    certify the target (_certified); any other ending (a failed
    certificate, max_steps, a StiffnessError or a kernel failure) runs
    that maximum flow once, and is INFEASIBLE if it finds a witness.  On
    convergence the result is independent of K0 (the packing is unique).
    A K0 of the wrong shape or with an entry that is not finite raises
    ValueError before any kernel call.
    """
    cfg = config or FlowConfig()
    defects = tri.validate()
    if defects:
        raise ValueError("triangulation is not a closed surface: "
                         + "; ".join(str(d) for d in defects[:5]))
    target = _checked_targets(tri, l_hat)
    K = (np.zeros(tri.num_vertices) if K0 is None
         else np.array(K0, dtype=float, copy=True))
    if K.shape != target.shape or not np.isfinite(K).all():
        raise ValueError(f"K0 must hold {tri.num_vertices} finite entries; got shape "
                         f"{K.shape} with {np.count_nonzero(~np.isfinite(K))} not finite")

    trace = FlowTrace(config=cfg)
    t = 0.0
    h = _INITIAL_STEP
    steps = 0
    newton = False  # once on, it stays on
    checked = False  # violating_subset ran, at most once
    witness = status = failure = None
    try:
        # fa: the kernel's arrays at K, or None when K came from a flow step.
        # Only Newton steps use the Jacobians, so with newton off the start
        # goes without them
        res, fa = _evaluate(tri, K, target, jac=cfg.newton)
        trace.append(t, K, res, "flow")
        while True:
            res_max = float(np.max(np.abs(res)))
            if res_max < cfg.residual_tol:
                status = SolveStatus.CONVERGED
                break
            if steps >= cfg.max_steps:
                status = SolveStatus.MAX_STEPS_EXCEEDED
                break
            if (not checked and res_max > cfg.residual_tol * 10
                    and float(np.max(np.abs(K))) > _DRIFT_LIMIT):
                checked = True
                witness = violating_subset(tri, target)
                if witness is not None:
                    break
            steps += 1
            newton = newton or (cfg.newton and res_max < cfg.newton_switch_tol)
            if newton:
                if fa is None:  # the handover from the flow
                    fa = _evaluate(tri, K, target)[1]
                K, res, fa, alpha = _newton_step(tri, K, res, fa.J, target)
                t += alpha
                trace.append(t, K, res, "newton")
                continue
            h = min(h, _MAX_STEP)
            eff_tol = min(_STEP_ERROR_TOL, _REL_STEP_ERROR * res_max)
            try:
                K_new, err, rate_new = flow_step(tri, K, target, h, -res)
            except ValueError:  # a stage left the range the face kernel can evaluate
                err = math.inf
            if err < eff_tol:
                t, K, res, fa = t + h, K_new, -rate_new, None
                trace.append(t, K, res, "flow")
                h *= min(5.0, 0.9 * (eff_tol / err) ** 0.2) if err > 0.0 else 5.0
            else:
                h *= 0.5
                if h < _MIN_STEP:
                    raise StiffnessError(f"step size underflowed at t={t} "
                                         f"(residual {res_max:.3e})", K=K, t=t)
    except (StiffnessError, ValueError) as exc:  # a ValueError from the face kernel
        failure = exc
    converged = status is SolveStatus.CONVERGED
    if cfg.check_admissibility and not checked:
        if converged and fa is None:  # K came from a flow step, which keeps no areas
            rep = vertex_curvatures(tri, K)
            res, fa = rep.L - target, rep.arrays
        if not (converged and _certified(tri, res, fa.area)):
            witness = violating_subset(tri, target)
    if witness is not None:
        return SolveResult(K=K, trace=trace, status=SolveStatus.INFEASIBLE, witness=witness)
    if failure is not None:
        raise failure
    return SolveResult(K=K, trace=trace, status=status)


def _certified(tri: Triangulation, res, area) -> bool:
    """Whether 3 |L_i - Lhat_i| + 1e-12 pi deg(i) < (sum of the areas of the
    faces at i) at every vertex, for the residual res = L - Lhat and the
    face areas of one kernel call at the same K, which proves
    sum_W Lhat < pi |F_W| for every vertex set W: a face's corner values
    L_{f,c} >= 0 sum to pi - area_f, and a face has at most three
    vertices.  The kernel forms area = pi - sum L, so 1e-12 pi per face
    (the maximum flow's tolerance) covers the rounding."""
    slack = _sum_at_vertices(tri, np.repeat(area - 1e-12 * math.pi, 3))
    return bool(np.all(3.0 * np.abs(res) < slack))


@dataclass(frozen=True)
class RateEstimate:
    lam: float
    r_squared: float
    n_samples: int


def rate_estimate(trace: FlowTrace) -> RateEstimate | None:
    """Exponential decay rate of the residual over the flow's tail.

    Least-squares slope of ln(residual 2-norm) against t over flow-phase
    samples with residual in (10 * residual_tol, _RATE_WINDOW_TOP);
    None when fewer than 10 samples land in the window, as after a solve
    that took only Newton steps.
    """
    cfg = trace.config or FlowConfig()
    lo = 10.0 * cfg.residual_tol
    hi = _RATE_WINDOW_TOP
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
