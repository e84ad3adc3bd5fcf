"""Newton's method and the curvature flow dK_i/dt = -(L_i - Lhat_i).

The flow is the negative gradient flow of a smooth strictly convex
potential, so for admissible targets it converges exponentially to the
unique log-curvature vector realizing the prescribed per-vertex total
geodesic curvatures.  Without K0 a solve starts each vertex where one
corner between two horocycles takes its share Lhat_i / deg(i) of the
target (_START_L).  One loop takes Newton steps by default, each halved
until the residual 2-norm falls, from the full step or from the fraction
that moves no K_i by more than _NEWTON_MAX_STEP, which keeps far starts
from stepping to where M is singular to rounding.  A state (the start, a
Newton trial or a flow stage) is one face_kernel call on exp(K) at the
faces and one scatter of L (_evaluate), whose arrays it keeps.  A Newton
step derives its state's face Jacobians in one pass (FaceArrays.jacobians)
and solves for its direction from the Hessian's entries at the index the
Triangulation keeps: densely below _CG_MIN_VERTICES vertices, and from
there up by Jacobi-preconditioned conjugate gradients to a tolerance that
shrinks with the residual (_CG_RTOL).  With newton=False it integrates
the flow instead, with an embedded Dormand-Prince 5(4) pair under
per-step error control; with a finite newton_switch_tol it integrates the
flow until the residual is below that bound and takes Newton steps from
there on.  A converged K whose residual is small against the face areas
of its state proves the target admissible (_certified); only a solve
without that proof runs the maximum flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .packing import _dense_hessian, _face_curvatures, _hessian_entries, _sum_at_vertices
from .tangency import FaceArrays, face_kernel
from .surface import _TOL, Triangulation, _checked_targets, _count, _per_vertex, violating_subset
# not called here: perfbench's tracer wraps these names in this module
from .packing import global_jacobian, vertex_curvature_sums  # noqa: F401
from .surface import check_admissible  # noqa: F401

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

# The first pass with some |K_i| beyond this and a residual above
# 10 residual_tol runs the feasibility check, once; a witness ends the flow
# or Newton as INFEASIBLE.  No test asks whether the residual stalls.  The
# area of a face whose curvatures all grow falls like 0.16 e^(-2K), so from
# K ~ 17 its L sum to pi to rounding and a drifting Newton iteration stalls
# instead; at 15 the area is still 34 ulps of pi.
_DRIFT_LIMIT = 15.0

# A Newton step on a surface of at least this many vertices solves for its
# direction by conjugate gradients on M's entries (_cg_solve), and below
# it by one dense LAPACK solve.  Warm re-solves on n x m tori (K* + 3e-6,
# one Newton step; 2-core VM, one BLAS thread; best of 150 per state,
# median of 4 states, 2 to 5 fresh processes per size) took, with CG over
# dense: 12x12 (144 vertices) 1.24-1.30, 12x13 (156) 1.16-1.26, 13x13
# (169) 1.17-1.25, 13x14 (182) 0.94-1.36, 14x14 (196) 0.73-1.13, 14x15
# (210) 0.74-0.87, 15x15 (225) 0.67-0.70, 16x16 (256) 0.50-0.57.  The
# dense side's cost jumps with its n x n arrays, whose allocation and
# first touch take more than the LAPACK call from ~200 vertices up.
_CG_MIN_VERTICES = 190
# CG stops once r.D^-1 r <= rtol^2 b.D^-1 b, for its residual r, the
# right-hand side b and M's diagonal D.  The D^-1 weights stress the
# vertices whose diagonal is small (circles of large curvature), where a
# residual moves the direction most; with them the final K is within
# 1e-12 of the dense route's at sigma = 6, where the plain 2-norm misses by
# 1.8e-12.  rtol = max(_CG_RTOL, min(_CG_ETA_MAX, |b|_2^2)) is a forcing
# term (Dembo, Eisenstat & Steihaug 1982): the step leaves a second-order
# remainder of order |b|_2^2, and CG solves no further.  The cap keeps far
# steps near the dense route's: from the default start, a 16 x 16 solve at
# sigma = 4 ended 7.2e-9 from it at 1e-4 and 1.0e-9 at 1e-5.
_CG_RTOL = 1e-10
_CG_ETA_MAX = 1e-5

# The first trial of a Newton step moves no K_i by more than this, and
# backtracking gives up once the fraction is below 1e-12 times that first
# trial.  From a start far below the solution the full step can be
# hundreds long (310 on genus 2 from K0 = -8), and a fraction of it that
# lowers the residual can land where M is singular to rounding, after
# which no trial lowers it; from a start far above, M is singular to
# rounding already and the direction ~1e13 long.  Against planted targets
# at sigma 0.7, 2 and 4 on genus 2 and the 8 x 8 torus, 1000 of 1000
# random starts K0 ~ N(mu, s), mu in (-15, 15), s in (0, 6), converged
# (median 11 steps, at most 22), where 77 of 300 did without the cap.
# Near the solution the step is short and the cap never binds.
_NEWTON_MAX_STEP = 4.0

# The default start puts vertex i where one corner between two horocycles,
# L(e^K, 1, 1), is its share Lhat_i / deg(i) of the target, read off this
# table by np.interp.  The curve rises strictly, from 5.9e-4 at K = -8 to
# 3.09 at K = 8; a share beyond it clamps to an end, inside _DRIFT_LIMIT.
_START_K = np.linspace(-8.0, 8.0, 129)
_START_L = face_kernel(np.stack([np.exp(_START_K), np.ones(129), np.ones(129)], 1)).L[:, 0]

# rate_estimate fits residuals below this: the flow's exponential tail,
# past the transient of its first steps
_RATE_WINDOW_TOP = 1e-3


class StiffnessError(RuntimeError):
    """The flow's step size or Newton's step fraction underflowed."""


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
    solve only evaluates the residual at K0, or at the default start."""

    residual_tol: float = 1e-10
    max_steps: int = 50_000
    newton: bool = True
    newton_switch_tol: float = math.inf
    check_admissibility: bool = True

    def __post_init__(self):
        if not 0 < self.residual_tol < math.inf:
            raise ValueError("residual_tol must be positive and finite")
        if not self.newton_switch_tol > 0:
            raise ValueError("newton_switch_tol must be positive")
        _count(self.max_steps, "max_steps", 0)
        if self.newton_switch_tol <= self.residual_tol:
            raise ValueError("newton_switch_tol must exceed residual_tol")


_DEFAULT_CONFIG = FlowConfig()


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

    def append(self, t, K, res_max, res_2norm, phase):
        self.ts.append(t)
        self.K.append(np.array(K, copy=True))
        self.residual_max.append(float(res_max))
        self.residual_2norm.append(res_2norm)
        self.phase.append(phase)

    def write_csv(self, path: str):
        """One row per accepted step under the header
        t,residual_max,residual_2norm,K0,...,K{n-1}: one K column per vertex."""
        n = len(self.K[0]) if self.K else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["t", "residual_max", "residual_2norm"]
                              + [f"K{i}" for i in range(n)]) + "\n")
            for t, rm, r2, K in zip(self.ts, self.residual_max,
                                    self.residual_2norm, self.K):
                fh.write(f"{t!r},{rm!r},{r2!r},"
                         + ",".join(map(repr, K.tolist())) + "\n")


@dataclass(frozen=True)
class SolveResult:
    K: np.ndarray
    trace: FlowTrace
    status: SolveStatus
    witness: tuple[int, ...] | None = None


def flow_step(tri: Triangulation, K, l_hat, h: float, rate):
    """One embedded Dormand-Prince 5(4) step of dK/dt = -(L - Lhat).

    `rate` is Lhat - L(K), the first stage, which the caller already has;
    each of the other six is one _evaluate call.  Returns (K', error
    estimate, rate at K' = the last stage (first same as last), _evaluate's
    arrays at K'); the caller accepts the step when the max-norm difference
    of the 5th- and 4th-order solutions is below its bound, else halves h.
    Raises ValueError for h <= 0, or a K, l_hat or rate not of shape (n,)."""
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    K, rate = _per_vertex(tri, K, "state"), _per_vertex(tri, rate, "state")
    target = _per_vertex(tri, l_hat, "target")
    ks = [rate]
    for i in range(1, 7):
        y = K + h * sum(a * kk for a, kk in zip(_DP_A[i], ks))
        res, fa = _evaluate(tri, y, target)
        ks.append(-res)
    K4 = K + h * sum(b * kk for b, kk in zip(_DP_B4, ks))
    return y, float(np.abs(y - K4).max()), ks[6], fa  # the last stage's y is K5


def _evaluate(tri: Triangulation, K, target) -> tuple[np.ndarray, FaceArrays]:
    """The residual L(K) - Lhat and the kernel's arrays at K (the face
    Jacobians and areas derived on first read), from one face_kernel call
    and one scatter; exp(K) may overflow to inf or underflow to 0, which
    the kernel rejects."""
    fa = face_kernel(_face_curvatures(tri, K))
    return _sum_at_vertices(tri, fa.L) - target, fa


def _cg_solve(index, entries, b, rtol) -> np.ndarray:
    """The solution d of M d = b by Jacobi-preconditioned conjugate
    gradients (Hestenes & Stiefel 1952), for M's entries (the diagonal
    last) at index = (rows, cols, ...): a matrix-vector product is one gather,
    one multiply and one np.bincount, with no n x n array.  That is plain
    CG on S M S, S = |D|^-1/2 for M's diagonal D.  Stops once r.D^-1 r <=
    rtol^2 b.D^-1 b for the residual r; raises StiffnessError after n
    iterations, or on a direction p with p.M p <= 0 (M, congruent to
    S M S, not positive definite)."""
    rows, cols = index[:2]
    n = len(b)
    scale = 1.0 / np.sqrt(np.abs(entries[-n:]))
    scaled = entries * scale[rows] * scale[cols]
    y = np.zeros(n)
    r = b * scale
    p = r.copy()
    rr = r.dot(r)
    stop = (rtol * rtol) * rr
    for _ in range(n):
        q = np.bincount(rows, weights=scaled * p[cols], minlength=n)
        pq = p.dot(q)
        if not pq > 0.0:
            raise StiffnessError(f"CG met p.M p = {pq:.3e}: M is not positive definite")
        alpha = rr / pq
        y += alpha * p
        r -= alpha * q
        rr, rr_prev = r.dot(r), rr
        if rr <= stop:
            return y * scale
        p = r + (rr / rr_prev) * p
    raise StiffnessError(f"CG did not reach a relative residual of {rtol:.0e} "
                         f"in {n} iterations")


def _newton_step(tri: Triangulation, K, res, res_norm, fa, target, residual_tol):
    """One Newton step on L(K) = Lhat, then alpha halved from
    min(1, _NEWTON_MAX_STEP / max|d|) until the residual 2-norm falls.
    The direction d solves M d = res, res_norm = |res|_2, for the Hessian
    M (SPD, exactly symmetric) of the face Jacobians in fa at K, from its
    entries at tri._hessian_index: by one dense solve below
    _CG_MIN_VERTICES vertices and by _cg_solve from there up (the
    comment at _CG_MIN_VERTICES says why).  Each trial is one _evaluate
    call.  A trial fails where the kernel cannot evaluate its values, and,
    unless its residual max-norm is below residual_tol (where the solve
    ends), its Jacobians, which the next step reads.  Returns (K',
    residual at K', its 2-norm, its max-norm, arrays at K', alpha); raises
    StiffnessError once alpha is below 1e-12 of its first trial, or from
    _cg_solve."""
    entries = _hessian_entries(tri, fa)
    if tri.num_vertices < _CG_MIN_VERTICES:
        direction = np.linalg.solve(_dense_hessian(tri, entries), res)
    else:
        rtol = max(_CG_RTOL, min(_CG_ETA_MAX, res_norm ** 2))
        direction = _cg_solve(tri._hessian_index, entries, res, rtol)
    longest = float(np.abs(direction).max())
    alpha = _NEWTON_MAX_STEP / longest if longest > _NEWTON_MAX_STEP else 1.0
    floor = 1e-12 * alpha
    while alpha >= floor:
        K_try = K - alpha * direction
        try:
            res_try, fa_try = _evaluate(tri, K_try, target)
            norm_try, max_try = math.sqrt(res_try @ res_try), float(np.abs(res_try).max())
            if norm_try < res_norm and max_try >= residual_tol:
                fa_try.jacobians  # derived here: overflow fails the trial
        except ValueError:  # the trial left the range the face kernel can evaluate
            norm_try = math.inf
        if norm_try < res_norm:
            return K_try, res_try, norm_try, max_try, fa_try, alpha
        alpha *= 0.5
    raise StiffnessError("Newton backtracking stalled")


def solve(tri: Triangulation, l_hat, K0=None, config: FlowConfig | None = None) -> SolveResult:
    """Take Newton steps (by default) or flow steps to the packing with
    prescribed total geodesic curvatures, from K0 or from the start read
    off _START_L.

    Each pass takes a Newton step or, with newton off or until a finite
    newton_switch_tol is reached, a flow step; max_steps counts both, and
    each accepted state keeps (K, residual, arrays) from its _evaluate call.
    A trial the kernel cannot evaluate fails (a Newton trial that does not
    end the solve, also when only its Jacobians overflow).  The first pass
    with some K_i beyond +-15 and the residual above 10 residual_tol runs
    check_admissible's maximum flow once, and a witness ends the solve as
    INFEASIBLE.  With check_admissibility on (the default), a converged
    solve must also certify the target (_certified); any other ending (a
    failed certificate, max_steps, a StiffnessError or a kernel failure)
    runs that maximum flow once, and is INFEASIBLE if it finds a witness.
    On convergence the result is independent of K0 (the packing is unique).
    A K0 of the wrong shape or with an entry that is not finite raises
    ValueError before any kernel call.
    """
    cfg = config or _DEFAULT_CONFIG
    defects = tri.validate()
    if defects:
        raise ValueError("triangulation is not a closed surface: "
                         + "; ".join(str(d) for d in defects[:5]))
    target = _checked_targets(tri, l_hat)
    K = (np.interp(target / np.diff(tri._vertex_stops), _START_L, _START_K)
         if K0 is None else _per_vertex(tri, K0, "K0").copy())
    if not np.isfinite(K).all():
        i = int(np.argmin(np.isfinite(K)))  # the first entry that is not finite
        raise ValueError(f"K0 must be finite; entry {i} is {K[i]}")

    trace = FlowTrace(config=cfg)
    t = 0.0
    h = _INITIAL_STEP
    steps = 0
    newton = False  # once on, it stays on
    checked = False  # violating_subset ran, at most once
    witness = status = failure = None
    try:
        res, fa = _evaluate(tri, K, target)  # the residual and the kernel's arrays at K
        trace.append(t, K, np.abs(res).max(), math.sqrt(res @ res), "flow")
        while True:
            res_max = trace.residual_max[-1]  # of res, the residual at K
            if res_max < cfg.residual_tol:
                status = SolveStatus.CONVERGED
                break
            if steps >= cfg.max_steps:
                status = SolveStatus.MAX_STEPS_EXCEEDED
                break
            if (not checked and res_max > cfg.residual_tol * 10
                    and float(np.abs(K).max()) > _DRIFT_LIMIT):
                checked = True
                witness = violating_subset(tri, target)
                if witness is not None:
                    break
            steps += 1
            newton = newton or (cfg.newton and res_max < cfg.newton_switch_tol)
            if newton:
                K, res, res_2norm, res_max, fa, alpha = _newton_step(
                    tri, K, res, trace.residual_2norm[-1], fa, target, cfg.residual_tol)
                t += alpha
                trace.append(t, K, res_max, res_2norm, "newton")
                continue
            h = min(h, _MAX_STEP)
            eff_tol = min(_STEP_ERROR_TOL, _REL_STEP_ERROR * res_max)
            try:
                K_new, err, rate_new, fa_new = flow_step(tri, K, target, h, -res)
            except ValueError:  # a stage left the range the face kernel can evaluate
                err = math.inf
            if err < eff_tol:
                t, K, res, fa = t + h, K_new, -rate_new, fa_new
                trace.append(t, K, np.abs(res).max(), math.sqrt(res @ res), "flow")
                h *= min(5.0, 0.9 * (eff_tol / err) ** 0.2) if err > 0.0 else 5.0
            else:
                h *= 0.5
                if h < _MIN_STEP:
                    raise StiffnessError(f"step size underflowed at t={t} "
                                         f"(residual {res_max:.3e})")
    except (StiffnessError, ValueError) as exc:  # a ValueError from the face kernel
        failure = exc
    converged = status is SolveStatus.CONVERGED
    if cfg.check_admissibility and not checked:
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
    face areas of the solve's last accepted state (one kernel call at the
    same K), which proves sum_W Lhat < pi |F_W| for every vertex set W: a
    face's corner values L_{f,c} >= 0 sum to pi - area_f, and a face has
    at most three vertices.  The kernel forms area = pi - sum L, so _TOL =
    1e-12 pi per face (the maximum flow's tolerance) covers the rounding."""
    slack = _sum_at_vertices(tri, np.repeat(area - _TOL, 3))
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
    cfg = trace.config or _DEFAULT_CONFIG
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
