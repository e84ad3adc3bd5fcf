"""Curve kinds and three-circle configurations, one face or many at once.

A curve of constant geodesic curvature k > 0 is a circle (k = coth r > 1),
a horocycle (k = 1) or a hypercycle at distance r from its axis
(k = tanh r < 1).  That decision is made in one place, _kind: a
horocycle within KIND_TOL of k = 1, or within its class tolerance when
realize.classify calls it.  The radius is computed in one, _radius.

Given three positive geodesic curvatures there is a unique (up to
isometry) configuration of three mutually externally tangent
circles/horocycles/hypercycles.  This module solves faces two ways:

* ``face_kernel`` — one closed form for every corner of every face,
  over an (F, 3) array of faces: the chord between a corner's two
  tangency points depends on the curvatures alone, and with it the
  corner's arc length and total curvature L; the exact Jacobian dL/dK,
  K = ln k, that only a Newton step reads, and the kinds, generalized
  angles and areas that only realization reads, are derived on first
  read.  ``solve_face``, ``corner_curvatures`` and
  ``face_jacobian`` call it on one face;
* ``realize_face`` — explicit upper half-plane embedding, the
  quadrature oracle: its arc lengths integrate ds = |dz|/y along the
  embedded arcs, independently of the kernel's closed form.

``face_potential`` gives each face's potential, with gradient L in K.
``solve_quadrilateral`` and ``solve_pentagon`` split the right-angled
quadrilateral and pentagon in closed form; the face kernel needs neither.
Lengths and angles are in hyperbolic units.  Everything is
value-in/value-out and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "CurveKind",
    "KIND_TOL",
    "InfeasibleGeometryError",
    "PolygonSolution",
    "FaceGeometry",
    "FaceArrays",
    "EmbeddedCircle",
    "EmbeddedFace",
    "classify_curvature",
    "solve_quadrilateral",
    "solve_pentagon",
    "face_kernel",
    "face_potential",
    "face_records",
    "solve_face",
    "realize_face",
    "face_jacobian",
    "corner_curvatures",
]

# Inputs with |k - 1| below this are dispatched as horocycles.
KIND_TOL = 1e-12


class CurveKind(Enum):
    CIRCLE = "circle"
    HOROCYCLE = "horocycle"
    HYPERCYCLE = "hypercycle"


class InfeasibleGeometryError(ValueError):
    """No hyperbolic configuration satisfies the requested constraints."""


_PAIRS = ((0, 1), (0, 2), (1, 2))
# the kernel's corner kind codes, indexing _KINDS
_HORO, _CIRC, _HYPER = 0, 1, 2
_KINDS = (CurveKind.HOROCYCLE, CurveKind.CIRCLE, CurveKind.HYPERCYCLE)


def _positive(k) -> np.ndarray:
    """k as a new float array, or ValueError naming a curvature that is not positive."""
    k = np.array(k, dtype=float)
    if not (k > 0.0).all():
        raise ValueError(f"geodesic curvature must be positive, got {k[~(k > 0.0)][0]}")
    return k


def _kind(k, tol: float = KIND_TOL) -> np.ndarray:
    """Kind codes of positive curvatures k: a horocycle within tol of k = 1,
    else a circle above 1 and a hypercycle below."""
    return np.where(np.abs(k - 1.0) <= tol, _HORO, np.where(k > 1.0, _CIRC, _HYPER))


def _radius(k, kind) -> np.ndarray:
    """Generalized radii of curvatures k of the given kinds: arccoth k at a
    circle, as a log1p that stays accurate down to |k - 1| ~ KIND_TOL,
    arctanh k at a hypercycle and inf at a horocycle."""
    with np.errstate(all="ignore"):
        return np.where(kind == _CIRC, 0.5 * np.log1p(2.0 / (k - 1.0)),
                        np.where(kind == _HYPER, np.arctanh(k), np.inf))


def _check_evaluable(k, *arrays):
    """InfeasibleGeometryError naming the first face of k where an array
    (a row or an entry per face) is not finite: the per-face mask only then."""
    if not all(np.isfinite(a).all() for a in arrays):
        ok = np.all([np.isfinite(a).reshape(len(k), -1).all(axis=1) for a in arrays], axis=0)
        bad = tuple(k[int(np.argmin(ok))].tolist())
        raise InfeasibleGeometryError(
            f"face with curvatures {bad} cannot be evaluated in double precision")


def classify_curvature(k: float) -> CurveKind:
    """Kind of the constant-curvature curve with geodesic curvature k."""
    return _KINDS[int(_kind(_positive(k)))]


@dataclass(frozen=True)
class PolygonSolution:
    """Split of a right-angled polygon construction.

    x is the split point along the side named by the solver (the longer
    of the two candidate sides for the quadrilateral, the middle side
    for the pentagon) and y the perpendicular height at the split.
    """

    x: float
    y: float


def solve_quadrilateral(l1: float, l2: float, l3: float) -> PolygonSolution:
    """Split point of the quadrilateral with two adjacent right angles.

    Sides l1, l2, l3 are the three sides other than the doubly
    right-angled one, with l2 facing it.  For l1 >= l3 the returned x in
    (0, l1) satisfies sinh l3 = sinh x cosh y and
    cosh l2 = cosh(l1 - x) cosh y; for l1 < l3 the construction is
    mirrored and x in (0, l3) splits l3 instead (the defining equations
    swap the roles of l1 and l3).  With la >= lc the split and the other
    side, sinh x / cosh(la - x) = c = sinh lc / cosh l2 gives
    tanh x = c cosh la / (1 + c sinh la), taken as atanh: in it
    1 - c e^-la > 1/2, as c e^-la <= sinh(lc) e^-lc < 1/2.
    """
    if min(l1, l2, l3) <= 0.0:
        raise ValueError(f"side lengths must be positive, got {(l1, l2, l3)}")
    la, lc = (l3, l1) if l1 < l3 else (l1, l3)
    sc = math.sinh(lc)
    c = sc / math.cosh(l2)
    x = 0.5 * math.log1p(2.0 * c * math.cosh(la) / (1.0 - c * math.exp(-la)))
    cosh_y = sc / math.sinh(x)
    if cosh_y <= 1.0:
        raise InfeasibleGeometryError(
            f"quadrilateral sides {(l1, l2, l3)} admit no perpendicular split")
    return PolygonSolution(x=x, y=math.acosh(cosh_y))


def solve_pentagon(l1: float, l2: float, l3: float) -> PolygonSolution:
    """Split point of the pentagon with four right angles.

    l1, l2 are the sides adjacent to the non-right angle and l3 is the
    middle of the three doubly right-angled sides.  Returns x in (0, l3)
    with sinh l1 / sinh x = sinh l2 / sinh(l3 - x) = cosh y > 1:
    tanh x = sinh l1 sinh l3 / (sinh l2 + sinh l1 cosh l3), taken as atanh.
    """
    if min(l1, l2, l3) <= 0.0:
        raise ValueError(f"side lengths must be positive, got {(l1, l2, l3)}")
    s1 = math.sinh(l1)
    if l1 == l2:  # the symmetric split, exactly
        x = 0.5 * l3
    else:
        x = 0.5 * math.log1p(2.0 * s1 * math.sinh(l3) / (math.sinh(l2) + s1 * math.exp(-l3)))
    cosh_y = s1 / math.sinh(x)
    if cosh_y <= 1.0:
        raise InfeasibleGeometryError(
            f"pentagon sides {(l1, l2, l3)} admit no perpendicular split")
    return PolygonSolution(x=x, y=math.acosh(cosh_y))


@dataclass(frozen=True)
class FaceGeometry:
    """Solved three-circle configuration for one face.

    Per corner i: kinds[i]; gen_angle[i] is the angle at a circle
    corner, the axis-segment length at a hypercycle corner, and None at
    a horocycle corner; arc_length[i] and total_curvature[i] are l_i and
    L_i = l_i k_i of the arc between the corner's two tangency points.
    area is the region enclosed by the three arcs (= pi - sum L);
    polygon_area is the face of the induced polyhedral metric
    (= pi - sum of circle-corner angles, right angles at hypercycle
    truncations, zero at ideal vertices).  edge_lengths are the
    center/axis distances r_i + r_j in the corner order of _PAIRS:
    (d01, d02, d12), +inf on horocycle edges.
    """

    curvatures: tuple[float, float, float]
    kinds: tuple[CurveKind, CurveKind, CurveKind]
    gen_angle: tuple[float | None, float | None, float | None]
    arc_length: tuple[float, float, float]
    total_curvature: tuple[float, float, float]
    area: float
    polygon_area: float
    edge_lengths: tuple[float, float, float]


class FaceArrays:
    """face_kernel's output for F faces, corners in input order.  The kernel
    fills arc (FaceGeometry's arc_length) and L (total_curvature), and
    keeps k and its (F, 3) corner terms D (a face's value in each column),
    sqrt_D, P, Q = P / D, x, w and G, from which the rest is derived on
    first read: the exactly symmetric face Jacobians dL/dK as J_diag[f, i]
    = dL_i/dK_i and J_pair[f, c] = dL_i/dK_j = dL_j/dK_i for the pairs (i, j)
    = (0, 1), (1, 2), (2, 0) of surface._PAIR_ENDS, both in one pass with
    one finiteness test (jacobians); the kind codes (_KINDS, a horocycle within
    KIND_TOL of k = 1), FaceGeometry's gen_angle (NaN at a horocycle), area
    and polygon_area (summed in ascending order, so independent of the
    corner order)."""

    def __init__(self, k, D, sqrt_D, P, Q, x, w, G, arc, L):
        self.k, self.D, self.sqrt_D, self.P, self.Q = k, D, sqrt_D, P, Q
        self.x, self.w, self.G, self.arc, self.L = x, w, G, arc, L

    @cached_property
    def jacobians(self) -> tuple[np.ndarray, np.ndarray]:
        """(J_diag, J_pair), or an error naming a face where one is not finite."""
        k, D, sqrt_d, x = self.k, self.D, self.sqrt_D, self.x
        kn = k.take(_NEXT, axis=1)
        with np.errstate(all="ignore"):
            J_pair = -(k * kn) / (sqrt_d * (k + kn))
            H = (1.0 / self.Q - self.G) / x
            small = np.abs(x) < _SERIES_X
            if small.any():
                xs, h = x[small], _H_SERIES[0]
                for c in _H_SERIES[1:]:
                    h = h * xs + c
                H[small] = h
            J_diag = (self.L - k * k * (k.take(_OTHER_J, axis=1) + k.take(_OTHER_M, axis=1))
                      / (sqrt_d * self.P) + 2.0 * k * k * k * H / (D * sqrt_d))
        _check_evaluable(k, J_diag, J_pair)
        return J_diag, J_pair

    J_diag = property(lambda self: self.jacobians[0])
    J_pair = property(lambda self: self.jacobians[1])

    @cached_property
    def kind(self) -> np.ndarray:
        return _kind(self.k)

    @cached_property
    def gen(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.where(self.kind == _HORO, np.nan, 2.0 * self.w * self.G)

    @cached_property
    def area(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.pi - sum(_ascending(self.L))

    @cached_property
    def polygon_area(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return _polygon_area(self.kind == _CIRC, self.gen)


def _polygon_area(circle, gen) -> np.ndarray:
    """pi minus the sum of the generalized angles gen at the corners where
    the (F, 3) mask circle holds, in ascending order: FaceGeometry's
    polygon_area of each face."""
    return np.pi - sum(_ascending(np.where(circle, gen, 0.0)))


# below this |x| the closed form of H cancels; its Taylor series
# H = sum_{n>=1} (-1)^n 2n x^(n-1) / (2n + 1) to this order is exact there;
# coefficients highest power first, for Horner's rule, as in np.polyval
_SERIES_X = 1e-3
_H_SERIES = [(-1) ** (n + 1) * 2 * (n + 1) / (2 * n + 3) for n in range(7, -1, -1)]

# column indices, built once: each corner's other two (j, m), and the
# corner after it (the pairs (0, 1), (1, 2), (2, 0) of J_pair)
_OTHER_J, _OTHER_M, _NEXT = np.array([1, 0, 0]), np.array([2, 2, 1]), np.array([1, 2, 0])


def _ascending(a):
    """The three columns of (F, 3) a, sorted along each row by comparisons
    alone: a sum over them does not depend on the order of the columns."""
    x, y, z = a.T
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    return np.minimum(lo, z), np.maximum(lo, np.minimum(hi, z)), np.maximum(hi, z)


def face_kernel(k) -> FaceArrays:
    """Solve the faces with (F, 3) curvatures k in one pass of array
    operations over all corners.

    Corner i of a face with the other corners j and m: curves i and j
    touch on the segment between their Euclidean centers at weight
    r_i/(r_i + r_j), and each center has height k r, so in
    cosh d - 1 = |P - Q|^2 / (2 y_P y_Q) every radius cancels and the
    chord between the corner's two tangency points has
    cosh d - 1 = 2 / ((k_i + k_j)(k_i + k_m)).  With
    D = 1 + k1 k2 + k1 k3 + k2 k3 and x = (k_i^2 - 1) / D,
      l_i = 2 G(x) / sqrt(D),  L_i = k_i l_i,  gen_i = 2 w G(x),  w = sqrt|x|,
    G = atan(w)/w at a circle (x > 0), atanh(w)/w at a hypercycle (x < 0)
    and 1 only where w == 0: tan(theta/2) = w for the angle theta,
    tanh(s/2) = w for the axis segment s.  The exact Jacobian J = dL/dK,
    K = ln k, is the derivative of the same formula with G'(x) = H(x)/2,
    as J_diag (i = j) and J_pair (i != j, J_ij = J_ji):
      J_ij = -k_i k_j / (sqrt(D) (k_i + k_j))   (i != j),
      J_ii = L_i - k_i^2 (k_j + k_m) / (sqrt(D) (k_i + k_j)(k_i + k_m))
             + 2 k_i^3 H(x) / D^1.5,   H(x) = (1/(1 + x) - G(x)) / x,
    H from its series at |x| < _SERIES_X, where that difference cancels.
    Only arc and L are computed here; FaceArrays derives the Jacobians,
    kind, gen, area and polygon_area on first read.  D and the face sums
    are formed in ascending order, so that results commute with permuting
    a face's corners.  Raises ValueError for a curvature that is not
    positive, and InfeasibleGeometryError naming a face that cannot be
    evaluated in double precision, from one whole-array check per call:
    L and P = (k_i + k_j)(k_i + k_m) = k_i^2 - 1 + D stay finite (the area
    pi - sum L of a finite L is non-negative to rounding)."""
    k = _positive(k)
    with np.errstate(all="ignore"):
        a, b, c = _ascending(k)
        # D at full width: no operation below broadcasts an (F, 1) column
        D = np.repeat(1.0 + a * b + a * c + b * c, 3).reshape(-1, 3)
        P = (k + k.take(_OTHER_J, axis=1)) * (k + k.take(_OTHER_M, axis=1))
        Q = P / D
        x = (k - 1.0) * (k + 1.0) / D
        w = np.sqrt(np.abs(x))
        # atanh w = log1p(2w/(1 - w))/2 with 1 - w = (1 + x)/(1 + w), 1 + x
        # = Q without the cancellation of adding: no series, as nothing
        # cancels near w = 0 or w = 1
        G = np.where(x > 0.0, np.arctan(w), 0.5 * np.log1p(2.0 * w * (1.0 + w) / Q)) / w
        G[w == 0.0] = 1.0
        sqrt_D = np.sqrt(D)
        arc = 2.0 * G / sqrt_D
        L = k * arc

    # a finite P bounds k^2 and D, so that no product overflowed into a finite L
    _check_evaluable(k, L, P)
    return FaceArrays(k, D, sqrt_D, P, Q, x, w, G, arc, L)


# c_n = |B_2n| / (2n (2n + 1)!): Cl2(x) = x - x ln|x| + sum_n c_n x^(2n+1), to 1e-17 on [-pi, pi];
# listed from c_1 up, stored highest power first, as np.polyval takes them
_CL2 = (
    0.013888888888888888, 6.944444444444444e-05, 7.873519778281683e-07, 1.1482216343327455e-08,
    1.8978869988971e-10, 3.387301370953521e-12, 6.372636443183181e-14, 1.2462059912950672e-15,
    2.5105444608999545e-17, 5.178258806090623e-19, 1.0887357368300849e-20, 2.325744114302087e-22,
    5.03519521314739e-24, 1.1026499294381215e-25, 2.4386585509007344e-27, 5.440142678856253e-29,
    1.2228340131217352e-30, 2.767263468967951e-32, 6.3000905918320136e-34, 1.4420868388418476e-35,
    3.3170939991595428e-37, 7.663913557920658e-39, 1.7778714733830659e-40, 4.1396058982341375e-42,
)[::-1]


def _clausen(x):
    """Clausen's function Cl2(x) = Im Li2(e^ix), by its series on [-pi, pi]."""
    x = x - 2.0 * np.pi * np.round(x / (2.0 * np.pi))
    return x * (1.0 - np.log(np.abs(x)) + x * x * np.polyval(_CL2, x * x))


def face_potential(k) -> np.ndarray:
    """Closed-form potentials w of the faces with (F, 3) curvatures k:
    dw/dK_i = L_i (face_kernel's L), K = ln k.  With e2 = k1 k2 + k1 k3 + k2 k3,
    sinh rho = 1/sqrt(e2) and U = tanh(rho/2), by Kummer's formula for Li2
      w = 2 sum_i int_0^rho atan(k_i sinh t)/sinh t dt + pi asinh(sqrt(e2))
        = sum_i [2m (a1 - a2) + Cl2(2 a1) + Cl2(2 a2) - Cl2(2 a1 + q) - Cl2(2 a2 - q)],
    a1, a2 = atan(cU), atan(U/c), c = k + sqrt(k^2 - 1), m = acosh k, q = pi at a
    circle, a1, a2 = atan2(kU, 1 -+ sU), s = sqrt(1 - k^2), m = 0, q = 2 asin k at a
    hypercycle: its terms 2 (a1 + a2) ln U cancel the asinh, as sum_i (a1 + a2)
    = pi/2.  Sums are in ascending order, so w commutes with permuting a
    face's corners.  Raises the errors of face_kernel."""
    k = _positive(k)
    with np.errstate(all="ignore"):
        k1, k2, k3 = _ascending(k)
        e2 = (k1 * k2 + k1 * k3 + k2 * k3)[:, None]
        U = 1.0 / (np.sqrt(1.0 + e2) + np.sqrt(e2))
        circ = k >= 1.0
        c = k + np.sqrt(k - 1.0) * np.sqrt(k + 1.0)
        s = np.sqrt((1.0 - k) * (1.0 + k))
        a1 = np.where(circ, np.arctan(c * U), np.arctan2(k * U, 1.0 - s * U))
        a2 = np.where(circ, np.arctan(U / c), np.arctan2(k * U, 1.0 + s * U))
        m = np.where(circ, np.arccosh(k), 0.0)
        q = np.where(circ, np.pi, 2.0 * np.arcsin(k))
        C = _clausen(np.stack([2.0 * a1, 2.0 * a2, 2.0 * a1 + q, 2.0 * a2 - q]))
        w = sum(_ascending(2.0 * m * (a1 - a2) + C[0] + C[1] - C[2] - C[3]))
    _check_evaluable(k, w)  # e2 = inf gives U = 0, so Cl2(0) = 0 * inf = nan
    return w


def face_records(fa: FaceArrays) -> list[FaceGeometry]:
    """FaceGeometry records of the faces of the face_kernel output fa."""
    r = _radius(fa.k, fa.kind)
    edges = r[:, [0, 0, 1]] + r[:, [1, 2, 2]]  # in the order of _PAIRS
    return [FaceGeometry(curvatures=tuple(ks), kinds=tuple(_KINDS[c] for c in kd),
                         gen_angle=tuple(None if c == _HORO else g for c, g in zip(kd, gen)),
                         arc_length=tuple(arc), total_curvature=tuple(L), area=area,
                         polygon_area=poly, edge_lengths=tuple(e))
            for ks, kd, gen, arc, L, area, poly, e in zip(
                fa.k.tolist(), fa.kind.tolist(), fa.gen.tolist(), fa.arc.tolist(),
                fa.L.tolist(), fa.area.tolist(), fa.polygon_area.tolist(), edges.tolist())]


def solve_face(k1: float, k2: float, k3: float) -> FaceGeometry:
    """Solve the mutually tangent configuration with curvatures k1..k3
    (face_kernel on one face).  The output is symmetric under
    simultaneous permutation of the inputs and corners."""
    return face_records(face_kernel([[k1, k2, k3]]))[0]


def corner_curvatures(k1: float, k2: float, k3: float) -> tuple[float, float, float]:
    """Total geodesic curvatures (L1, L2, L3) of one face, without the
    full FaceGeometry record."""
    return tuple(face_kernel([[k1, k2, k3]]).L[0].tolist())


def face_jacobian(k1: float, k2: float, k3: float):
    """3x3 matrix J with J[i][j] = dL_i/dS_j, S = ln k, as nested lists.

    Exact: the derivative of face_kernel's closed form.  J is symmetric
    (closedness of the curvature form), has positive diagonal, negative
    off-diagonal, and positive row sums (= -d area/d S_j).
    """
    fa = face_kernel([[k1, k2, k3]])
    (d0, d1, d2), (p01, p12, p20) = fa.J_diag[0].tolist(), fa.J_pair[0].tolist()
    return [[d0, p01, p20], [p01, d1, p12], [p20, p12, d2]]


# ---------------------------------------------------------------------------
# Half-plane embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddedCircle:
    """Euclidean circle (cx, cy, radius) in the upper half-plane model.

    Any constant-curvature curve embeds as a Euclidean circle with
    cy / radius = k (its body is the Euclidean disk side); curves
    crossing the real axis are hypercycle arcs, tangent ones horocycles.
    """

    cx: float
    cy: float
    radius: float
    k: float


@dataclass(frozen=True)
class EmbeddedFace:
    """Embedded mutually tangent triple plus its tangency points.

    tangency_points[m] is the contact point of the pair _PAIRS[m], i.e.
    ((0,1), (0,2), (1,2)).  Normalization: curves 0 and 1 touch at
    (0, 1) with a vertical common tangent, curve 0 on the left; curve 2
    is the branch on the real-axis side (the smaller Euclidean root).
    """

    circles: tuple[EmbeddedCircle, EmbeddedCircle, EmbeddedCircle]
    tangency_points: tuple[tuple[float, float], ...]

    def arc_endpoints(self, i: int):
        """The corner's two tangency points and the opposite one."""
        mine = [self.tangency_points[m] for m, pr in enumerate(_PAIRS) if i in pr]
        other = next(self.tangency_points[m] for m, pr in enumerate(_PAIRS) if i not in pr)
        return mine[0], mine[1], other

    def arc_length(self, i: int, *, method: str = "quadrature") -> float:
        """Hyperbolic length of curve i's arc between its tangency points,
        by adaptive quadrature of ds = |dz|/y along the embedded arc (the
        independent oracle; "quadrature" is the only method).  The one
        user of scipy in the package, which it imports on first call:
        scipy is in the test extra, not in the install dependencies."""
        if method != "quadrature":
            raise ValueError(f"unknown arc-length method {method!r}")
        return _arc_quadrature(self, i)


def _embedding(k0, k1, k2):
    """Circles (cx, cy, radius) and the tangency points, in the order of
    _PAIRS, of the embedded triple (normalization as in EmbeddedFace).
    Curve 2 has center (rho (k1 - k0)/s, k2 rho) and radius rho, with
    s = k0 + k1, rho = s/(2 + k2 s + 2 sqrt(D)) and D = 1 + k0 k1 + k0 k2
    + k1 k2: the smaller root of its tangency quadratic, whose
    discriminant is 16 D/s^2."""
    s = k0 + k1
    rho = s / (2.0 + k2 * s + 2.0 * math.sqrt(1.0 + k0 * k1 + k0 * k2 + k1 * k2))
    circles = ((-1.0 / k0, 1.0, 1.0 / k0), (1.0 / k1, 1.0, 1.0 / k1),
               (rho * (k1 - k0) / s, k2 * rho, rho))
    points = []
    for i, j in _PAIRS:
        (xi, yi, ri), (xj, yj, rj) = circles[i], circles[j]
        t = ri / (ri + rj)
        points.append((xi + (xj - xi) * t, yi + (yj - yi) * t))
    return circles, points


def realize_face(k1: float, k2: float, k3: float) -> EmbeddedFace:
    """Embed the tangent configuration in the upper half-plane."""
    ks = (k1, k2, k3)
    circles, points = _embedding(*_positive(ks).tolist())
    _check_evaluable(np.array([ks]), circles)
    return EmbeddedFace(
        circles=tuple(EmbeddedCircle(float(x), float(y), float(r), k)
                      for (x, y, r), k in zip(circles, ks)),
        tangency_points=tuple((float(x), float(y)) for x, y in points))


def _arc_quadrature(emb: EmbeddedFace, i: int) -> float:
    """Arc length by adaptive quadrature over the Euclidean angle."""
    circ = emb.circles[i]
    P, Q, other = emb.arc_endpoints(i)
    t1 = math.atan2(P[1] - circ.cy, P[0] - circ.cx)
    t2 = math.atan2(Q[1] - circ.cy, Q[0] - circ.cx)
    # two candidate arcs t1 -> t2; keep the one on the same side of the
    # chord PQ as the third tangency point
    span_ccw = (t2 - t1) % (2.0 * math.pi)
    candidates = ((t1, t1 + span_ccw), (t1, t1 + span_ccw - 2.0 * math.pi))
    nx, ny = Q[1] - P[1], P[0] - Q[0]  # normal of chord PQ
    side_ref = nx * (other[0] - P[0]) + ny * (other[1] - P[1])
    chosen = None
    for lo, hi in candidates:
        tm = 0.5 * (lo + hi)
        mx = circ.cx + circ.radius * math.cos(tm)
        my = circ.cy + circ.radius * math.sin(tm)
        side = nx * (mx - P[0]) + ny * (my - P[1])
        if side * side_ref > 0.0:
            chosen = (lo, hi)
            break
    if chosen is None:
        raise InfeasibleGeometryError("degenerate tangency chain: collinear contacts")
    # imported here, so that importing the package does not load scipy.integrate
    from scipy.integrate import quad

    lo, hi = min(chosen), max(chosen)
    val, _err = quad(
        lambda t: circ.radius / (circ.cy + circ.radius * math.sin(t)),
        lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val
