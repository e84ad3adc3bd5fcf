"""Three-circle configurations, one face or many at once.

Given three positive geodesic curvatures there is a unique (up to
isometry) configuration of three mutually externally tangent
circles/horocycles/hypercycles.  This module solves faces two ways:

* ``face_kernel`` — the trigonometric route through the right-angled
  polygon decompositions, over an (F, 3) array of faces, grouped by case
  with masks: triangle, quadrilateral, pentagon, hexagon, and the ideal
  vertex at a curvature of 1 (through the embedding's chord identities).
  On request it also returns the exact Jacobian dL/dK, K = ln k, by
  forward-mode differentiation through the same closed forms.
  ``solve_face``, ``corner_curvatures`` and ``face_jacobian`` call it on
  one face;
* ``realize_face`` — explicit upper half-plane embedding, which doubles
  as the rendering feed and as a numerical oracle (arc lengths by chord
  identities or by adaptive quadrature of ds = |dz|/y).

Everything is value-in/value-out and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from .hyptrig import (
    KIND_TOL,
    CurveKind,
    InfeasibleGeometryError,
    classify_curvature,
    hexagon_sides,
    pentagon_split,
    quad_split,
    triangle_angles,
)
# not called here: perfbench's tracer wraps these two names in this module
from .hyptrig import solve_pentagon, solve_quadrilateral  # noqa: F401

__all__ = [
    "FaceGeometry",
    "FaceArrays",
    "EmbeddedCircle",
    "EmbeddedFace",
    "face_kernel",
    "face_records",
    "require_positive_area",
    "solve_face",
    "realize_face",
    "face_jacobian",
    "corner_curvatures",
]

_PAIRS = ((0, 1), (0, 2), (1, 2))
# the kernel's corner kind codes, indexing _KINDS
_HORO, _CIRC, _HYPER = 0, 1, 2
_KINDS = (CurveKind.HOROCYCLE, CurveKind.CIRCLE, CurveKind.HYPERCYCLE)


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


class FaceArrays(NamedTuple):
    """face_kernel's output for F faces, corners in input order: kind
    codes (_KINDS), FaceGeometry's gen_angle (NaN at a horocycle),
    arc_length, total_curvature, area and polygon_area (summed in
    ascending-curvature order, so independent of the corner order), and
    J[f, i, j] = dL_i/dK_j or None when not requested."""

    kind: np.ndarray
    gen: np.ndarray
    arc: np.ndarray
    L: np.ndarray
    area: np.ndarray
    polygon_area: np.ndarray
    J: np.ndarray | None


class _Dual(NDArrayOperatorsMixin):
    """Values v (n,) with their gradients d (n, 3) along a face's three
    log-curvatures.  np.* ufuncs apply the chain rule (_PARTIALS), so a
    closed form written with np.* also yields its exact derivative.
    Comparisons act on the values."""

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __getitem__(self, rows):
        return _Dual(self.v[rows], self.d[rows])

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        vals = [x.v if isinstance(x, _Dual) else x for x in inputs]
        if ufunc in _COMPARISONS:
            return ufunc(*vals)
        if ufunc not in _PARTIALS:
            return NotImplemented
        y = ufunc(*vals)
        terms = [x.d * (p[:, None] if np.ndim(p) else p)
                 for p, x in zip(_PARTIALS[ufunc](y, *vals), inputs)
                 if isinstance(x, _Dual)]
        return _Dual(y, sum(terms[1:], terms[0]))


_COMPARISONS = {np.greater, np.greater_equal}
# the partial derivatives of y = f(a) or f(a, b), for each ufunc the kernel uses
_PARTIALS = {
    np.add: lambda y, a, b: (1.0, 1.0),
    np.subtract: lambda y, a, b: (1.0, -1.0),
    np.multiply: lambda y, a, b: (b, a),
    np.true_divide: lambda y, a, b: (1.0 / b, -y / b),
    np.maximum: lambda y, a, b: (a >= b, a < b),
    np.arctan2: lambda y, a, b: (b / (a * a + b * b), -a / (a * a + b * b)),
    np.negative: lambda y, a: (-1.0,),
    np.exp: lambda y, a: (y,),
    np.log1p: lambda y, a: (1.0 / (1.0 + a),),
    np.sqrt: lambda y, a: (0.5 / y,),
    np.sinh: lambda y, a: (np.cosh(a),),
    np.cosh: lambda y, a: (np.sinh(a),),
    np.tanh: lambda y, a: (1.0 / np.cosh(a) ** 2,),
    np.arctan: lambda y, a: (1.0 / (1.0 + a * a),),
    np.arcsinh: lambda y, a: (1.0 / np.hypot(1.0, a),),
    np.arccosh: lambda y, a: (1.0 / np.sqrt((a - 1.0) * (a + 1.0)),),
    np.arctanh: lambda y, a: (1.0 / ((1.0 - a) * (1.0 + a)),),
}


def _value(x):
    return x.v if isinstance(x, _Dual) else x


def _require(x, ok):
    """x where ok holds and NaN elsewhere, so that the face fails the
    kernel's finiteness check."""
    return x * np.where(ok, 1.0, np.nan)


def _circle_radius(k):
    return 0.5 * np.log1p(2.0 / (k - 1.0))  # arccoth k


def _circle_corner(theta, r):
    return theta, theta * np.sinh(r), theta * np.cosh(r)


def _hyper_corner(s, r):
    return s, s * np.cosh(r), s * np.sinh(r)


# Each case maps the curvature columns of its faces, in ascending order,
# to the (gen, l, L) of each corner in that order.

def _triangle(k0, k1, k2):
    """Three circles: the triangle of their centers."""
    rs = [_circle_radius(k) for k in (k0, k1, k2)]
    return [_circle_corner(th, r) for th, r in zip(triangle_angles(*rs), rs)]


def _quadrilateral(kh, kb, ka):
    """A hypercycle (h) and circles a, b with ra <= rb.

    Corners A (circle a), B (circle b) and feet P, Q on the hypercycle
    axis, right angles at P and Q; the perpendicular from A onto QB
    (length y, foot at distance x from Q) gives a Lambert quadrilateral
    AXQP and a right triangle AXB, from which all angles follow.
    """
    rh, rb, ra = np.arctanh(kh), _circle_radius(kb), _circle_radius(ka)
    l1, l2, l3 = rh + rb, ra + rb, rh + ra   # Q-B, A-B, P-A
    x, cosh_y = quad_split(l1, l2, l3)
    y = np.arccosh(_require(cosh_y, cosh_y > 1.0))
    s = np.arcsinh(np.sinh(y) / np.cosh(l3))  # axis side P-Q
    th_a = (np.arctan(np.tanh(x) / np.sinh(y))
            + np.arctan(np.tanh(s) / np.sinh(l3))
            + np.arctan(np.tanh(l1 - x) / np.sinh(y)))
    th_b = np.arctan(np.tanh(y) / np.sinh(l1 - x))
    return [_hyper_corner(s, rh), _circle_corner(th_b, rb), _circle_corner(th_a, ra)]


def _pentagon(kg, kh, kc):
    """Hypercycles g, h and a circle c.

    Apex C at the circle center, feet on both axes and the common
    perpendicular between the axes (length rg + rh) as the middle side;
    the perpendicular from C onto the middle side splits the pentagon
    into two Lambert quadrilaterals.
    """
    rg, rh, rc = np.arctanh(kg), np.arctanh(kh), _circle_radius(kc)
    l1, l2, l3 = rc + rg, rc + rh, rg + rh
    x, cosh_y = pentagon_split(l1, l2, l3)
    y = np.arccosh(_require(cosh_y, cosh_y > 1.0))
    sg = np.arcsinh(np.sinh(y) / np.cosh(l1))
    sh = np.arcsinh(np.sinh(y) / np.cosh(l2))
    th_c = (np.arctan(np.tanh(x) / np.sinh(y))
            + np.arctan(np.tanh(sg) / np.sinh(l1))
            + np.arctan(np.tanh(l3 - x) / np.sinh(y))
            + np.arctan(np.tanh(sh) / np.sinh(l2)))
    return [_hyper_corner(sg, rg), _hyper_corner(sh, rh), _circle_corner(th_c, rc)]


def _hexagon(k0, k1, k2):
    """Three hypercycles: the right-angled hexagon of their axes."""
    rs = [np.arctanh(k) for k in (k0, k1, k2)]
    ss = hexagon_sides(rs[1] + rs[2], rs[0] + rs[2], rs[0] + rs[1])
    return [_hyper_corner(s, r) for s, r in zip(ss, rs)]


def _corner_chords(k0, k1, k2):
    """cosh(chord) - 1 between each corner's two tangency points in the
    half-plane embedding (the ideal-vertex case)."""
    _, t = _embedding(k0, k1, k2)
    return [_chord_coshm1(t[0], t[1]), _chord_coshm1(t[0], t[2]),
            _chord_coshm1(t[1], t[2])]


# the non-ideal cases by their number of hypercycles
_CASES = (_triangle, _quadrilateral, _pentagon, _hexagon)


def _columns(ks, jac: bool):
    """The three curvature columns of ks; with jac, duals with dk/dK = k."""
    cols = [np.ascontiguousarray(ks[:, j]) for j in range(3)]
    return [_Dual(c, c[:, None] * np.eye(3)[j]) for j, c in enumerate(cols)] if jac else cols


def face_kernel(k, *, jac: bool = False) -> FaceArrays:
    """Solve the faces with (F, 3) curvatures k in one pass of array
    operations, each in ascending curvature order, so that results
    commute with permuting its corners.  The value-only path carries no
    derivatives; jac=True adds the exact Jacobian J = dL/dK, K = ln k.
    Raises ValueError for a curvature that is not positive, and
    InfeasibleGeometryError naming a face that cannot be evaluated in
    double precision."""
    k = np.asarray(k, dtype=float)
    if not (k > 0.0).all():
        raise ValueError(f"geodesic curvature must be positive, got {k[~(k > 0.0)][0]}")
    n = len(k)
    f = np.arange(n)[:, None]
    order = np.argsort(k, axis=1, kind="stable")
    ks = k[f, order]
    kinds = np.where(np.abs(ks - 1.0) <= KIND_TOL, _HORO, np.where(ks > 1.0, _CIRC, _HYPER))
    # 0 to 3 hypercycles index _CASES; 4 is the ideal-vertex case
    case = np.where((kinds == _HORO).any(axis=1), 4, (kinds == _HYPER).sum(axis=1))
    out = np.full((3, n, 3), np.nan)  # gen, l, L at the sorted corners
    dL = np.empty((n, 3, 3)) if jac else None
    with np.errstate(all="ignore"):
        for c in np.flatnonzero(np.bincount(case, minlength=5)):
            rows = np.flatnonzero(case == c)
            cols = _columns(ks[rows], jac)
            if c < 4:
                parts = [(rows, i, corner) for i, corner in enumerate(_CASES[c](*cols))]
            else:  # each corner by its own kind's chord identity
                parts = []
                for i, m in enumerate(_corner_chords(*cols)):
                    codes = kinds[rows, i]
                    for code in set(codes.tolist()):
                        sub = np.flatnonzero(codes == code)
                        parts.append((rows[sub], i, _ARCS[code](cols[i][sub], m[sub])))
            for r, i, corner in parts:
                for q, x in enumerate(corner):
                    if x is not None:
                        out[q, r, i] = _value(x)
                if jac:
                    dL[r, i] = corner[2].d
        area = np.pi - out[2].sum(axis=1)
        polygon_area = np.pi - np.where(kinds == _CIRC, out[0], 0.0).sum(axis=1)

    res = np.empty_like(out)
    res[:, f, order] = out
    kind = np.empty_like(kinds)
    kind[f, order] = kinds
    ok = np.isfinite(res[1:]).all(axis=(0, 2))
    J = None
    if jac:
        J = np.empty_like(dL)
        J[f[:, :, None], order[:, :, None], order[:, None, :]] = dL
        ok &= np.isfinite(J).all(axis=(1, 2))
    if not ok.all():
        bad = tuple(k[int(np.argmin(ok))].tolist())
        raise InfeasibleGeometryError(
            f"face with curvatures {bad} cannot be evaluated in double precision")
    return FaceArrays(kind, res[0], res[1], res[2], area, polygon_area, J)


def require_positive_area(k, fa: FaceArrays) -> None:
    """Raise InfeasibleGeometryError for the first face of k whose area in
    fa is below -1e-9: true areas are positive but round to ~0 at extremes."""
    low = np.flatnonzero(fa.area < -1e-9)
    if low.size:
        raise InfeasibleGeometryError(f"face with curvatures {tuple(k[low[0]].tolist())} "
                                      "has non-positive enclosed area")


def face_records(k, fa: FaceArrays) -> list[FaceGeometry]:
    """FaceGeometry records of the faces with (F, 3) curvatures k, from
    their face_kernel output fa."""
    with np.errstate(all="ignore"):
        r = np.where(fa.kind == _CIRC, _circle_radius(k),
                     np.where(fa.kind == _HYPER, np.arctanh(k), np.inf))
    edges = r[:, [0, 0, 1]] + r[:, [1, 2, 2]]  # in the order of _PAIRS
    return [FaceGeometry(curvatures=tuple(ks), kinds=tuple(_KINDS[c] for c in kd),
                         gen_angle=tuple(None if c == _HORO else g for c, g in zip(kd, gen)),
                         arc_length=tuple(arc), total_curvature=tuple(L), area=area,
                         polygon_area=poly, edge_lengths=tuple(e))
            for ks, kd, gen, arc, L, area, poly, e in zip(
                k.tolist(), fa.kind.tolist(), fa.gen.tolist(), fa.arc.tolist(),
                fa.L.tolist(), fa.area.tolist(), fa.polygon_area.tolist(), edges.tolist())]


def solve_face(k1: float, k2: float, k3: float) -> FaceGeometry:
    """Solve the mutually tangent configuration with curvatures k1..k3
    (face_kernel on one face).  The output is symmetric under
    simultaneous permutation of the inputs and corners."""
    k = np.array([[k1, k2, k3]], dtype=float)
    fa = face_kernel(k)
    require_positive_area(k, fa)
    return face_records(k, fa)[0]


def corner_curvatures(k1: float, k2: float, k3: float) -> tuple[float, float, float]:
    """Total geodesic curvatures (L1, L2, L3) of one face, without the
    full FaceGeometry record."""
    return tuple(face_kernel([[k1, k2, k3]]).L[0].tolist())


def face_jacobian(k1: float, k2: float, k3: float):
    """3x3 matrix J with J[i][j] = dL_i/dS_j, S = ln k, as nested lists.

    Exact: forward-mode differentiation through face_kernel's closed
    forms.  J is symmetric (closedness of the curvature form), has
    positive diagonal, negative off-diagonal, and positive row sums
    (= -d area/d S_j).
    """
    return face_kernel([[k1, k2, k3]], jac=True).J[0].tolist()


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

    def arc_length(self, i: int, *, method: str = "closed") -> float:
        """Hyperbolic length of curve i's arc between its tangency points.

        method="closed" uses chord identities; method="quadrature"
        integrates ds = |dz|/y along the embedded arc with adaptive
        quadrature (the independent oracle).
        """
        if method == "closed":
            P, Q, _ = self.arc_endpoints(i)
            k = self.circles[i].k
            arc = _ARCS[_KINDS.index(classify_curvature(k))]
            return float(arc(k, _chord_coshm1(P, Q))[1])
        if method != "quadrature":
            raise ValueError(f"unknown arc-length method {method!r}")
        return _arc_quadrature(self, i)


def _embedding(k0, k1, k2):
    """Circles (cx, cy, radius) and the tangency points, in the order of
    _PAIRS, of the embedded triple (normalization as in EmbeddedFace).
    np.* only, so it serves floats, arrays and duals; a tangency chain
    that fails to close gives NaN."""
    a = 1.0 / k0
    b = 1.0 / k1
    # Third circle: center (u, k2*rho), radius rho, tangent to both.
    # Tangency eliminates u = rho (a-b)/(a+b); rho solves A rho^2 + B rho + 1 = 0.
    c = (a - b) / (a + b)
    A = c * c + k2 * k2 - 1.0
    B = 2.0 * (a * (c - 1.0) - k2)
    disc = B * B - 4.0 * A
    # a discriminant within rounding of zero is zero
    disc = np.maximum(_require(disc, disc >= -1e-12 * B * B), 0.0)
    rho = 2.0 / (-B + np.sqrt(disc))  # smaller positive root, stable form
    circles = ((-a, 1.0, a), (b, 1.0, b), (rho * c, k2 * rho, rho))
    points = []
    for i, j in _PAIRS:
        (xi, yi, ri), (xj, yj, rj) = circles[i], circles[j]
        t = ri / (ri + rj)
        points.append((xi + (xj - xi) * t, yi + (yj - yi) * t))
    return circles, points


def realize_face(k1: float, k2: float, k3: float) -> EmbeddedFace:
    """Embed the tangent configuration in the upper half-plane."""
    ks = (k1, k2, k3)
    for k in ks:
        if not k > 0.0:
            raise ValueError(f"geodesic curvature must be positive, got {k}")
    with np.errstate(all="ignore"):
        circles, points = _embedding(*ks)
    if not np.all(np.isfinite(circles)):
        raise InfeasibleGeometryError(f"tangency chain fails to close for curvatures {ks}")
    return EmbeddedFace(
        circles=tuple(EmbeddedCircle(float(x), float(y), float(r), k)
                      for (x, y, r), k in zip(circles, ks)),
        tangency_points=tuple((float(x), float(y)) for x, y in points))


def _chord_coshm1(P, Q):
    """cosh(hyperbolic distance) - 1 between half-plane points P and Q."""
    dx = P[0] - Q[0]
    dy = P[1] - Q[1]
    return (dx * dx + dy * dy) / (2.0 * P[1] * Q[1])


# (gen_angle, l, L) of a corner of curvature k from cosh(chord) - 1 = m,
# by the chord identities of each kind.

def _horo_arc(k, m):
    """Horocycle: l = 2 sinh(d/2); no generalized angle.  The factor is
    1 at k = 1 and carries the first-order term that the circle and
    hypercycle identities share near k = 1, l = sqrt(2m) (1 + m (k^2 - 1)
    / 12 + ...), so that dL/dK is exact there too."""
    l = np.sqrt(2.0 * m) * (1.0 + m * (k * k - 1.0) / 12.0)
    return None, l, l * k


def _circle_arc(k, m):
    """Circle: cosh d = cosh^2 r - sinh^2 r cos(theta), so
    1 - cos(theta) = u = m / sinh^2 r and tan(theta/2) = sqrt(u / (2 - u))."""
    sh2 = 1.0 / (k * k - 1.0)          # sinh^2 r
    u = m / sh2
    theta = 2.0 * np.arctan2(np.sqrt(u), np.sqrt(np.maximum(2.0 - u, 0.0)))
    l = theta * np.sqrt(sh2)
    return theta, l, l * k


def _hyper_arc(k, m):
    """Hypercycle: cosh d = cosh^2 r cosh s - sinh^2 r, so
    cosh s - 1 = u = m / cosh^2 r."""
    ch2 = 1.0 / (1.0 - k * k)          # cosh^2 r
    u = m / ch2
    s = np.log1p(u + np.sqrt(u * (2.0 + u)))  # acosh(1 + u), stable near 0
    l = s * np.sqrt(ch2)
    return s, l, l * k


_ARCS = {_HORO: _horo_arc, _CIRC: _circle_arc, _HYPER: _hyper_arc}


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
