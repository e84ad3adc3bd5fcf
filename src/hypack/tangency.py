"""Single three-circle configurations.

Given three positive geodesic curvatures there is a unique (up to
isometry) configuration of three mutually externally tangent
circles/horocycles/hypercycles.  This module solves one such face two
independent ways:

* ``solve_face`` — trigonometric route through the right-angled polygon
  decompositions (triangle, quadrilateral, pentagon, hexagon, and the
  ideal-vertex limit when a curvature equals 1);
* ``realize_face`` — explicit upper half-plane embedding, which doubles
  as the rendering feed and as a numerical oracle (arc lengths by chord
  identities or by adaptive quadrature of ds = |dz|/y).

Everything is value-in/value-out and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hyptrig import (
    CurveKind,
    InfeasibleGeometryError,
    classify_curvature,
    curvature_to_radius,
    solve_hexagon,
    solve_pentagon,
    solve_quadrilateral,
)

__all__ = [
    "FaceGeometry",
    "EmbeddedCircle",
    "EmbeddedFace",
    "solve_face",
    "realize_face",
    "face_jacobian",
    "corner_curvatures",
]

_PAIRS = ((0, 1), (0, 2), (1, 2))


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


def _corner_angles(ks):
    """Core solver: per-corner (gen_angle, l, L) for curvatures ks.

    Dispatch over the number of circles/hypercycles; any horocycle
    routes through the half-plane embedding (the polygon degenerates to
    an ideal vertex there).  ks must be canonically ordered by the
    caller if exact permutation symmetry is wanted.
    """
    kinds = tuple(classify_curvature(k) for k in ks)
    if CurveKind.HOROCYCLE in kinds:
        emb = _embed(ks)
        return tuple(_corner_from_chord(ks[i], kinds[i], _chord_coshm1(emb, i))
                     for i in range(3)), kinds

    rs = tuple(curvature_to_radius(k) for k in ks)
    n_circ = sum(1 for kd in kinds if kd is CurveKind.CIRCLE)

    if n_circ == 3:
        d = (rs[1] + rs[2], rs[0] + rs[2], rs[0] + rs[1])
        thetas = _triangle_angles_from_radii(rs)
        out = tuple((th, th * math.sinh(r), th * math.cosh(r))
                    for th, r in zip(thetas, rs))
    elif n_circ == 0:
        d = (rs[1] + rs[2], rs[0] + rs[2], rs[0] + rs[1])
        ss = solve_hexagon(*d)
        out = tuple((s, s * math.cosh(r), s * math.sinh(r))
                    for s, r in zip(ss, rs))
    elif n_circ == 2:
        h = kinds.index(CurveKind.HYPERCYCLE)
        ia, ib = [i for i in range(3) if i != h]
        if rs[ib] < rs[ia]:
            ia, ib = ib, ia  # foot of the perpendicular must fall on the longer side
        vals = _quad_face(rs[h], rs[ia], rs[ib])
        out = [None] * 3
        out[h], out[ia], out[ib] = vals
        out = tuple(out)
    else:
        c = kinds.index(CurveKind.CIRCLE)
        ig, ih = [i for i in range(3) if i != c]
        vals = _pent_face(rs[c], rs[ig], rs[ih])
        out = [None] * 3
        out[c], out[ig], out[ih] = vals
        out = tuple(out)
    return out, kinds


def _triangle_angles_from_radii(rs):
    """Angles of the triangle with sides r_j + r_k, cancellation-free.

    tan(theta_i / 2) = sqrt(sinh r_j sinh r_k / (sinh r_i sinh(r1+r2+r3))).
    """
    sh = tuple(math.sinh(r) for r in rs)
    sp = math.sinh(rs[0] + rs[1] + rs[2])
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(2.0 * math.atan2(math.sqrt(sh[j] * sh[k]), math.sqrt(sp * sh[i])))
    return tuple(out)


def _quad_face(rh, ra, rb):
    """Quadrilateral case: hypercycle (rh) + circles (ra <= rb).

    Corners A (circle a), B (circle b) and feet P, Q on the hypercycle
    axis, right angles at P and Q; the perpendicular from A onto QB
    (length y, foot at distance x from Q) gives a Lambert quadrilateral
    AXQP and a right triangle AXB, from which all angles follow.
    Returns ((gen, l, L) for h, a, b).
    """
    l1 = rh + rb   # Q-B
    l2 = ra + rb   # A-B
    l3 = rh + ra   # P-A
    sol = solve_quadrilateral(l1, l2, l3)
    x, y = sol.x, sol.y
    s = math.asinh(math.sinh(y) / math.cosh(l3))  # axis side P-Q
    th_a = (math.atan(math.tanh(x) / math.sinh(y))
            + math.atan(math.tanh(s) / math.sinh(l3))
            + math.atan(math.tanh(l1 - x) / math.sinh(y)))
    th_b = math.atan(math.tanh(y) / math.sinh(l1 - x))
    return ((s, s * math.cosh(rh), s * math.sinh(rh)),
            (th_a, th_a * math.sinh(ra), th_a * math.cosh(ra)),
            (th_b, th_b * math.sinh(rb), th_b * math.cosh(rb)))


def _pent_face(rc, rg, rh):
    """Pentagon case: circle (rc) + hypercycles (rg, rh).

    Apex C at the circle center, feet on both axes and the common
    perpendicular between the axes (length rg + rh) as the middle side;
    the perpendicular from C onto the middle side splits the pentagon
    into two Lambert quadrilaterals.  Returns ((gen, l, L) for c, g, h).
    """
    l1 = rc + rg
    l2 = rc + rh
    l3 = rg + rh   # middle side
    sol = solve_pentagon(l1, l2, l3)
    x, y = sol.x, sol.y
    sg = math.asinh(math.sinh(y) / math.cosh(l1))
    sh = math.asinh(math.sinh(y) / math.cosh(l2))
    th_c = (math.atan(math.tanh(x) / math.sinh(y))
            + math.atan(math.tanh(sg) / math.sinh(l1))
            + math.atan(math.tanh(l3 - x) / math.sinh(y))
            + math.atan(math.tanh(sh) / math.sinh(l2)))
    return ((th_c, th_c * math.sinh(rc), th_c * math.cosh(rc)),
            (sg, sg * math.cosh(rg), sg * math.sinh(rg)),
            (sh, sh * math.cosh(rh), sh * math.sinh(rh)))


def _canonical_order(ks):
    """Permutation sorting curvatures ascending (canonical dispatch order)."""
    return tuple(sorted(range(3), key=lambda i: ks[i]))


def corner_curvatures(k1: float, k2: float, k3: float) -> tuple[float, float, float]:
    """Total geodesic curvatures (L1, L2, L3) of one face; fast path
    without the full FaceGeometry record."""
    ks = (k1, k2, k3)
    perm = _canonical_order(ks)
    out, _ = _corner_angles(tuple(ks[p] for p in perm))
    L = [0.0] * 3
    for pos, p in enumerate(perm):
        L[p] = out[pos][2]
    return tuple(L)


def solve_face(k1: float, k2: float, k3: float) -> FaceGeometry:
    """Solve the mutually tangent configuration with curvatures k1..k3.

    The output is symmetric under simultaneous permutation of the inputs
    and corners (the dispatch happens in a canonical order internally).
    """
    ks = (k1, k2, k3)
    perm = _canonical_order(ks)
    sorted_ks = tuple(ks[p] for p in perm)
    out, sorted_kinds = _corner_angles(sorted_ks)

    gen = [None] * 3
    arc = [0.0] * 3
    tot = [0.0] * 3
    kinds = [None] * 3
    for pos, p in enumerate(perm):
        g, l, L = out[pos]
        gen[p] = g
        arc[p] = l
        tot[p] = L
        kinds[p] = sorted_kinds[pos]

    # sum in canonical order: bit-identical across input permutations
    area = math.pi - out[0][2] - out[1][2] - out[2][2]
    poly_area = math.pi - sum(out[pos][0] for pos in range(3)
                              if sorted_kinds[pos] is CurveKind.CIRCLE)
    if area < -1e-9:
        # true area is positive but can round to ~0 at extreme curvatures
        raise InfeasibleGeometryError(
            f"face with curvatures {ks} has non-positive enclosed area")
    rs = tuple(curvature_to_radius(k) for k in ks)
    return FaceGeometry(
        curvatures=ks,
        kinds=tuple(kinds),
        gen_angle=tuple(gen),
        arc_length=tuple(arc),
        total_curvature=tuple(tot),
        area=area,
        polygon_area=poly_area,
        edge_lengths=tuple(rs[i] + rs[j] for i, j in _PAIRS),
    )


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
            m = _chord_coshm1(self, i)
            _, l, _ = _corner_from_chord(self.circles[i].k, classify_curvature(self.circles[i].k), m)
            return l
        if method != "quadrature":
            raise ValueError(f"unknown arc-length method {method!r}")
        return _arc_quadrature(self, i)


def _embed(ks) -> EmbeddedFace:
    a = 1.0 / ks[0]
    b = 1.0 / ks[1]
    c0 = EmbeddedCircle(-a, 1.0, a, ks[0])
    c1 = EmbeddedCircle(b, 1.0, b, ks[1])
    # Third circle: center (u, k3*rho), radius rho, tangent to both.
    # Tangency eliminates u = rho (a-b)/(a+b); rho solves A rho^2 + B rho + 1 = 0.
    c = (a - b) / (a + b)
    k3 = ks[2]
    A = c * c + k3 * k3 - 1.0
    B = 2.0 * (a * (c - 1.0) - k3)
    disc = B * B - 4.0 * A
    if disc < 0.0:
        if disc < -1e-12 * B * B:
            raise InfeasibleGeometryError(
                f"tangency chain fails to close for curvatures {tuple(ks)}")
        disc = 0.0
    rho = 2.0 / (-B + math.sqrt(disc))  # smaller positive root, stable form
    c2 = EmbeddedCircle(rho * c, k3 * rho, rho, k3)
    circles = (c0, c1, c2)
    tps = []
    for i, j in _PAIRS:
        ci, cj = circles[i], circles[j]
        t = ci.radius / (ci.radius + cj.radius)
        tps.append((ci.cx + (cj.cx - ci.cx) * t, ci.cy + (cj.cy - ci.cy) * t))
    return EmbeddedFace(circles=circles, tangency_points=tuple(tps))


def realize_face(k1: float, k2: float, k3: float) -> EmbeddedFace:
    """Embed the tangent configuration in the upper half-plane."""
    for k in (k1, k2, k3):
        if not k > 0.0:
            raise ValueError(f"geodesic curvature must be positive, got {k}")
    return _embed((k1, k2, k3))


def _chord_coshm1(emb: EmbeddedFace, i: int) -> float:
    """cosh(chord distance) - 1 between corner i's two tangency points."""
    P, Q, _ = emb.arc_endpoints(i)
    dx = P[0] - Q[0]
    dy = P[1] - Q[1]
    return (dx * dx + dy * dy) / (2.0 * P[1] * Q[1])


def _corner_from_chord(k: float, kind: CurveKind, m: float):
    """(gen_angle, l, L) of a corner from cosh(chord)-1 = m.

    Chord identities: circle cosh d = cosh^2 r - sinh^2 r cos(theta);
    horocycle l = 2 sinh(d/2); hypercycle cosh d = cosh^2 r cosh s - sinh^2 r.
    """
    if kind is CurveKind.HOROCYCLE:
        l = math.sqrt(2.0 * m)
        return None, l, l * k
    if kind is CurveKind.CIRCLE:
        sh2 = 1.0 / (k * k - 1.0)          # sinh^2 r
        u = m / sh2                        # 1 - cos(theta)
        if u <= 1.0:
            theta = 2.0 * math.asin(math.sqrt(0.5 * u))
        else:
            theta = math.pi - 2.0 * math.asin(math.sqrt(max(0.5 * (2.0 - u), 0.0)))
        l = theta * math.sqrt(sh2)
        return theta, l, l * k
    ch2 = 1.0 / (1.0 - k * k)              # cosh^2 r
    u = m / ch2                            # cosh s - 1
    s = math.log1p(u + math.sqrt(u * (2.0 + u)))  # acosh(1 + u), stable near 0
    l = s * math.sqrt(ch2)
    return s, l, l * k


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


# ---------------------------------------------------------------------------
# Face Jacobian
# ---------------------------------------------------------------------------

def face_jacobian(k1: float, k2: float, k3: float):
    """3x3 matrix J with J[i][j] = dL_i/dS_j, S = ln k.

    Central finite differences on the face solver with step
    h = 1e-6 * max(1, |S_j|).  J is symmetric (closedness of the
    curvature form), has positive diagonal, negative off-diagonal, and
    positive row sums (= -d area/d S_j).
    """
    ks = (k1, k2, k3)
    S = [math.log(k) for k in ks]
    J = [[0.0] * 3 for _ in range(3)]
    for j in range(3):
        h = 1e-6 * max(1.0, abs(S[j]))
        up = list(ks)
        dn = list(ks)
        up[j] = math.exp(S[j] + h)
        dn[j] = math.exp(S[j] - h)
        Lu = corner_curvatures(*up)
        Ld = corner_curvatures(*dn)
        for i in range(3):
            J[i][j] = (Lu[i] - Ld[i]) / (2.0 * h)
    return J
