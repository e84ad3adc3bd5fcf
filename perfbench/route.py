"""Independent half-plane route for one face and the benchmark's surfaces.

Nothing here imports hypack.  A face with geodesic curvatures k0, k1, k2
is embedded in the upper half-plane as three mutually tangent Euclidean
circles with cy / radius = k (circle k > 1, horocycle k = 1, hypercycle
k < 1).  The arc of curve i between its two tangency points P, Q then
follows from the half-plane chord cosh d(P, Q) - 1 = |P - Q|^2 / (2 yP yQ):

* circle, k = coth r:      cosh d - 1 = sinh^2 r (1 - cos theta),  l = theta sinh r
* horocycle, k = 1:        cosh d - 1 = l^2 / 2
* hypercycle, k = tanh r:  cosh d - 1 = cosh^2 r (cosh s - 1),     l = s cosh r

and the corner's total geodesic curvature is L = l k.
"""

from __future__ import annotations

import math

# |k - 1| at or below this is a horocycle; the benchmark plants cusps as
# K = 0 exactly, so k = exp(0) = 1.0 and the test is exact there.
HORO_TOL = 1e-12


def kind(k: float) -> str:
    if abs(k - 1.0) <= HORO_TOL:
        return "horocycle"
    return "circle" if k > 1.0 else "hypercycle"


def face_case(k0: float, k1: float, k2: float) -> str:
    """The face's mix of curve kinds: triangle (3 circles), quad (2 circles,
    1 hypercycle), pentagon (1 circle), hexagon (0 circles), or horocycle
    (at least one horocycle)."""
    kinds = [kind(k) for k in (k0, k1, k2)]
    if "horocycle" in kinds:
        return "horocycle"
    return ("hexagon", "pentagon", "quad", "triangle")[kinds.count("circle")]


def embed(k0: float, k1: float, k2: float):
    """Three mutually tangent Euclidean circles (cx, cy, radius).

    Curves 0 and 1 touch at (0, 1): their centres sit on the line y = 1 at
    -1/k0 and +1/k1.  Curve 2 has centre (u, k2 p) and radius p; external
    tangency to both fixes u = p (1/k0 - 1/k1) / (1/k0 + 1/k1) and leaves a
    quadratic in 1/p whose two roots are mirror images under inversion in
    the unit circle (which fixes curves 0 and 1), so either root serves.
    """
    a, b = 1.0 / k0, 1.0 / k1
    c = (a - b) / (a + b)
    # (u + a)^2 + (k2 p - 1)^2 = (a + p)^2 with u = c p, divided by p^2,
    # gives q^2 - 2 (k2 + a (1 - c)) q + (c^2 + k2^2 - 1) = 0 for q = 1/p.
    half_b = k2 + a * (1.0 - c)
    const = c * c + k2 * k2 - 1.0
    disc = max(half_b * half_b - const, 0.0)
    q = half_b + math.sqrt(disc)       # the larger q: no cancellation
    p = 1.0 / q
    return ((-a, 1.0, a), (b, 1.0, b), (c * p, k2 * p, p))


def _contact(ci, cj):
    """Tangency point of two externally tangent circles."""
    t = ci[2] / (ci[2] + cj[2])
    return (ci[0] + t * (cj[0] - ci[0]), ci[1] + t * (cj[1] - ci[1]))


def _coshm1(P, Q) -> float:
    dx, dy = P[0] - Q[0], P[1] - Q[1]
    return (dx * dx + dy * dy) / (2.0 * P[1] * Q[1])


def corner(k: float, m: float):
    """(generalized angle, arc length l, total curvature L) of a corner of
    curvature k whose tangency points are at chord cosh d - 1 = m.  The
    generalized angle is None at a horocycle."""
    kd = kind(k)
    if kd == "horocycle":
        l = math.sqrt(2.0 * m)
        return None, l, l
    if kd == "circle":
        s2 = 1.0 / ((k - 1.0) * (k + 1.0))            # sinh^2 r
        half = m / (2.0 * s2)                          # sin^2(theta / 2)
        theta = 2.0 * math.atan2(math.sqrt(half), math.sqrt(max(1.0 - half, 0.0)))
        l = theta * math.sqrt(s2)
        return theta, l, l * k
    c2 = 1.0 / ((1.0 - k) * (1.0 + k))                # cosh^2 r
    u = m / c2                                         # cosh s - 1
    s = math.log1p(u + math.sqrt(u * (u + 2.0)))
    l = s * math.sqrt(c2)
    return s, l, l * k


def face(k0: float, k1: float, k2: float):
    """Per-corner (generalized angle, l, L) for the face (k0, k1, k2)."""
    circles = embed(k0, k1, k2)
    t01 = _contact(circles[0], circles[1])
    t02 = _contact(circles[0], circles[2])
    t12 = _contact(circles[1], circles[2])
    return (corner(k0, _coshm1(t01, t02)),
            corner(k1, _coshm1(t01, t12)),
            corner(k2, _coshm1(t02, t12)))


def vertex_L(faces, k):
    """Per-vertex total geodesic curvature, summed over the faces."""
    L = [0.0] * len(k)
    for f in faces:
        out = face(k[f[0]], k[f[1]], k[f[2]])
        for v, (_, _, Lc) in zip(f, out):
            L[v] += Lc
    return L


def polygon_area(k0: float, k1: float, k2: float) -> float:
    """Area of the face of the induced polyhedral metric: pi minus the
    circle-corner angles (right angles at hypercycle truncations, zero at
    ideal vertices)."""
    out = face(k0, k1, k2)
    return math.pi - sum(g for (g, _, _), k in zip(out, (k0, k1, k2))
                         if kind(k) == "circle")


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

def torus_grid(n: int, m: int):
    """Faces of the n x m vertex grid on the torus, each square split in two."""
    def vid(i, j):
        return (i % n) * m + (j % m)
    faces = []
    for i in range(n):
        for j in range(m):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            faces.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return n * m, faces


def genus2():
    """Faces of the connected sum of two 3 x 3 torus grids, glued along one
    removed triangle of each (15 vertices, 34 faces)."""
    _, faces = torus_grid(3, 3)
    glue = faces[0]
    ident = {v + 9: w for v, w in zip(glue, glue)}
    second = [tuple(ident.get(v + 9, v + 9) for v in f) for f in faces[1:]]
    all_faces = faces[1:] + second
    used = sorted({v for f in all_faces for v in f})
    remap = {v: i for i, v in enumerate(used)}
    return len(used), [tuple(remap[v] for v in f) for f in all_faces]


def surface(workload: str):
    """(num_vertices, faces) of a workload's surface, as plain tuples; only
    the standard library is loaded to build it, so set-up time can be
    measured from a bare interpreter."""
    if workload == "solve-genus2":
        return genus2()
    sizes = {"resolve-torus16": (16, 16), "check-torus20": (4, 5),
             "realize-torus32": (32, 32)}
    if workload not in sizes:
        raise ValueError(f"unknown workload {workload!r}")
    return torus_grid(*sizes[workload])


def euler_characteristic(num_vertices: int, faces) -> int:
    edges = {tuple(sorted(e)) for a, b, c in faces for e in ((a, b), (b, c), (a, c))}
    return num_vertices - len(edges) + len(faces)
