"""Geometric interpretation of a solved curvature vector.

Classifies vertices (hypercycle -> geodesic boundary, horocycle -> cusp,
circle -> cone point) by the face kernel's own kind rule, computes cone
angles and discrete Gaussian curvatures, geodesic boundary lengths, runs
the global Gauss-Bonnet audit on the realized surface, and renders
single faces to SVG from a closed-form picture in the Poincare disk.
Realization classifies each vertex once and sums the generalized angles
2 w G of one face_kernel call per vertex, with no per-face records, at
the classified state: each cusp is realized as a horocycle, at k = 1
exactly, where that angle is 0.  The JSON report is one % over
per-class record templates with the numbers themselves, with no JSON
encoder.  Read-only; thread-safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .packing import _sum_at_vertices, vertex_curvatures
from .surface import Triangulation, euler_characteristic
from .tangency import (_CIRC, _HORO, _HYPER, KIND_TOL, CurveKind, InfeasibleGeometryError,
                       _kind, _polygon_area, _positive, classify_curvature)

__all__ = [
    "CLASS_TOL",
    "RealizedMetric",
    "classify",
    "gauss_bonnet_audit",
    "realize_metric",
    "render_face_svg",
    "report_document",
]

# |k - 1| below this classifies a solved vertex as a cusp; the flow
# generically never lands exactly on k = 1, so cusps arise only from
# prescribed degenerate targets or exact symmetry.
CLASS_TOL = 1e-9


def _class_kind(k, tol: float) -> np.ndarray:
    """Kind codes of positive curvatures k at class tolerance tol (_kind),
    or ValueError for a tol outside [KIND_TOL, inf)."""
    if not KIND_TOL <= tol < math.inf:
        raise ValueError(f"class tolerance {tol} must be finite and at least the face "
                         f"kernel's horocycle tolerance KIND_TOL = {KIND_TOL}")
    return _kind(k, tol)


def classify(k, tol: float = CLASS_TOL):
    """Partition vertices by solved curvature, by the face kernel's kind
    rule at tolerance tol: I1 (k < 1 - tol, boundary), I2 (|k - 1| <= tol,
    cusp), I3 (k > 1 + tol, cone).  The face kernel solves |k - 1| <=
    KIND_TOL as a horocycle, which has no generalized angle, so a tol below
    KIND_TOL (which would make it a cone) raises ValueError, as does a tol
    that is not finite (which would make every vertex a cusp)."""
    kind = _class_kind(_positive(k), tol)
    return tuple(tuple(np.flatnonzero(kind == c).tolist()) for c in (_HYPER, _HORO, _CIRC))


def gauss_bonnet_audit(tri: Triangulation, K) -> float:
    """realize_metric(tri, K).audit_residual, at class tolerance CLASS_TOL:
    |sum_f area_f + 2*pi*chi(S_realized) - sum_cones (2*pi - Theta_v)|
    with area_f the polygon area of face f (FaceGeometry) and
    chi(S_realized) = chi(S) - |I1| - |I2|.  Vanishes identically when
    corner extraction and incidence bookkeeping are consistent."""
    return realize_metric(tri, K).audit_residual


@dataclass(frozen=True)
class RealizedMetric:
    """Full geometric interpretation of a solved packing."""

    k: np.ndarray
    classes: tuple[str, ...]              # "boundary" | "cusp" | "cone" per vertex
    L: np.ndarray
    cone_angles: dict[int, float]
    gaussian_curvature: dict[int, float]  # 2*pi - Theta_v on cone vertices
    boundary_lengths: dict[int, float]
    cusps: tuple[int, ...]
    total_area: float                     # sum of face polygon areas
    chi_surface: int
    chi_realized: int
    audit_residual: float


_CLASS_NAMES = np.empty(3, dtype=object)  # a class name per kind code
_CLASS_NAMES[[_HORO, _CIRC, _HYPER]] = "cusp", "cone", "boundary"


def realize_metric(tri: Triangulation, K, tol: float = CLASS_TOL) -> RealizedMetric:
    """Classes, corner sums and the audit from one face_kernel call.  Each
    vertex is classified once, at tolerance tol; the kernel sees every
    cusp at K = 0 exactly, so that its corners are the horocycles the
    class says they are, where the generalized angle 2 w G is exactly 0;
    k is the solved exp(K) and L the curvature sums of the realized
    state.  A vertex sums its corners' generalized angles in face order:
    the cone angle at a circle, the boundary length at a hypercycle (axis
    segments close up at right angles); horocycle corners add nothing.
    An entry of K that is not finite, or whose exp is 0 or overflows,
    raises ValueError naming it, before the kernel runs."""
    K = np.asarray(K, dtype=float)
    with np.errstate(over="ignore"):
        k = np.exp(K)
    bad = ~((0.0 < k) & (k < math.inf))  # a NaN fails both
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        x = K.flat[i]
        raise ValueError(f"K must be finite; entry {i} is {x}" if not math.isfinite(x) else
                         f"exp(K) must be positive and finite; entry {i} is {x}")
    kind = _class_kind(k, tol)
    rep = vertex_curvatures(tri, np.where(kind == _HORO, 0.0, K))
    gen = 2.0 * rep.arrays.w * rep.arrays.G  # per corner, 0 at a horocycle
    at_vertex = _sum_at_vertices(tri, gen)
    boundary, cusps, cones = (np.flatnonzero(kind == c) for c in (_HYPER, _HORO, _CIRC))
    theta = at_vertex[cones]
    gaussian = dict(zip(cones.tolist(), (2.0 * math.pi - theta).tolist()))
    total_area = sum(_polygon_area(kind[tri.face_array] == _CIRC, gen).tolist(), 0.0)
    chi_surface = euler_characteristic(tri)
    chi_realized = chi_surface - len(boundary) - len(cusps)
    return RealizedMetric(
        k=k,
        classes=tuple(_CLASS_NAMES[kind].tolist()),
        L=rep.L,
        cone_angles=dict(zip(gaussian, theta.tolist())),
        gaussian_curvature=gaussian,
        boundary_lengths=dict(zip(boundary.tolist(), at_vertex[boundary].tolist())),
        cusps=tuple(cusps.tolist()),
        total_area=total_area,
        chi_surface=chi_surface,
        chi_realized=chi_realized,
        audit_residual=abs(total_area + 2.0 * math.pi * chi_realized
                           - sum(gaussian.values())),
    )


def _record(cls: str, *keys: str) -> str:
    """Template of one vertex record, keys in sorted order, %s per number."""
    fixed = {"class": f'"{cls}"', "cusp": "true"}
    return "{\n%s\n    }" % ",\n".join(f'      "{key}": {fixed.get(key, "%s")}'
                                        for key in sorted(("L", "class", "index", "k") + keys))


_RECORDS = {"boundary": _record("boundary", "boundary_length"),
            "cone": _record("cone", "cone_angle", "gaussian_curvature"),
            "cusp": _record("cusp", "cusp")}
_HEAD = ('{\n  "global": {\n    "audit_residual": %s,\n    "chi_S": %s,\n'
         '    "chi_realized": %s,\n    "total_area": %s\n  },\n'
         '  "schema_version": 1,\n  "vertices": [')


def _json_number(x):
    """x itself if it is finite, else json's spelling: NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return x
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def report_document(metric: RealizedMetric) -> str:
    """Machine-readable solve report, schema_version 1, byte-identical for
    identical inputs: keys sorted, two-space indent, trailing newline,
    numbers as json.dumps spells them (shortest round-trip floats, NaN,
    Infinity).  One % fills the record templates with the numbers
    themselves: %s spells a finite float (a Python or a numpy float64) and
    an int as json does, so only values that are not finite are spelled
    here, after one sum over the document finds any."""
    cone, gauss, lengths = metric.cone_angles, metric.gaussian_curvature, metric.boundary_lengths
    values = [metric.audit_residual, metric.chi_surface, metric.chi_realized, metric.total_area]
    for v, cls, L, k in zip(count(), metric.classes, np.asarray(metric.L, float).tolist(),
                            np.asarray(metric.k, float).tolist()):
        if cls == "cone":  # values in the record's key order
            values += (L, cone[v], gauss[v], v, k)
        elif cls == "boundary":
            values += (L, lengths[v], v, k)
        else:
            values += (L, v, k)
    with np.errstate(all="ignore"):  # numpy scalars warn at inf - inf and overflow
        total = sum(values)
    if not math.isfinite(total):  # a value that is not finite, or an overflow
        values = map(_json_number, values)
    records = ",\n    ".join(map(_RECORDS.__getitem__, metric.classes))
    body = "\n    " + records + "\n  " if records else ""
    return (_HEAD + body + "]\n}\n") % tuple(values)


# ---------------------------------------------------------------------------
# SVG rendering (Poincare disk)
# ---------------------------------------------------------------------------

def _disk_picture(k0: float, k1: float, k2: float):
    """Centers, radii and origin powers |c|^2 - r^2 of the three curves,
    and the tangency points in the pair order (0,1), (0,2), (1,2), in the
    Poincare disk: the closed-form image under w = i (z - i)/(z + i) of
    the half-plane embedding with curves 0 and 1 touching at i with a
    vertical common tangent, so that they touch at the origin.  With
    s = k0 + k1, q = 1 + k2 s and D = 1 + k0 k1 + k0 k2 + k1 k2, curve 2
    has radius s/(2q), center ((k1 - k0) - 2i sqrt(D))/(2q) and origin
    power 1/q, curves 0 and 1 pass through the origin, and curve 2 touches
    them at -(k0 + i sqrt(D))/(D + k0^2) and (k1 - i sqrt(D))/(D + k1^2)."""
    s = k0 + k1
    q = 1.0 + k2 * s
    d = 1.0 + k0 * k1 + k0 * k2 + k1 * k2
    sqrt_d = math.sqrt(d)
    centers = (complex(-0.5 / k0), complex(0.5 / k1), complex(0.5 * (k1 - k0), -sqrt_d) / q)
    radii = (0.5 / k0, 0.5 / k1, 0.5 * s / q)
    points = (0j, -complex(k0, sqrt_d) / (d + k0 * k0), complex(k1, -sqrt_d) / (d + k1 * k1))
    return centers, radii, (0.0, 0.0, 1.0 / q), points


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c")
_SIZE = 400  # px, width and height of a face picture
_SCALE = _SIZE / 2.4  # px per unit: the unit disk inside a 2.4-wide viewport


def _px(w: complex) -> tuple[str, str]:
    """The formatted pixel coordinates of the disk point w."""
    return _fmt(_SIZE / 2.0 + _SCALE * w.real), _fmt(_SIZE / 2.0 - _SCALE * w.imag)


def _circle(center: complex, rad: float, color: str) -> str:
    x, y = _px(center)
    return (f'<circle cx="{x}" cy="{y}" r="{_fmt(_SCALE * rad)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>')


def render_face_svg(k1: float, k2: float, k3: float) -> str:
    """Deterministic 400 x 400 px SVG of one embedded face in the Poincare disk.

    Emits the unit circle, the three packing curves (circles and
    horocycles as full circles, hypercycles clipped to the disk as
    arcs), and the three tangency points.  Normalization: the tangency
    point of the first two curves sits at the disk origin with a
    vertical common tangent.
    """
    kinds = [classify_curvature(k) for k in (k1, k2, k3)]
    centers, radii, powers, points = _disk_picture(k1, k2, k3)
    if not all(map(cmath.isfinite, centers + radii + points)):
        raise InfeasibleGeometryError(
            f"face with curvatures {(k1, k2, k3)} cannot be drawn in double precision")
    x0, y0 = _px(0j)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<circle cx="{x0}" cy="{y0}" r="{_fmt(_SCALE)}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for center, rad, power, kind, color in zip(centers, radii, powers, kinds, _CURVE_COLORS):
        lines.append(_arc_path(center, rad, power, color) if kind is CurveKind.HYPERCYCLE
                     else _circle(center, rad, color))
    for w in points:
        x, y = _px(w)
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#000000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _arc_path(center: complex, rad: float, power: float, color: str) -> str:
    """Arc of the image circle clipped to the unit disk (hypercycles);
    power is the origin's power |center|^2 - rad^2."""
    d = abs(center)
    # intersection of |w| = 1 and |w - center| = rad
    a = (1.0 + power) / (2.0 * d)
    h2 = 1.0 - a * a
    if h2 <= 0.0:  # numerically tangent: draw the full circle
        return _circle(center, rad, color)
    h = math.sqrt(h2)
    u = center / d
    p1 = a * u + h * complex(-u.imag, u.real)
    p2 = a * u - h * complex(-u.imag, u.real)
    # pick the arc branch whose midpoint lies inside the unit disk
    a1 = math.atan2(p1.imag - center.imag, p1.real - center.real)
    a2 = math.atan2(p2.imag - center.imag, p2.real - center.real)
    span_ccw = (a2 - a1) % (2.0 * math.pi)
    mid = center + rad * complex(math.cos(a1 + 0.5 * span_ccw),
                                 math.sin(a1 + 0.5 * span_ccw))
    take_ccw = abs(mid) < 1.0
    span = span_ccw if take_ccw else 2.0 * math.pi - span_ccw
    large = 1 if span > math.pi else 0
    sweep = 0 if take_ccw else 1  # math-ccw appears ccw on screen => sweep 0
    (x1, y1), (x2, y2) = _px(p1), _px(p2)
    r_px = _fmt(_SCALE * rad)
    return (f'<path d="M {x1} {y1} A {r_px} {r_px} 0 {large} {sweep} {x2} {y2}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>')
