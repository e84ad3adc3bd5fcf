"""Geometric interpretation of a solved curvature vector.

Classifies vertices (hypercycle -> geodesic boundary, horocycle -> cusp,
circle -> cone point), computes cone angles and discrete Gaussian
curvatures, geodesic boundary lengths, runs the global Gauss-Bonnet
audit on the realized surface, and renders single faces to SVG in the
Poincare disk.  Realization sums the arrays of one face_kernel call
per vertex, with no per-face records.  Read-only; thread-safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .hyptrig import KIND_TOL, CurveKind, classify_curvature
from .packing import _sum_at_vertices, vertex_curvatures
from .surface import Triangulation, euler_characteristic
from .tangency import EmbeddedFace, realize_face

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


def classify(k, tol: float = CLASS_TOL):
    """Partition vertices by solved curvature: I1 (k < 1 - tol, boundary),
    I2 (|k - 1| <= tol, cusp), I3 (k > 1 + tol, cone).  The face kernel
    solves |k - 1| <= KIND_TOL as a horocycle, which has no generalized
    angle, so a tol below KIND_TOL, which would make it a cone, raises
    ValueError."""
    k = np.asarray(k, dtype=float)
    if not np.all(k > 0.0):
        raise ValueError("curvatures must be positive")
    if not tol >= KIND_TOL:
        raise ValueError(f"class tolerance {tol} is below the face kernel's "
                         f"horocycle tolerance KIND_TOL = {KIND_TOL}")
    cusp = np.abs(k - 1.0) <= tol
    return tuple(tuple(np.flatnonzero(mask).tolist())
                 for mask in (~cusp & (k < 1.0), cusp, ~cusp & (k > 1.0)))


def gauss_bonnet_audit(tri: Triangulation, K, *, tol: float = CLASS_TOL) -> float:
    """realize_metric(tri, K, tol).audit_residual:
    |sum_f area_f + 2*pi*chi(S_realized) - sum_cones (2*pi - Theta_v)|
    with area_f the polygon area of face f (FaceGeometry) and
    chi(S_realized) = chi(S) - |I1| - |I2|.  Vanishes identically when
    corner extraction and incidence bookkeeping are consistent."""
    return realize_metric(tri, K, tol).audit_residual


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


def realize_metric(tri: Triangulation, K, tol: float = CLASS_TOL) -> RealizedMetric:
    """Classes, corner sums and the audit from one face_kernel call.  A
    vertex sums its corners' generalized angles in face order: the cone
    angle at a circle, the boundary length at a hypercycle (axis segments
    close up at right angles); horocycle corners add nothing."""
    K = np.asarray(K, dtype=float)
    k = np.exp(K)
    boundary, cusps, cones = classify(k, tol)
    classes = np.full(len(k), "cone", dtype=object)
    classes[list(boundary)] = "boundary"
    classes[list(cusps)] = "cusp"
    rep = vertex_curvatures(tri, K)
    gen = _sum_at_vertices(tri, np.nan_to_num(rep.arrays.gen))  # NaN at a horocycle
    theta = gen[list(cones)]
    gaussian = dict(zip(cones, (2.0 * math.pi - theta).tolist()))
    total_area = sum(rep.arrays.polygon_area.tolist(), 0.0)
    chi_surface = euler_characteristic(tri)
    chi_realized = chi_surface - len(boundary) - len(cusps)
    return RealizedMetric(
        k=k,
        classes=tuple(classes.tolist()),
        L=rep.L,
        cone_angles=dict(zip(cones, theta.tolist())),
        gaussian_curvature=gaussian,
        boundary_lengths=dict(zip(boundary, gen[list(boundary)].tolist())),
        cusps=cusps,
        total_area=total_area,
        chi_surface=chi_surface,
        chi_realized=chi_realized,
        audit_residual=abs(total_area + 2.0 * math.pi * chi_realized
                           - sum(gaussian.values())),
    )


def report_document(metric: RealizedMetric, *, schema_version: int = 1) -> str:
    """Machine-readable solve report; byte-identical for identical inputs."""
    vertices = []
    for v in range(len(metric.k)):
        rec = {"index": v, "k": float(metric.k[v]),
               "class": metric.classes[v], "L": float(metric.L[v])}
        if metric.classes[v] == "cone":
            rec["cone_angle"] = metric.cone_angles[v]
            rec["gaussian_curvature"] = metric.gaussian_curvature[v]
        elif metric.classes[v] == "boundary":
            rec["boundary_length"] = metric.boundary_lengths[v]
        else:
            rec["cusp"] = True
        vertices.append(rec)
    doc = {
        "schema_version": schema_version,
        "vertices": vertices,
        "global": {
            "chi_S": metric.chi_surface,
            "chi_realized": metric.chi_realized,
            "total_area": metric.total_area,
            "audit_residual": metric.audit_residual,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering (Poincare disk)
# ---------------------------------------------------------------------------

def _half_plane_to_disk_circle(cx: float, cy: float, radius: float):
    """Image disk of a Euclidean circle under w = i (z - i)/(z + i).

    The map sends the upper half-plane to the unit disk with the point
    (0, 1) at the origin and vertical directions there staying vertical.
    Mobius maps send circles to circles; the image is recovered from
    three mapped sample points (the pole z = -i never lies on a curve
    with cy >= 0).
    """
    pts = []
    for t in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
        z = complex(cx + radius * math.cos(t), cy + radius * math.sin(t))
        w = 1j * (z - 1j) / (z + 1j)
        pts.append(w)
    return _circle_through(pts[0], pts[1], pts[2])


def _circle_through(a: complex, b: complex, c: complex):
    """Center and radius of the circle through three points."""
    d = 2.0 * ((a.real - c.real) * (b.imag - c.imag)
               - (b.real - c.real) * (a.imag - c.imag))
    if abs(d) < 1e-30:
        raise ValueError("degenerate circle: collinear sample points")
    ha = abs(a) ** 2 - abs(c) ** 2
    hb = abs(b) ** 2 - abs(c) ** 2
    ux = (ha * (b.imag - c.imag) - hb * (a.imag - c.imag)) / d
    uy = (hb * (a.real - c.real) - ha * (b.real - c.real)) / d
    center = complex(ux, uy)
    return center, abs(a - center)


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    return "0.000000" if s == "-0.000000" else s


_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def render_face_svg(k1: float, k2: float, k3: float, *, size: int = 400) -> str:
    """Deterministic SVG of one embedded face in the Poincare disk.

    Emits the unit circle, the three packing curves (circles and
    horocycles as full circles, hypercycles clipped to the disk as
    arcs), and the three tangency points.  Normalization: the tangency
    point of the first two curves sits at the disk origin with a
    vertical common tangent.
    """
    emb: EmbeddedFace = realize_face(k1, k2, k3)
    half = size / 2.0
    scale = size / 2.4  # disk of radius 1 inside a 2.4-wide viewport

    def to_px(x: float, y: float) -> tuple[float, float]:
        return half + scale * x, half - scale * y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{_fmt(half)}" cy="{_fmt(half)}" r="{_fmt(scale)}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for idx, circ in enumerate(emb.circles):
        center, rad = _half_plane_to_disk_circle(circ.cx, circ.cy, circ.radius)
        color = _CURVE_COLORS[idx]
        kind = classify_curvature(circ.k)
        cx_px, cy_px = to_px(center.real, center.imag)
        if kind is CurveKind.HYPERCYCLE:
            lines.append(_arc_path(center, rad, to_px, scale, color))
        else:
            lines.append(
                f'<circle cx="{_fmt(cx_px)}" cy="{_fmt(cy_px)}" r="{_fmt(scale * rad)}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>')
    for (x, y) in emb.tangency_points:
        w = 1j * (complex(x, y) - 1j) / (complex(x, y) + 1j)
        px, py = to_px(w.real, w.imag)
        lines.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#000000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _arc_path(center: complex, rad: float, to_px, scale: float, color: str) -> str:
    """Arc of the image circle clipped to the unit disk (hypercycles)."""
    d = abs(center)
    # intersection of |w| = 1 and |w - center| = rad
    a = (1.0 + d * d - rad * rad) / (2.0 * d)
    h2 = 1.0 - a * a
    if h2 <= 0.0:  # numerically tangent: draw the full circle
        cx_px, cy_px = to_px(center.real, center.imag)
        return (f'<circle cx="{_fmt(cx_px)}" cy="{_fmt(cy_px)}" r="{_fmt(scale * rad)}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>')
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
    x1, y1 = to_px(p1.real, p1.imag)
    x2, y2 = to_px(p2.real, p2.imag)
    r_px = scale * rad
    return (f'<path d="M {_fmt(x1)} {_fmt(y1)} A {_fmt(r_px)} {_fmt(r_px)} 0 '
            f'{large} {sweep} {_fmt(x2)} {_fmt(y2)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>')
