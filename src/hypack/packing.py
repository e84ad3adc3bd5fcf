"""Whole-surface assembly: per-vertex total geodesic curvatures L(K),
the global Jacobian/Hessian M = [dL_i/dK_j], and the convex potential.

The state is the log-curvature vector K (K_i = ln k_i), which makes the
domain all of R^|V|.  Every face goes through one call of the array face
kernel (tangency.face_kernel) per evaluation, with no loop over faces;
the Hessian takes the kernel's exact face Jacobians.  Scatters to the
vertices add in face order, so results are deterministic.  The Hessian
has one assembly path, a dense ndarray at every surface size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .surface import Triangulation
from .tangency import FaceGeometry, face_kernel, face_records
# not called here: perfbench's tracer wraps these names in this module
from .tangency import corner_curvatures, face_jacobian, solve_face  # noqa: F401

__all__ = [
    "CurvatureReport",
    "vertex_curvatures",
    "vertex_curvature_sums",
    "global_jacobian",
    "potential_value",
]


@dataclass(frozen=True)
class CurvatureReport:
    """Per-vertex curvature sums plus the per-face geometry behind them."""

    L: np.ndarray
    faces: tuple[FaceGeometry, ...]
    total_area: float


def _face_curvatures(tri: Triangulation, K) -> np.ndarray:
    """The (F, 3) corner curvatures exp(K) of every face.  exp overflows
    to inf and underflows to 0 silently; the face kernel rejects both."""
    K = np.asarray(K, dtype=float)
    if K.shape != (tri.num_vertices,):
        raise ValueError(f"expected {tri.num_vertices} state entries, got {K.shape}")
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(K)[tri.face_array]


def vertex_curvature_sums(tri: Triangulation, K) -> np.ndarray:
    """L_i = sum over faces at i of the corner total curvature: one
    value-only face_kernel call over all faces."""
    return _sum_at_vertices(tri, face_kernel(_face_curvatures(tri, K)).L)


def vertex_curvatures(tri: Triangulation, K) -> CurvatureReport:
    """Full report: curvature sums, solved faces, total enclosed area."""
    k = _face_curvatures(tri, K)
    fa = face_kernel(k)
    return CurvatureReport(L=_sum_at_vertices(tri, fa.L), faces=tuple(face_records(k, fa)),
                           total_area=sum(fa.area.tolist(), 0.0))


def _sum_at_vertices(tri: Triangulation, corner_values: np.ndarray) -> np.ndarray:
    """Per-vertex sums of (F, 3) per-corner values.

    np.bincount adds in face order, so the sums equal a loop over faces.
    """
    return np.bincount(tri.face_array.ravel(), weights=corner_values.ravel(),
                       minlength=tri.num_vertices)


def global_jacobian(tri: Triangulation, K) -> np.ndarray:
    """Hessian M with M[i, j] = dL_i/dK_j, assembled from the exact face
    Jacobians of one face_kernel call over all faces.

    Symmetric to rounding (about 1e-14 relative, so no symmetrization is
    needed), strictly diagonally dominant with positive diagonal, hence
    positive definite.  Always a dense n x n ndarray, which costs 8*n^2
    bytes: 0.5 MB at 256 vertices, 8 MB at 1024.  np.bincount adds the
    face blocks into each entry in face order.
    """
    n = tri.num_vertices
    J = face_kernel(_face_curvatures(tri, K), jac=True).J
    return np.bincount(tri.corner_pair_index, weights=J.ravel(),
                       minlength=n * n).reshape(n, n)


def potential_value(tri: Triangulation, K, K_ref, l_hat, *,
                    waypoints=(), panels: int = 64) -> float:
    """Potential difference Phi(K) - Phi(K_ref), as a diagnostic.

    The surface functional W is evaluated by integrating sum_i L_i dK_i
    along the straight segment from K_ref to K (composite Gauss-Legendre
    quadrature, `panels` panels of 4 nodes), then the linear term
    sum_i Lhat_i (K_i - K_ref_i) is subtracted.  Optional waypoints turn
    the path into a polyline; by closedness of the curvature form the
    value is path-independent, which is a test, not an assumption here.
    """
    K = np.asarray(K, dtype=float)
    K_ref = np.asarray(K_ref, dtype=float)
    target = np.asarray(l_hat, dtype=float)
    nodes, weights = leggauss(4)
    total = 0.0
    pts = [K_ref, *[np.asarray(w, dtype=float) for w in waypoints], K]
    for a, b in zip(pts[:-1], pts[1:]):
        delta = b - a
        if not np.any(delta):
            continue
        for p in range(panels):
            lo = p / panels
            hi = (p + 1) / panels
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            for x, w in zip(nodes, weights):
                t = mid + half * x
                L = vertex_curvature_sums(tri, a + t * delta)
                total += w * half * float(L @ delta)
    return total - float(target @ (K - K_ref))
