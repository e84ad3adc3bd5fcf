"""Whole-surface assembly: per-vertex total geodesic curvatures L(K),
the global Jacobian/Hessian M = [dL_i/dK_j], and the convex potential.

The state is the log-curvature vector K (K_i = ln k_i), which makes the
domain all of R^|V|.  Face evaluations use a fixed face order and
fixed-order summation so results are deterministic.  The Hessian has one
assembly path, a dense ndarray at every surface size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .surface import Triangulation
from .tangency import FaceGeometry, corner_curvatures, face_jacobian, solve_face

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


def vertex_curvature_sums(tri: Triangulation, K) -> np.ndarray:
    """L_i = sum over faces at i of the corner total curvature (fast path)."""
    k = np.exp(np.asarray(K, dtype=float))
    if k.shape != (tri.num_vertices,):
        raise ValueError(f"expected {tri.num_vertices} state entries, got {k.shape}")
    kl = k.tolist()
    return _sum_at_vertices(
        tri, [corner_curvatures(kl[a], kl[b], kl[c]) for a, b, c in tri.faces])


def vertex_curvatures(tri: Triangulation, K) -> CurvatureReport:
    """Full report: curvature sums, solved faces, total enclosed area."""
    k = np.exp(np.asarray(K, dtype=float))
    if k.shape != (tri.num_vertices,):
        raise ValueError(f"expected {tri.num_vertices} state entries, got {k.shape}")
    kl = k.tolist()
    faces = tuple(solve_face(kl[a], kl[b], kl[c]) for a, b, c in tri.faces)
    return CurvatureReport(
        L=_sum_at_vertices(tri, [fg.total_curvature for fg in faces]),
        faces=faces, total_area=sum((fg.area for fg in faces), 0.0))


def _sum_at_vertices(tri: Triangulation, corner_values) -> np.ndarray:
    """Per-vertex sums of per-face corner values (one row per face).

    np.bincount adds in face order, so the sums equal a loop over faces.
    """
    return np.bincount(np.array(tri.faces, dtype=np.intp).ravel(),
                       weights=np.ravel(corner_values), minlength=tri.num_vertices)


def global_jacobian(tri: Triangulation, K) -> np.ndarray:
    """Hessian M with M[i, j] = dL_i/dK_j, assembled from per-face blocks.

    Symmetric (up to finite-difference noise), strictly diagonally
    dominant with positive diagonal, hence positive definite.  Always a
    dense n x n ndarray, which costs 8*n^2 bytes: 0.5 MB at 256 vertices,
    8 MB at 1024.  np.bincount adds the face blocks into each entry in
    face order.
    """
    k = np.exp(np.asarray(K, dtype=float))
    n = tri.num_vertices
    if k.shape != (n,):
        raise ValueError(f"expected {n} state entries, got {k.shape}")
    kl = k.tolist()
    J = np.array([face_jacobian(kl[a], kl[b], kl[c]) for a, b, c in tri.faces])
    f = np.array(tri.faces, dtype=np.intp).reshape(-1, 3)
    index = f[:, :, None] * n + f[:, None, :]
    return np.bincount(index.ravel(), weights=J.ravel(),
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
