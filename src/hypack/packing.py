"""Whole-surface assembly: per-vertex total geodesic curvatures L(K),
the global Jacobian/Hessian M = [dL_i/dK_j], and the convex potential.

The state is the log-curvature vector K (K_i = ln k_i), which makes the
domain all of R^|V|.  Every face goes through one call of the array face
kernel (tangency.face_kernel) per evaluation, with no loop over faces;
the Hessian takes the kernel's exact face Jacobians, and the potential
evaluates all quadrature nodes of a path segment in one call.  Scatters
to the vertices add in face order, so results are deterministic.  The
Hessian has one assembly path, a dense ndarray at every surface size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .surface import Triangulation
from .tangency import FaceArrays, FaceGeometry, face_kernel, face_records
from .tangency import require_positive_area
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
    """Per-vertex curvature sums L and the total enclosed area, with the
    face kernel's arrays for all faces and their (F, 3) curvatures k;
    the FaceGeometry records `faces` are built on first read."""

    L: np.ndarray
    total_area: float
    arrays: FaceArrays
    k: np.ndarray

    @cached_property
    def faces(self) -> tuple[FaceGeometry, ...]:
        return tuple(face_records(self.k, self.arrays))


def _face_curvatures(tri: Triangulation, K) -> np.ndarray:
    """The (F, 3) corner curvatures exp(K) of every face, or (N*F, 3) for
    N states in the rows of K.  exp overflows to inf and underflows to 0
    silently; the face kernel rejects both."""
    K = np.asarray(K, dtype=float)
    if K.shape[-1:] != (tri.num_vertices,):
        raise ValueError(f"expected {tri.num_vertices} state entries, got {K.shape}")
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(K)[..., tri.face_array].reshape(-1, 3)


def vertex_curvature_sums(tri: Triangulation, K) -> np.ndarray:
    """L_i = sum over faces at i of the corner total curvature: one
    value-only face_kernel call over all faces."""
    return _sum_at_vertices(tri, face_kernel(_face_curvatures(tri, K)).L)


def vertex_curvatures(tri: Triangulation, K) -> CurvatureReport:
    """Full report from one face_kernel call: curvature sums and the
    solved faces.  Raises InfeasibleGeometryError for a non-positive area."""
    k = _face_curvatures(tri, K)
    fa = face_kernel(k)
    require_positive_area(k, fa)
    return CurvatureReport(L=_sum_at_vertices(tri, fa.L), total_area=sum(fa.area.tolist(), 0.0),
                           arrays=fa, k=k)


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
    Each segment is one face_kernel call over 4*panels*F faces.
    """
    K = np.asarray(K, dtype=float)
    K_ref = np.asarray(K_ref, dtype=float)
    target = np.asarray(l_hat, dtype=float)
    nodes, weights = leggauss(4)
    # node j of panel p sits at t = (p + (1 + x_j)/2) / panels
    t = ((np.arange(panels)[:, None] + 0.5 * (1.0 + nodes)) / panels).ravel()
    w = np.tile(0.5 * weights / panels, panels)
    n = tri.num_vertices
    # node j's corners go to bins j*n + v: one bincount yields every node's L
    bins = (np.arange(t.size)[:, None] * n + tri.face_array.ravel()).ravel()
    total = 0.0
    pts = [K_ref, *[np.asarray(p, dtype=float) for p in waypoints], K]
    for a, b in zip(pts[:-1], pts[1:]):
        delta = b - a
        if not np.any(delta):
            continue
        k = _face_curvatures(tri, a + t[:, None] * delta)
        L = np.bincount(bins, weights=face_kernel(k).L.ravel(), minlength=t.size * n)
        total += float(w @ (L.reshape(t.size, n) @ delta))
    return total - float(target @ (K - K_ref))
