"""Whole-surface assembly: per-vertex total geodesic curvatures L(K),
the Hessian M = [dL_i/dK_j], and the convex potential.

The state is K = ln k, which makes the domain all of R^|V|.  Every
evaluation is one call of the array face kernel (tangency.face_kernel)
on exp(K) at all faces (_face_curvatures): it computes L, and derives the
face Jacobians, kinds, angles and areas only when read.  The potential
sums the closed-form tangency.face_potential over the faces.  Scatters
to the vertices add in face order, so results are deterministic.  M is
exactly symmetric, and its entries are built here alone
(_hessian_entries), at the index Triangulation._hessian_index derives once:
one weight per edge, at (u, w) and at (w, u), then the diagonal.
global_jacobian and the Newton step below
flow._CG_MIN_VERTICES vertices densify them (_dense_hessian); from there
up the Newton step runs conjugate gradients on them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .surface import Triangulation, _per_vertex
from .tangency import FaceArrays, FaceGeometry, face_kernel, face_potential, face_records
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
    """Per-vertex curvature sums L, with the face kernel's arrays for all
    faces (whose Jacobians and areas are derived on first read); the
    FaceGeometry records `faces` are built on first read."""

    L: np.ndarray
    arrays: FaceArrays

    @cached_property
    def faces(self) -> tuple[FaceGeometry, ...]:
        return tuple(face_records(self.arrays))


def _face_curvatures(tri: Triangulation, K) -> np.ndarray:
    """The (F, 3) corner curvatures exp(K) of every face, for a state K of
    shape (n,) (_per_vertex).  exp overflows to inf and underflows to 0
    silently; the face kernel rejects both."""
    K = _per_vertex(tri, K, "state")
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(K)[tri.face_array]


def vertex_curvature_sums(tri: Triangulation, K) -> np.ndarray:
    """L_i = sum over faces at i of the corner total curvature: one
    value-only face_kernel call over all faces."""
    return _sum_at_vertices(tri, face_kernel(_face_curvatures(tri, K)).L)


def vertex_curvatures(tri: Triangulation, K) -> CurvatureReport:
    """Full report from one face_kernel call: curvature sums and the
    solved faces.  Raises InfeasibleGeometryError, from the kernel, for a
    face that cannot be evaluated in double precision."""
    fa = face_kernel(_face_curvatures(tri, K))
    return CurvatureReport(L=_sum_at_vertices(tri, fa.L), arrays=fa)


def _sum_at_vertices(tri: Triangulation, corner_values: np.ndarray) -> np.ndarray:
    """Per-vertex sums of (F, 3) per-corner values.

    np.bincount adds in face order, so the sums equal a loop over faces.
    """
    return np.bincount(tri.face_array.ravel(), weights=corner_values.ravel(),
                       minlength=tri.num_vertices)


def global_jacobian(tri: Triangulation, K) -> np.ndarray:
    """Hessian M with M[i, j] = dL_i/dK_j from the exact face Jacobians of
    one face_kernel call: exactly symmetric, strictly diagonally dominant
    with positive diagonal, hence positive definite.  Always a dense n x n
    ndarray, which costs 8*n^2 bytes: 0.5 MB at 256 vertices, 8 MB at 1024."""
    return _dense_hessian(tri, _hessian_entries(tri, face_kernel(_face_curvatures(tri, K))))


def _hessian_entries(tri: Triangulation, fa: FaceArrays) -> np.ndarray:
    """M's entries at (rows, cols) = tri._hessian_index[:2], from the face
    Jacobians in fa: an edge adds the J_pair of its faces, a vertex the
    J_diag, in face order; M v = np.bincount(rows, weights=entries * v[cols])."""
    J_diag, J_pair = fa.jacobians
    w = np.bincount(tri._pair_slot, weights=J_pair.ravel())
    return np.concatenate((w, w, _sum_at_vertices(tri, J_diag)))


def _dense_hessian(tri: Triangulation, entries) -> np.ndarray:
    """M as an n x n ndarray, from its entries at tri._hessian_index[2]."""
    n = tri.num_vertices
    return np.bincount(tri._hessian_index[2], weights=entries, minlength=n * n).reshape(n, n)


def potential_value(tri: Triangulation, K, K_ref, l_hat, *, waypoints=()) -> float:
    """Potential difference Phi(K) - Phi(K_ref), as a diagnostic.

    Phi(K) = sum_f w_f(exp K) - Lhat . K, w_f the face potentials of
    tangency.face_potential, so grad Phi = L - Lhat.  The changes of the
    w_f are summed over the segments of the polyline K_ref, *waypoints, K,
    from one face_potential call per point.
    """
    target = _per_vertex(tri, l_hat, "target")
    pts = [_per_vertex(tri, p, "state") for p in (K_ref, *waypoints, K)]
    w = np.array([face_potential(_face_curvatures(tri, p)) for p in pts])
    return float(np.diff(w, axis=0).sum() - target @ (pts[-1] - pts[0]))
