"""Whole-surface assembly: per-vertex total geodesic curvatures L(K),
the global Jacobian/Hessian M = [dL_i/dK_j], and the convex potential.

The state is the log-curvature vector K (K_i = ln k_i), which makes the
domain all of R^|V|.  Every face goes through one call of the array face
kernel (tangency.face_kernel) per evaluation, with no loop over faces: it
computes L and the face Jacobians, and derives face kinds, angles and
areas only when read.  The Hessian takes those Jacobians, the potential
sums the closed-form tangency.face_potential over the faces.  Scatters
to the vertices add in face order, so results are deterministic.  The
Hessian assembled here is the dense n x n ndarray (global_jacobian, and
the Newton step on small surfaces).  From
flow._CG_MIN_VERTICES vertices up, where allocating its 8 n^2 bytes
costs more than a whole conjugate-gradient solve, the Newton step instead
builds flow._edge_form, the diagonal plus one weight per edge, from the
same face Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .surface import Triangulation
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
    faces (whose areas are derived on first read) and their (F, 3)
    curvatures k; the FaceGeometry records `faces` are built on first read."""

    L: np.ndarray
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


def vertex_curvatures(tri: Triangulation, K, *, jac: bool = False) -> CurvatureReport:
    """Full report from one face_kernel call: curvature sums and the
    solved faces, with the face Jacobians under jac=True.  Raises
    InfeasibleGeometryError, from the kernel, for a face that cannot be
    evaluated in double precision."""
    k = _face_curvatures(tri, K)
    fa = face_kernel(k, jac=jac)
    return CurvatureReport(L=_sum_at_vertices(tri, fa.L), arrays=fa, k=k)


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
    bytes: 0.5 MB at 256 vertices, 8 MB at 1024.
    """
    return _assemble_jacobian(tri, face_kernel(_face_curvatures(tri, K), jac=True).J)


def _assemble_jacobian(tri: Triangulation, J: np.ndarray) -> np.ndarray:
    """The dense n x n Hessian from the (F, 3, 3) face Jacobians J of
    face_kernel: np.bincount adds the face blocks into each entry in face
    order, block entry (i, j) of face f at the flat index f_i * n + f_j."""
    n = tri.num_vertices
    f = tri.face_array
    return np.bincount((f[:, :, None] * n + f[:, None, :]).ravel(), weights=J.ravel(),
                       minlength=n * n).reshape(n, n)


def potential_value(tri: Triangulation, K, K_ref, l_hat, *, waypoints=()) -> float:
    """Potential difference Phi(K) - Phi(K_ref), as a diagnostic.

    Phi(K) = sum_f w_f(exp K) - Lhat . K, w_f the face potentials of
    tangency.face_potential, so grad Phi = L - Lhat.  The changes of the
    w_f are summed over the segments of the polyline K_ref, *waypoints, K.
    """
    pts = np.array([K_ref, *waypoints, K], dtype=float)
    w = face_potential(_face_curvatures(tri, pts)).reshape(len(pts), -1)
    return float(np.diff(w, axis=0).sum() - np.asarray(l_hat, dtype=float) @ (pts[-1] - pts[0]))
