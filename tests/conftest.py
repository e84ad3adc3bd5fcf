import numpy as np
import pytest

from hypack.surface import Triangulation
from hypack.tangency import solve_face

TETRA_FACES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
OCTA_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
              (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)]


@pytest.fixture
def tetrahedron():
    return Triangulation(4, TETRA_FACES)


@pytest.fixture
def octahedron():
    return Triangulation(6, OCTA_FACES)


def radius(k: float) -> float:
    """Generalized radius of the curve with curvature k (inf for a
    horocycle): half the edge r + r between two equal corners, exactly r."""
    return solve_face(k, k, k).edge_lengths[0] / 2


def torus_grid(n: int, m: int) -> Triangulation:
    """n x m vertex grid on the torus, each square split into two triangles."""
    def vid(i, j):
        return (i % n) * m + (j % m)

    faces = []
    for i in range(n):
        for j in range(m):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            faces.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return Triangulation(n * m, faces)


def genus2() -> Triangulation:
    """Connected sum of two 3x3 torus grids glued along a removed face."""
    t = torus_grid(3, 3)
    f_glue = t.faces[0]
    faces1 = [f for f in t.faces if f != f_glue]
    # second copy: shift indices by 9, then identify its glue triangle
    # vertices with the first copy's
    f2 = tuple(v + 9 for v in f_glue)
    ident = dict(zip(f2, f_glue))
    faces2 = []
    for f in t.faces[1:]:
        faces2.append(tuple(ident.get(v + 9, v + 9) for v in f))
    # compact the vertex ids
    used = sorted({v for f in faces1 + faces2 for v in f})
    remap = {v: i for i, v in enumerate(used)}
    all_faces = [tuple(remap[v] for v in f) for f in faces1 + faces2]
    return Triangulation(len(used), all_faces)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
