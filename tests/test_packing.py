import math
import tracemalloc

import numpy as np
import pytest

from hypack.packing import (
    global_jacobian,
    potential_value,
    vertex_curvature_sums,
    vertex_curvatures,
)
from hypack.tangency import corner_curvatures, face_jacobian

from conftest import torus_grid

VERTEX_L_ALL2 = 3.1026738590250541  # 3 * face(2,2,2) corner value


def potential_by_node(tri, K, K_ref, L_hat, panels):
    """The quadrature oracle of potential_value: sum_i L_i dK_i along the
    segment K_ref -> K by `panels` panels of 4 Gauss-Legendre nodes, one
    vertex_curvature_sums call per node, minus Lhat . (K - K_ref)."""
    nodes, weights = np.polynomial.legendre.leggauss(4)
    delta = K - K_ref
    loop = 0.0
    for p in range(panels):
        lo, hi = p / panels, (p + 1) / panels
        for x, w in zip(nodes, weights):
            t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            L = vertex_curvature_sums(tri, K_ref + t * delta)
            loop += w * 0.5 * (hi - lo) * float(L @ delta)
    return loop - float(L_hat @ delta)


class TestVertexCurvatures:
    def test_tetra_all_two(self, tetrahedron):
        K = np.log(np.full(4, 2.0))
        rep = vertex_curvatures(tetrahedron, K)
        assert np.allclose(rep.L, VERTEX_L_ALL2, rtol=1e-12)
        assert len(rep.faces) == 4
        assert sum(fg.area for fg in rep.faces) == pytest.approx(
            4 * (math.pi - 3 * 1.0342246196750180), rel=1e-10)

    def test_fast_path_matches_report(self, octahedron, rng):
        for _ in range(10):
            K = rng.uniform(-1.5, 1.5, size=6)
            rep = vertex_curvatures(octahedron, K)
            assert np.array_equal(rep.L, vertex_curvature_sums(octahedron, K))

    def test_bound_by_degree(self, octahedron, rng):
        for _ in range(20):
            K = rng.uniform(-3.0, 3.0, size=6)
            L = vertex_curvature_sums(octahedron, K)
            for v in range(6):
                assert 0.0 < L[v] < math.pi * octahedron.degree(v)

    def test_sum_rule(self, octahedron, rng):
        # sum_v L_v equals the sum of per-face corner values exactly
        K = rng.uniform(-1.0, 1.0, size=6)
        rep = vertex_curvatures(octahedron, K)
        per_face = sum(sum(fg.total_curvature) for fg in rep.faces)
        assert abs(rep.L.sum() - per_face) < 1e-12

    def test_dimension_mismatch(self, tetrahedron):
        with pytest.raises(ValueError):
            vertex_curvature_sums(tetrahedron, np.zeros(5))

    def test_unevaluable_state_raises(self, tetrahedron):
        # exp(K) far below 1e-160: the hexagon's sinh products underflow
        for K in (np.full(4, -400.0), np.full(4, -800.0)):
            with pytest.raises(ValueError, match="curvature"):
                vertex_curvature_sums(tetrahedron, K)
            with pytest.raises(ValueError, match="curvature"):
                global_jacobian(tetrahedron, K)

    def test_scatter_matches_loop_over_faces(self, octahedron, rng):
        # np.bincount adds per-face values in face order, exactly as this loop
        K = rng.uniform(-1.5, 1.5, size=6)
        k = np.exp(K).tolist()
        L = np.zeros(6)
        M = np.zeros((6, 6))
        for f in octahedron.faces:
            Lf = corner_curvatures(*(k[v] for v in f))
            J = face_jacobian(*(k[v] for v in f))
            for a in range(3):
                L[f[a]] += Lf[a]
                for b in range(3):
                    M[f[a], f[b]] += J[a][b]
        assert np.array_equal(vertex_curvature_sums(octahedron, K), L)
        assert np.array_equal(vertex_curvatures(octahedron, K).L, L)
        assert np.array_equal(global_jacobian(octahedron, K), M)


class TestGlobalJacobian:
    def test_symmetric_state_structure(self, tetrahedron):
        M = global_jacobian(tetrahedron, np.zeros(4) + 0.3)
        d = np.diag(M)
        assert np.allclose(d, d[0], rtol=1e-9)
        off = M[~np.eye(4, dtype=bool)]
        assert np.allclose(off, off[0], rtol=1e-6)

    def test_symmetry_and_dominance(self, tetrahedron, octahedron, rng):
        # exact face Jacobians: symmetric to rounding, with no symmetrization
        for tri in (tetrahedron, octahedron):
            for _ in range(10):
                K = rng.uniform(-1.5, 1.5, size=tri.num_vertices)
                M = global_jacobian(tri, K)
                scale = 1.0 + np.abs(M).max()
                assert np.abs(M - M.T).max() <= 1e-12 * scale
                for i in range(tri.num_vertices):
                    row_off = np.abs(M[i]).sum() - abs(M[i, i])
                    assert M[i, i] > row_off > 0.0

    def test_row_sums_positive(self, octahedron, rng):
        for _ in range(10):
            K = rng.uniform(-2.0, 2.0, size=6)
            M = global_jacobian(octahedron, K)
            assert np.all(M @ np.ones(6) > 0.0)

    def test_positive_definite(self, tetrahedron, octahedron, rng):
        for tri in (tetrahedron, octahedron):
            for _ in range(20):
                K = rng.uniform(-1.5, 1.5, size=tri.num_vertices)
                M = global_jacobian(tri, K)
                w = np.linalg.eigvalsh(0.5 * (M + M.T))
                assert w.min() > 0.0

    def test_matches_finite_differences(self, tetrahedron, rng):
        from conftest import torus_grid
        for tri in (tetrahedron, torus_grid(8, 8)):
            n = tri.num_vertices
            K = rng.uniform(-1.0, 1.0, size=n)
            M = global_jacobian(tri, K)
            assert isinstance(M, np.ndarray) and M.shape == (n, n)
            h = 1e-6
            for j in range(n):
                up, dn = K.copy(), K.copy()
                up[j] += h
                dn[j] -= h
                col = (vertex_curvature_sums(tri, up)
                       - vertex_curvature_sums(tri, dn)) / (2 * h)
                assert np.allclose(M[:, j], col, rtol=1e-5, atol=1e-8)

    def test_monotone_sign_pattern(self, tetrahedron):
        # raising K_i raises L_i and lowers every neighbor's L_j
        K = np.array([0.1, -0.2, 0.3, 0.0])
        L0 = vertex_curvature_sums(tetrahedron, K)
        K2 = K.copy()
        K2[0] += 0.05
        L1 = vertex_curvature_sums(tetrahedron, K2)
        assert L1[0] > L0[0]
        assert np.all(L1[1:] < L0[1:])


class TestPotential:
    def test_gradient_is_curvature_residual(self, tetrahedron):
        # at k = 2 everywhere, d Phi / d K_i = L_i - Lhat_i = VERTEX_L_ALL2 - 1
        K = np.log(np.full(4, 2.0))
        h = 1e-5
        for i in range(4):
            up, dn = K.copy(), K.copy()
            up[i] += h
            dn[i] -= h
            fd = (potential_value(tetrahedron, up, K, np.ones(4))
                  - potential_value(tetrahedron, dn, K, np.ones(4))) / (2 * h)
            assert fd == pytest.approx(VERTEX_L_ALL2 - 1.0, rel=1e-6)

    def test_zero_at_reference(self, tetrahedron, rng):
        K = rng.uniform(-1.0, 1.0, size=4)
        assert potential_value(tetrahedron, K, K, np.ones(4)) == 0.0

    def test_path_independence(self, tetrahedron, rng):
        for _ in range(3):
            K_ref = rng.uniform(-1.0, 1.0, size=4)
            K = rng.uniform(-1.0, 1.0, size=4)
            w1 = rng.uniform(-1.0, 1.0, size=4)
            w2 = rng.uniform(-1.0, 1.0, size=4)
            L_hat = rng.uniform(0.5, 2.0, size=4)
            direct = potential_value(tetrahedron, K, K_ref, L_hat)
            via1 = potential_value(tetrahedron, K, K_ref, L_hat, waypoints=(w1,))
            via2 = potential_value(tetrahedron, K, K_ref, L_hat, waypoints=(w1, w2))
            assert via1 == pytest.approx(direct, abs=1e-8)
            assert via2 == pytest.approx(direct, abs=1e-8)

    def test_matches_loop_over_nodes(self, octahedron, rng):
        K_ref = rng.uniform(-1.0, 1.0, size=6)
        K = rng.uniform(-1.0, 1.0, size=6)
        L_hat = rng.uniform(0.5, 2.0, size=6)
        value = potential_value(octahedron, K, K_ref, L_hat)
        assert value == pytest.approx(potential_by_node(octahedron, K, K_ref, L_hat, 64),
                                      rel=1e-12)

    def test_chunked_nodes_match_loop_over_nodes(self, rng):
        # the closed form on 512 faces against 256 quadrature nodes
        tri = torus_grid(16, 16)
        K_ref, K = rng.normal(0.0, 0.7, size=(2, 256))
        L_hat = rng.uniform(0.5, 3.0, size=256)
        value = potential_value(tri, K, K_ref, L_hat)
        assert value == pytest.approx(potential_by_node(tri, K, K_ref, L_hat, 64), rel=1e-12)

    def test_memory_does_not_grow_with_nodes(self, rng):
        # all 256 nodes' faces at once took 44 MB here
        tri = torus_grid(16, 16)
        K_ref, K = rng.normal(0.0, 0.7, size=(2, 256))
        tracemalloc.start()
        try:
            potential_value(tri, K, K_ref, np.ones(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_gradient_matches_finite_differences(self, tetrahedron, rng):
        K_ref = np.zeros(4)
        K = rng.uniform(-0.5, 0.5, size=4)
        L_hat = np.ones(4)
        g = vertex_curvature_sums(tetrahedron, K) - L_hat
        h = 1e-5
        for i in range(4):
            up, dn = K.copy(), K.copy()
            up[i] += h
            dn[i] -= h
            fd = (potential_value(tetrahedron, up, K_ref, L_hat)
                  - potential_value(tetrahedron, dn, K_ref, L_hat)) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-8)

    def test_strict_convexity_spot_check(self, tetrahedron, rng):
        K_ref = np.zeros(4)
        L_hat = np.ones(4)
        a = rng.uniform(-1.0, 1.0, size=4)
        b = rng.uniform(-1.0, 1.0, size=4)
        mid = 0.5 * (a + b)
        phi = lambda K: potential_value(tetrahedron, K, K_ref, L_hat)
        assert phi(mid) < 0.5 * (phi(a) + phi(b)) - 1e-6
