"""The face kernel and the rendered disk picture against a
high-precision half-plane embedding, and the face potential against
high-precision quadrature.

The oracle places the three curves in the upper half-plane with mpmath at
50 or more significant digits, so that none of the cancellations the
kernel's closed form avoids can matter, and reads each corner's arc off
the chord between its two tangency points.  It takes log-curvatures and
forms k^2 - 1 as expm1(2 ln k), so that it stays accurate, and
differentiable by mp.diff, across k = 1.  mpmath is a test-only
dependency.
"""

import mpmath as mp
import numpy as np
import pytest

from hypack.tangency import KIND_TOL, face_jacobian, face_kernel, face_potential

from test_tangency import FACE_CASES

REL_TOL = 1e-10


def oracle_embedding(K):
    """Circles (x, y, r) and tangency points {(i, j): (x, y)} in the upper
    half-plane of the face with mpf log-curvatures K, at the working
    precision."""
    k = [mp.exp(x) for x in K]
    # curves 0 and 1 touch at i with a vertical tangent; curve 2 has
    # center (u, k2 rho) and Euclidean radius rho, tangent to both:
    # A rho^2 + B rho + 1 = 0, smaller positive root in its stable form
    a, b = 1 / k[0], 1 / k[1]
    c = (a - b) / (a + b)
    A = c * c + mp.expm1(2 * K[2])  # c^2 + k2^2 - 1
    B = 2 * (a * (c - 1) - k[2])
    rho = 2 / (-B + mp.sqrt(B * B - 4 * A))
    circles = [(-a, mp.mpf(1), a), (b, mp.mpf(1), b), (rho * c, k[2] * rho, rho)]
    pts = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        (xi, yi, ri), (xj, yj, rj) = circles[i], circles[j]
        t = ri / (ri + rj)
        pts[i, j] = (xi + (xj - xi) * t, yi + (yj - yi) * t)
    return circles, pts


def oracle_corners(K):
    """(gen, L) per corner of the face with mpf log-curvatures K, at the
    working precision: gen is the angle at a circle, the axis segment at a
    hypercycle and None at a horocycle (K exactly 0)."""
    k = [mp.exp(x) for x in K]
    km = [mp.expm1(2 * x) for x in K]  # k^2 - 1
    _, pts = oracle_embedding(K)
    out = []
    for i, (p, q) in enumerate((((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2)))):
        P, Q = pts[p], pts[q]
        # u = sinh(d/2) for the chord d; u = sinh r sin(theta/2) at a
        # circle (sinh r = 1/sqrt(k^2 - 1)), u = cosh r sinh(s/2) at a
        # hypercycle (cosh r = 1/sqrt(1 - k^2)), and l = 2u at a horocycle
        u = mp.sqrt(((P[0] - Q[0]) ** 2 + (P[1] - Q[1]) ** 2) / (4 * P[1] * Q[1]))
        if km[i] > 0:
            gen = 2 * mp.asin(u * mp.sqrt(km[i]))
            length = gen / mp.sqrt(km[i])
        elif km[i] < 0:
            gen = 2 * mp.asinh(u * mp.sqrt(-km[i]))
            length = gen / mp.sqrt(-km[i])
        else:
            gen, length = None, 2 * u
        out.append((gen, length * k[i]))
    return out


def oracle_face(ks, dps=50):
    """oracle_corners of the face with float curvatures ks, at dps digits."""
    with mp.workdps(dps):
        return oracle_corners([mp.log(mp.mpf(float(x))) for x in ks])


def sample_faces(seed, per_case, lo=1e-4, hi=5.0):
    """Faces of all five cases with |ln k| log-uniform in [lo, hi] at
    circle and hypercycle corners and k = 1 exactly at a horocycle."""
    rng = np.random.default_rng(seed)
    faces = []
    for signs in FACE_CASES:
        mags = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(per_case, 3)))
        K = mags * np.array(signs)
        faces.extend(rng.permutation(row) for row in np.exp(K))
    return np.array(faces)


def assert_matches_oracle(k, rel_tol, dps=50):
    fa = face_kernel(k)
    for f in range(len(k)):
        for i, (gen, L) in enumerate(oracle_face(k[f], dps)):
            assert abs(fa.L[f, i] - float(L)) <= rel_tol * abs(float(L))
            if abs(k[f, i] - 1.0) <= KIND_TOL:  # a horocycle corner
                assert np.isnan(fa.gen[f, i])
            else:
                assert abs(fa.gen[f, i] - float(gen)) <= rel_tol * abs(float(gen))


def test_matches_oracle_on_all_cases():
    assert_matches_oracle(sample_faces(11, 60), REL_TOL)


def test_matches_oracle_over_the_solver_range():
    # |ln k| up to 30, past where the solver's iterates can drift, and
    # |k - 1| down to 1e-15; 50 digits do not cover the embedding's
    # cancellations past |ln k| ~ 15
    assert_matches_oracle(sample_faces(12, 40, lo=1e-15, hi=30.0), 1e-12, dps=120)


@pytest.mark.parametrize("seed, lo, hi", [(21, 1e-15, 30.0), (22, 1e-4, 5.0)])
def test_total_curvature_to_a_few_ulps(seed, lo, hi):
    # one closed form per corner kind: G = atan(w)/w at a circle and
    # log1p(2w (1 + w)/(1 + x))/(2w) at a hypercycle leave L within a few
    # ulps of the oracle, with k = 1 and |k - 1| down to 1e-15 included
    k = sample_faces(seed, 40, lo=lo, hi=hi)
    L = face_kernel(k).L
    want = np.array([[float(L_i) for _, L_i in oracle_face(ks, dps=120)] for ks in k])
    assert np.max(np.abs(L - want) / want) <= 2e-15


@pytest.mark.parametrize("ks", [
    (2.0, 2.0, 2.0), (1.0, 1.0, 1.0), (np.e ** 5, np.e ** 5, np.e ** -5),
    (np.e ** -5, np.e ** -5, np.e ** -5), (1.0, np.e ** 5, np.e ** -5),
    (1.0001, 0.9999, 1.0), (np.e ** 5, 1.0001, 0.9999),
    (np.e ** -30, np.e ** -30, np.e ** -30), (np.e ** -20, np.e ** -25, np.e ** -30),
])
def test_matches_oracle_at_the_range_edges(ks):
    fa = face_kernel([ks])
    for i, (gen, L) in enumerate(oracle_face(ks, dps=120)):
        assert abs(fa.L[0, i] - float(L)) <= REL_TOL * abs(float(L))
        if gen is not None:
            assert abs(fa.gen[0, i] - float(gen)) <= REL_TOL * abs(float(gen))


def test_jacobian_matches_oracle_derivative():
    # J[i, j] = dL_i/dK_j against mp.diff of the oracle's L_i in K_j, on
    # faces near k = 1 and on tiny hypercycles, where 1 + x ~ 1e-26
    edges = [(1 + 1e-9, 2.0, 0.5), (1 - 1e-9, 1 + 1e-9, 1.0),
             (1 + 1e-13, 1 - 1e-13, 0.3), (1 - 1e-6, 1 - 1e-6, 1 - 1e-6),
             (np.e ** -30, np.e ** -30, np.e ** -30)]
    k = np.vstack([sample_faces(13, 10, lo=1e-3, hi=10.0), edges])
    with mp.workdps(60):
        for f in range(len(k)):
            J = face_jacobian(*k[f].tolist())
            K = [mp.log(mp.mpf(float(x))) for x in k[f]]
            for i in range(3):
                for j in range(3):
                    def L_i(t):
                        return oracle_corners([t if m == j else K[m] for m in range(3)])[i][1]
                    want = float(mp.diff(L_i, K[j]))
                    assert abs(J[i][j] - want) <= 1e-10 * abs(want)


def _circle_through(a, b, c):
    """Center and radius of the circle through three complex points."""
    d = 2 * ((a.real - c.real) * (b.imag - c.imag) - (b.real - c.real) * (a.imag - c.imag))
    ha, hb = abs(a) ** 2 - abs(c) ** 2, abs(b) ** 2 - abs(c) ** 2
    center = mp.mpc((ha * (b.imag - c.imag) - hb * (a.imag - c.imag)) / d,
                    (hb * (a.real - c.real) - ha * (b.real - c.real)) / d)
    return center, abs(a - center)


def test_disk_picture_matches_oracle():
    # the closed-form disk picture that render_face_svg draws against the
    # oracle's embedding mapped by w = i (z - i)/(z + i), each image circle
    # fitted through three mapped points, over |ln k| <= 15
    from hypack.realize import _disk_picture

    rng = np.random.default_rng(14)
    for ks in np.exp(rng.uniform(-15.0, 15.0, size=(300, 3))):
        centers, radii, powers, points = _disk_picture(*ks.tolist())
        with mp.workdps(50):
            circles, pts = oracle_embedding([mp.log(mp.mpf(float(x))) for x in ks])

            def to_disk(z):
                return 1j * (z - 1j) / (z + 1j)

            for (x, y, r), c, rad, power in zip(circles, centers, radii, powers):
                oc, orad = _circle_through(*(to_disk(mp.mpc(x + r * mp.cos(t), y + r * mp.sin(t)))
                                             for t in (0, 2 * mp.pi / 3, 4 * mp.pi / 3)))
                scale = max(1.0, float(orad))
                assert abs(c - oc) <= 1e-12 * scale and abs(rad - orad) <= 1e-12 * scale
                assert abs(power - (abs(oc) ** 2 - orad ** 2)) <= 1e-12 * scale
            for w, (x, y) in zip(points, pts.values()):
                assert abs(w - to_disk(mp.mpc(x, y))) <= 1e-12


def _inradius_integral(k, e2, integrand):
    """int_0^rho integrand(t) dt, sinh rho = 1/sqrt(e2), split where
    k sinh t = 1, at the working precision."""
    rho, knee = mp.asinh(1 / mp.sqrt(e2)), mp.asinh(1 / k)
    return mp.quad(integrand, [0, knee, rho] if knee < rho else [0, rho])


@pytest.mark.parametrize("seed, lo, hi", [(31, 1e-4, 4.0), (32, 1e-15, 30.0)])
def test_face_potential_matches_quadrature(seed, lo, hi):
    # w = 2 sum_i int_0^rho atan(k_i sinh t)/sinh t dt + pi asinh(sqrt(e2)),
    # and its gradient L_i = 2 k_i int_0^rho dt/(1 + k_i^2 sinh^2 t), on all
    # five corner mixes with k = 1 exactly at the horocycle corners
    k = sample_faces(seed, 5, lo=lo, hi=hi)
    w, L = face_potential(k), face_kernel(k).L
    with mp.workdps(50):
        for f, ks in enumerate(k):
            km = [mp.mpf(float(x)) for x in ks]
            e2 = km[0] * km[1] + km[0] * km[2] + km[1] * km[2]
            want = mp.pi * mp.asinh(mp.sqrt(e2))
            for i, ki in enumerate(km):
                want += 2 * _inradius_integral(ki, e2, lambda t: mp.atan(ki * mp.sinh(t)) / mp.sinh(t))
                L_i = 2 * ki * _inradius_integral(ki, e2, lambda t: 1 / (1 + (ki * mp.sinh(t)) ** 2))
                assert abs(L[f, i] - float(L_i)) <= 1e-12 * float(L_i)
            assert abs(w[f] - float(want)) <= 1e-12 * max(1.0, abs(float(want)))
