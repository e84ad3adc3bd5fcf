"""The face kernel against a 50-digit half-plane embedding.

The oracle places the three curves in the upper half-plane with mpmath at
50 significant digits, so that none of the cancellations the kernel's
closed forms avoid can matter, and reads each corner's arc off the chord
between its two tangency points.  mpmath is a test-only dependency.
"""

import mpmath as mp
import numpy as np
import pytest

from hypack.tangency import face_kernel

from test_tangency import FACE_CASES

REL_TOL = 1e-10


def oracle_face(ks):
    """(gen, L) per corner at 50 digits: gen is the angle at a circle, the
    axis segment at a hypercycle and None at a horocycle (k exactly 1)."""
    with mp.workdps(50):
        k = [mp.mpf(float(x)) for x in ks]
        # curves 0 and 1 touch at i with a vertical tangent; curve 2 has
        # center (u, k2 rho) and Euclidean radius rho, tangent to both
        a, b = 1 / k[0], 1 / k[1]
        c = (a - b) / (a + b)
        A = c * c + k[2] ** 2 - 1
        B = 2 * (a * (c - 1) - k[2])
        rho = (-B - mp.sqrt(B * B - 4 * A)) / (2 * A) if A != 0 else -1 / B
        circles = [(-a, mp.mpf(1), a), (b, mp.mpf(1), b), (rho * c, k[2] * rho, rho)]
        pts = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            (xi, yi, ri), (xj, yj, rj) = circles[i], circles[j]
            t = ri / (ri + rj)
            pts[i, j] = (xi + (xj - xi) * t, yi + (yj - yi) * t)
        out = []
        for i, (p, q) in enumerate((((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2)))):
            P, Q = pts[p], pts[q]
            d = mp.acosh(1 + ((P[0] - Q[0]) ** 2 + (P[1] - Q[1]) ** 2) / (2 * P[1] * Q[1]))
            if k[i] == 1:
                gen, length = None, 2 * mp.sinh(d / 2)
            elif k[i] > 1:  # cosh d = cosh^2 r - sinh^2 r cos(theta), sinh r = 1/sqrt(k^2-1)
                sh2 = 1 / (k[i] ** 2 - 1)
                gen = mp.acos(1 - (mp.cosh(d) - 1) / sh2)
                length = gen * mp.sqrt(sh2)
            else:  # cosh d = cosh^2 r cosh s - sinh^2 r, cosh r = 1/sqrt(1-k^2)
                ch2 = 1 / (1 - k[i] ** 2)
                gen = mp.acosh(1 + (mp.cosh(d) - 1) / ch2)
                length = gen * mp.sqrt(ch2)
            out.append((gen, length * k[i]))
        return out


def sample_faces(seed, per_case):
    """Faces of all five cases with |ln k| in [1e-4, 5] (so |k - 1| >= 1e-4)
    at circle and hypercycle corners and k = 1 exactly at a horocycle."""
    rng = np.random.default_rng(seed)
    faces = []
    for signs in FACE_CASES:
        mags = np.exp(rng.uniform(np.log(1e-4), np.log(5.0), size=(per_case, 3)))
        K = mags * np.array(signs)
        faces.extend(rng.permutation(row) for row in np.exp(K))
    return np.array(faces)


def test_matches_oracle_on_all_cases():
    k = sample_faces(11, 60)
    fa = face_kernel(k)
    for f in range(len(k)):
        for i, (gen, L) in enumerate(oracle_face(k[f])):
            assert abs(fa.L[f, i] - float(L)) <= REL_TOL * abs(float(L))
            if gen is None:
                assert k[f, i] == 1.0 and np.isnan(fa.gen[f, i])
            else:
                assert abs(fa.gen[f, i] - float(gen)) <= REL_TOL * abs(float(gen))


@pytest.mark.parametrize("ks", [
    (2.0, 2.0, 2.0), (1.0, 1.0, 1.0), (np.e ** 5, np.e ** 5, np.e ** -5),
    (np.e ** -5, np.e ** -5, np.e ** -5), (1.0, np.e ** 5, np.e ** -5),
    (1.0001, 0.9999, 1.0), (np.e ** 5, 1.0001, 0.9999),
])
def test_matches_oracle_at_the_range_edges(ks):
    fa = face_kernel([ks])
    for i, (gen, L) in enumerate(oracle_face(ks)):
        assert abs(fa.L[0, i] - float(L)) <= REL_TOL * abs(float(L))
        if gen is not None:
            assert abs(fa.gen[0, i] - float(gen)) <= REL_TOL * abs(float(gen))
