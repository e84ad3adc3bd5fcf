"""Hyperbolic-trigonometry kernel.

Curvature/radius conversions and the closed forms that every
three-circle face computation reduces to: the angles of a triangle given
by radii, and the right-angled quadrilateral, pentagon and hexagon.  The
split points are atanh expressions written as log1p of a ratio of
positive terms, so nothing cancels and no root finder is involved.  The
closed forms use np.* only and no branches, so they serve floats, arrays
and the face kernel's forward-mode duals alike; solve_quadrilateral and
solve_pentagon are validating scalar front ends.  Lengths and angles are
in hyperbolic units; everything is a pure function, safe to call
concurrently.

Curvature convention: a curve of constant geodesic curvature k > 0 is a
circle (k = coth r > 1), a horocycle (k = 1) or a hypercycle at distance
r from its axis (k = tanh r < 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "CurveKind",
    "KIND_TOL",
    "InfeasibleGeometryError",
    "PolygonSolution",
    "BigonResult",
    "classify_curvature",
    "curvature_to_radius",
    "solve_quadrilateral",
    "solve_pentagon",
    "triangle_angles",
    "quad_split",
    "pentagon_split",
    "hexagon_sides",
    "bigon_kernel",
]

# Inputs with |k - 1| below this are dispatched as horocycles.
KIND_TOL = 1e-12


class CurveKind(Enum):
    CIRCLE = "circle"
    HOROCYCLE = "horocycle"
    HYPERCYCLE = "hypercycle"


class InfeasibleGeometryError(ValueError):
    """No hyperbolic configuration satisfies the requested constraints."""


@dataclass(frozen=True)
class PolygonSolution:
    """Split of a right-angled polygon construction.

    x is the split point along the side named by the solver (the longer
    of the two candidate sides for the quadrilateral, the middle side
    for the pentagon) and y the perpendicular height at the split.
    """

    x: float
    y: float


class BigonResult(NamedTuple):
    theta1: float | None  # generalized angle of arc 1; None when k1 = 1
    l1: float
    theta2: float
    l2: float
    dl1_dk2: float
    dl2_dk1: float


def classify_curvature(k: float) -> CurveKind:
    """Kind of the constant-curvature curve with geodesic curvature k."""
    if not k > 0.0:
        raise ValueError(f"geodesic curvature must be positive, got {k}")
    if abs(k - 1.0) <= KIND_TOL:
        return CurveKind.HOROCYCLE
    return CurveKind.CIRCLE if k > 1.0 else CurveKind.HYPERCYCLE


def curvature_to_radius(k: float) -> float:
    """Generalized radius of the curve with curvature k (inf for horocycles).

    arccoth/arctanh are evaluated through log identities, stable down to
    |k - 1| ~ 1e-12 where the horocycle dispatch takes over.
    """
    kind = classify_curvature(k)
    if kind is CurveKind.HOROCYCLE:
        return math.inf
    if kind is CurveKind.CIRCLE:
        # arccoth k = 0.5 ln((k+1)/(k-1))
        return 0.5 * math.log1p(2.0 / (k - 1.0))
    return math.atanh(k)


def triangle_angles(r1, r2, r3):
    """Angles of the triangle with sides r_j + r_k, the angle at center i
    opposite side r_j + r_k; cancellation-free:
    tan(theta_i / 2) = sqrt(sinh r_j sinh r_k / (sinh r_i sinh(r1+r2+r3))).
    """
    sh = (np.sinh(r1), np.sinh(r2), np.sinh(r3))
    sp = np.sinh(r1 + r2 + r3)
    return tuple(2.0 * np.arctan2(np.sqrt(sh[(i + 1) % 3] * sh[(i + 2) % 3]),
                                  np.sqrt(sp * sh[i])) for i in range(3))


def quad_split(la, l2, lc):
    """(x, cosh y) of the quadrilateral split along the side la >= lc:
    sinh lc = sinh x cosh y and cosh l2 = cosh(la - x) cosh y.

    sinh x / cosh(la - x) = c gives tanh x = c cosh la / (1 + c sinh la);
    in the atanh below 1 - c e^-la > 1/2, as c e^-la <= sinh(lc) e^-lc < 1/2.
    """
    sc = np.sinh(lc)
    c = sc / np.cosh(l2)
    x = 0.5 * np.log1p(2.0 * c * np.cosh(la) / (1.0 - c * np.exp(-la)))
    return x, sc / np.sinh(x)


def pentagon_split(l1, l2, l3):
    """(x, cosh y) of the pentagon split of the middle side l3:
    sinh l1 / sinh x = sinh l2 / sinh(l3 - x) = cosh y.

    tanh x = sinh l1 sinh l3 / (sinh l2 + sinh l1 cosh l3), as atanh.
    """
    s1 = np.sinh(l1)
    x = 0.5 * np.log1p(2.0 * s1 * np.sinh(l3) / (np.sinh(l2) + s1 * np.exp(-l3)))
    return x, s1 / np.sinh(x)


def hexagon_sides(d1, d2, d3):
    """Sides (s1, s2, s3) of the right-angled hexagon with alternating
    sides s1, d3, s2, d1, s3, d2, which exists for every positive d:
    cosh s_i = (cosh d_i + cosh d_j cosh d_k) / (sinh d_j sinh d_k)."""
    cd = (np.cosh(d1), np.cosh(d2), np.cosh(d3))
    sd = (np.sinh(d1), np.sinh(d2), np.sinh(d3))
    return tuple(np.arccosh((cd[i] + cd[(i + 1) % 3] * cd[(i + 2) % 3])
                            / (sd[(i + 1) % 3] * sd[(i + 2) % 3])) for i in range(3))


def solve_quadrilateral(l1: float, l2: float, l3: float) -> PolygonSolution:
    """Split point of the quadrilateral with two adjacent right angles.

    Sides l1, l2, l3 are the three sides other than the doubly
    right-angled one, with l2 facing it.  For l1 >= l3 the returned x in
    (0, l1) satisfies sinh l3 = sinh x cosh y and
    cosh l2 = cosh(l1 - x) cosh y; for l1 < l3 the construction is
    mirrored and x in (0, l3) splits l3 instead (the defining equations
    swap the roles of l1 and l3).
    """
    if min(l1, l2, l3) <= 0.0:
        raise ValueError(f"side lengths must be positive, got {(l1, l2, l3)}")
    la, lc = (l3, l1) if l1 < l3 else (l1, l3)  # split side la >= lc
    x, cosh_y = quad_split(la, l2, lc)
    if cosh_y <= 1.0:
        raise InfeasibleGeometryError(
            f"quadrilateral sides {(l1, l2, l3)} admit no perpendicular split")
    return PolygonSolution(x=float(x), y=math.acosh(cosh_y))


def solve_pentagon(l1: float, l2: float, l3: float) -> PolygonSolution:
    """Split point of the pentagon with four right angles.

    l1, l2 are the sides adjacent to the non-right angle and l3 is the
    middle of the three doubly right-angled sides.  Returns x in (0, l3)
    with sinh l1 / sinh x = sinh l2 / sinh(l3 - x) = cosh y > 1.
    """
    if min(l1, l2, l3) <= 0.0:
        raise ValueError(f"side lengths must be positive, got {(l1, l2, l3)}")
    if l1 == l2:  # the symmetric split, exactly
        x = 0.5 * l3
        cosh_y = math.sinh(l1) / math.sinh(x)
    else:
        x, cosh_y = pentagon_split(l1, l2, l3)
    if cosh_y <= 1.0:
        raise InfeasibleGeometryError(
            f"pentagon sides {(l1, l2, l3)} admit no perpendicular split")
    return PolygonSolution(x=float(x), y=math.acosh(cosh_y))


def bigon_kernel(k1: float, k2: float) -> BigonResult:
    """Two constant-curvature arcs crossing at right angles.

    Arc 2 is a circle (k2 > 1); arc 1 may be any kind.  Returns the
    generalized angles, the arc lengths between the intersection points,
    and the analytic partials d l1/d k2 and d l2/d k1, each from its own
    branch formula (both equal 2 / (1 - k1^2 - k2^2)).
    """
    if not k2 > 1.0:
        raise ValueError(f"k2 must exceed 1, got {k2}")
    if not k1 > 0.0:
        raise ValueError(f"k1 must be positive, got {k1}")
    w2 = math.sqrt(k2 * k2 - 1.0)  # = 1/sinh r2
    theta2 = 2.0 * math.atan(w2 / k1)
    l2 = theta2 / w2
    dl2_dk1 = 2.0 / (1.0 - k1 * k1 - k2 * k2)
    kind1 = classify_curvature(k1)
    if kind1 is CurveKind.HOROCYCLE:
        theta1 = None
        l1 = 2.0 / k2
        dl1_dk2 = -2.0 / (k2 * k2)
    elif kind1 is CurveKind.CIRCLE:
        w1 = math.sqrt(k1 * k1 - 1.0)
        theta1 = 2.0 * math.atan(w1 / k2)
        l1 = theta1 / w1
        dl1_dk2 = -2.0 / (k2 * k2 + k1 * k1 - 1.0)
    else:
        w1 = math.sqrt(1.0 - k1 * k1)
        theta1 = 2.0 * math.atanh(w1 / k2)
        l1 = theta1 / w1
        dl1_dk2 = -2.0 / (k2 * k2 - (1.0 - k1 * k1))
    return BigonResult(theta1, l1, theta2, l2, dl1_dk2, dl2_dk1)
