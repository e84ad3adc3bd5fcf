"""The right-angled bigon: two constant-curvature arcs crossing at right
angles.  Curve kinds and the curvature convention are tangency's.
Nothing on the solve or realize path calls this module.  Lengths and
angles are in hyperbolic units; everything is a pure function, safe to
call concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .tangency import CurveKind, classify_curvature

__all__ = ["BigonResult", "bigon_kernel"]


class BigonResult(NamedTuple):
    theta1: float | None  # generalized angle of arc 1; None when k1 = 1
    l1: float
    theta2: float
    l2: float


def bigon_kernel(k1: float, k2: float) -> BigonResult:
    """Two constant-curvature arcs crossing at right angles.

    Arc 2 is a circle (k2 > 1); arc 1 may be any kind.  Returns the
    generalized angles and the arc lengths between the intersection
    points.
    """
    if not k2 > 1.0:
        raise ValueError(f"k2 must exceed 1, got {k2}")
    if not k1 > 0.0:
        raise ValueError(f"k1 must be positive, got {k1}")
    w2 = math.sqrt(k2 * k2 - 1.0)  # = 1/sinh r2
    theta2 = 2.0 * math.atan(w2 / k1)
    l2 = theta2 / w2
    kind1 = classify_curvature(k1)
    if kind1 is CurveKind.HOROCYCLE:
        theta1 = None
        l1 = 2.0 / k2
    elif kind1 is CurveKind.CIRCLE:
        w1 = math.sqrt(k1 * k1 - 1.0)
        theta1 = 2.0 * math.atan(w1 / k2)
        l1 = theta1 / w1
    else:
        w1 = math.sqrt(1.0 - k1 * k1)
        theta1 = 2.0 * math.atanh(w1 / k2)
        l1 = theta1 / w1
    return BigonResult(theta1, l1, theta2, l2)
