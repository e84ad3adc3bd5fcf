"""Generalized hyperbolic circle packings on closed triangulated surfaces.

Given a closed triangulated surface and a prescribed positive total
geodesic curvature per vertex, decide feasibility, compute the unique
packing metric (circles, horocycles, hypercycles) by Newton's method,
each step halved until the residual 2-norm falls (or by the curvature
flow itself), and realize the resulting geometry (cone angles, cusps,
geodesic boundary lengths) with a Gauss-Bonnet audit.

`import hypack` loads none of the submodules.  Each public name's
module is imported the first time the name is read (PEP 562) and the
name is then kept here, so a caller pays only for the layers it uses:
a validated Triangulation and check_admissible load hypack.surface
alone, while the first read of solve loads the solver's modules.
"""

import importlib

# each submodule and the public names it defines; __all__ keeps this order
_EXPORTS = {
    "flow": ("FlowConfig", "FlowTrace", "RateEstimate", "SolveResult", "SolveStatus",
             "StiffnessError", "flow_step", "rate_estimate", "solve"),
    "packing": ("CurvatureReport", "global_jacobian", "potential_value", "vertex_curvatures"),
    "realize": ("CLASS_TOL", "RealizedMetric", "classify", "gauss_bonnet_audit",
                "realize_metric", "render_face_svg", "report_document"),
    "surface": ("Admissibility", "Defect", "ParseError", "Triangulation", "check_admissible",
                "euler_characteristic", "load_targets", "load_triangulation"),
    "tangency": ("KIND_TOL", "CurveKind", "FaceGeometry", "InfeasibleGeometryError",
                 "classify_curvature", "face_jacobian", "solve_face"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
