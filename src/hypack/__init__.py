"""Generalized hyperbolic circle packings on closed triangulated surfaces.

Given a closed triangulated surface and a prescribed positive total
geodesic curvature per vertex, decide feasibility, compute the unique
packing metric (circles, horocycles, hypercycles) by damped Newton
on the curvature flow's convex potential (or by the flow itself), and
realize the resulting geometry (cone angles, cusps, geodesic boundary
lengths) with a Gauss-Bonnet audit.
"""

from .flow import (
    FlowConfig,
    FlowTrace,
    RateEstimate,
    SolveResult,
    SolveStatus,
    StiffnessError,
    flow_step,
    rate_estimate,
    solve,
)
from .packing import (
    CurvatureReport,
    global_jacobian,
    potential_value,
    vertex_curvatures,
)
from .realize import (
    CLASS_TOL,
    RealizedMetric,
    classify,
    gauss_bonnet_audit,
    realize_metric,
    render_face_svg,
    report_document,
)
from .surface import (
    Admissibility,
    Defect,
    ParseError,
    Triangulation,
    check_admissible,
    euler_characteristic,
    load_targets,
    load_triangulation,
)
from .tangency import (
    KIND_TOL,
    CurveKind,
    FaceGeometry,
    InfeasibleGeometryError,
    classify_curvature,
    face_jacobian,
    solve_face,
)

__version__ = "0.1.0"
