"""Generalized hyperbolic circle packings on closed triangulated surfaces.

Given a closed triangulated surface and a prescribed positive total
geodesic curvature per vertex, decide feasibility, compute the unique
packing metric (circles, horocycles, hypercycles) by curvature flow
and/or Newton iteration, and realize the resulting geometry (cone
angles, cusps, geodesic boundary lengths) with a Gauss-Bonnet audit.
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
from .hyptrig import (
    KIND_TOL,
    BigonResult,
    CurveKind,
    InfeasibleGeometryError,
    PolygonSolution,
    bigon_kernel,
    classify_curvature,
    curvature_to_radius,
    solve_pentagon,
    solve_quadrilateral,
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
    EmbeddedCircle,
    EmbeddedFace,
    FaceGeometry,
    face_jacobian,
    realize_face,
    solve_face,
)

__version__ = "0.1.0"
