import importlib
import pkgutil
import types

import hypack

TOP_LEVEL = {
    "Admissibility", "CLASS_TOL", "CurvatureReport", "CurveKind", "Defect", "FaceGeometry",
    "FlowConfig", "FlowTrace", "InfeasibleGeometryError", "KIND_TOL", "ParseError",
    "RateEstimate", "RealizedMetric", "SolveResult", "SolveStatus", "StiffnessError",
    "Triangulation", "check_admissible", "classify", "classify_curvature",
    "euler_characteristic", "face_jacobian", "flow_step", "gauss_bonnet_audit",
    "global_jacobian", "load_targets", "load_triangulation", "potential_value",
    "rate_estimate", "realize_metric", "render_face_svg", "report_document", "solve",
    "solve_face", "vertex_curvatures",
}


def test_top_level_names_are_pinned():
    names = {n for n, v in vars(hypack).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == TOP_LEVEL


def test_every_all_entry_resolves():
    checked = 0
    for info in pkgutil.iter_modules(hypack.__path__):
        module = importlib.import_module(f"hypack.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"hypack.{info.name}.{name}"
            checked += 1
    assert checked >= len(TOP_LEVEL)
