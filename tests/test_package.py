import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import hypack
from hypack.packing import vertex_curvature_sums
from hypack.surface import violating_subset

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
    assert sorted(hypack.__all__) == sorted(TOP_LEVEL)
    names = {n for n in dir(hypack)
             if not n.startswith("_") and not isinstance(getattr(hypack, n), types.ModuleType)}
    assert names == TOP_LEVEL
    # each name resolves, from its module, and is then kept in the package
    for name in TOP_LEVEL:
        assert vars(hypack)[name] is getattr(hypack, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hypack.no_such_name


def _run_fresh(code: str, cwd=None) -> str:
    """Standard output of `code` in a fresh interpreter that imports this
    hypack and writes no bytecode cache."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(hypack.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('hypack.')))"
TETRA_FACES = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
SOLVER = ["hypack.flow", "hypack.packing", "hypack.surface", "hypack.tangency"]


@pytest.mark.parametrize("code, loaded", [
    ("import hypack", []),
    ("import hypack\n"
     f"tri = hypack.Triangulation(4, {TETRA_FACES})\n"
     "assert tri.validate() == []\n"
     "assert hypack.check_admissible(tri, [1.0] * 4).admissible", ["hypack.surface"]),
    ("import hypack\nhypack.solve", SOLVER),
], ids=["import", "validated-surface", "solve"])
def test_each_name_loads_only_its_layers(code, loaded):
    assert ast.literal_eval(_run_fresh(code + LOADED)) == loaded


def test_the_check_subcommand_loads_no_solver_layer(tmp_path):
    (tmp_path / "tetra.json").write_text(f'{{"num_vertices": 4, "faces": {TETRA_FACES}}}')
    (tmp_path / "targets.json").write_text('{"L_hat": [1, 1, 1, 1]}')
    code = ("import hypack.cli\n"
            "args = ['check', '--tri', 'tetra.json', '--targets', 'targets.json']\n"
            "assert hypack.cli.main(args) == 0")
    out = _run_fresh(code + LOADED, cwd=tmp_path).splitlines()
    assert out[0].startswith("admissible")
    assert ast.literal_eval(out[1]) == ["hypack.cli", "hypack.surface"]


def test_star_and_submodule_imports():
    code = ("from hypack import *\nfrom hypack import surface\n"
            "print(sorted(n for n in dir() if not n.startswith('_')), surface.__name__)")
    names, module = _run_fresh(code).rsplit(" ", 1)
    assert ast.literal_eval(names) == sorted(TOP_LEVEL | {"surface"})
    assert module.strip() == "hypack.surface"


def test_modules_are_pinned():
    names = {info.name for info in pkgutil.iter_modules(hypack.__path__)}
    assert names == {"cli", "flow", "packing", "realize", "surface", "tangency"}


def test_every_all_entry_resolves():
    checked = 0
    for info in pkgutil.iter_modules(hypack.__path__):
        module = importlib.import_module(f"hypack.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"hypack.{info.name}.{name}"
            checked += 1
    assert checked >= len(TOP_LEVEL)


ONES = np.ones(4)
# each entry point, the name its message gives a bad per-vertex argument,
# and a call with that argument in place of a good one
PER_VERTEX_ARGUMENTS = {
    "check_admissible": ("target", hypack.check_admissible),
    "violating_subset": ("target", violating_subset),
    "solve-l_hat": ("target", hypack.solve),
    "solve-K0": ("K0", lambda tri, x: hypack.solve(tri, ONES, x)),
    "flow_step-K": ("state", lambda tri, x: hypack.flow_step(tri, x, ONES, 0.1, ONES)),
    "flow_step-l_hat": ("target", lambda tri, x: hypack.flow_step(tri, ONES, x, 0.1, ONES)),
    "flow_step-rate": ("state", lambda tri, x: hypack.flow_step(tri, ONES, ONES, 0.1, x)),
    "vertex_curvature_sums": ("state", vertex_curvature_sums),
    "vertex_curvatures": ("state", hypack.vertex_curvatures),
    "global_jacobian": ("state", hypack.global_jacobian),
    "realize_metric": ("state", hypack.realize_metric),
    "gauss_bonnet_audit": ("state", hypack.gauss_bonnet_audit),
    "potential_value-K": ("state", lambda tri, x: hypack.potential_value(tri, x, ONES, ONES)),
    "potential_value-K_ref": ("state", lambda tri, x: hypack.potential_value(tri, ONES, x, ONES)),
    "potential_value-waypoint": ("state", lambda tri, x: hypack.potential_value(
        tri, ONES, ONES, ONES, waypoints=(ONES, x))),
    "potential_value-l_hat": ("target", lambda tri, x: hypack.potential_value(tri, ONES, ONES, x)),
}


@pytest.mark.parametrize("shape", [(5,), (1, 4)], ids=["n+1", "1xn"])
@pytest.mark.parametrize("entry", PER_VERTEX_ARGUMENTS)
def test_one_wording_for_a_per_vertex_array_of_another_shape(tetrahedron, entry, shape):
    name, call = PER_VERTEX_ARGUMENTS[entry]
    message = f"expected 4 {name} entries, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        call(tetrahedron, np.ones(shape))
    assert err.type is ValueError
