"""Command-line interface.

Subcommands:
  check   validate a triangulation and test target feasibility
  solve   solve for the packing and write the realization report
  face    solve a single three-circle face and print its geometry
  render  write the Poincare-disk SVG of a single face

Exit codes: 0 success/admissible, 1 usage, parse or validation error,
2 infeasible target, 3 no convergence (budget exhausted or solver stalled).
"""

from __future__ import annotations

import argparse
import sys


from .flow import FlowConfig, SolveStatus, StiffnessError, rate_estimate, solve
from .realize import CLASS_TOL, classify, realize_metric, render_face_svg, report_document
from .surface import ParseError, _load_json, check_admissible, load_targets, load_triangulation
from .tangency import solve_face

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3

# config file field -> its type; a float field also takes a JSON integer
_CONFIG_TYPES = {"residual_tol": float, "newton_switch_tol": float,
                 "max_steps": int, "newton": bool,
                 "class_tol": float}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hypack",
                                description="Generalized hyperbolic circle packings "
                                            "on closed triangulated surfaces")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tri", required=True, help="triangulation JSON path")
        sp.add_argument("--targets", required=True, help="target curvatures JSON path")

    pc = sub.add_parser("check", help="validate surface and test admissibility")
    common(pc)

    ps = sub.add_parser("solve", help="solve for the packing metric")
    common(ps)
    ps.add_argument("--config", help="JSON config file (flags win over file)")
    ps.add_argument("--tol", type=float, help="residual tolerance (max-norm)")
    ps.add_argument("--out", help="write the solve report here (default stdout)")
    ps.add_argument("--trajectory", help="write accepted-step CSV here")
    ps.add_argument("--class-tol", type=float, help="vertex classification tolerance")
    ps.add_argument("--no-newton", action="store_true", help="flow only, no Newton steps")

    pf = sub.add_parser("face", help="solve one three-circle configuration")
    pf.add_argument("--k", nargs=3, type=float, required=True, metavar=("K1", "K2", "K3"))
    pf.add_argument("--out", help="also write the face SVG here")

    pr = sub.add_parser("render", help="render one face to SVG")
    pr.add_argument("--k", nargs=3, type=float, required=True, metavar=("K1", "K2", "K3"))
    pr.add_argument("--out", required=True, help="SVG output path")
    return p


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_TYPES))
    if unknown:
        raise ParseError(f"{path}: unknown config fields {unknown}")
    for key, val in doc.items():
        want = _CONFIG_TYPES[key]
        accepted = (int, float) if want is float else want
        # JSON true/false load as bool, a subclass of int
        if not isinstance(val, accepted) or isinstance(val, bool) != (want is bool):
            raise ParseError(f"{path}: config field {key!r} must be {want.__name__}, "
                             f"got {val!r}")
        if want is float:
            try:
                doc[key] = float(val)
            except OverflowError:  # a JSON integer beyond the float range
                raise ParseError(f"{path}: config field {key!r} exceeds the float range") from None
    return doc


def _flow_config(args, file_cfg: dict) -> tuple[FlowConfig, float]:
    """Merge defaults < config file < flags; returns (config, class_tol)."""
    kwargs = dict(file_cfg)
    class_tol = kwargs.pop("class_tol", CLASS_TOL)
    if args.tol is not None:
        kwargs["residual_tol"] = args.tol
    if args.no_newton:
        kwargs["newton"] = False
    if args.class_tol is not None:
        class_tol = args.class_tol
    classify((), class_tol)  # rejects a tolerance below KIND_TOL before the solve
    return FlowConfig(**kwargs), class_tol


def _cmd_check(args) -> int:
    tri = load_triangulation(args.tri)
    defects = tri.validate()
    for d in defects:
        print(f"defect: {d}")
    if defects:
        print(f"validation failed with {len(defects)} defect(s)")
        return EXIT_ERROR
    targets = load_targets(args.targets, tri.num_vertices)
    adm = check_admissible(tri, targets)
    if adm.admissible:
        print(f"admissible (worst margin {adm.worst_margin:.12g})")
        return EXIT_OK
    print(f"infeasible: witness subset {list(adm.witness)} "
          f"(violation {-adm.worst_margin:.12g})")
    return EXIT_INFEASIBLE


def _cmd_solve(args) -> int:
    tri = load_triangulation(args.tri)
    defects = tri.validate()
    if defects:
        for d in defects:
            print(f"defect: {d}", file=sys.stderr)
        return EXIT_ERROR
    targets = load_targets(args.targets, tri.num_vertices)
    cfg, class_tol = _flow_config(args, _load_config_file(args.config))
    result = solve(tri, targets, config=cfg)
    if args.trajectory:
        result.trace.write_csv(args.trajectory)
    if result.status is SolveStatus.INFEASIBLE:
        print(f"infeasible: witness subset {list(result.witness)}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if result.status is not SolveStatus.CONVERGED:
        print(f"did not converge within budget ({result.status.value})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    metric = realize_metric(tri, result.K, tol=class_tol)
    doc = report_document(metric)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    # the trace's first row is the starting state, not a step
    phases = result.trace.phase[1:]
    flow_steps, newton_steps = phases.count("flow"), phases.count("newton")
    line = (f"converged in {len(phases)} steps "
            f"({flow_steps} flow, {newton_steps} Newton)")
    rate = rate_estimate(result.trace)
    if rate is not None:
        line += f"; rate estimate {rate.lam:.6g} (R^2 {rate.r_squared:.6g})"
    print(line, file=sys.stderr)
    return EXIT_OK


_KIND_LABEL = {"circle": "angle", "hypercycle": "axis segment", "horocycle": "(none)"}


def _cmd_face(args) -> int:
    k1, k2, k3 = args.k
    fg = solve_face(k1, k2, k3)
    for i in range(3):
        kind = fg.kinds[i].value
        gen = fg.gen_angle[i]
        gen_txt = f"{gen:.12g}" if gen is not None else "-"
        print(f"corner {i}: k={fg.curvatures[i]:.12g} kind={kind} "
              f"{_KIND_LABEL[kind]}={gen_txt} l={fg.arc_length[i]:.12g} "
              f"L={fg.total_curvature[i]:.12g}")
    d = fg.edge_lengths
    print(f"edges: d01={d[0]:.12g} d02={d[1]:.12g} d12={d[2]:.12g}")
    print(f"area: {fg.area:.12g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_face_svg(k1, k2, k3))
    return EXIT_OK


def _cmd_render(args) -> int:
    svg = render_face_svg(*args.k)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_ERROR if exc.code else EXIT_OK
    handler = {"check": _cmd_check, "solve": _cmd_solve,
               "face": _cmd_face, "render": _cmd_render}[args.command]
    try:
        return handler(args)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except StiffnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
