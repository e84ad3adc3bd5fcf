import json
import re

import pytest

import hypack.flow
from hypack.cli import main
from hypack.realize import realize_metric, report_document
from hypack.surface import Triangulation
from hypack.tangency import InfeasibleGeometryError

TETRA = {"num_vertices": 4, "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}
OCTA = {"num_vertices": 6, "faces": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
                                     [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]]}


@pytest.fixture
def tetra_path(tmp_path):
    p = tmp_path / "tetra.json"
    p.write_text(json.dumps(TETRA))
    return str(p)


@pytest.fixture
def unit_targets(tmp_path):
    p = tmp_path / "targets.json"
    p.write_text(json.dumps({"L_hat": [1.0, 1.0, 1.0, 1.0]}))
    return str(p)


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestCheck:
    def test_admissible(self, tetra_path, unit_targets, capsys):
        assert main(["check", "--tri", tetra_path, "--targets", unit_targets]) == 0
        assert "admissible" in capsys.readouterr().out

    def test_infeasible(self, tmp_path, tetra_path, capsys):
        bad = write(tmp_path, "bad.json", {"L_hat": [10.0, 1.0, 1.0, 1.0]})
        assert main(["check", "--tri", tetra_path, "--targets", bad]) == 2
        out = capsys.readouterr().out
        assert "infeasible" in out and "[0]" in out

    def test_malformed_file(self, tmp_path, unit_targets, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{"num_vertices": 4,\n "faces": [[0,1,2],]}')
        assert main(["check", "--tri", str(p), "--targets", unit_targets]) == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b'{"L_hat": [' + b"1" * 5001 + b', 1, 1, 1]}',  # past the integer digit limit
        b'{"L_hat": [1, 1, 1, 1]}\xff',                 # not UTF-8
    ], ids=["digits", "encoding"])
    def test_unreadable_targets_name_the_file(self, tmp_path, tetra_path, capsys, content):
        p = tmp_path / "targets.json"
        p.write_bytes(content)
        assert main(["check", "--tri", tetra_path, "--targets", str(p)]) == 1
        assert str(p) in capsys.readouterr().err

    def test_rejects_solve_options(self, tetra_path, unit_targets, capsys):
        # --config and --tol belong to solve, and check reads neither
        assert main(["check", "--tri", tetra_path, "--targets", unit_targets,
                     "--config", "/nonexistent.json", "--tol", "5"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_surface(self, tmp_path, unit_targets, capsys):
        p = write(tmp_path, "open.json",
                  {"num_vertices": 4, "faces": TETRA["faces"][:3]})
        assert main(["check", "--tri", p, "--targets", unit_targets]) == 1
        assert "edge_face_count" in capsys.readouterr().out

    def test_vertex_count_beyond_the_edge_keys(self, tmp_path, unit_targets, capsys):
        # 10**20 overflowed numpy's int64 keys with a traceback
        p = write(tmp_path, "huge.json", {"num_vertices": 10**20, "faces": TETRA["faces"]})
        assert main(["check", "--tri", p, "--targets", unit_targets]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {p}: num_vertices must be at most ")


class TestSolve:
    def test_tetrahedron_report(self, tmp_path, tetra_path, unit_targets, capsys):
        out_path = tmp_path / "report.json"
        code = main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert sum(1 for v in doc["vertices"] if v["class"] == "boundary") == 4
        assert doc["global"]["audit_residual"] < 1e-8

    def test_trajectory_export(self, tmp_path, tetra_path, unit_targets):
        traj = tmp_path / "traj.csv"
        code = main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--out", str(tmp_path / "r.json"), "--trajectory", str(traj)])
        assert code == 0
        lines = traj.read_text().splitlines()
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_infeasible_exit(self, tmp_path, tetra_path, capsys):
        bad = write(tmp_path, "bad.json", {"L_hat": [10.0, 1.0, 1.0, 1.0]})
        assert main(["solve", "--tri", tetra_path, "--targets", bad]) == 2
        assert "witness" in capsys.readouterr().err

    def test_budget_exit(self, tmp_path, tetra_path, unit_targets, capsys):
        cfg = write(tmp_path, "cfg.json", {"max_steps": 3})
        code = main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--config", cfg])
        assert code == 3

    def test_octahedron(self, tmp_path, capsys):
        tri = write(tmp_path, "octa.json", OCTA)
        targets = write(tmp_path, "t.json", {"L_hat": [2.0] * 6})
        assert main(["solve", "--tri", tri, "--targets", targets,
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_printed_report_is_written_report(self, tmp_path, capsys, monkeypatch):
        # a cone and five boundaries: stdout and --out carry the same bytes,
        # which are report_document of the solved K
        results, solve = [], hypack.flow.solve

        def recording_solve(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(hypack.flow, "solve", recording_solve)
        tri = write(tmp_path, "octa.json", OCTA)
        targets = write(tmp_path, "t.json", {"L_hat": [12.0, 1, 1, 1, 1, 1]})
        out = tmp_path / "r.json"
        assert main(["solve", "--tri", tri, "--targets", targets]) == 0
        printed = capsys.readouterr().out
        assert main(["solve", "--tri", tri, "--targets", targets, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode("utf-8")
        assert results[0].K.tolist() == results[1].K.tolist()
        octa = Triangulation(OCTA["num_vertices"], [tuple(f) for f in OCTA["faces"]])
        assert printed == report_document(realize_metric(octa, results[0].K))
        classes = [v["class"] for v in json.loads(printed)["vertices"]]
        assert classes == ["cone"] + ["boundary"] * 5

    def test_deterministic_reports(self, tmp_path, tetra_path, unit_targets):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", "--tri", tetra_path, "--targets", unit_targets, "--out", str(a)])
        main(["solve", "--tri", tetra_path, "--targets", unit_targets, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_config_file(self, tmp_path, tetra_path, unit_targets):
        # file sets an unreachable budget, flag restores the default tolerance
        cfg = write(tmp_path, "cfg.json", {"residual_tol": 1e-2})
        out = tmp_path / "r.json"
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--config", cfg, "--tol", "1e-10", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        k = doc["vertices"][0]["k"]
        assert abs(k - 0.05861660657695536) < 1e-8

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tolerance_not_positive_and_finite(self, tmp_path, tetra_path, unit_targets,
                                               capsys, tol):
        # --tol inf was blamed on newton_switch_tol, whose default is infinite
        out = tmp_path / "r.json"
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--tol", tol, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "residual_tol must be positive and finite" in err
        assert "newton_switch_tol" not in err and not out.exists()

    def test_invalid_surface(self, tmp_path, unit_targets, capsys):
        p = write(tmp_path, "open.json", {"num_vertices": 4, "faces": TETRA["faces"][:3]})
        assert main(["solve", "--tri", p, "--targets", unit_targets]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("defect: [edge_face_count]") == 3

    @pytest.mark.parametrize("doc", [[1e-8], "residual_tol", None], ids=["array", "string", "null"])
    def test_config_that_is_not_an_object(self, tmp_path, tetra_path, unit_targets, capsys, doc):
        cfg = write(tmp_path, "cfg.json", doc)
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: config must be a JSON object\n"

    def test_unknown_config_key(self, tmp_path, tetra_path, unit_targets, capsys):
        # max_steps is the only budget, so max_time is an unknown key
        for doc in ({"bogus": 1}, {"max_time": 1e5}):
            cfg = write(tmp_path, "cfg.json", doc)
            assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                         "--config", cfg]) == 1
            assert next(iter(doc)) in capsys.readouterr().err

    def test_unreadable_config_file(self, tmp_path, tetra_path, unit_targets, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  oops")
        for cfg, message in ((str(bad), ": line 2 column 3: "),
                             (str(tmp_path / "missing.json"), "No such file")):
            assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                         "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert cfg + ":" in err and message in err

    @pytest.mark.parametrize("field, value", [
        ("residual_tol", "1e-10"),
        ("max_steps", "abc"),
        ("max_steps", -5),
        ("newton_switch_tol", None),
        ("newton", "no"),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, tetra_path, unit_targets,
                                        capsys, field, value):
        cfg = write(tmp_path, "cfg.json", {field: value})
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--config", cfg]) == 1
        assert field in capsys.readouterr().err

    def test_stalled_solver_exit(self, tmp_path, tetra_path, unit_targets, capsys,
                                 monkeypatch):
        # every Newton trial is unevaluable, so backtracking stalls
        calls = []
        evaluate = hypack.flow._evaluate

        def first_call_only(tri, K, target, **kw):
            calls.append(K)
            if len(calls) > 1:
                raise InfeasibleGeometryError("unevaluable trial")
            return evaluate(tri, K, target, **kw)

        monkeypatch.setattr("hypack.flow._evaluate", first_call_only)
        cfg = write(tmp_path, "cfg.json", {"newton_switch_tol": 1e9})
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "backtracking stalled" in err and "Traceback" not in err

    def test_no_newton_flag(self, tmp_path, tetra_path, unit_targets, capsys):
        out = tmp_path / "r.json"
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--no-newton", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "rate estimate" in err
        assert re.search(r"converged in (\d+) steps \(\1 flow, 0 Newton\); rate", err)

    def test_default_solve_reports_its_steps(self, tmp_path, tetra_path,
                                              unit_targets, capsys):
        # Newton from K = 0: the step line is printed without a rate estimate
        out = tmp_path / "r.json"
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        m = re.search(r"converged in (\d+) steps \(0 flow, (\d+) Newton\)\n", err)
        assert m and m.group(1) == m.group(2) and int(m.group(1)) > 0
        assert "rate estimate" not in err


class TestUsage:
    # exit code 2 means "infeasible", so usage errors exit 1
    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["solve", "--tri", "t.json"],
        ["face", "--k", "1", "1"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestOversizedInteger:
    """A JSON number that is not finite as a float (an integer beyond the
    float range, a decimal such as 1e400 that parses as inf, or Infinity)
    is a parse error that names its field, before anything is solved or
    written."""

    BIG = 10 ** 400

    def assert_rejected(self, argv, field, out, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and field in line and "float range" in line
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_target_entry(self, tmp_path, tetra_path, capsys, command):
        targets = write(tmp_path, "big.json", {"L_hat": [self.BIG, 1, 1, 1]})
        out = tmp_path / "r.json"
        argv = [command, "--tri", tetra_path, "--targets", targets]
        if command == "solve":
            argv += ["--out", str(out)]
        self.assert_rejected(argv, "'L_hat[0]'", out, capsys)

    @pytest.mark.parametrize("field", ["class_tol", "residual_tol"])
    def test_config_field(self, tmp_path, tetra_path, unit_targets, capsys, field):
        cfg = write(tmp_path, "cfg.json", {field: self.BIG})
        out = tmp_path / "r.json"
        self.assert_rejected(["solve", "--tri", tetra_path, "--targets", unit_targets,
                              "--config", cfg, "--out", str(out)], repr(field), out, capsys)

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("number", ["1e400", "Infinity"])
    def test_non_finite_target_entry(self, tmp_path, tetra_path, capsys, command, number):
        targets = tmp_path / "inf.json"
        targets.write_text('{"L_hat": [1, %s, 1, 1]}' % number)
        out = tmp_path / "r.json"
        argv = [command, "--tri", tetra_path, "--targets", str(targets)]
        if command == "solve":
            argv += ["--out", str(out)]
        self.assert_rejected(argv, "'L_hat[1]'", out, capsys)

    @pytest.mark.parametrize("field", ["class_tol", "residual_tol", "newton_switch_tol"])
    @pytest.mark.parametrize("number", ["1e400", "Infinity", "NaN"])
    def test_non_finite_config_field(self, tmp_path, tetra_path, unit_targets, capsys,
                                     field, number):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"%s": %s}' % (field, number))
        out = tmp_path / "r.json"
        self.assert_rejected(["solve", "--tri", tetra_path, "--targets", unit_targets,
                              "--config", str(cfg), "--out", str(out)], repr(field), out, capsys)


class TestFace:
    def test_three_horocycles(self, capsys):
        assert main(["face", "--k", "1", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert "L=1" in out
        assert "area: 0.14159265359" in out

    def test_three_circles(self, capsys):
        assert main(["face", "--k", "2", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("L=1.03422461968") == 3

    def test_mixed_kinds(self, capsys):
        assert main(["face", "--k", "2", "2", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "axis segment=0.679662728202" in out
        assert "kind=hypercycle" in out

    def test_bad_curvature(self, capsys):
        assert main(["face", "--k", "2", "-1", "1"]) == 1

    def test_svg_output(self, tmp_path, capsys):
        out = tmp_path / "face.svg"
        assert main(["face", "--k", "1", "1", "1", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg ")


class TestRender:
    def test_writes_svg(self, tmp_path):
        out = tmp_path / "face.svg"
        assert main(["render", "--k", "2", "2", "0.5", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg ") and "<path" in text

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", "--k", "1.5", "0.7", "1.0", "--out", str(a)])
        main(["render", "--k", "1.5", "0.7", "1.0", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_curvature(self, capsys):
        assert main(["render", "--k", "0", "1", "1", "--out", "/tmp/x.svg"]) == 1


class TestClassTolFlag:
    def test_huge_tolerance_makes_cusps(self, tmp_path, tetra_path, unit_targets):
        out = tmp_path / "r.json"
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--class-tol", "10", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(v["class"] == "cusp" for v in doc["vertices"])

    def test_tolerance_below_kind_tol(self, tmp_path, tetra_path, unit_targets, capsys,
                                      monkeypatch):
        # rejected before the solve, from the flag and from the config file
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr("hypack.flow.solve", no_solve)
        out = tmp_path / "r.json"
        cfg = write(tmp_path, "cfg.json", {"class_tol": 0.0})
        for opts in (["--class-tol", "0"], ["--config", cfg]):
            assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                         *opts, "--out", str(out)]) == 1
            assert "KIND_TOL" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_tolerance_not_finite(self, tmp_path, tetra_path, unit_targets, capsys, tol):
        # an infinite tolerance would label every vertex a cusp
        out = tmp_path / "r.json"
        assert main(["solve", "--tri", tetra_path, "--targets", unit_targets,
                     "--class-tol", tol, "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()
