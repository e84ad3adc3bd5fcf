import itertools
import json
import math
import random

import numpy as np
import pytest

from hypack.surface import (
    ParseError,
    Triangulation,
    check_admissible,
    euler_characteristic,
    load_targets,
    load_triangulation,
)

from conftest import TETRA_FACES, genus2, torus_grid


class TestValidate:
    def test_tetrahedron_ok(self, tetrahedron):
        assert tetrahedron.validate() == []

    def test_octahedron_ok(self, octahedron):
        assert octahedron.validate() == []

    def test_torus_ok(self):
        assert torus_grid(3, 3).validate() == []

    def test_genus2_ok(self):
        assert genus2().validate() == []

    def test_missing_face(self):
        t = Triangulation(4, TETRA_FACES[:-1])
        kinds = [d.kind for d in t.validate()]
        assert kinds.count("edge_face_count") == 3

    def test_disconnected(self):
        faces = TETRA_FACES + [tuple(v + 4 for v in f) for f in TETRA_FACES]
        t = Triangulation(8, faces)
        assert any(d.kind == "disconnected" for d in t.validate())

    def test_repeated_vertex(self):
        t = Triangulation(4, TETRA_FACES[:-1] + [(1, 1, 2)])
        assert any(d.kind == "repeated_vertex" for d in t.validate())

    def test_bad_link(self):
        # two tetrahedra sharing a single vertex: its link is two cycles
        faces = TETRA_FACES + [tuple(3 if v == 3 else v + 4 for v in f)
                               for f in TETRA_FACES]
        t = Triangulation(7, faces)
        assert any(d.kind == "bad_link" and d.location == (3,) for d in t.validate())

    def test_defects_computed_once(self):
        t = Triangulation(4, TETRA_FACES[:-1])
        first = t.validate()
        assert t.validate() == first and len(first) == 6
        first.clear()
        assert len(t.validate()) == 6
        assert t.validate() is not t.validate()
        assert t.face_array is t.face_array and not t.face_array.flags.writeable

    def test_constructor_rejects_malformed(self):
        with pytest.raises(ValueError):
            Triangulation(0, [])
        with pytest.raises(ValueError):
            Triangulation(3, [(0, 1)])
        with pytest.raises(ValueError):
            Triangulation(3, [(0, 1, 5)])

    def test_edge_face_identity(self, tetrahedron, octahedron):
        for t in (tetrahedron, octahedron, torus_grid(4, 5), genus2()):
            assert 2 * len(t.edges) == 3 * len(t.faces)


class TestEuler:
    def test_tetrahedron(self, tetrahedron):
        assert euler_characteristic(tetrahedron) == 2

    def test_octahedron(self, octahedron):
        assert euler_characteristic(octahedron) == 2

    def test_torus(self):
        assert euler_characteristic(torus_grid(3, 4)) == 0

    def test_genus2(self):
        assert euler_characteristic(genus2()) == -2


def brute_force_admissible(tri, L):
    """Independent plain-python subset enumeration."""
    worst = math.inf
    witness = None
    incident = [{fi for fi, f in enumerate(tri.faces) if v in f}
                for v in range(tri.num_vertices)]
    for size in range(1, tri.num_vertices + 1):
        for subset in itertools.combinations(range(tri.num_vertices), size):
            fi = len(set().union(*(incident[i] for i in subset)))
            margin = math.pi * fi - sum(L[i] for i in subset)
            if margin < worst:
                worst = margin
                witness = subset
    return worst, witness


class TestAdmissible:
    def test_tetra_unit_targets(self, tetrahedron):
        adm = check_admissible(tetrahedron, [1.0] * 4)
        assert adm.admissible
        # tightest margin at single vertices: 3pi - 1 (< 4pi - 4 at I = V)
        assert adm.worst_margin == pytest.approx(3 * math.pi - 1.0, abs=1e-12)

    def test_tetra_one_big(self, tetrahedron):
        adm = check_admissible(tetrahedron, [10.0, 1.0, 1.0, 1.0])
        assert not adm.admissible
        assert adm.witness == (0,)

    def test_tetra_all_big(self, tetrahedron):
        adm = check_admissible(tetrahedron, [3.2] * 4)
        assert not adm.admissible
        assert adm.witness == (0, 1, 2, 3)

    def test_witness_truly_violates(self, tetrahedron):
        adm = check_admissible(tetrahedron, [10.0, 1.0, 1.0, 1.0])
        total = sum([10.0, 1.0, 1.0, 1.0][i] for i in adm.witness)
        incident = sum(1 for f in tetrahedron.faces if set(adm.witness).intersection(f))
        assert total >= math.pi * incident

    def test_oracle_equivalence(self, tetrahedron, octahedron, rng):
        # (surface, upper end of the target range, draws): the range grows
        # with the vertex degree so that both outcomes occur
        for tri, hi, draws in ((tetrahedron, 6.0, 15), (octahedron, 6.0, 15),
                               (torus_grid(2, 4), 6.0, 15), (genus2(), 14.0, 5),
                               (torus_grid(4, 4), 12.0, 5)):
            for _ in range(draws):
                L = rng.uniform(0.1, hi, size=tri.num_vertices)
                adm = check_admissible(tri, L)
                worst, witness = brute_force_admissible(tri, L)
                assert adm.worst_margin == pytest.approx(worst, abs=1e-9)
                assert adm.admissible == (worst > 0.0)
                if not adm.admissible:
                    assert adm.witness == witness
                    s = set(adm.witness)
                    fi = sum(1 for f in tri.faces if s.intersection(f))
                    assert sum(L[i] for i in adm.witness) >= math.pi * fi

    def test_tiny_targets_beside_huge_ones(self, tetrahedron, octahedron):
        # targets log-uniform over a span of 1e14: a vertex whose target is
        # far below the largest one still belongs to the witness
        rnd = random.Random(5)
        lo, hi = math.log(1.5e-8), math.log(1.2e6)
        for tri in (tetrahedron, octahedron, torus_grid(3, 3)):
            for _ in range(100):
                L = [math.exp(rnd.uniform(lo, hi)) for _ in range(tri.num_vertices)]
                adm = check_admissible(tri, L)
                worst, witness = brute_force_admissible(tri, L)
                assert adm.admissible == (worst > 0.0)
                assert adm.worst_margin == pytest.approx(worst, rel=1e-12, abs=1e-9)
                assert adm.witness == (None if adm.admissible else witness)

    @pytest.mark.parametrize("tri, L, witness", [
        # margin exactly 0 on {0}: one flow alone saturates every vertex
        (Triangulation(4, TETRA_FACES), [3 * math.pi, 0.5, 0.5, 0.5], (0,)),
        # {0, 1} meets 10 faces and carries exactly 10 pi
        (torus_grid(4, 4), [5 * math.pi] * 2 + [0.5] * 14, (0, 1)),
    ])
    def test_tight_target_is_inadmissible(self, tri, L, witness):
        adm = check_admissible(tri, L)
        assert (adm.admissible, adm.worst_margin, adm.witness) == (False, 0.0, witness)
        assert brute_force_admissible(tri, L) == (0.0, witness)

    def test_above_former_subset_cap(self):
        # 36 vertices: 2^36 subsets, far beyond exhaustive enumeration
        tri = torus_grid(6, 6)
        adm = check_admissible(tri, [6 * math.pi + 0.1] + [0.5] * 35)
        assert not adm.admissible and adm.witness == (0,)
        assert adm.worst_margin == pytest.approx(-0.1, abs=1e-12)

    def test_octahedron_examples(self, octahedron):
        assert check_admissible(octahedron, [2.0] * 6).admissible
        assert check_admissible(octahedron, [12.0, 1, 1, 1, 1, 1]).admissible

    def test_nonpositive_rejected(self, tetrahedron):
        with pytest.raises(ValueError):
            check_admissible(tetrahedron, [1.0, 0.0, 1.0, 1.0])

    def test_string_of_margins(self, tetrahedron):
        # violation amount is maximized by the witness, with smallest-set
        # tie-breaking: (10,1,1,1) violates on {0} (by 0.575) and on V (0.434)
        adm = check_admissible(tetrahedron, [10.0, 1.0, 1.0, 1.0])
        assert -adm.worst_margin == pytest.approx(10.0 - 3 * math.pi, abs=1e-12)


class TestIO:
    def test_round_trip(self, tmp_path, tetrahedron):
        p = tmp_path / "tri.json"
        p.write_text(json.dumps({"num_vertices": 4, "faces": [list(f) for f in TETRA_FACES]}))
        t = load_triangulation(str(p))
        assert t.faces == tetrahedron.faces
        q = tmp_path / "targets.json"
        q.write_text(json.dumps({"L_hat": [1.0, 2.0, 3.0, 4.0]}))
        L = load_targets(str(q), 4)
        assert np.allclose(L, [1, 2, 3, 4])

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"num_vertices": 4,\n  "faces": [[0,1,2],]\n}')
        with pytest.raises(ParseError, match=r"line \d+"):
            load_triangulation(str(p))

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"faces": []}')
        with pytest.raises(ParseError, match="num_vertices"):
            load_triangulation(str(p))

    def test_bad_face_arity(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"num_vertices": 4, "faces": [[0, 1]]}')
        with pytest.raises(ParseError, match=r"faces\[0\]"):
            load_triangulation(str(p))

    def test_target_length_mismatch(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"L_hat": [1.0, 1.0]}')
        with pytest.raises(ParseError, match="expected 4"):
            load_targets(str(p), 4)

    def test_target_nonpositive(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"L_hat": [1.0, -1.0, 1.0, 1.0]}')
        with pytest.raises(ParseError, match=r"L_hat\[1\]"):
            load_targets(str(p), 4)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_triangulation("/nonexistent/nowhere.json")
