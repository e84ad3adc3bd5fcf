import collections
import dataclasses
import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from hypack import surface
from hypack.flow import SolveStatus, solve
from hypack.packing import vertex_curvature_sums
from hypack.realize import realize_metric
from hypack.surface import (
    Admissibility,
    Defect,
    ParseError,
    Triangulation,
    _checked_targets,
    check_admissible,
    euler_characteristic,
    load_targets,
    load_triangulation,
    violating_subset,
)

from conftest import OCTA_FACES, TETRA_FACES, genus2, torus_grid

# two tetrahedra: sharing vertex 3 only, and sharing nothing
PINCHED_FACES = TETRA_FACES + [tuple(3 if v == 3 else v + 4 for v in f) for f in TETRA_FACES]
DISJOINT_FACES = TETRA_FACES + [tuple(v + 4 for v in f) for f in TETRA_FACES]


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
        t = Triangulation(8, DISJOINT_FACES)
        assert any(d.kind == "disconnected" for d in t.validate())

    def test_repeated_vertex(self):
        t = Triangulation(4, TETRA_FACES[:-1] + [(1, 1, 2)])
        assert any(d.kind == "repeated_vertex" for d in t.validate())

    def test_bad_link(self):
        # two tetrahedra sharing a single vertex: its link is two cycles
        t = Triangulation(7, PINCHED_FACES)
        assert any(d.kind == "bad_link" and d.location == (3,) for d in t.validate())

    @pytest.mark.parametrize("n, faces, expected", [
        pytest.param(5, TETRA_FACES, [
            ("isolated_vertex", (4,), "vertex 4 lies in no face"),
        ], id="isolated-vertex"),
        pytest.param(4, TETRA_FACES[:-1] + [(1, 1, 2)], [
            ("repeated_vertex", (3,), "face 3 = (1, 1, 2) has a repeated vertex"),
            ("edge_face_count", (1, 2), "edge (1, 2) lies in 3 faces, expected 2"),
            ("edge_face_count", (1, 3), "edge (1, 3) lies in 1 faces, expected 2"),
            ("edge_face_count", (2, 3), "edge (2, 3) lies in 1 faces, expected 2"),
            ("bad_link", (1,), "vertex 1 lies twice in face 3"),
            ("bad_link", (2,), "link of vertex 2 is not a closed cycle"),
            ("bad_link", (3,), "link of vertex 3 is not a closed cycle"),
        ], id="vertex-twice-in-a-face"),
        pytest.param(4, TETRA_FACES[:-1], [
            ("edge_face_count", (1, 2), "edge (1, 2) lies in 1 faces, expected 2"),
            ("edge_face_count", (1, 3), "edge (1, 3) lies in 1 faces, expected 2"),
            ("edge_face_count", (2, 3), "edge (2, 3) lies in 1 faces, expected 2"),
            ("bad_link", (1,), "link of vertex 1 is not a closed cycle"),
            ("bad_link", (2,), "link of vertex 2 is not a closed cycle"),
            ("bad_link", (3,), "link of vertex 3 is not a closed cycle"),
        ], id="open-link"),
        pytest.param(7, PINCHED_FACES, [
            ("bad_link", (3,), "link of vertex 3 splits into several cycles"),
            ("disconnected", (), "face-adjacency graph splits (4 of 8 reachable)"),
        ], id="pinched-vertex"),
        pytest.param(8, DISJOINT_FACES, [
            ("disconnected", (), "face-adjacency graph splits (4 of 8 reachable)"),
        ], id="disconnected"),
        pytest.param(4, TETRA_FACES + [(2, 2, 2)], [
            ("repeated_vertex", (4,), "face 4 = (2, 2, 2) has a repeated vertex"),
            ("bad_link", (2,), "vertex 2 lies twice in face 4"),
            ("disconnected", (), "face-adjacency graph splits (4 of 5 reachable)"),
        ], id="repeated-vertex"),
    ])
    def test_defect_list_is_pinned(self, n, faces, expected):
        assert Triangulation(n, faces).validate() == [Defect(*d) for d in expected]

    def test_matches_reference_on_mutations(self):
        # seeded drops, additions and rewirings of faces, a copy glued at one
        # vertex and spare vertices, on closed surfaces of genus 0, 1 and 2
        rnd = random.Random(14)
        bases = [Triangulation(4, TETRA_FACES), Triangulation(6, OCTA_FACES), torus_grid(3, 3),
                 torus_grid(3, 4), torus_grid(4, 4), genus2()]
        kinds, messages = collections.Counter(), collections.Counter()
        for base in bases:
            for _ in range(900):
                t = Triangulation(*_mutated(rnd, base.num_vertices, list(base.faces)))
                got = t.validate()
                assert got == _find_defects(t)
                assert t.edges == _reference_edges(t)
                kinds.update({d.kind for d in got})
                messages.update({w for d in got for w in ("twice", "closed", "splits")
                                 if d.kind == "bad_link" and w in d.message})
        assert min(kinds[k] for k in ("repeated_vertex", "edge_face_count", "bad_link",
                                      "isolated_vertex", "disconnected")) >= 100, kinds
        assert min(messages[w] for w in ("twice", "closed", "splits")) >= 100, messages

    @pytest.mark.parametrize("surface", [lambda: torus_grid(16, 16), lambda: suspension(40)],
                             ids=["torus16x16", "suspension40"])
    def test_matches_reference_on_large_mutations(self, surface):
        # the same mutations at 256 vertices, and around vertices of degree
        # 40 (80 once a copy is glued there), whose link walks are long; a
        # random added face rarely repeats a vertex among so many, so every
        # fourth surface also gets a face whose corner repeats another; every
        # other surface is built from an int64 array, whose defect messages
        # spell the faces from the array
        rnd = random.Random(21)
        base = surface()
        assert base.validate() == _find_defects(base) == []
        kinds = collections.Counter()
        for i in range(120):
            n, faces = _mutated(rnd, base.num_vertices, list(base.faces))
            if i % 4 == 0:
                fi, c = rnd.randrange(len(faces)), rnd.randrange(3)
                faces[fi] = faces[fi][:c] + (faces[fi][c - 1],) + faces[fi][c + 1:]
            t = Triangulation(n, np.array(faces, dtype=np.int64).reshape(-1, 3) if i % 2 == 0
                              else faces)
            got = t.validate()
            assert got == _find_defects(t)
            assert t.faces == tuple(map(tuple, faces))
            assert t.edges == _reference_edges(t)
            kinds.update({d.kind for d in got})
        assert min(kinds[k] for k in ("repeated_vertex", "edge_face_count", "bad_link",
                                      "isolated_vertex", "disconnected")) >= 10, kinds

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

    @pytest.mark.parametrize("n", [4.0, 4.5, "4", True, False, None, -1])
    def test_constructor_rejects_a_vertex_count_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="num_vertices"):
            Triangulation(n, TETRA_FACES[:1])

    @pytest.mark.parametrize("n", [2**32, 2**70])
    def test_constructor_rejects_a_vertex_count_beyond_the_edge_keys(self, n):
        # the keys u n + w must fit in intp: rejected before any array is
        # built (2**70 overflowed numpy, 2**32 wrapped silently)
        bound = math.isqrt(np.iinfo(np.intp).max)
        with pytest.raises(ValueError, match=f"^num_vertices must be at most {bound}, got {n}$"):
            Triangulation(n, TETRA_FACES)

    def test_constructor_rejects_ids_that_are_not_integers(self):
        with pytest.raises(ValueError, match=r"face 0 vertex ids must be integers, got \(0, 1, 2\.7\)"):
            Triangulation(4, [(0, 1, 2.7), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        with pytest.raises(ValueError, match="face 2 vertex ids must be integers"):
            Triangulation(4, [(0, 1, 2), (0, 1, 3), ("0", 1, 2)])

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_constructor_rejects_bool_ids(self, flag):
        # True == 1, so the face used to pass as (0, 1, 2) of the tetrahedron
        with pytest.raises(ValueError, match=r"face 0 vertex ids must be integers"):
            Triangulation(4, [(0, flag, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

    def test_constructor_takes_numpy_ids(self, tetrahedron):
        t = Triangulation(np.int64(4), np.array(TETRA_FACES, dtype=np.int32))
        assert t == tetrahedron and hash(t) == hash(tetrahedron) and t.validate() == []
        assert type(t.num_vertices) is int
        assert all(type(v) is int for f in t.faces for v in f)

    @pytest.mark.parametrize("faces, face, bad", [
        (np.array([(0, 1, 2), (0, 1, 2**63)], dtype=np.uint64), 1, 2**63),
        (np.array([(0, 1, 2), (0, -1, 2)], dtype=np.int64), 1, -1),
        (np.array([(0, 1, 1), (0, 1, 0)], dtype=bool), 0, None),
    ], ids=["uint64-beyond-int64", "negative-int64", "bool-array"])
    def test_constructor_names_the_bad_face_of_an_array(self, faces, face, bad):
        # an integer array is cast to intp whole: an id that the cast wraps
        # fails the range check too, and the face-by-face loop names it
        message = (f"face {face} vertex {bad} out of range [0, 4)" if bad is not None
                   else f"face {face} vertex ids must be integers, got {faces[face]!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Triangulation(4, faces)

    def test_edge_face_identity(self, tetrahedron, octahedron):
        for t in (tetrahedron, octahedron, torus_grid(4, 5), genus2()):
            assert 2 * len(t.edges) == 3 * len(t.faces)


class TestEdgeTable:
    """Every incidence structure comes from the constructor's one np.unique
    and one stable argsort; what is derived from them on first read is
    kept, and nothing is recomputed."""

    def test_one_unique_per_triangulation_and_none_per_solve(self, monkeypatch):
        calls = []
        unique = np.unique

        def counted(*args, **kw):
            calls.append(kw)
            return unique(*args, **kw)

        monkeypatch.setattr(np, "unique", counted)
        tri = torus_grid(16, 16)
        assert len(calls) == 1
        target = vertex_curvature_sums(tri, np.random.default_rng(1).normal(0.0, 0.7, 256))
        calls.clear()
        res = solve(tri, target)
        assert res.status is SolveStatus.CONVERGED and calls == []

    def test_validate_and_solve_keep_the_attributes(self):
        tri = torus_grid(16, 16)
        before = dict(vars(tri))
        assert tri.validate() == []
        # validate() adds its memo of the defects, and the Newton steps the
        # Hessian index; nothing set before is replaced
        assert vars(tri).keys() - before.keys() == {"_defects"}
        solve(tri, vertex_curvature_sums(tri, np.random.default_rng(2).normal(0.0, 0.7, 256)))
        after = vars(tri)
        assert after.keys() - before.keys() == {"_defects", "_hessian_index"}
        assert all(after[k] is v for k, v in before.items())

    def test_the_first_feasibility_call_builds_the_corner_tables(self):
        tri = Triangulation(5, TETRA_FACES[:-1] + [(1, 1, 2)])
        tri.validate()
        before = dict(vars(tri))
        assert "_corner_table" not in before
        check_admissible(tri, [1.0] * 5)
        assert vars(tri).keys() - before.keys() == {"_corner_table"}
        by_vertex, at = tri._corner_table
        assert violating_subset(tri, [1.0] * 5) == (4,) and tri._corner_table[0] is by_vertex
        assert vars(tri).keys() - before.keys() == {"_corner_table"}
        assert at == [v for face in tri.faces for v in face]
        assert [[f for f, _ in pairs] for pairs in by_vertex] == list(map(list, tri.vertex_faces))
        # each face's corner is the vertex's first one in it
        assert by_vertex[1] == [(0, 1), (1, 4), (3, 9)]

    def test_edges_and_vertex_faces_are_built_on_first_read(self):
        tri = torus_grid(16, 16)
        assert tri.validate() == []
        target = vertex_curvature_sums(tri, np.random.default_rng(3).normal(0.0, 0.7, 256))
        res = solve(tri, target)
        assert res.status is SolveStatus.CONVERGED
        assert check_admissible(tri, target).admissible
        realize_metric(tri, res.K)
        assert not {"faces", "edges", "vertex_faces"} & vars(tri).keys()
        faces, edges, vertex_faces = tri.faces, tri.edges, tri.vertex_faces
        assert np.array_equal(faces, tri.face_array) and {type(v) for f in faces for v in f} == {int}
        assert edges == _reference_edges(tri)
        assert vertex_faces == tuple(tuple(f for f, _ in pairs)
                                     for pairs in _reference_corner_table(tri)[0])
        assert tri.faces is faces and tri.edges is edges and tri.vertex_faces is vertex_faces
        for name in ("edges", "vertex_faces", "_defects", "faces", "face_array"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tri, name, ())

    def test_a_list_and_an_int64_array_give_equal_triangulations(self):
        faces = list(torus_grid(8, 8).faces)
        listed = Triangulation(64, faces)
        for dtype in (np.int64, np.int32, np.uint16):
            arrayed = Triangulation(64, np.array(faces, dtype=dtype))
            assert listed == arrayed and hash(listed) == hash(arrayed)
            assert repr(listed) == repr(arrayed) == \
                f"Triangulation(num_vertices=64, faces={tuple(faces)})"
        assert listed != Triangulation(65, faces)
        assert listed != Triangulation(64, [faces[1], faces[0]] + faces[2:])

    @pytest.mark.parametrize("faces", [TETRA_FACES[:-1] + [(1, 1, 2)], list(genus2().faces)],
                             ids=["repeated-vertex", "genus2"])
    def test_lists_and_integer_arrays_give_equal_fields(self, faces):
        n = max(max(f) for f in faces) + 2  # the last vertex lies in no face
        built = [Triangulation(n, [list(f) for f in faces]),
                 Triangulation(n, tuple(faces)),
                 Triangulation(n, [tuple(map(np.int64, f)) for f in faces]),
                 Triangulation(n, np.array(faces, dtype=np.int32)),
                 Triangulation(n, np.array(faces, dtype=np.uint16))]
        first = built[0]
        for t in built:
            assert (t.num_vertices, t.faces, t.edges, t.vertex_faces) == \
                (first.num_vertices, first.faces, first.edges, first.vertex_faces)
            assert t.validate() == first.validate()
            ids = itertools.chain([t.num_vertices], *t.faces, *t.edges, *t.vertex_faces)
            assert {type(v) for v in ids} == {int}
            for name in ("face_array", "_pair_slot", "_slot_ends", "_slot_count"):
                arr = getattr(t, name)
                assert np.array_equal(arr, getattr(first, name)) and not arr.flags.writeable

    @pytest.mark.parametrize("make", [
        genus2, lambda: torus_grid(4, 5),
        lambda: Triangulation(5, TETRA_FACES[:-1] + [(1, 1, 2)]),
    ], ids=["genus2", "torus4x5", "repeated-vertex"])
    def test_corner_order_matches_the_per_corner_search(self, make):
        tri = make()
        by_vertex, at = _reference_corner_table(tri)
        assert tri._corner_table == (by_vertex, at)
        assert tri.vertex_faces == tuple(tuple(f for f, _ in pairs) for pairs in by_vertex)
        assert [tri.degree(v) for v in range(tri.num_vertices)] == list(map(len, by_vertex))
        assert tri.degree(-1) == len(by_vertex[-1])
        assert tri.degree(np.int64(1)) == len(by_vertex[1])
        with pytest.raises(IndexError):
            tri.degree(tri.num_vertices)
        with pytest.raises(TypeError):
            tri.degree(True)
        assert not (tri._vertex_corners.flags.writeable or tri._vertex_stops.flags.writeable)


# The per-corner search that built the corner tables before the corner
# order, kept as the oracle for Triangulation._corner_table: each
# vertex's faces in face order, each at the vertex's first corner in it.

def _reference_corner_table(tri):
    by_vertex = [[] for _ in range(tri.num_vertices)]
    for f, face in enumerate(tri.faces):
        for v in set(face):
            by_vertex[v].append((f, 3 * f + face.index(v)))
    return tuple(by_vertex), [v for face in tri.faces for v in face]


def suspension(m: int) -> Triangulation:
    """The double cone over an m-gon: apexes 0 and 1 of degree m."""
    faces = []
    for j in range(m):
        a, b = 2 + j, 2 + (j + 1) % m
        faces += [(0, a, b), (1, b, a)]
    return Triangulation(m + 2, faces)


def _reference_edges(tri):
    return tuple(sorted({(u, w) for f in tri.faces for u, w in itertools.combinations(sorted(f), 2)
                         if u != w}))


def _mutated(rnd, n, faces):
    """One to three seeded mutations of a surface: (vertex count, faces)."""
    for _ in range(rnd.randint(1, 3)):
        op = rnd.randrange(5)
        if op == 0 and faces:  # drop a face
            faces.pop(rnd.randrange(len(faces)))
        elif op == 1:  # add a face, maybe with a repeated vertex
            faces.insert(rnd.randint(0, len(faces)), tuple(rnd.randrange(n) for _ in range(3)))
        elif op == 2 and faces:  # rewire one corner of a face
            fi, c = rnd.randrange(len(faces)), rnd.randrange(3)
            faces[fi] = faces[fi][:c] + (rnd.randrange(n),) + faces[fi][c + 1:]
        elif op == 3:  # glue a copy at vertex p
            p = rnd.randrange(n)
            faces += [tuple(p if v == p else n + v - (v > p) for v in f) for f in faces]
            n = 2 * n - 1
        else:  # a spare vertex with id s
            s = rnd.randint(0, n)
            faces = [tuple(v + (v >= s) for v in f) for f in faces]
            n += 1
    return n, faces


# The edge-pass validation that preceded the one edge table, kept as the
# oracle for Triangulation.validate().

def _find_defects(tri):
    defects = []
    for fi, f in enumerate(tri.faces):
        if len(set(f)) != 3:
            defects.append(Defect("repeated_vertex", (fi,),
                                  f"face {fi} = {f} has a repeated vertex"))
    by_edge = {}
    for fi, (a, b, c) in enumerate(tri.faces):
        for u, v in ((a, b), (b, c), (a, c)):
            by_edge.setdefault((min(u, v), max(u, v)), []).append(fi)
    for e, fs in sorted(by_edge.items()):
        if e[0] != e[1] and len(fs) != 2:
            defects.append(Defect("edge_face_count", e,
                                  f"edge {e} lies in {len(fs)} faces, expected 2"))
    for v in range(tri.num_vertices):
        d = _link_defect(tri, v)
        if d is not None:
            defects.append(d)
    if tri.faces:
        defects.extend(_connectivity_defects(tri, by_edge))
    return defects


def _link_defect(tri, v):
    opposite = []
    for fi in tri.vertex_faces[v]:
        rest = [u for u in tri.faces[fi] if u != v]
        if len(rest) != 2:
            return Defect("bad_link", (v,), f"vertex {v} lies twice in face {fi}")
        opposite.append(tuple(rest))
    if not opposite:
        return Defect("isolated_vertex", (v,), f"vertex {v} lies in no face")
    neigh = {}
    for a, b in opposite:
        neigh.setdefault(a, []).append(b)
        neigh.setdefault(b, []).append(a)
    if any(len(nb) != 2 for nb in neigh.values()):
        return Defect("bad_link", (v,), f"link of vertex {v} is not a closed cycle")
    start = opposite[0][0]
    seen = {start}
    prev, cur = None, start
    for _ in range(len(neigh)):
        nxt = [u for u in neigh[cur] if u != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        seen.add(cur)
    if len(seen) != len(neigh):
        return Defect("bad_link", (v,), f"link of vertex {v} splits into several cycles")
    return None


def _connectivity_defects(tri, by_edge):
    adj = {i: set() for i in range(len(tri.faces))}
    for fs in by_edge.values():
        for i, j in itertools.combinations(fs, 2):
            adj[i].add(j)
            adj[j].add(i)
    seen = set()
    stack = [0]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        stack.extend(adj[f] - seen)
    if len(seen) != len(tri.faces):
        return [Defect("disconnected", (), f"face-adjacency graph splits "
                       f"({len(seen)} of {len(tri.faces)} reachable)")]
    return []


# The augmenting-path flow that preceded the Dinitz phases, kept as the
# oracle for check_admissible and violating_subset: one breadth-first path
# at a time, each short vertex on its own.

def oracle_admissible(tri, l_hat):
    """(admissible, worst margin, witness) as check_admissible gave them."""
    x, room, tol, witness, margin = _max_flow(tri, l_hat)
    if witness is not None:
        return False, margin, witness
    best = math.inf
    for v in range(tri.num_vertices):
        best = min(best, _augment(tri, x, room, v, best, tol))
        for f in tri.vertex_faces[v]:  # the other vertices stay saturated
            for c, w in enumerate(tri.faces[f]):
                if w == v:
                    room[f] += x[f][c]
                    x[f][c] = 0.0
    return True, best, None


def _reach(starts, step) -> set:
    """Everything reachable from `starts` (included) by repeated `step`."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in step(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _max_flow(tri: Triangulation, l_hat):
    """Route the targets by a maximum flow, in which corner c of face f takes
    x[f][c] from its vertex and face f can pass room[f] more to the sink.
    Returns (x, room, tol, witness, its margin).  Flows and rooms, which
    never exceed pi, count as 0 within tol = 1e-12 pi; vertex v is short
    of its target when more than 1e-12 (pi + Lhat_v) is missing, so that
    a tiny target next to huge ones still counts."""
    L = _checked_targets(tri, l_hat)
    tol = 1e-12 * math.pi
    short_tol = [1e-12 * (math.pi + float(v)) for v in L]
    x = [[0.0, 0.0, 0.0] for _ in tri.faces]
    room = [math.pi] * len(tri.faces)
    need = [float(v) for v in L]
    for f, face in enumerate(tri.faces):  # greedy first fill, then augment
        for c, v in enumerate(face):
            x[f][c] = min(room[f], need[v])
            room[f] -= x[f][c]
            need[v] -= x[f][c]
    for v in range(tri.num_vertices):
        if need[v] > short_tol[v]:
            need[v] -= _augment(tri, x, room, v, need[v], tol)
    short = [v for v in range(tri.num_vertices) if need[v] > short_tol[v]]
    margin = 0.0 - sum(need[v] for v in short)  # the witness's; +0.0 on a tight set
    return x, room, tol, _witness(tri, x, room, short, tol), margin


def _search(tri: Triangulation, x, room, starts, tol):
    """Breadth-first residual search from `starts`: a vertex reaches its
    faces, a face the corners whose flow it can hand back.  Returns (the
    first (vertex, face) with room or None, reached vertex -> the
    (vertex, face, corner) it was reached by, None for a start)."""
    prev: dict[int, tuple | None] = dict.fromkeys(starts)
    queue = list(starts)
    for u in queue:
        for f in tri.vertex_faces[u]:
            if room[f] > tol:
                return (u, f), prev
            for c, w in enumerate(tri.faces[f]):
                if w not in prev and x[f][c] > tol:
                    prev[w] = (u, f, c)
                    queue.append(w)
    return None, prev


def _augment(tri: Triangulation, x, room, start: int, limit: float, tol: float) -> float:
    """Send up to `limit` more from vertex `start` along shortest residual
    paths, updating x and room in place; returns the amount sent."""
    sent = 0.0
    while limit - sent > tol:
        end, prev = _search(tri, x, room, [start], tol)
        if end is None:
            break
        u, f = end
        links = []
        while prev[u] is not None:
            links.append(prev[u])
            u = prev[u][0]
        d = min([limit - sent, room[f]] + [x[g][c] for _, g, c in links])
        room[f] -= d
        x[f][tri.faces[f].index(end[0])] += d
        for p, g, c in links:  # face g takes d more from p and d less from corner c
            x[g][tri.faces[g].index(p)] += d
            x[g][c] -= d
        sent += d
    return sent


def _witness(tri: Triangulation, x, room, short, tol) -> tuple[int, ...] | None:
    """The smallest worst-violating set of a maximum flow, or None.  With
    vertices short of their target it is all they reach (the smallest
    minimum cut); else a vertex with no residual path to the sink lies in
    a tight set (margin 0), and the smallest one is such a vertex's reach."""
    if short:
        return tuple(sorted(_search(tri, x, room, short, tol)[1]))
    to_sink = _reach([w for f, face in enumerate(tri.faces) if room[f] > tol for w in face],
                     lambda u: [w for f in tri.vertex_faces[u]
                                if x[f][tri.faces[f].index(u)] > tol for w in tri.faces[f]])
    tight = [tuple(sorted(_search(tri, x, room, [v], tol)[1]))
             for v in range(tri.num_vertices) if v not in to_sink]
    return min(tight, key=lambda t: (len(t), t), default=None)


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


def _patch(tri, grid, rng):
    """A 3x3 block of vertices of a torus grid of `grid` = (rows, columns),
    or on any other surface a random vertex with its neighbours."""
    if grid is None:
        v = int(rng.integers(tri.num_vertices))
        return sorted({w for f in tri.vertex_faces[v] for w in tri.faces[f]})
    m, c = grid
    i, j = rng.integers(m), rng.integers(c)
    return sorted(int((i + a) % m * c + (j + b) % c) for a in range(3) for b in range(3))


def feasibility_targets(tri, grid, rng, draws):
    """(kind, targets) pairs, `draws` of each kind: planted admissible,
    uniform, a local 3x3 patch scaled about its bound pi |F_W|, a global
    overshoot, tight on all of V (sum Lhat = pi |F|), on a patch and on two,
    and log-uniform over a span of 1e14."""
    n, nf = tri.num_vertices, len(tri.faces)

    def planted():
        return np.asarray(vertex_curvature_sums(tri, rng.normal(0.0, 0.7, n)))

    def faces_at(W):
        return sum(1 for f in tri.faces if set(W).intersection(f))

    for _ in range(draws):
        yield "planted", planted()
        yield "uniform", rng.uniform(0.1, 2 * math.pi * nf / n * rng.uniform(0.6, 1.4), n)
        L, W = planted(), _patch(tri, grid, rng)
        L[W] *= (math.pi * faces_at(W) + rng.uniform(-0.3, 0.5)) / L[W].sum()
        yield "local", L
        L = planted()
        yield "global", L * (math.pi * nf * (1.0 + rng.uniform(1e-4, 1e-2)) / L.sum())
        yield "tight-global", np.full(n, math.pi * nf / n)
        L = 0.5 * planted()
        for kind in ("tight-patch", "tight-patches"):  # a second one may overlap the first
            W = _patch(tri, grid, rng)
            L[W] = math.pi * faces_at(W) / len(W)
            yield kind, L.copy()
        yield "span", np.exp(rng.uniform(math.log(1.5e-8), math.log(1.2e6), n))


def enumerated_admissible(tri, L):
    """brute_force_admissible over all subsets at once, for up to about 20
    vertices and 64 faces.  Subset m is the bits of m; its sum and its
    faces (as face bits) extend those of m without its top vertex, so the
    sums add in the same order and give the same (worst, witness)."""
    n = tri.num_vertices
    assert len(tri.faces) <= 64
    total, faces = np.zeros(1 << n), np.zeros(1 << n, dtype=np.uint64)
    for i in range(n):
        total[1 << i:2 << i] = total[:1 << i] + L[i]
        bits = np.uint64(sum(1 << fi for fi in tri.vertex_faces[i]))
        faces[1 << i:2 << i] = faces[:1 << i] | bits
    ones = np.array([bin(b).count("1") for b in range(256)])
    margin = math.pi * ones[faces.view(np.uint8)].reshape(-1, 8).sum(axis=1) - total
    worst = margin[1:].min()
    ties = [tuple(i for i in range(n) if m >> i & 1)
            for m in np.flatnonzero(margin == worst).tolist() if m]
    return worst, min(ties, key=lambda t: (len(t), t))


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

    def test_margin_search_on_admissible_targets(self, rng):
        # the search takes each vertex out of the one flow after its turn,
        # so each set's margin is found from its smallest vertex
        tri = torus_grid(3, 4)
        planted = [vertex_curvature_sums(tri, rng.normal(0.0, 0.7, 12)) for _ in range(10)]
        drawn = [rng.uniform(0.1, 10.0, size=12) for _ in range(40)]
        admissible = 0
        for L in planted + drawn:
            worst, _ = brute_force_admissible(tri, L)
            if worst > 0.0:
                admissible += 1
                adm = check_admissible(tri, L)
                assert adm.admissible and adm.witness is None
                assert adm.worst_margin == pytest.approx(worst, rel=1e-9)
        assert admissible >= 20

    @pytest.mark.parametrize("tri, L, witness", [
        # margin exactly 0 on {0}: one flow alone saturates every vertex
        (Triangulation(4, TETRA_FACES), [3 * math.pi, 0.5, 0.5, 0.5], (0,)),
        # {0, 1} meets 10 faces and carries exactly 10 pi
        (torus_grid(4, 4), [5 * math.pi] * 2 + [0.5] * 14, (0, 1)),
        # two tight singletons, the smaller vertex first; a tight pair and a
        # tight singleton, the smaller set first
        (torus_grid(4, 4), [6 * math.pi if v in (5, 15) else 0.5 for v in range(16)], (5,)),
        (torus_grid(4, 4), [5 * math.pi if v < 2 else 6 * math.pi if v == 10 else 0.5
                            for v in range(16)], (10,)),
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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_target_named_at_a_late_index(self, bad):
        # one array test decides; only a failure looks for the first bad entry
        tri = torus_grid(16, 16)
        L = np.full(256, 2.0)
        L[[200, 250]] = bad, -2.0
        message = f"target curvatures must be positive and finite; entry 200 is {bad}"
        for call in (_checked_targets, check_admissible, violating_subset, solve):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(tri, L)
        assert _checked_targets(tri, np.full(256, 2.0)).shape == (256,)

    def test_wrong_target_shape(self):
        tri = torus_grid(16, 16)
        for L in (np.full(255, 2.0), np.full((256, 1), 2.0), 2.0):
            with pytest.raises(ValueError, match="expected 256 target entries, got shape"):
                _checked_targets(tri, L)

    def test_string_of_margins(self, tetrahedron):
        # violation amount is maximized by the witness, with smallest-set
        # tie-breaking: (10,1,1,1) violates on {0} (by 0.575) and on V (0.434)
        adm = check_admissible(tetrahedron, [10.0, 1.0, 1.0, 1.0])
        assert -adm.worst_margin == pytest.approx(10.0 - 3 * math.pi, abs=1e-12)


class TestFeasibilityEngine:
    """The Dinitz phases on the corner tables against the augmenting-path
    flow they replaced (oracle_admissible), and against subset
    enumeration up to 20 vertices."""

    @pytest.mark.parametrize("make, grid, draws", [
        (genus2, None, 3),
        (lambda: torus_grid(4, 5), (4, 5), 1),
        (lambda: torus_grid(6, 6), (6, 6), 3),
        (lambda: torus_grid(8, 8), (8, 8), 2),
        (lambda: torus_grid(16, 16), (16, 16), 1),
    ], ids=["genus2", "torus4x5", "torus6x6", "torus8x8", "torus16x16"])
    def test_same_answers_as_the_oracle(self, make, grid, draws):
        tri = make()
        rng = np.random.default_rng(tri.num_vertices)
        outcomes = collections.Counter()
        for kind, L in feasibility_targets(tri, grid, rng, draws):
            admissible, margin, witness = oracle_admissible(tri, L)
            adm = check_admissible(tri, L)
            assert (adm.admissible, adm.witness) == (admissible, witness), kind
            # within 1e-9, or a few units in the last place of margins near 1e7
            assert adm.worst_margin == pytest.approx(margin, rel=1e-15, abs=1e-9), kind
            assert violating_subset(tri, L) == witness
            if margin == 0.0:
                assert adm.worst_margin == 0.0
            if tri.num_vertices <= 20:  # exact, but ties only up to rounding
                worst, subset = enumerated_admissible(tri, L)
                assert worst == pytest.approx(margin, rel=1e-15, abs=1e-9)
                if abs(worst) > 1e-9:
                    assert (worst > 0.0, None if worst > 0.0 else subset) == (admissible, witness)
            outcome = "admissible" if admissible else "tight" if margin == 0.0 else "violated"
            outcomes[kind, outcome] += 1
        assert {o for _, o in outcomes} == {"admissible", "tight", "violated"}, outcomes

    def test_enumeration_is_the_brute_force(self):
        tri = genus2()
        for kind, L in feasibility_targets(tri, None, np.random.default_rng(3), 1):
            if kind in ("planted", "local", "tight-patch"):
                assert enumerated_admissible(tri, L) == brute_force_admissible(tri, L), kind

    def test_a_global_violation_takes_few_phases(self, monkeypatch):
        # the total is 0.1% above pi |F|, so the witness is all of V; one
        # augmenting path at a time, the old flow took about n^2 steps here
        tri = torus_grid(32, 32)
        L = vertex_curvature_sums(tri, np.random.default_rng(1).normal(0.0, 0.7, 1024))
        L = L * (1.001 * math.pi * 2048 / L.sum())
        searches = []
        levels = surface._levels
        monkeypatch.setattr(surface, "_levels",
                            lambda *a: searches.append(levels(*a)) or searches[-1])
        assert violating_subset(tri, L) == tuple(range(1024))
        phases = sum(top is not None for _, _, top in searches)  # each search that reached room
        assert 0 < phases <= 64

    def test_a_tight_target_on_all_of_v(self):
        # sum Lhat = pi |F| exactly: no vertex is short and only V is
        # tight; the oracle searched from every vertex in turn, which took
        # about 0.1 s at 16x16 and 2.3 s at 32x32
        tri = torus_grid(16, 16)
        L = [2 * math.pi] * 256
        assert check_admissible(tri, L) == Admissibility(*oracle_admissible(tri, L))
        assert check_admissible(tri, L).witness == tuple(range(256))
        tri = torus_grid(32, 32)
        assert check_admissible(tri, [2 * math.pi] * 1024) == \
            Admissibility(False, 0.0, tuple(range(1024)))

    def test_a_target_within_the_flow_tolerances_of_tight(self):
        # 6e-12 over 2 pi at each vertex: above the 1e-12 pi within which a
        # flow counts as 0, below the 1e-12 (pi + Lhat_v) a vertex may stay
        # short, so V is tight for the flow while its direct margin is -1.5e-9
        tri = torus_grid(16, 16)
        L = [2 * math.pi + 6e-12] * 256
        assert check_admissible(tri, L) == Admissibility(*oracle_admissible(tri, L)) \
            == Admissibility(False, 0.0, tuple(range(256)))
        assert violating_subset(tri, L) == tuple(range(256))

    def test_a_flow_that_is_not_maximal_fails_its_check(self, monkeypatch):
        # without the phases the greedy fill leaves vertices short of an
        # admissible target, and what they reach has a positive margin
        tri = torus_grid(4, 4)
        L = vertex_curvature_sums(tri, np.random.default_rng(0).normal(0.0, 0.7, 16))
        assert check_admissible(tri, L).admissible
        monkeypatch.setattr(surface, "_push", lambda *a: 0.0)
        with pytest.raises(RuntimeError, match="the flow gives"):
            check_admissible(tri, L)


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

    @pytest.mark.parametrize("doc, message", [
        ([4, [[0, 1, 2]]], "top level must be an object"),
        ({"num_vertices": 4.0, "faces": []}, "field 'num_vertices' must be an integer, got 4.0"),
        ({"num_vertices": True, "faces": []}, "field 'num_vertices' must be an integer, got True"),
        ({"num_vertices": 4, "faces": {"0": [0, 1, 2]}}, "field 'faces' must be an array"),
        ({"num_vertices": 3, "faces": [[0, 1, 3]]}, "face 0 vertex 3 out of range [0, 3)"),
    ], ids=["top-level", "float-count", "bool-count", "faces-object", "id-range"])
    def test_malformed_triangulation_names_the_file(self, tmp_path, doc, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(f"{p}: {message}")):
            load_triangulation(str(p))

    @pytest.mark.parametrize("doc, message", [
        ({"L": [1.0, 1.0, 1.0, 1.0]}, "missing field 'L_hat'"),
        ([1.0, 1.0, 1.0, 1.0], "missing field 'L_hat'"),
        ({"L_hat": {"0": 1.0}}, "field 'L_hat' must be an array"),
        ({"L_hat": 1.0}, "field 'L_hat' must be an array"),
    ], ids=["missing", "top-level-array", "object", "number"])
    def test_malformed_targets_name_the_file(self, tmp_path, doc, message):
        p = tmp_path / "t.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^{re.escape(f'{p}: {message}')}$"):
            load_targets(str(p), 4)

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
