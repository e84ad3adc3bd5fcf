"""Combinatorial model of a closed triangulated surface.

Validation (no repeated vertex in a face, every edge in two faces,
single-cycle vertex links, connectivity, all read from one edge ->
faces table), Euler characteristic, and the feasibility test for
prescribed total geodesic curvatures: a positive target vector Lhat is
admissible iff

    sum_{i in I} Lhat_i  <  pi * |F_I|   for every nonempty I subset V,

where F_I is the set of faces meeting I.  The test is one maximum flow
from the vertices to the faces, exact at every surface size.
Triangulations are immutable after construction and all queries are
read-only.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Triangulation",
    "Defect",
    "Admissibility",
    "ParseError",
    "check_admissible",
    "violating_subset",
    "euler_characteristic",
    "load_triangulation",
    "load_targets",
]

class ParseError(ValueError):
    """Input document malformed; message carries line/field location."""


@dataclass(frozen=True)
class Defect:
    kind: str
    location: tuple
    message: str

    def __str__(self):
        return f"[{self.kind}] at {self.location}: {self.message}"


@dataclass(frozen=True)
class Triangulation:
    """Closed triangulated surface: vertex count plus face triples.

    Derived incidence structure (the edge -> faces table, the edge set,
    vertex->face lists, the read-only (F, 3) intp face_array) is computed
    eagerly; construction only rejects structurally malformed input (bad
    arity, vertex ids that are not integers or out of range), while
    closed-surface violations are reported as data by validate(),
    computed on its first call from the edge table.  Every attribute is
    set in __init__, so that instances keep one attribute layout.
    """

    num_vertices: int
    faces: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    vertex_faces: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    face_array: np.ndarray = field(init=False, repr=False, compare=False)
    # edge (u, w), u <= w -> the face of each side on it, in face order (a
    # face with a repeated vertex may appear twice); a (u, u) key only links faces
    _edge_faces: dict[tuple[int, int], list[int]] = field(init=False, repr=False, compare=False)
    _defects: tuple[Defect, ...] | None = field(init=False, repr=False, compare=False)

    def __init__(self, num_vertices: int, faces: Sequence[Sequence[int]]):
        num_vertices = _count(num_vertices, "num_vertices", 1)
        norm = []
        for fi, f in enumerate(faces):
            try:
                t = tuple(map(_index, f))
            except TypeError:
                raise ValueError(f"face {fi} vertex ids must be integers, got {f!r}") from None
            if len(t) != 3:
                raise ValueError(f"face {fi} must have 3 vertices, got {len(t)}")
            for v in t:
                if not 0 <= v < num_vertices:
                    raise ValueError(f"face {fi} vertex {v} out of range [0, {num_vertices})")
            norm.append(t)
        table: dict[tuple[int, int], list[int]] = {}
        vf = [[] for _ in range(num_vertices)]
        for fi, (a, b, c) in enumerate(norm):
            for u, w in ((a, b), (b, c), (a, c)):
                table.setdefault((u, w) if u < w else (w, u), []).append(fi)
            for v in set((a, b, c)):
                vf[v].append(fi)
        f = np.array(norm, dtype=np.intp).reshape(-1, 3)
        f.flags.writeable = False
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "faces", tuple(norm))
        object.__setattr__(self, "edges", tuple(sorted(e for e in table if e[0] != e[1])))
        object.__setattr__(self, "vertex_faces", tuple(tuple(x) for x in vf))
        object.__setattr__(self, "face_array", f)
        object.__setattr__(self, "_edge_faces", table)
        object.__setattr__(self, "_defects", None)

    def degree(self, v: int) -> int:
        """Number of faces containing vertex v."""
        return len(self.vertex_faces[v])

    def validate(self) -> list[Defect]:
        """All closed-surface violations, as data (empty list when valid):
        found on the first call, a fresh list on every call."""
        if self._defects is None:
            object.__setattr__(self, "_defects", self._find_defects())
        return list(self._defects)

    def _find_defects(self) -> tuple[Defect, ...]:
        table, faces = self._edge_faces, self.faces
        defects = [Defect("repeated_vertex", (fi,), f"face {fi} = {f} has a repeated vertex")
                   for fi, f in enumerate(faces) if len(set(f)) != 3]
        defects += [Defect("edge_face_count", e,
                           f"edge {e} lies in {len(table[e])} faces, expected 2")
                    for e in self.edges if len(table[e]) != 2]
        defects += filter(None, map(self._link_defect, range(self.num_vertices)))

        def across(fi):  # the faces that share an edge table entry with face fi
            a, b, c = faces[fi]
            return [g for u, w in ((a, b), (b, c), (a, c))
                    for g in table[(u, w) if u < w else (w, u)]]

        reached = len(_reach([0], across)) if faces else 0
        if reached != len(faces):
            defects.append(Defect("disconnected", (), f"face-adjacency graph splits "
                                  f"({reached} of {len(faces)} reachable)"))
        return tuple(defects)

    def _link_defect(self, v: int) -> Defect | None:
        """The link of v must be a single closed cycle: every edge at v lies
        in two faces, and the walk around v, face to face across those
        edges, comes back to its first face through every face at v."""
        at_v, faces, table = self.vertex_faces[v], self.faces, self._edge_faces
        if not at_v:
            return Defect("isolated_vertex", (v,), f"vertex {v} lies in no face")
        for fi in at_v:
            if faces[fi].count(v) != 1:
                return Defect("bad_link", (v,), f"vertex {v} lies twice in face {fi}")
        if any(len(table[(u, v) if u < v else (v, u)]) != 2
               for fi in at_v for u in faces[fi] if u != v):
            return Defect("bad_link", (v,), f"link of vertex {v} is not a closed cycle")
        f = at_v[0]
        u = next(w for w in faces[f] if w != v)
        for walked in range(1, len(at_v) + 1):
            g, h = table[(u, v) if u < v else (v, u)]
            f = h if g == f else g
            if f == at_v[0]:
                break
            u = next(w for w in faces[f] if w != v and w != u)
        if walked != len(at_v):
            return Defect("bad_link", (v,), f"link of vertex {v} splits into several cycles")
        return None


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


def euler_characteristic(tri: Triangulation) -> int:
    return tri.num_vertices - len(tri.edges) + len(tri.faces)


@dataclass(frozen=True)
class Admissibility:
    """Outcome of the feasibility test.

    worst_margin is min over nonempty I of pi*|F_I| - sum_{i in I} Lhat_i
    (> 0 iff admissible).  On violation, witness is the smallest set
    attaining it (ties broken by smaller size, then lexicographically).
    """

    admissible: bool
    worst_margin: float
    witness: tuple[int, ...] | None = None


def check_admissible(tri: Triangulation, l_hat) -> Admissibility:
    """Test sum_{i in I} Lhat_i < pi |F_I| for every nonempty I, exactly
    and at every size, by a maximum flow: source -> vertex v (capacity
    Lhat_v) -> each face at v (unbounded) -> sink (capacity pi).  The cut
    holding the vertex set I costs sum(Lhat) + margin(I).  The worst
    margin over the sets holding v is the extra flow v can still send.
    The search runs on the one flow: after its turn v leaves the network,
    so each set is searched once, from its smallest vertex."""
    x, room, tol, witness, margin = _max_flow(tri, l_hat)
    if witness is not None:
        return Admissibility(admissible=False, worst_margin=margin, witness=witness)
    best = math.inf
    for v in range(tri.num_vertices):
        best = min(best, _augment(tri, x, room, v, best, tol))
        for f in tri.vertex_faces[v]:  # the other vertices stay saturated
            for c, w in enumerate(tri.faces[f]):
                if w == v:
                    room[f] += x[f][c]
                    x[f][c] = 0.0
    return Admissibility(admissible=True, worst_margin=best)


def violating_subset(tri: Triangulation, l_hat) -> tuple[int, ...] | None:
    """check_admissible's witness (None when admissible), without its margin search."""
    return _max_flow(tri, l_hat)[3]


def _index(value) -> int:
    """operator.index(value), which a bool fails too (TypeError)."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def _count(value, name: str, least: int) -> int:
    """_index(value) when it is at least `least`, else ValueError naming it."""
    try:
        n = _index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return n


def _checked_targets(tri: Triangulation, l_hat) -> np.ndarray:
    """l_hat as a float array, or ValueError naming the first entry that is
    not positive and finite, or the wrong shape."""
    L = np.asarray(l_hat, dtype=float)
    if L.shape != (tri.num_vertices,):
        raise ValueError(f"expected {tri.num_vertices} target entries, got shape {L.shape}")
    ok = (L > 0.0) & (L < math.inf)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        raise ValueError(f"target curvatures must be positive and finite; entry {bad} is {L[bad]}")
    return L


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


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_triangulation(path: str) -> Triangulation:
    """Read a triangulation document: JSON with fields
    num_vertices (int) and faces (array of 3-element 0-based int arrays)."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("num_vertices", "faces"):
        if key not in doc:
            raise ParseError(f"{path}: missing field '{key}'")
    nv = doc["num_vertices"]
    if not isinstance(nv, int) or isinstance(nv, bool):
        raise ParseError(f"{path}: field 'num_vertices' must be an integer, got {nv!r}")
    faces = doc["faces"]
    if not isinstance(faces, list):
        raise ParseError(f"{path}: field 'faces' must be an array")
    for i, f in enumerate(faces):
        if (not isinstance(f, list) or len(f) != 3
                or any(not isinstance(v, int) or isinstance(v, bool) for v in f)):
            raise ParseError(f"{path}: field 'faces[{i}]' must be 3 integers, got {f!r}")
    try:
        return Triangulation(nv, faces)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_targets(path: str, num_vertices: int) -> np.ndarray:
    """Read a target document: JSON with field L_hat (array of positive
    decimals of length num_vertices)."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "L_hat" not in doc:
        raise ParseError(f"{path}: missing field 'L_hat'")
    arr = doc["L_hat"]
    if not isinstance(arr, list):
        raise ParseError(f"{path}: field 'L_hat' must be an array")
    if len(arr) != num_vertices:
        raise ParseError(
            f"{path}: field 'L_hat' has {len(arr)} entries, expected {num_vertices}")
    out = np.empty(num_vertices)
    for i, v in enumerate(arr):
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not v > 0:
            raise ParseError(f"{path}: field 'L_hat[{i}]' must be a positive number, got {v!r}")
        try:
            out[i] = float(v)
        except OverflowError:  # a JSON integer beyond the float range
            raise ParseError(f"{path}: field 'L_hat[{i}]' exceeds the float range") from None
    return out


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # UnicodeDecodeError, or the integer digit limit
        raise ParseError(f"{path}: {exc}") from exc
