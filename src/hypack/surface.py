"""Combinatorial model of a closed triangulated surface.

Validation (no repeated vertex in a face, every edge in two faces,
single-cycle vertex links, connectivity: array masks over the edge table
and the corner order that the constructor builds, and one components
routine for links and faces), Euler characteristic, and the test for
prescribed total geodesic curvatures: a positive target vector Lhat is
admissible iff

    sum_{i in I} Lhat_i  <  pi * |F_I|   for every nonempty I subset V,

where F_I is the set of faces meeting I.  The test is one maximum flow
from the vertices to the faces, exact at every size: Dinitz phases on
corner tables built on the first call, then a linear-time witness.
Triangulations are immutable: what the constructor does not build
(faces as tuples, edges, vertex_faces, the defects, the solvers' tables)
is derived on first read and kept.  All queries are read-only.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
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


# the corners at the two ends of a face's pairs (0, 1), (1, 2), (0, 2),
# the order of the edge table's pairs and of face_kernel's J_pair columns
_PAIR_ENDS = ((0, 1, 0), (1, 2, 2))
_PAIRS = tuple(zip(*_PAIR_ENDS))

# the most vertices whose edge keys u n + w (and Hessian keys) fit in intp
_MAX_VERTICES = math.isqrt(np.iinfo(np.intp).max)


@dataclass(frozen=True, eq=False, repr=False)
class Triangulation:
    """Closed triangulated surface: vertex count plus face triples.

    The constructor keeps face_array, the one face table, and builds the
    two tables from which every incidence structure derives.  The edge
    table is one np.unique over the sorted corner-pair keys of face_array,
    pairs (0, 1), (1, 2), (0, 2) of each face in face order.  Its entries
    (slots) are the keys (u, w), u <= w; _pair_slot is the slot of each
    face's pairs, (3F,), _slot_ends the (2, S) ends of each slot,
    _slot_count the number of pairs on it (a face with a repeated vertex
    may lie twice on a slot), and a (u, u) slot only links faces.  The
    corner order is one stable argsort of the flat corners 3 f + c, one
    per face at each of its vertices (its first corner there):
    _vertex_corners, by vertex, then by face, with vertex v's run from
    _vertex_stops[v] to _vertex_stops[v + 1].  All arrays are read-only.
    faces (face_array's rows as tuples of Python ints), edges (the slots
    with u != w), vertex_faces (the runs // 3), the defects and the
    solvers' tables are derived from these on first read and then kept.
    Construction only rejects malformed input (bad arity, vertex ids that
    are not integers or out of range, over _MAX_VERTICES vertices);
    validate() reports closed-surface violations as data.  Equality and
    hashing read num_vertices and face_array, which determine the rest.
    """

    num_vertices: int
    face_array: np.ndarray

    def __init__(self, num_vertices: int, faces: Sequence[Sequence[int]]):
        n = _count(num_vertices, "num_vertices", 1)
        if n > _MAX_VERTICES:
            raise ValueError(f"num_vertices must be at most {_MAX_VERTICES}, got {n}")
        f = _face_table(faces, n)
        a, b = f[:, _PAIR_ENDS[0]].ravel(), f[:, _PAIR_ENDS[1]].ravel()
        keys, slot, count = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                      return_inverse=True, return_counts=True)
        # each face once at each of its vertices: a corner that repeats an
        # earlier one of its face is dropped
        distinct = np.ones(f.shape, dtype=bool)
        distinct[:, 1] = f[:, 1] != f[:, 0]
        distinct[:, 2] = (f[:, 2] != f[:, 0]) & (f[:, 2] != f[:, 1])
        corner = f[distinct]
        corners = np.flatnonzero(distinct)[np.argsort(corner, kind="stable")]
        stops = np.concatenate(([0], np.cumsum(np.bincount(corner, minlength=n))))
        tables = dict(num_vertices=n, face_array=f, _pair_slot=slot,
                      _slot_ends=np.stack(np.divmod(keys, n)), _slot_count=count,
                      _vertex_corners=corners, _vertex_stops=stops)
        for name, value in tables.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_vertices == other.num_vertices
                and np.array_equal(self.face_array, other.face_array))

    def __hash__(self):
        return hash((self.num_vertices, self.face_array.tobytes()))

    def __repr__(self):
        return f"Triangulation(num_vertices={self.num_vertices!r}, faces={self.faces!r})"

    @functools.cached_property
    def faces(self) -> tuple[tuple[int, int, int], ...]:
        """Each face as a tuple of three Python ints, in face order."""
        return tuple(map(tuple, self.face_array.tolist()))

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The slots (u, w) with u != w, sorted."""
        u, w = self._slot_ends
        proper = u != w
        return tuple(zip(u[proper].tolist(), w[proper].tolist()))

    @functools.cached_property
    def vertex_faces(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's faces, in face order, once each."""
        by_vertex, cuts = (self._vertex_corners // 3).tolist(), self._vertex_stops.tolist()
        return tuple(tuple(by_vertex[i:j]) for i, j in zip(cuts, cuts[1:]))

    def degree(self, v: int) -> int:
        """Number of faces containing vertex v."""
        v = range(self.num_vertices)[_index(v)]
        return int(self._vertex_stops[v + 1] - self._vertex_stops[v])

    def validate(self) -> list[Defect]:
        """All closed-surface violations, as data (empty list when valid):
        found on the first call, a fresh list on every call."""
        return list(self._defects)

    @functools.cached_property
    def _corner_table(self) -> tuple:
        """Each vertex's (face f, flat corner 3 f + its first corner in f)
        in vertex_faces order, and each flat corner's vertex."""
        k, cuts = self._vertex_corners, self._vertex_stops.tolist()
        pairs = list(zip((k // 3).tolist(), k.tolist()))
        return (tuple(pairs[i:j] for i, j in zip(cuts, cuts[1:])),
                self.face_array.ravel().tolist())

    @functools.cached_property
    def _hessian_index(self) -> tuple:
        """Read-only: the COO index (rows, cols) of the Hessian's entries
        (packing._hessian_entries), every slot (u, w) as (u, w), then as
        (w, u), then the diagonal, and rows * n + cols."""
        n, (u, w), diag = self.num_vertices, self._slot_ends, np.arange(self.num_vertices)
        rows, cols = np.concatenate((u, w, diag)), np.concatenate((w, u, diag))
        index = (rows, cols, rows * n + cols)
        for arr in index:
            arr.flags.writeable = False
        return index

    @functools.cached_property
    def _defects(self) -> tuple[Defect, ...]:
        """The four checks, as array masks over the edge table and the
        components (_components) of the corner graph and of the faces; a
        Python loop runs only over what a mask flags."""
        n, f = self.num_vertices, self.face_array
        (u, w), count, slot = self._slot_ends, self._slot_count, self._pair_slot
        repeated = np.flatnonzero((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2])
                                  | (f[:, 0] == f[:, 2])).tolist()
        rows = f[repeated].tolist()  # Python ints, which print as such
        defects = [Defect("repeated_vertex", (fi,), f"face {fi} = {tuple(r)} has a repeated vertex")
                   for fi, r in zip(repeated, rows)]
        unpaired = (count != 2) & (u != w)
        defects += [Defect("edge_face_count", e, f"edge {e} lies in {c} faces, expected 2")
                    for e, c in zip(zip(u[unpaired].tolist(), w[unpaired].tolist()),
                                    count[unpaired].tolist())]

        # the pairs on one slot, consecutive in slot order: p[i] and q[i]
        # share a slot
        order = np.argsort(slot, kind="stable")
        same = slot[order[1:]] == slot[order[:-1]]
        p, q = order[:-1][same], order[1:][same]
        # the corner graph joins the corners of p[i] and q[i] at each common
        # end; at a vertex that lies once in each of its faces and whose
        # edges each lie in two faces, its corners form one component per
        # cycle of its link (and none at a vertex in no face)
        at = f.ravel()
        pair_corners = (3 * np.arange(len(f))[:, None, None] + np.array(_PAIRS)).reshape(-1, 2)
        a, b = pair_corners.take(p, axis=0), pair_corners.take(q, axis=0)  # faster than [p]
        b = np.where(at[a[:, :1]] == at[b[:, :1]], b, b[:, ::-1])
        label = _components(len(at), a.ravel(), b.ravel())
        cycles = np.bincount(at[label == np.arange(len(at))], minlength=n)
        twice: dict[int, int] = {}  # vertex -> the first face it lies twice in
        for fi, r in zip(repeated, rows):
            for v in r:
                if r.count(v) > 1:
                    twice.setdefault(v, fi)
        is_open = np.zeros(n, dtype=bool)
        is_open[u[unpaired]] = is_open[w[unpaired]] = True
        flagged = set(np.flatnonzero((cycles != 1) | is_open).tolist()) | twice.keys()
        for v in sorted(flagged):
            if cycles[v] == 0:
                defects.append(Defect("isolated_vertex", (v,), f"vertex {v} lies in no face"))
            elif v in twice:
                defects.append(Defect("bad_link", (v,), f"vertex {v} lies twice in face {twice[v]}"))
            elif is_open[v]:
                defects.append(Defect("bad_link", (v,), f"link of vertex {v} is not a closed cycle"))
            else:
                defects.append(Defect("bad_link", (v,),
                                      f"link of vertex {v} splits into several cycles"))

        if len(f):
            label = _components(len(f), p // 3, q // 3)
            reached = int(np.count_nonzero(label == label[0]))
            if reached != len(f):
                defects.append(Defect("disconnected", (), f"face-adjacency graph splits "
                                      f"({reached} of {len(f)} reachable)"))
        return tuple(defects)


def _components(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least node of each node's component, for `size` nodes and the
    undirected edges (a[i], b[i]).  Every label is a root, a node that
    labels itself; each round hooks the larger root of every edge to the
    smaller (np.minimum.at settles clashes), then pointer jumping makes
    every label a root again (Shiloach & Vishkin, J. Algorithms 3, 1982).
    A round that changes nothing leaves the ends of every edge alike."""
    label = np.arange(size)
    while True:
        la, lb = label[a], label[b]
        hooked = label.copy()
        np.minimum.at(hooked, la, lb)
        np.minimum.at(hooked, lb, la)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def euler_characteristic(tri: Triangulation) -> int:
    u, w = tri._slot_ends
    return tri.num_vertices - int(np.count_nonzero(u != w)) + len(tri.face_array)


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
    and at every size, by a maximum flow (_max_flow): source -> vertex v
    (capacity Lhat_v) -> each face at v (unbounded) -> sink (capacity pi),
    where the cut holding the vertex set I costs sum(Lhat) + margin(I).
    The worst margin over the sets holding v is what v can still send in
    its turn, at most the singletons' and V's margins; v then leaves the
    network, so each set is searched once, from its smallest vertex."""
    targets, x, room, witness, margin = _max_flow(tri, l_hat)
    if witness is not None:
        return Admissibility(admissible=False, worst_margin=margin, witness=witness)
    by_vertex, at = tri._corner_table
    best = min([math.pi * len(pairs) - t for pairs, t in zip(by_vertex, targets)]
               + [math.pi * len(room) - math.fsum(targets)])
    for v, pairs in enumerate(by_vertex):
        sent = sum(room[f] for f, _ in pairs)
        for f, k in pairs:  # v fills its faces' room first
            x[k], room[f] = x[k] + room[f], 0.0
        if sent < best:
            best = min(best, sent + _push(by_vertex, at, x, room, {v: best - sent}))
        for f, k in pairs:  # v leaves; the other vertices stay saturated
            room[f], x[k] = room[f] + x[k], 0.0
    return Admissibility(admissible=True, worst_margin=best)


def violating_subset(tri: Triangulation, l_hat) -> tuple[int, ...] | None:
    """check_admissible's witness (None when admissible), without its margin search."""
    return _max_flow(tri, l_hat)[3]


def _index(value) -> int:
    """operator.index(value), which a bool fails too (TypeError)."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def _face_table(faces, n: int) -> np.ndarray:
    """A new read-only (F, 3) intp array of faces whose ids lie in [0, n).
    An (F, 3) integer array, cast to intp, or faces of three Python or
    numpy ints pass by one vectorized range check; anything else, or an id
    out of range (also one that the cast wraps), goes through the
    face-by-face loop (_normalized), which names the first bad face."""
    f = None
    if isinstance(faces, np.ndarray) and faces.dtype.kind in "iu" and faces.shape[1:] == (3,):
        f = faces.astype(np.intp)
    elif not isinstance(faces, (list, tuple)):
        faces = list(faces)
    try:
        if f is None and not set(map(len, faces)) - {3}:
            types = set(map(type, itertools.chain.from_iterable(faces)))
            if all(t is int or issubclass(t, np.integer) for t in types):
                f = np.fromiter(itertools.chain.from_iterable(faces), dtype=np.intp,
                                count=3 * len(faces)).reshape(-1, 3)
    except (TypeError, OverflowError):  # a face without a length, or a huge id
        f = None
    if f is None or (f.size and not (f.min() >= 0 and f.max() < n)):
        f = np.array(_normalized(faces, n), dtype=np.intp).reshape(-1, 3)
    f.flags.writeable = False
    return f


def _normalized(faces, n: int) -> list[tuple[int, int, int]]:
    """Each face as a tuple of three ints in [0, n), through _index, or
    ValueError naming the first face that is not."""
    norm = []
    for fi, f in enumerate(faces):
        try:
            t = tuple(map(_index, f))
        except TypeError:
            raise ValueError(f"face {fi} vertex ids must be integers, got {f!r}") from None
        if len(t) != 3:
            raise ValueError(f"face {fi} must have 3 vertices, got {len(t)}")
        for v in t:
            if not 0 <= v < n:
                raise ValueError(f"face {fi} vertex {v} out of range [0, {n})")
        norm.append(t)
    return norm


def _count(value, name: str, least: int) -> int:
    """_index(value) when it is at least `least`, else ValueError naming it."""
    try:
        n = _index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return n


def _per_vertex(tri: Triangulation, values, name: str) -> np.ndarray:
    """values as a float array, or ValueError naming `name` if its shape is
    not (n,): the one shape check of a state, target or rate."""
    a = np.asarray(values, dtype=float)
    if a.shape != (tri.num_vertices,):
        raise ValueError(f"expected {tri.num_vertices} {name} entries, got shape {a.shape}")
    return a


def _checked_targets(tri: Triangulation, l_hat) -> np.ndarray:
    """_per_vertex(tri, l_hat, "target"), or ValueError naming the first
    entry that is not positive and finite (_checked_list)."""
    L = _per_vertex(tri, l_hat, "target")
    if not (0.0 < L.min() and L.max() < math.inf):  # a NaN fails both
        _checked_list(L.tolist())
    return L


def _checked_list(targets: list) -> list:
    """targets, or ValueError naming the first entry that is not positive
    and finite.  _max_flow checks the list it routes here, not its array:
    on a small surface, numpy's min and max cost more than this loop."""
    for i, v in enumerate(targets):
        if not 0.0 < v < math.inf:  # a NaN fails it
            raise ValueError(f"target curvatures must be positive and finite; entry {i} is {v}")
    return targets


_TOL = 1e-12 * math.pi  # flows and rooms (at most pi) within it count as 0


def _max_flow(tri: Triangulation, l_hat):
    """Route the targets on the corner tables (flat corner k = 3 f + c
    takes x[k] from its vertex, face f passes up to room[f] more to the
    sink): a greedy fill, face by face, then Dinitz phases (_push) from the
    vertices it leaves short of more than 1e-12 (pi + Lhat_v).  Returns
    (targets, x, room, witness, margin): the reach of the vertices still
    short, or else the smallest tight set, checked by pi |F_W| - sum_W Lhat
    up to what the tolerances leave: short_tol[v] unsent from each vertex,
    and at each face _TOL of room and of two corners' flow from outside W."""
    targets = _checked_list(_per_vertex(tri, l_hat, "target").tolist())
    by_vertex, at = tri._corner_table
    x, room, need = [0.0] * len(at), [math.pi] * len(tri.face_array), targets.copy()
    for k, v in enumerate(at):
        f = k // 3
        x[k] = d = min(room[f], need[v])
        room[f] -= d
        need[v] -= d
    short_tol = [1e-12 * (math.pi + v) for v in targets]
    missing = {v: d for v, d in enumerate(need) if d > short_tol[v]}
    _push(by_vertex, at, x, room, missing)
    short = [v for v, d in missing.items() if d > short_tol[v]]
    margin = 0.0 - sum(missing[v] for v in short)  # +0.0 on a tight set
    witness = (tuple(sorted(_levels(by_vertex, at, x, room, short)[0])) if short
               else _tight_set(by_vertex, at, x, room))
    if witness is not None:
        faces = {f for v in witness for f, _ in by_vertex[v]}
        direct = math.pi * len(faces) - math.fsum(targets[v] for v in witness)
        slack = sum(short_tol[v] for v in witness) + 3 * _TOL * len(faces)
        if abs(direct - margin) > 1e-9 * (1.0 + abs(margin)) + slack:
            raise RuntimeError(f"witness {witness}: the flow gives {margin!r}, the sums {direct!r}")
    return targets, x, room, witness, margin


def _push(by_vertex, at, x, room, need: dict) -> float:
    """Send up to need[v] more from each vertex v of `need` (lowered in
    place) in Dinitz phases (Soviet Math. Dokl. 11, 1970): _levels sets
    the levels, then a blocking flow searches depth first, iteratively,
    down them from each face with room at the top, with a current arc per
    vertex and per face; dead ends and met starts leave the phase.
    Returns the amount sent."""
    tol, sent = _TOL, 0.0
    while True:
        starts = [v for v, d in need.items() if d > tol]
        level, face_level, top = _levels(by_vertex, at, x, room, starts)
        if top is None:
            return sent
        at_vertex, at_face, live = dict.fromkeys(level, 0), {}, len(starts)
        for t, f, k in [(t, f, k) for t in top for f, k in by_vertex[t] if room[f] > tol]:
            path = [(t, k, k)]  # (w, corners of the vertex before w and of w in their face)
            while live and path and room[f] > tol:
                u = path[-1][0]
                down = level[u] - 1
                if down == -1 and need[u] > tol:
                    d = min(need[u], room[f], *[x[j] for _, j, _ in path[1:]])
                    room[f] -= d
                    x[k] += d
                    for _, j, c in path[1:]:
                        x[j] -= d
                        x[c] += d
                    need[u] -= d
                    sent += d
                    live -= need[u] <= tol
                    del path[1:]
                    continue
                pairs, a = by_vertex[u], at_vertex[u]
                while down >= 0 and a < len(pairs):
                    g, j = pairs[a]
                    if x[j] > tol and face_level.get(g) == down:
                        c, end = at_face.get(g, 3 * g), 3 * g + 3
                        while c < end and level.get(at[c]) != down:
                            c += 1
                        at_face[g] = c
                        if c < end:
                            break
                    a += 1
                at_vertex[u] = a
                if down >= 0 and a < len(pairs):
                    path.append((at[c], j, c))
                    continue
                level[u] = -1  # a dead end for the rest of the phase
                path.pop()


def _levels(by_vertex, at, x, room, starts):
    """Breadth-first residual search from all of `starts` at once: a vertex
    reaches its faces, each searched once, a face the vertices it can hand
    flow back to.  Returns the vertices' and the faces' levels, and the
    vertices of the first level that has a face with room (or None)."""
    tol = _TOL
    level, face_level, frontier, depth = dict.fromkeys(starts, 0), {}, starts, 0
    while frontier:
        reached, up = [], depth + 1
        for u in frontier:
            for f, _ in by_vertex[u]:
                if f in face_level:
                    continue
                if room[f] > tol:
                    return level, face_level, frontier
                face_level[f] = depth
                for j in range(3 * f, 3 * f + 3):
                    if x[j] > tol and at[j] not in level:
                        level[at[j]] = up
                        reached.append(at[j])
        frontier, depth = reached, up
    return level, face_level, None


def _tight_set(by_vertex, at, x, room) -> tuple[int, ...] | None:
    """The smallest tight set (margin 0: closed under residual arcs) of a
    flow that leaves no vertex short, or None: the smallest terminal
    strongly connected component among the vertices with no residual path
    to the sink (Tarjan, SIAM J. Comput. 1, 1972), by size, then by tuple."""
    # backwards from the faces with room: a face that hands u flow back takes
    # in its vertices; each face once (taken), until every vertex is in
    taken = {f for f, r in enumerate(room) if r > _TOL}
    to_sink = {at[j] for f in taken for j in range(3 * f, 3 * f + 3)}
    stack = list(to_sink)
    while stack and len(to_sink) < len(by_vertex):
        for f, k in by_vertex[stack.pop()]:
            if x[k] > _TOL and f not in taken:
                taken.add(f)
                new = [w for w in at[3 * f:3 * f + 3] if w not in to_sink]
                stack += new
                to_sink.update(new)
    succ = {u: [at[j] for f, _ in by_vertex[u] for j in range(3 * f, 3 * f + 3) if x[j] > _TOL]
            for u in range(len(by_vertex)) if u not in to_sink}
    index, low, comp, comps = {}, {}, {}, []
    for root in succ:
        work = [] if root in index else [(root, 0)]
        while work:  # (u, i): the arcs of u before its i-th are done
            u, i = work.pop()
            if i == 0:
                index[u] = low[u] = len(index)
                stack.append(u)
            elif succ[u][i - 1] not in comp:  # still on the stack
                low[u] = min(low[u], low[succ[u][i - 1]])
            if i < len(succ[u]):
                work.append((u, i + 1))
                if succ[u][i] not in index:
                    work.append((succ[u][i], 0))
            elif low[u] == index[u]:  # the stack holds vertices in search order
                i = bisect.bisect_left(stack, index[u], key=index.get)
                comp.update(dict.fromkeys(stack[i:], len(comps)))
                comps.append(stack[i:])
                del stack[i:]
    terminal = [tuple(sorted(c)) for i, c in enumerate(comps)
                if all(comp[w] == i for u in c for w in succ[u])]
    return min(terminal, key=lambda t: (len(t), t), default=None)


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
        out[i] = _json_float(v, f"{path}: field 'L_hat[{i}]'")
    return out


def _json_float(v, where: str) -> float:
    """float(v) of a JSON number v, or ParseError naming `where` if that is not
    finite: an integer beyond the float range, 1e400 (read as inf), Infinity, NaN."""
    try:
        x = float(v)
    except OverflowError:  # a JSON integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{where} is not a finite number within the float range")
    return x


def _load_json(path: str):
    import json  # here, so that building and validating a surface does not load it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # UnicodeDecodeError, or the integer digit limit
        raise ParseError(f"{path}: {exc}") from exc
