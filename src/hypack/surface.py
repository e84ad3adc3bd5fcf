"""Combinatorial model of a closed triangulated surface.

Validation (every edge in two faces, single-cycle vertex links,
connectivity), Euler characteristic, and the brute-force feasibility
test for prescribed total geodesic curvatures: a positive target
vector Lhat is admissible iff

    sum_{i in I} Lhat_i  <  pi * |F_I|   for every nonempty I subset V,

where F_I is the set of faces meeting I.  Triangulations are immutable
after construction and all queries are read-only.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Triangulation",
    "Defect",
    "Admissibility",
    "CapacityError",
    "ParseError",
    "check_admissible",
    "euler_characteristic",
    "load_triangulation",
    "load_targets",
]

ADMISSIBILITY_VERTEX_CAP = 25


class CapacityError(RuntimeError):
    """Instance too large for the exhaustive subset check; rely on the
    flow's own divergence diagnostics instead."""


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

    Derived incidence structure (edge set, vertex->face lists, degrees)
    is computed eagerly; construction only rejects structurally
    malformed input (bad arity, out-of-range indices), while closed-
    surface violations are reported as data by validate().
    """

    num_vertices: int
    faces: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    vertex_faces: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __init__(self, num_vertices: int, faces: Sequence[Sequence[int]]):
        if num_vertices <= 0:
            raise ValueError(f"num_vertices must be positive, got {num_vertices}")
        norm = []
        for fi, f in enumerate(faces):
            t = tuple(int(v) for v in f)
            if len(t) != 3:
                raise ValueError(f"face {fi} must have 3 vertices, got {len(t)}")
            for v in t:
                if not 0 <= v < num_vertices:
                    raise ValueError(f"face {fi} vertex {v} out of range [0, {num_vertices})")
            norm.append(t)
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "faces", tuple(norm))
        edge_set = set()
        vf = [[] for _ in range(num_vertices)]
        for fi, (a, b, c) in enumerate(self.faces):
            for u, v in ((a, b), (b, c), (a, c)):
                if u != v:
                    edge_set.add((min(u, v), max(u, v)))
            for v in set((a, b, c)):
                vf[v].append(fi)
        object.__setattr__(self, "edges", tuple(sorted(edge_set)))
        object.__setattr__(self, "vertex_faces", tuple(tuple(x) for x in vf))

    def degree(self, v: int) -> int:
        """Number of faces containing vertex v."""
        return len(self.vertex_faces[v])

    def validate(self) -> list[Defect]:
        """All closed-surface violations, as data (empty list when valid)."""
        defects: list[Defect] = []
        for fi, f in enumerate(self.faces):
            if len(set(f)) != 3:
                defects.append(Defect("repeated_vertex", (fi,),
                                      f"face {fi} = {f} has a repeated vertex"))
        edge_count: dict[tuple[int, int], int] = {}
        for f in self.faces:
            a, b, c = f
            for u, v in ((a, b), (b, c), (a, c)):
                if u != v:
                    e = (min(u, v), max(u, v))
                    edge_count[e] = edge_count.get(e, 0) + 1
        for e, n in sorted(edge_count.items()):
            if n != 2:
                defects.append(Defect("edge_face_count", e,
                                      f"edge {e} lies in {n} faces, expected 2"))
        for v in range(self.num_vertices):
            d = self._link_defect(v)
            if d is not None:
                defects.append(d)
        if self.faces:
            defects.extend(self._connectivity_defects())
        return defects

    def _link_defect(self, v: int) -> Defect | None:
        """The link of v must be a single closed cycle."""
        opposite = []
        for fi in self.vertex_faces[v]:
            rest = [u for u in self.faces[fi] if u != v]
            if len(rest) != 2:
                return Defect("bad_link", (v,), f"vertex {v} lies twice in face {fi}")
            opposite.append(tuple(rest))
        if not opposite:
            return Defect("isolated_vertex", (v,), f"vertex {v} lies in no face")
        neigh: dict[int, list[int]] = {}
        for a, b in opposite:
            neigh.setdefault(a, []).append(b)
            neigh.setdefault(b, []).append(a)
        if any(len(nb) != 2 for nb in neigh.values()):
            return Defect("bad_link", (v,), f"link of vertex {v} is not a closed cycle")
        # connected 2-regular graph with |edges| = |vertices| is one cycle
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

    def _connectivity_defects(self) -> list[Defect]:
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.faces))}
        by_edge: dict[tuple[int, int], list[int]] = {}
        for fi, (a, b, c) in enumerate(self.faces):
            for u, v in ((a, b), (b, c), (a, c)):
                by_edge.setdefault((min(u, v), max(u, v)), []).append(fi)
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
        if len(seen) != len(self.faces):
            return [Defect("disconnected", (),
                           f"face-adjacency graph splits ({len(seen)} of {len(self.faces)} reachable)")]
        return []


def euler_characteristic(tri: Triangulation) -> int:
    return tri.num_vertices - len(tri.edges) + len(tri.faces)


@dataclass(frozen=True)
class Admissibility:
    """Outcome of the feasibility test.

    On violation, witness is the maximally violating subset (ties broken
    by smaller size, then lexicographically); worst_margin is
    min over nonempty I of pi*|F_I| - sum_{i in I} Lhat_i  (> 0 iff
    admissible).
    """

    admissible: bool
    worst_margin: float
    witness: tuple[int, ...] | None = None


def check_admissible(tri: Triangulation, l_hat) -> Admissibility:
    """Exhaustively test sum_{i in I} Lhat_i < pi |F_I| over all subsets.

    Exponential in |V|; guarded at 25 vertices (the map is a submodular
    coverage term minus a modular one, so a polynomial check exists, but
    is not implemented here).
    """
    L = np.asarray(l_hat, dtype=float)
    n = tri.num_vertices
    if L.shape != (n,):
        raise ValueError(f"expected {n} target entries, got shape {L.shape}")
    if not np.all(L > 0.0):
        bad = int(np.argmin(L))
        raise ValueError(f"target curvatures must be positive; entry {bad} is {L[bad]}")
    if n > ADMISSIBILITY_VERTEX_CAP:
        raise CapacityError(
            f"subset enumeration is capped at {ADMISSIBILITY_VERTEX_CAP} vertices "
            f"(got {n}); run the flow and use its divergence diagnostics")

    face_masks = np.array([(1 << a) | (1 << b) | (1 << c) for a, b, c in tri.faces],
                          dtype=np.int64)
    best_margin = math.inf
    best_masks: list[int] = []
    chunk_bits = 20
    total = 1 << n
    for start in range(1, total, 1 << chunk_bits):
        stop = min(start + (1 << chunk_bits), total)
        masks = np.arange(start, stop, dtype=np.int64)
        sums = np.zeros(len(masks))
        for i in range(n):
            sums += L[i] * ((masks >> i) & 1)
        f_count = np.zeros(len(masks))
        for fm in face_masks:
            f_count += (masks & fm) != 0
        margins = math.pi * f_count - sums
        lo = float(margins.min())
        if lo < best_margin:
            best_margin = lo
            best_masks = [int(m) for m in masks[margins == lo]]
        elif lo == best_margin:
            best_masks.extend(int(m) for m in masks[margins == lo])
    if best_margin > 0.0:
        return Admissibility(admissible=True, worst_margin=best_margin)
    witness = min((_mask_to_subset(m) for m in best_masks),
                  key=lambda t: (len(t), t))
    return Admissibility(admissible=False, worst_margin=best_margin, witness=witness)


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


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
        out[i] = float(v)
    return out


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
