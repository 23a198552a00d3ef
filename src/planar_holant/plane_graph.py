"""Plane multigraphs as rotation systems.

A dart is half an edge; ``twin`` pairs the two halves and every vertex
carries its darts in counterclockwise cyclic order.  Faces are the orbits
of the successor map next(d) = ccw-next dart after twin(d) at the vertex
of twin(d); with counterclockwise rotations this walks each face once.
Genus 0 is enforced per connected component through Euler's formula, so a
validated graph really is a plane (multi)graph.  Self-loops and parallel
edges are allowed throughout.

Edges are identified by the smaller dart id of the pair; faces by the
smallest dart id on their boundary.  Embeddings live on the sphere: no
outer face is distinguished, and consumers that need one (matching
reductions, the orientation sweep) pick a face themselves.

Validation builds each dart's ccw successor at its vertex (ccw_next)
and walks every face once on it, for Euler's formula, and the graph keeps
both: next_dart, faces(), face_of, the bridges and the canonical form
read them, and a FaceKernel starts from a copy of them.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


class GraphError(ValueError):
    pass


class NonInvolutionTwin(GraphError):
    pass


class DartMissingFromRotation(GraphError):
    pass


class NonPlanarEmbedding(GraphError):
    pass


class NotCubic(GraphError):
    pass


class UnknownEdge(GraphError):
    pass


class Face(NamedTuple):
    id: int                    # smallest dart id on the boundary
    boundary: Tuple[int, ...]  # dart orbit, cyclic


class PlaneGraph:
    """Immutable validated plane multigraph.

    twin: dict dart -> dart; vertex_of: dict dart -> vertex;
    rotation: dict vertex -> tuple of darts in ccw order.  The ccw
    successors, faces and components that validation finds are kept.
    """

    def __init__(self, twin: Dict[int, int], vertex_of: Dict[int, int],
                 rotation: Dict[int, Tuple[int, ...]]):
        self.twin = dict(twin)
        self.vertex_of = dict(vertex_of)
        self.rotation = {v: tuple(r) for v, r in rotation.items()}
        self._validate()

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        twin, vertex_of = self.twin, self.vertex_of
        for d, t in twin.items():
            if t == d or t not in twin or twin[t] != d:
                raise NonInvolutionTwin(f"dart {d}")
        self.ccw_next = succ = {}   # dart -> ccw-next dart at its vertex
        for v, rot in self.rotation.items():
            for i, d in enumerate(rot):
                if d in succ or d not in twin:
                    raise DartMissingFromRotation(f"dart {d} at vertex {v}")
                if vertex_of.get(d) != v:
                    raise DartMissingFromRotation(
                        f"dart {d} listed at {v} but owned by {vertex_of.get(d)}")
                succ[d] = rot[i + 1 - len(rot)]
        if len(succ) != len(twin):
            missing = set(twin) - set(succ)
            raise DartMissingFromRotation(f"darts {sorted(missing)[:5]} in no rotation")
        # the faces, as next_dart walks them: each orbit from its smallest
        # dart, in order of that dart
        self._faces: List[Face] = []
        self._face_of_dart: Dict[int, int] = {}
        face_of_dart = self._face_of_dart
        for d0 in sorted(twin):
            if d0 in face_of_dart:
                continue
            orbit = [d0]
            face_of_dart[d0] = d0
            d = succ[twin[d0]]
            while d != d0:
                orbit.append(d)
                face_of_dart[d] = d0
                d = succ[twin[d]]
            self._faces.append(Face(d0, tuple(orbit)))
        # Euler per component; the components are kept
        self._components = _find_components(self)
        comp_of = {v: i for i, comp in enumerate(self._components) for v in comp}
        face_count = [0] * len(self._components)
        for f in self._faces:
            face_count[comp_of[vertex_of[f.id]]] += 1
        for comp, fs in zip(self._components, face_count):
            vs = len(comp)
            es = sum(len(self.rotation[v]) for v in comp) // 2
            if vs - es + fs != 2:
                raise NonPlanarEmbedding(
                    f"component {sorted(comp)[:4]}...: V-E+F = {vs}-{es}+{fs} != 2")

    # -- basic queries ------------------------------------------------

    def darts(self) -> List[int]:
        return sorted(self.twin)

    def vertices(self) -> List[int]:
        return sorted(self.rotation)

    def edges(self) -> List[int]:
        """Edge ids: the smaller dart of each twin pair."""
        return sorted(d for d in self.twin if d < self.twin[d])

    def edge_of(self, dart: int) -> int:
        return min(dart, self.twin[dart])

    def edge_ends(self, e: int) -> Tuple[int, int]:
        if e not in self.twin or e > self.twin[e]:
            raise UnknownEdge(str(e))
        return self.vertex_of[e], self.vertex_of[self.twin[e]]

    def is_cubic(self) -> bool:
        return all(len(r) == 3 for r in self.rotation.values())

    def require_cubic(self) -> None:
        if not self.is_cubic():
            raise NotCubic("graph is not 3-regular")

    def next_dart(self, d: int) -> int:
        """Face successor: ccw-next dart after twin(d) at vertex(twin(d))."""
        return self.ccw_next[self.twin[d]]

    def faces(self) -> List[Face]:
        """The faces in order of id, each boundary from its smallest dart."""
        return self._faces

    def face_of(self, dart: int) -> int:
        return self._face_of_dart[dart]

    def face_boundary(self, fid: int) -> Tuple[int, ...]:
        i = bisect.bisect_left(self._faces, fid, key=lambda f: f.id)
        if i == len(self._faces) or self._faces[i].id != fid:
            raise GraphError(f"no face {fid}")
        return self._faces[i].boundary

    def edge_faces(self, e: int) -> Tuple[int, int]:
        """The two (possibly equal) face ids incident to edge e."""
        if e not in self.twin or e > self.twin[e]:
            raise UnknownEdge(str(e))
        return self.face_of(e), self.face_of(self.twin[e])

    def connected_components(self) -> List[List[int]]:
        """Sorted vertex lists, one per component, in order of their
        smallest vertex; fresh copies of the ones validation found."""
        return [list(c) for c in self._components]

    def bridges(self) -> set:
        """Edge ids whose removal disconnects their component: in a plane
        graph, the non-loop edges whose two darts lie on one face."""
        face, vertex_of = self._face_of_dart, self.vertex_of
        return {d for d, t in self.twin.items()
                if d < t and face[d] == face[t] and vertex_of[d] != vertex_of[t]}

    def is_bridge(self, e: int) -> bool:
        self.edge_ends(e)     # UnknownEdge unless e is an edge id
        return e in self.bridges()

    # -- canonical form / isomorphism ----------------------------------

    def canonical_form(self) -> tuple:
        """Canonical encoding of a connected rotation system, invariant under
        planar isomorphism (both orientations tried)."""
        comps = self.connected_components()
        if len(comps) != 1:
            raise GraphError("canonical_form requires a connected graph")
        best = None
        mirror = {n: d for d, n in self.ccw_next.items()}   # reversed rotations
        for succ in (self.ccw_next, mirror):
            for start in self.darts():
                code = _trace_code(self.twin, succ, start, best)
                if code is not None:
                    best = code
        return best

    # -- JSON -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "rotation": list(self.rotation[v])}
                         for v in self.vertices()],
            "darts": [{"id": d, "twin": self.twin[d], "vertex": self.vertex_of[d]}
                      for d in self.darts()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def __eq__(self, other):
        return (isinstance(other, PlaneGraph)
                and self.twin == other.twin
                and self.vertex_of == other.vertex_of
                and self.rotation == other.rotation)

    def __repr__(self):
        return (f"PlaneGraph(v={len(self.rotation)}, "
                f"e={len(self.twin) // 2})")


def reach(g, start: int, banned=()) -> Dict[int, Optional[int]]:
    """The vertices a depth-first search reaches from start without leaving
    along a banned dart, in the order it first sees them, each mapped to
    the dart it was entered along (a dart at the vertex it came from; None
    for start).  The one graph search of the package; g is anything with
    rotation, twin and vertex_of, a FaceKernel too."""
    rotation, twin, vertex_of = g.rotation, g.twin, g.vertex_of
    entry: Dict[int, Optional[int]] = {start: None}
    stack = [start]
    while stack:
        for d in rotation[stack.pop()]:
            w = vertex_of[twin[d]]
            if w not in entry and d not in banned:
                entry[w] = d
                stack.append(w)
    return entry


def _find_components(g: PlaneGraph) -> List[List[int]]:
    seen = set()
    comps = []
    for v in g.vertices():
        if v not in seen:
            comp = reach(g, v)
            seen.update(comp)
            comps.append(sorted(comp))
    return comps


def _trace_code(twin, succ, start, bound=None) -> Optional[tuple]:
    """BFS over darts by (twin, rotation successor), relabelled in discovery
    order; the code lists (label of twin, label of successor) per dart in
    that order.  None as soon as the code cannot end below bound."""
    label = {start: 0}
    order = [start]
    code = []
    below = bound is None
    for d in order:          # order grows while it is read
        for nxt in (twin[d], succ[d]):
            if nxt not in label:
                label[nxt] = len(order)
                order.append(nxt)
        pair = (label[twin[d]], label[succ[d]])
        if not below:
            if pair > bound[len(code)]:
                return None
            below = pair < bound[len(code)]
        code.append(pair)
    if len(order) < len(twin):
        raise GraphError("canonical trace requires a connected graph")
    return tuple(code) if below else None


def build(spec: dict) -> PlaneGraph:
    """Build and validate a PlaneGraph from its JSON dict form."""
    darts = _records(spec, "darts", lambda r: isinstance(r, dict) and type(
        r.get("id")) is type(r.get("twin")) is type(r.get("vertex")) is int,
        "an object with integer fields id, twin, vertex")
    verts = _records(spec, "vertices", lambda r: isinstance(r, dict) and type(
        r.get("id")) is int and _is_ints(r.get("rotation")),
        "an object with an integer id and a list rotation of dart ids")
    return PlaneGraph({r["id"]: r["twin"] for r in darts},
                      {r["id"]: r["vertex"] for r in darts},
                      {r["id"]: tuple(r["rotation"]) for r in verts})


def _is_ints(x, length: Optional[int] = None) -> bool:
    """x is a list of ints (length of them, if given); bools are not ints."""
    return (isinstance(x, list) and length in (None, len(x))
            and all([type(v) is int for v in x]))


def _records(spec, key: str, ok, what: str, error=GraphError, noun: str = "graph",
             default=None) -> list:
    """spec[key] (default when absent), checked to be a list of records
    that each pass ok; the first failure raises error, naming the noun's
    JSON."""
    recs = spec.get(key, default) if isinstance(spec, dict) else None
    if not isinstance(recs, list):
        raise error(f"{noun} JSON needs a list '{key}'")
    for rec in recs:
        if not ok(rec):
            raise error(f"each record of '{key}' must be {what}: {str(rec)[:60]}")
    return recs


def from_json(text: str) -> PlaneGraph:
    return build(json.loads(text))


class GraphBuilder:
    """Mutable staging area for graph surgery; freeze() validates.

    Its verbs are the one surgery vocabulary of the package: add_vertex
    (which also rewrites the rotation of an existing vertex), retwin,
    subdivide (written with those two), remove_vertex, drop_dart,
    delete_edge and contract_edge.  Builder users change twins, vertices
    and rotations through the verbs, so each change can also run in place
    on a FaceKernel, which logs every verb.
    """

    def __init__(self, g: Optional[PlaneGraph] = None):
        if g is None:
            self.twin: Dict[int, int] = {}
            self.vertex_of: Dict[int, int] = {}
            self.rotation: Dict[int, List[int]] = {}
        else:
            self.twin = dict(g.twin)
            self.vertex_of = dict(g.vertex_of)
            self.rotation = {v: list(r) for v, r in g.rotation.items()}

    def fresh_dart(self) -> int:
        return max(self.twin, default=-1) + 1

    def add_vertex(self, v: int, darts: Sequence[int]) -> None:
        self.rotation[v] = list(darts)
        for d in darts:
            self.vertex_of[d] = v

    def retwin(self, d1: int, d2: int) -> None:
        self.twin[d1] = d2
        self.twin[d2] = d1

    def subdivide(self, dart: int, v: int, d1: int) -> Tuple[int, int]:
        """Put the new vertex v on dart's edge, with the unused darts d1
        (twin of dart) and d1 + 1 (twin of dart's old twin); returns them."""
        t = self.twin[dart]
        self.add_vertex(v, (d1, d1 + 1))
        self.retwin(dart, d1)
        self.retwin(d1 + 1, t)
        return d1, d1 + 1

    def remove_vertex(self, v: int) -> None:
        for d in self.rotation.pop(v):
            self.twin.pop(d, None)
            self.vertex_of.pop(d, None)

    def drop_dart(self, d: int) -> None:
        v = self.vertex_of.pop(d)
        self.rotation[v].remove(d)
        self.twin.pop(d, None)

    def delete_edge(self, e_dart: int) -> None:
        t = self.twin[e_dart]
        self.drop_dart(e_dart)
        self.drop_dart(t)

    def contract_edge(self, e_dart: int, new_vertex: int) -> int:
        """Contract a non-loop edge into new_vertex, with the spliced rotation."""
        d, t = e_dart, self.twin[e_dart]
        u, w = self.vertex_of[d], self.vertex_of[t]
        if u == w:
            raise GraphError("cannot contract a self-loop")
        ru, rw = self.rotation[u], self.rotation[w]
        iu, iw = ru.index(d), rw.index(t)
        spliced = ru[iu + 1:] + ru[:iu] + rw[iw + 1:] + rw[:iw]
        del self.rotation[u]
        del self.rotation[w]
        self.rotation[new_vertex] = spliced
        for x in spliced:
            self.vertex_of[x] = new_vertex
        del self.twin[d], self.twin[t]
        self.vertex_of.pop(d, None)
        self.vertex_of.pop(t, None)
        return new_vertex

    def freeze(self) -> PlaneGraph:
        return PlaneGraph(self.twin, self.vertex_of,
                          {v: tuple(r) for v, r in self.rotation.items()})


# -- grid conversions ---------------------------------------------------

def two_coloring(g: PlaneGraph) -> Optional[Dict[int, int]]:
    """Proper 2-coloring of vertices, or None if an odd cycle exists: each
    search tree alternates colors, and then every edge must."""
    color: Dict[int, int] = {}
    vertex_of = g.vertex_of
    for v0 in g.vertices():
        if v0 not in color:
            for v, d in reach(g, v0).items():
                color[v] = 0 if d is None else 1 - color[vertex_of[d]]
    if any(color[vertex_of[d]] == color[vertex_of[t]] for d, t in g.twin.items()):
        return None
    return color


def incidence_grid(g: PlaneGraph, left_sig, right_sig):
    """Edge-vertex incidence grid of a cubic plane graph: every vertex a
    right node carrying right_sig, every edge a binary left node carrying
    left_sig.  Node ids: right = 2*vertex, left = 2*edge+1."""
    from .holant_core import GridNode, SignatureGrid
    g.require_cubic()
    if left_sig.arity != 2 or right_sig.arity != 3:
        raise GraphError("incidence grid wants a binary left and ternary right signature")
    nodes = {}
    emb = {}
    for v in g.vertices():
        nid = 2 * v
        nodes[nid] = GridNode(nid, "right", ("R", "R", "R"), right_sig)
        emb[nid] = (0, 1, 2)
    for e in g.edges():
        nid = 2 * e + 1
        nodes[nid] = GridNode(nid, "left", ("L", "L"), left_sig)
        emb[nid] = (0, 1)
    edges = []
    for v in g.vertices():
        for slot, d in enumerate(g.rotation[v]):
            e = g.edge_of(d)
            eslot = 0 if d == e else 1
            edges.append((2 * e + 1, eslot, 2 * v, slot))
    # self-loops contribute two records on the same left node, one per slot
    return SignatureGrid(nodes, edges, [], emb)


def merge_degree2_left_map(grid) -> Tuple[PlaneGraph, Dict[int, int]]:
    """Inverse of incidence_grid, and the map from left node id to edge id.
    On grid_builder's graph each left node (all binary), in id order,
    joins its two far darts into one edge named by the smaller dart."""
    lefts = sorted(n.id for n in grid.nodes.values() if n.side != "right")
    if any(grid.nodes[lid].arity != 2 for lid in lefts):
        raise GraphError("all left nodes must be binary")
    b = grid_builder(grid)
    edge_map: Dict[int, int] = {}
    for lid in lefts:
        d1, d2 = (b.twin[d] for d in b.rotation[lid])
        b.retwin(d1, d2)
        b.remove_vertex(lid)
        edge_map[lid] = min(d1, d2)
    return b.freeze(), edge_map


def grid_from_cubic_bipartite(g: PlaneGraph, f, right_sig=None):
    """Holant instance over a cubic bipartite plane graph: color-0 vertices
    get the ternary f (left), color-1 get right_sig (default =3)."""
    from .holant_core import GridNode, SignatureGrid
    from .signatures import EQ3
    g.require_cubic()
    if right_sig is None:
        right_sig = EQ3
    coloring = two_coloring(g)
    if coloring is None:
        raise GraphError("graph is not bipartite")
    nodes = {}
    emb = {}
    slot_of_dart = {}
    for v in g.vertices():
        side = "left" if coloring[v] == 0 else "right"
        sig = f if side == "left" else right_sig
        facing = "L" if side == "left" else "R"
        nodes[v] = GridNode(v, side, (facing,) * 3, sig)
        emb[v] = (0, 1, 2)
        for slot, d in enumerate(g.rotation[v]):
            slot_of_dart[d] = slot
    edges = []
    for e in g.edges():
        d, t = e, g.twin[e]
        edges.append((g.vertex_of[d], slot_of_dart[d],
                      g.vertex_of[t], slot_of_dart[t]))
    return SignatureGrid(nodes, edges, [], emb)


def grid_builder(grid) -> GraphBuilder:
    """An embedded grid's plane multigraph, unvalidated: node nid is vertex
    nid, its darts numbered in node-id order and, at a node, in the
    embedding's ccw slot order (the one dart numbering of a grid)."""
    if grid.embedding is None:
        raise GraphError("grid carries no embedding")
    if grid.dangling:
        raise GraphError("dangling slots have no graph image")
    b = GraphBuilder()
    dart_of: Dict[Tuple[int, int], int] = {}
    for nid in sorted(grid.nodes):
        d0 = len(dart_of)
        for i, s in enumerate(grid.embedding[nid]):
            dart_of[nid, s] = d0 + i
        b.add_vertex(nid, range(d0, len(dart_of)))
    for (na, sa, nb, sb) in grid.edges:
        b.retwin(dart_of[na, sa], dart_of[nb, sb])
    return b


def plane_graph_of_grid(grid) -> PlaneGraph:
    """grid_builder's graph, validated."""
    return grid_builder(grid).freeze()
