"""Random and exhaustive generation of cubic plane multigraphs.

Expansion moves (each keeps the graph cubic and plane):

* vertex -> triangle: blow a vertex up into a triangle face;
* parallel-pair insertion: replace an edge by a path with a doubled middle;
* self-loop insertion: hang a loop vertex off a subdivided edge;
* ladder insertion: subdivide two edges of one face twice each and join
  them by two non-crossing rungs through that face.

The moves invert the reduction steps used by the matching constructor, so
closure under them stays inside valid inputs.  Each move edits a
GrowthKernel in place with the builder verbs; a generator grows one
kernel, one committed step per move, and validates the result once, by
its final freeze().  The kernel keeps sorted lists of the vertices, the
edges and the faces a ladder can run through, and the next free vertex
and dart ids, and updates them from what each commit or undo logged, so
a move draws and numbers its ids without a scan of the graph and costs
about the length of the faces it re-walks.  The lists equal the sorted
sequences a full scan gives, so the draws, and the output, do not depend
on how they are kept.  The bipartite generator restricts itself to the
parity-preserving moves (parallel pair, ladder with color-aligned rungs,
read off the positions of its two darts on the face) and checks
2-colorability once, at the end.

Leapfrog (the truncation of the dual) maps a cubic plane graph G to the
cubic plane graph with one vertex per dart d of G, adjacent to the
vertices of twin(d), next(d) (the face successor) and prev(d) (the face
predecessor).  Each face of G keeps its length and each vertex of G
becomes a hexagon, so starting from the dodecahedron (C20) every result
is a fullerene, of girth 5: C20 -> C60 -> C180 -> ...  relabel gives an
isomorphic copy under random ids, so that the picks of the matching
constructor do not follow the construction order.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Tuple

from .face_kernel import FaceKernel, Surgery
from .plane_graph import Face, PlaneGraph, two_coloring
from . import fixtures


class InfeasibleSize(ValueError):
    pass


class GrowthKernel(FaceKernel):
    """The FaceKernel the moves run on.  Through every commit and undo it
    keeps what a move draws from: sorted lists of the vertices, of the
    edges (as PlaneGraph.edges) and of the ids of the faces with at least
    two darts, which in a cubic graph are the faces with two distinct
    edges, the ones a ladder can run through; and the next free vertex
    and dart ids, one past the largest in use.  Each update reads only the
    darts and vertices the step logged and the faces it replaced."""

    def __init__(self, g: PlaneGraph):
        super().__init__(g)
        self.vertex_ids = g.vertices()
        self.edge_ids = g.edges()
        self.ladder_faces = [f.id for f in self.faces() if len(f.boundary) >= 2]
        self._next_dart = max(g.twin) + 1

    def fresh_vertex(self) -> int:
        return self.vertex_ids[-1] + 1

    def fresh_dart(self) -> int:
        return self._next_dart

    def commit(self) -> Surgery:
        s = super().commit()
        self._keep(s, s.dead, [self.face[f] for f in s.created])
        return s

    def undo(self, s: Surgery) -> None:
        created = [self.face[f] for f in s.created]
        super().undo(s)
        self._keep(s, created, s.dead)

    def _keep(self, s: Surgery, gone: List[Face], new: List[Face]) -> None:
        """Update the lists and the dart counter after s was committed or
        undone, which replaced the faces gone by the faces new."""
        twin = self.twin
        for v in s.old_rot:
            _mark(self.vertex_ids, v, v in self.rotation)
        for d in s.old_dart:
            _mark(self.edge_ids, d, d in twin and d < twin[d])
        for f in gone:
            _mark(self.ladder_faces, f.id, False)
        for f in new:
            _mark(self.ladder_faces, f.id, len(f.boundary) >= 2)
        n = max(self._next_dart, 1 + max((d for d in s.old_dart if d in twin),
                                         default=-1))
        while n and n - 1 not in twin:     # the largest darts may be gone
            n -= 1
        self._next_dart = n


def _mark(ids: List[int], x: int, member: bool) -> None:
    """Put x into the sorted list ids, or take it out."""
    i = bisect.bisect_left(ids, x)
    there = i < len(ids) and ids[i] == x
    if member and not there:
        ids.insert(i, x)
    elif there and not member:
        del ids[i]


def vertex_to_triangle(k: GrowthKernel, v: int) -> None:
    rot = list(k.rotation[v])
    if len(rot) != 3:
        raise InfeasibleSize("cubic vertex expected")
    base = k.fresh_vertex()
    ids = [v, base, base + 1]
    d = k.fresh_dart()
    tri = [(d + 2 * i, d + 2 * i + 1) for i in range(3)]  # triangle darts
    for i in range(3):
        # corner i keeps outgoing dart rot[i], plus triangle darts to i-1, i+1
        prev_d = tri[(i - 1) % 3][1]
        next_d = tri[i][0]
        k.add_vertex(ids[i], [rot[i], next_d, prev_d])
    for d1, d2 in tri:
        k.retwin(d1, d2)


def parallel_pair_insert(k: GrowthKernel, e: int) -> None:
    """Edge {X,Y} becomes X-p-q-Y with a doubled p-q middle."""
    base = k.fresh_vertex()
    p, q = base, base + 1
    d = k.fresh_dart()
    dp1, dp2 = k.subdivide(e, p, d)         # p between X and q
    dq1, dq2 = k.subdivide(dp2, q, d + 2)   # q between p and Y
    # add the second p-q edge; rotations: p: [toward X, toward q, extra];
    # placing the doubled edge next to the existing one keeps a bigon face
    x = d + 4
    k.add_vertex(p, [dp1, dp2, x])
    k.add_vertex(q, [dq1, dq2, x + 1])
    k.retwin(x, x + 1)


def self_loop_insert(k: GrowthKernel, e: int) -> None:
    """Edge {C,D} becomes C-B-D with a pendant loop vertex A at B."""
    base = k.fresh_vertex()
    bb, aa = base, base + 1
    d = k.fresh_dart()
    d1, d2 = k.subdivide(e, bb, d)
    s1, s2, l1, l2 = d + 2, d + 3, d + 4, d + 5
    k.add_vertex(bb, [d1, s1, d2])
    k.add_vertex(aa, [s2, l1, l2])
    k.retwin(s1, s2)
    k.retwin(l1, l2)


def ladder_insert(k: GrowthKernel, d_a: int, d_b: int) -> None:
    """Insert a two-rung ladder through the face containing darts d_a, d_b
    (distinct edges on a common face boundary)."""
    if k.face_of(d_a) != k.face_of(d_b) or k.edge_of(d_a) == k.edge_of(d_b):
        raise InfeasibleSize("darts must lie on one face, distinct edges")
    base = k.fresh_vertex()
    u1, u2, w1, w2 = base, base + 1, base + 2, base + 3
    d = k.fresh_dart()
    # subdivide edge a twice: order along d_a is u1 then u2
    a1, a2 = k.subdivide(d_a, u1, d)
    a3, a4 = k.subdivide(a2, u2, d + 2)
    b1, b2 = k.subdivide(d_b, w1, d + 4)
    b3, b4 = k.subdivide(b2, w2, d + 6)
    r1a, r1b, r2a, r2b = d + 8, d + 9, d + 10, d + 11
    # rungs connect u1-w2 and u2-w1: along the face boundary the two edges
    # are traversed in opposite senses, so anti-aligned rungs do not cross;
    # the shared face lies on the side of darts d_a, d_b, so each rung dart
    # goes on that side of its subdivision vertex
    k.add_vertex(u1, [a1, r1a, a2])
    k.add_vertex(u2, [a3, r2a, a4])
    k.add_vertex(w1, [b1, r2b, b2])
    k.add_vertex(w2, [b3, r1b, b4])
    k.retwin(r1a, r1b)
    k.retwin(r2a, r2b)


MOVES = ("triangle", "parallel", "loop", "ladder")
BIPARTITE_MOVES = ("parallel", "ladder")
STALL_MOVES = 10000     # rejections in a row before the bipartite search gives up


def _apply_random_move(k: GrowthKernel, rng: random.Random, moves: Tuple[str, ...],
                       room: int, bipartite: bool) -> bool:
    """Draw a move and run it on k as one committed step, or reject it
    before touching k.  A ladder adds 4 vertices, so it needs room >= 4;
    the corners of a face of a bipartite graph alternate colours, so there
    its two darts must sit an even number of positions apart."""
    kind = rng.choice(moves)
    if kind == "triangle":
        vertex_to_triangle(k, rng.choice(k.vertex_ids))
    elif kind == "parallel":
        parallel_pair_insert(k, rng.choice(k.edge_ids))
    elif kind == "loop":
        self_loop_insert(k, rng.choice(k.edge_ids))
    else:
        if not k.ladder_faces:
            return False
        bd = k.face_boundary(rng.choice(k.ladder_faces))
        i = rng.randrange(len(bd))
        j = rng.choice([x for x, d in enumerate(bd)
                        if k.edge_of(d) != k.edge_of(bd[i])])
        if room < 4 or (bipartite and (i - j) % 2):
            return False
        ladder_insert(k, bd[i], bd[j])
    k.commit()
    return True


def generate_cubic_plane(n: int, seed: int) -> PlaneGraph:
    """Random connected cubic plane multigraph on n vertices (n even >= 2)."""
    if n < 2 or n % 2:
        raise InfeasibleSize(f"no cubic graph on {n} vertices")
    rng = random.Random(seed)
    g = rng.choice((fixtures.dumbbell, fixtures.m23, fixtures.k4))()
    while len(g.vertices()) > n:
        g = rng.choice((fixtures.dumbbell, fixtures.m23))()
    k = GrowthKernel(g)
    while len(k.rotation) < n:
        _apply_random_move(k, rng, MOVES, n - len(k.rotation), False)
    return k.freeze()


def generate_cubic_bipartite_plane(n: int, seed: int) -> PlaneGraph:
    """Random connected cubic bipartite plane multigraph on n vertices."""
    if n < 2 or n % 2:
        raise InfeasibleSize(f"no cubic graph on {n} vertices")
    rng = random.Random(seed)
    k = GrowthKernel(fixtures.m23())
    rejected = 0    # moves rejected since the last accepted one
    while len(k.rotation) < n:
        if _apply_random_move(k, rng, BIPARTITE_MOVES, n - len(k.rotation), True):
            rejected = 0
            continue
        rejected += 1
        if rejected > STALL_MOVES:
            raise InfeasibleSize(f"move search stalled: {STALL_MOVES} "
                                 f"moves in a row rejected")
    g = k.freeze()
    assert two_coloring(g) is not None
    return g


def move_closure(max_vertices: int) -> List[PlaneGraph]:
    """All graphs reachable from the seed set by expansion moves, up to
    max_vertices, deduplicated by canonical form."""
    seeds = [fixtures.dumbbell(), fixtures.m23(), fixtures.k4()]
    seen = {}
    frontier = []
    for s in seeds:
        key = s.canonical_form()
        if key not in seen:
            seen[key] = s
            frontier.append(s)
    while frontier:
        g = frontier.pop()
        if len(g.vertices()) + 2 > max_vertices:
            continue
        moves: List[tuple] = [(vertex_to_triangle, v) for v in g.vertices()]
        for e in g.edges():
            moves += [(parallel_pair_insert, e), (self_loop_insert, e)]
        if len(g.vertices()) + 4 <= max_vertices:     # a ladder adds 4 vertices
            for f in g.faces():
                for i, d_a in enumerate(f.boundary):
                    moves += [(ladder_insert, d_a, d_b) for d_b in f.boundary[i + 1:]
                              if g.edge_of(d_a) != g.edge_of(d_b)]
        k = GrowthKernel(g)
        for move, *args in moves:
            move(k, *args)
            step = k.commit()
            c = k.freeze()
            k.undo(step)
            key = c.canonical_form()
            if key not in seen:
                seen[key] = c
                frontier.append(c)
    return list(seen.values())


def leapfrog(g: PlaneGraph) -> PlaneGraph:
    """Leapfrog of a cubic PlaneGraph; vertex i is the i-th dart of g."""
    g.require_cubic()
    darts = g.darts()
    index = {d: i for i, d in enumerate(darts)}
    prev = {g.next_dart(d): d for d in darts}
    # vertex i owns darts 3i (toward twin), 3i+1 (toward next), 3i+2
    # (toward prev); the next/prev darts of neighbouring vertices pair up
    twin, vertex_of, rotation = {}, {}, {}
    for d in darts:
        i = index[d]
        twin[3 * i] = 3 * index[g.twin[d]]
        twin[3 * i + 1] = 3 * index[g.next_dart(d)] + 2
        twin[3 * i + 2] = 3 * index[prev[d]] + 1
        for k in range(3):
            vertex_of[3 * i + k] = i
        # counterclockwise: twin side, then prev, then next
        rotation[i] = (3 * i, 3 * i + 2, 3 * i + 1)
    return PlaneGraph(twin, vertex_of, rotation)


def relabel(g: PlaneGraph, rng: random.Random) -> PlaneGraph:
    """Isomorphic copy of the PlaneGraph g under random vertex and dart ids
    and random starting points of every rotation (same embedding)."""
    vmap = dict(zip(g.vertices(), rng.sample(range(2 * len(g.rotation)),
                                              len(g.rotation))))
    dmap = dict(zip(g.darts(), rng.sample(range(2 * len(g.twin)),
                                           len(g.twin))))
    rotation = {}
    for v, rot in g.rotation.items():
        k = rng.randrange(len(rot))
        rotation[vmap[v]] = tuple(dmap[d] for d in rot[k:] + rot[:k])
    return PlaneGraph({dmap[d]: dmap[t] for d, t in g.twin.items()},
                      {dmap[d]: vmap[v] for d, v in g.vertex_of.items()},
                      rotation)
