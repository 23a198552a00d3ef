"""Random and exhaustive generation of cubic plane multigraphs.

Expansion moves (each adds two vertices, keeps the graph cubic and plane):

* vertex -> triangle: blow a vertex up into a triangle face;
* parallel-pair insertion: replace an edge by a path with a doubled middle;
* self-loop insertion: hang a loop vertex off a subdivided edge;
* ladder insertion: subdivide two edges of one face twice each and join
  them by two non-crossing rungs through that face.

The moves invert the reduction steps used by the matching constructor, so
closure under them stays inside valid inputs.  The bipartite generator
restricts itself to the parity-preserving moves (parallel pair, ladder
with color-aligned rungs) and checks 2-colorability after every move.

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

import random
from typing import List, Optional, Tuple

from .plane_graph import GraphBuilder, PlaneGraph, two_coloring
from . import fixtures


class InfeasibleSize(ValueError):
    pass


def vertex_to_triangle(g: PlaneGraph, v: int) -> PlaneGraph:
    b = GraphBuilder(g)
    rot = list(b.rotation[v])
    if len(rot) != 3:
        raise InfeasibleSize("cubic vertex expected")
    base = max(b.rotation) + 1
    ids = [v, base, base + 1]
    d = b.fresh_dart()
    tri = [(d + 2 * i, d + 2 * i + 1) for i in range(3)]  # triangle darts
    for i in range(3):
        # corner i keeps outgoing dart rot[i], plus triangle darts to i-1, i+1
        prev_d = tri[(i - 1) % 3][1]
        next_d = tri[i][0]
        b.add_vertex(ids[i], [rot[i], next_d, prev_d])
    for d1, d2 in tri:
        b.retwin(d1, d2)
    return b.freeze()


def parallel_pair_insert(g: PlaneGraph, e: int) -> PlaneGraph:
    """Edge {X,Y} becomes X-p-q-Y with a doubled p-q middle."""
    b = GraphBuilder(g)
    base = max(b.rotation) + 1
    p, q = base, base + 1
    dp1, dp2 = b.subdivide(e, p, b.fresh_dart())     # p between X and q
    dq1, dq2 = b.subdivide(dp2, q, b.fresh_dart())   # q between p and Y
    # add the second p-q edge; rotations: p: [toward X, toward q, extra];
    # placing the doubled edge next to the existing one keeps a bigon face
    x = b.fresh_dart()
    b.add_vertex(p, [dp1, dp2, x])
    b.add_vertex(q, [dq1, dq2, x + 1])
    b.retwin(x, x + 1)
    return b.freeze()


def self_loop_insert(g: PlaneGraph, e: int) -> PlaneGraph:
    """Edge {C,D} becomes C-B-D with a pendant loop vertex A at B."""
    b = GraphBuilder(g)
    base = max(b.rotation) + 1
    bb, aa = base, base + 1
    d1, d2 = b.subdivide(e, bb, b.fresh_dart())
    s1 = b.fresh_dart()
    s2, l1, l2 = s1 + 1, s1 + 2, s1 + 3
    b.add_vertex(bb, [d1, s1, d2])
    b.add_vertex(aa, [s2, l1, l2])
    b.retwin(s1, s2)
    b.retwin(l1, l2)
    return b.freeze()


def ladder_insert(g: PlaneGraph, d_a: int, d_b: int) -> PlaneGraph:
    """Insert a two-rung ladder through the face containing darts d_a, d_b
    (distinct edges on a common face boundary)."""
    if g.face_of(d_a) != g.face_of(d_b) or g.edge_of(d_a) == g.edge_of(d_b):
        raise InfeasibleSize("darts must lie on one face, distinct edges")
    b = GraphBuilder(g)
    base = max(b.rotation) + 1
    u1, u2, w1, w2 = base, base + 1, base + 2, base + 3
    # subdivide edge a twice: order along d_a is u1 then u2
    a1, a2 = b.subdivide(d_a, u1, b.fresh_dart())
    a3, a4 = b.subdivide(a2, u2, b.fresh_dart())
    b1, b2 = b.subdivide(d_b, w1, b.fresh_dart())
    b3, b4 = b.subdivide(b2, w2, b.fresh_dart())
    r1a = b.fresh_dart()
    r1b, r2a, r2b = r1a + 1, r1a + 2, r1a + 3
    # rungs connect u1-w2 and u2-w1: along the face boundary the two edges
    # are traversed in opposite senses, so anti-aligned rungs do not cross;
    # the shared face lies on the side of darts d_a, d_b, so each rung dart
    # goes on that side of its subdivision vertex
    b.add_vertex(u1, [a1, r1a, a2])
    b.add_vertex(u2, [a3, r2a, a4])
    b.add_vertex(w1, [b1, r2b, b2])
    b.add_vertex(w2, [b3, r1b, b4])
    b.retwin(r1a, r1b)
    b.retwin(r2a, r2b)
    return b.freeze()


MOVES = ("triangle", "parallel", "loop", "ladder")
BIPARTITE_MOVES = ("parallel", "ladder")
STALL_MOVES = 10000     # rejections in a row before the bipartite search gives up


def _apply_random_move(g: PlaneGraph, rng: random.Random,
                       moves: Tuple[str, ...]) -> Optional[PlaneGraph]:
    kind = rng.choice(moves)
    try:
        if kind == "triangle":
            return vertex_to_triangle(g, rng.choice(g.vertices()))
        if kind == "parallel":
            return parallel_pair_insert(g, rng.choice(g.edges()))
        if kind == "loop":
            return self_loop_insert(g, rng.choice(g.edges()))
        faces = [f for f in g.faces()
                 if len({g.edge_of(d) for d in f.boundary}) >= 2]
        if not faces:
            return None
        f = rng.choice(faces)
        d_a = rng.choice(f.boundary)
        others = [d for d in f.boundary if g.edge_of(d) != g.edge_of(d_a)]
        d_b = rng.choice(others)
        return ladder_insert(g, d_a, d_b)
    except InfeasibleSize:
        return None


def generate_cubic_plane(n: int, seed: int) -> PlaneGraph:
    """Random connected cubic plane multigraph on n vertices (n even >= 2)."""
    if n < 2 or n % 2:
        raise InfeasibleSize(f"no cubic graph on {n} vertices")
    rng = random.Random(seed)
    g = rng.choice((fixtures.dumbbell, fixtures.m23, fixtures.k4))()
    while len(g.vertices()) > n:
        g = rng.choice((fixtures.dumbbell, fixtures.m23))()
    while len(g.vertices()) < n:
        g2 = _apply_random_move(g, rng, MOVES)
        if g2 is not None and len(g2.vertices()) <= n:
            g = g2
    return g


def generate_cubic_bipartite_plane(n: int, seed: int) -> PlaneGraph:
    """Random connected cubic bipartite plane multigraph on n vertices."""
    if n < 2 or n % 2:
        raise InfeasibleSize(f"no cubic graph on {n} vertices")
    rng = random.Random(seed)
    g = fixtures.m23()
    rejected = 0    # moves rejected since the last accepted one
    while len(g.vertices()) < n:
        g2 = _apply_random_move(g, rng, BIPARTITE_MOVES)
        if g2 is None or len(g2.vertices()) > n or two_coloring(g2) is None:
            rejected += 1
            if rejected > STALL_MOVES:
                raise InfeasibleSize(f"move search stalled: {STALL_MOVES} "
                                     f"moves in a row rejected")
            continue
        g = g2
        rejected = 0
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
        candidates: List[PlaneGraph] = []
        for v in g.vertices():
            candidates.append(vertex_to_triangle(g, v))
        for e in g.edges():
            candidates.append(parallel_pair_insert(g, e))
            candidates.append(self_loop_insert(g, e))
        for f in g.faces():
            for i, d_a in enumerate(f.boundary):
                for d_b in f.boundary[i + 1:]:
                    if g.edge_of(d_a) != g.edge_of(d_b):
                        candidates.append(ladder_insert(g, d_a, d_b))
        for c in candidates:
            if len(c.vertices()) > max_vertices:
                continue
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
