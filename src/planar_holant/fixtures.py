"""Hand-built plane graphs used as test fixtures, base cases and shipped data.

Rotations are counterclockwise orders read off planar drawings; every
constructor returns a validated PlaneGraph (the Euler check would reject a
mis-transcribed rotation).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .plane_graph import GraphBuilder, PlaneGraph


def from_adjacency(rotations: Dict[int, Sequence[Tuple[int, int]]]) -> PlaneGraph:
    """Build a PlaneGraph from per-vertex ccw lists of (neighbor, edge_tag).

    Each undirected edge appears exactly twice overall with the same tag
    (self-loops twice at their vertex).  Dart ids are assigned densely.
    """
    darts_at: Dict[int, List[int]] = {v: [] for v in rotations}
    tag_slots: Dict[object, List[int]] = {}
    twin: Dict[int, int] = {}
    vertex_of: Dict[int, int] = {}
    nxt = 0
    for v in sorted(rotations):
        for (w, tag) in rotations[v]:
            d = nxt
            nxt += 1
            vertex_of[d] = v
            darts_at[v].append(d)
            tag_slots.setdefault(tag, []).append(d)
    for tag, ds in tag_slots.items():
        if len(ds) != 2:
            raise ValueError(f"edge tag {tag!r} used {len(ds)} times")
        twin[ds[0]] = ds[1]
        twin[ds[1]] = ds[0]
    rotation = {v: tuple(darts_at[v]) for v in rotations}
    return PlaneGraph(twin, vertex_of, rotation)


def k4() -> PlaneGraph:
    # 1 in the center of triangle 2,3,4
    return from_adjacency({
        1: [(4, "14"), (2, "12"), (3, "13")],
        2: [(3, "23"), (1, "12"), (4, "24")],
        3: [(4, "34"), (1, "13"), (2, "23")],
        4: [(2, "24"), (1, "14"), (3, "34")],
    })


def m23() -> PlaneGraph:
    # two vertices, three parallel edges (theta graph)
    return from_adjacency({
        0: [(1, "a"), (1, "b"), (1, "c")],
        1: [(0, "c"), (0, "b"), (0, "a")],
    })


def dumbbell() -> PlaneGraph:
    # two loop-vertices joined by a bridge
    return from_adjacency({
        0: [(1, "m"), (0, "l0"), (0, "l0")],
        1: [(0, "m"), (1, "l1"), (1, "l1")],
    })


def cube() -> PlaneGraph:
    # outer square 0123 ccw, inner square 4567, spokes i-(i+4)
    return from_adjacency({
        0: [(1, "01"), (4, "04"), (3, "03")],
        1: [(2, "12"), (5, "15"), (0, "01")],
        2: [(3, "23"), (6, "26"), (1, "12")],
        3: [(2, "23"), (0, "03"), (7, "37")],
        4: [(5, "45"), (7, "47"), (0, "04")],
        5: [(6, "56"), (4, "45"), (1, "15")],
        6: [(2, "26"), (7, "67"), (5, "56")],
        7: [(6, "67"), (3, "37"), (4, "47")],
    })


def prism() -> PlaneGraph:
    # triangular prism: inner triangle 0,1,2function; outer 3,4,5; spokes
    return from_adjacency({
        0: [(1, "01"), (2, "02"), (3, "03")],
        1: [(2, "12"), (0, "01"), (4, "14")],
        2: [(0, "02"), (1, "12"), (5, "25")],
        3: [(4, "34"), (0, "03"), (5, "35")],
        4: [(5, "45"), (1, "14"), (3, "34")],
        5: [(3, "35"), (2, "25"), (4, "45")],
    })


def base_b() -> PlaneGraph:
    # parallel pair 0-1, path 0-2-1, pendant 2-3 with loop at 3
    # (self-loop transformation child = M_{2,3})
    return from_adjacency({
        0: [(1, "p"), (2, "02"), (1, "q")],
        1: [(0, "q"), (2, "12"), (0, "p")],
        2: [(3, "23"), (0, "02"), (1, "12")],
        3: [(2, "23"), (3, "l"), (3, "l")],
    })


def base_c() -> PlaneGraph:
    # K4 on 0,1,2,3 with edge 0-1 subdivided by 4; 4 also holds vertex 5
    # which carries a self-loop  (self-loop transformation child = K4)
    return from_adjacency({
        0: [(4, "04"), (2, "02"), (3, "03")],
        1: [(3, "13"), (2, "12"), (4, "14")],
        2: [(0, "02"), (1, "12"), (3, "23")],
        3: [(0, "03"), (2, "23"), (1, "13")],
        4: [(1, "14"), (5, "45"), (0, "04")],
        5: [(4, "45"), (5, "l"), (5, "l")],
    })


def base_d() -> PlaneGraph:
    # M_{2,3} with one edge subdivided twice and the middle doubled
    # vertices 0,3 outer; 1,2 middle with a parallel pair
    return from_adjacency({
        0: [(1, "01"), (3, "top"), (3, "bot")],
        1: [(2, "m1"), (0, "01"), (2, "m2")],
        2: [(3, "23"), (1, "m1"), (1, "m2")],
        3: [(2, "23"), (0, "bot"), (0, "top")],
    })


def base_e() -> PlaneGraph:
    # K4 on 0,1,2,3 with edge 0-3 replaced by path 0-4=5-3 (4=5 doubled)
    return from_adjacency({
        0: [(4, "04"), (1, "01"), (2, "02")],
        1: [(2, "12"), (0, "01"), (3, "13")],
        2: [(3, "23"), (0, "02"), (1, "12")],
        3: [(1, "13"), (5, "35"), (2, "23")],
        4: [(5, "m2"), (5, "m1"), (0, "04")],
        5: [(3, "35"), (4, "m1"), (4, "m2")],
    })


def base_g() -> PlaneGraph:
    # K4 minus an edge on 0,1,2,3 (missing 2-3), pendant paths to a doubled pair
    # 2-4, 3-5, parallel 4-5 edges closing around
    return from_adjacency({
        0: [(3, "03"), (1, "01"), (2, "02")],
        1: [(2, "12"), (0, "01"), (3, "13")],
        2: [(4, "24"), (0, "02"), (1, "12")],
        3: [(0, "03"), (5, "35"), (1, "13")],
        4: [(5, "p1"), (2, "24"), (5, "p2")],
        5: [(3, "35"), (4, "p1"), (4, "p2")],
    })


def base_h() -> PlaneGraph:
    # as base_g but the doubled pair replaced by a 4-cycle-with-chord block:
    # 4 and 5 joined through 6 and 7 (triangle transformation child = K4)
    return from_adjacency({
        0: [(3, "03"), (1, "01"), (2, "02")],
        1: [(2, "12"), (0, "01"), (3, "13")],
        2: [(4, "24"), (0, "02"), (1, "12")],
        3: [(0, "03"), (5, "35"), (1, "13")],
        4: [(7, "47"), (6, "46"), (2, "24")],
        5: [(3, "35"), (6, "56"), (7, "57")],
        6: [(7, "67"), (5, "56"), (4, "46")],
        7: [(5, "57"), (6, "67"), (4, "47")],
    })


def pentagon_wheel() -> PlaneGraph:
    """Dodecahedron-like smallest fixture with a pentagon face and distinct
    spoke neighbors: the pentagonal prism."""
    inner = {i: [((i + 1) % 5, f"i{i}"), ((i - 1) % 5, f"i{(i - 1) % 5}"), (i + 5, f"s{i}")]
             for i in range(5)}
    outer = {i + 5: [(i, f"s{i}"), ((i - 1) % 5 + 5, f"o{(i - 1) % 5}"), ((i + 1) % 5 + 5, f"o{i}")]
             for i in range(5)}
    inner.update(outer)
    return from_adjacency(inner)


def dodecahedron() -> PlaneGraph:
    """The regular dodecahedron: simple, bridgeless, chordless, girth 5."""
    # standard Schlegel diagram layers: inner pentagon 0-4, first ring 5-9,
    # second ring 10-14, outer pentagon 15-19
    rot: Dict[int, List[Tuple[int, str]]] = {}
    for i in range(5):
        j = (i + 1) % 5
        k = (i - 1) % 5
        rot[i] = [(j, f"a{i}"), (k, f"a{k}"), (i + 5, f"b{i}")]
        rot[i + 5] = [(i, f"b{i}"), (10 + (i - 1) % 5, f"d{(i-1)%5}"), (10 + i, f"c{i}")]
        rot[10 + i] = [(5 + i, f"c{i}"), (15 + i, f"e{i}"), (5 + j, f"d{i}")]
        rot[15 + i] = [(15 + k, f"f{k}"), (15 + j, f"f{i}"), (10 + i, f"e{i}")]
    return from_adjacency(rot)


def relabeled(g: PlaneGraph, voff: int, doff: int) -> PlaneGraph:
    return PlaneGraph({d + doff: t + doff for d, t in g.twin.items()},
                      {d + doff: v + voff for d, v in g.vertex_of.items()},
                      {v + voff: tuple(d + doff for d in r)
                       for v, r in g.rotation.items()})


def _two_dodecahedra() -> Tuple[GraphBuilder, int, int]:
    """A GraphBuilder holding dodecahedron() and a copy with vertex ids
    +100 and dart ids +1000, and the first edge of each."""
    g1, g2 = dodecahedron(), relabeled(dodecahedron(), 100, 1000)
    b = GraphBuilder(g1)
    for v, r in g2.rotation.items():
        b.add_vertex(v, r)
    for e in g2.edges():
        b.retwin(e, g2.twin[e])
    return b, g1.edges()[0], g2.edges()[0]


def bridge_fixture() -> PlaneGraph:
    """Two dodecahedra with a subdivided edge each, joined by a bridge:
    simple, no faces shorter than five, one bridge."""
    b, e1, e2 = _two_dodecahedra()
    d = b.fresh_dart()
    d1a, d1b = b.subdivide(e1, 500, d)
    d2a, d2b = b.subdivide(e2, 501, d + 2)
    b.add_vertex(500, [d1a, d + 4, d1b])
    b.add_vertex(501, [d2a, d + 5, d2b])
    b.retwin(d + 4, d + 5)
    return b.freeze()


def chord_fixture() -> PlaneGraph:
    """Chord {A,B} whose removal sides are dodecahedron fragments: simple,
    bridgeless, girth five, and the chord is the first reducible feature;
    of the four rotation pairs at A = 600 and B = 601, the first that is."""
    b, e1, e2 = _two_dodecahedra()
    t1, t2 = b.twin[e1], b.twin[e2]
    nd = b.fresh_dart()
    a_c, a_B, a_e = nd, nd + 1, nd + 2
    b_d, b_A, b_f = nd + 3, nd + 4, nd + 5
    b.retwin(e1, a_c)
    b.retwin(t1, b_d)
    b.retwin(e2, a_e)
    b.retwin(t2, b_f)
    b.retwin(a_B, b_A)
    b.add_vertex(600, [a_c, a_B, a_e])
    b.add_vertex(601, [b_d, b_f, b_A])
    return b.freeze()


# searched orientation bits for the coincident-spokes pentagon fixture;
# vertices: pentagon 0-4, shared spoke neighbor 5, inner pair 6,7 (doubled),
# outer 8-11 with a doubled 10-11 pair
_COINCIDENCE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                      (0, 5), (2, 5), (3, 6), (4, 7), (6, 7), (6, 7),
                      (1, 9), (5, 8), (8, 9), (8, 10), (10, 11), (10, 11),
                      (9, 11)]
_COINCIDENCE_FLIPS = (0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1)


def coincident_pentagon_fixture() -> PlaneGraph:
    """Plane cubic graph with a pentagon face whose spoke neighbors satisfy
    b0 = b2; exercises the two-part pentagon split directly."""
    adj: Dict[int, List[Tuple[int, int]]] = {}
    for i, (u, v) in enumerate(_COINCIDENCE_EDGES):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    return from_adjacency({v: adj[v][::-1] if fl else adj[v]
                           for v, fl in zip(sorted(adj), _COINCIDENCE_FLIPS)})
