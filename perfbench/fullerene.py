"""Fullerene inputs for the benchmark: leapfrog growth and id relabelling.

Leapfrog (the truncation of the dual) maps a cubic plane graph G to the
cubic plane graph with one vertex per dart d of G, adjacent to the
vertices of twin(d), next(d) (the face successor) and prev(d) (the face
predecessor).  Each face of G keeps its length and each vertex of G
becomes a hexagon, so starting from the dodecahedron (C20) every result
is a fullerene: C20 -> C60 -> C180 -> ...  Everything is built directly
with PlaneGraph, whose Euler check validates the embedding.
"""

from __future__ import annotations

import random


def leapfrog(g):
    """Leapfrog of a cubic PlaneGraph; vertex i is the i-th dart of g."""
    from planar_holant.plane_graph import PlaneGraph
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


def relabel(g, rng: random.Random):
    """Isomorphic copy of the PlaneGraph g under random vertex and dart ids
    and random starting points of every rotation (same embedding)."""
    from planar_holant.plane_graph import PlaneGraph
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
