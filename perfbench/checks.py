"""Oracles the benchmark checks every output against.

Both work on the JSON forms the CLI reads, and neither calls into
planar_holant, so a defect in the library cannot hide itself:

* check_p3em recomputes the faces of a plane graph from its rotation
  system and checks a ``p3em find`` certificate: every edge is assigned
  to one of its two incident faces, every face receives 0 mod 3 edges,
  and the reported triples partition the edges by face.
* enumerate_holant sums a bipartite equality grid over all assignments
  of its right-hand equality nodes; make_oracles.py uses it to confirm
  the stored expected values that eval_grid established.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, Optional


def faces_of(graph: dict) -> Dict[int, int]:
    """Map dart -> face id (smallest dart on the face) of a plane graph JSON."""
    twin = {d["id"]: d["twin"] for d in graph["darts"]}
    vertex = {d["id"]: d["vertex"] for d in graph["darts"]}
    rotation = {v["id"]: v["rotation"] for v in graph["vertices"]}
    pos = {d: i for rot in rotation.values() for i, d in enumerate(rot)}

    def successor(d: int) -> int:
        t = twin[d]
        rot = rotation[vertex[t]]
        return rot[(pos[t] + 1) % len(rot)]

    face: Dict[int, int] = {}
    for d0 in sorted(twin):
        if d0 in face:
            continue
        orbit, d = [d0], successor(d0)
        while d != d0:
            orbit.append(d)
            d = successor(d)
        for d in orbit:
            face[d] = min(orbit)
    return face


def check_p3em(graph: dict, out: dict) -> Optional[str]:
    """None when out is a valid certificate for graph, else the reason."""
    if "assignment" not in out:
        return f"no assignment in output: {sorted(out)}"
    twin = {d["id"]: d["twin"] for d in graph["darts"]}
    face = faces_of(graph)
    sigma = {int(e): int(f) for e, f in out["assignment"].items()}
    edges = {d for d, t in twin.items() if d < t}
    if set(sigma) != edges:
        return f"assignment covers {len(sigma)} of {len(edges)} edges"
    counts = {f: 0 for f in face.values()}
    for e, f in sigma.items():
        if f not in (face[e], face[twin[e]]):
            return f"edge {e} assigned to non-incident face {f}"
        counts[f] += 1
    bad = [f for f, c in counts.items() if c % 3]
    if bad:
        return f"face {bad[0]} receives {counts[bad[0]]} edges"
    seen = set()
    for t in out.get("triples", []):
        es = t["edges"]
        if len(es) != 3 or any(sigma.get(e) != t["face"] for e in es):
            return f"triple {t} is not three edges of its face"
        seen.update(es)
    if seen != edges or 3 * len(out.get("triples", [])) != len(edges):
        return "triples do not partition the edges"
    return None


def enumerate_holant(grid: dict) -> Fraction:
    """Holant value of a bipartite grid JSON whose right nodes are ternary
    equalities and whose left nodes carry symmetric signatures, by summing
    over the booleans of the right nodes; exponential, for one-time oracle
    generation only."""
    nodes = {n["id"]: n for n in grid["nodes"]}
    right = [i for i, n in nodes.items() if n["side"] == "right"]
    for i in right:
        if [Fraction(v) for v in nodes[i]["symmetric"]] != [1, 0, 0, 1]:
            raise ValueError(f"right node {i} is not =3")
    # the right node feeding every slot of every left node
    feed = {}
    for na, sa, nb, sb in grid["edges"]:
        if nodes[na]["side"] == "right":
            na, sa, nb, sb = nb, sb, na, sa
        feed[(na, sa)] = nb
    lefts = [(n["id"], [Fraction(v) for v in n["symmetric"]], len(n["slots"]))
             for n in nodes.values() if n["side"] == "left"]
    total = Fraction(0)
    for bits in product((0, 1), repeat=len(right)):
        val = dict(zip(right, bits))
        term = Fraction(1)
        for nid, sig, arity in lefts:
            term *= sig[sum(val[feed[(nid, s)]] for s in range(arity))]
        total += term
    return total
