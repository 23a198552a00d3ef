"""Planar 3-way edge matching: certificates, verification, construction.

A matching certificate is an edge-to-incident-face assignment with every
face receiving 0 mod 3 edges; triples are recovered by grouping
consecutive assigned edges along each face boundary.  find_p3em builds a
certificate for any 3-regular plane multigraph whose connected components
avoid the two exceptional graphs (K4 and the 2-vertex triple edge),
following the inductive reduction chain; see p3em_cases for the surgery
steps and their lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import fixtures
from .face_kernel import P3emKernel
from .plane_graph import GraphBuilder, PlaneGraph


FaceAssignment = Dict[int, int]     # edge id -> face id


class P3emError(Exception):
    """A construction invariant broke: an internal failure, not bad input."""


class InvalidAssignment(P3emError, ValueError):
    """A given assignment fails verification (an input error)."""


@dataclass
class ExceptionalGraph:
    """Outcome for graphs containing a K4 or M_{2,3} component."""
    kinds: List[str]                  # "K4" / "M23" per offending component
    components: List[List[int]]

    def __bool__(self):
        return False


@dataclass
class VerifyReport:
    ok: bool
    reason: str = ""
    face_counts: Dict[int, int] = field(default_factory=dict)


def verify(g: PlaneGraph, sigma: FaceAssignment,
           counts: Optional[Dict[int, int]] = None,
           faces: Optional[Iterable[int]] = None,
           edges: Optional[Iterable[int]] = None) -> VerifyReport:
    """Check the three certificate invariants, reporting the first failure.

    By default every edge and face of g is checked.  A lift checks only its
    fragment (see p3em_cases): the edges it moved or placed, the faces it
    touched with the face counts it keeps, and the domain by its size,
    since every other edge kept its face."""
    if edges is None:
        edges = set(g.edges())
        if set(sigma) != edges:
            missing = edges - set(sigma)
            extra = set(sigma) - edges
            return VerifyReport(False, f"DomainViolation: missing={sorted(missing)[:4]}"
                                       f" extra={sorted(extra)[:4]}")
        edges = sigma
    elif len(sigma) != len(g.twin) // 2:
        return VerifyReport(False, f"DomainViolation: {len(sigma)} of "
                                   f"{len(g.twin) // 2} edges assigned")
    twin, face_of = g.twin, g.face_of
    for e in edges:
        t = twin.get(e)
        if t is None or sigma.get(e) not in (face_of(e), face_of(t)):
            return VerifyReport(False, f"IncidenceViolation: edge {e} -> face "
                                       f"{sigma.get(e)}")
    if counts is None:
        counts = {f.id: 0 for f in g.faces()}
        for fid in sigma.values():
            counts[fid] += 1
    for fid in (counts if faces is None else faces):
        if counts[fid] % 3:
            return VerifyReport(False, f"Mod3Violation: face {fid} has "
                                       f"{counts[fid]} edges", counts)
    return VerifyReport(True, "", counts)


def triples(g: PlaneGraph, sigma: FaceAssignment) -> List[dict]:
    """Group assigned edges into consecutive triples along each face
    boundary, starting at the smallest boundary dart; sigma is verified
    first."""
    rep = verify(g, sigma)
    if not rep.ok:
        raise InvalidAssignment(rep.reason)
    return group_triples(g, sigma)


def group_triples(g: PlaneGraph, sigma: FaceAssignment) -> List[dict]:
    """The triples of a certificate already verified on g."""
    out = []
    twin = g.twin
    for f in g.faces():
        ordered: List[int] = []
        seen = set()
        for d in f.boundary:   # boundary starts at the minimal dart
            t = twin[d]
            e = d if d < t else t
            if sigma.get(e) == f.id and e not in seen:
                seen.add(e)
                ordered.append(e)
        for i in range(0, len(ordered), 3):
            out.append({"face": f.id, "edges": ordered[i:i + 3]})
    return out


def materialize(g: PlaneGraph, sigma: FaceAssignment) -> PlaneGraph:
    """Subdivide every edge at a midpoint and join each triple's midpoints
    to a fresh junction vertex placed inside the host face."""
    groups = triples(g, sigma)   # verifies sigma
    b = GraphBuilder(g)
    next_v = max(b.rotation, default=-1) + 1
    next_d = b.fresh_dart()

    # midpoint per edge, by its spoke dart (on the host-face side)
    spoke_of: Dict[int, int] = {}
    for f in g.faces():
        for d in f.boundary:
            e = g.edge_of(d)
            if sigma.get(e) != f.id or e in spoke_of:
                continue
            # the host face lies on the orbit side of dart d; placing the
            # spoke between the continuation darts keeps it on that side
            d1, d2 = b.subdivide(d, next_v, next_d)
            b.add_vertex(next_v, [d1, next_d + 2, d2])
            spoke_of[e] = next_d + 2
            next_v += 1
            next_d += 3
    for grp in groups:
        rot = []
        for e in grp["edges"]:
            b.retwin(spoke_of[e], next_d)
            rot.append(next_d)
            next_d += 1
        # junction sees its triple's midpoints in reverse boundary order
        b.add_vertex(next_v, rot[::-1])
        next_v += 1
    return b.freeze()


# -- the (Sigma) system ---------------------------------------------------

FIG17_SOLUTIONS = {
    # (x'0, x'3) with x'4 = 0 -> (x bits, y bits)
    (0, 0): ((1, 0, 0, 0, 0), (1, 0, 0, 0, 1)),
    (0, 1): ((1, 0, 0, 1, 1), (1, 0, 0, 1, 0)),
    (1, 0): ((0, 0, 0, 0, 1), (0, 0, 0, 1, 1)),
    (1, 1): ((0, 0, 0, 1, 1), (0, 0, 0, 1, 1)),
}


def check_sigma(xp: Sequence[int], yp3: int, yp4: int,
                x: Sequence[int], y: Sequence[int]) -> bool:
    """All six congruences of the pentagon equation system, mod 3."""
    def n(v):  # boolean negation
        return 1 - v
    eqs = [
        (x[0] + y[0] + n(x[1])) - (xp[0] + n(xp[1])),
        (x[2] + y[2] + n(x[3])) - (xp[2] + n(xp[3])),
        (x[3] + y[3] + n(x[4])) - (xp[3] + yp3 + n(xp[4])),
        (x[4] + y[4] + n(x[0])) - (xp[4] + yp4 + n(xp[0])),
        (x[1] + y[1] + n(x[2])) - (xp[1] + n(xp[2]) + n(yp3) + n(yp4)),
        sum(n(v) for v in y),
    ]
    return all(v % 3 == 0 for v in eqs)


def _reflect_child(xp):
    return (1 - xp[3], 1 - xp[2], 1 - xp[1], 1 - xp[0], 1 - xp[4])


def _reflect_solution(x, y):
    xr = (1 - x[3], 1 - x[2], 1 - x[1], 1 - x[0], 1 - x[4])
    yr = (y[2], y[1], y[0], y[4], y[3])
    return xr, yr


def solve_sigma(xp: Sequence[int], yp3: int, yp4: int
                ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Boolean solution (x, y) of the pentagon system for any of the 128
    inputs; branches follow the constructive proof, with the four explicit
    geometric cases and their axis reflection covering the residual ones."""
    xp = tuple(int(v) for v in xp)
    if (yp3, yp4) != (0, 0):
        y1 = (1 - yp3) + (1 - yp4)
        x = xp
        y = (0, y1, 0, yp3, yp4)
    elif xp[1] == 0:
        x = (xp[0], 1, xp[2], xp[3], xp[4])
        y = (1, 1, 0, 0, 0)
    elif xp[2] == 1:
        x = (xp[0], xp[1], 0, xp[3], xp[4])
        y = (0, 1, 1, 0, 0)
    elif xp[4] == 0:
        x, y = FIG17_SOLUTIONS[(xp[0], xp[3])]
    else:
        xr = _reflect_child(xp)
        xs, ys = FIG17_SOLUTIONS[(xr[0], xr[3])]
        x, y = _reflect_solution(xs, ys)
    if not check_sigma(xp, yp3, yp4, x, y):
        raise P3emError(f"sigma solution failed for {xp}, ({yp3},{yp4})")
    return tuple(x), tuple(y)


# -- base cases and exceptional graphs ------------------------------------

BASE_BUILDERS = (fixtures.dumbbell, fixtures.base_b, fixtures.base_c,
                 fixtures.base_d, fixtures.base_e, fixtures.prism,
                 fixtures.base_g, fixtures.base_h)

BASE_MAX_VERTICES = 8     # the largest base shape

_CANON = {}


def _canon_table():
    if not _CANON:
        _CANON["K4"] = fixtures.k4().canonical_form()
        _CANON["M23"] = fixtures.m23().canonical_form()
        bases = [b() for b in BASE_BUILDERS]
        _CANON["bases"] = frozenset(g.canonical_form() for g in bases)
        _CANON["shapes"] = frozenset(_shape(g) for g in bases)
    return _CANON


def _shape(g: PlaneGraph) -> tuple:
    """The vertex count and sorted face lengths.  Equal canonical forms
    have equal shapes, so a graph of no base's shape is no base."""
    return len(g.rotation), tuple(sorted(len(f.boundary) for f in g.faces()))


def exceptional_kind(g: PlaneGraph) -> Optional[str]:
    """"K4" or "M23" when the connected graph is one of them."""
    if len(g.vertices()) > 4:
        return None
    tab = _canon_table()
    c = g.canonical_form()
    if c == tab["K4"]:
        return "K4"
    if c == tab["M23"]:
        return "M23"
    return None


def complete_assignment(g: PlaneGraph, sigma: FaceAssignment,
                        pool: Iterable[int]) -> Optional[FaceAssignment]:
    """sigma plus a face for every pool edge such that every face count is
    0 mod 3: the first solution in lexicographic edge/face order, or None
    when there is none.  Exhaustive, so the pool must be small."""
    pool_edges = sorted(pool)
    counts = {f.id: 0 for f in g.faces()}
    for fid in sigma.values():
        counts[fid] += 1
    options = [tuple(dict.fromkeys(g.edge_faces(e))) for e in pool_edges]
    touched = {fid for opts in options for fid in opts}
    if any(c % 3 for fid, c in counts.items() if fid not in touched):
        return None
    choice = place_pool(options, counts)
    if choice is None:
        return None
    out = dict(sigma)
    out.update(zip(pool_edges, choice))
    return out


def place_pool(options: Sequence[Tuple[int, ...]],
               counts: Dict[int, int]) -> Optional[List[int]]:
    """One face per option tuple, the first choice in lexicographic order
    that leaves every face of the options at 0 mod 3 in counts; counts then
    include the choice.  None, with counts unchanged, when there is none.

    A face's count is tested as soon as the last option tuple holding it
    is chosen, since no later choice can change it."""
    last = {fid: i for i, opts in enumerate(options) for fid in opts}
    closed: List[List[int]] = [[] for _ in options]   # faces last held at i
    for fid, i in last.items():
        closed[i].append(fid)
    pick = [-1] * len(options)      # index of the face chosen at each i
    i = 0
    while 0 <= i < len(options):
        opts, j = options[i], pick[i]
        if j >= 0:
            counts[opts[j]] -= 1
        pick[i] = j = j + 1
        if j == len(opts):          # options[i] exhausted: back up
            pick[i] = -1
            i -= 1
            continue
        counts[opts[j]] += 1
        for f in closed[i]:
            if counts[f] % 3:
                break
        else:
            i += 1
    return None if i < 0 else [opts[j] for opts, j in zip(options, pick)]


def search_assignment(g: PlaneGraph) -> Optional[FaceAssignment]:
    """Exhaustive search over edge-to-face assignments; small graphs only."""
    edges = g.edges()
    if len(edges) > 15:
        raise P3emError("exhaustive search capped at 15 edges")
    return complete_assignment(g, {}, edges)


def base_case(g: PlaneGraph) -> Optional[FaceAssignment]:
    """Assignment for the eight hard-coded base shapes; None otherwise."""
    if (len(g.vertices()) > BASE_MAX_VERTICES
            or len(g.connected_components()) != 1):
        return None
    tab = _canon_table()
    if _shape(g) not in tab["shapes"] or g.canonical_form() not in tab["bases"]:
        return None
    sigma = search_assignment(g)
    if sigma is None:
        raise P3emError("base case without an assignment?")
    return sigma


def find_p3em(g: PlaneGraph):
    """FaceAssignment for g, or ExceptionalGraph naming the bad components."""
    from .p3em_cases import solve_component
    g.require_cubic()
    sigma: FaceAssignment = {}
    bad_kinds: List[str] = []
    bad_comps: List[List[int]] = []
    comps = g.connected_components()
    for comp in comps:
        k = P3emKernel(g) if len(comps) == 1 else P3emKernel.part(g, comp)
        kind = exceptional_kind(k.freeze()) if len(comp) <= 4 else None
        if kind is not None:
            bad_kinds.append(kind)
            bad_comps.append(comp)
            continue
        sigma.update(solve_component(k))
    if bad_kinds:
        return ExceptionalGraph(bad_kinds, bad_comps)
    rep = verify(g, sigma)
    if not rep.ok:
        raise P3emError(f"internal: constructed assignment invalid: {rep.reason}")
    return sigma

