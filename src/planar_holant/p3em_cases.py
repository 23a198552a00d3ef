"""Reduction steps of the matching construction and their lifts.

Each case performs the corresponding local surgery on the rotation system
(contractions, deletions, retwins keep dart ids stable away from the
fragment), recurses on the strictly smaller children, and lifts their
certificates back: edges whose dart pair survives in a child inherit the
face on the matching side, and the handful of fragment edges are placed
by an exact local search over their incident faces, which the proof
guarantees to be feasible.  The pentagon case instead derives its ten
placements from the boolean system solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .plane_graph import GraphBuilder, GraphError, PlaneGraph
from .p3em import (FaceAssignment, P3emError, base_case, complete_assignment,
                   exceptional_kind, solve_sigma, verify)


@dataclass
class ReductionStep:
    label: str
    children: List[PlaneGraph]
    lift: Callable[[List[FaceAssignment]], FaceAssignment]


def solve_component(g: PlaneGraph) -> FaceAssignment:
    """Certificate for a connected, non-exceptional cubic plane graph.

    Walks the reduction tree depth first on an explicit stack of (graph,
    step, child certificates) frames, so the length of a reduction chain
    is not bounded by the interpreter's recursion limit."""
    frames = [(g, None, [])]
    sigma = None          # certificate of the frame popped last
    while frames:
        g, step, subs = frames[-1]
        if sigma is not None:
            subs.append(sigma)
            sigma = None
        elif step is None:
            sigma = base_case(g)
            if sigma is not None:
                frames.pop()
                continue
            step = step_reduce(g)
            frames[-1] = (g, step, subs)
        if len(subs) < len(step.children):
            child = step.children[len(subs)]
            if len(child.connected_components()) != 1:
                raise P3emError(f"{step.label}: child not connected")
            if exceptional_kind(child) is not None:
                raise P3emError(f"{step.label}: exceptional child (unreachable)")
            frames.append((child, None, []))
            continue
        sigma = step.lift(subs)
        rep = verify(g, sigma)
        if not rep.ok:
            raise P3emError(f"{step.label}: lift produced {rep.reason}")
        frames.pop()
    return sigma


def step_reduce(g: PlaneGraph) -> ReductionStep:
    """One reduction step; priority mirrors the proof's assumption chain."""
    loop = _find_loop(g)
    if loop is not None:
        return _case_self_loop(g, loop)
    pair = _find_parallel(g)
    if pair is not None:
        return _case_double_edge(g, pair)
    tri = _find_face_of_len(g, 3)
    if tri is not None:
        return _case_triangle(g, tri)
    br = g.bridges()
    if br:
        return _case_bridge(g, min(br))
    sq = _find_face_of_len(g, 4)
    if sq is not None:
        return _case_square(g, sq)
    ch = _find_chord(g)
    if ch is not None:
        return _case_chord(g, *ch)
    pent = _find_face_of_len(g, 5)
    if pent is None:
        raise P3emError("NoApplicableCase: no pentagon face (unreachable)")
    lab = _face_labels(g, pent)
    coin = _find_b_coincidence(lab)
    if coin is not None:
        return _case_b_coincidence(g, _rotate_labels(lab, coin))
    return _case_pentagon(g, lab)


# -- detection helpers ----------------------------------------------------

def _find_loop(g: PlaneGraph) -> Optional[int]:
    for d in g.darts():
        if g.vertex_of[d] == g.vertex_of[g.twin[d]]:
            return min(d, g.twin[d])
    return None


def _find_parallel(g: PlaneGraph) -> Optional[Tuple[int, int]]:
    seen: Dict[Tuple[int, int], int] = {}
    for e in g.edges():
        u, v = g.edge_ends(e)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            return (seen[key], e)
        seen[key] = e
    return None


def _find_face_of_len(g: PlaneGraph, k: int):
    for f in g.faces():
        if len(f.boundary) == k:
            return f
    return None


def _find_chord(g: PlaneGraph):
    """(outer face, smallest chord edge) for the first face whose boundary
    cycle has a chord; requires the simple/bridgeless/triangle-free/
    square-free stage.  A chord has a dart at a boundary vertex, so each
    face costs O(boundary length)."""
    for f in g.faces():
        on_cycle = {g.vertex_of[d] for d in f.boundary}
        cyc_edges = {g.edge_of(d) for d in f.boundary}
        chords = [g.edge_of(d) for v in on_cycle for d in g.rotation[v]
                  if g.edge_of(d) not in cyc_edges
                  and g.vertex_of[g.twin[d]] in on_cycle]
        if chords:
            return f, min(chords)
    return None


@dataclass
class FaceLabels:
    face_id: int
    darts: Tuple[int, ...]       # boundary darts p_i (a_i -> a_{i+1})
    a: Tuple[int, ...]           # boundary vertices
    pe: Tuple[int, ...]          # boundary edge ids
    spokes: Tuple[int, ...]      # spoke darts at a_i, off the boundary
    se: Tuple[int, ...]          # spoke edge ids
    b: Tuple[int, ...]           # far ends of the spokes


def _face_labels(g: PlaneGraph, face) -> FaceLabels:
    """Labels of a face of a cubic graph whose boundary visits each corner
    once, in boundary order from the face's smallest dart."""
    darts = tuple(face.boundary)
    a = tuple(g.vertex_of[d] for d in darts)
    spokes = tuple(next(x for x in g.rotation[v]
                        if x != d and x != g.twin[prev_d])
                   for v, d, prev_d in zip(a, darts, darts[-1:] + darts[:-1]))
    return FaceLabels(face.id, darts, a, tuple(g.edge_of(d) for d in darts),
                      spokes, tuple(g.edge_of(s) for s in spokes),
                      tuple(g.vertex_of[g.twin[s]] for s in spokes))


def _rotate_labels(lab: FaceLabels, i: int) -> FaceLabels:
    """The same labels read from corner i on."""
    r = lambda t: t[i:] + t[:i]
    return FaceLabels(lab.face_id, r(lab.darts), r(lab.a), r(lab.pe),
                      r(lab.spokes), r(lab.se), r(lab.b))


# -- lift machinery --------------------------------------------------------

def _dart_map(parent: PlaneGraph, children: List[PlaneGraph],
              assignments: List[FaceAssignment],
              pool: Set[int]) -> Tuple[FaceAssignment, Set[int]]:
    """Inherit assignments for every parent edge whose dart pair survives in
    a child; undecidable or missing edges join the pool."""
    sigma: FaceAssignment = {}
    pool = set(pool)
    for e in parent.edges():
        if e in pool:
            continue
        t = parent.twin[e]
        hit = False
        for child, sub in zip(children, assignments):
            if child.twin.get(e) == t:
                hit = True
                fid = sub[min(e, t)]
                cands = [d for d in (e, t) if child.face_of(d) == fid]
                if not cands:
                    raise P3emError(f"child assignment off-face for edge {e}")
                pfaces = {parent.face_of(d) for d in cands}
                if len(pfaces) == 1:
                    sigma[e] = pfaces.pop()
                else:
                    pool.add(e)
                break
        if not hit:
            pool.add(e)
    return sigma, pool


def _pool_search(parent: PlaneGraph, sigma: FaceAssignment,
                 pool: Set[int]) -> FaceAssignment:
    out = complete_assignment(parent, sigma, pool)
    if out is None:
        raise P3emError("pool search found no completion (unreachable)")
    return out


def _standard_lift(parent: PlaneGraph, children: List[PlaneGraph],
                   pool: Set[int]):
    def lift(assignments: List[FaceAssignment]) -> FaceAssignment:
        sigma, full_pool = _dart_map(parent, children, assignments, pool)
        return _pool_search(parent, sigma, full_pool)
    return lift


def _other_darts(g: PlaneGraph, v: int, exclude: Sequence[int]) -> List[int]:
    return [d for d in g.rotation[v] if d not in exclude]


# -- the cases --------------------------------------------------------------

def _case_self_loop(g: PlaneGraph, loop_e: int) -> ReductionStep:
    l1, l2 = loop_e, g.twin[loop_e]
    A = g.vertex_of[l1]
    d2A = _other_darts(g, A, (l1, l2))[0]
    d2B = g.twin[d2A]
    B = g.vertex_of[d2B]
    dX, dY = _other_darts(g, B, (d2B,))
    if g.twin[dX] == dY:
        raise P3emError("dumbbell reached the loop case")  # base case upstream
    pool = {loop_e, g.edge_of(d2A), g.edge_of(dX), g.edge_of(dY)}
    b = GraphBuilder(g)
    b.delete_edge(l1)
    b.delete_edge(d2A)
    b.rotation.pop(A)
    # suppress B by contracting one incident edge (e3); e4's darts survive
    b.contract_edge(dX, new_vertex=g.vertex_of[g.twin[dX]])
    child = b.freeze()
    return ReductionStep("self_loop", [child], _standard_lift(g, [child], pool))


def _case_double_edge(g: PlaneGraph, pair: Tuple[int, int]) -> ReductionStep:
    e2, e3 = pair
    B, C = g.edge_ends(e2)
    d1B = next(d for d in g.rotation[B] if g.edge_of(d) not in pair)
    d4C = next(d for d in g.rotation[C] if g.edge_of(d) not in pair)
    e1, e4 = g.edge_of(d1B), g.edge_of(d4C)
    A = g.vertex_of[g.twin[d1B]]
    pool = {e1, e2, e3, e4}
    b = GraphBuilder(g)
    b.delete_edge(e2)
    b.contract_edge(e3, new_vertex=B)     # C merges into B
    b.contract_edge(d1B, new_vertex=A)    # B merges into A; e4 survives
    child = b.freeze()
    return ReductionStep("double_edge", [child], _standard_lift(g, [child], pool))


def _case_triangle(g: PlaneGraph, face) -> ReductionStep:
    lab = _face_labels(g, face)
    if len(set(lab.b)) == 3:
        pool = set(lab.pe)
        b = GraphBuilder(g)
        d1, d2, d3 = lab.darts
        b.contract_edge(d1, new_vertex=lab.a[0])   # merge the d1 edge
        b.delete_edge(d3)                          # one of the bigon pair
        b.contract_edge(d2, new_vertex=lab.a[0])
        child = b.freeze()
        return ReductionStep("triangle", [child],
                             _standard_lift(g, [child], pool))
    # exactly one coinciding pair; rotate so corners 0 and 1 share it
    rot = 0
    if lab.b[1] == lab.b[2]:
        rot = 1
    elif lab.b[0] == lab.b[2]:
        rot = 2
    lab = _rotate_labels(lab, rot)
    Dv = lab.b[0]
    dD_out = next(x for x in g.rotation[Dv]
                  if g.edge_of(x) not in lab.se[:2])
    pool = set(lab.pe) | set(lab.se) | {g.edge_of(dD_out)}
    b = GraphBuilder(g)
    # delete edge A-B (the triangle edge from corner A)
    b.delete_edge(lab.pe[0])
    b.contract_edge(lab.spokes[0], new_vertex=Dv)   # A into D
    b.contract_edge(lab.spokes[1], new_vertex=Dv)   # B into D
    # D and C now joined by the two remaining triangle edges
    b.delete_edge(lab.pe[2])                        # ex C-A edge
    b.contract_edge(lab.pe[1], new_vertex=Dv)       # ex B-C: C into D
    # suppress the degree-2 merged vertex through D's outer edge
    b.contract_edge(dD_out, new_vertex=g.vertex_of[g.twin[dD_out]])
    child = b.freeze()
    return ReductionStep("triangle_shared", [child],
                         _standard_lift(g, [child], pool))


def _case_bridge(g: PlaneGraph, e: int) -> ReductionStep:
    dB, dE = e, g.twin[e]
    B, E = g.vertex_of[dB], g.vertex_of[dE]
    dBA, dBC = _other_darts(g, B, (dB,))
    dED, dEF = _other_darts(g, E, (dE,))
    pool = {e, g.edge_of(dBA), g.edge_of(dBC), g.edge_of(dED), g.edge_of(dEF)}
    b = GraphBuilder(g)
    b.delete_edge(e)
    b.contract_edge(dBA, new_vertex=g.vertex_of[g.twin[dBA]])
    b.contract_edge(dED, new_vertex=g.vertex_of[g.twin[dED]])
    rest = b.freeze()
    children = [rest.induced(c) for c in rest.connected_components()]
    if len(children) != 2:
        raise P3emError("bridge surgery did not split the graph")
    return ReductionStep("bridge", children, _standard_lift(g, children, pool))


def _case_square(g: PlaneGraph, face) -> ReductionStep:
    d1, d2, d3, d4 = face.boundary
    pool = {g.edge_of(d2), g.edge_of(d3), g.edge_of(d4)}
    b = GraphBuilder(g)
    b.contract_edge(d4, new_vertex=g.vertex_of[d4])   # D-A edge
    b.contract_edge(d2, new_vertex=g.vertex_of[d2])   # B-C edge
    b.delete_edge(d3)                                  # ex C-D edge
    child = b.freeze()
    return ReductionStep("square", [child], _standard_lift(g, [child], pool))


def _reachable(g: PlaneGraph, start: int, banned: Set[int]) -> Set[int]:
    """Vertices reachable from start without leaving along a banned dart."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for d in g.rotation[v]:
            if d in banned:
                continue
            w = g.vertex_of[g.twin[d]]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _case_chord(g: PlaneGraph, outer, chord: int) -> ReductionStep:
    qA, qB = chord, g.twin[chord]
    A, B = g.vertex_of[qA], g.vertex_of[qB]
    F1, F2 = g.face_of(qA), g.face_of(qB)
    boundary2 = set(g.face_boundary(F2))

    def cyc_split(v, q):
        d1, d2 = _other_darts(g, v, (q,))
        e1d, e2d = g.twin[d1], g.twin[d2]
        if d1 in boundary2 or e1d in boundary2:
            return d2, d1   # (region-1 side dart, region-2 side dart)
        return d1, d2

    dAC, dAE = cyc_split(A, qA)
    dBD, dBF = cyc_split(B, qB)
    Ev = g.vertex_of[g.twin[dAE]]
    Fv = g.vertex_of[g.twin[dBF]]
    into_ab = {g.twin[d] for d in g.rotation[A] + g.rotation[B]}
    region2 = _reachable(g, Ev, into_ab)
    if Fv not in region2 or g.vertex_of[g.twin[dAC]] in region2:
        raise P3emError("chord region identification failed")
    pool = {chord, g.edge_of(dAE), g.edge_of(dBF)}

    # left child: region 1 plus A, B, and fresh E', F'; of the four cyclic
    # arrangements only the one matching the parent orientation is planar
    # with the two new triangle faces, which the trial loop detects
    left = None
    nd = max(g.twin) + 1
    eA, eB, eF = nd, nd + 1, nd + 2
    fA, fB, fE = nd + 3, nd + 4, nd + 5
    Ep = max(g.rotation) + 1
    Fp = Ep + 1
    for e_rot in ([eA, eB, eF], [eA, eF, eB]):
        for f_rot in ([fA, fB, fE], [fA, fE, fB]):
            trial = GraphBuilder(g)
            for v in region2:
                trial.remove_vertex(v)
            trial.retwin(qA, eA)
            trial.retwin(qB, eB)
            trial.retwin(dAE, fA)
            trial.retwin(dBF, fB)
            trial.retwin(eF, fE)
            trial.add_vertex(Ep, e_rot)
            trial.add_vertex(Fp, f_rot)
            try:
                cand = trial.freeze()
            except GraphError:
                continue
            t1, t2 = cand.face_of(eF), cand.face_of(fE)
            if (len(cand.face_boundary(t1)) == 3
                    and len(cand.face_boundary(t2)) == 3):
                left = cand
                break
        if left is not None:
            break
    if left is None:
        raise P3emError("no planar completion for the chord fragment")

    # right child: region 2 with E-F shortcut
    rb = GraphBuilder(g)
    for v in set(g.vertices()) - region2:
        rb.remove_vertex(v)
    rb.retwin(g.twin[dAE], g.twin[dBF])
    right = rb.freeze()
    children = [left, right]
    return ReductionStep("chord", children, _standard_lift(g, children, pool))


# -- pentagon ---------------------------------------------------------------

def _find_b_coincidence(lab: FaceLabels) -> Optional[int]:
    for i in range(5):
        if lab.b[i] == lab.b[(i + 2) % 5]:
            return i
    return None


def _case_b_coincidence(g: PlaneGraph, lab: FaceLabels) -> ReductionStep:
    # b0 == b2: cut the two edges leaving the cycle (a2,a1,a0,b0) and close
    # each side with a fresh connection re-using the freed darts
    b0 = lab.b[0]
    s1 = lab.spokes[1]                   # dart a1 -> b1
    dbb = next(d for d in g.rotation[b0]
               if g.edge_of(d) not in (lab.se[0], lab.se[2]))
    e1, e2 = lab.se[1], g.edge_of(dbb)
    t1, t2 = g.twin[s1], g.twin[dbb]

    # a0's side once edges e1 and e2 are cut
    inner = _reachable(g, lab.a[0], {s1, t1, dbb, t2})
    if lab.b[1] in inner or g.vertex_of[t2] in inner:
        raise P3emError("coincidence cut did not separate the graph")
    outer = set(g.vertices()) - inner
    b1b = GraphBuilder(g)
    b1b.retwin(s1, dbb)
    for v in outer:
        b1b.remove_vertex(v)
    g1 = b1b.freeze()
    b2b = GraphBuilder(g)
    b2b.retwin(t1, t2)
    for v in inner:
        b2b.remove_vertex(v)
    g2 = b2b.freeze()
    children = [g1, g2]
    pool = {e1, e2}
    return ReductionStep("pentagon_coincident", children,
                         _standard_lift(g, children, pool))


def _face_has_edge(child: PlaneGraph, fid: int, edge: int) -> bool:
    return any(child.edge_of(d) == edge for d in child.face_boundary(fid))


def _side_bit(child: PlaneGraph, sub: FaceAssignment, edge: int,
              marker: int, positive: bool) -> int:
    """1 when edge is assigned to its side whose face does (positive) or
    does not (negative) contain a dart of the marker edge."""
    fid = sub[edge]
    has = _face_has_edge(child, fid, marker)
    return int(has == positive)


def _case_pentagon(g: PlaneGraph, lab: FaceLabels) -> ReductionStep:
    if len(set(lab.b)) != 5:
        raise P3emError("pentagon case needs distinct spoke neighbors")
    b = GraphBuilder(g)
    b.delete_edge(lab.pe[1])                          # a1-a2
    b.contract_edge(lab.darts[0], new_vertex=lab.a[0])   # a0-a1 into a0
    b.contract_edge(lab.darts[2], new_vertex=lab.a[3])   # a2-a3 into a3
    child = b.freeze()
    fragment = set(lab.pe) | set(lab.se)
    parent_faces = _pentagon_parent_faces(g, lab)

    def lift(assignments: List[FaceAssignment]) -> FaceAssignment:
        sub = assignments[0]
        xp = (
            _side_bit(child, sub, lab.se[0], lab.pe[4], False),
            _side_bit(child, sub, lab.se[1], lab.pe[4], True),
            _side_bit(child, sub, lab.se[2], lab.se[3], True),
            _side_bit(child, sub, lab.se[3], lab.pe[3], True),
            _side_bit(child, sub, lab.se[4], lab.pe[4], True),
        )
        yp3 = _side_bit(child, sub, lab.pe[3], lab.se[3], True)
        yp4 = _side_bit(child, sub, lab.pe[4], lab.se[4], True)
        x, y = solve_sigma(xp, yp3, yp4)
        sigma, pool = _dart_map(g, [child], [sub], set(fragment))
        P, delta = parent_faces
        for i in range(5):
            sigma[lab.se[i]] = delta[i] if x[i] else delta[(i - 1) % 5]
            sigma[lab.pe[i]] = delta[i] if y[i] else P
        leftovers = pool - fragment
        if leftovers:
            return _pool_search(g, sigma, leftovers)
        return sigma

    return ReductionStep("pentagon", [child], lift)


def _pentagon_parent_faces(g: PlaneGraph, lab: FaceLabels):
    P = lab.face_id
    delta = []
    for i in range(5):
        f1, f2 = g.edge_faces(lab.pe[i])
        delta.append(f2 if f1 == P else f1)
    return P, tuple(delta)
