"""Reduction steps of the matching construction and their lifts.

All steps on one connected component run on one P3emKernel.  Each case does
its surgery in place (contractions, deletions and retwins keep dart ids
stable away from the fragment) and commits it, which re-walks only the
faces whose dart cycle changed; the kernel itself is then the child.  The
bridge, chord and pentagon-coincidence cases leave two components, and
each is copied into a kernel of its own.  Every pick (loop, parallel pair,
short face, bridge, chord) comes from the kernel's candidate heaps and is
the one a full scan would make, so no step scans the whole graph.

A lift runs when the children's certificates are done, so the kernel holds
the child again.  Edges on faces the step kept keep their face.  An edge
on a face the step created moves, through its dart on that face, to the
parent face that dart was on; an edge whose two darts share one created
face but came from two parent faces joins the pool.  Then the surgery is
undone, and the pool (the fragment edges and those ambiguous ones) is
placed by an exact local search over the faces it touches, which the proof
guarantees to be feasible.  The pentagon case instead derives its ten
placements from the boolean system solver.

The checks are local too.  A commit checks the touched darts and Euler's
formula through the change of V - E + F; a split checks its two parts by
reachability; after each lift, verify checks its fragment: that every
face it touched counts 0 mod 3, that every edge it moved or placed lies
on its face, and that the certificate has one face per parent edge.
Given a valid parent, these prove by induction what a full verify
proves; find_p3em still runs the full verify once on the final
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .face_kernel import P3emKernel, Surgery
from .plane_graph import GraphError, PlaneGraph, reach
from .p3em import (BASE_MAX_VERTICES, FaceAssignment, P3emError, base_case,
                   exceptional_kind, place_pool, solve_sigma, verify)


@dataclass
class Certificate:
    sigma: FaceAssignment     # edge id -> face id
    counts: Dict[int, int]    # face id -> edges assigned, for every face
    faces: Set[int] = field(default_factory=set)   # faces the last lift touched
    edges: Set[int] = field(default_factory=set)   # edges it moved or placed


@dataclass
class ReductionStep:
    label: str
    children: List[P3emKernel]
    lift: Callable[[List[Certificate]], Certificate]


def solve_component(g: PlaneGraph) -> FaceAssignment:
    """Certificate for a connected, non-exceptional cubic plane graph."""
    return solve_kernel(P3emKernel(g)).sigma


def solve_kernel(k: P3emKernel) -> Certificate:
    """Certificate for the graph k holds; k holds it again afterwards.

    Walks the reduction tree depth first on an explicit stack of (kernel,
    step, child certificates) frames, so the length of a reduction chain
    is not bounded by the interpreter's recursion limit."""
    frames = [(k, None, [])]
    cert = None           # certificate of the frame popped last
    while frames:
        k, step, subs = frames[-1]
        if cert is not None:
            subs.append(cert)
            cert = None
        elif step is None:
            cert = _base_certificate(k)
            if cert is not None:
                frames.pop()
                continue
            step = step_reduce(k)
            frames[-1] = (k, step, subs)
        if len(subs) < len(step.children):
            frames.append((step.children[len(subs)], None, []))
            continue
        cert = step.lift(subs)
        rep = verify(k, cert.sigma, cert.counts, cert.faces, cert.edges)
        if not rep.ok:
            raise P3emError(f"{step.label}: lift failed verify: {rep.reason}")
        frames.pop()
    return cert


def _base_certificate(k: P3emKernel) -> Optional[Certificate]:
    """The certificate of a base shape; None for any other graph.  Only
    graphs no larger than the largest base shape are frozen and compared."""
    if len(k.rotation) > BASE_MAX_VERTICES:
        return None
    try:
        g = k.freeze()
    except GraphError as ex:
        raise P3emError(f"kernel invalid: {type(ex).__name__}: {ex}") from None
    if exceptional_kind(g) is not None:
        raise P3emError("exceptional child (unreachable)")
    sigma = base_case(g)
    if sigma is None:
        return None
    counts = dict.fromkeys(k.face, 0)
    for fid in sigma.values():
        counts[fid] += 1
    return Certificate(sigma, counts)


def step_reduce(k: P3emKernel) -> ReductionStep:
    """One reduction step; priority mirrors the proof's assumption chain."""
    loop = k.smallest_loop()
    if loop is not None:
        return _case_self_loop(k, loop)
    pair = k.smallest_parallel_pair()
    if pair is not None:
        return _case_double_edge(k, pair)
    tri = k.smallest_face(3)
    if tri is not None:
        return _case_triangle(k, tri)
    br = k.smallest_bridge()
    if br is not None:
        return _case_bridge(k, br)
    sq = k.smallest_face(4)
    if sq is not None:
        return _case_square(k, sq)
    ch = k.smallest_chord()
    if ch is not None:
        return _case_chord(k, ch[1])
    pent = k.smallest_face(5)
    if pent is None:
        raise P3emError("NoApplicableCase: no pentagon face (unreachable)")
    lab = _face_labels(k, pent)
    coin = _find_b_coincidence(lab)
    if coin is not None:
        return _case_b_coincidence(k, _rotate_labels(lab, coin))
    return _case_pentagon(k, lab)


# -- labels and reachability ------------------------------------------------

@dataclass
class FaceLabels:
    face_id: int
    darts: Tuple[int, ...]       # boundary darts p_i (a_i -> a_{i+1})
    a: Tuple[int, ...]           # boundary vertices
    pe: Tuple[int, ...]          # boundary edge ids
    spokes: Tuple[int, ...]      # spoke darts at a_i, off the boundary
    se: Tuple[int, ...]          # spoke edge ids
    b: Tuple[int, ...]           # far ends of the spokes


def _face_labels(g, face) -> FaceLabels:
    """Labels of a face of a cubic graph whose boundary visits each corner
    once, in boundary order from the face's smallest dart."""
    twin, vertex_of, rotation = g.twin, g.vertex_of, g.rotation
    darts = tuple(face.boundary)
    a = tuple(vertex_of[d] for d in darts)
    spokes = tuple(next(x for x in rotation[v] if x != d and x != twin[prev_d])
                   for v, d, prev_d in zip(a, darts, darts[-1:] + darts[:-1]))
    return FaceLabels(face.id, darts, a, tuple(min(d, twin[d]) for d in darts),
                      spokes, tuple(min(s, twin[s]) for s in spokes),
                      tuple(vertex_of[twin[s]] for s in spokes))


def _rotate_labels(lab: FaceLabels, i: int) -> FaceLabels:
    """The same labels read from corner i on."""
    r = lambda t: t[i:] + t[:i]
    return FaceLabels(lab.face_id, r(lab.darts), r(lab.a), r(lab.pe),
                      r(lab.spokes), r(lab.se), r(lab.b))


# -- commits, splits and lifts -----------------------------------------------

def _commit(k: P3emKernel, label: str, parts: int = 1) -> Surgery:
    """Commit k's surgery; it must leave `parts` planar components of the
    connected parent, so V - E + F must change by 2 * (parts - 1)."""
    try:
        s = k.commit()
    except GraphError as ex:
        raise P3emError(f"{label}: {type(ex).__name__}: {ex}") from None
    if s.euler != 2 * (parts - 1):
        raise P3emError(f"{label}: NonPlanarEmbedding: V-E+F changed by {s.euler}")
    return s


def _in_place(k: P3emKernel, label: str, pool: Set[int]) -> ReductionStep:
    s = _commit(k, label)
    return ReductionStep(label, [k], lambda certs: _lift(k, s, pool, certs[0]))


def _split(k: P3emKernel, label: str, pool: Set[int], s: Surgery,
           seeds: Sequence[int]) -> ReductionStep:
    """Children for the two components of k that contain the seeds."""
    parts = [reach(k, v) for v in seeds]
    if seeds[0] in parts[1] or len(parts[0]) + len(parts[1]) != len(k.rotation):
        raise P3emError(f"{label}: surgery did not split the graph in two")
    return ReductionStep(label, [k.split_off(p) for p in parts],
                         lambda certs: _lift(k, s, pool, _merge(certs)))


def _merge(certs: List[Certificate]) -> Certificate:
    big = max(certs, key=lambda c: len(c.sigma))
    for c in certs:
        if c is not big:
            big.sigma.update(c.sigma)
            big.counts.update(c.counts)
    return big


def _remap(k: P3emKernel, s: Surgery, pool: Set[int],
           cert: Certificate) -> Tuple[Set[int], Set[int]]:
    """Move cert from the child k holds onto the parent's faces, in place.
    Returns the pool, grown by the parent edges the child lacks and the
    ambiguous edges, and the edges moved."""
    sigma, counts = cert.sigma, cert.counts
    pool = set(pool)
    drop = set(pool)
    for d, (t, _) in s.old_dart.items():
        now = k.twin.get(d)
        if now != t:
            if t is not None:
                pool.add(min(d, t))      # a parent edge the child lacks
            if now is not None:
                drop.add(min(d, now))    # a child edge the parent lacks
    for e in drop:
        fid = sigma.pop(e, None)
        if fid is not None:
            counts[fid] -= 1
    parent_face = {d: f.id for f in s.dead for d in f.boundary}
    moves: Dict[int, Set[int]] = {}
    twin = k.twin
    for cf in s.created:
        on_face = set()
        for d in k.face[cf].boundary:
            t = twin[d]
            e = d if d < t else t   # k.edge_of(d)
            if sigma.get(e) == cf:
                if d not in parent_face:
                    raise P3emError(f"dart {d} of new face {cf} has no parent face")
                on_face.add(e)
                moves.setdefault(e, set()).add(parent_face[d])
        if len(on_face) != counts.pop(cf):
            raise P3emError(f"IncidenceViolation: face {cf} is assigned edges "
                            "off its boundary")
    for f in s.dead:
        counts[f.id] = 0
    for e, faces in moves.items():
        if len(faces) == 1:
            sigma[e] = fid = faces.pop()
            counts[fid] += 1
        else:
            del sigma[e]
            pool.add(e)
    return pool, set(moves)


def _complete(k: P3emKernel, s: Surgery, cert: Certificate, pool: Set[int],
              placed: Set[int]) -> Certificate:
    """Place the pool by the completion search over the faces it touches
    (k holds the parent), and note the faces and edges the lift touched."""
    sigma, counts = cert.sigma, cert.counts
    edges = sorted(pool)
    options = [tuple(dict.fromkeys(k.edge_faces(e))) for e in edges]
    choice = place_pool(options, counts)
    if choice is None:
        raise P3emError("pool search found no completion (unreachable)")
    sigma.update(zip(edges, choice))
    cert.faces = {f.id for f in s.dead}.union(*options)
    cert.edges = placed | pool
    return cert


def _lift(k: P3emKernel, s: Surgery, pool: Set[int],
          cert: Certificate) -> Certificate:
    pool, moved = _remap(k, s, pool, cert)
    k.undo(s)
    return _complete(k, s, cert, pool, moved)


def _other_darts(g, v: int, exclude: Sequence[int]) -> List[int]:
    return [d for d in g.rotation[v] if d not in exclude]


# -- the cases --------------------------------------------------------------

def _case_self_loop(k: P3emKernel, loop_e: int) -> ReductionStep:
    l1, l2 = loop_e, k.twin[loop_e]
    A = k.vertex_of[l1]
    d2A = _other_darts(k, A, (l1, l2))[0]
    d2B = k.twin[d2A]
    B = k.vertex_of[d2B]
    dX, dY = _other_darts(k, B, (d2B,))
    if k.twin[dX] == dY:
        raise P3emError("dumbbell reached the loop case")  # base case upstream
    pool = {loop_e, k.edge_of(d2A), k.edge_of(dX), k.edge_of(dY)}
    k.delete_edge(l1)
    k.delete_edge(d2A)
    k.remove_vertex(A)
    # suppress B by contracting one incident edge (e3); e4's darts survive
    k.contract_edge(dX, new_vertex=k.vertex_of[k.twin[dX]])
    return _in_place(k, "self_loop", pool)


def _case_double_edge(k: P3emKernel, pair: Tuple[int, int]) -> ReductionStep:
    e2, e3 = pair
    B, C = k.edge_ends(e2)
    d1B = next(d for d in k.rotation[B] if k.edge_of(d) not in pair)
    d4C = next(d for d in k.rotation[C] if k.edge_of(d) not in pair)
    e1, e4 = k.edge_of(d1B), k.edge_of(d4C)
    A = k.vertex_of[k.twin[d1B]]
    pool = {e1, e2, e3, e4}
    k.delete_edge(e2)
    k.contract_edge(e3, new_vertex=B)     # C merges into B
    k.contract_edge(d1B, new_vertex=A)    # B merges into A; e4 survives
    return _in_place(k, "double_edge", pool)


def _case_triangle(k: P3emKernel, face) -> ReductionStep:
    lab = _face_labels(k, face)
    if len(set(lab.b)) == 3:
        pool = set(lab.pe)
        d1, d2, d3 = lab.darts
        k.contract_edge(d1, new_vertex=lab.a[0])   # merge the d1 edge
        k.delete_edge(d3)                          # one of the bigon pair
        k.contract_edge(d2, new_vertex=lab.a[0])
        return _in_place(k, "triangle", pool)
    # exactly one coinciding pair; rotate so corners 0 and 1 share it
    rot = 0
    if lab.b[1] == lab.b[2]:
        rot = 1
    elif lab.b[0] == lab.b[2]:
        rot = 2
    lab = _rotate_labels(lab, rot)
    Dv = lab.b[0]
    dD_out = next(x for x in k.rotation[Dv]
                  if k.edge_of(x) not in lab.se[:2])
    pool = set(lab.pe) | set(lab.se) | {k.edge_of(dD_out)}
    # delete edge A-B (the triangle edge from corner A)
    k.delete_edge(lab.pe[0])
    k.contract_edge(lab.spokes[0], new_vertex=Dv)   # A into D
    k.contract_edge(lab.spokes[1], new_vertex=Dv)   # B into D
    # D and C now joined by the two remaining triangle edges
    k.delete_edge(lab.pe[2])                        # ex C-A edge
    k.contract_edge(lab.pe[1], new_vertex=Dv)       # ex B-C: C into D
    # suppress the degree-2 merged vertex through D's outer edge
    k.contract_edge(dD_out, new_vertex=k.vertex_of[k.twin[dD_out]])
    return _in_place(k, "triangle_shared", pool)


def _case_bridge(k: P3emKernel, e: int) -> ReductionStep:
    dB, dE = e, k.twin[e]
    B, E = k.vertex_of[dB], k.vertex_of[dE]
    dBA, dBC = _other_darts(k, B, (dB,))
    dED, dEF = _other_darts(k, E, (dE,))
    pool = {e, k.edge_of(dBA), k.edge_of(dBC), k.edge_of(dED), k.edge_of(dEF)}
    sides = (k.vertex_of[k.twin[dBA]], k.vertex_of[k.twin[dED]])
    k.delete_edge(e)
    k.contract_edge(dBA, new_vertex=sides[0])
    k.contract_edge(dED, new_vertex=sides[1])
    return _split(k, "bridge", pool, _commit(k, "bridge", parts=2), sides)


def _case_square(k: P3emKernel, face) -> ReductionStep:
    d1, d2, d3, d4 = face.boundary
    pool = {k.edge_of(d2), k.edge_of(d3), k.edge_of(d4)}
    k.contract_edge(d4, new_vertex=k.vertex_of[d4])   # D-A edge
    k.contract_edge(d2, new_vertex=k.vertex_of[d2])   # B-C edge
    k.delete_edge(d3)                                  # ex C-D edge
    return _in_place(k, "square", pool)


def _case_chord(k: P3emKernel, chord: int) -> ReductionStep:
    """Cut along the chord AB: region 2, on the side of qB's face, is closed
    by an E-F shortcut, and the rest keeps A and B, joined to fresh E' and
    F' in triangles A E' F' and B E' F'.  No loop, parallel pair or bridge
    is left, so faces are cycles: qB's face leaves A by qA's ccw successor
    dAE and enters B by the twin of qB's ccw predecessor dBF.  The picture
    is the same at every chord step, and so is its one planar arrangement
    at E' and F'."""
    qA, qB = chord, k.twin[chord]
    A, B = k.vertex_of[qA], k.vertex_of[qB]
    rA, rB = k.rotation[A], k.rotation[B]
    i, j = rA.index(qA), rB.index(qB)
    dAC, dAE = rA[i - 1], rA[(i + 1) % 3]
    dBF = rB[j - 1]
    xE, xF = k.twin[dAE], k.twin[dBF]
    Ev = k.vertex_of[xE]
    into_ab = {k.twin[d] for d in rA + rB}
    region2 = reach(k, Ev, into_ab)
    if k.vertex_of[xF] not in region2 or k.vertex_of[k.twin[dAC]] in region2:
        raise P3emError("chord region identification failed")
    pool = {chord, k.edge_of(dAE), k.edge_of(dBF)}

    # in place, both children at once
    nd = k.fresh_dart()
    eA, eB, eF = nd, nd + 1, nd + 2
    fA, fB, fE = nd + 3, nd + 4, nd + 5
    Ep = max(k.rotation) + 1
    for d1, d2 in ((qA, eA), (qB, eB), (dAE, fA), (dBF, fB), (eF, fE), (xE, xF)):
        k.retwin(d1, d2)
    k.add_vertex(Ep, [eA, eB, eF])
    k.add_vertex(Ep + 1, [fA, fE, fB])
    return _split(k, "chord", pool, _commit(k, "chord", parts=2), (A, Ev))


# -- pentagon ---------------------------------------------------------------

def _find_b_coincidence(lab: FaceLabels) -> Optional[int]:
    for i in range(5):
        if lab.b[i] == lab.b[(i + 2) % 5]:
            return i
    return None


def _case_b_coincidence(k: P3emKernel, lab: FaceLabels) -> ReductionStep:
    # b0 == b2: cut the two edges leaving the cycle (a2,a1,a0,b0) and close
    # each side with a fresh connection re-using the freed darts
    b0 = lab.b[0]
    s1 = lab.spokes[1]                   # dart a1 -> b1
    dbb = next(d for d in k.rotation[b0]
               if k.edge_of(d) not in (lab.se[0], lab.se[2]))
    e1, e2 = lab.se[1], k.edge_of(dbb)
    t1, t2 = k.twin[s1], k.twin[dbb]

    # a0's side once edges e1 and e2 are cut
    inner = reach(k, lab.a[0], {s1, t1, dbb, t2})
    if lab.b[1] in inner or k.vertex_of[t2] in inner:
        raise P3emError("coincidence cut did not separate the graph")
    k.retwin(s1, dbb)
    k.retwin(t1, t2)
    s = _commit(k, "pentagon_coincident", parts=2)
    return _split(k, "pentagon_coincident", {e1, e2}, s, (lab.a[0], lab.b[1]))


def _side_bit(child: P3emKernel, sub: FaceAssignment, edge: int,
              marker: int, positive: bool) -> int:
    """1 when edge is assigned to its side whose face does (positive) or
    does not (negative) contain a dart of the marker edge."""
    b = child.face[sub[edge]].boundary
    has = marker in b or child.twin[marker] in b
    return int(has == positive)


def _case_pentagon(k: P3emKernel, lab: FaceLabels) -> ReductionStep:
    if len(set(lab.b)) != 5:
        raise P3emError("pentagon case needs distinct spoke neighbors")
    fragment = set(lab.pe) | set(lab.se)
    P = lab.face_id
    delta = []
    for i in range(5):
        f1, f2 = k.edge_faces(lab.pe[i])
        delta.append(f2 if f1 == P else f1)
    k.delete_edge(lab.pe[1])                          # a1-a2
    k.contract_edge(lab.darts[0], new_vertex=lab.a[0])   # a0-a1 into a0
    k.contract_edge(lab.darts[2], new_vertex=lab.a[3])   # a2-a3 into a3
    s = _commit(k, "pentagon")

    def lift(certs: List[Certificate]) -> Certificate:
        cert = certs[0]
        sub = cert.sigma
        xp = (
            _side_bit(k, sub, lab.se[0], lab.pe[4], False),
            _side_bit(k, sub, lab.se[1], lab.pe[4], True),
            _side_bit(k, sub, lab.se[2], lab.se[3], True),
            _side_bit(k, sub, lab.se[3], lab.pe[3], True),
            _side_bit(k, sub, lab.se[4], lab.pe[4], True),
        )
        yp3 = _side_bit(k, sub, lab.pe[3], lab.se[3], True)
        yp4 = _side_bit(k, sub, lab.pe[4], lab.se[4], True)
        x, y = solve_sigma(xp, yp3, yp4)
        pool, moved = _remap(k, s, fragment, cert)
        k.undo(s)
        for i in range(5):
            for e, fid in ((lab.se[i], delta[i] if x[i] else delta[(i - 1) % 5]),
                           (lab.pe[i], delta[i] if y[i] else P)):
                sub[e] = fid
                cert.counts[fid] += 1
        return _complete(k, s, cert, pool - fragment, moved | fragment)

    return ReductionStep("pentagon", [k], lift)
