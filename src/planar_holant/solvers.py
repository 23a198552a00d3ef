"""Polynomial-time exact solvers for the tractable signature classes.

count_pm implements the FKT pipeline in one pass over the whole plane
multigraph, as given: Kasteleyn orientation from one breadth-first walk
of each component's faces, then the Pfaffian of one Kasteleyn matrix (no
entry for a loop, one summed entry per parallel pair), kept as per-row
dicts of nonzeros, by sparse skew elimination with greedy minimum-degree
pivots, exact and in ints until a pivot is not +-1.  Every perfect matching
carries the same sign under a Pfaffian orientation; with all weights
positive the weighted Pfaffian shows it, otherwise a second, unit-weight
Pfaffian reads it.  The five class solvers reduce to perfect-matching
counts (cases 4 and 5), one GF(2) Gauss sum over each affine family's
sign form (AFFINE_FORMS), or closed products (degenerate, generalized
equality), and every one is oracle-tested against exact evaluation of the
grid (holant_core).  Case 4 counts the matchings of a Fisher-style
decoration: each grid node becomes its kind's core, a triangle or one
vertex, and a leg to a degree-2 port is joined or contracted across its
grid edge, so the Kasteleyn order is 3 per grid node for [a,b,b,a] (the
truncation) and 1.5 for [a,b,-b,-a] (the medial graph).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .plane_graph import (NonPlanarEmbedding, PlaneGraph, grid_builder,
                          plane_graph_of_grid)
from .holant_core import SignatureGrid
from .scalars import Scalar
from .signatures import SymSignature, hadamard3


class SolverError(Exception):
    """A solver invariant broke: a defect in the solver, not bad input."""


class WrongForm(SolverError, ValueError):
    """The grid or its parameters do not have the form the solver needs."""


# -- Kasteleyn orientation and Pfaffian ---------------------------------

class KasteleynOrientation:
    """Map dart -> True when the edge is oriented out of that dart's vertex;
    every face but one root face per component has an odd number of
    boundary-aligned darts."""

    def __init__(self, g: PlaneGraph, oriented_out: Dict[int, bool],
                 root_faces: List[int]):
        self.graph = g
        self.oriented_out = oriented_out
        self.root_faces = root_faces

    def verify(self) -> bool:
        if len(self.oriented_out) != len(self.graph.twin):
            return False
        roots = set(self.root_faces)
        return all(sum(self.oriented_out[d] for d in f.boundary) % 2
                   for f in self.graph.faces() if f.id not in roots)


def kasteleyn_orient(g: PlaneGraph) -> KasteleynOrientation:
    """Pfaffian orientation of a plane multigraph, one component at a
    time: a breadth-first walk of the faces from the root face (the face
    of the component's smallest dart) crosses each dart into a face not
    yet reached, so the crossed edges span the dual and the others span the
    component.  Every edge is first oriented out of its smaller dart; then
    the crossed edges are set in reverse walk order, where a face's only
    undecided edge is the one it was reached by, to make the face odd."""
    twin, face_of, boundary = g.twin, g.face_of, g.face_boundary
    oriented_out = {d: d < t for d, t in twin.items()}
    root_faces: List[int] = []
    reached = set()
    for root in g.faces():       # in id order, so each root comes first
        if root.id in reached:
            continue
        root_faces.append(root.id)
        reached.add(root.id)
        walk = [root.id]
        reached_by: List[int] = []   # per reached face, the dart on it crossed
        for fid in walk:             # walk grows while it is read
            for d in boundary(fid):
                far = face_of(twin[d])
                if far not in reached:
                    reached.add(far)
                    walk.append(far)
                    reached_by.append(twin[d])
        for d in reversed(reached_by):
            aligned = sum(oriented_out[x] for x in boundary(face_of(d)) if x != d)
            oriented_out[d] = aligned % 2 == 0
            oriented_out[twin[d]] = aligned % 2 == 1
    ko = KasteleynOrientation(g, oriented_out, root_faces)
    if not ko.verify():
        raise SolverError("Kasteleyn verification failed")
    return ko


def _pfaffian(rows: List[Dict[int, Scalar]]) -> Scalar:
    """Pfaffian of a skew-symmetric matrix given as one dict of nonzero
    entries per row (rows[r][s] == -rows[s][r]); the rows are consumed.

    Sparse exact elimination under greedy minimum degree: each step pivots
    on the live row with the fewest nonzeros and its neighbour with the
    fewest, multiplies the pivot into the result and takes the Schur
    complement, which only touches the two pivot rows' neighbours.  With
    sigma the pivot sequence (i1, j1, i2, j2, ...), the Pfaffian is
    sgn(sigma) times the product of the pivots.

    Integral entries stay Python ints until a pivot other than +-1 divides
    a row, and an entry that turns integral again goes back to an int.  The
    Schur complement is the rank-one update a[r][s] -= (a[i][r] / p) a[j][s]
    over r in N(i), s in N(j), s != r, each written with its mirror a[s][r].
    """
    n = len(rows)
    if n % 2:
        return Fraction(0)
    for row in rows:
        for s, v in row.items():
            if type(v) is Fraction and v.denominator == 1:
                row[s] = v.numerator
    heap = [(len(row), r) for r, row in enumerate(rows)]
    heapq.heapify(heap)
    done = [False] * n
    order: List[int] = []
    pf: Scalar = 1
    while heap:
        deg, i = heapq.heappop(heap)
        if done[i] or deg != len(rows[i]):
            continue  # stale heap entry
        if deg == 0:
            return Fraction(0)
        ri = rows[i]
        j = min(ri, key=lambda v: (len(rows[v]), v))
        rj = rows[j]
        p = ri.pop(j)
        del rj[i]
        pf = pf * p
        done[i] = done[j] = True
        order += (i, j)
        for r in ri:
            del rows[r][i]
        for r in rj:
            del rows[r][j]
        if p == 1:
            x = ri
        elif p == -1:
            x = {r: -v for r, v in ri.items()}
        elif type(p) is int:
            x = {r: Fraction(v, p) if type(v) is int else v / p
                 for r, v in ri.items()}
        else:
            x = {r: v / p for r, v in ri.items()}
        for r, xr in x.items():
            row = rows[r]
            for s, ys in rj.items():
                if s != r:
                    v = row.get(s, 0) - xr * ys
                    if type(v) is Fraction and v.denominator == 1:
                        v = v.numerator
                    if v != 0:
                        row[s] = v
                        rows[s][r] = -v
                    else:
                        del row[s], rows[s][r]
        for r in x.keys() | rj.keys():
            heapq.heappush(heap, (len(rows[r]), r))
    # sign of sigma from its cycles
    sign = 1
    seen = [False] * n
    for start in range(n):
        k = start
        while not seen[k]:
            seen[k] = True
            k = order[k]
            if k != start:
                sign = -sign
    pf = Fraction(pf) if type(pf) is int else pf
    return pf if sign > 0 else -pf


def count_pm(g: PlaneGraph, weights: Optional[Dict[int, Scalar]] = None) -> Scalar:
    """Weighted perfect-matching sum of a plane multigraph, exactly.

    The Kasteleyn matrix is built on g as given: a self-loop never matches
    and has no entry, and parallel edges add into one entry (the Pfaffian is
    linear in each entry).  One matrix covers every component: its Pfaffian
    is, up to one global sign, the product of the components' Pfaffians.
    """
    if any(len(comp) % 2 for comp in g.connected_components()):
        return Fraction(0)
    weights = weights or {}
    ko = kasteleyn_orient(g)
    idx = {v: i for i, v in enumerate(g.vertices())}
    ends = [(e, *g.edge_ends(e)) for e in g.edges()]
    # a self-loop never matches: it gets no entry and no say in the sign
    edges = [(e, idx[u], idx[v]) for e, u, v in ends if u != v]

    def pfaff(weighted: bool) -> Scalar:
        rows: List[Dict[int, Scalar]] = [{} for _ in idx]
        for e, i, j in edges:
            w = weights.get(e, 1) if weighted else 1
            if w == 0:
                continue
            if not ko.oriented_out[e]:
                w = -w
            if j in rows[i]:
                w += rows[i][j]   # a parallel edge
            if w != 0:
                rows[i][j], rows[j][i] = w, -w
            else:
                del rows[i][j], rows[j][i]
        return _pfaffian(rows)

    # all matchings carry one global sign under a Pfaffian orientation; with
    # every weight positive the weighted Pfaffian shows it, otherwise the
    # unit-weight Pfaffian does (zero means no matchings at all)
    pf = pfaff(True)
    if all(weights.get(e, 1) > 0 for e, _, _ in edges):
        return pf if pf > 0 else -pf
    unit = pfaff(False)
    if unit == 0:
        return Fraction(0)
    return pf if unit > 0 else -pf


def brute_force_pm(g: PlaneGraph, weights: Optional[Dict[int, Scalar]] = None) -> Scalar:
    """Independent oracle: enumerate perfect matchings recursively.  A
    self-loop never matches, as its far end is not among the vertices
    _match_sum has left to match."""
    weights = weights or {}
    edges = [(*g.edge_ends(e), weights.get(e, Fraction(1))) for e in g.edges()]
    return _match_sum(g.vertices(), edges)


# -- grid plumbing -------------------------------------------------------

def _grid_sides(grid: SignatureGrid):
    if grid.dangling:
        raise WrongForm("grid has dangling slots")
    lefts = grid.left_nodes()
    rights = grid.right_nodes()
    if len(lefts) + len(rights) != len(grid.nodes):
        raise WrongForm("solver grids must not contain table nodes")
    return lefts, rights


def _require_case(grid: SignatureGrid, f: SymSignature):
    lefts, rights = _grid_sides(grid)
    for n in lefts:
        if n.sym is None or n.sym.values != f.values:
            raise WrongForm("left signatures do not match the declared case")
    for n in rights:
        if not n.is_equality() or n.arity != 3:
            raise WrongForm("right nodes must be ternary equalities")
    return lefts, rights


def _neighbors(grid: SignatureGrid):
    """For each left node id: list of right node ids, one per slot."""
    nbr: Dict[int, List[Optional[int]]] = {
        n.id: [None] * n.arity for n in grid.left_nodes()}
    for (na, sa, nb, sb) in grid.edges:
        if grid.nodes[na].side == "left":
            nbr[na][sa] = nb
        else:
            nbr[nb][sb] = na
    return nbr


# -- case solvers ---------------------------------------------------------

def solve_degenerate(grid: SignatureGrid, u: Sequence[Scalar], scale: Scalar) -> Scalar:
    """f = scale * [u0,u1]^{(x)3}: the Holant factorizes per right node."""
    u0, u1 = u
    f = SymSignature([scale * u0 ** 3, scale * u0 ** 2 * u1,
                      scale * u0 * u1 ** 2, scale * u1 ** 3])
    lefts, rights = _require_case(grid, f)
    nU, nV = len(lefts), len(rights)
    total: Scalar = scale ** nU
    if u0 == 0:
        return total * u1 ** (3 * nU) if nU else total
    t = u1 / u0
    return total * u0 ** (3 * nU) * (1 + t ** 3) ** nV


def solve_geneq(grid: SignatureGrid, a: Scalar, b: Scalar) -> Scalar:
    """f = [a,0,0,b]: every connected component is monochrome."""
    f = SymSignature([a, 0, 0, b])
    lefts, rights = _require_case(grid, f)
    comp_of: Dict[int, int] = {}

    def find(x):
        while comp_of.get(x, x) != x:
            comp_of[x] = comp_of.get(comp_of[x], comp_of[x])
            x = comp_of[x]
        return x

    for n in grid.nodes.values():
        comp_of.setdefault(n.id, n.id)
    for (na, sa, nb, sb) in grid.edges:
        ra, rb = find(na), find(nb)
        if ra != rb:
            comp_of[ra] = rb
    groups: Dict[int, int] = {}
    for n in lefts:
        groups[find(n.id)] = groups.get(find(n.id), 0) + 1
    total: Scalar = Fraction(1)
    for root, k in groups.items():
        total = total * (a ** k + b ** k)
    return total


# affine family -> (parity, pairs, linear): at input weight w the
# signature is a * [w = parity mod 2] * (-1)^{pairs*C(w,2) + linear*w},
# where parity None admits every weight
AFFINE_FORMS = {
    "even": (0, 0, 0), "even_signed": (0, 1, 0),
    "odd": (1, 0, 0), "odd_signed": (1, 1, 0),
    "alternating": (None, 1, 1), "two_block": (None, 1, 0),
}

# affine family -> pattern; the signature is a times the pattern
AFFINE_PATTERNS = {
    name: tuple(0 if parity not in (None, w % 2)
                else (-1) ** (pairs * comb(w, 2) + linear * w)
                for w in range(4))
    for name, (parity, pairs, linear) in AFFINE_FORMS.items()
}


def affine_family_of(f: SymSignature) -> Optional[Tuple[str, Scalar]]:
    """Match [a,0,+-a,0], [0,a,0,+-a], [a,-a,-a,a], [a,a,-a,-a]."""
    for name, pat in AFFINE_PATTERNS.items():
        base = next(v for v, p in zip(f.values, pat) if p != 0)
        if base != 0 and all(v == base * p for v, p in zip(f.values, pat)):
            return name, base
    return None


def gauss_sum_gf2(n: int, quad: set, lin: set, const: int) -> Scalar:
    """Sum over GF(2)^n of (-1)^{Q(x)} for Q = sum_{(i,j) in quad} x_i x_j +
    sum_{i in lin} x_i + const (pairs with i != j), over the variables in
    increasing order: one without neighbours in Q sums to 2 or 0, one with
    neighbours is summed together with its smallest neighbour.  Every term
    a step adds lies above the step's variable, so each is decided once."""
    nbr: List[set] = [set() for _ in range(n)]
    for i, j in quad:
        nbr[i].add(j)
        nbr[j].add(i)
    lin = set(lin)
    paired = set()
    factor = 1
    for i in range(n):
        if i in paired:
            continue
        factor *= 2
        if not nbr[i]:
            if i in lin:
                return Fraction(0)
            continue
        j = min(nbr[i])
        paired.add(j)
        # Q = x_i x_j + x_i B + x_j A + C; summing the pair gives 2*(-1)^{AB}
        # with A = N(j) - i (+ x_j's linear term), B = N(i) - j (+ x_i's)
        A, B = nbr[j] - {i}, nbr[i] - {j}
        for k in A:
            nbr[k].discard(j)
        for k in B:
            nbr[k].discard(i)
        for ka in A:
            for kb in B:
                if ka == kb:
                    lin ^= {ka}
                else:
                    nbr[ka] ^= {kb}
                    nbr[kb] ^= {ka}
        a_lin, b_lin = j in lin, i in lin
        if b_lin:
            lin ^= A
        if a_lin:
            lin ^= B
        const ^= a_lin and b_lin
    return Fraction(-factor if const else factor)


def solve_affine(grid: SignatureGrid, family: str, a: Scalar) -> Scalar:
    """Affine classes as one Gauss sum: a GF(2) variable per right node,
    and per left node its family's sign form over the three slot
    variables.  A parity family also gives each left node a variable z,
    since [x1+x2+x3 = p] = 1/2 sum_z (-1)^{z(x1+x2+x3+p)}, and the sum is
    divided by 2^#z.  The z are numbered, so eliminated, first: numbered
    last, the signed parity families ran several times slower."""
    if family not in AFFINE_FORMS:
        raise WrongForm(f"unknown affine family {family}")
    f = SymSignature([a * p for p in AFFINE_PATTERNS[family]])
    lefts, rights = _require_case(grid, f)
    parity, pairs, linear = AFFINE_FORMS[family]
    nz = len(lefts) if parity is not None else 0
    nbr = _neighbors(grid)
    rindex = {n.id: nz + i for i, n in enumerate(rights)}
    quad: set = set()
    lin: set = set()
    for z, n in enumerate(lefts):
        vs = [rindex[r] for r in nbr[n.id]]
        for x in vs:
            if linear:
                lin ^= {x}
            if nz:
                quad ^= {(z, x)}
        if pairs:
            for x, y in combinations(vs, 2):
                if x == y:
                    lin ^= {x}     # x * x = x over GF(2)
                else:
                    quad ^= {(min(x, y), max(x, y))}
        if nz and parity:
            lin ^= {z}
    total = gauss_sum_gf2(nz + len(rights), quad, lin, 0) / 2 ** nz
    return a ** len(lefts) * total


def solve_case5(grid: SignatureGrid, a: Scalar, b: Scalar) -> Scalar:
    """f = [3a+b, -a-b, -a+b, 3a-b]: value is (2a)^{|U|} times the number
    of perfect matchings of the underlying plane bipartite graph."""
    f = SymSignature([3 * a + b, -a - b, -a + b, 3 * a - b])
    lefts, rights = _require_case(grid, f)
    if len(lefts) != len(rights):
        raise WrongForm("3-regular bipartite grid expected")
    if not lefts:
        return Fraction(1)
    if a == 0:
        return Fraction(0)
    g = plane_graph_of_grid(grid)
    return (2 * a) ** len(lefts) * count_pm(g)


# -- matchgate case: Fisher-style decorations ----------------------------

# kind -> (triangle, legs): each kind's fragment as its core and whether every
# slot hangs off that core by a leg, an unweighted edge to a port vertex.  The
# core is a triangle whose corner i holds slot i (ccw: the slot, the edge to
# corner i + 1, the edge to corner i - 1), its edges carrying the left
# weight, or one vertex holding the three slots in the node's ccw order.
_FRAGMENTS: Dict[str, Tuple[bool, bool]] = {
    "even": (True, True),    # external degree 0 or 2
    "odd": (True, False),    # 1 or 3
    "one": (False, False),   # the star centre: exactly one
    "two": (False, True),    # the claw: exactly two
}


def _fragment(kind: str, w: Scalar):
    """The whole fragment of a kind, ports included: (the vertex holding
    each slot, edges as (u, v, weight)), vertices 0, 1, 2 the triangle or
    0 the single core vertex, then one port per leg."""
    triangle, legs = _FRAGMENTS[kind]
    at = (0, 1, 2) if triangle else (0, 0, 0)
    edges = [(i, (i + 1) % 3, w) for i in range(3)] if triangle else []
    if legs:
        core = 3 if triangle else 1
        edges += [(at[i], core + i, Fraction(1)) for i in range(3)]
        at = (core, core + 1, core + 2)
    return at, edges


def _decorate(grid: SignatureGrid, left_kind: str, right_kind: str,
              left_weight: Scalar):
    """Replace every grid node by the core of its kind in _FRAGMENTS,
    left_kind's for left nodes and right_kind's for right nodes, in
    grid_builder's graph, on fresh vertex ids and darts (a triangle's six
    first, then one per leg), and make no port vertex.  A port has degree
    2, weight 1 on both its edges and two distinct neighbours, so perfect
    matchings allow the classical reductions: across a grid edge with legs
    at both ends their core ends are joined by one edge, and across one
    with a leg at one end that core end and the other end's vertex become
    one (contract_edge).  Every kind pair solve_matchgate uses has "even"
    on the right, whose legs end at corners holding no slot, so no
    contraction meets a vertex that an earlier one made from both its ends.
    The graph is validated once; only if that fails is the grid's own
    graph validated, so that the error names grid nodes.  Returns (plane
    graph, weights): left_weight on the triangle edges of left nodes;
    every other edge weighs 1 and has no entry."""
    b = grid_builder(grid)
    weights: Dict[int, Scalar] = {}
    v, d = max(b.rotation) + 1, b.fresh_dart()
    leg: Dict[int, int] = {}   # grid dart at a leg's slot -> the leg's core end
    for nid in sorted(grid.nodes):
        left = grid.nodes[nid].side == "left"
        triangle, legs = _FRAGMENTS[left_kind if left else right_kind]
        slots = ext = b.rotation.pop(nid)
        if legs:
            slots = range(d + 6 * triangle, d + 6 * triangle + 3)
            leg.update(zip(ext, slots))
        if triangle:
            for i in range(3):
                b.retwin(d + 2 * i, d + 2 * i + 1)
                b.add_vertex(v + i, (slots[i], d + 2 * i, d + (2 * i - 1) % 6))
                if left:
                    weights[d + 2 * i] = left_weight
        else:
            b.add_vertex(v, slots)
        v += 1 + 2 * triangle
        d += 6 * triangle + 3 * legs
    for g, end in leg.items():
        t = b.twin[g]
        if t in leg:         # legs at both ends: their core ends are joined
            if g < t:
                b.retwin(end, leg[t])
        else:                # a leg at one end: its core end joins t's vertex
            b.retwin(end, t)
            b.contract_edge(end, v)
            v += 1
    for g in leg:
        del b.twin[g], b.vertex_of[g]
    try:
        return b.freeze(), weights
    except NonPlanarEmbedding:
        plane_graph_of_grid(grid)
        raise


def _pattern_values(kind: str, w: Scalar) -> Dict[Tuple[int, ...], Scalar]:
    """Local matching value of a kind's whole fragment (_fragment), per
    external pattern (the tuple of slot indices, 0 to 2, matched outside
    it), by direct enumeration of internal matchings."""
    at, edges = _fragment(kind, w)
    vertices = sorted(set(at).union(*((u, x) for u, x, _ in edges)))
    out = {}
    for wgt in range(4):
        for ext in combinations(range(3), wgt):
            used = [at[i] for i in ext]
            out[ext] = Fraction(0) if len(set(used)) != len(used) else \
                _match_sum([x for x in vertices if x not in used], edges)
    return out


def _match_sum(need: List[int], edges) -> Scalar:
    if not need:
        return Fraction(1)
    v, rest = need[0], need[1:]
    total: Scalar = Fraction(0)
    for (a, c, wt) in edges:
        other = c if a == v else a if c == v else None
        if other is not None and other in rest:
            total = total + wt * _match_sum([x for x in rest if x != other],
                                            edges)
    return total


def _preflight(kind: str, w: Scalar, want) -> None:
    """Every external pattern of the fragment must give want at its weight."""
    for ext, got in _pattern_values(kind, w).items():
        if got != want[len(ext)]:
            raise SolverError(f"decoration {kind} realizes {got} on slots "
                              f"{list(ext)}, wanted {want[len(ext)]}")


def solve_matchgate(grid: SignatureGrid, a: Scalar, b: Scalar, sign: int) -> Scalar:
    """Cases [a,b,b,a] (sign +1) and [a,b,-b,-a] (sign -1): Hadamard both
    sides, then count perfect matchings of the Fisher-decorated graph."""
    if sign == 1:
        f = SymSignature([a, b, b, a])
    elif sign == -1:
        f = SymSignature([a, b, -b, -a])
    else:
        raise WrongForm("sign must be +-1")
    lefts, rights = _require_case(grid, f)
    nU, nV = len(lefts), len(rights)
    if not lefts:
        return Fraction(1)
    fh = hadamard3(f)
    quarter = Fraction(1, 4) ** nV
    _preflight("even", Fraction(1), (1, 0, 1, 0))  # transformed equalities
    # fh is [p,0,q,0] (sign +1) or [0,p,0,q] (sign -1); the first kind whose
    # scale entry is nonzero realizes fh / scale, with that weight entry
    picks = {1: (("even", 0, 2), ("two", 2, 2)),
             -1: (("odd", 3, 1), ("one", 1, 1))}
    for kind, scale, weight in picks[sign]:
        if fh[scale] != 0:
            w = fh[weight] / fh[scale]
            _preflight(kind, w, tuple(v / fh[scale] for v in fh.values))
            dec, weights = _decorate(grid, kind, "even", w)
            return quarter * fh[scale] ** nU * count_pm(dec, weights)
    return Fraction(0)
