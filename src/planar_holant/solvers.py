"""Polynomial-time exact solvers for the tractable signature classes.

count_pm implements the FKT pipeline in one pass over the whole plane
multigraph, as given: Kasteleyn orientation from one breadth-first walk
of each component's faces, then the Pfaffian of one Kasteleyn matrix (no
entry for a loop, one summed entry per parallel pair), kept as per-row
dicts of nonzeros, by sparse skew elimination with greedy minimum-degree
pivots, exact and in ints until a pivot is not +-1.  Every perfect matching
carries the same sign under a Pfaffian orientation; with signed weights it
is read off the term of one known matching.  The five class solvers
reduce to perfect-matching counts (cases 4 and 5), one GF(2) Gauss sum
over each affine family's sign form (AFFINE_FORMS), or closed products
(degenerate, generalized equality), and every one is oracle-tested against
exact evaluation of the grid (holant_core).  Case 4 runs one Pfaffian on a
Fisher-style decoration written straight from the grid's plane graph:
each grid node becomes its kind's core, a triangle or one vertex, and a
leg to a degree-2 port is joined or contracted across its grid edge, so
the Kasteleyn order is 3 per grid node for [a,b,b,a] (the truncation) and
1.5 for [a,b,-b,-a] (the medial graph).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .plane_graph import PlaneGraph, plane_graph_of_grid, reach
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


def _dual_walk(twin: Dict[int, int], faces: Dict[int, Sequence[int]]
               ) -> Tuple[Dict[int, bool], List[int]]:
    """Pfaffian orientation (dart -> its edge points out of its vertex, and
    the root faces) of a plane multigraph given by its twins and faces (id
    -> darts), one component at a time: a breadth-first walk of the faces
    from the root face (the component's first) crosses each dart into a
    face not yet reached, so the crossed edges span the dual.  Every edge is
    first oriented out of its smaller dart; then the crossed edges are set
    in reverse walk order, each making the face it reached odd."""
    face_of = {d: fid for fid, darts in faces.items() for d in darts}
    oriented_out = {d: d < t for d, t in twin.items()}
    root_faces: List[int] = []
    reached = set()
    for root in faces:
        if root in reached:
            continue
        root_faces.append(root)
        reached.add(root)
        walk = [root]
        reached_by: List[int] = []   # per reached face, the dart on it crossed
        for fid in walk:             # walk grows while it is read
            for d in faces[fid]:
                far = face_of[twin[d]]
                if far not in reached:
                    reached.add(far)
                    walk.append(far)
                    reached_by.append(twin[d])
        for d in reversed(reached_by):
            aligned = sum(oriented_out[x] for x in faces[face_of[d]] if x != d)
            oriented_out[d] = aligned % 2 == 0
            oriented_out[twin[d]] = aligned % 2 == 1
    return oriented_out, root_faces


def kasteleyn_orient(g: PlaneGraph) -> KasteleynOrientation:
    """_dual_walk on g's faces in id order, verified."""
    faces = {f.id: f.boundary for f in g.faces()}
    ko = KasteleynOrientation(g, *_dual_walk(g.twin, faces))
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
    pf = Fraction(pf) if type(pf) is int else pf
    return pf if _perm_sign(order) > 0 else -pf


def _perm_sign(order: List[int]) -> int:
    """Sign of the permutation k -> order[k], from its cycles."""
    sign = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        k = start
        while not seen[k]:
            seen[k] = True
            k = order[k]
            if k != start:
                sign = -sign
    return sign


def count_pm(g: PlaneGraph) -> Scalar:
    """Perfect matchings of a plane multigraph, counted exactly."""
    if any(len(comp) % 2 for comp in g.connected_components()):
        return Fraction(0)
    ko = kasteleyn_orient(g)
    idx = {v: i for i, v in enumerate(g.vertices())}
    row = {d: idx[v] for d, v in g.vertex_of.items()}
    return _kasteleyn_sum(len(idx), row, g.twin, ko.oriented_out, {})


def _kasteleyn_sum(n: int, row: Dict[int, int], twin: Dict[int, int],
                   oriented_out: Dict[int, bool], weights: Dict[int, Scalar],
                   matching: Optional[Callable[[], List[int]]] = None) -> Scalar:
    """Weighted perfect-matching sum of a plane multigraph whose darts lie
    at rows 0..n-1 (row[d]), under a Pfaffian orientation, from the
    Pfaffian of one Kasteleyn matrix (weights by edge id, default 1; no
    entry for a loop, one summed entry per parallel pair), whose terms all
    have one sign.  That sign is read off the term of matching(), one dart
    per edge of a perfect matching; with no matching every weight must be
    positive, and the sign is the Pfaffian's own."""
    rows: List[Dict[int, Scalar]] = [{} for _ in range(n)]
    for e, t in twin.items():
        i, j, w = row[e], row[t], weights.get(e, 1)
        if e > t or i == j or not w:
            continue
        if not oriented_out[e]:
            w = -w
        if j in rows[i]:
            w += rows[i][j]   # a parallel edge
        if w:
            rows[i][j], rows[j][i] = w, -w
        else:
            del rows[i][j], rows[j][i]
    pf = _pfaffian(rows)
    if pf == 0 or matching is None:
        return pf if pf >= 0 else -pf
    darts = matching()
    order = [row[x] for d in darts for x in (d, twin[d])]
    if sorted(order) != list(range(n)):
        raise SolverError("the sign matching is not a perfect matching")
    sign = _perm_sign(order) * (-1) ** sum(not oriented_out[d] for d in darts)
    return pf if sign > 0 else -pf


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
    # each signature object once: the nodes of equal grid records share one
    for sym in {id(n.sym): n.sym for n in lefts}.values():
        if sym is None or sym.values != f.values:
            raise WrongForm("left signatures do not match the declared case")
    for n in {id(n.sym): n for n in rights}.values():
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


def _decoration(grid: SignatureGrid, kind: str, w: Scalar):
    """The Fisher decoration of H, the grid's plane graph (validated, so
    errors name grid nodes), from H's darts and faces: left nodes become
    kind's core in _FRAGMENTS, right nodes "even"'s.  Node k in id order has
    darts 3k..3k + 2 ccw; a triangle's corner at dart h holds h's slot, and
    its edge to the next corner has darts M + 2h, M + 2h + 1 (M = len(H.twin))
    and weight w at a left node.  A grid edge with legs at both ends is an
    edge on H's darts; with a leg at the right end only, that corner is the
    left end's vertex.  The faces: each triangle's inside, and one per face
    of H.  Rows come in the order the port-contracting splice made vertices
    (the order _pfaffian's pivots were tuned on): cores in dart order, then
    one per contraction, in right-end dart order.  Returns _kasteleyn_sum's
    arguments; matching() gives "even"'s joined legs or, for "odd", triangle
    edges joining the H edges _kotzig pairs; None for kinds at weight 1."""
    H = plane_graph_of_grid(grid)
    twin_h, M = H.twin, len(H.twin)
    triangle, legs = _FRAGMENTS[kind]
    left = [grid.nodes[H.vertex_of[h]].side == "left" for h in range(M)]
    tri = [triangle or not lf for lf in left]
    core = [h if tri[h] else h - h % 3 for h in range(M)]  # vertex, by a dart
    if not legs:
        core = [c if left[h] else core[twin_h[h]] for h, c in enumerate(core)]
    last = {c: h for h, c in enumerate(core) if legs or not left[h]}
    rank = {c: r for r, c in enumerate(sorted(last, key=last.get))}
    row = {h: rank[core[h]] for h in range(M)} if legs else {}
    twin = dict(twin_h) if legs else {}
    nxt = [h - h % 3 + (h + 1) % 3 for h in range(M)]
    weights, faces = {}, {}
    for h in range(M):
        if tri[h]:
            twin[M + 2 * h], twin[M + 2 * h + 1] = M + 2 * h + 1, M + 2 * h
            row[M + 2 * h], row[M + 2 * h + 1] = rank[core[h]], rank[core[nxt[h]]]
            if left[h]:
                weights[M + 2 * h] = w
            if h % 3 == 0:
                faces[-1 - h] = [M + 2 * x + 1 for x in (h, h + 1, h + 2)]
    for f in H.faces():   # per dart: its joining edge, the far triangle's edge
        faces[f.id] = [d for h in f.boundary for d in
                       (h,) * legs + (M + 2 * twin_h[h],) * tri[twin_h[h]]]
    joined = lambda: [h for h in range(M) if h < twin_h[h]]
    paired = lambda: [M + 2 * (a if b == nxt[a] else b) for a, b in _kotzig(H)]
    return (len(rank), row, twin, _dual_walk(twin, faces)[0], weights,
            (joined if legs else paired) if triangle else None)


def _kotzig(g: PlaneGraph) -> List[Tuple[int, int]]:
    """g's edges paired at a common vertex, as their darts there (Kotzig
    1957): on each component's search tree (reach), children before
    parents, a vertex pairs its unpaired edges but the one to its parent,
    and that one too if they are odd in number."""
    pairs: List[Tuple[int, int]] = []
    done = set()
    for comp in g.connected_components():
        entry = reach(g, comp[0])
        for v in reversed(list(entry)):
            up = None if entry[v] is None else g.twin[entry[v]]
            free = [d for d in g.rotation[v] if d != up and d not in done]
            if len(free) % 2 and up is not None:
                free.append(up)
            for a, b in zip(free[::2], free[1::2]):
                pairs.append((a, b))
                done.update((a, b, g.twin[a], g.twin[b]))
    return pairs


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
            pm = _kasteleyn_sum(*_decoration(grid, kind, w))
            return quarter * fh[scale] ** nU * pm
    return Fraction(0)
