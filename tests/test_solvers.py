import dataclasses
import heapq
import random
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Dict, List

import pytest

from planar_holant import fixtures, solvers
from planar_holant.generators import (generate_cubic_bipartite_plane,
                                      generate_cubic_plane, leapfrog,
                                      move_closure)
from planar_holant.holant_core import eval_grid
from planar_holant.plane_graph import grid_from_cubic_bipartite, plane_graph_of_grid
from planar_holant.scalars import Scalar, sqrt_exact
from planar_holant.signatures import SymSignature
from planar_holant.plane_graph import GraphBuilder, PlaneGraph
from planar_holant.plane_graph import grid_builder
from planar_holant.solvers import (AFFINE_PATTERNS, SolverError, WrongForm,
                                   _decoration, _kasteleyn_sum, _match_sum,
                                   _pattern_values, _pfaffian, count_pm,
                                   gauss_sum_gf2, kasteleyn_orient,
                                   solve_affine, solve_case5, solve_degenerate,
                                   solve_geneq, solve_matchgate)


def brute_force_pm(g, weights=None):
    """Independent oracle: enumerate perfect matchings recursively.  A
    self-loop never matches, as its far end is not among the vertices
    _match_sum has left to match."""
    weights = weights or {}
    edges = [(*g.edge_ends(e), weights.get(e, Fraction(1))) for e in g.edges()]
    return _match_sum(g.vertices(), edges)


def first_matching(vertices, edges):
    """One perfect matching, as the keys of its edges (u, v, key), found by
    enumeration; None if there is none."""
    if not vertices:
        return []
    v, rest = vertices[0], vertices[1:]
    for a, b, key in edges:
        other = b if a == v else a if b == v else None
        if other is not None and other in rest:
            tail = first_matching([x for x in rest if x != other], edges)
            if tail is not None:
                return [key] + tail
    return None


def weighted_pm(g, weights=None):
    """count_pm's FKT path with edge weights: _kasteleyn_sum on g's
    Kasteleyn orientation, the sign read off a perfect matching that
    enumeration finds."""
    if any(len(comp) % 2 for comp in g.connected_components()):
        return Fraction(0)
    idx = {v: i for i, v in enumerate(g.vertices())}
    row = {d: idx[v] for d, v in g.vertex_of.items()}
    m = first_matching(g.vertices(), [(*g.edge_ends(e), e) for e in g.edges()])
    return _kasteleyn_sum(len(idx), row, g.twin, kasteleyn_orient(g).oriented_out,
                          weights or {}, None if m is None else lambda: m)


def unit_pfaffian(n, row, twin, oriented_out):
    """The Pfaffian of the unit-weight Kasteleyn matrix: up to its sign the
    number of perfect matchings, and its sign the one every term carries,
    the oracle for the sign that _kasteleyn_sum reads off one matching."""
    rows = [{} for _ in range(n)]
    for d, t in twin.items():
        i, j = row[d], row[t]
        if d < t and i != j:
            a = rows[i].get(j, 0) + (1 if oriented_out[d] else -1)
            rows[i][j], rows[j][i] = a, -a
    return _pfaffian([{s: a for s, a in r.items() if a} for r in rows])


def c4():
    return fixtures.from_adjacency({
        0: [(1, "a"), (3, "d")], 1: [(2, "b"), (0, "a")],
        2: [(3, "c"), (1, "b")], 3: [(0, "d"), (2, "c")]})


def test_count_pm_examples():
    assert count_pm(fixtures.cube()) == 9       # running-example graph
    assert count_pm(c4()) == 2
    assert count_pm(fixtures.k4()) == 3
    assert count_pm(fixtures.m23()) == 3
    assert count_pm(fixtures.dumbbell()) == 1   # the bridge; loops never match


def test_count_pm_odd_graph_zero():
    # triangle with a pendant path of two edges: odd vertex count
    g = fixtures.from_adjacency({
        0: [(1, "a"), (2, "c"), (3, "p")],
        1: [(2, "b"), (0, "a")], 2: [(0, "c"), (1, "b")],
        3: [(0, "p"), (4, "q")], 4: [(3, "q")]})
    ko = kasteleyn_orient(g)  # orientation still exists
    assert ko.verify()
    assert count_pm(g) == 0


def test_kasteleyn_on_cycle():
    g = c4()
    ko = kasteleyn_orient(g)
    inner = [f for f in g.faces() if f.id not in ko.root_faces]
    for f in inner:
        aligned = sum(1 for d in f.boundary if ko.oriented_out[d])
        assert aligned % 2 == 1


def disjoint_union(*graphs):
    parts = [fixtures.relabeled(g, 1000 * k, 10000 * k)
             for k, g in enumerate(graphs)]
    return PlaneGraph({d: t for g in parts for d, t in g.twin.items()},
                      {d: v for g in parts for d, v in g.vertex_of.items()},
                      {v: r for g in parts for v, r in g.rotation.items()})


def loop_only():
    return PlaneGraph({0: 1, 1: 0}, {0: 0, 1: 0}, {0: (0, 1)})


@pytest.mark.parametrize("parts", [("cube", "k4"), ("dumbbell", "m23"),
                                   ("cube", "cube"), ("k4", "prism")])
def test_count_pm_of_disjoint_unions(parts):
    g = disjoint_union(*(getattr(fixtures, p)() for p in parts))
    rng = random.Random(" ".join(parts))
    for _ in range(3):
        w = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for e in g.edges()}
        assert weighted_pm(g, w) == brute_force_pm(g, w)
    assert count_pm(g) == brute_force_pm(g)


def test_count_pm_of_empty_and_loop_only_graphs():
    assert count_pm(PlaneGraph({}, {}, {})) == 1
    # a lone vertex with a loop is an odd component
    assert count_pm(loop_only()) == 0
    assert count_pm(disjoint_union(loop_only(), fixtures.cube())) == 0
    assert count_pm(disjoint_union(fixtures.cube(), loop_only())) == 0


def test_kasteleyn_on_disconnected_graph():
    g = disjoint_union(fixtures.cube(), fixtures.k4(), fixtures.m23())
    ko = kasteleyn_orient(g)
    assert ko.verify()
    assert len(ko.root_faces) == len(g.connected_components()) == 3
    assert len({g.vertex_of[f] // 1000 for f in ko.root_faces}) == 3


def dense_pfaffian(mat):
    """Reference: dense elimination in row order, swapping the first
    nonzero of each pivot row into the superdiagonal."""
    n = len(mat)
    if n % 2:
        return Fraction(0)
    a = [row[:] for row in mat]
    pf = Fraction(1)
    for i in range(0, n, 2):
        pivot = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i + 1:
            # swap rows/cols pivot <-> i+1; each pair swap flips the sign
            a[pivot], a[i + 1] = a[i + 1], a[pivot]
            for row in a:
                row[pivot], row[i + 1] = row[i + 1], row[pivot]
            pf = -pf
        p = a[i][i + 1]
        pf = pf * p
        for r in range(i + 2, n):
            for s in range(r + 1, n):
                a[r][s] = a[r][s] - (a[i][r] * a[i + 1][s]
                                     - a[i][s] * a[i + 1][r]) / p
                a[s][r] = -a[r][s]
    return pf


def determinant(mat):
    m = [row[:] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            fac = m[r][col] / m[col][col]
            m[r] = [a - fac * b for a, b in zip(m[r], m[col])]
    return det


def random_skew(rng, n, density):
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                mat[i][j] = v
                mat[j][i] = -v
    return mat


def low_rank_skew(rng, n, k):
    """B C B^T with C a k x k skew matrix: rank <= k, singular when k < n."""
    c = random_skew(rng, k, 1.0)
    b = [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(n)]
    return [[sum(b[r][p] * c[p][q] * b[s][q]
                 for p in range(k) for q in range(k)) for s in range(n)]
            for r in range(n)]


def sparse_rows(mat):
    return [{j: v for j, v in enumerate(row) if v != 0} for row in mat]


def test_pfaffian_squares_to_determinant():
    rng = random.Random(2)
    cases = []
    for n in range(13):
        for density in (0.2, 0.5, 1.0):
            cases += [random_skew(rng, n, density) for _ in range(4)]
        if n >= 2:
            cases.append(low_rank_skew(rng, n, 2 * ((n - 1) // 2)))
        if n >= 4:
            # a[0][1] = 0 forces a pivot off the superdiagonal
            mat = random_skew(rng, n, 0.6)
            mat[0][1] = mat[1][0] = Fraction(0)
            cases.append(mat)
    singular = 0
    for mat in cases:
        pf = _pfaffian(sparse_rows(mat))
        assert pf == dense_pfaffian(mat)
        assert pf * pf == determinant(mat)
        singular += pf == 0
    assert singular > len(cases) // 10


def _pfaffian_reference(rows: List[Dict[int, Scalar]]) -> Scalar:
    """Pfaffian of a skew-symmetric matrix given as one dict of nonzero
    entries per row (rows[r][s] == -rows[s][r]); the rows are consumed.

    Sparse exact elimination under greedy minimum degree: each step pivots
    on the live row with the fewest nonzeros and its neighbour with the
    fewest, multiplies the pivot into the result and takes the Schur
    complement, which only touches the two pivot rows' neighbours.  With
    sigma the pivot sequence (i1, j1, i2, j2, ...), the Pfaffian is
    sgn(sigma) times the product of the pivots.
    """
    n = len(rows)
    if n % 2:
        return Fraction(0)
    heap = [(len(row), r) for r, row in enumerate(rows)]
    heapq.heapify(heap)
    done = [False] * n
    order: List[int] = []
    pf: Scalar = Fraction(1)
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
        # a[r][s] -= (a[i][r] a[j][s] - a[i][s] a[j][r]) / p over N(i) | N(j)
        x = {r: v / p for r, v in ri.items()}
        nbrs = list(x.keys() | rj.keys())
        for k, r in enumerate(nbrs):
            xr, yr, row = x.get(r), rj.get(r), rows[r]
            for s in nbrs[k + 1:]:
                t = 0
                if xr is not None and s in rj:
                    t = xr * rj[s]
                if yr is not None and s in x:
                    t = t - x[s] * yr
                if t == 0:
                    continue
                v = row.get(s, 0) - t
                if v != 0:
                    row[s] = v
                    rows[s][r] = -v
                elif s in row:
                    del row[s], rows[s][r]
        for r in nbrs:
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
    return pf if sign > 0 else -pf


def kasteleyn_rows(monkeypatch, g, weights=None):
    """count_pm(g), or weighted_pm(g, weights) if weights are given, and
    the rows of every Kasteleyn matrix it built."""
    built = []
    pfaffian = solvers._pfaffian

    def record(rows):
        built.append([dict(row) for row in rows])
        return pfaffian(rows)

    monkeypatch.setattr(solvers, "_pfaffian", record)
    value = count_pm(g) if weights is None else weighted_pm(g, weights)
    monkeypatch.undo()
    return value, built


def test_pfaffian_matches_reference(monkeypatch):
    # the int-first routine against the Fraction-only one it replaced:
    # equal value and type on rational, integral (non-unit pivots),
    # Kasteleyn and Q(sqrt 2) matrices
    rng = random.Random(3)
    cases = []
    for n in range(2, 13):
        for density in (0.2, 0.5, 1.0):
            cases += [random_skew(rng, n, density) for _ in range(2)]
        cases.append(low_rank_skew(rng, n, 2 * ((n - 1) // 2)))
        if n >= 4:
            mat = random_skew(rng, n, 0.6)
            mat[0][1] = mat[1][0] = Fraction(0)
            cases.append(mat)
    root2 = sqrt_exact(2)
    entries = ([Fraction(k) for k in range(-4, 5)],
               [Fraction(1), Fraction(-2, 3), root2, 1 - root2, Fraction(0)])
    for n in range(2, 13):
        for pick in entries * 3:
            mat = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    mat[i][j] = rng.choice(pick)
                    mat[j][i] = -mat[i][j]
            cases.append(mat)
    rows_list = [sparse_rows(mat) for mat in cases]
    c20 = fixtures.dodecahedron()
    for g, want in ((c20, 36), (leapfrog(c20), 12500)):
        value, built = kasteleyn_rows(monkeypatch, g)
        assert len(built) == 1 and abs(value) == want
        assert type(_pfaffian([dict(r) for r in built[0]])) is Fraction
        rows_list += built
    for n, seed in ((20, 0), (60, 1), (200, 2)):
        g = generate_cubic_bipartite_plane(n, seed)
        rows_list += kasteleyn_rows(monkeypatch, g)[1]
    kinds = set()
    for rows in rows_list:
        got = _pfaffian([dict(r) for r in rows])
        # count_pm's rows hold ints, which the reference would divide as floats
        want = _pfaffian_reference([{s: Fraction(v) if type(v) is int else v
                                     for s, v in r.items()} for r in rows])
        assert got == want and type(got) is type(want)
        kinds.add((type(got).__name__, got == 0))
    assert kinds == {("Fraction", True), ("Fraction", False), ("QuadExt", False)}


def test_count_pm_builds_no_graph(monkeypatch):
    # count_pm orients the multigraph it is given and builds no copy of it;
    # a matchgate decoration builds only the grid's own graph, H
    theta = fixtures.m23()
    weights = dict(zip(theta.edges(), (Fraction(2), Fraction(3), Fraction(5))))
    grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(2, 0),
                                     SymSignature([1, 0, 0, 1]))
    w = Fraction(5, 3)
    splice = brute_force_pm(*literal_splice(grid, "even", "even", w))
    dumbbell = fixtures.dumbbell()
    cases = [(lambda: weighted_pm(theta, weights), 10, []),
             (lambda: count_pm(theta), 3, []),
             (lambda: count_pm(dumbbell), 1, []),
             (lambda: _kasteleyn_sum(*_decoration(grid, "even", w)), splice,
              ["freeze", "PlaneGraph"])]
    built = []
    init, freeze = PlaneGraph.__init__, GraphBuilder.freeze

    def spy_init(self, *args):
        built.append("PlaneGraph")
        init(self, *args)

    def spy_freeze(self):
        built.append("freeze")
        return freeze(self)

    monkeypatch.setattr(PlaneGraph, "__init__", spy_init)
    monkeypatch.setattr(GraphBuilder, "freeze", spy_freeze)
    for run, want, graphs in cases:
        built.clear()
        assert run() == want != 0
        assert built == graphs


def is_loop(g, e):
    u, v = g.edge_ends(e)
    return u == v


def contracted(rng, n):
    """A random cubic plane graph of n vertices with two or four random
    non-loop edges contracted: any degree, with parallel pairs and loops."""
    b = GraphBuilder(generate_cubic_plane(n, rng.randrange(1000)))
    for _ in range(rng.choice((2, 4))):
        e = rng.choice(sorted(d for d, t in b.twin.items()
                              if b.vertex_of[d] != b.vertex_of[t]))
        b.contract_edge(e, max(b.rotation) + 1)
    return b.freeze()


def multigraph_family(kind):
    rng = random.Random(kind)
    if kind == "closure":
        return move_closure(8)
    if kind == "contracted":
        return [contracted(rng, n) for n in (6, 8, 10, 12) for _ in range(10)]
    closure = move_closure(6)
    return [disjoint_union(rng.choice(closure), contracted(rng, n))
            for n in (6, 8) for _ in range(10)]


def oracle_weightings(g, rng):
    """Signed weights with zeros; positive weights on every edge that can
    match but negative ones on loops; and weights summing to zero over
    some parallel pair."""
    signed = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for e in g.edges()}
    positive = {e: Fraction(-1) if is_loop(g, e)
                else Fraction(rng.randint(1, 4), rng.randint(1, 3))
                for e in g.edges()}
    cancel = dict(signed)
    first: Dict[tuple, int] = {}
    for e in g.edges():
        pair = tuple(sorted(g.edge_ends(e)))
        if pair[0] != pair[1] and pair in first:
            cancel[e] = -cancel[first[pair]]
        first.setdefault(pair, e)
    return None, signed, positive, cancel


@pytest.mark.parametrize("kind", ["closure", "contracted", "unions"])
def test_count_pm_matches_enumeration_on_multigraphs(kind):
    graphs = multigraph_family(kind)
    rng = random.Random(len(graphs))
    loops = parallels = unions = 0
    for g in graphs:
        assert kasteleyn_orient(g).verify()
        for weights in oracle_weightings(g, rng):
            assert weighted_pm(g, weights) == brute_force_pm(g, weights)
        assert count_pm(g) == brute_force_pm(g)
        pairs = [tuple(sorted(g.edge_ends(e))) for e in g.edges()]
        loops += any(u == v for u, v in pairs)
        parallels += len(set(pairs)) < len(pairs)
        unions += len(g.connected_components()) > 1
    assert loops and parallels and len(graphs) >= 20
    assert (unions == len(graphs)) == (kind == "unions")


def test_loop_weights_do_not_pick_the_sign_run(monkeypatch):
    # loops have no entry and no say in the sign: one weighted Pfaffian and
    # the matching's term give the value, whatever the loops weigh
    g = fixtures.dumbbell()
    w = {e: Fraction(-2) if is_loop(g, e) else Fraction(3) for e in g.edges()}
    value, built = kasteleyn_rows(monkeypatch, g, w)
    assert value == 3 and len(built) == 1
    assert [len(row) for row in built[0]] == [1, 1]   # no loop entries
    w = {e: -v for e, v in w.items()}
    value, built = kasteleyn_rows(monkeypatch, g, w)
    assert value == -3 and len(built) == 1


def test_count_pm_random_weighted():
    rng = random.Random(10)
    for seed in range(30):
        g = generate_cubic_plane(rng.choice([2, 4, 6, 8]), seed)
        w = {e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for e in g.edges()}
        assert weighted_pm(g, w) == brute_force_pm(g, w)


def decoration(grid, kind, w):
    """_decoration(grid, kind, w), and the faces it oriented and their
    root faces."""
    walked = []
    walk = solvers._dual_walk

    def spy(twin, faces):
        out, roots = walk(twin, faces)
        walked.append((faces, roots))
        return out, roots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_dual_walk", spy)
        args = _decoration(grid, kind, w)
    return args, walked[0][0], walked[0][1]


def decoration_edges(args, weights):
    """A decoration's edges as (u, v, weight) on its rows."""
    n, row, twin, *_ = args
    return [(row[d], row[t], weights.get(d, 1)) for d, t in twin.items() if d < t]


def sign_matching(args):
    """The decoration's matching(), or one found by enumeration."""
    n, row, twin, _, _, matching = args
    if matching is not None:
        return matching
    m = first_matching(list(range(n)), [(row[d], row[t], d)
                                        for d, t in twin.items() if d < t])
    return lambda: m


def test_count_pm_decorated_signed_weights():
    # Fisher decorations have triangles and many faces, so the global sign
    # of the Pfaffian orientation and the pivot-order sign both matter:
    # under random signed edge weights and a random numbering of the rows,
    # one Pfaffian and the sign read off a matching give the enumerated sum
    rng = random.Random(11)
    checked = 0
    for n in (2, 4, 6):
        for seed in range(4):
            grid = grid_from_cubic_bipartite(
                generate_cubic_bipartite_plane(n, seed), SymSignature([1, 0, 0, 1]))
            for kind in ("even", "odd", "two", "one"):
                w0 = Fraction(rng.choice([-3, -1, 2]), rng.choice([1, 2, 5]))
                args = _decoration(grid, kind, w0)
                order, row, twin, out, w, _ = args
                if order > 30:
                    continue
                signed = {d: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for d in twin}
                matching = sign_matching(args)
                for weights in (w, signed):
                    want = _match_sum(list(range(order)),
                                      decoration_edges(args, weights))
                    got = _kasteleyn_sum(order, row, twin, out, weights, matching)
                    assert got == want
                    for _ in range(2):
                        perm = rng.sample(range(order), order)
                        shuffled = {d: perm[r] for d, r in row.items()}
                        assert _kasteleyn_sum(order, shuffled, twin, out,
                                              weights, matching) == want
                checked += 1
    assert checked >= 30


def test_matching_sign_equals_the_unit_pfaffian_sign():
    # the sign every term carries, read off one matching's term, against
    # the sign of the unit-weight Pfaffian (count_pm's former second run)
    rng = random.Random(12)
    cases = []
    for n in (2, 4, 8, 20, 60):
        for seed in range(3):
            grid = grid_from_cubic_bipartite(
                generate_cubic_bipartite_plane(n, seed), SymSignature([1, 0, 0, 1]))
            cases += [_decoration(grid, kind, Fraction(-2)) for kind in ("even", "odd")]
    for g in multigraph_family("contracted")[:10]:
        idx = {v: i for i, v in enumerate(g.vertices())}
        m = first_matching(g.vertices(), [(*g.edge_ends(e), e) for e in g.edges()])
        if m is not None:
            cases.append((len(idx), {d: idx[v] for d, v in g.vertex_of.items()},
                          g.twin, kasteleyn_orient(g).oriented_out, {}, lambda m=m: m))
    signs = set()
    for order, row, twin, out, _, matching in cases:
        unit = unit_pfaffian(order, row, twin, out)
        if unit == 0:
            continue
        assert _kasteleyn_sum(order, row, twin, out, {}, matching) == abs(unit)
        signs.add(unit > 0)
    assert signs == {True, False} and len(cases) >= 30


def test_the_sign_matching_must_be_perfect():
    grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(4, 1),
                                     SymSignature([1, 0, 0, 1]))
    for kind in ("even", "odd"):
        order, row, twin, out, w, matching = _decoration(grid, kind, Fraction(3))
        assert _kasteleyn_sum(order, row, twin, out, w, matching) != 0
        m = matching()
        for bad in (m[1:], m[1:] + m[:1] * 2):   # a vertex missed, one twice
            with pytest.raises(SolverError, match="not a perfect matching"):
                _kasteleyn_sum(order, row, twin, out, w, lambda: bad)


def test_matchgate_solve_runs_one_pfaffian_on_one_graph(monkeypatch):
    # one Pfaffian, the sign from a matching, and no graph but H; the six
    # signatures reach the kinds even, odd, two and one
    g = generate_cubic_bipartite_plane(20, 1)
    calls = []
    pfaffian, init = solvers._pfaffian, PlaneGraph.__init__

    def spy_pfaffian(rows):
        calls.append("pfaffian")
        return pfaffian(rows)

    def spy_init(self, *args):
        calls.append("PlaneGraph")
        init(self, *args)

    for f, sign in (([2, 1, 1, 2], 1), ([2, 1, -1, -2], -1), ([1, 3, -3, -1], -1),
                    ([1, 3, 3, 1], 1), ([-3, 1, 1, -3], 1), ([3, 1, -1, -3], -1)):
        grid = grid_from_cubic_bipartite(g, SymSignature(f))
        want = eval_grid(grid)
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_pfaffian", spy_pfaffian)
            mp.setattr(PlaneGraph, "__init__", spy_init)
            assert solve_matchgate(grid, Fraction(f[0]), Fraction(f[1]), sign) == want
        assert sorted(calls) == ["PlaneGraph", "pfaffian"], f


def test_fragment_signatures():
    # every one of the 8 external patterns gives the value at its weight
    w = Fraction(5, 3)
    for kind, want in (("even", (1, 0, w, 0)), ("odd", (0, w, 0, 1)),
                       ("one", (0, 1, 0, 0)), ("two", (0, 0, 1, 0))):
        values = _pattern_values(kind, w)
        assert len(values) == 8
        assert all(v == want[len(ext)] for ext, v in values.items()), kind


def test_preflight_checks_every_pattern(monkeypatch):
    # slots a, b, c alone on vertices 0, 1, 2, and three parallel edges 2-3:
    # pattern {a, b} gives 3, {a, c} and {b, c} give 0, so the mean over
    # weight 2 is the 1 that "two" stands for, but no pattern gives it
    fragment = solvers._fragment
    asymmetric = ((0, 1, 2), [(2, 3, Fraction(1))] * 3)
    monkeypatch.setattr(solvers, "_fragment", lambda kind, w:
                        asymmetric if kind == "two" else fragment(kind, w))
    values = _pattern_values("two", Fraction(1))
    assert [values[ext] for ext in ((0, 1), (0, 2), (1, 2))] == [3, 0, 0]
    assert all(v == 0 for ext, v in values.items() if len(ext) != 2)
    grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(4, 0),
                                     SymSignature([3, -1, -1, 3]))
    with pytest.raises(SolverError, match=r"^decoration two realizes 3 on "
                                          r"slots \[0, 1\], wanted 1$"):
        solve_matchgate(grid, Fraction(3), Fraction(-1), 1)


# The fragments written out in full, independently of solvers._FRAGMENTS: the
# ccw rotation of each fragment vertex, listing slots 'a', 'b', 'c' and ends of
# internal edges (edge j has end 2j at one vertex and end 2j + 1 at the
# other), and the edges that carry the left weight.  A fragment of one vertex
# is the node itself.
REFERENCE_FRAGMENTS = {
    # triangle 0-1-2 with pendant legs to ports 3, 4, 5
    "even": (((6, 0, 5), (8, 2, 1), (10, 4, 3),
              ("a", 7), ("b", 9), ("c", 11)), (0, 1, 2)),
    # plain triangle
    "odd": ((("a", 0, 5), ("b", 2, 1), ("c", 4, 3)), (0, 1, 2)),
    # star centre
    "one": ((("a", "b", "c"),), ()),
    # claw, ports 0, 1, 2 around centre 3
    "two": ((("a", 1), ("b", 3), ("c", 5), (0, 2, 4)), ()),
}


def reference_edges(kind, w):
    """(the vertex of each slot, edges as (u, v, weight)) of a reference
    fragment."""
    rots, weighted = REFERENCE_FRAGMENTS[kind]
    at = {x: v for v, rot in enumerate(rots) for x in rot}
    edges = [(at[2 * j], at[2 * j + 1], w if j in weighted else 1)
             for j in range(sum(isinstance(x, int) for rot in rots
                                for x in rot) // 2)]
    return [at[s] for s in "abc"], edges, len(rots)


@pytest.mark.parametrize("kind", sorted(REFERENCE_FRAGMENTS))
def test_pattern_values_match_edge_subsets_of_the_reference(kind):
    # a pattern's value sums, over the edge subsets that cover every vertex
    # but the pattern's slot vertices once and those not at all, the
    # product of their weights
    for w in (Fraction(5, 3), Fraction(-2), Fraction(-1, 4), Fraction(3)):
        at, edges, size = reference_edges(kind, w)
        want = {}
        for k in range(4):
            for ext in combinations(range(3), k):
                free = [at[i] for i in ext]
                total = Fraction(0)
                for m in range(len(edges) + 1):
                    for subset in combinations(edges, m):
                        ends = [x for u, v, _ in subset for x in (u, v)]
                        if sorted(ends + free) == list(range(size)):
                            total += prod(wt for _, _, wt in subset)
                want[ext] = total
        assert _pattern_values(kind, w) == want


def literal_splice(grid, left_kind, right_kind, left_weight):
    """Reference for _decoration: every grid node replaced by its whole
    fragment of REFERENCE_FRAGMENTS, port vertices included, nothing
    contracted."""
    b = grid_builder(grid)
    weights = {}
    next_v, d0 = max(b.rotation) + 1, b.fresh_dart()
    for nid in sorted(grid.nodes):
        left = grid.nodes[nid].side == "left"
        rots, weighted = REFERENCE_FRAGMENTS[left_kind if left else right_kind]
        if len(rots) == 1:
            continue
        ext = b.rotation.pop(nid)
        ends = sum(isinstance(x, int) for rot in rots for x in rot)
        for j in range(0, ends, 2):
            b.retwin(d0 + j, d0 + j + 1)
        for j in weighted:
            weights[d0 + 2 * j] = left_weight if left else Fraction(1)
        for v, rot in enumerate(rots):
            b.add_vertex(next_v + v, [ext["abc".index(x)] if isinstance(x, str)
                                      else d0 + x for x in rot])
        next_v += len(rots)
        d0 += ends
    return b.freeze(), weights


# Kasteleyn order over |U| = |V| per left kind against "even": 6 (3 per
# node) is the truncation, 3 the medial graph, 4 is |U| + 3|V|
ORDER_PER_U = {"even": 6, "odd": 3, "two": 4, "one": 1}


@pytest.mark.parametrize("kind", sorted(ORDER_PER_U))
def test_decorate_matches_the_literal_splice(kind):
    rng = random.Random(kind)
    nonzero = 0
    for n in (2, 4, 6):
        for seed in range(5):
            grid = grid_from_cubic_bipartite(
                generate_cubic_bipartite_plane(n, seed), SymSignature([1, 0, 0, 1]))
            w = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 3]))
            want = brute_force_pm(*literal_splice(grid, kind, "even", w))
            args, faces, roots = decoration(grid, kind, w)
            order, row, twin, out, *_ = args
            assert _kasteleyn_sum(*args) == want
            assert order == ORDER_PER_U[kind] * n // 2
            # every dart lies on one face, Euler's formula holds on each
            # component, and every face but the roots is odd
            assert sorted(d for f in faces.values() for d in f) == sorted(twin)
            assert order - len(twin) // 2 + len(faces) == 2 * len(roots)
            assert all(sum(out[d] for d in f) % 2 for fid, f in faces.items()
                       if fid not in roots)
            nonzero += want != 0
    assert nonzero >= 5


def test_decoration_rows_follow_the_splice_order():
    # _pfaffian's pivots follow the row numbering, so the rows keep the
    # order in which splicing the cores and contracting the ports makes
    # the vertices: the truncation's corners in dart order, and the medial
    # graph's vertices in the order of the right ends' darts
    for seed in range(3):
        grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(20, seed),
                                         SymSignature([1, 0, 0, 1]))
        H = plane_graph_of_grid(grid)
        M = len(H.twin)
        row = _decoration(grid, "even", Fraction(2))[1]
        assert [row[M + 2 * h] for h in range(M)] == list(range(M))
        order, row = _decoration(grid, "odd", Fraction(2))[:2]
        right = [h for h in range(M) if grid.nodes[H.vertex_of[h]].side == "right"]
        assert [row[M + 2 * h] for h in right] == list(range(order))


def grids(count, seed0):
    rng = random.Random(seed0)
    return [generate_cubic_bipartite_plane(rng.choice([2, 4, 6, 8]),
                                           rng.randint(0, 9999))
            for _ in range(count)]


def test_case5_running_example():
    grid = grid_from_cubic_bipartite(fixtures.cube(), SymSignature([1, 0, -1, 2]))
    assert solve_case5(grid, Fraction(1, 2), Fraction(-1, 2)) == 9


def test_case5_zero_a():
    f = SymSignature([2, -2, 2, -2])  # a = 0, b = 2
    grid = grid_from_cubic_bipartite(fixtures.m23(), f)
    assert solve_case5(grid, Fraction(0), Fraction(2)) == 0 == eval_grid(grid)


def test_case5_random():
    rng = random.Random(50)
    for g in grids(15, 51):
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        f = SymSignature([3 * a + b, -a - b, -a + b, 3 * a - b])
        grid = grid_from_cubic_bipartite(g, f)
        assert solve_case5(grid, a, b) == eval_grid(grid)


def test_degenerate_examples():
    grid = grid_from_cubic_bipartite(fixtures.cube(), SymSignature([1, 1, 1, 1]))
    assert solve_degenerate(grid, [1, 1], Fraction(1)) == 2 ** 4
    grid = grid_from_cubic_bipartite(fixtures.cube(), SymSignature([0, 0, 0, 5]))
    assert solve_degenerate(grid, [0, 1], Fraction(5)) == 625


def test_geneq_examples():
    grid = grid_from_cubic_bipartite(fixtures.cube(), SymSignature([1, 0, 0, 1]))
    assert solve_geneq(grid, Fraction(1), Fraction(1)) == 2
    # two components with one left node each
    from planar_holant.plane_graph import GraphBuilder, PlaneGraph
    g1 = fixtures.m23()
    g2 = fixtures.relabeled(fixtures.m23(), 10, 100)
    g = PlaneGraph({**g1.twin, **g2.twin}, {**g1.vertex_of, **g2.vertex_of},
                   {**{v: g1.rotation[v] for v in g1.vertices()},
                    **{v: g2.rotation[v] for v in g2.vertices()}})
    f = SymSignature([2, 0, 0, 3])
    grid = grid_from_cubic_bipartite(g, f)
    got = solve_geneq(grid, Fraction(2), Fraction(3))
    assert got == 25 == eval_grid(grid)


def test_affine_trivial_examples():
    m23 = grid_from_cubic_bipartite(fixtures.m23(), SymSignature([1, 0, 1, 0]))
    assert solve_affine(m23, "even", Fraction(1)) == 1 == eval_grid(m23)
    m23b = grid_from_cubic_bipartite(fixtures.m23(), SymSignature([1, 1, -1, -1]))
    assert solve_affine(m23b, "two_block", Fraction(1)) == 0 == eval_grid(m23b)


@pytest.mark.parametrize("family", list(AFFINE_PATTERNS))
def test_affine_families_match_eval_grid(family):
    # small cubic bipartite graphs have parallel edges, so some left nodes
    # meet one right node on two slots; seed 4 gives two_block nonzero sums
    values = set()
    for n in (2, 4, 6, 8, 12, 16):
        for seed in (0, 4):
            g = generate_cubic_bipartite_plane(n, seed)
            for a in (Fraction(1), Fraction(-3, 2), sqrt_exact(2)):
                f = SymSignature([a * p for p in AFFINE_PATTERNS[family]])
                grid = grid_from_cubic_bipartite(g, f)
                got = solve_affine(grid, family, a)
                assert got == eval_grid(grid), (n, seed, a)
                values.add(got)
    assert len(values) > 3


def test_gauss_sum_against_enumeration():
    rng = random.Random(77)
    from itertools import product
    for _ in range(40):
        n = rng.randint(0, 6)
        quad = set()
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randint(0, max(n - 1, 0)), rng.randint(0, max(n - 1, 0))
            if i != j and n:
                quad.add((min(i, j), max(i, j)))
        lin = {rng.randint(0, n - 1) for _ in range(rng.randint(0, 3))} if n else set()
        const = rng.randint(0, 1)
        want = 0
        for bits in product((0, 1), repeat=n):
            q = const + sum(bits[i] * bits[j] for (i, j) in quad) \
                + sum(bits[i] for i in lin)
            want += (-1) ** (q % 2)
        assert gauss_sum_gf2(n, set(quad), set(lin), const) == want


def test_matchgate_hadamard_forms():
    # transformed left signature [2a+6b, 0, 2a-2b, 0] for [a,b,b,a]
    from planar_holant.signatures import hadamard3
    a, b = Fraction(3), Fraction(-2)
    ft = hadamard3(SymSignature([a, b, b, a]))
    assert ft.values == (2 * a + 6 * b, 0, 2 * a - 2 * b, 0)
    ft2 = hadamard3(SymSignature([a, b, -b, -a]))
    assert ft2.values == (0, 2 * a + 2 * b, 0, 2 * a - 6 * b)


def test_matchgate_cross_path_consistency():
    f = SymSignature([1, 1, 1, 1])  # both degenerate and case-4 form
    for g in grids(5, 99):
        grid = grid_from_cubic_bipartite(g, f)
        assert solve_matchgate(grid, Fraction(1), Fraction(1), 1) == \
            solve_degenerate(grid, [1, 1], Fraction(1))


def test_matchgate_boundary_params():
    # p = 0 on the even side: a = -3b
    f = SymSignature([-3, 1, 1, -3])
    for g in grids(6, 123):
        grid = grid_from_cubic_bipartite(g, f)
        assert solve_matchgate(grid, Fraction(-3), Fraction(1), 1) == eval_grid(grid)
    # q = 0 on the odd side: [0,p,0,0] comes from b = a/3... use a=3,b=1
    f2 = SymSignature([3, 1, -1, -3])
    for g in grids(6, 124):
        grid = grid_from_cubic_bipartite(g, f2)
        assert solve_matchgate(grid, Fraction(3), Fraction(1), -1) == eval_grid(grid)


def test_wrong_form_rejected():
    grid = grid_from_cubic_bipartite(fixtures.cube(), SymSignature([1, 0, -1, 2]))
    with pytest.raises(WrongForm):
        solve_geneq(grid, Fraction(1), Fraction(2))


def test_require_case_compares_each_signature_object_once():
    # a grid from records gives the nodes of equal records one signature
    # object; nodes with equal but distinct objects must solve alike, and
    # one node of another signature must still be rejected
    f = SymSignature([2, 1, 1, 2])
    g = fixtures.cube()
    grid = grid_from_cubic_bipartite(g, f)
    want = solve_matchgate(grid, Fraction(2), Fraction(1), 1)
    lefts = grid.left_nodes()
    for n in lefts:
        grid.nodes[n.id] = dataclasses.replace(n, sym=SymSignature(f.values))
    assert len({id(n.sym) for n in grid.left_nodes()}) == len(lefts)
    assert solve_matchgate(grid, Fraction(2), Fraction(1), 1) == want
    odd = lefts[len(lefts) // 2]
    grid.nodes[odd.id] = dataclasses.replace(odd, sym=SymSignature([2, 1, 1, 3]))
    with pytest.raises(WrongForm):
        solve_matchgate(grid, Fraction(2), Fraction(1), 1)
    grid = grid_from_cubic_bipartite(g, f)
    odd = grid.right_nodes()[-1]
    grid.nodes[odd.id] = dataclasses.replace(odd, sym=SymSignature([1, 0, 0, 2]))
    with pytest.raises(WrongForm):
        solve_matchgate(grid, Fraction(2), Fraction(1), 1)
