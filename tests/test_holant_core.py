import random
from fractions import Fraction
from itertools import product

import pytest

from planar_holant import fixtures
from planar_holant.generators import generate_cubic_bipartite_plane, leapfrog
from planar_holant.holant_core import (DEFAULT_MAX_EDGES, DanglingPresent,
                                       GridError, GridNode, SignatureGrid,
                                       TooManyEdges, elimination_width,
                                       eval_collapsed, eval_gadget, eval_grid,
                                       gadget_assignment_counts)
from planar_holant.plane_graph import grid_from_cubic_bipartite
from planar_holant.reductions import Crossing, planarize
from planar_holant.scalars import format_scalar, sqrt_exact
from planar_holant.signatures import (EQ3, SymSignature, hadamard3,
                                      hadamard3_inv)
from planar_holant.solvers import solve_case5, solve_matchgate


def running_example():
    return grid_from_cubic_bipartite(fixtures.cube(), SymSignature([1, 0, -1, 2]))


def rand_sig(rng, arity=3):
    return SymSignature([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(arity + 1)])


def test_running_example_is_nine():
    assert eval_grid(running_example()) == 9
    assert eval_collapsed(running_example()) == 9


def test_empty_grid_is_one():
    assert eval_grid(SignatureGrid({}, [])) == 1


def test_m23_grid_f0_plus_f3():
    f = SymSignature([2, 5, 7, 11])
    grid = grid_from_cubic_bipartite(fixtures.m23(), f)
    assert eval_grid(grid) == f[0] + f[3]


def raw_enumeration(grid, pin):
    """Independent reference: sum and nonzero count of the products over
    every assignment of the internal edges, dangling slots read from pin."""
    feed = {}
    for idx, (na, sa, nb, sb) in enumerate(grid.edges):
        feed[(na, sa)] = idx
        feed[(nb, sb)] = idx
    total, nonzero = Fraction(0), 0
    for bits in product((0, 1), repeat=len(grid.edges)):
        term = Fraction(1)
        for n in grid.nodes.values():
            vals = [pin[(n.id, s)] if (n.id, s) in pin else bits[feed[(n.id, s)]]
                    for s in range(n.arity)]
            term *= n.value(vals)
            if term == 0:
                break
        total += term
        nonzero += term != 0
    return total, nonzero


def cut_edges(grid, rng, k):
    """The grid with k random internal edges cut into dangling slot pairs."""
    edges = list(grid.edges)
    dangling = []
    for _ in range(k):
        na, sa, nb, sb = edges.pop(rng.randrange(len(edges)))
        dangling += [(na, sa), (nb, sb)]
    return SignatureGrid(grid.nodes, edges, dangling)


def crossed(grid, rng):
    """planarize with one random crossing, its two edges in random order;
    edges run L-end to R-end."""
    edges = [e if grid.nodes[e[0]].side == "left" else e[2:] + e[:2]
             for e in grid.edges]
    a, b = rng.sample(range(len(edges)), 2)
    if rng.choice([1, -1]) < 0:
        a, b = b, a
    return planarize(SignatureGrid(grid.nodes, edges, []), [Crossing(a, b)])


def test_collapsed_matches_raw_random():
    rng = random.Random(7)
    for seed in range(25):
        g = generate_cubic_bipartite_plane(rng.choice([2, 4, 6, 8]), seed)
        f = rand_sig(rng)
        grid = grid_from_cubic_bipartite(g, f)
        raw, _ = raw_enumeration(grid, {})
        assert eval_grid(grid) == raw == eval_collapsed(grid)
    # table nodes: cross-over nodes from planarize, right nodes not =3
    for seed in range(8):
        g = generate_cubic_bipartite_plane(rng.choice([2, 4, 6]), seed + 100)
        grid = grid_from_cubic_bipartite(
            g, rand_sig(rng), right_sig=None if seed % 2 else rand_sig(rng))
        pl = crossed(grid, rng)
        assert eval_grid(pl) == raw_enumeration(pl, {})[0] == eval_grid(grid)
        with pytest.raises(GridError):
            eval_collapsed(pl)
    # dangling slots: gadget tables and support counts, row-major in
    # grid.dangling order, against pinned raw enumeration
    for seed in range(12):
        g = generate_cubic_bipartite_plane(rng.choice([2, 4, 6]), seed + 200)
        grid = grid_from_cubic_bipartite(
            g, rand_sig(rng), right_sig=None if seed % 3 else rand_sig(rng))
        if seed % 4 == 0:
            grid = crossed(grid, rng)
        gad = cut_edges(grid, rng, 1 + seed % 2)
        want = [raw_enumeration(gad, dict(zip(gad.dangling, ext)))
                for ext in product((0, 1), repeat=len(gad.dangling))]
        assert eval_gadget(gad) == [v for v, _ in want]
        assert gadget_assignment_counts(gad) == [c for _, c in want]


def test_right_equality_with_unary_ones():
    nodes = {0: GridNode(0, "right", ("R",) * 3, sym=EQ3)}
    edges = []
    for i in range(3):
        nodes[1 + i] = GridNode(1 + i, "left", ("L",), sym=SymSignature([1, 1]))
        edges.append((1 + i, 0, 0, i))
    assert eval_grid(SignatureGrid(nodes, edges, [])) == 2


def test_multiplicative_over_components():
    rng = random.Random(3)
    f = rand_sig(rng)
    g1 = grid_from_cubic_bipartite(fixtures.m23(), f)
    v1 = eval_grid(g1)
    # two disjoint copies
    nodes = dict(g1.nodes)
    edges = list(g1.edges)
    off = 100
    for nid, n in g1.nodes.items():
        nodes[nid + off] = GridNode(nid + off, n.side, n.slots, n.sym, n.table)
    for (na, sa, nb, sb) in g1.edges:
        edges.append((na + off, sa, nb + off, sb))
    g2 = SignatureGrid(nodes, edges, [])
    assert eval_grid(g2) == v1 * v1


def test_relabel_invariance():
    rng = random.Random(11)
    f = rand_sig(rng)
    g = generate_cubic_bipartite_plane(6, 13)
    grid = grid_from_cubic_bipartite(g, f)
    v = eval_grid(grid)
    remap = {nid: nid + 50 for nid in grid.nodes}
    nodes = {remap[nid]: GridNode(remap[nid], n.side, n.slots, n.sym, n.table)
             for nid, n in grid.nodes.items()}
    edges = [(remap[na], sa, remap[nb], sb) for (na, sa, nb, sb) in grid.edges]
    assert eval_grid(SignatureGrid(nodes, edges, [])) == v


def test_holographic_invariance():
    rng = random.Random(5)
    for seed in range(10):
        g = generate_cubic_bipartite_plane(rng.choice([2, 4, 6]), seed + 40)
        f = rand_sig(rng)
        r = rand_sig(rng)
        grid = grid_from_cubic_bipartite(g, f, right_sig=r)
        ft, rt = hadamard3(f), hadamard3_inv(r)
        tgrid = grid_from_cubic_bipartite(g, ft, right_sig=rt)
        assert eval_grid(grid) == eval_grid(tgrid)


def test_eval_gadget_single_node():
    f = SymSignature([1, 2, 3, 4])
    nodes = {0: GridNode(0, "left", ("L",) * 3, sym=f)}
    grid = SignatureGrid(nodes, [], [(0, 0), (0, 1), (0, 2)])
    table = eval_gadget(grid)
    assert [table[0], table[1], table[3], table[7]] == [1, 2, 3, 4]


def test_gadget_composition_is_matrix_product():
    from planar_holant.gadgets import gadget_G1
    f = SymSignature([1, 2, 3, 5])
    m = gadget_G1(f)
    # two gadgets chained: square-circlex2 twice in series
    nodes = {}
    nodes[0] = GridNode(0, "left", ("L",) * 3, sym=f)
    nodes[1] = GridNode(1, "right", ("R",) * 3, sym=EQ3)
    nodes[2] = GridNode(2, "left", ("L",) * 3, sym=f)
    nodes[3] = GridNode(3, "right", ("R",) * 3, sym=EQ3)
    edges = [(0, 1, 1, 1), (0, 2, 1, 2),     # first double edge
             (2, 0, 1, 0),                   # middle junction
             (2, 1, 3, 1), (2, 2, 3, 2)]
    grid = SignatureGrid(nodes, edges, [(0, 0), (3, 0)])
    table = eval_gadget(grid)
    mm = m.mul(m)
    assert [[table[0], table[1]], [table[2], table[3]]] == \
        [list(mm.m[0]), list(mm.m[1])]


def test_a_list_is_not_a_signature():
    with pytest.raises(GridError, match=r"node 0: .*SymSignature, not list"):
        GridNode(0, "left", ("L",) * 3, [2, 1, 1, 2])
    g = generate_cubic_bipartite_plane(10, 1)
    with pytest.raises(GridError, match=r"node \d+: .*SymSignature, not list"):
        grid_from_cubic_bipartite(g, [2, 1, 1, 2])


def test_eval_guards():
    grid = SignatureGrid({0: GridNode(0, "left", ("L",), sym=SymSignature([1, 1]))},
                         [], [(0, 0)])
    with pytest.raises(DanglingPresent):
        eval_grid(grid)
    # cap enforcement
    import os
    os.environ["HOLANT_MAX_EDGES"] = "2"
    try:
        f = SymSignature([1, 1, 1, 1])
        nodes = {0: GridNode(0, "left", ("L",) * 3, sym=f),
                 1: GridNode(1, "table", ("R",) * 3,
                             table=tuple(Fraction(1) for _ in range(8)))}
        edges = [(0, i, 1, i) for i in range(3)]
        with pytest.raises(TooManyEdges):
            eval_grid(SignatureGrid(nodes, edges, []))
    finally:
        del os.environ["HOLANT_MAX_EDGES"]


def test_grid_json_roundtrip():
    grid = running_example()
    g2 = SignatureGrid.from_json(grid.to_json())
    assert eval_grid(g2) == 9
    assert g2.to_json_dict() == grid.to_json_dict()


def test_each_distinct_signature_record_is_parsed_once(monkeypatch):
    # 100 nodes, two distinct all-string records: two parses; a record with
    # a non-string entry is parsed every time
    spec = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(100, 1),
                                     SymSignature([2, 1, 1, 2])).to_json_dict()
    spec["nodes"][0]["symmetric"] = [2, "1", "1", "2"]
    spec["nodes"][1]["symmetric"] = [2, "1", "1", "2"]
    parsed = []
    from_json = SymSignature.from_json

    def spy(vals):
        parsed.append(tuple(vals))
        return from_json(vals)

    monkeypatch.setattr(SymSignature, "from_json", staticmethod(spy))
    grid = SignatureGrid.from_json_dict(spec)
    assert set(parsed) == {(2, "1", "1", "2"), ("1", "0", "0", "1"),
                           ("2", "1", "1", "2")}
    assert len(parsed) == 4
    assert grid.to_json_dict() == {**spec, "nodes": [
        {**rec, "symmetric": [str(v) for v in rec["symmetric"]]}
        for rec in spec["nodes"]]}


def terms(grid, pin):
    """Reference enumerator: the product of node values for each of the 2^n
    states of the variables the evaluator eliminates.  One variable per
    right equality, whose slots all copy it, and one per other internal
    edge; dangling slots read their bit from pin, a pinned equality is fixed
    to that bit and conflicting pins yield no state."""
    col = {n.id: None for n in grid.nodes.values()
           if n.side == "right" and n.is_equality()}
    for (nid, _), b in pin.items():
        if nid in col:
            if col[nid] is not None and col[nid] != b - 2:
                return
            col[nid] = b - 2
    nbits = 0
    for nid, c in col.items():
        if c is None:
            col[nid] = nbits
            nbits += 1
    at = {key: b - 2 for key, b in pin.items()}
    for (na, sa, nb, sb) in grid.edges:
        c = col[na] if na in col else col.get(nb)
        if c is None:
            c = nbits
            nbits += 1
        at[(na, sa)] = at[(nb, sb)] = c
    others = [(n.value, [at[(n.id, s)] for s in range(n.arity)])
              for n in grid.nodes.values() if n.id not in col]
    for bits in product((0, 1), repeat=nbits):
        bits += (0, 1)
        term = Fraction(1)
        for value, cols in others:
            term = term * value([bits[c] for c in cols])
            if term == 0:
                break
        yield term


def assert_same(got, want):
    assert got == want
    assert type(got) is type(want)
    assert format_scalar(got) == format_scalar(want)


def assert_matches_terms(grid):
    """eval_grid, or eval_gadget and gadget_assignment_counts, against the
    reference enumerator pin by pin."""
    if not grid.dangling:
        assert_same(eval_grid(grid), sum(terms(grid, {}), Fraction(0)))
        return
    pins = [dict(zip(grid.dangling, ext))
            for ext in product((0, 1), repeat=len(grid.dangling))]
    for got, pin in zip(eval_gadget(grid), pins):
        assert_same(got, sum(terms(grid, pin), Fraction(0)))
    for got, pin in zip(gadget_assignment_counts(grid), pins):
        assert_same(got, sum(1 for t in terms(grid, pin) if t != 0))


def weight(rng, kind):
    if kind == "sqrt2":
        return Fraction(rng.randint(-2, 2)) + rng.randint(-2, 2) * sqrt_exact(2)
    if kind == "zeros":
        return Fraction(rng.choice([0, 0, 0, 1, -2]))
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def disjoint(g1, g2):
    """The union of two grids, g2's node ids shifted past g1's."""
    off = max(g1.nodes, default=0) + 1
    nodes = dict(g1.nodes)
    for nid, n in g2.nodes.items():
        nodes[nid + off] = GridNode(nid + off, n.side, n.slots, n.sym, n.table)
    return SignatureGrid(
        nodes, list(g1.edges) + [(na + off, sa, nb + off, sb)
                                 for (na, sa, nb, sb) in g2.edges],
        list(g1.dangling) + [(nid + off, s) for (nid, s) in g2.dangling])


def differential_grid(rng, i, sizes=(2, 4, 6, 8, 12, 16)):
    """Closed grid i of the differential set: =3 right nodes (n/2
    variables on n vertices) or, every fourth, non-equality right nodes
    (3n/2 variables, n <= 8); every fifth planarized with one cross-over,
    which adds two variables; weights rational, zero-heavy or in
    Q(sqrt 2)."""
    kind = ("rational", "zeros", "sqrt2")[i % 3]
    eq = i % 4 != 3
    n = rng.choice(sizes if eq else [v for v in sizes if v <= 8])
    g = generate_cubic_bipartite_plane(n, 300 + i)

    def sig():
        return SymSignature([weight(rng, kind) for _ in range(4)])
    grid = grid_from_cubic_bipartite(g, sig(), right_sig=None if eq else sig())
    return crossed(grid, rng) if i % 5 == 0 else grid


def test_elimination_matches_enumeration_closed():
    rng = random.Random(12)
    for i in range(40):
        assert_matches_terms(differential_grid(rng, i))
    # 2^12 states: =3 on 24 vertices, non-equality right nodes on 8
    for i, kind in ((0, "sqrt2"), (3, "zeros")):
        g = generate_cubic_bipartite_plane(24 if i == 0 else 8, 5)
        f, r = (SymSignature([weight(rng, kind) for _ in range(4)])
                for _ in range(2))
        assert_matches_terms(grid_from_cubic_bipartite(
            g, f, right_sig=None if i == 0 else r))
    assert_matches_terms(disjoint(differential_grid(rng, 2),
                                  differential_grid(rng, 3)))
    assert_matches_terms(disjoint(differential_grid(rng, 1), SignatureGrid.empty()))
    assert_matches_terms(SignatureGrid.empty())


def test_elimination_matches_enumeration_gadgets():
    rng = random.Random(13)
    for i in range(36):
        grid = differential_grid(rng, i, sizes=(2, 4, 6, 8))
        if len(grid.edges) < 3:
            continue
        assert_matches_terms(cut_edges(grid, rng, 1 + i % 3))
    # two cut edges at one =3 node: pins 01 and 10 conflict there
    grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(6, 2),
                                     SymSignature([1, 2, -1, 3]))
    eq = grid.right_nodes()[0].id
    at_eq = [e for e in grid.edges if eq in (e[0], e[2])][:2]
    gad = SignatureGrid(grid.nodes, [e for e in grid.edges if e not in at_eq],
                        [k for e in at_eq for k in (e[:2], e[2:])])
    assert_matches_terms(gad)
    assert_matches_terms(disjoint(gad, differential_grid(rng, 4, sizes=(2, 4))))


def test_hundred_vertex_grid_beyond_the_free_variable_cap(monkeypatch):
    """50 free variables, past 24, but an elimination width of at most 7:
    the default cap accepts it, and the value is the solvers'.  The cap
    bounds the width, and the error states both."""
    a, b = Fraction(1, 2), Fraction(-3, 2)
    for s in (1, 2, 3):
        g = generate_cubic_bipartite_plane(100, s)
        case5 = grid_from_cubic_bipartite(
            g, SymSignature([3 * a + b, -a - b, -a + b, 3 * a - b]))
        assert len(case5.right_nodes()) > DEFAULT_MAX_EDGES
        assert elimination_width(case5) <= 7
        assert eval_grid(case5) == solve_case5(case5, a, b)
        match = grid_from_cubic_bipartite(g, SymSignature([2, 1, 1, 2]))
        assert eval_grid(match) == solve_matchgate(match, Fraction(2),
                                                   Fraction(1), 1)
        width = elimination_width(match)
        monkeypatch.setenv("HOLANT_MAX_EDGES", str(width))
        assert eval_grid(match) == solve_matchgate(match, Fraction(2),
                                                   Fraction(1), 1)
        monkeypatch.setenv("HOLANT_MAX_EDGES", str(width - 1))
        with pytest.raises(TooManyEdges,
                           match=f"width {width} exceeds cap {width - 1}"):
            eval_grid(match)
        monkeypatch.delenv("HOLANT_MAX_EDGES")


def test_cap_on_wide_leapfrog_grids(monkeypatch):
    """Leapfrogs of the cube are bipartite (every face is a square or a
    hexagon) and wider than the generated grids: width 14 at 72 vertices,
    still evaluated, and width 30 at 216, refused at the cap of 24 before
    any node table is built."""
    monkeypatch.delenv("HOLANT_MAX_EDGES", raising=False)
    g = leapfrog(leapfrog(fixtures.cube()))
    match = grid_from_cubic_bipartite(g, SymSignature([2, 1, 1, 2]))
    assert len(g.vertices()) == 72 and elimination_width(match) == 14
    assert eval_grid(match) == solve_matchgate(match, Fraction(2), Fraction(1), 1)
    wide = grid_from_cubic_bipartite(leapfrog(g), SymSignature([2, 1, 1, 2]))
    assert elimination_width(wide) == 30

    def no_table(node, bits):
        raise AssertionError("a node table was built")

    monkeypatch.setattr(GridNode, "value", no_table)
    with pytest.raises(TooManyEdges,
                       match=r"width 30 exceeds cap 24 \(HOLANT_MAX_EDGES\)"):
        eval_grid(wide)


def component_a_grid():
    """G4's component A: a square and a circle sharing one edge, four
    dangling slots (two of them at the circle)."""
    from planar_holant.gadgets import GridBuilder
    b = GridBuilder()
    sq = b.node("left", SymSignature([1, 2, 1, 2]))
    ci = b.node("right", EQ3)
    b.wire((sq, 1), (ci, 1))
    b.dangle((sq, 0), (ci, 0), (sq, 2), (ci, 2))
    return b.grid()


def six_slot_cut():
    """A 24-vertex grid of width 4 with three internal edges cut."""
    grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(24, 5),
                                     SymSignature([1, 2, -1, 3]))
    return grid, cut_edges(grid, random.Random(5), 3)


def test_dangling_slots_count_in_the_width(monkeypatch):
    """Every dangling slot is a variable the contraction keeps to the end,
    so it counts in the width, and HOLANT_MAX_EDGES caps the gadget's
    one contraction: gadget P has width 6, G4's component A width 5 (its
    single summed edge meets all four kept slots) and a 6-slot cut of a
    width-4 grid width 8."""
    from planar_holant.reductions import build_gadget_P
    monkeypatch.delenv("HOLANT_MAX_EDGES", raising=False)
    closed, cut = six_slot_cut()
    assert elimination_width(closed) == 4
    assert elimination_width(cut) == 8
    assert elimination_width(component_a_grid()) == 5
    gad = build_gadget_P()
    assert elimination_width(gad) == 6
    table, counts = eval_gadget(gad), gadget_assignment_counts(gad)
    monkeypatch.setenv("HOLANT_MAX_EDGES", "6")
    assert eval_gadget(gad) == table
    assert gadget_assignment_counts(gad) == counts
    monkeypatch.setenv("HOLANT_MAX_EDGES", "5")
    for fn in (eval_gadget, gadget_assignment_counts):
        with pytest.raises(TooManyEdges, match="width 6 exceeds cap 5"):
            fn(gad)


def test_wide_gadget_is_refused_before_any_table(monkeypatch):
    """A gadget of k unary nodes has no variable to sum and a table of 2^k
    entries, the outer product of the nodes; at k = 26 its width passes the
    default cap and it is refused before any node table is built."""
    monkeypatch.delenv("HOLANT_MAX_EDGES", raising=False)

    def unaries(k):
        nodes = {i: GridNode(i, "left", ("L",), sym=SymSignature([1, i + 2]))
                 for i in range(k)}
        return SignatureGrid(nodes, [], [(i, 0) for i in range(k)])
    assert eval_gadget(unaries(3)) == [
        x * y * z for x in (1, 2) for y in (1, 3) for z in (1, 4)]
    assert gadget_assignment_counts(unaries(3)) == [1] * 8
    wide = unaries(26)
    assert elimination_width(wide) == 26

    def no_table(node, bits):
        raise AssertionError("a node table was built")

    monkeypatch.setattr(GridNode, "value", no_table)
    with pytest.raises(TooManyEdges, match="width 26 exceeds cap 24"):
        eval_gadget(wide)


def test_one_contraction_per_call(monkeypatch):
    """eval_grid, eval_gadget and gadget_assignment_counts each compile the
    grid once and order its variables once, whatever the number of
    dangling slots."""
    from planar_holant import holant_core
    from planar_holant.reductions import build_gadget_P
    calls = []
    for name in ("_compile", "_elimination_order"):
        real = getattr(holant_core, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(holant_core, name, spy)
    _, cut = six_slot_cut()
    for fn, grid in ((eval_grid, running_example()),
                     (eval_gadget, build_gadget_P()),
                     (gadget_assignment_counts, build_gadget_P()),
                     (eval_gadget, cut), (eval_gadget, component_a_grid())):
        calls.clear()
        fn(grid)
        assert sorted(calls) == ["_compile", "_elimination_order"]


def test_to_json_dict_encodes_each_signature_and_table_once(monkeypatch):
    # a QuadExt with b = 0 equals the Fraction a and is written as it; a
    # table equal to one already written reuses its encoding, and so does
    # a node holding a signature object already written
    from planar_holant import holant_core
    from planar_holant.scalars import QuadExt
    half, three = Fraction(1, 2), Fraction(3)
    assert format_scalar(QuadExt(half, Fraction(0), 2)) == format_scalar(half)
    f = SymSignature([1, 2])
    nodes = {0: GridNode(0, "table", ("L",), table=(half, three)),
             1: GridNode(1, "table", ("R",), table=(
                 QuadExt(half, Fraction(0), 2), QuadExt(three, Fraction(0), 3))),
             2: GridNode(2, "left", ("L",), sym=f),
             3: GridNode(3, "right", ("R",), sym=f),
             4: GridNode(4, "right", ("R",), sym=SymSignature([1, 2]))}
    grid = SignatureGrid(nodes, [(0, 0, 1, 0), (2, 0, 3, 0)], [(4, 0)])
    seen, to_json = [], SymSignature.to_json
    real = holant_core.format_scalar
    monkeypatch.setattr(holant_core, "format_scalar",
                        lambda v: seen.append(v) or real(v))
    monkeypatch.setattr(SymSignature, "to_json",
                        lambda s: seen.append(s) or to_json(s))
    out = grid.to_json_dict()
    assert [r.get("table", r.get("symmetric")) for r in out["nodes"]] == [
        ["1/2", "3"]] * 2 + [["1", "2"]] * 3
    assert len(seen) == 2 + 2     # one table's entries, two signatures
    assert SignatureGrid.from_json(grid.to_json()).to_json() == grid.to_json()
