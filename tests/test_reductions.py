import random
from fractions import Fraction

import pytest

from planar_holant import fixtures
from planar_holant.generators import generate_cubic_plane
from planar_holant.holant_core import GridNode, SignatureGrid, eval_grid
from planar_holant.p3em import exceptional_kind
from planar_holant.plane_graph import incidence_grid
from planar_holant.reductions import (Crossing, EigenvectorInput,
                                      ExceptionalGraphError,
                                      TripleCrossing, ZeroFactor,
                                      build_gadget_P, chain_table,
                                      interpolate_recover, unary_absorption_transform,
                                      planarize, unary_span_certificate, verify_P)
from planar_holant.signatures import (EQ3, StraddledMatrix, SymSignature,
                                      connect_unary, eigen2)


def k33_grid(f):
    nodes = {}
    for i in range(3):
        nodes[i] = GridNode(i, "left", ("L",) * 3, sym=f)
        nodes[3 + i] = GridNode(3 + i, "right", ("R",) * 3, sym=EQ3)
    edges = [(i, j, 3 + j, i) for i in range(3) for j in range(3)]
    return SignatureGrid(nodes, edges, [])


def test_planarize_no_crossings_is_identity():
    f = SymSignature([1, 2, 1, 2])
    grid = k33_grid(f)
    out = planarize(grid, [])
    assert eval_grid(out) == eval_grid(grid)
    assert len(out.nodes) == len(grid.nodes)


def test_planarize_preserves_value():
    rng = random.Random(5)
    for seed in range(6):
        f = SymSignature([Fraction(rng.randint(-3, 3)) for _ in range(4)])
        grid = k33_grid(f)
        want = eval_grid(grid)
        for crossings in ([Crossing(2, 3)],
                          [Crossing(2, 3), Crossing(5, 6)],
                          [Crossing(3, 2)],
                          [Crossing(2, 3, pos_a=0), Crossing(2, 6, pos_a=1)]):
            assert eval_grid(planarize(grid, crossings)) == want


def test_planarize_rejects_self_crossing():
    with pytest.raises(TripleCrossing):
        planarize(k33_grid(SymSignature([1, 2, 1, 2])), [Crossing(2, 2)])


def test_chain_table_rotation_invariance():
    t = chain_table(Fraction(7), Fraction(1))
    # cyclic rotation of slots (a_in,b_in,a_out,b_out)->(b_in,a_out,b_out,a_in)
    def idx(bits):
        return (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3]
    for a_in in (0, 1):
        for b_in in (0, 1):
            for a_out in (0, 1):
                for b_out in (0, 1):
                    orig = t[idx((a_in, b_in, a_out, b_out))]
                    rot = t[idx((b_in, a_out, b_out, a_in))]
                    assert orig == rot


def test_interpolation_end_to_end():
    for a in (Fraction(2), Fraction(3), Fraction(-2)):
        f = SymSignature([1, a, 1, a])
        grid = k33_grid(f)
        want = eval_grid(grid)
        pl = planarize(grid, [Crossing(2, 3)])
        cross = [nid for nid, n in pl.nodes.items() if n.side == "table"]
        run = interpolate_recover(pl, cross, f)
        assert run.recovered == want
        assert len(set(run.nodes_x)) == len(run.nodes_x)
        assert run.coefficients[-1] == want


def test_interpolation_zero_crossings():
    f = SymSignature([1, 2, 1, 2])
    grid = k33_grid(f)
    run = interpolate_recover(grid, [], f)
    assert run.recovered == eval_grid(grid)


def test_span_certificate():
    M = StraddledMatrix([[1, 0], [0, 2]])
    cert = unary_span_certificate(M, [1, 1], target=[1, 0])
    c0, c1 = cert.combo
    # c0*s + c1*sM == target
    sM = M.row_apply([1, 1])
    assert [c0 + c1 * sM[0], c0 + c1 * sM[1]] == [1, 0]
    with pytest.raises(EigenvectorInput):
        unary_span_certificate(M, [1, 0])
    with pytest.raises(EigenvectorInput):
        unary_span_certificate(M, [0, 3])


def test_span_nonlinearity_exception_algebra():
    # the unary [y^2+yb, ya+c] is proportional to the row eigenvector [1, x]
    # exactly when ya + c = x(y^2 + yb)
    rng = random.Random(9)
    for _ in range(20):
        a = Fraction(rng.randint(1, 5))
        b = Fraction(rng.randint(-4, 4))
        c = Fraction(rng.randint(-4, 4))
        M = StraddledMatrix([[1, b], [a, c]])
        disc = (1 - c) ** 2 + 4 * a * b
        if M.det() == 0 or disc <= 0:
            continue
        e = eigen2(M)
        u = [e.y * e.y + e.y * b, e.y * a + c]
        prop = (u[0] * e.x == u[1] * 1) or (u[0] * (-e.y) == u[1])
        if u == [0, 0]:
            continue
        try:
            unary_span_certificate(M, u)
            assert not prop
        except EigenvectorInput:
            assert prop


def absorption_setup(f):
    e = eigen2(StraddledMatrix([[f[0], f[2]], [f[1], f[3]]]))
    fb = connect_unary(f, SymSignature([1, e.x]))
    return e, fb


def test_absorption_equality_on_small_bases():
    f = SymSignature([1, 1, 2, 1])
    e, fb = absorption_setup(f)
    bases = [fixtures.dumbbell()]
    seen = 0
    seed = 0
    while seen < 20:
        g = generate_cubic_plane(4, seed)
        seed += 1
        if exceptional_kind(g) is not None:
            continue
        bases.append(g)
        seen += 1
    # and generated graphs, whose outputs have widths 8 / 11 / 11
    bases += [generate_cubic_plane(n, 1) for n in (100, 200, 300)]
    for g in bases:
        grid = incidence_grid(g, fb, EQ3)
        base = eval_grid(grid)
        out, factor = unary_absorption_transform(grid, f, e.x, e.y)
        assert eval_grid(out) == factor * base
        # one absorber per triple
        k = len(g.edges()) // 3
        from planar_holant.gadgets import absorb_g1, absorb_g2
        g1v, g2v = absorb_g1(e.y), absorb_g2(f, e.y)
        assert factor in (g1v ** k, g2v ** k)


def test_absorption_rejects_exceptional():
    f = SymSignature([1, 1, 2, 1])
    e, fb = absorption_setup(f)
    with pytest.raises(ExceptionalGraphError):
        unary_absorption_transform(incidence_grid(fixtures.m23(), fb, EQ3), f, e.x, e.y)


def test_absorption_zero_factor():
    f = SymSignature([1, -2, -2, 1])   # y = -1 exclusion family
    e, fb = absorption_setup(f)
    assert e.y == -1
    from planar_holant.gadgets import absorb_g1, absorb_g2
    assert absorb_g1(e.y) == 0 and absorb_g2(f, e.y) == 0
    with pytest.raises(ZeroFactor):
        unary_absorption_transform(incidence_grid(fixtures.dumbbell(), fb, EQ3),
                         f, e.x, e.y)


def test_absorption_g2_path():
    # a given y with y^3 + 1 = 0 makes g1 vanish, so the transform places g2
    from planar_holant.gadgets import absorb_g1, absorb_g2
    f = SymSignature([1, 1, 2, 1])
    x, y = Fraction(3), Fraction(-1)
    assert absorb_g1(y) == 0 and absorb_g2(f, y) == 1
    fb = connect_unary(f, SymSignature([1, x]))
    bases = [fixtures.dumbbell()] + [
        g for g in (generate_cubic_plane(4, s) for s in range(8))
        if exceptional_kind(g) is None][:5]
    assert len(bases) == 6
    for g in bases:
        grid = incidence_grid(g, fb, EQ3)
        out, factor = unary_absorption_transform(grid, f, x, y)
        assert factor == 1
        # a table per edge, and per triple g2's square and two circles
        k = len(g.edges()) // 3
        assert len(out.nodes) == len(grid.nodes) + len(g.edges()) + 3 * k
        assert eval_grid(out) == factor * eval_grid(grid)


def test_gadget_p_properties():
    rep = verify_P()
    assert rep.support_ok and rep.uniqueness_ok
    # 16 externals: value 1 exactly at blue=(0,0) with equal reds
    live = [i for i, v in enumerate(rep.table) if v != 0]
    assert live == [0b0000, 0b1010]
    assert all(rep.counts[i] == 1 for i in live)
    grid = build_gadget_P()
    assert len(grid.nodes) == 18 and len(grid.edges) == 25


def test_interpolation_evaluates_g4_once(monkeypatch):
    """The chain parameters x_0..x_n all come from one G4 evaluation."""
    from planar_holant import gadgets
    calls = []
    real = gadgets.gadget_G4

    def spy(f):
        calls.append(f)
        return real(f)
    monkeypatch.setattr(gadgets, "gadget_G4", spy)
    f = SymSignature([1, 3, 1, 3])
    grid = k33_grid(f)
    pl = planarize(grid, [Crossing(2, 3), Crossing(5, 7)])
    cross = [nid for nid, n in pl.nodes.items() if n.side == "table"]
    run = interpolate_recover(pl, cross, f)
    assert len(calls) == 1 and len(run.nodes_x) == 3
    assert run.recovered == eval_grid(grid)


def test_interpolation_refuses_a_table_that_is_not_a_crossover():
    """A listed node must hold the cross-over table: one entry changed
    would give a wrong value (eval 306, recovered 90), so it is refused."""
    from planar_holant.generators import generate_cubic_bipartite_plane
    from planar_holant.plane_graph import grid_from_cubic_bipartite
    from planar_holant.reductions import ReductionError
    f = SymSignature([1, 2, 1, 2])
    pl = planarize(grid_from_cubic_bipartite(
        generate_cubic_bipartite_plane(8, 562436), f), [Crossing(11, 3)])
    (nid,) = [n for n, node in pl.nodes.items() if node.side == "table"]
    assert interpolate_recover(pl, [nid], f).recovered == eval_grid(pl)
    table = list(pl.nodes[nid].table)
    table[5] = Fraction(7)
    pl.nodes[nid] = GridNode(nid, "table", pl.nodes[nid].slots, table=table)
    assert eval_grid(pl) == 306
    left = pl.left_nodes()[0].id
    for bad in (nid, left, max(pl.nodes) + 1):
        with pytest.raises(ReductionError,
                           match=f"node {bad} is not a cross-over table"):
            interpolate_recover(pl, [bad], f)


def test_planarize_rejects_a_missing_edge():
    from planar_holant.reductions import ReductionError
    grid = k33_grid(SymSignature([1, 2, 1, 2]))
    for c in (Crossing(2, 9), Crossing(-1, 3)):
        with pytest.raises(ReductionError, match="the grid has edges 0..8"):
            planarize(grid, [c])


def test_gadget_p_wiring():
    """Slots are numbered in wire order, so every dangling end is its
    node's third slot; every edge runs from its square to its circle."""
    grid = build_gadget_P()
    assert grid.dangling == [(0, 2), (3, 2), (15, 2), (17, 2)]
    assert sorted(grid.nodes) == list(range(9)) + list(range(10, 19))
    assert all(grid.nodes[e[0]].side == "left" for e in grid.edges)
    assert grid.edges[:3] == [(13, 0, 0, 0), (13, 1, 6, 0), (10, 0, 0, 1)]


def test_absorb_validates_two_grids_and_verifies_one_certificate(
        tmp_path, monkeypatch):
    # one reduce absorb op validates the whole grid twice, its input and
    # its output, verifies the matching in full once, in find_p3em, and
    # leaves the grid it was given as it was
    import io
    from contextlib import redirect_stdout
    from planar_holant import cli, p3em, p3em_cases
    f = SymSignature([1, 2, 3, 5])
    grid = incidence_grid(generate_cubic_plane(200, 1),
                          connect_unary(f, SymSignature([1, 3])), EQ3)
    path = tmp_path / "inc.json"
    path.write_text(grid.to_json())
    sizes, full = [], []
    post_init, verify = SignatureGrid.__post_init__, p3em.verify

    def spy_post_init(self):
        sizes.append(len(self.nodes))
        post_init(self)

    def spy_verify(g, sigma, counts=None, faces=None, edges=None):
        full.append(edges is None)
        return verify(g, sigma, counts, faces, edges)

    monkeypatch.setattr(SignatureGrid, "__post_init__", spy_post_init)
    for module in (p3em, p3em_cases):
        monkeypatch.setattr(module, "verify", spy_verify)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["reduce", "absorb", str(path), "--sig", "[1,2,3,5]",
                         "--x", "3", "--y", "2"]) == 0
    assert sum(n >= len(grid.nodes) for n in sizes) == 2
    assert full.count(True) == 1
    before = grid.to_json()
    unary_absorption_transform(grid, f, Fraction(3), Fraction(2))
    assert grid.to_json() == before
