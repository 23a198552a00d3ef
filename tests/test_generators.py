import hashlib
import itertools
import random

import pytest

from planar_holant import fixtures, generators
from planar_holant.generators import (BIPARTITE_MOVES, MOVES, GrowthKernel,
                                      InfeasibleSize, _apply_random_move,
                                      generate_cubic_plane,
                                      generate_cubic_bipartite_plane,
                                      ladder_insert, leapfrog, move_closure,
                                      relabel)
from planar_holant.p3em import find_p3em, verify
from planar_holant.plane_graph import two_coloring
from planar_holant.solvers import count_pm


def test_small_sizes():
    for n in (2, 4, 6, 8):
        g = generate_cubic_plane(n, 1)
        assert len(g.vertices()) == n and g.is_cubic()


def test_bipartite_generator_two_colorable():
    for n in (2, 4, 6, 8, 12):
        for seed in (0, 1, 2):
            g = generate_cubic_bipartite_plane(n, seed)
            assert len(g.vertices()) == n
            assert two_coloring(g) is not None


def test_many_samples_validate():
    # every generated graph goes through PlaneGraph validation once, at its
    # final freeze(); commit() checks the darts of each move
    count = 0
    for seed in range(250):
        for n in (4, 6, 8, 10):
            g = generate_cubic_plane(n, seed)
            assert g.is_cubic()
            count += 1
    assert count == 1000


def test_infeasible_sizes():
    with pytest.raises(InfeasibleSize):
        generate_cubic_plane(3, 0)
    with pytest.raises(InfeasibleSize):
        generate_cubic_plane(0, 0)


def test_determinism():
    a = generate_cubic_plane(12, 7)
    b = generate_cubic_plane(12, 7)
    assert a == b


# SHA-256 of to_json() at fixed (n, seed): any change to the moves, their
# rng draws or their dart and vertex numbering shows here
GENERATOR_DIGESTS = {
    (generate_cubic_plane, 20, 1):
        "27297089abc6f0ff140158874b5c89a025df02ac9eaf1393ee3bff219cef3fcd",
    (generate_cubic_plane, 200, 2):
        "9ce3cc36fa0a597bd1980db2b42194a3d161686b203a525af60cc858a8bf7055",
    (generate_cubic_plane, 800, 3):
        "c62123469489e9177a93162edab95ccb1f5df7acb3d7df8815b94e29d2f092f7",
    (generate_cubic_plane, 1600, 4):
        "fa5a6ad9fe194d0dff0d7d555dbeaf725620404c6f520fbfe6fd5f0419016e12",
    (generate_cubic_bipartite_plane, 20, 1):
        "73c11719cd17ca9c0f67d525b4fc9dde7d980cd82e376d3c825b347da955744e",
    (generate_cubic_bipartite_plane, 200, 2):
        "8eecfb43671bb7208a301f965813f4f8f8df794eb19b1d4fa95ff69be6237ec3",
    (generate_cubic_bipartite_plane, 800, 3):
        "be98b686eb9050e3c096716008b64b5eb575e683d17d864705631ce34f9dc280",
    (generate_cubic_bipartite_plane, 1000, 4):
        "5b224840f06a7129f2c99d7b6ac646b670e3b293cc9668453ad2e13a190a29a3",
}


@pytest.mark.parametrize("gen, n, seed", list(GENERATOR_DIGESTS),
                         ids=lambda x: getattr(x, "__name__", x))
def test_generator_output_pinned(gen, n, seed):
    text = gen(n, seed).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[gen, n, seed]


def test_move_closure_pinned():
    closure = move_closure(8)
    text = "".join(g.to_json() for g in closure)
    assert len(closure) == 146
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "59d64ce11b39b9dcafcb5af639728aaa67eb0eaa81e9fe95c5da7d6a396089b6"


def test_generator_sweep_pinned():
    # one SHA-256 over to_json() of both generators for every even n from
    # 2 to 60 and seeds 0-9
    h = hashlib.sha256()
    for gen in (generate_cubic_plane, generate_cubic_bipartite_plane):
        for n in range(2, 61, 2):
            for seed in range(10):
                h.update(gen(n, seed).to_json().encode())
    assert h.hexdigest() == \
        "ad4e4b9ee7d77deedeee7b505b8bee59ae12e442b7284dc9cacad11280a3356a"


def _assert_kept(k):
    """What a GrowthKernel keeps equals what its graph gives from scratch."""
    g = k.freeze()
    assert k.vertex_ids == sorted(k.rotation)
    assert k.edge_ids == g.edges()
    assert k.ladder_faces == [f.id for f in g.faces() if len(f.boundary) >= 2]
    assert k.fresh_vertex() == max(k.rotation) + 1
    assert k.fresh_dart() == max(k.twin) + 1


def _ladder_rule_holds(g):
    # in a cubic graph a face has two distinct edges iff it has two darts
    return [f.id for f in g.faces() if len({g.edge_of(d) for d in f.boundary}) >= 2] \
        == [f.id for f in g.faces() if len(f.boundary) >= 2]


def test_growth_kernel_keeps_its_lists(monkeypatch):
    # every commit and undo of move_closure(8), of random move sequences
    # with undos in between, and of both generators, checked on the spot
    steps, counts = [], {"commit": 0, "undo": 0}
    commit, undo = GrowthKernel.commit, GrowthKernel.undo

    def checked_commit(k):
        s = commit(k)
        _assert_kept(k)
        steps.append(s)
        counts["commit"] += 1
        return s

    def checked_undo(k, s):
        undo(k, s)
        _assert_kept(k)
        counts["undo"] += 1

    monkeypatch.setattr(GrowthKernel, "commit", checked_commit)
    monkeypatch.setattr(GrowthKernel, "undo", checked_undo)
    closure = move_closure(8)
    assert len(closure) == 146 and all(map(_ladder_rule_holds, closure))
    rng = random.Random(13)
    for seed in range(30):
        base = rng.choice((fixtures.dumbbell, fixtures.m23, fixtures.k4,
                           fixtures.cube, fixtures.dodecahedron))()
        k = GrowthKernel(base)
        _assert_kept(k)
        bipartite = two_coloring(base) is not None and seed % 2 == 0
        steps.clear()
        for _ in range(40):
            if steps and rng.random() < 0.3:
                k.undo(steps.pop())
            else:
                _apply_random_move(k, rng, BIPARTITE_MOVES if bipartite else MOVES,
                                   4, bipartite)
        assert _ladder_rule_holds(k.freeze())
    for n in (20, 60):
        for seed in range(3):
            assert _ladder_rule_holds(generate_cubic_plane(n, seed))
            assert _ladder_rule_holds(generate_cubic_bipartite_plane(n, seed))
    assert counts["commit"] > 1500 and counts["undo"] > 900


def test_ladder_parity_rule_is_two_colorability():
    # the bipartite generator accepts a ladder by the parity of its darts'
    # positions on the face instead of 2-coloring the result
    bases = [fixtures.cube(), fixtures.m23()] + [
        generate_cubic_bipartite_plane(n, s) for n in (4, 8, 12, 20)
        for s in range(4)]
    cases = 0
    for g in bases:
        k = GrowthKernel(g)
        for f in g.faces():
            bd = f.boundary
            for i, j in itertools.permutations(range(len(bd)), 2):
                if g.edge_of(bd[i]) == g.edge_of(bd[j]):
                    continue
                ladder_insert(k, bd[i], bd[j])
                step = k.commit()
                bipartite = two_coloring(k.freeze()) is not None
                k.undo(step)
                assert bipartite == ((i - j) % 2 == 0), (g, bd, i, j)
                cases += 1
    assert cases > 3000


def test_bipartite_stall_guard_counts_rejections_only(monkeypatch):
    # n = 100, seed 1 takes 63 moves, at most 5 of them rejected in a row
    want = generate_cubic_bipartite_plane(100, 1)
    monkeypatch.setattr(generators, "STALL_MOVES", 10)
    assert generate_cubic_bipartite_plane(100, 1) == want
    monkeypatch.setattr(generators, "STALL_MOVES", 2)
    with pytest.raises(InfeasibleSize, match="stalled"):
        generate_cubic_bipartite_plane(100, 1)


def test_move_closure_small():
    graphs = move_closure(6)
    sizes = sorted(len(g.vertices()) for g in graphs)
    assert sizes[0] == 2
    assert all(s <= 6 for s in sizes)
    # closure is deduplicated
    forms = [g.canonical_form() for g in graphs]
    assert len(set(forms)) == len(forms)


def test_leapfrog_fullerenes():
    graphs = [fixtures.dodecahedron()]
    for _ in range(3):
        graphs.append(leapfrog(graphs[-1]))
    for g in graphs:
        lengths = sorted(len(f.boundary) for f in g.faces())
        assert g.is_cubic() and lengths.count(5) == 12
        assert set(lengths) <= {5, 6}
    assert [len(g.vertices()) for g in graphs] == [20, 60, 180, 540]
    # Kekule structure counts of C20 and C60 (Klein, Schmalz, Hite and
    # Seitz 1986)
    assert count_pm(graphs[0]) == 36 and count_pm(graphs[1]) == 12500
    for g in graphs[2:]:
        h = relabel(g, random.Random(len(g.vertices())))
        assert sorted(len(f.boundary) for f in h.faces()) == sorted(
            len(f.boundary) for f in g.faces())
        assert verify(h, find_p3em(h)).ok
