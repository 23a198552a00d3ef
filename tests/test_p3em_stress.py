"""Deeper exercise of the reduction machinery: composed instances that mix
immediately-reducible patterns with girth-five cores, and label coverage."""

import random

import pytest

from planar_holant import fixtures, p3em_cases
from planar_holant.face_kernel import P3emKernel
from planar_holant.generators import MOVES, GrowthKernel, _apply_random_move
from planar_holant.p3em import (ExceptionalGraph, exceptional_kind,
                                find_p3em, materialize, verify)


def _random_grow(g, rng, steps):
    k = GrowthKernel(g)
    for _ in range(steps):
        _apply_random_move(k, rng, MOVES, 4, False)
    return k.freeze()


SEEDS = list(range(12))


@pytest.mark.parametrize("seed", SEEDS)
def test_composed_instances(seed):
    rng = random.Random(seed)
    base = rng.choice((fixtures.dodecahedron, fixtures.bridge_fixture,
                       fixtures.chord_fixture,
                       fixtures.coincident_pentagon_fixture))()
    g = _random_grow(base, rng, rng.randint(1, 8))
    res = find_p3em(g)
    assert not isinstance(res, ExceptionalGraph)
    assert verify(g, res).ok
    materialize(g, res)


def test_all_reduction_labels_reachable():
    from planar_holant.generators import move_closure
    seen = set()
    orig = p3em_cases.step_reduce

    def traced(g):
        st = orig(g)
        seen.add(st.label)
        return st

    p3em_cases.step_reduce = traced
    try:
        pool = list(move_closure(8))
        pool += [fixtures.dodecahedron(), fixtures.bridge_fixture(),
                 fixtures.chord_fixture()]
        rng = random.Random(99)
        for seed in range(6):
            pool.append(_random_grow(fixtures.dodecahedron(), rng, 4))
        for g in pool:
            if exceptional_kind(g) is not None:
                continue
            res = find_p3em(g)
            assert verify(g, res).ok
        # the direct-call coincidence test covers pentagon_coincident
        from planar_holant.p3em_cases import (_case_b_coincidence,
                                              _find_b_coincidence,
                                              _face_labels,
                                              _rotate_labels, solve_kernel)
        g = fixtures.coincident_pentagon_fixture()
        k = P3emKernel(g)
        for f in k.faces():
            if len(f.boundary) != 5:
                continue
            lab = _face_labels(k, f)
            if (all(b not in lab.a for b in lab.b)
                    and _find_b_coincidence(lab) is not None):
                step = _case_b_coincidence(
                    k, _rotate_labels(lab, _find_b_coincidence(lab)))
                seen.add(step.label)
                cert = step.lift([solve_kernel(c) for c in step.children])
                assert verify(k.freeze(), cert.sigma).ok
                break
    finally:
        p3em_cases.step_reduce = orig
    assert seen >= {"self_loop", "double_edge", "triangle", "triangle_shared",
                    "bridge", "square", "chord", "pentagon",
                    "pentagon_coincident"}
