"""Acceptance suite: one pass/fail line per criterion, exact tolerances.

Every check is exact rational equality (or an exact boolean property); the
only numeric thresholds are the wall-clock budgets stated alongside the
criteria.  Run through the CLI (`planar-holant acceptance`) or pytest
(tests/test_acceptance.py).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from . import fixtures, gadgets
from .classifier import classify, dispatch_solve, solve_case
from .generators import generate_cubic_bipartite_plane, generate_cubic_plane, move_closure
from .holant_core import eval_grid
from .p3em import (BASE_BUILDERS, ExceptionalGraph, check_sigma,
                   exceptional_kind, find_p3em, solve_sigma, verify)
from .plane_graph import grid_from_cubic_bipartite
from .reductions import Crossing, interpolate_recover, planarize, verify_P
from .signatures import SymSignature, hadamard3, hadamard3_inv
from .solvers import count_pm, solve_case5


@dataclass
class Report:
    lines: List[str] = field(default_factory=list)
    ok: bool = True

    def record(self, num: int, name: str, passed: bool, detail: str = "") -> None:
        tag = "PASS" if passed else "FAIL"
        extra = f" ({detail})" if detail else ""
        self.lines.append(f"{tag}  {num}. {name}{extra}")
        if not passed:
            self.ok = False


def running_example_grid():
    return grid_from_cubic_bipartite(fixtures.cube(), SymSignature([1, 0, -1, 2]))


def criterion_1(rep: Report) -> None:
    t0 = time.time()
    grid = running_example_grid()
    v_eval = eval_grid(grid)
    v_solve = solve_case5(grid, Fraction(1, 2), Fraction(-1, 2))
    v_pm = count_pm(fixtures.cube())
    dt = time.time() - t0
    ok = v_eval == 9 and v_solve == 9 and v_pm == 9 and dt < 1.0
    rep.record(1, "running-example value by eval, linear-family solver and matching count",
               ok, f"eval={v_eval} solver={v_solve} pm={v_pm} {dt:.2f}s")


def criterion_2(rep: Report) -> None:
    rng = random.Random(20240901)
    ok = True
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = SymSignature([1, a, a, 1])
        if hadamard3(f).values != (2 + 6 * a, 0, 2 - 2 * a, 0):
            ok = False
    if hadamard3_inv(SymSignature([1, 0, 0, 1])).values != (
            Fraction(1, 4), 0, Fraction(1, 4), 0):
        ok = False
    rep.record(2, "Hadamard identities on [1,a,a,1] and the equality", ok)


def criterion_3(rep: Report) -> None:
    closure = move_closure(8) + [builder() for builder in BASE_BUILDERS]
    n_exc = n_ok = 0
    ok = True
    for g in closure:
        res = find_p3em(g)
        if isinstance(res, ExceptionalGraph):
            n_exc += 1
            if exceptional_kind(g) is None:
                ok = False
        else:
            n_ok += 1
            if not verify(g, res).ok:
                ok = False
    worst = 0.0
    for seed in range(200):
        g = generate_cubic_plane(200, seed)
        t0 = time.time()
        res = find_p3em(g)
        good = not isinstance(res, ExceptionalGraph) and verify(g, res).ok
        dt = time.time() - t0
        worst = max(worst, dt)
        if not good or dt >= 1.0:
            ok = False
    rep.record(3, "matching totality on the small closure and 200-vertex instances",
               ok, f"{n_ok} assigned, {n_exc} exceptional, worst {worst:.2f}s")


def criterion_4(rep: Report) -> None:
    ok = True
    for xp in itertools.product((0, 1), repeat=5):
        for yp3, yp4 in itertools.product((0, 1), repeat=2):
            x, y = solve_sigma(xp, yp3, yp4)
            if not check_sigma(xp, yp3, yp4, x, y):
                ok = False
    rep.record(4, "pentagon boolean system solvable for all 128 inputs", ok)


def _random_instances(count: int, seed0: int):
    rng = random.Random(seed0)
    out = []
    for _ in range(count):
        n = rng.choice([2, 4, 6, 8])
        out.append(generate_cubic_bipartite_plane(n, rng.randint(0, 10 ** 6)))
    return out


def _class_signature(label: str, rng: random.Random) -> SymSignature:
    def nz():
        v = 0
        while v == 0:
            v = rng.randint(-3, 3)
        return Fraction(v)

    a, b = nz(), Fraction(rng.randint(-3, 3))
    if label == "degenerate":
        s, t = nz(), Fraction(rng.randint(-3, 3))
        return SymSignature([s, s * t, s * t ** 2, s * t ** 3])
    if label == "gen-eq":
        return SymSignature([Fraction(rng.randint(-3, 3)), 0, 0,
                             Fraction(rng.randint(-3, 3))])
    if label == "affine-even":
        sgn = rng.choice((1, -1))
        return SymSignature([a, 0, sgn * a, 0])
    if label == "affine-odd":
        sgn = rng.choice((1, -1))
        return SymSignature([0, a, 0, sgn * a])
    if label == "affine-alternating":
        return SymSignature([a, -a, -a, a])
    if label == "affine-two-block":
        return SymSignature([a, a, -a, -a])
    if label == "matchgate+":
        return SymSignature([a, b, b, a])
    if label == "matchgate-":
        return SymSignature([a, b, -b, -a])
    if label == "linear-family":
        return SymSignature([3 * a + b, -a - b, -a + b, 3 * a - b])
    raise ValueError(label)


# tested class -> its case; the order fixes each class's rng seed
ORACLE_CLASSES = {"degenerate": 1, "gen-eq": 2, "affine-even": 3,
                  "affine-odd": 3, "affine-alternating": 3,
                  "affine-two-block": 3, "matchgate+": 4, "matchgate-": 4,
                  "linear-family": 5}


def criterion_5(rep: Report) -> None:
    t0 = time.time()
    checked = 0
    ok = True
    grids = _random_instances(100, 777)
    large = [generate_cubic_bipartite_plane(100, s) for s in (1, 2, 3)]
    for ci, label in enumerate(ORACLE_CLASSES):
        rng = random.Random(9000 + ci)
        for g in grids + large:
            f = _class_signature(label, rng)
            if not classify(f).planar_fp:
                ok = False
                continue
            grid = grid_from_cubic_bipartite(g, f)
            # the solver of the tested class, not the lowest matching one
            got = solve_case(grid, f, ORACLE_CLASSES[label])
            also = dispatch_solve(grid, f)
            want = eval_grid(grid)
            checked += 1
            if got != want or also != want:
                ok = False
    dt = time.time() - t0
    if dt >= 300:
        ok = False
    rep.record(5, "tractable solvers equal brute force on random planar instances",
               ok, f"{len(ORACLE_CLASSES)} classes x (100 + {len(large)} of 100 "
               f"vertices) = {checked} comparisons in {dt:.0f}s")


def criterion_6(rep: Report) -> None:
    rng = random.Random(66)
    ok = True
    for _ in range(50):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        f = SymSignature([1, a, b, c])
        if gadgets.gadget_G1(f).m != ((1, b), (a, c)):
            ok = False
        g2 = gadgets.gadget_G2(f)
        if g2.m != ((1 + a * b, a * a + b * c), (a + b * b, a * b + c * c)):
            ok = False
        g3 = gadgets.gadget_G3(f)
        w = 1 + 3 * a ** 3 + 3 * a ** 2 * b ** 2 + b ** 3 * c
        x = (a + a ** 4 + 2 * a ** 2 * b + a ** 2 * b * c + 2 * a * b ** 3
             + b ** 2 * c ** 2)
        yv = (a ** 2 + a * b ** 2 + 2 * a ** 3 * b + b ** 4
              + 2 * a * b ** 2 * c + b * c ** 3)
        z = a ** 3 + 3 * a ** 2 * b ** 2 + 3 * b ** 3 * c + c ** 4
        if g3.values != (w, x, yv, z):
            ok = False
        y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        nl = gadgets.nonlinearity_gadget(f, y0)
        if nl.values != (y0 * y0 + y0 * b, y0 * a + c):
            ok = False
    if gadgets.gadget_G2(SymSignature([1, -1, 0, 2])).m != ((1, 1), (-1, 4)):
        ok = False
    for a in (Fraction(2), Fraction(3), Fraction(7, 2)):
        f = SymSignature([1, a, 1, a])
        mat, z = gadgets.gadget_G4(f)
        if z != a + 1 / a - 1 or mat != gadgets.crossover_pattern(z):
            ok = False
        xs = []
        for s in range(11):
            m1, x_s = gadgets.gamma_chain(f, s)
            xs.append(x_s)
            if m1 != gadgets.gamma_chain_by_power(f, s):
                ok = False
        if not all(xs[i + 1] < xs[i] for i in range(10)) or not all(v > 1 for v in xs):
            ok = False
    for a in (Fraction(-2), Fraction(-3)):
        f = SymSignature([1, a, 1, a])
        xs = list(itertools.islice(gadgets.gamma_params(f), 11))
        if not all(xs[i + 1] > xs[i] for i in range(10)) or not all(v < -3 for v in xs):
            ok = False
    rep.record(6, "gadget closed forms, chain recurrence and monotonicity", ok)


def criterion_7(rep: Report) -> None:
    from .holant_core import GridNode, SignatureGrid
    ok = True
    for a in (Fraction(2), Fraction(3), Fraction(-2)):
        f = SymSignature([1, a, 1, a])
        nodes = {}
        for i in range(3):
            nodes[i] = GridNode(i, "left", ("L",) * 3, sym=f)
            nodes[3 + i] = GridNode(3 + i, "right", ("R",) * 3,
                                    sym=SymSignature([1, 0, 0, 1]))
        edges = [(i, j, 3 + j, i) for i in range(3) for j in range(3)]
        grid = SignatureGrid(nodes, edges, [])
        direct = eval_grid(grid)
        for crossings in ([Crossing(2, 3)], [Crossing(2, 3), Crossing(5, 6)]):
            pl = planarize(grid, crossings)
            if eval_grid(pl) != direct:
                ok = False
            cross = [nid for nid, n in pl.nodes.items() if n.side == "table"]
            run = interpolate_recover(pl, cross, f)
            if run.recovered != direct:
                ok = False
            if len(set(run.nodes_x)) != len(run.nodes_x):
                ok = False
    rep.record(7, "cross-over interpolation recovers exact values", ok)


def criterion_8(rep: Report) -> None:
    r = verify_P()
    rep.record(8, "pinned-0 cross-over gadget support and uniqueness",
               r.passed())


def criterion_9(rep: Report) -> None:
    cases = [
        ([1, 0, -1, 2], True, 5), ([0, 1, 0, 0], False, None),
        ([1, -1, 1, -1], True, 1), ([1, 2, 2, 1], True, 4),
        ([5, 0, 0, -5], True, 2), ([1, 1, -1, -1], True, 3),
    ]
    ok = True
    for vals, fp, case in cases:
        v = classify(SymSignature(vals))
        if v.planar_fp != fp:
            ok = False
        if case is not None and (v.primary is None or v.primary.case != case):
            ok = False
    v = classify(SymSignature([1, 2, 2, 1]))
    if v.general_fp:
        ok = False
    v = classify(SymSignature([1, 0, -1, 2]))
    if v.primary.params["a"] != Fraction(1, 2) or v.primary.params["b"] != Fraction(-1, 2):
        ok = False
    rep.record(9, "classifier verdict table", ok)


CRITERIA: List[tuple] = [
    ("running-example", criterion_1), ("hadamard", criterion_2), ("p3em", criterion_3),
    ("sigma", criterion_4), ("oracle", criterion_5), ("gadgets", criterion_6),
    ("interpolation", criterion_7), ("gadget-p", criterion_8),
    ("classifier", criterion_9),
]


def run_acceptance(only: Optional[str] = None) -> Report:
    rep = Report()
    for name, fn in CRITERIA:
        if only and only not in name:
            continue
        fn(rep)
    return rep
