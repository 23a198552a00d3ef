#!/usr/bin/env python3
"""Build oracles.json: the input pools and expected values of the
fkt-solve and holant-eval workloads.

Every entry is a recipe (generator size and seed, signature, crossings)
plus the value the op must print.  Each value is established once by
brute-force eval_grid on the same grid and confirmed by the independent
enumeration in checks.py; for ``pm`` on a bipartite graph g the value is
eval_grid of the case-5 grid of g with [1,0,-1,2], whose Holant is the
number of perfect matchings of g.  The Kasteleyn matrix order of every
fkt-solve op is measured by running it once under the span recorder.

Run from the repository root:  python3 perfbench/make_oracles.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from planar_holant import cli  # noqa: E402
from planar_holant.classifier import classify  # noqa: E402
from planar_holant.generators import generate_cubic_bipartite_plane  # noqa: E402
from planar_holant.holant_core import eval_grid  # noqa: E402
from planar_holant.plane_graph import grid_from_cubic_bipartite  # noqa: E402
from planar_holant.reductions import Crossing, planarize  # noqa: E402
from planar_holant.signatures import SymSignature  # noqa: E402

POOL = 6          # instances per (kind, size); a run samples from these
FKT_ORDERS = (36, 72, 108)
EVAL_VARS = (8, 10, 12)
PM_PROBE = Fraction(1), Fraction(0), Fraction(-1), Fraction(2)


def need(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"make_oracles: {what}")


def sym(vals) -> SymSignature:
    return SymSignature([Fraction(v) for v in vals])


def brute(grid) -> Fraction:
    want = eval_grid(grid)
    need(checks.enumerate_holant(grid.to_json_dict()) == want,
         "eval_grid and the independent enumeration disagree")
    return want


def kasteleyn_order(argv) -> int:
    rec = spans.Recorder()
    rec.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            need(cli.main(argv) == 0, f"{argv} failed")
    finally:
        rec.uninstall()
    return spans.layer_metrics(rec.take())["solvers.kasteleyn_order_max"]


def fkt_entries(rng: random.Random, tmp: Path):
    def nz():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    def case4(sign):
        while True:
            a, b = nz(), nz()
            vals = (a, b, b, a) if sign > 0 else (a, b, -b, -a)
            v = classify(sym(vals))
            if v.primary.case == 4 and abs(a) != abs(b):
                return vals

    def case5():
        while True:
            a = Fraction(nz(), 2)
            b = Fraction(rng.randint(-3, 3), 2)
            vals = (3 * a + b, -a - b, -a + b, 3 * a - b)
            if classify(sym(vals)).primary.case == 5:
                return vals

    out = []

    def add(kind, verb, n, seed, vals, order_want):
        g = generate_cubic_bipartite_plane(n, seed)
        path = tmp / "in.json"
        if verb == "pm":
            path.write_text(g.to_json())
            grid = grid_from_cubic_bipartite(g, sym(PM_PROBE))
            how = "eval_grid of the case-5 grid with [1,0,-1,2]"
        else:
            grid = grid_from_cubic_bipartite(g, sym(vals))
            path.write_text(grid.to_json())
            how = "eval_grid"
        order = kasteleyn_order([verb, str(path)])
        if order != order_want:
            return False
        states = len(grid.right_nodes())
        out.append({"kind": kind, "verb": verb, "size": order, "n": n,
                    "gen_seed": seed,
                    "sig": None if vals is None else [str(v) for v in vals],
                    "expected": str(brute(grid)),
                    "source": f"{how}, 2^{states} states; "
                              f"checks.enumerate_holant agrees"})
        return True

    # the (+) decoration makes 6 matrix rows per grid node, the (-) one 4.5;
    # case 5 and pm keep the graph and subdivide parallel edges twice, so
    # their instances are drawn until the order is exactly the smallest one
    for order in FKT_ORDERS:
        for kind, sign, per_node in (("solve+", 1, 6), ("solve-", -1, 4.5)):
            found = 0
            while found < POOL:
                found += add(kind, "solve", int(order / per_node),
                             rng.randrange(10 ** 6), case4(sign), order)
    for kind, verb in (("case5", "solve"), ("pm", "pm")):
        found = 0
        while found < POOL:
            vals = case5() if kind == "case5" else None
            found += add(kind, verb, rng.choice((20, 22, 24, 26)),
                         rng.randrange(10 ** 6), vals, FKT_ORDERS[0])
    return out


def eval_entries(rng: random.Random):
    def nz():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    def hard():
        while True:
            vals = tuple(nz() for _ in range(4))
            if not classify(sym(vals)).planar_fp:
                return vals

    def tractable():
        a, b, t = nz(), nz(), nz()
        vals = rng.choice(((a, b, b, a), (a, b, -b, -a), (a, -a, -a, a),
                           (a, a, -a, -a), (a, a * t, a * t * t, a * t ** 3)))
        need(classify(sym(vals)).planar_fp, f"{vals} is not tractable")
        return vals

    out = []
    for v in EVAL_VARS:
        for kind, make in (("eval-hard", hard), ("eval-tractable", tractable)):
            for _ in range(POOL):
                n, seed, vals = 2 * v, rng.randrange(10 ** 6), make()
                grid = grid_from_cubic_bipartite(
                    generate_cubic_bipartite_plane(n, seed), sym(vals))
                out.append({"kind": kind, "verb": "eval", "size": 2 ** v,
                            "n": n, "gen_seed": seed,
                            "sig": [str(x) for x in vals],
                            "expected": str(brute(grid)),
                            "source": f"eval_grid, 2^{v} states; "
                                      f"checks.enumerate_holant agrees"})
        for c in (2, 3):
            for _ in range(POOL):
                n, seed = 2 * (v - 2 * c), rng.randrange(10 ** 6)
                a = rng.choice((2, 3, -2, -3, Fraction(3, 2), Fraction(5, 2)))
                vals = (1, a, 1, a)
                grid = grid_from_cubic_bipartite(
                    generate_cubic_bipartite_plane(n, seed), sym(vals))
                picks = rng.sample(range(len(grid.edges)), 2 * c)
                pairs = [picks[2 * i:2 * i + 2] for i in range(c)]
                flat = planarize(grid, [Crossing(x, y) for x, y in pairs])
                free = sum(1 for na, _, nb, _ in flat.edges
                           if flat.nodes[na].side != "right"
                           and flat.nodes[nb].side != "right")
                need(free + len(flat.right_nodes()) == v,
                     f"planarized grid has {free} free edges")
                out.append({"kind": f"interp{c}", "verb": "interpolate",
                            "size": 2 ** v, "n": n, "gen_seed": seed,
                            "sig": [str(x) for x in vals], "crossings": pairs,
                            "expected": str(brute(grid)),
                            "source": f"eval_grid of the grid before "
                                      f"planarize, 2^{n // 2} states; "
                                      f"checks.enumerate_holant agrees"})
    return out


def main() -> None:
    rng = random.Random(20230329)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        fkt = fkt_entries(rng, Path(tmp))
    data = {"fkt-solve": fkt, "holant-eval": eval_entries(rng)}
    (HERE / "oracles.json").write_text(json.dumps(data, indent=0) + "\n")


if __name__ == "__main__":
    main()
