"""The four workloads: inputs made from the seed, written as the JSON files
the CLI reads, each op paired with the oracle that checks its output.

Sizes (the x axis of scaling_exponent) are vertices for the P3EM
workloads, Kasteleyn matrix order for fkt-solve and brute-force states
2^vars for holant-eval.  Each workload's ``per_pass`` says how many
instances of each (kind, size) one pass runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
import fullerene

ORACLES = Path(__file__).resolve().parent / "oracles.json"


@dataclass
class Op:
    kind: str
    size: int
    argv: List[str]
    check: Callable[[dict], Optional[str]]   # None when the output is right
    recipe: dict


class Inputs:
    """Writes op inputs as numbered JSON files into one work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def write(self, obj) -> str:
        path = self.work / f"in{self.count}.json"
        self.count += 1
        path.write_text(json.dumps(obj))
        return str(path)


def _p3em_op(inputs: Inputs, kind: str, size: int, g, recipe) -> Op:
    spec = g.to_json_dict()
    return Op(kind, size, ["p3em", "find", inputs.write(spec)],
              lambda out: checks.check_p3em(spec, out), recipe)


def _value_check(key: str, expected: str):
    want = Fraction(expected)

    def check(out: dict) -> Optional[str]:
        got = out.get(key)
        if not isinstance(got, str) or Fraction(got) != want:
            return f"{key} = {got!r}, expected {expected}"
        return None
    return check


# -- p3em-random ------------------------------------------------------------

def p3em_random(rng: random.Random, inputs: Inputs, per_pass) -> List[Op]:
    from planar_holant.generators import generate_cubic_plane
    ops = []
    for n, k in per_pass.items():
        for _ in range(k):
            seed = rng.randrange(2 ** 31)
            ops.append(_p3em_op(inputs, "find", n, generate_cubic_plane(n, seed),
                                {"generator": "generate_cubic_plane",
                                 "n": n, "gen_seed": seed}))
    return ops


# -- p3em-fullerene ---------------------------------------------------------

def p3em_fullerene(rng: random.Random, inputs: Inputs, per_pass) -> List[Op]:
    from planar_holant import fixtures
    ops = []
    g, steps = fixtures.dodecahedron(), 0
    for n, k in sorted(per_pass.items()):
        while len(g.rotation) < n:
            g, steps = fullerene.leapfrog(g), steps + 1
        for _ in range(k):
            seed = rng.randrange(2 ** 31)
            ops.append(_p3em_op(inputs, "find", n,
                                fullerene.relabel(g, random.Random(seed)),
                                {"generator": "leapfrog^%d(dodecahedron)" % steps,
                                 "n": n, "relabel_seed": seed}))
    return ops


# -- pooled workloads: fkt-solve and holant-eval ----------------------------

def _pooled(name: str, rng: random.Random, inputs: Inputs, per_pass) -> List[Op]:
    from planar_holant.generators import generate_cubic_bipartite_plane
    from planar_holant.plane_graph import grid_from_cubic_bipartite
    from planar_holant.reductions import Crossing, planarize
    from planar_holant.signatures import SymSignature

    pool = json.loads(ORACLES.read_text())[name]
    ops = []
    for (kind, size), k in per_pass.items():
        entries = [e for e in pool if e["kind"] == kind and e["size"] == size]
        for e in rng.sample(entries, k):
            g = generate_cubic_bipartite_plane(e["n"], e["gen_seed"])
            if e["verb"] == "pm":
                ops.append(Op(kind, size, ["pm", inputs.write(g.to_json_dict())],
                              _value_check("value", e["expected"]), e))
                continue
            sig = SymSignature([Fraction(v) for v in e["sig"]])
            grid = grid_from_cubic_bipartite(g, sig)
            sig_arg = json.dumps(e["sig"])
            if e["verb"] == "interpolate":
                grid = planarize(grid, [Crossing(a, b) for a, b in e["crossings"]])
                argv = ["reduce", "interpolate", inputs.write(grid.to_json_dict()),
                        "--sig", sig_arg]
                ops.append(Op(kind, size, argv,
                              _value_check("recovered", e["expected"]), e))
            else:
                ops.append(Op(kind, size,
                              [e["verb"], inputs.write(grid.to_json_dict())],
                              _value_check("value", e["expected"]), e))
    return ops


@dataclass
class Workload:
    name: str
    size_unit: str
    build: Callable[[random.Random, Inputs, Dict], List[Op]]
    per_pass: Dict


WORKLOADS = {w.name: w for w in (
    Workload("p3em-random", "vertices", p3em_random,
             {200: 3, 400: 2, 800: 4}),
    Workload("p3em-fullerene", "vertices", p3em_fullerene,
             {20: 3, 60: 3, 180: 8}),
    Workload("fkt-solve", "kasteleyn_order",
             lambda rng, inputs, pp: _pooled("fkt-solve", rng, inputs, pp),
             {("solve+", 36): 1, ("solve-", 36): 1, ("case5", 36): 1,
              ("pm", 36): 1, ("solve+", 72): 1, ("solve-", 72): 1,
              ("solve+", 108): 1, ("solve-", 108): 1}),
    Workload("holant-eval", "states",
             lambda rng, inputs, pp: _pooled("holant-eval", rng, inputs, pp),
             {(kind, 2 ** v): k for v in (8, 10, 12)
              for kind, k in (("eval-hard", 2), ("eval-tractable", 2),
                              ("interp2", 1), ("interp3", 1))}),
)}
