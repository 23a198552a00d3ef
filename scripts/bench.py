#!/usr/bin/env python3
"""Write a benchmark record: BENCH_pm.json for fkt-solve, BENCH_p3em.json
for p3em-random, BENCH_p3em_fullerene.json for p3em-fullerene,
BENCH_eval.json for holant-eval.

    python3 scripts/bench.py --parent P*.json --change C*.json [--out FILE]
                             [--parent-src DIR]

--parent and --change take the reports that perfbench/run.py writes to
.perfbench_out/ for one workload, run from a checkout of the parent commit
and of the change: ``--trace 0`` reports give the end-to-end metrics and
``--trace 1`` reports the per-layer ones.  The workload is read from the
reports.  Per side the record keeps every run's seed, Python version, git
sha, source hash, per-size latency table and metrics, plus the median and
quartiles of each end-to-end metric; runs of the two sides with the same
seed form a pair, and for every end-to-end metric the record counts the
pairs in which the change is better (lower, or higher for ok_ratio) and
the ties.  A run made from an uncommitted tree has git sha
null; its source hash, the one perfbench/run.py computes, still
identifies the code.

It then times the workload's kernel in this checkout at fixed sizes,
three times each, on one generated graph per size; generating that graph
is timed three times too:

* fkt-solve: count_pm on generate_cubic_bipartite_plane(n, 1), n = 1000,
  5000 and 10^4, against the ROADMAP targets of 2 s for count_pm and
  1.5 s for generating at 10^4 (reported, not gated);
* p3em-random: find_p3em on generate_cubic_plane(n, 1), n = 500, 1000,
  2000, 5000, 10^4 and 2 * 10^4, and the whole CLI op on the same graph
  (cli.main(["p3em", "find", file]), with loading, validation, the final
  verify and the JSON output), with the least-squares exponent of the
  median time against n, of find_p3em, of the CLI op and of generating;
* p3em-fullerene: find_p3em on the leapfrog fullerenes C180, C540, C1620
  and C4860 (generators.leapfrog from the dodecahedron), each under the
  random ids generators.relabel gives it with seed 1, with the same
  exponent;
* holant-eval: eval_grid on the [2,1,1,2] grid of
  generate_cubic_bipartite_plane(n, 1), n = 50, 100, 200 and 400, with
  the elimination width of each grid and the same exponent.

--parent-src DIR adds an A/B table to the record (under "ab").  DIR holds
the parent's planar_holant package (a checkout's src/), which is imported
under the name parent_planar_holant next to this checkout's.  Each of
AB_ROUNDS rounds runs every input once per side, parent first in even
rounds and change first in odd ones, each run after a gc.collect(); the
two sides' outputs must be equal, or no record is written.  Both sides
read the same file or JSON text with their own code.  The inputs:

* fkt-solve: count_pm(g), whose value must be equal in repr and type, on
  C180, C540 and C1620 (leapfrogs of the dodecahedron) under the ids of
  relabel with seeds 1, 2 and 3, and on generate_cubic_bipartite_plane(n,
  1), n = 1000, 4000 and 10^4; then the whole op, cli.main([verb, file]),
  with equal stdout and exit code, on every fkt-solve entry of
  perfbench/oracles.json, built as perfbench/workloads.py builds it, and
  cli.main(["solve", file]) on the [2,1,1,2], [2,1,-1,-2], [1,3,3,1] and
  [1,3,-3,-1] grids of generate_cubic_bipartite_plane(n, 1), n = 1000 and
  4000, one group per signature: two per matchgate form, and of the four
  only [2,1,-1,-2] has the value 0 there;
* p3em-fullerene and p3em-random (either record gets both):
  cli.main(["p3em", "find", file]), with equal stdout and exit code, on
  C180, C540 and C1620 under relabel seeds 1, 2 and 3, and on
  generate_cubic_plane(n, s), n = 800 and 3200, s = 1, 2, 3; then
  find_p3em(g), whose certificates must be equal, on the disjoint unions
  of m = 125, 250 and 500 dodecahedra (n = 20m), each side's graph read
  from the same JSON text; then generate_cubic_plane(n, s) itself at
  n = 800 and 3200, s = 1, 2, 3, whose graphs' to_json_dict() must be
  equal;
* holant-eval: the whole op, cli.main(["eval", file]) or
  cli.main(["reduce", "interpolate", file, "--sig", sig]) on the
  planarized grid, with equal stdout and exit code, on every holant-eval
  entry of perfbench/oracles.json, built as perfbench/workloads.py builds
  it.

Per input the table keeps both sides' times and the ratio change/parent
of every pair; per size, the median and quartiles of its pairs' ratios;
and for a group of several sizes, the median and quartiles over the
rounds of each side's least-squares exponent of the round's median time
at a size against n.
Both sides share the process and its load, so the ratio holds on a busy
host where the scale tables' absolute times do not.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import math
import platform
import random
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from run import src_sha256  # noqa: E402  (perfbench/run.py)
from planar_holant import cli, fixtures, plane_graph  # noqa: E402
from planar_holant.generators import (  # noqa: E402
    generate_cubic_bipartite_plane, generate_cubic_plane, leapfrog, relabel)
from planar_holant.holant_core import elimination_width, eval_grid  # noqa: E402
from planar_holant.plane_graph import grid_from_cubic_bipartite  # noqa: E402
from planar_holant.reductions import Crossing, planarize  # noqa: E402
from planar_holant.signatures import SymSignature  # noqa: E402
from planar_holant.p3em import find_p3em  # noqa: E402
from planar_holant.solvers import count_pm  # noqa: E402

END_TO_END = ("wall_s", "small_p50_ms", "large_p50_ms", "scaling_exponent",
              "setup_s", "peak_rss_mb", "ok_ratio")
NOTE = ("a run with git_sha null was made from an uncommitted tree; "
        "src_sha256 (perfbench/run.py's hash of src/) identifies its code")
TARGET_S = 2.0
GENERATE_TARGET_S = 1.5
PM_SIZES = (1000, 5000, 10000)
P3EM_SIZES = (500, 1000, 2000, 5000, 10000, 20000)
FULLERENE_SIZES = (180, 540, 1620, 4860)
EVAL_SIZES = (50, 100, 200, 400)
AB_FULLERENE_SIZES = (180, 540, 1620)
AB_P3EM_SIZES = (800, 3200)
AB_PM_SIZES = (1000, 4000, 10000)
AB_SOLVE_SIZES = (1000, 4000)
AB_SOLVE_SIGS = ((2, 1, 1, 2), (2, 1, -1, -2), (1, 3, 3, 1), (1, 3, -3, -1))
AB_SEEDS = (1, 2, 3)
AB_UNIONS = (125, 250, 500)     # dodecahedra per union
AB_ROUNDS = 10


def timed3(fn):
    """fn's result, the median of three timed runs and the three times.
    Each run starts after a full garbage collection, as perfbench/run.py's
    ops do, so no run pays for collecting what an earlier one left."""
    times = []
    for _ in range(3):
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times), times


def scale_pm():
    rows = []
    for n in PM_SIZES:
        g, gen_s, gen_times = timed3(lambda: generate_cubic_bipartite_plane(n, 1))
        value, med, times = timed3(lambda: count_pm(g))
        rows.append({"n": n, "generator": "generate_cubic_bipartite_plane(n, 1)",
                     "generate_s": gen_s, "generate_runs_s": gen_times,
                     "count_pm_s": med, "runs_s": times,
                     "value_bits": value.numerator.bit_length()})
        print(f"n={n} generate {gen_s:.2f} s, count_pm {med:.3f} s",
              file=sys.stderr)
    largest = rows[-1]
    return "count_pm_scale", {
        "python": platform.python_version(), "src_sha256": src_sha256(),
        "sizes": rows,
        "target": {"n": largest["n"], "target_s": TARGET_S,
                   "met": largest["count_pm_s"] < TARGET_S},
        "generate_target": {"n": largest["n"], "target_s": GENERATE_TARGET_S,
                            "met": largest["generate_s"] < GENERATE_TARGET_S},
    }


def cli_op(argv):
    """Exit code of cli.main(argv), its stdout discarded."""
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def scale_p3em():
    rows = []
    with tempfile.TemporaryDirectory() as work:
        for n in P3EM_SIZES:
            g, gen_s, gen_times = timed3(lambda: generate_cubic_plane(n, 1))
            _, med, times = timed3(lambda: find_p3em(g))
            path = Path(work) / f"g{n}.json"
            path.write_text(g.to_json())
            code, cli_s, cli_times = timed3(lambda: cli_op(["p3em", "find", str(path)]))
            if code != 0:
                raise SystemExit(f"p3em find exited {code} at n = {n}")
            rows.append({"n": n, "generator": "generate_cubic_plane(n, 1)",
                         "generate_s": gen_s, "generate_runs_s": gen_times,
                         "find_p3em_s": med, "runs_s": times,
                         "cli_s": cli_s, "cli_runs_s": cli_times})
            print(f"n={n} generate {gen_s:.2f} s, find_p3em {med:.3f} s, "
                  f"p3em find {cli_s:.3f} s", file=sys.stderr)
    return "find_p3em_scale", {**fitted(rows, "find_p3em_s"),
                               "cli_exponent": exponent(rows, "cli_s"),
                               "generate_exponent": exponent(rows, "generate_s")}


def scale_fullerene():
    rows = []
    g, steps = fixtures.dodecahedron(), 0
    for n in FULLERENE_SIZES:
        while len(g.rotation) < n:
            g, steps = leapfrog(g), steps + 1
        h = relabel(g, random.Random(1))
        _, med, times = timed3(lambda: find_p3em(h))
        rows.append({"n": n, "generator": "relabel(leapfrog^%d(dodecahedron), "
                     "Random(1))" % steps, "find_p3em_s": med, "runs_s": times})
        print(f"n={n} find_p3em {med:.3f} s", file=sys.stderr)
    return "find_p3em_scale", fitted(rows, "find_p3em_s")


def scale_eval():
    rows = []
    for n in EVAL_SIZES:
        grid = grid_from_cubic_bipartite(generate_cubic_bipartite_plane(n, 1),
                                         SymSignature([2, 1, 1, 2]))
        _, med, times = timed3(lambda: eval_grid(grid))
        rows.append({"n": n, "generator": "generate_cubic_bipartite_plane(n, 1)",
                     "signature": [2, 1, 1, 2],
                     "variables": len(grid.right_nodes()),
                     "width": elimination_width(grid),
                     "eval_grid_s": med, "runs_s": times})
        print(f"n={n} width {rows[-1]['width']}, eval_grid {med:.3f} s",
              file=sys.stderr)
    return "eval_grid_scale", fitted(rows, "eval_grid_s")


def ab_inputs(workload):
    """(n, recipe, graph) for the A/B inputs of workload."""
    if workload == "p3em-random":
        return [(n, f"generate_cubic_plane({n}, {s})", generate_cubic_plane(n, s))
                for n in AB_P3EM_SIZES for s in AB_SEEDS]
    out, g, steps = [], fixtures.dodecahedron(), 0
    for n in AB_FULLERENE_SIZES:
        while len(g.rotation) < n:
            g, steps = leapfrog(g), steps + 1
        out += [(n, f"relabel(leapfrog^{steps}(dodecahedron), Random({s}))",
                 relabel(g, random.Random(s))) for s in AB_SEEDS]
    if workload == "fkt-solve":
        out += [(n, f"generate_cubic_bipartite_plane({n}, 1)",
                 generate_cubic_bipartite_plane(n, 1)) for n in AB_PM_SIZES]
    return out


def dodecahedra(m):
    """The disjoint union of m dodecahedra, copy i with its vertex ids
    shifted by 20i and its dart ids by 60i."""
    twin, vertex_of, rotation = {}, {}, {}
    for i in range(m):
        g = fixtures.relabeled(fixtures.dodecahedron(), 20 * i, 60 * i)
        twin.update(g.twin)
        vertex_of.update(g.vertex_of)
        rotation.update(g.rotation)
    return plane_graph.PlaneGraph(twin, vertex_of, rotation)


def pool_inputs(workload):
    """(size, recipe, argv before the input file, argv after it, input
    file text) for every entry of workload (fkt-solve or holant-eval) in
    perfbench/oracles.json, built as perfbench/workloads.py does."""
    pool = json.loads((ROOT / "perfbench" / "oracles.json").read_text())
    out = []
    for e in pool[workload]:
        g = generate_cubic_bipartite_plane(e["n"], e["gen_seed"])
        recipe = (f"{e['kind']} "
                  f"generate_cubic_bipartite_plane({e['n']}, {e['gen_seed']})")
        if e["verb"] == "pm":
            out.append((e["size"], recipe, ["pm"], [], g.to_json()))
            continue
        sig = SymSignature([Fraction(v) for v in e["sig"]])
        grid = grid_from_cubic_bipartite(g, sig)
        recipe += f" {e['sig']}"
        argv, opts = [e["verb"]], []
        if e["verb"] == "interpolate":
            grid = planarize(grid, [Crossing(a, b) for a, b in e["crossings"]])
            recipe += f" planarize {e['crossings']}"
            argv, opts = ["reduce", "interpolate"], ["--sig", json.dumps(e["sig"])]
        out.append((e["size"], recipe, argv, opts, grid.to_json()))
    return out


def import_parent(src_dir):
    """The planar_holant package in src_dir, imported as parent_planar_holant;
    returns the function that imports one of its modules by name."""
    name, pkg = "parent_planar_holant", Path(src_dir) / "planar_holant"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return lambda module: importlib.import_module(f"{name}.{module}")


def tree_sha256(src_dir):
    """perfbench/run.py's src_sha256, of the package in src_dir."""
    h = hashlib.sha256()
    for path in sorted((Path(src_dir) / "planar_holant").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def cli_run(main, argv):
    """A run of one CLI op: ((exit code, stdout), seconds), timed after a
    gc.collect()."""
    def run():
        buf = io.StringIO()
        gc.collect()
        with redirect_stdout(buf):
            t0 = time.perf_counter()
            code = main(argv)
            dt = time.perf_counter() - t0
        return (code, buf.getvalue()), dt
    return run


def count_pm_run(count_pm_fn, g):
    """A run of count_pm(g): ((repr, type name) of the value, seconds),
    timed after a gc.collect()."""
    def run():
        gc.collect()
        t0 = time.perf_counter()
        value = count_pm_fn(g)
        dt = time.perf_counter() - t0
        return (repr(value), type(value).__name__), dt
    return run


def find_run(find, g):
    """A run of find(g): (the sorted certificate, seconds), timed after a
    gc.collect()."""
    def run():
        gc.collect()
        t0 = time.perf_counter()
        sigma = find(g)
        dt = time.perf_counter() - t0
        return sorted(sigma.items()), dt
    return run


def generate_run(generate, n, seed):
    """A run of generate(n, seed): (the graph's to_json_dict(), seconds),
    timed after a gc.collect()."""
    def run():
        gc.collect()
        t0 = time.perf_counter()
        g = generate(n, seed)
        dt = time.perf_counter() - t0
        return g.to_json_dict(), dt
    return run


def ab_groups(workload, parent, work):
    """(group, op, rows) for the A/B table of workload's record; each row
    holds its size, input recipe and one run per side.  Both sides read
    the same input file under work, or the same JSON text, with their own
    code."""
    mains = {"parent": parent("cli").main, "change": cli.main}
    from_json = {"parent": parent("plane_graph").from_json,
                 "change": plane_graph.from_json}

    def cli_row(n, recipe, argv, text, name, opts=()):
        path = Path(work) / f"{name}.json"
        path.write_text(text)
        return {"n": n, "input": recipe, "run": {
            k: cli_run(mains[k], [*argv, str(path), *opts]) for k in mains}}

    if workload in ("fkt-solve", "holant-eval"):
        pool_rows = [cli_row(n, recipe, argv, text, f"{workload}-{i}", opts)
                     for i, (n, recipe, argv, opts, text)
                     in enumerate(pool_inputs(workload))]
    if workload == "fkt-solve":
        pm = {"parent": parent("solvers").count_pm, "change": count_pm}
        pm_rows = [{"n": n, "input": recipe, "run": {
            k: count_pm_run(pm[k], from_json[k](g.to_json())) for k in pm}}
            for n, recipe, g in ab_inputs("fkt-solve")]
        solve_groups = [
            (f"solve {list(sig)}", 'cli.main(["solve", file])',
             [cli_row(n, f"generate_cubic_bipartite_plane({n}, 1)", ["solve"],
                      grid_from_cubic_bipartite(
                          generate_cubic_bipartite_plane(n, 1),
                          SymSignature(sig)).to_json(), f"solve-{i}-{n}")
              for n in AB_SOLVE_SIZES])
            for i, sig in enumerate(AB_SOLVE_SIGS)]
        return [("count_pm", "count_pm(g), value equal in repr and type", pm_rows),
                ("fkt-solve", "cli.main([verb, file])", pool_rows), *solve_groups]
    if workload == "holant-eval":
        return [("holant-eval", "cli.main([*argv, file, *opts])", pool_rows)]
    if workload not in ("p3em-fullerene", "p3em-random"):
        raise SystemExit(f"no A/B table for workload {workload}")
    gen = {"parent": parent("generators").generate_cubic_plane,
           "change": generate_cubic_plane}
    gen_rows = [{"n": n, "input": f"generate_cubic_plane({n}, {s})", "run": {
        k: generate_run(gen[k], n, s) for k in gen}}
        for n in AB_P3EM_SIZES for s in AB_SEEDS]
    find = {"parent": parent("p3em").find_p3em, "change": find_p3em}
    union_rows = [{"n": 20 * m, "input": f"dodecahedra({m})", "run": {
        k: find_run(find[k], from_json[k](text)) for k in find}}
        for m in AB_UNIONS for text in [dodecahedra(m).to_json()]]
    return [*[(name, 'cli.main(["p3em", "find", file])',
               [cli_row(n, recipe, ["p3em", "find"], g.to_json(), f"{name}-{i}")
                for i, (n, recipe, g) in enumerate(ab_inputs(name))])
              for name in ("p3em-fullerene", "p3em-random")],
            ("dodecahedra", "find_p3em(g), certificates equal", union_rows),
            ("generate_cubic_plane", "generate_cubic_plane(n, s), "
             "to_json_dict() equal", gen_rows)]


def ab_table(parent_src, workload):
    parent = import_parent(parent_src)
    table = {"python": platform.python_version(), "src_sha256": src_sha256(),
             "parent_src_sha256": tree_sha256(parent_src), "rounds": AB_ROUNDS,
             "outputs_equal": True,    # else the table is not written
             "workloads": {}}
    with tempfile.TemporaryDirectory() as work:
        for name, op, rows in ab_groups(workload, parent, work):
            for row in rows:
                row["parent_s"], row["change_s"] = [], []
            for r in range(AB_ROUNDS):
                order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
                for row in rows:
                    out = {k: row["run"][k]() for k in order}
                    if out["parent"][0] != out["change"][0]:
                        raise SystemExit(f"{row['input']}: parent and change "
                                         "give different outputs")
                    for k in order:
                        row[k + "_s"].append(out[k][1])
            by_size = {}
            for row in rows:
                del row["run"]
                row["ratios"] = [c / p for p, c in zip(row["parent_s"], row["change_s"])]
                row["ratio"] = quartiles(row["ratios"])
                by_size.setdefault(row["n"], []).extend(row["ratios"])
            table["workloads"][name] = group = {
                "op": op, "inputs": rows,
                "ratio_by_size": {str(n): {**quartiles(rs), "pairs": len(rs)}
                                  for n, rs in by_size.items()}}
            if len(by_size) > 1:
                # one fit per round, whose sizes ran seconds apart, so a
                # change of the host's load between rounds bends no fit
                group["exponent"] = {}
                for k in ("parent", "change"):
                    fits = [exponent([{"n": n, "s": statistics.median(
                        row[k + "_s"][r] for row in rows if row["n"] == n)}
                        for n in by_size], "s") for r in range(AB_ROUNDS)]
                    group["exponent"][k] = quartiles(fits)
                    print(f"{name}: {k} exponent {group['exponent'][k]['median']:.3f}",
                          file=sys.stderr)
            for n, rs in by_size.items():
                q = quartiles(rs)
                print(f"{name} n={n}: change/parent {q['median']:.3f} "
                      f"({q['q1']:.3f}-{q['q3']:.3f}), {len(rs)} pairs",
                      file=sys.stderr)
    return table


def exponent(rows, key):
    """The least-squares exponent of the median time (rows' key) against n."""
    xs = [math.log(r["n"]) for r in rows]
    ys = [math.log(r[key]) for r in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def fitted(rows, key):
    """A scale table, with the exponent of rows' key."""
    return {"python": platform.python_version(), "src_sha256": src_sha256(),
            "sizes": rows, "exponent": exponent(rows, key)}


P3EM_LAYERS = ("plane_graph.construct_calls", "plane_graph.construct_s",
               "plane_graph.faces_calls", "plane_graph.faces_s",
               "plane_graph.bridges_s", "plane_graph.canonical_s",
               "plane_graph.freeze_calls", "p3em_cases.steps",
               "p3em_cases.step_reduce_s", "p3em_cases.lift_s",
               "p3em.verify_calls", "p3em.verify_s", "p3em.base_case_s")


WORKLOADS = {   # workload -> (default output, traced layer metrics, scale)
    "fkt-solve": ("BENCH_pm.json",
                  ("solvers.count_pm_calls", "solvers.count_pm_s",
                   "solvers.kasteleyn_s", "solvers.pfaffian_s",
                   "solvers.kasteleyn_order_max", "solvers.decorate_s"),
                  scale_pm),
    "p3em-random": ("BENCH_p3em.json",
                    P3EM_LAYERS + (
                        "p3em_cases.steps.self_loop", "p3em_cases.steps.double_edge",
                        "p3em_cases.steps.triangle",
                        "p3em_cases.steps.triangle_shared",
                        "p3em_cases.steps.bridge", "p3em_cases.steps.square"),
                    scale_p3em),
    "p3em-fullerene": ("BENCH_p3em_fullerene.json",
                       P3EM_LAYERS + (
                           "p3em_cases.steps.triangle", "p3em_cases.steps.square",
                           "p3em_cases.steps.chord", "p3em_cases.steps.pentagon",
                           "p3em_cases.steps.pentagon_coincident"),
                       scale_fullerene),
    "holant-eval": ("BENCH_eval.json",
                    ("holant_core.eval_calls", "holant_core.eval_s",
                     "reductions.interpolate_s", "reductions.planarize_s"),
                    scale_eval),
}


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


def side(paths, workload, layers):
    runs, traced = [], []
    for path in paths:
        rep = json.loads(Path(path).read_text())
        prov = rep["provenance"]
        if prov["workload"] != workload:
            raise SystemExit(f"{path}: not a {workload} report")
        metrics = {k: v["value"] for k, v in rep["metrics"].items()}
        entry = {"seed": prov["seed"], "python": prov["python"],
                 "git_sha": prov["git_sha"], "src_sha256": prov["src_sha256"]}
        if prov["trace"]:
            traced.append({**entry, **{k: metrics[k] for k in layers}})
        else:
            runs.append({**entry, "latency_by_size": rep["latency_by_size"],
                         **{k: metrics[k] for k in END_TO_END}})
    summary = {k: quartiles([r[k] for r in runs]) for k in END_TO_END} if runs else {}
    return {"runs": runs, "summary": summary, "traced": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+")
    ap.add_argument("--change", nargs="+")
    ap.add_argument("--out")
    ap.add_argument("--parent-src")
    args = ap.parse_args(argv)
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    workload = json.loads(Path(args.parent[0]).read_text())["provenance"]["workload"]
    if workload not in WORKLOADS:
        raise SystemExit(f"no benchmark record for workload {workload}")
    out, layers, scale = WORKLOADS[workload]
    parent = side(args.parent, workload, layers)
    change = side(args.change, workload, layers)
    before = {r["seed"]: r for r in parent["runs"]}
    pairs = [(before[r["seed"]], r) for r in change["runs"] if r["seed"] in before]
    sign = {k: -1 if k == "ok_ratio" else 1 for k in END_TO_END}   # 1: lower is better
    wins = {k: {"pairs": len(pairs),
                "change_wins": sum(sign[k] * (c[k] - p[k]) < 0 for p, c in pairs),
                "ties": sum(c[k] == p[k] for p, c in pairs)}
            for k in END_TO_END}
    key, table = scale()
    record = {
        "workload": workload,
        "note": NOTE,
        "parent": parent,
        "change": change,
        "pair_wins": wins,
        key: table,
    }
    if args.parent_src:
        record["ab"] = ab_table(args.parent_src, workload)
    Path(args.out or ROOT / out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
