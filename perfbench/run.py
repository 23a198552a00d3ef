#!/usr/bin/env python3
"""Benchmark of the planar_holant toolkit, driven the way a user drives it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every op is an in-process call of
planar_holant.cli.main(argv) (``p3em find``, ``solve``, ``pm``, ``eval``,
``reduce interpolate``) on a JSON input file, from one process and one
thread, in a closed loop: the next op starts when the previous one ends.
Inputs are made from the seed (see workloads.py) and every output is
checked by an oracle that does not call the library (see checks.py and
oracles.json).  A pass runs the workload's fixed op set once; a run
repeats passes for about --seconds (it stops when one more pass would
end further from --seconds than stopping now).

--trace 0 prints the end-to-end metrics:

  setup_s           median of SETUP_REPEATS set-ups (fresh import of the
                    library, input generation, oracle loading, one
                    warm-up op)
  wall_s            median over passes of the time of one pass's ops
  small_p50_ms      median op latency at the smallest size
  large_p50_ms      median op latency at the largest size
  scaling_exponent  least-squares slope of log(median latency) against
                    log(size) over the sizes
  ok_ratio          ops whose output passed its oracle / ops attempted
                    (1 - fail_ratio; a failure is a nonzero exit, an
                    exception such as RecursionError, or a wrong output)
  peak_rss_mb       peak resident memory of the process

The times are speed-normalized: on a shared host the same op's median
over a 20-second window moves by 20-35% with the neighbours' load, which
no run length here averages out.  So every op and every set-up is
preceded by PROBES runs of reference_kernel, fixed pure-Python work that
shares no code with the library, and its time is scaled by
KERNEL_NOMINAL_S / (median kernel time just before and just after it).
On the 2-vCPU x86-64 host the benchmark was defined on (CPython 3.11.7),
over 15-second windows, that cut the spread (quartile distance / median)
of a C180 ``p3em find`` from 0.24 to 0.03, of an order-72 ``solve`` from
0.14 to 0.09 and of a 2^11-state ``eval`` from 0.11 to 0.08.  The raw
times are printed and written to the report next to the normalized ones.

--trace 1 runs set-up once under the span recorder (spans.py), then
alternates untraced and traced passes, and prints the per-layer metrics:
the median over traced passes of each layer's counts and self times,
generators.generate_s and reductions.planarize_s from the traced set-up,
and trace.overhead_s, the traced minus the untraced median pass time
(speed-normalized like the end-to-end times; the self times are raw).
The spans themselves are written to .perfbench_out/.

Before the result, stdout carries one line per metric with its sample
count, the per-size latency table and the provenance (Python version,
git sha, a hash of src/, nproc, seed, sizes, op count per size and every
op's input recipe); the same report is written to .perfbench_out/.
The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import List

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
PROBES = 3                 # reference-kernel runs before every op and set-up
# typical reference_kernel time on the host the benchmark was defined on,
# so normalized times read about as seconds there
KERNEL_NOMINAL_S = 0.004
# layers that run only while inputs are made; measured over the set-up
SETUP_LAYERS = ("generators.generate_s", "reductions.planarize_s")


# -- one op -------------------------------------------------------------------

def run_op(op: workloads.Op, rec: spans.Recorder = None):
    """Latency of one CLI call and the reason its output is wrong, or None."""
    cli = sys.modules["planar_holant.cli"]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    span = rec.open("bench.op", op.kind) if rec else None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as ex:  # an op that raises has failed
        code = f"{type(ex).__name__}: {str(ex)[:200]}"
    dt = time.perf_counter() - t0
    if span:
        rec.close(span)
    if code != 0:
        return dt, f"exit {code}: {err.getvalue().strip()[:200]}"
    try:
        return dt, op.check(json.loads(out.getvalue().splitlines()[-1]))
    except (ValueError, IndexError, KeyError, TypeError) as ex:
        return dt, f"unreadable output: {ex}"


def probe() -> List[float]:
    """Durations of PROBES runs of the reference kernel."""
    out = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


def prism(n: int) -> dict:
    """Plane graph JSON of the n-prism: outer cycle 0..n-1, inner cycle
    n..2n-1, spokes i -- n+i; vertex v owns darts 3v (to its cycle
    successor), 3v+1 (to its cycle predecessor) and 3v+2 (its spoke)."""
    def nxt(v):
        return v - v % n + (v + 1) % n
    darts = []
    for v in range(2 * n):
        darts += [{"id": 3 * v, "twin": 3 * nxt(v) + 1, "vertex": v},
                  {"id": 3 * v + 2, "twin": 3 * ((v + n) % (2 * n)) + 2, "vertex": v}]
    for v in range(2 * n):
        u = v - v % n + (v - 1) % n
        darts.append({"id": 3 * v + 1, "twin": 3 * u, "vertex": v})
    outer = lambda v: [3 * v, 3 * v + 1, 3 * v + 2]   # noqa: E731
    inner = lambda v: [3 * v, 3 * v + 2, 3 * v + 1]   # noqa: E731
    return {"darts": darts,
            "vertices": [{"id": v, "rotation": (outer if v < n else inner)(v)}
                         for v in range(2 * n)]}


KERNEL_GRAPH = prism(270)


def reference_kernel() -> Fraction:
    """Fixed pure-Python work shaped like the library's: a face walk over a
    1620-dart rotation system (dict lookups) and exact rational sums.  It
    shares no code with planar_holant, so its duration tracks only the
    host's current speed, which on a shared host drifts by tens of percent
    within seconds."""
    faces = checks.faces_of(KERNEL_GRAPH)
    acc = Fraction(0)
    for d, f in list(faces.items())[:400]:
        acc += Fraction(f + 1, d + 1)
    return acc


def normalize(raw: List[float], probes: List[List[float]]) -> List[float]:
    """Scale raw[i] to reference speed by the kernel runs just before
    (probes[i]) and just after (probes[i + 1]) it."""
    return [t * KERNEL_NOMINAL_S / statistics.median(probes[i] + probes[i + 1])
            for i, t in enumerate(raw)]


def run_pass(ops, results, probes, rec=None) -> None:
    """Run every op once, each preceded by a speed probe."""
    for op in ops:
        probes.append(probe())
        dt, reason = run_op(op, rec)
        results.append((op, dt, reason))


def more_passes(start: float, done: int, seconds: float) -> bool:
    """Whether to start another round: at least one, and then only while
    the run ends nearer to ``seconds`` with it than without it."""
    if not done:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def setup(wl: workloads.Workload, seed: int, work: Path, rec=None):
    """Fresh import, inputs, oracles and one warm-up op; returns
    (seconds, ops sorted by size, warm-up result)."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules
                 if m == "planar_holant" or m.startswith("planar_holant.")]:
        del sys.modules[name]
    importlib.import_module("planar_holant.cli")
    if rec:
        rec.install()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = wl.build(random.Random(f"{wl.name}/{seed}"), workloads.Inputs(work),
                   wl.per_pass)
    ops.sort(key=lambda op: op.size)
    warm = run_op(ops[0], rec)
    return time.perf_counter() - t0, ops, (ops[0], *warm)


# -- runs -----------------------------------------------------------------------

def untraced_run(wl, seed, seconds, work):
    setups, setup_probes = [], [probe()]
    for _ in range(SETUP_REPEATS):
        setups.append(setup(wl, seed, work))
        setup_probes.append(probe())
    ops = setups[-1][1]
    results, probes = [], []
    start = time.perf_counter()
    while more_passes(start, len(results) // len(ops), seconds):
        run_pass(ops, results, probes)
    probes.append(probe())
    raw = [dt for _, dt, _ in results]
    norm = normalize(raw, probes)
    walls = pass_sums(norm, len(ops))
    by_size, raw_by_size = {}, {}
    for (op, dt, _), t in zip(results, norm):
        by_size.setdefault(op.size, []).append(t)
        raw_by_size.setdefault(op.size, []).append(dt)
    sizes = sorted(by_size)
    med = {s: statistics.median(by_size[s]) for s in sizes}
    checked = [s[2] for s in setups] + results
    failed = sum(1 for r in checked if r[2] is not None)
    setup_s = normalize([s[0] for s in setups], setup_probes)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setups)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "small_p50_ms": (1000 * med[sizes[0]], "ms", len(by_size[sizes[0]])),
        "large_p50_ms": (1000 * med[sizes[-1]], "ms", len(by_size[sizes[-1]])),
        "scaling_exponent": (_slope([math.log(s) for s in sizes],
                                    [math.log(med[s]) for s in sizes]),
                             "1", len(sizes)),
        "ok_ratio": (1 - failed / len(checked), "ratio", len(checked)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
    }
    kernel = [k for ks in probes for k in ks]
    extra = {
        "fail_ratio": failed / len(checked),
        "latency_by_size": [
            {"size": s, "ops": len(by_size[s]), "p50_ms": 1000 * med[s],
             **_high_percentile(by_size[s]),
             "raw_p50_ms": 1000 * statistics.median(raw_by_size[s])}
            for s in sizes],
        "raw_setup_s": [s[0] for s in setups],
        "raw_wall_s": pass_sums(raw, len(ops)),
        "kernel_ms": {"p50": 1000 * statistics.median(kernel),
                      "min": 1000 * min(kernel), "max": 1000 * max(kernel),
                      "runs": len(kernel), "nominal": 1000 * KERNEL_NOMINAL_S},
    }
    return ops, checked, metrics, extra


def traced_run(wl, seed, seconds, work):
    rec = spans.Recorder()
    _, ops, warm = setup(wl, seed, work, rec)
    rec.uninstall()
    setup_spans = rec.take()
    results, probes, per_pass, pass_spans = [], [], [], []
    start = time.perf_counter()
    while more_passes(start, len(pass_spans), seconds):
        run_pass(ops, results, probes)
        rec.install()
        try:
            run_pass(ops, results, probes, rec)
        finally:
            rec.uninstall()
        pass_spans.append(rec.take())
        per_pass.append(spans.layer_metrics(pass_spans[-1]))
    probes.append(probe())
    sums = pass_sums(normalize([dt for _, dt, _ in results], probes), len(ops))
    plain, traced = sums[0::2], sums[1::2]
    metrics = {k: (v, _unit(k), len(per_pass))
               for k, v in spans.median_metrics(per_pass).items()}
    at_setup = spans.layer_metrics(setup_spans)
    for key in SETUP_LAYERS:
        metrics[key] = (at_setup[key], "s", 1)
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s", len(traced))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{seed}.spans.jsonl", "w") as fh:
        for phase, group in [("setup", setup_spans)] + [
                (f"pass{i}", s) for i, s in enumerate(pass_spans)]:
            fh.write(json.dumps({"phase": phase, "spans": group}) + "\n")
    return ops, [warm] + results, metrics, {
        "untraced_pass_s": plain, "traced_pass_s": traced}


def pass_sums(times: List[float], per_pass: int) -> List[float]:
    return [sum(times[i:i + per_pass]) for i in range(0, len(times), per_pass)]


def _slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _high_percentile(samples) -> dict:
    """The highest percentile that has at least ten samples beyond it."""
    if len(samples) <= 10:
        return {}
    n = len(samples)
    return {f"p{100 * (n - 10) / n:.0f}_ms": 1000 * sorted(samples)[n - 11]}


def _unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


# -- provenance ---------------------------------------------------------------

def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "planar_holant").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(wl, args, ops) -> dict:
    per_size = {}
    for op in ops:
        per_size[op.size] = per_size.get(op.size, 0) + 1
    return {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "git_sha": git_sha(), "src_sha256": src_sha256(),
            "nproc": os.cpu_count(), "sched_cpus": len(os.sched_getaffinity(0)),
            "size_unit": wl.size_unit,
            "ops_per_pass_by_size": {str(s): k for s, k in sorted(per_size.items())},
            "ops": [{"kind": op.kind, "size": op.size, **op.recipe} for op in ops]}


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "planar_holant" / "cli.py").is_file():
        print(f"error: no planar_holant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    run = traced_run if args.trace else untraced_run
    try:
        ops, checked, metrics, extra = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    failures = [{"kind": op.kind, "size": op.size, "reason": reason, **op.recipe}
                for op, _, reason in checked if reason is not None]
    report = {"provenance": provenance(wl, args, ops), **extra,
              "failures": failures[:20],
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}}
    if "p3em_cases.steps" in metrics:
        report["provenance"]["step_mix"] = {
            k.rsplit(".", 1)[1]: v for k, (v, _, _) in metrics.items()
            if k.startswith("p3em_cases.steps.")}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    for k, (v, u, n) in metrics.items():
        print(f"# {k:36s} {v:>14.6g} {u:6s} samples={n}")
    for k, v in extra.items():
        print(f"# {k} {json.dumps(v)}")
    print("# provenance " + json.dumps(report["provenance"]))
    for f in failures[:20]:
        print("# FAILED " + json.dumps(f))
    print(json.dumps({"correct": not failures, "attempted": len(checked),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
