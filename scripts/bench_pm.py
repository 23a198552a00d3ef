#!/usr/bin/env python3
"""Write BENCH_pm.json, the benchmark record of FKT (count_pm).

    python3 scripts/bench_pm.py --parent P*.json --change C*.json \\
        [--out BENCH_pm.json]

--parent and --change take the reports that perfbench/run.py writes to
.perfbench_out/ for ``--workload fkt-solve``, run from a checkout of the
parent commit and of the change: ``--trace 0`` reports give the
end-to-end metrics and ``--trace 1`` reports the per-layer ones.  Per side
the record keeps every run's seed, Python version, git sha, source hash,
per-size latency table and metrics, plus the median and quartiles of each
end-to-end metric; runs of the two sides with the same seed form a pair.
A run made from an uncommitted tree has git sha null; its source hash,
the one perfbench/run.py computes, still identifies the code.

It then times count_pm of this checkout, three times each, on
generate_cubic_bipartite_plane(n, 1) for every n in SIZES (generating
the graph is not timed) and reports the largest size against the
ROADMAP target of 2 s for a 10^4-vertex graph, without gating on it.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from run import src_sha256  # noqa: E402  (perfbench/run.py)
from planar_holant.generators import generate_cubic_bipartite_plane  # noqa: E402
from planar_holant.solvers import count_pm  # noqa: E402

END_TO_END = ("wall_s", "small_p50_ms", "large_p50_ms", "scaling_exponent",
              "setup_s", "peak_rss_mb", "ok_ratio")
FKT_LAYERS = ("solvers.count_pm_calls", "solvers.count_pm_s",
              "solvers.kasteleyn_s", "solvers.pfaffian_s",
              "solvers.kasteleyn_order_max", "solvers.decorate_s")
SIZES = (1000, 5000, 10000)
TARGET_S = 2.0


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


def side(paths):
    runs, traced = [], []
    for path in paths:
        rep = json.loads(Path(path).read_text())
        prov = rep["provenance"]
        if prov["workload"] != "fkt-solve":
            raise SystemExit(f"{path}: not an fkt-solve report")
        metrics = {k: v["value"] for k, v in rep["metrics"].items()}
        entry = {"seed": prov["seed"], "python": prov["python"],
                 "git_sha": prov["git_sha"], "src_sha256": prov["src_sha256"]}
        if prov["trace"]:
            traced.append({**entry, **{k: metrics[k] for k in FKT_LAYERS}})
        else:
            runs.append({**entry, "latency_by_size": rep["latency_by_size"],
                         **{k: metrics[k] for k in END_TO_END}})
    summary = {k: quartiles([r[k] for r in runs]) for k in END_TO_END} if runs else {}
    return {"runs": runs, "summary": summary, "traced": traced}


def scale():
    rows = []
    for n in SIZES:
        g = generate_cubic_bipartite_plane(n, 1)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            value = count_pm(g)
            times.append(time.perf_counter() - t0)
        rows.append({"n": n, "generator": "generate_cubic_bipartite_plane(n, 1)",
                     "count_pm_s": statistics.median(times), "runs_s": times,
                     "value_bits": value.numerator.bit_length()})
        print(f"n={n} count_pm {statistics.median(times):.3f} s", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--out", default=str(ROOT / "BENCH_pm.json"))
    args = ap.parse_args(argv)
    parent, change = side(args.parent), side(args.change)
    before = {r["seed"]: r["large_p50_ms"] for r in parent["runs"]}
    pairs = [(before[r["seed"]], r["large_p50_ms"]) for r in change["runs"]
             if r["seed"] in before]
    rows = scale()
    largest = rows[-1]
    record = {
        "workload": "fkt-solve",
        "note": "a run with git_sha null was made from an uncommitted tree; "
                "src_sha256 (perfbench/run.py's hash of src/) identifies its code",
        "parent": parent,
        "change": change,
        "large_p50_ms_pairs": {"pairs": len(pairs),
                               "change_wins": sum(c < p for p, c in pairs)},
        "count_pm_scale": {
            "python": platform.python_version(), "src_sha256": src_sha256(),
            "sizes": rows,
            "target": {"n": largest["n"], "target_s": TARGET_S,
                       "met": largest["count_pm_s"] < TARGET_S},
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
