"""Tests of the benchmark's own parts: span arithmetic, the recorder's
rebinding, the fullerene generator and the oracles.

    python3 -m pytest perfbench -q
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import fullerene  # noqa: E402
import spans  # noqa: E402
from planar_holant import cli, fixtures, p3em_cases, reductions  # noqa: E402
from planar_holant.generators import (generate_cubic_bipartite_plane,  # noqa: E402
                                      generate_cubic_plane)
from planar_holant.holant_core import eval_grid  # noqa: E402
from planar_holant.p3em import find_p3em, triples  # noqa: E402
from planar_holant.plane_graph import grid_from_cubic_bipartite  # noqa: E402
from planar_holant.signatures import SymSignature  # noqa: E402
from planar_holant.solvers import count_pm  # noqa: E402


def test_self_time_of_nested_spans():
    # main [0,10] > find [1,9] > (construct [2,4] > components [3,3.5]),
    #                            step_reduce [5,8]; a second root [11,12]
    tree = [["cli.main", 0.0, 10.0, -1, None],
            ["p3em.find", 1.0, 9.0, 0, None],
            ["plane_graph.construct", 2.0, 4.0, 1, None],
            ["plane_graph.components", 3.0, 3.5, 2, None],
            ["p3em_cases.step_reduce", 5.0, 8.0, 1, "square"],
            ["cli.main", 11.0, 12.0, -1, None]]
    assert spans.self_times(tree) == [2.0, 3.0, 1.5, 0.5, 3.0, 1.0]
    m = spans.layer_metrics(tree)
    assert m["cli.io_s"] == 3.0
    assert m["plane_graph.construct_s"] == 1.5
    assert m["plane_graph.construct_calls"] == 1
    assert m["p3em_cases.step_reduce_s"] == 3.0
    assert m["p3em_cases.steps"] == m["p3em_cases.steps.square"] == 1
    assert m["p3em_cases.steps.chord"] == 0


def test_max_depth_counts_nested_solve_component():
    tree = [["p3em.find", 0.0, 9.0, -1, None],
            ["p3em_cases.solve_component", 1.0, 8.0, 0, None],
            ["p3em.verify", 1.5, 2.0, 1, None],
            ["p3em_cases.solve_component", 2.0, 7.0, 1, None],
            ["p3em_cases.solve_component", 3.0, 4.0, 3, None]]
    assert spans.layer_metrics(tree)["p3em_cases.max_depth"] == 3


def test_recorder_rebinds_every_binding_and_restores_them():
    interpolate = reductions.interpolate_recover
    originals = (cli.find_p3em, cli.count_pm, p3em_cases.verify,
                 interpolate, interpolate.__defaults__)
    rec = spans.Recorder()
    rec.install()
    try:
        assert cli.find_p3em is not originals[0]
        assert cli.count_pm is not originals[1]
        assert p3em_cases.verify is not originals[2]
        # the oracle default argument is rebound too
        assert interpolate.__defaults__[0] is reductions.eval_grid
        assert reductions.eval_grid is not originals[4][0]
        cli.find_p3em(generate_cubic_plane(40, 3))
    finally:
        rec.uninstall()
    assert (cli.find_p3em, cli.count_pm, p3em_cases.verify,
            reductions.interpolate_recover, interpolate.__defaults__) == originals
    m = spans.layer_metrics(rec.take())
    assert m["p3em_cases.steps"] > 0
    assert m["p3em.verify_calls"] >= m["p3em_cases.steps"]
    assert m["plane_graph.construct_calls"] > 0


def test_fullerenes_match_published_constants():
    g = fixtures.dodecahedron()
    expected_pm = {20: 36, 60: 12500}
    for n in (20, 60, 180):
        lengths = [len(f.boundary) for f in g.faces()]
        assert len(g.rotation) == n
        assert set(lengths) == {5, 6} or (n == 20 and set(lengths) == {5})
        assert lengths.count(5) == 12
        if n in expected_pm:
            assert count_pm(g) == expected_pm[n]
            assert count_pm(fullerene.relabel(g, random.Random(n))) == expected_pm[n]
        g = fullerene.leapfrog(g)


def test_p3em_checker_accepts_certificates_and_rejects_broken_ones():
    g = fullerene.relabel(fullerene.leapfrog(fixtures.dodecahedron()),
                          random.Random(5))
    sigma = find_p3em(g)
    out = {"assignment": {str(e): f for e, f in sigma.items()},
           "triples": triples(g, sigma)}
    spec = g.to_json_dict()
    assert checks.check_p3em(spec, out) is None
    e = min(sigma)
    faces = checks.faces_of(spec)
    other = faces[g.twin[e]] if sigma[e] == faces[e] else faces[e]
    moved = dict(out, assignment={**out["assignment"], str(e): other})
    assert checks.check_p3em(spec, moved) is not None  # mod-3 count broken
    outside = dict(out, assignment={**out["assignment"], str(e): -1})
    assert "non-incident" in checks.check_p3em(spec, outside)
    short = dict(out, triples=out["triples"][1:])
    assert checks.check_p3em(spec, short) == "triples do not partition the edges"


def test_enumeration_agrees_with_eval_grid_and_counts_matchings():
    g = generate_cubic_bipartite_plane(12, 7)
    for vals in ([1, 2, 3, 5], [1, 0, -1, 2]):
        grid = grid_from_cubic_bipartite(g, SymSignature([Fraction(v) for v in vals]))
        assert checks.enumerate_holant(grid.to_json_dict()) == eval_grid(grid)
    probe = grid_from_cubic_bipartite(g, SymSignature([Fraction(v) for v in (1, 0, -1, 2)]))
    assert eval_grid(probe) == count_pm(g)
