"""Every solve class, pm, p3em find and reduce absorb through cli.main at
the north star's size.

The solve grids are grid_from_cubic_bipartite(generate_cubic_bipartite_plane(
10^4, 1), f), one per class; pm runs on that graph and p3em find on
generate_cubic_plane(10^4, 1) and on the disjoint union of 500
dodecahedra, whose certificate must also pass verify.  reduce absorb runs
on the 10^4-node incidence grid of generate_cubic_plane(4000, 1).  Each
verb must exit 0, and the value it prints must parse back to the value the
verb computed in the process.
Three classes have closed forms.  The signed matchgate class has two
signatures: [2,1,-1,-2], whose value is 0 on these grids, and [1,3,-3,-1],
whose value is not, so that one sign error shows.  For every class solve
must equal eval on the same grid at 1000 vertices.
"""

import io
import json
import sys
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest

from planar_holant import cli, fixtures
from planar_holant.gadgets import absorb_g1
from planar_holant.generators import (generate_cubic_bipartite_plane,
                                      generate_cubic_plane)
from planar_holant.holant_core import SignatureGrid
from planar_holant.p3em import verify
from planar_holant.plane_graph import (PlaneGraph, grid_from_cubic_bipartite,
                                       incidence_grid)
from planar_holant.scalars import parse_scalar
from planar_holant.signatures import EQ3, SymSignature, connect_unary

N = 10 ** 4
CLASSES = {
    "degenerate": [1, 2, 4, 8],
    "generalized-equality": [1, 0, 0, 3],
    "affine": [1, 0, 1, 0],
    "affine-signed": [1, 1, -1, -1],
    "matchgate": [2, 1, 1, 2],
    "matchgate-signed": [2, 1, -1, -2],
    "matchgate-signed-nonzero": [1, 3, -3, -1],
    "case5": [4, -2, 0, 2],          # a = b = 1
}


@contextmanager
def _no_digit_cap():
    """Lift Python's int <-> str digit cap (3.10.7+), then restore it."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def _cli(tmp_path, verb, obj, spied, *options):
    """Run the verb on obj's JSON, then the options, through cli.main, with
    the cli function spied wrapped.  Returns the printed JSON and the one
    value the spy saw: the argument of format_scalar, the result of
    anything else."""
    path = tmp_path / "in.json"
    path.write_text(obj.to_json())
    seen = []
    real = getattr(cli, spied)

    def spy(*args):
        out = real(*args)
        seen.append(args[0] if spied == "format_scalar" else out)
        return out

    with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()) as out:
        mp.setattr(cli, spied, spy)
        assert cli.main([*verb.split(), str(path), *options]) == 0
    (value,) = seen
    return json.loads(out.getvalue()), value


def _solved(tmp_path, verb, grid):
    """The value the verb prints for grid, checked to be the one it computed."""
    out, value = _cli(tmp_path, verb, grid, "format_scalar")
    with _no_digit_cap():
        assert parse_scalar(out["value"]) == value
    return value


def _grid(g, name):
    return grid_from_cubic_bipartite(
        g, SymSignature([Fraction(x) for x in CLASSES[name]]))


@pytest.fixture(scope="module")
def bipartite():
    return generate_cubic_bipartite_plane(N, 1)


@pytest.fixture(scope="module")
def pm_value(bipartite, tmp_path_factory):
    return _solved(tmp_path_factory.mktemp("pm"), "pm", bipartite)


def test_pm_at_scale(pm_value):
    assert pm_value > 0


@pytest.mark.parametrize("name", CLASSES)
def test_solve_at_scale(name, bipartite, pm_value, tmp_path):
    grid = _grid(bipartite, name)
    value = _solved(tmp_path, "solve", grid)
    u, v = len(grid.left_nodes()), len(grid.right_nodes())
    closed = {"degenerate": 9 ** v, "generalized-equality": 1 + 3 ** u,
              "case5": 2 ** u * pm_value}
    if name in closed:
        assert value == closed[name]
    if name == "matchgate-signed-nonzero":
        assert value != 0


@pytest.mark.parametrize("name", CLASSES)
def test_solve_equals_eval_at_1000(name, tmp_path):
    grid = _grid(generate_cubic_bipartite_plane(1000, 1), name)
    assert _solved(tmp_path, "solve", grid) == _solved(tmp_path, "eval", grid)


def test_p3em_find_at_scale(tmp_path):
    out, sigma = _cli(tmp_path, "p3em find", generate_cubic_plane(N, 1),
                      "find_p3em")
    assert len(sigma) == 3 * N // 2
    assert {int(e): f for e, f in out["assignment"].items()} == sigma


def test_p3em_find_on_many_components(tmp_path):
    # N vertices in N / 20 components, each cut out of the graph once
    twin, vertex_of, rotation = {}, {}, {}
    for i in range(N // 20):
        g = fixtures.relabeled(fixtures.dodecahedron(), 20 * i, 60 * i)
        twin.update(g.twin)
        vertex_of.update(g.vertex_of)
        rotation.update(g.rotation)
    g = PlaneGraph(twin, vertex_of, rotation)
    out, sigma = _cli(tmp_path, "p3em find", g, "find_p3em")
    assert len(g.connected_components()) == 500
    assert {int(e): f for e, f in out["assignment"].items()} == sigma
    assert verify(g, sigma).ok


def test_reduce_absorb_at_scale(tmp_path):
    # every binary node becomes f tied to one table, and g1 (y^3 + 1 = 9)
    # absorbs each triple of ends with one circle
    f = SymSignature([1, 2, 3, 5])
    g = generate_cubic_plane(4000, 1)
    grid = incidence_grid(g, connect_unary(f, SymSignature([1, 3])), EQ3)
    out, factor = _cli(tmp_path, "reduce absorb", grid, "format_scalar",
                       "--sig", "[1,2,3,5]", "--x", "3", "--y", "2")
    edges = len(g.edges())
    assert factor == absorb_g1(Fraction(2)) ** (edges // 3)
    assert parse_scalar(out["factor"]) == factor
    absorbed = SignatureGrid.from_json_dict(out["grid"])
    assert len(absorbed.nodes) == len(grid.nodes) + edges + edges // 3
