"""Command-line front end.

Verbs: graph (validate / faces / gen), p3em (find / verify / materialize),
gadget, classify, eval, solve, pm, reduce, acceptance.  All output is a
single JSON object on stdout with exact rational values; exit codes:
0 success, 2 input error, 3 hard classification, 4 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .classifier import classify, classify_binary, dispatch_solve, solve_case
from .generators import generate_cubic_bipartite_plane, generate_cubic_plane
from .holant_core import SignatureGrid, eval_gadget, eval_grid
from .p3em import (ExceptionalGraph, P3emError, find_p3em, group_triples,
                   materialize, verify)
from .plane_graph import PlaneGraph, from_json
from .scalars import format_scalar, parse_scalar
from .signatures import SymSignature
from .solvers import SolverError, count_pm
from . import gadgets
from . import reductions

SCHEMA = "planar-holant/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HARD = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    pass


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps({"schema": SCHEMA, **payload}) + "\n")


def _load_graph(path: str) -> PlaneGraph:
    with open(path) as fh:
        return from_json(fh.read())


def _load_assignment(path: Optional[str]) -> dict:
    """The "assignment" object of a JSON file: edge id -> face id."""
    if path is None:
        raise CliError("an assignment file is required")
    with open(path) as fh:
        raw = json.load(fh)
    sigma = raw.get("assignment") if isinstance(raw, dict) else None
    if not isinstance(sigma, dict) or not all(
            e.lstrip("-").isdigit() and isinstance(f, int)
            and not isinstance(f, bool) for e, f in sigma.items()):
        raise CliError("assignment file needs an object \"assignment\" "
                       "mapping integer edge ids to integer face ids")
    return {int(e): f for e, f in sigma.items()}


def _load_grid(path: str) -> SignatureGrid:
    with open(path) as fh:
        return SignatureGrid.from_json(fh.read())


def _parse_sig(text: str) -> SymSignature:
    vals = json.loads(text)
    return SymSignature([parse_scalar(v) for v in vals])


def _parse_scalar_arg(text: str):
    text = text.strip()
    if text.startswith("{"):
        return parse_scalar(json.loads(text))
    return parse_scalar(text)


def cmd_graph(args) -> int:
    if args.action == "gen":
        gen = (generate_cubic_bipartite_plane if args.bipartite
               else generate_cubic_plane)
        g = gen(args.n, args.seed)
        _emit({"graph": g.to_json_dict(), "seed": args.seed})
        return EXIT_OK
    g = _load_graph(args.file)
    if args.action == "validate":
        _emit({"valid": True, "vertices": len(g.vertices()),
               "edges": len(g.edges()), "faces": len(g.faces())})
        return EXIT_OK
    if args.action == "faces":
        _emit({"faces": [{"id": f.id, "boundary": list(f.boundary)}
                         for f in g.faces()]})
        return EXIT_OK
    raise CliError(f"unknown graph action {args.action}")


def cmd_p3em(args) -> int:
    g = _load_graph(args.file)
    if args.action == "find":
        res = find_p3em(g)
        if isinstance(res, ExceptionalGraph):
            _emit({"exception": res.kinds, "components": res.components})
            return EXIT_OK
        # find_p3em has verified res on g
        _emit({"assignment": {str(e): f for e, f in sorted(res.items())},
               "triples": group_triples(g, res)})
        return EXIT_OK
    if args.action == "verify":
        rep = verify(g, _load_assignment(args.assignment))
        _emit({"ok": rep.ok, "reason": rep.reason})
        return EXIT_OK if rep.ok else EXIT_INPUT
    if args.action == "materialize":
        sigma = _load_assignment(args.assignment)
        _emit({"graph": materialize(g, sigma).to_json_dict()})
        return EXIT_OK
    raise CliError(f"unknown p3em action {args.action}")


def cmd_gadget(args) -> int:
    f = _parse_sig(args.sig)
    if f.arity != 3:
        raise CliError("ternary signature expected")
    if args.kind == "g1":
        m = gadgets.gadget_G1(f)
    elif args.kind == "g2":
        m = gadgets.gadget_G2(f)
    elif args.kind == "g3":
        _emit({"signature": gadgets.gadget_G3(f).to_json()})
        return EXIT_OK
    elif args.kind == "g4":
        mat, z = gadgets.gadget_G4(f)
        _emit({"matrix": [[format_scalar(v) for v in row] for row in mat],
               "z": format_scalar(z)})
        return EXIT_OK
    elif args.kind == "nonlin":
        y = _parse_scalar_arg(args.unary)
        _emit({"signature": gadgets.nonlinearity_gadget(f, y).to_json()})
        return EXIT_OK
    else:
        raise CliError(f"unknown gadget {args.kind}")
    _emit({"matrix": [[format_scalar(v) for v in row] for row in m.m]})
    return EXIT_OK


def cmd_classify(args) -> int:
    f = _parse_sig(args.sig)
    if f.arity == 2:
        ok = classify_binary(f)
        _emit({"binary": True, "tractable": ok})
        return EXIT_OK if ok else EXIT_HARD
    v = classify(f)
    _emit(v.to_json_dict())
    return EXIT_OK if v.planar_fp else EXIT_HARD


def cmd_eval(args) -> int:
    grid = _load_grid(args.file)
    if args.gadget:
        table = eval_gadget(grid)
        _emit({"table": [format_scalar(v) for v in table]})
        return EXIT_OK
    _emit({"value": format_scalar(eval_grid(grid))})
    return EXIT_OK


def cmd_solve(args) -> int:
    grid = _load_grid(args.file)
    lefts = grid.left_nodes()
    if not lefts:
        raise CliError("grid has no left nodes")
    f = lefts[0].sym
    if f is None:
        raise CliError("left nodes must carry symmetric signatures")
    if args.force_case is not None:
        value = solve_case(grid, f, args.force_case)
    else:
        value = dispatch_solve(grid, f)
    _emit({"value": format_scalar(value)})
    return EXIT_OK


def cmd_pm(args) -> int:
    g = _load_graph(args.file)
    _emit({"value": format_scalar(count_pm(g))})
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.action == "gadget-p":
        rep = reductions.verify_P()
        _emit({"support_ok": rep.support_ok, "uniqueness_ok": rep.uniqueness_ok,
               "table": [format_scalar(v) for v in rep.table],
               "internal_counts": rep.counts})
        return EXIT_OK if rep.passed() else EXIT_INTERNAL
    if args.action == "planarize":
        grid = _load_grid(args.file)
        with open(args.crossings) as fh:
            cr = [reductions.Crossing(**rec) for rec in json.load(fh)]
        out = reductions.planarize(grid, cr)
        _emit({"grid": out.to_json_dict()})
        return EXIT_OK
    if args.action == "interpolate":
        grid = _load_grid(args.file)
        f = _parse_sig(args.sig)
        cross = [nid for nid, n in grid.nodes.items() if n.side == "table"]
        run = reductions.interpolate_recover(grid, cross, f)
        _emit(run.to_json_dict())
        return EXIT_OK
    if args.action == "absorb":
        grid = _load_grid(args.file)
        f = _parse_sig(args.sig)
        x = _parse_scalar_arg(args.x)
        y = _parse_scalar_arg(args.y)
        out, factor = reductions.unary_absorption_transform(grid, f, x, y)
        _emit({"grid": out.to_json_dict(), "factor": format_scalar(factor)})
        return EXIT_OK
    raise CliError(f"unknown reduce action {args.action}")


def cmd_acceptance(args) -> int:
    from .acceptance import run_acceptance
    report = run_acceptance(only=args.only)
    for line in report.lines:
        print(line)
    return EXIT_OK if report.ok else EXIT_INTERNAL


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="planar-holant")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("graph")
    g.add_argument("action", choices=["validate", "faces", "gen"])
    g.add_argument("file", nargs="?")
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--bipartite", action="store_true")
    g.add_argument("--seed", type=int, required=False, default=None)
    g.set_defaults(fn=cmd_graph)

    q = sub.add_parser("p3em")
    q.add_argument("action", choices=["find", "verify", "materialize"])
    q.add_argument("file")
    q.add_argument("assignment", nargs="?")
    q.set_defaults(fn=cmd_p3em)

    d = sub.add_parser("gadget")
    d.add_argument("kind", choices=["g1", "g2", "g3", "g4", "nonlin"])
    d.add_argument("--sig", required=True)
    d.add_argument("--unary", default="0")
    d.set_defaults(fn=cmd_gadget)

    c = sub.add_parser("classify")
    c.add_argument("--sig", required=True)
    c.set_defaults(fn=cmd_classify)

    e = sub.add_parser("eval")
    e.add_argument("file")
    e.add_argument("--gadget", action="store_true")
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("solve")
    s.add_argument("file")
    s.add_argument("--force-case", type=int, default=None)
    s.set_defaults(fn=cmd_solve)

    m = sub.add_parser("pm")
    m.add_argument("file")
    m.set_defaults(fn=cmd_pm)

    r = sub.add_parser("reduce")
    r.add_argument("action",
                   choices=["planarize", "interpolate", "absorb", "gadget-p"])
    r.add_argument("file", nargs="?")
    r.add_argument("--crossings")
    r.add_argument("--sig")
    r.add_argument("--x")
    r.add_argument("--y")
    r.set_defaults(fn=cmd_reduce)

    a = sub.add_parser("acceptance")
    a.add_argument("--only", default=None)
    a.set_defaults(fn=cmd_acceptance)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.verb == "graph" and args.action == "gen" and args.seed is None:
        print("error: --seed is required for randomized commands",
              file=sys.stderr)
        return EXIT_INPUT
    # exact values of any length are printed and read back, so the CLI
    # lifts Python's int <-> str digit cap (3.10.7+) while a verb runs
    old_cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old_cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except (CliError, FileNotFoundError, json.JSONDecodeError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, P3emError) as ex:
        # WrongForm and InvalidAssignment are ValueErrors and exit above
        print(f"internal error: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if old_cap is not None:
            sys.set_int_max_str_digits(old_cap)


if __name__ == "__main__":
    sys.exit(main())
