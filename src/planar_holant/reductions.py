"""Desk-scale executions of the reduction machinery.

planarize rewrites a drawn grid with listed crossings into a planar one
by splicing a cross-over table at every crossing; interpolate_recover
replaces those tables by odd chains of the interpolation gadget and
recovers the true value through an exact Vandermonde solve;
unary_absorption_transform rewrites an incidence grid over a contracted binary
signature into one over the ternary signature plus absorbers placed by a
planar 3-way edge matching; and the pinned-0 cross-over gadget is built
and checked property by property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from .gadgets import (GridBuilder, absorb_g1, absorb_g2, gamma_params,
                      wire_absorber)
from .holant_core import (GridNode, SignatureGrid, eval_grid, eval_gadget,
                          gadget_assignment_counts)
from .p3em import ExceptionalGraph, find_p3em, triples
from .plane_graph import merge_degree2_left_map
from .scalars import Scalar, format_scalar
from .signatures import EQ3, EXACT_ONE_3, SymSignature, connect_unary


class ReductionError(ValueError):
    pass


class TripleCrossing(ReductionError):
    pass


class SingularSystem(ReductionError):
    pass


class EigenvectorInput(ReductionError):
    pass


class ZeroFactor(ReductionError):
    pass


def crossover_table() -> Tuple[Scalar, ...]:
    """Row-major table of the cross-over signature over slot order
    (in_a, in_b, out_a, out_b): 1 iff each strand keeps its value."""
    return chain_table(Fraction(1), Fraction(0))


def chain_table(on: Scalar, off: Scalar) -> Tuple[Scalar, ...]:
    """Table over slots (in_a, in_b, out_a, out_b) with value `on` where
    both strands are preserved and `off` elsewhere.  The normalized odd
    gadget chain has exactly this shape with on = x_s, off = 1 (the same
    support as the cross-over, which makes the stratification work)."""
    return tuple(on if idx >> 2 == idx & 3 else off for idx in range(16))


@dataclass
class Crossing:
    """One listed crossing between edge indices a and b of the input grid;
    pos_a and pos_b order the crossings along one edge.  Both orientations
    of a crossing share one table, so none is recorded."""
    edge_a: int
    edge_b: int
    pos_a: int = 0
    pos_b: int = 0


def planarize(grid: SignatureGrid, crossings: Sequence[Crossing]) -> SignatureGrid:
    """Replace each listed crossing by a cross-over table node.

    Each grid edge must run from its L-facing slot to its R-facing slot;
    the crossing positions order multiple crossings along one edge."""
    per_edge: Dict[int, List[Tuple[int, int, int]]] = {}
    for ci, c in enumerate(crossings):
        if c.edge_a == c.edge_b:
            raise TripleCrossing("an edge cannot cross itself at one point")
        if not all(0 <= e < len(grid.edges) for e in (c.edge_a, c.edge_b)):
            raise ReductionError(
                f"{c}: the grid has edges 0..{len(grid.edges) - 1}")
        per_edge.setdefault(c.edge_a, []).append((c.pos_a, ci, 0))
        per_edge.setdefault(c.edge_b, []).append((c.pos_b, ci, 1))
    b = GridBuilder(grid)
    # slot order of the cross node: (a_in, b_in, a_out, b_out); value 1 iff
    # a_in == a_out and b_in == b_out; opposite slots pair up in either
    # orientation
    table = crossover_table()
    cross_nodes = [b.node("table", table, slots=("R", "R", "L", "L"))
                   for _ in crossings]
    # rewire each crossed edge as a chain: L-end -> c1 -> c2 ... -> R-end
    b.edges = []
    for idx, (na, sa, nb, sb) in enumerate(grid.edges):
        if idx not in per_edge:
            b.wire((na, sa), (nb, sb))
            continue
        if grid.nodes[na].slots[sa] == "L":
            lend, rend = (na, sa), (nb, sb)
        else:
            lend, rend = (nb, sb), (na, sa)
        cur = lend
        for (_pos, ci, role) in sorted(per_edge[idx]):
            # entering slot faces R (receives the L-side strand)
            b.wire(cur, (cross_nodes[ci], role))
            cur = (cross_nodes[ci], 2 + role)
        b.wire(cur, rend)
    return b.grid()


@dataclass
class InterpolationRun:
    nodes_x: List[Scalar]
    oracle_values: List[Scalar]
    coefficients: List[Scalar]
    recovered: Scalar

    def to_json_dict(self) -> dict:
        return {
            "vandermonde_nodes": [format_scalar(x) for x in self.nodes_x],
            "oracle_values": [format_scalar(v) for v in self.oracle_values],
            "coefficients": [format_scalar(c) for c in self.coefficients],
            "recovered": format_scalar(self.recovered),
        }


def _solve_vandermonde(xs: List[Scalar], ys: List[Scalar]) -> List[Scalar]:
    """Exact solve of sum_i c_i x^i = y for each (x, y); nodes distinct."""
    n = len(xs)
    if len(set(xs)) != n:
        raise SingularSystem("repeated interpolation nodes")
    mat = [[xs[r] ** i for i in range(n)] + [ys[r]] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            raise SingularSystem("Vandermonde solve hit a zero pivot")
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [v / pv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]


def interpolate_recover(grid: SignatureGrid, cross_ids: Sequence[int],
                        f: SymSignature, oracle=eval_grid) -> InterpolationRun:
    """Recover the Holant value of a grid containing cross-over tables by
    evaluating it with odd gadget chains in their place and solving the
    resulting Vandermonde system exactly.  Every node of cross_ids must be
    a table node holding crossover_table()."""
    cross = crossover_table()
    for nid in cross_ids:
        node = grid.nodes.get(nid)
        if node is None or node.side != "table" or node.table != cross:
            raise ReductionError(f"node {nid} is not a cross-over table")
    n = len(cross_ids)
    xs = list(islice(gamma_params(f), n + 1))
    vals: List[Scalar] = []
    for x_s in xs:
        sub = grid.copy()
        table = chain_table(x_s, Fraction(1))
        for nid in cross_ids:
            node = sub.nodes[nid]
            sub.nodes[nid] = GridNode(nid, "table", node.slots, table=table)
        vals.append(oracle(sub))
    coeffs = _solve_vandermonde(xs, vals)
    return InterpolationRun(xs, vals, coeffs, coeffs[n])


@dataclass
class SpanCertificate:
    basis: List[List[Scalar]]        # [s, s M]
    eigen_rows: List[List[Scalar]]   # row eigenvectors [1,-y], [1,x]
    target: Optional[List[Scalar]] = None
    combo: Optional[Tuple[Scalar, Scalar]] = None


def _row_eigenvector(M, lam: Scalar) -> List[Scalar]:
    a00, a01 = M.m[0]
    a10, a11 = M.m[1]
    v = [a10, lam - a00]
    if v[0] == 0 and v[1] == 0:
        v = [lam - a11, a01]
    if v[0] == 0 and v[1] == 0:
        raise ReductionError("scalar matrix has no eigen-direction")
    return v


def unary_span_certificate(M, s: Sequence[Scalar],
                       target: Optional[Sequence[Scalar]] = None) -> SpanCertificate:
    """Certificate that {s M^j} spans the unary space: requires M
    non-singular with distinct eigenvalues and s off the row eigenvectors;
    optionally expresses a target unary as c0 s + c1 s M."""
    from .scalars import sqrt_exact, as_fraction
    if M.det() == 0:
        raise ReductionError("singular matrix")
    t, d = M.trace(), M.det()
    disc = t * t - 4 * d
    if disc == 0:
        raise ReductionError("repeated eigenvalues")
    delta = sqrt_exact(as_fraction(disc))
    lam, mu = (t - delta) / 2, (t + delta) / 2
    rows = [_row_eigenvector(M, lam), _row_eigenvector(M, mu)]
    s = list(s)
    for r in rows:
        if s[0] * r[1] == s[1] * r[0]:
            raise EigenvectorInput(f"start vector proportional to {r}")
    sM = M.row_apply(s)
    cert = SpanCertificate([s, sM], rows)
    if target is not None:
        det = s[0] * sM[1] - s[1] * sM[0]
        if det == 0:
            raise EigenvectorInput("basis degenerate")
        t0, t1 = target
        c0 = (t0 * sM[1] - t1 * sM[0]) / det
        c1 = (s[0] * t1 - s[1] * t0) / det
        cert.target = [t0, t1]
        cert.combo = (c0, c1)
    return cert


def degenerate_straddled_table(x: Scalar, y: Scalar) -> Tuple[Scalar, ...]:
    """Table of D = [y,1]^T (x) [1,x] over slots (left-facing, right-facing)."""
    return (y * 1, y * x, Fraction(1), x)


def unary_absorption_transform(grid: SignatureGrid, f: SymSignature, x: Scalar,
                     y: Scalar) -> Tuple[SignatureGrid, Scalar]:
    """Rewrite an incidence grid over [1+ax, a+bx, b+cx] into one over f
    with explicit degenerate-straddled tables, absorbing the leftover
    unary ends three at a time inside matching faces.

    Returns the new grid and the exact factor by which its value exceeds
    the input's.
    """
    fb = connect_unary(f, SymSignature([1, x]))
    lefts = grid.left_nodes()
    for n in lefts:
        if n.sym is None or n.arity != 2 or n.sym.values != fb.values:
            raise ReductionError("left nodes must carry the contracted binary")
    for n in grid.right_nodes():
        if not n.is_equality() or n.arity != 3:
            raise ReductionError("right nodes must be ternary equalities")
    g, edge_map = merge_degree2_left_map(grid)
    match = find_p3em(g)
    if isinstance(match, ExceptionalGraph):
        raise ExceptionalGraphError(match)
    grp = triples(g, match)
    g1 = absorb_g1(y)
    kind, factor1 = ("g1", g1) if g1 != 0 else ("g2", absorb_g2(f, y))
    if factor1 == 0:
        raise ZeroFactor("both absorber factors vanish")
    b = GridBuilder(grid)
    dtab = degenerate_straddled_table(x, y)
    d_end: Dict[int, Tuple[int, int]] = {}
    # replace every binary left node by a ternary f node tied to a
    # degenerate table, leaving its [y,1] end open
    for n in lefts:
        b.nodes[n.id] = GridNode(n.id, "left", ("L", "L", "L"), sym=f)
        did = b.node("table", dtab, slots=("L", "R"))
        b.wire((n.id, 2), (did, 1))
        d_end[edge_map[n.id]] = (did, 0)
    for t in grp:
        wire_absorber(b, kind, f, [d_end[e] for e in t["edges"]])
    return b.grid(), factor1 ** len(grp)


class ExceptionalGraphError(ReductionError):
    def __init__(self, exc: ExceptionalGraph):
        super().__init__(f"underlying graph has exceptional components: {exc.kinds}")
        self.exceptional = exc


# -- the pinned-0 cross-over gadget ---------------------------------------

# the drawing's circles c1..c9 are nodes 0..8 (=3), its squares s1..s9
# nodes 10..18 (exact-one); every node numbers its slots in wire order
_P_WIRES = (
    (0, 13), (13, 6), (0, 10), (10, 1),  # c1-s4-c7 (long bottom run), c1-s1-c2
    (11, 2), (12, 2), (2, 14), (4, 15),  # s2-c3, s3-c3, c3-s5, c5-s6
    (10, 5), (13, 5), (5, 15), (16, 7),  # s1-c6, s4-c6, c6-s6, s7-c8
    (7, 17), (7, 18), (17, 8),           # c8-s8, c8-s9, s8-c9
    (1, 11), (1, 11), (14, 4), (14, 4),  # doubled: c2-s2, s5-c5
    (6, 16), (6, 16), (18, 8), (18, 8),  # doubled: c7-s7, s9-c9
    (12, 3), (12, 3))                    # doubled: s3-c4
_P_DANGLING = (0, 3, 15, 17)   # red left c1, blue left c4, red right s6,
                               # blue right s8


def build_gadget_P() -> SignatureGrid:
    """The 18-vertex pinned-0 cross-over gadget with exact-one on squares
    and =3 on circles; dangling order (red_left, blue_left, red_right,
    blue_right)."""
    nodes = {i: GridNode(i, "right", ("R",) * 3, sym=EQ3) for i in range(9)}
    nodes.update({i: GridNode(i, "left", ("L",) * 3, sym=EXACT_ONE_3)
                  for i in range(10, 19)})
    used = dict.fromkeys(nodes, 0)

    def end(nid):
        used[nid] += 1
        return (nid, used[nid] - 1)
    edges = []
    for u, v in _P_WIRES:
        a, b = end(u), end(v)
        edges.append(a + b if nodes[u].side == "left" else b + a)
    return SignatureGrid(nodes, edges, [end(nid) for nid in _P_DANGLING])


@dataclass
class GadgetPReport:
    table: List[Scalar]
    counts: List[int]
    support_ok: bool
    uniqueness_ok: bool

    def passed(self) -> bool:
        return self.support_ok and self.uniqueness_ok


def verify_P() -> GadgetPReport:
    """Exhaustively check the pinned-0 cross-over properties: value nonzero
    exactly when both blue ends are 0 and the red ends agree, with a unique
    internal assignment in each surviving case."""
    grid = build_gadget_P()
    table = eval_gadget(grid)
    counts = gadget_assignment_counts(grid)
    # row (red_l, blue_l, red_r, blue_r) lives iff the blues are 0 and the
    # reds agree: rows 0b0000 and 0b1010, each with value 1
    live = [idx in (0b0000, 0b1010) for idx in range(16)]
    support_ok = all(v == 1 if e else v == 0 for v, e in zip(table, live))
    uniqueness_ok = all(c == 1 for c, e in zip(counts, live) if e)
    return GadgetPReport(table, counts, support_ok, uniqueness_ok)
