"""Gadget constructions evaluated as signature grids.

Every operation here builds the corresponding planar bipartite fragment
and contracts it exactly with the variable-elimination evaluator; closed
forms from the derivations serve as test oracles only.  Square vertices
carry the ternary signature under study, circles carry =3, triangles are
unary stand-ins for halves of the degenerate straddled signature.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple

from .holant_core import GridNode, SignatureGrid, eval_gadget, eval_grid
from .scalars import Scalar
from .signatures import (EQ3, NormalizationZero, StraddledMatrix,
                         SymSignature)


class GridBuilder:
    """Incremental grid assembly, empty or on a grid's nodes, edges and
    dangling slots without its embedding, in fresh containers that share
    the grid's GridNode objects (nothing mutates one): nodes get explicit
    slot lists and fresh ids; wire() links two (node, slot) ends;
    remaining slots dangle in given order."""

    def __init__(self, grid: Optional[SignatureGrid] = None):
        grid = SignatureGrid.empty() if grid is None else grid
        self.nodes, self.edges = dict(grid.nodes), list(grid.edges)
        self.dangling = list(grid.dangling)
        self.next_id = max(self.nodes, default=-1) + 1

    def node(self, side: str, sig, slots=None) -> int:
        nid = self.next_id
        self.next_id += 1
        if slots is None:
            slots = ("L" if side == "left" else "R",) * sig.arity
        if isinstance(sig, SymSignature):
            self.nodes[nid] = GridNode(nid, side, tuple(slots), sym=sig)
        else:
            self.nodes[nid] = GridNode(nid, side, tuple(slots), table=tuple(sig))
        return nid

    def wire(self, a: Tuple[int, int], b: Tuple[int, int]) -> None:
        self.edges.append((a[0], a[1], b[0], b[1]))

    def dangle(self, *ends: Tuple[int, int]) -> None:
        self.dangling.extend(ends)

    def grid(self) -> SignatureGrid:
        return SignatureGrid(self.nodes, self.edges, self.dangling)


def _as_matrix(table: Sequence[Scalar]) -> StraddledMatrix:
    return StraddledMatrix([[table[0], table[1]], [table[2], table[3]]])


def gadget_G1(f: SymSignature) -> StraddledMatrix:
    """Square-circle pair joined by a double edge; rows index the square's
    dangling slot, columns the circle's.  Equals [[f0,f2],[f1,f3]]."""
    b = GridBuilder()
    sq = b.node("left", f)
    ci = b.node("right", EQ3)
    b.wire((sq, 1), (ci, 1))
    b.wire((sq, 2), (ci, 2))
    b.dangle((sq, 0), (ci, 0))
    return _as_matrix(eval_gadget(b.grid()))


def gadget_G2(f: SymSignature) -> StraddledMatrix:
    """Four-node cycle with a doubled lower edge (square dangling = row,
    circle dangling = column)."""
    b = GridBuilder()
    s1 = b.node("left", f)
    c1 = b.node("right", EQ3)
    s2 = b.node("left", f)
    c2 = b.node("right", EQ3)
    b.wire((s1, 1), (c1, 1))
    b.wire((c1, 2), (s2, 0))
    b.wire((s2, 1), (c2, 0))
    b.wire((s2, 2), (c2, 1))
    b.wire((c2, 2), (s1, 2))
    b.dangle((s1, 0), (c1, 0))
    return _as_matrix(eval_gadget(b.grid()))


def gadget_G3(f: SymSignature) -> SymSignature:
    """Ternary gadget: three dangling squares meeting a central square
    through three circles; output on the left side."""
    b = GridBuilder()
    q = [b.node("left", f) for _ in range(3)]   # dangling squares
    mid = b.node("left", f)
    c0 = b.node("right", EQ3)   # joins q0, q1, mid
    cl = b.node("right", EQ3)   # joins q0, q2, mid
    cr = b.node("right", EQ3)   # joins q1, q2, mid
    b.wire((q[0], 1), (c0, 0))
    b.wire((q[1], 1), (c0, 1))
    b.wire((mid, 0), (c0, 2))
    b.wire((q[0], 2), (cl, 0))
    b.wire((q[2], 1), (cl, 1))
    b.wire((mid, 1), (cl, 2))
    b.wire((q[1], 2), (cr, 0))
    b.wire((q[2], 2), (cr, 1))
    b.wire((mid, 2), (cr, 2))
    b.dangle((q[0], 0), (q[1], 0), (q[2], 0))
    table = eval_gadget(b.grid())
    return _sym_from_table(table, 3)


def _sym_from_table(table: Sequence[Scalar], arity: int) -> SymSignature:
    vals: List[Scalar] = [None] * (arity + 1)
    for idx, v in enumerate(table):
        w = bin(idx).count("1")
        if vals[w] is None:
            vals[w] = v
        elif vals[w] != v:
            raise ValueError("gadget table is not symmetric")
    return SymSignature(vals)


def _component_A(f: SymSignature) -> List[List[Scalar]]:
    """4x4 matrix of component A: one square over one circle, one shared
    edge; rows = (top-left, bottom-left), cols = (top-right, bottom-right)."""
    b = GridBuilder()
    sq = b.node("left", f)
    ci = b.node("right", EQ3)
    b.wire((sq, 1), (ci, 1))
    b.dangle((sq, 0), (ci, 0), (sq, 2), (ci, 2))
    # dangling order tl, bl, tr, br: row (tl, bl), column (tr, br)
    t = eval_gadget(b.grid())
    return [list(t[i:i + 4]) for i in range(0, 16, 4)]


def _flip_ud(m: List[List[Scalar]]) -> List[List[Scalar]]:
    """Up-down flip: swap the middle two rows and columns."""
    perm = (0, 2, 1, 3)
    return [[m[perm[i]][perm[j]] for j in range(4)] for i in range(4)]


def _mat4_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(4)), Fraction(0))
             for j in range(4)] for i in range(4)]


def factor_AB(f: SymSignature) -> Tuple[List[List[Scalar]], List[List[Scalar]]]:
    A = _component_A(f)
    return A, _flip_ud(A)


def gadget_G4(f: SymSignature) -> Tuple[List[List[Scalar]], Scalar]:
    """Cross-over interpolation gadget for f = [1,a,1,a]: the normalized
    4x4 matrix (pattern z on the cross-over support, 1 elsewhere) and z.

    Raises NormalizationZero when a + a^2 = 0.
    """
    a = f[1]
    if f.values != (1, a, 1, a):
        raise ValueError("G4 expects [1,a,1,a]")
    norm = a + a * a
    if norm == 0:
        raise NormalizationZero("a + a^2 = 0")
    A, B = factor_AB(f)
    raw = _mat4_mul(_mat4_mul(A, B), A)
    z = raw[0][0] / norm
    return [[v / norm for v in row] for row in raw], z


def crossover_pattern(x: Scalar) -> List[List[Scalar]]:
    """Matrix with x on the cross-over support and 1 elsewhere."""
    one = Fraction(1)
    m = [[one] * 4 for _ in range(4)]
    for (i, j) in ((0, 0), (1, 2), (2, 1), (3, 3)):
        m[i][j] = x
    return m


def gamma_params(f: SymSignature) -> Iterator[Scalar]:
    """The pattern parameters x_0, x_1, ... of the (2s+1)-fold chains of
    cross-over gadgets, from one evaluation of G4: x_0 = z and x_{s+1} =
    (6 + 6z + 3x_s + z^2 x_s) / (7 + 4z + z^2 + 2x_s + 2z x_s)."""
    _, z = gadget_G4(f)
    x = z
    while True:
        yield x
        x = (6 + 6 * z + 3 * x + z * z * x) / (7 + 4 * z + z * z + 2 * x + 2 * z * x)


def gamma_chain(f: SymSignature, s: int) -> Tuple[List[List[Scalar]], Scalar]:
    """Normalized signature matrix of the (2s+1)-fold chain of cross-over
    gadgets, crossover_pattern(x_s), and x_s (oracle: gamma_chain_by_power)."""
    x = next(islice(gamma_params(f), s, None))
    return crossover_pattern(x), x


def gamma_chain_by_power(f: SymSignature, s: int) -> List[List[Scalar]]:
    """Same matrix through explicit (normalized) matrix powers; oracle."""
    g4, _ = gadget_G4(f)
    m = g4
    for _ in range(s):
        m = _mat4_mul(_mat4_mul(m, g4), g4)
    # normalize so off-pattern entries are 1
    c = m[0][1]
    if c == 0:
        raise NormalizationZero("off-pattern entry vanished")
    return [[v / c for v in row] for row in m]


def nonlinearity_gadget(f: SymSignature, y: Scalar) -> SymSignature:
    """Unary output [y^2 + y b, y a + c] on the right side, built from one
    square between two circles with [y,1] stand-ins on the circles."""
    b = GridBuilder()
    u = SymSignature([y, 1])
    c1 = b.node("right", EQ3)
    sq = b.node("left", f)
    c2 = b.node("right", EQ3)
    t1 = b.node("left", u)
    t2 = b.node("left", u)
    b.wire((t1, 0), (c1, 0))
    b.wire((sq, 0), (c1, 1))
    b.wire((sq, 1), (c1, 2))
    b.wire((sq, 2), (c2, 0))
    b.wire((t2, 0), (c2, 1))
    b.dangle((c2, 2))
    table = eval_gadget(b.grid())
    return SymSignature(table)


def wire_absorber(b: GridBuilder, kind: str, f: Optional[SymSignature],
                  ends: Sequence[Tuple[int, int]]) -> None:
    """Wire absorber 'g1' or 'g2' onto three L-facing ends of b: g1 is one
    circle on all three; g2 is a circle on the first two, tied to a square
    whose doubled edge meets a circle on the third."""
    if kind == "g1":
        c = b.node("right", EQ3)
        for s, end in enumerate(ends):
            b.wire(end, (c, s))
        return
    ca = b.node("right", EQ3)
    sq = b.node("left", f)
    cb = b.node("right", EQ3)
    b.wire(ends[0], (ca, 0))
    b.wire(ends[1], (ca, 1))
    b.wire((sq, 0), (ca, 2))
    b.wire((sq, 1), (cb, 0))
    b.wire((sq, 2), (cb, 1))
    b.wire(ends[2], (cb, 2))


def _absorb(kind: str, f: Optional[SymSignature], y: Scalar) -> Scalar:
    """Factor of one absorber on a triple of [y,1] ends."""
    b = GridBuilder()
    u = SymSignature([y, 1])
    wire_absorber(b, kind, f, [(b.node("left", u), 0) for _ in range(3)])
    return eval_grid(b.grid())


def absorb_g1(y: Scalar) -> Scalar:
    """g1 on [y,1] ends: factor y^3 + 1."""
    return _absorb("g1", None, y)


def absorb_g2(f: SymSignature, y: Scalar) -> Scalar:
    """g2 on [y,1] ends: factor y^3 + b y^2 + a y + c for f = [1,a,b,c]."""
    return _absorb("g2", f, y)


def absorb_f1(f: SymSignature, x: Scalar) -> Scalar:
    """One square with three [1,x] ends: c x^3 + 3 b x^2 + 3 a x + 1."""
    b = GridBuilder()
    u = SymSignature([1, x])
    sq = b.node("left", f)
    for s in range(3):
        t = b.node("right", u, slots=("R",))
        b.wire((sq, s), (t, 0))
    return eval_grid(b.grid())


def absorb_f2(f: SymSignature, x: Scalar) -> Scalar:
    b = GridBuilder()
    u = SymSignature([1, x])
    s1 = b.node("left", f)
    s2 = b.node("left", f)
    c = b.node("right", EQ3)
    for s in (0, 1):
        t = b.node("right", u, slots=("R",))
        b.wire((s1, s), (t, 0))
    b.wire((s1, 2), (c, 0))
    b.wire((s2, 0), (c, 1))
    b.wire((s2, 1), (c, 2))
    t = b.node("right", u, slots=("R",))
    b.wire((s2, 2), (t, 0))
    return eval_grid(b.grid())


def absorb_f3(f: SymSignature, x: Scalar) -> Scalar:
    b = GridBuilder()
    u = SymSignature([1, x])
    s1 = b.node("left", f)
    s2 = b.node("left", f)
    s3 = b.node("left", f)
    c1 = b.node("right", EQ3)
    c2 = b.node("right", EQ3)
    b.wire((s1, 0), (c1, 0))
    b.wire((s1, 1), (c1, 1))
    b.wire((s1, 2), (c2, 0))
    b.wire((c1, 2), (s2, 0))
    for s in (1, 2):
        t = b.node("right", u, slots=("R",))
        b.wire((s2, s), (t, 0))
    b.wire((c2, 1), (s3, 0))
    b.wire((c2, 2), (s3, 1))
    t = b.node("right", u, slots=("R",))
    b.wire((s3, 2), (t, 0))
    return eval_grid(b.grid())
