"""Signature grids and exact Holant evaluation by variable elimination.

A grid is a bipartite network: every internal edge joins an L-facing slot
to an R-facing slot.  Left nodes face only L, right nodes only R; table
nodes carry an explicit row-major table and may mix slot sides (straddled
signatures, cross-over).  Symmetric nodes carry a SymSignature.

One contraction, _contract, serves every entry point.  Its variables are
one boolean per right-hand equality node, whose slots all copy it, and one
per remaining internal edge; dangling slots are pinned.  Every other node
is a sparse factor, and the variables are summed out in a greedy
min-degree order (bucket elimination).  HOLANT_MAX_EDGES (default 24) caps
the order's width, the most variables in one table, before any is built.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .plane_graph import _is_ints, _records
from .scalars import Scalar, format_scalar, parse_scalar
from .signatures import SymSignature


DEFAULT_MAX_EDGES = 24


class GridError(ValueError):
    pass


class DanglingPresent(GridError):
    pass


class TooManyEdges(GridError):
    pass


def max_edges_cap() -> int:
    raw = os.environ.get("HOLANT_MAX_EDGES", DEFAULT_MAX_EDGES)
    try:
        return int(raw)
    except ValueError:
        raise GridError(f"HOLANT_MAX_EDGES must be an integer, got {raw!r}") \
            from None


@dataclass
class GridNode:
    id: int
    side: str                      # "left" | "right" | "table"
    slots: Tuple[str, ...]         # per-slot facing, "L" or "R"
    sym: Optional[SymSignature] = None
    table: Optional[Tuple[Scalar, ...]] = None

    def __post_init__(self):
        if self.sym is None and self.table is None:
            raise GridError(f"node {self.id} has no signature")
        if self.sym is not None and not isinstance(self.sym, SymSignature):
            raise GridError(f"node {self.id}: signature must be a SymSignature, "
                            f"not {type(self.sym).__name__}")
        if self.sym is not None and self.sym.arity != self.arity:
            raise GridError(f"node {self.id}: signature arity mismatch")
        if self.table is not None:
            self.table = tuple(Fraction(v) if isinstance(v, int) else v
                               for v in self.table)
            if len(self.table) != 1 << self.arity:
                raise GridError(f"node {self.id}: table size mismatch")

    @property
    def arity(self) -> int:
        return len(self.slots)

    def value(self, bits: Sequence[int]) -> Scalar:
        if self.sym is not None:
            return self.sym[sum(bits)]
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return self.table[idx]

    def is_equality(self) -> bool:
        if self.sym is not None:
            return (self.sym[0] == 1 and self.sym[self.arity] == 1
                    and all(self.sym[k] == 0 for k in range(1, self.arity)))
        return False


@dataclass
class SignatureGrid:
    nodes: Dict[int, GridNode]
    edges: List[Tuple[int, int, int, int]]          # (nodeA, slotA, nodeB, slotB)
    dangling: List[Tuple[int, int]] = field(default_factory=list)  # (node, slot)
    embedding: Optional[Dict[int, Tuple[int, ...]]] = None  # node -> ccw slot order

    def __post_init__(self):
        for n in self.nodes.values():
            bad = {"left": "R", "right": "L"}.get(n.side)
            if bad in n.slots:
                raise GridError(f"{n.side} node {n.id} has a {bad}-facing slot")
        want = {(n, s) for n, node in self.nodes.items() for s in range(node.arity)}
        used = set()
        for (na, sa, nb, sb) in self.edges:
            for key in ((na, sa), (nb, sb)):
                if key not in want:
                    raise GridError(f"edge {(na, sa, nb, sb)}: no slot {key}")
                if key in used:
                    raise GridError(f"slot {key} used twice")
                used.add(key)
            if {self.nodes[na].slots[sa], self.nodes[nb].slots[sb]} != {"L", "R"}:
                raise GridError(f"edge {(na, sa, nb, sb)} is not L-R bipartite")
        for key in self.dangling:
            if key in used:
                raise GridError(f"slot {key} both internal and dangling")
            used.add(key)
        if used != want:
            raise GridError("every slot must be used exactly once")
        if self.embedding is not None:
            if self.embedding.keys() != self.nodes.keys():
                raise GridError("the embedding must list every node and "
                                "no other")
            for nid, order in self.embedding.items():
                if sorted(order) != list(range(self.nodes[nid].arity)):
                    raise GridError(f"the embedding of node {nid} must list "
                                    f"each of its slots once: {list(order)}")

    # -- construction helpers -----------------------------------------

    @staticmethod
    def empty() -> "SignatureGrid":
        return SignatureGrid({}, [])

    def copy(self) -> "SignatureGrid":
        return SignatureGrid(
            {i: GridNode(n.id, n.side, n.slots, n.sym, n.table)
             for i, n in self.nodes.items()},
            list(self.edges), list(self.dangling),
            None if self.embedding is None else dict(self.embedding))

    def left_nodes(self) -> List[GridNode]:
        return [n for n in self.nodes.values() if n.side == "left"]

    def right_nodes(self) -> List[GridNode]:
        return [n for n in self.nodes.values() if n.side == "right"]

    # -- JSON ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for i in sorted(self.nodes):
            n = self.nodes[i]
            rec = {"id": n.id, "side": n.side,
                   "slots": [{"side": s} for s in n.slots]}
            if n.sym is not None:
                rec["symmetric"] = n.sym.to_json()
            else:
                rec["table"] = [format_scalar(v) for v in n.table]
            nodes.append(rec)
        out = {"nodes": nodes,
               "edges": [list(e) for e in self.edges],
               "dangling": [list(d) for d in self.dangling]}
        if self.embedding is not None:
            out["embedding"] = {str(v): list(o) for v, o in self.embedding.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(spec: dict) -> "SignatureGrid":
        nodes = {}
        for rec in _records(spec, "nodes", _is_node_record,
                            "an object with an integer id, a side, a list of "
                            "L/R slots and a list symmetric or table",
                            GridError, "grid"):
            slots = tuple(s["side"] for s in rec["slots"])
            sym = table = None
            if "symmetric" in rec:
                sym = SymSignature.from_json(rec["symmetric"])
            else:
                table = tuple(parse_scalar(v) for v in rec["table"])
            nodes[rec["id"]] = GridNode(rec["id"], rec["side"], slots, sym, table)
        emb = None
        if "embedding" in spec:
            emb = spec["embedding"]
            if not isinstance(emb, dict) or not all(
                    k.lstrip("-").isdigit() and _is_ints(o)
                    for k, o in emb.items()):
                raise GridError("grid JSON 'embedding' must map node ids to "
                                "lists of slot numbers")
            emb = {int(v): tuple(o) for v, o in emb.items()}
        return SignatureGrid(
            nodes,
            [tuple(e) for e in _records(spec, "edges", lambda e: _is_ints(e, 4),
                                        "[node, slot, node, slot]", GridError, "grid")],
            [tuple(d) for d in _records(spec, "dangling", lambda d: _is_ints(d, 2),
                                        "[node, slot]", GridError, "grid", [])],
            emb)

    @staticmethod
    def from_json(text: str) -> "SignatureGrid":
        return SignatureGrid.from_json_dict(json.loads(text))


def _is_node_record(rec) -> bool:
    return (isinstance(rec, dict) and _is_ints([rec.get("id")])
            and rec.get("side") in ("left", "right", "table")
            and isinstance(rec.get("slots"), list)
            and all(isinstance(s, dict) and s.get("side") in ("L", "R")
                    for s in rec["slots"])
            and isinstance(rec.get("symmetric", rec.get("table")), list))


def _compile(grid: SignatureGrid, pin: Dict[Tuple[int, int], int]):
    """The variable count and, per node that is not a right equality, the
    node, its slots' columns and its scope; None if pins conflict.

    Dangling slots read their bit from pin.  A right equality with a pinned
    slot is fixed to that bit.  Every slot compiles to a column: a variable,
    or -2 / -1 for a constant 0 / 1.  SignatureGrid guarantees that an edge
    has at most one right endpoint, so no edge joins two equalities."""
    col: Dict[int, Optional[int]] = {
        n.id: None for n in grid.nodes.values()
        if n.side == "right" and n.is_equality()}
    for (nid, _), b in pin.items():
        if nid in col:
            if col[nid] is not None and col[nid] != b - 2:
                return None
            col[nid] = b - 2
    nbits = 0
    for nid, c in col.items():
        if c is None:
            col[nid] = nbits
            nbits += 1
    at = {key: b - 2 for key, b in pin.items()}
    for (na, sa, nb, sb) in grid.edges:
        c = col[na] if na in col else col.get(nb)
        if c is None:
            c = nbits
            nbits += 1
        at[(na, sa)] = at[(nb, sb)] = c
    factors = []
    for n in grid.nodes.values():
        if n.id not in col:
            cols = [at[(n.id, s)] for s in range(n.arity)]
            factors.append((n, cols, tuple(sorted({c for c in cols if c >= 0}))))
    return nbits, factors


def _contract(grid: SignatureGrid, pin: Dict[Tuple[int, int], int],
              support: bool = False) -> Scalar:
    """Sum over every internal state of the product of node values or, with
    support, the number of states whose product is nonzero (0 if pins
    conflict).  Each node of _compile is a sparse factor {assignment of its
    scope: nonzero value} in the bucket of its first variable in
    elimination order; a bucket's product, that variable summed out, moves
    on the same way, and the last bucket holds the constants."""
    zero, one = (0, 1) if support else (Fraction(0), Fraction(1))
    compiled = _compile(grid, pin)
    if compiled is None:
        return zero
    nbits, factors = compiled
    order, width = _elimination_order(nbits, [f[2] for f in factors])
    cap = max_edges_cap()
    if width > cap:
        raise TooManyEdges(f"elimination width {width} exceeds cap {cap} "
                           "(HOLANT_MAX_EDGES)")
    pos = {v: i for i, v in enumerate(order)}
    buckets: List[list] = [[] for _ in range(nbits + 1)]

    def place(scope, table):
        buckets[min((pos[v] for v in scope), default=nbits)].append((scope, table))

    for n, cols, scope in factors:
        table = {}
        for key in product((0, 1), repeat=len(scope)):
            value = n.value([key[scope.index(c)] if c >= 0 else c + 2
                             for c in cols])
            if value != 0:
                table[key] = 1 if support else value
        place(scope, table)
    for v, bucket in zip(order, buckets):
        scope = (v,) + tuple(sorted({u for f, _ in bucket for u in f} - {v}))
        picks = [([scope.index(u) for u in f], table) for f, table in bucket]
        summed: Dict[tuple, Scalar] = {}
        for key in product((0, 1), repeat=len(scope)):
            value = one
            for idx, table in picks:
                w = table.get(tuple(key[i] for i in idx))
                if w is None:
                    break
                value = value * w
            else:
                rest = key[1:]
                summed[rest] = summed[rest] + value if rest in summed else value
        place(scope[1:], {k: x for k, x in summed.items() if x != 0})
    result = one
    for _, table in buckets[nbits]:
        result = result * table.get((), zero)
    return result


def _elimination_order(nbits: int, scopes: List[Tuple[int, ...]]):
    """Greedy min-degree order of the variables (ties to the lower index)
    and its width: the most variables in one bucket's table, the one summed
    out included."""
    adj: Dict[int, set] = {v: set() for v in range(nbits)}
    for scope in scopes:
        for v in scope:
            adj[v].update(scope)
            adj[v].discard(v)
    order, width = [], 0
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        near = adj.pop(v)
        order.append(v)
        width = max(width, len(near) + 1)
        for u in near:
            adj[u] |= near - {u}
            adj[u].discard(v)
    return order, width


def elimination_width(grid: SignatureGrid) -> int:
    """Width of the elimination order eval_grid uses on grid, the number
    HOLANT_MAX_EDGES caps (dangling slots count as pinned)."""
    nbits, factors = _compile(grid, dict.fromkeys(grid.dangling, 0))
    return _elimination_order(nbits, [f[2] for f in factors])[1]


def _pins(grid: SignatureGrid) -> Iterator[Dict[Tuple[int, int], int]]:
    """Every assignment of the dangling slots, row-major in grid.dangling."""
    for ext in product((0, 1), repeat=len(grid.dangling)):
        yield dict(zip(grid.dangling, ext))


def eval_grid(grid: SignatureGrid) -> Scalar:
    """Exact Holant value: sum over all internal states of the product of
    node values."""
    if grid.dangling:
        raise DanglingPresent("grid has dangling slots")
    return _contract(grid, {})


def eval_collapsed(grid: SignatureGrid) -> Scalar:
    """eval_grid, after checking that every right node is an equality and
    every other node is a left node."""
    rights = grid.right_nodes()
    if (not rights or not all(n.is_equality() for n in rights)
            or len(rights) + len(grid.left_nodes()) != len(grid.nodes)):
        raise GridError("collapsed evaluation needs all right nodes = equality")
    return eval_grid(grid)


def eval_gadget(grid: SignatureGrid) -> List[Scalar]:
    """Signature table of a gadget: one value per assignment of the dangling
    slots, row-major in the order of grid.dangling."""
    if not grid.dangling:
        raise GridError("eval_gadget expects dangling slots")
    return [_contract(grid, pin) for pin in _pins(grid)]


def gadget_assignment_counts(grid: SignatureGrid) -> List[int]:
    """Number of internal edge assignments with a nonzero product, per
    external assignment (same order as eval_gadget).  Edges that disagree
    at an equality give product 0, so these are the nonzero states."""
    return [_contract(grid, pin, support=True) for pin in _pins(grid)]
