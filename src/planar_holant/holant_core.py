"""Signature grids and exact Holant evaluation by variable elimination.

A grid is a bipartite network: every internal edge joins an L-facing slot
to an R-facing slot.  Left nodes face only L, right nodes only R; table
nodes carry an explicit row-major table and may mix slot sides (straddled
signatures, cross-over).  Symmetric nodes carry a SymSignature.

One contraction, _contract, serves every entry point.  Its variables are
one boolean per right-hand equality node without a dangling slot, whose
slots all copy it, one per remaining internal edge and one per dangling
slot.  Every other node is a sparse factor, and all but the dangling
slots' variables are summed out in a greedy min-degree order (bucket
elimination); a gadget's whole table is read off the last bucket.
HOLANT_MAX_EDGES (default 24) caps the order's width, the most variables
in one table, kept ones included, before any is built.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

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

    def left_nodes(self) -> List[GridNode]:
        return [n for n in self.nodes.values() if n.side == "left"]

    def right_nodes(self) -> List[GridNode]:
        return [n for n in self.nodes.values() if n.side == "right"]

    # -- JSON ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Each signature object and each distinct table is encoded once;
        the records that carry it share the one list."""
        syms: Dict[int, list] = {}
        tables: Dict[tuple, list] = {}
        nodes = []
        for i in sorted(self.nodes):
            n = self.nodes[i]
            rec = {"id": n.id, "side": n.side,
                   "slots": [{"side": s} for s in n.slots]}
            if n.sym is not None:
                rec["symmetric"] = syms.get(id(n.sym)) or syms.setdefault(
                    id(n.sym), n.sym.to_json())
            else:
                rec["table"] = tables.get(n.table) or tables.setdefault(
                    n.table, [format_scalar(v) for v in n.table])
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
        """A node id may appear once.  Each distinct all-string symmetric
        record is parsed once; a record with a non-string entry is parsed
        every time, so that no key conflates true with 1."""
        nodes = {}
        parsed: Dict[tuple, SymSignature] = {}
        for rec in _records(spec, "nodes", _is_node_record,
                            "an object with an integer id, a side, a list of "
                            "L/R slots and a list symmetric or table",
                            GridError, "grid"):
            if rec["id"] in nodes:
                raise GridError(f"node {rec['id']} appears twice in the grid")
            slots = tuple(s["side"] for s in rec["slots"])
            sym = table = None
            if "symmetric" in rec:
                key = tuple(rec["symmetric"])
                if all(type(v) is str for v in key):
                    if key not in parsed:
                        parsed[key] = SymSignature.from_json(key)
                    sym = parsed[key]
                else:
                    sym = SymSignature.from_json(key)
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


def _compile(grid: SignatureGrid):
    """The variable count, the number k of kept variables and the factors.
    A right equality without a dangling slot is one variable, which all its
    slots copy; every other internal edge is one; the last k are kept, one
    per dangling slot in grid.dangling order.  Every other node is a factor
    (node, its slots' variables, scope).  SignatureGrid guarantees that no
    edge joins two equalities."""
    open_nodes = {nid for nid, _ in grid.dangling}
    col = {nid: i for i, nid in enumerate(
        n.id for n in grid.nodes.values() if n.side == "right"
        and n.is_equality() and n.id not in open_nodes)}
    nbits = len(col)
    at: Dict[Tuple[int, int], int] = {}
    for (na, sa, nb, sb) in grid.edges:
        c = col[na] if na in col else col.get(nb)
        if c is None:
            c = nbits
            nbits += 1
        at[(na, sa)] = at[(nb, sb)] = c
    for key in grid.dangling:
        at[key] = nbits
        nbits += 1
    factors = []
    for n in grid.nodes.values():
        if n.id not in col:
            cols = [at[(n.id, s)] for s in range(n.arity)]
            factors.append((n, cols, tuple(sorted(set(cols)))))
    return nbits, len(grid.dangling), factors


def _contract(grid: SignatureGrid, support: bool = False) -> List[Scalar]:
    """Per assignment of the kept variables, row-major (one entry if there
    are none), the sum over the others of the product of node values or,
    with support, the number of nonzero products.  Each node of _compile is
    a sparse factor {assignment of its scope: nonzero value} in the bucket
    of its first variable in elimination order; a bucket's product, that
    variable summed out, moves on the same way, and the last bucket is
    joined over the kept variables."""
    zero, one = (0, 1) if support else (Fraction(0), Fraction(1))
    nbits, kept, factors = _compile(grid)
    order, width = _elimination_order(nbits, [f[2] for f in factors], kept)
    cap = max_edges_cap()
    if width > cap:
        raise TooManyEdges(f"elimination width {width} exceeds cap {cap} "
                           "(HOLANT_MAX_EDGES)")
    pos = {v: i for i, v in enumerate(order)}
    pos.update(dict.fromkeys(range(nbits - kept, nbits), len(order)))
    buckets: List[list] = [[] for _ in range(len(order) + 1)]

    def place(scope, table):
        buckets[min((pos[v] for v in scope), default=len(order))].append(
            (scope, table))

    def join(scope, bucket, cut):
        """The bucket's product, the first cut variables of scope summed."""
        picks = [([scope.index(u) for u in f], table) for f, table in bucket]
        out: Dict[tuple, Scalar] = {}
        for key in product((0, 1), repeat=len(scope)):
            value = one
            for idx, table in picks:
                w = table.get(tuple(key[i] for i in idx))
                if w is None:
                    break
                value = value * w
            else:
                rest = key[cut:]
                out[rest] = out[rest] + value if rest in out else value
        return out

    for n, cols, scope in factors:
        table = {}
        for key in product((0, 1), repeat=len(scope)):
            value = n.value([key[scope.index(c)] for c in cols])
            if value != 0:
                table[key] = 1 if support else value
        place(scope, table)
    for v, bucket in zip(order, buckets):
        scope = (v,) + tuple(sorted({u for f, _ in bucket for u in f} - {v}))
        summed = join(scope, bucket, 1)
        place(scope[1:], {k: x for k, x in summed.items() if x != 0})
    table = join(tuple(range(nbits - kept, nbits)), buckets[-1], 0)
    return [table.get(key, zero) for key in product((0, 1), repeat=kept)]


def _elimination_order(nbits: int, scopes: List[Tuple[int, ...]], kept: int):
    """Greedy min-degree order of all but the last kept variables (ties to
    the lower index) and its width: the most variables in one table, the
    kept ones' last table included."""
    nsum = nbits - kept
    adj: Dict[int, set] = {v: set() for v in range(nsum)}
    for scope in scopes:
        for v in scope:
            if v < nsum:
                adj[v].update(scope)
                adj[v].discard(v)
    order, width = [], kept
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        near = adj.pop(v)
        order.append(v)
        width = max(width, len(near) + 1)
        for u in near:
            if u < nsum:
                adj[u] |= near - {u}
                adj[u].discard(v)
    return order, width


def elimination_width(grid: SignatureGrid) -> int:
    """Width of the elimination order _contract uses on grid, the number
    HOLANT_MAX_EDGES caps; a dangling slot's kept variable counts."""
    nbits, kept, factors = _compile(grid)
    return _elimination_order(nbits, [f[2] for f in factors], kept)[1]


def eval_grid(grid: SignatureGrid) -> Scalar:
    """Exact Holant value: sum over all internal states of the product of
    node values."""
    if grid.dangling:
        raise DanglingPresent("grid has dangling slots")
    return _contract(grid)[0]


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
    return _contract(grid)


def gadget_assignment_counts(grid: SignatureGrid) -> List[int]:
    """Number of internal edge assignments with a nonzero product, per
    external assignment (same order as eval_gadget).  Edges that disagree
    at an equality give product 0, so these are the nonzero states."""
    return _contract(grid, support=True)
