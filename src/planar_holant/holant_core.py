"""Signature grids and exact brute-force Holant evaluation.

A grid is a bipartite network: every internal edge joins an L-facing slot
to an R-facing slot.  Left nodes face only L, right nodes only R; table
nodes carry an explicit row-major table and may mix slot sides (straddled
signatures, cross-over).  Symmetric nodes carry a SymSignature.

One evaluator, _terms, serves every entry point.  Its state has one
boolean per right-hand equality node, whose slots all copy it, and one per
remaining internal edge; dangling slots are pinned.  HOLANT_MAX_EDGES
(default 24) caps the number of these free variables, so a grid whose
right nodes are all equalities costs 2^#right whatever its edge count.
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


def _terms(grid: SignatureGrid,
           pin: Dict[Tuple[int, int], int]) -> Iterator[Scalar]:
    """Yield the product of node values for every internal state.

    Dangling slots read their bit from pin.  A right equality with a pinned
    slot is fixed to that bit (conflicting pins yield nothing).  Every slot
    compiles to an index into bits + (0, 1): a free variable's position, or
    -2 / -1 for a constant 0 / 1.  SignatureGrid guarantees that an edge
    has at most one right endpoint, so no edge joins two equalities."""
    col: Dict[int, Optional[int]] = {
        n.id: None for n in grid.nodes.values()
        if n.side == "right" and n.is_equality()}
    for (nid, _), b in pin.items():
        if nid in col:
            if col[nid] is not None and col[nid] != b - 2:
                return
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
    cap = max_edges_cap()
    if nbits > cap:
        raise TooManyEdges(f"{nbits} free variables exceeds cap {cap}")
    others = [(n.value, [at[(n.id, s)] for s in range(n.arity)])
              for n in grid.nodes.values() if n.id not in col]
    for bits in product((0, 1), repeat=nbits):
        bits += (0, 1)
        term: Scalar = Fraction(1)
        for value, cols in others:
            term = term * value([bits[c] for c in cols])
            if term == 0:
                break
        yield term


def _pins(grid: SignatureGrid) -> Iterator[Dict[Tuple[int, int], int]]:
    """Every assignment of the dangling slots, row-major in grid.dangling."""
    for ext in product((0, 1), repeat=len(grid.dangling)):
        yield dict(zip(grid.dangling, ext))


def eval_grid(grid: SignatureGrid) -> Scalar:
    """Exact Holant value: sum over all internal states of the product of
    node values."""
    if grid.dangling:
        raise DanglingPresent("grid has dangling slots")
    return sum(_terms(grid, {}), Fraction(0))


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
    return [sum(_terms(grid, pin), Fraction(0)) for pin in _pins(grid)]


def gadget_assignment_counts(grid: SignatureGrid) -> List[int]:
    """Number of internal edge assignments with a nonzero product, per
    external assignment (same order as eval_gadget).  Edges that disagree
    at an equality give product 0, so these are the nonzero states."""
    return [sum(1 for t in _terms(grid, pin) if t != 0) for pin in _pins(grid)]
