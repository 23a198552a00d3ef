"""Dichotomy classification of rational ternary signatures.

classify() decides, for f = [f0,f1,f2,f3], which of the five tractable
classes apply on planar instances (degenerate, generalized equality,
affine, matchgate form, the perfect-matching-reducible linear family) and
reports the general-graph verdict alongside; anything matching none of
them is #P-hard already on planar grids.  Overlapping classes are all
reported, lowest-numbered first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional

from .scalars import Scalar, format_scalar
from .signatures import (StraddledMatrix, SymSignature, sig_is_degenerate,
                         works, works_diagnostics)
from . import solvers
from .solvers import AFFINE_PATTERNS, affine_family_of


class InconsistentCase(ValueError):
    pass


@dataclass
class CaseMatch:
    case: int
    params: Dict[str, Scalar]
    family: Optional[str] = None


@dataclass
class Verdict:
    planar_fp: bool
    general_fp: bool
    cases: List[CaseMatch]
    normalization: Dict[str, object]
    diagnostics: Dict[str, object] = field(default_factory=dict)

    @property
    def primary(self) -> Optional[CaseMatch]:
        return self.cases[0] if self.cases else None

    def to_json_dict(self) -> dict:
        out = {
            "planar": "FP" if self.planar_fp else "#P-hard",
            "general": "FP" if self.general_fp else "#P-hard",
            "cases": [],
            "normalization": self.normalization,
        }
        for m in self.cases:
            rec = {"case": m.case,
                   "params": {k: format_scalar(v) for k, v in m.params.items()}}
            if m.family:
                rec["family"] = m.family
            out["cases"].append(rec)
        if self.cases:
            out["case"] = self.cases[0].case
            for k, v in self.cases[0].params.items():
                out[k] = format_scalar(v)
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


def _matches(f: SymSignature) -> List[CaseMatch]:
    f0, f1, f2, f3 = f.values
    out: List[CaseMatch] = []
    if sig_is_degenerate(f):
        if f0 != 0:
            params = {"scale": f0, "u0": Fraction(1), "u1": f1 / f0}
        elif f3 != 0:   # degenerate with f0 = 0 forces [0,0,0,f3]
            params = {"scale": f3, "u0": Fraction(0), "u1": Fraction(1)}
        else:
            params = {"scale": Fraction(0), "u0": Fraction(1), "u1": Fraction(0)}
        out.append(CaseMatch(1, params))
    if f1 == 0 and f2 == 0:
        out.append(CaseMatch(2, {"a": f0, "b": f3}))
    fam = affine_family_of(f)
    if fam is not None:
        out.append(CaseMatch(3, {"a": fam[1]}, family=fam[0]))
    if f0 == f3 and f1 == f2:
        out.append(CaseMatch(4, {"a": f0, "b": f1, "sign": Fraction(1)}))
    elif f0 == -f3 and f1 == -f2:
        out.append(CaseMatch(4, {"a": f0, "b": f1, "sign": Fraction(-1)}))
    if f2 == -f0 - 2 * f1 and f3 == 2 * f0 + 3 * f1:
        a = (f0 + f3) / 6
        b = (f0 - f3) / 2
        out.append(CaseMatch(5, {"a": a, "b": b}))
    out.sort(key=lambda m: m.case)
    return out


def classify(f: SymSignature) -> Verdict:
    """Theorem-level dichotomy for a rational ternary signature."""
    if f.arity != 3:
        raise ValueError("ternary signature expected")
    matches = _matches(f)
    planar_fp = bool(matches)
    general_fp = any(m.case in (1, 2, 3) for m in matches)
    norm = {"scale": "1", "flipped": False}
    diag: Dict[str, object] = {}
    if not planar_fp:
        g1 = StraddledMatrix([[f.values[0], f.values[2]],
                              [f.values[1], f.values[3]]])
        diag["g1_works"] = works(g1)
        diag["g1_conditions"] = works_diagnostics(g1)
        from .gadgets import gadget_G2
        g2 = gadget_G2(f)
        diag["g2_works"] = works(g2)
        diag["g2_conditions"] = works_diagnostics(g2)
    return Verdict(planar_fp, general_fp, matches, norm, diag)


def classify_binary(g: SymSignature) -> bool:
    """Binary dichotomy: True when [b0,b1,b2] is tractable with =3 on the
    right.  Normalized form [a,1,b]: tractable iff ab = 1, (a,b) = (1,-1)
    or (-1,1), or a = b; b1 = 0 is a generalized equality."""
    if g.arity != 2:
        raise ValueError("binary signature expected")
    b0, b1, b2 = g.values
    if b1 == 0:
        return True
    a, b = b0 / b1, b2 / b1
    return a * b == 1 or (a, b) == (1, -1) or (a, b) == (-1, 1) or a == b


def extract_params(f: SymSignature, case: int) -> Dict[str, Scalar]:
    """Parameters for the solver of the given case; raises when the case
    predicate does not hold or reconstruction fails."""
    for m in _matches(f):
        if m.case == case:
            params = dict(m.params)
            if m.family:
                params["family"] = m.family
            if _CASES[case].values(params) != f.values:
                raise InconsistentCase(f"case {case} params fail round-trip")
            return params
    raise InconsistentCase(f"signature does not match case {case}")


class _Case(NamedTuple):
    values: Callable    # params -> the signature values they stand for
    solve: Callable     # (grid, params) -> Holant value


# one row per case: extract_params checks values(params) against f (the
# round trip); solvers are looked up on the module at call time so that
# rebinding a solver there takes effect
_CASES = {
    1: _Case(lambda p: tuple(p["scale"] * p["u0"] ** (3 - i) * p["u1"] ** i
                             for i in range(4)),
             lambda g, p: solvers.solve_degenerate(g, [p["u0"], p["u1"]],
                                                   p["scale"])),
    2: _Case(lambda p: (p["a"], 0, 0, p["b"]),
             lambda g, p: solvers.solve_geneq(g, p["a"], p["b"])),
    3: _Case(lambda p: tuple(p["a"] * x for x in AFFINE_PATTERNS[p["family"]]),
             lambda g, p: solvers.solve_affine(g, p["family"], p["a"])),
    4: _Case(lambda p: (p["a"], p["b"], p["sign"] * p["b"], p["sign"] * p["a"]),
             lambda g, p: solvers.solve_matchgate(g, p["a"], p["b"],
                                                  1 if p["sign"] == 1 else -1)),
    5: _Case(lambda p: (3 * p["a"] + p["b"], -p["a"] - p["b"], -p["a"] + p["b"],
                        3 * p["a"] - p["b"]),
             lambda g, p: solvers.solve_case5(g, p["a"], p["b"])),
}


def solve_case(grid, f: SymSignature, case: int) -> Scalar:
    """Run the solver of the given case on the grid; raises
    InconsistentCase when f is not in that case."""
    params = extract_params(f, case)
    return _CASES[case].solve(grid, params)


def dispatch_solve(grid, f: SymSignature) -> Scalar:
    """Classify f and run the matching tractable solver on the grid."""
    v = classify(f)
    if not v.planar_fp:
        raise solvers.WrongForm("signature is #P-hard on planar grids")
    return solve_case(grid, f, v.primary.case)
