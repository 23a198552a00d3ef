"""Symmetric signatures, 2x2 straddled matrices and their exact algebra.

A symmetric signature of arity n is the value list [f0..fn] indexed by
input Hamming weight.  Straddled 2x2 matrices represent binary gadgets
with one slot facing each side of the bipartition; their eigen-quantities
may live in a quadratic extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

from .scalars import (Scalar, as_fraction, format_scalar, parse_scalar,
                      sqrt_exact)


class ZeroSubdiagonal(ValueError):
    pass


class NormalizationZero(ValueError):
    pass


def _coerce(values) -> List[Scalar]:
    out = []
    for v in values:
        if isinstance(v, int):
            v = Fraction(v)
        out.append(v)
    return out


@dataclass(frozen=True)
class SymSignature:
    """Symmetric signature [f0..fn]; value depends only on input weight."""

    values: Tuple[Scalar, ...]

    def __init__(self, values: Sequence):
        object.__setattr__(self, "values", tuple(_coerce(values)))
        if self.arity < 1:
            raise ValueError("arity must be >= 1")

    @property
    def arity(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, w: int) -> Scalar:
        return self.values[w]

    def scale(self, c) -> "SymSignature":
        return SymSignature([c * v for v in self.values])

    def reversed(self) -> "SymSignature":
        return SymSignature(list(reversed(self.values)))

    def to_json(self):
        return [format_scalar(v) for v in self.values]

    @staticmethod
    def from_json(vals) -> "SymSignature":
        return SymSignature([parse_scalar(v) for v in vals])

    def __repr__(self):
        return "[" + ",".join(str(v) for v in self.values) + "]"


EQ3 = SymSignature([1, 0, 0, 1])
EXACT_ONE_3 = SymSignature([0, 1, 0, 0])


@dataclass(frozen=True)
class StraddledMatrix:
    """2x2 signature matrix of a binary straddled gadget.

    Row index = value on the slot facing one side, column index = the
    other; composition by merging slots is matrix product.
    """

    m: Tuple[Tuple[Scalar, Scalar], Tuple[Scalar, Scalar]]

    def __init__(self, rows):
        r0, r1 = rows
        object.__setattr__(self, "m", (tuple(_coerce(r0)), tuple(_coerce(r1))))

    def __getitem__(self, ij):
        return self.m[ij[0]][ij[1]]

    def trace(self) -> Scalar:
        return self.m[0][0] + self.m[1][1]

    def det(self) -> Scalar:
        return self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]

    def mul(self, other: "StraddledMatrix") -> "StraddledMatrix":
        a, b = self.m, other.m
        return StraddledMatrix([
            [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
        ])

    def apply(self, v: Sequence) -> List[Scalar]:
        """Matrix times column vector."""
        v = _coerce(v)
        return [self.m[0][0] * v[0] + self.m[0][1] * v[1],
                self.m[1][0] * v[0] + self.m[1][1] * v[1]]

    def row_apply(self, v: Sequence) -> List[Scalar]:
        """Row vector times matrix."""
        v = _coerce(v)
        return [v[0] * self.m[0][0] + v[1] * self.m[1][0],
                v[0] * self.m[0][1] + v[1] * self.m[1][1]]

    def __repr__(self):
        return f"[[{self.m[0][0]},{self.m[0][1]}],[{self.m[1][0]},{self.m[1][1]}]]"


@dataclass(frozen=True)
class Eigen2:
    """Eigen data of a straddled matrix: M(-x,1)^T = lam(-x,1)^T and
    M(y,1)^T = mu(y,1)^T."""

    lam: Scalar
    mu: Scalar
    delta: Scalar
    x: Scalar
    y: Scalar


def eigen2(M: StraddledMatrix) -> Eigen2:
    """Exact eigen-quantities of a 2x2 matrix, in Q(sqrt(d)) when needed.

    Requires a rational matrix with nonnegative discriminant and a nonzero
    lower-left entry (otherwise x, y are undefined).
    """
    a00, a01 = M.m[0]
    a10, a11 = M.m[1]
    if a10 == 0:
        raise ZeroSubdiagonal("lower-left entry is zero")
    disc = (a00 - a11) ** 2 + 4 * a01 * a10
    delta = sqrt_exact(as_fraction(disc))
    t = a00 + a11
    lam = (t - delta) / 2
    mu = (t + delta) / 2
    x = (delta - (a00 - a11)) / (2 * a10)
    y = (delta + (a00 - a11)) / (2 * a10)
    return Eigen2(lam, mu, delta, x, y)


def works(M: StraddledMatrix) -> bool:
    """The gadget 'works': non-singular and eigenvalue ratio lam/mu is not
    a root of unity.  Over the rationals that holds iff det != 0, tr != 0
    and tr^2 is none of det, 2 det, 3 det, 4 det."""
    d = M.det()
    if d == 0:
        return False
    t = M.trace()
    if t == 0:
        return False
    t2 = t * t
    return all(t2 != k * d for k in (1, 2, 3, 4))


def works_diagnostics(M: StraddledMatrix) -> List[str]:
    """Which degeneracy conditions hold (empty list iff works(M))."""
    out = []
    d, t = M.det(), M.trace()
    if d == 0:
        out.append("singular")
    if t == 0:
        out.append("trace=0")
    for k, name in ((1, "tr^2=det"), (2, "tr^2=2det"), (3, "tr^2=3det"),
                    (4, "tr^2=4det")):
        if t * t == k * d:
            out.append(name)
    return out


def hadamard_sym(f: SymSignature) -> SymSignature:
    """Apply H = [[1,1],[1,-1]] on every slot of a symmetric signature."""
    n = f.arity
    out = []
    for k in range(n + 1):
        acc = 0
        for j in range(n + 1):
            coef = sum((-1) ** m * comb(k, m) * comb(n - k, j - m)
                       for m in range(0, min(k, j) + 1))
            acc = acc + coef * f[j]
        out.append(acc)
    return SymSignature(out)


def hadamard3(f: SymSignature) -> SymSignature:
    """f H^{x3} for a ternary signature (right action on a left signature)."""
    if f.arity != 3:
        raise ValueError("arity-3 signature expected")
    return hadamard_sym(f)


def hadamard3_inv(f: SymSignature) -> SymSignature:
    """(H^{-1})^{x3} f, i.e. hadamard3 scaled by 1/8 (H^2 = 2I)."""
    return hadamard3(f).scale(Fraction(1, 8))


def connect_unary(f: SymSignature, u: SymSignature) -> SymSignature:
    """Contract a unary [u0,u1] onto one slot of a symmetric signature."""
    if u.arity != 1:
        raise ValueError("unary expected")
    vals = [f[k] * u[0] + f[k + 1] * u[1] for k in range(f.arity)]
    return SymSignature(vals)


def sig_is_degenerate(f: SymSignature) -> bool:
    """Rank of the 2 x n Hankel matrix [[f0..f_{n-1}],[f1..fn]] <= 1."""
    n = f.arity
    return all(f[i] * f[j + 1] == f[j] * f[i + 1]
               for i in range(n) for j in range(i + 1, n))
