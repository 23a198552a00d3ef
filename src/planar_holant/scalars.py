"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(d)).

All numeric work in this package is exact.  Plain rationals are
``fractions.Fraction``; quantities like eigenvalue gaps that involve a
square root live in a quadratic extension Q(sqrt(d)) with d a positive
square-free integer, represented as a + b*sqrt(d).  A computation fixes
one d; mixing two extensions raises ``MixedExtensionError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class MixedExtensionError(ValueError):
    """Arithmetic attempted between elements of distinct Q(sqrt(d))."""


class NegativeRadicandError(ValueError):
    """sqrt of a negative rational requested (complex scalars unsupported)."""


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d square-free, for n > 0."""
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(d) of Q(sqrt(d)), d a square-free integer > 1."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if self.d <= 1:
            raise ValueError(f"extension radicand must be > 1, got {self.d}")

    def _check(self, other: "QuadExt") -> None:
        if self.d != other.d:
            raise MixedExtensionError(f"Q(sqrt({self.d})) vs Q(sqrt({other.d}))")

    def __add__(self, other):
        other = lift(other, self.d)
        self._check(other)
        return _norm(QuadExt(self.a + other.a, self.b + other.b, self.d))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-lift(other, self.d))

    def __rsub__(self, other):
        return lift(other, self.d) - self

    def __mul__(self, other):
        other = lift(other, self.d)
        self._check(other)
        return _norm(QuadExt(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        ))

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("zero element of quadratic field")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        other = lift(other, self.d)
        self._check(other)
        return _norm(self * other.inverse())

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out: Scalar = Fraction(1)
        base: Scalar = self
        while n:
            if n & 1:
                out = base * out
            base = base * base
            n >>= 1
        return out

    def __rtruediv__(self, other):
        return lift(other, self.d) / self

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __lt__(self, other):
        # sign of a + b*sqrt(d), exact
        diff = self - lift(other, self.d)
        if isinstance(diff, Fraction):
            return diff < 0
        a, b = diff.a, diff.b
        if b == 0:
            return a < 0
        if a == 0:
            return b < 0
        if a < 0 and b < 0:
            return True
        if a > 0 and b > 0:
            return False
        # opposite signs: compare a^2 vs b^2 d
        if a > 0:  # b < 0: negative iff b^2 d > a^2
            return b * b * self.d > a * a
        return b * b * self.d < a * a  # a < 0, b > 0

    def __gt__(self, other):
        return lift(other, self.d) < self

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


Scalar = Union[Fraction, QuadExt]


def _norm(x) -> Scalar:
    if isinstance(x, QuadExt):
        return x.a if x.b == 0 else x
    return x


def lift(x, d: int) -> Scalar:
    """Coerce an int/Fraction into Q(sqrt(d)) context (QuadExt passes through)."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, int):
        x = Fraction(x)
    return QuadExt(x, Fraction(0), d)


def sqrt_exact(x: Union[int, Fraction]) -> Scalar:
    """Exact nonnegative square root: a Fraction when x is a perfect square,
    otherwise an element of Q(sqrt(d)).  Negative x is rejected."""
    x = Fraction(x)
    if x < 0:
        raise NegativeRadicandError(f"sqrt({x})")
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    # sqrt(num/den) = sqrt(num*den)/den
    s, d = _squarefree_split(num * den)
    if d == 1:
        return Fraction(s, den)
    return QuadExt(Fraction(0), Fraction(s, den), d)


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, QuadExt) and x.b == 0:
        return x.a
    raise ValueError(f"{x!r} is not rational")


def to_float(x: Scalar) -> float:
    if isinstance(x, QuadExt):
        return float(x.a) + float(x.b) * math.sqrt(x.d)
    return float(x)


def parse_scalar(s) -> Scalar:
    """Parse "p/q" strings, ints, or {"a":..,"b":..,"d":..} objects, the
    last read as a + b*sqrt(d) for rationals a, b and an integer d.  A JSON
    number with a fraction or an exponent arrives as a float, rounded to a
    binary double (1e-400 as 0.0), so a float is refused."""
    if isinstance(s, dict):
        if sorted(s) != ["a", "b", "d"]:
            raise ValueError(f"a scalar object needs the keys a, b and d: {s}")
        a, b, d = (parse_scalar(s[k]) for k in "abd")
        if not all(isinstance(x, Fraction) for x in (a, b, d)) \
                or d.denominator != 1:
            raise ValueError(f"a scalar object needs rationals a, b and an "
                             f"integer d: {s}")
        return a + b * sqrt_exact(d)
    if isinstance(s, bool):
        raise ValueError(f"a scalar cannot be a boolean: {s}")
    if isinstance(s, float):
        raise ValueError(f'a scalar cannot be a JSON float ({s} as read); write "p/q"')
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise ValueError(f"a scalar cannot have a zero denominator: {s}") \
            from None


def format_scalar(x: Scalar):
    """Inverse of parse_scalar: "p/q" string or {"a","b","d"} dict."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        return {"a": str(x.a), "b": str(x.b), "d": str(x.d)}
    return str(Fraction(x))
