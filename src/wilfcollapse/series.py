"""
Exact univariate polynomial and rational function arithmetic over
arbitrary-precision rationals, with truncated series expansion.

Coefficient equality tests elsewhere in the package must be exact, so every
coefficient is a Fraction; floating point appears only when a caller
evaluates at a real point.  Rational functions are kept normalized: common
polynomial factors are removed by a Euclidean gcd and the denominator is
scaled to constant term 1, which both guarantees a series expansion exists
and makes pole detection meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import PoleError

Scalar = Union[int, Fraction]


def _strip(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return tuple(coeffs[:last])


@dataclass(frozen=True)
class Poly:
    """Dense polynomial in t; coeffs[k] is the coefficient of t**k."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip([Fraction(c) for c in self.coeffs]))

    @classmethod
    def of(cls, *coeffs: Scalar) -> "Poly":
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Poly":
        return cls((Fraction(0),) * power + (Fraction(coeff),))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            tuple(self.coefficient(k) - other.coefficient(k) for k in range(n))
        )

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(tuple(out))

    def scale(self, factor: Scalar) -> "Poly":
        f = Fraction(factor)
        return Poly(tuple(c * f for c in self.coeffs))

    def shift(self, power: int) -> "Poly":
        """Multiply by t**power."""
        if self.is_zero():
            return self
        return Poly((Fraction(0),) * power + self.coeffs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.coeffs[-1]
        for k in range(len(rem) - 1, d - 1, -1):
            factor = rem[k] / lead
            if factor:
                quot[k - d] = factor
                for j, b in enumerate(other.coeffs):
                    rem[k - d + j] -= factor * b
        return Poly(tuple(quot)), Poly(tuple(rem))

    def eval(self, x):
        """Horner evaluation; exact for Fraction input, float for float."""
        acc = 0 if isinstance(x, (int, Fraction)) else 0.0
        scale = (lambda c: c) if isinstance(x, (int, Fraction)) else float
        for c in reversed(self.coeffs):
            acc = acc * x + scale(c)
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.coeffs[-1])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                pieces.append(str(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    pieces.append(var)
                elif c == -1:
                    pieces.append(f"-{var}")
                else:
                    pieces.append(f"{c}*{var}")
        return " + ".join(pieces).replace("+ -", "- ")


ZERO = Poly(())
ONE = Poly.of(1)
T = Poly.of(0, 1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


@dataclass(frozen=True)
class RationalGF:
    """
    Quotient of two polynomials with nonzero denominator constant term.

    Always stored in reduced form with den(0) == 1, so the power-series
    expansion exists and equality of functions is equality of fields.
    """

    num: Poly
    den: Poly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero() or den.coefficient(0) == 0:
            raise ZeroDivisionError("denominator must have nonzero constant term")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        c = den.coefficient(0)
        object.__setattr__(self, "num", num.scale(1 / c))
        object.__setattr__(self, "den", den.scale(1 / c))

    @classmethod
    def of(cls, num: Poly | Scalar, den: Poly | Scalar = 1) -> "RationalGF":
        if not isinstance(num, Poly):
            num = Poly.of(num)
        if not isinstance(den, Poly):
            den = Poly.of(den)
        return cls(num, den)

    def __add__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalGF":
        return RationalGF(-self.num, self.den)

    def __mul__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalGF") -> "RationalGF":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        if other.num.coefficient(0) == 0:
            raise PoleError("divisor has a zero constant term; no series quotient")
        return RationalGF(self.num * other.den, self.den * other.num)

    def expand(self, order: int) -> "TruncSeries":
        """Series expansion to the given order, by long division."""
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = []
        den = self.den.coeffs
        for n in range(order + 1):
            acc = self.num.coefficient(n)
            for k in range(1, min(n, len(den) - 1) + 1):
                acc -= den[k] * coeffs[n - k]
            coeffs.append(acc)
        return TruncSeries(tuple(coeffs), order)

    def eval(self, x):
        """Evaluate at a point; raises PoleError on a denominator zero."""
        den = self.den.eval(x)
        if den == 0:
            raise PoleError(f"pole at {x!r}")
        return self.num.eval(x) / den

    def __str__(self) -> str:
        return f"num = {self.num}; den = {self.den}"


@dataclass(frozen=True)
class TruncSeries:
    """The coefficients of a power series up to and including t**order."""

    coeffs: tuple[Fraction, ...]
    order: int

    def integers(self) -> tuple[int, ...]:
        """Coefficients as ints; raises if any is not integral."""
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("series has non-integer coefficients")
        return tuple(int(c) for c in self.coeffs)
