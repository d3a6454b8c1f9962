"""
Exact polynomials over the integers, rational functions as their quotients,
and truncated series expansion.  Every division is exact; rationals appear
only at a rational evaluation point or in the expansion of a non-integral
series, floating point only at a real evaluation point.  A rational function
is stored reduced: divided by the primitive gcd of numerator and denominator
(Knuth, TAOCP vol. 2, 4.6.1), then by their common content, signed so that
den(0) > 0.  This form is unique, has a series expansion, makes pole tests
meaningful, and has den(0) == 1 whenever the series has integer coefficients.

RationalGF(num, den) reduces by the gcd, unless Euclid mod a prime
(_coprime_mod_prime) proves the pair coprime.  RationalGF._reduced(num, den)
stores a pair as given; only genfun calls it, on pairs that its closed form
proves reduced.

A sum a/b + c/d first reduces the quotient b/d = q_num/q_den, then adds
over b * q_den == d * q_num (Knuth, TAOCP vol. 2, 4.5.1): a factor that b
and d share is found by the gcd of the two denominators, not of the sum's.

Every series quotient first peels each factor 1-t off the denominator in
ints (RationalGF._peeled): dividing by 1-t is a prefix sum, a C loop.  One
recurrence, _series, runs over the denominator's remaining terms: the
expansion in ints or Fractions, and the expansion in exact Decimals that
the CLI prints (converting a Decimal integer to text takes linear time, a
big int quadratic time).  Every exact polynomial division is Poly.divmod.
"""
from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

from .errors import PoleError


@dataclass(frozen=True)
class Poly:
    """Dense polynomial in t over the integers; coeffs[k] is the coefficient of t**k."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = [operator.index(c) for c in self.coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def of(cls, *coeffs: int) -> "Poly":
        return cls(coeffs)

    @classmethod
    def monomial(cls, power: int) -> "Poly":
        return cls((0,) * power + (1,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coefficient(k) + other.coefficient(k) for k in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self.coefficient(k) - other.coefficient(k) for k in range(n)))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(tuple(out))

    def scale(self, factor: int) -> "Poly":
        return Poly(tuple(c * factor for c in self.coeffs))

    def shift(self, power: int) -> "Poly":
        """Multiply by t**power."""
        return Poly((0,) * power + self.coeffs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """
        Long division; raises ArithmeticError on a step that is not exact in
        integers.  Each step cancels rem[k] by the leading term, so it
        subtracts only the divisor's nonzero terms below it, and leaves
        every entry at or above the divisor's degree d zero: the remainder
        is rem[:d].
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        taps = [(j, b) for j, b in enumerate(other.coeffs[:-1]) if b]
        quot = [0] * max(len(rem) - d, 0)
        for k in range(len(rem) - 1, d - 1, -1):
            factor, inexact = divmod(rem[k], lead)
            if inexact:
                raise ArithmeticError(f"{lead} does not divide {rem[k]}")
            if factor:
                quot[k - d] = factor
                for j, b in taps:
                    rem[k - d + j] -= factor * b
        return Poly(tuple(quot)), Poly(tuple(rem[:d]))

    def eval(self, x):
        """Horner evaluation: exact at an int or rational x, a float at a float x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def primitive(self) -> "Poly":
        """Divided by the gcd of its coefficients, with a positive leading coefficient."""
        if self.is_zero():
            return self
        content = math.gcd(*self.coeffs) * (1 if self.coeffs[-1] > 0 else -1)
        return Poly(tuple(c // content for c in self.coeffs))

    def __str__(self) -> str:
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c:
                var = "t" if k == 1 else f"t^{k}"
                term = var if c == 1 else f"-{var}" if c == -1 else f"{c}*{var}"
                pieces.append(term if k else str(c))
        return " + ".join(pieces).replace("+ -", "- ") or "0"


ONE = Poly.of(1)

# Integer arithmetic in Decimals: any rounding raises instead of losing a digit
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


def _series(num, den):
    """
    The first len(num) coefficients of the power series num/den, for
    coefficient sequences num and den of one number type (int, Fraction or
    Decimal) with den[0] == 1.  The recurrence f_n = num_n - den_1 f_(n-1) -
    ... - den_d f_(n-d) (Flajolet and Sedgewick, Analytic Combinatorics,
    IV.3) runs over the taps (k, -den_k) of den's nonzero terms past the
    constant, on a list with d zeros in front, so no index is tested; with
    no tap, num is returned as it is.  RationalGF's callers pass num cut to
    the order and den with its factors 1-t peeled off (RationalGF._peeled).

    >>> _series((1, 0, 0, 0, 0, 0, 0), (1, -1, -1))
    [1, 1, 2, 3, 5, 8, 13]
    """
    taps = [(k, -c) for k, c in enumerate(den) if k and c]
    if not taps:
        return num
    pad = len(den) - 1
    f = [0 * den[0]] * pad  # d zeros of den's type
    f += num
    for n in range(pad, len(f)):
        acc = f[n]
        for k, c in taps:
            acc += c * f[n - k]
        f[n] = acc
    return f[pad:]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """
    Primitive gcd, leading coefficient positive, by primitive pseudo-remainders.

    >>> poly_gcd(Poly.of(-1, 0, 1), Poly.of(2, 2))
    Poly(coeffs=(1, 1))
    """
    while not b.is_zero():
        a = a.scale(b.coeffs[-1] ** max(a.degree - b.degree + 1, 0))
        a, b = b, a.divmod(b)[1].primitive()
    return a.primitive()


def _coprime_mod_prime(f: Poly, g: Poly) -> bool:
    """
    Whether Euclid mod the prime p = 2^61 - 1 proves f and g coprime: when p
    divides neither leading coefficient, a common factor keeps its degree mod p.
    """
    p = 2**61 - 1
    a, b = [c % p for c in f.coeffs], [c % p for c in g.coeffs]
    if not (a and b and a[-1] and b[-1]):
        return False
    while b:
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a.pop() * inverse % p, len(a) - len(b) + 1
            a[shift:] = [(x - q * c) % p for x, c in zip(a[shift:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


@dataclass(frozen=True)
class RationalGF:
    """
    Quotient of two integer polynomials whose reduced denominator has a
    nonzero constant term, stored in the module docstring's reduced form:
    equal functions have equal fields.

    >>> print(RationalGF(Poly.of(0, 2), Poly.of(2, -2)))
    num = t; den = 1 - t
    """

    num: Poly
    den: Poly

    def __post_init__(self):
        num, den = self.num, self.den
        # a primitive factor divides out without changing the content (Gauss)
        g = ONE if _coprime_mod_prime(num, den) else poly_gcd(num, den)
        low = next((k for k, c in enumerate(g.coeffs) if c), 0)  # den[low] = g[low] (den/g)(0)
        if den.coefficient(low) == 0:
            raise ZeroDivisionError("denominator must have nonzero constant term")
        sign = 1 if den.coeffs[low] * g.coeffs[low] > 0 else -1
        g = g.scale(sign * math.gcd(*num.coeffs, *den.coeffs))
        object.__setattr__(self, "num", num.divmod(g)[0])
        object.__setattr__(self, "den", den.divmod(g)[0])

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RationalGF":
        """A pair already in the reduced form, stored as given: no gcd, no checks."""
        gf = object.__new__(cls)
        object.__setattr__(gf, "num", num)
        object.__setattr__(gf, "den", den)
        return gf

    @classmethod
    def of(cls, num: Poly | int) -> "RationalGF":
        """A polynomial or an integer as a rational function."""
        return cls(num if isinstance(num, Poly) else Poly.of(num), ONE)

    def __add__(self, other: "RationalGF") -> "RationalGF":
        q = RationalGF(self.den, other.den)  # self.den * q.den == other.den * q.num
        return RationalGF(self.num * q.den + other.num * q.num, self.den * q.den)

    def __sub__(self, other: "RationalGF") -> "RationalGF":
        return self + -other

    def __neg__(self) -> "RationalGF":
        return RationalGF(-self.num, self.den)

    def __mul__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalGF") -> "RationalGF":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        try:
            return RationalGF(self.num * other.den, self.den * other.num)
        except ZeroDivisionError:
            raise PoleError("the quotient has a pole at t = 0; no series quotient") from None

    def _peeled(self, order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """
        num, cut or padded to order + 1 terms (a negative order raises
        ValueError), and den, with every factor 1-t divided out of den, in
        ints: while den(1) == 0, den becomes its prefix sums but the last (a
        zero), and num its prefix sums, the first order + 1 coefficients of
        num/(1-t).  den(0) is unchanged.

        >>> RationalGF(Poly.of(1), Poly.of(1, -2, 1))._peeled(4)
        ((1, 2, 3, 4, 5), (1,))
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        num, den = self.num.coeffs[: order + 1], self.den.coeffs
        num += (0,) * (order + 1 - len(num))
        while sum(den) == 0:
            num = tuple(accumulate(num))
            den = tuple(accumulate(den[:-1]))
        return num, den

    def expand(self, order: int) -> "TruncSeries":
        """
        Series expansion to the given order: ints, or Fractions when den(0)
        != 1; the factors 1-t of den are peeled off first, in ints.
        """
        num, den = self._peeled(order)
        lead = den[0]
        if lead != 1:
            num, den = [Fraction(c, lead) for c in num], [Fraction(c, lead) for c in den]
        return TruncSeries(tuple(_series(num, den)))

    def decimal_coefficients(self, order: int) -> tuple[Decimal, ...]:
        """
        The coefficients of expand(order) as exact Decimal integers, which
        print in linear time; raises ValueError like TruncSeries.integers
        when one is not an integer.  A reduced den(0) other than 1 means a
        non-integral series, so that case takes expand's Fractions.

        >>> RationalGF(Poly.of(1, -1), Poly.of(1, 1)).decimal_coefficients(3)
        (Decimal('1'), Decimal('-2'), Decimal('2'), Decimal('-2'))
        """
        if self.den.coeffs[0] != 1:
            return tuple(map(Decimal, self.expand(order).integers()))
        num, den = (tuple(map(Decimal, p)) for p in self._peeled(order))
        with decimal.localcontext(_EXACT):
            return tuple(_series(num, den))

    def __str__(self) -> str:
        return f"num = {self.num}; den = {self.den}"


@dataclass(frozen=True)
class TruncSeries:
    """The coefficients of a power series up to a truncation order."""

    coeffs: tuple[int | Fraction, ...]

    def integers(self) -> tuple[int, ...]:
        """Coefficients as ints; raises if any is not integral."""
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("series has non-integer coefficients")
        return tuple(int(c) for c in self.coeffs)
