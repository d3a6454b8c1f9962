"""
Exact generating functions for the four classes and their principal
subclasses, the polynomials counting sum words by longest increasing
subsequence, and the real roots used to separate equivalence classes.

Involvement is a sequence construction (Flajolet and Sedgewick, Analytic
Combinatorics, I.2): a word involving a c3 or c4 pattern is its shortest
prefix involving the first letter, then a word involving the rest.  So the
involvement GF is the class GF (1-t)/(1-2t), which c3 and c4 share, times
one factor per letter.  A c3 layer j and a c4 drop letter b_j share
t^j/((1-t) D_j), D_j = 1 - t - ... - t^(j-1): a prefix is letters below j,
then one of size at least j, and a word has no such prefix or starts with
one, so the class GF times 1 minus the factor is 1/D_j.  A c4 run letter
a_i has t^i M_i/(1-t), M_1 = 1 and M_i = 2 b_(i-1) - b_(i-2) for the b_n
below (_run_numerator); a1 has layer 1's, so the classes share GFs:

>>> avoid_gf_layered((3, 2)) == avoid_gf_sum_word((3, 2))
True
>>> avoid_gf_layered((2, 1)) == avoid_gf_sum_word((2, -1))
True

So a pattern of size n with k letters has (_pattern_gf) the involvement GF
num/((1-2t) den), num = t^n prod_runs M_i and den = (1-t)^(k-1)
prod_layers/drops D_j, and the avoidance GF, the class GF minus it,
((1-t) den - num)/(1-2t) over den.  Every factor has constant term 1, so
den(0) = 1, and both are reduced as written, with no gcd:
(a) num is coprime to 1-t, 1-2t and each D_j, hence to den, so den is to
    (1-t) den - num.  Its factors but t^n are positive for t > 0, as M_i
    has nonnegative coefficients (C(n+k, 2k) grows with n); 1-t and 1-2t
    have the zeros 1 and 1/2, D_2 = 1-t, and each D_j, j >= 3, is
    irreducible over the rationals (M. A. Wolfram, Fibonacci Quart. 36,
    1998) with a zero in (1/2, 1), as D_j(1/2) = 2^(1-j) > 0 > 2-j = D_j(1).
(b) 1-2t divides (1-t) den - num: at t = 1/2 a layer or drop letter j gives
    both terms the factor 2^-j, and a run letter a_i gives both 1/2, as
    M_i(1/2) = 2^(i-1) by L_n(1/2) = 2/3 + 4^-n/3.
Criterion 6's naive product form has b_i for M_i and needs only (a), as
b_i > 0 for t > 0.  series.poly_gcd stays the oracle.

The M_i are pairwise coprime, and M_i has i-1 = deg M_i simple roots in
(-4, 0), so a c4 GF's numerator gives back its run letters.  For i >= 2,
(1) at t = -4 cos^2 s, s in (0, pi/2), the Chebyshev identity gives
    M_i = (-1)^(i-1) Im(z^i w)/sin s, z = e^(2is), w = e^(-is)(2 + 1/z) != 0;
(2) arg(z^i w) rises from 0 to i pi - pi/2 with slope 2i - 1 -
    2(1+2c)/(5+4c) >= 2i - 5/3, c = cos 2s, so it crosses each of pi, ...,
    (i-1) pi once: i-1 simple roots, as t rises with s;
(3) at a root shared with M_j, j > i, z^i w and z^j w are real, so z is a
    root of unity, of order m say, and so is (1+2z)/(2+z) = z^(2-2i), hence
    an algebraic integer (Kronecker, 1857, the converse: |1+2v| = |2+v| if
    |v| = 1); as it is 2 - 3/(2+z), N(2+z) = +-Phi_m(-2) divides a power of 3;
(4) |Phi_m(-2)| = Phi_k(2), k = 2m, m/2 or m as m is odd, 2 mod 4 or 0 mod 4,
    has a prime factor p = 1 mod k unless k is 1 or 6 (Bang 1886, Zsigmondy
    1892), and p = 3 only if k = 2; so m <= 3, and 0 < 2s < pi leaves t = -1;
(5) but there M_i = (2+t) M_(i-1) - M_(i-2), M_0 = 1-t, cycles through 2, 1,
    -1, -2, -1, 1, never 0.
The proof rests on the Chebyshev identity and Bang-Zsigmondy; tests check
finite cases only: the identity, |Phi_m(-2)| for m <= 200, the roots by a
Sturm chain for i <= 40, M_i(-1) and coprimality for i <= 60.  That the
M_i are irreducible is neither proved nor needed.

L_n = t^n b_n(t) counts the sum words with longest increasing subsequence
exactly n, where b_n(t) = sum_k C(n+k, 2k) t^k is the Morgan-Voyce
polynomial; b_n = (2+t) b_(n-1) - b_(n-2) is the three-term recursion of
the run counts divided by t^n, and b_n is (-1)^n U_2n under x^2 = -t/4, the
Chebyshev identity checked below.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .encodings import ClassId, Composition, SumWord, validate_element
from .errors import PreconditionError
from .series import ONE, Poly, RationalGF

_ONE_MINUS_T = Poly.of(1, -1)
_ONE_MINUS_2T = Poly.of(1, -2)


def class_gf(class_id: ClassId) -> RationalGF:
    """Generating function of the whole class: c1's is 1/(1-t) + t^2/(1-t)^3."""
    if class_id is ClassId.AV_312_123:
        return RationalGF._reduced(Poly.of(1, -2, 2), Poly.of(1, -3, 3, -1))
    return RationalGF._reduced(_ONE_MINUS_T, _ONE_MINUS_2T)


@lru_cache(maxsize=None)
def layered_denominator(a: int) -> Poly:
    """The polynomial 1 - t - t^2 - ... - t^(a-1)."""
    return Poly.of(1, *([-1] * (a - 1)))


def avoid_gf_layered(pattern: Composition) -> RationalGF:
    """
    Generating function of the layered permutations avoiding a composition
    pattern.  The empty pattern is avoided by nothing, so its value is 0.
    """
    validate_element(ClassId.AV_312_231, pattern)
    return _pattern_gf(pattern, _run_numerator, avoid=True)


# ---------------------------------------------------------------------------
# Polynomials counting sum words by longest increasing run

def reduced_lis_poly(n: int) -> Poly:
    """
    lis_count_poly(n) divided by t**n: the Morgan-Voyce polynomial
    b_n(t) = sum_k C(n+k, 2k) t^k, of degree n with constant term 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [1]
    for k in range(n):  # C(n+k+1, 2k+2) = C(n+k, 2k)(n+k+1)(n-k)/((2k+1)(2k+2)), exactly
        coeffs.append(coeffs[-1] * (n + k + 1) * (n - k) // ((2 * k + 1) * (2 * k + 2)))
    return Poly(tuple(coeffs))


def lis_count_poly(n: int) -> Poly:
    """
    Generating polynomial of the class members whose longest increasing
    subsequence has length exactly n: t**n * reduced_lis_poly(n).
    """
    return reduced_lis_poly(n).shift(n)


# ---------------------------------------------------------------------------
# Sum-word involvement generating functions

@lru_cache(maxsize=None)
def _run_numerator(i: int) -> Poly:
    """
    M_i: any run letter a_i, a final one included, has the factor
    t^i M_i/(1-t) = (L_i - t^2 L_(i-1))/(1-t), with L = lis_count_poly.

    The longest increasing subsequence of a sum word is the sum of its
    letter capacities (k for a run letter of size k, j-1 for a drop letter
    of size j), so a minimal prefix is a word whose capacity first reaches i
    at its last letter.  Cutting that letter to the least size that reaches i
    leaves a word of capacity exactly i; the factor 1/(1-t) gives the cut
    points back.  The cut prefixes ending in a drop letter are the words of
    capacity i ending in a drop letter.  Those ending in a run letter map
    one-to-one onto all words of capacity i-1 by removing one point of the
    final run (the letter itself if it has size 1); that point is the
    factor t.  After a final run letter, the words that follow must be
    empty or start with a drop letter: a factor 1-t.  In all,
    t L_(i-1)(1-t) + L_i - t L_(i-1) = L_i - t^2 L_(i-1).

    A final a_i is the one-letter pattern a_i, involved by the words of
    capacity at least i: sum_(k>=i) L_k = (L_i - t^2 L_(i-1))/(1-2t), which
    is this factor times class_gf.  L_n = t(2+t) L_(n-1) - t^2 L_(n-2) makes
    that tail a fixed combination of L_i and L_(i-1), fitted at i = 1 and 2.
    """
    if i == 1:
        return ONE
    return reduced_lis_poly(i - 1).scale(2) - reduced_lis_poly(i - 2)


def _pattern_gf(letters: tuple[int, ...], run_numerator, avoid: bool = False) -> RationalGF:
    """
    Involvement GF of a c3 or c4 pattern, or with avoid its avoidance GF, in
    the module docstring's factored form, with run_numerator(i) for M_i.  A
    remainder of avoidance's one division, by 1-2t, raises ArithmeticError.
    """
    if not letters:  # involved by every word, avoided by none
        return RationalGF.of(0) if avoid else class_gf(ClassId.AV_312_321)
    num = Poly.monomial(sum(map(abs, letters)))
    den = math.prod([_ONE_MINUS_T] * (len(letters) - 1), start=ONE)
    for letter in letters:
        if letter > 0:
            den = den * layered_denominator(letter)
        else:
            num = num * run_numerator(-letter)
    if not avoid:
        return RationalGF._reduced(num, _ONE_MINUS_2T * den)
    try:
        num, rest = (_ONE_MINUS_T * den - num).divmod(_ONE_MINUS_2T)
        if not rest.is_zero():
            raise ArithmeticError(f"{_ONE_MINUS_2T} leaves {rest}")
    except ArithmeticError as exc:
        raise ArithmeticError(f"the closed form does not reduce the GF of {letters}") from exc
    return RationalGF._reduced(num, den)


def involve_gf_sum_word(word: SumWord) -> RationalGF:
    """
    Generating function of the class members involving the given sum word.
    Exact: expansions match brute-force counts.
    """
    validate_element(ClassId.AV_312_321, word)
    return _pattern_gf(word, _run_numerator)


def avoid_gf_sum_word(word: SumWord) -> RationalGF:
    """Generating function of the class members avoiding the given sum word."""
    validate_element(ClassId.AV_312_321, word)
    return _pattern_gf(word, _run_numerator, avoid=True)


def avoid_gf(class_id: ClassId, pattern) -> RationalGF:
    """Avoidance generating function of a pattern of class c3 or c4."""
    if class_id is ClassId.AV_312_231:
        return avoid_gf_layered(pattern)
    if class_id is ClassId.AV_312_321:
        return avoid_gf_sum_word(pattern)
    raise ValueError("generating functions cover c3 and c4 only")


def involve_gf_product_form(word: SumWord) -> RationalGF:
    """
    The naive product form of the involvement GF: _pattern_gf with the run
    factor L_i/(1-t).  It vanishes at the reduced-polynomial roots of its
    run letters, but it is NOT exact: its expansion differs from the counts
    already for the single letter a2.  Diagnostic use only.
    """
    validate_element(ClassId.AV_312_321, word)
    return _pattern_gf(word, reduced_lis_poly)


def special_pair_gfs(k: int) -> tuple[RationalGF, RationalGF]:
    """
    The avoidance GFs of the patterns b2 b_k and a1 b_k a1.  The two are
    equal as rational functions for every k >= 2.
    """
    if k < 2:
        raise PreconditionError("k must be at least 2")
    return avoid_gf_sum_word((2, k)), avoid_gf_sum_word((-1, k, -1))


# ---------------------------------------------------------------------------
# Real roots

def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0:
            return mid
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2


@lru_cache(maxsize=None)
def layered_root(a: int) -> float:
    """
    Least positive zero of D_a = 1 - t - ... - t^(a-1).  Exactly 1 for a = 2,
    strictly decreasing toward 1/2 as a grows.  For a > 2, a float bisection
    to 1e-12 of (1-t) D_a = 1 - 2t + t^a, D_a's sign on (0, 1), cached per
    index and confirmed by an exact sign change of the same product: at
    p/2^k times 2^(ka), 2^(ka) - 2p 2^(k(a-1)) + p^a.  The bisection sums
    (1-t) - t(1 - t^(a-1)) in that order: its float signs match Horner's
    rule on D_a at every point visited (checked for a <= 6000), while
    1 - 2t + t^a loses the small t^a and moves roots from a = 30 on.
    """
    if a < 2:
        raise PreconditionError("a must be at least 2")
    if a == 2:
        return 1.0
    # Positive at 0, negative between the root and 1, and 0 at 1.
    value = _bisect(lambda t: (1 - t) - t * (1 - t ** (a - 1)), 0.0, 1.0)
    lo, hi, k = _dyadic_bracket(value)
    lo_value, hi_value = ((1 << k * a) - (p << k * (a - 1) + 1) + p**a for p in (lo, hi))
    if not (lo_value > 0 > hi_value):
        raise ArithmeticError(f"no sign change around the bisection root for index {a}")
    return value


def _dyadic_bracket(root: float) -> tuple[int, int, int]:
    """
    Integers lo, hi and k with lo/2^k < root < hi/2^k, both points strictly
    inside root * (1 +- 5e-7).  2^-k <= |root|/2^22 < |root|/(4 * 10^6), so
    root lies more than two steps of 2^-k from either end.  In integers:
    root * 2^k = x/d exactly, and the ends are (2 * 10^6 x -+ |x|)/(2 * 10^6 d).
    """
    k = 23 - math.frexp(root)[1]
    x, d = math.ldexp(root, k).as_integer_ratio()
    x, width, d = 2_000_000 * x, abs(x), 2_000_000 * d
    return (x - width) // d + 1, -((-x - width) // d) - 1, k


def _lis_bracket_values(n: int, root: float) -> tuple[int, int]:
    """
    2^(kn) b_n(p/2^k) at the two dyadic points p/2^k of _dyadic_bracket, in
    integers only: b_n's three-term recurrence, each step scaled by 2^k.  A
    sign change proves a zero of b_n within root * (1 +- 5e-7).
    """
    lo, hi, k = _dyadic_bracket(root)
    values = []
    for p in (lo, hi):
        before, b = 1, (1 << k) + p  # b_0 = 1 and b_1 = 1 + t
        for _ in range(n - 1):
            before, b = b, ((2 << k) + p) * b - (before << 2 * k)
        values.append(b)
    return values[0], values[1]


@lru_cache(maxsize=None)
def lis_root(n: int) -> float:
    """
    Greatest real zero of b_n = reduced_lis_poly(n).  Exactly -1 for n = 1;
    in (-1/2, 0) and strictly increasing for n >= 2.  By the Chebyshev
    identity it is -4 sin^2(pi / (2(2n+1))), cached per index and confirmed
    by an exact sign change around it, where b_n rises through 0.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if n == 1:
        return -1.0
    value = -4.0 * math.sin(math.pi / (2 * (2 * n + 1))) ** 2
    lo_value, hi_value = _lis_bracket_values(n, value)
    if not (lo_value < 0 < hi_value):
        raise ArithmeticError(f"no sign change around the closed form for index {n}")
    return value


# ---------------------------------------------------------------------------
# Pole and zero checks

def classify_pole(partition: tuple[int, ...], a: int) -> str:
    """
    Behaviour of the layered avoidance GF of a partition pattern at the
    least positive layered root for a: "infinite" when the reduced
    denominator vanishes there, "finite" otherwise.  Decided exactly:
    1 - t - ... - t^(a-1) is irreducible over the rationals, so the
    denominator vanishes at its root exactly when it is divisible by it.
    """
    if a <= 2:
        raise PreconditionError("a must be greater than 2")
    if list(partition) != sorted(partition, reverse=True):
        raise PreconditionError("pattern must be weakly decreasing")
    den = avoid_gf_layered(tuple(partition)).den
    return "infinite" if den.divmod(layered_denominator(a))[1].is_zero() else "finite"


def product_form_vanishes_at(word: SumWord, n: int) -> bool:
    """
    Exact test that the product-form involvement GF vanishes at every root
    of the reduced run-count polynomial of index n, by polynomial
    divisibility of its numerator.
    """
    numerator = involve_gf_product_form(word).num
    return numerator.divmod(reduced_lis_poly(n))[1].is_zero()


# ---------------------------------------------------------------------------
# Chebyshev identity

def chebyshev_identity_holds(n: int) -> bool:
    """
    Check, as exact polynomials, that the reduced run-count polynomial of
    index n equals (-1)^n times the Chebyshev polynomial U_{2n} under the
    substitution x^2 = -t/4.  The sign alternates: the raw identity without
    it already fails at n = 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    # With x^2 = -t/4: U_{2k}(x) is a polynomial even(t) and U_{2k+1}(x) is
    # 2x * odd(t); the Chebyshev recurrence becomes the two steps below.
    even = odd = ONE
    for _ in range(n):
        even = -odd.shift(1) - even
        odd = even - odd
    return reduced_lis_poly(n) == even.scale((-1) ** n)
