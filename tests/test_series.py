import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wilfcollapse.errors import PoleError
from wilfcollapse.series import ONE, Poly, RationalGF, _coprime_mod_prime, poly_gcd

small_polys = st.builds(
    lambda coeffs: Poly.of(*coeffs),
    st.lists(st.integers(min_value=-5, max_value=5), max_size=5),
)


def test_poly_basics():
    p = Poly.of(1, 2, 0, 0)
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly(()).is_zero()
    assert Poly.monomial(3).coeffs == (0, 0, 0, 1)
    assert str(Poly.of(1, -2, 1)) == "1 - 2*t + t^2"
    assert str(Poly(())) == "0"
    # the constructor trims an empty product or shift to the zero polynomial
    zero = Poly(())
    assert zero * p == p * zero == zero * zero == zero.shift(3) == zero


def test_poly_divmod_and_gcd():
    a = Poly.of(-1, 0, 1)  # t^2 - 1
    b = Poly.of(1, 1)  # t + 1
    q, r = a.divmod(b)
    assert q == Poly.of(-1, 1) and r.is_zero()
    assert poly_gcd(a, b) == Poly.of(1, 1)
    q, r = Poly.of(1, 0, 1).divmod(Poly.of(1, 1))
    assert q * Poly.of(1, 1) + r == Poly.of(1, 0, 1)


nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@given(st.lists(st.integers(-9, 9), max_size=8), nonzero_polys, st.sampled_from((1, -1)))
def test_poly_divmod_identity(coeffs, b, unit):
    # any nonzero divisor: an inexact step raises, or q*b + r == a with
    # deg r < deg b; a unit leading coefficient never raises
    a = Poly.of(*coeffs)
    try:
        q, r = a.divmod(b)
    except ArithmeticError:
        q = r = None
    assert r is None or (q * b + r == a and r.degree < b.degree)
    monic = Poly(b.coeffs[:-1] + (unit,))
    q, r = a.divmod(monic)
    assert q * monic + r == a and r.degree < monic.degree


@given(small_polys, nonzero_polys, nonzero_polys)
def test_poly_gcd_is_primitive_and_exact(a, b, c):
    g = poly_gcd(a * c, b * c)
    assert (a * c).divmod(g)[1].is_zero() and (b * c).divmod(g)[1].is_zero()
    assert g.primitive() == g and g.coeffs[-1] > 0
    assert g.divmod(c.primitive())[1].is_zero()


@given(small_polys, small_polys, nonzero_polys)
def test_coprime_mod_prime_agrees_with_the_gcd(a, b, c):
    # p = 2^61 - 1 divides no leading coefficient here, so the test mod p
    # decides coprimality exactly; the zero polynomial is never proved coprime
    for f, g in ((a, b), (a * c, b * c)):
        expected = not f.is_zero() and not g.is_zero() and poly_gcd(f, g).degree == 0
        assert _coprime_mod_prime(f, g) == expected


def test_coprime_mod_prime_leaves_a_leading_multiple_of_p_to_the_gcd():
    p = 2**61 - 1
    shared = Poly.of(1, 1)
    assert not _coprime_mod_prime(Poly.of(1, p), ONE)
    f = RationalGF(Poly.of(0, p) * shared, Poly.of(1, -1) * shared)
    assert (f.num, f.den) == (Poly.of(0, p), Poly.of(1, -1))


def test_poly_coefficients_are_integers():
    with pytest.raises(TypeError):
        Poly.of(Fraction(1, 2))
    with pytest.raises(TypeError):
        Poly.of(0.5)
    with pytest.raises(ArithmeticError):
        Poly.of(0, 1).divmod(Poly.of(2))


def test_poly_eval():
    p = Poly.of(1, -3, 1)
    assert p.eval(Fraction(1, 2)) == Fraction(-1, 4)
    assert abs(p.eval(0.5) + 0.25) < 1e-12


@given(small_polys, small_polys, small_polys)
def test_poly_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a - b) + b == a


def test_rational_normalization():
    f = RationalGF(Poly.of(0, 2), Poly.of(2, -2))  # 2t / (2 - 2t) -> t/(1-t)
    assert f.den.coefficient(0) == 1
    assert f == RationalGF(Poly.of(0, 1), Poly.of(1, -1))
    # common factors are removed
    g = RationalGF(Poly.of(0, 1) * Poly.of(1, 1), Poly.of(1, -1) * Poly.of(1, 1))
    assert g.num == Poly.of(0, 1) and g.den == Poly.of(1, -1)
    with pytest.raises(ZeroDivisionError):
        RationalGF(ONE, Poly.of(0, 1))
    with pytest.raises(ZeroDivisionError):
        RationalGF(ONE, Poly(()))


def test_rational_arithmetic_and_equality():
    half = RationalGF(ONE, Poly.of(1, -1))
    assert half + half == RationalGF(Poly.of(2), Poly.of(1, -1))
    assert half - half == RationalGF.of(0)
    assert half * half == RationalGF(ONE, Poly.of(1, -2, 1))
    assert half / half == RationalGF.of(1)
    with pytest.raises(ZeroDivisionError):
        half / RationalGF.of(0)


nonzero_at_0 = small_polys.filter(lambda p: p.coefficient(0) != 0)


@given(small_polys, nonzero_at_0, nonzero_at_0)
def test_rational_normal_form_is_unique(a, b, c):
    # equality and hashing compare the stored fields, so a common factor
    # must normalise away
    f, g = RationalGF(a * c, b * c), RationalGF(a, b)
    assert f == g and hash(f) == hash(g)


@given(small_polys, nonzero_at_0, small_polys, nonzero_at_0, nonzero_at_0)
def test_sums_over_a_shared_denominator_factor(a, b, c, d, shared):
    # a sum adds over the reduced quotient of the denominators; it must
    # agree with adding over their product
    x, y = RationalGF(a, b * shared), RationalGF(c, d * shared)
    for total, sign in ((x + y, 1), (x - y, -1)):
        expected = RationalGF(x.num * y.den + (y.num * x.den).scale(sign), x.den * y.den)
        assert (total.num, total.den) == (expected.num, expected.den)


def test_expand_geometric():
    f = RationalGF(ONE, Poly.of(1, -2))
    assert f.expand(4).integers() == (1, 2, 4, 8, 16)
    with pytest.raises(ValueError):
        f.expand(-1)


def test_expand_non_integral_series():
    # 1/(2 - t) is stored as it stands and expands in Fractions
    f = RationalGF(ONE, Poly.of(2, -1))
    assert f.num == ONE and f.den == Poly.of(2, -1)
    coeffs = f.expand(3).coeffs
    assert coeffs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
    assert all(type(c) is Fraction for c in coeffs)
    assert f == RationalGF(Poly.of(3), Poly.of(6, -3))
    with pytest.raises(ValueError) as from_ints:
        f.expand(3).integers()
    with pytest.raises(ValueError) as from_decimals:
        f.decimal_coefficients(3)
    assert str(from_decimals.value) == str(from_ints.value)
    # den(0) = 2, yet 2/(2 - t) is integral up to order 0, as integers() says
    g = RationalGF(Poly.of(2), Poly.of(2, -1))
    assert g.decimal_coefficients(0) == g.expand(0).integers() == (1,)


@pytest.mark.parametrize(
    "num, den", [((1,), (1, 0, 1)), ((1, -1), (1, 1)), ((0, 0, -3), (1, -1, 2)), ((), (1,))]
)
def test_decimal_coefficients_print_as_ints(num, den):
    # negative and zero coefficients: no -0 and no exponent notation
    f = RationalGF(Poly(num), Poly(den))
    decimals = f.decimal_coefficients(30)
    assert all(type(c) is Decimal for c in decimals)
    assert list(map(str, decimals)) == list(map(str, f.expand(30).integers()))
    with pytest.raises(ValueError):
        f.decimal_coefficients(-1)


def test_expand_class_gf():
    f = RationalGF.of(1) + RationalGF(Poly.of(0, 1), Poly.of(1, -2))
    assert f.expand(5).integers() == (1, 1, 2, 4, 8, 16)


def test_eval_pole():
    # the value of a rational function is num/den through Poly.eval; at a
    # root of the denominator there is a pole, elsewhere the value is exact
    f = RationalGF(ONE, Poly.of(1, -1))
    assert f.den.eval(Fraction(1)) == 0 and f.num.eval(Fraction(1)) != 0
    assert f.num.eval(Fraction(1, 2)) / f.den.eval(Fraction(1, 2)) == 2


def test_division_errors():
    # a divisor vanishing at t = 0 leaves no series quotient
    with pytest.raises(PoleError):
        RationalGF.of(1) / RationalGF.of(Poly.of(0, 1))
    with pytest.raises(ZeroDivisionError):
        RationalGF.of(1) / RationalGF.of(0)


def test_a_factor_t_that_cancels_leaves_no_pole():
    # den(0) is tested after the common factor is divided out
    t = Poly.of(0, 1)
    x = RationalGF(t, Poly.of(1, -1))
    assert x / x == RationalGF.of(1)
    quotient = RationalGF(Poly.of(0, 0, 1), Poly.of(1, -1)) / RationalGF(t, Poly.of(1, -2))
    assert quotient == RationalGF(t * Poly.of(1, -2), Poly.of(1, -1))
    assert quotient.num == Poly.of(0, 1, -2) and quotient.den == Poly.of(1, -1)
    assert RationalGF(t, t) == RationalGF.of(1)
    assert RationalGF(t, -t).num == Poly.of(-1) and RationalGF(t, -t).den == ONE


@given(small_polys, nonzero_at_0)
def test_a_common_factor_t_divides_out(f, g):
    t = Poly.of(0, 1)
    assert RationalGF(f * t, g * t) == RationalGF(f, g)


def test_expand_matches_division():
    # the expansion times the denominator agrees with the numerator below
    # the truncation order
    num, den = Poly.of(1, 0, 3), Poly.of(1, -1, -1)
    order = 10
    product = Poly(RationalGF(num, den).expand(order).coeffs) * den
    assert all(product.coefficient(k) == num.coefficient(k) for k in range(order + 1))


@given(
    st.lists(st.integers(-9, 9), max_size=8),
    st.sampled_from((1, -1, 2, 3)),
    st.lists(st.integers(-5, 5), max_size=4),
    st.integers(0, 6),
    st.integers(0, 30),
)
def test_expansion_oracle_without_the_recurrence(num, r0, r_rest, m, order):
    # den = (1 - t)^m r, stored unreduced: den times the expansion is num
    # below t^(order + 1), in ints when den(0) = 1 and in Fractions otherwise
    # (scaled by den(0)^(order + 1), which makes them integers)
    num = Poly(tuple(num))
    den = math.prod([Poly.of(1, -1)] * m, start=Poly.of(r0, *r_rest))
    f = RationalGF._reduced(num, den)
    coeffs = f.expand(order).coeffs
    assert len(coeffs) == order + 1
    assert all(type(c) is (int if r0 == 1 else Fraction) for c in coeffs)
    scale = r0 ** (order + 1)
    scaled = [c * scale for c in coeffs]
    assert all(Fraction(c).denominator == 1 for c in scaled)
    product = den * Poly(tuple(map(int, scaled)))
    assert [product.coefficient(n) for n in range(order + 1)] == [
        num.coefficient(n) * scale for n in range(order + 1)
    ]
    # the Decimal expansion prints as expand's integers, or refuses as they do
    if all(Fraction(c).denominator == 1 for c in coeffs):
        assert list(map(str, f.decimal_coefficients(order))) == [str(int(c)) for c in coeffs]
    else:
        with pytest.raises(ValueError):
            f.decimal_coefficients(order)


def test_eval_agrees_with_partial_sums():
    f = RationalGF(Poly.of(1, 1), Poly.of(1, 0, -1))
    x = 0.125
    truncated = sum(float(c) * x**k for k, c in enumerate(f.expand(40).coeffs))
    assert abs(f.num.eval(x) / f.den.eval(x) - truncated) < 1e-12
