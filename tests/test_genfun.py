import gc
import inspect
import itertools
import math
import sys
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wilfcollapse.canonical import shortest_prefix_end
from wilfcollapse.encodings import (
    ClassId,
    generate,
    leq_function,
    parse_element,
    size_of,
    to_permutation,
    validate_element,
)
from wilfcollapse.errors import PreconditionError
from wilfcollapse import genfun
from wilfcollapse.genfun import (
    avoid_gf,
    avoid_gf_layered,
    avoid_gf_sum_word,
    chebyshev_identity_holds,
    class_gf,
    classify_pole,
    involve_gf_product_form,
    involve_gf_sum_word,
    layered_denominator,
    layered_root,
    lis_count_poly,
    lis_root,
    product_form_vanishes_at,
    reduced_lis_poly,
    special_pair_gfs,
)
from wilfcollapse.series import ONE, Poly, RationalGF, _coprime_mod_prime, poly_gcd

C3 = ClassId.AV_312_231
C4 = ClassId.AV_312_321


def test_sums_over_one_denominator_run_no_gcd():
    # the product of the two denominators shares a factor of degree 139,
    # which the gcd of the sum took over 10 s to find; a sum adds over the
    # denominator that the reduced quotient of the two denominators gives
    a = avoid_gf_sum_word((-5, 3, -1, 9) * 10)
    b = a * RationalGF(ONE, Poly.of(1, -3))
    start = time.perf_counter()
    twice = a + a
    assert (twice.num, twice.den) == (a.num.scale(2), a.den)
    assert a - a == RationalGF.of(0)
    lcm = a.den * Poly.of(1, -3)
    total, difference = a + b, b - a
    expected = RationalGF(a.num * Poly.of(2, -3), lcm)
    assert (total.num, total.den) == (expected.num, expected.den)
    expected = RationalGF(a.num * Poly.of(0, 3), lcm)
    assert (difference.num, difference.den) == (expected.num, expected.den)
    assert time.perf_counter() - start < 5.0


def brute_avoider_counts(cid, pattern, depth):
    leq = leq_function(cid)
    return tuple(
        sum(1 for e in generate(cid, m) if not leq(pattern, e))
        for m in range(depth + 1)
    )


# The letter factors of the involvement product, written from their formulas
# as the tests' oracles: a c3 layer or c4 drop letter j, a c4 run letter a_i,
# and a run letter of the naive product form
def prefix_factor(j):
    return RationalGF(Poly.monomial(j), Poly.of(1, -2) + Poly.monomial(j))


def run_factor(i):
    return RationalGF(lis_count_poly(i) - lis_count_poly(i - 1).shift(2), Poly.of(1, -1))


def naive_run_factor(i):
    return RationalGF(lis_count_poly(i), Poly.of(1, -1))


def test_class_gfs():
    assert class_gf(C4).expand(5).integers() == (1, 1, 2, 4, 8, 16)
    assert class_gf(ClassId.AV_312_123).expand(6).integers() == (1, 1, 2, 4, 7, 11, 16)


def test_class_gfs_have_the_gcd_reduced_fields():
    # the pairs class_gf writes out are the sums reduced by Euclid's gcd
    one_minus_t = Poly.of(1, -1)
    cubic = one_minus_t * one_minus_t * one_minus_t
    c1 = RationalGF(ONE, one_minus_t) + RationalGF(Poly.monomial(2), cubic)
    others = RationalGF.of(1) + RationalGF(Poly.monomial(1), Poly.of(1, -2))
    for cid in ClassId:
        expected = c1 if cid is ClassId.AV_312_123 else others
        assert (class_gf(cid).num, class_gf(cid).den) == (expected.num, expected.den), cid


def test_layered_denominator():
    assert layered_denominator(2) == Poly.of(1, -1)
    assert layered_denominator(4) == Poly.of(1, -1, -1, -1)


def test_avoid_gf_layered_closed_forms():
    geom = RationalGF(ONE, Poly.of(1, -1))
    assert avoid_gf_layered((2,)) == geom
    assert avoid_gf_layered((1, 1)) == geom
    assert avoid_gf_layered((1,)) == RationalGF.of(1)
    assert avoid_gf_layered(()) == RationalGF.of(0)


@pytest.mark.parametrize("n", range(1, 6))
def test_avoid_gf_layered_matches_brute_force(n):
    for pattern in generate(C3, n):
        expansion = avoid_gf_layered(pattern).expand(12).integers()
        assert expansion == brute_avoider_counts(C3, pattern, 12), pattern


@pytest.mark.parametrize("n", range(1, 6))
def test_avoid_gf_sum_word_matches_brute_force(n):
    for pattern in generate(C4, n):
        expansion = avoid_gf_sum_word(pattern).expand(12).integers()
        assert expansion == brute_avoider_counts(C4, pattern, 12), pattern


def test_avoidance_gfs_have_int_coefficients():
    # avoidance and involvement GFs of every c3 composition of size <= 8 and
    # every c4 sum word of size <= 7: int series, and the exact Decimal
    # expansion the CLI prints holds the same integers
    gfs = []
    for p in (p for n in range(9) for p in generate(C3, n)):
        gfs += [avoid_gf_layered(p), class_gf(C3) - avoid_gf_layered(p)]
    for w in (w for n in range(8) for w in generate(C4, n)):
        gfs += [avoid_gf_sum_word(w), involve_gf_sum_word(w)]
    assert len(gfs) == 2 * (256 + 128)
    for gf in gfs:
        coeffs = gf.num.coeffs + gf.den.coeffs + gf.expand(40).coeffs
        assert all(type(c) is int for c in coeffs), gf
        assert gf.decimal_coefficients(40) == gf.expand(40).coeffs, gf


@pytest.mark.parametrize("cid, text", [(C3, "4+1"), (C4, "a2 b3")])
def test_deep_decimal_expansion_prints_the_int_digits(cid, text):
    # to order 4,000 (last coefficients of 1,059 and 837 digits), as the
    # text gf --expand writes: str of each coefficient
    gf = avoid_gf(cid, parse_element(cid, text))
    decimals = gf.decimal_coefficients(4000)
    ints = gf.expand(4000).integers()
    assert len(str(ints[-1])) > 800
    assert list(map(str, decimals)) == list(map(str, ints))


def test_avoid_gf_picks_the_class_gf(monkeypatch):
    assert avoid_gf(C3, (3, 1)) == avoid_gf_layered((3, 1))
    assert avoid_gf(C4, (-1, 3, -1)) == avoid_gf_sum_word((-1, 3, -1))
    for cid in (ClassId.AV_312_123, ClassId.AV_312_213):
        with pytest.raises(ValueError):
            avoid_gf(cid, ())
    # the class GFs are looked up by their module names at each call, so a
    # wrapper bound to those names (as the benchmark's tracer binds) sees it
    monkeypatch.setattr(genfun, "avoid_gf_layered", lambda pattern: "layered")
    monkeypatch.setattr(genfun, "avoid_gf_sum_word", lambda word: "sum word")
    assert avoid_gf(C3, (3, 1)) == "layered"
    assert avoid_gf(C4, (2,)) == "sum word"


def test_involve_gf_base_case():
    assert involve_gf_sum_word(()) == class_gf(C4)
    assert avoid_gf_sum_word(()) == RationalGF.of(0)  # avoided by nothing: fields (0, 1)
    # the per-letter recursion, kept as an oracle for the one-pass product
    words = [w for n in range(1, 10) for w in generate(C4, n)]
    assert len(words) == 511
    for w in words:
        head = prefix_factor(w[0]) if w[0] > 0 else run_factor(-w[0])
        assert involve_gf_sum_word(w) == head * involve_gf_sum_word(w[1:]), w


def test_product_identities():
    # a final run letter a_i leaves the words of longest increasing
    # subsequence below i; the run factor times the class GF is the rest
    short = Poly.of(0)
    for i in range(1, 61):
        short = short + lis_count_poly(i - 1)
        assert run_factor(i) * class_gf(C4) == class_gf(C4) - RationalGF.of(short), i
    # a layer a: a word uses layers below a throughout or starts with the
    # shortest prefix involving a
    for a in range(1, 31):
        assert class_gf(C3) * (RationalGF.of(1) - prefix_factor(a)) == RationalGF(
            ONE, layered_denominator(a)
        ), a


def test_long_run_letter():
    # a single run letter of size 1000 is avoided by every word of longest
    # increasing subsequence below 1000: a polynomial, built in well under 5 s
    start = time.perf_counter()
    gf = avoid_gf_sum_word((-1000,))
    assert gf.den == ONE
    assert gf.expand(12).integers() == (1,) + tuple(2**k for k in range(12))
    assert time.perf_counter() - start < 5


def test_no_recursion_per_pattern_letter():
    # the product is one loop, so a pattern's length is not bounded by the
    # recursion limit: 150 letters expand with 100 frames to spare
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        gfs = [avoid_gf_layered((1,) * 150), avoid_gf_sum_word((2, -1) * 75)]
    finally:
        sys.setrecursionlimit(limit)
    for gf in gfs:
        assert gf.expand(12).integers() == (1,) + tuple(2**k for k in range(12))


def gcd_path(letters, letter_run_factor):
    # the parts of the product multiplied out unreduced and reduced by
    # Euclid's gcd in RationalGF's constructor; avoidance as a difference
    num, den = class_gf(C4).num, class_gf(C4).den
    for letter in letters:
        factor = prefix_factor(letter) if letter > 0 else letter_run_factor(-letter)
        num, den = num * factor.num, den * factor.den
    involve = RationalGF(num, den)
    return involve, class_gf(C4) - involve


def test_known_factor_reduction_matches_the_gcd():
    # every GF reduced by its known denominator factors has the fields the
    # gcd gives, over every c3 composition of size <= 12 and every c4 sum
    # word of size <= 10
    compositions = [p for n in range(13) for p in generate(C3, n)]
    assert len(compositions) == 4096
    for p in compositions:
        gf = avoid_gf_layered(p)
        expected = gcd_path(p, run_factor)[1]
        assert (gf.num, gf.den) == (expected.num, expected.den), p
    words = [w for n in range(11) for w in generate(C4, n)]
    assert len(words) == 1024
    for w in words:
        involve, avoid = gcd_path(w, run_factor)
        naive = gcd_path(w, naive_run_factor)[0]
        for gf, expected in (
            (involve_gf_sum_word(w), involve),
            (avoid_gf_sum_word(w), avoid),
            (involve_gf_product_form(w), naive),
        ):
            assert (gf.num, gf.den) == (expected.num, expected.den), w


@pytest.mark.parametrize(
    "cid, pattern",
    [
        (C3, (3,) * 15), (C3, (3, 4, 5) * 5), (C4, (-2, 3) * 8), (C4, (-1, 2) * 10), (C4, (3,) * 20),
        (C3, tuple(range(3, 40))), (C4, (-2, 7) * 30), (C4, (-5, 3, -1, 9) * 10),
    ],
)
def test_repeated_factors_leave_the_normal_form(cid, pattern):
    # a denominator factor repeated 10-30 times, or 37 distinct D_j, beyond
    # the exhaustive range above: the trusted pair is in normal form when
    # den(0) = 1 and num and den are coprime.  Euclid over the rationals
    # takes seconds to minutes at these degrees, so coprimality is decided
    # mod a prime, here and in RationalGF's constructor
    gfs = [avoid_gf(cid, pattern)]
    if cid is C4:
        gfs += [involve_gf_sum_word(pattern), involve_gf_product_form(pattern)]
    for gf in gfs:
        assert gf.den.coefficient(0) == 1
        assert _coprime_mod_prime(gf.num, gf.den)
        again = RationalGF(gf.num, gf.den)
        assert (again.num, again.den) == (gf.num, gf.den)


def test_closed_form_premises():
    # the premises (a)-(c) of the closed-form reduction (genfun's docstring),
    # exactly for every index up to 300
    half = Fraction(1, 2)
    for n in range(301):
        assert lis_count_poly(n).eval(half) == Fraction(2, 3) + Fraction(1, 3) / 4**n, n
    for i in range(2, 301):
        reduced = reduced_lis_poly(i - 1).scale(2) - reduced_lis_poly(i - 2)
        assert reduced.coefficient(0) == 1 and min(reduced.coeffs) >= 0, i
        assert reduced.shift(i) == lis_count_poly(i) - lis_count_poly(i - 1).shift(2), i
    for j in range(3, 301):
        assert layered_denominator(j).eval(half) > 0 > layered_denominator(j).eval(1), j


def test_factored_form_from_the_letters():
    # the reduced fields as products over the letters (genfun's docstring),
    # built from D_j and b_n alone: for every c3 composition of size <= 12
    # and every c4 sum word of size <= 10
    one_minus_t, one_minus_2t = layered_denominator(2), Poly.of(1, -2)

    def run_numerator(i):  # M_i = 2 b_(i-1) - b_(i-2), with M_1 = 1
        return ONE if i == 1 else reduced_lis_poly(i - 1).scale(2) - reduced_lis_poly(i - 2)

    for n in range(1, 13):
        for p in generate(C3, n):
            factors = [one_minus_t] * (len(p) - 1) + [layered_denominator(j) for j in p]
            assert avoid_gf_layered(p).den == math.prod(factors, start=ONE), p
    for n in range(1, 11):
        for w in generate(C4, n):
            runs = [run_numerator(-i) for i in w if i < 0]
            drops = [layered_denominator(j) for j in w if j > 0]
            num = math.prod(runs, start=Poly.monomial(n))
            den = math.prod([one_minus_t] * (len(w) - 1) + drops, start=one_minus_2t)
            gf = involve_gf_sum_word(w)
            assert (gf.num, gf.den) == (num, den), w


def _run_numerators(top: int) -> list[Poly]:
    # M_0 .. M_top by M_i = (2 + t) M_(i-1) - M_(i-2), from M_0 = 1 - t, M_1 = 1
    m = [Poly.of(1, -1), ONE]
    while len(m) <= top:
        m.append(Poly.of(2, 1) * m[-1] - m[-2])
    return m


def test_run_numerators_obey_their_three_term_recurrence():
    # the finite premises of the coprimality of the M_i (ROADMAP item 2), first:
    # genfun's M_i, built from b_(i-1) and b_(i-2), follow the recurrence
    m = _run_numerators(60)
    for i in range(1, 61):
        assert genfun._run_numerator(i) == m[i], i


def test_run_numerators_at_minus_one_cycle_and_never_vanish():
    # at t = -1 the recurrence is M_i = M_(i-1) - M_(i-2), of period 6
    values = [genfun._run_numerator(i).eval(-1) for i in range(1, 61)]
    assert values == [1, -1, -2, -1, 1, 2] * 10


def test_run_numerators_pairwise_coprime_to_sixty():
    # 1,770 pairs; with M_i(-1) never 0 and the recurrence, the premises of the proof
    m = {i: genfun._run_numerator(i) for i in range(2, 61)}
    for i, j in itertools.combinations(m, 2):
        assert _coprime_mod_prime(m[i], m[j]), (i, j)


def _power_of_three(n: int) -> bool:
    while n % 3 == 0:
        n //= 3
    return n == 1


def test_cyclotomic_values_at_minus_two_are_powers_of_three_only_to_three():
    # step (4) of the coprimality proof, for m <= 200: Phi_m is t^m - 1 over
    # every Phi_d for d a proper divisor of m, each division exact
    phi = {}
    for m in range(1, 201):
        rest = Poly.monomial(m) - ONE
        for d in range(1, m):
            if m % d == 0:
                rest, zero = rest.divmod(phi[d])
                assert zero.is_zero(), (m, d)
        phi[m] = rest
    assert phi[6] == Poly.of(1, -1, 1)
    assert [m for m in phi if _power_of_three(abs(phi[m].eval(-2)))] == [1, 2, 3]


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_run_numerators_have_their_roots_simple_and_in_minus_four_to_zero():
    # step (2) of the coprimality proof, for i <= 40, by a Sturm chain: each
    # pseudo-remainder is scaled by |lead|^(delta+1) and divided by its
    # content, both positive, so every sign is that of the true remainder
    for i in range(2, 41):
        m = genfun._run_numerator(i)
        chain = [m, Poly(tuple(k * c for k, c in enumerate(m.coeffs))[1:])]
        while chain[-1].degree > 0:
            a, b = chain[-2], chain[-1]
            rem = a.scale(abs(b.coeffs[-1]) ** (a.degree - b.degree + 1)).divmod(b)[1]
            if rem.is_zero():
                break
            content = math.gcd(*rem.coeffs)
            chain.append(Poly(tuple(-c // content for c in rem.coeffs)))
        assert chain[-1].degree == 0, i  # gcd(M_i, M_i') is a constant: squarefree
        at = {x: [p.eval(x) for p in chain] for x in (-4, 0)}
        assert at[-4][0] and at[0][0], i
        assert _sign_changes(at[-4]) - _sign_changes(at[0]) == i - 1 == m.degree, i


def test_built_gfs_are_not_kept_alive():
    # a pass over many patterns holds only the GFs its caller keeps
    builds = [
        (avoid_gf_layered, (5, 3, 1)),
        (avoid_gf_sum_word, (-2, 3)),
        (involve_gf_sum_word, (-2, 3)),
    ]
    for build, pattern in builds:
        ref = weakref.ref(build(pattern))
        gc.collect()
        assert ref() is None, (build.__name__, pattern)


@pytest.mark.parametrize("word", [(-2,), (3, -1), (-1, 2, -1)])
def test_closed_form_checks_its_divisions(word):
    # with the naive run numerator b_i, a run letter's factor is not 1 at
    # t = 1/2, so 1-2t does not divide (1-t) den - num: avoidance with it
    # raises instead of returning a pair
    with pytest.raises(ArithmeticError, match="does not reduce the GF of"):
        genfun._pattern_gf(word, reduced_lis_poly, avoid=True)


def test_divmod_decides_divisibility():
    # against the gcd for every polynomial of degree <= 4 with coefficients
    # -1, 0, 1, and for multiples of each factor, by the two factors the
    # reduction divides out, 1-2t and 1-t, and by D_3 and D_4
    factors = [Poly.of(1, -2), Poly.of(1, -1), layered_denominator(3), layered_denominator(4)]
    small = [Poly(c) for c in itertools.product((-1, 0, 1), repeat=5)]
    for f in factors:
        for p in small + [f * q for q in small]:
            try:
                quotient, rest = p.divmod(f)
            except ArithmeticError:
                rest = None
            if poly_gcd(p, f) == f.primitive():
                assert rest is not None and rest.is_zero() and quotient * f == p, (p, f)
            else:
                assert rest is None or not rest.is_zero(), (p, f)


def test_product_form_vanishes_but_overcounts():
    # the product form factors through the run-count polynomials, so it is
    # zero at their roots; the exact involvement GF is zero at none of them,
    # and the two expansions differ
    exact = involve_gf_sum_word((-2,))
    product = involve_gf_product_form((-2,))
    assert exact.expand(4).integers() == (0, 0, 1, 4, 8)
    assert product.expand(4).integers() != exact.expand(4).integers()
    assert product_form_vanishes_at((-2,), 2)
    assert poly_gcd(exact.num, reduced_lis_poly(2)) == ONE
    # the per-letter product loop, kept as an oracle for the one-pass product
    words = [w for n in range(9) for w in generate(C4, n)]
    assert len(words) == 256
    for w in words:
        loop = class_gf(C4)
        for letter in w:
            if letter > 0:
                loop = loop * prefix_factor(letter)
            else:
                loop = loop * RationalGF(lis_count_poly(-letter), Poly.of(1, -1))
        assert involve_gf_product_form(w) == loop, w


def test_leading_layer_cancellation():
    # prepending the same layer preserves equality and inequality of GFs
    pairs = [((1, 1), (2,), True), ((3,), (2, 1), False), ((2, 2), (1, 1, 2), True)]
    for left, right, equal in pairs:
        assert (avoid_gf_layered(left) == avoid_gf_layered(right)) == equal
        for a in range(1, 5):
            assert (
                avoid_gf_layered((a,) + left) == avoid_gf_layered((a,) + right)
            ) == equal


def test_two_drop_avoidance_recursion():
    # F for the pattern (b2, bk) satisfies F = 1/(1-t) + t^2/(1-t)^2 * F(bk)
    geom = RationalGF(ONE, Poly.of(1, -1))
    ratio = RationalGF(Poly.monomial(2), Poly.of(1, -2, 1))
    for k in range(2, 7):
        assert avoid_gf_sum_word((2, k)) == geom + ratio * avoid_gf_sum_word((k,))


def test_special_pair_identity():
    for k in range(2, 9):
        f, g = special_pair_gfs(k)
        assert f == g, k
    f, g = special_pair_gfs(5)
    assert f.expand(20).coeffs == g.expand(20).coeffs
    with pytest.raises(PreconditionError):
        special_pair_gfs(1)


def layered_to_sum_word(pattern):
    # a layer p >= 2 becomes b_p, two adjacent 1s (paired left to right)
    # become b2, and any other 1 becomes a1
    word, i = [], 0
    while i < len(pattern):
        if pattern[i] == 1 and pattern[i + 1 : i + 2] == (1,):
            word.append(2)
            i += 2
        else:
            word.append(-1 if pattern[i] == 1 else pattern[i])
            i += 1
    return tuple(word)


def test_every_layered_avoidance_gf_is_a_sum_word_one():
    # the factor identities that let the map above work at every size
    g1 = prefix_factor(1)
    assert g1 * g1 == prefix_factor(2)
    assert run_factor(1) == g1
    assert class_gf(C4) * g1 == class_gf(C4) - RationalGF.of(1)
    compositions = [p for n in range(11) for p in generate(C3, n)]
    assert len(compositions) == 1024
    for p in compositions:
        word = layered_to_sum_word(p)
        validate_element(C4, word)
        assert size_of(C4, word) == size_of(C3, p)
        assert avoid_gf_layered(p) == avoid_gf_sum_word(word), (p, word)
        # the layered sum recursion, kept as an oracle for the product
        if p:
            assert avoid_gf_layered(p) == RationalGF(
                ONE, layered_denominator(p[0])
            ) + prefix_factor(p[0]) * avoid_gf_layered(p[1:]), p


# ---------------------------------------------------------------------------
# Run-count polynomials

def lis_length(perm):
    if not perm:
        return 0
    best = [1] * len(perm)
    for i, v in enumerate(perm):
        for j in range(i):
            if perm[j] < v:
                best[i] = max(best[i], best[j] + 1)
    return max(best)


def test_lis_poly_examples():
    assert lis_count_poly(0) == ONE
    assert lis_count_poly(1) == Poly.of(0, 1, 1)
    assert lis_count_poly(2) == Poly.of(0, 0, 1, 3, 1)
    assert reduced_lis_poly(1) == Poly.of(1, 1)


@pytest.mark.parametrize("n", range(0, 5))
def test_lis_poly_counts_by_longest_run(n):
    counts = {}
    for m in range(0, 11):
        for w in generate(C4, m):
            length = lis_length(to_permutation(C4, w))
            if length == n:
                counts[m] = counts.get(m, 0) + 1
    poly = lis_count_poly(n)
    for m in range(0, 11):
        assert poly.coefficient(m) == counts.get(m, 0), (n, m)


def test_lis_poly_cold_cache_large_index():
    # the closed form has no recursion depth: a cold index 1000 works
    lis_root.cache_clear()
    poly = lis_count_poly(1000)
    assert poly.degree == 2000 and poly.coefficient(1000) == 1
    assert poly.coefficient(1001) == math.comb(1001, 2)
    assert -1e-5 < lis_root(1000) < 0


def test_lis_poly_coefficients_are_the_binomials():
    # the coefficient ratio builds C(n+k, 2k) with exact integer division
    for n in range(301):
        expected = tuple(math.comb(n + k, 2 * k) for k in range(n + 1))
        assert reduced_lis_poly(n).coeffs == expected, n


@pytest.mark.parametrize(
    "cid, pattern",
    [(C3, (j,)) for j in range(1, 7)]
    + [(C4, (j,)) for j in range(2, 7)]
    + [(C4, (-i, j)) for i in range(1, 6) for j in range(2, 5)],
)
def test_prefix_factors_count_minimal_prefixes(cid, pattern):
    # coefficient m of a letter's factor (a run letter's with the drop letter
    # after it) counts the size-m words that are their own shortest prefix
    # involving those letters
    factor = prefix_factor(pattern[-1])
    if len(pattern) == 2:
        factor = run_factor(-pattern[0]) * factor
    coeffs = factor.expand(12).coeffs
    for m in range(13):
        minimal = [w for w in generate(cid, m) if shortest_prefix_end(cid, w, pattern) == len(w)]
        assert coeffs[m] == len(minimal), (pattern, m)


def test_lis_poly_degree_window():
    for n in range(1, 9):
        p = lis_count_poly(n)
        assert p.degree == 2 * n
        assert p.coefficient(n) != 0
        assert all(p.coefficient(k) == 0 for k in range(n))


# ---------------------------------------------------------------------------
# Roots

def test_lis_roots():
    assert lis_root(1) == -1.0
    expected = (-3 + math.sqrt(5)) / 2
    assert abs(lis_root(2) - expected) < 1e-9
    values = [lis_root(n) for n in range(2, 11)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(-0.5 < v < 0 for v in values)
    with pytest.raises(PreconditionError):
        lis_root(0)


def test_lis_roots_beyond_150():
    # from n = 151 on the two roots nearest 0 lie within 1/1024 of 0, where a
    # coarse sign-change scan misses both; each value must bracket a zero
    values = {n: lis_root(n) for n in range(2, 201)}
    assert all(values[n] < values[n + 1] for n in range(2, 200))
    for n in (151, 160, 200):
        assert abs(values[n] + 4 * math.sin(math.pi / (2 * (2 * n + 1))) ** 2) < 1e-12
        x = Fraction(values[n])
        poly = reduced_lis_poly(n)
        assert (poly.eval(x * Fraction(999999, 10**6)) > 0) != (
            poly.eval(x * Fraction(1000001, 10**6)) > 0
        ), n


def test_layered_roots():
    assert layered_root(2) == 1.0
    assert abs(layered_root(3) - (math.sqrt(5) - 1) / 2) < 1e-9
    assert 0.5 < layered_root(10) < 0.52
    values = [layered_root(a) for a in range(2, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(PreconditionError):
        layered_root(1)


def test_dyadic_points_bracket_the_root():
    # both certificate points lie strictly inside root * (1 +- 5e-7), one on
    # each side of the root
    roots = [lis_root(n) for n in range(2, 401)] + [layered_root(a) for a in range(3, 401)]
    for root in roots:
        lo, hi, k = genfun._dyadic_bracket(root)
        x = Fraction(root)
        a, b = sorted((x * Fraction(1999999, 2000000), x * Fraction(2000001, 2000000)))
        assert a < Fraction(lo, 2**k) < x < Fraction(hi, 2**k) < b, root


def _fraction_bracket(root):
    # _dyadic_bracket as first written, in Fractions
    k = 23 - math.frexp(root)[1]
    x = Fraction(root) * 2**k
    half_width = abs(x) / 2_000_000
    return math.floor(x - half_width) + 1, math.ceil(x + half_width) - 1, k


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_dyadic_bracket_matches_fractions(root):
    assert genfun._dyadic_bracket(root) == _fraction_bracket(root)


def test_dyadic_bracket_matches_fractions_at_powers_of_two():
    # every binary exponent, subnormals included, and 1/2 plus one low bit
    roots = [sign * 2.0**e for e in range(-1074, 1024) for sign in (1, -1)]
    roots += [0.5 + 2.0 ** -(a + 1) for a in range(401)]
    for root in roots:
        assert genfun._dyadic_bracket(root) == _fraction_bracket(root), root


def _fraction_endpoint_sign_change(poly, root):
    # the certificate before the dyadic points: exact signs at the interval's
    # own ends root * (1 +- 5e-7), as Fractions
    def sign_at(x):
        p, q = x.numerator, x.denominator
        acc, q_power = 0, 1
        for c in reversed(poly.coeffs):
            acc = acc * p + c * q_power
            q_power *= q
        return (acc > 0) - (acc < 0)

    x = Fraction(root)
    half_width = x / 2_000_000
    return sign_at(x - half_width) * sign_at(x + half_width) < 0


def test_lis_certificate_matches_fraction_endpoints():
    for n in range(2, 201):
        poly = reduced_lis_poly(n)
        value = -4.0 * math.sin(math.pi / (2 * (2 * n + 1))) ** 2
        lo_value, hi_value = genfun._lis_bracket_values(n, value)
        assert lo_value < 0 < hi_value, n
        assert _fraction_endpoint_sign_change(poly, value), n
        # a value off by 2e-6 brackets no zero: the check is not vacuous
        off = value * (1 + 2e-6)
        lo_value, hi_value = genfun._lis_bracket_values(n, off)
        assert (lo_value > 0) == (hi_value > 0), n
        assert not _fraction_endpoint_sign_change(poly, off), n


def _scaled_horner(poly, p, k):
    # 2^(k * degree) poly(p/2^k), by Horner's rule in integers
    acc = 0
    for i, c in enumerate(reversed(poly.coeffs)):
        acc = acc * p + (c << i * k)
    return acc


def test_lis_recurrence_matches_scaled_horner():
    # the certificate's recurrence gives the integers of scaled Horner on
    # the dense b_n, at the closed-form value and at one off by 2e-6
    for n in range(2, 201):
        poly = reduced_lis_poly(n)
        for value in (lis_root(n), lis_root(n) * (1 + 2e-6)):
            lo, hi, k = genfun._dyadic_bracket(value)
            expected = (_scaled_horner(poly, lo, k), _scaled_horner(poly, hi, k))
            assert genfun._lis_bracket_values(n, value) == expected, n


def test_layered_root_is_the_horner_bisection():
    # bisecting (1-t) - t(1 - t^(a-1)) gives the root Horner's rule on the
    # dense D_a gives, bit for bit
    for a in range(3, 2001):
        dense = Poly.of(1, *([-1] * (a - 1)))
        assert layered_root(a) == genfun._bisect(dense.eval, 0.0, 1.0), a


def test_layered_check_rejects_a_wrong_value(monkeypatch):
    true_root = layered_root(10)
    monkeypatch.setattr(genfun, "_bisect", lambda f, lo, hi: true_root * (1 + 2e-6))
    layered_root.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            layered_root(10)
    finally:
        layered_root.cache_clear()


def test_roots_are_cached_per_index():
    lis_root.cache_clear()
    layered_root.cache_clear()
    for n in (2, 50, 151):
        assert lis_root(n) is lis_root(n)
        assert layered_root(n + 1) is layered_root(n + 1)
    assert lis_root.cache_info().hits == layered_root.cache_info().hits == 3


# ---------------------------------------------------------------------------
# Pole classification and zeros

def test_classify_pole_examples():
    assert classify_pole((2, 1), 3) == "finite"
    assert classify_pole((3, 1), 3) == "infinite"
    assert classify_pole((1,), 3) == "finite"
    with pytest.raises(PreconditionError):
        classify_pole((2, 1), 2)
    with pytest.raises(PreconditionError):
        classify_pole((1, 2), 3)


def test_product_form_zero_pattern_across_words():
    # for the product form the vanishing index is exactly the largest run
    # letter; checked by exact polynomial divisibility, since the values at
    # the higher roots shrink like powers of the root and defeat any fixed
    # float tolerance
    for word in [(-2,), (-2, 2), (2, -3), (-2, 3, -1), (-3, 2, -1)]:
        n = max(-v for v in word if v < 0)
        assert product_form_vanishes_at(word, n), word
        for m in range(n + 1, n + 4):
            assert not product_form_vanishes_at(word, m), (word, m)


def test_drop_words_nonzero_at_roots():
    # involvement GFs of words with no run letter of index >= 2 vanish at
    # no root of the reduced run-count polynomials
    for word in [(2,), (3,), (2, 2), (2, -1, 2), (4, -1)]:
        gf = involve_gf_sum_word(word)
        for n in range(2, 6):
            assert poly_gcd(gf.num, reduced_lis_poly(n)) == ONE, (word, n)


def test_chebyshev_identity():
    assert chebyshev_identity_holds(0)
    assert chebyshev_identity_holds(1)
    for n in (*range(2, 11), 151, 200):
        assert chebyshev_identity_holds(n), n
