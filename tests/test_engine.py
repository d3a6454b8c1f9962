from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wilfcollapse import cli
from wilfcollapse.encodings import (
    ClassId,
    avoiding_elements,
    generate,
    to_permutation,
)
from wilfcollapse.engine import (
    CollapseRow,
    collapse_rows,
    count_avoiders,
    canonical_groups,
    gf_crosscheck,
    proving_depth,
    verify_completeness,
    verify_soundness,
    wilf_classes,
)
from wilfcollapse.genfun import avoid_gf
from wilfcollapse.perms import involves
from wilfcollapse.series import Poly, RationalGF

C1, C2, C3, C4 = ClassId


def test_count_avoiders_examples():
    assert count_avoiders(C3, (2,), 6) == (1,) * 7
    assert count_avoiders(C4, (2,), 6) == (1,) * 7
    # a decreasing pattern leaves finitely many avoiders
    assert count_avoiders(C1, (0, 0, 3), 6) == (1, 1, 2, 3, 1, 0, 0)
    # every element involves the empty pattern, every nonempty one a point;
    # c2's empty permutation is None and its one-point permutation ""
    for cid, empty, point in ((C2, None, ""), (C3, (), (1,)), (C4, (), (-1,))):
        assert count_avoiders(cid, empty, 6) == (0,) * 7, cid
        assert count_avoiders(cid, point, 6) == (1,) + (0,) * 6, cid
    # to depth 0 only the empty permutation is counted
    for cid, pattern in ((C1, (1, 1, 0)), (C2, "L"), (C3, (1, 2)), (C4, (2, -1))):
        assert count_avoiders(cid, pattern, 0) == (1,), cid


def test_count_avoiders_budget():
    # one depth check, engine._check_depth, which every entry point reaches
    with pytest.raises(ValueError, match="depth -1 is negative"):
        count_avoiders(C3, (1,), -1)
    for check in (wilf_classes, verify_soundness, verify_completeness, collapse_rows,
                  gf_crosscheck):
        with pytest.raises(ValueError, match="depth -1 is negative"):
            check(C3, 3, -1)
    # a table of no rows still rules on its depth
    with pytest.raises(ValueError, match="depth -1 is negative"):
        collapse_rows(C3, 0, -1)


# c2-c4 up to cli.MAX_PATTERN_SIZE are proved through the CLI by
# test_cli.py::test_an_omitted_depth_is_the_proving_depth
@pytest.mark.parametrize("cid, n_max", [(C1, 30)])
def test_wilf_classes_past_the_cli_limits(cid, n_max):
    # the library takes sizes and depths above the CLI's flag ranges; at the
    # proving depth the Wilf classes are the canonical classes
    for n in range(1, n_max + 1):
        depth = proving_depth(cid, n)
        brute = [g.members for g in wilf_classes(cid, n, depth)]
        assert brute == list(canonical_groups(cid, n)), (cid, n)
        assert verify_soundness(cid, n, depth) == ()
        assert verify_completeness(cid, n, depth) == ()
    assert count_avoiders(C4, (-2, 3), 40) == avoid_gf(C4, (-2, 3)).expand(40).integers()


def test_the_cli_depth_limit_is_the_largest_proving_depth():
    # cli.MAX_DEPTH is c4's proving depth at the size limit 12
    assert cli.MAX_DEPTH == 33
    assert [proving_depth(c, 12) for c in ClassId] == [13, 13, 22, 33]
    assert [proving_depth(c, 8) for c in ClassId] == [9, 9, 14, 21]
    assert [proving_depth(c, n) for c in ClassId for n in (0, 1, 2)] == [0, 0, 3] * 4


def test_gf_degrees_within_the_lemma():
    # the engine docstring's degree bounds, which make depth D(n) a proof;
    # from size 3 on some pattern reaches each of them
    for n in range(2, 13):
        for cid, num_bound in ((C3, n - 1), (C4, 2 * n - 2)):
            gfs = [avoid_gf(cid, pattern) for pattern in generate(cid, n)]
            num_degree = max(gf.num.degree for gf in gfs)
            den_degree = max(gf.den.degree for gf in gfs)
            assert num_degree <= num_bound and den_degree <= n - 1, (cid, n)
            assert (num_degree, den_degree) == (num_bound, n - 1) or n == 2, (cid, n)


def generic_counts(cid, pattern, depth):
    decoded = to_permutation(cid, pattern)
    return tuple(
        sum(
            1
            for e in generate(cid, m)
            if not involves(decoded, to_permutation(cid, e))
        )
        for m in range(depth + 1)
    )


def brute_counts(cid, pattern, depth):
    return tuple(len(avoiding_elements(cid, pattern, m)) for m in range(depth + 1))


def test_count_avoiders_matches_brute_force_in_criterion_2_range():
    # the scan-automaton counts equal enumeration with the order test for
    # every c2-c4 pattern of size 0-8 to depth 16, criterion 2's range
    for cid in (C2, C3, C4):
        for n in range(9):
            for pattern in generate(cid, n):
                assert count_avoiders(cid, pattern, 16) == brute_counts(
                    cid, pattern, 16
                ), (cid, pattern)


def test_count_avoiders_matches_brute_force_for_c1():
    # c1's binomial counts equal enumeration with the order test for every
    # pattern of size 0-20 to depth 18, patterns larger than the depth included
    for n in range(21):
        for pattern in generate(C1, n):
            assert count_avoiders(C1, pattern, 18) == brute_counts(
                C1, pattern, 18
            ), pattern


def c1_closed_form(pattern):
    """ROADMAP item 1's avoidance GF of a c1 pattern of size n >= 2."""
    n = sum(pattern)
    one_minus_t = Poly.of(1, -1)
    if pattern[0]:
        return RationalGF(Poly.of(1), one_minus_t) + RationalGF(
            Poly.monomial(2) - Poly.monomial(n), one_minus_t * one_minus_t * one_minus_t
        )
    below = [comb(m, 2) + 1 for m in range(n)]
    above = [comb(2 * n - m, 2) for m in range(n, 2 * n - 1)]
    return RationalGF.of(Poly.of(*below, *above))


def test_count_avoiders_matches_closed_forms_for_c1():
    # a second oracle: every c1 pattern of size 2-12 to depth 18
    for n in range(2, 13):
        for pattern in generate(C1, n):
            assert (
                count_avoiders(C1, pattern, 18)
                == c1_closed_form(pattern).expand(18).integers()
            ), pattern


C3_C4_PATTERNS = [(cid, p) for cid in (C3, C4) for n in range(8) for p in generate(cid, n)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(C3_C4_PATTERNS), st.integers(min_value=0, max_value=14))
def test_count_avoiders_brute_force_and_gf_agree(case, depth):
    cid, pattern = case
    counts = count_avoiders(cid, pattern, depth)
    assert counts == brute_counts(cid, pattern, depth)
    assert counts == avoid_gf(cid, pattern).expand(depth).integers()


def test_count_avoiders_matches_generic_involvement():
    # dual-oracle agreement: structural counting equals counting by the
    # generic containment test on decoded permutations
    for cid in ClassId:
        for n in range(1, 5):
            for pattern in generate(cid, n):
                structural = count_avoiders(cid, pattern, 9)
                assert structural == generic_counts(cid, pattern, 9), (cid, pattern)


def test_count_avoiders_matches_generic_involvement_deeper_sample():
    # spot extension of the dual-oracle agreement to size-6 patterns, depth 12
    for cid in ClassId:
        patterns = generate(cid, 6)
        sample = [patterns[0], patterns[len(patterns) // 2], patterns[-1]]
        for pattern in sample:
            assert (
                count_avoiders(cid, pattern, 12)
                == generic_counts(cid, pattern, 12)
            ), (cid, pattern)


def test_wilf_class_counts():
    assert len(wilf_classes(C2, 5, 12)) == 1
    assert len(wilf_classes(C1, 4, 12)) == 2
    assert len(wilf_classes(C3, 4, 12)) == 3
    assert len(wilf_classes(C4, 4, 12)) == 5


def test_wilf_groups_match_canonical_groups_small():
    for cid in ClassId:
        for n in range(1, 6):
            brute = {frozenset(g.members) for g in wilf_classes(cid, n, 12)}
            canon = {frozenset(g) for g in canonical_groups(cid, n)}
            assert brute == canon, (cid, n)


def test_soundness_and_completeness():
    assert verify_soundness(C3, 4, 12) == ()
    assert verify_soundness(C4, 4, 12) == ()
    assert verify_completeness(C3, 4, 12) == ()
    # a single canonical class is vacuously complete
    assert verify_completeness(C3, 2, 8) == ()


def test_completeness_pairs_when_the_depth_cannot_separate():
    # the pairwise loop that grouping by counts replaced, as the oracle
    def pairwise(cid, n, depth):
        representatives = [g[0] for g in canonical_groups(cid, n)]
        return [
            (x, y)
            for i, x in enumerate(representatives)
            for y in representatives[i + 1 :]
            if count_avoiders(cid, x, depth) == count_avoiders(cid, y, depth)
        ]

    tied = 0
    for cid in ClassId:
        for n in range(7):
            for depth in range(n + 3):
                found = verify_completeness(cid, n, depth)
                pairs = [(f.x, f.y) for f in found]
                assert all(f.index is None for f in found)
                assert len(set(pairs)) == len(pairs)
                assert set(pairs) == set(pairwise(cid, n, depth)), (cid, n, depth)
                tied += len(pairs)
    assert tied > 0


def test_collapse_rows_examples():
    rows = collapse_rows(C2, 6, 12)
    assert rows[5].n == 6 and rows[5].c_n == 32 and rows[5].w_n == 1
    rows = collapse_rows(C1, 5, 12)
    assert rows[4].c_n == 11 and rows[4].w_n == 2
    rows = collapse_rows(C3, 6, 12)
    assert rows[5].c_n == 32 and rows[5].w_n == 6 and rows[5].canonical_count == 6
    # a row is the plain tuple the CLI prints, under the header of its fields
    assert rows[3] == (4, 8, 3, 3)
    assert CollapseRow._fields == ("n", "c_n", "w_n", "canonical_count")


def test_gf_crosscheck():
    assert gf_crosscheck(C3, 1, 16) == 1
    assert gf_crosscheck(C3, 4, 12) == 8
    assert gf_crosscheck(C4, 4, 12) == 8
    with pytest.raises(ValueError):
        gf_crosscheck(C2, 3, 10)


def test_cross_class_lemmas():
    # c1 has 7 avoiders of size 4 for every pattern of size 5 to 8, the other
    # classes 8, so c1's sequences stay apart from n = 5 on
    for cid in ClassId:
        for n in range(5, 9):
            fours = {count_avoiders(cid, p, 4)[4] for p in generate(cid, n)}
            assert fours == {7 if cid is C1 else 8}, (cid, n)
    # every c2 pattern of size n is counted as the c3 pattern 1+...+1
    for n in range(1, 9):
        ones = count_avoiders(C3, (1,) * n, 16)
        assert all(count_avoiders(C2, p, 16) == ones for p in generate(C2, n)), n
    # and that pattern's GF is ((1-t)^n - t^n)/((1-2t)(1-t)^(n-1))
    one_minus_t = RationalGF.of(Poly.of(1, -1))
    for n in range(1, 31):
        power = prod([one_minus_t] * (n - 1), start=RationalGF.of(1))
        t_n = RationalGF.of(Poly.monomial(n))
        expected = (power * one_minus_t - t_n) / (RationalGF.of(Poly.of(1, -2)) * power)
        assert avoid_gf(C3, (1,) * n) == expected, n
