import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wilfcollapse.encodings import (
    ClassId,
    avoiding_elements,
    generate,
    to_permutation,
)
from wilfcollapse.engine import (
    collapse_rows,
    count_avoiders,
    canonical_groups,
    gf_crosscheck,
    verify_completeness,
    verify_soundness,
    wilf_classes,
)
from wilfcollapse.errors import BudgetExceededError
from wilfcollapse.genfun import avoid_gf
from wilfcollapse.perms import involves

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
    with pytest.raises(BudgetExceededError):
        count_avoiders(C3, (2,), 19)
    with pytest.raises(BudgetExceededError):
        wilf_classes(C3, 9, 10)
    with pytest.raises(ValueError, match="depth -1"):
        count_avoiders(C3, (1,), -1)
    with pytest.raises(ValueError, match="depth -1"):
        wilf_classes(C3, 3, -1)


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


def test_collapse_rows_examples():
    rows = collapse_rows(C2, 6, 12)
    assert rows[5].n == 6 and rows[5].c_n == 32 and rows[5].w_n == 1
    rows = collapse_rows(C1, 5, 12)
    assert rows[4].c_n == 11 and rows[4].w_n == 2
    rows = collapse_rows(C3, 6, 12)
    assert rows[5].c_n == 32 and rows[5].w_n == 6 and rows[5].canonical_count == 6


def test_gf_crosscheck():
    assert gf_crosscheck(C3, 1, 16) == 1
    assert gf_crosscheck(C3, 4, 12) == 8
    assert gf_crosscheck(C4, 4, 12) == 8
    with pytest.raises(ValueError):
        gf_crosscheck(C2, 3, 10)

