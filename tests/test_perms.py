import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wilfcollapse.errors import ParseError
from wilfcollapse.perms import (
    SYMMETRIES,
    apply_symmetry,
    direct_sum,
    direct_sum_all,
    format_perm,
    involves,
    is_permutation,
    parse_perm,
    pattern_of,
    skew_sum,
    sum_decompose,
)


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def perms_up_to(n):
    return [p for m in range(n + 1) for p in all_perms(m)]


def brute_involves(pattern, target):
    k = len(pattern)
    return any(
        pattern_of([target[i] for i in idx]) == pattern
        for idx in itertools.combinations(range(len(target)), k)
    )


def test_is_permutation_and_parse():
    assert parse_perm("2,1,4,6,3,5") == (2, 1, 4, 6, 3, 5)
    assert parse_perm(" 2 , 1 ") == (2, 1)
    assert parse_perm("e") == ()
    assert format_perm((2, 1)) == "2,1"
    assert format_perm(()) == "e"
    with pytest.raises(ParseError):
        parse_perm("2,2")
    with pytest.raises(ParseError):
        parse_perm("2,x")
    assert not is_permutation((0, 1))


@pytest.mark.parametrize(
    "text, pos", [("²", 0), ("  1,x", 4), ("1, x", 3), ("1,\u0662", 2), ("2,\u00a01", 2)]
)
def test_parse_perm_reports_position_in_text_as_given(text, pos):
    # a digit that int cannot read, a decimal digit outside ASCII or a space
    # outside ASCII is a parse error too, and the position counts the
    # whitespace the text was given with
    with pytest.raises(ParseError) as caught:
        parse_perm(text)
    assert caught.value.pos == pos


def test_involves_examples():
    assert involves((), (2, 4, 1, 3))
    assert involves((1, 3, 2), (2, 4, 1, 3))
    assert not involves((1, 2), ())
    assert involves((1,), (1,))


def test_involves_against_brute_force():
    patterns = perms_up_to(3)
    targets = perms_up_to(5)
    for p in patterns:
        for t in targets:
            assert involves(p, t) == brute_involves(p, t), (p, t)


def has_decreasing_triple(p):
    # independent cubic scan for a 321 occurrence
    n = len(p)
    return any(
        p[i] > p[j] > p[k]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def test_321_detection_matches_triple_scan():
    import random

    for n in range(7):
        for p in all_perms(n):
            assert involves((3, 2, 1), p) == has_decreasing_triple(p)
    rng = random.Random(99)
    for _ in range(500):
        p = list(range(1, 9))
        rng.shuffle(p)
        p = tuple(p)
        assert involves((3, 2, 1), p) == has_decreasing_triple(p)


_MATRIX_CACHE = {}


def involvement_matrix(n):
    """Bitset rows of the involvement relation over all permutations <= n."""
    if n not in _MATRIX_CACHE:
        universe = perms_up_to(n)
        index = {p: i for i, p in enumerate(universe)}
        rows = []
        for p in universe:
            bits = 0
            for q in universe:
                if len(p) <= len(q) and involves(p, q):
                    bits |= 1 << index[q]
            rows.append(bits)
        _MATRIX_CACHE[n] = (universe, index, rows)
    return _MATRIX_CACHE[n]


def test_involves_reflexive_transitive():
    universe, index, rows = involvement_matrix(6)
    for i, p in enumerate(universe):
        assert rows[i] >> index[p] & 1, f"not reflexive at {p}"
    for i in range(len(universe)):
        row = rows[i]
        j = 0
        bits = row
        while bits:
            if bits & 1:
                # everything above j must also lie above i
                assert rows[j] & ~row == 0
            bits >>= 1
            j += 1


def test_symmetry_examples_and_group():
    assert apply_symmetry((3, 1, 2), "reverse") == (2, 1, 3)
    assert apply_symmetry((3, 1, 2), "inverse") == (2, 3, 1)
    assert apply_symmetry((3, 1, 2), "identity") == (3, 1, 2)
    assert len(SYMMETRIES) == 8
    # the eight transforms act distinctly on a generic permutation
    witness = (1, 2, 4, 5, 3)
    images = {name: apply_symmetry(witness, name) for name in SYMMETRIES}
    assert len(set(images.values())) == 8
    # every symmetry has order dividing 4
    for name in SYMMETRIES:
        p = witness
        for _ in range(4):
            p = apply_symmetry(p, name)
        assert p == witness, name
    # closure under composition
    all_images = set(images.values())
    for a in SYMMETRIES:
        for b in SYMMETRIES:
            assert apply_symmetry(apply_symmetry(witness, b), a) in all_images


def test_symmetry_preserves_involvement_exhaustive():
    universe, index, rows = involvement_matrix(5)

    def related(p, q):
        return rows[index[p]] >> index[q] & 1

    for name in SYMMETRIES:
        mapped = {p: apply_symmetry(p, name) for p in universe}
        for p in universe:
            for q in universe:
                assert related(p, q) == related(mapped[p], mapped[q])


@given(
    st.permutations(list(range(1, 6))),
    st.permutations(list(range(1, 5))),
    st.sampled_from(sorted(SYMMETRIES)),
)
def test_symmetry_preserves_involvement_sampled(target, pattern, name):
    target, pattern = tuple(target), tuple(pattern)
    assert involves(pattern, target) == involves(
        apply_symmetry(pattern, name), apply_symmetry(target, name)
    )


def test_sums():
    assert direct_sum((2, 1), (2, 4, 1, 3)) == (2, 1, 4, 6, 3, 5)
    assert skew_sum((2, 1), (2, 4, 1, 3)) == (6, 5, 2, 4, 1, 3)
    assert direct_sum((), (1, 2)) == (1, 2)
    assert skew_sum((), (1, 2)) == (1, 2)
    assert direct_sum((1,), (1,)) == (1, 2)
    assert skew_sum((1,), (1,)) == (2, 1)


def test_sum_decompose():
    assert sum_decompose((2, 1, 4, 6, 3, 5)) == [(2, 1), (2, 4, 1, 3)]
    assert sum_decompose((1, 2, 3)) == [(1,), (1,), (1,)]
    assert sum_decompose((3, 2, 1)) == [(3, 2, 1)]
    assert sum_decompose(()) == []


def brute_indecomposable(p):
    return len(p) > 0 and not any(
        set(p[:i]) == set(range(1, i + 1)) for i in range(1, len(p))
    )


def test_sum_decompose_roundtrip_exhaustive():
    for n in range(9):
        for p in all_perms(n):
            parts = sum_decompose(p)
            assert direct_sum_all(parts) == p
            assert all(brute_indecomposable(c) for c in parts)
            if brute_indecomposable(p):
                assert len(parts) == 1


@given(st.permutations(list(range(1, 9))))
def test_sum_decompose_roundtrip_sampled(p):
    p = tuple(p)
    assert direct_sum_all(sum_decompose(p)) == p

