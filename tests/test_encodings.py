import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wilfcollapse.encodings import (
    ClassId,
    avoiding_elements,
    class_leq,
    decode_function,
    format_element,
    format_function,
    from_permutation,
    generate,
    letters,
    parse_element,
    scan_automaton,
    size_of,
    to_permutation,
    validate_element,
)
from wilfcollapse.errors import BasisViolationError, ParseError
from wilfcollapse.perms import direct_sum, direct_sum_all, involves, skew_sum

ALL_CLASSES = list(ClassId)


def elements_up_to(cid, n):
    return [e for m in range(n + 1) for e in generate(cid, m)]


def test_cardinalities():
    # generate builds its tables in order and never sorts: check both here
    for cid in ALL_CLASSES:
        for n in range(17):
            members = generate(cid, n)
            if cid is ClassId.AV_312_123:
                expected = 1 if n == 0 else n * (n - 1) // 2 + 1
            else:
                expected = 1 if n == 0 else 2 ** (n - 1)
            assert len(members) == expected, (cid, n)
            assert all(x < y for x, y in zip(members, members[1:])), (cid, n)


def _decreasing(k):
    return tuple(range(k, 0, -1))


def _wedge_by_steps(e):
    # the defining construction: grow from one point, innermost step first,
    # L prepending a new minimum and R appending one
    if e is None:
        return ()
    perm = (1,)
    for step in reversed(e):
        shifted = tuple(v + 1 for v in perm)
        perm = (1,) + shifted if step == "L" else shifted + (1,)
    return perm


def _sum_letter(letter):
    if letter < 0:
        return tuple(range(1, -letter + 1))
    return tuple(range(2, letter + 1)) + (1,)


REFERENCE_DECODE = {
    ClassId.AV_312_123: lambda e: skew_sum(
        direct_sum(_decreasing(e[0]), _decreasing(e[1])), _decreasing(e[2])
    ),
    ClassId.AV_312_213: _wedge_by_steps,
    ClassId.AV_312_231: lambda e: direct_sum_all(_decreasing(part) for part in e),
    ClassId.AV_312_321: lambda e: direct_sum_all(_sum_letter(letter) for letter in e),
}


def test_raw_decoder_and_formatter_match_the_definitions():
    for cid in ALL_CLASSES:
        decode, fmt = decode_function(cid), format_function(cid)
        for e in elements_up_to(cid, 10):
            assert decode(e) == REFERENCE_DECODE[cid](e), (cid, e)
            assert fmt(e) == format_element(cid, e), (cid, e)


@pytest.mark.parametrize("cid, bad", [
    (ClassId.AV_312_123, (1, 0, 2)),
    (ClassId.AV_312_213, "LRX"),
    (ClassId.AV_312_231, (2, 0)),
    (ClassId.AV_312_321, (-1, -1)),
    (ClassId.AV_312_123, (1.5, 1, 0)),
])
def test_public_format_and_decode_validate(cid, bad):
    with pytest.raises(ValueError):
        format_element(cid, bad)
    with pytest.raises(ValueError):
        to_permutation(cid, bad)


def test_generated_permutations_distinct_and_in_class():
    for cid in ALL_CLASSES:
        for n in range(9):
            perms = [to_permutation(cid, e) for e in generate(cid, n)]
            assert len(set(perms)) == len(perms)
            for p in perms:
                assert len(p) == n
                for basis_element in cid.basis:
                    assert not involves(basis_element, p), (cid, p)


def test_roundtrip_exhaustive():
    for cid in ALL_CLASSES:
        for e in elements_up_to(cid, 8):
            assert from_permutation(cid, to_permutation(cid, e)) == e


@given(st.sampled_from(ALL_CLASSES), st.integers(min_value=9, max_value=16), st.data())
def test_roundtrip_beyond_exhaustive_sizes(cid, n, data):
    members = generate(cid, n)
    e = members[data.draw(st.integers(min_value=0, max_value=len(members) - 1))]
    assert from_permutation(cid, to_permutation(cid, e)) == e


def test_from_permutation_worked_examples():
    assert from_permutation(
        ClassId.AV_312_321, (2, 1, 3, 4, 6, 7, 8, 5, 9)
    ) == (2, -2, 4, -1)
    assert from_permutation(ClassId.AV_312_123, (2, 1, 4, 3)) == (2, 2, 0)
    with pytest.raises(BasisViolationError) as exc:
        from_permutation(ClassId.AV_312_231, (3, 1, 2))
    assert exc.value.basis_element == (3, 1, 2)


def test_decreasing_triples_never_use_positive_a():
    # ambiguity resolution: decreasing permutations encode as (0, 0, c)
    for c in range(1, 8):
        perm = tuple(range(c, 0, -1))
        assert from_permutation(ClassId.AV_312_123, perm) == (0, 0, c)
    for n in range(9):
        for e in generate(ClassId.AV_312_123, n):
            a, b, _ = e
            assert (a == 0) == (b == 0)


def test_wedge_shape():
    # every wedge decodes to an increasing run followed by a decreasing run
    for n in range(1, 9):
        for e in generate(ClassId.AV_312_213, n):
            p = to_permutation(ClassId.AV_312_213, e)
            peak = p.index(max(p))
            assert all(x < y for x, y in zip(p[: peak + 1], p[1 : peak + 1]))
            assert all(x > y for x, y in zip(p[peak:], p[peak + 1 :]))


def test_letters_contract():
    for cid in (ClassId.AV_312_213, ClassId.AV_312_231, ClassId.AV_312_321):
        for max_size in range(9):
            entries = letters(cid, max_size)
            for word, size, is_run in entries:
                validate_element(cid, word)
                assert size <= max_size
                assert size_of(cid, word) == size + (cid is ClassId.AV_312_213)
                assert is_run == (cid is ClassId.AV_312_321 and word[0] < 0)
            words = [word for word, _, _ in entries]
            assert all(x < y for x, y in zip(words, words[1:])), (cid, max_size)
            # distinct and valid, so complete when there are as many as letters
            expected = {
                ClassId.AV_312_213: 2 if max_size else 0,
                ClassId.AV_312_231: max_size,
                ClassId.AV_312_321: max(2 * max_size - 1, 0),
            }[cid]
            assert len(words) == expected, (cid, max_size)


def test_c1_has_no_letters_and_no_scan_automaton():
    with pytest.raises(ValueError):
        letters(ClassId.AV_312_123, 3)
    with pytest.raises(ValueError):
        scan_automaton(ClassId.AV_312_123, (1, 1, 0))


def test_sum_words_never_have_adjacent_runs():
    for n in range(11):
        for w in generate(ClassId.AV_312_321, n):
            validate_element(ClassId.AV_312_321, w)


def test_class_leq_matches_involvement_exhaustive():
    for cid in ALL_CLASSES:
        pool = elements_up_to(cid, 7)
        for x, y in itertools.product(pool, repeat=2):
            assert class_leq(cid, x, y) == involves(
                to_permutation(cid, x), to_permutation(cid, y)
            ), (cid, x, y)


def test_class_leq_examples():
    assert class_leq(ClassId.AV_312_123, (0, 0, 3), (2, 1, 1))
    assert class_leq(ClassId.AV_312_321, (-3,), (2, 3))
    for cid in ALL_CLASSES:
        for e in generate(cid, 5):
            assert class_leq(cid, e, e)


def test_size_of():
    assert size_of(ClassId.AV_312_123, (2, 2, 1)) == 5
    assert size_of(ClassId.AV_312_213, None) == 0
    assert size_of(ClassId.AV_312_213, "") == 1
    assert size_of(ClassId.AV_312_213, "LRL") == 4
    assert size_of(ClassId.AV_312_231, (3, 1)) == 4
    assert size_of(ClassId.AV_312_321, (2, -2, 4, -1)) == 9


def test_avoiding_elements():
    assert avoiding_elements(ClassId.AV_312_231, (2,), 4) == ((1, 1, 1, 1),)
    assert len(avoiding_elements(ClassId.AV_312_321, (2,), 5)) == 1


# ---------------------------------------------------------------------------
# Text formats

def test_parse_format_roundtrip():
    cases = [
        (ClassId.AV_312_123, (2, 2, 0), "t:2,2,0"),
        (ClassId.AV_312_213, "LRRL", "LRRL"),
        (ClassId.AV_312_213, None, "e"),
        (ClassId.AV_312_231, (3, 1, 1), "3+1+1"),
        (ClassId.AV_312_231, (), "e"),
        (ClassId.AV_312_321, (2, -2, 4, -1), "b2 a2 b4 a1"),
        (ClassId.AV_312_321, (), "e"),
    ]
    for cid, element, text in cases:
        assert format_element(cid, element) == text
        assert parse_element(cid, text) == element


def test_parse_errors_are_position_tagged():
    with pytest.raises(ParseError) as exc:
        parse_element(ClassId.AV_312_231, "3+x+1")
    assert exc.value.pos == 2
    with pytest.raises(ParseError):
        parse_element(ClassId.AV_312_321, "a1 a1")
    with pytest.raises(ParseError):
        parse_element(ClassId.AV_312_321, "b1")
    with pytest.raises(ParseError) as exc:
        parse_element(ClassId.AV_312_213, "LRX")
    assert exc.value.pos == 2
    with pytest.raises(ParseError):
        parse_element(ClassId.AV_312_123, "t:1,0,2")
