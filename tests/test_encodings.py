import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wilfcollapse
from wilfcollapse.canonical import shortest_prefix_end
from wilfcollapse.encodings import (
    ClassId,
    avoiding_elements,
    class_leq,
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


def test_decoder_and_raw_formatter_match_the_definitions():
    for cid in ALL_CLASSES:
        fmt = format_function(cid)
        for e in elements_up_to(cid, 10):
            assert to_permutation(cid, e) == REFERENCE_DECODE[cid](e), (cid, e)
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


def test_generate_lists_every_class_member_by_brute_force():
    # every permutation of size n that avoids the basis, encoded, in order
    for cid in ALL_CLASSES:
        for n in range(1, 8):
            members = [
                from_permutation(cid, p)
                for p in itertools.permutations(range(1, n + 1))
                if not any(involves(b, p) for b in cid.basis)
            ]
            assert generate(cid, n) == tuple(sorted(members)), (cid, n)
    assert generate(ClassId.AV_312_213, 0) == (None,)
    assert all(generate(cid, 0) == ((),) for cid in (ClassId.AV_312_231, ClassId.AV_312_321))


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


@pytest.mark.parametrize("p", [(1, 1), (2, 3), (0, 1), (1, 3, 2, 2)])
@pytest.mark.parametrize("cid", ALL_CLASSES, ids=lambda c: c.value)
def test_from_permutation_rejects_a_non_permutation(cid, p):
    with pytest.raises(ValueError, match="not a permutation of 1..n") as exc:
        from_permutation(cid, p)
    assert not isinstance(exc.value, BasisViolationError)


def test_from_permutation_rejects_a_non_permutation_without_asserts():
    # python -O strips the round-trip assert, which once caught c3 encoding
    # (2, 3) as ()
    code = ("from wilfcollapse.encodings import ClassId, from_permutation\n"
            "from_permutation(ClassId.AV_312_231, (2, 3))")
    src = str(Path(wilfcollapse.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1 and "ValueError: not a permutation of 1..n" in done.stderr


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
    # nor has c2's empty permutation None, which every element involves
    with pytest.raises(ValueError, match="involved in every element"):
        scan_automaton(ClassId.AV_312_213, None)


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


def test_c3_and_c4_share_one_scan():
    # a layer embeds as a drop letter does, into one target letter at least
    # as large: on words of parts >= 2, both compositions and drop-only sum
    # words, the two orders agree, as involvement of either decoding
    c3, c4 = ClassId.AV_312_231, ClassId.AV_312_321
    patterns, targets = (
        [e for e in elements_up_to(c3, top) if all(part >= 2 for part in e)] for top in (7, 11)
    )
    assert (len(patterns), len(targets)) == (21, 144)
    for x in patterns:
        assert scan_automaton(c3, x)[0] is scan_automaton(c4, x)[0]
        for y in targets:
            leq = class_leq(c3, x, y)
            assert leq == class_leq(c4, x, y), (x, y)
            for cid in (c3, c4):
                assert leq == involves(to_permutation(cid, x), to_permutation(cid, y)), (cid, x, y)
            assert shortest_prefix_end(c3, y, x) == shortest_prefix_end(c4, y, x), (x, y)


def test_reversal_is_an_order_symmetry():
    # reversing both words is the reverse-complement-inverse symmetry in
    # c2-c4, which shortest_suffix_start relies on; c2's None is left out
    for cid in (ClassId.AV_312_213, ClassId.AV_312_231, ClassId.AV_312_321):
        start = 1 if cid is ClassId.AV_312_213 else 0
        patterns = [e for m in range(start, 7) for e in generate(cid, m)]
        targets = [e for m in range(start, 9) for e in generate(cid, m)]
        for x, y in itertools.product(patterns, targets):
            assert class_leq(cid, x, y) == class_leq(cid, x[::-1], y[::-1]), (cid, x, y)


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
    for cid in ALL_CLASSES:
        for e in elements_up_to(cid, 8):
            assert parse_element(cid, format_element(cid, e)) == e, (cid, e)


def test_parse_errors_are_position_tagged():
    # syntax errors, then value errors from validate_element, each at the
    # letter that broke the rule
    cases = [
        (ClassId.AV_312_231, "3+x+1", 2),
        (ClassId.AV_312_213, "LRX", 2),
        (ClassId.AV_312_231, "3+0+1", 2),
        (ClassId.AV_312_321, "b1", 0),
        (ClassId.AV_312_321, "b2 b1", 3),
        (ClassId.AV_312_321, "b2 a0", 3),
        (ClassId.AV_312_321, "a1 a1", 3),
        (ClassId.AV_312_123, "t:1,0,2", 2),
        # positions index the text as given, whatever its whitespace
        (ClassId.AV_312_213, "  LRX", 4),
        (ClassId.AV_312_321, "  a1 a1", 5),
        (ClassId.AV_312_321, "a1  a1", 4),
        (ClassId.AV_312_231, "3 + 0", 4),
        (ClassId.AV_312_123, " t:1,0,2", 3),
        # a rule broken before a malformed letter is reported first
        (ClassId.AV_312_231, "0+2e2", 0),
        (ClassId.AV_312_321, "a1 a1 x", 3),
        # digits that int does not read are malformed letters
        (ClassId.AV_312_231, "3+²", 2),
        (ClassId.AV_312_321, "b²", 0),
        (ClassId.AV_312_123, "t:²,1,1", 2),
        # decimal digits outside ASCII are malformed letters as well
        (ClassId.AV_312_231, "3+\u0662", 2),
        (ClassId.AV_312_321, "a1 b\uff13", 3),
        (ClassId.AV_312_123, "t:1,\u0662,1", 2),
        # so are spaces outside ASCII: the formats are ASCII
        (ClassId.AV_312_231, "3+\u00a02", 2),
        (ClassId.AV_312_321, "a1\u3000b2", 0),
        (ClassId.AV_312_123, "t:1,\u00a00,1", 2),
    ]
    for cid, text, pos in cases:
        with pytest.raises(ParseError) as exc:
            parse_element(cid, text)
        assert exc.value.pos == pos, (cid, text)
    with pytest.raises(ParseError, match=r"not a composition: \(3, 0\) at position 2"):
        parse_element(ClassId.AV_312_231, "3+0+1")


PARSE_ALPHABETS = {  # each with spaces, a tab and a digit that int does not read
    ClassId.AV_312_123: "t:,0123e  \t²",
    ClassId.AV_312_213: "LRXe  \t²",
    ClassId.AV_312_231: "0123+e x  \t²",
    ClassId.AV_312_321: "ab0123e  \t²",
}


@given(st.data())
def test_parse_reads_or_raises_parse_error(data):
    cid = data.draw(st.sampled_from(ALL_CLASSES))
    text = data.draw(st.text(alphabet=PARSE_ALPHABETS[cid], max_size=10))
    try:
        e = parse_element(cid, text)
    except ParseError as exc:
        # a leading space moves the error by one
        with pytest.raises(ParseError) as shifted:
            parse_element(cid, " " + text)
        assert shifted.value.pos == exc.pos + 1
        return
    validate_element(cid, e)
    assert parse_element(cid, format_element(cid, e)) == e


def test_parse_is_fast_on_long_texts():
    # 10^5 letters, well formed or broken at the last one: each parse reads
    # the letters once and judges O(log n) prefixes (under a second); judging
    # every prefix would take minutes
    longs = [
        (ClassId.AV_312_213, "", "L", "X"),
        (ClassId.AV_312_231, "+", "1", "0"),
        (ClassId.AV_312_321, " ", "b2", "b1"),
    ]
    start = time.perf_counter()
    for cid, sep, good, bad in longs:
        text = sep.join([good] * 100_000)
        assert size_of(cid, parse_element(cid, text)) >= 100_000
        with pytest.raises(ParseError) as exc:
            parse_element(cid, text + sep + bad)
        assert exc.value.pos == len(text + sep)
    assert time.perf_counter() - start < 5.0
