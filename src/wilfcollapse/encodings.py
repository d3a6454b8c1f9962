"""
Structural encodings for the four permutation classes with basis {312, x}.

Each class has a fast native encoding together with a structural order test
that agrees with permutation involvement on decoded elements:

* ``AV_312_123`` -- corner triples ``(a, b, c)``: two decreasing blocks of
  sizes a and b stacked ascending, followed by a decreasing tail of size c
  holding the smallest values.  Decreasing permutations are always written
  ``(0, 0, c)``; otherwise both a and b are positive.
* ``AV_312_213`` -- wedge words: strings over ``L``/``R`` recording how the
  permutation grows from a single point by prepending a new minimum (``L``)
  or appending a new minimum (``R``), outermost step first.  A string of
  length k encodes a permutation of size k + 1; ``None`` stands for the
  empty permutation.
* ``AV_312_231`` -- layered permutations: compositions listing the layer
  sizes left to right.
* ``AV_312_321`` -- sum words: tuples of signed letters.  A negative letter
  ``-i`` is a maximal increasing run ``1 2 .. i``; a positive letter ``j``
  is the block ``2 3 .. j 1``.  Two negative letters are never adjacent
  (maximal runs merge).  In text form letters are written ``a<i>``/``b<j>``.
"""
from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from string import whitespace
from typing import Optional, Union

from .errors import BasisViolationError, ParseError
from .perms import Perm, format_perm, involves, is_permutation, sum_decompose

Triple = tuple[int, int, int]
WedgeWord = Optional[str]
Composition = tuple[int, ...]
SumWord = tuple[int, ...]
ClassElement = Union[Triple, WedgeWord, Composition, SumWord]


class ClassId(Enum):
    """The four classes, tagged by their basis pairs."""

    AV_312_123 = "c1"
    AV_312_213 = "c2"
    AV_312_231 = "c3"
    AV_312_321 = "c4"

    @property
    def basis(self) -> tuple[Perm, Perm]:
        return {
            ClassId.AV_312_123: ((3, 1, 2), (1, 2, 3)),
            ClassId.AV_312_213: ((3, 1, 2), (2, 1, 3)),
            ClassId.AV_312_231: ((3, 1, 2), (2, 3, 1)),
            ClassId.AV_312_321: ((3, 1, 2), (3, 2, 1)),
        }[self]


# ---------------------------------------------------------------------------
# Validation and size

def validate_element(class_id: ClassId, e: ClassElement) -> None:
    if class_id is ClassId.AV_312_123:
        if not (
            isinstance(e, tuple) and len(e) == 3 and all(type(v) is int and v >= 0 for v in e)
        ):
            raise ValueError(f"not a corner triple: {e!r}")
        a, b, _ = e
        if (a == 0) != (b == 0):
            raise ValueError(f"exactly one of a, b is zero in {e!r}")
    elif class_id is ClassId.AV_312_213:
        if e is None:
            return
        if not isinstance(e, str) or any(ch not in "LR" for ch in e):
            raise ValueError(f"not a wedge word: {e!r}")
    elif class_id is ClassId.AV_312_231:
        if not (isinstance(e, tuple) and all(type(v) is int and v >= 1 for v in e)):
            raise ValueError(f"not a composition: {e!r}")
    elif class_id is ClassId.AV_312_321:
        if not (isinstance(e, tuple) and all(type(v) is int and v != 0 for v in e)):
            raise ValueError(f"not a sum word: {e!r}")
        for v in e:
            if v > 0 and v < 2:
                raise ValueError(f"drop letter below 2 in {e!r}")
        if not runs_apart(e):
            raise ValueError(f"adjacent run letters in {e!r}")


def runs_apart(word: SumWord) -> bool:
    """The rule of sum words: no run letter follows a run letter."""
    return all(x >= 0 or y >= 0 for x, y in zip(word, word[1:]))


def size_of(class_id: ClassId, e: ClassElement) -> int:
    if class_id is ClassId.AV_312_123:
        return sum(e)
    if class_id is ClassId.AV_312_213:
        return 0 if e is None else len(e) + 1
    return sum(abs(v) for v in e)


# ---------------------------------------------------------------------------
# Letters and generation

def letters(class_id: ClassId, max_size: int) -> tuple:
    """
    The letters of c2, c3 or c4 up to size max_size, as one-letter words
    ``(word, size, is_run)`` in increasing word order, so c4's run letters
    come first.  The class members are the words of these letters that obey
    runs_apart; a c2 letter is one step of a wedge word and adds one point.

    >>> letters(ClassId.AV_312_321, 3)
    (((-3,), 3, True), ((-2,), 2, True), ((-1,), 1, True), ((2,), 2, False), ((3,), 3, False))
    """
    if class_id is ClassId.AV_312_213:
        return tuple((step, 1, False) for step in "LR" if max_size >= 1)
    if class_id is ClassId.AV_312_231:
        return tuple(((p,), p, False) for p in range(1, max_size + 1))
    if class_id is ClassId.AV_312_321:
        runs = tuple(((-i,), i, True) for i in range(max_size, 0, -1))
        return runs + tuple(((j,), j, False) for j in range(2, max_size + 1))
    raise ValueError(f"{class_id.value} is not a word class")


def _words(class_id: ClassId, size: int, empty, piece) -> list:
    """
    The words of size `size` over ``letters`` in generate's order, built
    size by size with run letters first, so nothing is sorted.  A word of
    size m is head + rest + tail, (head, tail) = piece(w, s, m) for its
    first letter (w, s, run): in a member of size n a suffix of size m
    holds the top m values n-m+1..n, so a piece may depend on m.
    """
    alphabet = letters(class_id, size)
    no_run, words = [[empty]], [[empty]]  # no_run[m]: size-m words not starting with a run
    for m in range(1, size + 1):
        no_run.append([h + rest + t for w, s, run in alphabet if not run and s <= m
                       for h, t in [piece(w, s, m)] for rest in words[m - s]])
        words.append([h + rest + t for w, s, run in alphabet if run and s <= m
                      for h, t in [piece(w, s, m)] for rest in no_run[m - s]] + no_run[m])
    return words[size]


@lru_cache(maxsize=None)
def generate(class_id: ClassId, n: int) -> tuple[ClassElement, ...]:
    """
    All class members of size n in the native encoding, lexicographically
    ordered by encoding, without duplicates; for c2-c4, ``_words`` with each
    letter as its own piece.  Only the size-n result is cached.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    if class_id is ClassId.AV_312_123:
        corners = ((a, b, n - a - b) for a in range(1, n) for b in range(1, n - a + 1))
        return ((0, 0, n), *corners)
    wedge = class_id is ClassId.AV_312_213
    if wedge and n == 0:
        return (None,)
    empty = "" if wedge else ()
    # a wedge word of size n has n - 1 steps
    return tuple(_words(class_id, n - 1 if wedge else n, empty, lambda w, s, m: (w, empty)))


# ---------------------------------------------------------------------------
# Decoding to permutations

def _triple_to_perm(e: Triple) -> Perm:
    # the layers a and b above a decreasing tail of the c smallest values
    a, b, c = e
    return (*(v + c for v in _composition_to_perm((a, b))), *range(c, 0, -1))


def _wedge_to_perm(e: WedgeWord) -> Perm:
    # Step i (outermost first) adds the value i; the first point is the
    # maximum.  L steps stand left of it in order, R steps right of it in
    # reverse order.
    if e is None:
        return ()
    left = [i for i, step in enumerate(e, 1) if step == "L"]
    right = [i for i, step in enumerate(e, 1) if step == "R"]
    return (*left, len(e) + 1, *reversed(right))


def _composition_to_perm(e: Composition) -> Perm:
    perm: list[int] = []
    top = 0
    for part in e:
        perm.extend(range(top + part, top, -1))
        top += part
    return tuple(perm)


def _sum_word_to_perm(e: SumWord) -> Perm:
    # run letter -i: base+1 .. base+i; drop letter j: base+2 .. base+j, base+1
    perm: list[int] = []
    base = 0
    for letter in e:
        if letter < 0:
            perm.extend(range(base + 1, base - letter + 1))
            base -= letter
        else:
            perm.extend(range(base + 2, base + letter + 1))
            perm.append(base + 1)
            base += letter
    return tuple(perm)


_DECODE = {
    ClassId.AV_312_123: _triple_to_perm,
    ClassId.AV_312_213: _wedge_to_perm,
    ClassId.AV_312_231: _composition_to_perm,
    ClassId.AV_312_321: _sum_word_to_perm,
}


def to_permutation(class_id: ClassId, e: ClassElement) -> Perm:
    validate_element(class_id, e)
    return _DECODE[class_id](e)


# ---------------------------------------------------------------------------
# Encoding from permutations

def _check_basis(class_id: ClassId, p: Perm) -> None:
    for basis_element in class_id.basis:
        if involves(basis_element, p):
            raise BasisViolationError(p, basis_element)


def _triple_from_perm(p: Perm) -> Triple:
    # the decreasing tail c .. 1 ends p; above it stand two layers, or
    # nothing when p is decreasing
    n, c = len(p), 0
    while c < n and p[n - 1 - c] == c + 1:
        c += 1
    layers = _composition_from_perm(tuple(v - c for v in p[: n - c]))
    return (*(layers or (0, 0)), c)


def _wedge_from_perm(p: Perm) -> WedgeWord:
    # inverse of _wedge_to_perm: step i is L exactly when the value i
    # stands left of the maximum
    if not p:
        return None
    left = set(p[: p.index(len(p))])
    return "".join("L" if i in left else "R" for i in range(1, len(p)))


def _composition_from_perm(p: Perm) -> Composition:
    return tuple(len(c) for c in sum_decompose(p))


def _sum_word_from_perm(p: Perm) -> SumWord:
    letters: list[int] = []
    run = 0
    for component in sum_decompose(p):
        if component == (1,):
            run += 1
            continue
        if run:
            letters.append(-run)
            run = 0
        letters.append(len(component))
    if run:
        letters.append(-run)
    return tuple(letters)


_ENCODE = {
    ClassId.AV_312_123: _triple_from_perm,
    ClassId.AV_312_213: _wedge_from_perm,
    ClassId.AV_312_231: _composition_from_perm,
    ClassId.AV_312_321: _sum_word_from_perm,
}


def from_permutation(class_id: ClassId, p: Perm) -> ClassElement:
    """
    Encode a permutation in the class-native form; inverse of to_permutation.

    Raises ValueError when p is not a permutation, BasisViolationError,
    naming the violated basis element, when it lies outside the class.
    """
    if not is_permutation(p):
        raise ValueError(f"not a permutation of 1..n: {p}")
    _check_basis(class_id, p)
    e = _ENCODE[class_id](p)
    assert to_permutation(class_id, e) == p
    return e


# ---------------------------------------------------------------------------
# Class-specific order tests
#
# For c2, c3 and c4 the order test is a greedy left-to-right scan with a
# small state, a resumable scan(pattern, word, state) that returns the state
# after word.  There are two: c2's subsequence scan, and one scan of layers,
# drop letters and run letters that c3 shares with c4, since a layer embeds
# exactly as a drop letter does, into one target letter at least as large.
# _SCANS holds each scan with its start state and goal, and both the order
# test and scan_automaton read it.

def _triple_leq(x: Triple, y: Triple) -> bool:
    a, b, c = x
    if a == 0 and b == 0:
        return c <= max(y[0], y[1]) + y[2]
    return a <= y[0] and b <= y[1] and c <= y[2]


def _wedge_scan(x: str, y: str, i: int) -> int:
    # The recursive order rules on wedges amount to: x is involved in y
    # exactly when the step string of x is a subsequence of that of y.  The
    # state is the number of steps of x matched so far.
    it = iter(y)
    for i in range(i, len(x)):
        if x[i] not in it:
            return i
    return len(x)


def _sum_word_scan(x: SumWord, y: SumWord, state: tuple[int, int]) -> tuple[int, int]:
    # A drop letter of the pattern, or a c3 layer, must embed in a single
    # drop letter (layer) of the target with index at least as large; a run
    # letter may spread over several target letters, consuming the longest
    # increasing run each provides: i for a run letter -i, j - 1 for a drop
    # letter j.  A partially consumed target letter cannot also host the
    # next pattern letter, so the scan always moves past it.  The state is
    # (i, need): i letters of x are matched, and need > 0 is what the run
    # letter x[i] still lacks once begun.
    i, need = state
    k = len(x)
    if i == k:
        return state
    want = x[i]
    for letter in y:
        if want > 0:
            if letter < want:
                continue
        else:
            if not need:
                need = -want
            need -= -letter if letter < 0 else letter - 1
            if need > 0:
                continue
            need = 0
        i += 1
        if i == k:
            break
        want = x[i]
    return i, need


_LAYER_SCAN = (_sum_word_scan, (0, 0), lambda x: (len(x), 0))
_SCANS = {
    ClassId.AV_312_213: (_wedge_scan, 0, len),
    ClassId.AV_312_231: _LAYER_SCAN,
    ClassId.AV_312_321: _LAYER_SCAN,
}


def _scan_leq(class_id: ClassId):
    scan, start, goal = _SCANS[class_id]

    def leq(x, y) -> bool:
        # c2's empty permutation None is involved in every element
        if x is None or y is None:
            return x is None
        return scan(x, y, start) == goal(x)

    return leq


_LEQ = {ClassId.AV_312_123: _triple_leq, **{c: _scan_leq(c) for c in _SCANS}}


def class_leq(class_id: ClassId, x: ClassElement, y: ClassElement) -> bool:
    """Structural involvement test; agrees with involves() on decoded elements."""
    return _LEQ[class_id](x, y)


def leq_function(class_id: ClassId):
    """The raw order test for a class, looked up once: for avoiding_elements' filter."""
    return _LEQ[class_id]


def scan_automaton(class_id: ClassId, pattern: ClassElement) -> tuple:
    """
    The order test of c2, c3 or c4 against a fixed pattern, as
    ``(scan, start, goal)``: ``class_leq(class_id, pattern, y)`` holds
    exactly when ``scan(pattern, y, start) == goal``, for every word y of
    the native encoding other than c2's None.  A c2 pattern must not be
    None, which every element involves.
    """
    if class_id not in _SCANS:
        raise ValueError(f"{class_id.value} has no scan automaton")
    if pattern is None:
        raise ValueError("c2's None is involved in every element and has no scan automaton")
    scan, start, goal = _SCANS[class_id]
    return scan, start, goal(pattern)


def avoiding_elements(class_id: ClassId, pattern: ClassElement, n: int) -> tuple:
    """Class members of size n avoiding the given pattern, in generation order."""
    leq = leq_function(class_id)
    return tuple(e for e in generate(class_id, n) if not leq(pattern, e))


# ---------------------------------------------------------------------------
# Text formats

def _format_triple(e: Triple) -> str:
    return "t:{},{},{}".format(*e)


def _format_wedge(e: WedgeWord) -> str:
    return "e" if e is None else e


def _format_composition(e: Composition) -> str:
    return "+".join(map(str, e)) if e else "e"


def _format_sum_word(e: SumWord) -> str:
    return " ".join([f"a{-v}" if v < 0 else f"b{v}" for v in e]) if e else "e"


_FORMAT = {
    ClassId.AV_312_123: _format_triple,
    ClassId.AV_312_213: _format_wedge,
    ClassId.AV_312_231: _format_composition,
    ClassId.AV_312_321: _format_sum_word,
}


def format_element(class_id: ClassId, e: ClassElement) -> str:
    validate_element(class_id, e)
    return _FORMAT[class_id](e)


def format_function(class_id: ClassId):
    """The raw text formatter for a class, for members of generate; it validates nothing."""
    return _FORMAT[class_id]


def member_texts(class_id: ClassId, n: int, kind: str) -> list[str]:
    """
    The texts of generate(class_id, n) in its order, as ``format_element``
    (kind "element") or ``format_perm`` (kind "permutation") writes them.
    Past size 0, c2-c4 texts come from ``_words``, each letter's piece read
    at base n - m and followed by a separator unless it ends the word.
    """
    if class_id is ClassId.AV_312_123 or n == 0:
        fmt, decode = _FORMAT[class_id], _DECODE[class_id]
        text = fmt if kind == "element" else lambda e: format_perm(decode(e))
        return [text(e) for e in generate(class_id, n)]
    wedge = class_id is ClassId.AV_312_213
    sep = {ClassId.AV_312_231: "+", ClassId.AV_312_321: " "}.get(class_id, "")

    def piece(w, s, m):
        if kind == "element":
            return _FORMAT[class_id](w) + (sep if s < m else ""), ""
        if wedge:  # the step's value stands left (L) or right (R) of the peak n
            return (f"{n - m},", "") if w == "L" else ("", f",{n - m}")
        text = ",".join([str(n - m + v) for v in _DECODE[class_id](w)])
        return text + ("," if s < m else ""), ""

    empty = str(n) if wedge and kind == "permutation" else ""
    return _words(class_id, n - 1 if wedge else n, empty, piece)


def parse_element(class_id: ClassId, text: str) -> ClassElement:
    """Read an element from its text form (see ``format_element``); _judged rules on it."""
    raw = text.strip(whitespace)  # ASCII only, as are the formats
    pos = len(text) - len(text.lstrip(whitespace))  # where raw starts in text
    if class_id is ClassId.AV_312_123:
        if raw == "e":
            return (0, 0, 0)
        if not raw.startswith("t:"):
            raise ParseError("expected 't:a,b,c'", text, pos)
        parts = [p.strip(whitespace) for p in raw[2:].split(",")]
        if len(parts) != 3 or not all(p.isascii() and p.isdecimal() for p in parts):
            raise ParseError("expected three non-negative integers", text, pos + 2)
        return _judged(class_id, tuple(int(p) for p in parts), text, [pos + 2])
    if class_id is ClassId.AV_312_213:
        return None if raw == "e" else _judged(class_id, raw, text, range(pos, pos + len(raw)))
    if raw == "e" or raw == "":
        return ()
    word, starts = [], []  # before a malformed letter, _judged rules on the letters read
    if class_id is ClassId.AV_312_231:
        for chunk in raw.split("+"):
            start = pos + len(chunk) - len(chunk.lstrip(whitespace))
            digits = chunk.strip(whitespace)
            if not (digits.isascii() and digits.isdecimal()):
                _judged(class_id, tuple(word), text, starts)
                raise ParseError("expected a layer size", text, start)
            word.append(int(chunk))
            starts.append(start)
            pos += len(chunk) + 1
    else:
        for token in re.finditer(r"\S+", text, re.ASCII):
            kind, digits = token[0][0], token[0][1:]
            if kind not in "ab" or not (digits.isascii() and digits.isdecimal()):
                _judged(class_id, tuple(word), text, starts)
                raise ParseError("expected letters like a2 or b3", text, token.start())
            word.append(-int(digits) if kind == "a" else int(digits))
            starts.append(token.start())
    return _judged(class_id, tuple(word), text, starts)


def _judged(class_id: ClassId, word: ClassElement, text: str, starts) -> ClassElement:
    """
    word if validate_element accepts it, else a ParseError at starts[i], the
    start in text of letter i, when word[: i + 1] is the shortest prefix it
    rejects (the rules are prefix-closed, so bisection finds i).
    """
    try:
        validate_element(class_id, word)
        return word
    except ValueError as exc:
        error = exc
    lo, hi = 0, len(starts) - 1  # error rejects word[: hi + 1], at first all of word
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            validate_element(class_id, word[: mid + 1])
            lo = mid + 1
        except ValueError as exc:
            hi, error = mid, exc
    raise ParseError(str(error), text, starts[hi]) from None
