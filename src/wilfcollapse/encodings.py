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

from enum import Enum
from functools import lru_cache
from typing import Optional, Union

from .errors import BasisViolationError, ParseError
from .perms import Perm, involves, sum_decompose

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
            isinstance(e, tuple) and len(e) == 3 and all(isinstance(v, int) and v >= 0 for v in e)
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
        if not (isinstance(e, tuple) and all(isinstance(v, int) and v >= 1 for v in e)):
            raise ValueError(f"not a composition: {e!r}")
    elif class_id is ClassId.AV_312_321:
        if not (isinstance(e, tuple) and all(isinstance(v, int) and v != 0 for v in e)):
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


@lru_cache(maxsize=None)
def generate(class_id: ClassId, n: int) -> tuple[ClassElement, ...]:
    """
    All class members of size n in the native encoding, lexicographically
    ordered by encoding, without duplicates.

    Words are built size by size over ``letters``: no_run[m] holds the words
    of size m not starting with a run letter, words[m] all of them.  Run
    letters come first, so every table is lexicographic with no sort, and
    each member costs one concatenation.  Only the size-n result is cached.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    if class_id is ClassId.AV_312_123:
        corners = ((a, b, n - a - b) for a in range(1, n) for b in range(1, n - a + 1))
        return ((0, 0, n), *corners)
    wedge = class_id is ClassId.AV_312_213
    if wedge and n == 0:
        return (None,)
    size = n - 1 if wedge else n  # a wedge word of size n has n - 1 steps
    alphabet = letters(class_id, size)
    no_run: list[list] = [["" if wedge else ()]]
    words: list[list] = [no_run[0]]
    for m in range(1, size + 1):
        no_run.append(
            [w + rest for w, s, run in alphabet if not run and s <= m for rest in words[m - s]]
        )
        words.append(
            [w + rest for w, s, run in alphabet if run and s <= m for rest in no_run[m - s]]
            + no_run[m]
        )
    return tuple(words[size])


# ---------------------------------------------------------------------------
# Decoding to permutations

def _triple_to_perm(e: Triple) -> Perm:
    a, b, c = e
    first = range(c + a, c, -1)
    second = range(c + a + b, c + a, -1)
    tail = range(c, 0, -1)
    return tuple(first) + tuple(second) + tuple(tail)


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


def decode_function(class_id: ClassId):
    """The raw decoder for a class, for members of generate; it validates nothing."""
    return _DECODE[class_id]


# ---------------------------------------------------------------------------
# Encoding from permutations

def _check_basis(class_id: ClassId, p: Perm) -> None:
    for basis_element in class_id.basis:
        if involves(basis_element, p):
            raise BasisViolationError(p, basis_element)


def _is_decreasing(p: Perm) -> bool:
    return all(x > y for x, y in zip(p, p[1:]))


def _triple_from_perm(p: Perm) -> Triple:
    n = len(p)
    if n == 0 or _is_decreasing(p):
        return (0, 0, n)
    c = 0
    while c < n and p[n - 1 - c] == c + 1:
        c += 1
    body = tuple(v - c for v in p[: n - c])
    ascent = next(i for i in range(len(body) - 1) if body[i] < body[i + 1])
    a = ascent + 1
    b = len(body) - a
    return (a, b, c)


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


def from_permutation(class_id: ClassId, p: Perm) -> ClassElement:
    """
    Encode a permutation in the class-native form; inverse of to_permutation.

    Raises BasisViolationError, naming the violated basis element, when p
    lies outside the class.
    """
    _check_basis(class_id, p)
    if class_id is ClassId.AV_312_123:
        e: ClassElement = _triple_from_perm(p)
    elif class_id is ClassId.AV_312_213:
        e = _wedge_from_perm(p)
    elif class_id is ClassId.AV_312_231:
        e = _composition_from_perm(p)
    else:
        e = _sum_word_from_perm(p)
    assert to_permutation(class_id, e) == p
    return e


# ---------------------------------------------------------------------------
# Class-specific order tests
#
# For c2, c3 and c4 the order test is a greedy left-to-right scan with a
# small state, written once per class as a resumable scan(pattern, word,
# state) that returns the state after word.  _SCANS holds each scan with its
# start state and goal, and both the order test and scan_automaton read it.

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


def _composition_scan(x: Composition, y: Composition, i: int) -> int:
    # Subword domination, matched greedily left to right.  The state is the
    # number of parts of x matched so far.
    k = len(x)
    if i == k:
        return i
    want = x[i]
    for part in y:
        if part >= want:
            i += 1
            if i == k:
                break
            want = x[i]
    return i


def _sum_word_scan(x: SumWord, y: SumWord, state: tuple[int, int]) -> tuple[int, int]:
    # A drop letter of the pattern must embed in a single drop letter of the
    # target with index at least as large; a run letter may spread over
    # several target letters, consuming the longest increasing run each
    # provides: i for a run letter -i, j - 1 for a drop letter j.  A
    # partially consumed target letter cannot also host the next pattern
    # letter, so the scan always moves past it.  The state is (i, need): i
    # letters of x are matched, and need > 0 is what the run letter x[i]
    # still lacks once begun.
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


_SCANS = {
    ClassId.AV_312_213: (_wedge_scan, 0, len),
    ClassId.AV_312_231: (_composition_scan, 0, len),
    ClassId.AV_312_321: (_sum_word_scan, (0, 0), lambda x: (len(x), 0)),
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
    """The raw order test for a class, for tight counting loops."""
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


def parse_element(class_id: ClassId, text: str) -> ClassElement:
    raw = text.strip()
    if class_id is ClassId.AV_312_123:
        if raw == "e":
            return (0, 0, 0)
        if not raw.startswith("t:"):
            raise ParseError("expected 't:a,b,c'", text, 0)
        parts = raw[2:].split(",")
        if len(parts) != 3 or not all(p.strip().isdigit() for p in parts):
            raise ParseError("expected three non-negative integers", text, 2)
        e = tuple(int(p) for p in parts)
        try:
            validate_element(class_id, e)
        except ValueError as exc:
            raise ParseError(str(exc), text, 2) from None
        return e
    if class_id is ClassId.AV_312_213:
        if raw == "e":
            return None
        for i, ch in enumerate(raw):
            if ch not in "LR":
                raise ParseError("expected only L and R", text, i)
        return raw
    if class_id is ClassId.AV_312_231:
        if raw == "e" or raw == "":
            return ()
        parts = raw.split("+")
        pos = 0
        values = []
        for chunk in parts:
            piece = chunk.strip()
            if not piece.isdigit() or int(piece) < 1:
                raise ParseError("expected a positive layer size", text, pos)
            values.append(int(piece))
            pos += len(chunk) + 1
        return tuple(values)
    if raw == "e" or raw == "":
        return ()
    letters = []
    pos = 0
    for chunk in raw.split():
        if len(chunk) < 2 or chunk[0] not in "ab" or not chunk[1:].isdigit():
            raise ParseError("expected letters like a2 or b3", text, pos)
        value = int(chunk[1:])
        if chunk[0] == "a":
            if value < 1:
                raise ParseError("run letter needs index >= 1", text, pos)
            letters.append(-value)
        else:
            if value < 2:
                raise ParseError("drop letter needs index >= 2", text, pos)
            letters.append(value)
        pos += len(chunk) + 1
    word = tuple(letters)
    try:
        validate_element(class_id, word)
    except ValueError as exc:
        raise ParseError(str(exc), text, 0) from None
    return word
