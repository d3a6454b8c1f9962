"""
Counting of principal subclasses, grouping of patterns into Wilf classes by
their counting sequences, and verification that the grouping coincides with
the canonical-form equivalences.

For c2, c3 and c4 the order test is a greedy scan with a small state
(``encodings.scan_automaton``), so the avoiders of a pattern form a regular
language and are counted by a dynamic program over (size, scan state,
whether the last letter was a run letter) rather than by enumerating the
2^(m-1) members of each size m.  For a pattern of k letters whose largest
run letter has index r (r = 1 in c2 and c3), counting to depth d keeps at
most 2kr states per size, runs the scan on each state and each one-letter
word of size at most d once, and takes O(k r d^2) steps in all.  c1's
members of size m are m(m-1)/2 + 1 lattice points: the decreasing triple and
the corner triples (a, b, c) with a, b >= 1.  Each of the two rules of its
order test leaves a number of avoiders per size that is a binomial or two
(``_triple_counts``), so c1 is counted in O(d) steps with nothing enumerated.
Enumerating ``generate`` with ``class_leq`` (``encodings.avoiding_elements``)
remains the oracle the tests compare all four classes' counts against.

Counting to depth D(n) = 2n - 2 (c3) or 3n - 3 (c4) proves a Wilf class.  In
``genfun``'s factored form a c3 or c4 pattern of size n >= 2 with k letters
has the avoidance GF ((1-t) den - num)/(1-2t) over den, where den is
(1-t)^(k-1) times D_j, of degree j - 1, per layer or drop letter j; since
each of the other letters, the run letters, adds 1 to k and at least 1 to
n, den has degree at most n - 1.  (1-t) den has degree at most n, and num is
t^n times M_i, of degree i - 1, per run letter a_i, so of degree n in c3 and
at most 2n - 1 in c4; dividing by 1-2t leaves a numerator of degree at most
n - 1 in c3 and 2n - 2 in c4.  Two such GFs p1/q1 and p2/q2, q(0) = 1,
differ by (p1 q2 - p2 q1)/(q1 q2), and that numerator has degree at most
D(n); if the counts agree through index D(n), its first D(n) + 1
coefficients vanish, so it is 0 and the GFs are equal.  A depth below D(n)
may merge Wilf classes; ``verify_completeness`` then reports the canonical
classes it leaves unseparated.

Everything here is a deterministic reduction over immutable inputs, with a
cache keyed by (class, pattern, depth) so repeated verifications are free.
Results are returned as data; the command-line front end renders them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .canonical import canonical_class_count, canonical_key
from .encodings import (
    ClassElement,
    ClassId,
    Triple,
    generate,
    letters,
    scan_automaton,
    size_of,
    validate_element,
)
from .errors import GFMismatchError
from .genfun import avoid_gf


@dataclass(frozen=True)
class WilfGroup:
    members: tuple[ClassElement, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class PairFinding:
    x: ClassElement
    y: ClassElement
    index: int | None  # first index where the sequences differ, if any


class CollapseRow(NamedTuple):
    n: int
    c_n: int
    w_n: int
    canonical_count: int


def _scan_counts(class_id: ClassId, pattern: ClassElement, depth: int) -> tuple[int, ...]:
    """
    Numbers of words of size 0..depth whose scan against the pattern stops
    short of the goal.  No two run letters are adjacent, so a word ending in
    one may not be extended by another.
    """
    scan, start, goal = scan_automaton(class_id, pattern)
    # by size, so each state's moves stop at the first letter too large
    alphabet = sorted(letters(class_id, depth), key=lambda letter: letter[1])
    # table[m] maps (scan state, last letter is a run) to its number of words
    table: list[dict] = [{} for _ in range(depth + 1)]
    if start != goal:
        table[0][start, False] = 1
    moves: dict = {}
    for m in range(depth):
        for key, ways in table[m].items():
            if key not in moves:
                state, after_run = key
                moves[key] = [
                    (size, (nxt, run))
                    for word, size, run in alphabet
                    if not (run and after_run)
                    and (nxt := scan(pattern, word, state)) != goal
                ]
            for size, nxt in moves[key]:
                if m + size > depth:
                    break
                row = table[m + size]
                row[nxt] = row.get(nxt, 0) + ways
    return tuple(sum(row.values()) for row in table)


def _triple_counts(pattern: Triple, depth: int) -> tuple[int, ...]:
    """
    Numbers of corner triples of size 0..depth avoiding the pattern of size
    n, read off the two rules of ``encodings._triple_leq``; each size m has
    C(m, 2) + 1 members, C(k, 2) being 0 for k < 2.  A corner pattern is
    involved in no decreasing member and in the corner members that dominate
    it part by part, C(m - n + 2, 2) of them.  The decreasing pattern, the
    empty one included, is involved in (0, 0, m) once m >= n and in the
    (a, b, c) with m - min(a, b) >= n, which leaves C(2n - m, 2) avoiders.
    """

    def pairs(k: int) -> int:
        return k * (k - 1) // 2 if k > 1 else 0

    n = sum(pattern)
    if pattern[0]:
        return tuple(pairs(m) + 1 - pairs(m - n + 2) for m in range(depth + 1))
    return tuple(
        pairs(m) + 1 if m < n else pairs(2 * n - m) for m in range(depth + 1)
    )


def _check_depth(depth: int) -> None:
    """Reject a negative depth; every function here that takes one reaches this."""
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")


@lru_cache(maxsize=None)
def count_avoiders(class_id: ClassId, pattern: ClassElement, depth: int) -> tuple[int, ...]:
    """
    Counts of class members avoiding the pattern, for sizes 0..depth.

    c2, c3 and c4 are counted by the dynamic program over (size, scan
    state, last letter is a run letter) of ``_scan_counts``; a c2 word has
    one letter fewer than its size, and the empty permutation None avoids
    every pattern but None.  c1 is counted by the binomials of
    ``_triple_counts``: a decreasing pattern leaves no avoiders past twice
    its size less two.

    >>> count_avoiders(ClassId.AV_312_123, (0, 0, 3), 6)
    (1, 1, 2, 3, 1, 0, 0)
    >>> count_avoiders(ClassId.AV_312_231, (2, 1), 6)
    (1, 1, 2, 3, 4, 5, 6)
    >>> count_avoiders(ClassId.AV_312_213, None, 3)
    (0, 0, 0, 0)
    >>> count_avoiders(ClassId.AV_312_213, "", 3)
    (1, 0, 0, 0)
    """
    _check_depth(depth)
    validate_element(class_id, pattern)
    if class_id is ClassId.AV_312_123:
        counts = _triple_counts(pattern, depth)
    elif class_id is ClassId.AV_312_213:
        if pattern is None:
            counts = (0,) * (depth + 1)
        else:
            counts = (1,) + (_scan_counts(class_id, pattern, depth - 1) if depth else ())
    else:
        counts = _scan_counts(class_id, pattern, depth)
    if size_of(class_id, pattern) > 0:
        assert counts[0] == 1, "the empty permutation avoids nonempty patterns"
    return counts


def _partition(patterns, key) -> tuple[tuple, ...]:
    """(key, members) pairs of the patterns grouped by key, in order of first member."""
    groups: dict = {}
    for pattern in patterns:
        groups.setdefault(key(pattern), []).append(pattern)
    return tuple((k, tuple(members)) for k, members in groups.items())


def wilf_classes(class_id: ClassId, n: int, depth: int) -> tuple[WilfGroup, ...]:
    """Group the size-n patterns by equality of their counting sequences."""
    return tuple(
        WilfGroup(members, counts)
        for counts, members in _partition(
            generate(class_id, n), lambda p: count_avoiders(class_id, p, depth)
        )
    )


def canonical_groups(class_id: ClassId, n: int) -> tuple[tuple[ClassElement, ...], ...]:
    """Size-n patterns partitioned by canonical form, in generation order."""
    return tuple(
        members
        for _, members in _partition(
            generate(class_id, n), lambda p: canonical_key(class_id, p)
        )
    )


def _first_difference(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """First index where two counting sequences differ, or None if they agree."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), None)


def verify_soundness(class_id: ClassId, n: int, depth: int) -> tuple[PairFinding, ...]:
    """
    Patterns with equal canonical form must have equal counting sequences to
    the given depth; each violating pair is returned, none when sound.
    """
    violations = []
    for members in canonical_groups(class_id, n):
        base = count_avoiders(class_id, members[0], depth)
        for other in members[1:]:
            index = _first_difference(base, count_avoiders(class_id, other, depth))
            if index is not None:
                violations.append(PairFinding(members[0], other, index))
    return tuple(violations)


def verify_completeness(class_id: ClassId, n: int, depth: int) -> tuple[PairFinding, ...]:
    """
    Patterns with distinct canonical forms must have counting sequences that
    differ at some index up to the depth.  Pairs of representatives still
    equal at the depth, listed group by group, are returned as unseparated,
    demanding a larger depth; none when complete.
    """
    tied = _partition(
        (members[0] for members in canonical_groups(class_id, n)),
        lambda p: count_avoiders(class_id, p, depth),
    )
    return tuple(
        PairFinding(x, y, None)
        for _, representatives in tied
        for x, y in combinations(representatives, 2)
    )


def collapse_row(class_id: ClassId, n: int, groups: tuple[WilfGroup, ...]) -> CollapseRow:
    """The collapse table's row for the Wilf classes of the size-n patterns."""
    return CollapseRow(
        n,
        sum(len(g.members) for g in groups),
        len(groups),
        canonical_class_count(class_id, n),
    )


def collapse_rows(class_id: ClassId, n_max: int, depth: int) -> tuple[CollapseRow, ...]:
    """The collapse table: class size, Wilf-class count, canonical count."""
    _check_depth(depth)
    return tuple(
        collapse_row(class_id, n, wilf_classes(class_id, n, depth))
        for n in range(1, n_max + 1)
    )


def gf_crosscheck(class_id: ClassId, n: int, depth: int) -> int:
    """
    For every size-n pattern of the layered or sum-word class, compare the
    rational GF expansion with the avoider counts of count_avoiders; exact
    equality.  Returns the number of patterns checked; raises
    GFMismatchError on the first disagreement.
    """
    _check_depth(depth)
    checked = 0
    for pattern in generate(class_id, n):
        expansion = avoid_gf(class_id, pattern).expand(depth).integers()
        counts = count_avoiders(class_id, pattern, depth)
        k = _first_difference(counts, expansion)
        if k is not None:
            raise GFMismatchError(pattern, k, counts[k], expansion[k])
        checked += 1
    return checked
