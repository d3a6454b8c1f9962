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
word of size at most d once, and takes O(k r d^2) steps in all.  c1 alone
is counted by enumerating its m(m-1)/2 + 1 members of each size m with its
order test.  Enumerating ``generate`` with ``class_leq`` remains the oracle
the tests compare the dynamic program against.

Everything here is a deterministic reduction over immutable inputs, with a
cache keyed by (class, pattern, depth) so repeated verifications are free.
Results are returned as data; the command-line front end renders them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .canonical import canonical_class_count, canonical_key
from .encodings import (
    ClassElement,
    ClassId,
    avoiding_elements,
    generate,
    letters,
    scan_automaton,
    size_of,
    validate_element,
)
from .errors import BudgetExceededError, GFMismatchError
from .genfun import avoid_gf

MAX_DEPTH = 18
MAX_PATTERN_SIZE = 8


@dataclass(frozen=True)
class WilfGroup:
    members: tuple[ClassElement, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class PairFinding:
    x: ClassElement
    y: ClassElement
    index: int | None  # first index where the sequences differ, if any


@dataclass(frozen=True)
class CollapseRow:
    n: int
    c_n: int
    w_n: int
    canonical_count: int


def _check_budget(n: int | None, depth: int | None) -> None:
    if depth is not None and depth < 0:
        raise ValueError(f"depth {depth} is negative")
    if depth is not None and depth > MAX_DEPTH:
        raise BudgetExceededError(f"depth {depth} above budget {MAX_DEPTH}")
    if n is not None and n > MAX_PATTERN_SIZE:
        raise BudgetExceededError(
            f"pattern size {n} above budget {MAX_PATTERN_SIZE}"
        )


def _scan_counts(class_id: ClassId, pattern: ClassElement, depth: int) -> tuple[int, ...]:
    """
    Numbers of words of size 0..depth whose scan against the pattern stops
    short of the goal.  No two run letters are adjacent, so a word ending in
    one may not be extended by another.
    """
    scan, start, goal = scan_automaton(class_id, pattern)
    alphabet = letters(class_id, depth)
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
                    continue
                row = table[m + size]
                row[nxt] = row.get(nxt, 0) + ways
    return tuple(sum(row.values()) for row in table)


@lru_cache(maxsize=None)
def count_avoiders(class_id: ClassId, pattern: ClassElement, depth: int) -> tuple[int, ...]:
    """
    Counts of class members avoiding the pattern, for sizes 0..depth.

    c2, c3 and c4 are counted by the dynamic program over (size, scan
    state, last letter is a run letter) of ``_scan_counts``; a c2 word has
    one letter fewer than its size, and the empty permutation None avoids
    every pattern but None.  c1 is counted by enumerating its members.
    """
    _check_budget(None, depth)
    validate_element(class_id, pattern)
    if class_id is ClassId.AV_312_123:
        counts = tuple(
            len(avoiding_elements(class_id, pattern, m)) for m in range(depth + 1)
        )
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
    """(key, members) pairs of the patterns grouped by key, ordered by first member."""
    groups: dict = {}
    for pattern in patterns:
        groups.setdefault(key(pattern), []).append(pattern)
    return tuple(
        (k, tuple(members))
        for k, members in sorted(groups.items(), key=lambda item: item[1][0])
    )


def wilf_classes(class_id: ClassId, n: int, depth: int) -> tuple[WilfGroup, ...]:
    """Group the size-n patterns by equality of their counting sequences."""
    _check_budget(n, depth)
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
    _check_budget(n, depth)
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
    differ at some index up to the depth.  Pairs still equal at the depth
    are returned as unseparated, demanding a larger depth; none when complete.
    """
    _check_budget(n, depth)
    groups = canonical_groups(class_id, n)
    representatives = [g[0] for g in groups]
    unseparated = []
    for i, x in enumerate(representatives):
        cx = count_avoiders(class_id, x, depth)
        for y in representatives[i + 1 :]:
            if _first_difference(cx, count_avoiders(class_id, y, depth)) is None:
                unseparated.append(PairFinding(x, y, None))
    return tuple(unseparated)


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
    _check_budget(n_max, depth)
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
    _check_budget(n, depth)
    checked = 0
    for pattern in generate(class_id, n):
        expansion = avoid_gf(class_id, pattern).expand(depth).integers()
        counts = count_avoiders(class_id, pattern, depth)
        k = _first_difference(counts, expansion)
        if k is not None:
            raise GFMismatchError(pattern, k, counts[k], expansion[k])
        checked += 1
    return checked
