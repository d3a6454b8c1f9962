"""
Brute-force enumeration of principal subclasses, grouping of patterns into
Wilf classes by their counting sequences, and verification that the grouping
coincides with the canonical-form equivalences.

Everything here is a deterministic reduction over immutable inputs; counting
different patterns is embarrassingly parallel but runs sequentially, with a
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
    generate,
    leq_function,
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
class WilfReport:
    class_id: ClassId
    n: int
    depth: int
    groups: tuple[WilfGroup, ...]

    @property
    def w_n(self) -> int:
        return len(self.groups)

    @property
    def c_n(self) -> int:
        return sum(len(g.members) for g in self.groups)


@dataclass(frozen=True)
class PairFinding:
    x: ClassElement
    y: ClassElement
    index: int | None  # first index where the sequences differ, if any


@dataclass(frozen=True)
class SoundnessReport:
    class_id: ClassId
    n: int
    depth: int
    violations: tuple[PairFinding, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CompletenessReport:
    class_id: ClassId
    n: int
    depth: int
    unseparated: tuple[PairFinding, ...]  # warnings: need a larger depth

    @property
    def ok(self) -> bool:
        return not self.unseparated


def _check_budget(n: int | None, depth: int | None) -> None:
    if depth is not None and depth > MAX_DEPTH:
        raise BudgetExceededError(f"depth {depth} above budget {MAX_DEPTH}")
    if n is not None and n > MAX_PATTERN_SIZE:
        raise BudgetExceededError(
            f"pattern size {n} above budget {MAX_PATTERN_SIZE}"
        )


@lru_cache(maxsize=None)
def count_avoiders(class_id: ClassId, pattern: ClassElement, depth: int) -> tuple[int, ...]:
    """Counts of class members avoiding the pattern, for sizes 0..depth."""
    _check_budget(None, depth)
    validate_element(class_id, pattern)
    leq = leq_function(class_id)
    counts = tuple(
        sum(1 for e in generate(class_id, m) if not leq(pattern, e))
        for m in range(depth + 1)
    )
    if size_of(class_id, pattern) > 0:
        assert counts[0] == 1, "the empty permutation avoids nonempty patterns"
    return counts


def wilf_classes(class_id: ClassId, n: int, depth: int) -> WilfReport:
    """Group the size-n patterns by equality of their counting sequences."""
    _check_budget(n, depth)
    groups: dict[tuple[int, ...], list[ClassElement]] = {}
    for pattern in generate(class_id, n):
        counts = count_avoiders(class_id, pattern, depth)
        groups.setdefault(counts, []).append(pattern)
    ordered = sorted(groups.items(), key=lambda item: item[1][0])
    return WilfReport(
        class_id,
        n,
        depth,
        tuple(WilfGroup(tuple(members), counts) for counts, members in ordered),
    )


def canonical_groups(class_id: ClassId, n: int) -> tuple[tuple[ClassElement, ...], ...]:
    """Size-n patterns partitioned by canonical form, in generation order."""
    groups: dict[tuple, list[ClassElement]] = {}
    for pattern in generate(class_id, n):
        groups.setdefault(canonical_key(class_id, pattern), []).append(pattern)
    return tuple(
        tuple(members)
        for members in sorted(groups.values(), key=lambda ms: ms[0])
    )


def _first_difference(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """First index where two counting sequences differ, or None if they agree."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), None)


def verify_soundness(class_id: ClassId, n: int, depth: int) -> SoundnessReport:
    """
    Patterns with equal canonical form must have equal counting sequences to
    the given depth; any violating pair is reported.
    """
    _check_budget(n, depth)
    violations = []
    for members in canonical_groups(class_id, n):
        base = count_avoiders(class_id, members[0], depth)
        for other in members[1:]:
            index = _first_difference(base, count_avoiders(class_id, other, depth))
            if index is not None:
                violations.append(PairFinding(members[0], other, index))
    return SoundnessReport(class_id, n, depth, tuple(violations))


def verify_completeness(class_id: ClassId, n: int, depth: int) -> CompletenessReport:
    """
    Patterns with distinct canonical forms must have counting sequences that
    differ at some index up to the depth.  Pairs still equal at the depth
    are reported as unseparated, demanding a larger depth.
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
    return CompletenessReport(class_id, n, depth, tuple(unseparated))


@dataclass(frozen=True)
class CollapseRow:
    n: int
    c_n: int
    w_n: int
    canonical_count: int


def collapse_rows(class_id: ClassId, n_max: int, depth: int) -> tuple[CollapseRow, ...]:
    """The collapse table: class size, Wilf-class count, canonical count."""
    _check_budget(n_max, depth)
    rows = []
    for n in range(1, n_max + 1):
        report = wilf_classes(class_id, n, depth)
        rows.append(
            CollapseRow(n, report.c_n, report.w_n, canonical_class_count(class_id, n))
        )
    return tuple(rows)


def gf_crosscheck(class_id: ClassId, n: int, depth: int) -> int:
    """
    For every size-n pattern of the layered or sum-word class, compare the
    rational GF expansion with brute-force avoider counts; exact equality.
    Returns the number of patterns checked; raises GFMismatchError on the
    first disagreement.
    """
    _check_budget(n, depth)
    checked = 0
    for pattern in generate(class_id, n):
        expansion = avoid_gf(class_id, pattern).expand(depth).integers()
        counts = count_avoiders(class_id, pattern, depth)
        for k, (a, b) in enumerate(zip(counts, expansion)):
            if a != b:
                raise GFMismatchError(pattern, k, a, b)
        checked += 1
    return checked
