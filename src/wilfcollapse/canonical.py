"""
Size-preserving equivalences on the layered and sum-word classes.

Two layered patterns with the same multiset of layers are equivalent, and a
layer of size 2 may be traded for two layers of size 1; the canonical
representative is a partition with no part equal to 2.  Two sum words with
the same multiset of letters are equivalent, and a drop letter b2 may be
traded for a pair of run letters a1 (one on each side of another drop
letter); the canonical representative is a pair of partitions, one for the
drop indices and one for the run indices, with at most one 1 among the runs
and at most one more run than drops.

``rewrite_closure`` computes full equivalence classes, lifting derived
equivalences of standalone subwords into arbitrary contexts, and is the
validation oracle for the canonical maps.  The explicit bijections used to
justify each rule are implemented alongside, built on greedy shortest
prefix/suffix factorization.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .encodings import (
    ClassId,
    Composition,
    SumWord,
    WedgeWord,
    avoiding_elements,
    class_leq,
    runs_apart,
    scan_automaton,
    size_of,
    validate_element,
)
from .errors import CapExceededError, NotInvolvedError, PreconditionError


# ---------------------------------------------------------------------------
# Canonical forms

def canonical_partition(comp: Composition) -> tuple[int, ...]:
    """
    Canonical form of a layered pattern: every part 2 becomes 1,1 and the
    parts are sorted weakly decreasing.  Two compositions are equivalent
    exactly when their canonical partitions agree.

    >>> canonical_partition((2, 1, 2))
    (1, 1, 1, 1, 1)
    >>> canonical_partition((3, 2, 1))
    (3, 1, 1, 1)
    """
    validate_element(ClassId.AV_312_231, comp)
    parts: list[int] = []
    for p in comp:
        if p == 2:
            parts += [1, 1]
        else:
            parts.append(p)
    return tuple(sorted(parts, reverse=True))


@dataclass(frozen=True)
class PartitionPair:
    """Canonical form of a sum-word pattern: drop indices and run indices."""

    b_parts: tuple[int, ...]
    a_parts: tuple[int, ...]

    def __post_init__(self):
        if any(v < 2 for v in self.b_parts):
            raise ValueError("drop parts must be at least 2")
        if any(v < 1 for v in self.a_parts):
            raise ValueError("run parts must be at least 1")
        if list(self.b_parts) != sorted(self.b_parts, reverse=True):
            raise ValueError("drop parts must be weakly decreasing")
        if list(self.a_parts) != sorted(self.a_parts, reverse=True):
            raise ValueError("run parts must be weakly decreasing")
        if sum(1 for v in self.a_parts if v == 1) > 1:
            raise ValueError("at most one run part may equal 1")
        if len(self.a_parts) > len(self.b_parts) + 1:
            raise ValueError("too many run parts to interleave")


def canonical_pair(word: SumWord) -> PartitionPair:
    """
    Canonical form of a sum word: pairs of size-1 runs are traded into extra
    b2 letters until at most one remains, then both letter multisets are
    sorted.  Trading in this direction maximizes the drop letters.

    >>> canonical_pair((-1, 3, -1))
    PartitionPair(b_parts=(3, 2), a_parts=())
    """
    validate_element(ClassId.AV_312_321, word)
    b_parts = [v for v in word if v > 0]
    runs = [-v for v in word if v < 0]
    ones = sum(1 for v in runs if v == 1)
    b_parts += [2] * (ones // 2)
    a_parts = sorted((v for v in runs if v > 1), reverse=True)
    if ones % 2:
        a_parts.append(1)
    return PartitionPair(tuple(sorted(b_parts, reverse=True)), tuple(a_parts))


def canonical_key(class_id: ClassId, element) -> tuple:
    """A hashable key constant on each equivalence class of same-size patterns."""
    if class_id is ClassId.AV_312_231:
        return canonical_partition(element)
    if class_id is ClassId.AV_312_321:
        pair = canonical_pair(element)
        return (pair.b_parts, pair.a_parts)
    validate_element(class_id, element)
    if class_id is ClassId.AV_312_123:
        a, b, _ = element
        return ("decreasing",) if a == 0 and b == 0 else ("mixed",)
    return ()


def format_canonical_partition(parts: tuple[int, ...]) -> str:
    return "partition:" + ",".join(str(v) for v in parts)


def format_canonical_pair(pair: PartitionPair) -> str:
    b = ",".join(str(v) for v in pair.b_parts)
    a = ",".join(str(v) for v in pair.a_parts)
    return f"pair:b={b};a={a}"


# ---------------------------------------------------------------------------
# Counting canonical forms

def _partitions(n: int, max_part: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), min_part - 1, -1):
        for rest in _partitions(n - first, first, min_part):
            yield (first,) + rest


def partitions_without_two(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n having no part equal to 2, weakly decreasing."""
    return tuple(p for p in _partitions(n, n) if 2 not in p)


@lru_cache(maxsize=None)
def valid_pairs(n: int) -> tuple[PartitionPair, ...]:
    """All canonical partition pairs of total size n."""
    result = []
    for bsum in range(n + 1):
        for bp in _partitions(bsum, bsum, min_part=2):
            asum = n - bsum
            candidates = list(_partitions(asum, asum, min_part=2))
            if asum >= 1:
                candidates += [
                    p + (1,) for p in _partitions(asum - 1, max(asum - 1, 1), min_part=2)
                ]
            for ap in candidates:
                if len(ap) <= len(bp) + 1:
                    result.append(PartitionPair(bp, ap))
    return tuple(result)


def canonical_class_count(class_id: ClassId, n: int) -> int:
    """Number of equivalence classes among size-n patterns."""
    if n == 0:
        return 1
    if class_id is ClassId.AV_312_123:
        return 1 if n == 1 else 2
    if class_id is ClassId.AV_312_213:
        return 1
    if class_id is ClassId.AV_312_231:
        return len(partitions_without_two(n))
    return len(valid_pairs(n))


# ---------------------------------------------------------------------------
# Rewrite closure (validation oracle)

def _composition_rewrites(w: Composition) -> Iterator[Composition]:
    for i in range(len(w) - 1):
        yield w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
    for i, part in enumerate(w):
        if part == 2:
            yield w[:i] + (1, 1) + w[i + 1 :]
    for i in range(len(w) - 1):
        if w[i] == 1 and w[i + 1] == 1:
            yield w[:i] + (2,) + w[i + 2 :]


def _sum_word_local_rewrites(w: SumWord) -> Iterator[SumWord]:
    n = len(w)
    for i in range(n - 1):
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
        if runs_apart(swapped):
            yield swapped
    for i in range(n - 2):
        if w[i] < 0 and w[i + 1] > 0 and w[i + 2] < 0 and w[i] != w[i + 2]:
            yield w[:i] + (w[i + 2], w[i + 1], w[i]) + w[i + 3 :]
    for i in range(n - 1):
        if w[i] == 2 and w[i + 1] > 0:
            candidate = w[:i] + (-1, w[i + 1], -1) + w[i + 2 :]
            if runs_apart(candidate):
                yield candidate
        if (
            i + 2 < n
            and w[i] == -1
            and w[i + 1] > 0
            and w[i + 2] == -1
        ):
            yield w[:i] + (2, w[i + 1]) + w[i + 3 :]


def _search(start, neighbours: Callable) -> frozenset:
    """Everything reachable from start through neighbours, breadth first."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for r in neighbours(w):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return frozenset(seen)


def _sum_word_neighbours(w: SumWord) -> Iterator[SumWord]:
    yield from _sum_word_local_rewrites(w)
    n = len(w)
    for start in range(n):
        for end in range(start + 1, n + 1):
            if start == 0 and end == n:
                continue
            inner = w[start:end]
            for replacement in _sum_word_closure(inner):
                if replacement == inner:
                    continue
                lifted = w[:start] + replacement + w[end:]
                if runs_apart(lifted):
                    yield lifted


_SUM_WORD_CLOSURES: dict[SumWord, frozenset] = {}


def _sum_word_closure(word: SumWord) -> frozenset:
    """
    Breadth-first congruence closure.  Stepping only through valid words is
    not enough: the contextual rule lifts any equivalence of a standalone
    subword in one step, even when replaying its derivation inside the
    context would pass through words with adjacent run letters.  Subword
    closures are therefore computed recursively (on strictly fewer letters)
    and spliced in whole.
    """
    cached = _SUM_WORD_CLOSURES.get(word)
    if cached is not None:
        return cached
    result = _search(word, _sum_word_neighbours)
    for member in result:
        _SUM_WORD_CLOSURES[member] = result
    return result


CLOSURE_CAP = 12  # largest element size whose closure is searched


def rewrite_closure(class_id: ClassId, element) -> frozenset:
    """
    The full equivalence class of an element under the defining rewrite
    rules, including contextual lifts of subword equivalences.  A validation
    oracle for elements of size at most CLOSURE_CAP.
    """
    if class_id not in (ClassId.AV_312_231, ClassId.AV_312_321):
        raise PreconditionError("rewrite closure applies to c3 and c4 only")
    validate_element(class_id, element)
    if size_of(class_id, element) > CLOSURE_CAP:
        raise CapExceededError(
            f"element size {size_of(class_id, element)} above cap {CLOSURE_CAP}"
        )
    if class_id is ClassId.AV_312_231:
        # part order and the 2 <-> 1,1 trade are unrestricted, so in-place
        # substring rewriting already realizes the full congruence
        return _search(element, _composition_rewrites)
    return _sum_word_closure(element)


# ---------------------------------------------------------------------------
# Greedy factorization

def shortest_prefix_end(class_id: ClassId, word, pattern) -> int | None:
    """Length of the shortest prefix of word involving pattern, or None."""
    return next(
        (k for k in range(len(word) + 1) if class_leq(class_id, pattern, word[:k])),
        None,
    )


def shortest_suffix_start(class_id: ClassId, word, pattern) -> int | None:
    """Start index of the shortest suffix of word involving pattern, or None."""
    return next(
        (k for k in range(len(word), -1, -1) if class_leq(class_id, pattern, word[k:])),
        None,
    )


def greedy_factorize(class_id: ClassId, word, prefix_pattern, suffix_pattern):
    """
    Split word into (prefix, middle, suffix) where prefix is the shortest
    prefix involving prefix_pattern and suffix the shortest suffix involving
    suffix_pattern.  Raises NotInvolvedError when no such split exists.
    """
    if class_id not in (ClassId.AV_312_231, ClassId.AV_312_321):
        raise PreconditionError("factorization applies to c3 and c4 only")
    end = shortest_prefix_end(class_id, word, prefix_pattern)
    start = shortest_suffix_start(class_id, word, suffix_pattern)
    if end is None or start is None:
        raise NotInvolvedError(
            f"{prefix_pattern!r}..{suffix_pattern!r} not involved in {word!r}"
        )
    if end > start:
        raise PreconditionError(
            "shortest prefix and suffix overlap; no disjoint factorization"
        )
    return word[:end], word[end:start], word[start:]


# ---------------------------------------------------------------------------
# Explicit bijections

def wedge_bijection(pi: WedgeWord, tau: WedgeWord, s: WedgeWord) -> WedgeWord:
    """
    The size-preserving bijection from wedge avoiders of pi onto wedge
    avoiders of tau, for patterns of equal size.  One greedy scan of s
    against pi: each step of s is emitted flipped exactly when pi and tau
    disagree at the number of pattern steps matched so far.
    """
    if pi is None or tau is None or len(pi) != len(tau):
        raise PreconditionError("patterns must be nonempty and of equal size")
    if class_leq(ClassId.AV_312_213, pi, s):
        raise PreconditionError(f"{s!r} involves the pattern {pi!r}")
    if s is None:
        return s
    scan, matched, _ = scan_automaton(ClassId.AV_312_213, pi)
    out = []
    for step in s:
        # s avoids pi, so matched stays below len(pi)
        out.append(step if pi[matched] == tau[matched] else "R" if step == "L" else "L")
        matched = scan(pi, step, matched)
    return "".join(out)


def _lift(class_id: ClassId, P, A, Q, S, rewrite: Callable):
    """
    The context construction behind the layered and sum-word bijections.
    For S avoiding P+A+Q: an avoider of P+Q is fixed; otherwise S is split
    by greedy_factorize into the shortest prefix involving P, a middle and
    the shortest suffix involving Q, and the middle is rewritten.  P + Q
    must be an element of the class, as context_bijection's junction check
    ensures for sum words.
    """
    pattern = P + A + Q
    if class_leq(class_id, pattern, S):
        raise PreconditionError(f"{S!r} involves the pattern {pattern!r}")
    if not class_leq(class_id, P + Q, S):
        return S
    prefix, middle, suffix = greedy_factorize(class_id, S, P, Q)
    return prefix + rewrite(middle) + suffix


def swap_parts_bijection(
    P: Composition, a: int, b: int, Q: Composition, S: Composition
) -> Composition:
    """
    Bijection from layered avoiders of P+(a,b)+Q onto avoiders of P+(b,a)+Q:
    avoiders of P..Q are fixed, otherwise the middle factor is reversed.
    """
    return _lift(ClassId.AV_312_231, P, (a, b), Q, S, lambda middle: middle[::-1])


def merge_ones_bijection(P: Composition, Q: Composition, S: Composition) -> Composition:
    """
    Bijection from layered avoiders of P+(2,)+Q onto avoiders of P+(1,1)+Q:
    avoiders of P..Q are fixed, otherwise the middle factor, necessarily a
    block of 1s, collapses to a single part of the same total.
    """

    def merge(middle: Composition) -> Composition:
        assert all(v == 1 for v in middle), "middle of a (2)-avoider is all 1s"
        return (len(middle),) if middle else ()

    return _lift(ClassId.AV_312_231, P, (2,), Q, S, merge)


def matched_avoider_bijection(class_id: ClassId, old, new) -> Callable:
    """
    Size-preserving bijection between two avoidance sets realized by
    matching elements of equal size in generation order.  Valid whenever the
    two sets are equinumerous by size, which is checked on use.
    """

    def inner(x):
        m = size_of(class_id, x)
        source = avoiding_elements(class_id, old, m)
        target = avoiding_elements(class_id, new, m)
        if len(source) != len(target):
            raise PreconditionError(
                f"avoidance sets differ in size at n={m}: "
                f"{len(source)} vs {len(target)}"
            )
        try:
            return target[source.index(x)]
        except ValueError:
            raise PreconditionError(f"{x!r} does not avoid {old!r}") from None

    return inner


def context_bijection(
    P: SumWord,
    A: SumWord,
    B: SumWord,
    Q: SumWord,
    W: SumWord,
    inner: Callable[[SumWord], SumWord],
) -> SumWord:
    """
    Lift a size-preserving bijection between sum-word avoiders of A and of B
    to one between avoiders of P A Q and of P B Q.  Avoiders of P..Q are
    fixed; otherwise the middle factor is rewritten by the inner bijection.

    Contexts must abut the middle with drop letters: P may not end, and Q
    may not begin, with a run letter, since the rewritten middle could then
    fuse with the context.
    """
    for whole in (P + A + Q, P + B + Q):
        try:
            validate_element(ClassId.AV_312_321, whole)
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
    if (P and P[-1] < 0) or (Q and Q[0] < 0):
        raise PreconditionError(
            "context must meet the middle with drop letters"
        )
    result = _lift(ClassId.AV_312_321, P, A, Q, W, inner)
    validate_element(ClassId.AV_312_321, result)
    return result
