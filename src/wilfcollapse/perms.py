"""
Permutations in one-line notation and the involvement (pattern containment) order.

A permutation of size n is represented as a tuple of the integers 1..n, each
appearing exactly once; the empty tuple is the empty permutation.  A pattern
``p`` is *involved* in a target ``t`` when some subsequence of ``t`` is order
isomorphic to ``p``; otherwise ``t`` avoids ``p``.

The eight symmetries of the containment order (the dihedral group generated by
word reversal and functional inverse) are materialized as named transforms so
that trivially-equivalent classes can be recognised in constant time.
"""
from __future__ import annotations

from string import whitespace
from typing import Callable, Iterable, Sequence

from .errors import ParseError

Perm = tuple[int, ...]


def is_permutation(values: Sequence[int]) -> bool:
    """
    Check that values is a permutation of 1..n in one-line notation.

    >>> [is_permutation(v) for v in [(), (1,), (2, 1), (1, 3), (1, 1, 2)]]
    [True, True, True, False, False]
    """
    n = len(values)
    return sorted(values) == list(range(1, n + 1))


def parse_perm(text: str) -> Perm:
    """Parse comma-separated one-line notation, e.g. ``"2,1,4,6,3,5"``."""
    stripped = text.strip(whitespace)  # ASCII only, as is the format
    if stripped in ("", "e"):
        return ()
    values = []
    pos = len(text) - len(text.lstrip(whitespace))  # where stripped starts in text
    for chunk in stripped.split(","):
        piece = chunk.strip(whitespace)
        if not (piece.isascii() and piece.isdecimal()):
            start = pos + len(chunk) - len(chunk.lstrip(whitespace))
            raise ParseError("expected a positive integer", text, start)
        values.append(int(piece))
        pos += len(chunk) + 1
    perm = tuple(values)
    if not is_permutation(perm):
        raise ParseError("values are not a permutation of 1..n", text, 0)
    return perm


def format_perm(p: Perm) -> str:
    return ",".join(map(str, p)) if p else "e"


def pattern_of(values: Sequence[int]) -> Perm:
    """Rank-normalize a sequence of distinct numbers to a permutation."""
    order = sorted(values)
    rank = {v: i + 1 for i, v in enumerate(order)}
    return tuple(rank[v] for v in values)


def involves(pattern: Perm, target: Perm) -> bool:
    """
    Decide whether some subsequence of target is order isomorphic to pattern.

    Backtracking search over embeddings, extending leftmost-first with a
    remaining-length prune.  Adequate for desk-scale sizes (patterns up to 8,
    targets up to 16 or so); general pattern matching is NP-hard.

    >>> involves((1, 3, 2), (2, 4, 1, 3))
    True
    >>> involves((3, 2, 1), (2, 4, 1, 3))
    False
    >>> involves((), (2, 4, 1, 3))
    True
    """
    k, n = len(pattern), len(target)
    if k == 0:
        return True
    if k > n:
        return False
    chosen: list[int] = []

    def extend(s: int, start: int) -> bool:
        if s == k:
            return True
        ps = pattern[s]
        for j in range(start, n - (k - s) + 1):
            v = target[j]
            if all((pattern[i] < ps) == (w < v) for i, w in enumerate(chosen)):
                chosen.append(v)
                if extend(s + 1, j + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)


# ---------------------------------------------------------------------------
# Symmetries

def _reverse(p: Perm) -> Perm:
    return p[::-1]


def _complement(p: Perm) -> Perm:
    n = len(p)
    return tuple(n + 1 - v for v in p)


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def _compose(*fns: Callable[[Perm], Perm]) -> Callable[[Perm], Perm]:
    def composed(p: Perm) -> Perm:
        for fn in reversed(fns):
            p = fn(p)
        return p

    return composed


#: The eight symmetries of the containment order.  Hyphenated names compose
#: right to left: ``reverse-inverse`` applies inverse first, then reverse.
SYMMETRIES: dict[str, Callable[[Perm], Perm]] = {
    "identity": lambda p: p,
    "reverse": _reverse,
    "complement": _complement,
    "reverse-complement": _compose(_reverse, _complement),
    "inverse": _inverse,
    "reverse-inverse": _compose(_reverse, _inverse),
    "complement-inverse": _compose(_complement, _inverse),
    "reverse-complement-inverse": _compose(_reverse, _complement, _inverse),
}


def apply_symmetry(p: Perm, name: str) -> Perm:
    """
    Apply one of the eight named symmetries.

    >>> apply_symmetry((3, 1, 2), "reverse")
    (2, 1, 3)
    >>> apply_symmetry((3, 1, 2), "inverse")
    (2, 3, 1)
    """
    try:
        fn = SYMMETRIES[name]
    except KeyError:
        raise ValueError(f"unknown symmetry {name!r}") from None
    return fn(p)


# ---------------------------------------------------------------------------
# Sums and sum decomposition

def direct_sum(p: Perm, q: Perm) -> Perm:
    """
    Diagonal juxtaposition with q above and after p.

    >>> direct_sum((2, 1), (2, 4, 1, 3))
    (2, 1, 4, 6, 3, 5)
    """
    n = len(p)
    return p + tuple(v + n for v in q)


def skew_sum(p: Perm, q: Perm) -> Perm:
    """
    Diagonal juxtaposition with p above and before q.

    >>> skew_sum((2, 1), (2, 4, 1, 3))
    (6, 5, 2, 4, 1, 3)
    """
    m = len(q)
    return tuple(v + m for v in p) + q


def sum_decompose(p: Perm) -> list[Perm]:
    """
    Split a permutation into its maximal direct-sum components.

    Every permutation is uniquely a direct sum of sum-indecomposable pieces;
    the empty permutation decomposes into no pieces.

    >>> sum_decompose((2, 1, 4, 6, 3, 5))
    [(2, 1), (2, 4, 1, 3)]
    >>> sum_decompose((1, 2, 3))
    [(1,), (1,), (1,)]
    """
    components = []
    start = 0
    running_max = 0
    for i, v in enumerate(p):
        running_max = max(running_max, v)
        if running_max == i + 1:
            components.append(tuple(v - start for v in p[start : i + 1]))
            start = i + 1
    return components


def direct_sum_all(components: Iterable[Perm]) -> Perm:
    result: Perm = ()
    for c in components:
        result = direct_sum(result, c)
    return result
