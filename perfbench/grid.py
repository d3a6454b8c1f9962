"""
Op grids of the three workloads and the seeded draw of one run's op list.

An op is one argv list for the wilfcollapse CLI.  Each workload's grid is
split into strata of ops of similar cost.  A run draws the same number of
ops from every stratum, without replacement: op lists differ between seeds
while their total cost stays close, which keeps run-to-run spread low.  The patterns are generated here, independently of
the program under test.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n (layered patterns of class c3)."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def sum_words(n: int, after_run: bool = False) -> list[tuple[int, ...]]:
    """All sum words of size n (class c4): -i is run a<i>, j is drop b<j>."""
    if n == 0:
        return [()]
    words = []
    if not after_run:
        words += [(-i,) + rest for i in range(1, n + 1) for rest in sum_words(n - i, True)]
    words += [(j,) + rest for j in range(2, n + 1) for rest in sum_words(n - j, False)]
    return words


def composition_text(parts: tuple[int, ...]) -> str:
    return "+".join(str(p) for p in parts)


def sum_word_text(word: tuple[int, ...]) -> str:
    return " ".join(f"a{-v}" if v < 0 else f"b{v}" for v in word)


def patterns(class_id: str, size: int) -> list[str]:
    """Text forms of every c3 or c4 pattern of the given size."""
    if class_id == "c3":
        return [composition_text(c) for c in compositions(size)]
    return [sum_word_text(w) for w in sum_words(size)]


@dataclass(frozen=True)
class Workload:
    name: str
    strata: dict[str, tuple[tuple[str, ...], ...]]  # stratum -> its ops
    draws: dict[str, int]  # ops a run draws from each stratum
    # Ops every run makes once, untimed, to report a known defect (see run.py)
    probe: tuple[tuple[str, ...], ...] = ()

    def grid(self) -> list[tuple[str, ...]]:
        return [op for name in sorted(self.strata) for op in self.strata[name]]


def op_list(workload: Workload, seed: int) -> list[list[str]]:
    """
    The op list of one run: a function of the workload and the seed only.
    The seed picks the ops; they run in grid order, so that which op pays
    for filling a shared cache does not change with the seed.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    ops: list[list[str]] = []
    for name in sorted(workload.strata):
        stratum = workload.strata[name]
        chosen = sorted(rng.sample(range(len(stratum)), workload.draws[name]))
        ops += [list(stratum[i]) for i in chosen]
    return ops


CLASSES = ("c1", "c2", "c3", "c4")

# Brute force costs about 2^(n-1) * 2^depth order tests per (class, n, depth)
# cell for c2..c4; n + depth <= 17 keeps the heaviest op near a tenth of a
# second.  In those classes each command owns its own depths, so no op reuses
# counts another op paid for, and every run draws all of their ops, so a
# run's cost does not depend on the seed.  The seed picks the c1 ops, which
# are cheap at every n and depth because c1 has quadratically many members.
BRUTE_MAX_N_PLUS_DEPTH = 17
BRUTE_DEPTHS = {"classify": (12, 15), "verify": (13, 16), "report": (14,)}
C1_DRAWS = 8  # per command; few enough that the median op is one of c2..c4


def _brute_op(command: str, class_id: str, n: int, depth: int) -> tuple[str, ...]:
    if command == "classify":
        return ("classify", "--class", class_id, "--n", str(n), "--depth", str(depth),
                "--format", "json")
    if command == "verify":
        return ("verify", "--class", class_id, "--n", str(n), "--depth", str(depth))
    return ("report", "--class", class_id, "--max-n", str(n), "--depth", str(depth))


def _brute() -> Workload:
    strata: dict[str, tuple[tuple[str, ...], ...]] = {}
    draws: dict[str, int] = {}
    for class_id in CLASSES:
        for command, depths in BRUTE_DEPTHS.items():
            name = f"{command}:{class_id}"
            if class_id == "c1":
                strata[name] = tuple(
                    _brute_op(command, "c1", n, d) for d in range(12, 17) for n in range(1, 9)
                )
                draws[name] = C1_DRAWS
            elif command == "report":
                # One report per class: reports of one depth share their cells.
                (depth,) = depths
                strata[name] = (
                    _brute_op(command, class_id, BRUTE_MAX_N_PLUS_DEPTH - depth, depth),
                )
            else:
                strata[name] = tuple(
                    _brute_op(command, class_id, n, d)
                    for d in depths
                    for n in range(1, BRUTE_MAX_N_PLUS_DEPTH - d + 1)
                )
        strata[f"enumerate:{class_id}"] = tuple(
            ("enumerate", "--class", class_id, "--n", str(n), "--format", ("csv", "json")[n % 2])
            for n in range(12, 16)
        )
    for name, ops in strata.items():
        draws.setdefault(name, len(ops))
    return Workload(
        name="brute",
        strata=strata,
        draws=draws,
    )


def _equivalent_groups(class_id: str, size: int) -> list[list[str]]:
    """
    Patterns of one size grouped by their multiset of letters, in a fixed
    order.  Such patterns are Wilf-equivalent: they share one reduced GF, so
    a gf op prints the same whichever member of a group it names.
    """
    groups: dict[tuple, list[str]] = {}
    words = compositions(size) if class_id == "c3" else sum_words(size)
    text = composition_text if class_id == "c3" else sum_word_text
    for word in words:
        groups.setdefault(tuple(sorted(word)), []).append(text(word))
    return [group for _, group in sorted(groups.items())]


def _gf_build() -> Workload:
    # One gf op per group of Wilf-equivalent patterns (same multiset of
    # letters), the seed picking the member: the GFs and their degrees are
    # the same in every run, while the construction order, and so the
    # sharing of cached suffix GFs, varies.  The seed also picks half as many
    # canon ops, which keeps the median op a gf op rather than on the
    # boundary between the two latency modes.
    strata: dict[str, tuple[tuple[str, ...], ...]] = {}
    draws: dict[str, int] = {}
    sizes = {"c3": range(8, 11), "c4": range(6, 10)}
    for class_id, size_range in sizes.items():
        for size in size_range:
            groups = _equivalent_groups(class_id, size)
            for i, group in enumerate(groups):
                name = f"gf:{class_id}:{size}:{i}"
                strata[name] = tuple(
                    ("gf", "--class", class_id, "--pattern", text,
                     "--expand", str((8, 10, 12, 14, 16)[(i + k) % 5]))
                    for k, text in enumerate(group)
                )
                draws[name] = 1
            name = f"canon:{class_id}:{size}"
            strata[name] = tuple(
                ("canon", "--class", class_id, "--element", text)
                for text in patterns(class_id, size)
            )
            draws[name] = len(groups) // 2
    return Workload(
        name="gf_build",
        strata=strata,
        draws=draws,
    )


# From this n on, the downward scan of lis_root is known to miss the root
# nearest zero (ROADMAP item 4).  Timed q tables stop below it, so that every
# timed op has a correct answer; every series_deep run probes it untimed.
LIS_ROOT_DEFECT_N = 151


def _series_deep() -> Workload:
    strata: dict[str, tuple[tuple[str, ...], ...]] = {}
    for class_id in ("c3", "c4"):
        # Groups of two or more, so the seed has a member to pick.
        groups = [g for g in _equivalent_groups(class_id, 5) if len(g) > 1][:4]
        for i, group in enumerate(groups):
            for order in ((1000, 3000), (2000, 4000))[i % 2]:
                strata[f"gf:{class_id}:{i}:{order}"] = tuple(
                    ("gf", "--class", class_id, "--pattern", text, "--expand", str(order))
                    for text in group
                )
    formats = ("csv", "json")
    # A ladder of q tables: run-count polynomials are cached, so each table
    # builds only those its predecessor did not, and the seconds of building
    # are split between ops with calibration samples between them.  Steps of
    # ten keep each op short, so that a change in host speed within one op,
    # which the calibration cannot see, moves few milliseconds.
    for m in range(30, LIS_ROOT_DEFECT_N, 10):
        strata[f"roots:q:{m:03d}"] = tuple(
            ("roots", "--family", "q", "--max-n", str(m), "--format", fmt) for fmt in formats
        )
    for m in (100, 200, 300, 400):
        strata[f"roots:layered:{m}"] = tuple(
            ("roots", "--family", "layered", "--max-n", str(m), "--format", fmt)
            for fmt in formats
        )
    return Workload(
        name="series_deep",
        strata=strata,
        draws={name: 1 for name in strata},
        probe=(("roots", "--family", "q", "--max-n", str(LIS_ROOT_DEFECT_N)),),
    )


WORKLOADS = {w.name: w for w in (_brute(), _gf_build(), _series_deep())}
