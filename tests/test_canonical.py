import pytest

from wilfcollapse.canonical import (
    PartitionPair,
    _composition_rewrites,
    _partitions,
    _sum_word_relations,
    canonical_class_count,
    canonical_key,
    canonical_pair,
    canonical_partition,
    context_bijection,
    format_canonical_pair,
    format_canonical_partition,
    greedy_factorize,
    matched_avoider_bijection,
    merge_ones_bijection,
    partitions_without_two,
    rewrite_closure,
    shortest_prefix_end,
    shortest_suffix_start,
    swap_parts_bijection,
    valid_pairs,
    wedge_bijection,
)
from wilfcollapse.encodings import ClassId, avoiding_elements, generate, to_permutation
from wilfcollapse.engine import canonical_groups
from wilfcollapse.errors import NotInvolvedError, PreconditionError
from wilfcollapse.genfun import avoid_gf, avoid_gf_layered, involve_gf_sum_word
from wilfcollapse.perms import involves

C3 = ClassId.AV_312_231
C4 = ClassId.AV_312_321


def test_canonical_partition_examples():
    assert canonical_partition((2, 1, 2)) == (1, 1, 1, 1, 1)
    assert canonical_partition((3, 2, 1)) == (3, 1, 1, 1)
    assert canonical_partition((5,)) == (5,)
    assert canonical_partition(()) == ()


def test_canonical_pair_examples():
    assert canonical_pair((-1, 3, -1)) == PartitionPair((3, 2), ())
    assert canonical_pair((4, -2)) == PartitionPair((4,), (2,))
    assert canonical_pair((-1, 2, -1)) == PartitionPair((2, 2), ())
    assert canonical_pair((-1,)) == PartitionPair((), (1,))
    assert canonical_pair(()) == PartitionPair((), ())


@pytest.mark.parametrize(
    "canonical, element",
    [
        (canonical_partition, (0, -1)),
        (lambda e: canonical_key(ClassId.AV_312_123, e), (1, 0, 3)),
        (lambda e: canonical_key(ClassId.AV_312_213, e), 5),
        (lambda e: canonical_key(C3, e), (2, 0)),
    ],
    ids=["partition-c3", "key-c1", "key-c2", "key-c3"],
)
def test_canonical_forms_validate_their_element(canonical, element):
    # canonical_pair validates already, and so canonical_key for c4
    with pytest.raises(ValueError):
        canonical(element)


def test_pair_validation():
    with pytest.raises(ValueError):
        PartitionPair((2,), (1, 1))
    with pytest.raises(ValueError):
        PartitionPair((), (2, 2))
    with pytest.raises(ValueError):
        PartitionPair((1,), ())
    with pytest.raises(ValueError):
        PartitionPair((2, 3), ())
    # parts are tuples of ints, as validate_element requires of elements
    with pytest.raises(ValueError):
        PartitionPair((3.0, 2), (1.5,))
    with pytest.raises(ValueError):
        PartitionPair([3, 2], [])


def test_serialization():
    assert format_canonical_partition((3, 1, 1)) == "partition:3,1,1"
    assert format_canonical_pair(PartitionPair((4, 2), (2, 1))) == "pair:b=4,2;a=2,1"
    assert format_canonical_pair(PartitionPair((3, 2), ())) == "pair:b=3,2;a="


def test_canonical_form_counts():
    # distinct canonical forms among size-n patterns match the closed counts
    for n in range(1, 13):
        forms = {canonical_partition(c) for c in generate(C3, n)}
        assert len(forms) == len(partitions_without_two(n)), n
    for n in range(1, 11):
        forms = {canonical_pair(w) for w in generate(C4, n)}
        assert len(forms) == len(valid_pairs(n)), n
        assert forms == set(valid_pairs(n))


def test_valid_pairs_keeps_its_order():
    # the loop that rebuilt the run-part candidates for every drop partition
    def rebuilt_per_drop_partition(n):
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

    for n in range(25):
        assert valid_pairs(n) == rebuilt_per_drop_partition(n), n


def test_canonical_class_count_small():
    assert [canonical_class_count(C3, n) for n in range(1, 7)] == [1, 1, 2, 3, 4, 6]
    assert [canonical_class_count(C4, n) for n in range(1, 7)] == [1, 2, 3, 5, 8, 14]
    assert canonical_class_count(ClassId.AV_312_123, 1) == 1
    assert canonical_class_count(ClassId.AV_312_123, 5) == 2
    assert canonical_class_count(ClassId.AV_312_213, 5) == 1
    # a negative size is refused, as generate refuses it, not counted
    for cid in ClassId:
        with pytest.raises(ValueError, match="size must be non-negative"):
            canonical_class_count(cid, -1)


def test_rewrite_closure_examples():
    assert rewrite_closure(C3, (2,)) == frozenset({(2,), (1, 1)})
    assert rewrite_closure(C3, (1, 3)) == frozenset({(1, 3), (3, 1)})
    closure = rewrite_closure(C4, (2, 3))
    assert (-1, 3, -1) in closure
    assert (3, 2) in closure
    with pytest.raises(PreconditionError):
        rewrite_closure(ClassId.AV_312_213, "LL")


@pytest.mark.parametrize("cid", [C3, C4])
@pytest.mark.parametrize("n", range(1, 14))
def test_closure_classes_equal_canonical_classes(cid, n):
    # one breadth-first closure per equivalence class: the closure of any
    # representative must be exactly the set sharing its canonical form
    groups = {}
    for e in generate(cid, n):
        groups.setdefault(canonical_key(cid, e), set()).add(e)
    for members in groups.values():
        representative = sorted(members)[0]
        assert rewrite_closure(cid, representative) == frozenset(members)


def test_every_rule_keeps_the_gf():
    # the involvement GF is the class GF times one factor per letter, so a
    # rule that keeps the GF of the word it rewrites keeps it in any context
    letters = [-i for i in range(1, 30)] + list(range(2, 30))
    words = [(x, y) for x in letters for y in letters if abs(x) + abs(y) <= 30 and (x > 0 or y > 0)]
    words += [(-i, k, -j) for i in range(1, 13) for k in range(2, 13) for j in range(1, 13)]
    rewrites = 0
    for w in words:
        for other in _sum_word_relations(w):
            assert involve_gf_sum_word(other) == involve_gf_sum_word(w), (w, other)
            rewrites += 1
    comps = [(p,) for p in range(1, 31)] + [(p, q) for p in range(1, 30) for q in range(1, 31 - p)]
    for c in comps:
        for other in _composition_rewrites(c):
            assert avoid_gf_layered(other) == avoid_gf_layered(c), (c, other)
            rewrites += 1
    assert rewrites == 3305


def test_gfs_group_patterns_as_canonical_forms_do():
    # past the counting budget: the avoidance GF and the canonical form
    # partition every c3 pattern of size <= 12 and c4 pattern of size <= 11
    # into the same groups
    classes = 0
    for cid, top in ((C3, 12), (C4, 11)):
        for n in range(top + 1):
            by_gf = {}
            for p in generate(cid, n):
                by_gf.setdefault(avoid_gf(cid, p), set()).add(p)
            groups = {frozenset(g) for g in canonical_groups(cid, n)}
            assert {frozenset(g) for g in by_gf.values()} == groups, (cid, n)
            classes += len(groups)
    assert classes == 133 + 318


# ---------------------------------------------------------------------------
# Greedy factorization

def test_greedy_factorize_examples():
    assert greedy_factorize(C3, (3, 1, 2, 2), (2,), (2,)) == ((3,), (1, 2), (2,))
    assert greedy_factorize(C3, (2, 2), (2,), (2,)) == ((2,), (), (2,))
    assert greedy_factorize(C3, (1, 2), (1,), (2,)) == ((1,), (), (2,))
    with pytest.raises(NotInvolvedError):
        greedy_factorize(C3, (1, 1), (2,), (2,))
    # c2's empty permutation None is involved in every prefix and suffix
    assert shortest_prefix_end(ClassId.AV_312_213, "LRL", None) == 0
    assert shortest_suffix_start(ClassId.AV_312_213, "LRL", None) == 3
    # and None as the word involves only None
    for pattern, expected in ((None, 0), ("", None), ("L", None)):
        assert shortest_prefix_end(ClassId.AV_312_213, None, pattern) == expected
        assert shortest_suffix_start(ClassId.AV_312_213, None, pattern) == expected
    # c1 has no scan automaton
    for shortest in (shortest_prefix_end, shortest_suffix_start):
        with pytest.raises(ValueError, match="no scan automaton"):
            shortest(ClassId.AV_312_123, (1, 2, 0), (0, 0, 1))


FACTORIZATION_CASES = {
    C3: (6, [(1,), (2,), (1, 1), (2, 1)]),
    C4: (7, [(-1,), (-2,), (2,), (-1, 2)]),
}


@pytest.mark.parametrize("cid", [C3, C4])
def test_greedy_factorize_minimality_brute(cid):
    # the returned prefix is the shortest prefix involving P, likewise the
    # suffix; involvement is decided on decoded permutations
    max_size, patterns = FACTORIZATION_CASES[cid]

    def involved(pattern, word):
        return involves(to_permutation(cid, pattern), to_permutation(cid, word))

    for w in (w for n in range(max_size + 1) for w in generate(cid, n)):
        for P in patterns:
            for Q in patterns:
                try:
                    prefix, middle, suffix = greedy_factorize(cid, w, P, Q)
                except NotInvolvedError:
                    assert not (involved(P, w) and involved(Q, w))
                    continue
                except PreconditionError:
                    continue
                assert prefix + middle + suffix == w
                assert involved(P, prefix)
                assert involved(Q, suffix)
                for cut in range(len(prefix)):
                    assert not involved(P, w[:cut])
                for cut in range(len(suffix)):
                    assert not involved(Q, w[len(w) - cut :])


def test_greedy_factorize_sum_words():
    # a run letter of the prefix pattern may spread over several letters
    assert greedy_factorize(C4, (2, 3, 2), (-3,), (2,)) == ((2, 3), (), (2,))
    prefix, middle, suffix = greedy_factorize(C4, (-2, 2, 3), (-1,), (3,))
    assert prefix == (-2,) and middle == (2,) and suffix == (3,)


# ---------------------------------------------------------------------------
# Bijections

WEDGE_CONTEXTS = [("LL", "LR"), ("LR", "RL"), ("RR", "LL"), ("LRL", "RRL")]


@pytest.mark.parametrize("pi,tau", WEDGE_CONTEXTS)
def test_wedge_bijection_is_bijection(pi, tau):
    for m in range(0, 9):
        source = avoiding_elements(ClassId.AV_312_213, pi, m)
        target = set(avoiding_elements(ClassId.AV_312_213, tau, m))
        images = [wedge_bijection(pi, tau, s) for s in source]
        assert len(set(images)) == len(images)
        assert set(images) == target


def test_wedge_bijection_identity_and_errors():
    for s in avoiding_elements(ClassId.AV_312_213, "LR", 6):
        assert wedge_bijection("LR", "LR", s) == s
    with pytest.raises(PreconditionError):
        wedge_bijection("LL", "LR", "LL")  # involves the pattern
    with pytest.raises(PreconditionError):
        wedge_bijection("L", "RR", "")  # sizes differ


SWAP_CONTEXTS = [((1,), 2, 3, ()), ((), 1, 3, (2,)), ((2,), 2, 4, (1,))]


@pytest.mark.parametrize("P,a,b,Q", SWAP_CONTEXTS)
def test_swap_bijection_is_bijection(P, a, b, Q):
    for m in range(0, 9):
        source = avoiding_elements(C3, P + (a, b) + Q, m)
        target = set(avoiding_elements(C3, P + (b, a) + Q, m))
        images = [swap_parts_bijection(P, a, b, Q, s) for s in source]
        assert len(set(images)) == len(images)
        assert set(images) == target


def test_swap_bijection_examples():
    assert swap_parts_bijection((1,), 2, 3, (), (1, 3, 2)) == (1, 2, 3)
    # avoiders of P..Q are fixed
    assert swap_parts_bijection((1,), 2, 3, (2,), (3,)) == (3,)
    with pytest.raises(PreconditionError):
        swap_parts_bijection((1,), 2, 3, (), (1, 2, 3))


MERGE_CONTEXTS = [((), ()), ((3,), ()), ((1,), (2,))]


@pytest.mark.parametrize("P,Q", MERGE_CONTEXTS)
def test_merge_ones_bijection_is_bijection(P, Q):
    for m in range(0, 9):
        source = avoiding_elements(C3, P + (2,) + Q, m)
        target = set(avoiding_elements(C3, P + (1, 1) + Q, m))
        images = [merge_ones_bijection(P, Q, s) for s in source]
        assert len(set(images)) == len(images)
        assert set(images) == target


def test_merge_ones_example():
    assert merge_ones_bijection((), (), (1, 1, 1)) == (3,)


CONTEXTS_C4 = [
    ((3,), (-1, 2, -1), (2, 2), ()),
    ((2,), (2, 3), (3, 2), ()),
    ((), (-1, 3, -2), (-2, 3, -1), (2,)),
    ((3,), (2,), (2,), ()),
]


@pytest.mark.parametrize("P,A,B,Q", CONTEXTS_C4)
def test_context_bijection_is_bijection(P, A, B, Q):
    inner = matched_avoider_bijection(C4, A, B)
    for m in range(0, 9):
        source = avoiding_elements(C4, P + A + Q, m)
        target = set(avoiding_elements(C4, P + B + Q, m))
        images = [context_bijection(P, A, B, Q, w, inner) for w in source]
        assert len(set(images)) == len(images)
        assert set(images) == target


def test_context_bijection_fixes_context_avoiders():
    inner = matched_avoider_bijection(C4, (2,), (2,))
    assert context_bijection((3,), (2,), (2,), (), (-2,), inner) == (-2,)


def test_context_bijection_rejects_run_junctions():
    inner = matched_avoider_bijection(C4, (2,), (2,))
    with pytest.raises(PreconditionError):
        context_bijection((-1,), (2,), (2,), (), (3, 3), inner)
