"""
Acceptance suite: each test exercises one numbered acceptance criterion at
its stated tolerance and prints a PASS/FAIL line.

Criterion 6 is decided in exact arithmetic and records a refutation: the
claimed vanishing of the involvement generating function at the run-count
root of its largest run letter holds for the diagnostic product form, not
for the exact generating functions that the brute-force agreement of
criterion 3 forces.  The pattern a2 is the hand-checkable counterexample:
its exact involvement GF is t^2(1+2t)/(1-2t), and 1 + 2t does not vanish at
r_2 = (-3+sqrt(5))/2.
"""
import math

from wilfcollapse.canonical import canonical_class_count
from wilfcollapse.encodings import (
    ClassId,
    avoiding_elements,
    generate,
    to_permutation,
)
from wilfcollapse.engine import (
    canonical_groups,
    gf_crosscheck,
    wilf_classes,
)
from wilfcollapse.canonical import (
    context_bijection,
    matched_avoider_bijection,
    merge_ones_bijection,
    swap_parts_bijection,
    wedge_bijection,
)
from wilfcollapse.genfun import (
    classify_pole,
    involve_gf_product_form,
    involve_gf_sum_word,
    lis_count_poly,
    lis_root,
    product_form_vanishes_at,
    reduced_lis_poly,
    special_pair_gfs,
)
from wilfcollapse.series import Poly, RationalGF, poly_gcd

C1, C2, C3, C4 = ClassId


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")


def test_criterion_1_class_cardinalities():
    ok = True
    for n in range(1, 16):
        ok &= len(generate(C1, n)) == n * (n - 1) // 2 + 1
        for cid in (C2, C3, C4):
            ok &= len(generate(cid, n)) == 2 ** (n - 1)
    report(1, "class cardinalities to n=15", ok)
    assert ok


def test_criterion_2_wilf_groups_coincide_with_canonical_groups():
    failures = []
    for cid in ClassId:
        for n in range(1, 9):
            result = wilf_classes(cid, n, 16)
            brute = {frozenset(g.members) for g in result}
            canon = {frozenset(g) for g in canonical_groups(cid, n)}
            if brute != canon:
                failures.append((cid.value, n, "groups differ"))
                continue
            expected = canonical_class_count(cid, n)
            if len(result) != expected:
                failures.append((cid.value, n, f"w={len(result)} != {expected}"))
    report(2, "Wilf groups = canonical groups, n<=8, depth 16", not failures,
           "; ".join(map(str, failures)))
    assert not failures


def test_criterion_3_gf_agrees_with_brute_force():
    checked = 0
    for cid in (C3, C4):
        for n in range(1, 8):
            checked += gf_crosscheck(cid, n, 16)
    report(3, "GF expansions = brute force, sizes<=7, order 16", True,
           f"{checked} patterns")
    assert checked == 2 * (2**7 - 1)


def test_criterion_4_special_identity():
    ok = all(special_pair_gfs(k)[0] == special_pair_gfs(k)[1] for k in range(2, 9))
    report(4, "two-drop vs flanked-drop GF identity, k<=8", ok)
    assert ok


def test_criterion_5_roots():
    r1 = lis_root(1)
    r2 = lis_root(2)
    closed_form = (-3 + math.sqrt(5)) / 2
    ok = r1 == -1.0 and abs(r2 - closed_form) < 1e-9
    values = [lis_root(n) for n in range(2, 21)]
    ok &= all(a < b for a, b in zip(values, values[1:]))
    ok &= all(-0.5 < v < 0 for v in values)
    report(5, "separating roots: r1, r2 closed form, monotone to n=20", ok)
    assert ok


def test_criterion_6_root_vanishing_as_stated():
    # The stated claim: for every c4 word of size 2..6 with a run letter of
    # index >= 2, the involvement GF vanishes at the roots of the reduced
    # run-count polynomial P_n of its largest run letter n, and at none of
    # those of P_{n+1..n+3}.  Decided exactly: a GF stored in reduced form
    # vanishes at a root of P_n iff its numerator shares a factor with P_n.
    # The claim holds for the product form and fails for every exact GF.
    words = [
        w
        for m in range(2, 7)
        for w in generate(C4, m)
        if any(v <= -2 for v in w)
    ]
    # a2 = 12: only the empty word, 1 and 21 avoid it, so its involvement GF
    # is 1 + t/(1-2t) - (1 + t + t^2) = t^2(1+2t)/(1-2t), nonzero at r_2.
    a2_ok = involve_gf_sum_word((-2,)) == RationalGF(Poly.of(0, 0, 1, 2), Poly.of(1, -2))
    exact_vanishes = []
    product_fails = []
    product_equals_exact = []
    for w in words:
        n = max(-v for v in w if v < 0)
        exact = involve_gf_sum_word(w)
        if poly_gcd(exact.num, reduced_lis_poly(n)).degree > 0:
            exact_vanishes.append(w)
        if not product_form_vanishes_at(w, n) or any(
            product_form_vanishes_at(w, m) for m in range(n + 1, n + 4)
        ):
            product_fails.append(w)
        if involve_gf_product_form(w).expand(16).coeffs == exact.expand(16).coeffs:
            product_equals_exact.append(w)
    ok = a2_ok and not (exact_vanishes or product_fails or product_equals_exact)
    report(
        6,
        "zero of involvement GF at run-count roots, decided exactly",
        ok,
        f"refuted for the exact form, a2 by hand: {a2_ok}; of {len(words)} "
        f"words: exact numerator shares a factor with P_n: "
        f"{len(exact_vanishes)}, product form off P_n or on P_(n+1..n+3): "
        f"{len(product_fails)}, product form = exact to order 16: "
        f"{len(product_equals_exact)}",
    )
    assert len(words) == 27
    assert a2_ok, "a2 involvement GF differs from the hand derivation"
    assert not exact_vanishes, (
        f"exact involvement GFs sharing a factor with P_n: {exact_vanishes}"
    )
    assert not product_fails, (
        f"product form loses P_n or gains P_(n+1..n+3): {product_fails}"
    )
    assert not product_equals_exact, (
        f"product form expansion equals the exact one: {product_equals_exact}"
    )


def _is_bijection(source, target, mapping) -> bool:
    images = [mapping(s) for s in source]
    return len(set(images)) == len(images) and set(images) == set(target)


def test_criterion_7_bijections_exhaustive():
    ok = True
    # recursive wedge bijection, both head arrangements and the mirrored ones
    for pi, tau in [("LL", "LR"), ("LR", "RL"), ("RR", "LL"), ("LRL", "RRL")]:
        for m in range(0, 11):
            ok &= _is_bijection(
                avoiding_elements(C2, pi, m),
                avoiding_elements(C2, tau, m),
                lambda s: wedge_bijection(pi, tau, s),
            )
    # layer swap
    for P, a, b, Q in [((1,), 2, 3, ()), ((), 1, 3, (2,)), ((2,), 2, 4, (1,))]:
        for m in range(0, 11):
            ok &= _is_bijection(
                avoiding_elements(C3, P + (a, b) + Q, m),
                avoiding_elements(C3, P + (b, a) + Q, m),
                lambda s: swap_parts_bijection(P, a, b, Q, s),
            )
    # ones merge
    for P, Q in [((), ()), ((3,), ()), ((1,), (2,))]:
        for m in range(0, 11):
            ok &= _is_bijection(
                avoiding_elements(C3, P + (2,) + Q, m),
                avoiding_elements(C3, P + (1, 1) + Q, m),
                lambda s: merge_ones_bijection(P, Q, s),
            )
    # contextual lift
    for P, A, B, Q in [
        ((3,), (-1, 2, -1), (2, 2), ()),
        ((2,), (2, 3), (3, 2), ()),
        ((), (-1, 3, -2), (-2, 3, -1), (2,)),
    ]:
        inner = matched_avoider_bijection(C4, A, B)
        for m in range(0, 11):
            ok &= _is_bijection(
                avoiding_elements(C4, P + A + Q, m),
                avoiding_elements(C4, P + B + Q, m),
                lambda w: context_bijection(P, A, B, Q, w, inner),
            )
    report(7, "soundness bijections exhaustive to size 10", ok)
    assert ok


def test_criterion_8_run_count_polynomial_oracle():
    def lis_length(perm):
        if not perm:
            return 0
        best = [1] * len(perm)
        for i, v in enumerate(perm):
            for j in range(i):
                if perm[j] < v:
                    best[i] = max(best[i], best[j] + 1)
        return max(best)

    counts = {}
    for m in range(0, 13):
        for w in generate(C4, m):
            length = lis_length(to_permutation(C4, w))
            counts[(length, m)] = counts.get((length, m), 0) + 1
    ok = lis_count_poly(2) == Poly.of(0, 0, 1, 3, 1)
    for n in range(0, 7):
        poly = lis_count_poly(n)
        for m in range(0, 13):
            ok &= poly.coefficient(m) == counts.get((n, m), 0)
    report(8, "run-count polynomial coefficients vs brute force", ok)
    assert ok


def test_criterion_9_pole_classification():
    def partitions(n, max_part):
        if n == 0:
            yield ()
            return
        for first in range(min(n, max_part), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    ok = True
    cases = 0
    for size in range(1, 9):
        for part in partitions(size, 5):
            top = part[0]
            for a in range(max(3, top), 7):
                cases += 1
                expected = "finite" if top < a else "infinite"
                ok &= classify_pole(part, a) == expected
    report(9, "pole behaviour at layered roots", ok, f"{cases} cases")
    assert ok
