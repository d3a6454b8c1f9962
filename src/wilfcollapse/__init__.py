"""
Exact enumeration and Wilf-class verification for the four permutation
classes with basis {312, x} for a second size-3 pattern x.

The public surface re-exports the permutation core, the class encodings,
the canonical equivalences, the generating-function engine, and the
counting and verification engine.
"""

from .canonical import (
    PartitionPair,
    canonical_class_count,
    canonical_key,
    canonical_pair,
    canonical_partition,
    context_bijection,
    greedy_factorize,
    matched_avoider_bijection,
    merge_ones_bijection,
    partitions_without_two,
    rewrite_closure,
    swap_parts_bijection,
    valid_pairs,
    wedge_bijection,
)
from .encodings import (
    ClassElement,
    ClassId,
    Composition,
    SumWord,
    Triple,
    WedgeWord,
    avoiding_elements,
    class_leq,
    format_element,
    from_permutation,
    generate,
    parse_element,
    size_of,
    to_permutation,
)
from .engine import (
    collapse_rows,
    count_avoiders,
    gf_crosscheck,
    verify_completeness,
    verify_soundness,
    wilf_classes,
)
from .genfun import (
    avoid_gf,
    avoid_gf_layered,
    avoid_gf_sum_word,
    chebyshev_identity_holds,
    class_gf,
    classify_pole,
    involve_gf_product_form,
    involve_gf_sum_word,
    layered_root,
    lis_count_poly,
    lis_root,
    product_form_vanishes_at,
    reduced_lis_poly,
    special_pair_gfs,
)
from .perms import (
    Perm,
    apply_symmetry,
    direct_sum,
    format_perm,
    involves,
    parse_perm,
    skew_sum,
    sum_decompose,
)
from .series import Poly, RationalGF, TruncSeries

__all__ = [name for name in dir() if not name.startswith("_")]
