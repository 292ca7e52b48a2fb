"""Latin unitrades and bitrades in the ternary Hamming graph H(n,3).

Predicates and structure (trade), the boolean-function bijection and the
GF(2)/GF(3) bases (funcspace), monomial rank and triple classification
(monomial), the isometry group action (symmetry), explicit constructions
and ternary codes (construct), testing sets (testsets), exhaustive
enumeration with spectra and class counts (enumeration), and shipped
reference tables for the cluster-scale dimensions (refdata).
"""

__version__ = "0.1.0"

from .cube import Isometry, below
from .funcspace import (
    BoolFn,
    TernFn,
    bool_from_unitrade,
    degree,
    gf2_basis_fn,
    gf3_basis_fn,
    inner3,
    mobius,
    u_from_bool,
)
from .trade import (
    BipartiteTrade,
    TradeSet,
    bipartition,
    connectivity_and_structure,
    half_cardinality_stats,
    is_unitrade,
    mod3_admissible,
    small_bitrade_admissible,
    unitrade_alpha_admissible,
    xor_of_two_bitrades,
)
from .monomial import (
    MonomialSet,
    cardinality_formula,
    f_from_monomials,
    monomial_cube,
    r_of,
    rank,
    sign_consistency,
    triple_cardinality,
    triple_is_bitrade,
    triple_profile,
)
from .symmetry import (
    ClassRecord,
    aut_order,
    canonical_form,
)
from .construct import (
    TernaryCode,
    bitrade14,
    hamming_dual,
    hprime,
    k_extension,
    maximal_bitrade,
    minimal_bitrade,
    pot12,
    product,
    rank2_family,
    recover_monomials,
    rm_embed,
    verify_odd_distance_bound,
)
from .testsets import TestSet, extract_testset, family_bound, product_testset
from .enumeration import (
    SpectrumTable,
    classify_all,
    count_by_retract_classes,
    count_functions,
    enumerate_functions,
    spectrum,
)
