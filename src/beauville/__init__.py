"""Beauville structures on finite quasisimple groups, at desk scale.

Subpackages: numtheory (Zsigmondy machinery), ffield (GF(p^a)), matgrp
(classical groups and explicit triples), permgrp (BSGS certificates),
covers (double covers of Alt(n)), structures (the Beauville predicates),
identities (randomized coefficient suites), catalog (table replay), cli.
"""

from .numtheory import (
    Classification,
    Factorization,
    ZsigmondyResult,
    cyclotomic_value,
    factorize,
    gcd_qpow,
    is_large_exception,
    is_prime,
    lambda_value,
    order_mod,
    zsigmondy,
)
from .ffield import (
    FieldCtx,
    FieldElement,
    frobenius,
    get_field,
    get_field_of_order,
    multiplicative_generator,
    solve_norm,
    trace_zero_sample,
)
from .matgrp import (
    FormSpec,
    GroupSpec,
    SquareMatrix,
    charpoly,
    classical_order,
    lineardim3_triple,
    omega_minus_char2_generators,
    order_of_matrix,
    singer_order,
    sp42_triple,
    spin_submodule_search,
    standard_generators,
    suzuki_generators,
    u3_triple,
    u41_triple,
)
from .permgrp import (
    BSGS,
    Permutation,
    RandomSource,
    alt_triple,
    class_orbit,
    matrix_to_perm,
    mulclose,
    schreier_sims,
)
from .covers import (
    Cover,
    CoverElement,
    build_cover,
    cover_order,
    neven_search,
    nodd_triple,
    order3_xsimz_suite,
)
from .structures import (
    BeauvilleStructure,
    ClassChecked,
    CoprimeOrders,
    Exhausted,
    GowResult,
    GroupHandle,
    HyperbolicTriple,
    NotGenerating,
    NotHyperbolic,
    Undecided,
    Violation,
    condition_iii,
    element_of_order,
    gow_search,
    search_by_type,
    structure_constant,
    verify_triple,
)
from .words import ParseError, WordExpr, evaluate_word, parse_word
from .catalog import (
    CatalogEntry,
    CatalogOptions,
    Report,
    load_catalog_file,
    parse_catalog,
    run_catalog,
    shipped_catalog_path,
)
from .identities import run_identity_suite

__version__ = "0.1.0"
