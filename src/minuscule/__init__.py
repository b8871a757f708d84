"""Exact-arithmetic toolkit for minuscule posets.

Builds the weight lattice of a minuscule representation from simply
laced Cartan data, realizes it as the lattice of order ideals of a
labeled heap, and certifies the toggle, rowmotion, and down-degree
expectation identities that hold on it, all over exact rationals.
"""

from .cartan import (
    CartanDatum,
    Weight,
    build_cartan,
    coroot_pairing,
    fundamental_weight,
    inner_product,
    is_dominant,
    is_integral,
    minuscule_catalog,
    simple_reflection,
    simple_root,
)
from .cde import (
    Distribution,
    HomomesyReport,
    LpCertificate,
    ToggleSymmetryReport,
    chain_distribution,
    expectation,
    homomesy_report,
    lp_certificate,
    make_distribution,
    maxchain_distribution,
    orbit_distribution,
    toggle_symmetry_report,
    uniform_distribution,
)
from .errors import (
    ConfigurationError,
    DomainError,
    InternalCheckError,
    ResourceLimitError,
)
from .heap import (
    Heap,
    heap_from_word,
    heaps_isomorphic,
    label_fiber,
    random_linear_extension,
    word_of_extension,
)
from .ideals import (
    CommutationReport,
    IdealLattice,
    action_orbits,
    enumerate_ideals,
    gyration,
    ideal_weight,
    is_ideal,
    rowmotion,
    rowmotion_by_toggles,
    toggle,
    toggle_label,
    verify_commutation,
)
from .orbit import (
    MinusculeReport,
    OrbitPoset,
    build_minuscule_heap,
    generate_orbit,
    join_irreducible_indices,
    saturated_chain,
    verify_minuscule,
)
from .stats import (
    CheckResult,
    ToggleSnapshot,
    check_ddeg_decomposition,
    check_fiber_statistic,
    check_label_count_formula,
    check_signed_toggle_sum,
    check_weighted_toggle_sum,
    down_degree,
    fiber_statistic,
    identity_suite,
    label_count,
    snapshot,
    tcde_constant,
    up_degree,
)

__version__ = "0.1.0"
