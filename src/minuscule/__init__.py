"""Exact-arithmetic toolkit for minuscule posets.

Builds the weight lattice of a minuscule representation from simply
laced Cartan data, realizes it as the lattice of order ideals of a
labeled heap, and certifies the toggle, rowmotion, and down-degree
expectation identities that hold on it, all in exact integer and
rational arithmetic.
"""

from .cartan import (
    CartanDatum,
    Weight,
    build_cartan,
    fundamental_weight,
    inner_product,
    is_dominant,
    is_integral,
    simple_reflection,
)
from .cde import (
    Distribution,
    HomomesyReport,
    LpCertificate,
    ToggleSymmetryReport,
    chain_counts,
    chain_distribution,
    expectation,
    homomesy_report,
    lp_certificate,
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
    random_linear_extension,
    word_of_extension,
)
from .ideals import (
    CommutationReport,
    IdealLattice,
    action_orbits,
    enumerate_ideals,
    gyration,
    rowmotion,
    toggle,
    toggle_label,
    verify_commutation,
)
from .orbit import (
    MinusculeReport,
    OrbitPoset,
    build_minuscule_heap,
    generate_orbit,
    saturated_chain,
    verify_minuscule,
)
from .stats import identity_suite, tcde_constant

__version__ = "0.1.0"
