"""Exact computations with preprojective algebras of type A-tilde_n:
finite automorphism groups, smash products, the Auslander-map decision
procedure via pertinency, and invariant rings."""

__version__ = "0.1.0"

from .preproj import (
    AlgebraElement,
    HilbertReport,
    NFMonomial,
    RelationIdealOracle,
    hilbert,
    nf_basis,
    normal_form,
)
from .quiver import ArrowRef, QuiverA, Word
from .scalars import (
    CyclotomicContext,
    ScalarValue,
    get_context,
    make_root_of_unity,
    multiplicative_order,
)
from .smash import (
    AuslanderReport,
    IdealTruncation,
    SmashElement,
    auslander_verdict,
    build_ideal,
    eval_auslander_map,
    growth_classify,
    identity_component_dims,
)
from .symmetry import (
    Automorphism,
    FiniteGroup,
    classify_auslander,
    dihedral_group,
    enumerate_subgroups,
    generate_group,
    identity_automorphism,
    reflection,
    rotation,
    scalar_powers,
    validate,
    vertex_fixing_reflections,
    w_subgroup,
)
from .invariants import (
    InvariantBasis,
    check_orbit_sum_relations,
    invariant_basis,
    orbit_of,
    orbit_sum,
    reynolds,
    s_elements,
    verify_free_module,
    verify_presentation_dihedral,
    verify_presentation_two_vertex,
    verify_shift_summand,
)
