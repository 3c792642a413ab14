"""finsite: an exact workbench for finite sites, fibrations and sheaves."""

from .fincat import (
    Adjunction,
    FinCategory,
    FinFunctor,
    NatTransform,
    StructureError,
    arrow_category,
    build_category,
    check_adjunction,
    comma_category,
    connected_components,
    free_category,
    is_equivalence,
    poset_category,
    validate_category,
    validate_functor,
    validate_transform,
)
from .sieves import (
    CapExceeded,
    Topology,
    enumerate_topologies,
    generate_sieve,
    induced_image_topology,
    is_topology,
    saturate,
    topology_leq,
    trivial_topology,
)
from .fibration import (
    FibrationBundle,
    IndexedCategory,
    direct_image,
    giraud_topology,
    grothendieck,
    inverse_image_adjoint,
    is_cartesian_fibration,
    is_fibration,
    is_morphism_of_fibrations,
    q_reflects_cartesian,
    structure_functor,
    validate_indexed,
)
from .presheaf import (
    Presheaf,
    is_sheaf,
    plus,
    precompose,
    sheafify,
    validate_presheaf,
)
from .deciders import (
    Prop33Square,
    SiteFunctor,
    Verdict,
    check_prop33_conditions,
    is_comorphism,
    is_continuous,
    is_cover_preserving,
    is_covering_flat,
    is_dense_morphism,
    is_morphism_of_sites,
)

__version__ = "0.1.0"
