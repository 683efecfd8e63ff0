"""Finite partial Boolean algebras and matrix fragments: validation,
generated subalgebras, the Boolean subalgebra poset, colimits and tensor
products, Stone-style reflection with Kochen-Specker detection, the
projection bridge from matrix seeds, and Bohrification frames."""

from .errors import (
    AmalgamError,
    AmbiguousSpectrumError,
    CoconeError,
    DomainError,
    FormatError,
    InvalidAlgebraError,
    PbalgError,
    SearchCutoffError,
    StructuralError,
    UndefinedOperationError,
)
from .core import (
    BlockHypergraph,
    OmlSpec,
    PartialBooleanAlgebra,
    PbaMorphism,
    ValidationReport,
    block_hypergraph,
    boolean_algebra,
    check_morphism,
    compose,
    enumerate_morphisms,
    find_isomorphism,
    from_orthomodular,
    generated_subalgebra,
    identity_morphism,
    image_factorization,
    inclusion_morphism,
    is_isomorphic,
    join_all,
    make_pba,
    maximal_cliques,
    mo_lattice,
    paste_blocks,
    sub_algebra,
    trivial_algebra,
    validate,
)
from .poset import (
    SubalgebraPoset,
    boolean_subalgebras,
    downset_matches_partition_lattice,
    structure_report,
)
from .colimit import (
    Cocone,
    boolean_coproduct,
    cocone_from_morphism,
    cocones_into,
    coproduct,
    equalizer,
    inclusion_cocone,
    mediating_morphism,
    product,
    tensor_factorization,
    tensor_product,
    verify_colimit,
)
from .stone import (
    Reflection,
    StoneSpace,
    boolean_reflection,
    coproduct_stays_kochen_specker,
    is_kochen_specker,
    limit_action,
    stone_limit,
    stone_spectrum,
    two_valued_morphisms,
)
from .bohr import (
    BohrFrame,
    FrameMap,
    FrameMorphismReport,
    frame_nontrivial_without_states,
    reflects_commeasurability,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
