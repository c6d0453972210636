"""Computing with finite integer sets of small doubling.

Sumsets from pair sums, doubling and out-of-hull extensions from the
kernel's bitmasks, additive dimension by exact rank of the pair-sum
relation space, stable decompositions, the growth operators that trade
cardinality for doubling, chain recognition and enumeration, and
exhaustive search oracles for the maximum-volume conjecture at desk scale.
"""

from .chains import (
    ChainCertificate,
    EnumeratedChain,
    TheoremReport,
    canonical_form,
    enumerate_chains,
    is_chain,
    is_chain_extension,
    is_chain_member,
    verify_main_theorem,
    volume_1d,
)
from .dimension import (
    RelationBasis,
    additive_dim,
    extension_candidates,
    f_isomorphic,
    f_isomorphism,
    relation_rank,
)
from .doubling import DoublingProfile, doubling_from_profile, mu, profile, t_range
from .errors import (
    CapacityError,
    DecompositionNotUnique,
    FactorizationFailed,
    NotDecomposable,
)
from .growth import (
    Factorization,
    GrowthStep,
    GrowthVariant,
    adjoin_double_max,
    apply_step,
    dilate_adjoin_odd,
    factorize,
    invert_step,
    odd_adjoin_candidates,
    replay,
)
# must come after the submodule imports above: the doubling() function
# deliberately shadows the sumsetchains.doubling module attribute
from .intset import (
    IntSet,
    concat,
    difference_set,
    doubling,
    holes,
    is_normal,
    is_progression,
    normalize,
    reflexion,
    sumset,
)
from .kernel import BACKEND as KERNEL_BACKEND
from .search import (
    DEFAULT_BUDGET,
    ExtensionCheck,
    ExtensionSweepReport,
    LemmaOutcome,
    SearchReport,
    UniquenessReport,
    attainment_construction,
    check_extension_lemmas,
    check_uniqueness_lemmas,
    enumerate_normal_sets,
    estimated_candidates,
    extension_lemma_sweep,
    is_1_extremal,
    verify_conjecture,
    vol1_oracle,
)
from .stability import (
    DensityCheck,
    StableDecomposition,
    density_bound_check,
    doubled_decomposition_length,
    is_right_stable,
    is_stable,
    stable_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ChainCertificate",
    "DEFAULT_BUDGET",
    "DecompositionNotUnique",
    "DensityCheck",
    "DoublingProfile",
    "EnumeratedChain",
    "ExtensionCheck",
    "ExtensionSweepReport",
    "Factorization",
    "FactorizationFailed",
    "GrowthStep",
    "GrowthVariant",
    "IntSet",
    "KERNEL_BACKEND",
    "LemmaOutcome",
    "NotDecomposable",
    "RelationBasis",
    "SearchReport",
    "StableDecomposition",
    "TheoremReport",
    "UniquenessReport",
    "additive_dim",
    "adjoin_double_max",
    "apply_step",
    "attainment_construction",
    "canonical_form",
    "check_extension_lemmas",
    "check_uniqueness_lemmas",
    "concat",
    "density_bound_check",
    "difference_set",
    "dilate_adjoin_odd",
    "doubled_decomposition_length",
    "doubling",
    "doubling_from_profile",
    "enumerate_chains",
    "enumerate_normal_sets",
    "estimated_candidates",
    "extension_candidates",
    "extension_lemma_sweep",
    "f_isomorphic",
    "f_isomorphism",
    "factorize",
    "holes",
    "invert_step",
    "is_1_extremal",
    "is_chain",
    "is_chain_extension",
    "is_chain_member",
    "is_normal",
    "is_progression",
    "is_right_stable",
    "is_stable",
    "mu",
    "normalize",
    "odd_adjoin_candidates",
    "profile",
    "reflexion",
    "relation_rank",
    "replay",
    "stable_decompose",
    "sumset",
    "t_range",
    "verify_conjecture",
    "verify_main_theorem",
    "vol1_oracle",
    "volume_1d",
]
