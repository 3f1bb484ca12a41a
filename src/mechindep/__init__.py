"""mechindep: decide, certify, and explain mechanistic independence criteria
on Jacobians and derivative tensors, recover irreducible latent-factor
subspaces as graph components, and audit the premises of identifiability
results on desk-scale instances."""

from types import ModuleType as _ModuleType

from .basis import (
    BasisSearchResult,
    BlockSpec,
    GapResult,
    SubspaceVector,
    achievable,
    minimal_supports,
    pairwise_sparsity_gap,
    sparsest_basis,
    sparsity_gap,
)
from .certificates import Certificate, inputs_digest
from .core import (
    SupportMask,
    Tolerance,
    column_supports,
    face_split,
    l0_norm,
    rank,
    support,
)
from .criteria import (
    Assignment,
    check_l0_nonincrease,
    check_separability,
    check_support_union,
    check_type_d,
    check_type_d_irreducible,
    check_type_h,
    check_type_h_irreducible,
    check_type_m,
    check_type_m_irreducible,
    check_type_o,
    check_type_s,
    check_type_s_irreducible,
    check_type_s_pairwise,
    compositional_contrast,
    contrast_certificate,
    extract_assignment,
    hierarchy_audit,
)
from .errors import (
    DegenerateColumn,
    EvalError,
    GenerationError,
    InternalError,
    InvalidInput,
    MechIndepError,
    RankError,
    ShapeError,
    SizeError,
)
from .graphs import (
    FactorGraph,
    RowPartition,
    block_structure_audit,
    blocks_from_components,
    build_graph,
    components,
    finest_rank_additive_partition,
    to_dot,
)
from .synth import (
    MixingDraw,
    OverlapTemplate,
    fd_hessian,
    fd_jacobian,
    gen_overlap_jacobian,
    random_mixing,
)
from .topology import (
    GridRegion,
    SliceReport,
    SliceSpec,
    is_connected,
    premise_report,
    slices_connected,
)

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
