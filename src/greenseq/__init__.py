"""Exact quiver mutation and maximal green sequences for type-A quivers."""

from .quiver import (
    ExtendedQuiver,
    Permutation,
    Quiver,
    QuiverError,
    QuiverParseError,
    SignCoherenceError,
    apply_sequence,
    frame,
    format_extended,
    green_vertices,
    matrix_mutate,
    mutate,
    parse_quiver,
    serialize_quiver,
    subquiver,
    vertex_color,
)
from .green import (
    DepthGuardExceeded,
    ExchangeGraphSlice,
    GreenTrace,
    NodeBoundExceeded,
    NotAcyclicError,
    NotMaximalGreenError,
    acyclic_mgs,
    enumerate_mgs,
    first_mgs,
    exchange_graph,
    exchange_graph_dot,
    matrix_hash,
    verify_green,
)
from .directsum import (
    Decomposition,
    DirectSumError,
    SummandNotGreenError,
    color_count,
    concat_mgs,
    decompose,
    decomposition_report,
    direct_sum,
)
from .typea import (
    CycleTree,
    NoCyclesError,
    NotIrreducibleError,
    NotTypeAError,
    TypeAReport,
    cycle_tree,
    is_type_a,
    leaf_cycles,
    oriented_triangles,
    type_a_report_text,
)
from .embedding import (
    Branch,
    EmbeddedCycle,
    EmbeddedQuiver,
    EmbeddingError,
    StageParts,
    base_cycle,
    branches,
    closing_vertex,
    descent_path,
    embed,
    embedding_report,
    hanging_chain,
    northeast_region,
    stage_parts,
    validate_embedding,
)
from .assocseq import PipelineResult, associated_sequence, mgs_for_type_a
from .permmodel import PermIdentityReport, check_permutation_identities
from .matrixmodel import ModelReport, verify_model

__version__ = "0.1.0"
