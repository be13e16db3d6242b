"""Matchstick graphs: planar graphs drawn with non-crossing unit segments.

The library verifies the matchstick property, refines near-unit drawings to
machine accuracy, analyzes first-order rigidity, builds larger 4-regular
graphs by gluing parts at degree-2 vertices, and certifies that every vertex
count from 63 upward is reachable.  A drawn corpus of reference graphs is
bundled; the ``matchsticks`` command line exposes the same workflows.
"""

from .construct import (
    ChainSpec,
    CompositionPlan,
    ConstructError,
    PartSpec,
    PlanError,
    RealizationFailedError,
    VertexOnAxisError,
    WrongDegreeError,
    chain_extend,
    chain_plan,
    degree2_vertices,
    mirror_double,
    plan_from_json,
    plan_from_json_dict,
    plan_to_json_dict,
    predicted_vertex_count,
    realize,
    ring_plan,
)
from .corpus import CORPUS_ENV, CorpusError, corpus_names, load_graph, refined_graph
from .counting import (
    BELOW_63_GRAPHS,
    DEFAULT_COVERAGE,
    PART_INVENTORY,
    ArithmeticFamily,
    CoverageCertificate,
    CoverageSources,
    CoverageTable,
    Inventory,
    below_63_catalog,
    combinations_table,
    theorem1_coverage,
)
from .ingest import (
    AmbiguousMergeError,
    DegenerateSegmentError,
    MergePolicy,
    SegmentFile,
    SegmentFileError,
    build_graph,
    emit_segments,
    estimate_unit,
    graph_from_text,
    parse_segment_file,
)
from .model import (
    DegreeProfile,
    EmbeddedGraph,
    IdentityCheck,
    ModelError,
    Point2,
    ProfileNotApplicableError,
    degree_profile,
    edge_count_identity,
    edge_length,
    edge_lengths,
    normalize,
)
from .pipeline import Certificate, certify
from .refine import (
    RefineOptions,
    RefineResult,
    ZeroLengthEdgeError,
    default_pins,
    refine,
    residual_jacobian,
    residuals,
)
from .rigidity import (
    DisconnectedGraphError,
    RigidityReport,
    analyze_rigidity,
    is_connected,
    rigidity_matrix,
)
from .verify import (
    Tolerances,
    VerificationReport,
    min_clearances,
    segment_pair_distance,
    segment_pair_intersects,
    segments_conflict,
    verify_matchstick,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
