"""Boxes-with-representative-points graph models, exactly.

Vertices get a closed axis-parallel box plus a representative point inside
it; two vertices are adjacent iff each box contains the other's point.
This package covers the one-dimensional model and its central variant
(points at box centers): exact rational realizations, induced-graph
evaluation and verification, the four-point ordering characterization with
backtracking recognition, a Fourier-Motzkin feasibility kernel for central
recognition, constructions for interval graphs, cycles, block trees, and
outerplanar graphs, the corner-box and semi-square encodings, text
file formats, and a CLI (`andbox`).
"""

from .boxes import (
    corner_box_intersection_graph,
    semisquare_intersection_graph,
)
from .constructors import (
    assemble_block_tree,
    blockwise_cand1,
    clique_cand1,
    cycle_cand1,
    glue_at_safe_vertex,
    h_graph_ordering,
    interval_to_cand1,
    outer_ring,
    outerplanar_cand1,
    rdp_ordering,
    umbrella_free_cand1,
)
from .families import (
    GraphBundle,
    HGraphSpec,
    IntervalModel,
    OuterplanarModel,
    RootedPathModel,
    complete_multipartite,
    cycle,
    family_names,
    generate,
    h_graph,
    path,
    random_block_graph,
    random_dissection,
    random_interval,
    random_rooted_path,
)
from .feasibility import (
    cand1_for_ordering,
    cand1_recognize,
)
from .graphs import (
    BlockDecomposition,
    Graph,
    GraphError,
    block_decomposition,
    complete_graph,
    cycle_graph,
    has_double_nonadjacent_common_neighbors,
    path_graph,
)
from .orders import (
    OrderingError,
    RecognitionResult,
    Violation,
    and1_recognize,
    cycle_label_analysis,
    four_point_check,
    implicit_adjacent,
    implicit_encode,
    rank_bounds,
    realization_from_ordering,
)
from .realization import (
    Realization,
    RealizationError,
    TiedPointsError,
    VerifyReport,
    adjacency_pairs,
    induced_graph,
    is_central,
    is_safe,
    make_points_distinct,
    r_order,
    relabel,
    verify,
)

__version__ = "0.1.0"
