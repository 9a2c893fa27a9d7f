"""Ratio-cost analysis of similarity graphs under hierarchical clustering.

Core objects: `SimilarityGraph` and `HcTree`, the cost functions relating
them, exact detection of graphs that cluster perfectly, a constraint-based
approximation for near-perfect graphs, an exact small-n oracle, and
random-graph experiments.  Stage internals stay in `hcratio.detect` and
`hcratio.approx`.
"""

from .approx import approx_tree
from .brute import Optimum, enumerate_trees, optimal_ratio_bruteforce
from .cost import (
    CostReport,
    cost_report,
    dasgupta_cost,
    find_inconsistent_triplet,
    is_consistent,
    ratio_cost,
    total_cost,
    triplet_cost,
)
from .detect import DetectionResult, build_bisection
from .errors import (
    DuplicateEdge,
    HcratioError,
    InvalidDelta,
    InvalidParam,
    InvalidTriplet,
    InvalidVertex,
    InvalidWeight,
    LeafMismatch,
    NotZeroBase,
    ParseError,
    SelfLoop,
    TooLarge,
)
from .graph import (
    SimilarityGraph,
    TripletType,
    base_cost,
    load_edge_list,
    load_graph,
    load_matrix,
    min_triplet_cost,
    triplet_type,
)
from .randgraph import (
    ErModel,
    ExperimentReport,
    PlantedModel,
    ProbabilityMatrix,
    expectation_tree_total_cost,
    expected_base_cost,
    gen_er,
    gen_planted,
    predicted_rho,
    run_experiment,
)
from .tree import (
    HcTree,
    TripletRelation,
    binarize,
    parse_newick,
    serialize_newick,
)

__version__ = "0.1.0"

__all__ = [
    "SimilarityGraph", "TripletType", "base_cost", "load_edge_list",
    "load_graph", "load_matrix", "min_triplet_cost", "triplet_type",
    "HcTree", "TripletRelation", "binarize", "parse_newick", "serialize_newick",
    "CostReport", "cost_report", "dasgupta_cost", "find_inconsistent_triplet",
    "is_consistent", "ratio_cost", "total_cost", "triplet_cost",
    "DetectionResult", "build_bisection", "approx_tree",
    "Optimum", "enumerate_trees", "optimal_ratio_bruteforce",
    "ProbabilityMatrix", "ErModel", "PlantedModel", "ExperimentReport",
    "gen_er", "gen_planted", "expected_base_cost", "expectation_tree_total_cost",
    "predicted_rho", "run_experiment",
    "HcratioError", "ParseError", "DuplicateEdge", "InvalidWeight", "SelfLoop",
    "InvalidTriplet", "InvalidVertex", "LeafMismatch", "NotZeroBase",
    "InvalidDelta", "TooLarge", "InvalidParam",
]
