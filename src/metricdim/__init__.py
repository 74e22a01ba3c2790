"""Exact metric dimension and connected metric dimension computations.

The library computes, by exhaustive search with sound lower bounds, the
metric dimension of a graph, its connected variant, the connected variant
anchored at a vertex or vertex set, per-vertex profiles (resolving radius,
diameter, center, periphery), all minimum resolving sets, and a desk-scale
K5/K3,3 minor oracle.  Closed-form evaluators for the standard families
(trees, the Petersen graph, wheels, bouquets of cycles, complete multipartite
graphs, grids) are cross-checkable against the solvers, and deterministic
generators build every family, including the layered graphs resolved by a
single adjacent vertex pair.
"""

from .errors import (
    EmptySet,
    GenerationFailed,
    HeaderMismatch,
    InvalidAnchor,
    InvalidEdge,
    InvalidOption,
    InvalidSpec,
    IsAPath,
    MetricDimError,
    NotATree,
    NotConnected,
    NotUnicyclic,
    ParseError,
    RuleViolation,
    TooLarge,
    TooMany,
    TooSmall,
    Unsupported,
)
from .families import FamilySpec, FrLevel, generate, parse_spec
from .formulas import (
    ExtremesClassification,
    FormulaResult,
    FrMembership,
    TreeSkeleton,
    UnicyclicClassification,
    cdim_at_vertex_formula,
    cdim_formula,
    classify_extremes,
    dim_formula,
    fr_membership,
    recognize,
    tree_min_resolving_sets,
    tree_skeleton,
    unicyclic_cdim_eq_dim,
)
from .graph import (
    DistanceMatrix,
    Graph,
    TwinPartition,
    all_pairs_distances,
    build_graph,
    cut_vertices,
    twin_partition,
)
from .minor import has_minor, is_planar_desk, verify_minor_witness
from .solver import (
    ResolvingCertificate,
    SolveResult,
    VertexProfile,
    cdim_at_set,
    cdim_exact,
    check_resolving,
    dim_exact,
    dim_floor_from_diameter,
    enumerate_min_resolving_sets,
    vertex_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "DistanceMatrix",
    "TwinPartition",
    "build_graph",
    "all_pairs_distances",
    "cut_vertices",
    "twin_partition",
    "ResolvingCertificate",
    "SolveResult",
    "VertexProfile",
    "check_resolving",
    "dim_exact",
    "cdim_exact",
    "cdim_at_set",
    "vertex_profile",
    "enumerate_min_resolving_sets",
    "dim_floor_from_diameter",
    "has_minor",
    "is_planar_desk",
    "verify_minor_witness",
    "FamilySpec",
    "FrLevel",
    "generate",
    "parse_spec",
    "FormulaResult",
    "TreeSkeleton",
    "tree_skeleton",
    "dim_formula",
    "cdim_formula",
    "cdim_at_vertex_formula",
    "classify_extremes",
    "ExtremesClassification",
    "fr_membership",
    "FrMembership",
    "unicyclic_cdim_eq_dim",
    "UnicyclicClassification",
    "tree_min_resolving_sets",
    "recognize",
    "MetricDimError",
    "InvalidEdge",
    "TooSmall",
    "TooLarge",
    "NotConnected",
    "EmptySet",
    "InvalidAnchor",
    "InvalidOption",
    "InvalidSpec",
    "RuleViolation",
    "GenerationFailed",
    "NotATree",
    "NotUnicyclic",
    "IsAPath",
    "TooMany",
    "Unsupported",
    "ParseError",
    "HeaderMismatch",
]
