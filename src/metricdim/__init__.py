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

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  Submodules load on first use,
# so importing the package (or only the command line) stays cheap.
_EXPORTS = {
    "Graph": "graph",
    "DistanceMatrix": "graph",
    "TwinPartition": "graph",
    "build_graph": "graph",
    "all_pairs_distances": "graph",
    "cut_vertices": "graph",
    "twin_partition": "graph",
    "ResolvingCertificate": "solver",
    "SolveResult": "solver",
    "VertexProfile": "solver",
    "check_resolving": "solver",
    "dim_exact": "solver",
    "cdim_exact": "solver",
    "cdim_at_set": "solver",
    "vertex_profile": "solver",
    "enumerate_min_resolving_sets": "solver",
    "dim_floor_from_diameter": "solver",
    "has_minor": "minor",
    "is_planar_desk": "minor",
    "verify_minor_witness": "minor",
    "FamilySpec": "families",
    "FrLevel": "families",
    "generate": "families",
    "parse_spec": "families",
    "FormulaResult": "formulas",
    "TreeSkeleton": "formulas",
    "tree_skeleton": "formulas",
    "dim_formula": "formulas",
    "cdim_formula": "formulas",
    "cdim_at_vertex_formula": "formulas",
    "classify_extremes": "formulas",
    "ExtremesClassification": "formulas",
    "fr_membership": "formulas",
    "FrMembership": "formulas",
    "unicyclic_cdim_eq_dim": "formulas",
    "UnicyclicClassification": "formulas",
    "tree_min_resolving_sets": "formulas",
    "recognize": "formulas",
    "MetricDimError": "errors",
    "InvalidEdge": "errors",
    "TooSmall": "errors",
    "TooLarge": "errors",
    "NotConnected": "errors",
    "EmptySet": "errors",
    "InvalidAnchor": "errors",
    "InvalidOption": "errors",
    "InvalidSpec": "errors",
    "RuleViolation": "errors",
    "GenerationFailed": "errors",
    "NotATree": "errors",
    "NotUnicyclic": "errors",
    "IsAPath": "errors",
    "TooMany": "errors",
    "Unsupported": "errors",
    "ParseError": "errors",
    "HeaderMismatch": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS.values():  # a submodule: ``metricdim.solver`` needs no import first
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
