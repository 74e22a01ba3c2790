"""The paper's tree and unicyclic characterizations on complete small classes.

Every free tree on 3-12 vertices (``networkx.nonisomorphic_trees``) checks
``dim_formula`` and ``cdim_formula`` against the exact solvers, and
``tree_min_resolving_sets`` against ``enumerate_min_resolving_sets``.  Every
tree on 3-9 vertices plus one edge, which covers every unicyclic graph up to
9 vertices, checks ``unicyclic_cdim_eq_dim`` against ``dim == cdim``.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

import metricdim as md

from conftest import graph_from_nx

# Free trees on 3..12 vertices: OEIS A000055.
TREE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}


@pytest.mark.parametrize("n", sorted(TREE_COUNTS))
def test_every_tree_matches_its_closed_forms(n):
    trees = [graph_from_nx(t) for t in nx.nonisomorphic_trees(n)]
    assert len(trees) == TREE_COUNTS[n]
    for i, g in enumerate(trees):
        dm = md.all_pairs_distances(g)
        assert md.dim_formula(g).value == md.dim_exact(g, dm).value, (n, i)
        assert md.cdim_formula(g).value == md.cdim_exact(g, dm).value, (n, i)
        if md.tree_skeleton(g).is_path:
            with pytest.raises(md.IsAPath):
                md.tree_min_resolving_sets(g)
        else:
            assert md.tree_min_resolving_sets(g) == md.enumerate_min_resolving_sets(g, dm), (n, i)


@pytest.mark.parametrize("n", range(3, 10))
def test_every_unicyclic_graph_matches_its_classification(n):
    outcomes = set()
    for t in nx.nonisomorphic_trees(n):
        tree = graph_from_nx(t)
        for u, w in itertools.combinations(range(n), 2):
            if tree.has_edge(u, w):
                continue
            g = md.build_graph(n, [*tree.edges(), (u, w)])
            dm = md.all_pairs_distances(g)
            equal = md.dim_exact(g, dm).value == md.cdim_exact(g, dm).value
            assert md.unicyclic_cdim_eq_dim(g).equal == equal, (n, sorted(g.edges()))
            outcomes.add(equal)
    assert outcomes == ({True} if n < 5 else {True, False})
