"""The paper's characterizations on complete small classes.

Every free tree on 3-12 vertices (``networkx.nonisomorphic_trees``) checks
``dim_formula``, ``cdim_formula`` and ``cdim_at_vertex_formula`` against the
exact solvers, and ``tree_min_resolving_sets`` against
``enumerate_min_resolving_sets``.  Every tree on 3-9 vertices plus one edge,
which covers every unicyclic graph up to 9 vertices, checks
``unicyclic_cdim_eq_dim`` against ``dim == cdim``.  Every connected graph on
2-7 vertices checks ``classify_extremes`` and ``fr_membership`` against the
vertex profile, and that cdim = 2 implies planarity.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

import metricdim as md

from conftest import atlas, graph_from_nx

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


@pytest.mark.parametrize("n", sorted(TREE_COUNTS))
def test_every_tree_vertex_matches_its_closed_form(n):
    for i, t in enumerate(nx.nonisomorphic_trees(n)):
        g = graph_from_nx(t)
        per_vertex = md.vertex_profile(g).per_vertex
        for v in range(n):
            assert md.cdim_at_vertex_formula(g, v).value == per_vertex[v], (n, i, v)


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


def test_every_small_connected_graph_matches_its_characterizations():
    graphs = atlas()
    assert len(graphs) == 995
    for g in graphs:
        dm = md.all_pairs_distances(g)
        per_vertex = md.vertex_profile(g, dm).per_vertex
        cdim, top = min(per_vertex), g.n - 1
        edges = sorted(g.edges())
        cls = md.classify_extremes(g)
        assert (cls.cdim_is_one, cls.cdim_is_n_minus_one) == (cdim == 1, cdim == top), edges
        for v in range(g.n):
            cls = md.classify_extremes(g, v)
            assert cls.cdim_at_is_one == (per_vertex[v] == 1), (edges, v)
            assert cls.cdim_at_is_n_minus_one == (per_vertex[v] == top), (edges, v)
        assert md.fr_membership(g).member == (cdim <= 2), edges
        if cdim == 2:
            assert md.is_planar_desk(g), edges
