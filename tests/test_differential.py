"""Every public solver against the reference searches of ``reference_solver``,
and ``has_minor`` against the unpruned branch-set search of ``reference_minor``.

Inputs are all 995 connected graphs on 2-7 vertices from the networkx graph
atlas and random connected graphs from the shared hypothesis strategy; the
minor search also runs on the benchmark's two nonplanar kernels.  Values and
witnesses, every profile field and whole enumerations must be equal.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import networkx as nx
from hypothesis import given, settings

import metricdim as md
import reference_minor as ref_minor
import reference_solver as ref

from conftest import connected_graphs, graph_from_nx, moebius_ladder


@functools.cache
def atlas() -> tuple[md.Graph, ...]:
    return tuple(
        graph_from_nx(nxg)
        for nxg in nx.graph_atlas_g()
        if nxg.number_of_nodes() >= 2 and nx.is_connected(nxg)
    )


def pair_sample(g: md.Graph, offset: int) -> list[tuple[int, int]]:
    """Every third vertex pair, starting at ``offset`` mod 3."""
    return list(itertools.combinations(range(g.n), 2))[offset % 3 :: 3]


def assert_profiles_equal(got: md.VertexProfile, want: md.VertexProfile, where: str) -> None:
    for field in dataclasses.fields(md.VertexProfile):
        assert getattr(got, field.name) == getattr(want, field.name), (where, field.name)


def assert_matches_reference(g: md.Graph, pairs, where: str) -> None:
    dm = md.all_pairs_distances(g)
    assert md.dim_exact(g, dm) == ref.dim_exact(g, dm), where
    assert md.enumerate_min_resolving_sets(g, dm) == ref.enumerate_min_resolving_sets(g, dm), where
    assert md.cdim_exact(g, dm) == ref.cdim_exact(g, dm), where
    assert_profiles_equal(md.vertex_profile(g, dm), ref.vertex_profile(g, dm), where)
    for anchor in [(v,) for v in range(g.n)] + list(pairs):
        assert md.cdim_at_set(g, anchor, dm) == ref.cdim_at_set(g, anchor, dm), (where, anchor)


def test_atlas_has_every_connected_graph_up_to_seven_vertices():
    assert len(atlas()) == 995


def test_atlas_matches_reference():
    non_adjacent = 0
    for i, g in enumerate(atlas()):
        pairs = pair_sample(g, i)
        non_adjacent += sum(not g.has_edge(u, w) for u, w in pairs)
        assert_matches_reference(g, pairs, f"atlas graph {i}")
    assert non_adjacent > 1000


@given(connected_graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_reference(g):
    assert_matches_reference(g, list(itertools.combinations(range(g.n), 2)), "random graph")


def minors_matching_reference(g: md.Graph, where: str) -> int:
    """How many of K5 and K33 ``g`` has; asserts both answers equal the reference."""
    found = 0
    for target in ("K5", "K33"):
        got = md.has_minor(g, target)
        assert got == ref_minor.has_minor(g, target), (where, target)
        found += got[0]
    return found


def test_atlas_minors_match_reference():
    found = sum(minors_matching_reference(g, f"atlas graph {i}") for i, g in enumerate(atlas()))
    assert found > 0


@given(connected_graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_random_graph_minors_match_reference(g):
    minors_matching_reference(g, "random graph")


def test_nonplanar_kernels_match_reference():
    assert minors_matching_reference(moebius_ladder(12), "moebius:12") == 2
    assert minors_matching_reference(md.generate("rand:16:0.3:3")[0], "rand:16:0.3:3") == 2
