"""Property-based checks of the solver invariants on random connected graphs."""

from hypothesis import given, settings, strategies as st

from metricdim import (
    all_pairs_distances,
    cdim_at_set,
    cdim_exact,
    check_resolving,
    cut_vertices,
    dim_exact,
    dim_floor_from_diameter,
    twin_partition,
    vertex_profile,
)

from conftest import connected_graphs, naive_all_pairs, naive_cut_vertices, subset_connected


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_metric_basics(g):
    dm = all_pairs_distances(g)
    assert dm.rad <= dm.diam <= 2 * dm.rad
    naive = naive_all_pairs(g)
    assert all(dm.d(u, v) == naive[u][v] for u in range(g.n) for v in range(g.n))
    assert cut_vertices(g) == naive_cut_vertices(g)


@given(connected_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_sandwich_and_lipschitz(g):
    dm = all_pairs_distances(g)
    d = dim_exact(g, dm).value
    prof = vertex_profile(g, dm)
    assert d <= prof.rrad
    assert all(prof.rrad <= prof.per_vertex[v] <= g.n - 1 for v in range(g.n))
    for u, v in g.edges():
        assert abs(prof.per_vertex[u] - prof.per_vertex[v]) <= 1
    assert prof.rrad <= prof.rdiam <= prof.rrad + dm.diam
    assert dim_floor_from_diameter(g.n, dm.diam) <= d <= g.n - dm.diam


@given(connected_graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_witnesses_verify_and_respect_twins(g):
    dm = all_pairs_distances(g)
    tp = twin_partition(g)
    for res in (dim_exact(g, dm), cdim_exact(g, dm), cdim_at_set(g, [0], dm)):
        assert check_resolving(g, dm, res.witness).resolving
        for cls in tp.classes:
            assert len(set(res.witness) & set(cls)) >= len(cls) - 1
    connected_res = cdim_at_set(g, [g.n - 1], dm)
    assert subset_connected(g, connected_res.witness)
    assert g.n - 1 in connected_res.witness


@given(connected_graphs(max_n=7), st.data())
@settings(max_examples=30, deadline=None)
def test_anchor_monotone(g, data):
    dm = all_pairs_distances(g)
    small = data.draw(st.sets(st.integers(0, g.n - 1), max_size=2))
    extra = data.draw(st.sets(st.integers(0, g.n - 1), max_size=2))
    big = small | extra
    v_small = cdim_at_set(g, small, dm).value
    v_big = cdim_at_set(g, big, dm).value
    assert v_small <= v_big
    if not small:
        assert v_small == cdim_exact(g, dm).value


@given(connected_graphs(max_n=7))
@settings(max_examples=20, deadline=None)
def test_profile_equals_anchored_values(g):
    dm = all_pairs_distances(g)
    prof = vertex_profile(g, dm)
    for v in range(g.n):
        assert prof.per_vertex[v] == cdim_at_set(g, [v], dm).value


@given(connected_graphs(max_n=7))
@settings(max_examples=15, deadline=None)
def test_worker_count_invariance(g):
    assert dim_exact(g) == dim_exact(g, workers=2)
    assert cdim_exact(g) == cdim_exact(g, workers=2)
    assert vertex_profile(g) == vertex_profile(g, workers=2)
