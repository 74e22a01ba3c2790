import random

import pytest

from metricdim import (
    InvalidAnchor,
    InvalidEdge,
    InvalidOption,
    NotConnected,
    TooLarge,
    TooSmall,
    all_pairs_distances,
    build_graph,
    cdim_at_set,
    cdim_at_vertex_formula,
    check_resolving,
    classify_extremes,
    cut_vertices,
    dim_exact,
    enumerate_min_resolving_sets,
    generate,
    has_minor,
    is_planar_desk,
    twin_partition,
    verify_minor_witness,
)
from metricdim.graph import MAX_ORDER, bits, check_cap

from conftest import naive_all_pairs, naive_cut_vertices


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_build_petersen_figure_labeling():
    g, labels = generate("petersen")
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert labels[:5] == ("u1", "u2", "u3", "u4", "u5")


def test_build_duplicate_edges_collapse_with_warning():
    g = build_graph(3, [(0, 1), (0, 1)])
    assert g.m == 1
    assert g.had_duplicate_edges
    assert not build_graph(3, [(0, 1), (1, 2)]).had_duplicate_edges


def test_build_rejects_self_loop_and_small_order():
    with pytest.raises(InvalidEdge):
        build_graph(3, [(1, 1)])
    with pytest.raises(InvalidEdge):
        build_graph(3, [(0, 5)])
    with pytest.raises(TooSmall):
        build_graph(1, [])
    with pytest.raises(TooLarge):
        build_graph(MAX_ORDER + 1, [])


def test_without_edge_keeps_the_order():
    g = path_graph(2).without_edge(1, 0)
    assert (g.n, g.m) == (2, 0)
    with pytest.raises(InvalidEdge, match="no edge 0-1 to delete"):
        g.without_edge(0, 1)


@pytest.mark.parametrize("u, v", [(-1, 0), (7, 0), (0, 4)])
def test_without_edge_refuses_an_endpoint_outside_the_graph(u, v):
    with pytest.raises(InvalidEdge, match=rf"^edge \({u},{v}\) out of range for n=4$"):
        generate("cycle:4")[0].without_edge(u, v)


# Every public call that takes a vertex, a pair, a vertex set or a mask, with the error
# it raises and the values it is fed on path:4: -1, n and 1 << n (n alone is a mask, of
# vertex 2).  ``verify_minor_witness`` answers instead; its test follows.
OUT_OF_RANGE = {
    "has_edge(bad, 0)": (lambda g, dm, bad: g.has_edge(bad, 0), InvalidEdge, (-1, 4, 16)),
    "has_edge(0, bad)": (lambda g, dm, bad: g.has_edge(0, bad), InvalidEdge, (-1, 4, 16)),
    "degree(bad)": (lambda g, dm, bad: g.degree(bad), InvalidAnchor, (-1, 4, 16)),
    "dm.d(bad, 0)": (lambda g, dm, bad: dm.d(bad, 0), InvalidAnchor, (-1, 4, 16)),
    "dm.d(0, bad)": (lambda g, dm, bad: dm.d(0, bad), InvalidAnchor, (-1, 4, 16)),
    "neighborhood_of_set(bad)": (lambda g, dm, bad: g.neighborhood_of_set(bad), InvalidAnchor,
                                 (-1, 16)),
    "is_connected_subset(bad)": (lambda g, dm, bad: g.is_connected_subset(bad), InvalidAnchor,
                                 (-1, 16)),
    "without_edge(bad, 0)": (lambda g, dm, bad: g.without_edge(bad, 0), InvalidEdge, (-1, 4, 16)),
    "cdim_at_set(g, [bad])": (lambda g, dm, bad: cdim_at_set(g, [bad]), InvalidAnchor,
                              (-1, 4, 16)),
    "check_resolving(g, dm, [bad])": (lambda g, dm, bad: check_resolving(g, dm, [bad]),
                                      InvalidAnchor, (-1, 4, 16)),
    "cdim_at_vertex_formula(g, bad)": (lambda g, dm, bad: cdim_at_vertex_formula(g, bad),
                                       InvalidAnchor, (-1, 4, 16)),
    "classify_extremes(g, bad)": (lambda g, dm, bad: classify_extremes(g, bad), InvalidAnchor,
                                  (-1, 4, 16)),
}


@pytest.mark.parametrize("call, bad", [(call, bad) for call, (_, _, values) in OUT_OF_RANGE.items()
                                       for bad in values])
def test_public_calls_refuse_a_vertex_outside_the_graph(call, bad):
    run, error, _ = OUT_OF_RANGE[call]
    g = path_graph(4)
    with pytest.raises(error):
        run(g, all_pairs_distances(g), bad)


@pytest.mark.parametrize("bad", (-1, 5, 32))
def test_minor_witness_with_a_vertex_outside_the_graph_fails(bad):
    # On complete:5, 5 is the first vertex outside the graph and 1 << 5 a mask past it.
    g, _ = generate("complete:5")
    assert verify_minor_witness(g, "K5", ((0,), (1,), (2,), (3,), (4,)))
    assert not verify_minor_witness(g, "K5", ((0,), (1,), (2,), (3,), (bad,)))
    assert not verify_minor_witness(g, "K5", ((0,), (1,), (2,), (3,), (4, bad)))


def test_has_edge_refuses_like_build_graph():
    with pytest.raises(InvalidEdge, match=r"^edge \(0,-1\) out of range for n=4$"):
        path_graph(4).has_edge(0, -1)


def _scanned(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _bits_cases():
    rng = random.Random(0)
    yield from range(1 << 12)
    for width in range(1, 101):
        yield from (rng.getrandbits(width) for _ in range(20))
    yield from (0, (1 << 24) - 1, 1 << 24, 1 << 4095 | 1)


def test_bits_is_the_ascending_tuple_of_a_bit_scan():
    # The cases cross every byte-table boundary and the bit walk past 2**24.
    for mask in _bits_cases():
        got = bits(mask)
        assert type(got) is tuple and got == _scanned(mask), mask
    assert bits(0) == () and bits((1 << 24) - 1) == tuple(range(24))
    assert bits(1 << 24) == (24,) and bits(1 << 4095 | 1) == (0, 4095)


def test_empty_mask_is_connected():
    g = path_graph(4)
    assert g.is_connected_subset(0) and g.neighborhood_of_set(0) == 0


def test_distances_path():
    dm = all_pairs_distances(path_graph(4))
    assert dm.d(0, 3) == 3
    assert dm.diam == 3 and dm.rad == 2


def test_distances_petersen_diameter_two():
    g, _ = generate("petersen")
    assert all_pairs_distances(g).diam == 2


def test_distances_complete():
    g, _ = generate("complete:5")
    dm = all_pairs_distances(g)
    assert all(dm.d(u, v) == 1 for u in range(5) for v in range(5) if u != v)


def test_distances_rejects_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        all_pairs_distances(g)


@pytest.mark.parametrize("spec", ["path:7", "cycle:9", "petersen", "grid:4x3", "wheel:6",
                                  "bouquet:3,5", "rand:9:0.35:5", "randtree:10:2"])
def test_distances_match_independent_bfs(spec):
    g, _ = generate(spec)
    dm = all_pairs_distances(g)
    naive = naive_all_pairs(g)
    for v in range(g.n):
        for u in range(g.n):
            assert dm.d(v, u) == naive[v][u]
    assert dm.rad <= dm.diam <= 2 * dm.rad


def test_cut_vertices_examples():
    assert cut_vertices(path_graph(5)) == {1, 2, 3}
    with pytest.raises(NotConnected):
        cut_vertices(build_graph(4, [(0, 1), (2, 3)]))
    b2, labels = generate("bouquet:3,3")
    assert cut_vertices(b2) == {labels.index("w")}
    c6, _ = generate("cycle:6")
    assert cut_vertices(c6) == frozenset()


@pytest.mark.parametrize("spec", ["path:6", "randtree:11:4", "rand:8:0.3:1", "rand:9:0.5:2",
                                  "bouquet:3,4,5", "sun:6:1,0,2,0,1,0", "paddle:4,3",
                                  "randtree:60:7", "rand:40:0.08:3"])
def test_cut_vertices_match_removal_oracle(spec):
    g, _ = generate(spec)
    assert cut_vertices(g) == naive_cut_vertices(g)
    # every connected graph keeps at least two non-cut vertices
    assert g.n - len(cut_vertices(g)) >= 2


def test_twins_complete():
    g, _ = generate("complete:4")
    assert twin_partition(g).classes == ((0, 1, 2, 3),)


def test_twins_paddle_clique_class():
    g, labels = generate("paddle:6,5")
    classes = twin_partition(g).classes
    expect = tuple(labels.index(f"u{i}") for i in range(1, 6))
    assert expect in classes


def test_twins_path_all_singletons():
    assert twin_partition(path_graph(4)).classes == ((0,), (1,), (2,), (3,))


def test_twins_classes_partition_vertices():
    for spec in ("kite:4", "star:6", "grid:3x3", "rand:8:0.4:9"):
        g, _ = generate(spec)
        tp = twin_partition(g)
        seen = sorted(v for c in tp.classes for v in c)
        assert seen == list(range(g.n))


def test_every_library_cap_reports_the_same_way():
    g, _ = generate("wheel:24")
    for call, message in (
        (lambda: dim_exact(g), "n=25 exceeds the solver cap 24; pass cap=25 to override"),
        (lambda: enumerate_min_resolving_sets(g, cap=20),
         "n=25 exceeds the enumeration cap 20; pass cap=25 to override"),
        (lambda: has_minor(g, "K5"), "n=25 exceeds the minor-search cap 20; pass cap=25 to override"),
        (lambda: is_planar_desk(g), "n=25 exceeds the minor-search cap 20; pass cap=25 to override"),
    ):
        with pytest.raises(TooLarge) as info:
            call()
        assert str(info.value) == message
    check_cap(25, 25, "solver")
    with pytest.raises(InvalidOption, match="^cap must be at least 1, got 0$"):
        check_cap(2, 0, "solver")
