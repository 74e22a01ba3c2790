import pytest

from metricdim import (
    InvalidEdge,
    InvalidOption,
    NotConnected,
    TooLarge,
    TooSmall,
    all_pairs_distances,
    build_graph,
    cut_vertices,
    dim_exact,
    enumerate_min_resolving_sets,
    generate,
    has_minor,
    is_planar_desk,
    twin_partition,
)
from metricdim.graph import check_cap

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
    check_cap(25, 25, 1, "solver")
    with pytest.raises(InvalidOption, match="^cap must be at least 1, got 0$"):
        check_cap(2, 0, 24, "solver")
