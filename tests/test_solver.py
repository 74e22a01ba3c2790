import copy

import pytest

from metricdim import (
    EmptySet,
    InvalidAnchor,
    InvalidOption,
    MetricDimError,
    NotConnected,
    TooLarge,
    all_pairs_distances,
    build_graph,
    cdim_at_set,
    cdim_exact,
    check_resolving,
    dim_exact,
    dim_floor_from_diameter,
    enumerate_min_resolving_sets,
    generate,
    twin_partition,
    vertex_profile,
)
from metricdim import solver

from conftest import (
    atlas, brute_cdim, brute_cdim_at, brute_dim, distinct_copy, naive_all_pairs, subset_connected,
)


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# check_resolving


def test_single_end_vertex_resolves_path():
    g = path_graph(4)
    cert = check_resolving(g, all_pairs_distances(g), {0})
    assert cert.resolving and cert.witness_pair is None


def test_petersen_adjacent_pair_fails_with_known_collision():
    g, labels = generate("petersen")
    dm = all_pairs_distances(g)
    u1, w1 = labels.index("u1"), labels.index("w1")
    cert = check_resolving(g, dm, {u1, w1})
    assert not cert.resolving
    # the four vertices known to share one code under {u1, w1}
    quad = [labels.index(x) for x in ("u3", "u4", "w2", "w5")]
    assert len({cert.codes[v] for v in quad}) == 1
    # deterministic witness: the lexicographically smallest colliding pair
    x, y = cert.witness_pair
    assert x < y and cert.codes[x] == cert.codes[y]
    for a in range(x):
        for b in range(a + 1, g.n):
            assert cert.codes[a] != cert.codes[b] or (a, b) >= (x, y)


def test_cycle_adjacent_pair_resolves_against_hand_bfs():
    g, _ = generate("cycle:6")
    dm = all_pairs_distances(g)
    cert = check_resolving(g, dm, {0, 1})
    naive = naive_all_pairs(g)
    codes = [(naive[v][0], naive[v][1]) for v in range(6)]
    assert len(set(codes)) == 6  # frozen from the independent BFS oracle
    assert cert.resolving
    assert all(cert.codes[v] == codes[v] for v in range(6))


def test_check_resolving_rejects_empty_set():
    g = path_graph(3)
    with pytest.raises(EmptySet):
        check_resolving(g, all_pairs_distances(g), set())


@pytest.mark.parametrize("bad", [3, -1])
def test_check_resolving_rejects_a_vertex_out_of_range(bad):
    g = path_graph(3)
    with pytest.raises(InvalidAnchor, match=r"not all within 0\.\.2"):
        check_resolving(g, all_pairs_distances(g), [0, bad])


@pytest.mark.parametrize("other", [3, 7])
def test_distance_matrix_of_another_order_is_an_invalid_option(other):
    # A shorter matrix must not be indexed past its rows, and a longer one
    # must not certify {0} as resolving K5.
    g, _ = generate("complete:5")
    dm = all_pairs_distances(path_graph(other))
    with pytest.raises(InvalidOption, match="order"):
        check_resolving(g, dm, [0])


# ---------------------------------------------------------------------------
# dim_exact


def test_dim_petersen():
    g, _ = generate("petersen")
    assert dim_exact(g).value == 3


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_dim_complete(n):
    g, _ = generate(f"complete:{n}")
    assert dim_exact(g).value == n - 1


def test_dim_wheel_seven():
    g, _ = generate("wheel:7")
    assert dim_exact(g).value == 3  # floor(16/5)


def test_dim_witness_is_lexicographically_smallest():
    g, _ = generate("cycle:5")
    value, witness = dim_exact(g)
    assert (value, witness) == brute_dim(g)  # brute scans in lex order too


def test_dim_cap_enforced():
    g, _ = generate("grid:5x5")
    with pytest.raises(TooLarge):
        dim_exact(g)
    assert dim_exact(g, cap=25).value == 2


# ---------------------------------------------------------------------------
# cdim_exact / cdim_at_set


def test_cdim_petersen():
    g, _ = generate("petersen")
    res = cdim_exact(g)
    assert res.value == 4
    dm = all_pairs_distances(g)
    assert check_resolving(g, dm, res.witness).resolving
    assert subset_connected(g, res.witness)


@pytest.mark.parametrize("n", [2, 4, 9])
def test_cdim_path_is_one(n):
    assert cdim_exact(path_graph(n)).value == 1


def test_cdim_theta_tails():
    g, _ = generate("thetatails")
    assert cdim_exact(g).value == 3


def test_cdim_at_paddle_sweeps_all_values():
    g, labels = generate("paddle:6,5")
    ix = {lab: i for i, lab in enumerate(labels)}
    assert cdim_at_set(g, [ix["u0"]]).value == 5
    for j in range(1, 6):
        assert cdim_at_set(g, [ix[f"w{j}"]]).value == 6 + j - 1


def test_cdim_at_k2():
    g = build_graph(2, [(0, 1)])
    assert cdim_at_set(g, [0]).value == 1


def test_cdim_at_empty_anchor_equals_cdim():
    g, _ = generate("wheel:8")
    assert cdim_at_set(g, ()).value == cdim_exact(g).value


def test_cdim_at_rejects_bad_anchor():
    g = path_graph(3)
    with pytest.raises(InvalidAnchor):
        cdim_at_set(g, [7])


def test_cdim_at_multi_vertex_anchor_matches_brute():
    g, _ = generate("rand:8:0.35:11")
    for anchor in [(0, 3), (1, 5, 6), (2,)]:
        assert cdim_at_set(g, anchor).value == brute_cdim_at(g, anchor)[0]


def test_cdim_at_full_vertex_set():
    g = path_graph(4)
    assert cdim_at_set(g, range(4)).value == 4


# ---------------------------------------------------------------------------
# vertex_profile


def test_profile_theta_tails_matches_figure():
    g, labels = generate("thetatails")
    prof = vertex_profile(g)
    values = dict(zip(labels, prof.per_vertex))
    assert sorted(prof.per_vertex) == [3] * 8 + [4] * 4
    assert values["p1.2"] == values["p2.3"] == 4
    rc = {labels[v] for v in prof.rc}
    assert rc == {"a", "b", "c", "d", "p1.1", "p1.4", "p2.1", "p2.4"}
    # the two components of the center induce disjoint 3-leaf stars
    star_b = {"a", "p1.1", "p2.1"}
    assert all(g.has_edge(labels.index("b"), labels.index(x)) for x in star_b)


def test_profile_fan_tail_attains_upper_bound():
    g, labels = generate("fantail:8")
    prof = vertex_profile(g)
    dm = all_pairs_distances(g)
    assert prof.rrad == 2
    assert prof.rdiam == 6 == prof.rrad + dm.diam
    assert prof.per_vertex[labels.index("w4")] == 6


def test_profile_vertex_transitive_all_equal():
    g, _ = generate("cycle:6")
    prof = vertex_profile(g)
    assert len(set(prof.per_vertex)) == 1


def test_profile_matches_anchored_search():
    """Each anchored search runs on a fresh copy, so it starts at its own floor, not at
    the profile's values; on the twin graphs an anchor outside every class lifts it."""
    for spec in ("rand:8:0.4:3", "randtree:9:5", "bouquet:3,4", "paddle:5,3", "fork:3,7",
                 "bouquet:4,4,4,4,4"):
        g, _ = generate(spec)
        prof = vertex_profile(g)
        for v in range(g.n):
            assert prof.per_vertex[v] == cdim_at_set(copy.copy(g), [v]).value, (spec, v)


# ---------------------------------------------------------------------------
# enumerate_min_resolving_sets


def test_enumerate_grid_3x3_corner_pairs():
    g, labels = generate("grid:3x3")
    ix = {lab: i for i, lab in enumerate(labels)}
    corners = {name: ix[name] for name in ("u1.w1", "u1.w3", "u3.w1", "u3.w3")}
    expected = {
        tuple(sorted((corners["u1.w1"], corners["u1.w3"]))),
        tuple(sorted((corners["u1.w1"], corners["u3.w1"]))),
        tuple(sorted((corners["u1.w3"], corners["u3.w3"]))),
        tuple(sorted((corners["u3.w1"], corners["u3.w3"]))),
    }
    assert set(enumerate_min_resolving_sets(g)) == expected


def test_enumerate_petersen_min_sets_are_edgeless():
    g, _ = generate("petersen")
    sets = enumerate_min_resolving_sets(g)
    assert sets and all(len(s) == 3 for s in sets)
    for s in sets:
        assert all(not g.has_edge(a, b) for a in s for b in s if a < b)


def test_enumerate_triangle():
    g, _ = generate("complete:3")
    assert enumerate_min_resolving_sets(g) == [(0, 1), (0, 2), (1, 2)]


def test_enumerate_cap():
    g, _ = generate("grid:5x4")
    with pytest.raises(TooLarge):
        enumerate_min_resolving_sets(g)
    assert len(enumerate_min_resolving_sets(g, cap=20)) == 4


# ---------------------------------------------------------------------------
# agreement with brute force and determinism


@pytest.mark.parametrize("spec", ["rand:7:0.35:1", "rand:8:0.45:2", "rand:8:0.3:13",
                                  "randtree:8:3", "sun:5:1,0,2,0,0", "bouquet:3,4",
                                  "kite:3", "fantail:7"])
def test_solvers_match_brute_force(spec):
    g, _ = generate(spec)
    assert dim_exact(g)[:] == tuple(brute_dim(g))
    value, witness = cdim_exact(g)
    bval, _ = brute_cdim(g)
    assert value == bval
    dm = all_pairs_distances(g)
    assert check_resolving(g, dm, witness).resolving
    assert subset_connected(g, witness)
    v = g.n // 2
    assert cdim_at_set(g, [v]).value == brute_cdim_at(g, (v,))[0]


def test_witnesses_respect_twin_lower_bound():
    for spec in ("kite:4", "paddle:5,2", "star:7", "multipartite:2,3"):
        g, _ = generate(spec)
        tp = twin_partition(g)
        for res in (dim_exact(g), cdim_exact(g)):
            chosen = set(res.witness)
            for cls in tp.classes:
                assert len(chosen & set(cls)) >= len(cls) - 1


def test_parallel_workers_do_not_change_results():
    for spec in ("petersen", "rand:9:0.4:21", "randtree:10:8", "wheel:7"):
        g, _ = generate(spec)
        assert dim_exact(g) == dim_exact(g, workers=3)
        assert cdim_exact(g) == cdim_exact(g, workers=3)
        assert cdim_at_set(g, [1]) == cdim_at_set(g, [1], workers=3)
        assert vertex_profile(g) == vertex_profile(g, workers=3)


@pytest.mark.parametrize("workers", [0, -5, 1.5, "2", None, True])
def test_workers_must_be_a_positive_int(workers):
    g, _ = generate("petersen")
    for solve in (dim_exact, cdim_exact, vertex_profile, lambda g, **kw: cdim_at_set(g, [1], **kw)):
        with pytest.raises(InvalidOption) as exc:
            solve(g, workers=workers)
        assert isinstance(exc.value, MetricDimError)


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_is_an_invalid_option(cap):
    g, _ = generate("petersen")
    for solve in (dim_exact, cdim_exact, vertex_profile, enumerate_min_resolving_sets,
                  lambda g, **kw: cdim_at_set(g, [1], **kw)):
        with pytest.raises(InvalidOption, match="cap must be at least 1"):
            solve(g, cap=cap)


# ---------------------------------------------------------------------------
# values shared by the solvers of one graph object


def all_solvers(g):
    return (dim_exact(g), cdim_exact(g), cdim_at_set(g, [1]), cdim_at_set(g, [0, 1]),
            vertex_profile(g), enumerate_min_resolving_sets(g))


def test_calls_that_raise_record_nothing():
    g, _ = generate("wheel:9")
    with pytest.raises(TooLarge):
        dim_exact(g, cap=3)
    with pytest.raises(TooLarge):
        cdim_exact(g, cap=3)
    with pytest.raises(TooLarge):
        vertex_profile(g, cap=3)
    with pytest.raises(TooLarge):
        enumerate_min_resolving_sets(g, cap=3)
    with pytest.raises(InvalidAnchor):
        cdim_at_set(g, [g.n])
    with pytest.raises(InvalidOption):
        cdim_at_set(g, [1], workers=0)
    with pytest.raises(InvalidOption):
        vertex_profile(g, workers=0)
    assert solver._proved(g) == [0] * (g.n + 3)
    assert all_solvers(g) == all_solvers(distinct_copy(g))


def test_calls_that_raise_after_the_witness_is_proved_record_nothing():
    # The checks run before the proved witness answers an anchor inside it.
    g, _ = generate("wheel:9")
    w = cdim_exact(g).witness
    record = list(solver._proved(g))
    with pytest.raises(TooLarge):
        cdim_at_set(g, w[:1], cap=3)
    with pytest.raises(InvalidOption):
        cdim_at_set(g, w[:1], workers=0)
    with pytest.raises(InvalidAnchor):
        cdim_at_set(g, [g.n])
    assert solver._proved(g) == record


def test_calls_refused_on_other_graphs_keep_the_record(monkeypatch):
    # Each solver checks its arguments before it reads the record, so a refused call
    # on another graph does not replace the record of the last graph searched.
    g, _ = generate("wheel:17")
    cdim_exact(g)
    record = list(solver._proved(g))
    path, big = generate("path:5")[0], generate("complete:25")[0]
    with pytest.raises(TooLarge):
        cdim_exact(big)
    with pytest.raises(TooLarge):
        dim_exact(big)
    with pytest.raises(TooLarge):
        enumerate_min_resolving_sets(generate("complete:17")[0])
    with pytest.raises(InvalidOption):
        cdim_at_set(path, [1], workers=0)
    with pytest.raises(InvalidOption):
        vertex_profile(path, cap=0)
    assert solver._proved(g) == record
    monkeypatch.setattr(solver, "_prepare", None)
    assert cdim_at_set(g, (17,)) == (8, (0, 1, 3, 6, 8, 11, 13, 17))


def test_a_disconnected_graph_keeps_the_record(monkeypatch):
    # The record tests connectivity when its key changes and stores nothing when
    # it raises, so the last connected graph's record survives.
    g, _ = generate("wheel:17")
    cdim_exact(g)
    record = list(solver._proved(g))
    with pytest.raises(NotConnected):
        cdim_at_set(build_graph(4, [(0, 1), (2, 3)]), (0,))
    assert solver._proved(g) == record
    monkeypatch.setattr(solver, "_prepare", None)
    assert cdim_at_set(g, (17,)) == (8, (0, 1, 3, 6, 8, 11, 13, 17))


def test_the_proved_witness_answers_anchors_inside_it(monkeypatch):
    g, _ = generate("wheel:17")
    cdim = cdim_exact(g)
    assert cdim == (8, (0, 1, 3, 6, 8, 11, 13, 17))
    # W answers before any mask is built, and with no search.
    monkeypatch.setattr(solver, "_prepare", None)
    monkeypatch.setattr(solver._Walker, "hits", None)
    assert cdim_at_set(g, (17,)) == cdim_at_set(g, cdim.witness) == cdim_exact(g) == cdim
    assert solver._proved(g)[17 + 3] == 8


def test_calls_with_and_without_a_distance_matrix_share_one_record():
    g, _ = generate("wheel:9")
    dim = dim_exact(g, all_pairs_distances(g))
    assert solver._proved(g)[0] == dim.value
    cdim = cdim_exact(g)
    assert solver._proved(g)[:2] == [dim.value, cdim.value]
    fresh = distinct_copy(g)
    assert (dim, cdim) == (dim_exact(fresh), cdim_exact(fresh))
    assert all_solvers(g) == all_solvers(distinct_copy(g))


# ---------------------------------------------------------------------------
# the solvers read g alone: a distance matrix of another graph changes nothing


DM_SOLVERS = {
    "dim": dim_exact,
    "cdim": cdim_exact,
    "cdim_at": lambda g, dm=None: cdim_at_set(g, [1], dm),
    "profile": vertex_profile,
    "enum": enumerate_min_resolving_sets,
}


def check_foreign_matrix_is_ignored(g, other, where):
    dm = all_pairs_distances(other)
    fresh = distinct_copy(g)
    want = [solve(fresh) for solve in DM_SOLVERS.values()]
    assert [solve(g, dm) for solve in DM_SOLVERS.values()] == want, where
    # Nothing the calls given dm recorded moves a later search on the same object.
    assert [solve(g) for solve in DM_SOLVERS.values()] == want, where


def test_path_given_the_complete_graphs_matrix():
    # K5's matrix would give 4 for dim, cdim and every vertex's value.
    g, k5 = generate("path:5")[0], generate("complete:5")[0]
    dm = all_pairs_distances(k5)
    check_foreign_matrix_is_ignored(g, k5, "path:5")
    assert (dim_exact(g, dm), cdim_exact(g, dm)) == ((1, (0,)), (1, (0,)))
    assert vertex_profile(g, dm).per_vertex == (1, 2, 2, 2, 1)


def test_atlas_graphs_given_another_graphs_matrix():
    """Each atlas graph gets the matrix of the next atlas graph of its order."""
    by_order = {}
    for g in atlas():
        by_order.setdefault(g.n, []).append(g)
    for n, graphs in by_order.items():
        for i, g in enumerate(graphs):
            check_foreign_matrix_is_ignored(g, graphs[(i + 1) % len(graphs)], (n, i))


@pytest.mark.parametrize("name", DM_SOLVERS)
def test_disconnected_graph_given_a_connected_graphs_matrix_raises(name):
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        DM_SOLVERS[name](g, all_pairs_distances(path_graph(4)))


def test_diameter_floor():
    assert dim_floor_from_diameter(2, 1) == 1
    assert dim_floor_from_diameter(6, 1) == 5
    assert dim_floor_from_diameter(10, 2) == 3
    g, _ = generate("petersen")
    dm = all_pairs_distances(g)
    d = dim_exact(g).value
    assert dim_floor_from_diameter(g.n, dm.diam) <= d <= g.n - dm.diam
