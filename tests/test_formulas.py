import pytest

from metricdim import (
    IsAPath,
    NotATree,
    NotUnicyclic,
    Unsupported,
    build_graph,
    cdim_at_set,
    cdim_at_vertex_formula,
    cdim_exact,
    cdim_formula,
    classify_extremes,
    dim_exact,
    dim_formula,
    enumerate_min_resolving_sets,
    fr_membership,
    generate,
    parse_spec,
    recognize,
    tree_min_resolving_sets,
    tree_skeleton,
    unicyclic_cdim_eq_dim,
    vertex_profile,
)
from metricdim import formulas
from metricdim.families import vdel_pair

from conftest import brute_min_resolving_sets


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# tree skeleton


def test_skeleton_star():
    g, _ = generate("star:6")
    sk = tree_skeleton(g)
    assert sk.ex == 1 and sk.sigma == 5 and not sk.dset


def test_skeleton_caterpillar_with_interior_run():
    (_, _), (t, labels) = vdel_pair(6)
    sk = tree_skeleton(t)
    assert sk.sigma == 4
    assert sk.dset == {labels.index(f"u{i}") for i in (2, 3, 4, 5)}
    assert sk.ex == 2


def test_skeleton_path():
    sk = tree_skeleton(path_graph(9))
    assert sk.is_path and sk.ex == 0 and sk.sigma == 2 and not sk.dset
    assert sk.zone[0] == "path-end" and sk.zone[4] == "path-interior"


def test_skeleton_rejects_non_tree():
    g, _ = generate("cycle:5")
    with pytest.raises(NotATree):
        tree_skeleton(g)


def test_skeleton_zones_partition():
    for seed in range(6):
        g, _ = generate(f"randtree:12:{seed}")
        sk = tree_skeleton(g)
        if sk.is_path:
            continue
        assert set(sk.zone) <= {"gamma", "D", "t1-gamma", "t2-gamma"}
        in_gamma = {v for v in range(g.n) if sk.zone[v] in ("gamma", "D")}
        assert in_gamma == set(sk.gamma)


# ---------------------------------------------------------------------------
# closed forms


def test_dim_formula_examples():
    assert dim_formula("wheel:6").value == 3
    assert dim_formula("multipartite:1,2,2").value == 2
    assert dim_formula("grid:7x4").value == 2
    res = dim_formula("bouquet:3,4,4")
    assert res.value == 3 + 2 - 1 and res.theorem_id == "bouquet-dim"


def test_cdim_formula_examples():
    (_, _), (t, _) = vdel_pair(6)
    assert cdim_formula(t).value == 8
    assert cdim_formula("bouquet:3,5").value == 3
    assert cdim_formula("petersen").value == 4
    assert cdim_formula("wheel:9").value == 5


def test_cdim_at_formula_grid():
    g, labels = generate("grid:7x4")
    ix = {lab: i for i, lab in enumerate(labels)}
    assert cdim_at_vertex_formula(g, ix["u1.w1"]).value == 4
    assert cdim_at_vertex_formula(g, ix["u3.w2"]).value == 5
    assert cdim_at_vertex_formula(g, ix["u7.w3"]).value == 4
    assert cdim_at_vertex_formula(g, ix["u4.w1"]).value == 5  # long side, off end columns


def test_cdim_at_formula_square_grid_uses_degree():
    g, labels = generate("grid:3x3")
    ix = {lab: i for i, lab in enumerate(labels)}
    assert cdim_at_vertex_formula(g, ix["u2.w2"]).value == 4  # interior
    assert cdim_at_vertex_formula(g, ix["u1.w2"]).value == 3  # boundary


def test_cdim_at_formula_bouquet_antipodal():
    g, labels = generate("bouquet:5,5,4")
    ix = {lab: i for i, lab in enumerate(labels)}
    base = cdim_formula(g).value
    assert base == 6  # 2m - b with m=3, b=0
    far_on_five = ix["u1.2"]  # distance 2 from w on a 5-cycle: antipodal zone
    assert cdim_at_vertex_formula(g, far_on_five).value == base + 2 - 2
    near = ix["u1.1"]
    assert cdim_at_vertex_formula(g, near).value == base


def test_formula_unsupported_for_unrecognized_graph():
    g, _ = generate("petersen")
    g2 = g.without_edge(0, 1)
    with pytest.raises(Unsupported):
        dim_formula(g2)


@pytest.mark.parametrize(
    "spec",
    ["path:6", "complete:5", "cycle:8", "star:7", "randtree:11:3", "fork:3,8",
     "petersen", "wheel:4", "wheel:5", "wheel:8", "bouquet:3,3", "bouquet:4,5",
     "multipartite:1,1,3", "multipartite:2,2,2", "grid:4x3", "grid:4x4"],
)
def test_formulas_agree_with_exact_solvers(spec):
    g, _ = generate(spec)
    assert dim_formula(g).value == dim_exact(g).value
    assert cdim_formula(g).value == cdim_exact(g).value
    prof = vertex_profile(g)
    for v in range(g.n):
        assert cdim_at_vertex_formula(g, v).value == prof.per_vertex[v], (spec, v)


# ---------------------------------------------------------------------------
# recognizers


def test_recognizer_kinds():
    cases = {
        "path:5": "path",
        "complete:6": "complete",
        "cycle:7": "cycle",
        "star:5": "tree",
        "petersen": "petersen",
        "wheel:7": "wheel",
        "bouquet:3,4": "bouquet",
        "multipartite:2,2,3": "multipartite",
        "grid:5x3": "grid",
    }
    for spec, kind in cases.items():
        g, _ = generate(spec)
        rec = recognize(g)
        assert rec is not None and rec.kind == kind, spec


def test_recognizer_handles_equivalent_families():
    g, _ = generate("wheel:3")  # this is the complete graph on four vertices
    assert recognize(g).kind == "complete"
    g, _ = generate("multipartite:2,2")  # the four-cycle
    assert recognize(g).kind == "cycle"
    g, _ = generate("wheel:4")  # also complete tripartite 1,2,2
    assert recognize(g).kind == "wheel"
    assert cdim_formula(g).value == cdim_exact(g).value


# ---------------------------------------------------------------------------
# extremes classification


def test_classify_path_end():
    cls = classify_extremes(path_graph(5), 0)
    assert cls.cdim_at_is_one and cls.vertex_case == "path-end"
    mid = classify_extremes(path_graph(5), 2)
    assert not mid.cdim_at_is_one and not mid.cdim_at_is_n_minus_one


def test_classify_star():
    g, _ = generate("star:7")
    cls = classify_extremes(g, 3)
    assert cls.cdim_is_n_minus_one and cls.cdim_at_is_n_minus_one
    assert cdim_at_set(g, [3]).value == 6


def test_classify_p3_middle():
    cls = classify_extremes(path_graph(3), 1)
    assert cls.cdim_at_is_n_minus_one and cls.vertex_case == "p3-middle"
    assert classify_extremes(path_graph(3), 0).cdim_at_is_one


def test_classify_paddle_tail_end():
    g, labels = generate("paddle:4,2")
    v = labels.index("w2")
    cls = classify_extremes(g, v)
    assert cls.cdim_at_is_n_minus_one and cls.vertex_case == "paddle-u1"
    assert cdim_at_set(g, [v]).value == g.n - 1 == 5


def test_classify_fork_tail_end():
    g, labels = generate("fork:3,7")
    v = labels.index("u1")
    cls = classify_extremes(g, v)
    assert cls.cdim_at_is_n_minus_one and cls.vertex_case == "fork-u1"
    assert cdim_at_set(g, [v]).value == g.n - 1


# ---------------------------------------------------------------------------
# membership in the layered two-anchor family


def test_fr_membership_odd_cycle():
    g, _ = generate("cycle:7")
    res = fr_membership(g)
    assert res.member and res.base_pair is not None


def test_fr_membership_petersen_refuted():
    g, _ = generate("petersen")
    res = fr_membership(g)
    assert not res.member
    assert res.refutations and len(res.refutations) == g.m


def test_fr_membership_sample_round_trip():
    g, _ = generate("fr:3:1")
    res = fr_membership(g)
    assert res.member and res.r <= 3
    assert cdim_exact(g).value <= 2


def test_fr_membership_matches_cdim_threshold():
    for spec in ("rand:7:0.3:5", "rand:7:0.5:6", "randtree:8:2", "grid:3x3",
                 "paddle:3,2", "sun:5:1,1,0,0,0", "bouquet:3,3"):
        g, _ = generate(spec)
        assert fr_membership(g).member == (cdim_exact(g).value <= 2), spec


def test_fr_membership_threshold_exhaustive_small():
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    from conftest import graph_from_nx

    for ag in graph_atlas_g():
        if not (2 <= ag.number_of_nodes() <= 6) or not nx.is_connected(ag):
            continue
        g = graph_from_nx(ag)
        assert fr_membership(g).member == (cdim_exact(g).value <= 2), g.neighbors


# ---------------------------------------------------------------------------
# unicyclic classification


def test_unicyclic_sun_examples():
    g, _ = generate("sun:5:1,1,0,0,0")
    cls = unicyclic_cdim_eq_dim(g)
    assert cls.equal and cls.case == "U1"
    g, _ = generate("sun:8:1,0,3,1,0,2,0,0")
    cls = unicyclic_cdim_eq_dim(g)
    assert not cls.equal and cls.case == "short-run"


def test_unicyclic_pendant_cycle():
    g, _ = generate("sun:9:1,0,0,0,0,0,0,0,0")
    cls = unicyclic_cdim_eq_dim(g)
    assert cls.equal and cls.case == "U1"


def test_unicyclic_rejects_non_unicyclic():
    with pytest.raises(NotUnicyclic):
        unicyclic_cdim_eq_dim(path_graph(4))
    g, _ = generate("petersen")
    with pytest.raises(NotUnicyclic):
        unicyclic_cdim_eq_dim(g)


def test_unicyclic_not_a_sun():
    # a branching subtree hanging off the cycle
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (3, 5), (5, 6)])
    cls = unicyclic_cdim_eq_dim(g)
    assert not cls.equal and cls.case == "not-a-sun"


# ---------------------------------------------------------------------------
# all minimum resolving sets of a tree


def test_tree_min_sets_spider():
    spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    sets = tree_min_resolving_sets(spider)
    assert len(sets) == 12
    assert sorted(sets) == sorted(brute_min_resolving_sets(spider))


def test_tree_min_sets_star():
    g, _ = generate("star:4")
    assert tree_min_resolving_sets(g) == [(1, 2), (1, 3), (2, 3)]


def test_tree_min_sets_caterpillar():
    (_, _), (t, labels) = vdel_pair(6)
    sets = tree_min_resolving_sets(t)
    ix = {lab: i for i, lab in enumerate(labels)}
    choices_left = {ix["u0"], ix["l1"]}
    choices_right = {ix["u7"], ix["l6"]}
    expect = sorted(
        tuple(sorted((a, b))) for a in choices_left for b in choices_right
    )
    assert sets == expect


def test_tree_min_sets_match_brute_force_on_random_trees():
    for seed in range(8):
        g, _ = generate(f"randtree:10:{seed}")
        sk = tree_skeleton(g)
        if sk.is_path:
            continue
        assert sorted(tree_min_resolving_sets(g)) == sorted(brute_min_resolving_sets(g))
        majors = set(sk.exterior_major())
        for s in tree_min_resolving_sets(g):
            assert not majors & set(s)


def test_tree_min_sets_rejects_paths():
    with pytest.raises(IsAPath):
        tree_min_resolving_sets(path_graph(6))


def test_tree_min_sets_equal_enumeration():
    spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert sorted(tree_min_resolving_sets(spider)) == enumerate_min_resolving_sets(spider)


@pytest.mark.parametrize("spec, v", [("wheel:9", 0), ("bouquet:3,5,4", 3), ("multipartite:1,2,3", 0)])
def test_cdim_at_vertex_formula_resolves_its_input_once(monkeypatch, spec, v):
    calls = []
    real = formulas.recognize

    def counted(g, dm=None):
        calls.append(g.n)
        return real(g, dm)

    monkeypatch.setattr(formulas, "recognize", counted)
    for x in (spec, parse_spec(spec), generate(spec)[0]):
        calls.clear()
        cdim_at_vertex_formula(x, v)
        assert len(calls) == 1
