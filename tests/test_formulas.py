import hashlib
import itertools
import random

import pytest

from metricdim import (
    Graph,
    InvalidAnchor,
    IsAPath,
    MetricDimError,
    NotATree,
    NotUnicyclic,
    TooMany,
    Unsupported,
    all_pairs_distances,
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
    recognize,
    tree_min_resolving_sets,
    tree_skeleton,
    unicyclic_cdim_eq_dim,
    vertex_profile,
)
from metricdim import formulas
from metricdim.families import vdel_pair

from conftest import atlas, brute_min_resolving_sets, distinct_copy, moebius_ladder


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


def family(spec):
    return generate(spec)[0]


def test_dim_formula_examples():
    assert dim_formula(family("wheel:6")).value == 3
    assert dim_formula(family("multipartite:1,2,2")).value == 2
    assert dim_formula(family("grid:7x4")).value == 2
    res = dim_formula(family("bouquet:3,4,4"))
    assert res.value == 3 + 2 - 1 and res.theorem_id == "bouquet-dim"


def test_cdim_formula_examples():
    (_, _), (t, _) = vdel_pair(6)
    assert cdim_formula(t).value == 8
    assert cdim_formula(family("bouquet:3,5")).value == 3
    assert cdim_formula(family("petersen")).value == 4
    assert cdim_formula(family("wheel:9")).value == 5


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


# Every connected atlas graph, then these specs: recognize()'s kind and data
# before it computed distances only where a recognizer reads them.
RECOGNIZE_SPECS = (
    "path:6", "cycle:7", "complete:5", "star:6", "multipartite:2,2,3", "multipartite:3,3,3",
    "multipartite:1,1,4", "wheel:9", "petersen", "grid:4x3", "grid:5x5", "grid:2x2",
    "bouquet:3,4,5", "paddle:5,3", "fork:3,7", "sun:4:1,0,2,0", "sun:8:1,0,3,1,0,2,0,0",
    "fr:3:1", "kite:3", "k33sub", "thetatails", "fantail:7", "vdel:6", "edel:3,5",
    "randtree:12:1", "rand:12:0.3:1",
)
RECOGNIZE_DIGEST = "47328e1535fec9b132010a6924d46811e54ed3bb971a02a01176420770d05b42"


def test_recognize_pinned_on_atlas_and_families():
    graphs = list(atlas()) + [generate(spec)[0] for spec in RECOGNIZE_SPECS]
    found = []
    for g in graphs:
        rec = recognize(g)
        found.append(None if rec is None else (rec.kind, sorted(rec.data.items())))
    assert hashlib.sha256(repr(found).encode()).hexdigest() == RECOGNIZE_DIGEST


# Every connected atlas graph, then these specs: every closed-form answer, value, case label
# and theorem id, or the error raised, including the out-of-range vertex n.
FORMS_SPECS = (
    *(f"wheel:{r}" for r in range(3, 20)),
    *(f"grid:{s}x{t}" for s in range(2, 7) for t in range(2, 7)),
    "bouquet:3,3", "bouquet:3,4", "bouquet:3,5", "bouquet:4,4", "bouquet:3,4,5", "bouquet:5,5,4",
    "bouquet:3,3,3", "bouquet:3,3,6", "bouquet:4,6,8", "bouquet:5,7", "bouquet:3,4,4,5",
    "multipartite:1,1", "multipartite:1,3", "multipartite:2,3", "multipartite:1,1,3",
    "multipartite:1,2,3", "multipartite:2,2,2", "multipartite:1,1,1,2", "multipartite:3,3,3",
    "multipartite:1,2,2,4", "multipartite:1,4",
    "petersen",
    *(f"randtree:{n}:{seed}" for n in range(3, 25) for seed in range(5)),
)
FORMS_DIGEST = "790588ce48443bb69fea2132efc9b850407154b829a741e1cf0f1eeae6c000bf"


def _answer(evaluate, *args):
    try:
        return evaluate(*args)
    except MetricDimError as exc:  # the error is part of the pinned answer
        return type(exc).__name__, str(exc)


def test_closed_forms_pinned_on_atlas_and_families():
    graphs = list(atlas()) + [generate(spec)[0] for spec in FORMS_SPECS]
    found = [
        (_answer(dim_formula, g), _answer(cdim_formula, g),
         [_answer(cdim_at_vertex_formula, g, v) for v in range(g.n)],
         _answer(cdim_at_vertex_formula, g, g.n))
        for g in graphs
    ]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == FORMS_DIGEST


# The sun has four degree-2 vertices, as a grid has; its n and m rule the grid out.
DISTANCE_KINDS = {
    "wheel:9": "wheel", "bouquet:3,4,5": "bouquet", "multipartite:2,2,3": "multipartite",
    "randtree:12:1": "tree", "petersen": "petersen", "grid:4x3": "grid", "sun:3:0,0,3": None,
}


@pytest.mark.parametrize("spec, calls", [
    ("wheel:9", 0), ("bouquet:3,4,5", 0), ("multipartite:2,2,3", 0), ("randtree:12:1", 0),
    ("petersen", 0), ("grid:4x3", 1), ("sun:3:0,0,3", 0),
])
def test_recognize_computes_distances_only_where_read(monkeypatch, spec, calls):
    count = [0]
    real = formulas.all_pairs_distances

    def counted(g):
        count[0] += 1
        return real(g)

    monkeypatch.setattr(formulas, "all_pairs_distances", counted)
    g, _ = generate(spec)
    rec = recognize(g)
    assert (rec and rec.kind) == DISTANCE_KINDS[spec]
    assert count[0] == calls


def _paw():
    """The triangle with a pendant edge: unicyclic, no cycle, and no family recognizes it."""
    return next(g for g in atlas() if g.n == 4 and g.m == 4 and max(map(g.degree, range(g.n))) == 3)


@pytest.mark.parametrize("graph, kind", [(_paw, None), (lambda: generate("randtree:12:1")[0], "tree")],
                         ids=["paw", "randtree:12:1"])
def test_recognize_tests_connectivity_once(monkeypatch, graph, kind):
    g = graph()
    count = [0]
    real = Graph.is_connected

    def counted(self):
        count[0] += 1
        return real(self)

    monkeypatch.setattr(Graph, "is_connected", counted)
    rec = recognize(g)
    assert (rec and rec.kind) == kind
    assert count[0] == 1


def test_tree_formulas_test_connectivity_once_per_call(monkeypatch):
    # recognize tests it, once per graph object; the skeleton behind the tree
    # forms does not test it again.
    g, _ = generate("randtree:12:1")
    count = [0]
    real = Graph.is_connected

    def counted(self):
        count[0] += 1
        return real(self)

    monkeypatch.setattr(Graph, "is_connected", counted)
    dim_formula(g)
    assert count[0] == 1
    for v in range(g.n):
        cdim_at_vertex_formula(g, v)
    assert count[0] == 1


def test_skeleton_rejects_a_disconnected_graph_with_tree_size():
    with pytest.raises(NotATree):
        tree_skeleton(build_graph(4, [(0, 1), (1, 2), (0, 2)]))


@pytest.mark.parametrize("s, t", [(3, 3), (4, 4), (5, 3), (4, 3), (6, 2)])
def test_grid_recognizer_on_relabelled_grids(s, t):
    rng = random.Random(s * 10 + t)
    g, _ = generate(f"grid:{s}x{t}")
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        rec = recognize(h)
        assert rec.kind == "grid" and (rec.data["s"], rec.data["t"]) == (s, t)
        coords = rec.data["coords"]
        assert sorted(coords) == [(i, j) for i in range(1, s + 1) for j in range(1, t + 1)]
        for u, v in h.edges():
            assert abs(coords[u][0] - coords[v][0]) + abs(coords[u][1] - coords[v][1]) == 1


def test_petersen_recognizer_refuses_four_cycles():
    # Cubic and triangle-free on 10 vertices, like the Petersen graph, but with four-cycles.
    rim = [(i, (i + 1) % 5) for i in range(5)]
    prism = build_graph(10, rim + [(u + 5, w + 5) for u, w in rim] + [(i, i + 5) for i in range(5)])
    for g in (prism, moebius_ladder(10)):
        assert recognize(g) is None


@pytest.mark.parametrize("n, edges", [
    # Disconnected.
    (4, [(0, 1), (2, 3)]),
    # Petersen's order and size, not cubic.
    (10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 2), (0, 5), (3, 7), (4, 8), (6, 9)]),
    # Cubic on 10 vertices, with a triangle.
    (10, [(0, 1), (0, 6), (0, 8), (1, 2), (1, 3), (2, 5), (2, 6), (3, 7), (3, 8), (4, 5), (4, 7),
          (4, 9), (5, 9), (6, 9), (7, 8)]),
    # Four corners, and n and m of a 3 x 3 grid; a coordinate of the wrong parity.
    (9, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 7), (3, 4), (3, 6), (4, 5), (4, 6), (5, 7), (5, 8),
         (7, 8)]),
    # Four corners, and n and m of a 4 x 3 grid; coordinates in range that repeat.
    (12, [(0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 8), (5, 6), (5, 9),
          (6, 8), (6, 10), (7, 9), (7, 11), (9, 10), (10, 11)]),
])
def test_recognizer_rejections_have_no_closed_form(n, edges):
    g = build_graph(n, edges)
    assert recognize(g) is None
    with pytest.raises(Unsupported):
        dim_formula(g)


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


def test_classify_path_beside_a_cycle_is_not_a_path():
    # n - 1 edges, two leaves and no degree above two, but disconnected.
    g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
    cls = classify_extremes(g, 0)
    assert not cls.cdim_is_one and cls.graph_case is None and not cls.cdim_at_is_one


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


@pytest.mark.parametrize("spec, v", [("path:4", -1), ("fork:3,7", 7), ("fork:3,7", -1),
                                     ("complete:4", 9)])
def test_classify_refuses_a_vertex_outside_the_graph(spec, v):
    g, _ = generate(spec)
    with pytest.raises(MetricDimError, match=f"^vertex {v} out of range$"):
        classify_extremes(g, v)


def test_cdim_at_vertex_formula_refuses_a_vertex_before_recognition(monkeypatch):
    # kite:3 has no closed form: recognizing it first would raise Unsupported and
    # replace the wheel's record.
    wheel, kite = generate("wheel:9")[0], generate("kite:3")[0]
    want = cdim_formula(wheel)
    with pytest.raises(InvalidAnchor, match="^vertex 99 out of range$"):
        cdim_at_vertex_formula(kite, 99)
    monkeypatch.setattr(formulas, "recognize", None)
    assert cdim_formula(wheel) == want


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


def test_fr_membership_reads_every_generated_role():
    # fr_graph states the layered rules and fr_membership reads the roles off
    # the anchor codes: on every sample the two agree vertex by vertex.
    for r in range(9):
        for seed in range(60):
            g, labels = generate(f"fr:{r}:{seed}")
            res = fr_membership(g)
            assert res.base_pair == (0, 1), (r, seed)
            assert res.roles == dict(enumerate(labels)), (r, seed)


def test_fr_membership_reads_the_graph_alone():
    # The answer is about g, so no caller's matrix enters it: a star's would
    # refute every edge of path:5.
    for spec in ("path:5", "path:6"):
        res = fr_membership(generate(spec)[0])
        assert (res.member, res.base_pair) == (True, (0, 1)), spec
    g = generate("path:5")[0]
    with pytest.raises(TypeError):
        fr_membership(g, all_pairs_distances(generate("star:5")[0]))


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
        assert fr_membership(g).member == (cdim_exact(g).value <= 2), sorted(g.edges())


# Every connected atlas graph: fr_membership in full, refutations included, and
# classify_extremes of the graph and of each vertex.
FR_DIGEST = "157c8b81554bff6b55d4b2cde3ebcf6856cfac7c0845e0f66eca8619f5691b2a"
EXTREMES_DIGEST = "0ee59bb050fb7e156d6800009cbac52211997f8f746a4d415db43c53f009980f"


def test_fr_membership_pinned_on_atlas():
    found = [fr_membership(g) for g in atlas()]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == FR_DIGEST


def test_classify_extremes_pinned_on_atlas():
    found = [[classify_extremes(g), *(classify_extremes(g, v) for v in range(g.n))]
             for g in atlas()]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == EXTREMES_DIGEST


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


# Every unicyclic atlas graph, then every sun with cycle length 3-6 and legs of 0-2
# vertices: the classification, case and cycle tuple.
UNICYCLIC_DIGEST = "7d201e06b5dd18beb78648db8de06de81850cd03ff4f86f01782d2771eca249e"


def test_unicyclic_classification_pinned():
    graphs = [g for g in atlas() if g.m == g.n]
    for m in range(3, 7):
        for legs in itertools.product(range(3), repeat=m):
            graphs.append(generate(f"sun:{m}:{','.join(map(str, legs))}")[0])
    found = [unicyclic_cdim_eq_dim(g) for g in graphs]
    assert len(found) == 1080 + sum(g.m == g.n for g in atlas())
    assert hashlib.sha256(repr(found).encode()).hexdigest() == UNICYCLIC_DIGEST


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


def test_tree_min_sets_past_the_cap_are_refused():
    # Five legs of 30 vertices: 5 * 30**4 = 4,050,000 minimum resolving sets.
    spider = build_graph(151, [(0 if i % 30 == 1 else i - 1, i) for i in range(1, 151)])
    with pytest.raises(TooMany, match=f"more than {formulas.TREE_ENUM_CAP} minimum resolving sets"):
        tree_min_resolving_sets(spider)


def test_tree_min_sets_equal_enumeration():
    spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert sorted(tree_min_resolving_sets(spider)) == enumerate_min_resolving_sets(spider)


@pytest.mark.parametrize("spec, v", [("wheel:9", 0), ("bouquet:3,5,4", 3), ("multipartite:1,2,3", 0)])
def test_cdim_at_vertex_formula_resolves_its_input_once(monkeypatch, spec, v):
    calls = []
    real = formulas.recognize

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(formulas, "recognize", counted)
    cdim_at_vertex_formula(family(spec), v)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the evaluators' memo of the last graph recognized


def _interleaved(graphs):
    """Each graph A with the next graph B as A, B, A and an equal but distinct copy of A."""
    for a, b in zip(graphs, graphs[1:] + graphs[:1]):
        yield from (a, b, a, distinct_copy(a))


def _evaluated(g):
    try:
        return [dim_formula(g), cdim_formula(g)] + [cdim_at_vertex_formula(g, v) for v in range(g.n)]
    except Unsupported:
        return None


def _unmemoized(g):
    rec = recognize(g)
    if rec is None:
        return None
    return [*formulas._forms(rec, g)[:2]] + [formulas._forms(rec, g, v)[2] for v in range(g.n)]


def test_formulas_on_interleaved_graphs_match_the_unmemoized_forms():
    graphs = list(atlas()) + [generate(spec)[0] for spec in RECOGNIZE_SPECS]
    for g in _interleaved(graphs):
        assert _evaluated(g) == _unmemoized(g), g


def test_mutating_a_recognize_result_changes_no_formula():
    g = family("bouquet:3,4,5")
    before = _evaluated(g)
    recognize(g).data.clear()
    assert _evaluated(g) == before
    h = family("wheel:9")
    recognize(h).data["rim"] = 6
    assert _evaluated(h) == _unmemoized(h)


@pytest.mark.parametrize("spec", ["wheel:9", "randtree:12:1", "grid:4x3", "bouquet:3,5,4", "kite:3"])
def test_formulas_recognize_a_graph_once_across_calls(monkeypatch, spec):
    calls = []
    real = formulas.recognize

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(formulas, "recognize", counted)
    g = family(spec)
    _evaluated(g)
    _evaluated(g)
    assert len(calls) == 1
    _evaluated(distinct_copy(g))  # an equal graph is another object: recognized afresh
    assert len(calls) == 2


# dim, cdim and cdim at each vertex, as the evaluators gave them before the skeleton was shared.
TREE_VALUES = {
    "randtree:12:1": (3, 5, (7, 6, 5, 5, 5, 5, 5, 5, 5, 6, 6, 7)),
    "randtree:40:3": (8, 25, (25, 25, 25, 25, 25, 26, 25, 25, 25, 25, 25, 26, 25, 25, 25, 25, 25,
                              25, 25, 25, 26, 25, 25, 25, 26, 25, 27, 25, 25, 25, 26, 25, 25, 25,
                              25, 25, 25, 26, 27, 28)),
}


@pytest.mark.parametrize("spec", TREE_VALUES)
def test_tree_forms_build_the_skeleton_once_per_graph(monkeypatch, spec):
    calls = []
    real = formulas._skeleton

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(formulas, "_skeleton", counted)
    g = family(spec)
    for h in (g, g, distinct_copy(g)):
        found = _evaluated(h)
        values = found[0].value, found[1].value, tuple(r.value for r in found[2:])
        assert values == TREE_VALUES[spec]
    assert len(calls) == 2 and calls[0] is g and calls[1] is not g
