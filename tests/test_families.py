import re
from pathlib import Path

import pytest

from metricdim import (
    FrLevel,
    GenerationFailed,
    InvalidSpec,
    RuleViolation,
    TooLarge,
    all_pairs_distances,
    check_resolving,
    generate,
    parse_spec,
    twin_partition,
)
from metricdim.families import (
    _KINDS,
    FamilySpec,
    edel_pair,
    fr_graph,
    fr_sample,
    order,
    vdel_pair,
)
from metricdim.graph import MAX_ORDER

ALL_SPECS = [
    "path:5", "cycle:7", "complete:4", "star:6", "multipartite:1,2,3",
    "wheel:9", "petersen", "grid:7x4", "bouquet:3,5,4", "paddle:6,5",
    "fork:3,7", "sun:8:1,0,3,1,0,2,0,0", "fr:3:11", "kite:3", "k33sub",
    "thetatails", "fantail:8", "vdel:6", "edel:3,4", "randtree:9:4",
    "rand:8:0.4:42",
]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_generated_graphs_are_connected_simple_and_deterministic(spec):
    g1, labels1 = generate(spec)
    g2, labels2 = generate(spec)
    assert g1.is_connected()
    assert labels1 == labels2 and len(set(labels1)) == g1.n
    assert sorted(g1.edges()) == sorted(g2.edges())
    assert all(not g1.has_edge(v, v) for v in range(g1.n))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_spec_text_round_trips(spec):
    parsed = parse_spec(spec)
    assert parse_spec(parsed.text()) == parsed


def test_paddle_is_clique_plus_tail():
    g, labels = generate("paddle:6,5")
    assert g.n == 11
    clique = [labels.index(f"u{i}") for i in range(6)]
    assert all(g.has_edge(a, b) for a in clique for b in clique if a < b)
    tail = [labels.index(f"w{j}") for j in range(1, 6)]
    assert g.has_edge(labels.index("u0"), tail[0])
    assert all(g.degree(w) == 2 for w in tail[:-1]) and g.degree(tail[-1]) == 1


def test_bouquet_of_four_triangles():
    g, labels = generate("bouquet:3,3,3,3")
    assert g.n == 9
    w = labels.index("w")
    assert g.degree(w) == 8


def test_generalized_sun_figure_size():
    g, _ = generate("sun:8:1,0,3,1,0,2,0,0")
    assert g.n == 15
    assert g.m == g.n  # unicyclic


def test_grid_and_wheel_counts():
    for s, t in ((2, 2), (5, 3), (7, 4)):
        g, _ = generate(f"grid:{s}x{t}")
        assert g.n == s * t and g.m == 2 * s * t - s - t
    for n in (3, 6, 10):
        g, _ = generate(f"wheel:{n}")
        assert g.n == n + 1 and g.m == 2 * n


def test_kite_twin_structure():
    k = 4
    g, labels = generate(f"kite:{k}")
    classes = set(twin_partition(g).classes)
    outer = tuple(sorted((labels.index("u1"), labels.index(f"u{k + 2}"))))
    inner = tuple(sorted(labels.index(f"u{i}") for i in range(2, k + 2)))
    assert outer in classes and inner in classes


def test_vdel_pair_differs_by_one_vertex():
    (g, labels_g), (t, labels_t) = vdel_pair(6)
    assert g.n == t.n + 1
    v = labels_g.index("v")
    assert v == g.n - 1
    nb = set(g.neighbors[v])
    assert nb == {labels_g.index("l1"), labels_g.index("l6")}
    assert sorted(t.edges()) == sorted(e for e in g.edges() if v not in e)


def test_edel_pair_differs_by_one_edge():
    (g, labels), (t, _) = edel_pair(3, 5)
    assert g.n == t.n and g.m == t.m + 1
    extra = set(g.edges()) - set(t.edges())
    assert extra == {tuple(sorted((labels.index("l1"), labels.index("s3"))))}


def test_fr_sample_level_codes():
    for seed in range(6):
        g, labels = generate(f"fr:4:{seed}")
        dm = all_pairs_distances(g)
        u, w = labels.index("u"), labels.index("w")
        assert g.has_edge(u, w)
        cert = check_resolving(g, dm, (u, w))
        assert cert.resolving
        for v in range(g.n):
            if v in (u, w):
                continue
            du, dw = dm.d(v, u), dm.d(v, w)
            a = min(du, dw)
            assert (du, dw) in {(a, a + 1), (a, a), (a + 1, a)}


def test_fr_level_one_codes_frozen():
    g, labels = fr_graph([FrLevel(x=True, y=True, z=True)])
    dm = all_pairs_distances(g)
    ix = {lab: i for i, lab in enumerate(labels)}
    cert = check_resolving(g, dm, (ix["u"], ix["w"]))
    assert cert.resolving
    assert cert.codes[ix["x1"]] == (1, 2)
    assert cert.codes[ix["y1"]] == (1, 1)
    assert cert.codes[ix["z1"]] == (2, 1)


def test_fr_sample_r_zero_is_single_edge():
    g, labels = fr_sample(0, 99)
    assert g.n == 2 and g.m == 1 and labels == ("u", "w")


def test_fr_graph_rule_violations_named():
    with pytest.raises(RuleViolation) as exc:
        fr_graph([FrLevel(), FrLevel(x=True)])
    assert exc.value.rule == "R5"
    with pytest.raises(RuleViolation) as exc:
        fr_graph([FrLevel(), FrLevel(z=True)])
    assert exc.value.rule == "R6"
    with pytest.raises(RuleViolation) as exc:
        fr_graph([FrLevel(x=True), FrLevel(y=True, y_attach="prev")])
    assert exc.value.rule == "R7"
    with pytest.raises(RuleViolation) as exc:
        fr_graph([FrLevel(x=True, intra=frozenset({"xy"}))])
    assert exc.value.rule == "R8"


def test_random_connected_golden_and_determinism():
    g, _ = generate("rand:8:0.4:42")
    golden = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 6), (3, 4),
        (3, 5), (3, 6), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    ]
    assert sorted(g.edges()) == golden


def test_random_connected_forced_k2():
    g, _ = generate("rand:2:1.0:123")
    assert g.n == 2 and g.m == 1


def test_random_connected_sparse_outcome_is_deterministic():
    def outcome():
        try:
            g, _ = generate("rand:5:0.01:7")
            return sorted(g.edges())
        except GenerationFailed:
            return "failed"

    assert outcome() == outcome()


def test_random_connected_stops_at_the_pair_budget(monkeypatch):
    import metricdim.families as families

    with pytest.raises(GenerationFailed, match="in 0 draws"):
        generate("rand:5000:0.0001:1")  # one draw alone is past the budget
    monkeypatch.setattr(families, "RAND_PAIR_BUDGET", 100)
    with pytest.raises(GenerationFailed, match="in 10 draws"):
        generate("rand:5:0.01:7")
    g, _ = generate("rand:8:0.4:42")  # connected on its first draw: unchanged
    assert g.m == 15


def test_random_tree_is_tree_and_deterministic():
    for seed in range(5):
        g, _ = generate(f"randtree:10:{seed}")
        h, _ = generate(f"randtree:10:{seed}")
        assert g.m == g.n - 1 and g.is_connected()
        assert sorted(g.edges()) == sorted(h.edges())


def test_out_of_domain_parameters_rejected():
    for bad in ("paddle:2,1", "paddle:3,0", "fork:1,5", "fork:4,5", "bouquet:3",
                "bouquet:3,2", "wheel:2", "sun:2:0,0", "sun:3:1,1", "grid:1x4",
                "fantail:5", "kite:2", "vdel:4", "edel:2,4", "edel:3,3",
                "rand:5:0.0:1", "multipartite:4"):
        with pytest.raises(InvalidSpec):
            generate(bad)


def test_unknown_spec_rejected():
    with pytest.raises(InvalidSpec, match="unknown family 'moebius'"):
        parse_spec("moebius:5", default_seed=7)
    with pytest.raises(InvalidSpec, match="unknown family ''"):
        parse_spec("")
    for call in (generate, order, FamilySpec.text):
        with pytest.raises(InvalidSpec, match="unknown family kind 'hypercube'"):
            call(FamilySpec("hypercube", (3,)))


@pytest.mark.parametrize("spec", ["petersen:3", "wheel:9:5", "grid:3x3:2", "paddle:5,3:1",
                                  "sun:8:1,0,3,1,0,2,0,0:1", "fr:3:11:2", "randtree:9:1:4",
                                  "rand:8:0.3:1:9"])
def test_extra_spec_fields_rejected(spec):
    with pytest.raises(InvalidSpec, match="malformed family spec"):
        parse_spec(spec, default_seed=1)


def test_seedless_random_spec_requires_default_seed():
    with pytest.raises(InvalidSpec):
        parse_spec("randtree:8")
    assert parse_spec("randtree:8", default_seed=5) == FamilySpec("randtree", (8, 5))


@pytest.mark.parametrize("text, params", [
    ("randtree:8", (8,)), ("randtree:8:", (8,)), ("fr:3", (3,)), ("fr:3:", (3,)),
    ("rand:8:0.5", (8, 0.5)), ("rand:8:0.5:", (8, 0.5)),
])
def test_omitted_or_empty_seed_takes_the_default_seed(text, params):
    with pytest.raises(InvalidSpec, match="needs a seed"):
        parse_spec(text)
    spec = parse_spec(text, default_seed=7)
    assert spec.params == params + (7,)
    assert spec.text() == text.rstrip(":") + ":7"


def test_a_given_seed_wins_over_the_default():
    assert parse_spec("randtree:8:3", default_seed=7) == FamilySpec("randtree", (8, 3))
    assert parse_spec("rand:8:0.5:0").params == (8, 0.5, 0)


@pytest.mark.parametrize("text", ["path:", "path", "fr::5", "fr", "sun:5:", "rand:8::1", "grid:"])
def test_only_a_seed_field_may_be_empty_or_missing(text):
    with pytest.raises(InvalidSpec):
        parse_spec(text, default_seed=7)


@pytest.mark.parametrize("text", ["grid:3x", "grid:3x3x3", "grid:3,3", "paddle:1,2,3",
                                  "paddle:4", "rand:8:x:1", "multipartite:2,,3", "wheel:9.0"])
def test_malformed_fields_rejected(text):
    with pytest.raises(InvalidSpec):
        parse_spec(text, default_seed=7)


def test_readme_grammar_names_exactly_the_table_kinds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Family spec grammar\n\n```\n(.*?)```", readme, re.S).group(1)
    kinds = [token.split(":")[0] for token in block.split()]
    assert len(kinds) == len(set(kinds))
    assert set(kinds) == set(_KINDS)


@pytest.mark.parametrize("spec", ALL_SPECS + [
    "wheel:4", "grid:3x5", "multipartite:2,2,5", "bouquet:4,4,6", "paddle:4,2", "fork:2,9",
    "sun:5:0,2,0,1,3", "kite:5", "vdel:9", "edel:5,7"])
def test_order_from_parameters_matches_the_built_graph(spec):
    parsed = parse_spec(spec)
    if parsed.kind in ("fr", "rand"):
        assert order(parsed) is None
    else:
        assert order(parsed) == generate(parsed)[0].n


@pytest.mark.parametrize("spec", ["path:99999999999999999999", "grid:3000x3000", "complete:100000",
                                  "multipartite:2000000,1", f"path:{MAX_ORDER + 1}",
                                  "rand:4400:1.0:1"])
def test_orders_past_the_cap_raise_before_building(spec):
    with pytest.raises(TooLarge, match=f"past the library cap {MAX_ORDER}"):
        generate(spec)


def test_fr_sample_stops_at_its_first_empty_level():
    for seed in range(20):
        small, labels = fr_sample(40, seed)
        huge, huge_labels = fr_sample(10**20, seed)
        assert huge_labels == labels and huge.adj_bits == small.adj_bits
