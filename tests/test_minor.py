import itertools

import pytest

from metricdim import (
    InvalidOption,
    InvalidSpec,
    TooLarge,
    build_graph,
    generate,
    has_minor,
    is_planar_desk,
    verify_minor_witness,
)
from metricdim import minor
from metricdim.graph import CAPS
from metricdim.minor import _seed_sets

from conftest import atlas, distinct_copy, moebius_ladder


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_kite_has_k5_minor(k):
    g, _ = generate(f"kite:{k}")
    found, witness = has_minor(g, "K5")
    assert found
    assert verify_minor_witness(g, "K5", witness)


def test_subdivided_k33_has_k33_minor():
    g, _ = generate("k33sub")
    found, witness = has_minor(g, "K33")
    assert found
    assert verify_minor_witness(g, "K33", witness)


def test_trees_have_no_obstruction_minor():
    for seed in (1, 5, 9):
        g, _ = generate(f"randtree:14:{seed}")
        assert has_minor(g, "K5", cap=20) == (False, None)
        assert has_minor(g, "K33", cap=20) == (False, None)


def test_k33_itself_lacks_k5_minor():
    g, _ = generate("multipartite:3,3")
    assert has_minor(g, "K33")[0]
    assert not has_minor(g, "K5")[0]  # cycle rank 4 < 6


def test_petersen_has_both_minors():
    g, _ = generate("petersen")
    for target in ("K5", "K33"):
        found, witness = has_minor(g, target)
        assert found and verify_minor_witness(g, target, witness)


def test_cap_enforced_and_overridable():
    g, _ = generate("grid:7x4")
    with pytest.raises(TooLarge):
        has_minor(g, "K5")
    assert has_minor(g, "K5", cap=28) == (False, None)


def test_unknown_target_is_an_invalid_spec():
    g, _ = generate("kite:3")
    witness = has_minor(g, "K5")[1]
    for check in (lambda: has_minor(g, "K4"), lambda: verify_minor_witness(g, "K4", witness)):
        with pytest.raises(InvalidSpec, match="unknown minor target 'K4'"):
            check()


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_is_an_invalid_option(cap):
    g, _ = generate("petersen")
    for target in ("K5", "K33"):
        with pytest.raises(InvalidOption, match="cap must be at least 1"):
            has_minor(g, target, cap=cap)
    # is_planar_desk answers these without the minor search.
    for spec in ("petersen", "complete:5", "complete:2"):
        with pytest.raises(InvalidOption, match="cap must be at least 1"):
            is_planar_desk(generate(spec)[0], cap=cap)


def test_planarity_examples():
    k5, _ = generate("complete:5")
    assert not is_planar_desk(k5)  # edge-count prefilter: 10 > 3*5-6
    grid, _ = generate("grid:7x4")
    assert is_planar_desk(grid, cap=28)
    kite, _ = generate("kite:3")
    assert not is_planar_desk(kite)
    k2 = build_graph(2, [(0, 1)])
    assert is_planar_desk(k2)


def test_planarity_cap_applies_after_the_trivial_answers():
    assert not is_planar_desk(generate("complete:21")[0])  # 210 > 3*21-6 edges
    assert is_planar_desk(build_graph(2, [(0, 1)]), cap=1)
    with pytest.raises(TooLarge, match="n=28 exceeds the minor-search cap 20; pass cap=28 to override"):
        is_planar_desk(generate("grid:7x4")[0])


def test_fr_members_are_planar():
    for seed in range(5):
        g, _ = generate(f"fr:5:{seed}")
        assert is_planar_desk(g, cap=max(20, g.n))


def test_k33_seeds_skip_the_swapped_sides():
    vertices = [0, 2, 3, 5, 6, 8, 11, 12, 15]
    swapped_out = [
        side_a + side_b
        for side_a in itertools.combinations(vertices, 3)
        for side_b in itertools.combinations([v for v in vertices if v not in side_a], 3)
        if side_a[0] < side_b[0]
    ]
    assert list(_seed_sets("K33", vertices)) == swapped_out
    assert len(swapped_out) == 84 * 20 // 2


def test_search_work_pinned_on_moebius_ladder(monkeypatch):
    """Seeds searched and states popped by ``has_minor`` on the 12- and
    16-vertex Moebius ladders and on ``rand:16:0.3:3``; the 12-vertex ladder
    and ``rand:16:0.3:3`` are the two minor graphs of the bench's ``search``
    workload.  The ban rule pops no state twice, the root ban keeps each
    branch at or above its seed vertex, a weaker dead test pops more states,
    and a weaker seed skip searches more seeds, and each still finds the
    same first model, so only this count shows them.  The ladders' queries look for automorphisms once past
    ``minor._FINDER_AFTER`` pops; the last row asks K33 of a ladder whose K5
    query found them, so it skips seeds from its first."""
    popped = []

    class CountingEnds(list):
        def __getitem__(self, branch):
            popped.append(branch)
            return super().__getitem__(branch)

    # Each pop reads its grown branch's pairs from the table once.
    for name, (ends, covered_by) in list(minor._TABLES.items()):
        monkeypatch.setitem(minor._TABLES, name, (CountingEnds(ends), covered_by))
    search = minor._search_from_seed
    seeds = []
    monkeypatch.setattr(minor, "_search_from_seed", lambda *a: seeds.append(a[2]) or search(*a))
    ladder = moebius_ladder(12)
    for g, target, want in [
        (moebius_ladder(12), "K5", (27, 531)),
        (moebius_ladder(12), "K33", (349, 836)),
        (moebius_ladder(16), "K5", (46, 4361)),
        (moebius_ladder(16), "K33", (1563, 16028)),
        (generate("rand:16:0.3:3")[0], "K5", (12, 103)),
        (generate("rand:16:0.3:3")[0], "K33", (54, 96)),
        (ladder, "K5", (27, 531)),
        (ladder, "K33", (309, 751)),
    ]:
        seeds.clear()
        popped.clear()
        assert has_minor(g, target, cap=g.n)[0]
        assert (len(seeds), len(popped)) == want, (g.n, target)


def test_witness_verifier_rejects_bad_models():
    g, _ = generate("kite:3")
    found, witness = has_minor(g, "K5")
    assert found
    broken = list(witness)
    broken[0] = broken[0] + broken[1]  # overlapping branch sets
    assert not verify_minor_witness(g, "K5", tuple(broken))
    assert not verify_minor_witness(g, "K5", witness[:4])
    broken = list(witness)
    broken[2] = broken[2] + broken[2][:1]  # a vertex twice in one branch set
    assert not verify_minor_witness(g, "K5", tuple(broken))
    broken = list(witness)
    broken[4] = broken[4] + (g.n,)  # a vertex outside the graph
    assert not verify_minor_witness(g, "K5", tuple(broken))
    assert not verify_minor_witness(g, "K5", ((),) + witness[1:])  # an empty branch set
    # Branch (0,) is no longer adjacent to branch (4,): s was the subdivision vertex between them.
    assert witness[0] == (0, 5) and witness[4] == (4,)
    assert not verify_minor_witness(g, "K5", ((0,),) + witness[1:])
    # K6 less the edge 4-5: every required pair touches, but branch (4, 5) is disconnected.
    k6 = build_graph(6, [p for p in itertools.combinations(range(6), 2) if p != (4, 5)])
    assert verify_minor_witness(k6, "K5", ((0,), (1,), (2,), (3,), (4,)))
    assert not verify_minor_witness(k6, "K5", ((0,), (1,), (2,), (3,), (4, 5)))
    # Without a2 the branch of u2 is still connected but no longer reaches w2.
    g, labels = generate("k33sub")
    u1, u2, u3, w1, w2, w3, a1, a2, b1, b2 = map(labels.index, "u1 u2 u3 w1 w2 w3 a1 a2 b1 b2".split())
    witness = ((u1,), (u2, a1, a2), (u3, b1, b2), (w1,), (w2,), (w3,))
    assert verify_minor_witness(g, "K33", witness)
    assert not verify_minor_witness(g, "K33", ((u1,), (u2, a1), (u3, b1, b2), (w1,), (w2,), (w3,)))


# Witnesses of the unpruned branch-set search (tests/reference_minor.py) on
# inputs where that search is too slow to run in the suite.
@pytest.mark.parametrize(
    "g, witness",
    [
        (
            moebius_ladder(16),
            ((0, 11, 12, 13, 14, 15), (2,), (4, 5, 6, 7, 8, 9), (1,), (3,), (10,)),
        ),
        (
            generate("rand:17:0.3:2")[0],
            ((0, 3, 7, 11, 15), (1, 2, 4, 6), (5,), (8, 13), (9,), (10, 12, 14)),
        ),
    ],
    ids=["moebius:16", "rand:17:0.3:2"],
)
def test_k33_witness_pinned(g, witness):
    assert has_minor(g, "K33", cap=g.n) == (True, witness)
    assert verify_minor_witness(g, "K33", witness)


# K5 witnesses of tests/reference_minor.py on the same inputs.
@pytest.mark.parametrize(
    "g, witness",
    [
        (moebius_ladder(16), ((0, 12, 13, 14, 15), (1, 2), (3, 4), (5, 6, 7, 8, 9), (10, 11))),
        (
            generate("rand:17:0.3:2")[0],
            ((0, 3, 7, 14), (1, 2, 4, 6), (5, 11, 12, 15), (8, 13), (9, 10)),
        ),
    ],
    ids=["moebius:16", "rand:17:0.3:2"],
)
def test_k5_witness_pinned(g, witness):
    assert has_minor(g, "K5", cap=g.n) == (True, witness)
    assert verify_minor_witness(g, "K5", witness)


# ---------------------------------------------------------------------------
# the kernel memo of the last graph seen

SHIPPED_SPECS = (
    "path:5", "cycle:7", "complete:4", "star:6", "multipartite:1,2,3", "wheel:9", "petersen",
    "grid:7x4", "bouquet:3,5,4", "paddle:6,5", "fork:3,7", "sun:8:1,0,3,1,0,2,0,0", "fr:3:11",
    "kite:3", "k33sub", "thetatails", "fantail:8", "vdel:6", "edel:3,4", "randtree:9:4",
    "rand:8:0.4:42", "multipartite:3,3", "complete:5", "kite:4",
)


def _answers(g):
    cap = max(CAPS["minor-search"], g.n)
    return has_minor(g, "K5", cap=cap), has_minor(g, "K33", cap=cap), is_planar_desk(g, cap=cap)


def test_minor_answers_on_interleaved_graphs_match_the_unmemoized_ones():
    graphs = list(atlas()) + [generate(spec)[0] for spec in SHIPPED_SPECS]
    # The minor answers of each graph on a copy seen alone, and its planarity from the graph itself.
    alone = {g.adj_bits: (*_answers(distinct_copy(g))[:2], minor._is_planar(g.adj_bits)) for g in graphs}
    # Each graph A with the next graph B as A, B, A and an equal but distinct copy of A.
    for a, b in zip(graphs, graphs[1:] + graphs[:1]):
        for g in (a, b, a, distinct_copy(a)):
            want = alone[g.adj_bits]
            assert _answers(g) == want, g
            for target, (found, model) in zip(("K5", "K33"), want):
                assert not found or verify_minor_witness(g, target, model)


@pytest.mark.parametrize("spec", ["petersen", "k33sub", "kite:3", "grid:4x3", "randtree:12:1",
                                  "multipartite:3,3", "wheel:9"])
def test_one_graph_is_kernelized_and_planarity_tested_once(monkeypatch, spec):
    calls = []
    for name in ("_kernelize", "_is_planar"):
        real = getattr(minor, name)
        monkeypatch.setattr(minor, name, lambda adj, real=real, name=name: calls.append(name) or real(adj))
    g, _ = generate(spec)
    for _ in range(2):
        _answers(g)
    assert sorted(calls) == ["_is_planar", "_kernelize"]


def test_an_empty_kernel_has_no_automorphisms():
    assert minor._automorphisms([0, 0, 0], 0) == []


def test_automorphisms_are_looked_for_only_after_real_work(monkeypatch):
    """No atlas graph and no small shipped family pops enough states to pay
    for the finder; the K5, K33 and planarity queries of one Moebius ladder
    object look for its automorphisms once and share them."""
    calls = []
    real = minor._automorphisms
    monkeypatch.setattr(minor, "_automorphisms", lambda adj, alive: calls.append(alive) or real(adj, alive))
    specs = ("petersen", "k33sub", "thetatails", "bouquet:3,4,5", "paddle:5,3", "kite:3", "fantail:7")
    for g in list(atlas()) + [generate(spec)[0] for spec in specs]:
        _answers(g)
    assert calls == []
    _answers(moebius_ladder(12))
    assert len(calls) == 1
