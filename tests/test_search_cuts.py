"""The solver's hitting-set search against exhaustive subset searches.

``_prepare`` builds the distinguisher masks from BFS level sets of the graph,
adds a one-vertex mask for each vertex the twin rule forces, and drops every
mask that contains another.
The growth search tries candidates only up to the lowest top vertex of an
unhit mask they cover, starts no root past the lowest top vertex of a mask,
and cuts a branch when its open slots cannot cover a packing of disjoint
unhit masks.  The packing runs at every node; it cannot cut while no more
than r masks are unhit.  Each cut may only remove branches without a hit,
so for every k from the lower bound to one past the connected answer, growth
on the complete graph must yield exactly the resolving k-sets in
lexicographic order, and growth from ``_roots`` exactly the connected ones,
each once.  Inputs are all 995 connected atlas graphs and four small family
graphs; larger graphs pin the values, witnesses, profiles and enumerations
the solvers returned before these cuts, and the walker's call counts, which
alone show a cut that was weakened.

On the masks with the forced vertices, the same searches keep only the
lex-leaders under twin swaps: the sets that meet every twin class in a
prefix of it.  Grown from an anchor, with the vertices forced off it, they
keep the sets that meet the part of every class outside the anchor in a
prefix of that part.
"""

from __future__ import annotations

import io
import itertools

import pytest
from hypothesis import given, settings

import metricdim as md
from metricdim.cli import parse_graph_file
from metricdim.graph import bits, distance_levels
from metricdim import solver
from metricdim.solver import _Walker, _prepare, _roots

from conftest import atlas, connected_graphs, naive_all_pairs, naive_resolves, subset_connected

FAMILY_GRAPHS = ("wheel:9", "petersen", "multipartite:3,3,3", "randtree:12:1")
TWIN_GRAPHS = ("multipartite:3,3,3", "bouquet:3,4,5", "paddle:5,3")


def graphs(families=FAMILY_GRAPHS):
    yield from ((f"atlas graph {i}", g) for i, g in enumerate(atlas()))
    yield from ((spec, md.generate(spec)[0]) for spec in families)


def plain_hits(masks: list[int], n: int, k: int):
    """The walker's hits on the complete graph on range(n), over the roots in order."""
    full = (1 << n) - 1
    walker = _Walker([full ^ 1 << v for v in range(n)])
    return itertools.chain.from_iterable(walker.streams(masks, k))


def naive_masks(dists: list[dict[int, int]], n: int) -> set[int]:
    return {
        sum(1 << v for v in range(n) if dists[v][u] != dists[v][w])
        for u, w in itertools.combinations(range(n), 2)
    }


def naive_levels(g) -> list[list[int]]:
    levels = []
    for dist in naive_all_pairs(g):
        row = [0] * max(dist.values())
        for v, d in dist.items():
            if d:
                row[d - 1] |= 1 << v
        levels.append(row)
    return levels


def check_levels(where, g):
    assert distance_levels(g.adj_bits) == naive_levels(g), where


def naive_minimal(every) -> list[int]:
    """The masks of ``every`` that contain no other one, smallest first."""
    minimal = [m for m in every if not any(o != m and o & m == o for o in every)]
    return sorted(minimal, key=lambda m: (m.bit_count(), m))


def naive_forced(classes, anchor=()) -> set[int]:
    """One-vertex masks of every vertex but the top one of each class's part outside ``anchor``."""
    return {1 << v for c in classes for v in [v for v in c if v not in anchor][:-1]}


def check_prepare(where, g):
    dm = md.all_pairs_distances(g)
    every = naive_masks(naive_all_pairs(g), g.n)
    tp = md.twin_partition(g)
    for anchor in ((), (0,), (g.n - 1,)):
        masks, twins, floor = _prepare(g, anchor=sum(1 << v for v in anchor))
        forced = naive_forced(tp.classes, anchor)
        assert masks == naive_minimal(every | forced), (where, anchor)
        # Every set grown holds the anchor and the forced vertices.
        assert floor == max(len(anchor) + len(forced),
                            md.dim_floor_from_diameter(g.n, dm.diam)), (where, anchor)
    classes = [c for c in tp.classes if len(c) > 1]
    assert sorted(twins) == sorted(sum(1 << v for v in c) for c in classes), where


def test_distance_levels_match_a_plain_bfs():
    for where, g in graphs():
        check_levels(where, g)


def test_prepare_keeps_exactly_the_inclusion_minimal_masks():
    for where, g in graphs():
        check_prepare(where, g)


@given(connected_graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_levels_and_masks_on_random_graphs(g):
    check_levels("hypothesis graph", g)
    check_prepare("hypothesis graph", g)


SOLVERS = {
    "dim": md.dim_exact,
    "cdim": md.cdim_exact,
    "cdim_at": lambda g: md.cdim_at_set(g, (0,)),
    "profile": md.vertex_profile,
    "enum": md.enumerate_min_resolving_sets,
    "apsp": md.all_pairs_distances,
    "levels": lambda g: distance_levels(g.adj_bits),
}


@pytest.mark.parametrize("text", ["1 2\n3 4\n", "a b\nb c\nd e\n"])
@pytest.mark.parametrize("name", SOLVERS)
def test_disconnected_input_raises_not_connected(name, text):
    g, _ = parse_graph_file(io.StringIO(text))
    with pytest.raises(md.NotConnected, match="^graph is not connected$"):
        SOLVERS[name](g)


def test_cuts_keep_every_hit_and_its_order():
    for where, g in graphs():
        dists = naive_all_pairs(g)
        masks = naive_minimal(naive_masks(dists, g.n))
        floor = _prepare(g)[2]
        adj = g.adj_bits
        for k in range(floor, min(md.cdim_exact(g).value + 1, g.n) + 1):
            resolving = [c for c in itertools.combinations(range(g.n), k)
                         if naive_resolves(dists, c, g.n)]
            got = [tuple(bits(hit)) for hit in plain_hits(masks, g.n, k)]
            assert got == resolving, (where, k)
            grown = []
            for cur, free, nb in _roots(adj, masks, k):
                unhit = [m for m in masks if not m & cur]
                hits = _Walker(adj).hits(unhit, cur, k - 1, free, nb)
                grown.extend(tuple(bits(hit)) for hit in hits)
            want = [c for c in resolving if subset_connected(g, c)]
            assert sorted(grown) == want, (where, k)


def meets_in_prefixes(members, classes, fixed=()):
    """Whether ``members`` meets the part outside ``fixed`` of every class in a prefix of it."""
    for c in classes:
        inside = [v in members for v in c if v not in fixed]
        if inside != sorted(inside, reverse=True):
            return False
    return True


def test_twin_rule_keeps_exactly_the_prefix_sets():
    for where, g in graphs(TWIN_GRAPHS):
        dists = naive_all_pairs(g)
        classes = md.twin_partition(g).classes
        masks, _, floor = _prepare(g)
        adj = g.adj_bits
        for k in range(floor, min(md.cdim_exact(g).value + 1, g.n) + 1):
            leaders = [c for c in itertools.combinations(range(g.n), k)
                       if meets_in_prefixes(c, classes) and naive_resolves(dists, c, g.n)]
            got = [tuple(bits(hit)) for hit in plain_hits(masks, g.n, k)]
            assert got == leaders, (where, k)
            grown = []
            for cur, free, nb in _roots(adj, masks, k):
                unhit = [m for m in masks if not m & cur]
                hits = _Walker(adj).hits(unhit, cur, k - 1, free, nb)
                grown.extend(tuple(bits(hit)) for hit in hits)
            want = [c for c in leaders if subset_connected(g, c)]
            assert sorted(grown) == want, (where, k)


def test_twin_rule_from_an_anchor_keeps_exactly_the_prefix_sets_off_the_anchor():
    for where, g in graphs(TWIN_GRAPHS):
        dists = naive_all_pairs(g)
        classes = md.twin_partition(g).classes
        _, twins, floor = _prepare(g)
        if not twins:
            continue
        adj, full = g.adj_bits, g.vertex_mask()
        for a in range(g.n):
            cur = 1 << a
            unhit = [m for m in _prepare(g, anchor=cur)[0] if not m & cur]
            for k in range(max(floor, 1), min(md.cdim_at_set(g, (a,)).value + 1, g.n) + 1):
                hits = _Walker(adj).hits(unhit, cur, k - 1, full ^ cur, adj[a])
                grown = sorted(tuple(bits(hit)) for hit in hits)
                want = [c for c in itertools.combinations(range(g.n), k)
                        if a in c and meets_in_prefixes(c, classes, (a,))
                        and naive_resolves(dists, c, g.n) and subset_connected(g, c)]
                assert grown == want, (where, a, k)


# Values and witnesses of the solvers before the search cuts.
PINS = [
    ("dim", "wheel:22", 9, (0, 1, 3, 6, 8, 11, 13, 16, 18)),
    ("cdim", "wheel:22", 10, (0, 1, 3, 6, 8, 11, 13, 16, 18, 22)),
    ("dim", "randtree:40:3", 8, (2, 8, 15, 16, 17, 21, 33, 35)),
    ("cdim", "randtree:40:3", 25, (0, 1, 2, 4, 6, 7, 8, 10, 12, 13, 14, 15, 16, 17, 19, 21, 23,
                                   25, 27, 28, 29, 31, 32, 33, 35)),
    ("cdim", "multipartite:4,4,4,4,4,4", 18, (0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17,
                                              18, 20, 21, 22)),
    # Pinned before the twin rule.
    ("dim", "bouquet:4,4,4,4,4,4,4", 13, (1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19)),
    ("cdim", "bouquet:4,4,4,4,4,4,4", 14, (0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19)),
    ("cdim", "multipartite:4,4,4,4,4,4,4,4", 24, (0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17,
                                                  18, 20, 21, 22, 24, 25, 26, 28, 29, 30)),
]


@pytest.mark.parametrize("op, spec, value, witness", PINS)
def test_witness_pins(op, spec, value, witness):
    g, _ = md.generate(spec)
    solve = md.dim_exact if op == "dim" else md.cdim_exact
    assert solve(g, cap=g.n) == (value, witness)


# Profiles and minimum resolving sets of the solvers before growth replaced
# the include-first walk; the candidate bound removes most of their nodes.
PROFILE_PINS = [("wheel:22", 10), ("multipartite:4,4,4,4,4,4", 18), ("bouquet:4,4,4,4,4,4,4", 14)]

ENUM_PINS = [
    ("wheel:17", 289, (0, 1, 3, 6, 8, 11, 13), (3, 5, 8, 10, 13, 15, 16)),
    ("multipartite:3,3,3,3,3,3", 729, (0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16),
     (1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17)),
    # Pinned before the twin rule.
    ("multipartite:3,3,3,3,3", 243, (0, 1, 3, 4, 6, 7, 9, 10, 12, 13), (1, 2, 4, 5, 7, 8, 10, 11, 13, 14)),
    ("bouquet:4,4,4,4,4", 810, (1, 2, 4, 5, 7, 8, 10, 11, 13), (3, 5, 6, 8, 9, 11, 12, 14, 15)),
]


@pytest.mark.parametrize("spec, value", PROFILE_PINS)
def test_profile_pins(spec, value):
    g, _ = md.generate(spec)
    everyone = tuple(range(g.n))
    assert md.vertex_profile(g, cap=g.n) == md.VertexProfile(
        per_vertex=(value,) * g.n, rrad=value, rdiam=value, rc=everyone, rp=everyone)


@pytest.mark.parametrize("spec, count, first, last", ENUM_PINS)
def test_enumeration_pins(spec, count, first, last):
    g, _ = md.generate(spec)
    sets = md.enumerate_min_resolving_sets(g, cap=g.n)
    assert (len(sets), sets[0], sets[-1]) == (count, first, last)


def test_anchor_inside_a_twin_class_pin():
    # Pinned before the twin rule; vertex 1 is the middle of the class {0, 1, 2}.
    g, _ = md.generate("multipartite:3,3,3,3,3,3")
    assert md.cdim_at_set(g, (1,), cap=g.n) == (12, (0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16))



# Calls of ``_Walker.hits``, recursive ones included, now that a node with
# two slots open fills the last slot itself.  Every cut removes calls without
# changing a hit, so only a count shows a weakened cut; a change that prunes
# more lowers a pin and says so.  Each row builds its own Graph object, so no
# value an earlier call proved moves the level its search starts at.
NODE_PINS = [
    ("dim", "wheel:17", 238),
    ("cdim", "wheel:17", 383),
    ("profile", "wheel:17", 445),
    ("enum", "wheel:17", 727),
    ("cdim", "grid:7x7", 1450),
    ("cdim", "randtree:40:3", 29459),
    ("cdim", "multipartite:4,4,4,4,4,4", 21),
    ("dim", "bouquet:4,4,4,4,4,4,4", 535),
    ("profile", "bouquet:4,4,4,4,4,4,4", 363),
]
CAPPED = {"dim": md.dim_exact, "cdim": md.cdim_exact, "profile": md.vertex_profile,
          "enum": md.enumerate_min_resolving_sets}


@pytest.fixture
def walker_calls(monkeypatch):
    """A one-item list that counts the calls of ``_Walker.hits``."""
    calls = [0]
    real = solver._Walker.hits

    def counted(self, *args):
        calls[0] += 1
        return real(self, *args)

    # The recursion looks the method up on the class, so every call is counted.
    monkeypatch.setattr(solver._Walker, "hits", counted)
    return calls


@pytest.mark.parametrize("op, spec, nodes", NODE_PINS)
def test_walker_node_pins(walker_calls, op, spec, nodes):
    g, _ = md.generate(spec)
    CAPPED[op](g, cap=g.n)
    assert walker_calls[0] == nodes


def test_walker_node_pins_on_one_graph_object(walker_calls):
    """The seven wheel:17 solver queries of the benchmark's seed-1 search plan, in
    plan order on one Graph object: each search starts where the values that the
    calls before it proved end.  The hub anchor (17,) and the rim anchor (1,) lie
    in the witness W = (0, 1, 3, 6, 8, 11, 13, 17) that ``cdim_exact`` found, so
    W answers both with no walker call: cdim(G) <= cdim_G(A) <= |W| for A in W,
    and W is the smallest connected resolving set of size cdim(G).  (1, 2) does
    not lie in W and is searched.  A solver call on another object evicts that
    record, so the wheel's next query starts cold."""
    g, _ = md.generate("wheel:17")
    dm = md.all_pairs_distances(g)
    queries = [
        lambda: md.dim_exact(g, dm),
        lambda: md.cdim_exact(g, dm),
        lambda: md.cdim_at_set(g, (17,), dm),
        lambda: md.cdim_at_set(g, (1,), dm),
        lambda: md.cdim_at_set(g, (1, 2), dm),
        lambda: md.vertex_profile(g, dm),
        lambda: md.enumerate_min_resolving_sets(g, dm, cap=g.n),
    ]
    counts = []
    for query in queries:
        walker_calls[0] = 0
        query()
        counts.append(walker_calls[0])
    assert counts == [238, 293, 0, 0, 73, 138, 522]
    md.dim_exact(md.generate("petersen")[0])
    walker_calls[0] = 0
    md.cdim_exact(g, dm)
    assert walker_calls[0] == 383
