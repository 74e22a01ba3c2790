"""The solver's hitting-set search against exhaustive subset searches.

``_prepare`` drops every distinguisher mask that contains another, and the
search cuts a branch when its open slots cannot cover the twin deficit or a
packing of disjoint unhit masks.  Each cut may only remove branches without
a hit, so for every k from the lower bound to one past the answer, the walk
must yield exactly the resolving k-sets in lexicographic order, and growth
from ``_roots`` exactly the connected ones, each once.  Inputs are all 995
connected atlas graphs and four small family graphs; larger graphs pin the
values and witnesses the solvers returned before the cuts.
"""

from __future__ import annotations

import itertools

import pytest

import metricdim as md
from metricdim.graph import bits
from metricdim.solver import _connected_hits, _hitting_sets, _prepare, _roots

from conftest import atlas, naive_all_pairs, naive_resolves, subset_connected

FAMILY_GRAPHS = ("wheel:9", "petersen", "multipartite:3,3,3", "randtree:12:1")


def graphs():
    yield from ((f"atlas graph {i}", g) for i, g in enumerate(atlas()))
    yield from ((spec, md.generate(spec)[0]) for spec in FAMILY_GRAPHS)


def naive_masks(dists: list[dict[int, int]], n: int) -> set[int]:
    return {
        sum(1 << v for v in range(n) if dists[v][u] != dists[v][w])
        for u, w in itertools.combinations(range(n), 2)
    }


def test_prepare_keeps_exactly_the_inclusion_minimal_masks():
    for where, g in graphs():
        dm = md.all_pairs_distances(g)
        every = naive_masks(naive_all_pairs(g), g.n)
        minimal = [m for m in every if not any(o != m and o & m == o for o in every)]
        masks, twins, floor = _prepare(g, dm, g.n, g.n)
        assert masks == sorted(minimal, key=lambda m: (m.bit_count(), m)), where
        tp = md.twin_partition(g)
        classes = [c for c in tp.classes if len(c) > 1]
        assert sorted(twins) == sorted(sum(1 << v for v in c) for c in classes), where
        assert floor == max(1, tp.lower_bound(), md.dim_floor_from_diameter(g.n, dm.diam)), where


def test_cuts_keep_every_hit_and_its_order():
    for where, g in graphs():
        dists = naive_all_pairs(g)
        masks, twins, floor = _prepare(g, None, g.n, g.n)
        adj, full = g.adj_bits, g.vertex_mask()
        dim, cdim = md.dim_exact(g).value, md.cdim_exact(g).value
        for k in range(floor, cdim + 2):
            if k > g.n:
                break
            resolving = [c for c in itertools.combinations(range(g.n), k)
                         if naive_resolves(dists, c, g.n)]
            if k <= dim + 1:
                got = [tuple(bits(hit)) for hit in _hitting_sets(masks, twins, g.n, k)]
                assert got == resolving, (where, k)
            grown = []
            for cur, banned, nb in _roots(adj, g.n, k):
                unhit = [m for m in masks if not m & cur]
                hits = _connected_hits(adj, full, twins, unhit, cur, k - 1, banned, nb, [0])
                grown.extend(tuple(bits(hit)) for hit in hits)
            want = [c for c in resolving if subset_connected(g, c)]
            assert sorted(grown) == want, (where, k)


# Values and witnesses of the solvers before the search cuts.
PINS = [
    ("dim", "wheel:22", 9, (0, 1, 3, 6, 8, 11, 13, 16, 18)),
    ("cdim", "wheel:22", 10, (0, 1, 3, 6, 8, 11, 13, 16, 18, 22)),
    ("dim", "randtree:40:3", 8, (2, 8, 15, 16, 17, 21, 33, 35)),
    ("cdim", "randtree:40:3", 25, (0, 1, 2, 4, 6, 7, 8, 10, 12, 13, 14, 15, 16, 17, 19, 21, 23,
                                   25, 27, 28, 29, 31, 32, 33, 35)),
    ("cdim", "multipartite:4,4,4,4,4,4", 18, (0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17,
                                              18, 20, 21, 22)),
]


@pytest.mark.parametrize("op, spec, value, witness", PINS)
def test_witness_pins(op, spec, value, witness):
    g, _ = md.generate(spec)
    solve = md.dim_exact if op == "dim" else md.cdim_exact
    assert solve(g, cap=g.n) == (value, witness)
