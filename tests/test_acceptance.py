"""Acceptance suite.

Each criterion is one test that prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s``).  Graphs touched along the way are
registered, and the final cross-cutting test replays the solver invariants
over that registry (worker-count determinism on a deterministic subsample of
solver-scale graphs).
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

import metricdim as md
from metricdim.families import edel_pair, vdel_pair

from conftest import graph_from_nx, subset_connected


@dataclass
class Touched:
    name: str
    g: md.Graph
    dm: md.DistanceMatrix
    dim: Optional[md.SolveResult] = None
    cdim: Optional[md.SolveResult] = None
    profile: Optional[md.VertexProfile] = None


REGISTRY: list[Touched] = []


def touch(name, g, dm=None, dim=None, cdim=None, profile=None) -> Touched:
    entry = Touched(name, g, dm or md.all_pairs_distances(g), dim, cdim, profile)
    REGISTRY.append(entry)
    return entry


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:2d} ({desc}): FAIL", flush=True)
        raise
    print(f"\ncriterion {num:2d} ({desc}): PASS", flush=True)


# ---------------------------------------------------------------------------


def test_criterion_01_petersen():
    with criterion(1, "Petersen dimensions"):
        g, _ = md.generate("petersen")
        dm = md.all_pairs_distances(g)
        dim = md.dim_exact(g, dm)
        cdim = md.cdim_exact(g, dm)
        prof = md.vertex_profile(g, dm)
        assert dim.value == 3
        assert cdim.value == 4
        assert set(prof.per_vertex) == {4}
        for s in md.enumerate_min_resolving_sets(g, dm):
            assert all(not g.has_edge(a, b) for a, b in itertools.combinations(s, 2))
        touch("petersen", g, dm, dim, cdim, prof)


def test_criterion_02_wheels():
    with criterion(2, "wheel family closed forms"):
        for n in range(3, 13):
            g, labels = md.generate(f"wheel:{n}")
            dm = md.all_pairs_distances(g)
            dim = md.dim_exact(g, dm)
            cdim = md.cdim_exact(g, dm)
            prof = md.vertex_profile(g, dm)
            expected_dim = 3 if n in (3, 6) else (2 * n + 2) // 5
            expected_cdim = 3 if n == 3 else 2 if n in (4, 5) else (2 * n + 2) // 5 + 1
            assert dim.value == expected_dim, n
            assert cdim.value == expected_cdim, n
            if n in (4, 5):
                hub = labels.index("w")
                assert prof.per_vertex[hub] == 3
                assert all(
                    prof.per_vertex[v] == 2 for v in range(g.n) if v != hub
                )
            touch(f"wheel:{n}", g, dm, dim, cdim, prof)


def test_criterion_03_trees():
    with criterion(3, "random trees vs tree formulas"):
        for seed in range(200):
            n = 4 + seed % 11  # sizes 4..14
            g, _ = md.generate(f"randtree:{n}:{seed}")
            dm = md.all_pairs_distances(g)
            sk = md.tree_skeleton(g)
            dim = md.dim_exact(g, dm)
            prof = md.vertex_profile(g, dm)
            if sk.is_path:
                assert dim.value == 1
                assert prof.rrad == 1
            else:
                assert dim.value == sk.sigma - sk.ex, seed
                assert prof.rrad == len(sk.dset) + sk.sigma, seed
                for v in range(g.n):
                    f = md.cdim_at_vertex_formula(g, v)
                    anchored = md.cdim_at_set(g, [v], dm).value
                    assert f.value == anchored == prof.per_vertex[v], (seed, v)
                sets = md.tree_min_resolving_sets(g)
                assert sorted(sets) == md.enumerate_min_resolving_sets(g, dm), seed
            touch(f"randtree:{n}:{seed}", g, dm, dim, None, prof)


def test_criterion_04_grids():
    with criterion(4, "grid family closed forms"):
        for s in range(2, 6):
            for t in range(2, s + 1):
                g, labels = md.generate(f"grid:{s}x{t}")
                dm = md.all_pairs_distances(g)
                dim = md.dim_exact(g, dm, cap=25)
                assert dim.value == 2
                ix = {lab: i for i, lab in enumerate(labels)}
                corners = {
                    name: ix[f"u{i}.w{j}"]
                    for name, (i, j) in {
                        "nw": (1, 1), "ne": (1, t), "sw": (s, 1), "se": (s, t)
                    }.items()
                }
                expected_sets = {
                    tuple(sorted((corners["nw"], corners["ne"]))),
                    tuple(sorted((corners["nw"], corners["sw"]))),
                    tuple(sorted((corners["ne"], corners["se"]))),
                    tuple(sorted((corners["sw"], corners["se"]))),
                }
                assert set(md.enumerate_min_resolving_sets(g, dm, cap=25)) == expected_sets
                cdim = md.cdim_exact(g, dm, cap=25)
                assert cdim.value == t
                prof = md.vertex_profile(g, dm, cap=25)
                for i in range(1, s + 1):
                    for j in range(1, t + 1):
                        v = ix[f"u{i}.w{j}"]
                        if s == t:
                            expected = t if g.degree(v) <= 3 else t + 1
                        else:
                            expected = t if i in (1, s) else t + 1
                        assert prof.per_vertex[v] == expected, (s, t, i, j)
                touch(f"grid:{s}x{t}", g, dm, dim, cdim, prof)


def test_criterion_05_bouquets():
    with criterion(5, "bouquet family closed forms"):
        for m in (2, 3):
            for lengths in itertools.combinations_with_replacement((3, 4, 5, 6), m):
                g, _ = md.generate("bouquet:" + ",".join(map(str, lengths)))
                dm = md.all_pairs_distances(g)
                x_even = sum(1 for c in lengths if c % 2 == 0)
                b = sum(1 for c in lengths if c == 3)
                dim = md.dim_exact(g, dm)
                cdim = md.cdim_exact(g, dm)
                assert dim.value == (m if x_even == 0 else m + x_even - 1), lengths
                assert cdim.value == (m + 1 if b == m else 2 * m - b), lengths
                prof = md.vertex_profile(g, dm)
                for v in range(g.n):
                    f = md.cdim_at_vertex_formula(g, v)
                    assert f.value == prof.per_vertex[v], (lengths, v)
                touch(f"bouquet:{lengths}", g, dm, dim, cdim, prof)


def _partitions(n, k_min=2, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, 0, first):
            parts = (first,) + rest
            if k_min <= len(parts) or n - first > 0:
                yield parts


def test_criterion_06_complete_multipartite():
    with criterion(6, "complete multipartite closed forms"):
        for n in range(2, 11):
            for parts in set(_partitions(n)):
                if len(parts) < 2:
                    continue
                k, s = len(parts), sum(1 for a in parts if a == 1)
                g, labels = md.generate("multipartite:" + ",".join(map(str, parts)))
                dm = md.all_pairs_distances(g)
                dim = md.dim_exact(g, dm)
                assert dim.value == (n - k if s == 0 else n + s - k - 1), parts
                if n < 4:
                    continue  # the connected formulas assume order at least four
                cdim = md.cdim_exact(g, dm)
                expected_cdim = n - 1 if (s == 1 and k == 2) else dim.value
                assert cdim.value == expected_cdim, parts
                prof = md.vertex_profile(g, dm)
                sorted_parts = tuple(sorted(parts))
                singleton_first = sorted_parts[0] == 1 and s == 1 and k >= 3
                for v in range(g.n):
                    in_v1 = labels[v].startswith("w1.")
                    expected = cdim.value + (1 if singleton_first and in_v1 else 0)
                    assert prof.per_vertex[v] == expected, (parts, labels[v])
                touch(f"multipartite:{parts}", g, dm, dim, cdim, prof)


def test_criterion_07_paddle_realization():
    with criterion(7, "paddle realization sweep"):
        for a in range(3, 7):
            for b in range(1, 5):
                g, labels = md.generate(f"paddle:{a},{b}")
                dm = md.all_pairs_distances(g)
                ix = {lab: i for i, lab in enumerate(labels)}
                assert md.cdim_at_set(g, [ix["u0"]], dm).value == a - 1
                for j in range(1, b + 1):
                    assert md.cdim_at_set(g, [ix[f"w{j}"]], dm).value == a + j - 1
                dim = md.dim_exact(g, dm)
                prof = md.vertex_profile(g, dm)
                assert dim.value == a - 1
                assert set(prof.per_vertex) == set(range(a - 1, a + b)), (a, b)
                assert prof.rdiam == g.n - 1
                touch(f"paddle:{a},{b}", g, dm, dim, None, prof)


def test_criterion_08_resolving_radius_diameter():
    with criterion(8, "resolving radius vs diameter"):
        probabilities = (0.25, 0.4, 0.6)
        for seed in range(100):
            n = 2 + seed % 9  # sizes 2..10
            p = probabilities[seed % 3]
            g, _ = md.generate(f"rand:{n}:{p}:{seed}")
            dm = md.all_pairs_distances(g)
            prof = md.vertex_profile(g, dm)
            assert prof.rrad <= prof.rdiam <= prof.rrad + dm.diam, seed
            touch(f"rand:{n}:{p}:{seed}", g, dm, None, None, prof)
        g, labels = md.generate("fantail:8")
        dm = md.all_pairs_distances(g)
        prof = md.vertex_profile(g, dm)
        assert prof.rrad == 2 and dm.diam == 4
        assert prof.rdiam == prof.rrad + dm.diam == 6
        assert prof.per_vertex[labels.index("w4")] == g.n - 2 == 6
        touch("fantail:8", g, dm, None, None, prof)


def test_criterion_09_extremes_closure():
    with criterion(9, "extremes characterization closure (n <= 7)"):
        count = 0
        for ag in graph_atlas_g():
            n = ag.number_of_nodes()
            if not (2 <= n <= 7) or not nx.is_connected(ag):
                continue
            g = graph_from_nx(ag)
            dm = md.all_pairs_distances(g)
            prof = md.vertex_profile(g, dm)
            count += 1
            # graph-level characterization, derived independently of the classifier
            degrees = sorted(g.degree(v) for v in range(n))
            is_complete = g.m == n * (n - 1) // 2
            is_star = degrees == [1] * (n - 1) + [n - 1] and g.m == n - 1
            expect_top = is_complete or (is_star and n >= 4)
            assert (prof.rrad == n - 1) == expect_top, sorted(g.edges())
            cls = md.classify_extremes(g)
            assert cls.cdim_is_n_minus_one == expect_top
            assert cls.cdim_is_one == (prof.rrad == 1)
            for v in range(n):
                cv = md.classify_extremes(g, v)
                assert cv.cdim_at_is_one == (prof.per_vertex[v] == 1), (sorted(g.edges()), v)
                assert cv.cdim_at_is_n_minus_one == (prof.per_vertex[v] == n - 1), (
                    sorted(g.edges()),
                    v,
                )
            if count % 9 == 0:
                touch(f"atlas:{count}", g, dm, None, None, prof)
        assert count == 995


def test_criterion_10_fr_and_planarity():
    with criterion(10, "two-anchor family and planarity"):
        for seed in range(50):
            r = 1 + seed % 5
            g, _ = md.generate(f"fr:{r}:{seed}")
            dm = md.all_pairs_distances(g)
            cdim = md.cdim_exact(g, dm)
            assert cdim.value <= 2, seed
            assert md.fr_membership(g).member, seed
            assert md.is_planar_desk(g, cap=max(20, g.n)), seed
            touch(f"fr:{r}:{seed}", g, dm, None, cdim)
        for k in range(3, 7):
            g, _ = md.generate(f"kite:{k}")
            dm = md.all_pairs_distances(g)
            cdim = md.cdim_exact(g, dm)
            assert cdim.value == k
            found, witness = md.has_minor(g, "K5")
            assert found and md.verify_minor_witness(g, "K5", witness)
            touch(f"kite:{k}", g, dm, None, cdim)
        g, labels = md.generate("k33sub")
        dm = md.all_pairs_distances(g)
        dim = md.dim_exact(g, dm)
        assert dim.value == 2
        u2, u3 = labels.index("u2"), labels.index("u3")
        assert md.check_resolving(g, dm, (u2, u3)).resolving
        assert dm.d(u2, u3) == 2
        assert not md.fr_membership(g).member  # no adjacent pair resolves
        found, witness = md.has_minor(g, "K33")
        assert found and md.verify_minor_witness(g, "K33", witness)
        touch("k33sub", g, dm, dim)


def test_criterion_11_deletion_gaps():
    with criterion(11, "vertex and edge deletion gaps"):
        for k in (6, 7):
            (g, _), (tree, _) = vdel_pair(k)
            dm_g, dm_t = md.all_pairs_distances(g), md.all_pairs_distances(tree)
            cdim_tree = md.cdim_exact(tree, dm_t)
            cdim_g = md.cdim_exact(g, dm_g)
            assert cdim_tree.value == k + 2, k
            assert cdim_g.value <= 7, k
            assert cdim_tree.value - cdim_g.value >= k - 5, k
            touch(f"vdel:{k}", g, dm_g, None, cdim_g)
            touch(f"vdel-tree:{k}", tree, dm_t, None, cdim_tree)
        for k, a in ((3, 4), (3, 5), (4, 4)):
            (g, _), (tree, _) = edel_pair(k, a)
            dm_g, dm_t = md.all_pairs_distances(g), md.all_pairs_distances(tree)
            cdim_g = md.cdim_exact(g, dm_g)
            cdim_tree = md.cdim_exact(tree, dm_t)
            assert cdim_g.value - cdim_tree.value == a - 3, (k, a)
            touch(f"edel:{k},{a}", g, dm_g, None, cdim_g)
            touch(f"edel-tree:{k},{a}", tree, dm_t, None, cdim_tree)


def _random_unicyclic(seed: int) -> md.Graph:
    rng = random.Random(seed)
    if seed % 2 == 0:  # a generalized sun
        m = rng.randrange(3, 9)
        budget = 13 - m
        legs = []
        for _ in range(m):
            take = min(rng.randrange(0, 3), budget)
            budget -= take
            legs.append(take)
        g, _ = md.generate(f"sun:{m}:" + ",".join(map(str, legs)))
        return g
    n = rng.randrange(4, 14)
    tree, _ = md.generate(f"randtree:{n}:{seed}")
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not tree.has_edge(u, v)
    ]
    u, v = non_edges[rng.randrange(len(non_edges))]
    return md.build_graph(n, list(tree.edges()) + [(u, v)])


def test_criterion_12_unicyclic_classification():
    with criterion(12, "unicyclic equal-dimension classification"):
        suns = 0
        for seed in range(100):
            g = _random_unicyclic(seed)
            dm = md.all_pairs_distances(g)
            dim = md.dim_exact(g, dm)
            cdim = md.cdim_exact(g, dm)
            cls = md.unicyclic_cdim_eq_dim(g)
            assert cls.equal == (dim.value == cdim.value), seed
            if seed % 2 == 0:
                suns += 1
                m = len(cls.cycle)
                if m % 2:
                    assert dim.value == 2, seed
                else:
                    assert dim.value <= 3, seed
            touch(f"unicyclic:{seed}", g, dm, dim, cdim)
        assert suns == 50


def test_criterion_13_cross_cutting_invariants():
    if not REGISTRY:
        pytest.skip("registry empty: run the whole acceptance module, not this test alone")
    with criterion(13, "cross-cutting invariant suite"):
        assert len(REGISTRY) > 400
        seen: set[tuple] = set()
        deterministic_checked = 0
        for idx, entry in enumerate(REGISTRY):
            g, dm = entry.g, entry.dm
            key = (g.n, tuple(sorted(g.edges())))
            if key in seen:
                continue
            seen.add(key)
            tp = md.twin_partition(g)
            floor = md.dim_floor_from_diameter(g.n, dm.diam)
            if entry.dim is not None:
                assert floor <= entry.dim.value <= g.n - dm.diam
                assert md.check_resolving(g, dm, entry.dim.witness).resolving
                _assert_twin_bound(tp, entry.dim.witness)
            if entry.cdim is not None:
                assert md.check_resolving(g, dm, entry.cdim.witness).resolving
                assert subset_connected(g, entry.cdim.witness)
                _assert_twin_bound(tp, entry.cdim.witness)
                if entry.dim is not None:
                    assert entry.dim.value <= entry.cdim.value
            if entry.profile is not None:
                prof = entry.profile
                assert prof.rrad <= prof.rdiam <= prof.rrad + dm.diam
                assert all(prof.rrad <= x <= g.n - 1 for x in prof.per_vertex)
                for u, v in g.edges():
                    assert abs(prof.per_vertex[u] - prof.per_vertex[v]) <= 1
                if entry.dim is not None:
                    assert entry.dim.value <= prof.rrad
                if entry.cdim is not None:
                    assert entry.cdim.value == prof.rrad
            # worker-count determinism on a deterministic solver-scale sample
            if g.n <= 9 and idx % 11 == 0 and deterministic_checked < 60:
                deterministic_checked += 1
                assert md.dim_exact(g, dm) == md.dim_exact(g, dm, workers=2)
                assert md.cdim_exact(g, dm) == md.cdim_exact(g, dm, workers=2)
        assert deterministic_checked >= 30


def _assert_twin_bound(tp: md.TwinPartition, witness) -> None:
    chosen = set(witness)
    for cls in tp.classes:
        assert len(chosen & set(cls)) >= len(cls) - 1
