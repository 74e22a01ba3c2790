"""Every public solver against the reference searches of ``reference_solver``,
the solvers' growth walker against the earlier walker kept there, hit for
hit and in order, ``has_minor`` against the unpruned branch-set search of
``reference_minor``, the minor module's bitmask kernel against that
module's dict-of-sets one, ``is_planar_desk`` against having neither minor,
the minor module's bitmask planarity test against ``networkx``, and the
bitmask walks of ``metricdim.graph`` against removal and ``networkx``
oracles.

Inputs are all 995 connected graphs on 2-7 vertices from the networkx graph
atlas and random connected graphs from the shared hypothesis strategy; the
minor search also runs on the benchmark's two nonplanar kernels and on the
subdivided K3,3, and from every seed of the Petersen graph (K5 and K3,3) and
of the 12-vertex Moebius ladder (K5; every tenth seed for K3,3).  The root
ban runs against the unbanned search from every seed up to the first model
of the Petersen graph, the subdivided K3,3 and K5 and the 12-vertex Moebius
ladder.  The seed skip by automorphism runs, from the first seed and from its default start,
against the loop over every seed on the nonplanar atlas graphs, Moebius
ladders and relabelled symmetric graphs, and the automorphism finder
against ``networkx`` on the whole atlas and on minor kernels.  Values and
witnesses, every profile field and whole enumerations must be equal.  The
solvers run in a fixed order, and in the reverse order, on one object of each
atlas graph and of one graph per family kind, where each search starts at the
values the earlier calls proved; every result must equal the same call on an
equal copy that no solver has seen; so must every anchor that the proved
cdim witness answers, on the atlas graphs, the shipped families of the
benchmark's catalog plan and wheel:12.  The
walker runs on nine family and seeded graphs, on the plain masks and on the
masks with the vertices the twin rule forces, from every root start and from
single- and two-vertex anchors, and again with an incumbent, where it must keep
every reference hit that precedes it.  The planarity test sees every atlas graph, seeded G(n, p) graphs, edge-maximal
planar graphs with one edge added or moved, and nonplanar minor kernels.  The
kernel sees every atlas graph, disconnected ones included, and seeded random
graphs.  Cut vertices, components of seeded vertex subsets and complete
multipartite recognition are checked on the whole atlas.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings

import metricdim as md
import reference_minor as ref_minor
import reference_solver as ref
from metricdim.families import _KINDS
from metricdim.formulas import _recognize_multipartite
from metricdim.graph import bits, components, distance_levels
from metricdim import minor
from metricdim.minor import _TARGETS, _is_planar, _kernelize, _search_from_seed, _seed_sets
from metricdim.solver import _minimal, _pair_masks, _prepare, _roots, _Walker

from conftest import atlas, connected_graphs, distinct_copy, moebius_ladder, naive_cut_vertices


def pair_sample(g: md.Graph, offset: int) -> list[tuple[int, int]]:
    """Every third vertex pair, starting at ``offset`` mod 3."""
    return list(itertools.combinations(range(g.n), 2))[offset % 3 :: 3]


def assert_profiles_equal(got: md.VertexProfile, want: md.VertexProfile, where: str) -> None:
    for name in md.VertexProfile._fields:
        assert getattr(got, name) == getattr(want, name), (where, name)


def assert_matches_reference(g: md.Graph, pairs, where: str) -> None:
    dm = md.all_pairs_distances(g)
    assert md.dim_exact(g, dm) == ref.dim_exact(g, dm), where
    assert md.enumerate_min_resolving_sets(g, dm) == ref.enumerate_min_resolving_sets(g, dm), where
    assert md.cdim_exact(g, dm) == ref.cdim_exact(g, dm), where
    assert_profiles_equal(md.vertex_profile(g, dm), ref.vertex_profile(g, dm), where)
    for anchor in [(v,) for v in range(g.n)] + list(pairs):
        assert md.cdim_at_set(g, anchor, dm) == ref.cdim_at_set(g, anchor, dm), (where, anchor)


def test_atlas_has_every_connected_graph_up_to_seven_vertices():
    assert len(atlas()) == 995


def test_atlas_matches_reference():
    non_adjacent = 0
    for i, g in enumerate(atlas()):
        pairs = pair_sample(g, i)
        non_adjacent += sum(not g.has_edge(u, w) for u, w in pairs)
        assert_matches_reference(g, pairs, f"atlas graph {i}")
    assert non_adjacent > 1000


@given(connected_graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_reference(g):
    assert_matches_reference(g, list(itertools.combinations(range(g.n), 2)), "random graph")


# One graph of every family kind, small enough to enumerate.
SHARED_RECORD_SPECS = (
    "path:6", "cycle:7", "complete:5", "star:6", "multipartite:2,2,3", "wheel:9", "petersen",
    "grid:4x3", "bouquet:3,4,5", "paddle:5,3", "fork:3,7", "sun:5:0,2,0,1,3", "fr:3:11",
    "kite:3", "k33sub", "thetatails", "fantail:7", "vdel:6", "edel:3,4", "randtree:12:3",
    "rand:11:0.35:2",
)


def solver_calls(g: md.Graph) -> list:
    """Every solver on g, as (name, call) pairs in a fixed order: dim, cdim, cdim at
    each vertex and at one adjacent pair, the profile, the enumeration, then dim and
    cdim again."""
    pair = (0, (g.adj_bits[0] & -g.adj_bits[0]).bit_length() - 1)
    calls = [("dim", lambda h: md.dim_exact(h, cap=h.n)),
             ("cdim", lambda h: md.cdim_exact(h, cap=h.n))]
    calls += [(f"cdim_at {v}", lambda h, v=v: md.cdim_at_set(h, (v,), cap=h.n))
              for v in range(g.n)]
    calls += [(f"cdim_at {pair}", lambda h: md.cdim_at_set(h, pair, cap=h.n)),
              ("profile", lambda h: md.vertex_profile(h, cap=h.n)),
              ("enum", lambda h: md.enumerate_min_resolving_sets(h, cap=h.n)),
              ("dim again", lambda h: md.dim_exact(h, cap=h.n)),
              ("cdim again", lambda h: md.cdim_exact(h, cap=h.n))]
    return calls


def test_shared_record_specs_cover_every_family_kind():
    assert sorted(spec.split(":")[0] for spec in SHARED_RECORD_SPECS) == sorted(_KINDS)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_solvers_sharing_a_graph_object_match_fresh_copies(reverse):
    """Run in order on one object, each solver starts at the values the calls before it
    proved; reversed, the profile's values feed the anchored searches.  Each result
    must equal the same call on an equal graph that no solver has seen."""
    graphs = list(atlas()) + [md.generate(spec)[0] for spec in SHARED_RECORD_SPECS]
    for i, g in enumerate(graphs):
        calls = solver_calls(g)
        if reverse:
            calls.reverse()
        shared = [call(g) for _, call in calls]
        fresh = {}
        for (name, call), got in zip(calls, shared):
            fresh[name] = call(distinct_copy(g))
            assert got == fresh[name], (i, name)
        # The first minimum resolving set is the dim witness.
        assert fresh["enum"][0] == fresh["dim"].witness, i


# The shipped families of the benchmark's catalog plan, and wheel:12.
WITNESS_SPECS = ("petersen", "k33sub", "thetatails", "bouquet:3,4,5", "paddle:5,3", "fork:3,7",
                 "sun:4:1,0,2,0", "kite:3", "fantail:7", "wheel:12")


def test_anchors_answered_by_the_proved_witness_match_fresh_copies():
    """After ``cdim_exact`` has found W on one object, ``cdim_at_set`` answers every
    anchor inside W from W alone: the empty anchor, every vertex and pair of W, and
    W itself.  Each vertex outside W is still searched, from the floors the calls
    before it proved.  Every result must equal the same call on an equal graph
    that no solver has seen."""
    graphs = list(atlas()) + [md.generate(spec)[0] for spec in WITNESS_SPECS]
    anchors = 0
    for i, g in enumerate(graphs):
        w = md.cdim_exact(g).witness
        inside = [()] + [(v,) for v in w] + list(itertools.combinations(w, 2)) + [w]
        outside = [(v,) for v in range(g.n) if v not in w]
        for anchor in inside + outside:
            got = md.cdim_at_set(g, anchor)
            assert got == md.cdim_at_set(distinct_copy(g), anchor), (i, anchor)
        anchors += len(inside) + len(outside)
    assert (len(graphs), anchors) == (1005, 12300)


WALKER_SPECS = ("wheel:12", "wheel:17", "bouquet:3,4,5", "multipartite:3,3,3,3", "paddle:5,3",
                "rand:14:0.3:1", "rand:14:0.3:2", "rand:14:0.3:3", "randtree:14:1")


class ReferenceWalker:
    """The reference walker behind the solver walker's ``hits`` and ``done``, with no
    twin rule of its own.  It reads ``done`` from a one-element list, and takes the
    full mask and the banned vertices, those neither free nor in the set, for
    ``free``."""

    def __init__(self, adj):
        self.adj = adj
        self.box = [0]

    @property
    def done(self):
        return self.box[0]

    @done.setter
    def done(self, mask):
        self.box[0] = mask

    def hits(self, unhit, cur, r, free, nb):
        full = (1 << len(self.adj)) - 1
        return ref._connected_hits(self.adj, full, (), unhit, cur, r, full & ~(free | cur), nb,
                                   self.box)


def hit_streams(walker, twins, k, starts, grow_done):
    """The hits of a fresh ``walker`` from each (masks, start), in order.  With
    ``grow_done``, its ``done`` mask grows after each hit as ``vertex_profile`` grows
    it."""
    streams = []
    for masks, (cur, free, nb) in starts:
        unhit = [m for m in masks if not m & cur]
        stream = []
        for hit in walker.hits(unhit, cur, k - cur.bit_count(), free, nb):
            stream.append(hit)
            if grow_done:
                walker.done |= hit | sum(twins)
        streams.append(stream)
    return streams


def walker_levels(spec):
    """The walker's inputs on ``spec``, as (graph, twin classes, k, whether the masks
    force, [(masks, start)]): at each level from the floor up to cdim(G) + 1, the
    plain masks and the masks with the vertices the twin rule forces, from every
    root and from single- and two-vertex anchors (forced off each anchor)."""
    g, _ = md.generate(spec)
    forced, twins, floor = _prepare(g)
    plain = _minimal(_pair_masks(distance_levels(g.adj_bits), g.vertex_mask()))
    anchors = [1 << v for v in range(g.n)]
    anchors += [1 << u | 1 << v for u, v in itertools.combinations(range(g.n), 2)][::5]
    anchored = {a: _prepare(g, anchor=a)[0] for a in anchors}
    for k in range(floor, min(md.cdim_exact(g).value + 1, g.n) + 1):
        for masks in (plain, forced):
            starts = [(masks, start) for start in _roots(g.adj_bits, masks, k)]
            starts += [(masks if masks is plain else anchored[a],
                        (a, g.vertex_mask() ^ a, g.neighborhood_of_set(a)))
                       for a in anchors if a.bit_count() <= k]
            yield g, twins, k, masks is forced, starts


@pytest.mark.parametrize("spec", WALKER_SPECS)
def test_walker_yields_the_reference_hits_in_order(spec):
    """On the plain masks and on the masks with the vertices the twin rule forces,
    from the roots and from anchors (forced off each anchor)."""
    hits = 0
    for g, twins, k, forced, starts in walker_levels(spec):
        for grow_done in (False, True):
            got = hit_streams(_Walker(g.adj_bits), twins, k, starts, grow_done)
            want = hit_streams(ReferenceWalker(g.adj_bits), twins, k, starts, grow_done)
            assert got == want, (spec, k, forced, grow_done)
            hits += sum(map(len, got))
    assert hits


def precedes(a: int, b: int) -> bool:
    """Whether vertex set ``a`` comes before ``b`` in lexicographic order: the
    smallest vertex they differ in lies in ``a``."""
    diff = a ^ b
    return bool(diff & -diff & a)


@pytest.mark.parametrize("spec", WALKER_SPECS)
def test_walker_with_an_incumbent_keeps_every_reference_hit_that_precedes_it(spec):
    """With ``best`` set to a reference hit of a start (its first, middle, last and
    smallest), the walker from that start yields, in reference order, every
    reference hit that precedes ``best``, and no set the reference walker does not
    yield."""
    dropped = 0
    for g, twins, k, forced, starts in walker_levels(spec):
        streams = hit_streams(ReferenceWalker(g.adj_bits), twins, k, starts, False)
        for start, want in zip(starts, streams):
            if not want:
                continue
            smallest = min(want, key=lambda hit: tuple(bits(hit)))
            for best in {want[0], want[len(want) // 2], want[-1], smallest}:
                walker = _Walker(g.adj_bits)
                walker.best = best
                got = hit_streams(walker, twins, k, [start], False)[0]
                where = (spec, k, forced, start[1][0], best)
                assert ([h for h in got if precedes(h, best)]
                        == [h for h in want if precedes(h, best)]), where
                # Every set got yields is a reference hit, in reference order.
                rest = iter(want)
                assert all(h in rest for h in got), where
                dropped += len(want) - len(got)
    assert dropped


def minors_matching_reference(g: md.Graph, where: str, cap=None) -> int:
    """How many of K5 and K33 ``g`` has; asserts both answers equal the reference
    and that ``is_planar_desk`` holds exactly when neither minor is found."""
    found = 0
    for target in ("K5", "K33"):
        got = md.has_minor(g, target, cap=cap)
        assert got == ref_minor.has_minor(g, target, cap=cap), (where, target)
        found += got[0]
    assert md.is_planar_desk(g, cap=cap) == (found == 0), where
    return found


def test_atlas_minors_match_reference():
    found = sum(minors_matching_reference(g, f"atlas graph {i}") for i, g in enumerate(atlas()))
    assert found > 0


@given(connected_graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_random_graph_minors_match_reference(g):
    minors_matching_reference(g, "random graph")


def test_nonplanar_kernels_match_reference():
    for spec, found in [("moebius:12", 2), ("k33sub", 1), ("rand:16:0.3:3", 2)]:
        g = moebius_ladder(12) if spec == "moebius:12" else md.generate(spec)[0]
        assert minors_matching_reference(g, spec, cap=g.n) == found, spec


@pytest.mark.parametrize(
    "spec, target", [("petersen", "K5"), ("petersen", "K33"), ("moebius:12", "K5"), ("moebius:12", "K33")]
)
def test_every_seed_search_matches_reference(spec, target):
    """``has_minor`` stops at its first model, so here every seed is searched
    (every tenth of the Moebius ladder's 9,240 K3,3 seeds, which keeps the
    reference near a second): the pruned search must return the reference's
    model, or None, on each."""
    g = moebius_ladder(12) if spec == "moebius:12" else md.generate(spec)[0]
    adj, alive, _ = _kernelize(g.adj_bits)
    assert alive == (1 << g.n) - 1  # cubic: the kernel is the graph, indices and all
    pairs = _TARGETS[target][1]
    stride = 10 if (spec, target) == ("moebius:12", "K33") else 1
    seeds = list(_seed_sets(target, list(bits(alive))))[::stride]
    models = 0
    for seed in seeds:
        model = _search_from_seed(adj, alive, seed, target)
        assert model == ref_minor._search_from_seed(adj, seed, pairs), (spec, target, seed)
        models += model is not None
    assert 0 < models < len(seeds)


@pytest.mark.parametrize("target", ["K5", "K33"])
def test_root_ban_keeps_every_seed_up_to_the_first_model(target):
    """The root ban bars every vertex below seed[k] from branch k.  A model
    with such a vertex is also a model of an earlier seed, so from the first
    seed up to the first seed with a model the banned search must return what
    the unbanned one does.  Past that seed the two may differ, and on the
    Petersen graph's K5 seeds they do: only ``has_minor``, which stops at its
    first model, sets the ban."""
    differ = 0
    for spec in ("petersen", "k33sub", "kite:3", "moebius:12"):
        g = moebius_ladder(12) if spec == "moebius:12" else md.generate(spec)[0]
        adj, alive, _ = _kernelize(g.adj_bits)
        found = False
        for seed in _seed_sets(target, list(bits(alive))):
            banned = _search_from_seed(adj, alive, seed, target, None, minor._root_ban(seed, len(adj)))
            unbanned = _search_from_seed(adj, alive, seed, target)
            if found:
                differ += banned != unbanned
                continue
            assert banned == unbanned, (spec, target, seed)
            found = unbanned is not None
            if found and spec != "petersen":
                break
    assert differ > 0 or target == "K33"


def nx_graph(g: md.Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


def relabelled(g: md.Graph, seed: int) -> md.Graph:
    """g with its vertices renamed by a seeded random permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return md.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def unskipped_has_minor(g: md.Graph, target: str) -> tuple[bool, object]:
    """``has_minor``'s seed loop over every seed of ``_seed_sets``, none skipped."""
    adj, alive, bags = _kernelize(g.adj_bits)
    for seed in _seed_sets(target, list(bits(alive))):
        model = _search_from_seed(adj, alive, seed, target)
        if model is not None:
            return True, tuple(tuple(bits(sum(bags[v] for v in bits(bm)))) for bm in model)
    return False, None


def symmetric_minor_inputs() -> list[tuple[str, md.Graph]]:
    """Nonplanar graphs with automorphisms: the nonplanar atlas graphs, three
    shipped families, Moebius ladders, and relabelled symmetric graphs."""
    graphs = [(f"atlas graph {i}", g) for i, g in enumerate(atlas())
              if not nx.check_planarity(nx_graph(g))[0]]
    graphs += [(spec, md.generate(spec)[0]) for spec in ("petersen", "k33sub", "kite:3")]
    graphs += [(f"moebius:{n}", moebius_ladder(n)) for n in (8, 10, 12, 14)]
    for spec in ("petersen", "multipartite:3,3,3", "complete:6"):
        g = md.generate(spec)[0]
        graphs += [(f"{spec} relabelled by {seed}", relabelled(g, seed)) for seed in range(5)]
    return graphs


@pytest.mark.parametrize("finder_after", [0, None], ids=["skip-from-the-first-seed", "default"])
def test_seed_skip_keeps_every_answer_and_witness(monkeypatch, finder_after):
    """With automorphisms looked for after the first seed, and at the default
    start, ``has_minor`` must return what the loop over every seed returns,
    on fresh objects, while searching fewer seeds in all."""
    if finder_after is not None:
        monkeypatch.setattr(minor, "_FINDER_AFTER", finder_after)
    searched = []
    search = minor._search_from_seed
    monkeypatch.setattr(minor, "_search_from_seed", lambda *a: searched.append(a[2]) or search(*a))
    everything = 0
    for where, g in symmetric_minor_inputs():
        for target in ("K5", "K33"):
            want = unskipped_has_minor(g, target)
            everything += len(searched)
            searched.clear()
            assert md.has_minor(distinct_copy(g), target, cap=g.n) == want, (where, target)
            assert not want[0] or md.verify_minor_witness(g, target, want[1])
    assert len(searched) < everything


def test_atlas_cut_vertices_match_removal_oracle():
    assert sum(bool(md.cut_vertices(g)) for g in atlas()) > 100
    for i, g in enumerate(atlas()):
        assert md.cut_vertices(g) == naive_cut_vertices(g), i


def test_atlas_components_match_networkx():
    rng = random.Random(3)
    split = 0
    for i, g in enumerate(atlas()):
        nxg = nx_graph(g)
        for mask in [g.vertex_mask()] + [rng.getrandbits(g.n) for _ in range(4)]:
            comps = sorted(nx.connected_components(nxg.subgraph(bits(mask))), key=min)
            want = [sum(1 << v for v in comp) for comp in comps]
            assert list(components(g.adj_bits, mask)) == want, (i, mask)
            assert g.is_connected_subset(mask) == (len(want) <= 1), (i, mask)
            split += len(want) > 1
    assert split > 1000


def test_atlas_multipartite_recognition_matches_networkx():
    recognized = 0
    for i, g in enumerate(atlas()):
        co = nx.complement(nx_graph(g))
        parts = [tuple(sorted(c)) for c in nx.connected_components(co)]
        cliques = all(co.subgraph(p).number_of_edges() == len(p) * (len(p) - 1) // 2 for p in parts)
        want = tuple(sorted(parts, key=lambda p: (len(p), p))) if cliques and len(parts) >= 2 else None
        assert _recognize_multipartite(g) == want, i
        recognized += want is not None
    assert recognized > 20


def masks_of(nxg: nx.Graph) -> list[int]:
    index = {v: i for i, v in enumerate(nxg.nodes())}
    adjm = [0] * len(index)
    for u, v in nxg.edges():
        adjm[index[u]] |= 1 << index[v]
        adjm[index[v]] |= 1 << index[u]
    return adjm


def planarity_matching_networkx(graphs) -> list[bool]:
    """The planarity of each graph; asserts it equals ``nx.check_planarity``."""
    answers = []
    for i, nxg in enumerate(graphs):
        planar = nx.check_planarity(nxg)[0]
        assert _is_planar(masks_of(nxg)) == planar, (i, sorted(nxg.edges()))
        answers.append(planar)
    return answers


def test_planarity_matches_networkx_on_the_atlas():
    graphs = nx.graph_atlas_g()
    answers = planarity_matching_networkx(graphs)
    assert len(answers) == 1253 and not all(answers)
    assert any(not planar and not nx.is_connected(g) for g, planar in zip(graphs[1:], answers[1:]))


def test_planarity_matches_networkx_on_random_graphs():
    rng = random.Random(20)
    graphs = [nx.gnp_random_graph(rng.randint(5, 20), rng.uniform(0.1, 0.4), seed=rng.randrange(2**32))
              for _ in range(800)]
    answers = planarity_matching_networkx(graphs)
    # Nonplanar graphs within the Euler bound reach the path-addition test.
    sparse = [planar for g, planar in zip(graphs, answers)
              if g.number_of_edges() <= 3 * g.number_of_nodes() - 6]
    assert sparse.count(True) > 100 and sparse.count(False) > 100


def maximal_planar(rng: random.Random, n: int) -> nx.Graph:
    """An edge-maximal planar graph: every non-edge, in random order, joins if planarity holds."""
    g = nx.empty_graph(n)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        g.add_edge(u, v)
        if not nx.check_planarity(g)[0]:
            g.remove_edge(u, v)
    return g


def test_planarity_matches_networkx_on_edge_maximal_planar_graphs():
    rng = random.Random(5)
    graphs = []
    for _ in range(60):
        g = maximal_planar(rng, rng.randint(5, 14))
        assert g.number_of_edges() == 3 * g.number_of_nodes() - 6
        extra = rng.choice([e for e in itertools.combinations(g, 2) if not g.has_edge(*e)])
        added = g.copy()
        added.add_edge(*extra)
        moved = added.copy()
        moved.remove_edge(*rng.choice(list(g.edges())))
        graphs += [g, added, moved]
    answers = planarity_matching_networkx(graphs)
    assert answers[0::3] == [True] * 60 and answers[1::3] == [False] * 60
    assert 0 < answers[2::3].count(False) < 60


@pytest.mark.parametrize("spec", ["moebius:12", "moebius:16", "moebius:20", "rand:16:0.3:3",
                                  "rand:17:0.3:2", "rand:18:0.3:20"])
def test_planarity_matches_networkx_on_minor_kernels(spec):
    n = int(spec.split(":")[1])
    g = moebius_ladder(n) if spec.startswith("moebius") else md.generate(spec)[0]
    adj, alive, _ = _kernelize(g.adj_bits)
    kernel = nx.Graph()
    kernel.add_nodes_from(bits(alive))
    kernel.add_edges_from((u, v) for u in bits(alive) for v in bits(adj[u]) if u < v)
    assert kernel.number_of_nodes() >= 5
    planar = planarity_matching_networkx([kernel])[0]
    # has_minor tests the kernel on the input's indices, removed vertices as zero masks.
    assert _is_planar(adj) == planar


def automorphisms_checked(adj, alive: int) -> list[list[int]]:
    """``minor._automorphisms`` of a kernel; asserts each map is a non-identity
    automorphism, met once, that fixes every removed vertex."""
    maps = minor._automorphisms(adj, alive)
    edges = {(u, v) for u in bits(alive) for v in bits(adj[u])}
    identity = list(range(len(adj)))
    assert len({tuple(img) for img in maps}) == len(maps) <= minor._FINDER_CAP
    for img in maps:
        assert sorted(img) == identity and img != identity
        assert all(img[v] == v for v in identity if not alive >> v & 1)
        assert {(img[u], img[v]) for u, v in edges} == edges
    return maps


def networkx_automorphisms(adj, alive: int, limit: int) -> int:
    """How many automorphisms, the identity included, networkx finds, up to ``limit``."""
    nxg = nx.Graph()
    nxg.add_nodes_from(bits(alive))
    nxg.add_edges_from((u, v) for u in bits(alive) for v in bits(adj[u]) if u < v)
    matches = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg).isomorphisms_iter()
    return sum(1 for _ in itertools.islice(matches, limit))


def test_automorphism_finder_matches_networkx_on_the_atlas():
    """At most 7 vertices allow fewer partial maps than the finder's node cap,
    so its count is exact below its map cap."""
    cap, capped, symmetric = minor._FINDER_CAP, 0, 0
    for i, g in enumerate(atlas()):
        maps = automorphisms_checked(g.adj_bits, g.vertex_mask())
        assert minor._automorphisms(distinct_copy(g).adj_bits, g.vertex_mask()) == maps, i
        want = networkx_automorphisms(g.adj_bits, g.vertex_mask(), cap + 2)
        if len(maps) < cap:
            assert len(maps) == want - 1, i
        else:
            assert want > cap, i
            capped += 1
        symmetric += bool(maps)
    assert capped > 0 and symmetric > 800


@pytest.mark.parametrize("spec, count", [("k33sub", 71), ("petersen", 119), ("moebius:12", 23),
                                         ("multipartite:3,3,3", 128), ("rand:16:0.3:3", 0)])
def test_automorphism_finder_on_minor_kernels(spec, count):
    g = moebius_ladder(12) if spec == "moebius:12" else md.generate(spec)[0]
    adj, alive, _ = _kernelize(g.adj_bits)
    maps = automorphisms_checked(adj, alive)
    assert len(maps) == count
    assert count == minor._FINDER_CAP or networkx_automorphisms(adj, alive, 10**4) == count + 1


def test_automorphism_finder_on_relabelled_and_ladder_kernels():
    """The finder's maps on the kernels of the shipped, ladder and relabelled
    inputs of the seed-skip test are automorphisms, and below the map cap
    they are all of them."""
    for where, g in symmetric_minor_inputs():
        if where.startswith("atlas graph"):
            continue  # the atlas test checks these
        adj, alive, _ = _kernelize(g.adj_bits)
        maps = automorphisms_checked(adj, alive)
        assert len(maps) == minor._FINDER_CAP or networkx_automorphisms(adj, alive, 10**4) == len(maps) + 1, where


def kernel_matching_reference(g: md.Graph) -> int:
    """The kernel's order; asserts the bitmask kernel equals the reference's dict-of-sets one."""
    adj, alive, bags = _kernelize(g.adj_bits)
    want_adj, want_bags = ref_minor._kernelize(g)
    assert list(bits(alive)) == sorted(want_adj)
    assert {v: set(bits(adj[v])) for v in bits(alive)} == want_adj
    assert {v: set(bits(bags[v])) for v in bits(alive)} == want_bags
    assert all(adj[v] == 0 for v in range(g.n) if not alive >> v & 1)
    return len(want_adj)


def test_kernel_matches_reference_on_the_whole_atlas():
    graphs = nx.graph_atlas_g()
    orders = []
    for nxg in graphs:
        rows = tuple(masks_of(nxg))
        g = md.Graph(n=len(rows), adj_bits=rows, m=nxg.number_of_edges())
        orders.append(kernel_matching_reference(g))
    assert len(orders) == 1253
    assert sum(k > 0 for k in orders) > 700 and sum(k == 0 for k in orders) > 400


def test_kernel_matches_reference_on_random_graphs():
    rng = random.Random(11)
    orders = []
    for seed in range(200):
        n = rng.randint(4, 16)
        g, _ = md.generate(f"rand:{n}:{rng.uniform(0.1, 0.5):.2f}:{seed}")
        orders.append(kernel_matching_reference(g))
    assert sum(k >= 5 for k in orders) > 80 and sum(k == 0 for k in orders) > 80
