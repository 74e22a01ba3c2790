"""Shared test oracles, all implemented independently of the library's
algorithms: plain dict/queue BFS, DFS connectivity, and exhaustive
subset searches over itertools combinations; plus the hypothesis strategy
for random connected graphs, the connected graphs of the networkx atlas,
the Moebius ladders of the minor tests, and a fresh interpreter for probes
of what an import loads."""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys
from collections import deque

from hypothesis import assume, strategies as st

from metricdim import Graph, build_graph
from metricdim.graph import bits


@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [p for p, keep in zip(pairs, picks) if keep])
    assume(g.is_connected())
    return g


def moebius_ladder(n: int) -> Graph:
    """The Moebius ladder on n (even) vertices: a cycle plus its long diagonals."""
    half = n // 2
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + half) for i in range(half)])


def distinct_copy(g: Graph) -> Graph:
    """A graph equal to g that is another object, so no per-object memo has seen it."""
    return build_graph(g.n, g.edges())


def naive_bfs(g: Graph, source: int, removed: frozenset[int] = frozenset()) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in bits(g.adj_bits[v]):
            if u not in dist and u not in removed:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def naive_all_pairs(g: Graph) -> list[dict[int, int]]:
    return [naive_bfs(g, s) for s in range(g.n)]


def naive_is_connected(g: Graph, removed: frozenset[int] = frozenset()) -> bool:
    alive = [v for v in range(g.n) if v not in removed]
    if not alive:
        return True
    return len(naive_bfs(g, alive[0], removed)) == len(alive)


def naive_cut_vertices(g: Graph) -> set[int]:
    return {v for v in range(g.n) if not naive_is_connected(g, frozenset({v}))}


def naive_resolves(dists: list[dict[int, int]], members: tuple[int, ...], n: int) -> bool:
    codes = {tuple(dists[v][u] for u in members) for v in range(n)}
    return len(codes) == n


def subset_connected(g: Graph, members: tuple[int, ...]) -> bool:
    if not members:
        return True
    inside = set(members)
    seen = {members[0]}
    queue = deque([members[0]])
    while queue:
        v = queue.popleft()
        for u in bits(g.adj_bits[v]):
            if u in inside and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(members)


def brute_dim(g: Graph) -> tuple[int, tuple[int, ...]]:
    dists = naive_all_pairs(g)
    for k in range(1, g.n + 1):
        for comb in itertools.combinations(range(g.n), k):
            if naive_resolves(dists, comb, g.n):
                return k, comb
    raise AssertionError("unreachable")


def brute_cdim_at(g: Graph, anchor: tuple[int, ...] = ()) -> tuple[int, tuple[int, ...]]:
    dists = naive_all_pairs(g)
    anchor_set = set(anchor)
    for k in range(max(1, len(anchor_set)), g.n + 1):
        for comb in itertools.combinations(range(g.n), k):
            if not anchor_set <= set(comb):
                continue
            if not subset_connected(g, comb):
                continue
            if naive_resolves(dists, comb, g.n):
                return k, comb
    raise AssertionError("unreachable")


def brute_cdim(g: Graph) -> tuple[int, tuple[int, ...]]:
    return brute_cdim_at(g, ())


def brute_min_resolving_sets(g: Graph) -> list[tuple[int, ...]]:
    dists = naive_all_pairs(g)
    k = brute_dim(g)[0]
    return [
        comb
        for comb in itertools.combinations(range(g.n), k)
        if naive_resolves(dists, comb, g.n)
    ]


def graph_from_nx(nxg) -> Graph:
    mapping = {node: i for i, node in enumerate(sorted(nxg.nodes()))}
    edges = [(mapping[u], mapping[v]) for u, v in nxg.edges()]
    return build_graph(nxg.number_of_nodes(), edges)


@functools.cache
def atlas() -> tuple[Graph, ...]:
    """All 995 connected graphs on 2-7 vertices, from the networkx graph atlas."""
    import networkx as nx

    return tuple(
        graph_from_nx(nxg)
        for nxg in nx.graph_atlas_g()
        if nxg.number_of_nodes() >= 2 and nx.is_connected(nxg)
    )


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(code: str, *args: str) -> str:
    """Standard output of ``python -c code *args`` in a fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout
