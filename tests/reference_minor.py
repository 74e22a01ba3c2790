"""Reference branch-set search for the differential tests of ``has_minor``.

This is the library's earlier search, kept unchanged: from each seed it pops
states depth first and rebuilds every branch's neighbourhood from scratch,
and it expands every state that does not yet form a model, so nothing here
depends on the free-component reachability prune of ``metricdim.minor``.
The kernelization and the seed order are the library's earlier ones, kept
here unchanged: the kernel is a dict of sets, and its vertices are re-indexed
0..kn-1 in ascending order before the search, so nothing here shares the
library's bitmask kernel.  The component count of the cycle-rank floor is
the library's earlier one, on dicts of sets, and the planarity prefilter is
``networkx``, so neither depends on the bitmask walks of ``metricdim.graph``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from metricdim import Graph, InvalidSpec, TooLarge
from metricdim.graph import CAPS, bits
from metricdim.minor import Witness, _TARGETS


def _kernelize(g: Graph) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    adj: dict[int, set[int]] = {v: set(bits(g.adj_bits[v])) for v in range(g.n)}
    bags: dict[int, set[int]] = {v: {v} for v in range(g.n)}
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            deg = len(adj[v])
            if deg <= 1:
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v], bags[v]
                changed = True
            elif deg == 2:
                a, b = sorted(adj[v])
                adj[a].discard(v)
                adj[b].discard(v)
                del adj[v]
                bags[a] |= bags[v]
                del bags[v]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                changed = True
    return adj, bags


def _seed_sets(target: str, kn: int) -> Iterator[tuple[int, ...]]:
    if target == "K5":
        yield from itertools.combinations(range(kn), 5)
    else:
        for side_a in itertools.combinations(range(kn), 3):
            rest = [v for v in range(kn) if v not in side_a]
            for side_b in itertools.combinations(rest, 3):
                if side_a[0] < side_b[0]:  # side swap is an automorphism
                    yield side_a + side_b


def _component_count(adj: dict[int, set[int]]) -> int:
    seen: set[int] = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def _search_from_seed(
    adjm: Sequence[int],
    seed: tuple[int, ...],
    pairs: tuple[tuple[int, int], ...],
) -> Optional[tuple[int, ...]]:
    h = len(seed)
    start = tuple(1 << v for v in seed)
    seen: set[tuple[int, ...]] = set()
    stack = [start]
    while stack:
        branches = stack.pop()
        if branches in seen:
            continue
        seen.add(branches)
        used = 0
        nbhd = []
        for bm in branches:
            used |= bm
            nb = 0
            for v in bits(bm):
                nb |= adjm[v]
            nbhd.append(nb)
        unmet = None
        for i, j in pairs:
            if not nbhd[i] & branches[j]:
                unmet = (i, j)
                break
        if unmet is None:
            return branches
        i, j = unmet
        for side in (i, j):
            cand = nbhd[side] & ~used
            for v in bits(cand):
                grown = list(branches)
                grown[side] |= 1 << v
                stack.append(tuple(grown))
    return None


def has_minor(
    g: Graph, target: str, *, cap: Optional[int] = None
) -> tuple[bool, Optional[Witness]]:
    """Exact minor test for K5 or K33, with connected branch sets as witness."""
    if target not in _TARGETS:
        raise InvalidSpec(f"unknown minor target {target!r}; expected K5 or K33")
    effective_cap = CAPS["minor-search"] if cap is None else cap
    if g.n > effective_cap:
        raise TooLarge(
            f"n={g.n} exceeds the minor-search cap {effective_cap}; pass cap={g.n} to override"
        )
    h, pairs = _TARGETS[target]
    adj, bags = _kernelize(g)
    kn = len(adj)
    km = sum(len(nbs) for nbs in adj.values()) // 2
    needed_edges = len(pairs)
    # Cycle rank (first Betti number) is minor-monotone.
    components = _component_count(adj)
    rank = km - kn + components
    if kn < h or km < needed_edges or rank < needed_edges - h + 1:
        return False, None
    kernel_ids = sorted(adj)
    index = {v: i for i, v in enumerate(kernel_ids)}
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(kn))
    nxg.add_edges_from((index[u], index[v]) for u in adj for v in adj[u] if u < v)
    if nx.check_planarity(nxg, counterexample=False)[0]:
        return False, None  # planar graphs contain neither obstruction
    adjm = [0] * kn
    for u in adj:
        for v in adj[u]:
            adjm[index[u]] |= 1 << index[v]
    for seed in _seed_sets(target, kn):
        model = _search_from_seed(adjm, seed, pairs)
        if model is not None:
            witness = tuple(
                tuple(
                    sorted(
                        orig
                        for kv in bits(bm)
                        for orig in bags[kernel_ids[kv]]
                    )
                )
                for bm in model
            )
            return True, witness
    return False, None
