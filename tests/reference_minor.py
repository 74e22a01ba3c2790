"""Reference branch-set search for the differential tests of ``has_minor``.

This is the library's earlier search, kept unchanged: from each seed it pops
states depth first and rebuilds every branch's neighbourhood from scratch,
and it expands every state that does not yet form a model, so nothing here
depends on the free-component reachability prune of ``metricdim.minor``.
The kernelization and the seed order are shared with the library.  The
component count of the cycle-rank floor is the library's earlier one, on
dicts of sets, and the planarity prefilter is ``networkx``, so neither
depends on the bitmask walks of ``metricdim.graph``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from metricdim import Graph, InvalidSpec, TooLarge
from metricdim.graph import bits
from metricdim.minor import MINOR_CAP, Witness, _TARGETS, _kernelize, _seed_sets


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
    effective_cap = MINOR_CAP if cap is None else cap
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
