"""Desk-scale K5/K3,3 minor detection and the planarity check built on it.

The input is first shrunk by reductions that preserve presence of any
3-connected minor: vertices of degree at most one are deleted and degree-two
vertices are suppressed (merged into a neighbor).  Each kernel vertex keeps a
"bag" of original vertices so a model found in the kernel expands to branch
sets of the original graph.  A planar kernel has neither target minor, so an
exact planarity test dispatches the negative case quickly; otherwise an
exhaustive seeded branch-set search either finds a model or proves absence.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .errors import InvalidSpec, TooLarge
from .graph import Graph, bits

MINOR_CAP = 20

# Target name -> (branch count, required adjacent pairs).
_TARGETS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "K5": (5, tuple(itertools.combinations(range(5), 2))),
    "K33": (6, tuple((i, j) for i in range(3) for j in range(3, 6))),
}

Witness = tuple[tuple[int, ...], ...]


def _kernelize(g: Graph) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    adj: dict[int, set[int]] = {v: set(g.neighbors[v]) for v in range(g.n)}
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


def _seed_sets(target: str, kn: int) -> Iterator[tuple[int, ...]]:
    if target == "K5":
        yield from itertools.combinations(range(kn), 5)
    else:
        for side_a in itertools.combinations(range(kn), 3):
            rest = [v for v in range(kn) if v not in side_a]
            for side_b in itertools.combinations(rest, 3):
                if side_a[0] < side_b[0]:  # side swap is an automorphism
                    yield side_a + side_b


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
    # Imported here, not at module level: networkx is most of the package's
    # import time, and only this prefilter needs it.
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


def verify_minor_witness(g: Graph, target: str, witness: Witness) -> bool:
    """Check branch sets are disjoint, connected, and pairwise adjacent as required."""
    h, pairs = _TARGETS[target]
    if len(witness) != h:
        return False
    masks = []
    for branch in witness:
        mask = 0
        for v in branch:
            if not (0 <= v < g.n) or mask >> v & 1:
                return False
            mask |= 1 << v
        if mask == 0 or not g.is_connected_subset(mask):
            return False
        masks.append(mask)
    total = 0
    for mask in masks:
        if total & mask:
            return False
        total |= mask
    for i, j in pairs:
        if not g.neighborhood_of_set(masks[i]) & masks[j]:
            return False
    return True


def is_planar_desk(g: Graph, *, cap: Optional[int] = None) -> bool:
    """Planarity by obstruction minors, for desk-scale inputs only."""
    if g.n < 3:
        return True
    if g.m > 3 * g.n - 6:
        return False
    return not has_minor(g, "K5", cap=cap)[0] and not has_minor(g, "K33", cap=cap)[0]
