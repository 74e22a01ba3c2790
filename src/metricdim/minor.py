"""Desk-scale K5/K3,3 minor detection and an exact planarity test.

The planarity test works on adjacency bitmasks.  A graph is planar exactly
when each of its biconnected blocks is (``graph.blocks``).  A block with
more than 3n - 6 edges is nonplanar by Euler's formula; any other block is
embedded by the path-addition algorithm of Demoucron, Malgrange and
Pertuiset (1964).  It embeds one cycle, then repeatedly looks at the
fragments: each unembedded edge between embedded vertices, and each
component of the unembedded vertices together with its attachments (its
embedded neighbours).  A face is admissible for a fragment when the face's
boundary holds every attachment.  If some fragment has no admissible face
the block is nonplanar.  Otherwise a fragment with exactly one admissible
face, or else any fragment, gets a path between two of its attachments drawn
through that face, which splits the face in two.  For a 2-connected graph
this succeeds exactly when the graph is planar.  ``is_planar_desk`` answers
from this test alone.

For a minor, the input is first shrunk by reductions that preserve presence
of any 3-connected minor: vertices of degree at most one are deleted and
degree-two vertices are suppressed (merged into a neighbor).  Each kernel
vertex keeps a "bag" of original vertices so a model found in the kernel
expands to branch sets of the original graph.  A planar kernel has neither
target minor, so the planarity test dispatches the negative case quickly;
otherwise an exhaustive seeded branch-set search either finds a model or
proves absence.

The search grows one branch of the first unmet pair at a time, depth first,
into free vertices (those in no branch).  A state is dead when some unmet
pair (i, j) has no free component touching both branch i and branch j:
branches grow only into free vertices, so they can become adjacent only
through a path whose interior lies in one free component that touches both.
Dead states are not expanded.  No model extends a dead state, so the
live states are popped in the same order as without the prune, and the first
model found is the same.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .errors import InvalidSpec
from .graph import Graph, bits, blocks, check_cap, components

MINOR_CAP = 20

# Target name -> (branch count, required adjacent pairs).
_TARGETS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "K5": (5, tuple(itertools.combinations(range(5), 2))),
    "K33": (6, tuple((i, j) for i in range(3) for j in range(3, 6))),
}

Witness = tuple[tuple[int, ...], ...]


def _target(target: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    if target not in _TARGETS:
        raise InvalidSpec(f"unknown minor target {target!r}; expected K5 or K33")
    return _TARGETS[target]


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


def _seed_sets(target: str, kn: int) -> Iterator[tuple[int, ...]]:
    if target == "K5":
        yield from itertools.combinations(range(kn), 5)
    else:
        for side_a in itertools.combinations(range(kn), 3):
            rest = [v for v in range(kn) if v not in side_a]
            for side_b in itertools.combinations(rest, 3):
                if side_a[0] < side_b[0]:  # side swap is an automorphism
                    yield side_a + side_b


def _path(adj: Sequence[int], a: int, b: int, inner: int) -> list[int]:
    """Interior of a shortest a-b path whose interior is nonempty and inside ``inner``."""
    frontier = seen = adj[a] & inner
    parent = dict.fromkeys(bits(frontier), -1)
    while frontier:
        for x in bits(frontier):
            if adj[x] >> b & 1:
                path = []
                while x != -1:
                    path.append(x)
                    x = parent[x]
                return path[::-1]
        reached = 0
        for x in bits(frontier):
            new = adj[x] & inner & ~seen & ~reached
            for y in bits(new):
                parent[y] = x
            reached |= new
        seen |= reached
        frontier = reached
    raise ValueError(f"no path from {a} to {b} inside {inner:#x}")


def _block_is_planar(adjm: Sequence[int], block: int) -> bool:
    """Planarity of one biconnected block, by Demoucron-Malgrange-Pertuiset."""
    n = block.bit_count()
    if n < 5:
        return True
    adj = [nb & block if block >> v & 1 else 0 for v, nb in enumerate(adjm)]
    m = sum(nb.bit_count() for nb in adj) // 2
    if m > 3 * n - 6:
        return False
    r = (block & -block).bit_length() - 1
    s = (adj[r] & -adj[r]).bit_length() - 1
    cycle = [r, *_path(adj, r, s, block & ~(1 << r | 1 << s)), s]
    placed = sum(1 << v for v in cycle)
    faces = [(cycle, placed), (cycle, placed)]  # (boundary cycle, its vertex mask)
    drawn = [0] * len(adj)  # embedded edges, per vertex
    route = cycle + cycle[:1]
    embedded = 0
    while True:
        for u, v in zip(route, route[1:]):
            drawn[u] |= 1 << v
            drawn[v] |= 1 << u
        embedded += len(route) - 1
        if embedded == m:
            return True
        # Fragments as (attachment mask, unembedded vertices).
        fragments = [
            (1 << u | 1 << v, 0)
            for u in bits(placed)
            for v in bits(adj[u] & placed & ~drawn[u])
            if u < v
        ]
        for comp in components(adj, block & ~placed):
            reach = 0
            for v in bits(comp):
                reach |= adj[v]
            fragments.append((reach & placed, comp))
        chosen = None
        for attach, inner in fragments:
            admissible = [f for f, (_, face) in enumerate(faces) if not attach & ~face]
            if not admissible:
                return False
            if chosen is None or len(admissible) == 1:
                chosen = attach, inner, admissible[0]
                if len(admissible) == 1:
                    break
        attach, inner, f = chosen
        a = (attach & -attach).bit_length() - 1
        rest = attach & (attach - 1)
        b = (rest & -rest).bit_length() - 1
        path = _path(adj, a, b, inner) if inner else []
        # Draw a-path-b through face f, splitting it in two.
        cycle = faces[f][0]
        i = cycle.index(a)
        cycle = cycle[i:] + cycle[:i]
        k = cycle.index(b)
        one = cycle[: k + 1] + path[::-1]
        two = cycle[k:] + [a] + path
        faces[f] = (one, sum(1 << v for v in one))
        faces.append((two, sum(1 << v for v in two)))
        placed |= sum(1 << v for v in path)
        route = [a, *path, b]


def _is_planar(adjm: Sequence[int]) -> bool:
    """Exact planarity of the graph with adjacency bitmasks ``adjm``."""
    return all(_block_is_planar(adjm, block) for block in blocks(adjm))


def _search_from_seed(
    adjm: Sequence[int],
    seed: tuple[int, ...],
    pairs: tuple[tuple[int, int], ...],
) -> Optional[tuple[int, ...]]:
    full = (1 << len(adjm)) - 1
    start = tuple(1 << v for v in seed)
    # Each entry carries its branch masks, their neighbourhoods and their union.
    stack = [(start, tuple(adjm[v] for v in seed), sum(start))]
    seen: set[tuple[int, ...]] = set()
    while stack:
        branches, nbhd, used = stack.pop()
        if branches in seen:
            continue
        seen.add(branches)
        unmet = [(i, j) for i, j in pairs if not nbhd[i] & branches[j]]
        if not unmet:
            return branches
        # Branches grow only into free vertices, so an unmet pair can still be
        # joined only through one free component touching both branches.
        comps = list(components(adjm, full & ~used))
        touch = [0] * len(branches)
        for k, nb in enumerate(nbhd):
            for comp in comps:
                if comp & nb:
                    touch[k] |= comp
        if any(not touch[i] & touch[j] for i, j in unmet):
            continue
        i, j = unmet[0]
        for side in (i, j):
            for v in bits(nbhd[side] & ~used):
                grown = list(branches)
                grown[side] |= 1 << v
                grown_nbhd = list(nbhd)
                grown_nbhd[side] |= adjm[v]
                stack.append((tuple(grown), tuple(grown_nbhd), used | 1 << v))
    return None


def has_minor(
    g: Graph, target: str, *, cap: Optional[int] = None
) -> tuple[bool, Optional[Witness]]:
    """Exact minor test for K5 or K33, with connected branch sets as witness."""
    h, pairs = _target(target)
    check_cap(g.n, cap, MINOR_CAP, "minor-search")
    adj, bags = _kernelize(g)
    kn = len(adj)
    kernel_ids = sorted(adj)
    index = {v: i for i, v in enumerate(kernel_ids)}
    adjm = [0] * kn
    for u in adj:
        for v in adj[u]:
            adjm[index[u]] |= 1 << index[v]
    km = sum(len(nbs) for nbs in adj.values()) // 2
    needed_edges = len(pairs)
    # Cycle rank (first Betti number) is minor-monotone.
    rank = km - kn + len(list(components(adjm, (1 << kn) - 1)))
    if kn < h or km < needed_edges or rank < needed_edges - h + 1:
        return False, None
    if _is_planar(adjm):
        return False, None  # planar graphs contain neither obstruction
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
    h, pairs = _target(target)
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
    """Exact planarity, with the minor search's order cap, for desk-scale inputs.

    Graphs on fewer than 3 vertices are planar and graphs with more than
    3n - 6 edges are not, whatever their order; any other graph past the cap
    raises TooLarge.  By Kuratowski and Wagner the answer is the same as
    having neither a K5 nor a K3,3 minor.
    """
    if g.n < 3 or g.m > 3 * g.n - 6:
        check_cap(0, cap, MINOR_CAP, "minor-search")
        return g.n < 3
    check_cap(g.n, cap, MINOR_CAP, "minor-search")
    return _is_planar(g.adj_bits)
