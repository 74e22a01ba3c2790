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
from this test alone, run on the kernel below, which is planar exactly when
the input is.

For a minor, the input is first shrunk by reductions that preserve presence
of any 3-connected minor: vertices of degree at most one are deleted and
degree-two vertices are suppressed (merged into the lower neighbour, and
the two neighbours joined).  Each kernel vertex keeps a "bag" of original
vertices so a model found in the kernel expands to branch sets of the
original graph.  The kernel keeps the input's vertex indices: its adjacency
masks are the input's, reduced (a removed vertex's mask is 0), and the bags
are masks, so the search, its seeds and the witness need no re-indexing.
A planar kernel has neither target minor, so the planarity test dispatches
the negative case quickly; otherwise an exhaustive seeded branch-set search
either finds a model or proves absence.  The kernel and its planarity are
computed once for the last graph object seen, so K5, K33 and planarity
queries on one graph share them.

The search grows one branch of the first unmet pair at a time, depth first,
into free vertices (those in no branch).  A state's children are its moves,
pushed in a fixed order: side i's free neighbours ascending, then side j's,
so the last is popped first.  Each child carries a ban mask, in which bit
``side * n + v`` bars v from branch ``side``: its parent's bans and every
move pushed after it.  A later sibling is popped first and searched to
exhaustion, and the search from a state finds a model whenever some model
contains the state and avoids its bans.  So a banned move is in no model left
to find, and the bans change neither a seed's answer nor the first model
found.  Where two paths from the seed split, the child pushed first bans the
other's move, so their states differ: no state is popped twice and nothing
records the states seen.  The stack is the search's only store, at most n
levels of at most 2n children each.

A state is dead when some unmet pair has no free component touching both its
branches: branches grow only into free vertices, so they can become adjacent
only through a path whose interior lies in one free component.  Dead states
are not expanded.  No model extends a dead state, so the prune changes
neither the answer nor the first model found.  A stack entry holds only
per-move state: the branches and their neighbourhoods, its parent's unmet
pairs (a mask), the branch that grew, and the bans.  A pop re-tests only
the grown branch's pairs, the only ones its move can meet.  It then splits
the free vertices into components afresh: the branches are disjoint, so
their sum is the set of used vertices.  Each component's signature, the
branches whose neighbourhoods meet it, indexes a static table of the pairs
it covers.  The split stops once the components found cover every unmet
pair, and the state is dead when its unmet mask leaves a pair uncovered.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .errors import InvalidSpec
from .graph import Graph, bits, blocks, check_cap, components, remember_last_graph

MINOR_CAP = 20

# Target name -> (branch count, required adjacent pairs).
_TARGETS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "K5": (5, tuple(itertools.combinations(range(5), 2))),
    "K33": (6, tuple((i, j) for i in range(3) for j in range(3, 6))),
}

# Target name -> (per branch, its pairs as (pair bit, other end); per mask of
# branches, the mask of the pairs with both ends in it).  Bit p is pairs[p].
_TABLES: dict[str, tuple[list[list[tuple[int, int]]], list[int]]] = {
    name: (
        [[(1 << p, i + j - k) for p, (i, j) in enumerate(pairs) if k in (i, j)] for k in range(h)],
        [sum(1 << p for p, (i, j) in enumerate(pairs) if s >> i & s >> j & 1) for s in range(1 << h)],
    )
    for name, (h, pairs) in _TARGETS.items()
}

Witness = tuple[tuple[int, ...], ...]


def _target(target: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    if target not in _TARGETS:
        raise InvalidSpec(f"unknown minor target {target!r}; expected K5 or K33")
    return _TARGETS[target]


def _kernelize(adj_bits: Sequence[int]) -> tuple[list[int], int, list[int]]:
    """The kernel on the input's own vertex indices: adjacency masks (0 once a
    vertex is removed), the mask of kernel vertices, and each vertex's bag.

    Passes scan the kernel vertices in ascending order until nothing changes.
    """
    adj = list(adj_bits)
    bags = [1 << v for v in range(len(adj))]
    alive = (1 << len(adj)) - 1
    changed = True
    while changed:
        changed = False
        for v in bits(alive):
            nb = adj[v]
            deg = nb.bit_count()
            if deg > 2:
                continue
            alive ^= 1 << v
            adj[v] = 0
            for u in bits(nb):
                adj[u] ^= 1 << v
            if deg == 2:
                low = nb & -nb
                a, b = low.bit_length() - 1, (nb ^ low).bit_length() - 1
                bags[a] |= bags[v]
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            changed = True
    return adj, alive, bags


def _seed_sets(target: str, vertices: Sequence[int]) -> Iterator[tuple[int, ...]]:
    if target == "K5":
        yield from itertools.combinations(vertices, 5)
    else:
        for side_a in itertools.combinations(vertices, 3):
            # Side swap is an automorphism: side b starts above side a (vertices ascend).
            rest = [v for v in vertices if v > side_a[0] and v not in side_a]
            for side_b in itertools.combinations(rest, 3):
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


@remember_last_graph
def _kernel(g: Graph) -> tuple[tuple[int, ...], int, tuple[int, ...], bool]:
    """``_kernelize`` of g as tuples, and whether g is planar, for the last graph seen.

    The kernel is planar exactly when g is: deleting a vertex of degree at
    most one and suppressing one of degree two keep a planar graph planar,
    and undoing them (adding a pendant vertex, subdividing an edge, or
    drawing a path beside an existing edge) does too.  So the K5 and K33
    searches and the planarity test of one graph share one kernel and one
    planarity run.
    """
    adj, alive, bags = _kernelize(g.adj_bits)
    return tuple(adj), alive, tuple(bags), _is_planar(adj)


def _search_from_seed(
    adjm: Sequence[int], alive: int, seed: tuple[int, ...], target: str
) -> Optional[tuple[int, ...]]:
    pairs, (ends, covered_by) = _TARGETS[target][1], _TABLES[target]
    start = [1 << v for v in seed]
    nbhd = [adjm[v] for v in seed]
    unmet = sum(1 << p for p, (i, j) in enumerate(pairs) if not nbhd[i] & start[j])
    n = len(adjm)
    # The start counts branch 0 as grown; its pairs are already tested.
    stack = [(start, nbhd, unmet, 0, 0)]
    while stack:
        branches, nbhd, unmet, grew, banned = stack.pop()
        for bit, k in ends[grew]:
            if unmet & bit and nbhd[grew] & branches[k]:
                unmet ^= bit
        if not unmet:
            return tuple(branches)
        used = sum(branches)  # branches are disjoint, so their sum is their union
        free = alive & ~used
        covered = 0  # the pairs that some free component touches at both ends
        while free and unmet & ~covered:
            # The free component of the lowest free vertex, as in ``graph.components``.
            comp = frontier = free & -free
            while frontier:
                reach = 0
                while frontier:
                    b = frontier & -frontier
                    reach |= adjm[b.bit_length() - 1]
                    frontier ^= b
                frontier = reach & free & ~comp
                comp |= frontier
            free ^= comp
            sig = 0
            for k, nb in enumerate(nbhd):
                if nb & comp:
                    sig |= 1 << k
            covered |= covered_by[sig]
        if unmet & ~covered:
            continue
        i, j = pairs[(unmet & -unmet).bit_length() - 1]
        moves = [(side, v) for side in (i, j) for v in bits(nbhd[side] & ~used & ~(banned >> side * n))]
        banned |= sum(1 << side * n + v for side, v in moves)
        for side, v in moves:
            banned ^= 1 << side * n + v  # a child is barred from the moves pushed after it
            # Each child owns its lists; nothing mutates them after the push.
            grown = branches.copy()
            grown[side] |= 1 << v
            grown_nbhd = nbhd.copy()
            grown_nbhd[side] |= adjm[v]
            stack.append((grown, grown_nbhd, unmet, side, banned))
    return None


def has_minor(
    g: Graph, target: str, *, cap: Optional[int] = None
) -> tuple[bool, Optional[Witness]]:
    """Exact minor test for K5 or K33, with connected branch sets as witness."""
    h, pairs = _target(target)
    check_cap(g.n, cap, MINOR_CAP, "minor-search")
    adj, alive, bags, planar = _kernel(g)
    kn = alive.bit_count()
    km = sum(nb.bit_count() for nb in adj) // 2
    needed_edges = len(pairs)
    # Cycle rank (first Betti number) is minor-monotone.
    rank = km - kn + len(list(components(adj, alive)))
    if kn < h or km < needed_edges or rank < needed_edges - h + 1:
        return False, None
    if planar:
        return False, None  # planar graphs contain neither obstruction
    for seed in _seed_sets(target, list(bits(alive))):
        model = _search_from_seed(adj, alive, seed, target)
        if model is not None:
            # Bags are disjoint, so their sum is their union.
            return True, tuple(tuple(bits(sum(bags[v] for v in bits(bm)))) for bm in model)
    return False, None


def verify_minor_witness(g: Graph, target: str, witness: Witness) -> bool:
    """Check branch sets are disjoint, connected, and pairwise adjacent as required."""
    h, pairs = _target(target)
    if len(witness) != h:
        return False
    masks = []
    total = 0  # the vertices of the branches before this one
    for branch in witness:
        mask = 0
        for v in branch:
            if not (0 <= v < g.n) or (total | mask) >> v & 1:
                return False
            mask |= 1 << v
        if mask == 0 or not g.is_connected_subset(mask):
            return False
        masks.append(mask)
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
    return _kernel(g)[3]
