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
per-move state: the branches and their neighbourhoods, the used vertices
(their union), its parent's unmet pairs (a mask), the branch that grew, and
the bans.  A pop re-tests only the grown branch's pairs, the only ones its
move can meet.  It then splits the free vertices into components afresh.
Each component's signature, the branches whose neighbourhoods meet it,
indexes a static table of the pairs it covers.  The split stops once the
components found cover every unmet pair, and the state is dead when its
unmet mask leaves a pair uncovered.  A live state's moves are two masks,
side i's and side j's, cleared of the bans with one AND each.

Seeds that an automorphism of the kernel maps onto an earlier seed are
skipped.  A seed's search is complete for it, and a model of seed S maps
under an automorphism σ to a model of canon(σS), the seed with the same
sides (K3,3's sides sorted, the side holding the least vertex first).  So
S and canon(σS) both succeed or both fail.  Let S* be the first seed, in
``_seed_sets`` order, that has a model.  Every seed before it fails, so no
canon(σS*) comes before S*, and S* is never skipped; every skipped seed
fails anyway.  So the first model, and with it every answer and witness, is
unchanged, and only the number of seeds searched goes down.  Any set of
automorphisms keeps this true.

- **The finder.** ``_automorphisms`` backtracks over a BFS order of the
  kernel vertices.  A vertex may map to an unused vertex of the same degree
  and sorted neighbour degrees that is adjacent to the images of its mapped
  neighbours and to no other image.  It stops after ``_FINDER_CAP`` maps or
  ``_FINDER_NODES`` nodes.  Each completed map is an automorphism unchecked:
  every edge goes to an edge once its later end is placed, and a bijection
  that maps the finite edge set into itself maps it onto itself.
- **Lazy start.** A graph's seed loop looks for automorphisms only once its
  failed searches have popped more than ``_FINDER_AFTER`` states, then
  resumes with the skipping enumerator after the current seed.  The maps
  are kept in the ``_kernel`` record, so the K5 and K33 queries of one
  graph object share them, and the later query skips from its first seed.
- **Prefix rules.** Sets of equal size are ordered by the least element of
  their symmetric difference: X ≺ Y when the least element of X ^ Y is in
  X.  On the sorted tuples this is the order of the seeds.  A K5 seed or a
  K3,3 side A is skipped at its prefix P when σ(P) ≺ P for some σ.  With
  side A fixed, side B is skipped at its prefix Q when σ(Q) ≺ A[:|Q|] for
  some σ, or when σ(A) = A and σ(Q) ≺ Q.  A rule that holds for a prefix
  holds for the whole side: the elements added later lie above the prefix,
  so the least element that tells the prefixes apart still tells the whole
  sides apart.  A skipped K5 seed S has σ(S) ≺ S.  A skipped K3,3 seed has
  σ(A) ≺ A or σ(B) ≺ A, and then the side of σS that holds its least vertex
  precedes A too; or σ(A) = A and σ(B) ≺ B, and then canon(σS) is A then
  σ(B), or it starts with σ(B), whose least vertex lies below A's.  Either
  way canon(σS) comes before S.  Skipping a prefix skips a whole run of
  ``itertools.combinations``, and a few integer operations test a prefix
  against every map at once (``_skipping_seeds``).

``has_minor`` starts each seed's search with a root ban: bit ``k * n + v``
for every v < seed[k], so branch k never grows below its seed vertex.  Let
M be a model at seed S and T the least vertex of each of its branches, so
T_k <= S_k for every k.  If T != S, canon(T) comes before S: for K5,
sorted(T) is elementwise at most S and differs from it; for K3,3 with the
least vertex of T on side A, sorted(T_A) <= S_A and then sorted(T_B) <=
S_B; with it on side B, canon(T) starts with min(T_B) < S[0].  M, its
branches reordered within the sides, is also a model of seed canon(T).  No
seed before S* has a model, so at every seed up to S* each model has T = S:
no branch holds a vertex below its seed vertex.  The ban then drops only
states that no model extends, each seed up to S* gets the same answer, and
the first model found is unchanged.  Past S* the banned and unbanned
searches may differ, so ``_search_from_seed`` bans nothing unless asked.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .errors import InvalidSpec
from .graph import Graph, bits, blocks, check_cap, components, remember_last_graph


# The seed loop looks for automorphisms once its failed searches have popped
# more than _FINDER_AFTER states; the finder stops after _FINDER_CAP maps or
# _FINDER_NODES nodes.
_FINDER_AFTER = 256
_FINDER_CAP = 128
_FINDER_NODES = 20_000

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


def _skipping_seeds(target: str, vertices: Sequence[int], maps: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """``_seed_sets`` less the seeds whose prefix the rules of the module docstring skip.

    A set is a mask with vertex v at bit ``top - v``, so X ≺ Y when X > Y.
    The masks of a prefix's images sit side by side in one integer, a field
    of ``width`` bits per map, so one OR grows them all.  The field's top bit
    is a guard: ``(x * ones | guard) - images`` leaves in each field the guard
    plus x minus that image, which is at least 1, so no borrow crosses a
    field, and the guard stays set exactly when the image is at most x.
    ``grow`` skips a prefix P of size j + 1 when one of its images precedes
    ``heads[j]`` (A[:j + 1] for side B; no image precedes ``full``), or when
    its image under a map whose guard is in ``fixed`` precedes P.
    """
    top = vertices[-1]
    width = top + 2
    ones = sum(1 << k * width for k in range(len(maps)))
    guard = ones << width - 1
    full = (1 << top + 1) - 1
    image = [sum(1 << k * width + top - img[v] for k, img in enumerate(maps)) for v in range(top + 1)]

    def grow(pool, r, seed, mask, images, heads, fixed):
        for i, v in enumerate(pool[: len(pool) - r + 1]):
            prefix, prefix_images = mask | 1 << top - v, images | image[v]
            if ((prefix * ones | guard) - prefix_images) & fixed != fixed:
                continue  # a map in fixed takes the prefix below itself
            if ((heads[len(seed)] * ones | guard) - prefix_images) & guard != guard:
                continue  # some map takes the prefix below its head
            if r == 1:
                yield seed + (v,), prefix, prefix_images
            else:
                yield from grow(pool[i + 1 :], r - 1, seed + (v,), prefix, prefix_images, heads, fixed)

    size = 5 if target == "K5" else 3
    for side_a, mask_a, images_a in grow(vertices, size, (), 0, 0, [full] * size, guard):
        if target == "K5":
            yield side_a
            continue
        moved = (images_a ^ mask_a * ones | guard) - ones  # a field keeps its guard where σ(A) != A
        heads = list(itertools.accumulate(1 << top - v for v in side_a))  # A[:1], A[:2], A
        rest = [v for v in vertices if v > side_a[0] and v not in side_a]
        for side_b, _, _ in grow(rest, 3, (), 0, 0, heads, guard & ~moved):
            yield side_a + side_b


def _automorphisms(adj: Sequence[int], alive: int) -> list[list[int]]:
    """Non-identity automorphisms of the kernel as image lists, in a fixed order.

    At most ``_FINDER_CAP`` maps, found in at most ``_FINDER_NODES`` nodes.
    Removed vertices map to themselves and have no edges.  Each map is an
    automorphism by construction (see the module docstring): ``fits`` puts an
    image next to the images of its earlier neighbours; ``want`` only prunes.
    """
    deg = [nb.bit_count() for nb in adj]
    kind = [sorted(deg[u] for u in bits(nb)) for nb in adj]  # its length is the degree
    like = [sum(1 << u for u in bits(alive) if kind[u] == kind[v]) for v in range(len(adj))]
    # A BFS order, level by level, one component after another; earlier[k]
    # holds the neighbours of order[k] that come before it.
    order, earlier, before = [], [], 0
    for comp in components(adj, alive):
        level = comp & -comp
        while level:
            comp ^= level
            reach = 0
            for v in bits(level):
                order.append(v)
                earlier.append(bits(adj[v] & before))
                before |= 1 << v
                reach |= adj[v]
            level = reach & comp
    identity = list(range(len(adj)))
    img = identity.copy()
    maps: list[list[int]] = []
    # options[k]: the images still to try for order[k]; an empty kernel has none.
    options = [like[order[0]]] if order else []
    used = nodes = 0  # used: the images of order[:len(options) - 1]
    while options and len(maps) < _FINDER_CAP and nodes < _FINDER_NODES:
        k = len(options) - 1
        if not options[k]:
            options.pop()
            if k:
                used ^= 1 << img[order[k - 1]]
            continue
        b = options[k] & -options[k]
        options[k] ^= b
        img[order[k]] = b.bit_length() - 1
        nodes += 1
        if k + 1 < len(order):
            used |= b
            want, fits = 0, like[order[k + 1]] & ~used
            for u in earlier[k + 1]:
                want |= 1 << img[u]
                fits &= adj[img[u]]
            fit = 0
            while fits:
                c = fits & -fits
                fits ^= c
                if adj[c.bit_length() - 1] & used == want:
                    fit |= c
            options.append(fit)
        elif img != identity:  # every edge went to an edge as its later end was placed
            maps.append(img.copy())
    return maps


def _seeds(
    target: str, adj: Sequence[int], alive: int, found: list, popped: list[int]
) -> Iterator[tuple[int, ...]]:
    """The seeds to search, in ``_seed_sets`` order, less the skipped ones.

    ``popped[0]`` is the number of states the failed searches have popped.
    Past ``_FINDER_AFTER`` the kernel's automorphisms are looked for, once per
    kernel record: ``found[0]`` is None until then.
    """
    vertices = bits(alive)
    seeds, last = _seed_sets(target, vertices), ()
    if found[0] is None:
        for last in seeds:
            yield last
            if popped[0] > _FINDER_AFTER:
                break
        else:
            return
        found[0] = _automorphisms(adj, alive)
    if found[0]:
        seeds = itertools.dropwhile(lambda s: s <= last, _skipping_seeds(target, vertices, found[0]))
    yield from seeds


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
def _kernel(g: Graph) -> tuple[tuple[int, ...], int, tuple[int, ...], bool, list]:
    """``_kernelize`` of g as tuples, whether g is planar, and a one-item list
    for the kernel's automorphisms (None until looked for), for the last graph seen.

    The kernel is planar exactly when g is: deleting a vertex of degree at
    most one and suppressing one of degree two keep a planar graph planar,
    and undoing them (adding a pendant vertex, subdividing an edge, or
    drawing a path beside an existing edge) does too.  So the K5 and K33
    searches and the planarity test of one graph share one kernel and one
    planarity run.
    """
    adj, alive, bags = _kernelize(g.adj_bits)
    return tuple(adj), alive, tuple(bags), _is_planar(adj), [None]


def _search_from_seed(
    adjm: Sequence[int],
    alive: int,
    seed: tuple[int, ...],
    target: str,
    popped: Optional[list[int]] = None,
    ban: int = 0,
) -> Optional[tuple[int, ...]]:
    """The first model whose branch k holds seed[k] and avoids the root ban
    ``ban`` (bit ``k * n + v`` bars v from branch k), or None; a failed search
    adds the number of states it popped to ``popped[0]``."""
    pairs, (ends, covered_by) = _TARGETS[target][1], _TABLES[target]
    start, nbhd, used = [], [], 0
    for v in seed:
        start.append(1 << v)
        nbhd.append(adjm[v])
        used |= 1 << v
    unmet = 0
    for p, (i, j) in enumerate(pairs):
        if not nbhd[i] >> seed[j] & 1:
            unmet |= 1 << p
    n = len(adjm)
    # The start counts branch 0 as grown; its pairs are already tested.
    stack = [(start, nbhd, used, unmet, 0, ban)]
    pops = 0
    while stack:
        pops += 1
        branches, nbhd, used, unmet, grew, banned = stack.pop()
        for bit, k in ends[grew]:
            if unmet & bit and nbhd[grew] & branches[k]:
                unmet ^= bit
        if not unmet:
            return tuple(branches)
        free = alive & ~used
        covered = 0  # the pairs that some free component touches at both ends
        while free and unmet & ~covered:
            # The free component of the lowest free vertex, as in ``graph.components``,
            # but with the set bits walked inline: the frontiers here are small, and
            # K5 and K33 on fresh copies of moebius:12 and rand:16:0.3:3 take 6.8-7.0 ms
            # against 7.1-8.1 ms with ``bits`` (the atlas graphs 47-49 against 48-62 ms).
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
            sig, bit = 0, 1
            for nb in nbhd:
                if nb & comp:
                    sig |= bit
                bit <<= 1
            covered |= covered_by[sig]
        if unmet & ~covered:
            continue
        i, j = pairs[(unmet & -unmet).bit_length() - 1]
        moves_i = nbhd[i] & ~used & ~(banned >> i * n)
        moves_j = nbhd[j] & ~used & ~(banned >> j * n)
        banned |= moves_i << i * n | moves_j << j * n
        for side, moves in ((i, moves_i), (j, moves_j)):
            shift = side * n
            while moves:
                b = moves & -moves
                moves ^= b
                banned ^= b << shift  # a child is barred from the moves pushed after it
                # Each child owns its lists; nothing mutates them after the push.
                grown = branches.copy()
                grown[side] |= b
                grown_nbhd = nbhd.copy()
                grown_nbhd[side] |= adjm[b.bit_length() - 1]
                stack.append((grown, grown_nbhd, used | b, unmet, side, banned))
    if popped is not None:
        popped[0] += pops
    return None


def _root_ban(seed: tuple[int, ...], n: int) -> int:
    """The ban that bars from branch k every vertex below seed[k]."""
    ban = 0
    for k, v in enumerate(seed):
        ban |= (1 << v) - 1 << k * n
    return ban


def has_minor(
    g: Graph, target: str, *, cap: Optional[int] = None
) -> tuple[bool, Optional[Witness]]:
    """Exact minor test for K5 or K33, with connected branch sets as witness."""
    h, pairs = _target(target)
    check_cap(g.n, cap, "minor-search")
    adj, alive, bags, planar, automorphisms = _kernel(g)
    kn = alive.bit_count()
    km = sum(nb.bit_count() for nb in adj) // 2
    needed_edges = len(pairs)
    # Cycle rank (first Betti number) is minor-monotone.
    rank = km - kn + len(list(components(adj, alive)))
    if kn < h or km < needed_edges or rank < needed_edges - h + 1:
        return False, None
    if planar:
        return False, None  # planar graphs contain neither obstruction
    popped = [0]
    n = len(adj)
    for seed in _seeds(target, adj, alive, automorphisms, popped):
        model = _search_from_seed(adj, alive, seed, target, popped, _root_ban(seed, n))
        if model is not None:
            # Bags are disjoint, so their sum is their union.
            return True, tuple(bits(sum(bags[v] for v in bits(bm))) for bm in model)
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


def planar_by_counts(n: int, m: int, cap: Optional[int]) -> Optional[bool]:
    """Planarity where the order n and size m settle it, else None.

    Graphs on fewer than 3 vertices are planar and graphs with more than
    3n - 6 edges are not (Euler), whatever their order; any other graph past
    the minor-search cap raises TooLarge.
    """
    settled = n < 3 or m > 3 * n - 6
    # A settled answer still rejects a cap below 1.
    check_cap(0 if settled else n, cap, "minor-search")
    return n < 3 if settled else None


def is_planar_desk(g: Graph, *, cap: Optional[int] = None) -> bool:
    """Exact planarity, with the minor search's order cap, for desk-scale inputs.

    ``planar_by_counts`` answers from the order and size where they settle
    it.  Otherwise, by Kuratowski and Wagner, the answer is the same as
    having neither a K5 nor a K3,3 minor.
    """
    settled = planar_by_counts(g.n, g.m, cap)
    return _kernel(g)[3] if settled is None else settled
