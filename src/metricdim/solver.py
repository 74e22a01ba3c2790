"""Exact solvers for metric dimension and its connected variants.

A vertex set resolves a graph exactly when it meets the distinguisher mask
D(u, w) = {v : d(v, u) != d(v, w)} of every vertex pair, so each solver here
searches for small hitting sets of those masks.  This is the set-cover view
of Khuller, Raghavachari and Rosenfeld ("Landmarks in graphs", 1996) and the
constraint matrix of the integer program of Chartrand, Eroh, Johnson and
Oellermann (2000).  ``_prepare`` builds the masks once per call from the
graph's BFS level sets: a vertex is outside D(u, w) exactly when it lies in
the same level from u as from w, so a mask costs one AND per level, not one
comparison per vertex.  It sorts them smallest first and drops every mask
that contains another, since a set meeting the smaller one meets both
(Weihe, "Covering trains by stations or the power of data reduction", 1998).
Only twin pairs have a mask of size two, and those masks give the twin
classes.  The vertices the twin rule forces (below) join the masks as
one-vertex masks, which drop every mask holding one of them.  Every set the
search grows holds them and the anchor, so their number is one lower bound
on the answer; the diameter floor is the other one.

Every solver builds one walker, a ``_Walker``, per call, and runs its
``_Walker.hits`` for each cardinality k ascending from that bound: seeded
growth with a per-branch ban set, which meets each connected k-set exactly
once.  The walker's fields are the adjacency, ``done``, a mask that cuts
every branch whose set and addable vertices all lie in it, and ``best``,
below.  Both start at 0, which cuts nothing; only ``vertex_profile`` grows
``done``.  A node keeps one free mask, the vertices neither in its partial
set nor banned, and tries the free neighbors of the set.  Plain resolving
sets are the connected sets of the complete graph, where growth from the
ascending roots tries vertices in ascending order, so it meets k-sets in
lexicographic order and its first hit is the lexicographically smallest
witness; for connected sets the smallest hit is kept.  The walker carries
the masks its partial set has not hit yet.  With r slots still open, one
pass over them finds the lowest top vertex of an unhit mask whose addable
vertices are all candidates, past which no candidate is tried, and cuts
the branch when a greedy packing finds more than r unhit masks that are
pairwise disjoint on the vertices the branch may still add.  The pass runs
at every node, though the packing cannot cut while no more than r masks
are unhit.  With two slots open, a node fills the last slot of each
candidate itself, from the intersection of the unhit masks that the
candidate misses, rather than calling the walker once more.  These cuts
drop only branches without a hit, so the order in which hits are met is
unchanged.

``cdim_at_set`` keeps its smallest hit so far as the walker's ``best``,
the incumbent of branch and bound (Land and Doig, 1960) on the
lexicographic order.  A node with r >= 2 cuts its branch when the lowest
vertex u of its free vertices and of those ``cur`` and ``best`` differ in
is not free and lies in ``best``.  Every completion adds only free
vertices, so it agrees with ``best`` below u and lacks u: ``best``
precedes it, and the cut drops only hits that could never replace
``best``.  The hits that precede ``best`` are met in the same order, so
the kept hit is unchanged.  On wheel:17 the cut takes ``cdim_exact`` from
577 walker calls to 383.

Swapping two twins is an automorphism, and it keeps a set resolving and
connected.  So the lexicographically smallest hit meets every twin class in
a prefix of it, in vertex order: the lex-leader predicate of Crawford,
Ginsberg, Luks and Roy ("Symmetry-breaking predicates for search problems",
1996), on the twin classes (Hernando, Mora, Pelayo, Seara and Wood, 2010).
A resolving set holds all but one vertex of every class, so the prefix sets
are the sets that hold all of each class but its top vertex.  ``_prepare``
forces those vertices as one-vertex masks, and the cuts above carry the
rule: the top-vertex bound stops the candidates at the lowest missing
forced vertex among them, the roots stop at the lowest forced vertex, and
the packing counts every missing forced vertex.  With an anchor, the
forced vertices are those of each class's part outside the anchor, which
covers the swaps that fix it.  Every hit holds a forced vertex of every
class, so ``vertex_profile`` marks every class with its first hit, since
twins have equal values.
``enumerate_min_resolving_sets`` expands each prefix set to its orbit: a
resolving set misses at most one vertex of a class, so the orbit trades
that class's missing top vertex for any one of its vertices.
The search is sequential: ``workers`` is checked but never changes the work
done, and ``dm`` is accepted but never read.  Exceeding a cap is an error,
never a silent approximation.

The solvers of one graph share the values they have proved.  ``_proved``
keeps, for the last Graph object a solver was given, the exact dim(G),
cdim(G), the witness W of cdim(G) and cdim_G(v) found so far.  The chain
dim(G) <= cdim(G) <= cdim_G(v) <= cdim_G(A) for v in A, since a set
containing A contains v, turns the values into floors: dim and enumeration
start at dim(G), cdim and the profile at cdim(G) (at dim(G) while cdim(G)
is unknown), and cdim_G(A) at the largest of those and of cdim_G(v) for
each v in A.  A search that ended at k proved every level below k empty, so
starting there skips only levels without a hit, and every value and witness
is unchanged.  W answers an anchor inside it with no search: W is the
lexicographically smallest connected resolving set of size cdim(G), and
cdim(G) <= cdim_G(A) <= |W| for A in W, so W is also the smallest such set
containing A.  On wheel:17, once ``cdim_exact`` has found W = (0, 1, 3, 6,
8, 11, 13, 17), the hub query ``cdim_at_set(g, (17,))`` returns (8, W)
without calling the walker.  A solver records its value once its search
has found it: dim and enumeration write dim(G), an empty anchor cdim(G) and
W, a singleton anchor its cdim_G(v) (also when W answers it), and the
profile cdim(G) (its ``rrad``) and every cdim_G(v).  A call that raises
writes nothing.  A solver call checks its arguments before it reads the
record or sets up with ``_prepare``, so a refused call leaves the record of
the last graph as it was.  ``cdim_at_set`` then reads the record, so that W
can answer before any mask is built, and sets up after; the other solvers
set up first.  A disconnected graph leaves the record alone too: ``_proved``
tests connectivity when its key changes, and raises NotConnected before it
stores anything, so the W answer costs no BFS while the key stays.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import EmptySet, InvalidAnchor, InvalidOption, NotConnected
from .graph import DistanceMatrix, Graph, bits, check_cap, distance_levels, remember_last_graph


class SolveResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


class ResolvingCertificate(NamedTuple):
    """Full code table proving that a vertex set does or does not resolve."""

    set: tuple[int, ...]
    codes: dict[int, tuple[int, ...]]
    resolving: bool
    witness_pair: Optional[tuple[int, int]]


class VertexProfile(NamedTuple):
    """Connected metric dimension at every vertex, with center and periphery."""

    per_vertex: tuple[int, ...]
    rrad: int
    rdiam: int
    rc: tuple[int, ...]
    rp: tuple[int, ...]


def dim_floor_from_diameter(n: int, d: int) -> int:
    """Least k >= 1 with k + d**k >= n, a classical metric-dimension floor."""
    k = 1
    while k + d**k < n:
        k += 1
    return k


def check_resolving(g: Graph, dm: DistanceMatrix, s: Iterable[int]) -> ResolvingCertificate:
    """Certificate for the candidate set ``s`` (taken in ascending vertex order).

    The witness pair, when present, is the lexicographically smallest pair of
    vertices sharing a code.  ``dm`` must be g's own; one of another order
    raises InvalidOption.
    """
    if dm.n != g.n:
        raise InvalidOption(f"the distance matrix has order {dm.n}, the graph {g.n}")
    members = tuple(sorted(set(s)))
    if not members:
        raise EmptySet("resolving-set candidates must be non-empty")
    if members[0] < 0 or members[-1] >= g.n:
        raise InvalidAnchor(f"vertices {members} not all within 0..{g.n - 1}")
    rows = dm.rows
    codes = {v: tuple(rows[v][u] for u in members) for v in range(g.n)}
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(codes[v], []).append(v)
    collisions = [grp for grp in groups.values() if len(grp) >= 2]
    witness = min((grp[0], grp[1]) for grp in collisions) if collisions else None
    return ResolvingCertificate(
        set=members, codes=codes, resolving=witness is None, witness_pair=witness
    )


def _pair_masks(levels: Sequence[Sequence[int]], full: int) -> list[int]:
    """Distinguisher masks of all vertex pairs, deduplicated, smallest first.

    ``levels[u][i]`` is the mask of the vertices at distance i + 1 from u.  A
    vertex fails to tell u and w apart when it lies at one distance from both,
    so D(u, w) is ``full`` minus the level-wise intersections of u and w.
    """
    masks = {full ^ reduce(or_, map(and_, lu, lw), 0)
             for u, lu in enumerate(levels) for lw in levels[u + 1:]}
    ordered = sorted(masks)
    ordered.sort(key=int.bit_count)
    return ordered


def _check_options(g: Graph, cap: Optional[int], workers: int) -> None:
    """Reject a ``workers`` that is not an int >= 1, and a cap that refuses g.

    ``dim_exact``, ``cdim_at_set`` and ``vertex_profile`` run it before they
    read the record or set up.
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InvalidOption(f"workers must be an int >= 1, got {workers!r}")
    check_cap(g.n, cap, "solver")


def _prepare(g: Graph, *, anchor: int = 0) -> tuple[list[int], tuple[int, ...], int]:
    """Set-up for one search on g: (masks, twin classes, lower bound on the answer).

    It checks no argument: the solvers check theirs before they call it.
    Its BFS raises NotConnected on a disconnected g.  The masks are the
    inclusion-minimal ones among the distinguisher masks and a one-vertex
    mask for each vertex the twin rule forces: all but the top vertex of
    each twin class's part outside ``anchor``.  A set holding ``anchor``
    meets them all exactly when it resolves g and meets that part of every
    class in a prefix.  The bound is the larger of the diameter floor and
    the number of forced and anchor vertices, which every such set holds;
    with no anchor that number is the twin-class lower bound.
    """
    levels = distance_levels(g.adj_bits)
    masks = _pair_masks(levels, g.vertex_mask())
    # Only twins have a mask of size two, and twinhood is an equivalence, so
    # the size-two masks through a vertex together make up its twin class.
    classes: dict[int, int] = {}
    for m in masks:
        if m.bit_count() > 2:
            break
        for b in (m & -m, m & (m - 1)):
            classes[b] = classes.get(b, b) | m
    twins = tuple(set(classes.values()))
    # A resolving set holds all but one vertex of every twin class, so a
    # prefix set holds all of its part outside the anchor but the top vertex.
    forced = 0
    for c in twins:
        c &= ~anchor
        forced |= c ^ 1 << c.bit_length() >> 1
    # Every pair mask holds its pair, so the one-vertex masks come first.
    masks = _minimal([1 << v for v in bits(forced)] + masks)
    diam = max(map(len, levels))
    # dim_floor_from_diameter is at least 1, so the floor is too.
    return masks, twins, max((forced | anchor).bit_count(), dim_floor_from_diameter(g.n, diam))


@remember_last_graph
def _proved(g: Graph) -> list[int]:
    """The exact values proved so far on ``g``: [dim, cdim, W, cdim_G(0), ..., cdim_G(n-1)].

    W is the bitmask of the witness of cdim(G).  0 stands for unknown.  One
    record is kept, for the last Graph object a solver was given, so an
    equal copy starts with an empty one.  A solver reads it for the level
    its search starts at, and writes a value only once its search has found
    it, so every entry is proved.  Only a ``cdim_at_set`` call with an empty
    anchor writes W, from its own search; an anchor A inside W is answered
    by (cdim, W), since cdim(G) <= cdim_G(A) <= |W| and W is the smallest
    connected resolving set of that size.  On wheel:17 the hub query
    ``cdim_at_set(g, (17,))`` after ``cdim_exact(g)`` is answered so.

    A disconnected g raises NotConnected.  The test runs only when the key
    changes, and a raising call stores nothing, so the record of the last
    connected graph stays in place.
    """
    if not g.is_connected():
        raise NotConnected("graph is not connected")
    return [0] * (g.n + 3)


def _minimal(masks: list[int]) -> list[int]:
    """The masks, still smallest first, that contain no other one.

    A set that meets a mask meets each of its supersets, so dropping them
    changes no hitting set.  A subset of a mask comes before it in the order,
    and a mask over a dropped one is also over a kept one.
    """
    kept: list[int] = []
    for m in masks:
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


# A growth start: (current mask, free mask, neighborhood mask).
_Start = tuple[int, int, int]


def _roots(adj: Sequence[int], masks: list[int], k: int) -> Iterator[_Start]:
    """Starts for anchor-free growth of k-sets: one per root, root = subset minimum.

    A set whose minimum lies past the top vertex of a mask cannot meet it;
    a one-vertex mask of a forced vertex stops the roots at that vertex.
    """
    n = len(adj)
    last = min(n - k + 1, min(map(int.bit_length, masks), default=n))
    free = (1 << n) - 1
    for root in range(last):
        b = 1 << root
        free ^= b
        yield b, free, adj[root]


class _Walker:
    """The growth walker of one solver call, over one adjacency.

    ``done`` and ``best`` start at 0, which cuts nothing.  Only
    ``vertex_profile`` grows ``done``, between hits, and only
    ``cdim_at_set`` sets ``best``, the incumbent: to each hit that precedes
    it, and back to 0 at each level.  ``_plain_level``, the level loop of
    ``dim_exact`` and ``enumerate_min_resolving_sets``, walks the complete
    graph.
    """

    __slots__ = ("adj", "done", "best")

    def __init__(self, adj: Sequence[int]) -> None:
        self.adj = adj
        self.done = 0
        self.best = 0

    def streams(
        self, masks: list[int], k: int, starts: Optional[Iterable[_Start]] = None
    ) -> Iterator[Iterator[int]]:
        """The connected k-sets meeting every mask, as one hit stream per growth start.

        The starts are the roots in ascending order unless given.  On the
        complete graph the streams chained are every k-set meeting the masks,
        in lexicographic order, since growth there tries vertices in
        ascending order.
        """
        for cur, free, nb in starts or _roots(self.adj, masks, k):
            unhit = [m for m in masks if not m & cur]
            yield self.hits(unhit, cur, k - cur.bit_count(), free, nb)

    def hits(self, unhit: list[int], cur: int, r: int, free: int, nb: int) -> Iterator[int]:
        """Extensions of ``cur`` by r neighbors-of-the-set that meet every ``unhit`` mask.

        ``free`` holds the vertices neither in ``cur`` nor banned, and the
        candidates are the free vertices of ``nb``, the set's neighborhood.
        Banning a candidate, taking it out of ``free``, once its subtree is
        exhausted yields each extension exactly once.  Candidates stop at the
        lowest top vertex of an unhit mask whose addable vertices are all
        candidates, since once it is banned no later sibling can meet that
        mask; so no branch is entered with an unhit mask it can no longer
        meet, and none skips a missing forced vertex that is a candidate.  A
        branch is cut when ``self.best`` precedes every completion (below),
        when the vertices it may add and ``cur`` all lie in ``self.done``, or
        when a packing shows that r of the vertices it may add cannot meet
        every unhit mask: unhit masks that stay pairwise disjoint on them
        each need a vertex of their own, so every missing forced vertex
        needs one.  A greedy pass over the masks, smallest first,
        stops once it has more than r; it cannot cut while no more than r
        masks are unhit.  The same pass finds the lowest top vertex.  With
        two slots open, a node fills the last slot of each candidate b
        itself: the choices are the new neighbors of the set that lie in
        every unhit mask b misses.

        The incumbent cut: let u be the lowest vertex of ``free | (cur ^
        best)``.  A completion adds only free vertices, so it agrees with
        ``best`` below u; when u is not free and lies in ``best``, it lies
        outside ``cur`` and so outside every completion, and ``best``
        precedes them all.
        """
        if r == 0:
            if not unhit:
                yield cur
            return
        ext = nb & free
        if r == 1:
            for m in unhit:
                ext &= m
            while ext:
                b = ext & -ext
                yield cur | b
                ext ^= b
            return
        if not (cur | free) & ~self.done:
            return
        best = self.best
        if best:
            low = free | cur ^ best
            if low & -low & best & ~free:
                return
        # The lowest top vertex of an unhit mask whose addable vertices are all
        # candidates; a smaller mask has no higher top vertex.
        beyond = free & ~ext
        low = ext
        used = 0
        slack = r
        for m in unhit:
            m &= free
            if m < low and not m & beyond:
                low = m
            if not m & used:
                used |= m
                slack -= 1
                if slack < 0:
                    return
        ext &= (1 << low.bit_length()) - 1
        adj = self.adj
        while ext:
            b = ext & -ext
            ext ^= b
            new_cur = cur | b
            v = b.bit_length() - 1
            if r > 2:
                yield from self.hits(
                    [m for m in unhit if not m & b], new_cur, r - 1, free ^ b, nb | adj[v]
                )
            else:
                # The last slot: a new neighbor of the set in every unhit mask b misses.
                last = (nb | adj[v]) & free & ~b
                for m in unhit:
                    if not m & b:
                        last &= m
                        if not last:
                            break
                while last:
                    c = last & -last
                    yield new_cur | c
                    last ^= c
            free ^= b


def _plain_level(g: Graph) -> tuple[int, tuple[int, ...], Iterator[int]]:
    """dim(G), g's twin classes and the hits of that level, in lexicographic order.

    The hits are the resolving dim(G)-sets that meet every twin class in a
    prefix, grown on the complete graph; the first is the lexicographically
    smallest witness.  The levels start at dim(G) once a call on the same
    Graph object has proved it, and the value found is recorded.
    """
    masks, twins, floor = _prepare(g)
    proved = _proved(g)
    walker = _Walker([g.vertex_mask() ^ 1 << v for v in range(g.n)])
    for k in range(max(floor, proved[0]), g.n):
        hits = chain.from_iterable(walker.streams(masks, k))
        for first in hits:
            proved[0] = k
            return k, twins, chain((first,), hits)
    raise AssertionError("unreachable: deleting any one vertex leaves a resolving set")


def dim_exact(
    g: Graph,
    dm: Optional[DistanceMatrix] = None,
    *,
    cap: Optional[int] = None,
    workers: int = 1,
) -> SolveResult:
    """Exact metric dimension with the lexicographically smallest witness.

    The search starts at dim(G) once a call on the same Graph object has
    proved it, and records the value it finds.  ``dm`` is never read.
    """
    _check_options(g, cap, workers)
    k, _, hits = _plain_level(g)
    return SolveResult(k, bits(next(hits)))


def cdim_at_set(
    g: Graph,
    anchor: Iterable[int] = (),
    dm: Optional[DistanceMatrix] = None,
    *,
    cap: Optional[int] = None,
    workers: int = 1,
) -> SolveResult:
    """Minimum connected resolving set containing ``anchor`` (may be empty).

    An empty anchor computes the plain connected metric dimension; a singleton
    anchor the connected metric dimension at that vertex.  Once a call on the
    same Graph object has found the witness W of cdim(G), an anchor inside W
    is answered by (cdim(G), W) with no search: cdim(G) <= cdim_G(A) <= |W|,
    and W is the smallest connected resolving set of size cdim(G), so it is
    also the smallest one containing A.  That answer builds no masks.  On
    wheel:17 the hub query ``cdim_at_set(g, (17,))`` after ``cdim_exact(g)``
    is one of these.  Otherwise the search starts at the largest value
    proved on the same Graph object that bounds the answer from below:
    cdim(G) (or dim(G) while cdim(G) is unknown), and cdim_G(v) for each v
    in the anchor, since a set containing the anchor contains v.  At each
    level the smallest hit so far is the walker's incumbent ``best``, which
    cuts every branch whose hits all follow it; a hit that does not precede
    it is dropped before its connectivity is checked.  An empty anchor
    records the value and W it finds, a singleton anchor its value.  ``dm``
    is never read.
    """
    anchor_set = frozenset(anchor)
    if any(v < 0 or v >= g.n for v in anchor_set):
        raise InvalidAnchor(f"anchor {sorted(anchor_set)} not within 0..{g.n - 1}")
    _check_options(g, cap, workers)
    anchor_mask = sum(1 << v for v in anchor_set)
    proved = _proved(g)
    witness = proved[2]
    if witness and not anchor_mask & ~witness:
        if len(anchor_set) == 1:
            proved[min(anchor_set) + 3] = proved[1]
        return SolveResult(proved[1], bits(witness))
    masks, _, floor = _prepare(g, anchor=anchor_mask)
    start = max(floor, proved[1] or proved[0], *[proved[v + 3] for v in anchor_set])
    # Growth from a disconnected anchor also meets disconnected supersets.
    need_check = not g.is_connected_subset(anchor_mask)
    free = g.vertex_mask() ^ anchor_mask
    starts = [(anchor_mask, free, g.neighborhood_of_set(anchor_mask))] if anchor_mask else None
    walker = _Walker(g.adj_bits)

    for k in range(start, g.n + 1):
        walker.best = best = 0
        # The masks force a prefix of each twin class outside the anchor: the
        # twin swaps that fix the anchor keep the smallest hit among those.
        for hits in walker.streams(masks, k, starts):
            for hit in hits:
                # hit precedes best when the smallest vertex they differ in is
                # in hit, as it is when best is 0; only then is it checked.
                diff = hit ^ best
                if diff & -diff & hit and (not need_check or g.is_connected_subset(hit)):
                    walker.best = best = hit
            if best:
                # Sets from later roots have larger minima.
                break
        if best:
            if not anchor_set:
                proved[1:3] = k, best
            elif len(anchor_set) == 1:
                proved[min(anchor_set) + 3] = k
            best = bits(best)
            return SolveResult(k, best)
    raise AssertionError("unreachable: the full vertex set resolves any connected graph")


def cdim_exact(
    g: Graph,
    dm: Optional[DistanceMatrix] = None,
    *,
    cap: Optional[int] = None,
    workers: int = 1,
) -> SolveResult:
    """Exact connected metric dimension with its lexicographically smallest witness.

    The search starts at cdim(G), or else dim(G), once a call on the same
    Graph object has proved it, and records the value and witness it finds;
    a later call on that object returns them with no search.  ``dm`` is
    never read.
    """
    return cdim_at_set(g, (), dm, cap=cap, workers=workers)


def vertex_profile(
    g: Graph,
    dm: Optional[DistanceMatrix] = None,
    *,
    cap: Optional[int] = None,
    workers: int = 1,
) -> VertexProfile:
    """Connected metric dimension at every vertex, in one sweep per cardinality.

    A vertex's value is the smallest k for which some connected resolving
    k-set contains it, so marking members of every resolving set found while
    k ascends yields the whole table without per-vertex searches.  Only sets
    that meet every twin class in a prefix are grown.  Each of them holds a
    vertex of every class, so the first hit marks every class's vertices,
    since twins have equal values.  Branches that can only mark marked
    vertices are cut.  The sweep starts at cdim(G) (or dim(G)) once a call
    on the same Graph object has proved it, and records cdim(G) and every
    cdim_G(v).  ``dm`` is never read.
    """
    _check_options(g, cap, workers)
    masks, twins, floor = _prepare(g)
    paired = reduce(or_, twins, 0)
    proved = _proved(g)
    full = g.vertex_mask()
    # Deleting any fixed non-cut vertex leaves a connected resolving set, so
    # every vertex is marked by k = n-1 at the latest.
    values = [g.n - 1] * g.n
    walker = _Walker(g.adj_bits)
    for k in range(max(floor, proved[1] or proved[0]), g.n):
        if walker.done == full:
            break
        before = walker.done
        for hits in walker.streams(masks, k):
            for hit in hits:
                walker.done |= hit | paired
        for v in bits(walker.done & ~before):
            values[v] = k
    per_vertex = tuple(values)
    rrad = min(per_vertex)
    proved[1] = rrad
    proved[3:] = per_vertex
    rdiam = max(per_vertex)
    rc = tuple(v for v in range(g.n) if per_vertex[v] == rrad)
    rp = tuple(v for v in range(g.n) if per_vertex[v] == rdiam)
    return VertexProfile(per_vertex=per_vertex, rrad=rrad, rdiam=rdiam, rc=rc, rp=rp)


def enumerate_min_resolving_sets(
    g: Graph,
    dm: Optional[DistanceMatrix] = None,
    *,
    cap: Optional[int] = None,
) -> list[tuple[int, ...]]:
    """All minimum resolving sets, in lexicographic order."""
    # The search starts at dim(G) once a call on the same Graph object has
    # proved it, and records the value it finds.  ``dm`` is never read.
    check_cap(g.n, cap, "enumeration")
    _, twins, hits = _plain_level(g)
    # Each hit stands for its orbit under twin swaps.  It meets every class
    # in all of it or all but its top vertex, and the orbit puts that top
    # vertex back in place of any one vertex of the class.
    orbits = []
    for hit in hits:
        orbit = [hit]
        for c in twins:
            top = c & ~hit
            if top:
                orbit = [m ^ top ^ 1 << v for m in orbit for v in bits(c)]
        orbits += orbit
    return sorted(map(bits, orbits))
