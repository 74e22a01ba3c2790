"""Exact solvers for metric dimension and its connected variants.

A vertex set resolves a graph exactly when it meets the distinguisher mask
D(u, w) = {v : d(v, u) != d(v, w)} of every vertex pair, so each solver here
searches for small hitting sets of those masks.  This is the set-cover view
of Khuller, Raghavachari and Rosenfeld ("Landmarks in graphs", 1996) and the
constraint matrix of the integer program of Chartrand, Eroh, Johnson and
Oellermann (2000).  ``_prepare`` builds the masks once per call, smallest
first, and drops every mask that contains another, since a set meeting the
smaller one meets both (Weihe, "Covering trains by stations or the power of
data reduction", 1998).  Only twin pairs have a mask of size two, and those
masks give the twin classes and the twin-class lower bound; the diameter
floor is the other one.

For each cardinality k, ascending from that bound, the search carries the
masks its partial set has not hit yet, and fills the last slot from their
intersection.  With r slots still open, it cuts a branch when an unhit mask
has no vertex left that the branch could still add, or when ``_too_few``
shows r cannot suffice: either the twin deficit, the twin-class vertices
still missing from the partial set, exceeds r, or a greedy packing finds
more than r unhit masks that are pairwise disjoint on the vertices the
branch may still add.  Every cut drops only branches without a hit, so the
order in which hits are met is unchanged.  Plain sets come from an
include-first walk over the vertices in ascending order, which meets k-sets
in lexicographic order, so its first hit is the lexicographically smallest
witness.  Connected sets come from seeded growth with a per-branch ban set,
which meets each connected k-set exactly once; the smallest hit is kept.
The search is sequential: ``workers`` is checked but never changes the work
done.  Exceeding a cap is an error, never a silent approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import EmptySet, InvalidAnchor, InvalidOption
from .graph import DistanceMatrix, Graph, all_pairs_distances, bits, check_cap

DIM_CAP = 24
ENUM_CAP = 16


class SolveResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ResolvingCertificate:
    """Full code table proving that a vertex set does or does not resolve."""

    set: tuple[int, ...]
    codes: dict[int, tuple[int, ...]]
    resolving: bool
    witness_pair: Optional[tuple[int, int]]


@dataclass(frozen=True)
class VertexProfile:
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
    vertices sharing a code.
    """
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


def _pair_masks(rows: Sequence[Sequence[int]]) -> list[int]:
    """Distinguisher masks of all vertex pairs, deduplicated, smallest first.

    The distance matrix is symmetric, so D(u, w) is where rows u and w differ.
    """
    n = len(rows)
    masks = set()
    for u in range(n):
        ru = rows[u]
        for w in range(u + 1, n):
            rw = rows[w]
            mask = 0
            for v in range(n):
                if ru[v] != rw[v]:
                    mask |= 1 << v
            masks.add(mask)
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def _prepare(
    g: Graph,
    dm: Optional[DistanceMatrix],
    cap: Optional[int],
    default_cap: int,
    workers: int = 1,
    what: str = "solver",
) -> tuple[list[int], tuple[int, ...], int]:
    """Checked arguments to (inclusion-minimal masks, twin classes, lower bound on the answer)."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InvalidOption(f"workers must be an int >= 1, got {workers!r}")
    check_cap(g.n, cap, default_cap, what)
    if dm is None:
        dm = all_pairs_distances(g)
    masks = _pair_masks(dm.rows)
    # Only twins have a mask of size two, and twinhood is an equivalence, so
    # the size-two masks through a vertex together make up its twin class.
    classes: dict[int, int] = {}
    for m in masks:
        if m.bit_count() > 2:
            break
        for b in (m & -m, m & (m - 1)):
            classes[b] = classes.get(b, b) | m
    twins = tuple(set(classes.values()))
    # A resolving set holds all but one vertex of every twin class.
    floor = len(classes) - len(twins)
    return _minimal(masks), twins, max(1, floor, dim_floor_from_diameter(g.n, dm.diam))


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


def _too_few(unhit: list[int], twins: tuple[int, ...], cur: int, free: int, r: int) -> bool:
    """Whether a lower bound shows r more vertices from ``free`` cannot meet all ``unhit`` masks.

    Two lower bounds on the vertices still needed are tried.  The twin
    deficit: every twin class needs all but one of its vertices.  The
    packing: unhit masks that stay pairwise disjoint on ``free`` each need a
    vertex of their own, and a greedy pass over the masks, smallest first,
    stops once it has more than r.  Neither bound exceeds ``len(unhit)``, so
    a caller may skip the call when that is at most r.
    """
    need = 0
    for c in twins:
        gap = c.bit_count() - 1 - (c & cur).bit_count()
        if gap > 0:
            need += gap
    if need > r:
        return True
    used = 0
    for m in unhit:
        m &= free
        if not m & used:
            used |= m
            r -= 1
            if r < 0:
                return True
    return False


def _hitting_sets(masks: list[int], twins: tuple[int, ...], n: int, k: int) -> Iterator[int]:
    """Every k-subset of range(n) meeting all ``masks``, as bitmasks, in lexicographic order.

    ``twins`` are the twin class masks that ``_prepare`` derives from ``masks``.
    """
    full = (1 << n) - 1

    def walk(cur: int, lo: int, r: int, unhit: list[int]) -> Iterator[int]:
        # Invariant: every unhit mask has a vertex at or above ``lo``.
        free = full >> lo << lo
        if r == 1:
            for m in unhit:
                free &= m
            while free:
                b = free & -free
                yield cur | b
                free ^= b
            return
        if len(unhit) > r and _too_few(unhit, twins, cur, free, r):
            return
        # The next vertex taken must not pass the lowest top vertex of an
        # unhit mask, and must leave room for the r - 1 after it.
        hi = min(n - r, min(map(int.bit_length, unhit), default=n) - 1)
        for v in range(lo, hi + 1):
            b = 1 << v
            yield from walk(cur | b, v + 1, r - 1, [m for m in unhit if not m & b])

    return walk(0, 0, k, masks)


# A growth start: (current mask, banned mask, neighborhood mask).
_Start = tuple[int, int, int]


def _roots(adj: Sequence[int], n: int, k: int) -> Iterator[_Start]:
    """Starts for anchor-free growth of k-sets: one per root, root = subset minimum."""
    for root in range(n - k + 1):
        banned = (1 << root) - 1
        yield 1 << root, banned, adj[root] & ~banned


def _connected_hits(
    adj: Sequence[int],
    full: int,
    twins: tuple[int, ...],
    unhit: list[int],
    cur: int,
    r: int,
    banned: int,
    nb: int,
    done: list[int],
) -> Iterator[int]:
    """Extensions of ``cur`` by r neighbors-of-the-set that meet every ``unhit`` mask.

    Banning a candidate for the rest of its branch once its subtree is
    exhausted yields each extension exactly once.  A branch is cut when an
    unhit mask misses every vertex it could still add, when ``_too_few`` shows
    that r of those vertices cannot meet every unhit mask, or when they and
    ``cur`` all lie in ``done[0]``, a mask the caller may grow between hits.
    """
    if r == 0:
        if not unhit:
            yield cur
        return
    ext = nb & ~banned
    if r == 1:
        for m in unhit:
            ext &= m
        while ext:
            b = ext & -ext
            yield cur | b
            ext ^= b
        return
    free = full & ~(banned | cur)
    if not (cur | free) & ~done[0]:
        return
    for m in unhit:
        if not m & free:
            return
    if len(unhit) > r and _too_few(unhit, twins, cur, free, r):
        return
    while ext:
        b = ext & -ext
        ext ^= b
        new_cur = cur | b
        yield from _connected_hits(
            adj,
            full,
            twins,
            [m for m in unhit if not m & b],
            new_cur,
            r - 1,
            banned,
            (nb | adj[b.bit_length() - 1]) & ~new_cur,
            done,
        )
        banned |= b


def dim_exact(
    g: Graph,
    dm: Optional[DistanceMatrix] = None,
    *,
    cap: Optional[int] = None,
    workers: int = 1,
) -> SolveResult:
    """Exact metric dimension with the lexicographically smallest witness."""
    masks, twins, floor = _prepare(g, dm, cap, DIM_CAP, workers)
    for k in range(floor, g.n):
        for hit in _hitting_sets(masks, twins, g.n, k):
            return SolveResult(k, tuple(bits(hit)))
    raise AssertionError("unreachable: deleting any one vertex leaves a resolving set")


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
    anchor the connected metric dimension at that vertex.
    """
    anchor_set = frozenset(anchor)
    if any(v < 0 or v >= g.n for v in anchor_set):
        raise InvalidAnchor(f"anchor {sorted(anchor_set)} not within 0..{g.n - 1}")
    masks, twins, floor = _prepare(g, dm, cap, DIM_CAP, workers)
    adj = g.adj_bits
    full = g.vertex_mask()
    anchor_mask = 0
    for v in anchor_set:
        anchor_mask |= 1 << v
    # Growth from a disconnected anchor also meets disconnected supersets.
    need_check = not g.is_connected_subset(anchor_mask)

    for k in range(max(floor, len(anchor_set)), g.n + 1):
        if anchor_mask:
            starts: Iterable[_Start] = [(anchor_mask, 0, g.neighborhood_of_set(anchor_mask))]
        else:
            starts = _roots(adj, g.n, k)
        best = 0
        for cur, banned, nb in starts:
            unhit = [m for m in masks if not m & cur]
            r = k - cur.bit_count()
            for hit in _connected_hits(adj, full, twins, unhit, cur, r, banned, nb, [0]):
                if need_check and not g.is_connected_subset(hit):
                    continue
                # hit precedes best when the smallest vertex they differ in is in hit.
                diff = hit ^ best
                if not best or diff & -diff & hit:
                    best = hit
            if best:
                # Sets from later roots have larger minima.
                break
        if best:
            best = tuple(bits(best))
            return SolveResult(k, best)
    raise AssertionError("unreachable: the full vertex set resolves any connected graph")


def cdim_exact(
    g: Graph,
    dm: Optional[DistanceMatrix] = None,
    *,
    cap: Optional[int] = None,
    workers: int = 1,
) -> SolveResult:
    """Exact connected metric dimension with its lexicographically smallest witness."""
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
    k ascends yields the whole table without per-vertex searches.  Branches
    that can only mark marked vertices are cut.
    """
    masks, twins, floor = _prepare(g, dm, cap, DIM_CAP, workers)
    adj = g.adj_bits
    full = g.vertex_mask()
    # Deleting any fixed non-cut vertex leaves a connected resolving set, so
    # every vertex is marked by k = n-1 at the latest.
    values = [g.n - 1] * g.n
    marked = [0]
    for k in range(floor, g.n):
        if marked[0] == full:
            break
        before = marked[0]
        for cur, banned, nb in _roots(adj, g.n, k):
            unhit = [m for m in masks if not m & cur]
            for hit in _connected_hits(adj, full, twins, unhit, cur, k - 1, banned, nb, marked):
                marked[0] |= hit
        for v in bits(marked[0] & ~before):
            values[v] = k
    per_vertex = tuple(values)
    rrad = min(per_vertex)
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
    masks, twins, floor = _prepare(g, dm, cap, ENUM_CAP, what="enumeration")
    for k in range(floor, g.n):
        sets = [tuple(bits(hit)) for hit in _hitting_sets(masks, twins, g.n, k)]
        if sets:
            return sets
    raise AssertionError("unreachable: deleting any one vertex leaves a resolving set")
