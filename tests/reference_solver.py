"""Reference searches for the differential tests.

These are the library's earlier solvers, kept sequential and otherwise
unchanged: ``dim_exact`` tries every k-set from ``itertools.combinations``,
the connected variants grow every connected k-set with a per-branch ban set
and keep the lexicographically smallest resolving one, the profile sweeps
every connected k-set per cardinality, and the enumeration filters all
k-sets.  Each candidate is checked against its full code table, so nothing
here depends on the distinguisher masks of the pruning core.  The one
exception is ``_connected_hits`` at the end, the core's earlier mask walker:
it is the oracle for the order in which the current walker yields its hits.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from metricdim import (
    DistanceMatrix,
    Graph,
    SolveResult,
    TooLarge,
    VertexProfile,
    all_pairs_distances,
    dim_floor_from_diameter,
    twin_partition,
)
from metricdim.graph import bits

DIM_CAP = 24
ENUM_CAP = 16


def _is_resolving(rows: Sequence[Sequence[int]], members: tuple[int, ...], base: int) -> bool:
    # Codes packed into one integer per vertex, base > diam, so digits never carry.
    seen = set()
    add = seen.add
    for row in rows:
        acc = 0
        for u in members:
            acc = acc * base + row[u]
        if acc in seen:
            return False
        add(acc)
    return True


def _twin_filter(mask: int, twin_reqs: Sequence[tuple[int, int]]) -> bool:
    for cmask, need in twin_reqs:
        if (mask & cmask).bit_count() < need:
            return False
    return True


# A growth state: (current mask, size, banned mask, neighborhood mask).
_State = tuple[int, int, int, int]


def _grow(adj: Sequence[int], cur: int, size: int, banned: int, nb: int, k: int) -> Iterator[int]:
    """All size-k connected-growth extensions of ``cur``, each exactly once."""
    if size == k:
        yield cur
        return
    ext = nb & ~banned
    while ext:
        b = ext & -ext
        ext ^= b
        v = b.bit_length() - 1
        new_cur = cur | b
        yield from _grow(adj, new_cur, size + 1, banned, (nb | adj[v]) & ~new_cur, k)
        banned |= b


def _root_states(g: Graph, k: int) -> list[_State]:
    states: list[_State] = []
    for root in range(g.n - k + 1):
        banned = (1 << root) - 1
        states.append((1 << root, 1, banned, g.adj_bits[root] & ~banned))
    return states


def _anchor_state(g: Graph, anchor_mask: int) -> _State:
    size = anchor_mask.bit_count()
    return (anchor_mask, size, 0, g.neighborhood_of_set(anchor_mask))


def _scan_states(
    g: Graph,
    rows: Sequence[Sequence[int]],
    base: int,
    k: int,
    states: Sequence[_State],
    twin_reqs: Sequence[tuple[int, int]],
    need_connectivity_check: bool,
) -> Optional[tuple[int, ...]]:
    adj = g.adj_bits
    best: Optional[tuple[int, ...]] = None
    for state in states:
        cur, size, banned, nb = state
        for mask in _grow(adj, cur, size, banned, nb, k):
            if not _twin_filter(mask, twin_reqs):
                continue
            if need_connectivity_check and not g.is_connected_subset(mask):
                continue
            members = tuple(bits(mask))
            if _is_resolving(rows, members, base):
                if best is None or members < best:
                    best = members
    return best


def _twin_reqs(g: Graph) -> tuple[tuple[int, int], ...]:
    tp = twin_partition(g)
    return tuple(
        (sum(1 << v for v in cls), len(cls) - 1) for cls in tp.classes if len(cls) >= 2
    )


def _prepare(g: Graph, dm: Optional[DistanceMatrix], cap: Optional[int], default_cap: int):
    effective_cap = default_cap if cap is None else cap
    if g.n > effective_cap:
        raise TooLarge(
            f"n={g.n} exceeds the solver cap {effective_cap}; pass cap={g.n} to override"
        )
    if dm is None:
        dm = all_pairs_distances(g)
    floor = max(1, twin_partition(g).lower_bound(), dim_floor_from_diameter(g.n, dm.diam))
    return dm, _twin_reqs(g), floor


def dim_exact(g: Graph, dm: Optional[DistanceMatrix] = None, *, cap: Optional[int] = None):
    dm, twin_reqs, floor = _prepare(g, dm, cap, DIM_CAP)
    rows = dm.rows
    base = dm.diam + 1
    for k in range(floor, g.n):
        for first in range(g.n - k + 1):
            for rest in itertools.combinations(range(first + 1, g.n), k - 1):
                members = (first, *rest)
                mask = 0
                for u in members:
                    mask |= 1 << u
                if not _twin_filter(mask, twin_reqs):
                    continue
                if _is_resolving(rows, members, base):
                    return SolveResult(k, members)
    raise AssertionError("unreachable: deleting any one vertex leaves a resolving set")


def cdim_at_set(
    g: Graph,
    anchor: Iterable[int] = (),
    dm: Optional[DistanceMatrix] = None,
    *,
    cap: Optional[int] = None,
) -> SolveResult:
    anchor_set = frozenset(anchor)
    dm, twin_reqs, floor = _prepare(g, dm, cap, DIM_CAP)
    rows = dm.rows
    base = dm.diam + 1
    anchor_mask = 0
    for v in anchor_set:
        anchor_mask |= 1 << v
    floor = max(floor, len(anchor_set))
    for k in range(floor, g.n + 1):
        if anchor_mask:
            states = [_anchor_state(g, anchor_mask)]
            need_check = not g.is_connected_subset(anchor_mask)
        else:
            states = _root_states(g, k)
            need_check = False
        best = _scan_states(g, rows, base, k, states, twin_reqs, need_check)
        if best is not None:
            return SolveResult(k, best)
    raise AssertionError("unreachable: the full vertex set resolves any connected graph")


def cdim_exact(g: Graph, dm: Optional[DistanceMatrix] = None, *, cap: Optional[int] = None):
    return cdim_at_set(g, (), dm, cap=cap)


def vertex_profile(
    g: Graph, dm: Optional[DistanceMatrix] = None, *, cap: Optional[int] = None
) -> VertexProfile:
    dm, twin_reqs, floor = _prepare(g, dm, cap, DIM_CAP)
    rows = dm.rows
    base = dm.diam + 1
    adj = g.adj_bits
    values: list[Optional[int]] = [None] * g.n
    for k in range(floor, g.n):
        if all(v is not None for v in values):
            break
        marked = 0
        for cur, size, banned, nb in _root_states(g, k):
            for mask in _grow(adj, cur, size, banned, nb, k):
                if not _twin_filter(mask, twin_reqs):
                    continue
                if _is_resolving(rows, tuple(bits(mask)), base):
                    marked |= mask
        for v in bits(marked):
            if values[v] is None:
                values[v] = k
    per_vertex = tuple(v if v is not None else g.n - 1 for v in values)
    rrad = min(per_vertex)
    rdiam = max(per_vertex)
    rc = tuple(v for v in range(g.n) if per_vertex[v] == rrad)
    rp = tuple(v for v in range(g.n) if per_vertex[v] == rdiam)
    return VertexProfile(per_vertex=per_vertex, rrad=rrad, rdiam=rdiam, rc=rc, rp=rp)


def enumerate_min_resolving_sets(
    g: Graph, dm: Optional[DistanceMatrix] = None, *, cap: Optional[int] = None
) -> list[tuple[int, ...]]:
    effective_cap = ENUM_CAP if cap is None else cap
    if g.n > effective_cap:
        raise TooLarge(
            f"n={g.n} exceeds the enumeration cap {effective_cap}; pass cap={g.n} to override"
        )
    if dm is None:
        dm = all_pairs_distances(g)
    k = dim_exact(g, dm, cap=max(DIM_CAP, effective_cap)).value
    twin_reqs = _twin_reqs(g)
    rows = dm.rows
    base = dm.diam + 1
    out: list[tuple[int, ...]] = []
    for members in itertools.combinations(range(g.n), k):
        mask = 0
        for u in members:
            mask |= 1 << u
        if not _twin_filter(mask, twin_reqs):
            continue
        if _is_resolving(rows, members, base):
            out.append(members)
    return out


# The growth walker of the library's exact solvers before it filled the last
# slot inline and folded its bounds into one pass, copied verbatim: the oracle
# for the order of the hits the current walker yields.


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


def _connected_hits(
    adj: Sequence[int],
    full: int,
    twins: tuple[int, ...],
    unhit: list[int],
    cur: int,
    r: int,
    banned: int,
    nb: int,
    done: Sequence[int],
    up: Sequence[int] = (),
) -> Iterator[int]:
    """Extensions of ``cur`` by r neighbors-of-the-set that meet every ``unhit`` mask.

    Banning a candidate for the rest of its branch once its subtree is
    exhausted yields each extension exactly once.  Candidates stop at the
    lowest top vertex of an unhit mask whose addable vertices are all
    candidates, since once it is banned no later sibling can meet that mask;
    so no branch is entered with an unhit mask it can no longer meet.  A
    branch is cut when ``_too_few`` shows that r of the vertices it may add
    cannot meet every unhit mask, or when they and ``cur`` all lie in
    ``done[0]``, a mask the caller may grow between hits.

    With ``up``, the class-mates above each vertex, a candidate's are banned
    and dropped from the candidates along with it, the last slot included.
    Twins enter the candidates together and are tried in ascending order, so
    this yields exactly the extensions that add, from each twin class, a
    prefix of its vertices outside ``cur`` and ``banned``.
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
            if up:
                ext &= ~up[b.bit_length() - 1]
        return
    free = full & ~(banned | cur)
    if not (cur | free) & ~done[0]:
        return
    # The lowest top vertex of an unhit mask whose addable vertices are all
    # candidates; a smaller mask has no higher top vertex.
    beyond = free & ~ext
    low = ext
    for m in unhit:
        if m & free < low and not m & beyond:
            low = m & free
    if len(unhit) > r and _too_few(unhit, twins, cur, free, r):
        return
    ext &= (1 << low.bit_length()) - 1
    while ext:
        b = ext & -ext
        ext ^= b
        new_cur = cur | b
        v = b.bit_length() - 1
        yield from _connected_hits(
            adj, full, twins, [m for m in unhit if not m & b], new_cur, r - 1, banned,
            (nb | adj[v]) & ~new_cur, done, up,
        )
        if up:
            b |= up[v]
            ext &= ~b
        banned |= b

