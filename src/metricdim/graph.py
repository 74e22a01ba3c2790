"""Graph representation and metric primitives.

Vertices are dense 0-based indices; external labels live in the CLI layer.
Adjacency has one format, a neighbour bitmask per vertex: the solvers, the
BFS, the blocks, the minor search and the closed forms all read it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .errors import InvalidAnchor, InvalidEdge, InvalidOption, NotConnected, TooLarge, TooSmall

_T = TypeVar("_T")

# Hard cap on library graph order: distances fit 16 bits with huge headroom,
# and every exact solver saturates far below this anyway.
MAX_ORDER = 4096

# The default order cap of each exact search, by the name its refusal gives it.
CAPS = {"solver": 24, "enumeration": 16, "minor-search": 20}


def check_cap(n: int, cap: Optional[int], what: str) -> None:
    """Reject a cap below 1, and an order ``n`` past the cap (``CAPS[what]`` if None)."""
    if cap is not None and cap < 1:
        raise InvalidOption(f"cap must be at least 1, got {cap}")
    effective_cap = CAPS[what] if cap is None else cap
    if n > effective_cap:
        raise TooLarge(
            f"n={n} exceeds the {what} cap {effective_cap}; pass cap={n} to override"
        )


def _checked_mask(n: int, mask: int) -> int:
    """``mask``, if it is a vertex set of a graph of order ``n``; else InvalidAnchor."""
    if mask < 0 or mask >> n:
        raise InvalidAnchor(f"mask {mask} holds a vertex outside 0..{n - 1}")
    return mask


def _byte_table(low: int) -> list[tuple[int, ...]]:
    """Entry j is the ascending tuple of ``low + i`` over the set bits i of the byte j."""
    # Doubling: the entries with bit i set are those without it, plus ``low + i``.
    table: list[tuple[int, ...]] = [()]
    for i in range(low, low + 8):
        table += [t + (i,) for t in table]
    return table


_BYTE0, _BYTE1, _BYTE2 = _byte_table(0), _byte_table(8), _byte_table(16)


def bits(mask: int) -> tuple[int, ...]:
    """The set-bit indices of a non-negative mask, as an ascending tuple.

    A mask below 2**24, which covers every exact search at its default
    cap, is decoded byte by byte from three 256-entry tables.  A wider mask
    is walked one set bit at a time, so a sparse row of a big graph costs
    its set bits, not its bytes.
    """
    if mask < 256:
        return _BYTE0[mask]
    if mask < 1 << 16:
        return _BYTE0[mask & 255] + _BYTE1[mask >> 8]
    if mask < 1 << 24:
        return _BYTE0[mask & 255] + _BYTE1[mask >> 8 & 255] + _BYTE2[mask >> 16]
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


class _Frozen:
    """Immutable slotted record: its fields are its ``__slots__``, in order.

    Two records are equal when they have the same type and equal fields.
    The solvers' inner loops read the fields, and a slot read is as fast as
    an instance-dictionary read, where a named-tuple field read is slower.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # Copies and pickles rebuild through __init__, not through __setattr__.
        return type(self), self._values()


class Graph(_Frozen):
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj_bits[v]`` has bit u set exactly when u and v are adjacent; ``bits``
    lists a vertex's neighbours from it in ascending order.  ``m`` counts the
    edges, and ``had_duplicate_edges`` records that the input repeated one.
    """

    __slots__ = ("n", "adj_bits", "m", "had_duplicate_edges")
    n: int
    adj_bits: tuple[int, ...]
    m: int
    had_duplicate_edges: bool

    def __init__(
        self, n: int, adj_bits: tuple[int, ...], m: int, had_duplicate_edges: bool = False
    ) -> None:
        init = object.__setattr__
        init(self, "n", n)
        init(self, "adj_bits", adj_bits)
        init(self, "m", m)
        init(self, "had_duplicate_edges", had_duplicate_edges)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise InvalidAnchor(f"vertex {v} not within 0..{self.n - 1}")
        return self.adj_bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidEdge(f"edge ({u},{v}) out of range for n={self.n}")
        return bool(self.adj_bits[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once, as (u, v) with u < v, by ascending u and then v."""
        for u, row in enumerate(self.adj_bits):
            for v in bits(row >> u + 1):
                yield (u, u + 1 + v)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def neighborhood_of_set(self, mask: int) -> int:
        """Union of neighborhoods of the vertices in ``mask``, minus the set."""
        nb = 0
        for v in bits(_checked_mask(self.n, mask)):
            nb |= self.adj_bits[v]
        return nb & ~mask

    def is_connected_subset(self, mask: int) -> bool:
        """Whether the induced subgraph on ``mask`` is connected.

        The empty mask is connected: it has no two vertices to separate.
        """
        return _checked_mask(self.n, mask) == 0 or next(components(self.adj_bits, mask)) == mask

    def is_connected(self) -> bool:
        return self.n == 0 or self.is_connected_subset(self.vertex_mask())

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise InvalidEdge(f"no edge {u}-{v} to delete")
        edges = [e for e in self.edges() if e != (min(u, v), max(u, v))]
        return build_graph(self.n, edges)


def remember_last_graph(fn: Callable[[Graph], _T]) -> Callable[[Graph], _T]:
    """Wrap ``fn`` so that a second call on the same Graph object returns the first result.

    One entry is kept: the last graph passed and ``fn``'s result on it.  The
    key is object identity, which costs nothing to test, so an equal but
    distinct graph is computed afresh.  The entry holds a strong reference
    to its graph, so no other object can take its id while it is the key.
    Every caller gets the same result object, so callers must not mutate it,
    unless it is a record meant to accumulate facts proved about its graph
    (``solver._proved``, the automorphisms in ``minor._kernel``): a caller may
    then add a fact it has proved, and the record dies with the entry, so an
    equal copy starts with an empty one.  A call on which ``fn`` raises keeps
    the entry as it was.
    """
    last: tuple = (None, None)

    def remembered(g: Graph) -> _T:
        nonlocal last
        key, value = last
        if key is not g:
            value = fn(g)
            # One assignment, so a thread never reads a key with another graph's value.
            last = (g, value)
        return value

    return remembered


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple undirected graph; duplicate edges collapse with a warning flag.

    Raises InvalidEdge for self-loops or out-of-range endpoints, TooSmall for
    n < 2 (the solvers assume order at least two) and TooLarge beyond MAX_ORDER.
    """
    if n < 2:
        raise TooSmall(f"need at least 2 vertices, got {n}")
    if n > MAX_ORDER:
        raise TooLarge(f"n={n} exceeds the library cap {MAX_ORDER}")
    rows = [0] * n
    duplicates = False
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidEdge(f"edge ({u},{v}) out of range for n={n}")
        if rows[u] >> v & 1:
            duplicates = True
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    m = sum(map(int.bit_count, rows)) // 2
    return Graph(n=n, adj_bits=tuple(rows), m=m, had_duplicate_edges=duplicates)


class DistanceMatrix(_Frozen):
    """All-pairs hop distances of a connected graph, with eccentricities."""

    __slots__ = ("n", "rows", "ecc", "rad", "diam")
    n: int
    rows: tuple[tuple[int, ...], ...]
    ecc: tuple[int, ...]
    rad: int
    diam: int

    def __init__(
        self, n: int, rows: tuple[tuple[int, ...], ...], ecc: tuple[int, ...], rad: int, diam: int
    ) -> None:
        init = object.__setattr__
        init(self, "n", n)
        init(self, "rows", rows)
        init(self, "ecc", ecc)
        init(self, "rad", rad)
        init(self, "diam", diam)

    def d(self, u: int, v: int) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidAnchor(f"vertices ({u},{v}) not both within 0..{self.n - 1}")
        return self.rows[u][v]


def distance_levels(adj: Sequence[int]) -> list[list[int]]:
    """BFS from every vertex: per source, the masks of the vertices at distance 1, 2, ...

    ``adj`` holds one neighbour bitmask per vertex.  A source's eccentricity
    is the length of its list.  Raises NotConnected on disconnected input.
    """
    full = (1 << len(adj)) - 1
    out = []
    for s in range(len(adj)):
        seen = frontier = 1 << s
        levels = []
        # Every solver call runs this BFS.  Decoding each frontier with ``bits``
        # beats walking its set bits inline: all sources of the 995 atlas graphs
        # take 4.8 ms against 6.1 ms, and of the six search-workload graphs
        # 0.15 ms against 0.21 ms (best of 25, Python 3.11, one core).
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & ~seen
            if frontier:
                seen |= frontier
                levels.append(frontier)
        if seen != full:
            raise NotConnected("graph is not connected")
        out.append(levels)
    return out


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Hop distances read off ``distance_levels``. Raises NotConnected on disconnected input."""
    rows: list[tuple[int, ...]] = []
    ecc = []
    for levels in distance_levels(g.adj_bits):
        dist = [0] * g.n
        for d, level in enumerate(levels, 1):
            for v in bits(level):
                dist[v] = d
        rows.append(tuple(dist))
        ecc.append(len(levels))
    return DistanceMatrix(n=g.n, rows=tuple(rows), ecc=tuple(ecc), rad=min(ecc), diam=max(ecc))


def components(adj: Sequence[int], mask: int) -> Iterator[int]:
    """Connected components of the subgraph induced by ``mask``, as masks.

    ``adj`` holds one neighbour bitmask per vertex.  Components come in the
    order of their lowest vertex, each filled only when it is asked for.
    Each frontier is decoded with ``bits``, as in ``distance_levels``: the
    components of every vertex-deleted mask of the atlas graphs take 6.8 ms
    against 7.5 ms with an inline walk, and of the search-workload graphs
    0.17 ms against 0.23 ms.  The minor search writes this loop out in its
    pop, where it runs on every state.
    """
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & mask & ~comp
            comp |= frontier
        mask &= ~comp
        yield comp


def blocks(adj: Sequence[int]) -> list[int]:
    """Vertex masks of the biconnected blocks that have at least one edge.

    ``adj`` holds one neighbour bitmask per vertex.  The blocks come from an
    iterative lowpoint depth-first search with an edge stack.
    """
    n = len(adj)
    disc = [0] * n  # discovery time; 0 while unvisited
    low = [0] * n
    found = []
    clock = 0
    for root in range(n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        # Frames are (vertex, DFS parent, neighbours not yet scanned).
        frames = [(root, -1, adj[root])]
        edges: list[tuple[int, int]] = []
        while frames:
            v, parent, todo = frames[-1]
            if todo:
                w = (todo & -todo).bit_length() - 1
                frames[-1] = (v, parent, todo & (todo - 1))
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    edges.append((v, w))
                    frames.append((w, v, adj[w]))
                elif w != parent and disc[w] < disc[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
                continue
            frames.pop()
            if not frames:
                break
            u = frames[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                # No back edge from v's subtree climbs above u: the edges
                # stacked since the tree edge (u, v) form one block.
                block = 0
                while True:
                    a, b = edges.pop()
                    block |= 1 << a | 1 << b
                    if a == u and b == v:
                        break
                found.append(block)
    return found


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation points of a connected graph: the vertices in two or more blocks."""
    if not g.is_connected():
        raise NotConnected("cut vertices are defined here for connected graphs")
    seen = cut = 0
    for block in blocks(g.adj_bits):
        cut |= seen & block
        seen |= block
    return frozenset(bits(cut))


class TwinPartition(NamedTuple):
    """Partition of V into maximal twin classes.

    u and w are twins when N(u)-{w} == N(w)-{u}; the relation is an
    equivalence, each class being a clique or an independent set.  Any
    resolving set must contain all but one vertex of every class, which
    yields the solver's cheap lower bound.
    """

    classes: tuple[tuple[int, ...], ...]

    def lower_bound(self) -> int:
        return sum(len(c) - 1 for c in self.classes)


def twin_partition(g: Graph) -> TwinPartition:
    # Non-adjacent twins share an open neighborhood, adjacent twins a closed
    # one.  No vertex has both kinds: N(v) = N(a) and N[v] = N[b] give b ~ v,
    # so b ~ a, so a ~ v, though a is not in N(a).  So the groups of two or
    # more under either key never overlap, and every other vertex is alone.
    by_open: dict[int, list[int]] = {}
    by_closed: dict[int, list[int]] = {}
    for v, row in enumerate(g.adj_bits):
        by_open.setdefault(row, []).append(v)
        by_closed.setdefault(row | 1 << v, []).append(v)
    classes = [c for c in (*by_open.values(), *by_closed.values()) if len(c) > 1]
    paired = {v for c in classes for v in c}
    classes += [[v] for v in range(g.n) if v not in paired]
    return TwinPartition(classes=tuple(sorted(map(tuple, classes))))
