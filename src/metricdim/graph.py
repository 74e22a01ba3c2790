"""Graph representation and metric primitives.

Vertices are dense 0-based indices; external labels live in the CLI layer.
Adjacency is kept both as neighbor tuples and as per-vertex bitmasks, the
latter being the workhorse of the subset-search solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidEdge, InvalidOption, NotConnected, TooLarge, TooSmall

# Hard cap on library graph order: distances fit 16 bits with huge headroom,
# and every exact solver saturates far below this anyway.
MAX_ORDER = 4096


def check_cap(n: int, cap: Optional[int], default_cap: int, what: str) -> None:
    """Reject a cap below 1, and an order ``n`` past the cap (``default_cap`` if None)."""
    if cap is not None and cap < 1:
        raise InvalidOption(f"cap must be at least 1, got {cap}")
    effective_cap = default_cap if cap is None else cap
    if n > effective_cap:
        raise TooLarge(
            f"n={n} exceeds the {what} cap {effective_cap}; pass cap={n} to override"
        )


def bits(mask: int) -> Iterator[int]:
    """Iterate set-bit indices of a mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    adj_bits: tuple[int, ...]
    m: int
    had_duplicate_edges: bool = False

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_bits[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def neighborhood_of_set(self, mask: int) -> int:
        """Union of neighborhoods of the vertices in ``mask``, minus the set."""
        nb = 0
        for v in bits(mask):
            nb |= self.adj_bits[v]
        return nb & ~mask

    def is_connected_subset(self, mask: int) -> bool:
        """Whether the induced subgraph on ``mask`` is connected (empty set: True)."""
        return mask == 0 or next(components(self.adj_bits, mask)) == mask

    def is_connected(self) -> bool:
        return self.n == 0 or self.is_connected_subset(self.vertex_mask())

    def induced(self, keep: Sequence[int]) -> "Graph":
        """Induced subgraph on ``keep``; vertices are re-indexed in the given order."""
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u in keep
            for v in self.neighbors[u]
            if u < v and v in index
        ]
        return build_graph(len(keep), edges, _allow_small=True)

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise InvalidEdge(f"no edge {u}-{v} to delete")
        edges = [e for e in self.edges() if e != (min(u, v), max(u, v))]
        return build_graph(self.n, edges, _allow_small=True)


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    *,
    _allow_small: bool = False,
) -> Graph:
    """Build a simple undirected graph; duplicate edges collapse with a warning flag.

    Raises InvalidEdge for self-loops or out-of-range endpoints, TooSmall for
    n < 2 (the solvers assume order at least two) and TooLarge beyond MAX_ORDER.
    """
    if n < 2 and not _allow_small:
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
    neighbors = tuple(tuple(bits(r)) for r in rows)
    m = sum(len(nb) for nb in neighbors) // 2
    return Graph(
        n=n,
        neighbors=neighbors,
        adj_bits=tuple(rows),
        m=m,
        had_duplicate_edges=duplicates,
    )


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances of a connected graph, with eccentricities."""

    n: int
    rows: tuple[tuple[int, ...], ...]
    ecc: tuple[int, ...]
    rad: int
    diam: int

    def d(self, u: int, v: int) -> int:
        return self.rows[u][v]


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex. Raises NotConnected on disconnected input."""
    full = g.vertex_mask()
    rows: list[tuple[int, ...]] = []
    adj = g.adj_bits
    for s in range(g.n):
        dist = [0] * g.n
        seen = frontier = 1 << s
        level = 0
        # The set bits are walked inline: this loop runs once per solver call,
        # and a ``bits`` generator costs about a third of it on small graphs.
        while frontier:
            level += 1
            reach = 0
            while frontier:
                b = frontier & -frontier
                reach |= adj[b.bit_length() - 1]
                frontier ^= b
            frontier = reach & ~seen
            seen |= frontier
            nxt = frontier
            while nxt:
                b = nxt & -nxt
                dist[b.bit_length() - 1] = level
                nxt ^= b
        if seen != full:
            raise NotConnected("graph is not connected")
        rows.append(tuple(dist))
    ecc = tuple(max(r) for r in rows)
    return DistanceMatrix(n=g.n, rows=tuple(rows), ecc=ecc, rad=min(ecc), diam=max(ecc))


def components(adj: Sequence[int], mask: int) -> Iterator[int]:
    """Connected components of the subgraph induced by ``mask``, as masks.

    ``adj`` holds one neighbour bitmask per vertex.  Components come in the
    order of their lowest vertex, each filled only when it is asked for.
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


@dataclass(frozen=True)
class TwinPartition:
    """Partition of V into maximal twin classes.

    u and w are twins when N(u)-{w} == N(w)-{u}; the relation is an
    equivalence, each class being a clique or an independent set.  Any
    resolving set must contain all but one vertex of every class, which
    yields the solver's cheap lower bound.
    """

    classes: tuple[tuple[int, ...], ...]

    def lower_bound(self) -> int:
        return sum(len(c) - 1 for c in self.classes)

    def class_of(self, v: int) -> tuple[int, ...]:
        for c in self.classes:
            if v in c:
                return c
        raise KeyError(v)


def twin_partition(g: Graph) -> TwinPartition:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # Non-adjacent twins share an open neighborhood, adjacent twins a closed
    # one; grouping by both keys covers every twin pair.
    open_groups: dict[int, int] = {}
    closed_groups: dict[int, int] = {}
    for v in range(g.n):
        row = g.adj_bits[v]
        if row in open_groups:
            union(open_groups[row], v)
        else:
            open_groups[row] = v
        closed = row | (1 << v)
        if closed in closed_groups:
            union(closed_groups[closed], v)
        else:
            closed_groups[closed] = v
    by_root: dict[int, list[int]] = {}
    for v in range(g.n):
        by_root.setdefault(find(v), []).append(v)
    classes = tuple(tuple(sorted(c)) for _, c in sorted(by_root.items()))
    return TwinPartition(classes=classes)
