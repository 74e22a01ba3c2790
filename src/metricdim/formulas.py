"""Structural analyzers and closed-form evaluation of dimension formulas.

Each evaluator accepts a FamilySpec, its canonical text, or a raw Graph.  A
spec is generated first; either way the graph is then matched by a
structural recognizer, and the closed form is read off the recognized
structure.  Every value returned here is independently checkable against
the exact solvers; the test suite does exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    IsAPath,
    MetricDimError,
    NotATree,
    NotUnicyclic,
    TooMany,
    Unsupported,
)
from .families import FamilySpec, generate, parse_spec
from .graph import DistanceMatrix, Graph, all_pairs_distances, bits, components
from .solver import check_resolving

TREE_ENUM_CAP = 10**6


@dataclass(frozen=True)
class FormulaResult:
    value: int
    case_label: str
    theorem_id: str


# ---------------------------------------------------------------------------
# Tree skeleton


@dataclass(frozen=True)
class TreeSkeleton:
    """Exterior-major-vertex decomposition of a tree.

    ``legs[v]`` holds, for each exterior major vertex v, the vertex chains of
    its terminal paths (major vertex excluded, leaf last).  ``dset`` collects
    interior degree-two vertices and majors of terminal degree zero.  The zone
    of a vertex drives the per-vertex dimension formula: vertices of gamma
    (closed neighborhoods of the ter>=2 majors inside their own subtrees, the
    ter==1 majors, and dset) sit in some minimum connected resolving set;
    the rest pay for their distance to the nearest major vertex.
    """

    n: int
    is_path: bool
    sigma: int
    ex: int
    terminal_degree: dict[int, int]
    legs: dict[int, tuple[tuple[int, ...], ...]]
    m1: frozenset[int]
    m2: frozenset[int]
    dset: frozenset[int]
    gamma: frozenset[int]
    zone: tuple[str, ...]
    nearest_major: tuple[Optional[int], ...]
    nearest_major_dist: tuple[int, ...]

    def exterior_major(self) -> tuple[int, ...]:
        return tuple(sorted(self.terminal_degree))


def tree_skeleton(t: Graph) -> TreeSkeleton:
    if t.m != t.n - 1 or not t.is_connected():
        raise NotATree(f"graph with n={t.n}, m={t.m} is not a tree")
    deg = [t.degree(v) for v in range(t.n)]
    majors = [v for v in range(t.n) if deg[v] >= 3]
    leaves = [v for v in range(t.n) if deg[v] == 1]
    sigma = len(leaves)

    if not majors:
        zone = tuple("path-end" if deg[v] == 1 else "path-interior" for v in range(t.n))
        return TreeSkeleton(
            n=t.n,
            is_path=True,
            sigma=sigma,
            ex=0,
            terminal_degree={},
            legs={},
            m1=frozenset(),
            m2=frozenset(),
            dset=frozenset(),
            gamma=frozenset(),
            zone=zone,
            nearest_major=tuple(None for _ in range(t.n)),
            nearest_major_dist=tuple(0 for _ in range(t.n)),
        )

    ter: dict[int, int] = {}
    legs: dict[int, list[tuple[int, ...]]] = {}
    on_leg: dict[int, tuple[int, int]] = {}  # vertex -> (its major, distance to it)
    for leaf in leaves:
        chain = [leaf]
        prev, cur = -1, leaf
        while deg[cur] < 3:
            nxt = next(u for u in t.neighbors[cur] if u != prev)
            prev, cur = cur, nxt
            if deg[cur] < 3:
                chain.append(cur)
        major = cur
        ter[major] = ter.get(major, 0) + 1
        chain.reverse()  # now runs from the major's neighbor out to the leaf
        legs.setdefault(major, []).append(tuple(chain))
        for dist, v in enumerate(chain, start=1):
            on_leg[v] = (major, dist)

    m1 = frozenset(v for v, k in ter.items() if k == 1)
    m2 = frozenset(v for v, k in ter.items() if k >= 2)
    dset = frozenset(
        v
        for v in range(t.n)
        if (deg[v] == 2 and v not in on_leg) or (deg[v] >= 3 and v not in ter)
    )
    gamma = set(m1) | set(dset)
    for w in m2:
        gamma.add(w)
        for chain in legs[w]:
            gamma.add(chain[0])
    gamma = frozenset(gamma)

    # Distance to the nearest major vertex, for the off-gamma formula cases.
    nearest: list[Optional[int]] = [None] * t.n
    ndist = [0] * t.n
    frontier = list(majors)
    for v in majors:
        nearest[v] = v
    level = 0
    while frontier:
        level += 1
        nxt_frontier = []
        for v in frontier:
            for u in t.neighbors[v]:
                if nearest[u] is None:
                    nearest[u] = nearest[v]
                    ndist[u] = level
                    nxt_frontier.append(u)
        frontier = nxt_frontier

    zone = []
    for v in range(t.n):
        if v in gamma:
            zone.append("D" if v in dset else "gamma")
        else:
            major, _ = on_leg[v]
            zone.append("t1-gamma" if major in m1 else "t2-gamma")
    ordered_legs = {v: tuple(sorted(chains)) for v, chains in legs.items()}
    return TreeSkeleton(
        n=t.n,
        is_path=False,
        sigma=sigma,
        ex=len(ter),
        terminal_degree=dict(sorted(ter.items())),
        legs=ordered_legs,
        m1=m1,
        m2=m2,
        dset=dset,
        gamma=gamma,
        zone=tuple(zone),
        nearest_major=tuple(nearest),
        nearest_major_dist=tuple(ndist),
    )


# ---------------------------------------------------------------------------
# Structural recognizers


@dataclass(frozen=True)
class Recognized:
    kind: str
    data: dict


def _is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def _path_ends(g: Graph) -> Optional[tuple[int, int]]:
    if g.m != g.n - 1 or not g.is_connected():
        return None
    ends = [v for v in range(g.n) if g.degree(v) == 1]
    if g.n == 2:
        return (0, 1)
    if len(ends) == 2 and all(g.degree(v) <= 2 for v in range(g.n)):
        return (ends[0], ends[1])
    return None


def _is_cycle(g: Graph) -> bool:
    return g.n >= 3 and g.m == g.n and g.is_connected() and all(
        g.degree(v) == 2 for v in range(g.n)
    )


def _is_petersen(g: Graph, dm: DistanceMatrix) -> bool:
    if g.n != 10 or g.m != 15 or dm.diam != 2:
        return False
    if any(g.degree(v) != 3 for v in range(10)):
        return False
    for u in range(10):
        for v in g.neighbors[u]:
            if u < v and g.adj_bits[u] & g.adj_bits[v]:
                return False  # triangle
    for u in range(10):
        for v in range(u + 1, 10):
            if not g.has_edge(u, v):
                common = g.adj_bits[u] & g.adj_bits[v]
                if common.bit_count() > 1:
                    return False  # four-cycle
    return True


def _recognize_wheel(g: Graph) -> Optional[int]:
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(hubs) != 1 or g.n < 5:
        return None
    hub = hubs[0]
    rim = [v for v in range(g.n) if v != hub]
    if all(g.degree(v) == 3 for v in rim):
        sub = g.induced(rim)
        if _is_cycle(sub):
            return hub
    return None


def _recognize_bouquet(g: Graph) -> Optional[tuple[int, tuple[tuple[int, ...], ...]]]:
    big = [v for v in range(g.n) if g.degree(v) >= 3]
    if len(big) != 1:
        return None
    w = big[0]
    if g.degree(w) % 2 or g.degree(w) < 4:
        return None
    if any(g.degree(v) != 2 for v in range(g.n) if v != w):
        return None
    unvisited = set(range(g.n)) - {w}
    cycles = []
    while unvisited:
        start = min(v for v in g.neighbors[w] if v in unvisited)
        chain = [start]
        prev, cur = w, start
        while True:
            nxts = [u for u in g.neighbors[cur] if u != prev]
            if len(nxts) != 1:
                return None
            prev, cur = cur, nxts[0]
            if cur == w:
                break
            chain.append(cur)
        if len(chain) < 2 or not all(v in unvisited for v in chain):
            return None
        unvisited -= set(chain)
        cycles.append(tuple(chain))
    if len(cycles) < 2:
        return None
    return w, tuple(cycles)


def _recognize_multipartite(g: Graph) -> Optional[tuple[tuple[int, ...], ...]]:
    full = g.vertex_mask()
    comp_adj = [full & ~g.adj_bits[v] & ~(1 << v) for v in range(g.n)]
    parts = []
    for mask in components(comp_adj, full):
        members = tuple(bits(mask))
        for a, b in itertools.combinations(members, 2):
            if g.has_edge(a, b):
                return None  # complement component is not a clique
        parts.append(members)
    if len(parts) < 2:
        return None
    return tuple(sorted(parts, key=lambda p: (len(p), p)))


def _recognize_grid(
    g: Graph, dm: DistanceMatrix
) -> Optional[tuple[int, int, tuple[tuple[int, int], ...]]]:
    corners = [v for v in range(g.n) if g.degree(v) == 2]
    if len(corners) != 4:
        return None
    c = corners[0]
    others = sorted(corners[1:], key=lambda v: dm.d(c, v))
    d1, d2, d3 = (dm.d(c, v) for v in others)
    if d3 != d1 + d2:
        return None
    t, s = d1 + 1, d2 + 1
    if s * t != g.n or g.m != 2 * s * t - s - t:
        return None
    for a in others:
        for b in others:
            if a == b:
                continue
            if dm.d(c, a) != s - 1 or dm.d(c, b) != t - 1:
                continue
            coords = []
            ok = True
            for v in range(g.n):
                di = dm.d(c, v) - dm.d(a, v) + s + 1
                dj = dm.d(c, v) - dm.d(b, v) + t + 1
                if di % 2 or dj % 2:
                    ok = False
                    break
                i, j = di // 2, dj // 2
                if not (1 <= i <= s and 1 <= j <= t):
                    ok = False
                    break
                coords.append((i, j))
            if not ok or len(set(coords)) != g.n:
                continue
            good = all(
                abs(coords[u][0] - coords[v][0]) + abs(coords[u][1] - coords[v][1]) == 1
                for u, v in g.edges()
            )
            if good:
                return s, t, tuple(coords)
    return None


def recognize(g: Graph, dm: Optional[DistanceMatrix] = None) -> Optional[Recognized]:
    """Match a graph against the families with known closed forms."""
    ends = _path_ends(g)
    if ends is not None:
        return Recognized("path", {"ends": ends})
    if _is_complete(g):
        return Recognized("complete", {})
    if _is_cycle(g):
        return Recognized("cycle", {})
    if g.m == g.n - 1 and g.is_connected():
        return Recognized("tree", {})
    if not g.is_connected():
        return None
    if dm is None:
        dm = all_pairs_distances(g)
    if _is_petersen(g, dm):
        return Recognized("petersen", {})
    hub = _recognize_wheel(g)
    if hub is not None:
        return Recognized("wheel", {"hub": hub, "rim": g.n - 1})
    bq = _recognize_bouquet(g)
    if bq is not None:
        return Recognized("bouquet", {"w": bq[0], "cycles": bq[1]})
    parts = _recognize_multipartite(g)
    if parts is not None:
        return Recognized("multipartite", {"parts": parts})
    gr = _recognize_grid(g, dm)
    if gr is not None:
        return Recognized("grid", {"s": gr[0], "t": gr[1], "coords": gr[2]})
    return None


FormulaInput = Union[Graph, FamilySpec, str]


def _resolve(x: FormulaInput) -> tuple[Recognized, Graph]:
    if isinstance(x, str):
        x = parse_spec(x)
    if isinstance(x, FamilySpec):
        # Small instances may legitimately match an earlier, equivalent family
        # (wheel:3 is complete, multipartite:2,2 is a cycle), so spec inputs
        # also route through the structural recognizer.
        g, _ = generate(x)
        rec = recognize(g)
        if rec is None:
            raise Unsupported(f"no closed form covers family {x.kind!r}")
        return rec, g
    rec = recognize(x)
    if rec is None:
        raise Unsupported("graph matches no family with a known closed form")
    return rec, x


# ---------------------------------------------------------------------------
# Formula evaluators


def _wheel_dim(rim: int) -> FormulaResult:
    if rim in (3, 6):
        return FormulaResult(3, f"rim={rim}", "wheel-dim")
    return FormulaResult((2 * rim + 2) // 5, "general-rim", "wheel-dim")


def _multipartite_counts(parts: Sequence[Sequence[int] | int]) -> tuple[int, int, int]:
    sizes = [len(p) if not isinstance(p, int) else p for p in parts]
    n = sum(sizes)
    k = len(sizes)
    s = sum(1 for a in sizes if a == 1)
    return n, k, s


def dim_formula(x: FormulaInput) -> FormulaResult:
    rec, g = _resolve(x)
    kind = rec.kind
    if kind == "path":
        return FormulaResult(1, "path", "dim-extremes")
    if kind == "complete":
        return FormulaResult(g.n - 1, "complete", "dim-extremes")
    if kind == "cycle":
        return FormulaResult(2, "cycle", "dim-cycle")
    if kind == "tree":
        sk = tree_skeleton(g)
        return FormulaResult(sk.sigma - sk.ex, "tree", "tree-dim")
    if kind == "petersen":
        return FormulaResult(3, "petersen", "petersen-dim")
    if kind == "wheel":
        return _wheel_dim(rec.data["rim"])
    if kind == "bouquet":
        cycles = rec.data["cycles"]
        m = len(cycles)
        x_even = sum(1 for c in cycles if (len(c) + 1) % 2 == 0)
        if x_even == 0:
            return FormulaResult(m, "all-odd", "bouquet-dim")
        return FormulaResult(m + x_even - 1, f"{x_even}-even", "bouquet-dim")
    if kind == "multipartite":
        n, k, s = _multipartite_counts(rec.data["parts"])
        if s == 0:
            return FormulaResult(n - k, "no-singletons", "multipartite-dim")
        return FormulaResult(n + s - k - 1, f"{s}-singletons", "multipartite-dim")
    if kind == "grid":
        return FormulaResult(2, "grid", "grid-dim")
    raise Unsupported(f"no dimension formula for {kind!r}")


def cdim_formula(x: FormulaInput) -> FormulaResult:
    return _cdim(*_resolve(x))


def _cdim(rec: Recognized, g: Graph) -> FormulaResult:
    kind = rec.kind
    n = g.n
    if kind == "path":
        return FormulaResult(1, "path", "cdim-extremes")
    if kind == "complete":
        return FormulaResult(n - 1, "complete", "cdim-extremes")
    if kind == "cycle":
        return FormulaResult(2, "cycle", "cdim-cycle")
    if kind == "tree":
        sk = tree_skeleton(g)
        return FormulaResult(len(sk.dset) + sk.sigma, "tree", "tree-cdim")
    if kind == "petersen":
        return FormulaResult(4, "petersen", "petersen-cdim")
    if kind == "wheel":
        rim = rec.data["rim"]
        if rim == 3:
            return FormulaResult(3, "rim=3", "wheel-cdim")
        if rim in (4, 5):
            return FormulaResult(2, "small-rim", "wheel-cdim")
        return FormulaResult((2 * rim + 2) // 5 + 1, "general-rim", "wheel-cdim")
    if kind == "bouquet":
        cycles = rec.data["cycles"]
        m = len(cycles)
        b = sum(1 for c in cycles if len(c) + 1 == 3)
        if b == m:
            return FormulaResult(m + 1, "all-triangles", "bouquet-cdim")
        return FormulaResult(2 * m - b, f"{b}-triangles", "bouquet-cdim")
    if kind == "multipartite":
        n_, k, s = _multipartite_counts(rec.data["parts"])
        if s == 1 and k == 2:
            return FormulaResult(n_ - 1, "s=1,k=2", "multipartite-cdim")
        if s == 0:
            return FormulaResult(n_ - k, "no-singletons", "multipartite-cdim")
        return FormulaResult(n_ + s - k - 1, f"{s}-singletons", "multipartite-cdim")
    if kind == "grid":
        s, t = rec.data["s"], rec.data["t"]
        return FormulaResult(min(s, t), "grid", "grid-cdim")
    raise Unsupported(f"no connected-dimension formula for {kind!r}")


def cdim_at_vertex_formula(x: FormulaInput, v: int) -> FormulaResult:
    rec, g = _resolve(x)
    if not (0 <= v < g.n):
        raise MetricDimError(f"vertex {v} out of range")
    kind = rec.kind
    if kind == "path":
        ends = rec.data["ends"]
        if v in ends:
            return FormulaResult(1, "path-end", "cdim-at-extremes")
        return FormulaResult(2, "path-interior", "cdim-at-extremes")
    if kind == "complete":
        return FormulaResult(g.n - 1, "complete", "cdim-at-extremes")
    if kind == "cycle":
        return FormulaResult(2, "cycle", "cdim-at-cycle")
    if kind == "tree":
        sk = tree_skeleton(g)
        base = len(sk.dset) + sk.sigma
        zone = sk.zone[v]
        if zone in ("gamma", "D"):
            return FormulaResult(base, zone, "tree-cdim-at")
        d = sk.nearest_major_dist[v]
        if zone == "t1-gamma":
            return FormulaResult(base + d, zone, "tree-cdim-at")
        return FormulaResult(base + d - 1, zone, "tree-cdim-at")
    if kind == "petersen":
        return FormulaResult(4, "petersen", "petersen-cdim")
    if kind == "wheel":
        rim = rec.data["rim"]
        hub = rec.data["hub"]
        if rim in (4, 5):
            if v == hub:
                return FormulaResult(3, "hub", "wheel-cdim-at")
            return FormulaResult(2, "rim", "wheel-cdim-at")
        return FormulaResult(_cdim(rec, g).value, "vertex-uniform", "wheel-cdim-at")
    if kind == "bouquet":
        w = rec.data["w"]
        cycles = rec.data["cycles"]
        m = len(cycles)
        b = sum(1 for c in cycles if len(c) + 1 == 3)
        base = _cdim(rec, g).value
        if v == w or g.has_edge(v, w):
            return FormulaResult(base, "near-cut-vertex", "bouquet-cdim-at")
        chain = next(c for c in cycles if v in c)
        clen = len(chain) + 1
        pos = chain.index(v) + 1
        d = min(pos, clen - pos)
        antipodal = d == clen // 2
        if b == m - 1 or not antipodal:
            return FormulaResult(base + d - 1, "off-cut", "bouquet-cdim-at")
        return FormulaResult(base + d - 2, "antipodal", "bouquet-cdim-at")
    if kind == "multipartite":
        parts = rec.data["parts"]
        n_, k, s = _multipartite_counts(parts)
        base = _cdim(rec, g).value
        if s == 1 and k >= 3 and v in parts[0]:
            return FormulaResult(base + 1, "singleton-part", "multipartite-cdim-at")
        return FormulaResult(base, "general", "multipartite-cdim-at")
    if kind == "grid":
        s, t, coords = rec.data["s"], rec.data["t"], rec.data["coords"]
        if s < t:
            s, t = t, s
            coords = tuple((j, i) for i, j in coords)
        i, _ = coords[v]
        if s == t:
            low_degree = g.degree(v) <= 3
            if low_degree:
                return FormulaResult(t, "boundary", "grid-cdim-at")
            return FormulaResult(t + 1, "interior", "grid-cdim-at")
        if i in (1, s):
            return FormulaResult(t, "end-column", "grid-cdim-at")
        return FormulaResult(t + 1, "off-end-column", "grid-cdim-at")
    raise Unsupported(f"no per-vertex formula for {kind!r}")


# ---------------------------------------------------------------------------
# Extremal classification


@dataclass(frozen=True)
class ExtremesClassification:
    cdim_is_one: bool
    cdim_is_n_minus_one: bool
    graph_case: Optional[str]
    vertex: Optional[int] = None
    cdim_at_is_one: Optional[bool] = None
    cdim_at_is_n_minus_one: Optional[bool] = None
    vertex_case: Optional[str] = None


def _star_center(g: Graph) -> Optional[int]:
    if g.m != g.n - 1 or g.n < 3:
        return None
    centers = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(centers) == 1 and all(
        g.degree(v) == 1 for v in range(g.n) if v != centers[0]
    ):
        return centers[0]
    return None


def _tail_end_structure(g: Graph, v: int) -> Optional[str]:
    """Detect v as the far tail end of a fork (independent head) or paddle
    (clique head); both force the whole tail plus the head into any connected
    resolving set at v."""
    if g.degree(v) != 1:
        return None
    path = [v]
    prev, cur = -1, v
    while True:
        nxts = [u for u in g.neighbors[cur] if u != prev]
        if len(nxts) != 1:
            break
        prev, cur = cur, nxts[0]
        if g.degree(cur) == 2:
            path.append(cur)
            continue
        break
    q = cur
    if g.degree(q) < 3:
        return None
    tail = set(path)
    head = [u for u in range(g.n) if u != q and u not in tail]
    if len(head) < 2:
        return None
    r = len(path) + 1
    if all(g.degree(u) == 1 and g.has_edge(u, q) for u in head):
        if g.m == (r - 1) + len(head):
            return "fork-u1"
        return None
    block = head + [q]
    if all(g.has_edge(a, b) for a, b in itertools.combinations(block, 2)):
        expected = (r - 1) + len(block) * (len(block) - 1) // 2
        if g.m == expected:
            return "paddle-u1"
    return None


def classify_extremes(g: Graph, v: Optional[int] = None) -> ExtremesClassification:
    """Purely structural prediction of the extreme values 1 and n-1."""
    ends = _path_ends(g)
    is_path = ends is not None
    is_complete = _is_complete(g)
    star_center = _star_center(g)
    cdim_one = is_path
    cdim_top = is_complete or (star_center is not None and g.n >= 4)
    graph_case = (
        "complete" if is_complete else "star" if cdim_top else "path" if is_path else None
    )
    if v is None:
        return ExtremesClassification(cdim_one, cdim_top, graph_case)

    at_one = is_path and v in ends
    at_top = False
    vertex_case = None
    if is_complete:
        at_top, vertex_case = True, "complete"
    elif star_center is not None and g.n >= 4:
        at_top, vertex_case = True, "star"
    elif is_path and g.n == 3 and v not in ends:
        at_top, vertex_case = True, "p3-middle"
    else:
        tail = _tail_end_structure(g, v)
        if tail is not None:
            at_top, vertex_case = True, tail
    if at_one and vertex_case is None:
        vertex_case = "path-end"
    return ExtremesClassification(
        cdim_one, cdim_top, graph_case, v, at_one, at_top, vertex_case
    )


# ---------------------------------------------------------------------------
# Membership in the two-anchor layered family (graphs with cdim <= 2)


@dataclass(frozen=True)
class FrMembership:
    member: bool
    r: Optional[int]
    base_pair: Optional[tuple[int, int]]
    roles: Optional[dict[int, str]]
    refutations: Optional[dict[tuple[int, int], tuple[int, int]]]


def _verify_fr_roles(g: Graph, u: int, w: int, roles: dict[int, str]) -> bool:
    """Independent structural check of the layered rules against the role map.

    A role names an anchor-code pair: x_a = (a, a+1), y_a = (a, a), and
    z_a = (a+1, a).  An edge is admissible iff both code coordinates differ by
    at most one; each vertex must reach both anchors through mandatory
    down-edges (the side chains, and for y_a either the two side vertices
    below it or the middle vertex below it, in any combination).
    """
    pair_of = {"u": (0, 1), "w": (1, 0)}

    def code_of(name: str) -> tuple[int, int]:
        if name in pair_of:
            return pair_of[name]
        a = int(name[1:])
        return {"x": (a, a + 1), "y": (a, a), "z": (a + 1, a)}[name[0]]

    by_name = {name: v for v, name in roles.items()}
    for a, b in g.edges():
        ca, cb = code_of(roles[a]), code_of(roles[b])
        if abs(ca[0] - cb[0]) > 1 or abs(ca[1] - cb[1]) > 1:
            return False
    for v, name in roles.items():
        if name in pair_of:
            continue
        role, a = name[0], int(name[1:])
        if role == "x":
            below = u if a == 1 else by_name.get(f"x{a - 1}")
            if below is None or not g.has_edge(v, below):
                return False
        elif role == "z":
            below = w if a == 1 else by_name.get(f"z{a - 1}")
            if below is None or not g.has_edge(v, below):
                return False
        else:  # y: one step closer to each anchor, via a side or the middle
            if a == 1:
                if not (g.has_edge(v, u) and g.has_edge(v, w)):
                    return False
                continue
            xs, zs, yp = (by_name.get(f"{r}{a - 1}") for r in ("x", "z", "y"))
            toward_u = (xs is not None and g.has_edge(v, xs)) or (
                yp is not None and g.has_edge(v, yp)
            )
            toward_w = (zs is not None and g.has_edge(v, zs)) or (
                yp is not None and g.has_edge(v, yp)
            )
            if not (toward_u and toward_w):
                return False
    return True


def fr_membership(g: Graph, dm: Optional[DistanceMatrix] = None) -> FrMembership:
    """Whether some adjacent vertex pair resolves the graph, with role labels.

    Decided two ways that must agree: directly checking every adjacent pair,
    and structurally validating the role labeling implied by the codes.
    """
    if dm is None:
        dm = all_pairs_distances(g)
    refutations: dict[tuple[int, int], tuple[int, int]] = {}
    for u, w in g.edges():
        cert = check_resolving(g, dm, (u, w))
        if not cert.resolving:
            refutations[(u, w)] = cert.witness_pair
            continue
        roles: dict[int, str] = {u: "u", w: "w"}
        r = 0
        for v in range(g.n):
            if v in (u, w):
                continue
            du, dw = dm.d(v, u), dm.d(v, w)
            a = min(du, dw)
            r = max(r, a)
            if du == a and dw == a + 1:
                roles[v] = f"x{a}"
            elif du == dw == a:
                roles[v] = f"y{a}"
            elif du == a + 1 and dw == a:
                roles[v] = f"z{a}"
            else:
                raise MetricDimError(
                    "internal: adjacent resolving pair with non-adjacent code spread"
                )
        if not _verify_fr_roles(g, u, w, roles):
            raise MetricDimError(
                "internal: resolving adjacent pair fails the structural rules"
            )
        return FrMembership(True, r, (u, w), roles, None)
    return FrMembership(False, None, None, None, refutations)


# ---------------------------------------------------------------------------
# Unicyclic classification


@dataclass(frozen=True)
class UnicyclicClassification:
    equal: bool
    case: str
    cycle: tuple[int, ...]


def _find_cycle(g: Graph) -> tuple[int, ...]:
    deg = [g.degree(v) for v in range(g.n)]
    queue = [v for v in range(g.n) if deg[v] == 1]
    removed = [False] * g.n
    while queue:
        v = queue.pop()
        removed[v] = True
        for u in g.neighbors[v]:
            if not removed[u]:
                deg[u] -= 1
                if deg[u] == 1:
                    queue.append(u)
    members = [v for v in range(g.n) if not removed[v]]
    start = members[0]
    order = [start]
    prev, cur = -1, start
    while True:
        nxt = next(u for u in g.neighbors[cur] if not removed[u] and u != prev)
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def _sun_legs(g: Graph, cyc: tuple[int, ...]) -> Optional[list[int]]:
    """Leg lengths if the graph is a cycle with at most one pendant path per
    cycle vertex; None otherwise."""
    on_cycle = set(cyc)
    legs = []
    visited = len(cyc)
    for u in cyc:
        outside = [x for x in g.neighbors[u] if x not in on_cycle]
        if len(outside) > 1:
            return None
        length = 0
        prev, cur = u, outside[0] if outside else None
        while cur is not None:
            length += 1
            visited += 1
            nxts = [x for x in g.neighbors[cur] if x != prev]
            if len(nxts) > 1:
                return None
            prev, cur = cur, nxts[0] if nxts else None
        legs.append(length)
    if visited != g.n:
        return None
    return legs


def unicyclic_cdim_eq_dim(g: Graph) -> UnicyclicClassification:
    """Structural test for equality of the plain and connected dimensions of a
    unicyclic graph: the graph must be a generalized sun with a long enough
    run of consecutive degree-two cycle vertices."""
    if g.m != g.n or not g.is_connected():
        raise NotUnicyclic(f"graph with n={g.n}, m={g.m} is not unicyclic")
    cyc = _find_cycle(g)
    m = len(cyc)
    legs = _sun_legs(g, cyc)
    if legs is None:
        return UnicyclicClassification(False, "not-a-sun", cyc)
    degs = [g.degree(v) for v in cyc]
    if all(d == 2 for d in degs):
        run = m
    else:
        run = best = 0
        for d in degs + degs:  # circular runs
            best = best + 1 if d == 2 else 0
            run = max(run, best)
        run = min(run, m)
    need = m - 3 if m % 2 else m - 2
    if run >= need:
        return UnicyclicClassification(True, "U1" if m % 2 else "U2", cyc)
    return UnicyclicClassification(False, "short-run", cyc)


# ---------------------------------------------------------------------------
# All minimum resolving sets of a tree, from the leg characterization


def tree_min_resolving_sets(t: Graph) -> list[tuple[int, ...]]:
    """Every minimum resolving set: one vertex from each terminal path of each
    exterior major vertex, omitting exactly one path per major, nothing else."""
    sk = tree_skeleton(t)
    if sk.is_path:
        raise IsAPath("paths have no exterior major vertex")
    total = 1
    for major in sk.exterior_major():
        chains = sk.legs[major]
        total *= sum(
            _product(len(c) for j2, c in enumerate(chains) if j2 != j)
            for j in range(len(chains))
        )
        if total > TREE_ENUM_CAP:
            raise TooMany(f"more than {TREE_ENUM_CAP} minimum resolving sets")
    per_major: list[list[tuple[int, ...]]] = []
    for major in sk.exterior_major():
        chains = sk.legs[major]
        choices: list[tuple[int, ...]] = []
        for omit in range(len(chains)):
            kept = [c for j, c in enumerate(chains) if j != omit]
            for combo in itertools.product(*kept):
                choices.append(tuple(combo))
        per_major.append(sorted(set(choices)))
    out = set()
    for combo in itertools.product(*per_major):
        out.add(tuple(sorted(v for grp in combo for v in grp)))
    return sorted(out)


def _product(xs: Iterable[int]) -> int:
    p = 1
    for x in xs:
        p *= x
    return p
