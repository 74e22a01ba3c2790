"""Structural analyzers and closed-form evaluation of dimension formulas.

Each evaluator takes a Graph.  The graph is matched by a structural
recognizer, and one dispatch on the recognized family, ``_forms``, reads
its dim, cdim and cdim-at-v closed forms off the recognized structure.
The evaluators recognize the last graph object they were given only once,
so dim, cdim and cdim at every vertex of one graph cost one recognition.
Every value returned here is independently checkable against the exact
solvers; the test suite does exactly that.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

from .errors import (
    InvalidAnchor,
    IsAPath,
    NotATree,
    NotUnicyclic,
    TooMany,
    Unsupported,
)
from .graph import Graph, all_pairs_distances, bits, blocks, remember_last_graph

TREE_ENUM_CAP = 10**6


class FormulaResult(NamedTuple):
    value: int
    case_label: str
    theorem_id: str


# ---------------------------------------------------------------------------
# Degree-two chains


def _walk_chain(g: Graph, start: int, first: int) -> tuple[list[int], int]:
    """Step from ``start`` into its neighbour ``first``, then on through degree-two vertices.

    Returns the degree-two vertices passed, in order, and the first vertex
    of another degree, where the walk stops.  Every caller starts at a leaf
    or at a vertex of degree other than two, so the walk cannot circle a
    cycle of degree-two vertices: it could only close at ``start``, and it
    stops there.
    """
    chain = []
    prev, cur = start, first
    while g.adj_bits[cur].bit_count() == 2:
        chain.append(cur)
        prev, cur = cur, (g.adj_bits[cur] ^ 1 << prev).bit_length() - 1
    return chain, cur


# ---------------------------------------------------------------------------
# Tree skeleton


class TreeSkeleton(NamedTuple):
    """Exterior-major-vertex decomposition of a tree.

    ``legs[v]`` holds, for each exterior major vertex v, the vertex chains of
    its terminal paths (major vertex excluded, leaf last).  ``dset`` collects
    interior degree-two vertices and majors of terminal degree zero.  The zone
    of a vertex drives the per-vertex dimension formula: vertices of gamma
    (closed neighborhoods of the ter>=2 majors inside their own subtrees, the
    ter==1 majors, and dset) sit in some minimum connected resolving set;
    the rest lie on a terminal path and pay for their distance to its major,
    which is the nearest major vertex: the vertex's position in its chain.
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

    def exterior_major(self) -> tuple[int, ...]:
        return tuple(sorted(self.terminal_degree))


def tree_skeleton(t: Graph) -> TreeSkeleton:
    if t.m != t.n - 1 or not t.is_connected():
        raise NotATree(f"graph with n={t.n}, m={t.m} is not a tree")
    return _skeleton(t)


def _skeleton(t: Graph) -> TreeSkeleton:
    """``tree_skeleton`` of a graph already known to be a tree."""
    deg = list(map(int.bit_count, t.adj_bits))
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
        )

    ter: dict[int, int] = {}
    legs: dict[int, list[tuple[int, ...]]] = {}
    on_leg: dict[int, int] = {}  # vertex -> the major of its terminal path
    for leaf in leaves:
        passed, major = _walk_chain(t, leaf, t.adj_bits[leaf].bit_length() - 1)
        ter[major] = ter.get(major, 0) + 1
        chain = [leaf, *passed][::-1]  # from the major's neighbor out to the leaf
        legs.setdefault(major, []).append(tuple(chain))
        for v in chain:
            on_leg[v] = major

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

    zone = []
    for v in range(t.n):
        if v in gamma:
            zone.append("D" if v in dset else "gamma")
        else:
            zone.append("t1-gamma" if on_leg[v] in m1 else "t2-gamma")
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
    )


# ---------------------------------------------------------------------------
# Structural recognizers


class Recognized(NamedTuple):
    kind: str
    data: dict


def _is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def _path_ends(g: Graph) -> Optional[tuple[int, int]]:
    """The two ends, when g is a path.

    A walk from one leaf through degree-two vertices passes all n - 2 other
    vertices exactly when g is one connected path, so this needs no
    separate connectivity test.
    """
    if g.m != g.n - 1:
        return None
    ends = [v for v in range(g.n) if g.adj_bits[v].bit_count() == 1]
    if len(ends) != 2:
        return None
    passed, _ = _walk_chain(g, ends[0], g.adj_bits[ends[0]].bit_length() - 1)
    return (ends[0], ends[1]) if len(passed) == g.n - 2 else None


def _is_petersen(g: Graph) -> bool:
    """A cubic graph on 10 vertices with no triangle and no four-cycle has
    girth 5, and the Petersen graph is the only such graph."""
    if g.n != 10 or g.m != 15:
        return False
    if any(g.adj_bits[v].bit_count() != 3 for v in range(10)):
        return False
    if any(g.adj_bits[u] & g.adj_bits[v] for u, v in g.edges()):
        return False  # triangle
    for u in range(10):
        for v in range(u + 1, 10):
            if not g.has_edge(u, v):
                common = g.adj_bits[u] & g.adj_bits[v]
                if common.bit_count() > 1:
                    return False  # four-cycle
    return True


def _recognize_wheel(g: Graph) -> Optional[int]:
    hubs = [v for v in range(g.n) if g.adj_bits[v].bit_count() == g.n - 1]
    # No n < 5 gets through: recognize answers n <= 3 (a path or K3), and at n = 4 a degree-3 rim is K4.
    if len(hubs) != 1:
        return None
    hub = hubs[0]
    rim = g.vertex_mask() & ~(1 << hub)
    # Every rim vertex of degree 3 has two rim neighbours, so the rim is
    # one cycle exactly when it is connected.
    if all(g.adj_bits[v].bit_count() == 3 for v in bits(rim)) and g.is_connected_subset(rim):
        return hub
    return None


def _recognize_bouquet(g: Graph) -> Optional[tuple[int, tuple[tuple[int, ...], ...]]]:
    """The centre w and its cycles, when w is the only vertex of degree other than two.

    ``recognize`` calls this only on connected graphs.  By the handshake
    lemma deg(w) is then even, so at least 4.  Each walk from w through an
    unvisited neighbour closes back at w, and it holds at least two vertices
    because the graph is simple.  It meets no earlier cycle, whose vertices
    have both their neighbours on that cycle or at w.  So the cycles number
    deg(w) / 2 >= 2.
    """
    big = [v for v in range(g.n) if g.adj_bits[v].bit_count() >= 3]
    if len(big) != 1:
        return None
    w = big[0]
    if any(g.adj_bits[v].bit_count() != 2 for v in range(g.n) if v != w):
        return None
    todo = g.adj_bits[w]  # each cycle takes two of w's neighbours, its ends
    cycles = []
    while todo:
        chain, _ = _walk_chain(g, w, (todo & -todo).bit_length() - 1)
        todo ^= 1 << chain[0] | 1 << chain[-1]
        cycles.append(tuple(chain))
    return w, tuple(cycles)


def _recognize_multipartite(g: Graph) -> Optional[tuple[tuple[int, ...], ...]]:
    """The parts, when non-adjacency is an equivalence relation with two or more classes.

    Then the closed non-neighbourhoods, each vertex with the vertices it
    misses, partition V and are the parts.  Distinct ones that share no
    vertex and fill V do partition it, since each holds its own vertex.
    """
    full = g.vertex_mask()
    classes = {full & ~row for row in g.adj_bits}
    if len(classes) < 2 or sum(map(int.bit_count, classes)) != g.n:
        return None
    return tuple(sorted(map(bits, classes), key=lambda p: (len(p), p)))


def _recognize_grid(g: Graph) -> Optional[tuple[int, int, tuple[tuple[int, int], ...]]]:
    corners = [v for v in range(g.n) if g.adj_bits[v].bit_count() == 2]
    if len(corners) != 4:
        return None
    # An s x t grid has s + t = 2n - m and s * t = n, so n and m fix s >= t
    # before any distance is computed.
    total = 2 * g.n - g.m
    root = math.isqrt(max(total * total - 4 * g.n, 0))
    s, t = (total + root) // 2, (total - root) // 2
    if t < 2 or s + t != total or s * t != g.n:
        return None
    dm = all_pairs_distances(g)
    c = corners[0]
    others = sorted(corners[1:], key=lambda v: dm.d(c, v))
    if tuple(dm.d(c, v) for v in others) != (t - 1, s - 1, s + t - 2):
        return None
    # a is the corner s - 1 from c and b the corner t - 1 from c.  When s = t
    # the other choice gives the transpose, which fails exactly when this does.
    if s > t:
        b, a = others[:2]
    else:
        a, b = others[:2]
    coords = []
    for v in range(g.n):
        di = dm.d(c, v) - dm.d(a, v) + s + 1
        dj = dm.d(c, v) - dm.d(b, v) + t + 1
        if di % 2 or dj % 2:
            return None
        coords.append((di // 2, dj // 2))
    if len(set(coords)) != g.n:
        return None
    # Distinct coordinates make g the grid.  The triangle inequality at a and
    # b puts each (i, j) in 1..s x 1..t, so the n = st of them fill it.  Let
    # h(v) = d(c, v) - (i + j - 2), which by the formulas for i and j is also
    # d(a, v) - (s - i + j - 1).  Along an edge d(c, .), d(a, .) and d(b, .)
    # change by at most 1, and i and j stay integers, so all three change by
    # 1 (all staying would keep (i, j)), and i and j each change by -1, 0 or 1.
    # A step towards c lowers i and j by 0 or 1 each, not both by 0, so h
    # does not fall on it, and h(v) <= h(c) = 0.  A step towards a lowers
    # s - i + j by 0 or 1, so h does not rise on it, and h(v) >= h(a).  The
    # vertex at (s, 1) has d(a, .) = h <= 0, so it is a, and h(a) = 0.  So
    # h = 0: d(c, v) = i + j - 2 changes by exactly 1 along an edge, which
    # thus joins grid neighbours.
    return s, t, tuple(coords)


def recognize(g: Graph) -> Optional[Recognized]:
    """Match a graph against the families with known closed forms; None if it is disconnected."""
    if not g.is_connected():
        return None
    ends = _path_ends(g)
    if ends is not None:
        return Recognized("path", {"ends": ends})
    if _is_complete(g):
        return Recognized("complete", {})
    # Connected with every degree two is a cycle; connected with n - 1 edges is a tree.
    if g.m == g.n and all(g.adj_bits[v].bit_count() == 2 for v in range(g.n)):
        return Recognized("cycle", {})
    if g.m == g.n - 1:
        return Recognized("tree", {})
    # Only the Petersen and grid recognizers read distances, and each
    # computes them itself, only for a graph that passes its cheaper tests.
    if _is_petersen(g):
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
    gr = _recognize_grid(g)
    if gr is not None:
        return Recognized("grid", {"s": gr[0], "t": gr[1], "coords": gr[2]})
    return None


@remember_last_graph
def _recognized(g: Graph) -> Optional[Recognized]:
    """``recognize`` of g, computed once for the last graph object the evaluators saw.

    A tree's result also holds its skeleton, which every tree form reads.
    The evaluators only read the result, so sharing it is safe; ``recognize``
    and ``tree_skeleton`` stay uncached and hand every caller fresh dicts.
    """
    rec = recognize(g)
    if rec is not None and rec.kind == "tree":
        rec.data["skeleton"] = _skeleton(g)
    return rec


def _resolve(g: Graph) -> Recognized:
    rec = _recognized(g)
    if rec is None:
        raise Unsupported("graph matches no family with a known closed form")
    return rec


# ---------------------------------------------------------------------------
# Formula evaluators


def _forms(rec: Recognized, g: Graph, v: Optional[int] = None) -> tuple[FormulaResult, ...]:
    """dim, cdim and, when v is given, cdim at v of a recognized graph, in that order.

    Each block covers only what ``recognize`` can hand it: a wheel has rim
    >= 4 (rim 3 is complete), and a multipartite graph with one singleton
    part has three or more parts (with two it is a star, a tree).  A tree's
    skeleton comes from ``rec`` when ``_recognized`` stored it there.
    """
    R = FormulaResult
    kind, data, n = rec.kind, rec.data, g.n
    if kind == "path":
        if v in data["ends"]:
            at = R(1, "path-end", "cdim-at-extremes")
        else:
            at = R(2, "path-interior", "cdim-at-extremes")
        return R(1, "path", "dim-extremes"), R(1, "path", "cdim-extremes"), at
    if kind == "complete":
        return (R(n - 1, "complete", "dim-extremes"), R(n - 1, "complete", "cdim-extremes"),
                R(n - 1, "complete", "cdim-at-extremes"))
    if kind == "cycle":
        return R(2, "cycle", "dim-cycle"), R(2, "cycle", "cdim-cycle"), R(2, "cycle", "cdim-at-cycle")
    if kind == "petersen":
        return (R(3, "petersen", "petersen-dim"), R(4, "petersen", "petersen-cdim"),
                R(4, "petersen", "petersen-cdim"))
    if kind == "tree":
        sk = data.get("skeleton") or _skeleton(g)
        base = len(sk.dset) + sk.sigma
        forms = R(sk.sigma - sk.ex, "tree", "tree-dim"), R(base, "tree", "tree-cdim")
        if v is None:
            return forms
        zone = sk.zone[v]
        if zone in ("gamma", "D"):
            return *forms, R(base, zone, "tree-cdim-at")
        # Off gamma, v lies on a terminal path of the nearest major vertex.
        d = next(c.index(v) + 1 for cs in sk.legs.values() for c in cs if v in c)
        return *forms, R(base + d if zone == "t1-gamma" else base + d - 1, zone, "tree-cdim-at")
    if kind == "wheel":
        rim = data["rim"]
        if rim == 6:
            dim = R(3, "rim=6", "wheel-dim")
        else:
            dim = R((2 * rim + 2) // 5, "general-rim", "wheel-dim")
        if rim in (4, 5):
            cdim = R(2, "small-rim", "wheel-cdim")
            at = R(3, "hub", "wheel-cdim-at") if v == data["hub"] else R(2, "rim", "wheel-cdim-at")
        else:
            cdim = R((2 * rim + 2) // 5 + 1, "general-rim", "wheel-cdim")
            at = R(cdim.value, "vertex-uniform", "wheel-cdim-at")
        return dim, cdim, at
    if kind == "bouquet":
        w, cycles = data["w"], data["cycles"]
        m = len(cycles)
        lengths = [len(c) + 1 for c in cycles]
        evens = sum(1 for c in lengths if c % 2 == 0)
        b = lengths.count(3)
        if evens == 0:
            dim = R(m, "all-odd", "bouquet-dim")
        else:
            dim = R(m + evens - 1, f"{evens}-even", "bouquet-dim")
        if b == m:
            cdim = R(m + 1, "all-triangles", "bouquet-cdim")
        else:
            cdim = R(2 * m - b, f"{b}-triangles", "bouquet-cdim")
        if v is None:
            return dim, cdim
        if v == w or g.has_edge(v, w):
            return dim, cdim, R(cdim.value, "near-cut-vertex", "bouquet-cdim-at")
        chain = next(c for c in cycles if v in c)
        clen = len(chain) + 1
        pos = chain.index(v) + 1
        d = min(pos, clen - pos)
        if b == m - 1 or d != clen // 2:
            return dim, cdim, R(cdim.value + d - 1, "off-cut", "bouquet-cdim-at")
        return dim, cdim, R(cdim.value + d - 2, "antipodal", "bouquet-cdim-at")
    if kind == "multipartite":
        parts = data["parts"]
        k = len(parts)
        s = sum(1 for p in parts if len(p) == 1)
        value, label = (n - k, "no-singletons") if s == 0 else (n + s - k - 1, f"{s}-singletons")
        # Parts are sorted by size, so a lone singleton part is parts[0].
        if s == 1 and v in parts[0]:
            at = R(value + 1, "singleton-part", "multipartite-cdim-at")
        else:
            at = R(value, "general", "multipartite-cdim-at")
        return R(value, label, "multipartite-dim"), R(value, label, "multipartite-cdim"), at
    # The grid: the recognizer gives s >= t, with coords[v][0] in 1..s.
    s, t = data["s"], data["t"]
    forms = R(2, "grid", "grid-dim"), R(t, "grid", "grid-cdim")
    if v is None:
        return forms
    if s == t:
        value, label = (t, "boundary") if g.adj_bits[v].bit_count() <= 3 else (t + 1, "interior")
    elif data["coords"][v][0] in (1, s):
        value, label = t, "end-column"
    else:
        value, label = t + 1, "off-end-column"
    return *forms, R(value, label, "grid-cdim-at")


def dim_formula(g: Graph) -> FormulaResult:
    return _forms(_resolve(g), g)[0]


def cdim_formula(g: Graph) -> FormulaResult:
    return _forms(_resolve(g), g)[1]


def cdim_at_vertex_formula(g: Graph, v: int) -> FormulaResult:
    # Checked before recognition, so a refused call keeps the last graph's record.
    if not (0 <= v < g.n):
        raise InvalidAnchor(f"vertex {v} out of range")
    return _forms(_resolve(g), g, v)[2]


# ---------------------------------------------------------------------------
# Extremal classification


class ExtremesClassification(NamedTuple):
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
    # With m = n - 1, a vertex of degree n - 1 holds every edge: the rest are its leaves.
    return next((v for v in range(g.n) if g.adj_bits[v].bit_count() == g.n - 1), None)


def _tail_end_structure(g: Graph, v: int) -> Optional[str]:
    """Detect v as the far tail end of a fork (independent head) or paddle
    (clique head); both force the whole tail plus the head into any connected
    resolving set at v."""
    if g.adj_bits[v].bit_count() != 1:
        return None
    passed, q = _walk_chain(g, v, g.adj_bits[v].bit_length() - 1)
    path = [v, *passed]
    if g.adj_bits[q].bit_count() < 3:
        return None
    # q has degree >= 3 and one tail neighbour, so head holds two vertices or
    # more; inner tail vertices have degree two, so every edge off the tail
    # joins two vertices of head + [q], and no edge count is needed.
    tail = set(path)
    head = [u for u in range(g.n) if u != q and u not in tail]
    if all(g.adj_bits[u].bit_count() == 1 and g.has_edge(u, q) for u in head):
        return "fork-u1"
    block = head + [q]
    if all(g.has_edge(a, b) for a, b in itertools.combinations(block, 2)):
        return "paddle-u1"
    return None


def classify_extremes(g: Graph, v: Optional[int] = None) -> ExtremesClassification:
    """Purely structural prediction of the extreme values 1 and n-1."""
    if v is not None and not (0 <= v < g.n):
        raise InvalidAnchor(f"vertex {v} out of range")
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


class FrMembership(NamedTuple):
    member: bool
    r: Optional[int]
    base_pair: Optional[tuple[int, int]]
    roles: Optional[dict[int, str]]
    refutations: Optional[dict[tuple[int, int], tuple[int, int]]]


def fr_membership(g: Graph) -> FrMembership:
    """Whether some adjacent vertex pair resolves the graph, with role labels.

    The edges (u, w), u < w, are tried in order; each pair that fails is
    refuted by the smallest pair of vertices sharing a code, and the first
    that resolves g is the base pair.  Every other vertex v takes its role
    from its code (d(v, u), d(v, w)): with a the smaller distance, x_a for
    (a, a + 1), y_a for (a, a) and z_a for (a + 1, a).  These are the only
    codes, since u ~ w puts the two distances at most one apart.  So no
    further check is needed: every v other than u has a neighbour one step
    closer to u, and every v other than w one step closer to w, which gives
    the down-edges that rules R2-R7 of ``families.fr_graph`` require, and
    any edge joins codes at most one apart in each coordinate, by the
    triangle inequality alone.
    """
    from .solver import check_resolving

    dm = all_pairs_distances(g)
    refutations: dict[tuple[int, int], tuple[int, int]] = {}
    for u, w in g.edges():
        cert = check_resolving(g, dm, (u, w))
        if not cert.resolving:
            refutations[(u, w)] = cert.witness_pair
            continue
        roles: dict[int, str] = {u: "u", w: "w"}
        for v, (du, dw) in cert.codes.items():  # dw - du is -1, 0 or 1
            roles.setdefault(v, f"{'zyx'[dw - du + 1]}{min(du, dw)}")
        r = max(min(code) for code in cert.codes.values())
        return FrMembership(True, r, (u, w), roles, None)
    return FrMembership(False, None, None, None, refutations)


# ---------------------------------------------------------------------------
# Unicyclic classification


class UnicyclicClassification(NamedTuple):
    equal: bool
    case: str
    cycle: tuple[int, ...]


def _find_cycle(g: Graph) -> tuple[int, ...]:
    """The cycle of a connected unicyclic graph, its only block of more than two vertices.

    The walk starts at the cycle's lowest vertex and steps first to the
    lower of that vertex's two neighbours on the cycle.
    """
    cyc = next(b for b in blocks(g.adj_bits) if b.bit_count() > 2)
    start = (cyc & -cyc).bit_length() - 1
    order = [start]
    prev, cur = start, bits(g.adj_bits[start] & cyc)[0]
    while cur != start:
        order.append(cur)
        prev, cur = cur, ((g.adj_bits[cur] & cyc) ^ 1 << prev).bit_length() - 1
    return tuple(order)


def _sun_legs(g: Graph, cyc: tuple[int, ...]) -> Optional[list[int]]:
    """Leg lengths if the graph is a cycle with at most one pendant path per
    cycle vertex; None otherwise."""
    on_cycle = set(cyc)
    legs = []
    visited = len(cyc)
    for u in cyc:
        outside = [x for x in bits(g.adj_bits[u]) if x not in on_cycle]
        if len(outside) > 1:
            return None
        length = 0
        if outside:
            # A leg that branches leaves vertices uncounted: the count below refuses it.
            chain, _ = _walk_chain(g, u, outside[0])
            length = len(chain) + 1
        visited += length
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
    degs = [g.adj_bits[v].bit_count() for v in cyc]
    run = best = 0
    for d in degs + degs:  # circular runs; a cycle of degree-two vertices gives 2m
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
            math.prod(len(c) for j2, c in enumerate(chains) if j2 != j)
            for j in range(len(chains))
        )
        if total > TREE_ENUM_CAP:
            raise TooMany(f"more than {TREE_ENUM_CAP} minimum resolving sets")
    per_major: list[list[tuple[int, ...]]] = []
    for major in sk.exterior_major():
        chains = sk.legs[major]
        per_major.append([c for j in range(len(chains)) for c in itertools.product(*chains[:j], *chains[j + 1 :])])
    # Choices miss distinct chains of one major, and majors' chains are disjoint: nothing repeats.
    return sorted(tuple(sorted(v for grp in combo for v in grp)) for combo in itertools.product(*per_major))
