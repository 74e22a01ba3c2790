"""Deterministic generators for the parametric graph families used throughout.

Every generator returns ``(Graph, labels)`` where ``labels[i]`` is the
figure-style name of vertex ``i``, so tests and reports can speak in names
like ``u0`` or ``w3`` instead of indices.  All generators keep the property
that every vertex beyond the first has a lower-indexed neighbor, which lets
the CLI write edge lists whose parse round-trips to the identical indexing.

Each kind is one row of ``_KINDS``: the shapes of its ``:``-separated fields,
its builder, its order and size as functions of its parameters, and the
check of their domain.  The spec parser, the canonical text, ``order``,
``size`` and ``generate`` all read that row, so a new kind is one table row
plus its builder.  The check runs before anything else reads the
parameters, so a command can answer or refuse from the order and size of a
valid spec without building it.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import GenerationFailed, InvalidSpec, RuleViolation, TooLarge
from .graph import MAX_ORDER, Graph, bits, build_graph

Labeled = tuple[Graph, tuple[str, ...]]

# Vertex-pair trials that rand:n:p may spend on rejection draws in total; each
# trial is one random() call, so this bounds the generation time.
RAND_PAIR_BUDGET = 10_000_000


class FamilySpec(NamedTuple):
    """Tagged parametric description of a graph family instance."""

    kind: str
    params: tuple = ()

    def text(self) -> str:
        parts, at = [self.kind], 0
        for f in _kind(self.kind).fields:
            parts.append(f.show(*self.params[at : at + f.width]))
            at += f.width
        return ":".join(parts)


def _fail(msg: str) -> None:
    raise InvalidSpec(msg)


def path(n: int) -> Labeled:
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    return g, tuple(f"u{i + 1}" for i in range(n))


def cycle(n: int) -> Labeled:
    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    return g, tuple(f"u{i + 1}" for i in range(n))


def complete(n: int) -> Labeled:
    g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    return g, tuple(f"u{i + 1}" for i in range(n))


def star(n: int) -> Labeled:
    """Star on n vertices total: one center joined to n-1 leaves."""
    g = build_graph(n, [(0, i) for i in range(1, n)])
    return g, ("w",) + tuple(f"l{i}" for i in range(1, n))


def complete_multipartite(parts: Sequence[int]) -> Labeled:
    parts = tuple(sorted(parts))
    boundaries = []
    start = 0
    labels = []
    for i, a in enumerate(parts, start=1):
        boundaries.append(range(start, start + a))
        labels.extend(f"w{i}.{j}" for j in range(1, a + 1))
        start += a
    edges = [
        (u, v)
        for bi in range(len(parts))
        for bj in range(bi + 1, len(parts))
        for u in boundaries[bi]
        for v in boundaries[bj]
    ]
    return build_graph(start, edges), tuple(labels)


def wheel(n: int) -> Labeled:
    """Wheel on n+1 vertices: rim cycle u1..un plus a hub w joined to all."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    return build_graph(n + 1, edges), tuple(f"u{i + 1}" for i in range(n)) + ("w",)


def petersen() -> Labeled:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    labels = tuple(f"u{i + 1}" for i in range(5)) + tuple(f"w{i + 1}" for i in range(5))
    return build_graph(10, edges), labels


def grid(s: int, t: int) -> Labeled:
    """Cartesian product of paths, row-major: vertex (i,j) at index (i-1)*t + (j-1)."""

    def idx(i: int, j: int) -> int:
        return (i - 1) * t + (j - 1)

    edges = []
    for i in range(1, s + 1):
        for j in range(1, t + 1):
            if j < t:
                edges.append((idx(i, j), idx(i, j + 1)))
            if i < s:
                edges.append((idx(i, j), idx(i + 1, j)))
    labels = tuple(f"u{i}.w{j}" for i in range(1, s + 1) for j in range(1, t + 1))
    return build_graph(s * t, edges), labels


def bouquet(lengths: Sequence[int]) -> Labeled:
    """m ≥ 2 cycles sharing exactly one vertex w; cycle i walked as u{i}.1..u{i}.(c-1)."""
    lengths = tuple(lengths)
    labels = ["w"]
    edges = []
    nxt = 1
    for i, c in enumerate(lengths, start=1):
        ring = list(range(nxt, nxt + c - 1))
        nxt += c - 1
        labels.extend(f"u{i}.{t}" for t in range(1, c))
        edges.append((0, ring[0]))
        edges.extend((ring[j], ring[j + 1]) for j in range(len(ring) - 1))
        edges.append((ring[-1], 0))
    return build_graph(nxt, edges), tuple(labels)


def paddle(a: int, b: int) -> Labeled:
    """Clique u0..u(a-1) with a pendant path w1..wb hanging off u0."""
    edges = [(i, j) for i in range(a) for j in range(i + 1, a)]
    edges.append((0, a))
    edges.extend((a + j, a + j + 1) for j in range(b - 1))
    labels = tuple(f"u{i}" for i in range(a)) + tuple(f"w{j + 1}" for j in range(b))
    return build_graph(a + b, edges), labels


def fork(r: int, n: int) -> Labeled:
    """Path u1..ur with the n-r independent vertices l1.. joined to ur."""
    edges = [(i, i + 1) for i in range(r - 1)]
    edges += [(r - 1, r - 1 + i) for i in range(1, n - r + 1)]
    labels = tuple(f"u{i + 1}" for i in range(r)) + tuple(f"l{i + 1}" for i in range(n - r))
    return build_graph(n, edges), labels


def generalized_sun(m: int, legs: Sequence[int]) -> Labeled:
    """Cycle u1..um with a pendant path of legs[i-1] vertices at each u_i (0 = none)."""
    edges = [(i, (i + 1) % m) for i in range(m)]
    labels = [f"u{i + 1}" for i in range(m)]
    nxt = m
    for i, leg in enumerate(legs):
        prev = i
        for t in range(1, leg + 1):
            edges.append((prev, nxt))
            labels.append(f"u{i + 1}.{t}")
            prev = nxt
            nxt += 1
    return build_graph(nxt, edges), tuple(labels)


class FrLevel(NamedTuple):
    """Presence flags and edge choices for one level of a layered two-anchor graph.

    ``y_attach`` selects how a level's middle vertex reaches the level below:
    ``"steps"`` uses the two side vertices beneath it, ``"prev"`` the middle
    vertex beneath it, ``"both"`` both, and ``"auto"`` picks steps when
    available, else prev.  ``intra`` lists optional same-level edges among
    ``{"xy", "xz", "yz"}``.
    """

    x: bool = False
    y: bool = False
    z: bool = False
    y_attach: str = "auto"
    intra: frozenset = frozenset()


def fr_graph(levels: Sequence[FrLevel]) -> Labeled:
    """Member of the layered family resolved by the adjacent anchor pair (u, w).

    Validity rules (violations raise RuleViolation naming the rule):
      R1  vertices are u, w and x_a/y_a/z_a for levels a = 1..r;
      R2  x_1 attaches to u;  R3  z_1 attaches to w;  R4  y_1 attaches to both;
      R5  x_a (a ≥ 2) requires x_{a-1} and the edge between them;
      R6  z_a likewise on the z side;
      R7  y_a (a ≥ 2) requires x_{a-1} and z_{a-1} (steps) or y_{a-1} (prev);
      R8  edges inside a level (xy, xz, yz) are optional;
      R9  no other edges exist.
    """
    labels = ["u", "w"]
    index: dict[str, int] = {"u": 0, "w": 1}
    edges: list[tuple[int, int]] = [(0, 1)]

    def add(name: str, *below: str) -> None:
        index[name] = len(labels)
        labels.append(name)
        edges.extend((index[name], index[b]) for b in below)

    for a, level in enumerate(levels, start=1):
        # Level 1 stands on the anchors: x1 on u, z1 on w and y1 on both,
        # whatever its valid y_attach.
        sides = ("u", "w") if a == 1 else (f"x{a - 1}", f"z{a - 1}")
        for role, flag, below, rule in zip("xz", (level.x, level.z), sides, ("R5", "R6")):
            if flag:
                if below not in index:
                    raise RuleViolation(rule, f"{role}{a} needs {below} present")
                add(f"{role}{a}", below)
        if level.y:
            attach = level.y_attach
            if attach not in ("auto", "steps", "prev", "both"):
                raise RuleViolation("R7", f"unknown y_attach {attach!r}")
            steps_ok = all(side in index for side in sides)
            if a == 1 or attach == "auto":
                attach = "steps" if steps_ok else "prev"
            below: list[str] = []
            if attach != "prev":
                if not steps_ok:
                    raise RuleViolation("R7", f"y{a} needs {sides[0]} and {sides[1]}")
                below += sides
            if attach != "steps":
                if f"y{a - 1}" not in index:
                    raise RuleViolation("R7", f"y{a} needs y{a - 1}")
                below.append(f"y{a - 1}")
            add(f"y{a}", *below)
        # Sorting by str keeps a non-string entry for the name check below.
        for pair in sorted(level.intra, key=str):
            if pair not in ("xy", "xz", "yz"):
                raise RuleViolation("R8", f"unknown intra-level edge {pair!r}")
            p, q = f"{pair[0]}{a}", f"{pair[1]}{a}"
            if p not in index or q not in index:
                raise RuleViolation("R8", f"intra edge {pair} at level {a} needs both endpoints")
            edges.append((index[p], index[q]))
    return build_graph(len(labels), edges), tuple(labels)


def fr_sample(r: int, seed: int) -> Labeled:
    """Random member with at most r levels; presence flags are sampled then
    repaired downward so the construction rules always hold."""
    rng = random.Random(seed)
    levels: list[FrLevel] = []
    prev = FrLevel(x=True, y=True, z=True)  # level 0 (u, w) supports anything: level 1 passes each test
    for _ in range(r):
        x = rng.random() < 0.7 and prev.x
        z = rng.random() < 0.7 and prev.z
        y_want = rng.random() < 0.6
        steps_ok = prev.x and prev.z
        y = y_want and (steps_ok or prev.y)
        if y and steps_ok and prev.y:
            attach = rng.choice(["steps", "prev", "both"])
        elif y and steps_ok:
            attach = "steps"
        else:
            attach = "prev"
        intra = set()
        for pair in ("xy", "xz", "yz"):
            here = {"x": x, "y": y, "z": z}
            if here[pair[0]] and here[pair[1]] and rng.random() < 0.4:
                intra.add(pair)
        if not (x or y or z):
            # Nothing can stand on an empty level, so every later one is empty too.
            break
        level = FrLevel(x=x, y=y, z=z, y_attach=attach, intra=frozenset(intra))
        levels.append(level)
        prev = level
    return fr_graph(levels)


def kite(k: int) -> Labeled:
    """Complete graph on u1..u(k+2) with the edge u1-u(k+2) subdivided once (s)."""
    n = k + 2
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not (i == 0 and j == n - 1)
    ]
    edges += [(0, n), (n - 1, n)]
    return build_graph(n + 1, edges), tuple(f"u{i + 1}" for i in range(n)) + ("s",)


def subdivided_k33() -> Labeled:
    """Bipartite u1..u3 / w1..w3 with u2w2 subdivided twice and u3w1, u3w2 once."""
    labels = ("u1", "u2", "u3", "w1", "w2", "w3", "a1", "a2", "b1", "b2")
    ix = {name: i for i, name in enumerate(labels)}
    raw = [
        ("u1", "w1"), ("u1", "w2"), ("u1", "w3"),
        ("u2", "w1"), ("u2", "w3"),
        ("u3", "w3"),
        ("u2", "a1"), ("a1", "a2"), ("a2", "w2"),
        ("u3", "b1"), ("b1", "w1"),
        ("u3", "b2"), ("b2", "w2"),
    ]
    return build_graph(10, [(ix[a], ix[b]) for a, b in raw]), labels


def theta_tails() -> Labeled:
    """Two internal 4-vertex paths from b to c, with pendant edges a-b and c-d."""
    labels = (
        "a", "b",
        "p1.1", "p1.2", "p1.3", "p1.4",
        "p2.1", "p2.2", "p2.3", "p2.4",
        "c", "d",
    )
    ix = {name: i for i, name in enumerate(labels)}
    raw = [("a", "b")]
    for arm in ("p1", "p2"):
        raw.append(("b", f"{arm}.1"))
        raw.extend((f"{arm}.{t}", f"{arm}.{t + 1}") for t in range(1, 4))
        raw.append((f"{arm}.4", "c"))
    raw.append(("c", "d"))
    return build_graph(12, [(ix[a], ix[b]) for a, b in raw]), labels


def fan_tail(n: int) -> Labeled:
    """Path u1..u4 whose every vertex is joined to w1, the head of a pendant path."""
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(i, 4) for i in range(4)]
    edges += [(4 + j, 5 + j) for j in range(n - 5)]
    labels = ("u1", "u2", "u3", "u4") + tuple(f"w{j + 1}" for j in range(n - 4))
    return build_graph(n, edges), labels


def vdel_pair(k: int) -> tuple[Labeled, Labeled]:
    """Graph G and the tree G-v: a (k+2)-path with leaves at u1 and uk, where v
    joins those two leaves."""
    # indices: u0..u(k+1) = 0..k+1, l1 = k+2, lk = k+3, v = k+4
    tree_edges = [(i, i + 1) for i in range(k + 1)]
    tree_edges += [(1, k + 2), (k, k + 3)]
    labels_tree = tuple(f"u{i}" for i in range(k + 2)) + ("l1", f"l{k}")
    g_edges = tree_edges + [(k + 2, k + 4), (k + 3, k + 4)]
    labels_g = labels_tree + ("v",)
    return (
        (build_graph(k + 5, g_edges), labels_g),
        (build_graph(k + 4, tree_edges), labels_tree),
    )


def vdel(k: int) -> Labeled:
    return vdel_pair(k)[0]


def edel_pair(k: int, a: int) -> tuple[Labeled, Labeled]:
    """Graph G and the spider G-e: center w with a long leg l1,s1..s(a-1), legs of
    length two to l2..l(k-1), a pendant lk, and the extra edge e = l1-s3."""
    # indices: l1 = 0, s1..s(a-1) = 1..a-1, w = a, then per middle leg (t, l), lk last
    labels = ["l1"] + [f"s{t}" for t in range(1, a)] + ["w"]
    edges = [(i, i + 1) for i in range(a)]
    w = a
    nxt = a + 1
    for i in range(2, k):
        edges.append((w, nxt))
        labels.append(f"t{i}")
        edges.append((nxt, nxt + 1))
        labels.append(f"l{i}")
        nxt += 2
    edges.append((w, nxt))
    labels.append(f"l{k}")
    nxt += 1
    tree = build_graph(nxt, edges), tuple(labels)
    g = build_graph(nxt, edges + [(0, 3)]), tuple(labels)
    return g, tree


def edel(k: int, a: int) -> Labeled:
    return edel_pair(k, a)[0]


def _bfs_relabel(g: Graph) -> Graph:
    """A connected graph relabelled in BFS order from 0, so each vertex beyond the first
    has a smaller neighbour.  A vertex's new neighbours are queued in ascending order."""
    order = [0]
    seen = 1
    for v in order:
        fresh = g.adj_bits[v] & ~seen
        seen |= fresh
        order.extend(bits(fresh))
    new = [0] * g.n
    for i, v in enumerate(order):
        new[v] = i
    return build_graph(g.n, [(new[u], new[v]) for u, v in g.edges()])


def random_tree(n: int, seed: int) -> Labeled:
    """Uniform random labeled tree via a random vertex sequence decode."""
    rng = random.Random(seed)
    # At n = 2 the sequence is empty: no draw, leaves {0, 1}, one edge (0, 1).
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append(tuple(sorted(leaves)))
    return _bfs_relabel(build_graph(n, edges)), tuple(f"v{i + 1}" for i in range(n))


def random_connected(n: int, p: float, seed: int) -> Labeled:
    """Edge-probability sample conditioned on connectivity by rejection.

    Rejection stops after 10,000 draws, or sooner once the next draw would
    take the vertex-pair trials past ``RAND_PAIR_BUDGET``; below n = 46 the
    draw ceiling binds first.
    """
    rng = random.Random(seed)
    draws = min(10_000, RAND_PAIR_BUDGET // (n * (n - 1) // 2))
    for _ in range(draws):
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = build_graph(n, edges)
        if g.is_connected():
            return _bfs_relabel(g), tuple(f"v{i + 1}" for i in range(n))
    raise GenerationFailed(
        f"no connected sample in {draws} draws (n={n}, p={p}; "
        f"the budget is {RAND_PAIR_BUDGET} vertex-pair trials)"
    )


class _Field(NamedTuple):
    """One ':'-separated spec field: ``read(field, spec)`` gives the ``width``
    params it fills, and ``show(*params)`` prints them back."""

    width: int
    read: Callable[[str, str], tuple]
    show: Callable[..., str]


def _int(s: str, text: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise InvalidSpec(f"bad integer {s!r} in {text!r}") from exc


def _ints(s: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in s.split(","))
    except ValueError as exc:
        raise InvalidSpec(f"bad integer list {s!r} in {text!r}") from exc


def _pair(s: str, text: str) -> tuple[int, int]:
    a, b = _ints(s, text)
    return a, b


def _sxt(s: str, text: str) -> tuple[int, int]:
    a, b = s.split("x")
    return _int(a, text), _int(b, text)


INT = _Field(1, lambda s, text: (_int(s, text),), str)
INTS = _Field(1, lambda s, text: (_ints(s, text),), lambda xs: ",".join(map(str, xs)))
PAIR = _Field(2, _pair, "{},{}".format)
SXT = _Field(2, _sxt, "{}x{}".format)
FLOAT = _Field(1, lambda s, text: (float(s),), str)
# The only field that may be empty or missing; parse_spec then uses default_seed.
SEED = _Field(1, lambda s, text: (_int(s, text),), str)


class _Kind(NamedTuple):
    fields: tuple[_Field, ...]
    build: Callable[..., Labeled]
    # Order and size (edge count) of the instance from its params; None when
    # known only once drawn: ``fr_sample`` stops at its first empty level, and
    # ``rand`` keeps each vertex pair with probability p.
    order: Optional[Callable[..., int]]
    size: Optional[Callable[..., int]]
    # Raises InvalidSpec for params outside the kind's domain.  It runs before
    # the order or size is read, so the builders and the counts above assume
    # params inside it.
    check: Callable[..., object]


def _first(n: int, *_: int) -> int:
    return n


_KINDS = {
    "path": _Kind((INT,), path, _first, lambda n: n - 1,
                  lambda n: n >= 2 or _fail("path needs n ≥ 2")),
    "cycle": _Kind((INT,), cycle, _first, _first,
                   lambda n: n >= 3 or _fail("cycle needs n ≥ 3")),
    "complete": _Kind((INT,), complete, _first, lambda n: n * (n - 1) // 2,
                      lambda n: n >= 2 or _fail("complete needs n ≥ 2")),
    "star": _Kind((INT,), star, _first, lambda n: n - 1,
                  lambda n: n >= 2 or _fail("star needs n ≥ 2")),
    "multipartite": _Kind(
        (INTS,), complete_multipartite, sum,
        lambda parts: (sum(parts) ** 2 - sum(a * a for a in parts)) // 2,
        lambda parts: (len(parts) >= 2 or _fail("multipartite needs k ≥ 2 parts"),
                       all(a >= 1 for a in parts) or _fail("part sizes must be ≥ 1"))),
    "wheel": _Kind((INT,), wheel, lambda n: n + 1, lambda n: 2 * n,
                   lambda n: n >= 3 or _fail("wheel needs rim length n ≥ 3")),
    "petersen": _Kind((), petersen, lambda: 10, lambda: 15, lambda: None),
    "grid": _Kind((SXT,), grid, lambda s, t: s * t, lambda s, t: 2 * s * t - s - t,
                  lambda s, t: (s >= 2 and t >= 2) or _fail("grid needs s,t ≥ 2")),
    "bouquet": _Kind(
        (INTS,), bouquet, lambda cs: 1 + sum(c - 1 for c in cs), sum,
        lambda cs: (len(cs) >= 2 or _fail("bouquet needs m ≥ 2 cycles"),
                    all(c >= 3 for c in cs) or _fail("cycle lengths must be ≥ 3"))),
    "paddle": _Kind(
        (PAIR,), paddle, lambda a, b: a + b, lambda a, b: a * (a - 1) // 2 + b,
        lambda a, b: (a >= 3 or _fail("paddle needs clique size a ≥ 3"),
                      b >= 1 or _fail("paddle needs tail length b ≥ 1"))),
    "fork": _Kind((PAIR,), fork, lambda r, n: n, lambda r, n: n - 1,
                  lambda r, n: (2 <= r <= n - 2) or _fail("fork needs 2 ≤ r ≤ n-2")),
    "sun": _Kind(
        (INT, INTS), generalized_sun, lambda m, legs: m + sum(legs), lambda m, legs: m + sum(legs),
        lambda m, legs: (m >= 3 or _fail("sun needs cycle length m ≥ 3"),
                         len(legs) == m or _fail(f"need exactly {m} leg lengths"),
                         all(x >= 0 for x in legs) or _fail("leg lengths must be ≥ 0"))),
    "fr": _Kind((INT, SEED), fr_sample, None, None,
                lambda r, seed: r >= 0 or _fail("fr needs r ≥ 0")),
    # K(k+2) less one edge, which a new vertex subdivides.
    "kite": _Kind((INT,), kite, lambda k: k + 3, lambda k: (k + 2) * (k + 1) // 2 + 1,
                  lambda k: k >= 3 or _fail("kite needs k ≥ 3")),
    "k33sub": _Kind((), subdivided_k33, lambda: 10, lambda: 13, lambda: None),
    "thetatails": _Kind((), theta_tails, lambda: 12, lambda: 12, lambda: None),
    "fantail": _Kind((INT,), fan_tail, _first, lambda n: n + 2,
                     lambda n: n >= 6 or _fail("fantail needs n ≥ 6")),
    "vdel": _Kind((INT,), vdel, lambda k: k + 5, lambda k: k + 5,
                  lambda k: k >= 6 or _fail("vdel needs k ≥ 6")),
    "edel": _Kind(
        (PAIR,), edel, lambda k, a: a + 2 * k - 2, lambda k, a: a + 2 * k - 2,
        lambda k, a: (k >= 3 or _fail("edel needs k ≥ 3 legs"),
                      a >= 4 or _fail("edel needs long-leg length a ≥ 4"))),
    "randtree": _Kind((INT, SEED), random_tree, _first, lambda n, seed: n - 1,
                      lambda n, seed: n >= 2 or _fail("randtree needs n ≥ 2")),
    "rand": _Kind(
        (INT, FLOAT, SEED), random_connected, _first, None,
        lambda n, p, seed: (n >= 2 or _fail("rand needs n ≥ 2"),
                            (0 < p <= 1) or _fail("rand needs edge probability 0 < p ≤ 1"))),
}


def _kind(name: str) -> _Kind:
    if name not in _KINDS:
        raise InvalidSpec(f"unknown family kind {name!r}")
    return _KINDS[name]


def _checked(spec: FamilySpec) -> _Kind:
    """The kind of a spec whose params are in its domain; InvalidSpec otherwise."""
    kind = _kind(spec.kind)
    kind.check(*spec.params)
    return kind


def order(spec: FamilySpec) -> Optional[int]:
    """Order of the instance, from its parameters alone; None for fr."""
    count = _checked(spec).order
    return None if count is None else count(*spec.params)


def size(spec: FamilySpec) -> Optional[int]:
    """Edge count of the instance, from its parameters alone; None for fr and rand."""
    count = _checked(spec).size
    return None if count is None else count(*spec.params)


def generate(spec: FamilySpec | str) -> Labeled:
    """Instantiate a family spec (object or canonical text) deterministically.

    Parameters outside the kind's domain raise ``InvalidSpec``, and an
    instance past ``MAX_ORDER`` raises ``TooLarge``, before anything is built.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    n = order(spec)
    if n is not None and n > MAX_ORDER:
        raise TooLarge(f"{spec.text()} has {n} vertices, past the library cap {MAX_ORDER}")
    return _KINDS[spec.kind].build(*spec.params)


def parse_spec(text: str, *, default_seed: Optional[int] = None) -> FamilySpec:
    """Parse the canonical text grammar, e.g. wheel:9, grid:7x4, sun:8:1,0,3,1,0,2,0,0."""
    kind, *args = text.strip().split(":")
    if kind not in _KINDS:
        raise InvalidSpec(f"unknown family {kind!r}")
    fields = _KINDS[kind].fields
    params: list = []
    for i, f in enumerate(fields):
        if f is SEED and (i >= len(args) or not args[i]):
            if default_seed is None:
                raise InvalidSpec(f"{text!r} needs a seed (or pass --seed)")
            params.append(default_seed)
            continue
        try:
            params.extend(f.read(args[i], text))
        except (IndexError, ValueError) as exc:
            raise InvalidSpec(f"malformed family spec {text!r}") from exc
    # Canonical text spells out every field its grammar allows, seeds included.
    if len(args) > len(fields):
        raise InvalidSpec(f"malformed family spec {text!r}: too many ':' fields")
    return FamilySpec(kind, tuple(params))
