"""Workload plans: every input of a benchmark run, derived from its seed.

A plan is plain JSON.  It names the graphs (family specs, or explicit edge
lists) and the ordered queries the worker times on them, so the worker
receives only generated inputs and the same seed always yields the same plan.
This module imports neither ``metricdim`` nor ``networkx``; the catalog's
small-graph atlas is passed in by the caller.
"""

from __future__ import annotations

import random
from typing import Sequence

WORKLOADS = ("search", "catalog", "cli")

# Default seed whose exact values and witnesses are pinned in expected/.
PINNED_SEED = 1

# Per-op budgets in seconds (signal.setitimer in the worker, a subprocess
# timeout on cli).  An op past its budget counts as failed.
BUDGET_S = {"search": 20.0, "catalog": 5.0, "cli": 30.0}

# Every cli run makes at least this many passes, whatever its seconds, so
# each invocation's latency is a median of three or more.
CLI_MIN_PASSES = 3

# Inputs left out of every workload because one op on them runs for most of
# a minute or more; kept here for a later minor-oracle change to measure.
EXCLUDED_PATHOLOGICAL = (
    {"graph": "moebius:16", "op": "has_minor K33", "seconds": 51},
    {"graph": "moebius:20", "op": "has_minor K5", "seconds": 89},
    {"graph": "rand:17:0.3:2", "op": "has_minor K5 and K33", "seconds": "7.3 and 8.1"},
    {"graph": "rand:16:0.3:20", "op": "has_minor K33", "seconds": "> 3"},
    {"graph": "rand:18:0.3:20", "op": "has_minor K33", "seconds": "> 3"},
    {"graph": "rand:18:0.3:21", "op": "has_minor K33", "seconds": "> 3"},
)


def par2_graphs(smoke: bool) -> list[str]:
    """Graphs of the traced ``workers=2`` probe: the search workload's wheel and
    complete multipartite graph, whose cdim and profile rows are its slowest.

    The probe is not a workload query: a ``workers=2`` call runs two threads
    whose time varied by a third between runs on the same machine, twice
    the drift of one thread, so it would not hold an end-to-end bound.
    """
    return ["wheel:9", "multipartite:3,3,3"] if smoke else ["wheel:17", "multipartite:3,3,3,3,3,3"]


def moebius_ladder(n: int) -> list[list[int]]:
    """Edges of the Moebius ladder on n (even) vertices: a cycle plus its long diagonals."""
    half = n // 2
    return [[i, (i + 1) % n] for i in range(n)] + [[i, i + half] for i in range(half)]


def _solver_queries(key: str, anchors: Sequence[Sequence[int]], enum: bool) -> list[dict]:
    qs = [{"op": "dim", "graph": key}, {"op": "cdim", "graph": key}]
    qs += [{"op": "cdim_at", "graph": key, "anchor": list(a)} for a in anchors]
    qs.append({"op": "profile", "graph": key})
    if enum:
        qs.append({"op": "enum", "graph": key})
    return qs


def _formula_queries(key: str, vertices: Sequence[int]) -> list[dict]:
    qs = [{"op": "formula_dim", "graph": key}, {"op": "formula_cdim", "graph": key}]
    qs += [{"op": "formula_cdim_at", "graph": key, "vertex": v} for v in vertices]
    return qs


def _minor_queries(key: str) -> list[dict]:
    return [
        {"op": "has_minor", "graph": key, "target": "K5"},
        {"op": "has_minor", "graph": key, "target": "K33"},
        {"op": "planar", "graph": key},
    ]


def search_plan(seed: int, smoke: bool = False) -> dict:
    """Medium graphs on which exhaustive search is nearly all of the time.

    Most of the work is on fixed graphs, and the seeded anchors sit at
    symmetric positions (a rim vertex, an adjacent rim pair, two vertices of
    different parts), so a run's cost hardly depends on its seed.  The seeded
    random graph and tree get only cheap ops: on them profile and
    enumeration cost from 0.07 s to 0.7 s depending on the seed, which would
    outweigh a code change in the op sums.
    """
    rng = random.Random(f"search:{seed}")
    rim, size = (9, 3) if smoke else (17, 6)
    nrand = 12 if smoke else 16
    wheel, parts = f"wheel:{rim}", "multipartite:" + ",".join(["3"] * size)
    dense, tree = f"rand:{nrand}:0.3:{seed}", f"randtree:{nrand}:{seed}"
    graphs = [
        {"key": wheel, "spec": wheel},
        {"key": parts, "spec": parts},
        {"key": dense, "spec": dense},
        {"key": tree, "spec": tree},
        {"key": "moebius:12", "n": 12, "edges": moebius_ladder(12)},
    ]
    # A fixed-seed random kernel: seeded draws of rand:16..18:0.3 are heavy
    # tailed for has_minor (see EXCLUDED_PATHOLOGICAL), so minor_s would
    # depend on the seed far more than on the code.
    if not smoke:
        graphs.append({"key": "rand:16:0.3:3", "spec": "rand:16:0.3:3"})
    r = rng.randrange(rim)  # the hub is vertex `rim`
    v = rng.randrange(3 * size)
    w = rng.choice([u for u in range(3 * size) if u // 3 != v // 3])
    queries = _solver_queries(wheel, [[rim], [r], sorted([r, (r + 1) % rim])], enum=True)
    queries += _formula_queries(wheel, [rim])
    queries += _solver_queries(parts, [[0], [v], sorted([v, w])], enum=True)
    queries += _formula_queries(parts, [0])
    queries += [{"op": "dim", "graph": dense}, {"op": "cdim", "graph": dense},
                {"op": "cdim_at", "graph": dense, "anchor": [rng.randrange(nrand)]}]
    queries += [{"op": "dim", "graph": tree}, {"op": "cdim", "graph": tree},
                {"op": "tree_sets", "graph": tree}]
    for g in graphs[4:]:
        queries += _minor_queries(g["key"])
    return {"workload": "search", "seed": seed, "pass_dm": True, "graphs": graphs,
            "queries": queries}


CATALOG_FAMILIES = (
    "petersen", "k33sub", "thetatails", "bouquet:3,4,5", "paddle:5,3", "fork:3,7",
    "sun:4:1,0,2,0", "kite:3", "fantail:7",
)


def catalog_plan(seed: int, atlas: Sequence[tuple[int, list[list[int]]]], smoke: bool = False) -> dict:
    """Thousands of sub-millisecond calls, so per-call fixed costs dominate.

    ``atlas`` holds (n, edges) for every connected graph on 2..7 vertices.
    """
    # Trees stop at 12 vertices: larger ones cost milliseconds per call,
    # which is the search workload's regime, and their seeded cost would
    # set the latency tail.
    tree_sizes = range(8, 11) if smoke else range(8, 13)
    graphs = [{"key": f"atlas:{i}", "n": n, "edges": edges} for i, (n, edges) in enumerate(atlas)]
    if smoke:
        graphs = graphs[::40]
    trees = [{"key": f"randtree:{t}:{seed}", "spec": f"randtree:{t}:{seed}", "n": t, "tree": True}
             for t in tree_sizes]
    shipped = [{"key": spec, "spec": spec} for spec in CATALOG_FAMILIES]
    graphs += trees + shipped
    queries: list[dict] = []
    for g in graphs:
        # The worker expands the "*_all" ops to one query per vertex.
        key = g["key"]
        queries += [{"op": "dim", "graph": key}, {"op": "cdim", "graph": key},
                    {"op": "cdim_at_all", "graph": key}, {"op": "profile", "graph": key},
                    {"op": "enum", "graph": key}]
        queries += _minor_queries(key)
        queries += [{"op": "formula_dim", "graph": key}, {"op": "formula_cdim", "graph": key},
                    {"op": "formula_cdim_at_all", "graph": key}]
        if g.get("tree"):
            queries.append({"op": "tree_sets", "graph": key})
    return {"workload": "catalog", "seed": seed, "pass_dm": False, "graphs": graphs,
            "queries": queries}


def cli_plan(seed: int, smoke: bool = False) -> dict:
    """Cold-start command-line runs, one fresh interpreter per invocation.

    Each pass first writes the input files with ``generate --out``, then
    reads them back (one as DIMACS) with two or more runs of every query
    command kind.
    """
    rng = random.Random(f"cli:{seed}")
    files = {
        "petersen.el": "petersen",
        "tree.el": f"randtree:12:{seed}",
        "rand.el": f"rand:10:0.4:{seed}",
    }
    tree_labels = [f"v{i + 1}" for i in range(12)]
    runs: list[dict] = [
        {"op": "generate", "argv": ["generate", "--family", spec, "--out", name, "--json"]}
        for name, spec in files.items()
    ]
    reads = [
        ("dim", ["dim", "petersen.el", "--json"]),
        ("dim", ["dim", "rand.dimacs", "--format", "dimacs", "--json"]),
        ("cdim", ["cdim", "--family", "wheel:9", "--json"]),
        ("cdim", ["cdim", "tree.el", "--json"]),
        ("cdim_at", ["cdim-at", "tree.el", "--set", ",".join(sorted(rng.sample(tree_labels, 2))),
                     "--json"]),
        ("cdim_at", ["cdim-at", "--family", "paddle:5,3", "--vertex",
                     rng.choice(["u1", "u2", "u3", "w1", "w2"]), "--json"]),
        ("cdim_at", ["cdim-at", "tree.el", "--vertex", rng.choice(tree_labels), "--json"]),
        ("profile", ["profile", "tree.el", "--json"]),
        ("profile", ["profile", "--family", "kite:3", "--json"]),
        ("enum", ["enumerate-min", "petersen.el", "--json"]),
        ("enum", ["enumerate-min", "tree.el", "--json"]),
        ("minor", ["planar-desk", "--family", "k33sub", "--json"]),
        ("minor", ["planar-desk", "rand.el", "--json"]),
        ("formula", ["formula", "tree.el", "--theorem", "cdim-at", "--vertex",
                     rng.choice(tree_labels), "--json"]),
        ("formula", ["classify", "--family", "sun:4:1,0,2,0", "--json"]),
        ("formula", ["verify", "--family", "wheel:9", "--json"]),
        ("formula", ["verify", "--family", f"randtree:10:{seed}", "--json"]),
    ]
    if smoke:
        reads = list({op: (op, argv) for op, argv in reversed(reads)}.values())
    runs += [{"op": op, "argv": argv} for op, argv in reads]
    graphs = [{"key": name, "spec": spec} for name, spec in files.items()]
    return {"workload": "cli", "seed": seed, "pass_dm": False, "graphs": graphs,
            "runs": runs, "dimacs": {"rand.dimacs": "rand.el"}, "min_passes": CLI_MIN_PASSES}


def make_plan(workload: str, seed: int, atlas=None, smoke: bool = False) -> dict:
    if workload == "search":
        plan = search_plan(seed, smoke)
    elif workload == "catalog":
        plan = catalog_plan(seed, atlas, smoke)
    elif workload == "cli":
        plan = cli_plan(seed, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["budget_s"] = BUDGET_S[workload]
    plan["par2"] = par2_graphs(smoke)
    plan["smoke"] = smoke
    return plan
