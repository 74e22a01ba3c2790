"""Benchmark worker: runs one workload plan in a fresh interpreter.

run.py writes a job -- the plan plus run settings -- to this
process's stdin and reads one JSON result line from its stdout.  Nothing from
``metricdim`` or ``networkx`` is imported before the set-up clock starts, and
the result records what was already loaded at that moment.

Untraced runs time whole passes over the plan's queries while the next pass
is expected to end within the run's seconds.  Traced runs alternate
untraced and traced passes, so the tracing overhead is measured under the
same conditions, and add probes for layers no query times on its own.
Every output of the first pass goes through the correctness gate, and every
later pass must reproduce it.  Set-up and pass times are scaled to a
reference host speed by a kernel of ``hostclock`` timed in bursts beside
them; the raw times are kept in the result.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import gate as gatelib
import hostclock
import tracer as tracing

OP_CLASS = {
    "dim": "dim", "cdim": "cdim", "cdim_at": "cdim_at", "profile": "profile", "enum": "enum",
    "has_minor": "minor", "planar": "minor",
    "formula_dim": "formula", "formula_cdim": "formula", "formula_cdim_at": "formula",
    "tree_sets": "formula",
}
OP_SUMS = ("dim", "cdim", "cdim_at", "profile", "enum", "minor", "formula")
# Calibration kernels timed right before and right after set-up.
SETUP_KERNELS = 8

# Library exceptions that are a defined answer of the op, not a failure.
ANSWERS = {
    "formula_dim": ("Unsupported",), "formula_cdim": ("Unsupported",),
    "formula_cdim_at": ("Unsupported",), "tree_sets": ("IsAPath",),
}

CLI_ENTRY = "import sys; from metricdim.cli import main; main()"
IMPORT_PROBE = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"
IMPORT_PROBES = 3


class OpBudgetExceeded(Exception):
    """An op ran past its time budget."""


class Budget:
    """Per-op time budget enforced with SIGALRM in this process."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise OpBudgetExceeded()

    def call(self, fn, answers=()):
        """Run ``fn``; return (output, error message or None, elapsed ns)."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        start = time.perf_counter_ns()
        try:
            out = fn()
            elapsed = time.perf_counter_ns() - start
            self.armed = False
            return out, None, elapsed
        except OpBudgetExceeded:
            return None, f"over its {self.seconds:g} s budget", time.perf_counter_ns() - start
        except Exception as exc:  # one failing op is counted, not fatal to the run
            elapsed = time.perf_counter_ns() - start
            self.armed = False
            if type(exc).__name__ in answers:
                return type(exc).__name__, None, elapsed
            return None, f"{type(exc).__name__}: {exc}", elapsed
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def preloaded() -> list[str]:
    return sorted(name for name in ("metricdim", "networkx") if name in sys.modules)


class Lib:
    """The package's modules, imported by ``setup`` inside the set-up clock."""

    def __init__(self, with_cli: bool) -> None:
        import metricdim
        from metricdim import families, formulas, graph, minor, solver

        self.md, self.families = metricdim, families
        self.formulas, self.graph, self.minor, self.solver = formulas, graph, minor, solver
        self.cli = None
        if with_cli:
            import metricdim.cli

            self.cli = metricdim.cli


def build_graphs(lib: Lib, plan: dict) -> dict:
    """key -> (graph, labels, distance matrix or None)."""
    graphs = {}
    for spec in plan["graphs"]:
        if "edges" in spec:
            g = lib.graph.build_graph(spec["n"], [tuple(e) for e in spec["edges"]])
            labels = tuple(str(v) for v in range(g.n))
        else:
            g, labels = lib.families.generate(spec["spec"])
        dm = lib.graph.all_pairs_distances(g) if plan["pass_dm"] else None
        graphs[spec["key"]] = (g, labels, dm)
    return graphs


def setup(job: dict, tr: tracing.Tracer | None):
    """Import the package and build every input graph.

    Returns (lib, graphs, scaled seconds, raw seconds, preloaded).
    """
    clock = hostclock.HostClock()
    clock.sample(SETUP_KERNELS)
    before = preloaded()
    start = time.perf_counter()
    if job["src"] not in sys.path:
        sys.path.insert(0, job["src"])
    plan = job["plan"]
    lib = Lib(with_cli=plan["workload"] == "cli")
    if tr is not None:
        tr.install()
    graphs = {} if plan["workload"] == "cli" else build_graphs(lib, plan)
    elapsed = time.perf_counter() - start
    if tr is not None:
        tr.uninstall()
    clock.sample(SETUP_KERNELS)
    return lib, graphs, elapsed * clock.scale(), elapsed, before


# ---------------------------------------------------------------------------
# Library queries


def expand(queries: list[dict], graphs: dict) -> list[dict]:
    """Replace each "*_all" op by one query per vertex."""
    out = []
    for q in queries:
        if q["op"] == "cdim_at_all":
            n = graphs[q["graph"]][0].n
            out += [{"op": "cdim_at", "graph": q["graph"], "anchor": [v]} for v in range(n)]
        elif q["op"] == "formula_cdim_at_all":
            n = graphs[q["graph"]][0].n
            out += [{"op": "formula_cdim_at", "graph": q["graph"], "vertex": v} for v in range(n)]
        else:
            out.append(q)
    return out


def bind(lib: Lib, q: dict, graphs: dict, pass_dm: bool):
    """A zero-argument call for one query.  Functions are looked up at call
    time, so the tracer's wrappers are used while installed."""
    g, _, dm = graphs[q["graph"]]
    dm = dm if pass_dm else None
    s, mi, fo = lib.solver, lib.minor, lib.formulas
    op = q["op"]
    if op == "dim":
        return lambda: s.dim_exact(g, dm)
    if op == "cdim":
        return lambda: s.cdim_exact(g, dm)
    if op == "cdim_at":
        anchor = tuple(q["anchor"])
        return lambda: s.cdim_at_set(g, anchor, dm)
    if op == "profile":
        return lambda: s.vertex_profile(g, dm)
    if op == "enum":
        return lambda: s.enumerate_min_resolving_sets(g, dm, cap=g.n)
    if op == "has_minor":
        target = q["target"]
        return lambda: mi.has_minor(g, target)
    if op == "planar":
        return lambda: mi.is_planar_desk(g)
    if op == "formula_dim":
        return lambda: fo.dim_formula(g)
    if op == "formula_cdim":
        return lambda: fo.cdim_formula(g)
    if op == "formula_cdim_at":
        v = q["vertex"]
        return lambda: fo.cdim_at_vertex_formula(g, v)
    if op == "tree_sets":
        return lambda: fo.tree_min_resolving_sets(g)
    raise ValueError(f"unknown op {op!r}")


def per_graph(queries: list[dict], outs: list) -> dict:
    """Group one pass's outputs by graph, in the layout Gate.graph expects."""
    grouped: dict[str, dict] = {}
    for q, out in zip(queries, outs):
        if out is None:
            continue
        r = grouped.setdefault(q["graph"], {})
        op = q["op"]
        if op == "cdim_at":
            r.setdefault("cdim_at", {})[tuple(q["anchor"])] = out
        elif op == "has_minor":
            r.setdefault("has_minor", {})[q["target"]] = out
        elif op == "formula_cdim_at":
            r.setdefault("formula_cdim_at", {})[q["vertex"]] = out
        else:
            r[op] = out
    return grouped


def planar_oracle(g) -> bool:
    """Planarity of the whole graph by networkx, independent of the minor search."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.check_planarity(h)[0]


# ---------------------------------------------------------------------------
# Passes


class Run:
    """State of one run: timings per query and pass, failures, tracer phases.

    Times are scaled by each pass's host clock factor; ``raw_walls`` keeps
    the unscaled untraced pass times.
    """

    def __init__(self, job: dict, tr: tracing.Tracer | None) -> None:
        self.job = job
        self.plan = job["plan"]
        self.tr = tr
        self.budget = Budget(self.plan["budget_s"])
        self.clock = hostclock.HostClock()
        self.attempted = 0
        self.errors: list[str] = []
        self.times: list[list[float]] = []  # per query: scaled ns in each untraced pass
        self.pass_walls: dict[bool, list[float]] = {False: [], True: []}
        self.raw_walls: list[int] = []
        self.traced_phases: list[tuple[int, int]] = []
        self.first: list | None = None

    def execute(self, names: list[str], calls: list, answers: list, traced: bool) -> list:
        """One pass over ``calls``; returns the outputs and records times."""
        tr = self.tr
        if traced:
            tr.install()
            lo = tr.mark()
        clock = self.clock
        clock.sample()
        outs, raw = [], []
        for i, fn in enumerate(calls):
            if traced:
                tr.qid = i
            out, err, ns = self.budget.call(fn, answers[i])
            clock.tick(ns)
            self.attempted += 1
            if err is not None:
                self.errors.append(f"{names[i]}: {err}")
            outs.append(out)
            raw.append(ns)
        if traced:
            tr.qid = None
            self.traced_phases.append((lo, tr.mark()))
            tr.uninstall()
        scale = clock.scale()
        self.pass_walls[traced].append(sum(raw) * scale)
        if not traced:
            self.raw_walls.append(sum(raw))
            for i, ns in enumerate(raw):
                if len(self.times) <= i:
                    self.times.append([])
                self.times[i].append(ns * scale)
        return outs

    def loop(self, names, calls, answers, gate: gatelib.Gate) -> None:
        """Whole passes while the next is expected to end within the run's
        seconds, and at least the plan's ``min_passes`` untraced ones
        (traced runs: untraced and traced alternate, at least one traced)."""
        deadline = time.perf_counter() + self.job["seconds"]
        traced = False
        while True:
            started = time.perf_counter()
            outs = self.execute(names, calls, answers, traced)
            if self.first is None:
                self.first = outs
                # Keep the run's retained inputs and outputs out of the
                # cyclic collector's scans, which would otherwise grow with
                # the harness's own data and land on whichever op allocates.
                gc.freeze()
            else:
                for name, a, b in zip(names, self.first, outs):
                    if a is not None and b is not None and a != b:
                        gate.same(name, a, b)
            now = time.perf_counter()
            done = (now + (now - started) > deadline
                    and len(self.pass_walls[False]) >= self.plan.get("min_passes", 1))
            if self.job["trace"]:
                done = done and len(self.pass_walls[True]) > 0
                traced = not traced
            if done:
                return


def run_library_workload(job: dict, lib: Lib, graphs: dict, run: Run, gate: gatelib.Gate) -> dict:
    plan = job["plan"]
    queries = expand(plan["queries"], graphs)
    names = [f'{q["graph"]} {q["op"]}{q.get("anchor", q.get("vertex", q.get("target", "")))}'
             for q in queries]
    calls = [bind(lib, q, graphs, plan["pass_dm"]) for q in queries]
    answers = [ANSWERS.get(q["op"], ()) for q in queries]
    run.loop(names, calls, answers, gate)

    grouped = per_graph(queries, run.first)
    pins, witnesses, minors, trees, levels = {}, [], [], [], 0
    for key, (g, _, dm) in graphs.items():
        r = grouped.get(key, {})
        dm = dm or lib.graph.all_pairs_distances(g)
        gate.graph(key, g, dm, r)
        pins[key] = gatelib.digest(gatelib.canonical(r))
        for op in ("dim", "cdim"):
            if op in r:
                levels += gatelib.levels(lib.md, g, dm, r[op].value)
        for anchor, res in r.get("cdim_at", {}).items():
            levels += gatelib.levels(lib.md, g, dm, res.value, anchor)
            witnesses.append((g, res.witness))
        if "profile" in r:
            levels += gatelib.levels(lib.md, g, dm, r["profile"].rdiam)
        if "cdim" in r:
            witnesses.append((g, r["cdim"].witness))
        minors += [(g, t, model) for t, (ok, model) in r.get("has_minor", {}).items() if ok]
        if not isinstance(r.get("tree_sets", "absent"), str):
            trees.append(g)
    ops = [OP_CLASS[q["op"]] for q in queries]
    return {"pins": pins, "witnesses": witnesses, "minors": minors, "trees": trees,
            "levels": levels, "ops": ops, "graphs": graphs, "names": names}


# ---------------------------------------------------------------------------
# The cli workload


def write_dimacs(g, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p edge {g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"e {u + 1} {v + 1}\n")


def cli_subprocess(argv: list[str], env: dict, timeout: float) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(argv, out, err)
    return rc, out.getvalue(), err.getvalue()


def cli_graph(lib: Lib, argv: list[str]):
    """The graph and labels a cli invocation reads."""
    if "--family" in argv:
        return lib.families.generate(argv[argv.index("--family") + 1])
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "edgelist"
    return lib.cli.parse_graph_file(argv[1], fmt)


def check_cli_output(gate: gatelib.Gate, lib: Lib, argv: list[str], stdout: str, files: dict):
    """Semantic checks of one invocation's JSON report.

    Returns (search levels, connected witnesses, minor models) for the probes.
    """
    where = " ".join(argv)
    try:
        rep = json.loads(stdout)
    except ValueError:
        gate.expect(False, f"{where}: stdout is not one JSON report")
        return 0, [], []
    cmd, s, mi, fo = argv[0], lib.solver, lib.minor, lib.formulas
    if cmd == "generate":
        out = argv[argv.index("--out") + 1]
        g1, labels1 = lib.families.generate(files[out])
        g2, labels2 = lib.cli.parse_graph_file(out)
        gate.expect(g1.adj_bits == g2.adj_bits and labels1 == labels2,
                    f"{where}: the written file does not reproduce the family")
        return 0, [], []
    g, labels = cli_graph(lib, argv)
    dm = lib.graph.all_pairs_distances(g)
    index = {lab: i for i, lab in enumerate(labels)}

    def ids(names):
        return tuple(sorted(index[x] for x in names))

    levels, witnesses, minors = 0, [], []
    if cmd in ("dim", "cdim", "cdim-at"):
        w = ids(rep["witness"])
        anchor = ()
        if cmd == "dim":
            exact = s.dim_exact(g, dm)
        elif cmd == "cdim":
            exact = s.cdim_exact(g, dm)
        else:
            names = [argv[argv.index("--vertex") + 1]] if "--vertex" in argv else \
                argv[argv.index("--set") + 1].split(",")
            anchor = ids(names)
            exact = s.cdim_at_set(g, anchor, dm)
        gate.witness(where, g, dm, rep["value"], w, connected=cmd != "dim", anchor=anchor)
        gate.expect((rep["value"], w) == tuple(exact),
                    f"{where}: reports {rep['value']} {w}, the library {tuple(exact)}")
        levels = gatelib.levels(lib.md, g, dm, rep["value"], anchor)
        if cmd != "dim":
            witnesses.append((g, w))
    elif cmd == "profile":
        prof = s.vertex_profile(g, dm)
        pv = tuple(rep["per_vertex"][labels[v]] for v in range(g.n))
        gate.expect(pv == prof.per_vertex and rep["value"] == prof.rrad,
                    f"{where}: per-vertex values differ from the library")
        gate.expect(prof.rrad == s.cdim_exact(g, dm).value, f"{where}: rrad != cdim")
        levels = gatelib.levels(lib.md, g, dm, prof.rdiam)
    elif cmd == "enumerate-min":
        sets = [ids(x) for x in rep["sets"]]
        dim = s.dim_exact(g, dm)
        gate.expect(sets == [tuple(x) for x in s.enumerate_min_resolving_sets(g, dm)],
                    f"{where}: sets differ from the library")
        gate.expect(bool(sets) and sets[0] == dim.witness, f"{where}: first set != dim witness")
        for x in sets:
            if not gate.witness(where, g, dm, dim.value, x):
                break
        if g.m == g.n - 1:
            gate.expect(sets == [tuple(x) for x in fo.tree_min_resolving_sets(g)],
                        f"{where}: sets differ from tree_min_resolving_sets")
    elif cmd == "planar-desk":
        gate.expect(rep["value"] == planar_oracle(g), f"{where}: planarity differs from networkx")
        if rep["value"] is False:
            found = [(t, mi.has_minor(g, t)) for t in ("K5", "K33")]
            gate.expect(any(ok for _, (ok, _) in found), f"{where}: nonplanar but no minor found")
            for t, (ok, model) in found:
                gate.minor_witness(where, g, t, ok, model)
                if ok:
                    minors.append((g, t, model))
    elif cmd == "classify":
        cdim = s.cdim_exact(g, dm).value
        cls = rep["classification"]
        gate.expect(cls["cdim=1"] == (cdim == 1) and cls["cdim=n-1"] == (cdim == g.n - 1),
                    f"{where}: extremal classification disagrees with cdim={cdim}")
    elif cmd == "formula":
        theorem = argv[argv.index("--theorem") + 1]
        if theorem == "dim":
            exact = s.dim_exact(g, dm).value
        elif theorem == "cdim":
            exact = s.cdim_exact(g, dm).value
        else:
            exact = s.cdim_at_set(g, ids([argv[argv.index("--vertex") + 1]]), dm).value
        gate.expect(rep["value"] == exact, f"{where}: closed form {rep['value']} != exact {exact}")
    elif cmd == "verify":
        checks = rep["checks"] or []
        gate.expect(rep["value"] == 1 and bool(checks) and all(c["match"] for c in checks)
                    and not any("skipped" in c for c in checks),
                    f"{where}: verify found a mismatch or checked nothing")
    return levels, witnesses, minors


def run_cli_workload(job: dict, lib: Lib, run: Run, gate: gatelib.Gate) -> dict:
    plan = job["plan"]
    work = os.path.join(job["work_dir"], f"cli-{plan['seed']}")
    os.makedirs(work, exist_ok=True)
    os.chdir(work)
    files = {g["key"]: g["spec"] for g in plan["graphs"]}
    # Inputs the commands read: the generated graphs, in-process, and one
    # DIMACS copy (generate writes edge lists only).
    graphs = {}
    for key, spec in files.items():
        g, labels = lib.families.generate(spec)
        graphs[key] = (g, labels, None)
    for name, source in plan["dimacs"].items():
        write_dimacs(graphs[source][0], name)
    env = dict(os.environ, PYTHONPATH=job["src"])
    runs = plan["runs"]
    budget = plan["budget_s"]

    # Outputs are compared across passes with the wall-clock field zeroed.
    def subprocess_call(argv):
        def call():
            rc, out, err = cli_subprocess(argv, env, budget)
            return rc, gatelib.normalize_stdout(out), err
        return call

    def in_process_call(argv):
        def call():
            rc, out, err = cli_in_process(lib.cli, argv)
            return rc, gatelib.normalize_stdout(out), err
        return call

    names = [" ".join(r["argv"]) for r in runs]
    answers = [()] * len(names)
    if job["trace"]:
        calls = [in_process_call(r["argv"]) for r in runs]
    else:
        calls = [subprocess_call(r["argv"]) for r in runs]
        run.clock = hostclock.HostClock.for_starts()
    run.loop(names, calls, answers, gate)

    pins, witnesses, minors, levels = {}, [], [], 0
    for i, r in enumerate(runs):
        out = run.first[i]
        if out is None:
            continue
        rc, stdout, stderr = out
        where = names[i]
        if not gate.expect(rc == 0, f"{where}: exit code {rc}: {stderr.strip()[-200:]}"):
            continue
        if not job["trace"]:
            rc2, stdout2, _ = cli_in_process(lib.cli, r["argv"])
            gate.expect(rc2 == rc and gatelib.normalize_stdout(stdout2) == stdout,
                        f"{where}: subprocess stdout differs from in-process cli.run")
        pins[f"{i}: {where}"] = gatelib.digest(stdout)
        lv, ws, ms = check_cli_output(gate, lib, r["argv"], stdout, files)
        levels += lv
        witnesses += ws
        minors += ms
    trees = [g for g, _, _ in graphs.values()
             if g.m == g.n - 1 and max(map(g.degree, range(g.n))) >= 3]
    ops = [r["op"] for r in runs]
    return {"pins": pins, "witnesses": witnesses, "minors": minors, "trees": trees,
            "levels": levels, "ops": ops, "graphs": graphs, "names": names}


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it (the maximum below 11 samples)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end(run: Run, info: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and figures that are printed but have no bound.

    A query's latency is its median scaled time across the untraced passes.
    The latency figures and the per-op sums depend on a few queries each (the
    ones at a rank, on a seeded graph or of one op), so they spread far more
    between runs than the pass time and are reported, not bounded.
    """
    ops = info["ops"]
    passes = len(run.pass_walls[False])
    latencies = [statistics.median(times) / 1e6 for times in run.times]
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "wall_s": statistics.median(run.pass_walls[False]) / 1e9,
        "peak_rss_mb": rss / 1024,
    }
    figures = {
        "raw_wall_s": statistics.median(run.raw_walls) / 1e9,
        "latency_geomean_ms": statistics.geometric_mean(latencies),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail(latencies),
        "latency_samples": len(latencies),
    }
    for op in OP_SUMS:
        idx = [i for i, o in enumerate(ops) if o == op]
        sums = [sum(run.times[i][p] for i in idx) for p in range(passes)]
        figures[f"{op}_s"] = statistics.median(sums) / 1e9
    return metrics, figures


def import_probe(module: str, env: dict) -> float:
    """Median ms to import ``module`` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module)], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) * 1e3)
    return statistics.median(times)


def repeat_us(fn, items: list, min_seconds: float = 0.05) -> float:
    """Mean microseconds per call of ``fn`` over ``items``, repeated to ``min_seconds``."""
    if not items:
        raise ValueError("no inputs to time")
    calls, start = 0, time.perf_counter()
    while True:
        for item in items:
            fn(*item)
        calls += len(items)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls * 1e6


def par2_probe(lib: Lib, specs: list[str], gate: gatelib.Gate) -> float:
    """Median ms, over three rounds, of cdim and profile at ``workers=2`` on ``specs``.

    The outputs must equal the ``workers=1`` ones.
    """
    graphs = [lib.families.generate(spec)[0] for spec in specs]
    rounds = []
    for _ in range(3):
        start = time.perf_counter()
        outs = [(lib.solver.cdim_exact(g, workers=2), lib.solver.vertex_profile(g, workers=2))
                for g in graphs]
        rounds.append((time.perf_counter() - start) * 1e3)
    for spec, g, out in zip(specs, graphs, outs):
        gate.expect(out == (lib.solver.cdim_exact(g), lib.solver.vertex_profile(g)),
                    f"{spec}: workers=2 differs from workers=1")
    return statistics.median(rounds)


def layer_probes(job: dict, lib: Lib, run: Run, info: dict,
                 gate: gatelib.Gate) -> tuple[dict, tuple[int, int]]:
    """Timings of layers that no query times on its own.

    Returns the probe values and the span range of the command-line probe.
    """
    tr = run.tr
    rng = random.Random(f"check:{job['plan']['seed']}")
    sample = []
    for g, _, dm in info["graphs"].values():
        dm = dm or lib.graph.all_pairs_distances(g)
        for _ in range(4):
            sample.append((g, dm, rng.sample(range(g.n), rng.randint(1, max(1, g.n // 3)))))
    masks = [(g, gatelib.mask_of(w)) for g, w in info["witnesses"]]
    out = {
        "solver.check_us": repeat_us(lib.solver.check_resolving, sample),
        "graph.connected_check_us": repeat_us(lambda g, m: g.is_connected_subset(m), masks),
        "minor.verify_ms": repeat_us(lib.minor.verify_minor_witness, info["minors"]) / 1e3,
        "formulas.tree_sets_ms": repeat_us(lib.formulas.tree_min_resolving_sets,
                                           [(g,) for g in info["trees"]]) / 1e3,
        "solver.par2_ms": par2_probe(lib, job["plan"]["par2"], gate),
    }
    env = dict(os.environ, PYTHONPATH=job["src"])
    out["cli.import_ms"] = import_probe("metricdim.cli", env)
    out["cli.networkx_import_ms"] = import_probe("networkx", env)
    lo = tr.mark()
    if job["plan"]["workload"] != "cli":
        # The command line on this workload's smaller graphs: parse, then `dim --json`.
        import metricdim.cli as cli

        plan = job["plan"]
        work = os.path.join(job["work_dir"], f"{plan['workload']}-{plan['seed']}")
        os.makedirs(work, exist_ok=True)
        small = [(g, labels) for g, labels, _ in info["graphs"].values() if g.n <= 16]
        paths = []
        for i, (g, labels) in enumerate(small[::max(1, len(small) // 12)][:12]):
            path = os.path.join(work, f"g{i}.el")
            with open(path, "w", encoding="utf-8") as fh:
                cli.write_edgelist(g, labels, fh)
            paths.append(path)
        tr.install()
        for path in paths:
            cli.parse_graph_file(path)
            cli_in_process(cli, ["dim", path, "--json"])
        tr.uninstall()
    return out, (lo, tr.mark())


def per_layer(run: Run, info: dict, setup_phase: tuple, probes: dict, cli_phase: tuple) -> dict:
    """Layer metrics: set-up spans plus the median traced pass, and the probes."""
    spans = run.tr.spans
    setup = tracing.summarize(spans, *setup_phase)
    passes = [tracing.summarize(spans, lo, hi) for lo, hi in run.traced_phases]
    cli_probe = tracing.summarize(spans, *cli_phase)

    def total(name: str, field: str = "total_ns") -> float:
        per_pass = [p.get(name, {}).get(field, 0) for p in passes]
        return setup.get(name, {}).get(field, 0) + statistics.median(per_pass)

    def median_ms(name: str) -> float:
        durations = [d for p in [*passes, cli_probe] for d in p.get(name, {}).get("durations", [])]
        return statistics.median(durations) / 1e6

    traced_passes = len(run.traced_phases)
    counts = run.tr.counts
    m = {
        "families.generate_ms": total("families.generate", "self_ns") / 1e6,
        "graph.build_ms": total("graph.build") / 1e6,
        "graph.apsp_ms": total("graph.apsp") / 1e6,
        "graph.apsp_calls": total("graph.apsp", "count"),
        "graph.twin_ms": total("graph.twin") / 1e6,
        "graph.connected_check_us": probes["graph.connected_check_us"],
    }
    for op in ("dim", "cdim", "cdim_at", "profile", "enum"):
        m[f"solver.{op}_self_ms"] = total(f"solver.{op}", "self_ns") / 1e6
    m["solver.par2_ms"] = probes["solver.par2_ms"]
    m["solver.check_us"] = probes["solver.check_us"]
    m["solver.levels"] = info["levels"]
    m["minor.has_minor_ms"] = total("minor.has_minor") / 1e6
    m["minor.planar_ms"] = total("minor.planar") / 1e6
    m["minor.found"] = counts["minor.found"] / traced_passes
    m["minor.verify_ms"] = probes["minor.verify_ms"]
    m["formulas.eval_ms"] = total("formulas.eval", "self_ns") / 1e6
    m["formulas.tree_sets_ms"] = probes["formulas.tree_sets_ms"]
    m["formulas.recognized_ratio"] = (counts["formulas.recognized"]
                                      / counts["formulas.recognize_calls"])
    m["cli.import_ms"] = probes["cli.import_ms"]
    m["cli.networkx_import_ms"] = probes["cli.networkx_import_ms"]
    m["cli.run_ms"] = median_ms("cli.run")
    m["cli.parse_ms"] = median_ms("cli.parse")
    m["trace.overhead_ratio"] = (statistics.median(run.pass_walls[True])
                                 / statistics.median(run.pass_walls[False]))
    return m


# ---------------------------------------------------------------------------


def main() -> int:
    job = json.load(sys.stdin)
    plan = job["plan"]
    tr = tracing.Tracer() if job["trace"] else None
    setup_lo = tr.mark() if tr else 0
    lib, graphs, setup_s, raw_setup_s, before = setup(job, tr)
    setup_phase = (setup_lo, tr.mark() if tr else 0)
    result = {"preloaded": before, "setup_s": setup_s, "raw_setup_s": raw_setup_s}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0

    gate = gatelib.Gate(lib.md, planar_oracle)
    gate.expect(not before, f"imported before set-up started: {before}")
    run = Run(job, tr)
    if plan["workload"] == "cli":
        info = run_cli_workload(job, lib, run, gate)
    else:
        info = run_library_workload(job, lib, graphs, run, gate)
    if job.get("pinned") is not None:
        gate.pins(info["pins"], job["pinned"])

    figures = {}
    if job["trace"]:
        probes, cli_phase = layer_probes(job, lib, run, info, gate)
        metrics = per_layer(run, info, setup_phase, probes, cli_phase)
        tr.dump(os.path.join(job["work_dir"], f"trace-{plan['workload']}-{plan['seed']}.json"))
    else:
        metrics, figures = end_to_end(run, info)
    result.update({
        "correct": not run.errors and not gate.failures,
        "attempted": run.attempted + gate.checks,
        "failed": len(run.errors) + len(gate.failures),
        "failures": (run.errors + gate.failures)[:20],
        "metrics": metrics,
        "pins": info["pins"],
        "query_ms": {name: statistics.median(t) / 1e6 for name, t in zip(info["names"], run.times)},
        "details": {
            "passes": len(run.pass_walls[False]),
            "traced_passes": len(run.pass_walls[True]),
            "queries_per_pass": len(info["names"]),
            "gate_checks": gate.checks,
            "host_kernel_ms": statistics.median(run.clock.history) / 1e6,
            **figures,
        },
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
