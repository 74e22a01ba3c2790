"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They run every workload at smoke size, plant wrong outputs for the
correctness gate, and check that the worker starts with neither metricdim
nor networkx loaded.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate as gatelib  # noqa: E402
import hostclock  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def metric_names(trace: int) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == metric_names(trace)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_plans_depend_only_on_the_seed():
    assert inputs.make_plan("search", 7) == inputs.make_plan("search", 7)
    assert inputs.make_plan("cli", 7) != inputs.make_plan("cli", 8)


@pytest.fixture(scope="module")
def petersen():
    import metricdim as md

    g, _ = md.generate("petersen")
    return md, g, md.all_pairs_distances(g)


def test_gate_rejects_a_non_resolving_witness(petersen):
    md, g, dm = petersen
    bad = next(s for s in itertools.combinations(range(g.n), 3)
               if not md.check_resolving(g, dm, s).resolving)
    gate = gatelib.Gate(md)
    gate.graph("petersen", g, dm, {"dim": md.SolveResult(3, bad)})
    assert any("does not resolve" in f for f in gate.failures)


def test_gate_rejects_a_wrong_value(petersen):
    md, g, dm = petersen
    dim = md.dim_exact(g, dm)
    bigger = md.SolveResult(dim.value + 1, tuple(sorted(dim.witness + (9,))))
    gate = gatelib.Gate(md)
    gate.graph("petersen", g, dm, {"dim": bigger, "formula_dim": md.dim_formula(g),
                                   "enum": md.enumerate_min_resolving_sets(g, dm)})
    assert any("closed form" in f for f in gate.failures)
    assert any("witness size" in f for f in gate.failures)


def test_gate_rejects_a_disconnected_cdim_witness(petersen):
    md, g, dm = petersen
    dim = md.dim_exact(g, dm)
    assert not g.is_connected_subset(gatelib.mask_of(dim.witness))
    gate = gatelib.Gate(md)
    gate.graph("petersen", g, dm, {"cdim": dim})
    assert any("not connected" in f for f in gate.failures)


def test_gate_accepts_true_outputs_and_checks_pins(petersen):
    md, g, dm = petersen
    r = {"dim": md.dim_exact(g, dm), "cdim": md.cdim_exact(g, dm),
         "cdim_at": {(0,): md.cdim_at_set(g, (0,), dm)}, "profile": md.vertex_profile(g, dm),
         "enum": md.enumerate_min_resolving_sets(g, dm), "formula_dim": md.dim_formula(g),
         "has_minor": {"K5": md.has_minor(g, "K5"), "K33": md.has_minor(g, "K33")},
         "planar": md.is_planar_desk(g)}
    gate = gatelib.Gate(md, worker.planar_oracle)
    gate.graph("petersen", g, dm, r)
    assert gate.failures == [] and gate.checks > 20
    pins = {"petersen": gatelib.digest(gatelib.canonical(r))}
    gate.pins(pins, pins)
    gate.pins(pins, {"petersen": "0" * 16})
    assert gate.failures == ["petersen: output differs from the pinned one"]


def run_with_planted_solver(tmp_path, old: str, new: str) -> subprocess.CompletedProcess:
    """A smoke search run on a copy of the package whose solver has ``old`` replaced by ``new``."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    solver = tmp_path / "src" / "metricdim" / "solver.py"
    text = solver.read_text()
    assert text.count(old) == 1
    solver.write_text(text.replace(old, new))
    return bench(str(tmp_path), "--workload", "search", "--seed", "2", "--seconds", "0.1", "--smoke")


def test_planted_solver_defect_fails_the_run(tmp_path):
    out = run_with_planted_solver(tmp_path, "return SolveResult(k, best)",
                                  "return SolveResult(k + 1, best)")
    assert out.returncode == 1
    result = last_json(out.stdout)
    assert result["correct"] is False and result["failed"] > 0


def test_a_raising_op_fails_the_run(tmp_path):
    doc = '"""All minimum resolving sets, in lexicographic order."""'
    out = run_with_planted_solver(tmp_path, doc, doc + "\n    raise RuntimeError('planted')")
    assert out.returncode == 1
    result = last_json(out.stdout)
    assert result["correct"] is False and result["failed"] > 0
    assert "RuntimeError: planted" in out.stdout


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench(str(tmp_path), "--workload", "search", "--seed", "1", "--seconds", "1")
    assert out.returncode == 2
    assert '"metrics"' not in out.stdout


def test_worker_starts_with_neither_package_loaded():
    job = {"plan": inputs.make_plan("search", 2, smoke=True), "src": os.path.join(ROOT, "src"),
           "work_dir": os.path.join(ROOT, ".bench_work"), "seconds": 0, "trace": 0,
           "setup_only": True}
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=json.dumps(job),
                         capture_output=True, text=True, timeout=120, check=True)
    result = last_json(out.stdout)
    assert result["preloaded"] == [] and result["setup_s"] > 0
    probe = subprocess.run([sys.executable, "-c",
                            "import sys, networkx; sys.path.insert(0, sys.argv[1]); "
                            "import worker; print(worker.preloaded())", HERE],
                           capture_output=True, text=True, timeout=120, check=True)
    assert probe.stdout.strip() == "['networkx']"


def test_self_time_subtracts_other_layers_only():
    spans = [["solver.cdim", 0, 100, -1, 0], ["solver.cdim_at", 10, 90, 0, 0],
             ["graph.twin", 20, 30, 1, 0], ["solver.dim", 100, 150, -1, 1]]
    s = tracer.summarize(spans, 0, len(spans))
    assert s["solver.cdim"]["self_ns"] == 90
    assert s["solver.cdim_at"]["self_ns"] == 0 and s["solver.cdim_at"]["total_ns"] == 80
    assert s["graph.twin"]["self_ns"] == 10
    assert s["solver.dim"]["self_ns"] == 50 and s["solver.dim"]["count"] == 1


def test_tail_leaves_ten_samples_beyond():
    assert worker.tail(list(range(100))) == 89
    assert worker.tail([3.0, 1.0, 2.0]) == 3.0


def test_budget_turns_an_overrun_into_a_failed_op():
    budget = worker.Budget(0.05)
    out, err, _ = budget.call(lambda: sum(1 for _ in iter(int, 1)))
    assert out is None and "budget" in err
    assert budget.call(lambda: 7)[:2] == (7, None)


def test_host_clock_samples_by_work_time_and_scales_by_the_kernel():
    clock = hostclock.HostClock(every_ns=1000, burst=1)
    clock.tick(999)
    assert clock.kernels == 0
    clock.tick(2001)
    assert clock.kernels == 3
    spent = clock.kernel_ns
    scale = clock.scale()
    assert clock.kernels == 0 and clock.history[0] > spent / 4
    assert scale == hostclock.REFERENCE_KERNEL_NS / clock.history[0]
