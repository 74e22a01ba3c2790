"""metricdim benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload {search,catalog,cli} --seed N --seconds S --trace {0,1}

Run from the repository root.  It builds the run's plan from the seed
(inputs.py), starts fresh worker interpreters one at a time (worker.py) and
waits on each: first a few that only set up, for a steady ``setup_s``, then
the one that measures.  Times are scaled to a reference host speed
(hostclock.py); the raw ones are in the ``details`` line and the record.
With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
with ``--trace 1`` every per-layer metric.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every op ran within its
budget and every output passed the correctness gate, 1 when one did not, and
2 when the run could not be made (for example, when ``src/metricdim`` is
missing).

Everything a run writes goes to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(HERE, "expected")
SETUP_PROBES = 8
# Time a run may take beyond its --seconds: set-ups, the gate and the probes.
RUN_SLACK_S = 140.0


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def atlas() -> list[tuple[int, list[list[int]]]]:
    """Every connected graph on 2..7 vertices, as (n, edges)."""
    import networkx as nx

    return [(g.number_of_nodes(), [list(e) for e in g.edges()])
            for g in nx.graph_atlas_g()
            if g.number_of_nodes() >= 2 and nx.is_connected(g)]


def provenance(seed: int) -> dict:
    import networkx

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "metricdim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    gil = sys._is_gil_enabled() if hasattr(sys, "_is_gil_enabled") else True
    return {
        "cores": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gil_enabled": gil,
        "networkx": networkx.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_worker(job: dict, deadline: float) -> dict:
    """Start one fresh worker, wait for it, and return its JSON result.

    The worker runs in its own session, so a worker that overruns the
    deadline is killed together with any command it started.
    """
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("the worker ran past the run's time limit") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def pins_path(workload: str) -> str:
    return os.path.join(EXPECTED, f"{workload}-seed{inputs.PINNED_SEED}.json")


def bench(args) -> int:
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "metricdim", "__init__.py")):
        raise BenchError(f"no package source at {os.path.relpath(SRC, ROOT)}/metricdim")
    specs = metric_specs()[args.trace]
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    # Compile the package's bytecode and warm the file cache once, as an
    # installed package would be; no set-up below pays for compilation.
    subprocess.run([sys.executable, "-c", "import metricdim.cli"], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=120)
    plan = inputs.make_plan(args.workload, args.seed,
                            atlas() if args.workload == "catalog" else None, args.smoke)
    job = {"plan": plan, "src": SRC, "work_dir": WORK, "seconds": args.seconds,
           "trace": args.trace, "setup_only": True}
    deadline = started + args.seconds + RUN_SLACK_S
    setup_runs = [run_worker(job, deadline) for _ in range(SETUP_PROBES)]
    pinned = args.seed == inputs.PINNED_SEED and not args.smoke and not args.pin
    if pinned:
        path = pins_path(args.workload)
        with open(path, encoding="utf-8") as fh:
            job["pinned"] = json.load(fh)
    job["setup_only"] = False
    result = run_worker(job, deadline)
    if args.pin and result["correct"]:
        os.makedirs(EXPECTED, exist_ok=True)
        with open(pins_path(args.workload), "w", encoding="utf-8") as fh:
            json.dump(result["pins"], fh, indent=1, sort_keys=True)
            fh.write("\n")
    setup_runs.append(result)
    setups = [r["setup_s"] for r in setup_runs]
    values = dict(result["metrics"])
    if args.trace == 0:
        values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    prov = provenance(args.seed)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "provenance": prov, "setup_runs_s": setups,
              "raw_setup_runs_s": [r["raw_setup_s"] for r in setup_runs],
              "pins_checked": pinned, **result, "metrics": metrics}
    out = os.path.join(WORK, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"metricdim benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    print("details " + json.dumps(result["details"]))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6f} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  fail_share {share:.6f} ({result['failed']} failed of {result['attempted']} attempted)")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--pin", action="store_true",
                        help=f"record this run's outputs, if they pass the gate, "
                             f"as the seed-{inputs.PINNED_SEED} pins")
    args = parser.parse_args(argv)
    try:
        return bench(args)
    except (BenchError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
