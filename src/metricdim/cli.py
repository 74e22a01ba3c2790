"""Command-line front end: ingestion, generation, solving, reporting.

Input formats
  edgelist: optional ``n m`` header, then one ``u v`` pair per line; tokens
            are arbitrary label strings mapped to dense indices in first-seen
            order; lines starting with ``#`` are comments.  A first data line
            of two integers is taken as the header exactly when n is at least two and the number of
            remaining data lines equals its second integer.
  dimacs:   ``p edge n m`` header and 1-based ``e u v`` lines; ``c`` comments.

JSON reports carry a fixed key set; ``elapsed_ms`` is wall-clock and excluded
from the determinism contract.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from typing import Optional, Sequence, TextIO

# Only these modules load with the command line; the commands that need
# families, formulas or minor import them where they run.
from .errors import HeaderMismatch, InvalidOption, MetricDimError, ParseError
from .graph import MAX_ORDER, Graph, all_pairs_distances, build_graph, check_cap
from .solver import (
    DIM_CAP,
    ENUM_CAP,
    cdim_at_set,
    cdim_exact,
    dim_exact,
    enumerate_min_resolving_sets,
    vertex_profile,
)


def parse_graph_file(
    source: str | TextIO, fmt: str = "edgelist"
) -> tuple[Graph, tuple[str, ...]]:
    """Parse an edge-list or DIMACS stream into a graph plus its label map.

    A path that cannot be read, or text that is not UTF-8, raises ParseError.
    """
    if not isinstance(source, str):
        return _parse(source, fmt)
    try:
        if source == "-":
            # Decode the raw bytes: sys.stdin may use surrogateescape (C locale).
            return _parse(io.StringIO(sys.stdin.buffer.read().decode("utf-8")), fmt)
        with open(source, "r", encoding="utf-8") as fh:
            return _parse(fh, fmt)
    except OSError as exc:
        raise ParseError(0, f"cannot read {source}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        name = "standard input" if source == "-" else source
        raise ParseError(0, f"{name} is not valid UTF-8 text") from None


def _parse(fh: TextIO, fmt: str) -> tuple[Graph, tuple[str, ...]]:
    if fmt == "edgelist":
        return _parse_edgelist(fh)
    if fmt == "dimacs":
        return _parse_dimacs(fh)
    raise MetricDimError(f"unknown format {fmt!r}")


def _parse_edgelist(fh: TextIO) -> tuple[Graph, tuple[str, ...]]:
    data: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data.append((line_no, line.split()))
    header: Optional[tuple[int, int]] = None
    if data:
        first = data[0][1]
        # isdecimal accepts exactly the digits int() does; isdigit also takes "²".
        if len(first) == 2 and all(tok.isdecimal() for tok in first):
            n_decl, m_decl = int(first[0]), int(first[1])
            if len(data) - 1 == m_decl and n_decl >= 2:
                header = (n_decl, m_decl)
                data = data[1:]
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def vid(tok: str) -> int:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
        return index[tok]

    for line_no, toks in data:
        if len(toks) != 2:
            raise ParseError(line_no, f"expected 'u v', got {' '.join(toks)!r}")
        if toks[0] == toks[1]:
            raise ParseError(line_no, f"self-loop at {toks[0]!r}")
        edges.append((vid(toks[0]), vid(toks[1])))
    if header is not None and len(labels) != header[0]:
        raise HeaderMismatch(
            f"header declares {header[0]} vertices, file uses {len(labels)} labels"
        )
    g = build_graph(len(labels), edges)
    return g, tuple(labels)


def _parse_dimacs(fh: TextIO) -> tuple[Graph, tuple[str, ...]]:
    n = m = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if len(toks) != 4:
                raise ParseError(line_no, f"bad problem line {line!r}")
            try:
                n, m = int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError(line_no, f"bad problem line {line!r}") from None
        elif toks[0] == "e":
            if n is None:
                raise ParseError(line_no, "edge before problem line")
            if len(toks) != 3:
                raise ParseError(line_no, f"bad edge line {line!r}")
            try:
                u, v = int(toks[1]), int(toks[2])
            except ValueError:
                raise ParseError(line_no, f"bad edge line {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"edge ({u},{v}) outside 1..{n}")
            if u == v:
                raise ParseError(line_no, f"self-loop at {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    if n is None:
        raise ParseError(0, "missing problem line")
    if m is not None and len(edges) != m:
        raise HeaderMismatch(f"header declares {m} edges, file has {len(edges)}")
    g = build_graph(n, edges)
    return g, tuple(str(i + 1) for i in range(n))


def write_edgelist(g: Graph, labels: Sequence[str], fh: TextIO) -> None:
    """Write a header plus edges ordered so parsing reproduces this indexing."""
    fh.write(f"{g.n} {g.m}\n")
    for u, v in sorted(g.edges(), key=lambda e: (max(e), min(e))):
        fh.write(f"{labels[u]} {labels[v]}\n")


# ---------------------------------------------------------------------------
# Reports

_REPORT_KEYS = (
    "input",
    "query",
    "value",
    "witness",
    "case",
    "per_vertex",
    "profile",
    "sets",
    "classification",
    "checks",
    "warnings",
    "elapsed_ms",
)


def _blank_report() -> dict:
    return {key: None for key in _REPORT_KEYS} | {"warnings": []}


def _emit(report: dict, as_json: bool, out: TextIO) -> None:
    if as_json:
        out.write(json.dumps(report, separators=(",", ":"), sort_keys=False) + "\n")
        return
    inp = report["input"]
    out.write(f"input: {inp['source']}  n={inp['n']} m={inp['m']}\n")
    out.write(f"query: {report['query']}\n")
    if report["value"] is not None:
        out.write(f"value: {report['value']}\n")
    if report["case"] is not None:
        out.write(f"case: {report['case']}\n")
    if report["witness"] is not None:
        out.write("witness: " + " ".join(report["witness"]) + "\n")
    if report["per_vertex"] is not None:
        out.write("per-vertex:\n")
        for label, val in report["per_vertex"].items():
            out.write(f"  {label}: {val}\n")
    if report["profile"] is not None:
        pr = report["profile"]
        out.write(f"rrad={pr['rrad']} rdiam={pr['rdiam']}\n")
        out.write("resolving center: " + " ".join(pr["rc"]) + "\n")
        out.write("resolving periphery: " + " ".join(pr["rp"]) + "\n")
    if report["sets"] is not None:
        for s in report["sets"]:
            out.write("  {" + " ".join(s) + "}\n")
    if report["classification"] is not None:
        for key, val in report["classification"].items():
            out.write(f"{key}: {val}\n")
    if report["checks"] is not None:
        for chk in report["checks"]:
            if chk["match"] is None:
                out.write(f"{chk['query']}: skipped: {chk['skipped']}\n")
                continue
            status = "ok" if chk["match"] else "MISMATCH"
            out.write(
                f"{chk['query']}: formula={chk['formula']} exact={chk['exact']} {status}\n"
            )
    for warning in report["warnings"]:
        out.write(f"warning: {warning}\n")
    if report["elapsed_ms"] is not None:
        out.write(f"elapsed: {report['elapsed_ms']} ms\n")


# ---------------------------------------------------------------------------
# Command driver


# Commands whose solver refuses a family past its cap before the family is built.
_FAMILY_CAPS = {
    "dim": (DIM_CAP, "solver"),
    "cdim": (DIM_CAP, "solver"),
    "cdim-at": (DIM_CAP, "solver"),
    "profile": (DIM_CAP, "solver"),
    "enumerate-min": (ENUM_CAP, "enumeration"),
}


def _load_input(args) -> tuple[Graph, tuple[str, ...], str]:
    if getattr(args, "family", None):
        from . import families

        spec = families.parse_spec(args.family, default_seed=args.seed)
        n = families.order(spec)
        # Past MAX_ORDER, generate reports the library cap instead.
        if args.command in _FAMILY_CAPS and n is not None and n <= MAX_ORDER:
            check_cap(n, args.cap, *_FAMILY_CAPS[args.command])
        g, labels = families.generate(spec)
        return g, labels, spec.text()
    if not getattr(args, "input", None):
        raise MetricDimError("need a graph file or --family")
    g, labels = parse_graph_file(args.input, args.format)
    return g, labels, args.input


def _labelset(labels: Sequence[str], vertices: Sequence[int]) -> list[str]:
    return [labels[v] for v in sorted(vertices)]


def _to_indices(labels: Sequence[str], names: Sequence[str]) -> list[int]:
    index = {lab: i for i, lab in enumerate(labels)}
    out = []
    for name in names:
        if name not in index:
            raise MetricDimError(f"unknown vertex label {name!r}")
        out.append(index[name])
    return out


def run(argv: Sequence[str], out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, out)
    except MetricDimError as exc:
        err.write(f"error: {exc}\n")
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricdim",
        description="Exact metric dimension and connected metric dimension computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("input", nargs="?", help="graph file (or '-' for stdin)")
            p.add_argument("--family", help="generate the input from a family spec")
        p.add_argument("--format", choices=("edgelist", "dimacs"), default="edgelist")
        p.add_argument("--json", action="store_true")
        p.add_argument("--cap", type=int, default=None, help="override solver caps")
        p.add_argument("--seed", type=int, default=None, help="seed for seedless family specs")

    for name in ("dim", "cdim", "profile", "enumerate-min", "classify", "planar-desk"):
        common(sub.add_parser(name))
    p = sub.add_parser("cdim-at")
    common(p)
    p.add_argument("--vertex", help="anchor vertex label")
    p.add_argument("--set", dest="anchor_set", help="comma-separated anchor labels")
    p = sub.add_parser("formula")
    common(p)
    p.add_argument("--theorem", choices=("dim", "cdim", "cdim-at"), required=True)
    p.add_argument("--vertex", help="vertex label for cdim-at")
    p = sub.add_parser("generate")
    common(p, with_input=False)
    p.add_argument("--family", required=True)
    p.add_argument("--out", help="write the edge list here instead of stdout")
    p = sub.add_parser("verify")
    common(p, with_input=False)
    p.add_argument("--family", required=True)
    return parser


def _dispatch(args, out: TextIO) -> int:
    started = time.perf_counter()
    report = _blank_report()
    if args.cap is not None and args.cap < 1:
        raise InvalidOption(f"--cap must be at least 1, got {args.cap}")

    if args.command == "generate":
        from . import families

        spec = families.parse_spec(args.family, default_seed=args.seed)
        g, labels = families.generate(spec)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    write_edgelist(g, labels, fh)
            except OSError as exc:
                raise MetricDimError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        if args.json:
            report["input"] = {"source": spec.text(), "format": "family", "n": g.n, "m": g.m}
            report["query"] = "generate"
            report["case"] = args.out or "stdout"
            report["elapsed_ms"] = _ms(started)
            _emit(report, True, out)
        elif not args.out:
            write_edgelist(g, labels, out)
        return 0

    g, labels, source = _load_input(args)
    fmt = "family" if getattr(args, "family", None) else args.format
    report["input"] = {"source": source, "format": fmt, "n": g.n, "m": g.m}
    if g.had_duplicate_edges:
        report["warnings"].append("duplicate edges collapsed")
    cap = args.cap

    if args.command == "dim":
        res = dim_exact(g, cap=cap)
        report["query"] = "dim"
        report["value"] = res.value
        report["witness"] = _labelset(labels, res.witness)
    elif args.command == "cdim":
        res = cdim_exact(g, cap=cap)
        report["query"] = "cdim"
        report["value"] = res.value
        report["witness"] = _labelset(labels, res.witness)
    elif args.command == "cdim-at":
        if args.vertex:
            anchor = _to_indices(labels, [args.vertex])
        elif args.anchor_set:
            anchor = _to_indices(labels, args.anchor_set.split(","))
        else:
            raise MetricDimError("cdim-at needs --vertex or --set")
        res = cdim_at_set(g, anchor, cap=cap)
        report["query"] = f"cdim-at:{','.join(sorted(labels[v] for v in anchor))}"
        report["value"] = res.value
        report["witness"] = _labelset(labels, res.witness)
    elif args.command == "profile":
        prof = vertex_profile(g, cap=cap)
        report["query"] = "profile"
        report["value"] = prof.rrad
        report["per_vertex"] = {labels[v]: prof.per_vertex[v] for v in range(g.n)}
        report["profile"] = {
            "rrad": prof.rrad,
            "rdiam": prof.rdiam,
            "rc": _labelset(labels, prof.rc),
            "rp": _labelset(labels, prof.rp),
        }
    elif args.command == "enumerate-min":
        sets = enumerate_min_resolving_sets(g, cap=cap)
        report["query"] = "enumerate-min"
        report["value"] = len(sets[0]) if sets else 0
        report["sets"] = [[labels[v] for v in s] for s in sets]
    elif args.command == "classify":
        from .formulas import classify_extremes, fr_membership, unicyclic_cdim_eq_dim

        report["query"] = "classify"
        cls = classify_extremes(g)
        info = {
            "cdim=1": cls.cdim_is_one,
            "cdim=n-1": cls.cdim_is_n_minus_one,
            "graph_case": cls.graph_case,
        }
        fr = fr_membership(g)
        info["fr_member"] = fr.member
        info["fr_r"] = fr.r
        if g.m == g.n and g.is_connected():
            uni = unicyclic_cdim_eq_dim(g)
            info["unicyclic_cdim_eq_dim"] = uni.equal
            info["unicyclic_case"] = uni.case
        report["classification"] = info
    elif args.command == "planar-desk":
        from .minor import is_planar_desk

        report["query"] = "planar-desk"
        report["value"] = is_planar_desk(g, cap=cap)
    elif args.command == "formula":
        from . import families
        from .formulas import cdim_at_vertex_formula, cdim_formula, dim_formula

        spec_or_graph = (
            families.parse_spec(args.family, default_seed=args.seed)
            if getattr(args, "family", None)
            else g
        )
        if args.theorem == "dim":
            res = dim_formula(spec_or_graph)
        elif args.theorem == "cdim":
            res = cdim_formula(spec_or_graph)
        else:
            if not args.vertex:
                raise MetricDimError("formula --theorem cdim-at needs --vertex")
            v = _to_indices(labels, [args.vertex])[0]
            res = cdim_at_vertex_formula(spec_or_graph, v)
        report["query"] = f"formula:{args.theorem}"
        report["value"] = res.value
        report["case"] = f"{res.theorem_id}:{res.case_label}"
    elif args.command == "verify":
        checks = _verify_family(g, cap)
        if all(c["match"] is None for c in checks):
            reasons = dict.fromkeys(c["skipped"] for c in checks)
            raise MetricDimError("verify compared nothing: " + "; ".join(reasons))
        report["query"] = "verify"
        report["checks"] = checks
        ok = all(c["match"] is not False for c in checks)
        report["value"] = int(ok)
        report["elapsed_ms"] = _ms(started)
        _emit(report, args.json, out)
        return 0 if ok else 2
    else:  # pragma: no cover
        raise MetricDimError(f"unknown command {args.command!r}")

    report["elapsed_ms"] = _ms(started)
    _emit(report, args.json, out)
    return 0


def _verify_family(g: Graph, cap: Optional[int]) -> list[dict]:
    """Cross-check the closed forms against the exact solvers.

    A check that cannot run keeps ``"match": None`` and says why in ``skipped``.
    """
    from .formulas import cdim_at_vertex_formula, cdim_formula, dim_formula

    checks: list[dict] = []
    dm = all_pairs_distances(g)

    def compared(query: str, formula: int, exact: int) -> None:
        checks.append({"query": query, "formula": formula, "exact": exact, "match": formula == exact})

    def skipped(query: str, exc: MetricDimError) -> None:
        checks.append({"query": query, "formula": None, "exact": None, "match": None,
                       "skipped": str(exc)})

    for query, formula, exact in (("dim", dim_formula, dim_exact), ("cdim", cdim_formula, cdim_exact)):
        try:
            compared(query, formula(g).value, exact(g, dm, cap=cap).value)
        except MetricDimError as exc:
            skipped(query, exc)
    prof = None
    for v in range(g.n):
        try:
            fv = cdim_at_vertex_formula(g, v).value
        except MetricDimError as exc:
            skipped(f"cdim-at:{v}", exc)
            continue
        if prof is None:
            try:
                prof = vertex_profile(g, dm, cap=cap)
            except MetricDimError as exc:
                skipped("cdim-at", exc)
                break
        compared(f"cdim-at:{v}", fv, prof.per_vertex[v])
    return checks


def _ms(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
