import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from metricdim import HeaderMismatch, MetricDimError, ParseError, generate
from metricdim.cli import parse_graph_file, run, write_edgelist
from metricdim.families import _KINDS, FLOAT, INT, INTS, PAIR, SEED, SXT

from conftest import SRC, run_python


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_edgelist_labels_first_seen():
    g, labels = parse_graph_file(io.StringIO("a b\nb c\n"))
    assert g.n == 3 and g.m == 2
    assert labels == ("a", "b", "c")


def test_parse_edgelist_header_and_comments():
    text = "# a path on three labeled vertices\n3 2\nx y\ny z\n"
    g, labels = parse_graph_file(io.StringIO(text))
    assert g.n == 3 and labels == ("x", "y", "z")


def test_parse_edgelist_integer_edges_without_header():
    g, labels = parse_graph_file(io.StringIO("1 2\n2 3\n3 4\n"))
    assert g.n == 4 and g.m == 3
    assert labels == ("1", "2", "3", "4")


def test_parse_edgelist_non_decimal_digit_is_a_label(tmp_path):
    text = "² 1\n1 a\n"
    g, labels = parse_graph_file(io.StringIO(text))
    assert g.n == 3 and g.m == 2 and labels == ("²", "1", "a")
    path = tmp_path / "superscript.el"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["dim", str(path), "--json"])
    assert code == 0 and err == "" and json.loads(out)["value"] == 1


def test_parse_edgelist_header_mismatch():
    with pytest.raises(HeaderMismatch):
        parse_graph_file(io.StringIO("5 2\na b\nb c\n"))


def test_parse_edgelist_self_loop():
    with pytest.raises(ParseError) as exc:
        parse_graph_file(io.StringIO("x x\n"))
    assert exc.value.line_no == 1


def test_parse_edgelist_malformed_line_number():
    with pytest.raises(ParseError) as exc:
        parse_graph_file(io.StringIO("a b\na b c\n"))
    assert exc.value.line_no == 2


def test_parse_graph_file_refuses_an_unknown_format():
    with pytest.raises(MetricDimError, match="unknown format 'xml'"):
        parse_graph_file(io.StringIO("a b\n"), "xml")


def test_parse_dimacs_k5():
    lines = ["c complete graph", "p edge 5 10"]
    lines += [f"e {u} {v}" for u in range(1, 6) for v in range(u + 1, 6)]
    g, labels = parse_graph_file(io.StringIO("\n".join(lines)), fmt="dimacs")
    assert g.n == 5 and g.m == 10
    assert labels == ("1", "2", "3", "4", "5")


def test_parse_dimacs_errors():
    with pytest.raises(HeaderMismatch):
        parse_graph_file(io.StringIO("p edge 3 2\ne 1 2\n"), fmt="dimacs")
    with pytest.raises(ParseError):
        parse_graph_file(io.StringIO("p edge 3 1\ne 1 9\n"), fmt="dimacs")


def test_second_dimacs_problem_line_is_a_parse_error(tmp_path):
    text = "p edge 3 2\ne 1 2\ne 2 3\np edge 4 2\n"
    with pytest.raises(ParseError) as exc:
        parse_graph_file(io.StringIO(text), fmt="dimacs")
    assert exc.value.line_no == 4
    path = tmp_path / "two.dimacs"
    path.write_text(text)
    code, out, err = run_cli(["planar-desk", str(path), "--format", "dimacs"])
    assert (code, out) == (1, "")
    assert err.startswith("error: line 4: second problem line")


@pytest.mark.parametrize("text, message", [
    ("p edge 3\n", "line 1: bad problem line 'p edge 3'"),
    ("p edge 3 x\n", "line 1: bad problem line 'p edge 3 x'"),
    ("p edge 3 1\ne 1 x\n", "line 2: bad edge line 'e 1 x'"),
    ("p edge 3 1\ne 1\n", "line 2: bad edge line 'e 1'"),
    ("p edge 3 1\ne 1 1\n", "line 2: self-loop at 1"),
], ids=["problem-fields", "problem-count", "edge-endpoint", "edge-fields", "self-loop"])
def test_malformed_dimacs_lines_exit_one(tmp_path, text, message):
    path = tmp_path / "bad.dimacs"
    path.write_text(text)
    assert run_cli(["dim", str(path), "--format", "dimacs"]) == (1, "", f"error: {message}\n")


def test_cdim_command_json(tmp_path):
    path = tmp_path / "petersen.el"
    code, out, _ = run_cli(["generate", "--family", "petersen", "--out", str(path)])
    assert code == 0
    code, out, _ = run_cli(["cdim", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 4
    assert report["input"]["n"] == 10 and report["input"]["m"] == 15
    assert len(report["witness"]) == 4


def test_round_trip_matches_in_memory(tmp_path):
    for family in ("petersen", "paddle:5,3", "grid:4x3", "bouquet:3,4"):
        path = tmp_path / "g.el"
        assert run_cli(["generate", "--family", family, "--out", str(path)])[0] == 0
        _, out_file, _ = run_cli(["cdim", str(path), "--json"])
        _, out_mem, _ = run_cli(["cdim", "--family", family, "--json"])
        file_report, mem_report = json.loads(out_file), json.loads(out_mem)
        for key in ("value", "witness", "per_vertex", "case"):
            assert file_report[key] == mem_report[key], family


def test_json_determinism_modulo_elapsed():
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(["profile", "--family", "wheel:6", "--json"])
        report = json.loads(out)
        del report["elapsed_ms"]
        outputs.append(json.dumps(report, sort_keys=False))
    assert outputs[0] == outputs[1]


def test_cdim_at_with_set(tmp_path):
    path = tmp_path / "paddle.el"
    run_cli(["generate", "--family", "paddle:6,5", "--out", str(path)])
    code, out, _ = run_cli(["cdim-at", str(path), "--vertex", "w3", "--json"])
    assert code == 0 and json.loads(out)["value"] == 8
    # the twin class u1..u5 forces four clique vertices, plus the anchor u0
    code, out, _ = run_cli(["cdim-at", str(path), "--set", "u0,u1", "--json"])
    assert code == 0 and json.loads(out)["value"] == 5


def test_cdim_at_names_a_repeated_set_label_once():
    """A label given twice in ``--set`` names the same anchor set as given once."""
    outputs = []
    for anchors in ("w,w,u1", "u1,w"):
        code, out, _ = run_cli(["cdim-at", "--family", "wheel:5", "--set", anchors, "--json"])
        assert code == 0
        outputs.append(re.sub(r'"elapsed_ms":[^,}]*', '"elapsed_ms":0', out))
    assert json.loads(outputs[0])["query"] == "cdim-at:u1,w"
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cdim-at", "--vertex", "w", "--set", "u1,u2"], "cdim-at takes --vertex or --set, not both"),
        (["formula", "--theorem", "dim", "--vertex", "w"], "formula --theorem dim takes no --vertex"),
        (["formula", "--theorem", "cdim", "--vertex", "w"], "formula --theorem cdim takes no --vertex"),
        (["dim", "missing.el"], "dim takes a graph file or --family, not both"),
    ],
)
def test_conflicting_flags_exit_one(argv, message):
    code, out, err = run_cli([*argv, "--family", "wheel:5"])
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cdim-at", "--vertex", ""], "--vertex '' has an empty vertex label"),
        (["cdim-at", "--set", ""], "--set '' has an empty vertex label"),
        (["cdim-at", "--set", "u1,,u2"], "--set 'u1,,u2' has an empty vertex label"),
        (["cdim-at", "--set", "u1,"], "--set 'u1,' has an empty vertex label"),
        (["formula", "--theorem", "cdim-at", "--vertex", ""], "--vertex '' has an empty vertex label"),
    ],
)
def test_empty_vertex_labels_exit_one(argv, message):
    code, out, err = run_cli([*argv, "--family", "wheel:5"])
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_format_is_refused_where_no_graph_file_is_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--family", "path:3", "--format", "dimacs"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format dimacs" in capsys.readouterr().err


def test_verify_family_exit_codes(monkeypatch):
    code, out, _ = run_cli(["verify", "--family", "wheel:9", "--json"])
    assert code == 0
    report = json.loads(out)
    assert all(chk["match"] for chk in report["checks"])
    # force a mismatch to exercise exit code 2
    import metricdim.formulas as formulas
    from metricdim.formulas import FormulaResult

    monkeypatch.setattr(formulas, "dim_formula", lambda x: FormulaResult(99, "bogus", "bogus"))
    code, out, _ = run_cli(["verify", "--family", "wheel:9"])
    assert code == 2


@pytest.mark.parametrize("spec", ["rand:12:0.3:1", "wheel:30"])
def test_verify_that_compares_nothing_exits_one(spec):
    code, out, err = run_cli(["verify", "--family", spec])
    assert code == 1 and out == ""
    assert err.startswith("error: verify compared nothing: ")


def test_verify_skips_are_visible(monkeypatch):
    import metricdim.formulas as formulas
    import metricdim.solver as solver
    from metricdim import TooLarge, Unsupported

    real = formulas.cdim_at_vertex_formula

    def no_form_at_zero(g, v):
        if v == 0:
            raise Unsupported("no closed form at vertex 0")
        return real(g, v)

    monkeypatch.setattr(formulas, "cdim_at_vertex_formula", no_form_at_zero)
    code, out, _ = run_cli(["verify", "--family", "wheel:9", "--json"])
    checks = json.loads(out)["checks"]
    assert code == 0 and len(checks) == 12
    assert checks[2] == {"query": "cdim-at:0", "formula": None, "exact": None, "match": None,
                         "skipped": "no closed form at vertex 0"}
    assert all(chk["match"] for chk in checks[3:])
    code, out, _ = run_cli(["verify", "--family", "wheel:9"])
    assert "cdim-at:0: skipped: no closed form at vertex 0\n" in out

    def profile_too_large(g, dm=None, cap=None):
        raise TooLarge("profile cap")

    monkeypatch.setattr(formulas, "cdim_at_vertex_formula", real)
    monkeypatch.setattr(solver, "vertex_profile", profile_too_large)
    code, out, _ = run_cli(["verify", "--family", "wheel:9", "--json"])
    report = json.loads(out)
    assert code == 0 and report["value"] == 1
    assert [chk["query"] for chk in report["checks"]] == ["dim", "cdim", "cdim-at"]
    assert report["checks"][2]["match"] is None and report["checks"][2]["skipped"] == "profile cap"


def test_enumerate_min_command():
    code, out, _ = run_cli(["enumerate-min", "--family", "grid:3x3", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 2 and len(report["sets"]) == 4


def test_classify_command_unicyclic():
    code, out, _ = run_cli(["classify", "--family", "sun:5:1,1,0,0,0", "--json"])
    assert code == 0
    info = json.loads(out)["classification"]
    assert info["unicyclic_cdim_eq_dim"] is True and info["unicyclic_case"] == "U1"
    assert info["fr_member"] is True


def test_planar_desk_command():
    code, out, _ = run_cli(["planar-desk", "--family", "kite:3", "--json"])
    assert code == 0 and json.loads(out)["value"] is False


def _refuse_to_build(monkeypatch, kind_name):
    import metricdim.families as families

    def build(*params):
        raise AssertionError(f"{kind_name}:{params} was built")

    monkeypatch.setitem(families._KINDS, kind_name, families._KINDS[kind_name]._replace(build=build))


def test_planar_desk_answers_too_many_edges_before_building(monkeypatch):
    _refuse_to_build(monkeypatch, "complete")
    code, out, _ = run_cli(["planar-desk", "--family", "complete:3000", "--json"])
    report = json.loads(out)
    assert code == 0 and report["value"] is False
    assert report["input"] == {"source": "complete:3000", "format": "family", "n": 3000, "m": 4498500}
    assert report["query"] == "planar-desk" and report["warnings"] == []


def test_planar_desk_refuses_past_the_minor_cap_before_building(monkeypatch):
    _refuse_to_build(monkeypatch, "path")
    code, out, err = run_cli(["planar-desk", "--family", "path:3000"])
    assert code == 1 and out == ""
    assert err == "error: n=3000 exceeds the minor-search cap 20; pass cap=3000 to override\n"


@pytest.mark.parametrize("spec", ["path:2", "complete:2", "star:2"])
def test_planar_desk_answers_small_families_before_building(monkeypatch, spec):
    _refuse_to_build(monkeypatch, spec.split(":")[0])
    code, out, err = run_cli(["planar-desk", "--family", spec, "--json"])
    report = json.loads(out)
    assert code == 0 and err == "" and report["value"] is True
    assert report["input"] == {"source": spec, "format": "family", "n": 2, "m": 1}


@pytest.mark.parametrize("spec", ["complete:21", "grid:5x5", "kite:4", "paddle:7,2", "multipartite:3,3,3"])
def test_planar_desk_before_building_matches_the_built_graph(monkeypatch, spec):
    from metricdim import is_planar_desk

    g = generate(spec)[0]
    _refuse_to_build(monkeypatch, spec.split(":")[0])
    code, out, err = run_cli(["planar-desk", "--family", spec, "--json"])
    if g.m > 3 * g.n - 6:
        report = json.loads(out)
        assert code == 0 and report["input"] == {"source": spec, "format": "family", "n": g.n, "m": g.m}
        assert report["value"] is is_planar_desk(g) is False
    else:
        assert code == 1 and err == f"error: n={g.n} exceeds the minor-search cap 20; pass cap={g.n} to override\n"


@pytest.mark.parametrize("spec", ["wheel:2", "paddle:30,0", "grid:-5x-5", "multipartite:0,20,20",
                                  "bouquet:2,2", "fantail:3"])
def test_planar_desk_rejects_out_of_domain_specs_before_any_shortcut(spec):
    code, out, err = run_cli(["planar-desk", "--family", spec])
    assert code == 1 and out == "" and err.startswith("error: ")
    assert "cap" not in err


def test_formula_command():
    code, out, _ = run_cli(["formula", "--theorem", "cdim", "--family", "wheel:9", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 5 and report["case"].startswith("wheel-cdim")


def test_formula_command_cdim_at_a_vertex():
    argv = ["formula", "--family", "wheel:9", "--theorem", "cdim-at", "--vertex", "w", "--json"]
    code, out, _ = run_cli(argv)
    report = json.loads(out)
    assert code == 0 and report["query"] == "formula:cdim-at"
    assert report["value"] == 5 and report["case"] == "wheel-cdim-at:vertex-uniform"


def test_formula_command_builds_the_family_once(monkeypatch):
    import metricdim.families as families

    calls = []
    kind = families._KINDS["wheel"]

    def counted(*params):
        calls.append(params)
        return kind.build(*params)

    monkeypatch.setitem(families._KINDS, "wheel", kind._replace(build=counted))
    code, _, _ = run_cli(["formula", "--family", "wheel:9", "--theorem", "cdim"])
    assert code == 0 and calls == [(9,)]


def test_formula_command_on_unrecognized_family_exits_one():
    code, out, err = run_cli(["formula", "--family", "kite:3", "--theorem", "dim"])
    assert code == 1 and out == ""
    assert err == "error: graph matches no family with a known closed form\n"


def test_formula_on_file_leaves_families_unloaded(tmp_path):
    path = tmp_path / "petersen.el"
    run_cli(["generate", "--family", "petersen", "--out", str(path)])
    probe = (
        "import io, json, sys\n"
        "from metricdim.cli import run\n"
        "out = io.StringIO()\n"
        "code = run(['formula', sys.argv[1], '--theorem', 'dim', '--json'], out)\n"
        "print(code, json.loads(out.getvalue())['value'], 'metricdim.families' in sys.modules)"
    )
    assert run_python(probe, str(path)).split() == ["0", "3", "False"]


def test_cap_exceeded_exits_one():
    code, _, err = run_cli(["cdim", "--family", "grid:5x5"])
    assert code == 1 and "cap" in err
    code, out, _ = run_cli(["cdim", "--family", "grid:5x5", "--cap", "25", "--json"])
    assert code == 0 and json.loads(out)["value"] == 5


def test_family_spec_with_extra_fields_exits_one():
    code, out, err = run_cli(["dim", "--family", "wheel:9:5"])
    assert code == 1 and out == "" and "malformed family spec 'wheel:9:5'" in err


@pytest.mark.parametrize("spec", ["path:99999999999999999999", "grid:3000x3000", "complete:100000"])
def test_family_past_the_order_cap_exits_one_at_once(spec):
    started = time.perf_counter()
    code, out, err = run_cli(["dim", "--family", spec])
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == ""
    assert err.startswith(f"error: {spec} has ") and "past the library cap 4096" in err


def _refuse_to_generate(monkeypatch):
    from metricdim import families

    def never(spec):
        raise AssertionError(f"generate called on {spec}")

    monkeypatch.setattr(families, "generate", never)


def test_family_past_the_solver_cap_is_refused_before_it_is_built(monkeypatch):
    _refuse_to_generate(monkeypatch)
    code, out, err = run_cli(["dim", "--family", "complete:3000"])
    assert code == 1 and out == ""
    assert err == "error: n=3000 exceeds the solver cap 24; pass cap=3000 to override\n"


def test_verify_past_the_solver_cap_is_refused_before_it_is_built(monkeypatch):
    _refuse_to_generate(monkeypatch)
    code, out, err = run_cli(["verify", "--family", "complete:3000"])
    assert code == 1 and out == ""
    assert err == ("error: verify compared nothing: n=3000 exceeds the solver cap 24; "
                   "pass cap=3000 to override\n")


@pytest.mark.parametrize("command, extra, message", [
    ("dim", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("cdim", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("cdim-at", ["--vertex", "u1"], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("profile", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("enumerate-min", [], "n=25 exceeds the enumeration cap 16; pass cap=25 to override"),
    ("dim", ["--cap", "20"], "n=25 exceeds the solver cap 20; pass cap=25 to override"),
    ("classify", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
])
def test_every_solver_command_checks_its_cap_before_building(monkeypatch, command, extra, message):
    _refuse_to_generate(monkeypatch)
    code, out, err = run_cli([command, "--family", "complete:25", *extra])
    assert code == 1 and out == "" and err == f"error: {message}\n"


def test_a_raised_cap_still_reaches_the_solver(monkeypatch):
    from metricdim import families

    built = []

    def small_stand_in(spec):
        built.append(spec.text())
        return families.complete(4)

    monkeypatch.setattr(families, "generate", small_stand_in)
    code, out, _ = run_cli(["dim", "--family", "complete:3000", "--cap", "3000", "--json"])
    assert code == 0 and built == ["complete:3000"]
    assert json.loads(out)["value"] == 3


def test_uncapped_commands_still_build_families_past_the_solver_cap():
    code, out, _ = run_cli(["formula", "--theorem", "dim", "--family", "complete:30", "--json"])
    assert code == 0 and json.loads(out)["value"] == 29


def test_classify_past_the_solver_cap_exits_one_at_once(monkeypatch):
    started = time.perf_counter()
    code, out, err = run_cli(["classify", "--family", "complete:3000"])
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == ""
    assert err == "error: n=3000 exceeds the solver cap 24; pass cap=3000 to override\n"
    from metricdim import families

    built = []

    def small_stand_in(spec):
        built.append(spec.text())
        return families.complete(4)

    monkeypatch.setattr(families, "generate", small_stand_in)
    code, out, _ = run_cli(["classify", "--family", "complete:3000", "--cap", "3000", "--json"])
    assert code == 0 and built == ["complete:3000"]
    assert json.loads(out)["classification"]["graph_case"] == "complete"


def test_classify_checks_the_cap_on_a_graph_file(tmp_path):
    path = tmp_path / "path25.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(24)))
    code, out, err = run_cli(["classify", str(path)])
    assert code == 1 and out == ""
    assert err == "error: n=25 exceeds the solver cap 24; pass cap=25 to override\n"
    code, out, _ = run_cli(["classify", str(path), "--cap", "25", "--json"])
    assert code == 0 and json.loads(out)["input"]["n"] == 25


FILE_CAP_MESSAGES = [
    ("dim", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("cdim", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("cdim-at", ["--vertex", "3"], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("profile", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("enumerate-min", [], "n=25 exceeds the enumeration cap 16; pass cap=25 to override"),
    ("classify", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("planar-desk", [], "n=25 exceeds the minor-search cap 20; pass cap=25 to override"),
]


@pytest.mark.parametrize("command, extra, message", FILE_CAP_MESSAGES)
def test_every_capped_command_refuses_a_graph_file_once_read(tmp_path, command, extra, message):
    from metricdim.cli import _CAPS

    # verify reads no graph file; planar-desk's cap is the minor search's.
    assert {c for c, _, _ in FILE_CAP_MESSAGES} == set(_CAPS) - {"verify"} | {"planar-desk"}
    path = tmp_path / "path25.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(24)))
    code, out, err = run_cli([command, str(path), *extra])
    assert code == 1 and out == "" and err == f"error: {message}\n"


def test_unknown_label_error():
    code, _, err = run_cli(["cdim-at", "--family", "petersen", "--vertex", "zz"])
    assert code == 1 and "zz" in err


def test_generate_to_stdout_parses_back():
    code, out, _ = run_cli(["generate", "--family", "wheel:5"])
    assert code == 0
    g, labels = parse_graph_file(io.StringIO(out))
    expect, expect_labels = generate("wheel:5")
    assert g.n == expect.n and sorted(g.edges()) == sorted(expect.edges())
    assert labels == expect_labels


def test_write_edgelist_round_trip_preserves_indexing(tmp_path):
    g, labels = generate("rand:9:0.35:17")
    buf = io.StringIO()
    write_edgelist(g, labels, buf)
    g2, labels2 = parse_graph_file(io.StringIO(buf.getvalue()))
    assert labels2 == labels
    assert sorted(g2.edges()) == sorted(g.edges())


def test_dimacs_end_to_end(tmp_path):
    lines = ["c wheel on 7 vertices", "p edge 7 12"]
    rim = [(i, i % 6 + 1) for i in range(1, 7)]
    lines += [f"e {u} {v}" for u, v in rim] + [f"e {i} 7" for i in range(1, 7)]
    path = tmp_path / "wheel.col"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["cdim", str(path), "--format", "dimacs", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_profile_command_on_file(tmp_path):
    path = tmp_path / "theta.el"
    run_cli(["generate", "--family", "thetatails", "--out", str(path)])
    code, out, _ = run_cli(["profile", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert sorted(report["per_vertex"].values()) == [3] * 8 + [4] * 4
    rc = report["profile"]["rc"]
    assert sorted(rc) == ["a", "b", "c", "d", "p1.1", "p1.4", "p2.1", "p2.4"]


def test_formula_command_on_file(tmp_path):
    path = tmp_path / "petersen.el"
    run_cli(["generate", "--family", "petersen", "--out", str(path)])
    code, out, _ = run_cli(["formula", "--theorem", "cdim", str(path), "--json"])
    assert code == 0 and json.loads(out)["value"] == 4


def test_reported_witness_reverifies():
    from metricdim import all_pairs_distances, check_resolving

    _, out, _ = run_cli(["cdim", "--family", "bouquet:3,4,5", "--json"])
    report = json.loads(out)
    g, labels = generate("bouquet:3,4,5")
    ix = {lab: i for i, lab in enumerate(labels)}
    witness = [ix[lab] for lab in report["witness"]]
    cert = check_resolving(g, all_pairs_distances(g), witness)
    assert cert.resolving


@pytest.mark.parametrize("command", [["dim"], ["profile"], ["cdim-at", "--vertex", "a"]])
def test_missing_input_file_is_an_error_not_a_traceback(tmp_path, command):
    code, out, err = run_cli([command[0], str(tmp_path / "missing.el"), *command[1:]])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read") and "missing.el" in err


def test_directory_input_is_an_error(tmp_path):
    code, _, err = run_cli(["dim", str(tmp_path)])
    assert code == 1 and err.startswith("error: cannot read")


def test_unreadable_input_is_an_error(tmp_path, monkeypatch):
    import metricdim.cli as cli_mod

    path = tmp_path / "locked.el"
    path.write_text("a b\n")

    def denied(file, *args, **kwargs):
        raise PermissionError(13, "Permission denied", file)

    # The module-level name shadows the builtin inside the CLI only; a chmod
    # would not stop a process running as root.
    monkeypatch.setattr(cli_mod, "open", denied, raising=False)
    code, _, err = run_cli(["dim", str(path)])
    assert code == 1 and "Permission denied" in err


def test_non_utf8_input_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.el"
    path.write_bytes(b"a b\n\xe9 c\n")
    with pytest.raises(ParseError):
        parse_graph_file(str(path))
    code, _, err = run_cli(["dim", str(path), "--format", "dimacs"])
    assert code == 1 and "not valid UTF-8" in err


def test_unwritable_output_is_an_error(tmp_path):
    code, _, err = run_cli(["generate", "--family", "petersen", "--out", str(tmp_path / "no" / "g.el")])
    assert code == 1 and err.startswith("error: cannot write")


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_exits_one(cap):
    for argv in (["dim", "--family", "petersen"], ["generate", "--family", "wheel:5"]):
        code, out, err = run_cli([*argv, "--cap", cap])
        assert code == 1 and out == "" and "--cap" in err


def test_cli_import_leaves_networkx_unloaded():
    # Commands import solver, families, formulas and minor only where they run.
    probe = "import sys, metricdim.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    loaded = run_python(probe, "networkx", "metricdim.families", "metricdim.formulas",
                        "metricdim.minor", "metricdim.solver")
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("argv, solver_loaded", [
    (["generate", "--family", "wheel:5"], False),
    (["planar-desk", "--family", "k33sub"], False),
    (["formula", "--family", "wheel:9", "--theorem", "cdim"], False),
    (["dim", "--family", "wheel:5"], True),
])
def test_only_searching_commands_load_the_solver(argv, solver_loaded):
    probe = ("import io, sys\n"
             "from metricdim.cli import run\n"
             "code = run(sys.argv[1:], io.StringIO())\n"
             "print(code, 'metricdim.solver' in sys.modules)")
    assert run_python(probe, *argv).split() == ["0", str(solver_loaded)]


def test_planar_desk_leaves_networkx_unloaded():
    probe = (
        "import io, json, sys\n"
        "from metricdim.cli import run\n"
        "out = io.StringIO()\n"
        "code = run(['planar-desk', '--family', 'k33sub', '--json'], out)\n"
        "print(code, json.loads(out.getvalue())['value'], 'networkx' in sys.modules)"
    )
    assert run_python(probe).split() == ["0", "False", "False"]


def test_stdin_that_is_not_utf8_is_an_error():
    env = dict(os.environ, LC_ALL="C",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys; from metricdim.cli import run; sys.exit(run(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", probe, "dim", "-"], input=b"\xff\n", env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr == b"error: standard input is not valid UTF-8 text\n"


def test_run_writes_to_the_streams_current_at_the_call():
    """Without ``out`` and ``err``, a report and an error go where sys.stdout
    and sys.stderr point when run is called, not where they pointed at import."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run(["dim", "--family", "petersen"]) == 0
        assert run(["dim", "--family", "complete:3000"]) == 1
    assert "value: 3\n" in out.getvalue()
    assert err.getvalue() == "error: n=3000 exceeds the solver cap 24; pass cap=3000 to override\n"


CLOSED_STDOUT = """
import sys
from metricdim.cli import main


class Closed:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return sys.__stdout__.fileno()


sys.stdout = Closed()
main()
"""


@pytest.mark.parametrize("argv", [["profile", "--family", "bouquet:4,4,4"],
                                  ["enumerate-min", "--family", "petersen", "--json"],
                                  ["generate", "--family", "wheel:5"]])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", CLOSED_STDOUT, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (141, "", "")


def test_a_pipe_closed_by_its_reader_exits_141_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from metricdim.cli import main; main()",
             "profile", "--family", "bouquet:4,4,4"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


# ---------------------------------------------------------------------------
# Fuzzing the command line with family specs built from the field shapes of _KINDS

SMALL = st.integers(-2, 14)
FIELD_TEXT = {
    INT: SMALL.map(str),
    SEED: st.just("") | SMALL.map(str),
    FLOAT: st.sampled_from(["0", "0.05", "0.3", "1", "1.5", "nan", "inf"]),
    INTS: st.lists(SMALL, min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    PAIR: st.tuples(SMALL, SMALL).map(lambda ab: f"{ab[0]},{ab[1]}"),
    SXT: st.tuples(SMALL, SMALL).map(lambda ab: f"{ab[0]}x{ab[1]}"),
}
LABELS = st.sampled_from(["u1", "u2", "w", "w1.1", "v1", "v4", "l1", "x1", "nope"])
COMMANDS = ("dim", "cdim", "cdim-at", "profile", "enumerate-min", "classify", "planar-desk",
            "formula", "generate", "verify")


@st.composite
def family_texts(draw):
    """A spec string with the field shapes of one kind, sometimes a field short or over."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    fields = [draw(FIELD_TEXT[f]) for f in _KINDS[kind].fields]
    change = draw(st.sampled_from([0, 0, 0, 1, -1]))
    if change == 1:
        fields.append(str(draw(SMALL)))
    elif change == -1:
        fields = fields[:-1]
    return ":".join([kind, *fields])


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--family", draw(family_texts())]
    if command in ("cdim-at", "formula") and draw(st.booleans()):
        argv += ["--vertex", draw(LABELS)]
    if command == "cdim-at" and draw(st.booleans()):
        argv += ["--set", ",".join(draw(st.lists(LABELS, min_size=1, max_size=3)))]
    if command == "formula" and draw(st.integers(0, 3)):
        argv += ["--theorem", draw(st.sampled_from(["dim", "cdim", "cdim-at"]))]
    for flag in ("--cap", "--seed"):
        if draw(st.booleans()):
            argv += [flag, str(draw(SMALL))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(derandomize=True, database=None, max_examples=500, deadline=2000)
@given(invocations())
@example(["dim", "--family", "rand:4000:0.9:1"])
@example(["dim", "--family", "complete:3000"])
def test_fuzzed_family_commands_exit_cleanly(argv):
    """Every command ends with exit 0, 1 or 2; only argparse's SystemExit may escape run."""
    try:
        code = run(argv, out=io.StringIO(), err=io.StringIO())
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv


# ---------------------------------------------------------------------------
# Fuzzing graph files: edge-list and DIMACS text built from the formats' own tokens

FILE_NUMBERS = ["0", "1", "2", "3", "5", "-1", "12345678901234567890", "99999999999999999999", "²", "٣"]
FILE_TOKENS = st.sampled_from(["p", "edge", "e", "c", "#", "\x00", "\r", "a", "b", "v1", "é", *FILE_NUMBERS])
NUMBER = st.sampled_from(FILE_NUMBERS[:5])
# Random token runs, and lines of the shapes the two formats expect.
FILE_LINES = st.one_of(
    st.lists(FILE_TOKENS, max_size=5),
    st.tuples(st.just("p"), st.just("edge"), NUMBER, NUMBER),
    st.tuples(st.just("e"), NUMBER, NUMBER),
    st.tuples(FILE_TOKENS, FILE_TOKENS),
)
# Bytes that are not UTF-8: a stray continuation byte, a truncated sequence,
# an overlong encoding and an encoded surrogate.
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80"])


@st.composite
def graph_file_bytes(draw):
    lines = draw(st.lists(FILE_LINES, max_size=10))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(
        draw(st.sampled_from([" ", "\t"])).join(toks) for toks in lines
    )
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    return data


@settings(derandomize=True, database=None, max_examples=400, deadline=2000)
@given(graph_file_bytes(), st.sampled_from(["edgelist", "dimacs"]))
@example(b"p edge 3 2\ne 1 2\ne 2 3\n", "dimacs")
@example(b"3 2\na b\nb \xff\n", "edgelist")
@example(b"# a path\r\na\tb\r\nb c\r\n", "edgelist")
def test_fuzzed_graph_files_parse_or_raise_a_library_error(data, fmt):
    """A graph file parses or raises MetricDimError, and dim on it exits 0 or 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        with contextlib.suppress(MetricDimError):
            parse_graph_file(path, fmt)
        code = run(["dim", path, "--format", fmt], out=io.StringIO(), err=io.StringIO())
    assert code in (0, 1), (data, fmt)
