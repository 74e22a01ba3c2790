import io
import json
import os
import subprocess
import sys
import time

import pytest

from metricdim import HeaderMismatch, ParseError, generate
from metricdim.cli import parse_graph_file, run, write_edgelist

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
    import metricdim.cli as cli_mod
    import metricdim.formulas as formulas
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

    def profile_too_large(g, dm, cap=None):
        raise TooLarge("profile cap")

    monkeypatch.setattr(formulas, "cdim_at_vertex_formula", real)
    monkeypatch.setattr(cli_mod, "vertex_profile", profile_too_large)
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


def test_formula_command():
    code, out, _ = run_cli(["formula", "--theorem", "cdim", "--family", "wheel:9", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 5 and report["case"].startswith("wheel-cdim")


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


@pytest.mark.parametrize("command, extra, message", [
    ("dim", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("cdim", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("cdim-at", ["--vertex", "u1"], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("profile", [], "n=25 exceeds the solver cap 24; pass cap=25 to override"),
    ("enumerate-min", [], "n=25 exceeds the enumeration cap 16; pass cap=25 to override"),
    ("dim", ["--cap", "20"], "n=25 exceeds the solver cap 20; pass cap=25 to override"),
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
    code, out, _ = run_cli(["classify", "--family", "complete:30", "--json"])
    assert code == 0 and json.loads(out)["input"]["n"] == 30


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
    # Commands import families, formulas and minor only where they run.
    probe = "import sys, metricdim.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    loaded = run_python(probe, "networkx", "metricdim.families", "metricdim.formulas",
                        "metricdim.minor")
    assert loaded.strip() == "[]"


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
