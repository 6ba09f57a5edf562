"""Tests for the command-line interface: argument handling, output formats,
and exit codes; and for the names the package exports."""
import ast
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import escount
from escount import cli, verify
from escount.budget import BudgetExceededError

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PIN_SCRIPT = PYPROJECT.parent / "perfbench" / "pin.py"

EXPORTS = {
    "AbelianGroup", "Budget", "BudgetExceededError", "DEFAULT_BUDGET", "EndoMatrix",
    "GroupParseError", "IntegralityError", "abelian_groups_of_order", "act",
    "check_reference_values", "closed_count", "cross_check", "cycle_types",
    "enumerate_automorphisms", "euler_phi", "fixed_point_report", "fixed_points_naive",
    "general_linear_order", "n_cyclic", "n_elementary_abelian", "orbit_count_congruence",
    "orbit_count_naive", "orbit_enumerate", "orbit_sizes", "parse_group", "sweep",
}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(bin_dir=None):
    """Environment for a child process that imports the same `escount` as
    this process, with `bin_dir` (if given) searched first for commands."""
    env = os.environ.copy()
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return env


def write_console_script(name, bin_dir):
    """Write the `[project.scripts]` entry `name` of pyproject.toml into
    `bin_dir` as an executable, following the standard console-script
    template that an install would generate."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"][name]
    module, attr = (part.strip() for part in target.split(":"))
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)


def test_count_default_method(capsys):
    code, out, err = run_cli(["count", "--group", "C4", "--n", "2"], capsys)
    assert code == cli.EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["group", "n", "method", "count", "elapsed_ms"]
    assert lines[1].split()[:4] == ["C4", "2", "closed", "76"]


def test_count_all_methods_agree(capsys):
    code, out, _ = run_cli(
        ["count", "--group", "C2^2", "--n", "2", "--method", "all"], capsys
    )
    assert code == cli.EXIT_OK
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[2] for row in rows] == ["closed", "congruence", "naive"]
    assert all(row[3] == "31" for row in rows)


def test_count_all_answers_c2_4xc4_by_closed_alone(capsys):
    # closed lists one C2^4 block per GL(4, 2) class; congruence and naive
    # price the 2^26 candidates and 10,321,920 automorphisms, and skip.
    code, out, err = run_cli(
        ["count", "--group", "C2^4xC4", "--n", "1", "--method", "all", "--format", "csv"],
        capsys,
    )
    assert code == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["method"], row["count"]) for row in rows] == [("closed", "20")]
    assert "skipped congruence" in err and "skipped naive" in err


def test_count_json_format(capsys):
    code, out, _ = run_cli(
        ["count", "--group", "C12", "--n", "1", "--format", "json"], capsys
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload == [
        {
            "group": "C4xC3",
            "n": 1,
            "method": "closed",
            "count": "50",
            "elapsed_ms": payload[0]["elapsed_ms"],
        }
    ]
    assert isinstance(payload[0]["count"], str)


def test_json_records_match_asdict(capsys, monkeypatch):
    """count and table write each record from its fields; the bytes equal
    those of the records' dataclasses.asdict copies."""
    emitted = []

    def emit_json(records, out):
        emitted.append(records)
        cli._emit_json(records, out)

    monkeypatch.setitem(cli._EMITTERS, "json", emit_json)
    for argv in (
        ["count", "--group", "C2xC4", "--n", "2", "--method", "all", "--format", "json"],
        ["table", "--groups", "C2,C12,C2^21", "--n", "1", "--format", "json"],
    ):
        _, out, _ = run_cli(argv, capsys)
        expected = io.StringIO()
        json.dump([dataclasses.asdict(r) for r in emitted[-1]], expected, indent=2)
        assert out == expected.getvalue() + "\n", argv
    assert [len(records) for records in emitted] == [3, 2]


def test_count_csv_format(capsys):
    code, out, _ = run_cli(
        ["count", "--group", "C3", "--n", "2", "--format", "csv"], capsys
    )
    assert code == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["group", "n", "method", "count", "elapsed_ms"]
    assert rows[1][:4] == ["C3", "2", "closed", "25"]


def test_count_parse_error(capsys):
    code, out, err = run_cli(["count", "--group", "D4", "--n", "1"], capsys)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert "position 0" in err


def test_count_budget_exhausted(capsys):
    code, _, err = run_cli(
        ["count", "--group", "C2^7", "--n", "1", "--method", "naive"], capsys
    )
    assert code == cli.EXIT_BUDGET
    assert "skipped naive" in err
    assert "no method fit within the budget" in err


def test_count_budget_exhausted_all_methods(capsys):
    # C2^7 is answered by the class census; C2^21 is over every limit.
    code, _, err = run_cli(
        ["count", "--group", "C2^21", "--n", "1", "--method", "all"], capsys
    )
    assert code == cli.EXIT_BUDGET
    assert "no method fit within the budget" in err


def test_count_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(verify.METHODS, "naive", lambda group, n, budget: 999)
    code, out, err = run_cli(
        ["count", "--group", "C2", "--n", "1", "--method", "all"], capsys
    )
    assert code == cli.EXIT_DISAGREEMENT
    assert "methods disagree" in err
    assert "999" in out


def test_verify_text(capsys):
    code, out, _ = run_cli(["verify", "--max-order", "6", "--max-n", "1"], capsys)
    assert code == cli.EXIT_OK
    assert "cases: 7  disagreements: 0  references: 16  mismatches: 0" in out
    assert out.splitlines()[-1].endswith("  unwitnessed: 0")


def test_verify_reports_cases_with_one_method(capsys, monkeypatch):
    def refusing_c2xc4(method):
        def run(group, n, budget):
            if str(group) == "C2xC4":
                raise BudgetExceededError("max_group_order", 1, group.order)
            return method(group, n, budget)
        return run

    # C2xC4 has no paper's form, so only closed runs on it.
    for name in ("naive", "congruence"):
        monkeypatch.setitem(verify.METHODS, name, refusing_c2xc4(verify.METHODS[name]))
    code, out, _ = run_cli(["verify", "--max-order", "8", "--max-n", "1"], capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[-1].endswith("mismatches: 0  unwitnessed: 1")
    code, out, _ = run_cli(
        ["verify", "--max-order", "8", "--max-n", "1", "--format", "json"], capsys
    )
    assert code == cli.EXIT_OK
    assert json.loads(out)["unwitnessed"] == 1


def test_verify_json(capsys):
    code, out, _ = run_cli(
        ["verify", "--max-order", "6", "--max-n", "1", "--format", "json"], capsys
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["cases"]) == 7
    assert payload["mismatches"] == 0
    assert payload["unwitnessed"] == 0
    c4_case = next(c for c in payload["cases"] if c["group"] == "C4")
    assert c4_case["values"]["cyclic"] == "10"
    # Each object carries its record's fields in field order, counts as strings.
    case_fields = [f.name for f in dataclasses.fields(verify.CaseResult)]
    for case in payload["cases"]:
        assert list(case) == case_fields
        assert all(isinstance(v, str) for v in case["values"].values())
    row_fields = [f.name for f in dataclasses.fields(verify.ReferenceRow)]
    assert len(payload["references"]) == 16
    for row in payload["references"]:
        assert list(row) == row_fields
        assert isinstance(row["expected"], str)
        assert all(isinstance(v, str) for v in row["computed"].values())


def test_verify_detects_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_reference_values", lambda budget, known: [])

    class FakeCase:
        group = "C2"
        n = 1
        values = {"naive": 4, "congruence": 5}
        skipped = {}
        agree = False
        elapsed_ms = {"naive": 0, "congruence": 0}

    class FakeReport:
        cases = [FakeCase()]
        disagreements = [FakeCase()]
        ok = False
        unwitnessed = 0

    monkeypatch.setattr(cli, "sweep", lambda max_order, max_n, budget: FakeReport())
    code, out, _ = run_cli(["verify", "--max-order", "2", "--max-n", "1"], capsys)
    assert code == cli.EXIT_VERIFY_FAILED
    assert "DISAGREE C2" in out


def test_table_groups(capsys):
    code, out, _ = run_cli(["table", "--groups", "C2,C3,C5", "--n", "1"], capsys)
    assert code == cli.EXIT_OK
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("C2", "4"), ("C3", "5"), ("C5", "7")]
    assert all(row[2] == "closed" for row in rows)


def test_table_all_orders(capsys):
    code, out, _ = run_cli(["table", "--all-orders", "8", "--n", "1"], capsys)
    assert code == cli.EXIT_OK
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 11
    by_group = {row[0]: row[3] for row in rows}
    assert by_group["C2xC4"] == "19"
    assert by_group["C8"] == "22"
    assert by_group["C2xC2xC2"] == "5"


def test_table_keeps_going_past_refused_groups(capsys):
    # C2^21 and C3^13 bound more GL classes (2**21, 3**13) than
    # max_matrix_candidates allows.
    code, out, err = run_cli(["table", "--groups", "C2,C2^21,C3,C3^13", "--n", "2"], capsys)
    assert code == cli.EXIT_BUDGET
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("C2", "10"), ("C3", "25")]
    refusals = err.splitlines()
    assert len(refusals) == 2
    assert all("max_matrix_candidates" in line for line in refusals)


def test_table_canonicalizes_spec(capsys):
    code, out, _ = run_cli(["table", "--groups", "C6", "--n", "1"], capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[1].split()[:4] == ["C2xC3", "1", "closed", "20"]


def test_table_parse_error(capsys):
    code, _, err = run_cli(["table", "--groups", "C2,Q8", "--n", "1"], capsys)
    assert code == cli.EXIT_PARSE_ERROR
    assert "position" in err


def test_table_requires_selection():
    with pytest.raises(SystemExit):
        cli.main(["table", "--n", "1"])


# Malformed command lines, each with the flag or value its error names.
MALFORMED = {
    "missing command": ([], "command"),
    "unknown command": (["frob", "--n", "1"], "frob"),
    "unknown flag": (["count", "--group", "C4", "--n", "1", "--bogus", "2"], "--bogus"),
    "stray value": (["count", "--group", "C4", "--n", "1", "extra"], "extra"),
    "missing value": (["count", "--group", "C4", "--n"], "--n"),
    "flag as value": (["count", "--group", "--n", "1"], "--group"),
    "non-integer": (["count", "--group", "C4", "--n", "two"], "two"),
    "zero": (["count", "--group", "C4", "--n", "0"], "--n"),
    "negative": (["verify", "--max-order", "-3"], "-3"),
    "bad method": (["count", "--group", "C4", "--n", "1", "--method", "fast"], "fast"),
    "bad format": (["table", "--groups", "C2", "--n", "1", "--format", "xml"], "xml"),
    "missing group": (["count", "--n", "1"], "--group"),
    "missing n": (["table", "--groups", "C2"], "--n"),
    "neither selection": (["table", "--n", "1"], "--all-orders"),
    "both selections": (
        ["table", "--groups", "C2", "--all-orders", "3", "--n", "1"], "--all-orders"
    ),
}


@pytest.mark.parametrize("argv, named", MALFORMED.values(), ids=MALFORMED)
def test_malformed_command_line_exits_2(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_PARSE_ERROR
    assert captured.out == ""
    assert captured.err.startswith("usage: escount")
    error = captured.err.split("error: ", 1)[1]
    assert named in error


@pytest.mark.parametrize("argv, flags", [
    (["--help"], ["count", "verify", "table"]),
    (["count", "-h"], ["--group", "--n", "--method", "--format"]),
    (["verify", "--help"], ["--max-order", "--max-n", "--format"]),
    (["table", "--n", "1", "-h"], ["--groups", "--all-orders", "--n", "--format"]),
])
def test_help_prints_usage_and_exits_0(argv, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_OK
    assert captured.out.startswith("usage: escount")
    assert all(flag in captured.out for flag in flags)
    assert captured.err == ""


def _counts(argv, capsys):
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    return code, [row[:4] for row in csv.reader(io.StringIO(out))]


def test_flag_value_after_equals_sign(capsys):
    assert _counts(["count", "--group=C2^2", "--n=2", "--method=all"], capsys) == _counts(
        ["count", "--group", "C2^2", "--n", "2", "--method", "all"], capsys
    )


def test_repeated_flag_keeps_its_last_value(capsys):
    code, rows = _counts(["count", "--group", "C4", "--n", "3", "--n", "2"], capsys)
    assert code == cli.EXIT_OK
    assert rows[1] == ["C4", "2", "closed", "76"]


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["escount", "count", "--group", "C2", "--n", "1"])
    code, out, _ = run_cli(None, capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[1].split()[:4] == ["C2", "1", "closed", "4"]


def test_cli_import_leaves_argparse_out():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, escount.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    assert result.stdout.strip() == "[]"


def test_budget_env_var_limits_naive(capsys, monkeypatch):
    # The naive scan walks 4**4 = 256 tuples per half, over the cap of 100.
    monkeypatch.setenv("ESC_BUDGET", "100")
    code, _, err = run_cli(
        ["count", "--group", "C4", "--n", "4", "--method", "naive"], capsys
    )
    assert code == cli.EXIT_BUDGET
    assert "max_state_space" in err


def test_budget_env_var_malformed(capsys, monkeypatch):
    monkeypatch.setenv("ESC_BUDGET", "abc")
    code, _, err = run_cli(["count", "--group", "C2", "--n", "1"], capsys)
    assert code == cli.EXIT_PARSE_ERROR
    assert "ESC_BUDGET" in err


def test_console_script_roundtrip(tmp_path):
    write_console_script("escount", tmp_path)
    result = subprocess.run(
        ["escount", "count", "--group", "C8", "--n", "2", "--format", "csv"],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(tmp_path),
    )
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[1][:4] == ["C8", "2", "closed", "580"]


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "escount.cli", "count", "--group", "C2", "--n", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1].split()[:4] == ["C2", "1", "closed", "4"]


def test_package_exports_the_documented_names():
    assert len(escount.__all__) == len(EXPORTS) == 26
    assert set(escount.__all__) == EXPORTS
    assert all(hasattr(escount, name) for name in escount.__all__)
    pinned = {
        alias.name
        for node in ast.parse(PIN_SCRIPT.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module == "escount"
        for alias in node.names
    }
    assert pinned and pinned <= EXPORTS
