"""Command-line behavior: in-process for speed, subprocess for the entry point."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanocalc
from fanocalc.cli import main
from fanocalc.dsl import ParseError, parse
from fanocalc.scenarios import BUILTIN_SOURCES

BUILTINS = sorted(BUILTIN_SOURCES)


def invoke(*args):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = main(list(args), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# the directory this session imports fanocalc from, so a child process runs
# the same code whether or not the package is installed
SOURCE_ROOT = str(Path(fanocalc.__file__).resolve().parent.parent)


def spawn(*args):
    return subprocess.run(
        [sys.executable, "-m", "fanocalc.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SOURCE_ROOT},
    )


# ---------------------------------------------------------------------------
# in-process behavior

def test_list_prints_builtin_names():
    code, out, _ = invoke("list")
    assert code == 0
    assert out.splitlines() == BUILTINS


def test_run_all_passes_and_exits_zero():
    code, out, _ = invoke("run", "--all")
    assert code == 0, out
    assert out.rstrip().endswith("70 assertions, 0 failed")
    assert "FAIL" not in out


def test_run_json_schema_and_totals():
    code, out, _ = invoke("run", "--all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["total"] == 70
    assert list(payload) == sorted(payload)
    assert [s["name"] for s in payload["scenarios"]] == BUILTINS


def test_run_selected_scenarios():
    code, out, _ = invoke("run", "v14-link", "w5-xi-link")
    assert code == 0
    assert "v14-link/" in out
    assert "w5-xi-link/" in out
    assert "gr25-chern/" not in out


def test_run_unknown_scenario_exits_2():
    code, _, err = invoke("run", "no-such")
    assert code == 2
    assert "unknown scenario" in err


def test_run_rejects_a_name_given_twice():
    code, out, err = invoke("run", "v14-link", "w5-xi-link", "v14-link")
    assert (code, out, err) == (2, "", "run: scenario 'v14-link' given twice\n")


def test_run_without_names_or_all_exits_2():
    code, _, err = invoke("run")
    assert code == 2
    assert "nothing to run" in err


def test_run_rejects_names_combined_with_all():
    code, _, err = invoke("run", "--all", "v14-link")
    assert code == 2
    assert "not both" in err


def test_run_verbose_includes_notes():
    code, out, _ = invoke("run", "v14-link", "--verbose")
    assert code == 0
    assert "note v14-link:" in out


def test_check_passing_file(tmp_path):
    path = tmp_path / "ok.scn"
    path.write_text(BUILTIN_SOURCES["w5-xi-link"], encoding="utf-8")
    code, out, _ = invoke("check", str(path))
    assert code == 0
    assert out.rstrip().endswith("3 assertions, 0 failed")


def test_check_json_reports_cycle_equality_as_a_bool(tmp_path):
    path = tmp_path / "pieri.scn"
    path.write_text(
        'scenario "pieri" {\n'
        "  grassmannian 2 5\n"
        '  assert sigma[1] * sigma[1] == sigma[2] + sigma[1, 1] cite "Pieri" label "p"\n'
        "}\n",
        encoding="utf-8",
    )
    code, out, _ = invoke("check", str(path), "--format", "json")
    assert code == 0, out
    (result,) = json.loads(out)["scenarios"][0]["assertions"]
    assert result["pass"] is True


MIXED = (
    'scenario "mixed" {\n'
    "  grassmannian 2 5\n"
    '  assert 0 * sigma[1] != 0 cite "c" label "ne"\n'
    '  assert 0 * sigma[1] == 0 cite "c" label "eq"\n'
    '  assert sigma[1]^0 == 1 cite "c" label "unit"\n'
    '  assert 0 * H == 0 cite "c" label "divisor"\n'
    "}\n"
)


def test_check_fails_a_number_compared_with_a_cycle_or_divisor(tmp_path):
    # a cycle or a divisor never equals a number, nor differs from one: the
    # row fails with the two types, actual first, whatever the operator
    path = tmp_path / "mixed.scn"
    path.write_text(MIXED, encoding="utf-8")
    code, out, _ = invoke("check", str(path))
    assert code == 1
    cycle = "error: TypeError: cannot compare SchubertCycle with int"
    divisor = "error: TypeError: cannot compare Divisor with int"
    assert out.splitlines() == [
        f"FAIL mixed/ne expected=0 actual={cycle} cite: c",
        f"FAIL mixed/eq expected=0 actual={cycle} cite: c",
        f"FAIL mixed/unit expected=1 actual={cycle} cite: c",
        f"FAIL mixed/divisor expected=0 actual={divisor} cite: c",
        "4 assertions, 4 failed",
    ]
    code, out, _ = invoke("check", str(path), "--format", "json")
    assert code == 1
    rows = json.loads(out)["scenarios"][0]["assertions"]
    assert [(r["label"], r["expected"], r["actual"], r["pass"]) for r in rows] == [
        ("ne", 0, cycle, False),
        ("eq", 0, cycle, False),
        ("unit", 1, cycle, False),
        ("divisor", 0, divisor, False),
    ]


def test_check_has_no_verbose_option(tmp_path):
    # scenario files carry no notes, so check has nothing for --verbose to add
    path = tmp_path / "ok.scn"
    path.write_text(BUILTIN_SOURCES["w5-xi-link"], encoding="utf-8")
    code, _, _ = invoke("check", str(path), "--verbose")
    assert code == 2


def test_check_top_chern_degree_of_gr510(tmp_path):
    # c_top of Gr(5,10) integrates to its Euler number C(10,5)
    path = tmp_path / "gr510.scn"
    path.write_text(
        'scenario "gr510" {\n'
        "  grassmannian 5 10\n"
        '  assert degree(chern(5, 10, 0, 25)) == 252 cite "Euler number C(10,5)" label "e"\n'
        "}\n",
        encoding="utf-8",
    )
    code, out, _ = invoke("check", str(path), "--format", "json")
    assert code == 0, out
    (result,) = json.loads(out)["scenarios"][0]["assertions"]
    assert result["pass"] is True


def test_check_failing_file(tmp_path):
    path = tmp_path / "typo.scn"
    path.write_text(
        'scenario "typo" {\n'
        "  profile W22 h4 4 index 3 c2h2 20 chi 1 euler 12\n"
        "  center curve genus 0 hc 1\n"
        '  assert quartic(H - E, H - E, H - E, H - E) == 0 cite "should be 1"\n'
        "}\n",
        encoding="utf-8",
    )
    code, out, _ = invoke("check", str(path))
    assert code == 1
    assert "FAIL typo/a01 expected=0 actual=1" in out


def test_check_parse_error_exits_2(tmp_path):
    path = tmp_path / "broken.scn"
    path.write_text('scenario "x" {', encoding="utf-8")
    code, _, err = invoke("check", str(path))
    assert code == 2
    assert "line 1, column 15" in err


def test_check_keeps_a_lone_cr_inside_a_string(tmp_path):
    # only LF ends a line, so a string may hold a CR; check reads the file's characters unchanged
    path = tmp_path / "cr.scn"
    path.write_bytes(b'scenario "x" {\n  assert 1 == 1 cite "a\rb"\n}\n')
    code, out, err = invoke("check", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["scenarios"][0]["assertions"][0]["cite"] == "a\rb"


@pytest.mark.parametrize("source, position", [
    (b'scenario "x" {\r  bogus\n}\n', "line 1, column 18"),  # a lone CR is one column
    (b'scenario "x" {\r\n  bogus\r\n}\r\n', "line 2, column 3"),  # CRLF ends a line at its LF
], ids=["lone-cr", "crlf"])
def test_check_reports_the_positions_of_parse(tmp_path, source, position):
    path = tmp_path / "broken.scn"
    path.write_bytes(source)
    with pytest.raises(ParseError, match=f"^{position}: "):
        parse(source.decode("utf-8"))
    code, out, err = invoke("check", str(path))
    assert (code, out) == (2, "")
    assert err == f"check: {path}: {position}: expected a statement or '}}', found 'bogus'\n"


def test_check_overlong_literal_exits_2(tmp_path):
    path = tmp_path / "long.scn"
    path.write_text('scenario "x" {\n  assert ' + "1" * 5000 + ' == 1 cite "x"\n}\n', encoding="utf-8")
    code, out, err = invoke("check", str(path))
    assert code == 2
    assert out == ""
    assert "line 2, column 10: integer literal has 5000 digits" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("expr", ["2^20000", "solve(3, 0, 2^20000)", "solve(1, 0, 2^20000)"])
def test_check_unrenderable_value_fails_its_row(tmp_path, expr, fmt):
    # a value past the interpreter's int-string limit is that side's error, not a crash
    path = tmp_path / "huge.scn"
    path.write_text(f'scenario "huge" {{\n  assert {expr} == 0 cite "x"\n}}\n', encoding="utf-8")
    code, out, err = invoke("check", str(path), "--format", fmt)
    assert (code, err) == (1, "")
    if fmt == "json":
        (row,) = json.loads(out)["scenarios"][0]["assertions"]
        assert (row["pass"], row["expected"]) == (False, 0)
        assert row["actual"].startswith("error: ValueError: ")
    else:
        assert out.startswith("FAIL huge/a01 expected=0 actual=error: ValueError: ")
        assert out.endswith("1 assertions, 1 failed\n")


def test_check_missing_file_exits_2(tmp_path):
    code, _, err = invoke("check", str(tmp_path / "absent.scn"))
    assert code == 2
    assert "cannot read" in err


def test_check_undecodable_file_exits_2(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_bytes(b"\xff\xfe bad")
    code, out, err = invoke("check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"check: {path}: ")
    assert "can't decode byte 0xff" in err


def test_check_merges_multiple_files(tmp_path):
    a = tmp_path / "a.scn"
    b = tmp_path / "b.scn"
    a.write_text(BUILTIN_SOURCES["moduli-counts"], encoding="utf-8")
    b.write_text(BUILTIN_SOURCES["gr25-chern"], encoding="utf-8")
    code, out, _ = invoke("check", str(a), str(b), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [s["name"] for s in payload["scenarios"]] == ["gr25-chern", "moduli-counts"]


def test_check_rejects_a_scenario_name_repeated_across_files(tmp_path):
    # the same message and position as a repeat within one file
    a, b = tmp_path / "a.scn", tmp_path / "b.scn"
    a.write_text('scenario "x" {\n  assert 1 == 1 cite "x"\n}\n', encoding="utf-8")
    b.write_text('# b\nscenario "y" {}\n  scenario "x" {\n  assert 2 == 2 cite "x"\n}\n',
                 encoding="utf-8")
    for fmt in ("text", "json"):
        code, out, err = invoke("check", str(a), str(b), "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"check: {b}: line 3, column 3: duplicate scenario name 'x'\n"
    code, out, err = invoke("check", str(b), str(b))
    assert (code, out) == (2, "")
    assert err == f"check: {b}: line 2, column 1: duplicate scenario name 'y'\n"


def test_emit_then_check_round_trip(tmp_path):
    for name in BUILTINS:
        code, emitted, _ = invoke("emit", name)
        assert code == 0
        path = tmp_path / f"{name}.scn"
        path.write_text(emitted, encoding="utf-8")
        checked, out, err = invoke("check", str(path))
        assert checked == 0, (name, out, err)


def test_emit_unknown_scenario_exits_2():
    code, _, err = invoke("emit", "no-such")
    assert code == 2
    assert "unknown scenario" in err


def test_usage_errors_exit_2():
    assert invoke()[0] == 2
    assert invoke("frobnicate")[0] == 2
    assert invoke("run", "--format", "yaml")[0] == 2


# ---------------------------------------------------------------------------
# real processes

def test_console_entry_point_runs_everything():
    proc = spawn("run", "--all")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("70 assertions, 0 failed")


def test_json_is_byte_identical_across_processes():
    first = spawn("run", "--all", "--format", "json")
    second = spawn("run", "--all", "--format", "json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_process_exit_codes():
    assert spawn("run", "no-such").returncode == 2
