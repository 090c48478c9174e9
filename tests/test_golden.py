"""The command line's outputs, byte for byte, against files recorded from an earlier tree.

``tests/golden`` holds ``list``, ``run --all`` (text, JSON and ``--verbose``)
and ``emit`` of every built-in, and the sha256 of ``check`` (text and JSON)
on the eight seeded files of ``bench/workloads.generate_scenarios`` for seeds
41 and 7.  ``check`` of the built-in sources prints the ``run --all`` files.
A change that claims to keep every output must keep these.
"""

import hashlib
import io
import sys
from pathlib import Path

import pytest

from fanocalc.cli import main
from fanocalc.scenarios import BUILTIN_SOURCES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import generate_scenarios  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"


def _output(argv):
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out=out, err=err) == 0, err.getvalue()
    assert err.getvalue() == ""
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("argv, name", [
    pytest.param(argv, name, id=name) for argv, name in [
        (["list"], "list.txt"),
        (["run", "--all"], "run-all.txt"),
        (["run", "--all", "--format", "json"], "run-all.json"),
        (["run", "--all", "--verbose"], "run-all-verbose.txt"),
        *((["emit", scenario], f"emit-{scenario}.scn") for scenario in sorted(BUILTIN_SOURCES)),
    ]
])
def test_an_output_is_its_golden_file(argv, name):
    assert _output(argv) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fmt, name", [("text", "run-all.txt"), ("json", "run-all.json")])
def test_check_of_the_builtin_sources_prints_run_all(fmt, name, tmp_path):
    paths = []
    for scenario, source in sorted(BUILTIN_SOURCES.items()):
        paths.append(tmp_path / f"{scenario}.scn")
        paths[-1].write_text(source, encoding="utf-8")
    assert _output(["check", *map(str, paths), "--format", fmt]) == (GOLDEN / name).read_bytes()


def test_every_builtin_has_a_golden_emit():
    recorded = {path.name for path in GOLDEN.glob("emit-*.scn")}
    assert recorded == {f"emit-{scenario}.scn" for scenario in BUILTIN_SOURCES}


@pytest.mark.parametrize("seed", [41, 7])
def test_check_on_the_bench_files_hashes_to_its_golden_digest(seed, tmp_path):
    digests = dict(
        reversed(line.split("  ")) for line in (GOLDEN / "check.sha256").read_text(encoding="utf-8").splitlines()
    )
    paths = []
    for i, source in enumerate(generate_scenarios(seed)[0]):
        path = tmp_path / f"seed{seed}-{i:02d}.scn"
        path.write_text(source, encoding="utf-8")
        paths.append(str(path))
    for fmt in ("text", "json"):
        output = _output(["check", *paths, "--format", fmt])
        assert hashlib.sha256(output).hexdigest() == digests[f"check-seed{seed}.{fmt}"], fmt
