"""Each distinct expression of a document is one node, evaluated once per build
and distinct set of setup statements, or once per document when no setup
statement can change its value.

A scenario's report is checked against a second route: its rows, read
from the source text, run one per scenario, each in a document of its own
after the same setup statements, so no row can take a value from another.
The engine calls of one pass of the built-in scenarios, and of one check
of the seed-41 bench files, are counted.
"""

import hashlib
import io
import json
import random
import re
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanocalc import blowup, cli, dsl, profiles, syntax
from fanocalc.chern import tangent_bundle
from fanocalc.dsl import Document, parse
from fanocalc.scenarios import BUILTIN_SOURCES, builtin_scenarios, run
from fanocalc.syntax import AssertStmt
from fanocalc.schubert import Grassmannian

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import generate_scenarios  # noqa: E402


def _report_rows(scenarios):
    """Scenario name -> its report rows, from one run of ``scenarios``."""
    report = json.loads(run(scenarios).to_json())
    return {s["name"]: s["assertions"] for s in report["scenarios"]}


def _rows(source):
    """Scenario name -> its report rows, from one build of the document ``source``."""
    return _report_rows(parse(source).build())


def _row_by_row(source):
    """The same, each row run alone, after its scenario's setup statements.

    The rows and setup statements are read from the text, one statement a
    line, so this route shares no parse with the first: a node the parser
    wrongly shared would give the two routes different rows."""
    found = {}
    for line in source.splitlines():
        line = line.strip()
        if line.startswith("scenario "):
            (name,) = (node.name for node in parse(line + "}").scenarios)
            header, setups, found[name] = line, [], []
        elif line.startswith(("profile ", "center ", "grassmannian ")):
            setups.append(line)
        elif line.startswith("assert "):
            counter = len(found[name]) + 1
            row = line if re.search(r'label "[^"]*"$', line) else f'{line} label "a{counter:02d}"'
            found[name].extend(*_rows("\n".join([header, *setups, row, "}"])).values())
    return found


# ---------------------------------------------------------------------------
# sharing changes no outcome

@pytest.mark.parametrize("name", sorted(BUILTIN_SOURCES))
def test_a_builtin_reports_as_its_rows_run_alone(name):
    assert _rows(BUILTIN_SOURCES[name]) == _row_by_row(BUILTIN_SOURCES[name])


@pytest.mark.parametrize("seed", [41, 7])
def test_a_bench_file_reports_as_its_rows_run_alone(seed):
    # and as it does in one document with the other seven, as check reads them
    sources, _ = generate_scenarios(seed)
    document = Document()
    for source in sources:
        parse(source, document)
    together = _report_rows(document.build())
    alone = {}
    for source in sources:
        rows = _rows(source)
        assert rows == _row_by_row(source)
        alone.update(rows)
    assert together == alone


def _bench_files(tmp_path, seed):
    """The paths of the eight bench files of ``seed``, written under ``tmp_path``."""
    paths = []
    for i, source in enumerate(generate_scenarios(seed)[0]):
        path = tmp_path / f"seed{seed}-{i:02d}.scn"
        path.write_text(source, encoding="utf-8")
        paths.append(str(path))
    return paths


def _check(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["check", *argv], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
@pytest.mark.parametrize("seed", [41, 7])
def test_check_of_the_bench_files_in_any_order_hashes_to_its_golden_digest(tmp_path, seed, order):
    golden = Path(__file__).resolve().parent / "golden" / "check.sha256"
    digests = dict(reversed(line.split("  ")) for line in golden.read_text(encoding="utf-8").splitlines())
    paths = _bench_files(tmp_path, seed)
    if order == "reversed":
        paths.reverse()
    elif order == "shuffled":
        random.Random(5).shuffle(paths)
    for fmt in ("text", "json"):
        code, out, err = _check(*paths, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[f"check-seed{seed}.{fmt}"], fmt


_W5 = "profile W5 h4 5 index 3 c2h2 22 chi 1 euler 6"
_W5_XI = "center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 5"
_W5_PI = "center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 4"  # one field from _W5_XI
_LINK_ROWS = ('assert quartic(H - E, H - E, H - E, H - E) == {} cite "L4"'
              ' assert chi(H - E) == 5 cite "chi"')


def test_files_share_an_engine_call_only_under_equal_setup_statements(tmp_path, monkeypatch):
    files = {
        "xi.scn": f'scenario "xi" {{ {_W5} {_W5_XI} {_LINK_ROWS.format(1)} }}',
        "pi.scn": f'scenario "pi" {{ {_W5} {_W5_PI} {_LINK_ROWS.format(0)} }}',
        # xi's setup statements, written in the other order
        "xi-again.scn": f'scenario "xi-again" {{ {_W5_XI} {_W5} {_LINK_ROWS.format(1)} }}',
    }
    for name, source in files.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    paths = [str(tmp_path / name) for name in files]
    calls = _count_calls(monkeypatch, ["blowup.quartic_number", "blowup.chi_riemann_roch"])
    models, model = [], dsl.BlowupModel
    monkeypatch.setattr(dsl, "BlowupModel", lambda *args: models.append(args) or model(*args))
    code, out, err = _check(*paths, "--format", "json")
    assert (code, err) == (0, "")
    rows = {s["name"]: [row["actual"] for row in s["assertions"]] for s in json.loads(out)["scenarios"]}
    assert rows == {"xi": [1, 5], "xi-again": [1, 5], "pi": [0, 5]}
    # one model and one call of each function per distinct set of setup statements
    assert len(models) == 2
    assert calls == {"blowup.quartic_number": 2, "blowup.chi_riemann_roch": 2}
    document = Document()
    for source in files.values():
        parse(source, document)
    xi, pi, again = (node.setups for node in document.scenarios)
    assert xi["profile"] is pi["profile"] is again["profile"]
    assert xi["center"] is again["center"] and xi["center"] is not pi["center"]


# Sides that raise, each its own way: an unknown function, an arity, an
# argument type, the engine, a power past the bound, and a partition out of
# the box or under no grassmannian statement.
_RAISING = ("foo(H)", "sigma(1)", "quartic(H, H, H)", "chi(2)", "solve(0, 1, 1)", "2^(2^40)",
            "degree(H)", "sigma[1, 1, 1, 1, 1, 1, 1]")


def _builtin_parts(name):
    """The setup statements of a built-in, its rows and the sides of its rows, printed."""
    (node,) = parse(BUILTIN_SOURCES[name]).scenarios
    asserts = [s for s in node.statements if isinstance(s, AssertStmt)]
    setups = [syntax._print_statement(s) for s in node.statements if not isinstance(s, AssertStmt)]
    rows = [f"{syntax._print_expr(s.left)} {s.op} {syntax._print_expr(s.right)}" for s in asserts]
    sides = sorted({syntax._print_expr(side) for s in asserts for side in (s.left, s.right)})
    return setups, rows, sides


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_SOURCES)), st.data())
def test_a_mutated_builtin_reports_as_its_rows_run_alone(name, data):
    # rows of the built-in, repeated and reordered, and rows over its sides
    # and over sides that raise
    setups, rows, sides = _builtin_parts(name)
    side = st.sampled_from(sides + list(_RAISING))
    combined = st.one_of(side, st.tuples(side, st.sampled_from("+-*"), side).map(
        lambda t: f"({t[0]}) {t[1]} ({t[2]})"))
    drawn = data.draw(st.lists(
        st.one_of(st.sampled_from(rows),
                  st.tuples(combined, st.sampled_from(["==", "!="]), combined).map(" ".join)),
        min_size=1, max_size=8))
    lines = setups + [f'assert {row} cite "drawn"' for row in drawn]
    source = f'scenario "{name}" {{\n' + "".join(f"  {line}\n" for line in lines) + "}\n"
    assert _rows(source) == _row_by_row(source)


def test_a_call_and_an_atom_of_one_text_stay_two_nodes():
    source = (
        'scenario "a" {\n'
        "  grassmannian 2 5\n"
        '  assert sigma(1) == 0 cite "x"\n'
        '  assert sigma[1] == sigma[1] cite "y"\n'
        '  assert sigma(1) != 0 cite "z"\n'
        "}\n"
    )
    (node,) = parse(source).scenarios
    call, atom, again = (stmt.left for stmt in node.statements[1:])
    assert type(call) is syntax.Call and type(atom) is syntax.SigmaAtom and call is again
    report = _rows(source)
    assert [(row["actual"], row["pass"]) for row in report["a"]] == [
        ("error: ValueError: unknown function 'sigma'", False), ("sigma[1]", True),
        ("error: ValueError: unknown function 'sigma'", False),
    ]
    assert report == _row_by_row(source)


def test_one_call_in_two_scenarios_takes_each_scenarios_value():
    source = (
        'scenario "p4" { profile P4 h4 1 index 5 c2h2 10 chi 1 euler 5 center curve genus 0 hc 1'
        ' assert quartic(H, H, H, H) == 1 cite "x" }'
        ' scenario "w22" { profile W22 h4 4 index 3 c2h2 20 chi 1 euler 12 center curve genus 0 hc 1'
        ' assert quartic(H, H, H, H) == 4 cite "x" }'
    )
    p4, w22 = (node.statements[-1].left for node in parse(source).scenarios)
    assert p4 is w22  # one node of the document, with a value under each setup
    assert {name: [row["actual"] for row in rows] for name, rows in _rows(source).items()} == {
        "p4": [1], "w22": [4]}


def test_a_raising_call_fails_each_row_that_shares_it(monkeypatch):
    solve, calls = blowup.solve_linear, []
    monkeypatch.setattr(blowup, "solve_linear", lambda *args: calls.append(args) or solve(*args))
    source = 'scenario "a" { assert solve(0, 1, 1) == 0 cite "x" assert 1 + solve(0, 1, 1) != 0 cite "y" }'
    error = "error: ValueError: cannot solve a degenerate linear equation"
    assert [(row["actual"], row["pass"]) for row in _rows(source)["a"]] == [(error, False)] * 2
    assert calls == [(0, 1, 1)] * 2  # a failure is not kept, so each row raises it again


# ---------------------------------------------------------------------------
# work counts

# Engine function -> its calls in one pass of the built-in scenarios, once
# the per-process caches are filled: each distinct call once per distinct set
# of setup statements, so gr25-chern and w5-invariants, whose one setup
# statement is grassmannian 2 5, share theirs.
# A chi() call pairs its quadratic off the model's table and makes no
# quartic_number call.
_ENGINE_CALLS = {
    "schubert._carry": 4,
    "schubert.multiply": 19,
    "blowup.quartic_number": 19,
    "blowup.chi_riemann_roch": 5,
    "profiles.section_model": 10,
}


def _count_calls(monkeypatch, paths):
    """Path -> its calls from now on, wherever the package looks it up."""
    calls = dict.fromkeys(paths, 0)
    package = [module for name, module in sys.modules.items()
               if name == "fanocalc" or name.startswith("fanocalc.")]
    for path in paths:
        module, attr = path.split(".")
        original = getattr(sys.modules[f"fanocalc.{module}"], attr)

        def counted(*args, _path=path, _original=original):
            calls[_path] += 1
            return _original(*args)

        for site in package:  # every module that binds it, as a tracer would
            if getattr(site, attr, None) is original:
                monkeypatch.setattr(site, attr, counted)
    return calls


def _clear_section_caches():
    for cached in (tangent_bundle, profiles.section_model, profiles.section_profile,
                   profiles.surface_pairings):
        cached.cache_clear()


def test_a_pass_of_the_builtins_makes_a_fixed_number_of_engine_calls(monkeypatch):
    run(builtin_scenarios())  # fills the per-process caches
    before = profiles.surface_pairings.cache_info()
    calls = _count_calls(monkeypatch, _ENGINE_CALLS)
    assert run(builtin_scenarios()).failed == 0
    assert calls == _ENGINE_CALLS
    # the three surface centres (Xi, Pi, the V14 plane) read their pairings off the cache
    after = profiles.surface_pairings.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)


def _setup_free(node):
    """Whether no setup statement can change the value of ``node``: a leaf, or an operator over such nodes."""
    if isinstance(node, (int, blowup.Divisor)):
        return True
    if isinstance(node, syntax.Neg):
        return _setup_free(node.operand)
    return isinstance(node, syntax.BinOp) and _setup_free(node.left) and _setup_free(node.right)


class _CountedPattern:
    """A stand-in for a compiled pattern that counts its matches, and ``misses`` of a _PLAIN match.

    A miss is a _PLAIN match whose text the document ``documents[-1]`` has
    not read yet, so the parser reads it token by token."""

    def __init__(self, pattern, documents=None):
        self.pattern, self.documents, self.matches, self.misses = pattern, documents, 0, 0

    def match(self, source, offset):
        m = self.pattern.match(source, offset)
        self.matches += 1
        if self.documents is not None and m is not None and m[1] not in self.documents[-1].operands:
            self.misses += 1
        return m


def test_a_check_of_the_seed41_files_makes_a_fixed_number_of_engine_calls(tmp_path, monkeypatch):
    # the eight files are one document and one build, so each distinct call
    # is computed once per distinct set of setup statements: six
    paths = _bench_files(tmp_path, 41)
    calls = _count_calls(monkeypatch, ["blowup.chi_riemann_roch", "blowup.quartic_number"])
    models, model = [], dsl.BlowupModel
    monkeypatch.setattr(dsl, "BlowupModel", lambda *args: models.append(args) or model(*args))
    documents, parse_into = [], dsl.parse
    monkeypatch.setattr(dsl, "parse", lambda source, document=None: (
        documents.append(document) or parse_into(source, document)))
    token, plain, tail = (_CountedPattern(syntax._TOKEN), _CountedPattern(syntax._PLAIN, documents),
                          _CountedPattern(syntax._TAIL))
    for name, counted in (("_TOKEN", token), ("_PLAIN", plain), ("_TAIL", tail)):
        monkeypatch.setattr(syntax, name, counted)
    code, _, err = _check(*paths, "--format", "json")
    assert (code, err) == (0, "")
    assert len(documents) == 8 and len(set(map(id, documents))) == 1
    assert calls == {"blowup.chi_riemann_roch": 886, "blowup.quartic_number": 3582}
    assert len(models) == 6
    assert (token.matches, plain.matches, plain.misses, tail.matches) == (48115, 19200, 81, 2400)


def test_a_second_pass_of_the_builtins_applies_no_operator_to_setup_free_operands(monkeypatch):
    run(builtin_scenarios())  # the built-in document keeps its setup-free values
    evaluating, applied = [], []
    value = dsl._value

    def traced(node, setup):  # every _value call of a build made from now on
        evaluating.append(node)
        try:
            return value(node, setup)
        finally:
            evaluating.pop()

    def recorded(*operands, _rule):
        applied.append(evaluating[-1])  # the node whose operator this is
        return _rule(*operands)

    monkeypatch.setattr(dsl, "_value", traced)
    for op, rule in list(dsl._OPERATORS.items()):
        monkeypatch.setitem(dsl._OPERATORS, op, partial(recorded, _rule=rule))
    assert run(builtin_scenarios()).failed == 0
    assert applied, "the operators over calls and sigma[...] atoms run in every pass"
    assert [syntax._print_expr(node) for node in applied if _setup_free(node)] == []
    # a fresh parse of the same text computes its setup-free operators once again
    applied.clear()
    assert run(parse(BUILTIN_SOURCES["v12-link"]).build()).failed == 0
    assert sorted(syntax._print_expr(node) for node in applied if _setup_free(node)) == [
        "-1", "-12", "-12 * (1 - 1)", "1 - 1", "2 * (7 - 1)", "2 * H", "2 * H - E", "7 - 1",
        "H - E"]


def test_a_first_pass_of_the_builtins_builds_chern_classes_to_degree_4(monkeypatch):
    # every section class the built-ins read is built to degree 4, once per
    # process: whole tangent classes would take 393 products
    _clear_section_caches()
    calls = _count_calls(monkeypatch, ["schubert.multiply"])
    assert run(builtin_scenarios()).failed == 0
    assert calls == {"schubert.multiply": 217}


def test_a_document_reading_every_chern_degree_builds_each_class_twice_at_most(monkeypatch):
    # rows of degree up to 4 share the class built to degree 4 (37 products),
    # the others the whole class (397): no class is built once per degree
    _clear_section_caches()
    rows = "".join(f'  assert degree(chern(4, 8, 0, {i})) == {70 * (i == 16)} cite "c"\n' for i in range(17))
    calls = _count_calls(monkeypatch, ["schubert.multiply"])
    report = run(parse(f'scenario "gr48" {{\n{rows}}}\n').build())
    assert (report.total, report.failed) == (17, 0)
    assert calls["schubert.multiply"] <= 397 + 37


def test_a_chern_degree_past_the_dimension_reads_zero_and_builds_no_more(monkeypatch):
    _clear_section_caches()
    calls = _count_calls(monkeypatch, ["schubert.multiply"])
    source = ('scenario "c" {\n  grassmannian 2 5\n'
              '  assert degree(chern(2, 5, 0, 1000000)) == 0 cite "x"\n'
              '  assert chern(2, 5, 0, 1000000) * sigma[1] == chern(2, 5, 0, 1000001) cite "x"\n}\n')
    assert [row["pass"] for row in _rows(source)["c"]] == [True, True]
    # a degree past dim Gr(2,5) - 0 = 6 is the zero class, read before any
    # class is built: the one product is the row's own
    assert calls["schubert.multiply"] == 0 + 1
    assert tangent_bundle.cache_info().currsize == 0


@pytest.mark.parametrize("row, actual", [
    ("degree(chern(2, 5, 0, -1)) == 0",  # a negative degree stays an error row
     "error: ValueError: a Chern class index must be non-negative, got -1"),
    ("degree(chern(2, 5, 0, 1000000)) == 0", 0),
    ("degree(chern(2, 5, 2, 5)) == 0", 0),
    ("degree(chern(6, 13, 0, 1000000)) == 0", 0),
])
def test_a_chern_degree_outside_the_section_builds_no_class(monkeypatch, row, actual):
    # the whole class of Gr(6,13) takes about 4 s to build
    _clear_section_caches()
    calls = _count_calls(monkeypatch, ["schubert.multiply"])
    (result,) = _rows(f'scenario "c" {{ assert {row} cite "x" }}')["c"]
    assert result["actual"] == actual
    assert calls["schubert.multiply"] == 0
    assert tangent_bundle.cache_info().currsize == 0
