"""Each distinct expression of a scenario is one node, evaluated once per build,
or once per document when no setup statement can change its value.

A scenario's report is checked against a second route: its rows, read
from the source text, run one per scenario, each in a document of its own
after the same setup statements, so no row can take a value from another.
The engine calls of one pass of the built-in scenarios are counted.
"""

import json
import re
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanocalc import blowup, dsl, profiles
from fanocalc.chern import tangent_bundle
from fanocalc.dsl import AssertStmt, parse
from fanocalc.scenarios import BUILTIN_SOURCES, builtin_scenarios, run
from fanocalc.schubert import Grassmannian

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import generate_scenarios  # noqa: E402


def _rows(source):
    """Scenario name -> its report rows, from one build of the document ``source``."""
    report = json.loads(run(parse(source).build()).to_json())
    return {s["name"]: s["assertions"] for s in report["scenarios"]}


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
    sources, _ = generate_scenarios(seed)
    for source in sources:
        assert _rows(source) == _row_by_row(source)


# Sides that raise, each its own way: an unknown function, an arity, an
# argument type, the engine, a power past the bound, and a partition out of
# the box or under no grassmannian statement.
_RAISING = ("foo(H)", "sigma(1)", "quartic(H, H, H)", "chi(2)", "solve(0, 1, 1)", "2^(2^40)",
            "degree(H)", "sigma[1, 1, 1, 1, 1, 1, 1]")


def _builtin_parts(name):
    """The setup statements of a built-in, its rows and the sides of its rows, printed."""
    (node,) = parse(BUILTIN_SOURCES[name]).scenarios
    asserts = [s for s in node.statements if isinstance(s, AssertStmt)]
    setups = [dsl._print_statement(s) for s in node.statements if not isinstance(s, AssertStmt)]
    rows = [f"{dsl._print_expr(s.left)} {s.op} {dsl._print_expr(s.right)}" for s in asserts]
    sides = sorted({dsl._print_expr(side) for s in asserts for side in (s.left, s.right)})
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
    assert type(call) is dsl.Call and type(atom) is dsl.SigmaAtom and call is again
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
    assert p4 is not w22
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
# the per-process caches are filled: each distinct call of a scenario once.
# A chi() call pairs its quadratic off the model's table and makes no
# quartic_number call.
_ENGINE_CALLS = {
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
    if isinstance(node, dsl.Neg):
        return _setup_free(node.operand)
    return isinstance(node, dsl.BinOp) and _setup_free(node.left) and _setup_free(node.right)


def test_a_second_pass_of_the_builtins_applies_no_operator_to_setup_free_operands(monkeypatch):
    run(builtin_scenarios())  # each built-in document keeps its setup-free values
    evaluating, applied = [], []
    value = dsl._value

    def traced(node, setup, memo):  # every _value call of a build made from now on
        evaluating.append(node)
        try:
            return value(node, setup, memo)
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
    assert [dsl._print_expr(node) for node in applied if _setup_free(node)] == []
    # a fresh parse of the same text computes its setup-free operators once again
    applied.clear()
    assert run(parse(BUILTIN_SOURCES["v12-link"]).build()).failed == 0
    assert sorted(dsl._print_expr(node) for node in applied if _setup_free(node)) == [
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
