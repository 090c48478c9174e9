"""The built-in verification scenarios and the report layer."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanocalc import dsl, profiles
from fanocalc.scenarios import (
    BUILTIN_NOTES,
    BUILTIN_SOURCES,
    Assertion,
    Report,
    Scenario,
    _builtin_document,
    builtin_scenarios,
    pretty_builtin,
    run,
)

BUILTIN_NAMES = [
    "gr25-chern",
    "gr26-v14-plane",
    "moduli-counts",
    "sanity-p4-line",
    "v12-link",
    "v14-link",
    "w22-line-link",
    "w5-invariants",
    "w5-pi-link",
    "w5-xi-link",
]


def test_builtin_names_and_shapes():
    scenarios = builtin_scenarios()
    assert [s.name for s in scenarios] == sorted(BUILTIN_SOURCES)
    assert sorted(BUILTIN_SOURCES) == sorted(BUILTIN_NAMES)
    for source_name, source in BUILTIN_SOURCES.items():
        document = dsl.parse(source)
        assert [node.name for node in document.scenarios] == [source_name]


def test_all_builtin_scenarios_pass():
    report = run(builtin_scenarios())
    assert report.failed == 0, report.to_text()
    assert report.total == 70
    assert len(report.scenarios) == 10


def test_report_is_deterministic():
    first = run(builtin_scenarios()).to_json()
    second = run(builtin_scenarios()).to_json()
    assert first == second


def test_scenarios_are_isolated():
    full = {s["name"]: s for s in json.loads(run(builtin_scenarios()).to_json())["scenarios"]}
    for name in ("v14-link", "moduli-counts"):
        subset = [s for s in builtin_scenarios() if s.name == name]
        partial = json.loads(run(subset).to_json())["scenarios"]
        assert partial == [full[name]]


def test_report_scenarios_are_sorted_regardless_of_input_order():
    scenarios = builtin_scenarios()
    report = run(list(reversed(scenarios)))
    names = [s.name for s in report.scenarios]
    assert names == sorted(names)


def test_json_schema():
    payload = json.loads(run(builtin_scenarios()).to_json())
    assert set(payload) == {"scenarios", "total", "failed"}
    assert payload["total"] == 70
    assert payload["failed"] == 0
    for scenario in payload["scenarios"]:
        assert set(scenario) == {"name", "assertions", "pass"}
        for assertion in scenario["assertions"]:
            assert set(assertion) == {"label", "expected", "actual", "pass", "cite"}


def test_deliberate_failure_is_reported_not_raised():
    source = (
        'scenario "broken" {\n'
        "  profile W22 h4 4 index 3 c2h2 20 chi 1 euler 12\n"
        "  center curve genus 0 hc 1\n"
        '  assert quartic(H - E, H - E, H - E, H - E) == 0 cite "wrong on purpose"\n'
        "}\n"
    )
    report = run(dsl.parse(source).build())
    assert report.total == 1
    assert report.failed == 1
    row = json.loads(report.to_json())["scenarios"][0]["assertions"][0]
    assert row["actual"] == 1
    assert row["expected"] == 0
    assert row["pass"] is False
    assert "FAIL broken/a01" in report.to_text()


def test_setup_errors_become_failed_assertions():
    source = 'scenario "no-model" { assert euler() == 0 cite "missing statements" }'
    report = run(dsl.parse(source).build())
    assert report.failed == 1
    row = json.loads(report.to_json())["scenarios"][0]["assertions"][0]
    assert isinstance(row["actual"], str)
    assert row["actual"].startswith("error: ")


_W5 = "profile W5 h4 5 index 3 ambient gr25 codim 2 chi 1 euler 6"
_PLANE = "center surface hhc 1 hkc -3 kc2 9 euler 3"
_MISMATCH = "ValueError: center literals (hhc, c2xc) = {} disagree with the derived values {}"
_NEEDS_GRASSMANNIAN = "ValueError: a surface class needs a profile with a Grassmannian ambient"


@pytest.mark.parametrize(
    "setup, error, derived",
    [
        ("profile W5 h4 6 index 3 ambient gr25 codim 2 chi 1 euler 6 center curve genus 0 hc 1",
         "ValueError: profile literals (h4, index, chi, euler) = (6, 3, 1, 6)"
         " disagree with the derived values (5, 3, 1, 6)",
         ["section_profile"]),
        (f"{_W5} {_PLANE} c2xc 7 sigma[2, 2]", _MISMATCH.format((1, 7), (1, 5)),
         ["section_profile", "surface_pairings"]),
        (f"{_W5} center surface hhc 2 hkc -3 kc2 9 euler 3 c2xc 5 sigma[2, 2]",
         _MISMATCH.format((2, 5), (1, 5)), ["section_profile", "surface_pairings"]),
        ("profile W22 h4 4 index 3 ambient w22 codim 0 chi 1 euler 12"
         " center surface hhc 5 hkc -5 kc2 5 euler 7 c2xc 24",
         _MISMATCH.format((5, 24), (5, 25)), ["section_profile"]),
        (f"{_W5} {_PLANE} c2xc 5 sigma[1]", "ValueError: (1,) is not a surface class in Gr(2,5)",
         ["section_profile", "surface_pairings"]),
        (f"profile V14 h4 14 index 2 ambient gr26 codim 4 chi 1 euler 12 {_PLANE} c2xc 2",
         "ValueError: a surface center in ambient 'gr26' needs its Schubert class",
         ["section_profile"]),
        (f"profile W5 h4 5 index 3 c2h2 22 chi 1 euler 6 {_PLANE} c2xc 5 sigma[2, 2]",
         _NEEDS_GRASSMANNIAN, []),
        (f"profile P4 h4 1 index 5 ambient p4 codim 0 chi 1 euler 5 {_PLANE} c2xc 10 sigma[2]",
         _NEEDS_GRASSMANNIAN, ["section_profile"]),
    ],
    ids=["h4", "c2xc", "hhc", "quintic-c2xc", "not-a-surface", "no-class", "class-c2h2",
         "class-p4"],
)
def test_profile_literal_cross_check_failure(monkeypatch, setup, error, derived):
    # a stated number that disagrees with the engine fails every row alike, derived once
    calls = []
    for name in ("section_profile", "surface_pairings"):
        original = getattr(profiles, name)
        monkeypatch.setattr(profiles, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
    source = (
        f'scenario "liar" {{\n  {setup}\n'
        '  assert quartic(H, H, H, H) == 5 cite "h4"\n'
        '  assert chi(H) == 0 cite "chi"\n'
        '  assert euler() == 6 cite "euler"\n'
        "}\n"
    )
    report = run(dsl.parse(source).build())
    rows = json.loads(report.to_json())["scenarios"][0]["assertions"]
    assert report.failed == len(rows) == 3
    assert {row["actual"] for row in rows} == {f"error: {error}"}
    assert calls == derived


_OUT_OF_RANGE = "ValueError: section codimension must satisfy 0 <= codim < dim"
_NOT_A_FOURFOLD = "ValueError: codim {} does not cut ambient {!r} down to a fourfold"


@pytest.mark.parametrize(
    "body, error",
    [
        *((f"assert chern(2, 5, {codim}, 1) == 0", _OUT_OF_RANGE) for codim in (-1, 6, 100000)),
        *((f"profile X h4 5 index 3 ambient {ambient} codim {codim} chi 1 euler 6"
           " center curve genus 0 hc 1 assert euler() == 6", _NOT_A_FOURFOLD.format(codim, ambient))
          for ambient, codim in (("gr25", -1), ("gr25", 6), ("gr25", 100000), ("gr25", 1),
                                 ("p4", -1), ("p4", 1), ("w22", 1), ("gr24", 100000))),
    ],
)
def test_codim_is_checked_before_any_section_is_built(monkeypatch, body, error):
    # an unchecked codim would build (1,) * codim hyperplanes first: the row fails before that
    calls = []
    for name in ("section_model", "section_profile"):
        original = getattr(profiles, name)
        monkeypatch.setattr(profiles, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
    source = f'scenario "codim" {{ {body} cite "c" }}'
    (row,) = json.loads(run(dsl.parse(source).build()).to_json())["scenarios"][0]["assertions"]
    assert row["actual"] == f"error: {error}"
    assert calls == []


def test_not_equal_comparison():
    source = 'scenario "ne" { assert 2 - 1 != 2 cite "trivial" }'
    report = run(dsl.parse(source).build())
    assert report.failed == 0


def test_empty_run():
    report = run([])
    assert report.total == 0
    assert report.failed == 0
    assert json.loads(report.to_json()) == {"scenarios": [], "total": 0, "failed": 0}


def test_notes_surface_only_in_verbose_text():
    report = run(builtin_scenarios())
    plain = report.to_text()
    verbose = report.to_text(verbose=True)
    assert "note " not in plain
    assert "note v14-link:" in verbose
    assert "note sanity-p4-line:" in verbose
    # notes never enter the JSON schema
    assert "note" not in json.loads(report.to_json())["scenarios"][0]


def test_builtin_notes_attach_to_known_scenarios():
    assert set(BUILTIN_NOTES) <= set(BUILTIN_SOURCES)
    by_name = {s.name: s for s in builtin_scenarios()}
    for name, notes in BUILTIN_NOTES.items():
        assert by_name[name].notes == list(notes)


def test_assertion_rejects_unknown_operator():
    with pytest.raises(ValueError):
        Assertion("x", "c", "<=", lambda: 0, lambda: 0)


def test_fraction_rendering():
    scenario = Scenario(
        "fractions",
        [
            Assertion(
                "half",
                "solve keeps exact rationals",
                "==",
                lambda: __import__("fractions").Fraction(1, 2),
                lambda: __import__("fractions").Fraction(1, 2),
            )
        ],
    )
    row = json.loads(run([scenario]).to_json())["scenarios"][0]["assertions"][0]
    assert row["expected"] == "1/2"
    assert row["pass"] is True


# ---------------------------------------------------------------------------
# the JSON report is byte for byte the indented, key-sorted json.dumps


def assert_canonical_json(report):
    out = report.to_json()
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "source",
    [
        "",
        'scenario "empty" { }',
        'scenario "mixed" {\n'
        '  assert 1 == 0 cite "fails" label "wrong"\n'
        '  assert euler() == 0 cite "no model" label "error"\n'
        '  assert solve(2, 0, 1) == solve(4, 0, 2) cite "p/q" label "half"\n'
        '  assert 10^4299 != 0 cite "4300 digits" label "long"\n'
        "}\n"
        'scenario "a" { assert 1 == 1 cite "x" }',
    ],
    ids=["empty-file", "no-assertions", "mixed-rows"],
)
def test_json_report_is_the_canonical_dump(source):
    report = run(dsl.parse(source).build())
    assert_canonical_json(report)


def test_builtin_json_report_is_the_canonical_dump():
    assert_canonical_json(run(builtin_scenarios()))


def dsl_string(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# any text a string literal can hold: everything but a newline, with \" and \\ escaped
_STRING_TEXT = st.text(st.characters(exclude_characters="\n"), max_size=20)


@settings(max_examples=100, deadline=None)
@example(name="\u00e9t\u00e9 \U0001d4b3", cite='tab\there\rCR \\ "q"', label="\u4e2d")
@given(name=_STRING_TEXT, cite=_STRING_TEXT, label=_STRING_TEXT)
def test_json_report_is_the_canonical_dump_on_drawn_strings(name, cite, label):
    source = (
        f"scenario {dsl_string(name)} {{ assert 1 == 2 cite {dsl_string(cite)}"
        f" label {dsl_string(label)} }}"
    )
    report = run(dsl.parse(source).build())
    row = report.scenarios[0].results[0]
    assert (report.scenarios[0].name, row.cite, row.label) == (name, cite, label)
    assert_canonical_json(report)


# ---------------------------------------------------------------------------
# completeness: every quoted numerical claim appears exactly once

ANCHORS = [
    # (scenario, label, citation fragment, expected value)
    ("gr25-chern", "deg", "degree 5", 5),
    ("gr25-chern", "whitney2", "c_1(I)", 0),
    ("gr25-chern", "quot-top", "c_r(Q)", 1),
    ("gr25-chern", "c1", "c_1(G) = 5 sigma_{1,0}", 5),
    ("gr25-chern", "c2-a", "11 sigma_{2,0}", 11),
    ("gr25-chern", "c2-b", "12 sigma_{1,1}", 12),
    ("gr25-chern", "c3-a", "15 sigma_{3,0}", 15),
    ("gr25-chern", "c3-b", "30 sigma_{2,1}", 30),
    ("gr25-chern", "c4-a", "35 sigma_{3,1}", 35),
    ("gr25-chern", "c4-b", "25 sigma_{2,2}", 25),
    ("w5-invariants", "c1", "c_1(W) = 3 sigma_{1,0}", 3),
    ("w5-invariants", "c2-a", "4 sigma_{2,0}", 4),
    ("w5-invariants", "c2-b", "5 sigma_{1,1}", 5),
    ("w5-invariants", "euler", "Eu(W) = 6", 6),
    ("w5-invariants", "nb-c1", "(r - 3) l = 0", 0),
    ("w5-invariants", "xi-c2", "sigma_{2,2}-plane Xi", 2),
    ("w5-invariants", "pi-c2", "sigma_{3,1}-plane Pi", 1),
    ("w5-invariants", "h2-xi", "2 Xi + 3 Pi", 1),
    ("w5-invariants", "h2-pi", "Pi . Xi = -1", 1),
    ("w5-invariants", "det", "unimodular", 1),
    ("w22-line-link", "L4", "(rho*H - E)^4 = 1", 1),
    ("w22-line-link", "L3D", "(2 rho*H - 3E) = 0", 0),
    ("w22-line-link", "L2D2", "quintic surface", -5),
    ("w22-line-link", "chi", "dim |rho*H - E| = 4", 5),
    ("w5-xi-link", "L4", "(H* - E)^4 = 1", 1),
    ("w5-xi-link", "L3E", "(H* - E)^3 . E = 1", 1),
    ("w5-xi-link", "R-check", "hence k = 2", 0),
    ("w5-pi-link", "L4", "(rho*H - E)^4 = 0", 0),
    ("w5-pi-link", "L3E", "(rho*H - E)^3 . E = 2", 2),
    ("w5-pi-link", "chi", "dim |rho*H - E| = 4", 5),
    ("w5-pi-link", "KE3", "K_E^3", -46),
    ("w5-pi-link", "degY", "deg Y = 1", 1),
    ("w5-pi-link", "euler", "Eu(W) + 3 = 9", 9),
    ("w5-pi-link", "fibers", "exactly one two-dimensional fiber", 1),
    ("gr26-v14-plane", "deg", "deg = 2g - 2 = 14", 14),
    ("gr26-v14-plane", "genus", "genus 8", 14),
    ("gr26-v14-plane", "c1", "c_1(V) = 2 sigma_{1,0}", 2),
    ("gr26-v14-plane", "c2-a", "c_2(V) = 2 sigma_{2,0}", 2),
    ("gr26-v14-plane", "c2-b", "4 sigma_{1,1}", 4),
    ("gr26-v14-plane", "euler", "Eu(V) = 12", 12),
    ("gr26-v14-plane", "nb-c1", "c_1(N_{Pi/V})", -1),
    ("gr26-v14-plane", "nb-c2", "c_2(N_{Pi/V}) = 2", 2),
    ("v14-link", "L4", "(rho*H - E)^4 = 5", 5),
    ("v14-link", "chi", "dim |rho*H - E| = 7", 8),
    ("v14-link", "contracted", "is contracted", 0),
    ("v14-link", "L2D2", "D^2 = -7", -7),
    ("v14-link", "upsilonE", "(rho*H - E)^3 . E = 5", 5),
    ("v14-link", "degF", "L^2 . F = 7", 7),
    ("v14-link", "LKF", "L . (-K_F) = 5", 5),
    ("v14-link", "eulerF", "Eu(F)", 9),
    ("v14-link", "K2F", "Noether formula K_F^2 = 3", 3),
    ("v14-link", "rkPic", "rk Pic(F) = 7", 7),
    ("v14-link", "curve-genus", "smooth curve of genus 2", 2),
    ("v12-link", "L4", "(2 rho*H - E)^4 = 12", 12),
    ("v12-link", "genus", "genus g = L^4/2 + 1 = 7", 12),
    ("v12-link", "chi", "dim |2 rho*H - E| = 9", 10),
    ("v12-link", "L3D", "hence k = 1", 0),
    ("v12-link", "L2D2", "D^2 = -1", -1),
    ("v12-link", "degF", "L^2 . phi(D) = 1", 1),
    ("moduli-counts", "dim-g", "dim G = 32", 32),
    ("moduli-counts", "dim-ambient", "dim Gr(11,15) = 44", 44),
    ("moduli-counts", "dim-family", "dim G + dim P = 43", 43),
    ("moduli-counts", "v14 codim", "codimension 1", 1),
    ("moduli-counts", "quadrics", "dimension 5 + 7 = 12", 12),
    ("moduli-counts", "pencils", "Gr(2,12)", 20),
    ("moduli-counts", "count", "20 - 7 = 13", 13),
]


def test_every_cited_claim_is_verified_exactly_once():
    report = run(builtin_scenarios())
    rows = {}
    for scenario in json.loads(report.to_json())["scenarios"]:
        for row in scenario["assertions"]:
            rows[(scenario["name"], row["label"])] = row
    seen = set()
    for scenario_name, label, fragment, expected in ANCHORS:
        key = (scenario_name, label)
        assert key not in seen, f"duplicate anchor {key}"
        seen.add(key)
        assert key in rows, f"missing assertion {key}"
        row = rows[key]
        assert fragment in row["cite"], (key, row["cite"])
        assert row["expected"] == expected, (key, row["expected"])
        assert row["pass"] is True, key


def counting_parse(monkeypatch):
    """Rebind dsl.parse to count its calls per source, starting from an empty document cache."""
    calls = []
    original = dsl.parse
    monkeypatch.setattr(dsl, "parse", lambda source: calls.append(source) or original(source))
    _builtin_document.cache_clear()
    return calls


def test_each_builtin_source_is_parsed_once_per_process(monkeypatch):
    calls = counting_parse(monkeypatch)
    first = builtin_scenarios()
    assert sorted(calls) == sorted(BUILTIN_SOURCES.values())
    second = builtin_scenarios()
    assert len(calls) == len(BUILTIN_SOURCES)  # the second call parses nothing
    assert run(first).to_json() == run(second).to_json()
    for one, other in zip(first, second):
        assert one is not other
        assert one.assertions is not other.assertions
        assert one.notes is not other.notes
        assert all(a is not b for a, b in zip(one.assertions, other.assertions))
    # what one call's caller does to its lists does not reach the next call
    for scenario in second:
        scenario.assertions.append(Assertion("extra", "x", "==", lambda: 1, lambda: 2))
        scenario.notes.append("extra")
    third = builtin_scenarios()
    assert [len(s.assertions) for s in third] == [len(s.assertions) for s in first]
    assert [s.notes for s in third] == [s.notes for s in first]
    assert run(third).to_json() == run(first).to_json()
    assert len(calls) == len(BUILTIN_SOURCES)


def test_a_changed_builtin_source_is_parsed_again(monkeypatch):
    calls = counting_parse(monkeypatch)
    builtin_scenarios()
    changed = BUILTIN_SOURCES["moduli-counts"].replace("== 32 cite", "== 33 cite")
    monkeypatch.setitem(BUILTIN_SOURCES, "moduli-counts", changed)
    report = run(builtin_scenarios())
    assert calls[len(BUILTIN_SOURCES):] == [changed]
    assert report.failed == 1
    (row,) = [r for s in report.scenarios for r in s.results if not r.passed]
    assert (row.label, row.expected, row.actual) == ("dim-g", 33, 32)
    assert pretty_builtin("moduli-counts") == dsl.parse(changed).pretty()
