"""Named verification scenarios and a deterministic report runner.

A scenario is an ordered list of assertions, each carrying a citation string
so the report reads as a verification table.  The built-in scenarios are
written in the DSL itself (see :mod:`fanocalc.dsl`) and cover the four
birational-link constructions plus the supporting Schubert/Chern facts.

Where the verified construction disagrees with the source text it was taken
from, the discrepancy is recorded in the scenario's notes rather than
silently corrected; see the sanity and v14 scenarios.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Callable, Sequence
from functools import lru_cache

from _json import encode_basestring_ascii

from . import dsl
from .dsl import Assertion, Scenario  # noqa: F401  (part of this module's interface)
from .record import FrozenRecord


class AssertionResult(FrozenRecord):
    """One report row; ``expected`` and ``actual`` hold the rendered values.

    Immutable, compared by value.
    """

    __slots__ = ("label", "cite", "expected", "actual", "passed")

    def __init__(self, label: str, cite: str, expected: object, actual: object, passed: bool):
        self._store(label, cite, expected, actual, passed)


class ScenarioResult(FrozenRecord):
    """One scenario's rows and notes.  Immutable, compared by value."""

    __slots__ = ("name", "results", "notes")

    def __init__(self, name: str, results: tuple, notes: tuple):
        self._store(name, results, notes)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _render(value):
    """JSON-safe, deterministic rendering of an assertion value.

    Every value is an int, a Fraction, a Divisor or a SchubertCycle (see
    ``dsl._NUMBER``); an integral Fraction renders as its int."""
    if isinstance(value, Fraction):
        if value.denominator != 1:
            return f"{value.numerator}/{value.denominator}"
        value = int(value)
    if isinstance(value, int):
        str(value)  # raises here, not in the report, past the int-string limit
        return value
    return str(value)


def _failure(exc: Exception) -> tuple:
    error = f"error: {type(exc).__name__}: {exc}"
    return error, error, False


def _evaluate(thunk: Callable[[], object]):
    """(value, rendering, ok): a side that fails to evaluate or to render is an error."""
    try:
        value = thunk()
        return value, _render(value), True
    except Exception as exc:  # noqa: BLE001 - reported, never swallowed
        return _failure(exc)


def _json_list(items: list, indent: str) -> str:
    """A JSON array of already rendered items, closed at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _json_scalar(value) -> str:
    """A str or an int (a name, a cite, a label or a rendered value) as JSON."""
    return encode_basestring_ascii(value) if isinstance(value, str) else int.__repr__(value)


class Report(FrozenRecord):
    """The results of a run, as text or as JSON.

    ``to_json`` writes the fixed schema directly, byte for byte what
    ``json.dumps(..., indent=2, sort_keys=True)`` gives for it: an object
    with ``failed``, ``scenarios`` and ``total``; each scenario with
    ``assertions``, ``name`` and ``pass``; each assertion with ``actual``,
    ``cite``, ``expected``, ``label`` and ``pass``.  Strings go through the
    C string escaper that :mod:`json` uses, imported from ``_json`` so the
    package is not loaded, and non-ASCII text is written as ``\\uXXXX``
    escapes.  Immutable, compared by value.
    """

    __slots__ = ("scenarios",)

    def __init__(self, scenarios: tuple):
        self._store(scenarios)

    @property
    def total(self) -> int:
        return sum(len(s.results) for s in self.scenarios)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.scenarios for r in s.results if not r.passed)

    def to_json(self) -> str:
        flag = ("false", "true")
        blocks = []
        for s in self.scenarios:
            rows = [
                f'        {{\n          "actual": {_json_scalar(r.actual)},'
                f'\n          "cite": {_json_scalar(r.cite)},'
                f'\n          "expected": {_json_scalar(r.expected)},'
                f'\n          "label": {_json_scalar(r.label)},'
                f'\n          "pass": {flag[r.passed]}\n        }}'
                for r in s.results
            ]
            blocks.append(
                f'    {{\n      "assertions": {_json_list(rows, "      ")},'
                f'\n      "name": {_json_scalar(s.name)},'
                f'\n      "pass": {flag[s.passed]}\n    }}'
            )
        return (
            f'{{\n  "failed": {self.failed},'
            f'\n  "scenarios": {_json_list(blocks, "  ")},'
            f'\n  "total": {self.total}\n}}\n'
        )

    def to_text(self, verbose: bool = False) -> str:
        lines = []
        for s in self.scenarios:
            for r in s.results:
                status = "PASS" if r.passed else "FAIL"
                lines.append(
                    f"{status} {s.name}/{r.label} expected={r.expected}"
                    f" actual={r.actual} cite: {r.cite}"
                )
            if verbose:
                for note in s.notes:
                    lines.append(f"note {s.name}: {note}")
        lines.append(f"{self.total} assertions, {self.failed} failed")
        return "\n".join(lines) + "\n"


def run(scenarios: Sequence[Scenario]) -> Report:
    """Evaluate every assertion; failures and setup errors never abort the run.

    Two sides that are neither of one type nor both numbers fail their row."""
    outcomes = []
    for scenario in sorted(scenarios, key=lambda s: s.name):
        results = []
        for a in scenario.assertions:
            expected, shown_expected, ok_e = _evaluate(a.expected)
            actual, shown_actual, ok_a = _evaluate(a.actual)
            if ok_e and ok_a and not dsl.comparable(actual, expected):
                actual, shown_actual, ok_a = _failure(TypeError(
                    f"cannot compare {type(actual).__name__} with {type(expected).__name__}"))
            if ok_e and ok_a:
                passed = (actual == expected) if a.op == "==" else (actual != expected)
            else:
                passed = False
            results.append(AssertionResult(a.label, a.cite, shown_expected, shown_actual, passed))
        outcomes.append(ScenarioResult(scenario.name, tuple(results), tuple(scenario.notes)))
    return Report(tuple(outcomes))


BUILTIN_SOURCES = {
    "sanity-p4-line": '''
scenario "sanity-p4-line" {
  # Projecting away from a line: the blowup of the simplest fourfold.
  # These three oracles pin the sign conventions of the whole blowup layer.
  profile P4 h4 1 index 5 ambient p4 codim 0 chi 1 euler 5
  center curve genus 0 hc 1
  assert quartic(E, E, E, E) == 3 cite "oracle: E^4 forced by (H - E)^4 = 0 with H . E^3 = 1" label "E4"
  assert quartic(H - E, H - E, H - E, H - E) == 0 cite "oracle: projecting from a line contracts the quartic of H - E" label "L4"
  assert chi(H - E) == 3 cite "oracle: hyperplanes through a fixed line form a net" label "chi"
}
''',
    "gr25-chern": '''
scenario "gr25-chern" {
  grassmannian 2 5
  assert degree(sigma[1]^6) == 5 cite "del Pezzo fourfold of degree 5" label "deg"
  assert degree((sigma[1]^2 - sigma[2] - sigma[1, 1]) * sigma[2, 2]) == 0 cite "c_1(I) = sigma_{1,0}, c_2(I) = sigma_{1,1}" label "whitney2"
  assert degree(sigma[3] * sigma[3]) == 1 cite "c_r(Q) ~ sigma_{r,0}" label "quot-top"
  assert degree(chern(2, 5, 0, 1) * sigma[3, 2]) == 5 cite "c_1(G) = 5 sigma_{1,0}" label "c1"
  assert degree(chern(2, 5, 0, 2) * sigma[3, 1]) == 11 cite "c_2(G) = 11 sigma_{2,0} + 12 sigma_{1,1}" label "c2-a"
  assert degree(chern(2, 5, 0, 2) * sigma[2, 2]) == 12 cite "c_2(G) = 11 sigma_{2,0} + 12 sigma_{1,1} (second coefficient)" label "c2-b"
  assert degree(chern(2, 5, 0, 3) * sigma[3]) == 15 cite "c_3(G) = 15 sigma_{3,0} + 30 sigma_{2,1}" label "c3-a"
  assert degree(chern(2, 5, 0, 3) * sigma[2, 1]) == 30 cite "c_3(G) = 15 sigma_{3,0} + 30 sigma_{2,1} (second coefficient)" label "c3-b"
  assert degree(chern(2, 5, 0, 4) * sigma[2]) == 35 cite "c_4(G) = 35 sigma_{3,1} + 25 sigma_{2,2}" label "c4-a"
  assert degree(chern(2, 5, 0, 4) * sigma[1, 1]) == 25 cite "c_4(G) = 35 sigma_{3,1} + 25 sigma_{2,2} (second coefficient)" label "c4-b"
}
''',
    "w5-invariants": '''
scenario "w5-invariants" {
  grassmannian 2 5
  assert degree(chern(2, 5, 2, 1) * sigma[3, 2]) == 3 cite "c_1(W) = 3 sigma_{1,0}|_W" label "c1"
  assert degree(chern(2, 5, 2, 2) * sigma[3, 1]) == 4 cite "c_2(W) = 4 sigma_{2,0}|_W + 5 sigma_{1,1}|_W" label "c2-a"
  assert degree(chern(2, 5, 2, 2) * sigma[2, 2]) == 5 cite "c_2(W) = 4 sigma_{2,0}|_W + 5 sigma_{1,1}|_W (second coefficient)" label "c2-b"
  assert degree(chern(2, 5, 2, 4) * sigma[1]^2) == 6 cite "Eu(W) = 6" label "euler"
  assert degree(chern(2, 5, 2, 1) * sigma[3, 2]) - 3 == 0 cite "c_1(N_{Lambda/W}) = (r - 3) l = 0" label "nb-c1"
  assert degree(chern(2, 5, 2, 2) * sigma[2, 2]) - 3 * (degree(chern(2, 5, 2, 1) * sigma[3, 2]) - 3) - 3 == 2 cite "c_2(N_{Lambda/W}) = 2 for the sigma_{2,2}-plane Xi" label "xi-c2"
  assert degree(chern(2, 5, 2, 2) * sigma[3, 1]) - 3 * (degree(chern(2, 5, 2, 1) * sigma[3, 2]) - 3) - 3 == 1 cite "c_2(N_{Lambda/W}) = 1 for a sigma_{3,1}-plane Pi" label "pi-c2"
  assert degree(sigma[1]^2 * sigma[2, 2]) == 2 * 2 + 3 * (-1) cite "sigma_{1,0}^2|_W ~ 2 Xi + 3 Pi" label "h2-xi"
  assert degree(sigma[1]^2 * sigma[3, 1]) == 2 * (-1) + 3 * 1 cite "Pi . Xi = -1" label "h2-pi"
  assert 2 * 1 - (-1) * (-1) == 1 cite "the intersection matrix of Xi and Pi is unimodular" label "det"
  assert 4 * 2 + 12 * (-1) + 9 * 1 == degree(sigma[1]^6) cite "deg W = (2 Xi + 3 Pi)^2" label "deg-decomp"
}
''',
    "w22-line-link": '''
scenario "w22-line-link" {
  profile W22 h4 4 index 3 ambient w22 codim 0 chi 1 euler 12
  center curve genus 0 hc 1
  assert quartic(H - E, H - E, H - E, H - E) == 1 cite "L^4 = (rho*H - E)^4 = 1" label "L4"
  assert quartic(H - E, H - E, H - E, 2*H - 3*E) == 0 cite "(rho*H - E)^3 . (2 rho*H - 3E) = 0" label "L3D"
  assert quartic(H - E, H - E, 2*H - 3*E, 2*H - 3*E) == -5 cite "L^2 . D^2 = -5, so F = phi(D) is a quintic surface" label "L2D2"
  assert chi(H - E) == 5 cite "dim |rho*H - E| = 4" label "chi"
}
''',
    "w5-xi-link": '''
scenario "w5-xi-link" {
  profile W5 h4 5 index 3 ambient gr25 codim 2 chi 1 euler 6
  center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 5 sigma[2, 2]
  assert quartic(H - E, H - E, H - E, H - E) == 1 cite "(H* - E)^4 = 1" label "L4"
  assert quartic(H - E, H - E, H - E, E) == 1 cite "(H* - E)^3 . E = 1" label "L3E"
  assert quartic(H - E, H - E, H - E, H - 2*E) == 2 - 2 cite "(H* - E)^3 . R = 2 - k >= 0, hence k = 2" label "R-check"
}
''',
    "w5-pi-link": '''
scenario "w5-pi-link" {
  profile W5 h4 5 index 3 ambient gr25 codim 2 chi 1 euler 6
  center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 4 sigma[3, 1]
  assert quartic(H - E, H - E, H - E, H - E) == 0 cite "L^4 = (rho*H - E)^4 = 0" label "L4"
  assert quartic(H - E, H - E, H - E, E) == 2 cite "(rho*H - E)^3 . E = 2" label "L3E"
  assert chi(H - E) == 5 cite "dim |rho*H - E| = 4 on the blowup along Pi" label "chi"
  assert quartic(-3*H + 2*E, -3*H + 2*E, -3*H + 2*E, E) == -54 - 2*(-3) + 2 - 2*0 cite "K_E^3 = (K + E)^3 . E" label "KE3"
  assert solve(6, -54 + 2, quartic(-3*H + 2*E, -3*H + 2*E, -3*H + 2*E, E)) == 1 cite "gives deg Y = 1" label "degY"
  assert euler() == 6 + 3 cite "Eu of the blowup of W along Pi is Eu(W) + 3 = 9" label "euler"
  assert solve(1, 8, euler()) == 1 cite "9 = 8 + n, hence n = 1: exactly one two-dimensional fiber" label "fibers"
}
''',
    "gr26-v14-plane": '''
scenario "gr26-v14-plane" {
  grassmannian 2 6
  assert degree(sigma[1]^8) == 14 cite "Mukai fourfold of genus 8: deg = 2g - 2 = 14" label "deg"
  assert degree(sigma[1]^8) == 2 * (8 - 1) cite "V has genus 8" label "genus"
  assert degree(chern(2, 6, 4, 1) * sigma[4, 3]) == 2 cite "c_1(V) = 2 sigma_{1,0}|_V" label "c1"
  assert degree(chern(2, 6, 4, 2) * sigma[4, 2]) == 2 cite "c_2(V) = 2 sigma_{2,0}|_V + 4 sigma_{1,1}|_V" label "c2-a"
  assert degree(chern(2, 6, 4, 2) * sigma[3, 3]) == 4 cite "c_2(V) = 2 sigma_{2,0}|_V + 4 sigma_{1,1}|_V (second coefficient)" label "c2-b"
  assert degree(chern(2, 6, 4, 4) * sigma[1]^4) == 12 cite "Eu(V) = 12" label "euler"
  assert degree(chern(2, 6, 4, 1) * sigma[4, 3]) - 3 == -1 cite "c_1(N_{Pi/V}) = c_1(V)|_Pi - c_1(Pi) = -l" label "nb-c1"
  assert degree(chern(2, 6, 4, 2) * sigma[4, 2]) - 3 * (degree(chern(2, 6, 4, 1) * sigma[4, 3]) - 3) - 3 == 2 cite "c_2(N_{Pi/V}) = 2" label "nb-c2"
}
''',
    "v14-link": '''
scenario "v14-link" {
  profile V14 h4 14 index 2 ambient gr26 codim 4 chi 1 euler 12
  center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 2 sigma[4, 2]
  assert quartic(H - E, H - E, H - E, H - E) == 5 cite "L^4 = (rho*H - E)^4 = 5" label "L4"
  assert chi(H - E) == 8 cite "dim |rho*H - E| = 7" label "chi"
  assert quartic(H - E, H - E, H - E, H - 2*E) == 0 cite "D ~ L* - E ~ H* - 2E is contracted (the printed -3E form is a typo, see notes)" label "contracted"
  assert quartic(H - E, H - E, H - 2*E, H - 2*E) == -7 cite "(rho*H - E)^2 . D^2 = -7" label "L2D2"
  assert quartic(H - E, H - E, H - E, E) == 5 cite "deg upsilon(E) = (rho*H - E)^3 . E = 5" label "upsilonE"
  assert 0 - quartic(H - E, H - E, H - 2*E, H - 2*E) == 7 cite "F = phi(D) is a surface with L^2 . F = 7" label "degF"
  assert quartic(H - E, H - 2*E, H - 2*E, H - 2*E) + 3 * (0 - quartic(H - E, H - E, H - 2*E, H - 2*E)) == 5 cite "L . (-K_F) = 5" label "LKF"
  assert euler() - 6 == 9 cite "Eu(F) = Eu(the blowup) - Eu(W_5) = 9" label "eulerF"
  assert 12 - (euler() - 6) == 3 cite "by the Noether formula K_F^2 = 3" label "K2F"
  assert 10 - (12 - (euler() - 6)) == 7 cite "rk Pic(F) = 7" label "rkPic"
  assert genus(-(quartic(H - E, H - 2*E, H - 2*E, H - 2*E) + 3 * (0 - quartic(H - E, H - E, H - 2*E, H - 2*E))), 0 - quartic(H - E, H - E, H - 2*E, H - 2*E)) == 2 cite "a general hyperplane section of F is a smooth curve of genus 2" label "curve-genus"
}
''',
    "v12-link": '''
scenario "v12-link" {
  profile W22 h4 4 index 3 ambient w22 codim 0 chi 1 euler 12
  center surface hhc 5 hkc -5 kc2 5 euler 7 c2xc 25
  assert quartic(2*H - E, 2*H - E, 2*H - E, 2*H - E) == 12 cite "L^4 = (2 rho*H - E)^4 = 12" label "L4"
  assert quartic(2*H - E, 2*H - E, 2*H - E, 2*H - E) == 2 * (7 - 1) cite "genus g = L^4/2 + 1 = 7" label "genus"
  assert chi(2*H - E) == 10 cite "dim |2 rho*H - E| = 9" label "chi"
  assert quartic(2*H - E, 2*H - E, 2*H - E, H - E) == -12 * (1 - 1) cite "(2 rho*H - E)^3 . D = -12(k - 1), hence k = 1" label "L3D"
  assert quartic(2*H - E, 2*H - E, H - E, H - E) == -1 cite "(2 rho*H - E)^2 . D^2 = -1" label "L2D2"
  assert 0 - quartic(2*H - E, 2*H - E, H - E, H - E) == 1 cite "phi(D) is a surface with L^2 . phi(D) = 1" label "degF"
}
''',
    "moduli-counts": '''
scenario "moduli-counts" {
  assert dim(8, 12) == 32 cite "G ~ Gr(8,12), so dim G = 32" label "dim-g"
  assert dim(11, 15) == 44 cite "dim Gr(11,15) = 44" label "dim-ambient"
  assert 32 + 11 == 43 cite "dim V_{4,2} = dim G + dim P = 43" label "dim-family"
  assert dim(11, 15) - (32 + 11) == 1 cite "codimension 1 in V" label "v14 codim"
  assert 5 + 7 == 12 cite "the space of quadrics through F in P^6 has dimension 5 + 7 = 12" label "quadrics"
  assert dim(2, 12) == 20 cite "pencils of quadrics through F are parametrized by Gr(2,12)" label "pencils"
  assert dim(2, 12) - 7 == 13 cite "modulo the automorphisms: 20 - 7 = 13" label "count"
}
''',
}

BUILTIN_NOTES = {
    "sanity-p4-line": [
        "The printed curve-blowup relation rho*H . E^3 = H^3 . C is dimensionally"
        " inconsistent for a curve in a fourfold; the engine reads it as"
        " deg(H|_C) = H . C. The projection oracle in this scenario pins that"
        " reading and the sign of E^4.",
        "The printed degree-2 correction term (6g - 6 - K . C) for a curve blowup"
        " is inconsistent with chi(O(E)) = 1 and with this oracle; the engine"
        " uses (2g - 2 + K . C) times the fiber class, which the toric lattice-point"
        " count of tests/test_blowup.py::test_toric_oracle_counts_sections_on_p4_blowups"
        " confirms for every divisor of this blowup.",
    ],
    "w22-line-link": [
        "chi(H - E) = 5 here depends on the corrected curve-blowup degree-2 term;"
        " see the sanity scenario notes.",
    ],
    "v14-link": [
        "The source text prints (rho*H - E)^3 . (rho*H - 3E) = 0; with the stated"
        " center data that product equals -5, while the same passage identifies"
        " D ~ H* - 2E. The scenario asserts the -2E version; the printed -3E"
        " expression looks like a typo.",
    ],
    "moduli-counts": [
        "The 13-dimensional pencil count is compared against the quoted genus-7"
        " moduli dimension 15; the difference 2 (the family's codimension) uses"
        " that quoted value and is not recomputed here.",
    ],
}


@lru_cache(maxsize=len(BUILTIN_SOURCES))
def _builtin_document(source: str) -> dsl.Document:
    """The parsed document of one built-in source text, parsed once per process.

    Keyed by the text, so a changed source is parsed again.  The document is
    only built or printed here, never handed out, so no caller can change it."""
    return dsl.parse(source)


def builtin_scenarios() -> list:
    """The ten built-in scenarios, parsed from their DSL sources, sorted by name.

    Each source is parsed once per process, but every call builds the
    scenarios again: it returns fresh scenario, assertion and notes objects,
    with their own evaluation state, so a caller may change them freely."""
    scenarios = []
    for name in sorted(BUILTIN_SOURCES):
        (scenario,) = _builtin_document(BUILTIN_SOURCES[name]).build()
        if scenario.name != name:
            raise ValueError(f"source for {name!r} defines {scenario.name!r}")
        scenario.notes = list(BUILTIN_NOTES.get(name, ()))
        scenarios.append(scenario)
    return scenarios


def pretty_builtin(name: str) -> str:
    """The named built-in scenario, pretty-printed in the scenario language.

    Raises ``KeyError`` for a name that is not in ``BUILTIN_SOURCES``."""
    return _builtin_document(BUILTIN_SOURCES[name]).pretty()
