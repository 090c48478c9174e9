"""Value semantics of the package's record classes: construction, equality, hashing, immutability."""

import copy
import pickle
import re

import pytest

from fanocalc.blowup import BlowupModel, CurveCenter, Divisor, FourfoldProfile, SurfaceCenter
from fanocalc.chern import BundleModel, TotalChernClass, tangent_bundle
from fanocalc.dsl import (
    Assertion,
    AssertStmt,
    BinOp,
    Call,
    CenterStmt,
    Document,
    GrassStmt,
    Neg,
    ProfileStmt,
    Scenario,
    ScenarioNode,
    SigmaAtom,
)
from fanocalc.scenarios import AssertionResult, Report, ScenarioResult
from fanocalc.schubert import Grassmannian, sigma, unit, zero

GR25 = Grassmannian(2, 5)
GR26 = Grassmannian(2, 6)
TOTAL = TotalChernClass(GR25, [unit(GR25), sigma(GR25, 1)])  # c = 1 + sigma_1, a line bundle's


def thunk():
    return 0


# class -> field values, in field order
RECORDS = [
    (Grassmannian, {"k": 2, "n": 5}),
    (BundleModel, {"rank": 1, "total": TOTAL}),
    (FourfoldProfile, {"h4": 5, "index": 3, "c2h2": 22, "chi": 1, "euler": 6}),
    (CurveCenter, {"genus": 0, "hc": 1}),
    (SurfaceCenter, {"hhc": 1, "hkc": -3, "kc2": 9, "euler": 3, "c2xc": 5}),
    (Divisor, {"h": 1, "e": -1}),
    (BlowupModel, {"base": FourfoldProfile(4, 3, 20, 1, 12), "center": CurveCenter(0, 1)}),
    (AssertionResult, {"label": "L4", "cite": "c", "expected": 1, "actual": 1, "passed": True}),
    (ScenarioResult, {"name": "s", "results": (), "notes": ("n",)}),
    (Report, {"scenarios": ()}),
    (TotalChernClass, {"context": GR25, "components": TOTAL.components}),
    (SigmaAtom, {"parts": (2, 1)}),
    (Call, {"name": "euler", "args": ()}),
    (BinOp, {"op": "+", "left": 1, "right": 2}),
    (Neg, {"operand": 1}),
    (ProfileStmt, {"ident": "W", "h4": 5, "index": 3, "c2h2": None, "ambient": "gr25",
                   "codim": 2, "chi": 1, "euler": 6}),
    (CenterStmt, {"kind": "curve", "fields": (("genus", 0), ("hc", 1)), "cycle": None}),
    (GrassStmt, {"k": 2, "n": 5}),
    (AssertStmt, {"left": 1, "op": "==", "right": 1, "cite": "c", "label": None}),
    (ScenarioNode, {"name": "s", "statements": []}),
    (Document, {"scenarios": []}),
    (Assertion, {"label": "a01", "cite": "c", "op": "==", "expected": thunk, "actual": thunk}),
    (Scenario, {"name": "s", "assertions": [], "notes": ["n"]}),
]

FROZEN = [
    Grassmannian, BundleModel, FourfoldProfile, CurveCenter, SurfaceCenter,
    Divisor, BlowupModel, AssertionResult, ScenarioResult, Report, TotalChernClass,
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=lambda p: getattr(p, "__name__", ""))
def test_construction_by_position_and_by_keyword(cls, values):
    for record in (cls(*values.values()), cls(**values)):
        assert all(getattr(record, name) is value for name, value in values.items())


def test_list_fields_default_to_a_fresh_empty_list():
    assert Document().scenarios == [] and Document().scenarios is not Document().scenarios
    first, second = Scenario("a", []), Scenario("b", [])
    assert first.notes == [] and first.notes is not second.notes


# a factory of equal, separately built values; a value one field away; the field values
VALUES = [
    (lambda: Grassmannian(2, 5), Grassmannian(2, 6), (2, 5)),
    (lambda: Divisor(2, -1), Divisor(2, 1), (2, -1)),
    (lambda: FourfoldProfile(5, 3, 22, 1, 6), FourfoldProfile(5, 3, 22, 1, 7), (5, 3, 22, 1, 6)),
    (lambda: CurveCenter(0, 1), CurveCenter(1, 1), (0, 1)),
    (lambda: SurfaceCenter(1, -3, 9, 3, 5), SurfaceCenter(1, -3, 9, 3, 4), (1, -3, 9, 3, 5)),
    (lambda: BlowupModel(FourfoldProfile(4, 3, 20, 1, 12), CurveCenter(0, 1)),
     BlowupModel(FourfoldProfile(4, 3, 20, 1, 12), CurveCenter(0, 2)),
     (FourfoldProfile(4, 3, 20, 1, 12), CurveCenter(0, 1))),
    (lambda: AssertionResult("L4", "c", 1, 1, True), AssertionResult("L4", "c", 1, 1, False),
     ("L4", "c", 1, 1, True)),
    (lambda: ScenarioResult("s", (), ("n",)), ScenarioResult("s", (), ("m",)), ("s", (), ("n",))),
    (lambda: Report(()), Report((ScenarioResult("s", (), ()),)), ((),)),
]


@pytest.mark.parametrize("make, other, fields", VALUES, ids=[type(v[1]).__name__ for v in VALUES])
def test_equal_values_compare_and_hash_equal(make, other, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and {a: "found"}[b] == "found"
    assert a != other and not a == other
    assert a != fields  # no other class compares equal, not even a tuple of the same values


def test_total_classes_and_bundle_models_compare_by_value_and_have_no_hash():
    # a total class compares by its fields too: a written-out zero component makes another class
    assert TOTAL == TotalChernClass(GR25, [unit(GR25), sigma(GR25, 1)])
    assert TOTAL != TotalChernClass(GR25, [unit(GR25), sigma(GR25, 1), zero(GR25, 2)])
    assert BundleModel(1, TOTAL) == BundleModel(1, TotalChernClass(GR25, [unit(GR25), sigma(GR25, 1)]))
    assert BundleModel(1, TOTAL) != BundleModel(1, TotalChernClass(GR25, [unit(GR25)]))
    for model in (TOTAL, BundleModel(1, TOTAL)):
        with pytest.raises(TypeError):
            hash(model)


def test_an_equal_grassmannian_is_a_cache_hit():
    first = tangent_bundle(Grassmannian(2, 5))
    before = tangent_bundle.cache_info()
    assert tangent_bundle(Grassmannian(2, 5)) is first
    after = tangent_bundle.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("cls", [SigmaAtom, Call, BinOp, Neg], ids=lambda c: c.__name__)
def test_expression_nodes_compare_and_hash_by_identity(cls):
    values = dict(RECORDS)[cls]
    a, b = cls(**values), cls(**values)
    assert a == a and not a != a
    assert a != b and not a == b  # equal fields make no equal nodes
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_reject_assignment_and_deletion(cls):
    values = dict(RECORDS)[cls]
    record = cls(**values)
    for name, value in values.items():
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_copy_and_pickle(cls):
    record = cls(**dict(RECORDS)[cls])
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


class _NamedDivisor(Divisor):
    """A subclass of a record that adds no field."""

    __slots__ = ()


class _LabelledCurve(CurveCenter):
    """A subclass of a record that adds one field after the base's."""

    __slots__ = ("label",)

    def __init__(self, genus, hc, label):
        self._store(genus, hc, label)


def test_a_subclass_keeps_the_fields_of_the_record_it_extends():
    named = _NamedDivisor(2, -1)
    assert (named.h, named.e) == (2, -1)
    assert named == _NamedDivisor(2, -1) and hash(named) == hash(_NamedDivisor(2, -1))
    assert named != _NamedDivisor(2, 1) and named != Divisor(2, -1)
    labelled = _LabelledCurve(0, 1, "line")
    assert (labelled.genus, labelled.hc, labelled.label) == (0, 1, "line")
    assert labelled != _LabelledCurve(0, 1, "conic") and labelled != _LabelledCurve(0, 2, "line")
    for record in (named, labelled):
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record
        with pytest.raises(AttributeError):
            record.h = 0


@pytest.mark.parametrize("build, message", [
    (lambda: Grassmannian(2, 2), "need n > k >= 1, got k=2, n=2"),
    (lambda: BundleModel(0, TOTAL), "bundle rank must be positive"),
    (lambda: BundleModel(1, TotalChernClass(GR25, [unit(GR25), sigma(GR25, 1), sigma(GR25, 2)])),
     "Chern class above the rank must vanish"),
    (lambda: TotalChernClass(GR25, [unit(GR26), sigma(GR26, 1)]), "component from a different context"),
    (lambda: FourfoldProfile(0, 3, 22, 1, 6), "h4 must be positive"),
    (lambda: FourfoldProfile(5, 0, 22, 1, 6), "the Fano index must be positive"),
    (lambda: CurveCenter(-1, 1), "genus must be non-negative"),
    (lambda: CurveCenter(0, 0), "the curve must have positive degree"),
    (lambda: SurfaceCenter(0, -3, 9, 3, 5), "the surface must have positive degree"),
    (lambda: Assertion("x", "c", "<=", thunk, thunk), "unsupported comparison '<='"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("divisor, text", [
    (Divisor(1, 0), "H"),
    (Divisor(0, 1), "E"),
    (Divisor(0, -1), "-E"),
    (Divisor(2, -3), "2*H-3*E"),
    (Divisor(-1, 1), "-1*H+E"),
    (Divisor(0, 2), "2*E"),
    (Divisor(0, 0), "0"),
])
def test_divisor_repr(divisor, text):
    assert repr(divisor) == text
