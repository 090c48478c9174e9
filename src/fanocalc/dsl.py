"""A small declarative language for verification scenarios: building and evaluating it.

:mod:`.syntax` reads and prints scenario text; its lexical rules, grammar,
operators and nesting bound are stated there.  ``parse`` reads a source into
a ``Document``, whose ``build`` makes scenarios that evaluate when run.

The left side of an assertion is the computed value, the right side the
expected one.  ``ambient IDENT codim INT`` derives the profile from the
Chern engine and cross-checks the h4, index, chi and euler literals against
the derived values.  The ambients p4, w22 (two quadrics in P^6), gr24, gr25
and gr26 are each cut from a Gr(k, n) by hypersurfaces, P^N being
Gr(1, N+1); the codim adds that many hyperplanes and must leave a fourfold.
Under such a profile a surface center's hhc and c2xc are cross-checked
too: in a Grassmannian ambient the center ends with its Schubert class
there, and hhc = sigma[1]^2 . class, c2xc = c_2 . class; in p4 or w22, c_2
is (c2h2 / h4) H^2, so c2xc = (c2h2 / h4) hhc, and no class is allowed.  A
``c2h2`` profile takes the center as stated, with no class.

The leaves of an expression tree are values: an integer literal is its
int, and H and E are the engine's divisors blowup.H and blowup.E.  A call
or a sigma[...] atom, and an operator over one, takes a value under each
set of setup statements that its scenarios have.  A setup-free expression
is computed once per document: its node keeps its value when the first
assertion that uses it runs, and every later build of the document reads
it.  Every other distinct expression is evaluated once per build and
distinct set of setup statements: running the built scenarios, again or
not, computes each of its nodes once under each such set, when the first
assertion that uses it runs.  Building evaluates nothing, and an error is
not kept: it fails each assertion that uses its node, in every build, with
the same message.

``^`` on a number raises ValueError, before computing, when the exponent
times the bit length of the base (for a Fraction, the longer of numerator
and denominator) passes 100,000; bases 0, 1 and -1 are exempt, and a
Schubert cycle of codimension 0, which is c times the unit class, counts
as c.  A Schubert cycle raised past the top degree is the zero cycle of that
codimension, computed without multiplying.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from fractions import Fraction
from functools import partial

from . import blowup, profiles
from .blowup import BlowupModel, CurveCenter, Divisor, SurfaceCenter
from .schubert import Grassmannian, SchubertCycle, grass_dim, sigma
from .syntax import ParseError  # noqa: F401  (part of this module's interface)
from .syntax import _UNARY_MINUS, Call, Neg, SigmaAtom, _Parser, _print_scenario

# Ambient name -> (k, n, degrees): hypersurfaces of these degrees cut it from Gr(k, n).
_AMBIENTS = {
    "p4": (1, 5, ()),
    "w22": (1, 7, (2, 2)),
    "gr24": (2, 4, ()),
    "gr25": (2, 5, ()),
    "gr26": (2, 6, ()),
}

# Center kind -> its class; the parser reads the class's fields in order.
_CENTERS = {"curve": CurveCenter, "surface": SurfaceCenter}


class Document:
    __slots__ = ("scenarios", "nodes", "operands")

    def __init__(self):
        self.scenarios = []
        # the parser's node table and plain-text memo, which every parse
        # into the document reads and fills; see _Parser
        self.nodes = {}
        self.operands = {}

    def pretty(self) -> str:
        return "\n".join(_print_scenario(s) for s in self.scenarios)

    def build(self) -> list:
        """The document's scenarios; raises no ParseError, as the parser checked every rule.

        A setup-free expression is computed once per document: its node
        keeps its value, which every later build reads.  Every other
        distinct expression is computed once per build and distinct set of
        setup statements: the scenarios whose setup statements are the same
        objects, in whatever order they were written, share one _Setup,
        which holds the values every run of them fills and reads, and a
        second build starts from fresh ones."""
        setups, scenarios = {}, []  # a scenario's setup statements -> their _Setup
        for node in self.scenarios:
            key = frozenset(node.setups.values())
            setup = setups.get(key)
            if setup is None:
                setup = setups[key] = _Setup(node.setups)
            scenarios.append(Scenario(node.name, [
                Assertion(label, stmt.cite, stmt.op, partial(_value, stmt.right, setup),
                          partial(_value, stmt.left, setup))
                for label, stmt in node.rows.items()
            ]))
        return scenarios


def parse(source: str, document: Document | None = None) -> Document:
    """Parse ``source`` into ``document``, a new one by default, and return it.

    Raise :class:`ParseError` with 1-based position: the first error in the
    source, lexical or not.  A scenario's name must be new to the document.
    Its expressions and setup statements share the document's nodes, so an
    expression written in two sources, or two scenarios, is one node.  On
    an error, ``document.scenarios`` is left as it was."""
    if document is None:
        document = Document()
    return _Parser(source, document).parse_document()


# ---------------------------------------------------------------------------
# what a document builds: scenarios of deferred assertions

class Assertion:
    __slots__ = ("label", "cite", "op", "expected", "actual")

    def __init__(self, label: str, cite: str, op: str, expected: Callable[[], object],
                 actual: Callable[[], object]):
        if op not in ("==", "!="):
            raise ValueError(f"unsupported comparison {op!r}")
        self.label = label
        self.cite = cite
        self.op = op
        self.expected = expected
        self.actual = actual


class Scenario:
    __slots__ = ("name", "assertions", "notes")

    def __init__(self, name: str, assertions: list, notes: list | None = None):
        self.name = name
        self.assertions = assertions
        self.notes = [] if notes is None else notes


# ---------------------------------------------------------------------------
# evaluation: each assertion side is a closure that walks its tree when the
# report runs

def _once(method):
    """Run a _Setup method once; later calls return its value or raise its error again."""

    def resolved(self):
        outcome = self.outcomes.get(method)
        if outcome is None:
            try:
                outcome = method(self), None
            except Exception as exc:  # noqa: BLE001 - each assertion reports it
                outcome = None, exc
            self.outcomes[method] = outcome
        value, error = outcome
        if error is not None:
            raise error.with_traceback(None)  # a fresh traceback, not a growing one
        return value

    return resolved


class _Setup:
    """Deferred, validated scenario state shared by all assertion closures."""

    def __init__(self, setups: dict):
        self.setups = setups  # a ScenarioNode's setups, which no build changes
        self.outcomes = {}  # _once method -> (value, exception)
        self.values = {}  # node -> value, for the nodes that depend on setup; see _value

    def statement(self, keyword: str):
        stmt = self.setups.get(keyword)
        if stmt is None:
            raise ValueError(f"no {keyword} statement in this scenario")
        return stmt

    def profile(self):
        stmt = self.statement("profile")
        if stmt.ambient is None:
            return blowup.FourfoldProfile(
                h4=stmt.h4,
                index=stmt.index,
                c2h2=stmt.c2h2,
                chi=stmt.chi,
                euler=stmt.euler,
            )
        derived = profiles.section_profile(*_fourfold(stmt))
        _check_literals("profile", "h4, index, chi, euler", (stmt.h4, stmt.index, stmt.chi, stmt.euler),
                        (derived.h4, derived.index, derived.chi, derived.euler))
        return derived

    def center(self, profile: blowup.FourfoldProfile):
        """The stated center; under an ``ambient`` profile, a surface's hhc and c2xc are checked."""
        stmt = self.statement("center")
        center = _CENTERS[stmt.kind](**dict(stmt.fields))
        if stmt.kind == "curve":
            return center
        setting = self.statement("profile")
        ambient = setting.ambient
        if ambient is None or _AMBIENTS[ambient][0] == 1:  # none, or projective space
            if stmt.cycle is not None:
                raise ValueError("a surface class needs a profile with a Grassmannian ambient")
            if ambient is None:
                return center
            found = (center.hhc, profile.c2h2 // profile.h4 * center.hhc)
        else:
            if stmt.cycle is None:
                raise ValueError(f"a surface center in ambient {ambient!r} needs its Schubert class")
            found = profiles.surface_pairings(*_fourfold(setting), stmt.cycle.parts)
        _check_literals("center", "hhc, c2xc", (center.hhc, center.c2xc), found)
        return center

    @_once
    def model(self) -> BlowupModel:
        profile = self.profile()
        return BlowupModel(profile, self.center(profile))

    @_once
    def grassmannian(self) -> Grassmannian:
        stmt = self.statement("grassmannian")
        return Grassmannian(stmt.k, stmt.n)


def _check_literals(keyword: str, fields: str, stated: tuple, found: tuple) -> None:
    """Raise ValueError when a statement's literals for ``fields`` differ from the derived values."""
    if stated != found:
        raise ValueError(
            f"{keyword} literals ({fields}) = {stated} disagree with the derived values {found}"
        )


def _fourfold(stmt) -> tuple[int, int, tuple[int, ...]]:
    """(k, n, degrees) of a profile's ambient and codim hyperplanes, checked before the tuple is built."""
    if stmt.ambient not in _AMBIENTS:
        raise ValueError(f"unknown ambient {stmt.ambient!r}")
    k, n, degrees = _AMBIENTS[stmt.ambient]
    if grass_dim(k, n) - len(degrees) - stmt.codim != 4:
        raise ValueError(f"codim {stmt.codim} does not cut ambient {stmt.ambient!r} down to a fourfold")
    return k, n, degrees + (1,) * stmt.codim


def _as_int(value, what: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _quartic(setup, d1, d2, d3, d4):
    if not (isinstance(d1, Divisor) and isinstance(d2, Divisor) and isinstance(d3, Divisor)
            and isinstance(d4, Divisor)):  # before the model is built
        raise TypeError("a quartic() argument must be a divisor expression in H and E")
    return blowup.quartic_number(setup.model(), d1, d2, d3, d4)


def _chi(setup, d):
    if not isinstance(d, Divisor):  # before the model is built
        raise TypeError("the chi() argument must be a divisor expression in H and E")
    return blowup.chi_riemann_roch(setup.model(), d)


def _degree(setup, cycle):
    if not isinstance(cycle, SchubertCycle):
        raise TypeError("degree() takes a Schubert cycle")
    return cycle.integral()


def _chern(setup, *args):
    k, n, codim, i = (_as_int(v, "a chern() argument") for v in args)
    if not 0 <= codim < grass_dim(k, n):  # before the tuple is built
        raise ValueError("section codimension must satisfy 0 <= codim < dim")
    return profiles.section_component(k, n, (1,) * codim, i)


# Function name -> (arity, rule of the scenario setup and the argument
# values).  The rules reach the engine through its module attributes, so a
# caller that rebinds one (a tracer, a test) sees every call.
_FUNCTIONS = {
    "quartic": (4, _quartic),
    "chi": (1, _chi),
    "euler": (0, lambda setup: blowup.euler_blowup(setup.model())),
    "genus": (2, lambda setup, lk, l2: blowup.adjunction_genus(
        _as_int(lk, "the first genus() argument"), _as_int(l2, "the second genus() argument"))),
    "solve": (3, lambda setup, *args: blowup.solve_linear(
        *(_as_int(v, "a solve() argument") for v in args))),
    "degree": (1, _degree),
    "chern": (4, _chern),
    "dim": (2, lambda setup, k, n: grass_dim(
        _as_int(k, "a dim() argument"), _as_int(n, "a dim() argument"))),
}

# Every value an expression takes is an int, a Fraction, a Divisor or a
# SchubertCycle; the operator rules rely on it.
_NUMBER = (int, Fraction)


def _mismatch(op: str, left, right) -> TypeError:
    return TypeError(f"cannot apply {op!r} to {type(left).__name__} and {type(right).__name__}")


def comparable(left, right) -> bool:
    """Whether two values add, subtract and compare: one type, or two numbers."""
    return type(left) is type(right) or isinstance(left, _NUMBER) and isinstance(right, _NUMBER)


def _additive(op: str, combine):
    """The rule for + or -: two numbers, two divisors or two Schubert cycles."""

    def rule(left, right):
        if comparable(left, right):
            return combine(left, right)
        raise _mismatch(op, left, right)

    return rule


def _times(left, right):
    """An int scales any value; two Fractions or two Schubert cycles multiply."""
    if isinstance(left, int) or isinstance(right, int) or (
        type(left) is type(right) and not isinstance(left, Divisor)
    ):
        return left * right
    raise _mismatch("*", left, right)


# Bound on exponent * bit length of the base for a number raised to a power,
# which bounds the bit length of the result.  A power of 100,000 bits takes
# at most about 2 ms on a 2-vCPU host with Python 3.11, and ten times as
# many bits take about forty times as long; the interpreter cannot print an
# int past about 14,000 bits anyway.
_MAX_POWER_BITS = 100_000


def _power(left, right):
    exponent = _as_int(right, "an exponent")
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    if isinstance(left, Divisor):
        raise TypeError(f"cannot raise {type(left).__name__} to a power")
    # a codimension-0 cycle is c times the unit class, and its power is c's
    base = left.coefficient(()) if isinstance(left, SchubertCycle) and left.codim == 0 else left
    if isinstance(base, _NUMBER) and base not in (0, 1, -1):
        size = max(base.numerator.bit_length(), base.denominator.bit_length())
        if exponent * size > _MAX_POWER_BITS:
            raise ValueError(
                f"a power of up to {exponent * size} bits is over the limit of {_MAX_POWER_BITS}"
            )
    return left ** exponent


# Operator -> its rule; unary minus has the key it has in syntax._PRECEDENCE.
_OPERATORS = {"+": _additive("+", operator.add), "-": _additive("-", operator.sub),
              "*": _times, "^": _power, _UNARY_MINUS: operator.neg}


def _value(node, setup: _Setup):
    """The value of ``node`` under ``setup``, computed when its assertion runs.

    An operator node whose operands are leaves or such nodes, so no setup
    statement can change its value, keeps that value in ``kept`` once it
    is first computed, and every later build of its document reads it.
    ``setup.values`` maps each other node computed under ``setup`` to its
    value, so each distinct expression of the document, which the parser
    makes one node, is computed once per build and distinct set of setup
    statements.  A failure is kept by neither, so each row that uses it,
    in every build, raises it again.  A call raises in this order:
    arguments, then unknown name, arity and types.  A leaf is an int, H or
    E, each of its class exactly, so a class test finds it; a value is
    never None."""
    kind = node.__class__
    if kind is int or kind is Divisor:
        return node
    values = setup.values
    if (value := node.kept) is not None or (value := values.get(node)) is not None:
        return value
    if kind is SigmaAtom:
        value = sigma(setup.grassmannian(), *node.parts)
    elif kind is Call:
        args = []
        for arg in node.args:  # a loop, not a comprehension, which would take a frame
            cls = arg.__class__
            if cls is int or cls is Divisor:
                args.append(arg)
            elif (value := arg.kept) is not None or (value := values.get(arg)) is not None:
                args.append(value)
            else:
                args.append(_value(arg, setup))
        name, entry = node.name, _FUNCTIONS.get(node.name)
        if entry is None:
            raise ValueError(f"unknown function {name!r}")
        if len(args) != entry[0]:
            raise TypeError(f"{name}() takes {entry[0]} arguments, got {len(args)}")
        value = entry[1](setup, *args)
    elif kind is Neg:
        operand = node.operand
        value = _OPERATORS[_UNARY_MINUS](_value(operand, setup))
        # computed without error, a setup-free operand is a leaf or keeps its value
        if (cls := operand.__class__) is int or cls is Divisor or operand.kept is not None:
            node.kept = value
            return value
    else:
        left, right = node.left, node.right
        value = _OPERATORS[node.op](_value(left, setup), _value(right, setup))
        if ((cls := left.__class__) is int or cls is Divisor or left.kept is not None) and (
                (cls := right.__class__) is int or cls is Divisor or right.kept is not None):
            node.kept = value
            return value
    values[node] = value
    return value
