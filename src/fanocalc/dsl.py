"""A small declarative language for verification scenarios.

Lexical rules: whitespace is space, tab, CR and LF only; a comment runs from
'#' to the end of the line; an integer is a run of Unicode decimal digits; a
name is a letter or '_' followed by letters, digits or '_'; a string is
double-quoted, escapes only '\\"' and '\\\\', and cannot span lines.

The lexer is one pass of one regular expression, into parallel lists of
token kinds, values and source offsets.  A (line, column) is worked out from
an offset, by bisection over the offsets of the newlines, only for a
statement or an error.  Both count from 1; only LF ends a line, and a
column counts characters, so a tab or a lone CR is one column.

Grammar (statements in any order and number; integer fields may carry a
leading '-'):

    document   := { scenario }
    scenario   := "scenario" STRING "{" { statement } "}"
    statement  := profile | center | grass | assert
    profile    := "profile" IDENT "h4" INT "index" INT
                  ("c2h2" INT | "ambient" IDENT "codim" INT) "chi" INT "euler" INT
    center     := "center" ("curve" "genus" INT "hc" INT
                  | "surface" "hhc" INT "hkc" INT "kc2" INT "euler" INT "c2xc" INT)
    grass      := "grassmannian" INT INT
    assert     := "assert" expr ("==" | "!=") expr "cite" STRING ["label" STRING]
    expr       := arithmetic over INT, "H", "E", + - * ^, parentheses,
                  sigma[INT{,INT}], and calls quartic(e,e,e,e), chi(e),
                  euler(), genus(e,e), solve(e,e,e), degree(e),
                  chern(e,e,e,e), dim(e,e)

Operators, loosest first: binary + and - (precedence 1), * (2), unary - (3)
and ^ (4).  All group to the left except ^, which groups to the right, so
-2^2 is -(2^2) and 2^3^2 is 2^(3^2).  An expression nests at most 64 levels
(parentheses, call arguments, unary minus, the right side of ^) and its tree
is at most 64 levels tall; deeper input is a ParseError.

The left side of an assertion is the computed value, the right side the
expected one.  ``ambient IDENT codim INT`` derives the profile from the
Chern engine (ambients: p4, w22, gr24, gr25, gr26) and cross-checks the h4,
index, chi and euler literals against the derived values.

Equal setup-free subexpressions of a document (integers, H, E and the
operators over them, but no call and no sigma[...]) are one node of its
tree.  ``build`` compiles each expression once into values and closures,
and folds each such node once for the whole document; every evaluation
error still fails only its own assertion, when the report runs.

``^`` on a number raises ValueError, before computing, when the exponent
times the bit length of the base (for a Fraction, the longer of numerator
and denominator) passes 100,000; bases 0, 1 and -1 are exempt, and a
Schubert cycle of codimension 0, which is c times the unit class, counts
as c.  A Schubert cycle raised past the top degree is the zero cycle of that
codimension, computed without multiplying.
"""

from __future__ import annotations

import operator
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Optional

from . import blowup, profiles
from .blowup import BlowupModel, CurveCenter, Divisor, SurfaceCenter
from .schubert import Grassmannian, SchubertCycle, grass_dim, sigma

# Operator -> (precedence, right-associative).  The parser and the printer
# both read this table; unary minus has a key that no token equals.
_UNARY_MINUS = "unary -"
_PRECEDENCE = {"+": (1, False), "-": (1, False), "*": (2, False), _UNARY_MINUS: (3, False),
               "^": (4, True)}

# Bound on both the parser's nesting depth and the height of an expression
# tree.  The printer takes one frame per level of height, the compiler and
# the compiled closures two, and the parser about three per level of
# nesting; unbounded, they fail near 1000, 500, 500 and 350 levels at the
# interpreter's default recursion limit of 1000.  64 leaves room for the
# caller and for the engine calls an assertion makes.
_MAX_DEPTH = 64

_AMBIENTS = {
    "p4": (),
    "w22": (2, 2),
    "gr24": (2, 4),
    "gr25": (2, 5),
    "gr26": (2, 6),
}

_CI_AMBIENTS = ("p4", "w22")


class ParseError(ValueError):
    """A positioned syntax or document error; line and column are 1-based."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


# ---------------------------------------------------------------------------
# lexer

# One alternative per token kind, each followed by the whitespace and
# comments after it, so one match is one token.  \d is str.isdecimal and \w
# is str.isalnum or '_'.  A name starting with an ASCII letter or '_' is an
# IDENT; any other run of \w that is not an INT is a WORD, which the lexer
# accepts as a name only when its first character is a letter ('²' is not).
# A string that does not close matches BAD at its opening quote.  SYM comes
# first, as the most frequent kind; no other alternative before BAD can
# start with a SYM character, so the order changes no match.  Every run is
# possessive (Python 3.11): no shorter run could let the rest of the
# pattern match, so the engine keeps no backtracking state.
_STRING = r'"(?:[^"\\\n]|\\["\\])*+'
_SKIP = r"(?:[ \t\r\n]++|#[^\n]*+)*+"
_TOKEN = re.compile(
    r"(?:(?P<SYM>[=!]=|[{}()\[\],+\-*^])"
    r"|(?P<INT>\d++)"
    r"|(?P<IDENT>[A-Za-z_]\w*+)"
    r"|(?P<WORD>\w++)"
    rf'|(?P<STRING>{_STRING}")'
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.))" + _SKIP
)
_LEADING = re.compile(_SKIP)
_OPEN_STRING = re.compile(_STRING)
_NEWLINE = re.compile("\n")
_ESCAPE = re.compile(r"\\(.)")


def _position(newlines: list, offset: int) -> tuple:
    """The 1-based (line, column) of ``offset``, given the offsets of the source's newlines."""
    line = bisect_left(newlines, offset)
    return line + 1, offset - (newlines[line - 1] if line else -1)


def _lex(source: str, newlines: list) -> tuple:
    """Parallel lists (kinds, values, offsets), one entry per token and the last for EOF.

    A STRING's value keeps its quotes and escapes, so no string value equals
    a keyword or a symbol."""
    kinds, values, offsets = [], [], []
    for m in _TOKEN.finditer(source, _LEADING.match(source).end()):
        kind = m.lastgroup
        kinds.append(kind)
        values.append(m[kind])
        offsets.append(m.start())
    if "WORD" in kinds or "BAD" in kinds:
        for i, kind in enumerate(kinds):
            if kind == "WORD" and values[i][0].isalpha():
                kinds[i] = "IDENT"
            elif kind in ("WORD", "BAD"):
                _lex_error(source, newlines, offsets[i])
    return kinds, values, offsets


def _lex_error(source: str, newlines: list, offset: int):
    """Raise the ParseError for the character at ``offset`` that starts no token."""
    if source[offset] == '"':
        end = _OPEN_STRING.match(source, offset).end()
        if source.startswith("\\", end):
            raise ParseError(*_position(newlines, end), "unsupported escape in string literal")
        raise ParseError(*_position(newlines, offset), "unterminated string literal")
    raise ParseError(*_position(newlines, offset), f"unexpected character {source[offset]!r}")


# ---------------------------------------------------------------------------
# syntax tree (slotted, not frozen: a pass builds one node per few tokens,
# and a frozen node costs twice as much to build; nothing mutates them, so
# a document holds each setup-free subtree once, however often it occurs)

@dataclass(slots=True)
class IntLit:
    value: int


@dataclass(slots=True)
class DivisorAtom:
    name: str  # "H" or "E"


@dataclass(slots=True)
class SigmaAtom:
    parts: tuple


@dataclass(slots=True)
class Call:
    name: str
    args: tuple


@dataclass(slots=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(slots=True)
class Neg:
    operand: object


@dataclass(slots=True)
class ProfileStmt:
    ident: str
    h4: int
    index: int
    c2h2: Optional[int]
    ambient: Optional[str]
    codim: Optional[int]
    chi: int
    euler: int
    line: int
    column: int


@dataclass(slots=True)
class CenterStmt:
    kind: str  # "curve" or "surface"
    fields: tuple  # ordered (name, value) pairs
    line: int
    column: int


@dataclass(slots=True)
class GrassStmt:
    k: int
    n: int
    line: int
    column: int


@dataclass(slots=True)
class AssertStmt:
    left: object
    op: str
    right: object
    cite: str
    label: Optional[str]
    line: int
    column: int


@dataclass(slots=True)
class ScenarioNode:
    name: str
    statements: list
    line: int
    column: int


@dataclass
class Document:
    scenarios: list = field(default_factory=list)

    def pretty(self) -> str:
        return "\n".join(_print_scenario(s) for s in self.scenarios)

    def build(self) -> list:
        folded = {}  # see _compile; it lives only as long as this call
        return [_build_scenario(node, folded) for node in self.scenarios]


# ---------------------------------------------------------------------------
# parser

# Center kind -> its class; the grammar reads the field names off the class.
_CENTERS = {"curve": CurveCenter, "surface": SurfaceCenter}

# The two divisor leaves, shared by every tree.
_DIVISOR_ATOMS = {"H": DivisorAtom("H"), "E": DivisorAtom("E")}


class _Parser:
    """Recursive descent over the lexer's lists; ``pos`` indexes them and never passes EOF."""

    def __init__(self, source: str):
        self.newlines = [m.start() for m in _NEWLINE.finditer(source)]
        self.kinds, self.values, self.offsets = _lex(source, self.newlines)
        self.pos = 0
        self.depth = 0
        # INT text -> its IntLit, and (operator, id(operand), ...) -> its Neg
        # or BinOp, so equal literals, and operators over the same nodes, are
        # one node of the document.  No call and no sigma[...] is shared, so
        # only setup-free subtrees repeat; the table keeps each id in use.
        self.shared = {}

    def position(self, i: int) -> tuple:
        return _position(self.newlines, self.offsets[i])

    def fail(self, i: int, message: str):
        raise ParseError(*self.position(i), message)

    def describe(self, i: int) -> str:
        kind = self.kinds[i]
        if kind == "EOF":
            return "end of input"
        if kind == "STRING":
            return "a string"
        return repr(self.values[i])

    def int_value(self, i: int) -> int:
        text = self.values[i]
        try:
            return int(text)
        except ValueError:
            # the only way int() fails on a run of decimal digits
            self.fail(
                i,
                f"integer literal has {len(text)} digits, more than the"
                f" interpreter's limit of {sys.get_int_max_str_digits()}",
            )

    def expect(self, text: str, wanted: Optional[str] = None) -> int:
        """Consume the keyword or symbol ``text`` and return its index; ``wanted`` overrides the message."""
        i = self.pos
        if self.values[i] != text:
            self.fail(i, f"expected {wanted or repr(text)}, found {self.describe(i)}")
        self.pos = i + 1
        return i

    def expect_kind(self, kind: str, wanted: str) -> str:
        i = self.pos
        if self.kinds[i] != kind:
            self.fail(i, f"expected {wanted}, found {self.describe(i)}")
        self.pos = i + 1
        return self.values[i]

    def expect_string(self) -> str:
        return _ESCAPE.sub(r"\1", self.expect_kind("STRING", "a string")[1:-1])

    def expect_int(self) -> int:
        sign = 1
        if self.values[self.pos] == "-":
            self.pos += 1
            sign = -1
        self.expect_kind("INT", "an integer")
        return sign * self.int_value(self.pos - 1)

    def expect_field(self, word: str) -> int:
        self.expect(word)
        return self.expect_int()

    # document / scenario / statements

    def parse_document(self) -> Document:
        doc = Document()
        seen = set()
        while self.kinds[self.pos] != "EOF":
            node = self.parse_scenario()
            if node.name in seen:
                raise ParseError(node.line, node.column, f"duplicate scenario name {node.name!r}")
            seen.add(node.name)
            doc.scenarios.append(node)
        return doc

    def parse_scenario(self) -> ScenarioNode:
        kw = self.expect("scenario")
        name = self.expect_string()
        self.expect("{")
        statements = []
        while self.values[self.pos] != "}":
            i = self.pos
            parse_statement = self._STATEMENTS.get(self.values[i])
            if parse_statement is None:
                self.fail(i, f"expected a statement or '}}', found {self.describe(i)}")
            self.pos = i + 1
            statements.append(parse_statement(self, i))
        self.pos += 1
        return ScenarioNode(name, statements, *self.position(kw))

    # each statement parser starts after its keyword, whose index it gets for its position

    def parse_profile(self, kw: int) -> ProfileStmt:
        ident = self.expect_kind("IDENT", "a name")
        h4 = self.expect_field("h4")
        index = self.expect_field("index")
        c2h2 = ambient = codim = None
        value = self.values[self.pos]
        if value == "c2h2":
            c2h2 = self.expect_field("c2h2")
        elif value == "ambient":
            self.pos += 1
            ambient = self.expect_kind("IDENT", "a name")
            codim = self.expect_field("codim")
        else:
            self.fail(self.pos, f"expected 'c2h2' or 'ambient', found {self.describe(self.pos)}")
        chi = self.expect_field("chi")
        euler = self.expect_field("euler")
        return ProfileStmt(ident, h4, index, c2h2, ambient, codim, chi, euler, *self.position(kw))

    def parse_center(self, kw: int) -> CenterStmt:
        kind = self.expect_kind("IDENT", "a name")
        center = _CENTERS.get(kind)
        if center is None:
            self.fail(kw + 1, f"expected 'curve' or 'surface', found {kind!r}")
        values = tuple((f.name, self.expect_field(f.name)) for f in fields(center))
        return CenterStmt(kind, values, *self.position(kw))

    def parse_grass(self, kw: int) -> GrassStmt:
        k = self.expect_int()
        n = self.expect_int()
        return GrassStmt(k, n, *self.position(kw))

    def parse_assert(self, kw: int) -> AssertStmt:
        left, _ = self.nested(self.pos)
        op = self.values[self.pos]
        if op != "==" and op != "!=":
            self.fail(self.pos, f"expected '==' or '!=', found {self.describe(self.pos)}")
        self.pos += 1
        right, _ = self.nested(self.pos)
        self.expect("cite")
        cite = self.expect_string()
        label = None
        if self.values[self.pos] == "label":
            self.pos += 1
            label = self.expect_string()
        return AssertStmt(left, op, right, cite, label, *self.position(kw))

    _STATEMENTS = {
        "profile": parse_profile,
        "center": parse_center,
        "grassmannian": parse_grass,
        "assert": parse_assert,
    }

    # expressions, by precedence climbing over _PRECEDENCE.  Each method
    # returns (tree, height).  An assertion side, a parenthesis, a call
    # argument, a unary minus and a right-associative operator's
    # right side each go one nesting level down.

    def nested(self, i: int, min_prec: int = 1):
        """An expression one nesting level down; too deep is reported at token ``i``."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail(i, "expression nesting too deep")
        result = self.expr(min_prec)
        self.depth -= 1
        return result

    def expr(self, min_prec: int):
        """The expression at ``pos`` whose binary operators bind at least ``min_prec``."""
        kinds, values = self.kinds, self.values
        i = self.pos
        kind, value = kinds[i], values[i]
        self.pos = i + 1
        if kind == "INT":
            node = self.shared.get(value) or self.share(value, IntLit(self.int_value(i)))
            height = 1
        elif kind == "IDENT":
            follow = values[i + 1]
            if follow == "(":
                node, height = self.call(i)
            elif follow == "[" and value == "sigma":
                node, height = self.sigma(i), 1
            elif (node := _DIVISOR_ATOMS.get(value)) is not None:
                height = 1
            else:
                self.fail(i, f"unknown name {value!r}")
        elif value == "-":
            operand, height = self.nested(i, _PRECEDENCE[_UNARY_MINUS][0])
            key = (_UNARY_MINUS, id(operand))
            node = self.shared.get(key) or self.share(key, Neg(operand))
            height += 1
            if height > _MAX_DEPTH:
                self.fail(i, "expression nesting too deep")
        elif value == "(":
            node, height = self.nested(self.pos)
            self.expect(")")
        else:
            self.fail(i, f"expected an expression, found {self.describe(i)}")
        while (entry := _PRECEDENCE.get(values[i := self.pos])) is not None and entry[0] >= min_prec:
            self.pos = i + 1
            prec, right_assoc = entry
            if right_assoc:  # recurses at its own precedence, so it nests
                rhs, rhs_height = self.nested(i, prec)
            else:
                rhs, rhs_height = self.expr(prec + 1)
            key = (values[i], id(node), id(rhs))
            node = self.shared.get(key) or self.share(key, BinOp(values[i], node, rhs))
            height = (height if height > rhs_height else rhs_height) + 1
            if height > _MAX_DEPTH:
                self.fail(i, "expression nesting too deep")
        return node, height

    def share(self, key, node):
        """Record ``node`` as the document's one node for ``key``."""
        self.shared[key] = node
        return node

    def call(self, i: int):
        """The call whose name is token ``i``."""
        values = self.values
        self.pos = i + 2
        args, height = [], 0
        if values[i + 2] != ")":
            while True:
                arg, arg_height = self.nested(self.pos)
                args.append(arg)
                if arg_height > height:
                    height = arg_height
                if values[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        if height >= _MAX_DEPTH:
            self.fail(i, "expression nesting too deep")
        return Call(values[i], tuple(args)), height + 1

    def sigma(self, i: int) -> SigmaAtom:
        """The atom ``sigma[...]`` whose name is token ``i``."""
        self.pos = i + 2
        parts = [self.expect_int()]
        while self.values[self.pos] == ",":
            self.pos += 1
            parts.append(self.expect_int())
        self.expect("]", "',' or ']'")
        return SigmaAtom(tuple(parts))


def parse(source: str) -> Document:
    """Parse a document; raise :class:`ParseError` with 1-based position."""
    return _Parser(source).parse_document()


# ---------------------------------------------------------------------------
# canonical printing

def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_expr(node, min_prec: int = 0) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, DivisorAtom):
        return node.name
    if isinstance(node, SigmaAtom):
        return "sigma[" + ", ".join(str(p) for p in node.parts) + "]"
    if isinstance(node, Call):
        return node.name + "(" + ", ".join(_print_expr(a) for a in node.args) + ")"
    if isinstance(node, Neg):
        prec = _PRECEDENCE[_UNARY_MINUS][0]
        text = "-" + _print_expr(node.operand, prec)
    else:
        prec, right_assoc = _PRECEDENCE[node.op]
        op = "^" if node.op == "^" else f" {node.op} "
        left = _print_expr(node.left, prec + 1 if right_assoc else prec)
        text = left + op + _print_expr(node.right, prec if right_assoc else prec + 1)
    return f"({text})" if prec < min_prec else text


def _print_statement(stmt) -> str:
    if isinstance(stmt, ProfileStmt):
        if stmt.ambient is None:
            middle = f"c2h2 {stmt.c2h2}"
        else:
            middle = f"ambient {stmt.ambient} codim {stmt.codim}"
        return (
            f"profile {stmt.ident} h4 {stmt.h4} index {stmt.index} {middle}"
            f" chi {stmt.chi} euler {stmt.euler}"
        )
    if isinstance(stmt, CenterStmt):
        body = " ".join(f"{name} {value}" for name, value in stmt.fields)
        return f"center {stmt.kind} {body}"
    if isinstance(stmt, GrassStmt):
        return f"grassmannian {stmt.k} {stmt.n}"
    if isinstance(stmt, AssertStmt):
        text = (
            f"assert {_print_expr(stmt.left)} {stmt.op} {_print_expr(stmt.right)}"
            f" cite {_quote(stmt.cite)}"
        )
        if stmt.label is not None:
            text += f" label {_quote(stmt.label)}"
        return text
    raise TypeError(f"cannot print {stmt!r}")


def _print_scenario(node: ScenarioNode) -> str:
    lines = [f"scenario {_quote(node.name)} {{"]
    lines.extend("  " + _print_statement(s) for s in node.statements)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# what a document builds: scenarios of deferred assertions

@dataclass
class Assertion:
    label: str
    cite: str
    op: str
    expected: Callable[[], object]
    actual: Callable[[], object]

    def __post_init__(self):
        if self.op not in ("==", "!="):
            raise ValueError(f"unsupported comparison {self.op!r}")


@dataclass
class Scenario:
    name: str
    assertions: list
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# evaluation: each expression is compiled once, at build, into values and
# closures that hold no syntax node

_SETUP_KEYWORDS = {ProfileStmt: "profile", CenterStmt: "center", GrassStmt: "grassmannian"}


def _once(method):
    """Run a _Setup method once; later calls return its value or raise its error again."""

    def resolved(self):
        if method not in self.outcomes:
            try:
                self.outcomes[method] = method(self), None
            except Exception as exc:  # noqa: BLE001 - each assertion reports it
                self.outcomes[method] = None, exc
        value, error = self.outcomes[method]
        if error is not None:
            raise error.with_traceback(None)  # a fresh traceback, not a growing one
        return value

    return resolved


class _Setup:
    """Deferred, validated scenario state shared by all assertion closures."""

    def __init__(self):
        self.statements = {}  # keyword -> the scenario's one statement of that kind
        self.outcomes = {}  # _once method -> (value, exception)

    def add(self, stmt):
        keyword = _SETUP_KEYWORDS.get(type(stmt))
        if keyword is None:
            return
        if keyword in self.statements:
            raise ParseError(stmt.line, stmt.column, f"duplicate {keyword} statement")
        self.statements[keyword] = stmt

    def statement(self, keyword: str):
        stmt = self.statements.get(keyword)
        if stmt is None:
            raise ValueError(f"no {keyword} statement in this scenario")
        return stmt

    def profile(self):
        stmt = self.statement("profile")
        if stmt.ambient is None:
            return blowup.FourfoldProfile(
                name=stmt.ident,
                h4=stmt.h4,
                index=stmt.index,
                c2h2=stmt.c2h2,
                chi=stmt.chi,
                euler=stmt.euler,
            )
        if stmt.ambient not in _AMBIENTS:
            raise ValueError(f"unknown ambient {stmt.ambient!r}")
        if stmt.ambient in _CI_AMBIENTS:
            if stmt.codim != 0:
                raise ValueError(f"ambient {stmt.ambient!r} requires codim 0")
            derived = profiles.ci_profile(stmt.ident, _AMBIENTS[stmt.ambient])
        else:
            k, n = _AMBIENTS[stmt.ambient]
            derived = profiles.section_profile(stmt.ident, k, n, stmt.codim)
        stated = (stmt.h4, stmt.index, stmt.chi, stmt.euler)
        found = (derived.h4, derived.index, derived.chi, derived.euler)
        if stated != found:
            raise ValueError(
                f"profile literals (h4, index, chi, euler) = {stated}"
                f" disagree with the derived values {found}"
            )
        return derived

    def center(self):
        stmt = self.statement("center")
        return _CENTERS[stmt.kind](**dict(stmt.fields))

    @_once
    def model(self) -> BlowupModel:
        return BlowupModel(self.profile(), self.center())

    @_once
    def grassmannian(self) -> Grassmannian:
        stmt = self.statement("grassmannian")
        return Grassmannian(stmt.k, stmt.n)


def _as_int(value, what: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _as_divisor(value, what: str) -> Divisor:
    if not isinstance(value, Divisor):
        raise TypeError(f"{what} must be a divisor expression in H and E")
    return value


def _quartic(setup, *args):
    divisors = [_as_divisor(a, "a quartic() argument") for a in args]
    return blowup.quartic_number(setup.model(), *divisors)


def _degree(setup, cycle):
    if not isinstance(cycle, SchubertCycle):
        raise TypeError("degree() takes a Schubert cycle")
    return cycle.integral()


def _chern(setup, *args):
    k, n, codim, i = (_as_int(v, "a chern() argument") for v in args)
    return profiles.section_model(k, n, codim).chern.component(i)


# Function name -> (arity, rule of the scenario setup and the argument
# values).  The rules reach the engine through its module attributes, so a
# caller that rebinds one (a tracer, a test) sees every call.
_FUNCTIONS = {
    "quartic": (4, _quartic),
    "chi": (1, lambda setup, d: blowup.chi_riemann_roch(
        setup.model(), _as_divisor(d, "the chi() argument"))),
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


_OPERATORS = {"+": _additive("+", operator.add), "-": _additive("-", operator.sub),
              "*": _times, "^": _power}


def _compile(node, setup: _Setup, folded: dict):
    """``node`` as its value when it needs no scenario setup and evaluates, else as a closure.

    ``folded`` maps the id of each operator node already folded in this
    build to its result, so a node the parser shared is folded once.  A
    closure raises when it runs: arguments first, then unknown name, arity
    and types."""
    if id(node) in folded:
        return folded[id(node)]
    return _COMPILERS[type(node)](node, setup, folded)


def _compile_sigma(node: SigmaAtom, setup: _Setup, folded: dict):
    parts = node.parts
    return lambda: sigma(setup.grassmannian(), *parts)


def _compile_call(node: Call, setup: _Setup, folded: dict):
    name, entry = node.name, _FUNCTIONS.get(node.name)
    args = [_compile(arg, setup, folded) for arg in node.args]

    def call():
        values = [arg() if callable(arg) else arg for arg in args]
        if entry is None:
            raise ValueError(f"unknown function {name!r}")
        if len(values) != entry[0]:
            raise TypeError(f"{name}() takes {entry[0]} arguments, got {len(values)}")
        return entry[1](setup, *values)

    return call


def _compile_neg(node: Neg, setup: _Setup, folded: dict):
    operand = _compile(node.operand, setup, folded)
    if callable(operand):
        return lambda: -operand()
    value = folded[id(node)] = -operand  # an int or a Divisor, and both negate
    return value


def _compile_binop(node: BinOp, setup: _Setup, folded: dict):
    """The operator's result when both operands are values and it succeeds, else a closure."""
    rule = _OPERATORS[node.op]
    left, right = _compile(node.left, setup, folded), _compile(node.right, setup, folded)
    if callable(left):
        if callable(right):
            return lambda: rule(left(), right())
        return lambda: rule(left(), right)
    if callable(right):
        return lambda: rule(left, right())
    try:
        value = rule(left, right)
    except Exception:  # noqa: BLE001 - the closure raises it again when it runs
        value = lambda: rule(left, right)
    folded[id(node)] = value
    return value


_COMPILERS = {
    IntLit: lambda node, setup, folded: node.value,
    DivisorAtom: lambda node, setup, folded: blowup.H if node.name == "H" else blowup.E,
    SigmaAtom: _compile_sigma,
    Call: _compile_call,
    Neg: _compile_neg,
    BinOp: _compile_binop,
}


def _thunk(compiled) -> Callable[[], object]:
    """A closure for a compiled expression; no value the language computes is callable."""
    return compiled if callable(compiled) else lambda: compiled


def _build_scenario(node: ScenarioNode, folded: dict) -> Scenario:
    setup = _Setup()
    for stmt in node.statements:
        setup.add(stmt)
    assertions, labels = [], set()
    asserts = [stmt for stmt in node.statements if isinstance(stmt, AssertStmt)]
    for counter, stmt in enumerate(asserts, 1):
        label = stmt.label if stmt.label is not None else f"a{counter:02d}"
        if label in labels:
            raise ParseError(stmt.line, stmt.column, f"duplicate assertion label {label!r}")
        labels.add(label)
        expected = _thunk(_compile(stmt.right, setup, folded))
        actual = _thunk(_compile(stmt.left, setup, folded))
        assertions.append(Assertion(label, stmt.cite, stmt.op, expected, actual))
    return Scenario(name=node.name, assertions=assertions)
