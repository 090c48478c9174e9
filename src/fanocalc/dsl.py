"""A small declarative language for verification scenarios.

Lexical rules: whitespace is space, tab, CR and LF only; a comment runs from
'#' to the end of the line; an integer is a run of Unicode decimal digits; a
name is a letter or '_' followed by letters, digits or '_'; a string is
double-quoted, escapes only '\\"' and '\\\\', and cannot span lines.

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

``build`` compiles each expression once into values and closures; every
evaluation error still fails only its own assertion, when the report runs.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import blowup, profiles
from .blowup import BlowupModel, CurveCenter, Divisor, SurfaceCenter
from .schubert import Grassmannian, SchubertCycle, grass_dim, sigma

# Operator -> (precedence, right-associative); "neg" is unary minus.  The
# parser and the printer both read this table.
_PRECEDENCE = {"+": (1, False), "-": (1, False), "*": (2, False), "neg": (3, False),
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

# One alternative per token kind.  \d is str.isdecimal and \w is
# str.isalnum or '_', so IDENT also matches names that start with a
# non-decimal digit such as '²'; the lexer rejects those.  STRING stops
# before the closing quote, so the lexer can tell an unterminated string
# from a bad escape.
_TOKEN = re.compile(
    r"(?P<SKIP>(?:[ \t\r\n]|#[^\n]*)+)"
    r"|(?P<INT>\d+)"
    r"|(?P<IDENT>\w+)"
    r'|(?P<STRING>"(?:[^"\\\n]|\\["\\])*)'
    r"|(?P<SYM>[=!]=|[{}()\[\],+\-*^])"
)
_ESCAPE = re.compile(r"\\(.)")


@dataclass(slots=True)  # not frozen: one is built per token, and frozen costs twice as much
class _Token:
    kind: str  # IDENT, INT, STRING, SYM, EOF
    value: str
    line: int
    column: int


def _lex(source: str) -> list:
    tokens = []
    line, line_start, pos = 1, 0, 0
    match = _TOKEN.match
    while (m := match(source, pos)) is not None:
        kind, text, end = m.lastgroup, m.group(), m.end()
        if kind == "SKIP":
            newline = text.rfind("\n")
            if newline >= 0:
                line += text.count("\n")
                line_start = pos + newline + 1
        elif kind == "IDENT" and not (text[0].isalpha() or text[0] == "_"):
            break  # reported below as an unexpected character
        else:
            column = pos - line_start + 1
            if kind == "STRING":
                if not source.startswith('"', end):
                    if source.startswith("\\", end):
                        column = end - line_start + 1
                        raise ParseError(line, column, "unsupported escape in string literal")
                    raise ParseError(line, column, "unterminated string literal")
                text = _ESCAPE.sub(r"\1", text[1:])
                end += 1
            tokens.append(_Token(kind, text, line, column))
        pos = end
    if pos < len(source):
        raise ParseError(line, pos - line_start + 1, f"unexpected character {source[pos]!r}")
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class DivisorAtom:
    name: str  # "H" or "E"


@dataclass(frozen=True)
class SigmaAtom:
    parts: tuple


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CenterStmt:
    kind: str  # "curve" or "surface"
    fields: tuple  # ordered (name, value) pairs
    line: int
    column: int


@dataclass(frozen=True)
class GrassStmt:
    k: int
    n: int
    line: int
    column: int


@dataclass(frozen=True)
class AssertStmt:
    left: object
    op: str
    right: object
    cite: str
    label: Optional[str]
    line: int
    column: int


@dataclass
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
        return [_build_scenario(node) for node in self.scenarios]


# ---------------------------------------------------------------------------
# parser

_CENTER_FIELDS = {
    "curve": ("genus", "hc"),
    "surface": ("hhc", "hkc", "kc2", "euler", "c2xc"),
}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        """Whether the next token is the keyword or symbol ``text``."""
        tok = self.tokens[self.pos]
        return tok.value == text and tok.kind != "STRING"

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str):
        raise ParseError(tok.line, tok.column, message)

    def int_value(self, tok: _Token) -> int:
        try:
            return int(tok.value)
        except ValueError:
            # the only way int() fails on a run of decimal digits
            self.fail(
                tok,
                f"integer literal has {len(tok.value)} digits, more than the"
                f" interpreter's limit of {sys.get_int_max_str_digits()}",
            )

    def bound(self, tok: _Token, levels: int):
        """Fail at ``tok`` when a nesting depth or tree height passes _MAX_DEPTH."""
        if levels > _MAX_DEPTH:
            self.fail(tok, "expression nesting too deep")

    def expect(self, text: str, wanted: Optional[str] = None) -> _Token:
        """Consume the keyword or symbol ``text``; ``wanted`` overrides the message."""
        tok = self.next()
        if tok.value != text or tok.kind == "STRING":
            self.fail(tok, f"expected {wanted or repr(text)}, found {self._describe(tok)}")
        return tok

    def expect_ident(self) -> _Token:
        tok = self.next()
        if tok.kind != "IDENT":
            self.fail(tok, f"expected a name, found {self._describe(tok)}")
        return tok

    def expect_string(self) -> _Token:
        tok = self.next()
        if tok.kind != "STRING":
            self.fail(tok, f"expected a string, found {self._describe(tok)}")
        return tok

    def expect_int(self) -> int:
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "INT":
            self.fail(tok, f"expected an integer, found {self._describe(tok)}")
        return sign * self.int_value(tok)

    def expect_field(self, word: str) -> int:
        self.expect(word)
        return self.expect_int()

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "EOF":
            return "end of input"
        if tok.kind == "STRING":
            return "a string"
        return repr(tok.value)

    # document / scenario / statements

    def parse_document(self) -> Document:
        doc = Document()
        seen = set()
        while self.peek().kind != "EOF":
            node = self.parse_scenario()
            if node.name in seen:
                raise ParseError(node.line, node.column, f"duplicate scenario name {node.name!r}")
            seen.add(node.name)
            doc.scenarios.append(node)
        return doc

    def parse_scenario(self) -> ScenarioNode:
        kw = self.expect("scenario")
        name = self.expect_string().value
        self.expect("{")
        statements = []
        while not self.at("}"):
            tok = self.peek()
            parse_statement = self._STATEMENTS.get(tok.value) if tok.kind == "IDENT" else None
            if parse_statement is None:
                self.fail(tok, f"expected a statement or '}}', found {self._describe(tok)}")
            statements.append(parse_statement(self))
        self.next()
        return ScenarioNode(name, statements, kw.line, kw.column)

    # each statement parser starts at its keyword, which parse_scenario has matched

    def parse_profile(self) -> ProfileStmt:
        kw = self.next()
        ident = self.expect_ident().value
        h4 = self.expect_field("h4")
        index = self.expect_field("index")
        c2h2 = ambient = codim = None
        if self.at("c2h2"):
            c2h2 = self.expect_field("c2h2")
        elif self.at("ambient"):
            self.next()
            ambient = self.expect_ident().value
            codim = self.expect_field("codim")
        else:
            tok = self.peek()
            self.fail(tok, f"expected 'c2h2' or 'ambient', found {self._describe(tok)}")
        chi = self.expect_field("chi")
        euler = self.expect_field("euler")
        return ProfileStmt(ident, h4, index, c2h2, ambient, codim, chi, euler, kw.line, kw.column)

    def parse_center(self) -> CenterStmt:
        kw = self.next()
        tok = self.expect_ident()
        names = _CENTER_FIELDS.get(tok.value)
        if names is None:
            self.fail(tok, f"expected 'curve' or 'surface', found {self._describe(tok)}")
        fields = tuple((name, self.expect_field(name)) for name in names)
        return CenterStmt(tok.value, fields, kw.line, kw.column)

    def parse_grass(self) -> GrassStmt:
        kw = self.next()
        k = self.expect_int()
        n = self.expect_int()
        return GrassStmt(k, n, kw.line, kw.column)

    def parse_assert(self) -> AssertStmt:
        kw = self.next()
        left, _ = self.parse_nested(self.peek())
        tok = self.next()
        if tok.kind != "SYM" or tok.value not in ("==", "!="):
            self.fail(tok, f"expected '==' or '!=', found {self._describe(tok)}")
        right, _ = self.parse_nested(self.peek())
        self.expect("cite")
        cite = self.expect_string().value
        label = None
        if self.at("label"):
            self.next()
            label = self.expect_string().value
        return AssertStmt(left, tok.value, right, cite, label, kw.line, kw.column)

    _STATEMENTS = {
        "profile": parse_profile,
        "center": parse_center,
        "grassmannian": parse_grass,
        "assert": parse_assert,
    }

    # expressions, by precedence climbing over _PRECEDENCE.  Each method
    # returns (tree, height).  An assertion side, a parenthesis, a call
    # argument, a unary minus and a right-associative operator's right side
    # each go one nesting level down.

    def parse_nested(self, tok: _Token, min_prec: int = 1):
        """An expression one nesting level down; too deep is reported at ``tok``."""
        self.depth += 1
        self.bound(tok, self.depth)
        result = self.parse_expr(min_prec)
        self.depth -= 1
        return result

    def parse_expr(self, min_prec: int):
        tok = self.peek()
        if tok.value == "-" and tok.kind == "SYM":
            self.next()
            operand, height = self.parse_nested(tok, _PRECEDENCE["neg"][0])
            node, height = Neg(operand), height + 1
            self.bound(tok, height)
        else:
            node, height = self.parse_atom()
        while (tok := self.peek()).kind == "SYM" and tok.value in _PRECEDENCE:
            prec, right_assoc = _PRECEDENCE[tok.value]
            if prec < min_prec:
                break
            self.next()
            if right_assoc:  # recurses at its own precedence, so it nests
                rhs, rhs_height = self.parse_nested(tok, prec)
            else:
                rhs, rhs_height = self.parse_expr(prec + 1)
            node = BinOp(tok.value, node, rhs)
            height = (height if height > rhs_height else rhs_height) + 1
            self.bound(tok, height)
        return node, height

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "INT":
            return IntLit(self.int_value(tok)), 1
        if tok.kind == "IDENT":
            if self.at("("):
                self.next()
                args = [] if self.at(")") else [self.parse_nested(self.peek())]
                while args and self.at(","):
                    self.next()
                    args.append(self.parse_nested(self.peek()))
                self.expect(")")
                nodes, heights = zip(*args) if args else ((), (0,))
                height = max(heights) + 1
                self.bound(tok, height)
                return Call(tok.value, nodes), height
            if tok.value == "sigma" and self.at("["):
                self.next()
                parts = [self.expect_int()]
                while self.at(","):
                    self.next()
                    parts.append(self.expect_int())
                self.expect("]", "',' or ']'")
                return SigmaAtom(tuple(parts)), 1
            if tok.value in ("H", "E"):
                return DivisorAtom(tok.value), 1
            self.fail(tok, f"unknown name {tok.value!r}")
        if tok.kind == "SYM" and tok.value == "(":
            result = self.parse_nested(self.peek())
            self.expect(")")
            return result
        self.fail(tok, f"expected an expression, found {self._describe(tok)}")


def parse(source: str) -> Document:
    """Parse a document; raise :class:`ParseError` with 1-based position."""
    return _Parser(_lex(source)).parse_document()


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
        prec = _PRECEDENCE["neg"][0]
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
                c1c2h=stmt.index * stmt.c2h2,
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
        return (CurveCenter if stmt.kind == "curve" else SurfaceCenter)(**dict(stmt.fields))

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


def _additive(op: str, combine):
    """The rule for + or -: two numbers, two divisors or two Schubert cycles."""

    def rule(left, right):
        if type(left) is type(right) or isinstance(left, _NUMBER) and isinstance(right, _NUMBER):
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


def _power(left, right):
    exponent = _as_int(right, "an exponent")
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    if isinstance(left, Divisor):
        raise TypeError(f"cannot raise {type(left).__name__} to a power")
    return left ** exponent


_OPERATORS = {"+": _additive("+", operator.add), "-": _additive("-", operator.sub),
              "*": _times, "^": _power}


def _compile(node, setup: _Setup):
    """``node`` as its value when it needs no scenario setup and evaluates, else as a closure.

    A closure raises when it runs: arguments first, then unknown name, arity and types."""
    return _COMPILERS[type(node)](node, setup)


def _compile_sigma(node: SigmaAtom, setup: _Setup):
    parts = node.parts
    return lambda: sigma(setup.grassmannian(), *parts)


def _compile_call(node: Call, setup: _Setup):
    name, entry = node.name, _FUNCTIONS.get(node.name)
    args = [_compile(arg, setup) for arg in node.args]

    def call():
        values = [arg() if callable(arg) else arg for arg in args]
        if entry is None:
            raise ValueError(f"unknown function {name!r}")
        if len(values) != entry[0]:
            raise TypeError(f"{name}() takes {entry[0]} arguments, got {len(values)}")
        return entry[1](setup, *values)

    return call


def _fold(rule, operands: list):
    """``rule`` applied at build when every operand is a value and it succeeds, else a closure."""
    if not any(map(callable, operands)):
        try:
            return rule(*operands)
        except Exception:  # noqa: BLE001 - the closure raises it again when it runs
            pass
    thunks = [_thunk(operand) for operand in operands]
    return lambda: rule(*[thunk() for thunk in thunks])


_COMPILERS = {
    IntLit: lambda node, setup: node.value,
    DivisorAtom: lambda node, setup: blowup.H if node.name == "H" else blowup.E,
    SigmaAtom: _compile_sigma,
    Call: _compile_call,
    Neg: lambda node, setup: _fold(operator.neg, [_compile(node.operand, setup)]),
    BinOp: lambda node, setup: _fold(
        _OPERATORS[node.op], [_compile(node.left, setup), _compile(node.right, setup)]),
}


def _thunk(compiled) -> Callable[[], object]:
    """A closure for a compiled expression; no value the language computes is callable."""
    return compiled if callable(compiled) else lambda: compiled


def _build_scenario(node: ScenarioNode) -> Scenario:
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
        expected, actual = (_thunk(_compile(side, setup)) for side in (stmt.right, stmt.left))
        assertions.append(Assertion(label, stmt.cite, stmt.op, expected, actual))
    return Scenario(name=node.name, assertions=assertions)
