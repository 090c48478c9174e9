"""A small declarative language for verification scenarios.

Lexical rules: whitespace is space, tab, CR and LF only; a comment runs from
'#' to the end of the line; an integer is a run of Unicode decimal digits; a
name is a letter or '_' followed by letters, digits or '_'; a string is
double-quoted, escapes only '\\"' and '\\\\', and cannot span lines.

The parser reads the tokens as it needs them, each one match of one
regular expression at a source offset, and keeps only the current token's
text and offsets; a token's kind is read from its text where a rule or a
message needs it.  An assertion's tail after its 'cite', the STRING and,
when there is one, 'label' and its STRING, is one match of a second
pattern; a tail it does not match, a missing or unclosed string or a
'label' with no string after it, is read token by token, so its error is
the one the tokens give.  The first error in the source is
the one reported, lexical or not: a character that starts no token, or a
string that does not close, is reported when the parser reaches it.  A
scenario name counts as read once its '}' is, an assertion label once its
assertion is, and a tree too tall once the operand that makes it so is.  A
(line, column) is worked out from an offset only for an error, and the
syntax tree stores none.  Both count from 1; only LF ends a line, and a
column counts characters, so a tab or a lone CR is one column.

The parser enforces every rule of a document, so a document it returns
always builds: a scenario has at most one each of profile, center and
grassmannian, its assertion labels are unique, the generated ones
included, and a scenario name is unique in the document, whose earlier
parses count too.  A source that fails adds no scenario to the document.

Grammar (statements in any order; integer fields may carry a leading '-'):

    document   := { scenario }
    scenario   := "scenario" STRING "{" { statement } "}"
    statement  := profile | center | grass | assert
    profile    := "profile" IDENT "h4" INT "index" INT
                  ("c2h2" INT | "ambient" IDENT "codim" INT) "chi" INT "euler" INT
    center     := "center" ("curve" "genus" INT "hc" INT
                  | "surface" "hhc" INT "hkc" INT "kc2" INT "euler" INT "c2xc" INT
                    [sigma])
    sigma      := "sigma" "[" INT {"," INT} "]"
    grass      := "grassmannian" INT INT
    assert     := "assert" expr ("==" | "!=") expr "cite" STRING ["label" STRING]
    expr       := arithmetic over INT, "H", "E", + - * ^, parentheses,
                  sigma, and calls quartic(e,e,e,e), chi(e),
                  euler(), genus(e,e), solve(e,e,e), degree(e),
                  chern(e,e,e,e), dim(e,e)

Operators, loosest first: binary + and - (precedence 1), * (2), unary - (3)
and ^ (4).  All group to the left except ^, which groups to the right, so
-2^2 is -(2^2) and 2^3^2 is 2^(3^2).  An expression nests at most 64 levels
(parentheses, call arguments, unary minus, the right side of ^) and its tree
is at most 64 levels tall; deeper input is a ParseError.

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
int, and H and E are the engine's divisors blowup.H and blowup.E; every
other node compares and hashes by identity.  Each distinct expression of a
document, over every source parsed into it, is one node: equal
subexpressions, and equal setup statements, are one object, though a call
or a sigma[...] atom, and an operator over one, takes a value under each
set of setup statements that its scenarios have.  A call argument or
parenthesised expression whose text, up to the next ',' or ')', holds
none of '(', '[', '"' and '#' is a setup-free subtree, and the parser
reads each distinct such text once per document; a later copy takes the
first one's node, and one match of a third pattern reads the copy, its
',' or ')' and the whitespace and comments after them, with no token
lexed.  A setup-free expression is computed once per document: its node
keeps its value when the first assertion that uses it runs, and every
later build of the document reads it.  Every other distinct expression is evaluated once
per build and distinct set of setup statements: running the built
scenarios, again or not, computes each of its nodes once under each such
set, when the first assertion that uses it runs.  Building evaluates
nothing, and an error is not kept: it fails each assertion that uses its
node, in every build, with the same message.

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
from collections.abc import Callable
from fractions import Fraction
from functools import partial

from . import blowup, profiles
from .blowup import BlowupModel, CurveCenter, Divisor, SurfaceCenter
from .schubert import Grassmannian, SchubertCycle, grass_dim, sigma

# Operator -> (precedence, right-associative).  The parser and the printer
# both read this table; unary minus has a key that no token equals.
_UNARY_MINUS = "unary -"
_PRECEDENCE = {"+": (1, False), "-": (1, False), "*": (2, False), _UNARY_MINUS: (3, False),
               "^": (4, True)}

# Bound on both the parser's nesting depth and the height of an expression
# tree.  The evaluator takes one frame per level of height, the printer one
# or, at a call, three, and the parser about three per level of nesting; at
# the default recursion limit of 1000 they fail near 990, 330 and 350
# levels.  64 leaves room for the caller and for an assertion's engine calls.
_MAX_DEPTH = 64

# Ambient name -> (k, n, degrees): hypersurfaces of these degrees cut it from Gr(k, n).
_AMBIENTS = {
    "p4": (1, 5, ()),
    "w22": (1, 7, (2, 2)),
    "gr24": (2, 4, ()),
    "gr25": (2, 5, ()),
    "gr26": (2, 6, ()),
}


class ParseError(ValueError):
    """A positioned syntax or document error; line and column are 1-based."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


# ---------------------------------------------------------------------------
# lexer

# One unnamed group holds the token, and the whitespace and comments after it
# follow, so one match is one token.  The alternatives, in order: a symbol;
# an INT, a run of \d (str.isdecimal); a run of \w (str.isalnum or '_')
# that is not an INT, which is a name when its first character is a letter
# or '_' ('²' starts none); a STRING; the end (EOF, an empty token); and any
# other character, BAD.  A string that does not close matches BAD at its
# opening quote.  The symbols come first, as the most frequent tokens; no
# other alternative before BAD can start with a symbol character, so the
# order changes no match.  Every run is possessive (Python 3.11): no shorter
# run could let the rest of the pattern match, so the engine keeps no
# backtracking state.  _kind reads a token's kind from its text.
_STRING = r'"[^"\\\n]*+(?:\\["\\][^"\\\n]*+)*+'
_SKIP = r"(?:[ \t\r\n]++|#[^\n]*+)*+"
_TOKEN = re.compile(rf'([=!]=|[{{}}()\[\],+\-*^]|\d++|\w++|{_STRING}"|\Z|.)' + _SKIP)
_LEADING = re.compile(_SKIP)
_OPEN_STRING = re.compile(_STRING)
_ESCAPE = re.compile(r"\\(.)")
_SYMBOLS = frozenset(("==", "!=", *"{}()[],+-*^"))


def _kind(text: str) -> str:
    """The kind of the token whose text is ``text``: SYM, EOF, INT, IDENT, STRING, WORD or BAD.

    A WORD is a run of \\w that is neither an INT nor a name; a STRING
    keeps its quotes, so a lone '"' is the BAD of a string that does not
    close."""
    if text in _SYMBOLS:
        return "SYM"
    if not text:
        return "EOF"
    first = text[0]
    if first.isdecimal():
        return "INT"
    if first.isalpha() or first == "_":
        return "IDENT"
    if first == '"':
        return "STRING" if len(text) > 1 else "BAD"
    return "WORD" if first.isalnum() else "BAD"


# From an offset, the text up to the next ',' or ')' when it holds none of
# '(', '[', '"' and '#', then that ',' or ')' and the whitespace and
# comments after it, so the match ends where _TOKEN's match of the ',' or
# ')' would.  _Parser.operand reads a repeated such text once; with every
# operand parsed, the warm scenario-files pass took 2.2 times as long
# (medians of 10 alternating processes a side, Python 3.11.7, 2 vCPUs).
_PLAIN = re.compile(r'([^,()\["#]*+)([,)])' + _SKIP)

# From the offset after an assertion's 'cite': its STRING, then 'label' and
# its STRING or no 'label' at all, each with the whitespace and comments
# after it, so the match ends where _TOKEN's match of the last of them
# would.  Any other tail fails the match (the lookahead keeps a 'label', or
# a name that starts with it, from ending one), and the parser reads it
# token by token, so its error is the one the tokens give.  Read token by
# token everywhere, the warm scenario-files pass was 4.3 % slower (medians
# of 10 alternating processes a side, Python 3.11.7, 2 vCPUs).
_TAIL = re.compile(rf'({_STRING}"){_SKIP}(?:label{_SKIP}({_STRING}"){_SKIP}|(?!label))')


def _unquote(token: str) -> str:
    """The value of the STRING token ``token``: its text between the quotes, unescaped."""
    text = token[1:-1]
    return _ESCAPE.sub(r"\1", text) if "\\" in text else text


def _fail(source: str, offset: int, message: str):
    """Raise the ParseError ``message`` at the 1-based line and column of ``offset``."""
    raise ParseError(source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset),
                     message)


def _lex_error(source: str, offset: int):
    """Raise the ParseError for the character at ``offset`` that starts no token."""
    if source[offset] == '"':
        end = _OPEN_STRING.match(source, offset).end()
        if source.startswith("\\", end):
            _fail(source, end, "unsupported escape in string literal")
        _fail(source, offset, "unterminated string literal")
    _fail(source, offset, f"unexpected character {source[offset]!r}")


# ---------------------------------------------------------------------------
# syntax tree.  A leaf is its value: an int, blowup.H or blowup.E.  The
# other nodes are slotted classes that store their fields directly and
# have no assignment guard: a pass builds one node per few tokens, and a
# guarded node, a FrozenRecord whose fields go through its _store, costs
# about four times as much to build.  Nothing changes a field once the node
# is built, so a document holds each distinct expression once, however
# often it occurs.  Every node compares and hashes by identity, so a node
# is a key of the parser's sharing table and of a _Setup's values.
# ``kept`` is the value of a setup-free operator node once it is first
# computed, and None before that and on every other node; see _value.
# Without it, each such value in its _Setup's memo instead, the warm pass
# was 4.6 % slower on paper-suite and 2.5 % on scenario-files (medians of
# 10 alternating processes a side, Python 3.11.7, 2 vCPUs).

class SigmaAtom:
    __slots__ = ("parts",)
    kept = None  # its value depends on the scenario's grassmannian statement

    def __init__(self, parts: tuple):
        self.parts = parts


class Call:
    __slots__ = ("name", "args")
    kept = None  # its value depends on the scenario's setup statements

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args


class BinOp:
    __slots__ = ("op", "left", "right", "kept")

    def __init__(self, op: str, left: object, right: object):
        self.op = op
        self.left = left
        self.right = right
        self.kept = None


class Neg:
    __slots__ = ("operand", "kept")

    def __init__(self, operand: object):
        self.operand = operand
        self.kept = None


class ProfileStmt:
    __slots__ = ("ident", "h4", "index", "c2h2", "ambient", "codim", "chi", "euler")

    def __init__(self, ident: str, h4: int, index: int, c2h2: int | None, ambient: str | None,
                 codim: int | None, chi: int, euler: int):
        self.ident = ident
        self.h4 = h4
        self.index = index
        self.c2h2 = c2h2
        self.ambient = ambient
        self.codim = codim
        self.chi = chi
        self.euler = euler


class CenterStmt:
    __slots__ = ("kind", "fields", "cycle")

    def __init__(self, kind: str, fields: tuple, cycle: SigmaAtom | None):
        self.kind = kind  # "curve" or "surface"
        self.fields = fields  # ordered (name, value) pairs
        self.cycle = cycle  # a surface's Schubert class in the profile's ambient


class GrassStmt:
    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n


class AssertStmt:
    __slots__ = ("left", "op", "right", "cite", "label")

    def __init__(self, left: object, op: str, right: object, cite: str, label: str | None):
        self.left = left
        self.op = op
        self.right = right
        self.cite = cite
        self.label = label


class ScenarioNode:
    __slots__ = ("name", "statements", "setups", "rows")

    def __init__(self, name: str, statements: list, setups: dict, rows: dict):
        self.name = name
        self.statements = statements  # in source order, for printing
        self.setups = setups  # keyword -> the scenario's one statement of that kind
        self.rows = rows  # label -> its assertion, in source order


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


# ---------------------------------------------------------------------------
# parser

# Center kind -> its class and the fields the grammar reads, in order; each
# field is a parameter of the class.
_CENTERS = {
    "curve": (CurveCenter, ("genus", "hc")),
    "surface": (SurfaceCenter, ("hhc", "hkc", "kc2", "euler", "c2xc")),
}

# The two divisor leaves, shared by every tree.
_DIVISOR_ATOMS = {"H": blowup.H, "E": blowup.E}


class _Parser:
    """Recursive descent over tokens read one at a time, as it needs them.

    The current token is its text, ``value``, and its offset, ``start``; the
    next one starts at ``end``.  Its kind is ``_kind(value)``, read only
    where a rule or a message needs it.  A STRING's value keeps its quotes
    and escapes, so no string value equals a keyword or a symbol, and EOF's
    is the only empty one.  A BAD token, or a WORD, meets no rule of the
    grammar, so the parser fails at it at the latest, and an error at such a
    token is its lexical error."""

    __slots__ = ("source", "value", "start", "end", "depth", "document", "shared", "operands")

    def __init__(self, source: str, document: Document):
        self.source = source
        self.end = _LEADING.match(source).end()
        self.advance()
        self.depth = 0
        self.document = document
        # Key -> the document's one node for it, so each distinct expression
        # of the document is one node: (operator, operand, ...) -> its Neg or
        # BinOp; (name, arguments) -> a Call and (SigmaAtom, parts) -> a
        # SigmaAtom.  An operator over the same nodes is one node.  A setup
        # statement's class and fields -> the document's one such statement.
        self.shared = document.nodes
        # Source text -> (tree, height) of each plain operand read; see operand.
        self.operands = document.operands

    def advance(self):
        m = _TOKEN.match(self.source, self.end)
        self.value = m[1]
        self.start, self.end = m.span()

    def fail(self, offset: int, message: str):
        if offset == self.start and _kind(self.value) in ("BAD", "WORD"):
            _lex_error(self.source, offset)
        _fail(self.source, offset, message)

    def describe(self) -> str:
        kind = _kind(self.value)
        if kind == "EOF":
            return "end of input"
        if kind == "STRING":
            return "a string"
        return repr(self.value)

    def int_value(self, text: str, offset: int) -> int:
        try:
            return int(text)
        except ValueError:
            # the only way int() fails on a run of decimal digits
            self.fail(
                offset,
                f"integer literal has {len(text)} digits, more than the"
                f" interpreter's limit of {sys.get_int_max_str_digits()}",
            )

    def expect(self, text: str, wanted: str | None = None) -> int:
        """Consume the keyword or symbol ``text`` and return its offset; ``wanted`` overrides the message."""
        start = self.start
        if self.value != text:
            self.fail(start, f"expected {wanted or repr(text)}, found {self.describe()}")
        self.advance()
        return start

    def expect_kind(self, kind: str, wanted: str) -> str:
        value = self.value
        if _kind(value) != kind:
            self.fail(self.start, f"expected {wanted}, found {self.describe()}")
        self.advance()
        return value

    def expect_string(self) -> str:
        return _unquote(self.expect_kind("STRING", "a string"))

    def expect_int(self) -> int:
        sign = 1
        if self.value == "-":
            self.advance()
            sign = -1
        start = self.start
        return sign * self.int_value(self.expect_kind("INT", "an integer"), start)

    def expect_field(self, word: str) -> int:
        self.expect(word)
        return self.expect_int()

    # document / scenario / statements

    def parse_document(self) -> Document:
        """The document, with the source's scenarios added once the whole source has parsed."""
        document = self.document
        names = {node.name for node in document.scenarios}
        scenarios = []
        while self.value:  # EOF's text is empty
            scenarios.append(self.parse_scenario(names))
        document.scenarios.extend(scenarios)
        return document

    def parse_scenario(self, names: set) -> ScenarioNode:
        """A scenario whose name is not in ``names``, which it joins."""
        kw = self.expect("scenario")
        name = self.expect_string()
        self.expect("{")
        statements, setups, rows = [], {}, {}
        while (keyword := self.value) != "}":
            start = self.start
            if keyword == "assert":
                self.advance()
                stmt = self.parse_assert()
                label = stmt.label
                if label is None:  # the NN-th assertion is aNN; each earlier one is in rows
                    label = f"a{len(rows) + 1:02d}"
                if label in rows:
                    self.fail(start, f"duplicate assertion label {label!r}")
                rows[label] = stmt
            else:
                parse_setup = self._SETUPS.get(keyword)
                if parse_setup is None:
                    self.fail(start, f"expected a statement or '}}', found {self.describe()}")
                if keyword in setups:
                    self.fail(start, f"duplicate {keyword} statement")
                self.advance()
                stmt = setups[keyword] = parse_setup(self)
            statements.append(stmt)
        self.advance()
        if name in names:
            self.fail(kw, f"duplicate scenario name {name!r}")
        names.add(name)
        return ScenarioNode(name, statements, setups, rows)

    # each statement parser starts after its keyword

    def parse_profile(self) -> ProfileStmt:
        ident = self.expect_kind("IDENT", "a name")
        h4 = self.expect_field("h4")
        index = self.expect_field("index")
        c2h2 = ambient = codim = None
        value = self.value
        if value == "c2h2":
            c2h2 = self.expect_field("c2h2")
        elif value == "ambient":
            self.advance()
            ambient = self.expect_kind("IDENT", "a name")
            codim = self.expect_field("codim")
        else:
            self.fail(self.start, f"expected 'c2h2' or 'ambient', found {self.describe()}")
        chi = self.expect_field("chi")
        euler = self.expect_field("euler")
        key = (ProfileStmt, ident, h4, index, c2h2, ambient, codim, chi, euler)
        return self.shared.get(key) or self.shared.setdefault(
            key, ProfileStmt(ident, h4, index, c2h2, ambient, codim, chi, euler))

    def parse_center(self) -> CenterStmt:
        start = self.start
        kind = self.expect_kind("IDENT", "a name")
        entry = _CENTERS.get(kind)
        if entry is None:
            self.fail(start, f"expected 'curve' or 'surface', found {kind!r}")
        values = tuple((name, self.expect_field(name)) for name in entry[1])
        cycle = None
        if kind == "surface" and self.value == "sigma":
            self.advance()
            cycle = self.sigma()
        key = (CenterStmt, kind, values, cycle)
        return self.shared.get(key) or self.shared.setdefault(key, CenterStmt(kind, values, cycle))

    def parse_grass(self) -> GrassStmt:
        k = self.expect_int()
        n = self.expect_int()
        key = (GrassStmt, k, n)
        return self.shared.get(key) or self.shared.setdefault(key, GrassStmt(k, n))

    def parse_assert(self) -> AssertStmt:
        left, _ = self.nested(self.start)
        op = self.value
        if op != "==" and op != "!=":
            self.fail(self.start, f"expected '==' or '!=', found {self.describe()}")
        self.advance()
        right, _ = self.nested(self.start)
        if self.value == "cite" and (tail := _TAIL.match(self.source, self.end)) is not None:
            self.end = tail.end()
            self.advance()
            cite, label = tail.groups()
            return AssertStmt(left, op, right, _unquote(cite), label and _unquote(label))
        self.expect("cite")
        cite = self.expect_string()
        label = None
        if self.value == "label":
            self.advance()
            label = self.expect_string()
        return AssertStmt(left, op, right, cite, label)

    # setup keyword -> its statement's parser; a scenario has at most one of each
    _SETUPS = {"profile": parse_profile, "center": parse_center, "grassmannian": parse_grass}

    # expressions, by precedence climbing over _PRECEDENCE.  Each method
    # returns (tree, height).  An assertion side, a parenthesis, a call
    # argument, a unary minus and a right-associative operator's
    # right side each go one nesting level down.

    def nested(self, offset: int, min_prec: int = 1):
        """An expression one nesting level down; too deep is reported at ``offset``."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail(offset, "expression nesting too deep")
        result = self.expr(min_prec)
        self.depth -= 1
        return result

    def expr(self, min_prec: int):
        """The expression at the current token whose binary operators bind at least ``min_prec``."""
        value, start = self.value, self.start
        first = value[:1]
        if first.isdecimal():  # an INT
            self.advance()
            try:
                node = int(value)
            except ValueError:
                node = self.int_value(value, start)
            height = 1
        elif first.isalpha() or first == "_":  # an IDENT
            self.advance()
            follow = self.value
            if follow == "(":
                node, height = self.call(value, start)
            elif follow == "[" and value == "sigma":
                node, height = self.sigma(), 1
            elif (node := _DIVISOR_ATOMS.get(value)) is not None:
                height = 1
            else:
                self.fail(start, f"unknown name {value!r}")
        elif value == "-":
            self.advance()
            operand, height = self.nested(start, _PRECEDENCE[_UNARY_MINUS][0])
            key = (_UNARY_MINUS, operand)
            node = self.shared.get(key) or self.shared.setdefault(key, Neg(operand))
            height += 1
            if height > _MAX_DEPTH:
                self.fail(start, "expression nesting too deep")
        elif value == "(":
            node, height = self.operand()
            self.expect(")")
        else:
            self.fail(start, f"expected an expression, found {self.describe()}")
        while (entry := _PRECEDENCE.get(op := self.value)) is not None and entry[0] >= min_prec:
            start = self.start
            self.advance()
            prec, right_assoc = entry
            if right_assoc:  # recurses at its own precedence, so it nests
                rhs, rhs_height = self.nested(start, prec)
            else:
                rhs, rhs_height = self.expr(prec + 1)
            key = (op, node, rhs)
            node = self.shared.get(key) or self.shared.setdefault(key, BinOp(op, node, rhs))
            height = (height if height > rhs_height else rhs_height) + 1
            if height > _MAX_DEPTH:
                self.fail(start, "expression nesting too deep")
        return node, height

    def operand(self):
        """The call argument or parenthesised expression after the current '(' or ','.

        When its text, from its first token to the next ',' or ')', holds
        none of '(', '[', '"' and '#', it has no call, sigma[...], string or
        comment, so its tree is setup-free and shared, and the document
        reads that text once: a later copy takes the first one's tree, the
        very node a re-parse would return, and the _PLAIN match that found
        it is also its ',' or ')', the current token after it.  It
        does so only where the nesting depth leaves as many levels as the
        text has characters, which bounds the levels any parse of it takes;
        elsewhere the copy is parsed, so a depth error fires where it would.
        """
        start = self.end
        plain = _PLAIN.match(self.source, start)
        if plain is not None:
            text = plain[1]
            read = self.operands.get(text)
            if read is not None and self.depth + len(text) <= _MAX_DEPTH:
                self.value = plain[2]
                self.start, self.end = plain.end(1), plain.end()
                return read
        self.advance()
        read = self.nested(start)
        # a read that stops short of the ',' or ')' fails its caller, and is
        # not kept for a later parse into the document
        if plain is not None and self.start == plain.end(1):
            self.operands[text] = read
        return read

    def call(self, name: str, start: int):
        """The call of ``name``, whose token is at ``start``; the current token is its '('."""
        args, height = [], 0
        if self.source.startswith(")", self.end):
            self.advance()
        else:
            while True:
                arg, arg_height = self.operand()
                args.append(arg)
                if arg_height > height:
                    height = arg_height
                if self.value != ",":
                    break
        self.expect(")")
        if height >= _MAX_DEPTH:
            self.fail(start, "expression nesting too deep")
        args = tuple(args)
        key = (name, args)
        return self.shared.get(key) or self.shared.setdefault(key, Call(name, args)), height + 1

    def sigma(self) -> SigmaAtom:
        """The atom ``sigma[...]``, from the token after ``sigma``."""
        self.expect("[")
        parts = [self.expect_int()]
        while self.value == ",":
            self.advance()
            parts.append(self.expect_int())
        self.expect("]", "',' or ']'")
        parts = tuple(parts)
        key = (SigmaAtom, parts)
        return self.shared.get(key) or self.shared.setdefault(key, SigmaAtom(parts))


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
# canonical printing

def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_expr(node, min_prec: int = 0) -> str:
    if isinstance(node, (int, Divisor)):
        return repr(node)  # an integer, or H or E, whose repr is its name
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
        if stmt.cycle is not None:
            body += " " + _print_expr(stmt.cycle)
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
        center = _CENTERS[stmt.kind][0](**dict(stmt.fields))
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


# Operator -> its rule; unary minus has the key it has in _PRECEDENCE.
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
