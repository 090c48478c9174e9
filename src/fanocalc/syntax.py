"""The scenario language's text: its lexer, parser, syntax tree and printer.

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

Each distinct expression of a document, over every source parsed into it,
is one node: equal subexpressions, and equal setup statements, are one
object.  A call argument or parenthesised expression whose text, up to the
next ',' or ')', holds none of '(', '[', '"' and '#' is a setup-free
subtree, and the parser reads each distinct such text once per document; a
later copy takes the first one's node, and one match of a third pattern
reads the copy, its ',' or ')' and the whitespace and comments after them,
with no token lexed.  :mod:`.dsl` builds and evaluates what the parser reads.
"""

from __future__ import annotations

import re
import sys

from .blowup import E, H

# Operator -> (precedence, right-associative).  The parser and the printer
# both read this table; unary minus has a key that no token equals.
_UNARY_MINUS = "unary -"
_PRECEDENCE = {"+": (1, False), "-": (1, False), "*": (2, False), _UNARY_MINUS: (3, False),
               "^": (4, True)}

# Bound on both the parser's nesting depth and the height of an expression
# tree.  The evaluator takes one frame per level of height or, at a call on
# Python 3.11, two (its argument list), the printer one or, at a call, three,
# and the parser about three per level of nesting; at the default recursion
# limit of 1000 they fail near 500, 330 and 350 levels of calls.  64 leaves
# room for the caller and for an assertion's engine calls.
_MAX_DEPTH = 64


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
# token everywhere, the warm scenario-files pass was 7.2 % slower (median
# of 20 alternating bench pairs, 18 of them slower; Python 3.11.7, 2
# vCPUs): the pattern stays, as that is most of warm_s's 10 % bound.
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
# about three times as much to build.  Nothing changes a field once the node
# is built, so a document holds each distinct expression once, however
# often it occurs.  Every node compares and hashes by identity, so a node
# is a key of the parser's sharing table and of a dsl._Setup's values.

class SigmaAtom:
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts


class Call:
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args


class BinOp:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object):
        self.op = op
        self.left = left
        self.right = right


class Neg:
    __slots__ = ("operand",)

    def __init__(self, operand: object):
        self.operand = operand


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



# ---------------------------------------------------------------------------
# parser

# Center kind -> the fields the grammar reads, in order; each field is a
# parameter of the kind's class in dsl._CENTERS.
_CENTER_FIELDS = {"curve": ("genus", "hc"), "surface": ("hhc", "hkc", "kc2", "euler", "c2xc")}

# The two divisor leaves, shared by every tree.
_DIVISOR_ATOMS = {"H": H, "E": E}


class _Parser:
    """Recursive descent over tokens read one at a time, as it needs them.

    The current token is its text, ``value``, and its offset, ``start``; the
    next one starts at ``end``.  Its kind is ``_kind(value)``, read only
    where a rule or a message needs it.  A STRING's value keeps its quotes
    and escapes, so no string value equals a keyword or a symbol, and EOF's
    is the only empty one.  A BAD token, or a WORD, meets no rule of the
    grammar, so the parser fails at it at the latest, and an error at such a
    token is its lexical error.  The parse reads into ``document``, a
    dsl.Document: its scenarios, node table and plain-text memo."""

    __slots__ = ("source", "value", "start", "end", "depth", "document", "shared", "operands")

    def __init__(self, source: str, document):
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

    def parse_document(self):
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
        fields = _CENTER_FIELDS.get(kind)
        if fields is None:
            self.fail(start, f"expected 'curve' or 'surface', found {kind!r}")
        values = tuple((name, self.expect_field(name)) for name in fields)
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
            node, height = self.int_value(value, start), 1
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
        # not stored for a later parse into the document
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



# ---------------------------------------------------------------------------
# canonical printing

def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_expr(node, min_prec: int = 0) -> str:
    if node.__class__ is int or node is H or node is E:
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
