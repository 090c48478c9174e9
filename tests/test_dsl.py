"""Scenario-language parser: grammar, positions, totality, round-trips."""

import itertools
import json
import re
import sys
import traceback
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanocalc import dsl, syntax
from fanocalc.dsl import ParseError, parse
from fanocalc.scenarios import BUILTIN_SOURCES, run

EXAMPLE = (
    'scenario "t" { profile P h4 4 index 3 c2h2 20 chi 1 euler 12 '
    "center curve genus 0 hc 1 "
    'assert quartic(H-E,H-E,H-E,H-E) == 1 cite "w22" }'
)


def run_source(source):
    return run(parse(source).build())


# ---------------------------------------------------------------------------
# grammar basics

def test_single_line_example_parses_and_passes():
    report = run_source(EXAMPLE)
    assert report.total == 1
    assert report.failed == 0


def test_empty_input_is_an_empty_document():
    document = parse("")
    assert document.scenarios == []
    assert run(document.build()).total == 0
    assert parse("   \n# only a comment\n").scenarios == []


def test_unclosed_brace_position():
    with pytest.raises(ParseError) as info:
        parse('scenario "x" {')
    assert (info.value.line, info.value.column) == (1, 15)
    assert "end of input" in info.value.message


def test_error_positions_are_one_based():
    with pytest.raises(ParseError) as info:
        parse('scenario "x" {\n  grassmannian 2 five\n}')
    assert (info.value.line, info.value.column) == (2, 18)
    with pytest.raises(ParseError) as info:
        parse("?")
    assert (info.value.line, info.value.column) == (1, 1)


def test_comments_and_whitespace():
    source = (
        "# leading comment\n"
        'scenario "c" { # inline\n'
        "  # a full-line comment\n"
        '  assert 1 == 1 cite "x"\n'
        "}\n"
    )
    assert run_source(source).failed == 0


def test_duplicate_scenario_names_rejected():
    source = 'scenario "a" {} scenario "a" {}'
    with pytest.raises(ParseError) as info:
        parse(source)
    assert "duplicate scenario name" in info.value.message


def test_duplicate_statements_rejected_at_parse():
    source = 'scenario "a" { grassmannian 2 5 grassmannian 2 6 }'
    with pytest.raises(ParseError) as info:
        parse(source)
    assert "duplicate grassmannian" in info.value.message


def test_duplicate_labels_rejected_at_parse():
    source = (
        'scenario "a" {\n'
        '  assert 1 == 1 cite "x" label "same"\n'
        '  assert 2 == 2 cite "y" label "same"\n'
        "}"
    )
    with pytest.raises(ParseError) as info:
        parse(source)
    assert "duplicate assertion label" in info.value.message


_DUPLICATE, _BROKEN = "grassmannian 2 6", 'assert (1 == 1 cite "x"'


def _first_error(*statements):
    body = "".join(f"  {s}\n" for s in statements)
    with pytest.raises(ParseError) as info:
        parse(f'scenario "a" {{\n  grassmannian 2 5\n{body}}}')
    return _error(info.value)


def test_the_first_error_in_the_source_is_reported():
    # a document rule is checked where its statement is read, so a duplicate
    # before a syntax or lexical error is reported, and one after it is never
    # reached; a lexical error after the first error is never reached either
    assert _first_error(_DUPLICATE, _BROKEN) == (3, 3, "duplicate grassmannian statement")
    assert _first_error(_BROKEN, _DUPLICATE) == (3, 13, "expected ')', found '=='")
    assert _first_error(_DUPLICATE, _BROKEN, "$") == (3, 3, "duplicate grassmannian statement")
    assert _first_error(_DUPLICATE, "$") == (3, 3, "duplicate grassmannian statement")
    assert _first_error(_BROKEN, "$") == (3, 13, "expected ')', found '=='")


def test_a_lexical_error_before_a_syntax_error_still_wins():
    assert _first_error("$", _DUPLICATE, _BROKEN) == (3, 3, "unexpected character '$'")
    assert _first_error("assert (1 $ == 1", _BROKEN) == (3, 13, "unexpected character '$'")
    assert _first_error('assert 1 == 1 cite "x', _BROKEN) == (3, 22, "unterminated string literal")


def test_a_failed_parse_leaves_the_document_as_it_was():
    document = parse('scenario "a" { assert dim(2, 5) == 6 cite "x" }')
    (a,) = document.scenarios
    # 'b' parses before the error, and the text "2 5" is read short of its ')'
    broken = 'scenario "b" {} scenario "c" { assert dim(2 5) == 6 cite "x" }'
    for _ in range(2):  # no read of the failed parse lets a later one pass
        with pytest.raises(ParseError) as info:
            parse(broken, document)
        assert _error(info.value) == (1, 45, "expected ')', found '5'")
        assert document.scenarios == [a]
    assert parse('scenario "b" { assert dim(2, 5) == 6 cite "x" }', document) is document
    assert [node.name for node in document.scenarios] == ["a", "b"]
    with pytest.raises(ParseError, match="^line 1, column 1: duplicate scenario name 'a'$"):
        parse('scenario "a" {}', document)
    report = run(document.build())
    assert (report.total, report.failed) == (2, 0)


def test_auto_labels_count_from_one():
    source = 'scenario "a" { assert 1 == 1 cite "x" assert 2 == 2 cite "y" }'
    (scenario,) = parse(source).build()
    assert [a.label for a in scenario.assertions] == ["a01", "a02"]


def test_statement_keyword_errors():
    with pytest.raises(ParseError) as info:
        parse('scenario "a" { profile P h4 1 index 1 chi 1 euler 1 }')
    assert "'c2h2' or 'ambient'" in info.value.message
    with pytest.raises(ParseError):
        parse('scenario "a" { center point }')
    with pytest.raises(ParseError):
        parse('scenario "a" { frobnicate }')
    # a string is never a keyword or a symbol, whatever it holds
    for text in ('"assert"', '"}"'):
        with pytest.raises(ParseError) as info:
            parse(f'scenario "a" {{ {text} }}')
        assert info.value.message == "expected a statement or '}', found a string"
    with pytest.raises(ParseError) as info:
        parse('scenario "a" { assert 1 == 1 "cite" "x" }')
    assert info.value.message == "expected 'cite', found a string"


def test_string_escapes():
    source = 'scenario "q" { assert 1 == 1 cite "say \\"hi\\" and \\\\ done" }'
    (scenario,) = parse(source).build()
    assert scenario.assertions[0].cite == 'say "hi" and \\ done'


def test_bad_strings():
    with pytest.raises(ParseError):
        parse('scenario "x')
    with pytest.raises(ParseError):
        parse('scenario "a\nb" {}')
    with pytest.raises(ParseError):
        parse('scenario "a\\nb" {}')


@pytest.mark.parametrize(
    "source, outcome",
    [
        ('scenario "x" {\n', (2, 1, "expected a statement or '}', found end of input")),
        ('scenario "a" { grassmannian \u0662 \u0665 }', "grassmannian 2 5"),
        ('scenario "a" { assert \u00b2 == 1 cite "x" }', (1, 23, "unexpected character '\u00b2'")),
        ('scenario "a" {\r\n\tassert \u00e9 == 1 cite "x" }', (2, 9, "unknown name '\u00e9'")),
        ('scenario "a\\', (1, 12, "unsupported escape in string literal")),
        ('scenario "abc', (1, 10, "unterminated string literal")),
        ("x\xa0", (1, 1, "expected 'scenario', found 'x'")),
        ("\xa0x", (1, 1, "unexpected character '\\xa0'")),
        ("# c", ""),
        ('scenario "a" { profile \u00b2 h4 1 index 1 c2h2 1 chi 1 euler 1 }',
         (1, 24, "unexpected character '\u00b2'")),
        # the first error wins, lexical or not
        ('scenario "y" { assert 1 == == 1 cite "x" $ }', (1, 28, "expected an expression, found '=='")),
        ('scenario "y" { assert 1 == $ == 1 cite "x" }', (1, 28, "unexpected character '$'")),
    ],
)
def test_lexical_rules(source, outcome):
    # whitespace is space, tab, CR and LF; digits and letters are Unicode-wide,
    # but a name starts with a letter or '_'; a string error points at its cause
    if isinstance(outcome, str):
        assert outcome in parse(source).pretty()
        return
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.line, info.value.column, info.value.message) == outcome


# Every ParseError message the lexer and parser raise, each pinned to its
# position past line 1 of input with comments, tabs (one column each), CRLF
# line ends and a bare CR.
_PRELUDE = (
    "# positions count from 1; a tab is one column\r\n"
    'scenario "ok" {\t# CRLF line ends\r\n'
    "\tgrassmannian 2 5\r\n"
    "}\r\n"
)
_OPEN = 'scenario "a" {\r\n'
_SURFACE = "\tcenter surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 5 "
_DIGITS = sys.get_int_max_str_digits() + 1


@pytest.mark.parametrize(
    "source, outcome",
    [
        ('scenario "a"\t# no brace\r\n\t[ }', (6, 2, "expected '{', found '['")),
        (_OPEN + '\tassert (1 == 1 cite "x" }', (6, 12, "expected ')', found '=='")),
        # the ',' after a repeated text, read in the same match as the text
        (_OPEN + '\tassert dim(H - E, 1) == (H - E, 1) cite "x" }', (6, 32, "expected ')', found ','")),
        (_OPEN + "\tprofile\t7 h4 1", (6, 10, "expected a name, found '7'")),
        ("scenario\r\n  {", (6, 3, "expected a string, found '{'")),
        (_OPEN + "\tgrassmannian 2 -\tx }", (6, 19, "expected an integer, found 'x'")),
        (_OPEN + '\tassert 1 == 1 cite "x"\r\n\t"y" }',
         (7, 2, "expected a statement or '}', found a string")),
        (_OPEN + "\t# only a comment\r\n",
         (7, 1, "expected a statement or '}', found end of input")),
        (_OPEN + "\tprofile P h4 1 index 1\r\n\t\tchi 1 euler 1 }",
         (7, 3, "expected 'c2h2' or 'ambient', found 'chi'")),
        (_OPEN + "\tcenter\tpoint }", (6, 9, "expected 'curve' or 'surface', found 'point'")),
        (_OPEN + '\tassert 1\r\n\tcite "x" }', (7, 2, "expected '==' or '!=', found 'cite'")),
        (_OPEN + '\tassert sigma[1 2] == 0 cite "x" }', (6, 17, "expected ',' or ']', found '2'")),
        (_OPEN + '\tassert (1 + ) == 0 cite "x" }', (6, 14, "expected an expression, found ')'")),
        (_OPEN + '\tassert 1 +\r\n\t\tfoo == 0 cite "x" }', (7, 3, "unknown name 'foo'")),
        (_OPEN + '\tassert 1 == 1 cite "abc\r\n}', (6, 21, "unterminated string literal")),
        (_OPEN + '\tassert 1 == 1 cite "a\\tb" }', (6, 23, "unsupported escape in string literal")),
        (_OPEN + '\tassert ² == 1 cite "x" }', (6, 9, "unexpected character '²'")),
        (_OPEN + '\tassert 1 ==\r1 cite "x" $ }', (6, 25, "unexpected character '$'")),
        # nesting depth: parentheses, unary minus, the right side of ^, call arguments
        (_OPEN + "\tassert " + "(" * 65 + "1" + ")" * 65 + ' == 1 cite "x" }',
         (6, 73, "expression nesting too deep")),
        (_OPEN + "\tassert " + "-" * 65 + '1 == 1 cite "x" }', (6, 72, "expression nesting too deep")),
        (_OPEN + "\tassert 2" + "^2" * 65 + ' == 1 cite "x" }', (6, 136, "expression nesting too deep")),
        (_OPEN + "\tassert " + "dim(" * 65 + "1" + ")" * 65 + ' == 1 cite "x" }',
         (6, 265, "expression nesting too deep")),
        # tree height: left-associative chains, and a call or a minus around a tall one
        (_OPEN + "\tassert " + "+".join(["1"] * 65) + ' == 1 cite "x" }',
         (6, 136, "expression nesting too deep")),
        (_OPEN + "\tassert " + "*".join(["1"] * 70) + ' == 1 cite "x" }',
         (6, 136, "expression nesting too deep")),
        (_OPEN + "\tassert dim(" + "+".join(["1"] * 64) + ', 1) == 1 cite "x" }',
         (6, 9, "expression nesting too deep")),
        (_OPEN + "\tassert -(" + "+".join(["1"] * 64) + ') == 1 cite "x" }',
         (6, 9, "expression nesting too deep")),
        (_OPEN + "\tgrassmannian 2\t" + "9" * _DIGITS + " }",
         (6, 17, f"integer literal has {_DIGITS} digits, more than the interpreter's limit"
                 f" of {_DIGITS - 1}")),
        ('scenario "ok" {}', (5, 1, "duplicate scenario name 'ok'")),
        # one of each setup statement per scenario, and unique labels, generated ones included
        (_OPEN + "\tgrassmannian 2 5\r\n\tgrassmannian 2 6 }",
         (7, 2, "duplicate grassmannian statement")),
        (_OPEN + '\tassert 1 == 1 cite "x" label "same"\r\n\tassert 2 == 2 cite "y" label "same" }',
         (7, 2, "duplicate assertion label 'same'")),
        (_OPEN + '\tassert 1 == 1 cite "x" label "a02"\r\n\tassert 2 == 2 cite "y" }',
         (7, 2, "duplicate assertion label 'a02'")),
        # a surface center's Schubert class
        (_OPEN + _SURFACE + "sigma[2, }", (6, 60, "expected an integer, found '}'")),
        (_OPEN + _SURFACE + "sigma[] }", (6, 57, "expected an integer, found ']'")),
        (_OPEN + _SURFACE + "sigma 2 }", (6, 57, "expected '[', found '2'")),
    ],
)
def test_parse_error_positions(source, outcome):
    with pytest.raises(ParseError) as info:
        parse(_PRELUDE + source)
    assert (info.value.line, info.value.column, info.value.message) == outcome


# The token pattern before SYM moved first, its runs became possessive and
# its groups became one, kept as the reference for how the lexer splits a
# source and which kind each token is.
_BACKTRACKING_STRING = r'"(?:[^"\\\n]|\\["\\])*'
_BACKTRACKING_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"
_BACKTRACKING_TOKEN = re.compile(
    r"(?:(?P<INT>\d+)"
    r"|(?P<IDENT>[A-Za-z_]\w*)"
    r"|(?P<WORD>\w+)"
    rf'|(?P<STRING>{_BACKTRACKING_STRING}")'
    r"|(?P<SYM>[=!]=|[{}()\[\],+\-*^])"
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.))" + _BACKTRACKING_SKIP
)
_BACKTRACKING_LEADING = re.compile(_BACKTRACKING_SKIP)
_BACKTRACKING_OPEN_STRING = re.compile(_BACKTRACKING_STRING)

# The language's characters, characters it rejects or reads Unicode-wide,
# and pieces that make strings close, stay open or escape badly.
_LEX_PIECES = list('scenarioHEsigma_x019"{}[]()^*+-,=!#\\ \n²٣é\xa0\x0b\r\t') + [
    '"x"', '"a\\"b"', '"a\\\\"', '"a\\tb"', '"open', "==", "!=", "# note\n",
]


def _error(exc):
    return exc.line, exc.column, exc.message


def _reference_tokens(source):
    """(kind, text, offset) of each token through EOF by the reference pattern, or the lexical error.

    A WORD is a name when its first character is a letter; any other WORD,
    and a BAD, is the first lexical error."""
    tokens = []
    for m in _BACKTRACKING_TOKEN.finditer(source, _BACKTRACKING_LEADING.match(source).end()):
        kind, text = m.lastgroup, m[m.lastgroup]
        if kind == "BAD" or kind == "WORD" and not text[0].isalpha():
            with mock.patch.object(syntax, "_OPEN_STRING", _BACKTRACKING_OPEN_STRING):
                try:
                    syntax._lex_error(source, m.start())
                except ParseError as exc:
                    return _error(exc)
        tokens.append(("IDENT" if kind == "WORD" else kind, text, m.start()))
    return tokens


def _streamed_tokens(source):
    """(kind, text, offset) of each token through EOF as the parser reads them, or the lexical error."""
    parser = syntax._Parser(source, dsl.Document())
    tokens = []
    try:
        while True:
            kind = syntax._kind(parser.value)
            if kind == "BAD" or kind == "WORD":  # a name is an IDENT, so a WORD is none
                syntax._lex_error(source, parser.start)
            tokens.append((kind, parser.value, parser.start))
            if kind == "EOF":
                return tokens
            parser.advance()
    except ParseError as exc:
        return _error(exc)


@pytest.mark.parametrize("text", [
    "==", "!=", "{", ")", "]", ",", "-", "^",  # SYM
    "0", "٣", "1٣2",  # INT
    "H", "_x1", "quartic", "é", "éa٣",  # IDENT; a letter starts a name, ASCII or not
    '"x"', '""', '"a\\"b"', '"a\\\\"',  # STRING
    "²", "²1",  # WORD
    '"', "=", "!", "$", "\xa0",  # BAD
    "",  # EOF
])
def test_kind_is_the_backtracking_patterns_group(text):
    # a WORD whose first character is a letter is a name, as the parser reads it
    m = _BACKTRACKING_TOKEN.match(text)
    assert m[m.lastgroup] == text
    name = m.lastgroup
    assert syntax._kind(text) == ("IDENT" if name == "WORD" and text[0].isalpha() else name)


@settings(max_examples=500, deadline=None)
@example('assert "a\\q" == 1')
@example('cite "open\n1')
@example('"\\')
@example("٣² é\xa0")
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
def test_lexer_splits_as_the_backtracking_pattern(source):
    # same kinds, texts and offsets, or the same ParseError
    assert _streamed_tokens(source) == _reference_tokens(source)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse('scenario "a" {} }')


def _statement_bounds(source):
    """Offsets of a valid source's scenario, statement and '}' tokens, and of its end."""
    parser = syntax._Parser(source, dsl.Document())
    bounds = []
    while syntax._kind(parser.value) != "EOF":
        if parser.value in ("scenario", "profile", "center", "grassmannian", "assert", "}"):
            bounds.append(parser.start)
        parser.advance()
    return bounds + [len(source)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_SOURCES)), st.data())
def test_the_earlier_of_a_syntax_and_a_lexical_error_is_reported(name, data):
    # ')' starts neither a scenario nor a statement nor ends one, so at such a
    # bound it is a syntax error where it stands; '$' starts no token at all
    source = BUILTIN_SOURCES[name]
    bounds = _statement_bounds(source)
    syntax, lexical = data.draw(st.lists(st.sampled_from(bounds), min_size=2, max_size=2, unique=True))
    mutated = source
    for offset, text in sorted([(syntax, ")"), (lexical, "$")], reverse=True):
        mutated = mutated[:offset] + text + mutated[offset:]
    with pytest.raises(ParseError) as info:
        parse(mutated)
    before = source[:min(syntax, lexical)]
    line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
    assert (info.value.line, info.value.column) == (line, column)
    assert (info.value.message == "unexpected character '$'") == (lexical < syntax)


# ---------------------------------------------------------------------------
# expressions

def evaluate_single(source_expr, prelude=""):
    source = f'scenario "e" {{ {prelude} assert {source_expr} == 0 cite "probe" }}'
    (scenario,) = parse(source).build()
    return scenario.assertions[0].actual()


def test_precedence_and_associativity():
    assert evaluate_single("2 + 3 * 4 ^ 2") == 50
    assert evaluate_single("2 - 3 - 4") == -5
    assert evaluate_single("-2 ^ 2") == -4
    assert evaluate_single("(-2) ^ 2") == 4
    assert evaluate_single("2 ^ 3 ^ 2") == 512
    assert evaluate_single("2 * 3 + 4 * 5") == 26


def test_divisor_and_sigma_expressions():
    from fanocalc.blowup import Divisor

    assert evaluate_single("2 * H - 3 * E") == Divisor(2, -3)
    assert evaluate_single("-(H - E)") == Divisor(-1, 1)
    assert evaluate_single("degree(sigma[1] ^ 6)", "grassmannian 2 5") == 5
    assert evaluate_single("degree(sigma[2, 1] * sigma[2, 1])", "grassmannian 2 5") == 1
    assert evaluate_single("degree(sigma[3] * sigma[2, 1])", "grassmannian 2 5") == 0
    assert evaluate_single("dim(2, 6)") == 8


def test_expression_runtime_errors_are_deferred():
    # parses fine, fails at evaluation with a diagnostic; a call checks its
    # arguments first, then its name, then its arity, then the argument types
    grass = "grassmannian 2 5"
    for expr, prelude, error in [
        ("quartic(H, H, H, H)", "", "ValueError: no profile statement in this scenario"),
        ("degree(sigma[1])", "", "ValueError: no grassmannian statement in this scenario"),
        ("mystery(1)", "", "ValueError: unknown function 'mystery'"),
        ("mystery(sigma[1])", "", "ValueError: no grassmannian statement in this scenario"),
        ("solve(1, 2)", "", "TypeError: solve() takes 3 arguments, got 2"),
        ("solve(1, H)", "", "TypeError: solve() takes 3 arguments, got 2"),
        ("quartic(1, H, H, H)", "", "TypeError: a quartic() argument must be a divisor expression"
         " in H and E"),
        ("chi(1)", "", "TypeError: the chi() argument must be a divisor expression in H and E"),
        ("1 ^ -1", "", "ValueError: negative exponents are not supported"),
        ("H ^ 2", "", "TypeError: cannot raise Divisor to a power"),
        ("H * E", "", "TypeError: cannot apply '*' to Divisor and Divisor"),
        ("degree(1)", grass, "TypeError: degree() takes a Schubert cycle"),
        ("sigma[-1]", grass, "ValueError: negative part in partition (-1,)"),
        ("sigma[1] + 1", grass, "TypeError: cannot apply '+' to SchubertCycle and int"),
    ]:
        source = f'scenario "err" {{ {prelude} assert {expr} == 0 cite "boom" }}'
        report = run(parse(source).build())
        assert report.failed == 1, expr
        row = json.loads(report.to_json())["scenarios"][0]["assertions"][0]
        assert row["actual"] == f"error: {error}", expr


def test_a_divisor_argument_is_checked_before_the_model_is_built():
    # with no profile, or one the model refuses, a wrong argument type is
    # the error a row reports, and a divisor argument reaches the model
    quartic_type = "TypeError: a quartic() argument must be a divisor expression in H and E"
    chi_type = "TypeError: the chi() argument must be a divisor expression in H and E"
    for prelude, model_error in [
        ("", "ValueError: no profile statement in this scenario"),
        ("profile P h4 0 index 3 c2h2 20 chi 1 euler 12 center curve genus 0 hc 1",
         "ValueError: h4 must be positive"),
    ]:
        for expr, error in [
            ("chi(1)", chi_type),
            ("chi(sigma[1])", "ValueError: no grassmannian statement in this scenario"),
            ("quartic(1, H, H, H)", quartic_type),
            ("quartic(H, H, H, 1)", quartic_type),
            ("chi(H)", model_error),
            ("quartic(H, H, H, H)", model_error),
        ]:
            report = run(parse(f'scenario "err" {{ {prelude} assert {expr} == 0 cite "x" }}').build())
            row = json.loads(report.to_json())["scenarios"][0]["assertions"][0]
            assert row["actual"] == f"error: {error}", (prelude, expr)


def test_power_is_bounded_by_the_bits_of_its_result():
    # exponent * bit length of the base past the limit fails that row, before
    # computing; bases 0, 1 and -1 are exempt, and 2^50000 is at the limit
    over = "ValueError: a power of up to {} bits is over the limit of 100000"
    rows = [
        ("2^(2^40)", 0, over.format(2 * 2**40)),
        ("3^3^3^3", 0, over.format(2 * 3**27)),
        ("solve(7, 0, 1)^(2^40)", 0, over.format(3 * 2**40)),  # 1/7: the denominator's 3 bits
        ("2^50001 - 2^50001", 0, over.format(100002)),
        ("2^50000 - 2^50000", 0, None),
        ("1^(2^40)", 1, None),
        ("(-1)^(2^40 + 1)", -1, None),
        ("0^(2^40)", 0, None),
        # a codimension-0 cycle is c times the unit class, bounded as c is
        ("(2 * sigma[1]^0)^(2^40)", 0, over.format(2 * 2**40)),
        ("degree((sigma[1]^0)^(3^3^3) * sigma[1]^6)", 5, None),
    ]
    body = "".join(f'  assert {expr} == {value} cite "x"\n' for expr, value, _ in rows)
    report = run_source(f'scenario "p" {{\n  grassmannian 2 5\n{body}}}\n')
    results = json.loads(report.to_json())["scenarios"][0]["assertions"]
    for (expr, _, error), result in zip(rows, results):
        if error is None:
            assert result["pass"], expr
        else:
            assert result["actual"] == f"error: {error}", expr


def test_engine_is_called_through_its_module(monkeypatch):
    # tracing rebinds module attributes, so each call must look them up
    from fanocalc import blowup

    calls = {}
    for name in ("quartic_number", "chi_riemann_roch"):
        def counting(*args, _name=name, _original=getattr(blowup, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(blowup, name, counting)
    setup = "profile P h4 4 index 3 c2h2 20 chi 1 euler 12 center curve genus 0 hc 1"
    # chi() pairs M = D (D + c_1) with itself off the model's table, so it
    # makes no quartic_number call
    rows = (
        ("quartic(H, H, H, H) == 4", {"quartic_number": 1}),
        ("chi(H) == 7", {"chi_riemann_roch": 1}),
    )
    for row, traced in rows:
        calls.clear()
        assert run_source(f'scenario "t" {{ {setup} assert {row} cite "x" }}').failed == 0
        assert calls == traced, row


def test_broken_setup_fails_every_row_alike(monkeypatch):
    from fanocalc import profiles

    derived = []
    section_profile = profiles.section_profile
    monkeypatch.setattr(profiles, "section_profile", lambda *a: derived.append(a) or section_profile(*a))
    source = (
        'scenario "b" { profile P4 h4 2 index 5 ambient p4 codim 0 chi 1 euler 5 '
        "center curve genus 0 hc 1 "
        'assert quartic(H, H, H, H) == 1 cite "x" assert chi(H) == 5 cite "y" '
        'assert euler() == 7 cite "z" }'
    )
    (scenario,) = parse(source).build()
    rows = json.loads(run([scenario]).to_json())["scenarios"][0]["assertions"]
    (error,) = {row["actual"] for row in rows}
    assert error.startswith("error: ValueError: profile literals (h4, index, chi, euler)")
    assert len(derived) == 1  # the failing profile is derived once, not once per row

    def traceback_length():
        try:
            scenario.assertions[0].actual()
        except ValueError as exc:
            return len(traceback.extract_tb(exc.__traceback__))

    # the setup error is resolved once; raising it again does not grow its traceback
    first = traceback_length()
    for _ in range(10):
        traceback_length()
    assert traceback_length() == first


def test_deep_nesting_is_a_parse_error():
    for text in ("(" * 100 + "1" + ")" * 100, "-" * 200 + "1", "1" + "^1" * 200):
        with pytest.raises(ParseError) as info:
            parse(f'scenario "deep" {{ assert {text} == 1 cite "x" }}')
        assert "nesting too deep" in info.value.message


def test_tree_height_is_bounded():
    # a left-associative chain nests no parser call, but its tree is as tall
    # as the chain is long, and printing and evaluating recurse once per level
    def chain(terms):
        return f'scenario "c" {{ assert {"+".join(["1"] * terms)} == {terms} cite "x" }}'

    for terms in (5000, syntax._MAX_DEPTH + 1):
        with pytest.raises(ParseError) as info:
            parse(chain(terms))
        # reported at the operator whose node passes the bound
        assert (info.value.line, info.value.column) == (1, 22 + 2 * syntax._MAX_DEPTH)
        assert info.value.message == "expression nesting too deep"
    # the tallest legal trees: one that needs no setup, and one with a call
    # at the bottom, which is evaluated only when the report runs
    tallest = "+".join(["dim(2, 5)"] + ["1"] * (syntax._MAX_DEPTH - 2))
    with pytest.raises(ParseError):
        parse(f'scenario "c" {{ assert {tallest}+1 == 0 cite "x" }}')
    for source in (chain(syntax._MAX_DEPTH),
                   f'scenario "c" {{ assert {tallest} == {syntax._MAX_DEPTH + 4} cite "x" }}'):
        document = parse(source)
        assert parse(document.pretty()).pretty() == document.pretty()
        assert run(document.build()).failed == 0


def test_overlong_integer_literal_is_a_parse_error():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    # an expression literal, and a signed statement field
    for source, position in (
        (f'scenario "x" {{\n  assert {digits} == 1 cite "x"\n}}', (2, 10)),
        (f'scenario "x" {{\n  grassmannian 2 -{digits}\n}}', (2, 19)),
    ):
        with pytest.raises(ParseError) as info:
            parse(source)
        assert (info.value.line, info.value.column) == position
        assert f"{len(digits)} digits" in info.value.message


# ---------------------------------------------------------------------------
# shared constant subtrees

def test_equal_setup_free_subexpressions_are_one_node():
    rows = (
        'assert 2*H - E == -(2 * H - E) cite "x" '
        'assert degree(sigma[1]^2) + 1 == dim(2, 5) - 2*H cite "y"'
    )
    source = f'scenario "a" {{ grassmannian 2 5 {rows} }} scenario "b" {{ {rows} }}'
    document = parse(source)
    (a1, a2), (b1, b2) = (s.statements[-2:] for s in document.scenarios)
    assert a1.left is b1.left is a1.right.operand is b1.right.operand
    assert a1.right is b1.right
    assert a1.left.left is a2.right.right is b2.right.right  # 2*H
    # so are equal calls, sigma[...] atoms and the operators over them,
    # though "b" has no grassmannian statement for sigma[1] to read
    for a, b in ((a2.left, b2.left), (a2.left.left, b2.left.left),
                 (a2.left.left.args[0].left, b2.left.left.args[0].left), (a2.right, b2.right),
                 (a2.right.left, b2.right.left)):
        assert a is b
    assert a2.left.right is b2.left.right  # 1
    assert document.pretty() == (
        'scenario "a" {\n'
        "  grassmannian 2 5\n"
        '  assert 2 * H - E == -(2 * H - E) cite "x"\n'
        '  assert degree(sigma[1]^2) + 1 == dim(2, 5) - 2 * H cite "y"\n'
        "}\n\n"
        'scenario "b" {\n'
        '  assert 2 * H - E == -(2 * H - E) cite "x"\n'
        '  assert degree(sigma[1]^2) + 1 == dim(2, 5) - 2 * H cite "y"\n'
        "}\n"
    )


def test_equal_integers_share_their_operators_whatever_their_text():
    # two texts of one integer past the interpreter's small-int cache give
    # two int objects; the operator over them is still one node
    document = parse(
        'scenario "a" { assert 10000000000000000000*H == 010000000000000000000*H cite "x" }'
        ' scenario "b" { assert -10000000000000000000 != -(10000000000000000000) cite "y" }'
    )
    (a,), (b,) = (s.statements for s in document.scenarios)
    assert a.left is a.right and a.left.left == 10**19
    assert b.left is b.right and b.left.operand == 10**19


def test_a_setup_free_node_is_folded_once_per_document(monkeypatch):
    from fanocalc.blowup import E, H

    calls = []
    for op, rule in list(dsl._OPERATORS.items()):
        monkeypatch.setitem(dsl._OPERATORS, op, lambda *operands, _op=op, _rule=rule: (
            calls.append((_op, *operands)) or _rule(*operands)))
    rows = "".join(f'  assert 2*H - E == -(E - 2*H) cite "x" label "r{j}"\n' for j in range(25))
    source = f'scenario "a" {{\n{rows}}}\nscenario "b" {{\n{rows}}}\n'
    # the right side first: 2*H, E - 2*H, its negation; then 2*H - E, over the kept 2*H
    once = [("*", 2, H), ("-", E, 2 * H), (dsl._UNARY_MINUS, E - 2 * H), ("-", 2 * H, E)]
    document = parse(source)
    document.build()
    assert calls == []  # parsing and building evaluate nothing
    for folds in (once, []):  # the first build folds each node once, a second none
        calls.clear()
        report = run(document.build())
        assert (report.total, report.failed) == (50, 0)
        assert calls == folds
    calls.clear()
    assert run(parse(source).build()).failed == 0  # a fresh parse folds them once again
    assert calls == once


def test_a_setup_free_node_that_raises_fails_its_rows_in_every_build():
    document = parse(
        'scenario "a" {\n'
        '  assert H * H == 1 cite "x"\n'
        '  assert 1 + H * H != 0 cite "a shared node that raises, under an operator"\n'
        '  assert 2 ^ -1 == 1 cite "x"\n'
        '  assert -(2 ^ -1) != 0 cite "x"\n'
        "}\n"
    )
    product = "error: TypeError: cannot apply '*' to Divisor and Divisor"
    power = "error: ValueError: negative exponents are not supported"
    for _ in range(2):
        rows = json.loads(run(document.build()).to_json())["scenarios"][0]["assertions"]
        assert [(row["actual"], row["pass"]) for row in rows] == [
            (product, False), (product, False), (power, False), (power, False)]
    (node,) = document.scenarios
    assert [side.kept for stmt in node.rows.values() for side in (stmt.left, stmt.right)
            if not isinstance(side, int)] == [None] * 4


def test_an_operator_over_a_call_is_computed_by_each_build(monkeypatch):
    calls = []
    for op, rule in list(dsl._OPERATORS.items()):
        monkeypatch.setitem(dsl._OPERATORS, op, lambda *operands, _op=op, _rule=rule: (
            calls.append((_op, *operands)) or _rule(*operands)))
    document = parse(
        'scenario "a" {\n'
        "  profile P4 h4 1 index 5 ambient p4 codim 0 chi 1 euler 5\n"
        "  center curve genus 0 hc 1\n"
        '  assert quartic(H, H, H, H) - 1 == 0 cite "x"\n'
        '  assert quartic(H, H, H, H) - 1 != 1 cite "the same node"\n'
        '  assert -quartic(H, H, H, H) != 1 cite "a negation over the same call"\n'
        "}\n"
    )
    for _ in range(2):  # each node once in each build, for every row that uses it
        calls.clear()
        assert run(document.build()).failed == 0
        assert calls == [("-", 1, 1), (dsl._UNARY_MINUS, 1)]
    (node,) = document.scenarios
    assert node.rows["a01"].left is node.rows["a02"].left
    assert [row.left.kept for row in node.rows.values()] == [None] * 3


def test_a_build_reaches_the_engine_once_per_distinct_call(monkeypatch):
    from fanocalc import blowup

    quartic, calls = blowup.quartic_number, []
    monkeypatch.setattr(blowup, "quartic_number",
                        lambda model, *divisors: calls.append(divisors) or quartic(model, *divisors))
    document = parse(
        'scenario "a" {\n'
        "  profile P4 h4 1 index 5 ambient p4 codim 0 chi 1 euler 5\n"
        "  center curve genus 0 hc 1\n"
        '  assert quartic(H, H, H, H) - 1 == 0 cite "an operator over a call"\n'
        '  assert quartic(2*H - E, H, H, H) == 2 cite "a shared setup-free argument"\n'
        '  assert quartic(H, H, H, H) == quartic(H,H,H,H) cite "one call, written twice"\n'
        '  assert quartic(2*H - E, H, H, H) - 1 != 0 cite "the call of an earlier row"\n'
        "}\n"
    )
    once = [(blowup.H,) * 4, (2 * blowup.H - blowup.E,) + (blowup.H,) * 3]
    scenarios = document.build()
    report = run(scenarios).to_json()
    assert calls == once  # each distinct call once, across the rows of the build
    assert json.loads(report)["failed"] == 0
    calls.clear()
    assert run(scenarios).to_json() == report  # a second run of the build reads its memo
    assert calls == []
    assert run(document.build()).to_json() == report  # a fresh build starts from nothing
    assert calls == once


def test_a_shared_fold_that_raises_fails_each_of_its_rows():
    rows = 'assert 2^(2^40) == 0 cite "x" assert 1 + 2^(2^40) != 0 cite "y"'
    report = run_source(f'scenario "a" {{ {rows} }} scenario "b" {{ {rows} }}')
    assert report.failed == 4
    error = "error: ValueError: a power of up to 2199023255552 bits is over the limit of 100000"
    assert [row["actual"] for s in json.loads(report.to_json())["scenarios"] for row in s["assertions"]] == [
        error
    ] * 4


# ---------------------------------------------------------------------------
# pretty-printing round trips

def test_pretty_is_a_fixpoint_and_preserves_results():
    for name, source in BUILTIN_SOURCES.items():
        document = parse(source)
        printed = document.pretty()
        reparsed = parse(printed)
        assert reparsed.pretty() == printed, name
        assert run(reparsed.build()).to_json() == run(document.build()).to_json(), name


def test_pretty_parenthesizes_minimally():
    source = (
        'scenario "p" {\n'
        '  assert (1 + 2) * 3 - -4 == 13 cite "parens"\n'
        '  assert 2 ^ (1 + 1) == 4 cite "pow"\n'
        '  assert -(1 + 2) == -3 cite "neg"\n'
        "}\n"
    )
    printed = parse(source).pretty()
    assert "(1 + 2) * 3 - (-4)" in printed or "(1 + 2) * 3 - -4" in printed
    assert "2^(1 + 1)" in printed
    assert "-(1 + 2)" in printed
    report = run(parse(printed).build())
    assert report.failed == 0


def test_pretty_escapes_strings():
    source = 'scenario "q" { assert 1 == 1 cite "say \\"hi\\" \\\\" }'
    printed = parse(source).pretty()
    assert '\\"hi\\"' in printed
    reparsed = parse(printed)
    assert reparsed.scenarios[0].statements[0].cite == 'say "hi" \\'


# ---------------------------------------------------------------------------
# totality under fuzzing

@settings(max_examples=300, deadline=None)
@example('scenario "x" {')
@example("scenario")
@example('"')
@example("\x00")
@example("sigma[1]^")
@example('scenario "a" { assert (((1))) == 1 cite "x" }')
@given(st.text(max_size=200))
def test_parse_never_crashes_on_text(source):
    try:
        parse(source)
    except ParseError:
        pass


_VOCAB = [
    "scenario", "profile", "center", "grassmannian", "assert", "cite", "label",
    "curve", "surface", "genus", "hc", "hhc", "hkc", "kc2", "euler", "c2xc",
    "h4", "index", "c2h2", "ambient", "codim", "chi", "quartic", "solve",
    "degree", "dim", "chern", "sigma", "H", "E", '"x"', '"y"', "{", "}", "(",
    ")", "[", "]", ",", "+", "-", "*", "^", "==", "!=", "0", "1", "42", "#",
    "\n", "\\",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_VOCAB), max_size=40))
def test_parse_never_crashes_on_token_soup(tokens):
    try:
        parse(" ".join(tokens))
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet='scenario"{}[]()^*+-,=!#\\ \nprofilecnterx0123456789', max_size=120))
def test_parse_never_crashes_on_dsl_alphabet(source):
    try:
        parse(source)
    except ParseError:
        pass


# Documents of one fixed setup and drawn assertions; every value the
# language computes is reachable: numbers, divisors, Schubert cycles,
# fractions from solve(), and powers past the bound such as 3^3^3^3.
_SETUPS = (
    "profile P4 h4 1 index 5 c2h2 10 chi 1 euler 5 center curve genus 0 hc 1",
    "profile W5 h4 5 index 3 c2h2 22 chi 1 euler 6"
    " center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 5",
    "profile W5 h4 5 index 3 ambient gr25 codim 2 chi 1 euler 6"
    " center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 5 sigma[2, 2]",
)
_ARITY = {"quartic": 4, "chi": 1, "degree": 1, "genus": 2, "solve": 3, "dim": 2}


def _extend(inner):
    binary = st.tuples(inner, st.sampled_from("+-*^"), inner, st.booleans()).map(
        lambda t: (f"({t[0]} {t[1]} {t[2]})" if t[3] else f"{t[0]} {t[1]} {t[2]}"))
    call = st.sampled_from(sorted(_ARITY)).flatmap(
        lambda name: st.lists(inner, min_size=_ARITY[name], max_size=_ARITY[name]).map(
            lambda args: f"{name}({', '.join(args)})"))
    return st.one_of(binary, inner.map(lambda e: f"-{e}"), call)


_EXPRESSIONS = st.recursive(
    st.sampled_from(["0", "1", "2", "3", "H", "E", "sigma[1]"]), _extend, max_leaves=12)


@settings(max_examples=150, deadline=5000)
@example(_SETUPS[0], [("3^3^3^3", "==", "0"), ("(sigma[1]^0)^(3^3^3)", "!=", "2^(2^40)")])
@example(_SETUPS[0], [("solve(1, 0, 2^20000)", "==", "0")])
@given(
    st.sampled_from(_SETUPS),
    st.lists(st.tuples(_EXPRESSIONS, st.sampled_from(["==", "!="]), _EXPRESSIONS),
             min_size=1, max_size=4),
)
def test_check_is_total_on_generated_documents(setup, rows):
    # parse -> build -> run -> report gives a report, or a ParseError, and nothing else
    body = "".join(f'  assert {left} {op} {right} cite "x"\n' for left, op, right in rows)
    try:
        report = run(parse(f'scenario "t" {{\n  {setup}\n  grassmannian 2 5\n{body}}}\n').build())
    except ParseError:
        return
    assert report.total == len(rows)
    report.to_text()
    report.to_json()


# Scenarios of drawn statements, each well formed, whose setup statements
# and labels may repeat; a label of None is generated.
_STATEMENT_POOL = (
    "profile P4 h4 1 index 5 c2h2 10 chi 1 euler 5",
    "profile W5 h4 5 index 3 ambient gr25 codim 2 chi 1 euler 6",
    "profile X h4 1 index 1 ambient nowhere codim 0 chi 1 euler 1",
    "center curve genus 0 hc 1",
    "center surface hhc 1 hkc -3 kc2 9 euler 3 c2xc 5 sigma[2, 2]",
    "grassmannian 2 5",
    "grassmannian 2 6",
)
_ROWS = ("1 == 1", "quartic(H, H, H, H) == 1", "degree(sigma[1]^6) == 5", "euler() != 0")
_STATEMENTS = st.one_of(
    st.sampled_from(_STATEMENT_POOL),
    st.tuples(st.sampled_from(_ROWS), st.sampled_from([None, "a01", "a02", "x"])),
)


def _statement_text(stmt):
    if isinstance(stmt, str):
        return stmt
    row, label = stmt
    return f'assert {row} cite "c"' + (f' label "{label}"' if label else "")


def _first_broken_rule(scenarios):
    """The message of the first repeat in the drawn scenarios, or None."""
    names = set()
    for name, statements in scenarios:
        keywords, labels = set(), set()
        for stmt in statements:
            if isinstance(stmt, str):
                keyword = stmt.split()[0]
                if keyword in keywords:
                    return f"duplicate {keyword} statement"
                keywords.add(keyword)
            else:
                label = stmt[1] or f"a{len(labels) + 1:02d}"
                if label in labels:
                    return f"duplicate assertion label {label!r}"
                labels.add(label)
        if name in names:
            return f"duplicate scenario name {name!r}"
        names.add(name)
    return None


@settings(max_examples=150, deadline=None)
@example([("s", ["grassmannian 2 5", "grassmannian 2 5"])])
@example([("s", [("1 == 1", "a02"), ("1 == 1", None)])])
@given(st.lists(st.tuples(st.sampled_from("st"), st.lists(_STATEMENTS, max_size=6)),
                min_size=1, max_size=2))
def test_a_parsed_document_always_builds_and_runs(scenarios):
    # parse raises the first broken document rule, or build and run raise
    # nothing and report every assertion
    source = "".join(
        f'scenario "{name}" {{\n' + "".join(f"  {_statement_text(s)}\n" for s in statements) + "}\n"
        for name, statements in scenarios
    )
    broken = _first_broken_rule(scenarios)
    try:
        document = parse(source)
    except ParseError as exc:
        assert exc.message == broken
        return
    assert broken is None
    report = run(document.build())
    assert report.total == sum(not isinstance(s, str) for _, statements in scenarios for s in statements)
    report.to_text()
    report.to_json()


# ---------------------------------------------------------------------------
# repeated argument texts, read once per document

def test_a_repeated_plain_text_is_one_node():
    row = 'assert quartic(2*H - E, H, (2*H - E), 2*H-E) == chi((2*H - E) ) cite "x"'
    document = parse(f'scenario "a" {{ {row} }} scenario "b" {{ {row} }}')
    (a,), (b,) = (s.statements for s in document.scenarios)
    assert a.left is b.left and a.right is b.right  # one call of the document each
    for left, right in ((a.left, a.right), (b.left, b.right)):
        assert left.args[0] is left.args[2] is left.args[3] is right.args[0] is a.left.args[0]
        assert left.args[1] is syntax._DIVISOR_ATOMS["H"]


class _Counting:
    """A stand-in for a compiled pattern that keeps every match it makes."""

    def __init__(self, pattern):
        self.pattern, self.matches = pattern, []

    def match(self, source, offset):
        m = self.pattern.match(source, offset)
        self.matches.append(m)
        return m


def _counted_parse(monkeypatch, source):
    """The document ``source`` parses to, and the _TOKEN, _PLAIN and _TAIL matches made."""
    counters = [_Counting(getattr(syntax, name)) for name in ("_TOKEN", "_PLAIN", "_TAIL")]
    for name, counter in zip(("_TOKEN", "_PLAIN", "_TAIL"), counters):
        monkeypatch.setattr(syntax, name, counter)
    return parse(source), *(counter.matches for counter in counters)


def test_a_repeated_plain_text_is_read_once(monkeypatch):
    rows = '  assert quartic(H - E, H - E, H - E, H - E) == 1 cite "x"\n' * 50
    document, tokens, plains, _ = _counted_parse(monkeypatch, f'scenario "w" {{\n{rows}}}\n')
    assert len(document.scenarios[0].statements) == 50
    # the first copy's tokens and the ',' after it are read once, through _TOKEN
    read = [m[1] for m in tokens]
    assert [read.count(text) for text in ("H", "-", "E", ",", ")")] == [1, 1, 1, 1, 0]
    # each copy's text is matched once by _PLAIN, and the ',' or ')' that
    # ends each later copy is read in that match
    delimiters = [m[2] for m in plains]
    assert len(delimiters) == 200
    assert (delimiters[1:].count(","), delimiters[1:].count(")")) == (149, 50)


# Matches of _TOKEN, _PLAIN and _TAIL made to parse each built-in source, a
# deterministic count of the parser's work.
_BUILTIN_READS = {
    "gr25-chern": (191, 39, 10),
    "gr26-v14-plane": (168, 39, 8),
    "moduli-counts": (67, 11, 7),
    "sanity-p4-line": (49, 9, 3),
    "v12-link": (94, 23, 6),
    "v14-link": (169, 49, 11),
    "w22-line-link": (62, 13, 4),
    "w5-invariants": (261, 55, 11),
    "w5-pi-link": (130, 24, 7),
    "w5-xi-link": (70, 12, 3),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_SOURCES))
def test_builtin_sources_are_read_in_a_fixed_number_of_matches(monkeypatch, name):
    _, tokens, plains, tails = _counted_parse(monkeypatch, BUILTIN_SOURCES[name])
    assert (len(tokens), len(plains), len(tails)) == _BUILTIN_READS[name]


# An assertion's tail after its right side, appended to _TAIL_HEAD -> the
# (line, column, message) of its ParseError, or the (cite, label) of each
# assertion parsed, as the token-by-token parser gives them.
_TAIL_HEAD = 'scenario "s" {\n  assert 1 == 1 '
_TAIL_OUTCOMES = {
    # no string, or no closed one, after 'cite' or 'label'
    'cite }': (2, 22, "expected a string, found '}'"),
    'cite': (2, 21, "expected a string, found end of input"),
    'cite 5 }': (2, 22, "expected a string, found '5'"),
    'cite label "y" }': (2, 22, "expected a string, found 'label'"),
    'cite "x" label': (2, 31, "expected a string, found end of input"),
    'cite "x" label 5 }': (2, 32, "expected a string, found '5'"),
    'cite "x" label label }': (2, 32, "expected a string, found 'label'"),
    'cite "x }': (2, 22, "unterminated string literal"),
    'cite "x': (2, 22, "unterminated string literal"),
    'cite "x" label "y }': (2, 32, "unterminated string literal"),
    'cite "x" label "a\nb" }': (2, 32, "unterminated string literal"),
    'cite "a\\q" }': (2, 24, "unsupported escape in string literal"),
    'cite "x" label "a\\q" }': (2, 34, "unsupported escape in string literal"),
    'cite "x" label "y\\': (2, 34, "unsupported escape in string literal"),
    # a name that starts with 'label' is no keyword
    'cite "x" labelx "y" }': (2, 26, "expected a statement or '}', found 'labelx'"),
    'cite "x" label² "y" }': (2, 26, "expected a statement or '}', found 'label²'"),
    # errors after a whole tail
    'cite "x" label "y" label "z" }': (2, 36, "expected a statement or '}', found 'label'"),
    'cite "x" label "y"': (2, 35, "expected a statement or '}', found end of input"),
    'cite "x" label "y" 5 }': (2, 36, "expected a statement or '}', found '5'"),
    'cite "x" label "y" "z" }': (2, 36, "expected a statement or '}', found a string"),
    'cite "x" ² }': (2, 26, "unexpected character '²'"),
    'cite "a\rb" oops }': (2, 28, "expected a statement or '}', found 'oops'"),
    'cite "x" label "a02" assert 2 == 2 cite "y" }': (2, 38, "duplicate assertion label 'a02'"),
    'cite "x" label "" assert 2 == 2 cite "" label "" }': (2, 35, "duplicate assertion label ''"),
    'cite "x" label "y"\n} scenario "s" {}': (3, 3, "duplicate scenario name 's'"),
    # whole tails: comments, newlines, CR, tabs, escapes, no whitespace
    'cite # c\n "x" }': [("x", None)],
    'cite\n"x" label\n"y" }': [("x", "y")],
    'cite # c\n "x" label # d\n "y" }': [("x", "y")],
    'cite "x" label "y"#c\n}': [("x", "y")],
    'cite "x"label"y"}': [("x", "y")],
    'cite "x"\tlabel\t"y"\r\n}': [("x", "y")],
    'cite "a\\"b\\\\c" label "a\\"b\\\\c" }': [('a"b\\c', 'a"b\\c')],
    'cite "\\\\" label "\\"" }': [("\\", '"')],
    'cite "a\rb" }': [("a\rb", None)],
    'cite "x" label "y" } scenario "t" { assert 1 == 1 cite "x" label "y" }': [("x", "y")] * 2,
}

# A pattern that matches nothing, so every tail is read token by token.
_NO_TAIL = re.compile(r"(?!)")


def _tail_outcome(source):
    try:
        document = parse(source)
    except ParseError as exc:
        return _error(exc)
    return [(s.cite, s.label) for node in document.scenarios for s in node.statements]


@pytest.mark.parametrize("tail", sorted(_TAIL_OUTCOMES))
def test_a_tail_reads_as_its_tokens(monkeypatch, tail):
    source = _TAIL_HEAD + tail
    expected = _TAIL_OUTCOMES[tail]
    outcome = _tail_outcome(source)
    assert outcome == expected
    if isinstance(expected, list):  # each assertion's tail is read in one match, and printed back
        _, _, _, tails = _counted_parse(monkeypatch, source)
        assert [m is not None for m in tails] == [True] * len(expected)
        printed = parse(source).pretty()
        assert _tail_outcome(printed) == expected and parse(printed).pretty() == printed
    monkeypatch.setattr(syntax, "_TAIL", _NO_TAIL)
    assert _tail_outcome(source) == outcome


def _quoted(value):
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


_TAIL_SKIPS = st.lists(st.sampled_from([" ", "\t", "\r", "\n", "# note\n", '# "x" label\n']),
                       max_size=3).map("".join)
_TAIL_VALUES = st.text(st.one_of(st.sampled_from('"\\\r#\t'), st.characters(exclude_characters="\n")),
                       max_size=8)


@settings(max_examples=200, deadline=None)
@given(_TAIL_VALUES, st.one_of(st.none(), _TAIL_VALUES), st.lists(_TAIL_SKIPS, min_size=4, max_size=4))
def test_a_drawn_tail_parses_to_its_strings(cite, label, skips):
    tail = f"cite{skips[0]}{_quoted(cite)}{skips[1]}"
    if label is not None:
        tail += f"label{skips[2]}{_quoted(label)}{skips[3]}"
    source = f"{_TAIL_HEAD}{tail}}}"
    assert _tail_outcome(source) == [(cite, label)]
    printed = parse(source).pretty()
    assert _tail_outcome(printed) == [(cite, label)] and parse(printed).pretty() == printed
    with mock.patch.object(syntax, "_TAIL", _NO_TAIL):
        assert _tail_outcome(source) == [(cite, label)]


# Pieces of tails, whole or broken, drawn after the right side.
_TAIL_PIECES = ["cite", "label", "labelx", '"x"', '"a\\"b"', '"a\\\\"', '"open', '"a\\q"', '"',
                "\\", " ", "\t", "\r", "\n", "# c\n", "}", "5", "²", "assert 2 == 2"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_TAIL_PIECES), max_size=8))
def test_a_drawn_tail_reads_as_its_tokens(pieces):
    # the outcome, the tree's strings or the ParseError, is the token route's
    source = _TAIL_HEAD + "cite " + "".join(pieces)
    outcome = _tail_outcome(source)
    with mock.patch.object(syntax, "_TAIL", _NO_TAIL):
        assert _tail_outcome(source) == outcome


def test_a_repeated_text_without_room_to_nest_is_parsed_again():
    # "-1" is read shallow first; its copy 63 calls deep has no level left for
    # the minus, and fails at it, as it would if it were the first copy
    def nest(calls):
        return "dim(" * calls + "-1" + ", 1)" * calls

    for first in ("", 'assert dim(-1, 1) == 0 cite "x"\n  '):
        fits = parse(f'scenario "d" {{\n  {first}assert {nest(62)} == 0 cite "x"\n}}')
        assert run(fits.build()).total == (2 if first else 1)
        with pytest.raises(ParseError) as info:
            parse(f'scenario "d" {{\n  {first}assert {nest(63)} == 0 cite "x"\n}}')
        line = 3 if first else 2
        assert _error(info.value) == (line, 262, "expression nesting too deep")


# Documents whose call arguments and parenthesised groups end in a slot for
# the whitespace before their ',' or ')', filled alike in every copy, so
# the texts repeat, or differently in each, so none does.  Tab and CR are
# one column each, like a space, so both fillings put every token at the
# same line and column.  A second slot, after each ',' and ')', takes the
# same whitespace or comment in both fillings; a repeated text's match
# reads it along with its ',' or ')'.
_SLOT, _AFTER = "\0", "\1"


def _slotted(inner):
    binary = st.tuples(inner, st.sampled_from("+-*^"), inner).map(" ".join)
    group = inner.map(lambda e: f"({e}{_SLOT}){_AFTER}")
    call = st.sampled_from(sorted(_ARITY)).flatmap(
        lambda name: st.lists(inner, min_size=_ARITY[name], max_size=_ARITY[name]).map(
            lambda args: f"{name}({f',{_AFTER}'.join(a + _SLOT for a in args)}){_AFTER}"))
    return st.one_of(binary, inner.map(lambda e: f"-{e}"), group, call)


_SLOTTED = st.recursive(
    st.sampled_from(["0", "1", "2", "H", "E", "2*H - E", "sigma[1]", "foo", "²"]), _slotted,
    max_leaves=8)


def _fill(source, slot, fillers):
    pieces = source.split(slot)
    return "".join(piece + next(fillers) for piece in pieces[:-1]) + pieces[-1]


def _outcome(source):
    try:
        document = parse(source)
    except ParseError as exc:
        return _error(exc)
    return document.pretty(), run(document.build()).to_json()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_SETUPS),
    st.lists(_SLOTTED, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["==", "!="]), st.integers(0, 2)),
             min_size=1, max_size=6),
    st.lists(st.sampled_from([" ", "\t", "\r", "# comment\n"]), min_size=1, max_size=5),
)
def test_reading_a_text_once_changes_no_outcome(setup, pool, rows, skips):
    # the tree, the printout, the report or the ParseError is the same
    def side(i):
        return f"({pool[i % len(pool)]}{_SLOT}){_AFTER}"

    body = [f'  assert {side(i)} {op} {side(j)} cite "x"\n' for i, op, j in rows]
    scenarios = (f'scenario "{name}" {{\n  {setup}\n  grassmannian 2 5\n{"".join(body[k::2])}}}\n'
                 for k, name in enumerate("ab"))
    source = _fill("".join(scenarios), _AFTER, itertools.cycle(skips))
    distinct = ("".join(ws) for ws in itertools.product(" \t\r", repeat=6))
    assert (_outcome(_fill(source, _SLOT, itertools.repeat(" " * 6)))
            == _outcome(_fill(source, _SLOT, distinct)))


def test_parse_error_exposes_position_fields():
    try:
        parse("!")
    except ParseError as exc:
        assert exc.line == 1
        assert exc.column == 1
        assert isinstance(exc.message, str)
        assert str(exc).startswith("line 1, column 1: ")
    else:  # pragma: no cover
        pytest.fail("expected a ParseError")


def test_emit_equals_builtin_execution():
    # parsing the canonical printout runs identically to the raw source
    for name in BUILTIN_SOURCES:
        printed = parse(BUILTIN_SOURCES[name]).pretty()
        a = json.loads(run(parse(printed).build()).to_json())
        b = json.loads(run(parse(BUILTIN_SOURCES[name]).build()).to_json())
        assert a == b, name
