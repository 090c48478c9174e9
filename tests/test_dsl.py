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

from fanocalc import dsl
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


# The token pattern before SYM moved first and its runs became possessive,
# kept as the reference for how the lexer splits a source.
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
            with mock.patch.object(dsl, "_OPEN_STRING", _BACKTRACKING_OPEN_STRING):
                try:
                    dsl._lex_error(source, m.start())
                except ParseError as exc:
                    return _error(exc)
        tokens.append(("IDENT" if kind == "WORD" else kind, text, m.start()))
    return tokens


def _streamed_tokens(source):
    """(kind, text, offset) of each token through EOF as the parser reads them, or the lexical error."""
    parser = dsl._Parser(source)
    tokens = []
    try:
        while True:
            if parser.kind == "BAD" or parser.kind == "WORD":  # a WORD that is a name reads as IDENT
                dsl._lex_error(source, parser.start)
            tokens.append((parser.kind, parser.value, parser.start))
            if parser.kind == "EOF":
                return tokens
            parser.advance()
    except ParseError as exc:
        return _error(exc)


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
    parser = dsl._Parser(source)
    bounds = []
    while parser.kind != "EOF":
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
        ("chi(1)", "", "ValueError: no profile statement in this scenario"),
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
    # chi() reaches quartic_number through the module too, so a trace counts its quartic
    rows = (
        ("quartic(H, H, H, H) == 4", ("quartic_number",)),
        ("chi(H) == 7", ("chi_riemann_roch", "quartic_number")),
    )
    for row, traced in rows:
        calls.clear()
        assert run_source(f'scenario "t" {{ {setup} assert {row} cite "x" }}').failed == 0
        for name in traced:
            assert calls.get(name, 0) > 0, (row, name)


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

    for terms in (5000, dsl._MAX_DEPTH + 1):
        with pytest.raises(ParseError) as info:
            parse(chain(terms))
        # reported at the operator whose node passes the bound
        assert (info.value.line, info.value.column) == (1, 22 + 2 * dsl._MAX_DEPTH)
        assert info.value.message == "expression nesting too deep"
    # the tallest legal trees: one that needs no setup, and one with a call
    # at the bottom, which is evaluated only when the report runs
    tallest = "+".join(["dim(2, 5)"] + ["1"] * (dsl._MAX_DEPTH - 2))
    with pytest.raises(ParseError):
        parse(f'scenario "c" {{ assert {tallest}+1 == 0 cite "x" }}')
    for source in (chain(dsl._MAX_DEPTH),
                   f'scenario "c" {{ assert {tallest} == {dsl._MAX_DEPTH + 4} cite "x" }}'):
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
    # nothing that holds sigma[...] or a call is shared, but its leaves are
    for a, b in ((a2.left, b2.left), (a2.left.left, b2.left.left),
                 (a2.left.left.args[0].left, b2.left.left.args[0].left), (a2.right, b2.right),
                 (a2.right.left, b2.right.left)):
        assert a is not b and dsl._print_expr(a) == dsl._print_expr(b)
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


def test_a_shared_node_is_folded_once_per_build(monkeypatch):
    from fanocalc import blowup

    times, calls = dsl._OPERATORS["*"], []
    monkeypatch.setitem(dsl._OPERATORS, "*", lambda a, b: calls.append((a, b)) or times(a, b))
    rows = "".join(f'  assert 2*H - E == H + (H - E) cite "x" label "r{j}"\n' for j in range(25))
    document = parse(f'scenario "a" {{\n{rows}}}\nscenario "b" {{\n{rows}}}\n')
    for _ in range(2):
        calls.clear()
        report = run(document.build())
        assert (report.total, report.failed) == (50, 0)
        assert calls == [(2, blowup.H)]


def test_running_built_scenarios_again_repeats_their_engine_calls(monkeypatch):
    from fanocalc import blowup

    quartic, calls = blowup.quartic_number, []
    monkeypatch.setattr(blowup, "quartic_number",
                        lambda model, *divisors: calls.append(divisors) or quartic(model, *divisors))
    (scenario,) = parse(
        'scenario "a" {\n'
        "  profile P4 h4 1 index 5 ambient p4 codim 0 chi 1 euler 5\n"
        "  center curve genus 0 hc 1\n"
        '  assert quartic(H, H, H, H) - 1 == 0 cite "an operator over a call"\n'
        '  assert quartic(2*H - E, H, H, H) == 2 cite "a shared setup-free argument"\n'
        '  assert 2*H - E != E cite "the same node"\n'
        "}\n"
    ).build()
    reports = []
    for _ in range(2):
        calls.clear()
        reports.append(run([scenario]).to_json())
        assert calls == [(blowup.H,) * 4, (2 * blowup.H - blowup.E,) + (blowup.H,) * 3]
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["failed"] == 0


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
    assert a.left is not b.left  # calls are never shared
    assert dsl._print_expr(a.left) == dsl._print_expr(b.left)
    for left, right in ((a.left, a.right), (b.left, b.right)):
        assert left.args[0] is left.args[2] is left.args[3] is right.args[0] is a.left.args[0]
        assert left.args[1] is dsl._DIVISOR_ATOMS["H"]


def test_a_repeated_plain_text_is_read_once(monkeypatch):
    token, read = dsl._TOKEN, []

    class Counting:
        def match(self, source, offset):
            m = token.match(source, offset)
            read.append(m[m.lastgroup])
            return m

    monkeypatch.setattr(dsl, "_TOKEN", Counting())
    rows = '  assert quartic(H - E, H - E, H - E, H - E) == 1 cite "x"\n' * 50
    document = parse(f'scenario "w" {{\n{rows}}}\n')
    assert [read.count(text) for text in ("H", "-", "E", ",", ")")] == [1, 1, 1, 150, 50]
    assert len(document.scenarios[0].statements) == 50


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
# same line and column.
_SLOT = "\0"


def _slotted(inner):
    binary = st.tuples(inner, st.sampled_from("+-*^"), inner).map(" ".join)
    group = inner.map(lambda e: f"({e}{_SLOT})")
    call = st.sampled_from(sorted(_ARITY)).flatmap(
        lambda name: st.lists(inner, min_size=_ARITY[name], max_size=_ARITY[name]).map(
            lambda args: f"{name}({', '.join(a + _SLOT for a in args)})"))
    return st.one_of(binary, inner.map(lambda e: f"-{e}"), group, call)


_SLOTTED = st.recursive(
    st.sampled_from(["0", "1", "2", "H", "E", "2*H - E", "sigma[1]", "foo", "²"]), _slotted,
    max_leaves=8)


def _fill(source, fillers):
    pieces = source.split(_SLOT)
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
)
def test_reading_a_text_once_changes_no_outcome(setup, pool, rows):
    # the tree, the printout, the report or the ParseError is the same
    def side(i):
        return f"({pool[i % len(pool)]}{_SLOT})"

    body = [f'  assert {side(i)} {op} {side(j)} cite "x"\n' for i, op, j in rows]
    scenarios = (f'scenario "{name}" {{\n  {setup}\n  grassmannian 2 5\n{"".join(body[k::2])}}}\n'
                 for k, name in enumerate("ab"))
    source = "".join(scenarios)
    distinct = ("".join(ws) for ws in itertools.product(" \t\r", repeat=6))
    assert _outcome(_fill(source, itertools.repeat(" " * 6))) == _outcome(_fill(source, distinct))


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
