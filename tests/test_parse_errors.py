"""The message and (line, column) of every ParseError, pinned case by case.

Each case is (rule, text, message, (line, column)). They cover input over
several lines, each two-character operator and a stray `-`, a bad letter
peeled off the middle of a word token, a non-ASCII character after a
newline, the end of input inside `(`, and a match with no word side.
"""

import pytest

from constrex import ParseError, parse_expression, parse_formula, parse_term

PARSERS = {"expr": parse_expression, "formula": parse_formula, "term": parse_term}

CASES = [
    # expressions
    ("expr", "a b\n  c +\n    )", "expected an expression atom, found ')'", (3, 5)),
    ("expr", "(a b\n  c", "expected ')', found 'end of input'", (2, 4)),
    ("expr", "a -| -| b", "expected an expression atom, found '-|'", (1, 6)),
    ("expr", "-| a", "expected an expression atom, found '-|'", (1, 1)),
    ("expr", "x -|", "expected an expression atom, found 'end of input'", (1, 5)),
    # the position of the first word token, after the letters peeled off it
    ("expr", "ab* -| c*", "one side of -| must be a mixed word", (1, 2)),
    ("expr", "abc* -|\n (a + b)*", "one side of -| must be a mixed word", (1, 3)),
    ("expr", "a && b", "unexpected '&&' after expression", (1, 3)),
    ("expr", "a || b", "unexpected '||' after expression", (1, 3)),
    ("expr", "a -> b", "unexpected '->' after expression", (1, 3)),
    ("expr", "a - b", "unexpected character '-'", (1, 3)),
    ("expr", "a -", "unexpected character '-'", (1, 3)),
    ("expr", "a d", "'d' is not a symbol or variable", (1, 3)),
    ("expr", "abd c", "'d' is not a symbol or variable", (1, 3)),
    ("expr", "a b | sim(f(ab), d)", "'d' is not a symbol or variable", (1, 18)),
    ("expr", "a |\n sim(a,\n d)", "'d' is not a symbol or variable", (3, 2)),
    ("expr", "ab\n é", "unexpected character 'é'", (2, 2)),
    ("expr", "(", "expected an expression atom, found 'end of input'", (1, 2)),
    ("expr", "a | sim(a, b) &&", "expected a formula, found 'end of input'", (1, 17)),
    # formulas
    ("formula", "sim(a, b) &&\n  || lt(a, b)", "expected a formula, found '||'", (2, 3)),
    ("formula", "sim(a, b) -| lt(a, b)", "unexpected '-|' after formula", (1, 11)),
    ("formula", "sim(a, b) - lt(a, b)", "unexpected character '-'", (1, 11)),
    ("formula", "sim(a, b) &&& lt(a, b)", "unexpected character '&'", (1, 13)),
    ("formula", "sim(a b) -> -> lt(a, b)", "expected a formula, found '->'", (1, 13)),
    ("formula", "sim(a, b) || || x", "expected a formula, found '||'", (1, 14)),
    ("formula", "sim(a, b) ! lt(a, b)", "unexpected '!' after formula", (1, 11)),
    ("formula", "sim(a, b) ->", "expected a formula, found 'end of input'", (1, 13)),
    ("formula", "sim(abd, x)", "'d' is not a symbol or variable", (1, 7)),
    ("formula", "sim(a, b)\n && d(a)", "expected a formula, found 'd'", (2, 5)),
    ("formula", "f(a)", "expected a formula, found 'f'", (1, 1)),
    ("formula", "!\n !é", "unexpected character 'é'", (2, 3)),
    ("formula", "(sim(a, b)", "expected ')', found 'end of input'", (1, 11)),
    ("formula", "sim(a, b) && (lt(a, b)", "expected ')', found 'end of input'", (1, 23)),
    # terms
    ("term", "a && b", "unexpected '&&' after term", (1, 3)),
    ("term", "a || b", "unexpected '||' after term", (1, 3)),
    ("term", "a -> b", "unexpected '->' after term", (1, 3)),
    ("term", "a -| b", "unexpected '-|' after term", (1, 3)),
    ("term", "a - b", "unexpected character '-'", (1, 3)),
    ("term", "a\n\n  b -", "unexpected character '-'", (3, 5)),
    ("term", "abd", "'d' is not a symbol or variable", (1, 3)),
    ("term", "f(a\n  d)", "'d' is not a symbol or variable", (2, 3)),
    ("term", "a\n é", "unexpected character 'é'", (2, 2)),
    ("term", "(ab", "expected ')', found 'end of input'", (1, 4)),
    ("term", "f(", "expected a term, found 'end of input'", (1, 3)),
    ("term", "f(a, b", "expected ')', found 'end of input'", (1, 7)),
    ("term", "(a) )", "unexpected ')' after term", (1, 5)),
]


@pytest.mark.parametrize("rule, text, message, position", CASES)
def test_parse_error_message_and_position(env3, rule, text, message, position):
    with pytest.raises(ParseError) as err:
        PARSERS[rule](text, env3)
    assert (err.value.line, err.value.column) == position
    assert str(err.value) == "line %d, column %d: %s" % (*position, message)
