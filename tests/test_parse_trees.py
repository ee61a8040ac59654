"""The trees the parser builds, pinned case by case, and its depth.

Each case is (rule, text, tree): grammar corner cases of expressions,
formulas and terms, with the tree written out from constructors. The depth
cases parse inputs nested DEEP levels under `recursion_headroom` and
compare the result with a tree built in a loop, node by node in walk order,
since comparing two deep trees with `==` recurses.
"""

import pytest

from constrex import (
    ConfigError, parse_environment, parse_expression, parse_formula, parse_term,
)
from constrex.syntax import (
    AND, CAT, IMPLIES, NOT, OR, TRUE, App, Atom, Cat, Conn, Constraint, Empty,
    Match, Star, Sum, Var, Word, walk,
)

from conftest import DEEP, recursion_headroom

PARSERS = {"expr": parse_expression, "formula": parse_formula, "term": parse_term}

a, b, c, x, y = Word("a"), Word("b"), Word("c"), Word("x"), Word("y")
ta, tb, tc, tx = App("a"), App("b"), App("c"), Var("x")
EPS = App("ε")


def cat(*terms):
    """The right-nested catenation term of terms."""
    t = terms[-1]
    for u in reversed(terms[:-1]):
        t = App(CAT, (u, t))
    return t


def sim(s, t):
    return Atom("sim", (s, t))


def lt(s, t):
    return Atom("lt", (s, t))


SIM_XA = sim(tx, ta)

CASES = [
    # the match: a word on either side of -|, a constraint hoisted from either
    # side, and a chain associated to the right
    ("expr", "a* -| x", Match("x", Star(a))),
    ("expr", "(x | sim(x, a)) -| b*", Constraint(Match("x", Star(b)), SIM_XA)),
    ("expr", "b* -| (x | sim(x, a))", Constraint(Match("x", Star(b)), SIM_XA)),
    ("expr", "x -| y -| a*", Match("x", Match("y", Star(a)))),
    # juxtaposition, sum and star
    ("expr", "(x | sim(x, a)) b", Cat(Constraint(x, SIM_XA), b)),
    ("expr", "a b* + c", Sum(Cat(a, Star(b)), c)),
    ("expr", "a**", Star(Star(a))),
    ("expr", "((a))", a),
    ("expr", "eps a empty", Cat(Word(""), Cat(a, Empty()))),
    ("expr", "abx* c", Cat(a, Cat(b, Cat(Star(x), c)))),
    # formulas: -> associates right, && binds tighter than ||
    ("formula", "sim(a, b) -> lt(a, b) -> sim(b, a)",
     Conn(IMPLIES, (sim(ta, tb), Conn(IMPLIES, (lt(ta, tb), sim(tb, ta)))))),
    ("formula", "sim(a, b) || lt(a, b) && sim(b, a)",
     Conn(OR, (sim(ta, tb), Conn(AND, (lt(ta, tb), sim(tb, ta)))))),
    ("formula", "!!sim(a, b)", Conn(NOT, (Conn(NOT, (sim(ta, tb),)),))),
    ("formula", "!(sim(a, b)) && true", Conn(AND, (Conn(NOT, (sim(ta, tb),)), Conn(TRUE)))),
    # terms: a function name or eps split off a letter run
    ("term", "abf(x)", cat(ta, tb, App("f", (tx,)))),
    ("term", "aeps", cat(ta, EPS)),
    ("term", "(ab)x", cat(cat(ta, tb), tx)),
    ("term", "f((b)c)", App("f", (cat(tb, tc),))),
    ("term", "eps eps", cat(EPS, EPS)),
]


@pytest.mark.parametrize("rule, text, tree", CASES)
def test_parse_tree(env3, rule, text, tree):
    assert PARSERS[rule](text, env3) == tree


# A letter run splits before the first rest of it that is eps or, where "("
# follows, a function name, here bf/1 with f/1 declared as well; in an
# expression, before a rest that is eps or empty.
ENV_BF = parse_environment("alphabet: a b c\nvariables: x y z\nfunctions: f/1 bf/1")

SPLITS = [
    ("term", "abf(x)", cat(ta, App("bf", (tx,)))),
    ("term", "abeps", cat(ta, tb, EPS)),
    ("expr", "abeps", Cat(a, Cat(b, Word("")))),
    ("term", "aeps(b)", cat(ta, EPS, tb)),
    ("expr", "aempty", Cat(a, Empty())),
]


@pytest.mark.parametrize("rule, text, tree", SPLITS)
def test_letter_run_splits(rule, text, tree):
    assert PARSERS[rule](text, ENV_BF) == tree


def test_wrong_arity_in_a_term_raises_after_the_parse(env3):
    with pytest.raises(ConfigError, match="function 'f' expects 1 arguments, got 2"):
        parse_term("f(a, b)", env3)


# ---------------------------------------------------------------------------
# depth


def nodes(root):
    """Each node of a tree in walk order, as its class name and its fields
    that hold no child; equal lists mean equal trees."""
    return [(type(n).__name__, *(v for v in map(n.__getattribute__, n.__slots__)
                                 if isinstance(v, str)))
            for n in walk(root)]


def deep_expression():
    e = a
    for _ in range(DEEP):
        e = Cat(e, Star(b))
    return "(" * DEEP + "a" + ") b*" * DEEP, e


def deep_formula():
    f = sim(ta, tb)
    for _ in range(DEEP):
        f = Conn(OR, (f, lt(ta, tb)))
    return "(" * DEEP + "sim(a, b)" + ") || lt(a, b)" * DEEP, f


def deep_term():
    t = ta
    for _ in range(DEEP):
        t = App(CAT, (t, tb))
    return "(" * DEEP + "a" + ")b" * DEEP, t


def match_chain():
    e = Star(b)
    for _ in range(DEEP):
        e = Match("a", e)
    return "a -| " * DEEP + "b*", e


def nested_calls():
    t = tx
    for _ in range(DEEP):
        t = App("f", (t,))
    return "f(" * DEEP + "x" + ")" * DEEP, t


def parenthesized_argument():
    t = ta
    for _ in range(DEEP):
        t = App(CAT, (t, tc))
    return "sim(" + "(" * DEEP + "a" + ")c" * DEEP + ", b)", sim(t, tb)


@pytest.mark.parametrize("rule, case", [
    ("expr", deep_expression), ("formula", deep_formula), ("term", deep_term),
    ("expr", match_chain), ("term", nested_calls), ("formula", parenthesized_argument),
], ids=lambda v: getattr(v, "__name__", v))
def test_parse_at_depth(env3, rule, case):
    text, tree = case()
    with recursion_headroom():
        assert nodes(PARSERS[rule](text, env3)) == nodes(tree)
