"""Evaluation, regularization and the classical derivative engine."""

import random

import pytest

from constrex import (
    ConfigError, Interpretation, Realization, UnsupportedOperatorError,
    const_null, enumerate_language, eval_formula, eval_term, membership_fixed,
    parse_expression, parse_formula, parse_term, regex_derivative, regex_str,
    regularize,
)
from constrex import syntax
from constrex.syntax import (
    BOT, Bool, Cat, Conn, Constraint, Empty, Match, Star, Word, register_connective,
    sum_expr,
)

from conftest import rand_expr, rand_realization


@pytest.fixture
def interp2(env2):
    return Interpretation(env2, predicates={"P": "nonempty", "Q": "eq", "R": "reveq"},
                          functions={"f": "rev", "g": "cat", "h": "dupcat"})


@pytest.fixture
def r_ex2(env2):
    return Realization(env2, {"x": "aa", "y": "bb", "z": ""})


def test_eval_term_examples(env2, interp2, r_ex2):
    assert eval_term(interp2, r_ex2, parse_term("g(x, x)", env2)) == "aaaa"
    assert eval_term(interp2, r_ex2, parse_term("eps", env2)) == ""
    assert eval_term(interp2, r_ex2, parse_term("h(z, z)", env2)) == ""


def test_eval_formula_evaluation_example(env2, interp2, r_ex2, monkeypatch):
    phi1 = parse_formula("P(x) || Q(x, z)", env2)
    phi2 = parse_formula("Q(y, f(x)) && R(h(z, z), g(f(y), z))", env2)
    phi3 = parse_formula("!P(f(g(x, x)))", env2)
    monkeypatch.setattr(syntax, "_CONNECTIVES", dict(syntax._CONNECTIVES))
    register_connective("ite", 3, lambda c, t, e: ((not c) or t) and (c or e))
    phi4 = Conn("ite", (phi1, phi2, phi3))
    assert eval_formula(interp2, r_ex2, phi1) is True
    assert eval_formula(interp2, r_ex2, phi2) is False
    assert eval_formula(interp2, r_ex2, phi3) is False
    assert eval_formula(interp2, r_ex2, phi4) is False


def test_eval_term_is_deterministic(env2, interp2, r_ex2):
    t = parse_term("h(g(x, y), f(z))", env2)
    assert eval_term(interp2, r_ex2, t) == eval_term(interp2, r_ex2, t)


def test_eval_missing_symbol(env2, r_ex2):
    bare = Interpretation(env2)
    with pytest.raises(ConfigError):
        eval_term(bare, r_ex2, parse_term("f(x)", env2))


def test_realize_word(env3, r1, r2):
    assert r1.realize("x") == "aba"
    assert r1.realize("xby") == "ababaa"
    assert r1.realize("") == ""
    assert r2.realize("x") == "bbaa"


def test_regularize_e1(env3, interp_len, r1, e1):
    rx = regularize(interp_len, r1, e1)
    assert rx == Cat(Word("aba"), Cat(Star(Word("b")), Word("aa")))
    assert regex_str(rx) == "aba b* aa"


def test_regularize_false_constraint(env3, interp_len, r1):
    e = parse_expression("a b | lt(xx, y)", env3)
    # |r1(xx)| = 6 > |r1(y)| = 2, so the constraint fails
    assert regularize(interp_len, r1, e) == Empty()


def test_regularize_e2(env3, interp_len, r2):
    e2 = parse_expression("(a b)* x -| (y x | lt(y, x))", env3)
    rx = regularize(interp_len, r2, e2)
    assert isinstance(rx, Match)
    assert rx.word == "ababbbaa"
    assert enumerate_language(rx, 8) == frozenset({"ababbbaa"})


def test_regularize_rejects_general_operators(env3, interp_len, r1):
    e = Bool("not", (Word("a"),))
    # a false constraint hides the node from regularization, yet it is rejected
    for expr in (e, Constraint(e, BOT)):
        with pytest.raises(UnsupportedOperatorError):
            regularize(interp_len, r1, expr)
        with pytest.raises(UnsupportedOperatorError):
            membership_fixed(interp_len, r1, expr, "a")


def test_regularize_is_variable_free(env3, interp_len):
    rng = random.Random(5)

    def literals(rx):
        if isinstance(rx, Word):
            yield rx.letters
        elif isinstance(rx, Match):
            yield rx.word
            yield from literals(rx.child)
        elif isinstance(rx, Bool):
            for child in rx.children:
                yield from literals(child)
        elif isinstance(rx, Cat):
            yield from literals(rx.left)
            yield from literals(rx.right)
        elif isinstance(rx, Star):
            yield from literals(rx.child)

    for _ in range(100):
        e = rand_expr(rng, env3, 3)
        r = rand_realization(rng, env3)
        for w in literals(regularize(interp_len, r, e)):
            assert all(env3.is_symbol(c) for c in w)


@pytest.mark.parametrize("text, printed", [
    ("a + (x -| a*)", "a + aba & a*"),
    ("x -| a + b*", "aba & (a + b*)"),
    ("x -| (a b)* + (b a)*", "aba & ((a b)* + (b a)*)"),
    ("a (x -| a*) b", "a (aba & a*) b"),
    ("(x -| a*)*", "(aba & a*)*"),
    ("x -| y -| a*", "aba & (aa & a*)"),
    ("x -| (y -| a*) b", "aba & (aa & a*) b"),
    ("x y", "aba aa"),
    ("eps", "eps"),
    ("z", "eps"),
    ("z*", "(eps)*"),
    ("empty", "empty"),
    ("empty*", "empty*"),
    ("a b | lt(xx, y)", "empty"),
    ("a (b | lt(xx, y)) + c", "a empty + c"),
    ("(a b | lt(y, x))*", "(a b)*"),
])
def test_regex_str_golden(env3, interp_len, r1, text, printed):
    rx = regularize(interp_len, r1, parse_expression(text, env3))
    assert regex_str(rx) == printed


def test_regex_derivative_examples():
    assert regex_derivative(Word("a"), "a") == frozenset({Word("")})
    assert regex_derivative(Word("b"), "a") == frozenset()
    rx = Match("ab", sum_expr(Word("a"), Word("ab")))
    assert regex_derivative(rx, "a") == frozenset({
        Match("b", Word("")), Match("b", Word("b"))})


def test_regular_forms_have_no_constraints(env3):
    # a constraint has a child, like a star, but is no regular form
    e = parse_expression("a | sim(x, x)", env3)
    with pytest.raises(TypeError):
        regex_derivative(e, "a")
    with pytest.raises(TypeError):
        enumerate_language(e, 2)


def test_regex_null_examples():
    assert const_null(Star(Word("ab"))) is True
    assert const_null(Empty()) is False
    assert const_null(Match("ab", Word(""))) is False


def test_membership_fixed_section3(env3, interp_len, r1, r2, e1):
    assert membership_fixed(interp_len, r1, e1, "ababbbaa") is True
    assert membership_fixed(interp_len, r2, e1, "ababbbaa") is False
    e2 = parse_expression("(a b)* x -| (y x | lt(y, x))", env3)
    assert membership_fixed(interp_len, r2, e2, "ababbbaa") is True
    assert membership_fixed(interp_len, r1, e2, "ababbbaa") is False


def test_membership_fixed_empty(env3, interp_len, r1):
    assert membership_fixed(interp_len, r1, parse_expression("empty", env3), "") is False


def test_membership_agrees_with_enumeration(env3, interp_len):
    from constrex import brute_membership_fixed_r
    rng = random.Random(31)
    words = [""]
    for n in range(1, 4):
        words += ["".join(t) for t in __import__("itertools").product("abc", repeat=n)]
    for _ in range(150):
        e = rand_expr(rng, env3, 3)
        r = rand_realization(rng, env3)
        rx = regularize(interp_len, r, e)
        lang = enumerate_language(rx, 3)
        for w in words:
            assert membership_fixed(interp_len, r, e, w) == (w in lang)


def test_anbncn_membership(env3, interp_leneq, anbncn):
    for n in range(4):
        r = Realization(env3, {"x": "a" * n, "y": "b" * n, "z": "c" * n})
        assert membership_fixed(interp_leneq, r, anbncn, "a" * n + "b" * n + "c" * n)
    r = Realization(env3, {"x": "a", "y": "b", "z": "c"})
    assert not membership_fixed(interp_leneq, r, anbncn, "ab")


def test_term_of_word_evaluates_homomorphically(env3, interp_len, r1):
    # Term(u v) evaluates to the catenation of the evaluations of u and v
    from constrex import term_of_word
    rng = random.Random(37)
    letters = list(env3.symbols) + list(env3.variables)
    for _ in range(200):
        u = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        v = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        combined = eval_term(interp_len, r1, term_of_word(env3, u + v))
        split = eval_term(interp_len, r1, term_of_word(env3, u)) + \
            eval_term(interp_len, r1, term_of_word(env3, v))
        assert combined == split == r1.realize(u + v)
