"""Constrained derivatives of words and expressions."""

import random

import pytest

from constrex import (
    PreconditionError, UnsupportedOperatorError,
    associated_realization, brute_membership_fixed_r, check_subst_set,
    derive_expr, derive_expr_word, derive_paths, derive_word, parse_expression,
    simplify, subst_set_str,
)
from constrex.derivation import const_null, simplify_expr
from constrex.syntax import Bool, Cat, Empty, Match, Word, expr_str

from conftest import rand_expr, rand_realization


def pairs_view(env, pairs):
    """Canonical printable view for golden comparisons."""
    return sorted((expr_str(e), subst_set_str(env, X)) for e, X in pairs)


def golden(env, *entries):
    return sorted((text, subst_set_str(env, X)) for text, X in entries)


def test_derive_word_examples(env3):
    assert derive_word(env3, "x", "a") == [("x", frozenset({("x", "ax")}))]
    assert derive_word(env3, "", "a") == []
    assert sorted(derive_word(env3, "xy", "a")) == sorted([
        ("xy", frozenset({("x", "ax")})),
        ("y", frozenset({("x", ""), ("y", "ay")})),
    ])


def test_derive_word_consumes_symbol(env3):
    assert derive_word(env3, "abc", "a") == [("bc", frozenset())]
    assert derive_word(env3, "bc", "a") == []


def test_derive_word_repeated_variable(env3):
    # deriving xx w.r.t. a assumes x starts with a; the rest becomes x(ax)
    assert derive_word(env3, "xx", "a") == [("xax", frozenset({("x", "ax")}))]


def test_derive_expr_e1(env3, e1):
    got = pairs_view(env3, derive_expr(env3, e1, "a"))
    assert got == golden(
        env3,
        ("x b* y | sim(f(ax), f(y))", {("x", "ax")}),
        ("y | sim(f(eps), f(ay))", {("x", ""), ("y", "ay")}),
    )


def test_derive_expr_word_e1_ab(env3, e1):
    got = pairs_view(env3, derive_expr_word(env3, e1, "ab"))
    assert got == golden(
        env3,
        ("x b* y | sim(f(abx), f(y))", {("x", "bx")}),
        ("eps b* y | sim(f(a), f(y))", {("x", "")}),
        ("y | sim(f(a), f(by))", {("x", ""), ("y", "by")}),
        ("y | sim(f(eps), f(aby))", {("y", "by")}),
    )


def test_derive_expr_anbncn_after_simplify(env3, anbncn):
    got_a = pairs_view(env3, simplify(env3, derive_expr(env3, anbncn, "a")))
    assert got_a == golden(
        env3,
        ("(x -| a*) (y -| b*) (z -| c*) | sim(ax, y) && sim(y, z)", {("x", "ax")}),
    )
    got_ab = pairs_view(env3, simplify(env3, derive_expr_word(env3, anbncn, "ab")))
    assert got_ab == golden(
        env3,
        ("(eps -| x -| a*) (y -| b*) (z -| c*) | sim(ax, by) && sim(by, z)",
         {("y", "by")}),
    )
    got_abc = pairs_view(env3, simplify(env3, derive_expr_word(env3, anbncn, "abc")))
    assert got_abc == golden(
        env3,
        ("(eps -| x -| a*) (eps -| y -| b*) (z -| c*) | sim(ax, by) && sim(by, cz)",
         {("z", "cz")}),
    )


def test_derive_expr_of_empty(env3):
    assert derive_expr(env3, Empty(), "a") == ()


def test_single_letter_word_derivative_matches(env3, e1):
    assert derive_expr_word(env3, e1, "a") == derive_expr(env3, e1, "a")


def test_derive_expr_word_rejects_empty_word(env3, e1):
    with pytest.raises(PreconditionError):
        derive_expr_word(env3, e1, "")


def test_derive_rejects_non_symbol_letters(env3):
    # every letter of the word is checked, also after the first step and
    # after a step that leaves no derivative
    for text, w in (("x a", "ax"), ("a", "bx")):
        e = parse_expression(text, env3)
        for derive in (derive_expr_word, derive_paths):
            with pytest.raises(PreconditionError):
                derive(env3, e, w)
    for a in ("x", "", "ab"):
        with pytest.raises(PreconditionError):
            derive_expr(env3, Word("a"), a)


def test_derive_rejects_general_operators(env3):
    e = Bool("not", (Word("a"),))
    # deriving b . not(a) by a never reaches the node, yet it is rejected
    for expr in (e, Cat(Word("b"), e)):
        for derive in (derive_expr, derive_expr_word, derive_paths):
            with pytest.raises(UnsupportedOperatorError):
                derive(env3, expr, "a")


def test_simplify_examples(env3):
    dead = Match("y", Empty())
    assert simplify(env3, [(dead, frozenset({("y", "ay")}))]) == ()
    assert simplify(env3, []) == ()
    eb_ec = parse_expression("(y -| b*) (z -| c*)", env3)
    from constrex.syntax import Cat
    assert simplify(env3, [(Cat(Empty(), eb_ec), frozenset())]) == ()


def test_simplify_word_match(env3):
    e = parse_expression("(a b) -| a b", env3)
    assert expr_str(simplify_expr(env3, e)) == "ab"
    e2 = parse_expression("(a b) -| a c", env3)
    assert simplify_expr(env3, e2) == Empty()
    # a match holding variables is not rewritten
    e3 = parse_expression("x -| a b", env3)
    assert simplify_expr(env3, e3) == e3


def test_simplify_preserves_bounded_language(env3, interp_len):
    rng = random.Random(41)
    words = [""]
    for n in range(1, 4):
        words += ["".join(t) for t in __import__("itertools").product("ab", repeat=n)]
    for _ in range(120):
        e = rand_expr(rng, env3, 3)
        r = rand_realization(rng, env3)
        s = simplify_expr(env3, e)
        for w in words:
            assert brute_membership_fixed_r(interp_len, r, e, w) == \
                brute_membership_fixed_r(interp_len, r, s, w)


def test_output_sets_are_functional_non_crossing(env3):
    rng = random.Random(43)
    for _ in range(300):
        e = rand_expr(rng, env3, 4)
        for a in env3.symbols:
            for _e2, X in derive_expr(env3, e, a):
                check_subst_set(X)


def test_quotient_correctness_fixed_realization(envp):
    """aw in L(E) iff some compatible derivative pair accepts w."""
    from constrex import Interpretation
    rng = random.Random(47)
    interp = Interpretation(envp, predicates={"p": "nonempty", "q": "leneq"},
                            functions={"f": "rev", "g": "cat"})
    words = [""]
    for n in range(1, 3):
        words += ["".join(t) for t in __import__("itertools").product("ab", repeat=n)]
    for _ in range(150):
        e = rand_expr(rng, envp, 3)
        r = rand_realization(rng, envp)
        for a in envp.symbols:
            pairs = derive_expr(envp, e, a)
            for w in words:
                lhs = brute_membership_fixed_r(interp, r, e, a + w)
                rhs = False
                for e2, X in pairs:
                    r2 = associated_realization(r, X)
                    if r2 is not None and brute_membership_fixed_r(interp, r2, e2, w):
                        rhs = True
                        break
                assert lhs == rhs, (expr_str(e), a, w)


def test_const_null_shapes(env3):
    assert const_null(parse_expression("a*", env3))
    assert const_null(parse_expression("eps", env3))
    assert const_null(parse_expression("a* b*", env3))
    assert const_null(parse_expression("a + b*", env3))
    assert not const_null(parse_expression("a", env3))
    assert not const_null(parse_expression("x", env3))
    assert not const_null(parse_expression("x -| a*", env3))


def test_match_case_sets_are_disjoint(env3):
    # variables fixed while deriving the match word never reappear among the
    # variables fixed by the nested derivation of the substituted child
    rng = random.Random(83)
    from constrex import apply_subst_set
    for _ in range(200):
        alpha = "".join(rng.choice("abcxyz") for _ in range(rng.randint(0, 3)))
        child = rand_expr(rng, env3, 3)
        for a in env3.symbols:
            for alpha1, X1 in derive_word(env3, alpha, a):
                substituted = apply_subst_set(env3, child, X1)
                for _e2, X2 in derive_expr(env3, substituted, a):
                    fixed1 = {x for x, _w in X1}
                    fixed2 = {x for x, _w in X2}
                    assert not (fixed1 & fixed2)


def test_realization_transfer(env3, interp_len):
    # a realization compatible with X gives the same language on E as the
    # X-associated realization gives on E_X, and formulas evaluate alike
    from constrex import Realization, apply_subst_set, eval_formula
    from conftest import rand_formula, rand_word
    rng = random.Random(89)
    words = [""]
    for n in range(1, 4):
        words += ["".join(t) for t in __import__("itertools").product("ab", repeat=n)]
    for _ in range(120):
        e = rand_expr(rng, env3, 3)
        phi = rand_formula(rng, env3, 2)
        picked = rng.sample(list(env3.variables), rng.randint(0, 3))
        pairs, assignment = [], {}
        for x in picked:
            if rng.random() < 0.4:
                pairs.append((x, ""))
                assignment[x] = ""
            else:
                head = rng.choice(list(env3.symbols))
                pairs.append((x, head + x))
                assignment[x] = head + rand_word(rng, list(env3.symbols), 2)
        for x in env3.variables:
            if x not in assignment:
                assignment[x] = rand_word(rng, list(env3.symbols), 2)
        X = frozenset(pairs)
        r = Realization(env3, assignment)
        r_assoc = associated_realization(r, X)
        assert r_assoc is not None
        e_sub = apply_subst_set(env3, e, X)
        phi_sub = apply_subst_set(env3, phi, X)
        assert eval_formula(interp_len, r, phi) == \
            eval_formula(interp_len, r_assoc, phi_sub)
        for w in words:
            assert brute_membership_fixed_r(interp_len, r, e, w) == \
                brute_membership_fixed_r(interp_len, r_assoc, e_sub, w)
