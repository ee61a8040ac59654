"""The brute-force reference implementations."""

import random

from constrex import (
    Bound,
    brute_membership_fixed_I, brute_membership_fixed_r, brute_satisfiable_free,
    enumerate_language, eval_formula, membership_fixed, membership_general,
    parse_expression, parse_formula,
)
from constrex.syntax import Cat, Empty, Star, Word, sum_expr

from conftest import rand_expr, rand_realization


def test_enumerate_language_examples():
    rx = Cat(Word("aba"), Cat(Star(Word("b")), Word("aa")))
    assert "ababbbaa" in enumerate_language(rx, 8)
    assert enumerate_language(Empty(), 5) == frozenset()
    rx2 = Star(sum_expr(Word("a"), Word("b")))
    assert enumerate_language(rx2, 2) == frozenset(
        {"", "a", "b", "aa", "ab", "ba", "bb"})


def test_brute_membership_section3(env3, interp_len, r1, r2, e1):
    assert brute_membership_fixed_r(interp_len, r1, e1, "ababbbaa") is True
    assert brute_membership_fixed_r(interp_len, r2, e1, "ababbbaa") is False


def test_brute_membership_star_of_anything(env3, interp_len, r1):
    e = parse_expression("(x b y)*", env3)
    assert brute_membership_fixed_r(interp_len, r1, e, "") is True


def test_brute_membership_differential(env3, interp_len):
    rng = random.Random(79)
    words = [""]
    for n in range(1, 4):
        words += ["".join(t) for t in __import__("itertools").product("abc", repeat=n)]
    for _ in range(150):
        e = rand_expr(rng, env3, 3)
        r = rand_realization(rng, env3)
        for w in words:
            assert brute_membership_fixed_r(interp_len, r, e, w) == \
                membership_fixed(interp_len, r, e, w)


def test_brute_membership_fixed_I_anbncn(env3, interp_leneq, anbncn):
    found = brute_membership_fixed_I(interp_leneq, anbncn, "abc", Bound())
    assert found is not None
    # one-sided soundness: the exhibited realization really accepts
    assert brute_membership_fixed_r(interp_leneq, found, anbncn, "abc")
    assert brute_membership_fixed_I(interp_leneq, anbncn, "ab", Bound()) is None


def test_brute_membership_fixed_I_no_variables(env3, interp_len):
    e = parse_expression("a", env3)
    assert brute_membership_fixed_I(interp_len, e, "a", Bound()) is not None


def test_brute_membership_monotone_in_bound(env3, interp_leneq, anbncn):
    small = Bound(max_realization_len=1)
    large = Bound(max_realization_len=2)
    for w in ["abc", "ab", ""]:
        if brute_membership_fixed_I(interp_leneq, anbncn, w, small) is not None:
            assert brute_membership_fixed_I(interp_leneq, anbncn, w, large) is not None


def test_brute_satisfiable_free_examples(env5):
    phi1 = parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env5)
    hit = brute_satisfiable_free(env5, phi1)
    assert hit is not None
    interp, r = hit
    assert eval_formula(interp, r, phi1) is True
    from constrex.syntax import BOT
    assert brute_satisfiable_free(env5, BOT) is None
    phi2 = parse_formula("lt((ab)x, abx) && !lt(abx, a(bx))", env5)
    assert brute_satisfiable_free(env5, phi2) is None


def test_general_yes_reproducible_in_oracle(env3, e1):
    witness = membership_general(env3, e1, "ab")
    assert brute_membership_fixed_r(
        witness.interpretation, witness.realization, e1, "ab") is True
