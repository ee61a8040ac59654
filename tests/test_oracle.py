"""The brute-force reference implementations."""

import itertools
import random

import pytest

from constrex import (
    Bound,
    brute_membership_fixed_I, brute_membership_fixed_r, brute_satisfiable_free,
    enumerate_language, eval_formula, membership_fixed, membership_general,
    parse_expression, parse_formula,
)
from constrex.syntax import Cat, Empty, Match, Star, Sum, Word

from conftest import FUZZ_SCALE, rand_expr, rand_realization, rand_word


def test_enumerate_language_examples():
    rx = Cat(Word("aba"), Cat(Star(Word("b")), Word("aa")))
    assert "ababbbaa" in enumerate_language(rx, 8)
    assert enumerate_language(Empty(), 5) == frozenset()
    rx2 = Star(Sum(Word("a"), Word("b")))
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
    for _ in range(150 * FUZZ_SCALE):
        e = rand_expr(rng, env3, 3)
        r = rand_realization(rng, env3)
        for w in words:
            assert brute_membership_fixed_r(interp_len, r, e, w) == \
                membership_fixed(interp_len, r, e, w)


def _match_draw(rng, env, shape):
    """A random expression around a match of the given shape: nested in
    another match, under a star, of four symbols or more, so longer than
    the words it is tried on, or on the empty word. Half the bodies hold the match's own word, so many
    matches hold."""
    letters = list(env.symbols) + list(env.variables)

    def body(v):
        e = rand_expr(rng, env, 2)
        return Sum(Word(v), e) if rng.random() < 0.5 else e

    def match(v):
        return Match(v, body(v))

    v = rand_word(rng, letters)
    if shape == "nested":
        inner = match(rand_word(rng, letters))
        core = Match(v, rng.choice([inner, Cat(inner, body(v)), Sum(body(v), inner)]))
    elif shape == "star":
        core = Star(match(v))
    elif shape == "long":
        core = match(v + "".join(rng.choice(env.symbols) for _ in range(4)))
    else:
        core = match("")
    rest = rand_expr(rng, env, 2)
    return rng.choice([core, Cat(core, rest), Cat(rest, core), Sum(core, rest)])


@pytest.mark.parametrize("shape, seed", [
    ("nested", 89), ("star", 97), ("long", 101), ("eps", 103)])
def test_brute_membership_differential_on_matches(env3, interp_len, shape, seed):
    # the fixed engine decides each match while it regularizes; a generator
    # of its own leaves the draws of test_brute_membership_differential as
    # they are
    rng = random.Random(seed)
    words = [""]
    for n in range(1, 4):
        words += ["".join(t) for t in itertools.product("abc", repeat=n)]
    accepted = 0
    for _ in range(100 * FUZZ_SCALE):
        e = _match_draw(rng, env3, shape)
        r = rand_realization(rng, env3)
        for w in words:
            answer = membership_fixed(interp_len, r, e, w)
            assert answer == brute_membership_fixed_r(interp_len, r, e, w)
            accepted += answer
    # both answers are drawn
    assert 0 < accepted < 100 * FUZZ_SCALE * len(words)


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
