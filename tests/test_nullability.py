"""Empty-word membership and indicator sets."""

import random

import pytest

from constrex import (
    Realization, UnsupportedOperatorError,
    erase_vars, null_fixed, null_fixed_via_indicator, parse_expression,
    parse_formula, regex_null, regularize,
)
from constrex.nullability import check_erasure, indicator_pair_str, indicator_set
from constrex.logic import membership_general, null_general
from constrex.syntax import Bool, Star, Word, register_connective

from conftest import rand_expr, rand_realization


def view(env, e):
    return [indicator_pair_str(env, p) for p in indicator_set(env, e)]


def test_null_fixed_base_cases(env3, interp_len):
    r_empty = Realization(env3)
    assert null_fixed(interp_len, r_empty, parse_expression("(a b)*", env3)) is True
    assert null_fixed(interp_len, r_empty, parse_expression("empty", env3)) is False
    assert null_fixed(interp_len, r_empty, parse_expression("x", env3)) is True
    r = Realization(env3, {"x": "a"})
    assert null_fixed(interp_len, r, parse_expression("x", env3)) is False


def test_null_fixed_general_operator(env3, interp_len):
    register_connective("nand", 2, lambda p, q: not (p and q))
    e = Bool("nand", (Word("a"), Word("")))
    r = Realization(env3)
    # Null(a) = 0, Null(eps) = 1, nand(0, 1) = 1
    assert null_fixed(interp_len, r, e) is True


def test_erase_vars_examples(env3):
    phi = parse_formula("sim(f(x), f(y))", env3)
    assert erase_vars(env3, phi, {"x", "y"}) == parse_formula("sim(f(eps), f(eps))", env3)
    assert erase_vars(env3, phi, set()) == phi
    phi2 = parse_formula("sim(f(abx), f(y))", env3)
    assert erase_vars(env3, phi2, {"x", "y"}) == parse_formula("sim(f(ab), f(eps))", env3)


def test_indicator_set_golden(env3):
    assert view(env3, parse_expression("x b* y", env3)) == ["{x,y} :: true"]
    e1p = parse_expression("x b* y | sim(f(abx), f(y))", env3)
    assert view(env3, e1p) == ["{x,y} :: sim(f(ab), f(eps))"]
    assert view(env3, parse_expression("empty", env3)) == []
    assert view(env3, parse_expression("a", env3)) == []
    assert view(env3, parse_expression("a*", env3)) == ["{} :: true"]


def test_indicator_set_sum_union(env3):
    e = parse_expression("x + a b", env3)
    assert view(env3, e) == ["{x} :: true"]


def test_indicator_rejects_general_operators(env3):
    register_connective("nand", 2, lambda p, q: not (p and q))
    e = Bool("nand", (Word("a"), Word("")))
    # the indicator rule for a star never visits the node, yet it is rejected
    for expr in (e, Star(e)):
        with pytest.raises(UnsupportedOperatorError):
            indicator_set(env3, expr)
        with pytest.raises(UnsupportedOperatorError):
            null_general(env3, expr)
        with pytest.raises(UnsupportedOperatorError):
            membership_general(env3, expr, "a")


def test_null_via_indicator_examples(env3, interp_len, interp_leneq, e1):
    r = Realization(env3)
    assert null_fixed_via_indicator(interp_len, r, parse_expression("(a b c)*", env3))
    assert not null_fixed_via_indicator(interp_len, r, parse_expression("a", env3))
    # with everything empty, the constraint sim(f(eps), f(eps)) holds under leneq
    assert null_fixed_via_indicator(interp_leneq, r, e1) is True


def test_erasure_soundness_random(env3):
    rng = random.Random(53)
    for _ in range(300):
        e = rand_expr(rng, env3, 4)
        for pair in indicator_set(env3, e):
            assert check_erasure(pair)


def test_nullability_triangle_random(env3, interp_len, interp_leneq):
    rng = random.Random(59)
    for _ in range(300):
        e = rand_expr(rng, env3, 4)
        r = rand_realization(rng, env3)
        for interp in (interp_len, interp_leneq):
            direct = null_fixed(interp, r, e)
            via_regex = regex_null(regularize(interp, r, e))
            via_indicator = null_fixed_via_indicator(interp, r, e)
            assert direct == via_regex == via_indicator


def test_null_I_characterization_bounded(env3, interp_len):
    # empty-word membership of the I-language matches the indicator route
    # under the same bounded realization enumeration
    from constrex import Bound, brute_membership_fixed_I, eval_formula
    from constrex.oracle import realizations
    from constrex.syntax import expr_variables, formula_variables
    rng = random.Random(97)
    bound = Bound(max_realization_len=1)
    for _ in range(150):
        e = rand_expr(rng, env3, 3)
        lhs = brute_membership_fixed_I(interp_len, e, "", bound) is not None
        rhs = False
        for _xs, phi in indicator_set(env3, e):
            for r in realizations(env3, formula_variables(phi), 1):
                if eval_formula(interp_len, r, phi):
                    rhs = True
                    break
            if rhs:
                break
        assert lhs == rhs
