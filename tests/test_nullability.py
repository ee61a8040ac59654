"""Empty-word membership and indicator sets."""

import random

from constrex import (
    Realization,
    const_null, erase_vars, null_fixed, null_fixed_via_indicator, parse_environment,
    parse_expression, parse_formula, regularize,
)
from constrex import nullability
from constrex.nullability import (
    check_erasure, indicator_pair_str, indicator_pairs, indicator_set,
)
from constrex.logic import null_general
from constrex.oracle import brute_membership_fixed_r
from constrex.syntax import (
    AND, TOP, Cat, Conn, Constraint, Empty, Match, Star, Sum, Word, formula_str,
    variables_of,
)

from conftest import (
    DEEP, FUZZ_SCALE, rand_expr, rand_realization, recursion_headroom,
)


def view(env, e):
    return [indicator_pair_str(env, p) for p in indicator_set(env, e)]


def test_null_fixed_base_cases(env3, interp_len):
    r_empty = Realization(env3)
    assert null_fixed(interp_len, r_empty, parse_expression("(a b)*", env3)) is True
    assert null_fixed(interp_len, r_empty, parse_expression("empty", env3)) is False
    assert null_fixed(interp_len, r_empty, parse_expression("x", env3)) is True
    r = Realization(env3, {"x": "a"})
    assert null_fixed(interp_len, r, parse_expression("x", env3)) is False


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


def test_indicator_pairs_walk_long_catenations(env3):
    factors = " ".join(["x", "b*"] * (DEEP // 2))
    erasable = parse_expression(factors + " (y | lt(y, a))", env3)
    blocked = parse_expression(factors + " a", env3)
    with recursion_headroom():
        assert indicator_set(env3, erasable) == (
            (frozenset("xy"), parse_formula("lt(eps, a)", env3)),)
        assert indicator_set(env3, blocked) == ()


def test_null_fixed_folds_long_catenations(env3, interp_len):
    # both routes of the empty-word test answer without recursing once per node
    chain = parse_expression(" ".join(["x"] * 3000), env3)
    constrained = parse_expression(" ".join(["x"] * 3000) + " (y | lt(y, a))", env3)
    r_empty, r_x = Realization(env3), Realization(env3, {"x": "a"})
    with recursion_headroom():
        assert null_fixed(interp_len, r_empty, chain) is True
        assert null_fixed_via_indicator(interp_len, r_empty, chain) is True
        assert null_fixed(interp_len, r_empty, constrained) is True
        assert null_fixed(interp_len, r_x, constrained) is False


def test_null_via_indicator_examples(env3, interp_len, interp_leneq, e1):
    r = Realization(env3)
    assert null_fixed_via_indicator(interp_len, r, parse_expression("(a b c)*", env3))
    assert not null_fixed_via_indicator(interp_len, r, parse_expression("a", env3))
    # with everything empty, the constraint sim(f(eps), f(eps)) holds under leneq
    assert null_fixed_via_indicator(interp_leneq, r, e1) is True


def test_erasure_soundness_random(env3):
    rng = random.Random(53)
    for _ in range(300 * FUZZ_SCALE):
        e = rand_expr(rng, env3, 4)
        for pair in indicator_set(env3, e):
            assert check_erasure(pair)


def test_nullability_triangle_random(env3, interp_len, interp_leneq):
    rng = random.Random(59)
    for _ in range(300 * FUZZ_SCALE):
        e = rand_expr(rng, env3, 4)
        r = rand_realization(rng, env3)
        for interp in (interp_len, interp_leneq):
            direct = null_fixed(interp, r, e)
            via_regex = const_null(regularize(interp, r, e))
            via_indicator = null_fixed_via_indicator(interp, r, e)
            assert direct == via_regex == via_indicator
            # null_fixed and the regular form share the constructor flags
            assert direct == brute_membership_fixed_r(interp, r, e, "")


def test_null_I_characterization_bounded(env3, interp_len):
    # empty-word membership of the I-language matches the indicator route
    # under the same bounded realization enumeration
    from constrex import Bound, brute_membership_fixed_I, eval_formula
    from constrex.oracle import realizations
    from constrex.syntax import expr_variables, tree_variables
    rng = random.Random(97)
    bound = Bound(max_realization_len=1)
    for _ in range(150):
        e = rand_expr(rng, env3, 3)
        lhs = brute_membership_fixed_I(interp_len, e, "", bound) is not None
        rhs = False
        for _xs, phi in indicator_set(env3, e):
            for r in realizations(env3, tree_variables(phi), 1):
                if eval_formula(interp_len, r, phi):
                    rhs = True
                    break
            if rhs:
                break
        assert lhs == rhs


def eager_indicator_set(env, e):
    """The indicator set built eagerly: every product and constraint erases
    its pairs at once, then all pairs are deduplicated (the later pair wins)
    and sorted by erased variables, then by printed formula."""
    def conj(left, right):
        if left == TOP:
            return right
        if right == TOP:
            return left
        return Conn(AND, (left, right))

    def otimes(s1, s2):
        return [(x1 | x2, erase_vars(env, conj(phi1, phi2), x1 | x2))
                for x1, phi1 in s1 for x2, phi2 in s2]

    def pairs(e):
        if isinstance(e, Word):
            if all(env.is_variable(c) for c in e.letters):
                return [(variables_of(env, e.letters), TOP)]
            return []
        if isinstance(e, Empty):
            return []
        if isinstance(e, Match):
            if all(env.is_variable(c) for c in e.word):
                return otimes([(variables_of(env, e.word), TOP)], pairs(e.child))
            return []
        if isinstance(e, Sum):
            return pairs(e.left) + pairs(e.right)
        if isinstance(e, Cat):
            return otimes(pairs(e.left), pairs(e.right))
        if isinstance(e, Star):
            return [(frozenset(), TOP)]
        if isinstance(e, Constraint):
            return [(xs, erase_vars(env, conj(e.formula, psi), xs))
                    for xs, psi in pairs(e.child)]
        raise TypeError(e)

    keyed = {(tuple(sorted(xs, key=env.letter_key)), formula_str(phi)): (xs, phi)
             for xs, phi in pairs(e)}
    return [keyed[k] for k in sorted(keyed)]


# many groups, on variables declared in an order that differs from name order
ZXY_GROUPS = [
    "(z + eps)(x + eps)(y + eps) | q(zxy, yxz)",
    "(z + eps)(x + eps)(y + eps) | q(zxy, yxz) && !q(y, a)",
    "(z + x)(x + y) | q(zx, y)",
    "(x + eps) y + z (y + eps) | q(xz, a)",
    "(z + x + y)(z + x + y)",
    "(zy -| (x + eps)) + (x -| (y + a)) + yz",
    "(z -| (x + eps) | q(x, z)) (y + eps | q(y, a)) + (z + y | q(zy, yz))",
    "(zx -| (y + eps)*) (y + z) | q(x, y) || q(y, x)",
    "(a + z)(b + x) + (eps + y)(x + eps) | q(xy, yx)",
    "z y x + z x + y + x z | q(z, a)",
]


def test_indicator_pairs_match_eager_construction(env3, envp):
    rng = random.Random(61)
    for env in (env3, envp):
        for _ in range(300 * FUZZ_SCALE):
            e = rand_expr(rng, env, 4)
            assert list(indicator_pairs(env, e)) == eager_indicator_set(env, e)
    # random draws seldom give more than two groups
    env = parse_environment("alphabet: a b\nvariables: z x y\npredicates: q/2")
    for text in ZXY_GROUPS:
        e = parse_expression(text, env)
        assert list(indicator_pairs(env, e)) == eager_indicator_set(env, e), text
    # a key lists its variables in declaration order, and keys compare by
    # variable name: (x) before (z), and (z, x) before (z, y)
    assert [tuple(sorted(xs, key="zxy".index)) for xs, _ in indicator_set(
        env, parse_expression("(z + eps)(x + eps)(y + eps)", env))] == [
        (), ("x",), ("x", "y"), ("y",), ("z",), ("z", "x"), ("z", "x", "y"), ("z", "y")]


def test_null_general_prints_no_lone_pair(env3, monkeypatch):
    printed = []
    monkeypatch.setattr(nullability, "formula_str",
                        lambda phi: printed.append(phi) or formula_str(phi))
    # the least group erases nothing and holds one pair, its own order
    assert null_general(env3, parse_expression("a* | sim(x, a)", env3)) is not None
    assert printed == []
    # a group of two is ordered by the printed formulas
    indicator_set(env3, parse_expression("(a* | sim(x, a)) + (b* | lt(x, a))", env3))
    assert len(printed) == 2


def test_equal_indicator_pairs_print_once(env3, monkeypatch):
    # two hundred summands give two hundred equal pairs: one pair, no order
    # to find, nothing printed
    printed = []
    monkeypatch.setattr(nullability, "formula_str",
                        lambda phi: printed.append(phi) or formula_str(phi))
    pairs = indicator_set(env3, parse_expression(" + ".join("x" * 200), env3))
    assert pairs == ((frozenset("x"), TOP),)
    assert len(printed) <= 1


def test_null_general_erases_only_the_reached_group(monkeypatch):
    env = parse_environment("alphabet: a b\nvariables: p q r s t u v w x y\n"
                            "predicates: sim/2\nfunctions: f/1")
    e = parse_expression(
        "(p + eps)(q + eps)(r + eps)(s + eps)(t + eps)(u + eps)(v + eps)"
        "(w + eps)(x + eps)(y + eps) | sim(pqrstuvwxy, yxwvutsrqp)"
        " && !sim(f(qpsrutwvyx), a)", env)
    calls = []

    def counting(env, phi, erased):
        calls.append(frozenset(erased))
        return erase_vars(env, phi, erased)

    conj, conjunctions = nullability._conj, []

    def counting_conj(left, right):
        conjunctions.append(None)
        return conj(left, right)

    monkeypatch.setattr(nullability, "erase_vars", counting)
    monkeypatch.setattr(nullability, "_conj", counting_conj)
    assert null_general(env, e) is not None
    # the first group erases nothing, holds one pair, and is satisfiable
    assert calls == [frozenset()]
    # and only its pair is built: one conjunction for each of the nine
    # catenations and one for the constraint, where all 2^10 pairs took 3,068
    assert len(conjunctions) == 10
    # the full set still erases every one of the 2^10 pairs, in the same order
    pairs = indicator_set(env, e)
    assert len(pairs) == 1024
    assert len(calls) == 1 + 1024
    assert list(pairs) == eager_indicator_set(env, e)
