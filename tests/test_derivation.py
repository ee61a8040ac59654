"""Constrained derivatives of words and expressions."""

import functools
import random
import sys
import time

import pytest

from constrex import (
    PreconditionError,
    associated_realization, brute_membership_fixed_r, check_subst_set,
    derive_expr, derive_expr_word, derive_paths, derive_word,
    membership_general, parse_environment, parse_expression, parse_formula, simplify,
    subst_set_str,
)
from constrex import derivation, logic
from constrex.derivation import (
    _derive, _guard, _odot_left, canonical, const_null, never_null, simplify_expr,
)
from constrex.syntax import (
    Atom, Cat, Conn, Constraint, Empty, Environment, Match, Star, Sum, Word,
    apply_subst_set, expr_str, subst_word,
)

from conftest import (
    FUZZ_SCALE, rand_expr, rand_formula, rand_realization, recursion_headroom,
)


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


def test_derive_paths_is_lazy(env3):
    # the first of the many paths of 24 letters comes without the others
    e = parse_expression("(x y + a)* c | sim(f(x), f(y))", env3)
    start = time.perf_counter()
    derived, chain = next(derive_paths(env3, e, "ab" * 12))
    assert time.perf_counter() - start < 1.0
    assert len(chain) == 24
    assert expr_str(derived).startswith("(eps -| eps -| ")


def test_derive_paths_does_not_recurse_per_letter(env3):
    # the walk keeps its place in a list, not in one frame per letter
    e = parse_expression("(a + b)*", env3)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        paths = list(derive_paths(env3, e, "ab" * 150))
    finally:
        sys.setrecursionlimit(limit)
    assert [(expr_str(d), len(chain)) for d, chain in paths] == [("eps (a + b)*", 300)]


def test_derive_paths_cuts_where_keep_fails(env3):
    e = parse_expression("x b* y | sim(f(x), f(y))", env3)
    every = list(derive_paths(env3, e, "ab"))
    (first, _), (second, _) = derive_expr(env3, e, "a")
    asked = []

    def keep(state, i):
        asked.append((state, i))
        return state != first

    # the three paths through the first state after a are gone, and that
    # state was neither yielded nor derived by b; each state is asked with
    # the number of letters read to reach it
    assert list(derive_paths(env3, e, "ab", keep)) == every[3:]
    assert [state for state, _i in asked] == [e, first, second, every[3][0]]
    assert [i for _state, i in asked] == [0, 1, 1, 2]
    assert list(derive_paths(env3, e, "ab", lambda state, i: state != e)) == []
    assert list(derive_paths(env3, e, "", lambda state, i: True)) == [(e, [])]
    assert list(derive_paths(env3, e, "", lambda state, i: False)) == []
    asked.clear()
    assert list(derive_paths(env3, e, "", keep)) == [(e, [])]
    assert asked == [(e, 0)]


def _search_order(env, e, a):
    """The states the search pulls after one letter, in order, with their sets."""
    return [(state, chain[0]) for state, chain in derive_paths(env, e, a)]


def eager_order(env, pairs):
    """The reference canonical order: every pair printed whole, sorted by
    its text, then its set's; of two that print alike the later wins."""
    keyed = {}
    for e, X in pairs:
        keyed[expr_str(e), subst_set_str(env, X)] = e, X
    return [keyed[k] for k in sorted(keyed)]


def test_search_order_is_canonical_under_a_constraint(env3):
    # the search substitutes a constraint's formula lazily, yet pulls the
    # states of the eager order, in that order; so does derive_expr, and
    # canonical orders the child's pairs as the eager order does
    rng = random.Random(97)
    for _ in range(300 * FUZZ_SCALE):
        e = Constraint(rand_expr(rng, env3, 3), rand_formula(rng, env3, 1))
        for a in env3.symbols:
            expected = eager_order(env3, _derive(env3, e, a))
            assert _search_order(env3, e, a) == expected, (expr_str(e), a)
            assert list(derive_expr(env3, e, a)) == expected, (expr_str(e), a)
            pairs = _derive(env3, e.child, a)
            assert list(canonical(env3, pairs)) == eager_order(env3, pairs)


@pytest.mark.parametrize("text, states", [
    # the text after the child decides: a key on the child alone puts x first
    ("x + x y | sim(x, y)",
     [("x y | sim(ax, y)", "{(x,ax)}"), ("x | sim(ax, y)", "{(x,ax)}"),
      ("y | sim(eps, ay)", "{(x,eps),(y,ay)}")]),
    # two children print alike: the substituted formula breaks the tie
    ("x a + a | sim(x, b)",
     [("eps | sim(eps, b)", "{(x,eps)}"), ("eps | sim(x, b)", "{}"),
      ("x a | sim(ax, b)", "{(x,ax)}")]),
    # a duplicate collapses to one state
    ("x + x | sim(x, a)", [("x | sim(ax, a)", "{(x,ax)}")]),
    # the formula breaks the tie against the order of the sets: d < eps
    ("d a + a | sim(d, b)",
     [("d a | sim(ad, b)", "{(d,ad)}"), ("eps | sim(d, b)", "{}"),
      ("eps | sim(eps, b)", "{(d,eps)}")]),
], ids=["child-then-bar", "formula-tie", "duplicate", "formula-before-set"])
def test_search_order_pinned_cases(text, states):
    env = parse_environment("alphabet: a b c\nvariables: d x y\npredicates: sim/2")
    e = parse_expression(text, env)
    got = _search_order(env, e, "a")
    assert [(expr_str(s), subst_set_str(env, X)) for s, X in got] == states
    assert got == list(derive_expr(env, e, "a"))


def test_equal_pairs_print_once(env3, monkeypatch):
    # a thousand summands derive a thousand equal pairs: they are one pair,
    # so nothing is left to order and nothing is printed
    printed = []
    monkeypatch.setattr(derivation, "expr_str",
                        lambda e: printed.append(e) or expr_str(e))
    e = parse_expression("(" + " + (".join("a" * 1000) + ")" * 1000 + "* b", env3)
    pairs = derive_expr(env3, e, "a")
    assert len(pairs) == 1 and pairs[0][1] == frozenset()
    assert len(printed) <= 1


@pytest.mark.parametrize("phi", [None, "sim(x, a)"], ids=["pairs", "states"])
def test_canonical_keeps_the_later_of_two_that_print_alike(env3, phi):
    # (a b) c and a (b c) both print as a b c: of the three pairs the text
    # rule keeps the last, that object itself, though the first equals it
    a, b, c = Word("a"), Word("b"), Word("c")
    first, nested, last = Cat(Cat(a, b), c), Cat(a, Cat(b, c)), Cat(Cat(a, b), c)
    assert first == last and first is not last and nested != last
    assert expr_str(first) == expr_str(nested)
    none = frozenset()
    pairs = [(first, none), (nested, none), (last, none)]
    if phi is None:
        (kept, _X), = canonical(env3, pairs)
    else:
        (state, _X), = canonical(env3, pairs, parse_formula(phi, env3))
        kept = state.child
    assert kept is last


def test_search_substitutes_a_formula_once_per_pulled_state(env3, monkeypatch):
    # the search pulls one state per letter on this word; a formula is
    # substituted only into the states it pulls, not into their siblings
    e = parse_expression("x y z | sim(x, y) && !sim(y, z)", env3)
    substituted, pulled = [], []
    apply_subst_set, derive_paths_ = derivation.apply_subst_set, logic.derive_paths

    def counting_subst(env, entity, X):
        if isinstance(entity, (Atom, Conn)):
            substituted.append(entity)
        return apply_subst_set(env, entity, X)

    def counting_paths(env, e, w, keep):
        def counting_keep(state, i):
            if i:
                pulled.append(state)
            return keep(state, i)
        return derive_paths_(env, e, w, counting_keep)

    monkeypatch.setattr(derivation, "apply_subst_set", counting_subst)
    monkeypatch.setattr(logic, "derive_paths", counting_paths)
    assert membership_general(env3, e, "abcabcabcabc") is not None
    assert len(pulled) == 12
    assert len(substituted) <= len(pulled)


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


def test_never_null_shapes(env3):
    for text in ("a", "x a y", "empty", "a + b x", "a -| b*", "x -| a b",
                 "(a + b)* c", "b | sim(x, y)", "eps -| a b"):
        assert never_null(env3, parse_expression(text, env3)), text
    for text in ("eps", "x", "x y", "a*", "a + x", "x -| a*", "eps -| x",
                 "x | sim(x, x)"):
        assert not never_null(env3, parse_expression(text, env3)), text


def test_never_null_is_sound(env3, interp_len):
    # never nullable: no realization puts the empty word in the language
    rng = random.Random(89)
    checked = 0
    for _ in range(300 * FUZZ_SCALE):
        e = rand_expr(rng, env3, 3)
        if never_null(env3, e):
            checked += 1
            r = rand_realization(rng, env3)
            assert not brute_membership_fixed_r(interp_len, r, e, ""), expr_str(e)
    assert checked >= 50 * FUZZ_SCALE


@pytest.mark.parametrize("env_name, letter, null, never", [
    ("env3", "a", False, True), ("env3", "x", False, False),
    ("env3", "eps", True, False), ("envq", "a", False, True),
    ("envq", "eps", True, False),
])
def test_nullability_tests_read_left_nested_catenations(request, env_name, letter,
                                                        null, never):
    # ((…(l l) l) …) l nested 1,000 deep: no frame per level
    env = request.getfixturevalue(env_name)
    e = parse_expression("(" * 999 + letter + (" %s)" % letter) * 999, env)
    with recursion_headroom():
        assert const_null(e) is null
        assert never_null(env, e) is never


def test_a_never_nullable_left_factor_drops_the_right_derivative(env3):
    # `eps -| a + b` denotes nothing, so the right factor is not derived
    assert derive_expr(env3, parse_expression("(a + b) c", env3), "c") == ()
    # a + x is empty when x is, so the guard stays
    got = derive_expr(env3, parse_expression("(a + x) c", env3), "c")
    assert pairs_view(env3, got) == golden(
        env3, ("(eps -| a + x) eps", set()), ("x c", {("x", "cx")}))


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


# ---------------------------------------------------------------------------
# the derivative as one frame per node, the definition the loops must keep


def _derive_word_reference(env, alpha, a):
    if alpha == "":
        return []
    head, rest = alpha[0], alpha[1:]
    if head == a:
        return [(rest, frozenset())]
    if not env.is_variable(head):
        return []
    x = head
    out = [(x + subst_word(rest, {x: a + x}), frozenset({(x, a + x)}))]
    for alpha2, X in _derive_word_reference(env, subst_word(rest, {x: ""}), a):
        out.append((alpha2, X | {(x, "")}))
    return out


def _derive_reference(env, e, a):
    if isinstance(e, Word):
        return [(Word(alpha), X) for alpha, X in _derive_word_reference(env, e.letters, a)]
    if isinstance(e, Empty):
        return []
    if isinstance(e, Sum):
        return _derive_reference(env, e.left, a) + _derive_reference(env, e.right, a)
    if isinstance(e, Star):
        return _odot_left(env, _derive_reference(env, e.child, a), e)
    if isinstance(e, Constraint):
        return [(Constraint(e2, apply_subst_set(env, e.formula, X)), X)
                for e2, X in _derive_reference(env, e.child, a)]
    if isinstance(e, Match):
        out = []
        for alpha1, X1 in _derive_word_reference(env, e.word, a):
            for e2, X2 in _derive_reference(env, apply_subst_set(env, e.child, X1), a):
                out.append((Match(apply_subst_set(env, alpha1, X2), e2), X1 | X2))
        return out
    if isinstance(e.left, Word):
        alpha, tail = e.left.letters, e.right
        out = [(Cat(Word(alpha2), apply_subst_set(env, tail, X)), X)
               for alpha2, X in _derive_word_reference(env, alpha, a)]
        if all(env.is_variable(c) for c in alpha):
            erased = frozenset((x, "") for x in alpha)
            out += [(e2, X | erased) for e2, X in
                    _derive_reference(env, apply_subst_set(env, tail, erased), a)]
        return out
    out = _odot_left(env, _derive_reference(env, e.left, a), e.right)
    if not never_null(env, e.left):
        out += _guard(env, _derive_reference(env, e.right, a), e.left)
    return out


def test_derive_matches_the_recursive_definition(env3, envp):
    # the same pairs in the same order, sets included, on each draw and on
    # a left-nested catenation of the draw with smaller ones
    rng, more = random.Random(1996), random.Random(2014)
    for _ in range(400 * FUZZ_SCALE):
        env = rng.choice([env3, envp])
        e = rand_expr(rng, env, 4)
        nested = functools.reduce(
            Cat, [rand_expr(more, env, 2) for _ in range(more.randint(1, 4))], e)
        for a in env.symbols:
            assert _derive(env, e, a) == _derive_reference(env, e, a), expr_str(e)
            assert _derive(env, nested, a) == _derive_reference(env, nested, a), \
                expr_str(nested)


def _sum_chain(summands, left):
    e = summands[0] if left else summands[-1]
    for s in (summands[1:] if left else reversed(summands[:-1])):
        e = Sum(e, s) if left else Sum(s, e)
    return e


@pytest.mark.parametrize("build", [
    lambda env: _sum_chain([parse_expression(t, env) for t in ["x", "a y", "b*", "z a"] * 75],
                           left=True),
    lambda env: _sum_chain([parse_expression(t, env) for t in ["x", "a y", "b*", "z a"] * 75],
                           left=False),
    lambda env: parse_expression("x -| " * 300 + "(a + x)*", env),
    lambda env: parse_expression(" ".join("xyz" * 100) + " a", env),
    lambda env: functools.reduce(
        Cat, [parse_expression(t, env) for t in ["x", "y*", "a y", "z a"] * 75]),
], ids=["sum-left", "sum-right", "match-chain", "variable-head", "cat-left"])
def test_derive_loops_over_chains(env3, build):
    # 300 links, under a limit of 50 frames more than the caller's; the
    # comparison recurses, so it comes after
    e = build(env3)
    with recursion_headroom():
        got = _derive(env3, e, "a")
    assert got == _derive_reference(env3, e, "a")


def test_derive_word_loops_over_a_run_of_variables():
    env = Environment(("a",), tuple(chr(0x100 + i) for i in range(300)))
    alpha = "".join(env.variables) + "a"
    with recursion_headroom():
        got = derive_word(env, alpha, "a")
    assert got == _derive_word_reference(env, alpha, "a")
    assert len(got) == 301
