"""Evaluation, regularization and the classical derivative engine."""

import hashlib
import random
import re
import tracemalloc

import pytest

from constrex import (
    ConfigError, Interpretation, Realization,
    const_null, derive_expr, enumerate_language, eval_formula, eval_term, membership_fixed,
    parse_expression, parse_formula, parse_term, regex_derivative, regex_str,
    regularize, subst_set_str,
)
from constrex import semantics, syntax
from constrex.syntax import (
    AND, BOT, IMPLIES, NOT, OR, TOP, Atom, Cat, Conn, Constraint, Empty,
    Match, Star, Sum, Word, expr_str, formula_str, register_connective,
)

from conftest import (
    DEEP, FUZZ_SCALE, rand_expr, rand_realization, rand_term, rand_word,
    recursion_headroom,
)


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


@pytest.mark.parametrize("predicates, functions, message", [
    ({"P": semantics.TableFunction(())}, {}, "predicate 'P' is bound to"),
    ({"P": 3}, {}, "predicate 'P' is bound to 3"),
    ({"Q": None}, {}, "predicate 'Q' is bound to None"),
    ({}, {"f": semantics.FiniteRelation(frozenset())}, "function 'f' is bound to"),
    ({}, {"g": ("a",)}, "function 'g' is bound to"),
    ({"P": "argcat"}, {}, "unknown builtin predicate 'argcat'"),
    ({}, {"f": "nope"}, "unknown builtin function 'nope'"),
    ({"Q": "nonempty"}, {}, "builtin 'nonempty' has arity 1, 'Q' needs 2"),
    ({}, {"f": "cat"}, "builtin 'cat' has arity 2, 'f' needs 1"),
    ({"S": "eq"}, {}, "unknown predicate symbol 'S'"),
    ({}, {"k": "rev"}, "unknown function symbol 'k'"),
], ids=["predicate-table-function", "predicate-int", "predicate-none",
        "function-relation", "function-tuple", "predicate-argcat", "unknown-function",
        "predicate-arity", "function-arity", "unknown-predicate-symbol",
        "unknown-function-symbol"])
def test_interpretation_checks_its_specs(env2, predicates, functions, message):
    # each spec is checked when the interpretation is built, not when it is
    # first evaluated
    with pytest.raises(ConfigError, match=re.escape(message)):
        Interpretation(env2, predicates, functions)
    # argcat is a function spec, and the tables are each kind's own
    Interpretation(env2, {"P": semantics.FiniteRelation(frozenset())},
                   {"f": "argcat", "g": semantics.TableFunction(())})


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


def test_regularize_is_variable_free(env3, interp_len):
    rng = random.Random(5)

    def literals(rx):
        if isinstance(rx, Word):
            yield rx.letters
        elif isinstance(rx, Match):
            yield rx.word
            yield from literals(rx.child)
        elif isinstance(rx, (Sum, Cat)):
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


def _rand_printed_formula(rng, env, depth):
    """A random formula over every connective the printer knows, plus a
    3-ary operator it prints in prefix form."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if roll < 0.03:
            return rng.choice([TOP, BOT])
        name, arity = rng.choice(sorted(env.predicates.items()))
        return Atom(name, tuple(rand_term(rng, env, 2) for _ in range(arity)))
    tag = rng.choice([NOT, AND, OR, IMPLIES, AND, OR, IMPLIES, "ite"])
    arity = {NOT: 1, "ite": 3}.get(tag, 2)
    return Conn(tag, tuple(_rand_printed_formula(rng, env, depth - 1)
                           for _ in range(arity)))


def test_printers_match_recorded_digest(env3, interp_len):
    # 2,000 random regular forms in both notations and 2,000 random formulas;
    # the digest was recorded before the two expression printers were merged
    rng = random.Random(43)
    digest = hashlib.sha256()
    for _ in range(1000):
        rx = regularize(interp_len, rand_realization(rng, env3), rand_expr(rng, env3, 4))
        word = rand_word(rng, list(env3.symbols))
        for form in (rx, Sum(Match(word, rx), rx)):
            digest.update(("%s\n%s\n" % (regex_str(form), expr_str(form))).encode())
    for _ in range(2000):
        digest.update((formula_str(_rand_printed_formula(rng, env3, 4)) + "\n").encode())
    assert digest.hexdigest() == (
        "0e6b840b88b27e6bdfa78e2c115f396052417da09942664a966458184fdb2a4e")


def test_constrained_printing_matches_recorded_digest(env3):
    # 1,000 random constrained expressions, with their constraints, matches
    # and chains of both, each with a left-nested catenation of three, and
    # the derivative states of each by one letter; the digest was recorded
    # before the expression printer became a fold visit
    rng = random.Random(47)
    digest = hashlib.sha256()
    for _ in range(1000):
        e = rand_expr(rng, env3, 4)
        left = Cat(Cat(e, rand_expr(rng, env3, 2)), rand_expr(rng, env3, 2))
        for form in (e, left):
            lines = [expr_str(form), str(form)]
            for state, X in derive_expr(env3, form, rng.choice(env3.symbols)):
                lines.append(expr_str(state) + "\t" + subst_set_str(env3, X))
            digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == (
        "a4f04aa0b80842ab36f3728f5810903e670bbb8c8da6eaf2b1374eb53bb7be6a")


def test_regex_str_rejects_what_is_not_a_regular_form():
    # a constraint has a child, like a star, but is no regular form
    with pytest.raises(TypeError):
        regex_str(Constraint(Word("a"), TOP))
    with pytest.raises(TypeError):
        regex_str(Cat(Word("a"), Constraint(Word("a"), TOP)))


def test_regularize_walks_long_catenations(env3, interp_len, r1):
    letters = "xa" * (DEEP // 2)
    e = parse_expression(" ".join(letters), env3)
    printed = " ".join(["aba", "a"] * (DEEP // 2))
    with recursion_headroom():
        assert regex_str(regularize(interp_len, r1, e)) == printed
        true = Constraint(e, parse_formula("lt(y, x)", env3))
        assert regex_str(regularize(interp_len, r1, true)) == printed


def test_regex_derivative_examples():
    assert regex_derivative(Word("a"), "a") == frozenset({Word("")})
    assert regex_derivative(Word("b"), "a") == frozenset()
    rx = Match("ab", Sum(Word("a"), Word("ab")))
    assert regex_derivative(rx, "a") == frozenset({
        Match("b", Word("")), Match("b", Word("b"))})


def test_regular_forms_have_no_constraints(env3):
    # a constraint has a child, like a star, but is no regular form
    e = parse_expression("a | sim(x, x)", env3)
    with pytest.raises(TypeError):
        enumerate_language(e, 2)


def test_fixed_state_sets_stay_small(env3):
    # a non-nullable left factor drops the right factor's derivative, so no
    # guard chain grows by one state per letter
    rx = parse_expression("(a + b)* a (a + b)(a + b)(a + b)", env3)
    rng = random.Random(97)
    states = frozenset({rx})
    for a in "".join(rng.choice("ab") for _ in range(400)):
        states = frozenset(d for r0 in states for d in regex_derivative(r0, a))
        assert len(states) <= 5


def _star_cat(k):
    """The star of a catenation of k letters, and the word of two rounds."""
    body = ("abc" * k)[:k]
    factors = [Word(c) for c in body]
    e = factors.pop()
    for f in reversed(factors):
        e = Cat(f, e)
    return Star(e), body * 2


def test_fixed_derivative_sets_hash_each_state_once(monkeypatch):
    # a state hands over its stored hash, so putting it in a set enters none
    # of its children: the hashes grow with the word, not with the word
    # times the state
    derived, hashed = [], []
    derive = semantics._derive

    def recording(env, e, a):
        pairs = derive(env, e, a)
        derived.extend(d for d, _X in pairs)
        return pairs

    monkeypatch.setattr(semantics, "_derive", recording)
    for cls in (Word, Empty, Sum, Cat, Star, Match, Constraint):
        monkeypatch.setattr(cls, "__hash__",
                            lambda node, own=cls.__hash__: hashed.append(node) or own(node))
    counts = []
    for k in (100, 200):
        rx, w = _star_cat(k)
        derived[:], hashed[:] = [rx], []
        assert any(const_null(d) for d in semantics.regex_word_derivative(rx, w))
        states = {id(d) for d in derived}
        assert all(id(node) in states for node in hashed)
        counts.append(len(hashed))
    assert counts == [2 * 100 + 1, 2 * 200 + 1]


def test_fixed_engine_derives_each_state_set_once(env3, monkeypatch):
    # the derivative sets of a regular form are the states of a finite
    # automaton, so once every set has been met the word costs no derivation
    rx = parse_expression("(a + b)* a (a + b)(a + b)(a + b)", env3)
    calls = []
    derive = semantics._derive
    monkeypatch.setattr(semantics, "_derive",
                        lambda env, e, a: calls.append(e) or derive(env, e, a))
    counts = []
    for n in (1000, 3000):
        rng = random.Random(n)
        w = "".join(rng.choice("ab") for _ in range(n))
        calls[:] = []
        states = semantics.regex_word_derivative(rx, w)
        assert any(const_null(d) for d in states) == (w[-4] == "a")
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_fixed_engine_keeps_no_states_that_never_repeat(env3, interp_leneq, anbncn):
    # no derivative set of a^m b^m c^m repeats, so the call keeps one hash
    # per letter, not every set it derived
    m = 1000
    r = Realization(env3, {"x": "a" * m, "y": "b" * m, "z": "c" * m})
    rx = regularize(interp_leneq, r, anbncn)
    tracemalloc.start()
    try:
        states = semantics.regex_word_derivative(rx, "a" * m + "b" * m + "c" * m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(const_null(d) for d in states)
    assert peak < 1 << 20


def _step(states, a):
    return frozenset(d for r0 in states for d in regex_derivative(r0, a))


def _stepwise_word_derivative(rx, w):
    """The reference: every letter derives every state of the set anew."""
    states = frozenset({rx})
    for a in w:
        states = _step(states, a)
    return states


def _live_walk(rng, rx, n):
    """A random word of up to n letters after each of which the derivative
    set of rx is still nonempty."""
    states, w = frozenset({rx}), ""
    for _ in range(n):
        moves = [(a, after) for a in "abc" for after in [_step(states, a)] if after]
        if not moves:
            break
        a, states = rng.choice(moves)
        w += a
    return w


def test_word_derivative_matches_the_stepwise_reference(env3, interp_len):
    # a star of a random form keeps a long word live and returns to its
    # sets, so the remembered moves are taken
    rng = random.Random(24)
    for _ in range(100 * FUZZ_SCALE):
        rx = regularize(interp_len, rand_realization(rng, env3), rand_expr(rng, env3, 4))
        for form in (rx, Star(rx)):
            words = [rand_word(rng, "abc", 6) for _ in range(2)]
            words.append(_live_walk(rng, form, 40))
            words.append(rand_word(rng, "abc") * rng.randint(5, 20))
            for w in words:
                assert semantics.regex_word_derivative(form, w) == \
                    _stepwise_word_derivative(form, w)


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
    for _ in range(150 * FUZZ_SCALE):
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
