"""Normalization, propositionalisation, separators, witnesses, membership."""

import os
import random

import pytest

from constrex import (
    ConfigError, TruthTableLimitError, UnsupportedAlphabetError,
    brute_membership_fixed_r, brute_satisfiable_free, build_witness, eval_formula,
    eval_term, factors, left_dot_level, membership_general, normalize_formula,
    normalize_term, null_general, parse_environment, parse_expression,
    parse_formula, parse_term, prop_alphabet, propositionalize, sat_truth_table,
    satisfiable_free, separator_word, terms_of_formula, word_skeletons,
)
from constrex.logic import PropAtom, is_normalized
from constrex.syntax import TOP, BOT, Conn, term_str

from conftest import rand_formula, rand_term


@pytest.fixture
def envf():
    return parse_environment("alphabet: a b c\nvariables: x\nfunctions: f/2 g/2")


def test_normalize_term_examples(env3):
    assert normalize_term(parse_term("(ab)x", env3)) == parse_term("abx", env3)
    t = parse_term("f(x)", env3)
    from constrex.syntax import App, EPS_TERM
    assert normalize_term(App("·", (EPS_TERM, t))) == t
    # deeper reassociation
    assert term_str(normalize_term(parse_term("((ab)c)x", env3))) == "abcx"


def test_normalize_is_idempotent_and_normal(env3):
    rng = random.Random(61)
    for _ in range(300):
        t = rand_term(rng, env3, 4)
        n = normalize_term(t)
        assert is_normalized(n)
        assert normalize_term(n) == n


def test_left_dot_level_examples(env3):
    assert left_dot_level(parse_term("x", env3)) == 0
    assert left_dot_level(parse_term("(ab)c", env3)) == 2
    assert left_dot_level(parse_term("f(ab)", env3)) == 0


def test_normalize_formula_contradiction(env5):
    phi2 = parse_formula("lt((ab)x, abx) && !lt(abx, a(bx))", env5)
    expected = parse_formula("lt(abx, abx) && !lt(abx, abx)", env5)
    assert normalize_formula(phi2) == expected


def test_normalize_formula_examples(env3):
    phi = parse_formula("sim(x, f(y))", env3)
    assert normalize_formula(phi) == phi
    from constrex.syntax import App, Atom, EPS_TERM, Var
    inner = App("·", (EPS_TERM, Var("x")))
    phi2 = Atom("sim", (App("f", (inner,)), Var("y")))
    assert normalize_formula(phi2) == parse_formula("sim(f(x), y)", env3)


def test_propositionalize_examples(env5):
    phi = parse_formula("lt((xy)z, x(yz))", env5)
    psi = propositionalize(phi)
    assert isinstance(psi, PropAtom)
    phi1 = parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env5)
    alphabet = prop_alphabet(phi1)
    assert len(alphabet) == 2
    single = propositionalize(parse_formula("lt(x, x)", env5))
    assert prop_alphabet(parse_formula("lt(x, x) || lt(x, x)", env5)) == (single,)


def test_prop_alphabet_of_constants(env5):
    assert prop_alphabet(TOP) == ()


def test_sat_truth_table_examples(env5):
    # P((xy)z) & !P(x(yz)) is propositionally satisfiable: 1 for the first
    # atom, 0 for the second
    phi = parse_formula("lt((xy)z, xyz) && !lt(x(yz), xyz)", env5)
    psi = propositionalize(phi)
    assignment = sat_truth_table(psi)
    first = PropAtom("lt", parse_formula("lt((xy)z, xyz)", env5).args)
    second = PropAtom("lt", parse_formula("lt(x(yz), xyz)", env5).args)
    assert assignment == {first: True, second: False}
    p = parse_formula("lt(x, x)", env5)
    contradiction = Conn("and", (p, Conn("not", (p,))))
    assert sat_truth_table(propositionalize(contradiction)) is None
    assert sat_truth_table(propositionalize(TOP)) == {}


def test_sat_truth_table_limit(env5, monkeypatch):
    rng = random.Random(67)
    big = parse_formula("lt(x, x)", env5)
    for i in range(25):
        big = Conn("or", (big, parse_formula("lt(x, %s)" % ("a" * (i + 1)), env5)))
    with pytest.raises(TruthTableLimitError):
        sat_truth_table(propositionalize(big))
    monkeypatch.setenv("CONSTREX_MAX_PROPS", "40")
    assert sat_truth_table(propositionalize(big)) is not None


def test_sat_truth_table_rejects_malformed_limit(monkeypatch):
    for text in ("abc", "-1"):
        monkeypatch.setenv("CONSTREX_MAX_PROPS", text)
        with pytest.raises(ConfigError):
            sat_truth_table(propositionalize(TOP))


def test_terms_of_formula_examples(env5):
    phi1 = parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env5)
    assert terms_of_formula(phi1) == frozenset({
        parse_term("g(ab, x)", env5), parse_term("abx", env5),
        parse_term("g(a, bx)", env5)})
    assert terms_of_formula(TOP) == frozenset()
    assert terms_of_formula(parse_formula("lt(x, x)", env5)) == frozenset({
        parse_term("x", env5)})


def test_factors_paper_examples(envf):
    def nonempty(ws):
        return sorted(w for w in ws if w)

    t1 = parse_term("f(a, g(a, baxc))", envf)
    assert nonempty(factors(envf, [t1])) == ["a", "b", "ba", "c"]
    t2 = parse_term("(a)(g(a, baxc))", envf)
    assert nonempty(factors(envf, [t2])) == ["a", "b", "ba", "c"]
    t3 = parse_term("f(a, (a)(baxc))", envf)
    assert nonempty(factors(envf, [t3])) == ["a", "ab", "aba", "b", "ba", "c"]


def test_word_skeletons_base_cases(envf):
    left, right, middle = word_skeletons(envf, parse_term("a", envf))
    assert left == right == middle == frozenset({"a"})
    assert factors(envf, [parse_term("a", envf)]) == frozenset({"", "a"})
    assert factors(envf, [parse_term("x", envf)]) == frozenset({""})


def test_separator_word_examples(envf):
    t = parse_term("(a)(g(a, baxc))", envf)
    v = parse_term("f(a, (a)(baxc))", envf)
    assert separator_word(envf, [t, v]) == "abba"
    assert separator_word(envf, []) == "aba"


def test_separator_word_fresh_random(envf):
    rng = random.Random(71)
    for _ in range(300):
        terms = [rand_term(rng, envf, 3) for _ in range(rng.randint(0, 3))]
        terms = [normalize_term(t) for t in terms]
        w = separator_word(envf, terms)
        assert w not in factors(envf, terms)


def test_separator_requires_two_symbols():
    env1 = parse_environment("alphabet: a\nvariables: x")
    with pytest.raises(UnsupportedAlphabetError):
        separator_word(env1, [])


def test_build_witness_injection_example(env5):
    phi1 = normalize_formula(
        parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env5))
    assignment = sat_truth_table(propositionalize(phi1))
    witness = build_witness(env5, phi1, assignment)
    assert eval_formula(witness.interpretation, witness.realization, phi1) is True
    values = [eval_term(witness.interpretation, witness.realization, t)
              for t in sorted(terms_of_formula(phi1), key=term_str)]
    assert len(set(values)) == len(values)
    # the negative atom contributes nothing to its predicate table
    assert witness.interpretation.predicates["sim"].tuples == frozenset()
    assert len(witness.interpretation.predicates["lt"].tuples) == 1


def test_build_witness_trivia(env5):
    w = build_witness(env5, TOP, {})
    assert eval_formula(w.interpretation, w.realization, TOP) is True
    phi = parse_formula("lt(x, x)", env5)
    atom = prop_alphabet(phi)[0]
    w2 = build_witness(env5, phi, {atom: True})
    assert eval_formula(w2.interpretation, w2.realization, phi) is True


def test_satisfiable_free_examples(env5):
    phi1 = parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env5)
    assert satisfiable_free(env5, phi1) is not None
    phi2 = parse_formula("lt((ab)x, abx) && !lt(abx, a(bx))", env5)
    assert satisfiable_free(env5, phi2) is None
    assert satisfiable_free(env5, BOT) is None
    assert satisfiable_free(env5, TOP) is not None


def test_satisfiable_free_unary_alphabet():
    env1 = parse_environment("alphabet: a\nvariables: x\npredicates: p/1")
    with pytest.raises(UnsupportedAlphabetError):
        satisfiable_free(env1, parse_formula("p(x)", env1))


def test_null_general_examples(env3):
    e1p = parse_expression("x b* y | sim(f(abx), f(y))", env3)
    w = null_general(env3, e1p)
    assert w is not None
    assert w.realization("x") == "" and w.realization("y") == ""
    assert null_general(env3, parse_expression("a", env3)) is None
    assert null_general(env3, parse_expression("empty", env3)) is None


def test_membership_general_e1(env3, e1):
    w = membership_general(env3, e1, "ab")
    assert w is not None
    assert eval_formula(w.interpretation, w.realization, e1.formula) is True
    assert brute_membership_fixed_r(w.interpretation, w.realization, e1, "ab")


def test_membership_general_anbncn(env3, anbncn):
    w = membership_general(env3, anbncn, "abc")
    assert w is not None
    assert brute_membership_fixed_r(w.interpretation, w.realization, anbncn, "abc")
    assert membership_general(env3, anbncn, "ba") is None


def test_membership_general_empty_word(env3, e1):
    w = membership_general(env3, e1, "")
    assert w is not None
    assert brute_membership_fixed_r(w.interpretation, w.realization, e1, "")


def test_contradiction_transfer_random(envp):
    # when the truth table says contradiction, the bounded search agrees
    rng = random.Random(73)
    checked = 0
    for _ in range(120):
        base = rand_formula(rng, envp, 2)
        candidates = [
            normalize_formula(base),
            normalize_formula(Conn("and", (base, Conn("not", (base,))))),
        ]
        for phi in candidates:
            if sat_truth_table(propositionalize(phi)) is None:
                checked += 1
                assert brute_satisfiable_free(envp, phi) is None
    assert checked >= 100


def test_separator_sequence_follows_the_worked_example(envf):
    # the recursion's separators grow: a b^2 a, then a b^3 a, then a b^4 a
    from constrex.syntax import subst_term, term_of_word
    t1 = normalize_term(parse_term("(a)(g(a, baxc))", envf))
    v1 = normalize_term(parse_term("f(a, (a)(baxc))", envf))
    w1 = separator_word(envf, [t1, v1])
    assert w1 == "abba"
    t2 = normalize_term(subst_term(envf, t1, {"x": w1}))
    v2 = normalize_term(subst_term(envf, v1, {"x": w1}))
    w2 = separator_word(envf, [t2, v2])
    assert w2 == "abbba"
    # replacing the f application by w2 leaves {t2, Term(w2)}
    t3, v3 = t2, normalize_term(term_of_word(envf, w2))
    w3 = separator_word(envf, [t3, v3])
    assert w3 == "abbbba"


def test_membership_general_differential(envp):
    # yes answers re-verify through their own witness; no answers mean no
    # sampled bounded (I, r) accepts either (the test is exact, the oracle
    # is the under-approximation)
    from constrex import sample_interpretations
    from constrex.oracle import realizations
    from constrex.syntax import expr_variables
    from conftest import rand_expr
    rng = random.Random(101)
    interps = sample_interpretations(envp)
    words = [""]
    for n in range(1, 4):
        words += ["".join(t) for t in __import__("itertools").product("ab", repeat=n)]
    for _ in range(60):
        e = rand_expr(rng, envp, 3)
        for w in words:
            witness = membership_general(envp, e, w)
            if witness is not None:
                assert brute_membership_fixed_r(
                    witness.interpretation, witness.realization, e, w)
            else:
                for interp in interps:
                    for r in realizations(envp, expr_variables(envp, e), 1):
                        assert not brute_membership_fixed_r(interp, r, e, w), \
                            (str(e), w)
