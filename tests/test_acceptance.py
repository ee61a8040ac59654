"""Acceptance suite: one test per criterion, one printed pass line each.

The property criteria (6-8) share one deterministic corpus of 1000 random
sum-only expressions over a two-symbol alphabet; it is built once and the
substitution sets it emits feed the invariant criterion.
"""

import random
import time

import pytest

from constrex import (
    Interpretation, Realization,
    associated_realization, brute_membership_fixed_r, brute_satisfiable_free,
    check_subst_set, const_null, derive_expr, derive_expr_word,
    eval_formula, eval_term, membership_fixed, membership_general,
    normalize_formula, normalize_term, null_fixed, null_fixed_via_indicator,
    parse_environment, parse_expression, parse_formula,
    regularize, sample_interpretations,
    satisfiable_free, separator_word, simplify,
    subst_set_str, terms_of_formula,
)
from constrex.logic import is_normalized
from constrex.nullability import indicator_pair_str, indicator_set
from constrex import syntax
from constrex.syntax import Conn, expr_str, register_connective, term_str

from conftest import (
    ENV3_TEXT, FUZZ_SCALE, factors, rand_expr, rand_formula, rand_realization,
    rand_term,
)


def report(number, label):
    print("criterion %d: PASS  (%s)" % (number, label))


def elapsed_under(t0, budget, number):
    took = time.perf_counter() - t0
    assert took < budget, "criterion %d exceeded %ss (took %.1fs)" % (number, budget, took)
    return took


# ---------------------------------------------------------------------------
# 1. evaluation golden


def test_criterion_1_evaluation_golden(monkeypatch):
    t0 = time.perf_counter()
    env = parse_environment(
        "alphabet: a b\nvariables: x y z\npredicates: P/1 Q/2 R/2\nfunctions: f/1 g/2 h/2")
    interp = Interpretation(env, predicates={"P": "nonempty", "Q": "eq", "R": "reveq"},
                            functions={"f": "rev", "g": "cat", "h": "dupcat"})
    r = Realization(env, {"x": "aa", "y": "bb", "z": ""})
    phi1 = parse_formula("P(x) || Q(x, z)", env)
    phi2 = parse_formula("Q(y, f(x)) && R(h(z, z), g(f(y), z))", env)
    phi3 = parse_formula("!P(f(g(x, x)))", env)
    monkeypatch.setattr(syntax, "_CONNECTIVES", dict(syntax._CONNECTIVES))
    register_connective("ite", 3, lambda c, t, e: ((not c) or t) and (c or e))
    phi4 = Conn("ite", (phi1, phi2, phi3))
    values = tuple(int(eval_formula(interp, r, p)) for p in (phi1, phi2, phi3, phi4))
    assert values == (1, 0, 0, 0)
    elapsed_under(t0, 1.0, 1)
    report(1, "four evaluations reproduce (1,0,0,0)")


# ---------------------------------------------------------------------------
# 2. derivative goldens


@pytest.fixture(scope="module")
def env3():
    return parse_environment(ENV3_TEXT)


def view(env, pairs):
    return sorted((expr_str(e), subst_set_str(env, X)) for e, X in pairs)


def golden(env, *entries):
    return sorted((text, subst_set_str(env, X)) for text, X in entries)


def test_criterion_2_derivative_goldens(env3):
    t0 = time.perf_counter()
    e1 = parse_expression("x b* y | sim(f(x), f(y))", env3)
    assert view(env3, derive_expr(env3, e1, "a")) == golden(
        env3,
        ("x b* y | sim(f(ax), f(y))", {("x", "ax")}),
        ("y | sim(f(eps), f(ay))", {("x", ""), ("y", "ay")}))
    assert view(env3, derive_expr_word(env3, e1, "ab")) == golden(
        env3,
        ("x b* y | sim(f(abx), f(y))", {("x", "bx")}),
        ("eps b* y | sim(f(a), f(y))", {("x", "")}),
        ("y | sim(f(a), f(by))", {("x", ""), ("y", "by")}),
        ("y | sim(f(eps), f(aby))", {("y", "by")}))
    anbncn = parse_expression(
        "(x -| a*) (y -| b*) (z -| c*) | sim(x, y) && sim(y, z)", env3)
    assert view(env3, simplify(env3, derive_expr(env3, anbncn, "a"))) == golden(
        env3,
        ("(x -| a*) (y -| b*) (z -| c*) | sim(ax, y) && sim(y, z)", {("x", "ax")}))
    assert view(env3, simplify(env3, derive_expr_word(env3, anbncn, "ab"))) == golden(
        env3,
        ("(eps -| x -| a*) (y -| b*) (z -| c*) | sim(ax, by) && sim(by, z)",
         {("y", "by")}))
    assert view(env3, simplify(env3, derive_expr_word(env3, anbncn, "abc"))) == golden(
        env3,
        ("(eps -| x -| a*) (eps -| y -| b*) (z -| c*) | sim(ax, by) && sim(by, cz)",
         {("z", "cz")}))
    elapsed_under(t0, 3.0, 2)
    report(2, "E1 and a^n b^n c^n derivative sets match the displayed ones")


# ---------------------------------------------------------------------------
# 3. indicator golden


def test_criterion_3_indicator_golden(env3):
    t0 = time.perf_counter()
    body = parse_expression("x b* y", env3)
    assert [indicator_pair_str(env3, p) for p in indicator_set(env3, body)] == \
        ["{x,y} :: true"]
    e1p = parse_expression("x b* y | sim(f(abx), f(y))", env3)
    assert [indicator_pair_str(env3, p) for p in indicator_set(env3, e1p)] == \
        ["{x,y} :: sim(f(ab), f(eps))"]
    elapsed_under(t0, 1.0, 3)
    report(3, "indicator sets of xb*y and its constrained form reproduce")


# ---------------------------------------------------------------------------
# 4. end-to-end membership


def test_criterion_4_end_to_end_membership(env3):
    t0 = time.perf_counter()
    e1 = parse_expression("x b* y | sim(f(x), f(y))", env3)
    witness = membership_general(env3, e1, "ab")
    assert witness is not None
    assert eval_formula(witness.interpretation, witness.realization, e1.formula)
    assert brute_membership_fixed_r(witness.interpretation, witness.realization,
                                    e1, "ab")
    anbncn = parse_expression(
        "(x -| a*) (y -| b*) (z -| c*) | sim(x, y) && sim(y, z)", env3)
    witness2 = membership_general(env3, anbncn, "abc")
    assert witness2 is not None
    assert brute_membership_fixed_r(witness2.interpretation, witness2.realization,
                                    anbncn, "abc")
    assert membership_general(env3, anbncn, "ba") is None
    elapsed_under(t0, 5.0, 4)
    report(4, "ab in L(E1), abc in L(anbncn) with sound witnesses; ba rejected")


# ---------------------------------------------------------------------------
# 5. logic pipeline golden


def test_criterion_5_logic_pipeline():
    t0 = time.perf_counter()
    env = parse_environment(
        "alphabet: a b c\nvariables: x y z\npredicates: lt/2 sim/2\nfunctions: g/2")
    phi2 = parse_formula("lt((ab)x, abx) && !lt(abx, a(bx))", env)
    normal = normalize_formula(phi2)
    # syntactic contradiction pattern: p && !p over one propositional atom
    assert normal.tag == "and"
    positive, negated = normal.children
    assert negated.tag == "not" and positive == negated.children[0]
    assert satisfiable_free(env, phi2) is None
    phi1 = parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env)
    witness = satisfiable_free(env, phi1)
    assert witness is not None
    assert eval_formula(witness.interpretation, witness.realization, phi1)
    values = [eval_term(witness.interpretation, witness.realization, t)
              for t in sorted(terms_of_formula(normalize_formula(phi1)), key=term_str)]
    assert len(set(values)) == len(values)
    elapsed_under(t0, 2.0, 5)
    report(5, "phi2 normalizes to a contradiction; phi1 yields an injective witness")


# ---------------------------------------------------------------------------
# 6-8. the shared property corpus

PROP_ENV = parse_environment(
    "alphabet: a b\nvariables: x y\npredicates: p/1 q/2\nfunctions: f/1 g/2")

_corpus_cache = {}


def corpus():
    """1000 deterministic (expression, interpretation, realization) triples."""
    if "triples" not in _corpus_cache:
        rng = random.Random(2024)
        interps = sample_interpretations(PROP_ENV)
        triples = []
        for _ in range(1000):
            e = rand_expr(rng, PROP_ENV, 4)
            interp = rng.choice(interps)
            r = rand_realization(rng, PROP_ENV, 2)
            triples.append((e, interp, r))
        _corpus_cache["triples"] = triples
    return _corpus_cache["triples"]


def words_upto(n):
    import itertools
    out = [""]
    for k in range(1, n + 1):
        out += ["".join(t) for t in itertools.product("ab", repeat=k)]
    return out


def test_criterion_6_quotient_correctness():
    t0 = time.perf_counter()
    emitted = []
    disagreements = 0
    short_words = words_upto(2)
    for e, interp, r in corpus():
        for w in words_upto(3):
            if membership_fixed(interp, r, e, w) != \
                    brute_membership_fixed_r(interp, r, e, w):
                disagreements += 1
        for a in PROP_ENV.symbols:
            pairs = derive_expr(PROP_ENV, e, a)
            emitted.extend(X for _e2, X in pairs)
            for w in short_words:
                lhs = brute_membership_fixed_r(interp, r, e, a + w)
                rhs = any(
                    r2 is not None and brute_membership_fixed_r(interp, r2, e2, w)
                    for e2, X in pairs
                    for r2 in (associated_realization(r, X),))
                if lhs != rhs:
                    disagreements += 1
    _corpus_cache["emitted"] = emitted
    assert disagreements == 0
    took = elapsed_under(t0, 120.0, 6)
    report(6, "1000 expressions, %d sets emitted, 0 disagreements, %.1fs"
           % (len(emitted), took))


def test_criterion_7_nullability_triangle():
    t0 = time.perf_counter()
    disagreements = 0
    for e, interp, r in corpus():
        direct = null_fixed(interp, r, e)
        via_regex = const_null(regularize(interp, r, e))
        via_indicator = null_fixed_via_indicator(interp, r, e)
        if not (direct == via_regex == via_indicator):
            disagreements += 1
    assert disagreements == 0
    elapsed_under(t0, 60.0, 7)
    report(7, "null_fixed = const_null(regularize) = indicator route on the corpus")


def test_criterion_8_substitution_set_invariants():
    t0 = time.perf_counter()
    emitted = _corpus_cache.get("emitted")
    if emitted is None:
        emitted = [X for e, _i, _r in corpus()
                   for a in PROP_ENV.symbols
                   for _e2, X in derive_expr(PROP_ENV, e, a)]
    violations = 0
    for X in emitted:
        try:
            check_subst_set(X)
        except Exception:
            violations += 1
    assert violations == 0
    elapsed_under(t0, 60.0, 8)
    report(8, "%d substitution sets functional and non-crossing" % len(emitted))


# ---------------------------------------------------------------------------
# 9. normalization and separators


def test_criterion_9_normalization_and_separators():
    t0 = time.perf_counter()
    rng = random.Random(2025)
    interps = sample_interpretations(PROP_ENV, limit=8)
    realizations = [rand_realization(rng, PROP_ENV, 2) for _ in range(3)]
    for _ in range(1000):
        t = rand_term(rng, PROP_ENV, 4)
        n = normalize_term(t)
        assert is_normalized(n)
        assert normalize_term(n) == n
        for interp in interps:
            for r in realizations:
                assert eval_term(interp, r, t) == eval_term(interp, r, n)
    for _ in range(500):
        terms = [normalize_term(rand_term(rng, PROP_ENV, 3))
                 for _ in range(rng.randint(0, 4))]
        assert separator_word(PROP_ENV, terms) not in factors(PROP_ENV, terms)
    elapsed_under(t0, 60.0, 9)
    report(9, "1000 terms normalize soundly; 500 separators are fresh")


# ---------------------------------------------------------------------------
# 10. witness soundness


def test_criterion_10_witness_soundness():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    witnesses = 0
    refutations = 0
    for index in range(300 * FUZZ_SCALE):
        base = rand_formula(rng, PROP_ENV, 2)
        if index % 4 == 3:
            # force the refutation branch through explicit contradictions
            base = Conn("and", (base, Conn("not", (base,))))
        phi = normalize_formula(base)
        witness = satisfiable_free(PROP_ENV, phi)
        if witness is not None:
            witnesses += 1
            assert eval_formula(witness.interpretation, witness.realization, phi)
            values = [eval_term(witness.interpretation, witness.realization, t)
                      for t in sorted(terms_of_formula(phi), key=term_str)]
            assert len(set(values)) == len(values)
        else:
            refutations += 1
            assert brute_satisfiable_free(PROP_ENV, phi) is None
    assert witnesses > 0 and refutations > 0
    elapsed_under(t0, 120.0, 10)
    report(10, "%d witnesses verified, %d refutations confirmed within bounds"
           % (witnesses, refutations))
