"""Normalization, propositionalisation, separators, witnesses, membership."""

import gc
import itertools
import operator
import os
import random
import sys
import threading
import time

import pytest

from constrex import (
    Cat, ConfigError, Constraint, FiniteRelation, Interpretation, Match, Realization, Star,
    Sum, TruthTableLimitError, UnsupportedAlphabetError, Word,
    brute_membership_fixed_r, brute_satisfiable_free, build_witness, derive_expr,
    derive_paths, eval_formula, eval_term, indicator_set, left_dot_level,
    membership_fixed, membership_general, normalize_formula, normalize_term, null_general,
    parse_environment, parse_expression, parse_formula, parse_term, prop_alphabet,
    sample_interpretations, sat_truth_table, satisfiable_free, separator_word,
    terms_of_formula,
)
from constrex import derivation, logic, syntax
from constrex.derivation import const_null, never_null
from constrex.logic import is_normalized, letter_need
from constrex.oracle import realizations
from constrex.syntax import (
    AND, CAT, EPSILON, FALSE, IMPLIES, NOT, OR, TOP, TRUE, BOT, App, Atom, Conn, Empty,
    Var, connective, expr_variables, register_connective, term_str,
)

from conftest import (
    DEEP, FUZZ_SCALE, NEXT_TO_AN_APPLICATION, factors, rand_expr, rand_formula,
    rand_realization, rand_term, recursion_headroom, rewriting_witness,
    word_skeletons,
)


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


def test_the_normal_flag_is_the_normal_form_test(env3):
    rng = random.Random(2006)
    seen = {True: 0, False: 0}
    for _ in range(500 * FUZZ_SCALE):
        t = rand_term(rng, env3, 4)
        assert t.normal == is_normalized(t) == (normalize_term(t) is t)
        assert normalize_term(t).normal
        phi = rand_formula(rng, env3, 3)
        normal = all(map(is_normalized, terms_of_formula(phi)))
        assert phi.normal == normal == (normalize_formula(phi) is phi)
        assert normalize_formula(phi).normal
        seen[t.normal] += 1
        seen[phi.normal] += 1
    assert min(seen.values()) > 100 * FUZZ_SCALE


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
    assert isinstance(phi, Atom)
    phi1 = parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env5)
    alphabet = prop_alphabet(phi1)
    assert len(alphabet) == 2
    single = parse_formula("lt(x, x)", env5)
    assert prop_alphabet(parse_formula("lt(x, x) || lt(x, x)", env5)) == (single,)


def test_prop_alphabet_of_constants(env5):
    assert prop_alphabet(TOP) == ()


def test_prop_alphabet_order_and_first_model():
    # the order reads p_{t1,...,tn}: "A" and "_" sort before "{", and
    # "p_{ab}" before "p_{a}"
    env = parse_environment("alphabet: a b\nvariables: x\npredicates: p/1 pA/1 p_x/1")
    phi = parse_formula("(p(a) || pA(a) || p_x(a) || p(ab)) && !(p(a) && p(ab))", env)
    order = ["%s(%s)" % (atom.pred, ", ".join(term_str(t) for t in atom.args))
             for atom in prop_alphabet(phi)]
    assert order == ["pA(a)", "p_x(a)", "p(ab)", "p(a)"]
    witness = satisfiable_free(env, phi)
    tables = {name: sorted(relation.tuples)
              for name, relation in witness.interpretation.predicates.items()}
    assert tables == {"p": [("a",)], "pA": [], "p_x": []}


def _normalize_term_recursively(t):
    """Reference: the rebuild normalize_term replaced, one frame per level."""
    if isinstance(t, Var):
        return t
    if t.fn != CAT:
        return App(t.fn, tuple(_normalize_term_recursively(a) for a in t.args))
    leaves, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App) and u.fn == CAT:
            stack += (u.args[1], u.args[0])
        elif u != App(EPSILON):
            leaves.append(_normalize_term_recursively(u))
    if not leaves:
        return App(EPSILON)
    out = leaves.pop()
    while leaves:
        out = App(CAT, (leaves.pop(), out))
    return out


def _normalize_formula_recursively(phi):
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(_normalize_term_recursively(t) for t in phi.args))
    return Conn(phi.tag, tuple(_normalize_formula_recursively(c) for c in phi.children))


def _prop_alphabet_over_walk(phi):
    """Reference: every node of phi walked, terms included, then sorted by name."""
    def name(atom):
        return "%s_{%s}" % (atom.pred, ",".join(term_str(t) for t in atom.args))
    return tuple(sorted({n for n in syntax.walk(phi) if isinstance(n, Atom)}, key=name))


def test_normalization_matches_the_recursive_rebuild(envp, env5):
    rng = random.Random(41)
    normal_seen = changed_seen = 0
    for env in (envp, env5):
        for _ in range(400):
            phi = rand_formula(rng, env, 4)
            expected = _normalize_formula_recursively(phi)
            normal = normalize_formula(phi)
            assert normal == expected
            # a normal formula comes back itself, and so does each normal part
            assert normalize_formula(normal) is normal
            if expected == phi:
                normal_seen += 1
                assert normal is phi
            else:
                changed_seen += 1
            for t in terms_of_formula(phi):
                assert normalize_term(t) == _normalize_term_recursively(t)
                if _normalize_term_recursively(t) == t:
                    assert normalize_term(t) is t
    assert normal_seen > 50 and changed_seen > 50


def test_prop_alphabet_matches_the_walk_definition(envp):
    rng = random.Random(43)
    for _ in range(400):
        phi = rand_formula(rng, envp, 4)
        for psi in (phi, normalize_formula(phi)):
            assert prop_alphabet(psi) == _prop_alphabet_over_walk(psi)


def test_sat_search_hashes_each_atom_occurrence_once(env5, monkeypatch):
    phi = parse_formula("(lt(x, ab) || sim(abx, g(a, x))) && lt(b, x)", env5)
    refuted = Conn("and", (phi, Conn("not", (phi,))))
    hashes = []
    monkeypatch.setattr(Atom, "__hash__", lambda atom: hashes.append(atom) or hash(
        (atom.pred, atom.args)))
    assert sat_truth_table(refuted) is None
    assert len(hashes) == 6     # one per occurrence
    hashes.clear()
    model = sat_truth_table(phi)
    # the model's dict hashes each distinct atom once more
    assert len(hashes) == 3 + len(model) == 6


def test_sat_search_prints_no_lone_atom(env5, monkeypatch):
    names = []
    prop_name = logic._prop_name
    monkeypatch.setattr(logic, "_prop_name",
                        lambda atom: names.append(atom) or prop_name(atom))
    # one atom is its own order: the alphabet prints no name
    phi = parse_formula("lt(x, ab) && !lt(x, ab) || lt(x, ab)", env5)
    atom = parse_formula("lt(x, ab)", env5)
    assert prop_alphabet(phi) == (atom,)
    assert sat_truth_table(phi) == {atom: True}
    assert names == []
    # two atoms are ordered by their names, each printed once
    assert len(prop_alphabet(parse_formula("lt(x, ab) && lt(b, x)", env5))) == 2
    assert len(names) == 2


def test_alphabet_keeps_atoms_that_print_alike():
    # q(eps) and q(e p s) have one propositional name; both stay, first seen
    # first, whichever comes first
    env = parse_environment("alphabet: a b e p s\npredicates: q/1")
    empty, word = parse_formula("q(eps)", env), parse_formula("q(e p s)", env)
    assert empty != word and logic._prop_name(empty) == logic._prop_name(word)
    other = parse_formula("q(a)", env)
    for first, second in ((empty, word), (word, empty)):
        phi = Conn("or", (Conn("and", (first, other)), second))
        assert prop_alphabet(phi) == (other, first, second)


def test_witness_orders_applications_that_print_alike():
    # f(eps) and f(e p s) both print f(eps); the empty word is bound first,
    # whatever the hash seed
    env = parse_environment("alphabet: a b e p s\npredicates: sim/2\nfunctions: f/1")
    witness = satisfiable_free(env, parse_formula("sim(f(eps), f(e p s))", env))
    assert witness.interpretation.functions["f"].table == (
        (("",), "aba"), (("eps",), "abba"))


def test_satisfiable_free_on_a_long_flat_chain(envp):
    # the parser left-nests the chain, and normalization keeps its place on
    # a stack, so each answers without recursing once per atom
    for op in ("&&", "||"):
        with recursion_headroom():
            phi = parse_formula((" %s " % op).join(["p(a)"] * 3000), envp)
            assert normalize_formula(phi) is phi
            witness = satisfiable_free(envp, phi)
        assert witness.interpretation.predicates["p"].tuples == {("a",)}


def test_sat_truth_table_examples(env5):
    # P((xy)z) & !P(x(yz)) is propositionally satisfiable: 1 for the first
    # atom, 0 for the second
    phi = parse_formula("lt((xy)z, xyz) && !lt(x(yz), xyz)", env5)
    assignment = sat_truth_table(phi)
    first = Atom("lt", parse_formula("lt((xy)z, xyz)", env5).args)
    second = Atom("lt", parse_formula("lt(x(yz), xyz)", env5).args)
    assert assignment == {first: True, second: False}
    p = parse_formula("lt(x, x)", env5)
    contradiction = Conn("and", (p, Conn("not", (p,))))
    assert sat_truth_table(contradiction) is None
    assert sat_truth_table(TOP) == {}


def test_sat_truth_table_limit(env5, monkeypatch):
    rng = random.Random(67)
    big = parse_formula("lt(x, x)", env5)
    for i in range(25):
        big = Conn("or", (big, parse_formula("lt(x, %s)" % ("a" * (i + 1)), env5)))
    with pytest.raises(TruthTableLimitError):
        sat_truth_table(big)
    monkeypatch.setenv("CONSTREX_MAX_PROPS", "40")
    assert sat_truth_table(big) is not None


def test_sat_truth_table_rejects_malformed_limit(monkeypatch, env5):
    for text in ("abc", "-1"):
        monkeypatch.setenv("CONSTREX_MAX_PROPS", text)
        with pytest.raises(ConfigError):
            sat_truth_table(TOP)
    # an argument obeys the rule the variable does: an int, not a bool, >= 0
    monkeypatch.delenv("CONSTREX_MAX_PROPS")
    for limit in (-1, "3", True, False, 2.0):
        with pytest.raises(ConfigError, match="max_props must be a nonnegative integer"):
            sat_truth_table(TOP, limit)
        with pytest.raises(ConfigError, match="max_props must be a nonnegative integer"):
            satisfiable_free(env5, TOP, max_props=limit)
        # also where no indicator pair or derived state reaches the search
        for e in (Empty(), parse_expression("a", env5)):
            with pytest.raises(ConfigError, match="max_props must be a nonnegative integer"):
                null_general(env5, e, limit)
            with pytest.raises(ConfigError, match="max_props must be a nonnegative integer"):
                membership_general(env5, e, "", limit)
    assert satisfiable_free(env5, TOP, max_props=0) is not None


def _brute_first_model(psi):
    # the lexicographic truth table: first atom most significant, False first
    def value(node, assignment):
        if isinstance(node, Atom):
            return assignment[node]
        _, truth = connective(node.tag)
        return bool(truth(*(value(c, assignment) for c in node.children)))

    atoms = prop_alphabet(psi)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        assignment = dict(zip(atoms, bits))
        if value(psi, assignment):
            return assignment
    return None


def _rand_prop(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.05:
            return Conn(rng.choice(("true", "false")), ())
        return rng.choice(atoms)
    tag = rng.choice(("and", "and", "or", "or", "not", "implies", "maj3"))
    arity = connective(tag)[0]
    return Conn(tag, tuple(_rand_prop(rng, atoms, depth - 1) for _ in range(arity)))


_DUAL_TAG = {"and": "or", "or": "and", "maj3": "maj3",
             "true": "false", "false": "true"}


def _dual(psi):
    # the negation of psi without a top-level not: and/or swap, leaves are
    # negated, maj3 is self-dual, and !(p -> q) is p && !q
    if isinstance(psi, Atom):
        return Conn("not", (psi,))
    if psi.tag == "implies":
        return Conn("and", (psi.children[0], _dual(psi.children[1])))
    if psi.tag == "not":
        return Conn("not", (_dual(psi.children[0]),))
    return Conn(_DUAL_TAG[psi.tag], tuple(_dual(c) for c in psi.children))


def test_sat_search_matches_truth_table(monkeypatch):
    # register_connective is global: work on a copy of the registry
    monkeypatch.setattr(syntax, "_CONNECTIVES", dict(syntax._CONNECTIVES))
    register_connective("maj3", 3, lambda p, q, r: p + q + r >= 2)
    rng = random.Random(79)
    unsat = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        # names p0..p11 sort as strings, so the search order is not index order
        atoms = [Atom("p%d" % i, ()) for i in range(n)]
        psi = _rand_prop(rng, atoms, rng.randint(1, 6))
        mode = rng.random()
        if mode < 0.25:     # psi occurs twice: one shared gate
            psi = Conn("and", (psi, Conn("not", (psi,))))
        elif mode < 0.4:    # no shared gate: propagation alone refutes it
            psi = Conn("and", (psi, _dual(psi)))
        expected = _brute_first_model(psi)
        assert sat_truth_table(psi, 12) == expected
        unsat += expected is None
    assert 100 <= unsat <= 400


def _rand_wide_prop(rng, atoms, depth):
    # and/or gates of 3 to 5 children, a child repeated now and then
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    tag = rng.choice(("and", "or", "not", "implies"))
    if tag in ("and", "or"):
        children = []
        for _ in range(rng.randint(3, 5)):
            children.append(rng.choice(children) if children and rng.random() < 0.3
                            else _rand_wide_prop(rng, atoms, depth - 1))
        return Conn(tag, tuple(children))
    arity = connective(tag)[0]
    return Conn(tag, tuple(_rand_wide_prop(rng, atoms, depth - 1) for _ in range(arity)))


def _binary(psi):
    # psi with each k-ary and/or nested into binary ones, for the reference
    if isinstance(psi, Atom):
        return psi
    children = [_binary(c) for c in psi.children]
    if psi.tag in ("and", "or"):
        out = children.pop()
        while children:
            out = Conn(psi.tag, (children.pop(), out))
        return out
    return Conn(psi.tag, tuple(children))


def test_sat_search_matches_truth_table_on_wide_gates():
    # native clauses of 4 to 6 literals, with repeated and complementary
    # literals; a generator of its own, apart from the draws above
    rng = random.Random(83)
    unsat = 0
    for _ in range(300):
        atoms = [Atom("p%d" % i, ()) for i in range(rng.randint(1, 10))]
        psi = _rand_wide_prop(rng, atoms, rng.randint(1, 4))
        mode = rng.random()
        if mode < 0.25:
            psi = Conn("and", (psi, Conn("not", (psi,))))
        elif mode < 0.4:
            psi = Conn("and", (psi, _dual(psi)))
        expected = _brute_first_model(_binary(psi))
        assert sat_truth_table(psi, 10) == expected
        unsat += expected is None
    assert 60 <= unsat <= 240


# Literal 2v says variable v is true and 2v + 1 that it is false; with no
# atoms the search decides nothing, so it answers by propagation alone.
@pytest.mark.parametrize("variables, atoms, clauses, expected", [
    (1, 0, [(0,), (1,)], None),
    (2, 0, [(2,), (3, 0), (3, 1)], None),
    (2, 2, [(0, 1, 2)], [False, False]),
    (3, 1, [(0, 4, 4), (5, 2), (5, 3)], [True]),
    (3, 0, [(0,), (1, 4, 4), (5, 2), (5, 3)], None),
    (4, 4, [(0,), (1, 2), (3, 4), (5, 6)], [True, True, True, True]),
    (4, 4, [(7,), (1, 2), (3, 4), (5, 6)], [False, False, False, False]),
    (4, 0, [(0,), (1, 2), (3, 4), (5, 6), (7,)], None),
    (2, 2, [(0, 2), (0, 3)], [True, False]),
    (3, 3, [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5)], [True, False, False]),
], ids=["contradicting-units", "conflict-by-propagation", "tautology",
        "repeated-literal-forces", "repeated-literal-refutes", "binary-chain",
        "binary-chain-backward", "binary-chain-refuted", "backtrack", "backtrack-twice"])
def test_first_model_on_clause_lists(variables, atoms, clauses, expected):
    assert logic._first_model(variables, atoms, clauses) == expected


def test_register_connective_refuses_a_registered_tag(monkeypatch):
    # a tag keeps one meaning, a builtin's and a user tag's alike, so the
    # search may encode and/or/not natively
    monkeypatch.setattr(syntax, "_CONNECTIVES", dict(syntax._CONNECTIVES))
    register_connective("maj3", 3, lambda p, q, r: p + q + r >= 2)
    before = dict(syntax._CONNECTIVES)
    for tag, arity in (("and", 2), ("maj3", 3)):
        with pytest.raises(ConfigError, match="boolean operator %r is already registered" % tag):
            register_connective(tag, arity, lambda *values: not all(values))
        assert syntax._CONNECTIVES == before


def test_sat_search_refutes_a_formula_and_its_dual():
    # phi && dual(phi) shares no gate; a search without propagation takes
    # seconds for each one at 20 atoms
    elapsed = 0.0
    for seed in range(5):
        rng = random.Random(seed)
        leaves = [Atom("p%02d" % i, ()) for i in range(20)]
        leaves = [Conn("not", (p,)) if rng.random() < 0.3 else p
                  for p in rng.sample(leaves, 20)]
        while len(leaves) > 1:
            i = rng.randrange(len(leaves) - 1)
            leaves[i:i + 2] = [Conn(rng.choice(("and", "or")), tuple(leaves[i:i + 2]))]
        phi = leaves[0]
        start = time.perf_counter()
        assert sat_truth_table(Conn("and", (phi, _dual(phi))), 20) is None
        elapsed += time.perf_counter() - start
    assert elapsed < 2.0


def test_sat_search_encodes_a_deep_chain():
    # 3000 nested ands: the encoder keeps its place on a stack
    atoms = [Atom("p%02d" % i, ()) for i in range(16)]
    chain, refuted = atoms[0], Conn("not", (atoms[0],))
    for i in range(3000):
        chain = Conn("and", (atoms[i % 16], chain))
        refuted = Conn("and", (atoms[i % 16], refuted))
    with recursion_headroom():
        assert sat_truth_table(chain, 16) == dict.fromkeys(atoms, True)
        assert sat_truth_table(refuted, 16) is None


def _conjunction(atoms):
    # balanced, so that evaluating it needs only a few frames
    if len(atoms) == 1:
        return atoms[0]
    half = len(atoms) // 2
    return Conn("and", (_conjunction(atoms[:half]), _conjunction(atoms[half:])))


def _wide_pair(n):
    atoms = [Atom("p%02d" % i, ()) for i in range(n)]
    conj = _conjunction(atoms)
    return atoms, conj, Conn("and", (conj, Conn("not", (conj,))))


def test_sat_search_prunes_wide_formulas():
    # the truth table would need 2^60 steps on either formula
    atoms, conj, refutation = _wide_pair(60)
    start = time.perf_counter()
    assert sat_truth_table(conj, 64) == dict.fromkeys(atoms, True)
    assert sat_truth_table(refutation, 64) is None
    assert time.perf_counter() - start < 1.0


def test_sat_search_does_not_recurse_per_atom():
    atoms, conj, refutation = _wide_pair(60)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    # 40 frames cover the formula's depth, but not one frame per atom
    sys.setrecursionlimit(depth + 40)
    try:
        sat = sat_truth_table(conj, 64)
        unsat = sat_truth_table(refutation, 64)
    finally:
        sys.setrecursionlimit(limit)
    assert sat == dict.fromkeys(atoms, True)
    assert unsat is None


def test_terms_of_formula_examples(env5):
    phi1 = parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env5)
    assert terms_of_formula(phi1) == frozenset({
        parse_term("g(ab, x)", env5), parse_term("abx", env5),
        parse_term("g(a, bx)", env5)})
    assert terms_of_formula(TOP) == frozenset()
    assert terms_of_formula(parse_formula("lt(x, x)", env5)) == frozenset({
        parse_term("x", env5)})


def test_terms_and_witness_variables_match_the_walk_definitions(env3):
    # the atoms' terms and the witness's variables are read without a walk
    # of the whole formula; they are what the walk reads
    rng = random.Random(21)
    for _ in range(300 * FUZZ_SCALE):
        phi = normalize_formula(rand_formula(rng, env3, 4))
        assert terms_of_formula(phi) == frozenset(
            t for n in syntax.walk(phi) if type(n) is Atom for t in n.args)
        witness = build_witness(env3, phi, dict.fromkeys(prop_alphabet(phi), True))
        assert set(witness.realization.assignment) == syntax.tree_variables(phi)


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
    for _ in range(300 * FUZZ_SCALE):
        terms = [rand_term(rng, envf, 3) for _ in range(rng.randint(0, 3))]
        terms = [normalize_term(t) for t in terms]
        w = separator_word(envf, terms)
        assert w not in factors(envf, terms)


def test_separator_word_matches_factor_definition(envf, envp):
    # the longest run of b in the middle words gives the word that the
    # search for the first b^p outside the factor set gave
    def by_factors(env, terms):
        a, b = env.symbols[0], env.symbols[1]
        fs = factors(env, terms)
        run = 0
        while b * (run + 1) in fs:
            run += 1
        return a + b * (run + 1) + a

    rng = random.Random(73)
    for env in (envf, envp):
        for _ in range(300 * FUZZ_SCALE):
            raw = [rand_term(rng, env, 4) for _ in range(rng.randint(0, 4))]
            for terms in (raw, [normalize_term(t) for t in raw]):
                assert separator_word(env, terms) == by_factors(env, terms)


def test_deep_catenations_are_scanned_without_recursion(envp):
    # a left-nested catenation, eps between the letters: the runs of b
    # are two long, since x ends each run and eps does not
    leaves = [App("b"), App(EPSILON), App("b"), App("a"), Var("x")] * (DEEP // 5)
    t = leaves[0]
    for leaf in leaves[1:]:
        t = App(CAT, (t, leaf))
    with recursion_headroom():
        assert separator_word(envp, [t]) == "abbba"
        normal = normalize_term(t)
        assert is_normalized(normal)
        assert separator_word(envp, [normal]) == "abbba"
        # printed without parentheses: right-nested, eps gone
        assert term_str(normal) == "bbax" * (DEEP // 5)


def _deep_non_normal_chain(nested):
    """A chain of DEEP leaves, an application with a non-normal argument
    among them: right-nested and ending in eps, or left-nested with eps
    between its leaves."""
    eps = App(EPSILON)
    leaves = [App("b"), Var("x"), App("f", (App(CAT, (eps, App("a"))),)), App("a")]
    leaves = (leaves * DEEP)[:DEEP]
    if nested == "right":
        t = eps
        for leaf in reversed(leaves):
            t = App(CAT, (leaf, t))
        return t
    t = leaves[0]
    for leaf in leaves[1:]:
        t = App(CAT, (App(CAT, (t, eps)), leaf))
    return t


@pytest.mark.parametrize("nested", ["right", "left"])
def test_deep_non_normal_chains_normalize_right(nested):
    t = _deep_non_normal_chain(nested)
    assert not t.normal
    expected = _normalize_term_recursively(t)
    with recursion_headroom():
        normal = normalize_term(t)
        assert normal == expected
        assert is_normalized(normal) and normal.normal
        assert left_dot_level(normal) == 1


def test_atoms_lists_the_atoms_fold_visits_in_order(envp, env5):
    rng = random.Random("atoms in fold order")
    for env in (envp, env5):
        for _ in range(200 * FUZZ_SCALE):
            phi = rand_formula(rng, env, 4)
            visited = []
            syntax.fold(phi, lambda node, values: visited.append(node) if type(node) is Atom
                        else None)
            got = logic._atoms(phi)
            assert len(got) == len(visited)
            assert all(map(operator.is_, got, visited))


def test_separator_requires_two_symbols():
    env1 = parse_environment("alphabet: a\nvariables: x")
    with pytest.raises(UnsupportedAlphabetError):
        separator_word(env1, [])


def test_build_witness_injection_example(env5):
    phi1 = normalize_formula(
        parse_formula("lt(g(ab, x), abx) && !sim(abx, g(a, bx))", env5))
    assignment = sat_truth_table(phi1)
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


@pytest.mark.parametrize("text", NEXT_TO_AN_APPLICATION)
def test_witness_sees_letters_next_to_an_application(envp, text):
    phi = normalize_formula(parse_formula(text, envp))
    witness = satisfiable_free(envp, phi)
    assert eval_formula(witness.interpretation, witness.realization, phi) is True
    values = [eval_term(witness.interpretation, witness.realization, t)
              for t in terms_of_formula(phi)]
    assert len(set(values)) == len(values)


def _witness_key(w):
    i = w.interpretation
    return (w.realization.assignment,
            {k: v.tuples for k, v in i.predicates.items()},
            {k: v.table for k, v in i.functions.items()})


@pytest.fixture
def env0():
    # a 0-ary function: an application with no arguments is ready at once
    return parse_environment(
        "alphabet: a b\nvariables: x y\npredicates: p/1 q/2\nfunctions: c/0 f/1")


@pytest.mark.parametrize("env_name", ["env5", "envp", "env2", "env0"])
def test_build_witness_matches_rewriting(request, env_name):
    # one evaluation pass per binding and one separator counter give the
    # witness of rewriting the terms after every binding, whose separators
    # are a consecutive run a b^p a, a b^(p+1) a, ...
    env = request.getfixturevalue(env_name)
    a, b = env.symbols[:2]
    rng = random.Random("witness/" + env_name)
    for _ in range(150 * FUZZ_SCALE):
        phi = normalize_formula(rand_formula(rng, env, 2))
        assignment = {atom: rng.random() < 0.5 for atom in prop_alphabet(phi)}
        expected, separators = rewriting_witness(env, phi, assignment)
        assert _witness_key(build_witness(env, phi, assignment)) == \
            _witness_key(expected)
        first = len(separators[0]) - 2 if separators else 0
        assert separators == [a + b * (first + k) + a for k in range(len(separators))]


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


def test_an_accepted_answer_builds_one_realization(env3, e1, anbncn, monkeypatch):
    built = []

    class Counted(Realization):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(logic, "Realization", Counted)
    for e, w in ((e1, "ab"), (e1, ""), (anbncn, "abc")):
        built.clear()
        witness = membership_general(env3, e, w)
        assert built == [witness.realization]
        assert brute_membership_fixed_r(witness.interpretation, witness.realization, e, w)
    built.clear()
    witness = null_general(env3, parse_expression("x b* y | sim(f(abx), f(y))", env3))
    assert built == [witness.realization] and witness.realization.assignment == {"x": "", "y": ""}


def test_contradiction_transfer_random(envp):
    # when the SAT search says contradiction, the bounded search agrees
    rng = random.Random(73)
    checked = 0
    for _ in range(120):
        base = rand_formula(rng, envp, 2)
        candidates = [
            normalize_formula(base),
            normalize_formula(Conn("and", (base, Conn("not", (base,))))),
        ]
        for phi in candidates:
            if sat_truth_table(phi) is None:
                checked += 1
                assert brute_satisfiable_free(envp, phi) is None
    assert checked >= 100


def test_separator_sequence_follows_the_worked_example(envf):
    # the recursion's separators grow: a b^2 a, then a b^3 a, then a b^4 a
    from constrex.syntax import subst_tree, term_of_word
    t1 = normalize_term(parse_term("(a)(g(a, baxc))", envf))
    v1 = normalize_term(parse_term("f(a, (a)(baxc))", envf))
    w1 = separator_word(envf, [t1, v1])
    assert w1 == "abba"
    t2 = normalize_term(subst_tree(envf, t1, {"x": w1}))
    v2 = normalize_term(subst_tree(envf, v1, {"x": w1}))
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


# ---------------------------------------------------------------------------
# the lazy, pruned general membership search against the eager one


def _eager_paths(env, e, w, memo):
    # every path, one letter at a time, as the search was first written;
    # memo maps each prefix of w to its paths
    if w not in memo:
        memo[w] = [(e2, chain + [X])
                   for e1, chain in _eager_paths(env, e, w[:-1], memo)
                   for e2, X in derive_expr(env, e1, w[-1])]
    return memo[w]


def _witness_view(interpretation, assignment):
    def spec(s):
        if isinstance(s, FiniteRelation):
            return tuple(sorted(s.tuples)), s.default
        return s.table

    return (tuple(sorted(assignment.items())),
            tuple(sorted((k, spec(v)) for k, v in interpretation.predicates.items())),
            tuple(sorted((k, spec(v)) for k, v in interpretation.functions.items())))


def _eager_membership(env, e, w, max_props=None, memo=None):
    # the first path whose end state is nullable, its witness rewound
    for derived, chain in _eager_paths(env, e, w, memo or {"": [(e, [])]}):
        witness = null_general(env, derived, max_props)
        if witness is not None:
            assignment = dict(witness.realization.assignment)
            for X in reversed(chain):
                for x, rep in X:
                    assignment[x] = "" if rep == "" else rep[0] + assignment.get(x, "")
            return _witness_view(witness.interpretation, assignment)
    return None


def _lazy_membership(env, e, w, max_props=None):
    witness = membership_general(env, e, w, max_props)
    if witness is None:
        return None
    return _witness_view(witness.interpretation, witness.realization.assignment)


@pytest.mark.parametrize("env_name, draws", [("envp", 220), ("env3", 80)])
def test_membership_general_matches_eager_search(request, env_name, draws):
    env = request.getfixturevalue(env_name)
    words = [""] + ["".join(t) for n in range(1, 5)
                    for t in itertools.product(env.symbols, repeat=n)]
    rng = random.Random(env_name)
    accepted = 0
    for _ in range(draws * FUZZ_SCALE):
        e = rand_expr(rng, env, 3)
        memo = {"": [(e, [])]}
        for w in words:
            expected = _eager_membership(env, e, w, memo=memo)
            assert _lazy_membership(env, e, w) == expected, (str(e), w)
            assert list(derive_paths(env, e, w)) == memo[w]
            accepted += expected is not None
    assert accepted >= 5 * draws * FUZZ_SCALE


def void_test(env, max_props):
    # letter_need gives None for a void state
    need = letter_need(env, max_props)
    return lambda e: need(e) is None


@pytest.mark.parametrize("text, void", [
    ("empty", True),
    ("a empty x", True),
    ("a (x | sim(x, a) && !sim(x, a))", True),
    ("empty + empty", True),
    ("empty + x", False),
    ("x -| empty", True),
    ("eps -| a x", True),
    ("eps -| x*", False),
    ("eps -| (x -| a)", True),
    ("eps -| (x -| y)", False),
    ("a -| b", False),
    ("empty | sim(x, x)", True),
    ("x | !(sim(x, a) -> sim(x, a))", True),
    ("x | sim(x, a) || !sim(x, a)", False),
    # one-sided as written, one atom both negated and not once normalized
    ("x | sim((xy)z, a) && !sim(x(yz), a)", True),
    ("x | sim(x, a) && (lt(x, a) || sim(a, x))", False),
    ("(eps -| a)*", False),
])
def test_void_test_shapes(env3, text, void):
    assert void_test(env3, 20)(parse_expression(text, env3)) is void


def test_void_test_walks_long_catenations(env3):
    letters = " ".join("ab" * (DEEP // 2))
    void = void_test(env3, 20)
    with recursion_headroom():
        assert not void(parse_expression(letters, env3))
        assert void(parse_expression(letters + " empty", env3))
        assert void(parse_expression("empty " + letters, env3))


def test_void_test_needs_no_search_for_one_sided_formulas(env3, monkeypatch):
    # no atom occurs both negated and not: all atoms at their polarity satisfy it
    def no_search(*_args):
        raise AssertionError("a one-sided formula went to the SAT search")

    monkeypatch.setattr(logic, "sat_truth_table", no_search)
    void = void_test(env3, 20)
    for text in ("x | sim((xy)z, a) && !sim(x(yz), b)",
                 "x | !(sim(x, a) || !lt(x, a) || !true) && lt(x, a)"):
        assert not void(parse_expression(text, env3))


def one_sided_by_definition(phi):
    # tags true, and, or and not only, no true under an odd number of nots,
    # and no atom both under an odd and an even number
    seen = set()

    def visit(node, positive):
        if type(node) is Atom:
            seen.add((node, positive))
            return True
        if node.tag not in (TRUE, AND, OR, NOT) or node.tag == TRUE and not positive:
            return False
        return all(visit(c, positive != (node.tag == NOT)) for c in node.children)

    return visit(phi, True) and not any((atom, not p) in seen for atom, p in seen)


def holds(phi, truth):
    # phi's value when each atom has its value in truth
    if type(phi) is Atom:
        return truth[phi]
    return connective(phi.tag)[1](*(holds(c, truth) for c in phi.children))


def test_one_sided_matches_its_definition(env3):
    # on seeded formulas over three atoms and all six connectives; a formula
    # it accepts holds when each atom takes the polarity it recorded
    rng = random.Random("one-sided")
    atoms = [parse_formula(text, env3) for text in ("sim(a, b)", "lt(a, x)", "sim(x, x)")]

    def formula(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice(atoms) if roll < 0.25 else Conn(rng.choice((TRUE, FALSE)))
        tag = rng.choice((AND, AND, OR, OR, NOT, NOT, IMPLIES))
        return Conn(tag, tuple(formula(depth - 1) for _ in range(1 if tag == NOT else 2)))

    verdicts = {True: 0, False: 0}
    for _ in range(400 * FUZZ_SCALE):
        phi = formula(4)
        polarity = {}
        one_sided = logic._one_sided(phi, polarity)
        assert one_sided is one_sided_by_definition(phi), str(phi)
        verdicts[one_sided] += 1
        if one_sided:
            assert holds(phi, polarity), str(phi)
    assert min(verdicts.values()) >= 40 * FUZZ_SCALE, verdicts


def test_void_test_decides_each_formula_once_per_query(env3, monkeypatch):
    # the formula is not one-sided and its states repeat, so the void test
    # asks the SAT search once and the empty-word test once, at any length
    calls = []

    def counting(*args):
        calls.append(args)
        return sat_truth_table(*args)

    monkeypatch.setattr(logic, "sat_truth_table", counting)
    e = parse_expression("(a + b)* | sim(a, b) && (!sim(a, b) || lt(a, b))", env3)
    for m in (250, 500):
        calls.clear()
        assert membership_general(env3, e, "ab" * m) is not None
        assert len(calls) == 2, m


def test_void_states_denote_nothing(envp):
    # a cut state has no satisfiable indicator pair, and no sampled bounded
    # (I, r) accepts a short word on it
    rng = random.Random(113)
    void = void_test(envp, 20)
    interps = sample_interpretations(envp, 8)
    words = [""] + ["".join(t) for n in range(1, 4)
                    for t in itertools.product("ab", repeat=n)]
    cut = 0
    for _ in range(40 * FUZZ_SCALE):
        e = rand_expr(rng, envp, 3)
        roll = rng.random()
        if roll < 0.3:
            phi = rand_formula(rng, envp, 1)
            e = Constraint(e, Conn("and", (phi, Conn("not", (phi,)))))
        elif roll < 0.5:
            e = Match("", e)
        states = {e}
        for w in ("a", "b", "ab", "ba"):
            states.update(s for s, _chain in derive_paths(envp, e, w))
        for s in sorted(states, key=str):
            if not void(s):
                continue
            cut += 1
            assert all(satisfiable_free(envp, phi) is None
                       for _xs, phi in indicator_set(envp, s)), str(s)
            for interp in interps:
                for r in realizations(envp, expr_variables(envp, s), 1):
                    for w in words:
                        assert not brute_membership_fixed_r(interp, r, s, w), (str(s), w)
    assert cut >= 60 * FUZZ_SCALE


@pytest.mark.parametrize("env_name, draws", [("env3", 60), ("envp", 60)])
def test_letter_need_holds_on_accepted_words(request, env_name, draws):
    # checked against the oracle only: every word of at most 4 letters that a
    # sampled (I, r) accepts holds at least the letters the state needs, and
    # a state that letter_need finds void (None) accepts none
    env = request.getfixturevalue(env_name)
    rng = random.Random("need " + env_name)
    need = letter_need(env, 20)
    interps = sample_interpretations(env, 8)
    words = [""] + ["".join(t) for n in range(1, 5)
                    for t in itertools.product(env.symbols, repeat=n)]
    held = {w: (len(w), *(w.count(a) for a in env.symbols)) for w in words}
    checked = 0
    for _ in range(draws * FUZZ_SCALE):
        e = rand_expr(rng, env, 3)
        states = {e}
        for w in ("a", "ba"):
            states.update(s for s, _chain in derive_paths(env, e, w))
        for s in sorted(states, key=str):
            wanted = need(s)
            for _ in range(3):
                interp, r = rng.choice(interps), rand_realization(rng, env)
                for w in words:
                    if brute_membership_fixed_r(interp, r, s, w):
                        assert wanted is not None, (str(s), w)
                        assert all(map(operator.le, wanted, held[w])), (str(s), w)
                        checked += any(wanted)
    assert checked >= 2 * draws * FUZZ_SCALE, checked


def _need_reference(env, e, void):
    """letter_need's bottom-up definition, one frame per node; void(phi)
    says whether a constraint's formula makes it void."""
    if isinstance(e, Word):
        counts = tuple(e.letters.count(a) for a in env.symbols)
        return (sum(counts), *counts)
    if isinstance(e, Star):
        return (0,) * (len(env.symbols) + 1)
    if isinstance(e, (Cat, Sum)):
        left, right = _need_reference(env, e.left, void), _need_reference(env, e.right, void)
        if isinstance(e, Cat):
            return None if left is None or right is None else tuple(map(operator.add, left, right))
        if left is None or right is None:
            return right if left is None else left
        return tuple(map(min, left, right))
    if isinstance(e, Match):
        child = _need_reference(env, e.child, void)
        if child is None or (e.word == "" and child[0]):
            return None
        return tuple(map(max, _need_reference(env, Word(e.word), void), child))
    if isinstance(e, Constraint):
        child = _need_reference(env, e.child, void)
        return None if child is None or void(e.formula) else child
    return None     # Empty


def _const_null_reference(e):
    """const_null's bottom-up definition, one frame per node."""
    if isinstance(e, Word):
        return e.letters == ""
    if isinstance(e, Cat):
        return _const_null_reference(e.left) and _const_null_reference(e.right)
    if isinstance(e, Sum):
        return _const_null_reference(e.left) or _const_null_reference(e.right)
    if isinstance(e, Match):
        return e.word == "" and _const_null_reference(e.child)
    return isinstance(e, Star)  # Empty and Constraint: False


def _never_null_reference(env, e):
    """never_null's bottom-up definition, one frame per node: a word
    forces a letter unless all its letters are variables."""
    if isinstance(e, Word):
        return not all(map(env.is_variable, e.letters))
    if isinstance(e, Cat):
        return _never_null_reference(env, e.left) or _never_null_reference(env, e.right)
    if isinstance(e, Sum):
        return _never_null_reference(env, e.left) and _never_null_reference(env, e.right)
    if isinstance(e, Match):
        return not all(map(env.is_variable, e.word)) or _never_null_reference(env, e.child)
    if isinstance(e, Constraint):
        return _never_null_reference(env, e.child)
    return not isinstance(e, Star)  # Empty: True


@pytest.mark.parametrize("env_name", ["env3", "envp", "envq"])
def test_nullability_and_need_match_the_recursive_definitions(request, env_name):
    # const_null, never_null and letter_need asked in random order along the
    # paths of each draw, whose states share subtrees and so stored needs;
    # some draws hold a constraint that no (I, r) satisfies, which
    # letter_need reads as void and never_null must not
    env = request.getfixturevalue(env_name)
    rng = random.Random("nullability " + env_name)
    need = letter_need(env, 20)

    def void(phi):
        return need(Constraint(Word(""), phi)) is None

    for _ in range(200 * FUZZ_SCALE):
        e = rand_expr(rng, env, 4)
        roll = rng.random()
        if roll < 0.4:
            phi = rand_formula(rng, env, 1)
            e = Constraint(e, Conn("and", (phi, Conn("not", (phi,)))))
            if roll < 0.2:
                e = Sum(rand_expr(rng, env, 2), e)
        states = [e]
        for w in ("a", "ab"):
            states += [s for s, _chain in derive_paths(env, e, w)]
        for s in states:
            for check in rng.sample(range(3), 3):
                if check == 0:
                    assert const_null(s) == _const_null_reference(s), str(s)
                elif check == 1:
                    assert never_null(env, s) == _never_null_reference(env, s), str(s)
                else:
                    assert need(s) == _need_reference(env, s, void), str(s)


def test_stored_needs_stay_right_across_threads(envp):
    # four threads ask the same nodes, two under envp and two under an
    # environment that reads x and y as symbols, so each overwrites the
    # needs the others stored; a reader must take only a need stored under
    # its own environment
    envs = [envp, parse_environment("alphabet: a b x y\npredicates: p/1 q/2\n"
                                    "functions: f/1 g/2")]
    rng = random.Random("threads")
    states = []
    for _ in range(40 * FUZZ_SCALE):
        e = rand_expr(rng, envp, 4)
        states += [e] + [s for s, _chain in derive_paths(envp, e, "ab")]
    # no constraint of these draws is unsatisfiable
    expected = {env: [(_never_null_reference(env, s),
                       _need_reference(env, s, lambda phi: False)) for s in states]
                for env in envs}
    failures = []

    def ask(env):
        need = letter_need(env, 20)
        for _ in range(100):
            if [(never_null(env, s), need(s)) for s in states] != expected[env]:
                failures.append(env)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(envs[i % 2],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


def test_letter_need_matches_the_recursive_definition(env3, envp):
    rng = random.Random("need reference")
    for env in (env3, envp):
        need = letter_need(env, 20)

        def void(phi):
            return need(Constraint(Word(""), phi)) is None

        for _ in range(300 * FUZZ_SCALE):
            e = rand_expr(rng, env, 4)
            assert need(e) == _need_reference(env, e, void), str(e)


@pytest.mark.parametrize("text", [
    " + ".join(["a b", "x", "empty", "b a c"] * 300),
    "a + (" * 1199 + "b" + ")" * 1199,
    "a -| " * 600 + "ab -| (x a | sim(x, a)) -| " * 300 + "(a + b)*",
    "(" * 999 + "a" + " a)" * 999,
], ids=["sum-left", "sum-right", "match-and-constraint-chain", "cat-left"])
def test_letter_need_loops_over_chains(env3, text):
    e = parse_expression(text, env3)
    need = letter_need(env3, 20)
    with recursion_headroom():
        got = need(e)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        assert got == _need_reference(env3, e, lambda phi: False)
    finally:
        sys.setrecursionlimit(limit)


def test_unsatisfiable_constraint_is_cut_at_once(env3):
    # the eager search took 22 s at 16 letters; the cut leaves no path at all
    e = parse_expression("(x y + a)* z | sim(f(x), f(y)) && !sim(f(x), f(y))", env3)
    start = time.perf_counter()
    assert membership_general(env3, e, "ab" * 20) is None
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "w, most",
    [("ab" * 6, 0), ("ab" * 3 + "c" + "ab" * 3, 1100), ("ab" * 3 + "c" + "ab" * 3, 250)],
)
def test_states_short_of_letters_are_cut(env3, monkeypatch, w, most):
    # the input needs a c: with none in the word it is cut at once, and
    # after the c every state that still needs one is cut; _derive runs
    # once per state derived, 130 times with the cut on the second word,
    # and the search without the cut calls it 569 and 497 times; 1100 is
    # the bound from when _derive recursed, once per node, and 250 the
    # bound for one call per state
    e = parse_expression("(x y + a)* c | sim(f(x), f(y))", env3)
    calls = [0]
    derive = derivation._derive

    def counted(*args):
        calls[0] += 1
        return derive(*args)

    monkeypatch.setattr(derivation, "_derive", counted)
    assert membership_general(env3, e, w) is None
    assert calls[0] <= most


def test_accepting_a_catenation_counts_each_word_once(env3, monkeypatch):
    # each derived state shares the rest of the catenation with the state
    # before it, whose need is stored: the words counted grow linearly in n
    calls = [0]
    count = derivation._count

    def counted(*args):
        calls[0] += 1
        return count(*args)

    monkeypatch.setattr(derivation, "_count", counted)
    counts = []
    for n in (1000, 2000):
        w = "ab" * (n // 2)
        calls[0] = 0
        assert membership_general(env3, parse_expression(" ".join(w), env3), w)
        counts.append(calls[0])
    assert counts[1] <= 2 * counts[0], counts


def test_constraint_over_the_limit_is_not_cut(env3):
    # 4 atoms over a limit of 3: the constraint counts as satisfiable, so the
    # search reaches it and gives the answer or the error of the eager one
    big = parse_formula("(sim(x, a) || lt(x, b)) && !(sim(x, a) || lt(x, b)) "
                        "&& sim(y, y) && lt(y, y)", env3)
    x = parse_expression("x", env3)
    assert not void_test(env3, 3)(Constraint(x, big))
    assert void_test(env3, 4)(Constraint(x, big))
    a, ax = Word("a"), Word("ax")
    # derived by a, the constraint's state is the only one, then the first
    for e in (Constraint(ax, big), Sum(Constraint(a, big), ax)):
        with pytest.raises(TruthTableLimitError):
            _eager_membership(env3, e, "a", 3)
        with pytest.raises(TruthTableLimitError):
            membership_general(env3, e, "a", 3)
    e = Sum(a, Constraint(ax, big))
    assert _lazy_membership(env3, e, "a", 3) == _eager_membership(env3, e, "a", 3)
    assert _lazy_membership(env3, e, "a", 3) is not None
    # a formula below a cut state never reaches the SAT search: the eager
    # search conjoins the unsatisfiable one with big and hits the limit
    e = parse_expression("(a | sim(x, a) && !sim(x, a)) (y | %s)" % big, env3)
    with pytest.raises(TruthTableLimitError):
        _eager_membership(env3, e, "a", 3)
    assert membership_general(env3, e, "a", 3) is None
    # the empty word goes through the same cut
    e = parse_expression("(eps | sim(x, a) && !sim(x, a)) "
                         "(y | lt(y, a) && lt(y, b) && lt(y, c))", env3)
    with pytest.raises(TruthTableLimitError):
        _eager_membership(env3, e, "", 3)
    assert membership_general(env3, e, "", 3) is None


def test_engines_leave_no_cyclic_garbage(env3):
    # no fold visit names itself, so reference counting frees every object
    # a query makes and the cyclic collector finds none
    free = parse_expression("x y z | sim(x, y) && !sim(y, z)", env3)
    phi = parse_formula("lt(f(ab), f(x)) && !sim(x, ab)", env3)
    fixed = parse_expression("x b* y | sim(f(x), f(y))", env3)
    interp = Interpretation(env3, {"sim": "eq", "lt": "lenleq"}, {"f": "projA"})
    r = Realization(env3, {"x": "aba", "y": "aa"})
    gc.collect()
    gc.disable()
    try:
        assert membership_general(env3, free, "abcabc") is not None
        assert satisfiable_free(env3, phi) is not None
        assert membership_fixed(interp, r, fixed, "ababbbaa")
        assert gc.collect() == 0
    finally:
        gc.enable()
