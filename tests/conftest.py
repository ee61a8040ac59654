"""Shared fixtures and seeded random generators for the property suites."""

import contextlib
import os
import random
import sys

import pytest

from constrex import (
    Cat, Constraint, Empty, FiniteRelation, Interpretation, Match, Realization,
    Star, Sum, TableFunction, Witness, Word,
    eval_term, normalize_formula, normalize_term, parse_environment,
    parse_expression, prop_alphabet, separator_word, term_of_word,
    term_str, terms_of_formula,
)
from constrex.syntax import (
    AND, CAT, EPSILON, IMPLIES, NOT, OR, App, Atom, Conn, Var,
    subst_tree, tree_variables,
)

ENV3_TEXT = """\
# running example: three symbols, three variables
alphabet: a b c
variables: x y z
predicates: sim/2 lt/2
functions: f/1
"""


@pytest.fixture
def env3():
    return parse_environment(ENV3_TEXT)


@pytest.fixture
def env2():
    # the evaluation example: P/1, Q/2, R/2 over f/1, g/2, h/2
    return parse_environment(
        "alphabet: a b\nvariables: x y z\npredicates: P/1 Q/2 R/2\nfunctions: f/1 g/2 h/2")


@pytest.fixture
def env5():
    # the injection example: lt/2, sim/2 over g/2
    return parse_environment(
        "alphabet: a b c\nvariables: x y z\npredicates: lt/2 sim/2\nfunctions: g/2")


# property-suite environment: two symbols, two variables
ENVP_TEXT = """\
alphabet: a b
variables: x y
predicates: p/1 q/2
functions: f/1 g/2
"""


@pytest.fixture
def envp():
    return parse_environment(ENVP_TEXT)


@pytest.fixture
def envq():
    # envp without variables: every letter is a symbol
    return parse_environment("alphabet: a b\npredicates: p/1 q/2\nfunctions: f/1 g/2")


# envp formulas whose witness needs the letters next to an application:
# when separator words did not see them, x, y and the application all got
# the same word and the witness was wrong
NEXT_TO_AN_APPLICATION = [
    "p(f(a) x) && !p(f(a) y)",
    "p(g(a, b) x) && !p(g(a, b) y)",
    "p(f(a) abba) && !p(f(a) x) && p(b)",
]


@pytest.fixture
def e1(env3):
    return parse_expression("x b* y | sim(f(x), f(y))", env3)


@pytest.fixture
def anbncn(env3):
    return parse_expression(
        "(x -| a*) (y -| b*) (z -| c*) | sim(x, y) && sim(y, z)", env3)


@pytest.fixture
def interp_len(env3):
    # the section-3 interpretation: sim is equality, lt compares lengths,
    # f projects onto the first symbol
    return Interpretation(env3, predicates={"sim": "eq", "lt": "lenleq"},
                          functions={"f": "projA"})


@pytest.fixture
def interp_leneq(env3):
    # the a^n b^n c^n interpretation: sim compares lengths
    return Interpretation(env3, predicates={"sim": "leneq", "lt": "lenleq"},
                          functions={"f": "projA"})


@pytest.fixture
def r1(env3):
    return Realization(env3, {"x": "aba", "y": "aa"})


@pytest.fixture
def r2(env3):
    return Realization(env3, {"x": "bbaa", "y": "abab"})


# ---------------------------------------------------------------------------
# seeded random generators

# Multiplies the iteration counts of the long differential suites; a larger
# value makes an opt-in longer fuzz run (CONSTREX_FUZZ_SCALE=20 pytest).
FUZZ_SCALE = int(os.environ.get("CONSTREX_FUZZ_SCALE", "1"))


def rand_word(rng, letters, max_len=3):
    return "".join(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def rand_term(rng, env, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        pool = list(env.variables) + list(env.symbols) + ["eps"]
        pick = rng.choice(pool)
        if pick == "eps":
            return App("ε")
        return Var(pick) if env.is_variable(pick) else App(pick)
    if roll < 0.7:
        return App("·", (rand_term(rng, env, depth - 1),
                              rand_term(rng, env, depth - 1)))
    name, arity = rng.choice(sorted(env.functions.items()))
    return App(name, tuple(rand_term(rng, env, depth - 1) for _ in range(arity)))


def rand_formula(rng, env, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        name, arity = rng.choice(sorted(env.predicates.items()))
        return Atom(name, tuple(rand_term(rng, env, 2) for _ in range(arity)))
    tag = rng.choice([NOT, AND, OR, IMPLIES])
    if tag == NOT:
        return Conn(NOT, (rand_formula(rng, env, depth - 1),))
    return Conn(tag, (rand_formula(rng, env, depth - 1),
                      rand_formula(rng, env, depth - 1)))


def rand_expr(rng, env, depth):
    """A random constrained expression."""
    letters = list(env.symbols) + list(env.variables)
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return Word(rand_word(rng, letters))
    if roll < 0.34:
        return Empty()
    if roll < 0.54:
        return Cat(rand_expr(rng, env, depth - 1), rand_expr(rng, env, depth - 1))
    if roll < 0.68:
        return Sum(rand_expr(rng, env, depth - 1), rand_expr(rng, env, depth - 1))
    if roll < 0.8:
        return Star(rand_expr(rng, env, depth - 1))
    if roll < 0.92:
        return Constraint(rand_expr(rng, env, depth - 1), rand_formula(rng, env, 1))
    return Match(rand_word(rng, letters), rand_expr(rng, env, depth - 1))


def rand_realization(rng, env, max_len=2):
    return Realization(env, {
        x: rand_word(rng, list(env.symbols), max_len) for x in env.variables})


# ---------------------------------------------------------------------------
# deep trees


@contextlib.contextmanager
def recursion_headroom(frames=50):
    """Hold the recursion limit at the caller's depth plus frames, so a
    traversal that recurses once per node of a deep tree fails."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


# catenation depth of the traversal tests: five times the default limit
DEEP = 5000


# ---------------------------------------------------------------------------
# the word skeletons of terms, the reference definition of separator words


def _concat_sets(s1: frozenset, s2: frozenset) -> frozenset:
    return frozenset(u + v for u in s1 for v in s2)


def word_skeletons(env, t):
    """(left words, right words, middle words) of a term.

    Leaves denoting a word contribute that word; opaque leaves (variables,
    other constants) contribute the empty word, since nothing is known about
    the letters they may produce. An application other than catenation is
    opaque at its edges too: its left and right words are the empty word,
    so the letters next to it stay in the middle words of the catenation
    around it, and its middle words are those of its arguments.
    """
    return _skeletons(env, t)[:3]


def _skeletons(env, t):
    """word_skeletons of t, and whether t is a ground word: a term over
    symbol constants, eps and catenation only."""
    if isinstance(t, Var) or not t.args:
        if isinstance(t, App) and env.is_symbol(t.fn):
            base = frozenset({t.fn})
        else:
            base = frozenset({""})
        return base, base, base, isinstance(t, App) and (
            t.fn == EPSILON or env.is_symbol(t.fn))
    if t.fn != CAT:
        middle = frozenset()
        for a in t.args:
            middle |= _skeletons(env, a)[2]
        return frozenset({""}), frozenset({""}), middle, False
    l1, r1, m1, w1 = _skeletons(env, t.args[0])
    l2, r2, m2, w2 = _skeletons(env, t.args[1])
    left = _concat_sets(l1, l2) if w1 else l1
    right = _concat_sets(r1, r2) if w2 else r2
    middle = _concat_sets(r1, l2)
    if not w1:
        middle |= m1
    if not w2:
        middle |= m2
    return left, right, middle, w1 and w2


def factors(env, terms):
    """All contiguous subwords of all middle words of the given terms."""
    out = {""}
    for t in terms:
        for w in word_skeletons(env, t)[2]:
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    out.add(w[i:j])
    return frozenset(out)


# ---------------------------------------------------------------------------
# the rewriting witness construction


def _replace_subterm(t, target, repl):
    if t == target:
        return repl
    if isinstance(t, App):
        return App(t.fn, tuple(_replace_subterm(a, target, repl) for a in t.args))
    return t


def _ground_apps(env, t, out):
    """Add to out the non-catenation applications in t whose arguments are
    all ground words; return whether t itself is a ground word."""
    if isinstance(t, Var):
        return False
    words = [_ground_apps(env, a, out) for a in t.args]
    if t.fn == CAT:
        return all(words)
    if t.fn == EPSILON or env.is_symbol(t.fn):
        return not t.args
    if all(words):
        out.add(t)
    return False


def _word_of_term(t):
    if t.fn == CAT:
        return _word_of_term(t.args[0]) + _word_of_term(t.args[1])
    return "" if t.fn == EPSILON else t.fn


def rewriting_witness(env, phi, assignment):
    """build_witness by rewriting, and its separators in binding order.

    Each binding is substituted into every term and the terms are
    re-normalized; the next separator word is that of the rewritten terms.
    Variables are bound first, smallest name first, then the ground
    application that prints first.
    """
    phi = normalize_formula(phi)
    terms = {normalize_term(t) for t in terms_of_formula(phi)}
    bindings, overrides, separators = {}, {}, []
    while True:
        variables = {v for t in terms for v in tree_variables(t)}
        if not variables:
            break
        x = min(variables)
        w = separator_word(env, terms)
        bindings[x] = w
        separators.append(w)
        terms = {normalize_term(subst_tree(env, t, {x: w})) for t in terms}
    while True:
        apps = set()
        for t in terms:
            _ground_apps(env, t, apps)
        if not apps:
            break
        app = min(apps, key=term_str)
        w = separator_word(env, terms)
        overrides.setdefault(app.fn, {})[tuple(_word_of_term(a) for a in app.args)] = w
        separators.append(w)
        repl = term_of_word(env, w)
        terms = {normalize_term(_replace_subterm(t, app, repl)) for t in terms}
    functions = {name: TableFunction.from_dict(overrides.get(name, {}))
                 for name in env.functions}
    realization = Realization(env, bindings)
    interp = Interpretation(env, functions=functions)
    tables = {name: set() for name in env.predicates}
    for atom in prop_alphabet(phi):
        if assignment[atom]:
            tables[atom.pred].add(
                tuple(eval_term(interp, realization, t) for t in atom.args))
    predicates = {name: FiniteRelation(frozenset(tuples))
                  for name, tuples in tables.items()}
    witness = Witness(Interpretation(env, predicates=predicates, functions=functions),
                      realization)
    return witness, separators
