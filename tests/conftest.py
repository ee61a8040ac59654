"""Shared fixtures and seeded random generators for the property suites."""

import os
import random

import pytest

from constrex import (
    Cat, Constraint, Empty, Interpretation, Match, Realization, Star, Word,
    parse_environment, parse_expression, sum_expr,
)
from constrex.logic import word_skeletons
from constrex.syntax import AND, IMPLIES, NOT, OR, App, Atom, Conn, Var

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


@pytest.fixture
def envp():
    # property-suite environment: two symbols, two variables
    return parse_environment(
        "alphabet: a b\nvariables: x y\npredicates: p/1 q/2\nfunctions: f/1 g/2")


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


def factors(env, terms):
    """All contiguous subwords of all middle words of the given terms."""
    out = {""}
    for t in terms:
        for w in word_skeletons(env, t)[2]:
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    out.add(w[i:j])
    return frozenset(out)


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
    """A random sum-only constrained expression."""
    letters = list(env.symbols) + list(env.variables)
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return Word(rand_word(rng, letters))
    if roll < 0.34:
        return Empty()
    if roll < 0.54:
        return Cat(rand_expr(rng, env, depth - 1), rand_expr(rng, env, depth - 1))
    if roll < 0.68:
        return sum_expr(rand_expr(rng, env, depth - 1), rand_expr(rng, env, depth - 1))
    if roll < 0.8:
        return Star(rand_expr(rng, env, depth - 1))
    if roll < 0.92:
        return Constraint(rand_expr(rng, env, depth - 1), rand_formula(rng, env, 1))
    return Match(rand_word(rng, letters), rand_expr(rng, env, depth - 1))


def rand_realization(rng, env, max_len=2):
    return Realization(env, {
        x: rand_word(rng, list(env.symbols), max_len) for x in env.variables})
