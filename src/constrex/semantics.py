"""Interpretations, realizations, evaluation and the fixed-(I,r) engine.

An expression interpretation fixes the domain to words over the symbol
alphabet, sends each constant to itself and the catenation symbol to word
catenation. User predicate symbols are bound to builtin relations or finite
tables (with a default polarity, so co-finite relations are expressible);
user function symbols to builtin functions or to finite override tables, on
whose misses a function catenates its arguments.
"""

from __future__ import annotations

from collections.abc import Mapping

from .derivation import _derive
from .errors import ConfigError
from .syntax import (
    CAT, EPSILON,
    App, Atom, Conn, Constraint, Empty, Environment, Expr, Formula, Match,
    Term, Var, Word, _Value, connective, fold, rebuild, regex_str,
)


def _rev(w: str) -> str:
    return w[::-1]


# Builtin relations and functions; enough to express every interpretation
# the worked examples and tests rely on.
BUILTIN_PREDICATES = {
    "eq": (2, lambda env, u, v: u == v),
    "leneq": (2, lambda env, u, v: len(u) == len(v)),
    "lenleq": (2, lambda env, u, v: len(u) <= len(v)),
    "nonempty": (1, lambda env, u: u != ""),
    "reveq": (2, lambda env, u, v: u == _rev(v)),
}

BUILTIN_FUNCTIONS = {
    "rev": (1, lambda env, u: _rev(u)),
    "projA": (1, lambda env, u: env.symbols[0] * u.count(env.symbols[0])),
    "cat": (2, lambda env, u, v: u + v),
    "revcat": (2, lambda env, u, v: v + u),
    "dupcat": (2, lambda env, u, v: u + u + v),
}

ARGCAT = "argcat"  # k-ary default: left-to-right catenation of the arguments


class FiniteRelation(_Value):
    """Tuples carrying the non-default truth value; co-finite via default=True."""

    __slots__ = ("tuples", "default")

    def __init__(self, tuples: frozenset, default: bool = False):
        self.tuples = tuples
        self.default = default

    def holds(self, args: tuple) -> bool:
        return (args in self.tuples) != self.default


class TableFunction(_Value):
    """A finite override table; arguments it does not list are catenated."""

    __slots__ = ("table",)  # sorted ((args, value), ...) pairs
    # a class constant, not a slot, so neither equality nor the repr reads
    # it; it stays, because bench/run.py's witness key reads it
    default = ARGCAT

    def __init__(self, table: tuple):
        self.table = table

    @staticmethod
    def from_dict(table: Mapping) -> "TableFunction":
        return TableFunction(tuple(sorted(table.items())))

    def lookup(self, args: tuple) -> str | None:
        for key, value in self.table:
            if key == args:
                return value
        return None


PredicateSpec = str | FiniteRelation
FunctionSpec = str | TableFunction


class Interpretation:
    """Bindings for the user predicate and function symbols of an environment.

    A predicate is bound to a builtin name or a FiniteRelation, a function to
    a builtin name, argcat or a TableFunction. Each binding is checked when
    the interpretation is built, so a bad one raises ConfigError here and not
    on first use.
    """

    def __init__(self, env: Environment,
                 predicates: Mapping[str, PredicateSpec] | None = None,
                 functions: Mapping[str, FunctionSpec] | None = None):
        self.env = env
        self.predicates = dict(predicates or {})
        self.functions = dict(functions or {})
        for kind, specs, builtins, spec_type, arity_of, allowed in (
                ("predicate", self.predicates, BUILTIN_PREDICATES, FiniteRelation,
                 env.predicate_arity, "a builtin name or a FiniteRelation"),
                ("function", self.functions, BUILTIN_FUNCTIONS, TableFunction,
                 env.function_arity, "a builtin name, argcat or a TableFunction")):
            for name, spec in specs.items():
                arity = arity_of(name)
                if isinstance(spec, spec_type) or spec == ARGCAT and kind == "function":
                    continue
                if not isinstance(spec, str):
                    raise ConfigError("%s %r is bound to %r, not %s" % (kind, name, spec, allowed))
                if spec not in builtins:
                    raise ConfigError("unknown builtin %s %r" % (kind, spec))
                if builtins[spec][0] != arity:
                    raise ConfigError("builtin %r has arity %d, %r needs %d"
                                      % (spec, builtins[spec][0], name, arity))

    def eval_predicate(self, name: str, args: tuple) -> bool:
        spec = self.predicates.get(name)
        if spec is None:
            raise ConfigError("predicate %r is not bound by the interpretation" % name)
        if isinstance(spec, FiniteRelation):
            return spec.holds(args)
        return BUILTIN_PREDICATES[spec][1](self.env, *args)

    def eval_function(self, name: str, args: tuple) -> str:
        if name == EPSILON:
            return ""
        if name == CAT:
            return args[0] + args[1]
        if self.env.is_symbol(name):
            return name
        spec = self.functions.get(name)
        if spec is None:
            raise ConfigError("function %r is not bound by the interpretation" % name)
        if isinstance(spec, TableFunction):
            hit = spec.lookup(args)
            if hit is not None:
                return hit
        elif spec != ARGCAT:
            return BUILTIN_FUNCTIONS[spec][1](self.env, *args)
        return "".join(args)


class Realization:
    """A total map from variables to plain words, defaulting to the empty word."""

    def __init__(self, env: Environment, assignment: Mapping[str, str] | None = None):
        self.env = env
        self.assignment = dict(assignment or {})
        for x, w in self.assignment.items():
            if not env.is_variable(x):
                raise ConfigError("%r is not a variable" % x)
            for c in w:
                if not env.is_symbol(c):
                    raise ConfigError("realization image %r is not over the alphabet" % w)

    def __call__(self, x: str) -> str:
        return self.assignment.get(x, "")

    def realize(self, alpha: str) -> str:
        """Homomorphic extension to mixed words."""
        return "".join(self(c) if self.env.is_variable(c) else c for c in alpha)


def _evaluator(interp: Interpretation, r: Realization):
    """The fold visit of evaluation under (I, r): a term gives its word, a
    formula its truth value and an expression its regular form."""
    def visit(node, values):
        kind = type(node)
        if kind is Var:
            return r(node.name)
        if kind is App:
            return interp.eval_function(node.fn, tuple(values))
        if kind is Atom:
            return interp.eval_predicate(
                node.pred, tuple(fold(t, visit) for t in node.args))
        if kind is Conn:
            return bool(connective(node.tag)[1](*values))
        if kind is Word:
            return Word(r.realize(node.letters))
        if kind is Match:
            return Match(r.realize(node.word), values[0])
        if kind is Constraint:
            child, holds = values
            return child if holds else Empty()
        return rebuild(node, values)

    return visit


def eval_term(interp: Interpretation, r: Realization, t: Term) -> str:
    return fold(t, _evaluator(interp, r))


def eval_formula(interp: Interpretation, r: Realization, phi: Formula) -> bool:
    return fold(phi, _evaluator(interp, r))


# ---------------------------------------------------------------------------
# regular forms: regularization and their derivatives
#
# Under a fixed (I, r) an expression is regular: realizing every word and
# deciding every constraint leaves an expression of Word, Empty, sum, Cat,
# Star and Match nodes over symbols only, where `w -| E` reads {w} & L(E);
# `regex_str` prints it in that reading. Such a form has no variables, so
# the constrained derivative of `derivation` derives it under an environment
# that declares none, and there its rules are Antimirov's partial
# derivatives; the substitution sets all come back empty.
#
# A regular form has finitely many partial derivatives, so its derivative
# sets are the states of a finite automaton. `regex_word_derivative` builds
# that automaton lazily, for one call: it remembers the move from a set by a
# letter once the set has been met before, so a set met again costs a dict
# lookup and is never derived again. A set met for the first time keeps
# only its hash, because a word whose sets never repeat (a^n b^n c^n under
# a fixed realization) would otherwise hold every state it passed.

# declares no variable, so every letter reads as a symbol
_REGULAR = Environment((EPSILON,))


def regularize(interp: Interpretation, r: Realization, e: Expr) -> Expr:
    """The variable-free, constraint-free expression with the same
    (I,r)-language."""
    return fold(e, _evaluator(interp, r))


def regex_derivative(rx: Expr, a: str) -> frozenset:
    """Antimirov partial derivative of a regular form w.r.t. one symbol: the
    states of its constrained derivative, as a set."""
    return frozenset(d for d, _X in _derive(_REGULAR, rx, a))


def regex_word_derivative(rx: Expr, w: str) -> frozenset:
    """The Antimirov derivative set of a regular form w.r.t. a word.

    Each derivative set is a state of a finite automaton that is built
    lazily, for this call only: the move `(set, letter) -> next set` is kept
    once the set has been met before, so a set met again costs a dict
    lookup. A set met for the first time leaves only its hash behind, so
    the memory of a word whose sets never repeat is a set of ints, not
    every state with its suffix words.
    """
    state = frozenset({rx})
    seen = set()        # the hashes of the sets derived so far
    moves = {}          # (set, letter) -> next set, for sets seen before
    for a in w:
        after = moves.get((state, a))
        if after is None:
            after = frozenset(d for r0 in state for d, _X in _derive(_REGULAR, r0, a))
            if hash(state) in seen:
                moves[state, a] = after
            else:
                seen.add(hash(state))
        state = after
    return state


def membership_fixed(interp: Interpretation, r: Realization, e: Expr, w: str) -> bool:
    """Decide w in the (I,r)-language via regularization and derivatives."""
    rx = regularize(interp, r, e)
    return any(d.null for d in regex_word_derivative(rx, w))
