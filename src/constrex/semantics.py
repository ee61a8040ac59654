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
from functools import partial
from itertools import islice

from .derivation import _derive
from .errors import ConfigError
from .syntax import (
    CAT, EPSILON,
    App, Atom, Cat, Conn, Constraint, Empty, Environment, Expr, Formula, Match,
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
    on first use; so is each table, which must be a tuple or set, each
    entry of a table function, which must be a (row, value) pair, each row
    of a table, a relation's tuple or a table function's arguments, which
    must be a tuple of the symbol's arity, each word in a table, which must
    be a str of symbols, and a relation's default, which must be a bool.
    """

    def __init__(self, env: Environment,
                 predicates: Mapping[str, PredicateSpec] | None = None,
                 functions: Mapping[str, FunctionSpec] | None = None):
        self.env = env
        self.predicates = dict(predicates or {})
        self.functions = dict(functions or {})
        symbols = "".join(env.symbols)  # a word of them strips to ""
        for kind, specs, builtins, spec_type, arity_of, allowed in (
                ("predicate", self.predicates, BUILTIN_PREDICATES, FiniteRelation,
                 env.predicate_arity, "a builtin name or a FiniteRelation"),
                ("function", self.functions, BUILTIN_FUNCTIONS, TableFunction,
                 env.function_arity, "a builtin name, argcat or a TableFunction")):
            for name, spec in specs.items():
                arity = arity_of(name)
                if isinstance(spec, spec_type):
                    table = spec.table if kind == "function" else spec.tuples
                    if not isinstance(table, (tuple, frozenset, set)):
                        raise ConfigError("%s %r has the table %r, not a tuple or set of rows"
                                          % (kind, name, table))
                    if kind == "predicate":
                        if type(spec.default) is not bool:
                            raise ConfigError("predicate %r has the default %r, not a bool"
                                              % (name, spec.default))
                        table = [(t, "") for t in table]
                    for entry in table:
                        if type(entry) is not tuple or len(entry) != 2:
                            raise ConfigError("function %r has the entry %r, not a (row,"
                                              " value) pair" % (name, entry))
                        row, value = entry
                        if type(row) is not tuple or len(row) != arity:
                            raise ConfigError("%s %r has the row %r, not a %d-tuple"
                                              % (kind, name, row, arity))
                        for w in (*row, value):
                            if not isinstance(w, str) or w.strip(symbols):
                                raise ConfigError("%s %r has %r in its table, not a word"
                                                  " over the symbols" % (kind, name, w))
                    continue
                if spec == ARGCAT and kind == "function":
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
        symbols = "".join(env.symbols)  # a word of them strips to ""
        for x, w in self.assignment.items():
            if not env.is_variable(x):
                raise ConfigError("%r is not a variable" % x)
            if not isinstance(w, str) or w.strip(symbols):
                raise ConfigError("realization image %r is not over the alphabet" % (w,))

    def __call__(self, x: str) -> str:
        return self.assignment.get(x, "")

    def realize(self, alpha: str) -> str:
        """Homomorphic extension to mixed words."""
        return "".join(self(c) if self.env.is_variable(c) else c for c in alpha)


def _evaluator(interp: Interpretation, r: Realization, match, node, values):
    """The fold visit of evaluation under (I, r), bound to them and to match
    with `functools.partial`: a term gives its word, a formula its truth
    value and an expression its regular form, in which `match(v, F)` stands
    for each `w -| E` that realizes to v and whose E evaluates to F. An
    atom's terms go through eval_term, so the visit names nothing but its
    arguments and module functions."""
    kind = type(node)
    if kind is Var:
        return r(node.name)
    if kind is App:
        return interp.eval_function(node.fn, tuple(values))
    if kind is Atom:
        return interp.eval_predicate(
            node.pred, tuple(eval_term(interp, r, t) for t in node.args))
    if kind is Conn:
        return bool(connective(node.tag)[1](*values))
    if kind is Word:
        return Word(r.realize(node.letters))
    if kind is Match:
        return match(r.realize(node.word), values[0])
    if kind is Constraint:
        child, holds = values
        return child if holds else Empty()
    return rebuild(node, values)


def eval_term(interp: Interpretation, r: Realization, t: Term) -> str:
    return fold(t, partial(_evaluator, interp, r, Match))


def eval_formula(interp: Interpretation, r: Realization, phi: Formula) -> bool:
    return fold(phi, partial(_evaluator, interp, r, Match))


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
# `regularize` keeps each match, for printing. `membership_fixed` decides
# each one in the same fold instead: {v} & L(E) is the word v or nothing,
# so it becomes Word(v) or Empty(), and the word is then derived through a
# form with no match. Kept as a Match, `v -| F` would be derived in lockstep
# with the word, and every letter would make a set not met before.
#
# A regular form has finitely many partial derivatives, so its derivative
# sets are the states of a finite automaton. `regex_word_derivative` builds
# that automaton lazily, for one call: it remembers the move from a set by a
# letter once the set has been met before, so a set met again costs a dict
# lookup and is never derived again. A remembered set and its successor
# pass through one dict, so one object stands for each set, and a move is
# found by identity without comparing states. A set met for the first time
# keeps only its hash, because a word whose sets never repeat would
# otherwise hold every state it passed. A set of one state whose left
# catenation spine ends at a word reads the letters that word shares with
# the rest of the input in one step: the derivative by a word composes its
# letters' derivatives, so `u v F` by u is `v F`. Under a fixed realization
# each variable's image is such a literal run, so a^n b^n c^n costs the
# same few derivations for every n. The walk stops at the first empty set.

# declares no variable, so every letter reads as a symbol
_REGULAR = Environment((EPSILON,))


def regularize(interp: Interpretation, r: Realization, e: Expr) -> Expr:
    """The variable-free, constraint-free expression with the same
    (I,r)-language; each match stays a Match, which `regex_str` prints as
    an intersection."""
    return fold(e, partial(_evaluator, interp, r, Match))


def regex_derivative(rx: Expr, a: str) -> frozenset:
    """Antimirov partial derivative of a regular form w.r.t. one symbol: the
    states of its constrained derivative, as a set."""
    return frozenset(d for d, _X in _derive(_REGULAR, rx, a))


def _read_literal(e: Expr, w: str, i: int):
    """(the derivative set of e by w[i:i+k], k) when e's left catenation
    spine, the `Cat.left` nodes down from e, ends at a word that shares
    k >= 1 letters with w[i:], else None. The set holds one state: the word
    cut to its letters after the k, under the spine rebuilt above it. A
    spine over a non-empty word is never null in a form with no variables,
    so per-letter derivation pushes no guard and reaches that state too."""
    head = e
    while type(head) is Cat:
        head = head.left
    if type(head) is not Word or head.letters[:1] != w[i]:
        return None
    letters = head.letters
    part = w[i:i + len(letters)]
    k = len(part)
    if not letters.startswith(part):
        k = next(j for j, (x, y) in enumerate(zip(letters, part)) if x != y)
    spine = []
    while e is not head:
        spine.append(e.right)
        e = e.left
    e = Word(letters[k:])
    for right in reversed(spine):
        e = Cat(e, right)
    return frozenset({e}), k


def regex_word_derivative(rx: Expr, w: str) -> frozenset:
    """The Antimirov derivative set of a regular form w.r.t. a word.

    Each derivative set is a state of a finite automaton that is built
    lazily, for this call only: the move `(set, letter) -> next set` is kept
    once the set has been met before, so a set met again costs a dict
    lookup. The sets of a kept move pass through `one`, which maps each to
    the first object made for it, so the walk goes on from that object and
    the next lookup matches its key by identity. A set met for the first
    time leaves only its hash behind, so the memory of a word whose sets
    never repeat is a set of ints, not every state with its suffix words.

    A set of one state met for the first time, whose left catenation spine
    ends at a word, reads the letters that word shares with the rest of w
    in one step (`_read_literal`); a set met before has failed that read.
    This holds because a derivative by a word is the composition of its
    letters' derivatives, so a literal run u of the form `u v F` leaves
    `v F`. The empty set is returned as soon as a step leaves no state,
    since no later letter can revive it.
    """
    state = frozenset({rx})
    seen = set()        # the hashes of the sets derived so far
    moves = {}          # (set, letter) -> next set, for sets seen before
    one = {}            # each set of a kept move -> the one object for it
    rest = enumerate(w)
    for i, a in rest:
        after = moves.get((state, a))
        if after is None:
            known = hash(state) in seen
            if not known and len(state) == 1:
                read = _read_literal(*state, w, i)
                if read is not None:
                    state, k = read
                    next(islice(rest, k - 1, k - 1), None)  # skip the rest of the run
                    continue
            after = frozenset(d for r0 in state for d, _X in _derive(_REGULAR, r0, a))
            if known:
                state = one.setdefault(state, state)
                after = moves[state, a] = one.setdefault(after, after)
            else:
                seen.add(hash(state))
            if not after:
                return after
        state = after
    return state


def membership_fixed(interp: Interpretation, r: Realization, e: Expr, w: str) -> bool:
    """Decide w in the (I,r)-language via regularization and derivatives.

    The fold that regularizes e decides each match as it goes: `v -| F`
    becomes Word(v) when v is in L(F) and Empty() otherwise. A v longer
    than w becomes Empty() without a derivation: no word that long is part
    of w, so the words the match takes away are all longer than w.
    """
    def decide(v: str, body: Expr) -> Expr:
        if len(v) <= len(w) and any(d.null for d in regex_word_derivative(body, v)):
            return Word(v)
        return Empty()

    rx = fold(e, partial(_evaluator, interp, r, decide))
    return any(d.null for d in regex_word_derivative(rx, w))
