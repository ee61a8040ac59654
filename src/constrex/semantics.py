"""Interpretations, realizations, evaluation and the fixed-(I,r) engine.

An expression interpretation fixes the domain to words over the symbol
alphabet, sends each constant to itself and the catenation symbol to word
catenation. User predicate symbols are bound to builtin relations or finite
tables (with a default polarity, so co-finite relations are expressible);
user function symbols to builtin functions or finite override tables backed
by a total default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .errors import ConfigError
from .syntax import (
    CAT, EPSILON,
    Atom, Bool, Cat, Constraint, Empty, Environment, Expr, Formula,
    Match, Star, Term, Var, Word, check_sum_only, connective,
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


@dataclass(frozen=True)
class FiniteRelation:
    """Tuples carrying the non-default truth value; co-finite via default=True."""

    tuples: frozenset
    default: bool = False

    def holds(self, args: tuple) -> bool:
        return (args in self.tuples) != self.default


@dataclass(frozen=True)
class TableFunction:
    """A finite override table evaluated before a total builtin default."""

    table: tuple  # sorted ((args, value), ...) pairs
    default: str = ARGCAT

    @staticmethod
    def from_dict(table: Mapping, default: str = ARGCAT) -> "TableFunction":
        return TableFunction(tuple(sorted(table.items())), default)

    def lookup(self, args: tuple) -> Optional[str]:
        for key, value in self.table:
            if key == args:
                return value
        return None


PredicateSpec = Union[str, FiniteRelation]
FunctionSpec = Union[str, TableFunction]


class Interpretation:
    """Bindings for the user predicate and function symbols of an environment."""

    def __init__(self, env: Environment,
                 predicates: Optional[Mapping[str, PredicateSpec]] = None,
                 functions: Optional[Mapping[str, FunctionSpec]] = None):
        self.env = env
        self.predicates = dict(predicates or {})
        self.functions = dict(functions or {})
        for name, spec in self.predicates.items():
            arity = env.predicate_arity(name)
            if isinstance(spec, str):
                if spec not in BUILTIN_PREDICATES:
                    raise ConfigError("unknown builtin predicate %r" % spec)
                if BUILTIN_PREDICATES[spec][0] != arity:
                    raise ConfigError("builtin %r has arity %d, %r needs %d"
                                      % (spec, BUILTIN_PREDICATES[spec][0], name, arity))
        for name, spec in self.functions.items():
            arity = env.function_arity(name)
            default = spec if isinstance(spec, str) else spec.default
            if default != ARGCAT:
                if default not in BUILTIN_FUNCTIONS:
                    raise ConfigError("unknown builtin function %r" % default)
                if BUILTIN_FUNCTIONS[default][0] != arity:
                    raise ConfigError("builtin %r has arity %d, %r needs %d"
                                      % (default, BUILTIN_FUNCTIONS[default][0],
                                         name, arity))

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
            spec = spec.default
        if spec == ARGCAT:
            return "".join(args)
        return BUILTIN_FUNCTIONS[spec][1](self.env, *args)


class Realization:
    """A total map from variables to plain words, defaulting to the empty word."""

    def __init__(self, env: Environment, assignment: Optional[Mapping[str, str]] = None):
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


def eval_term(interp: Interpretation, r: Realization, t: Term) -> str:
    if isinstance(t, Var):
        return r(t.name)
    return interp.eval_function(t.fn, tuple(eval_term(interp, r, a) for a in t.args))


def eval_formula(interp: Interpretation, r: Realization, phi: Formula) -> bool:
    if isinstance(phi, Atom):
        return interp.eval_predicate(
            phi.pred, tuple(eval_term(interp, r, t) for t in phi.args))
    _, truth = connective(phi.tag)
    return bool(truth(*(eval_formula(interp, r, c) for c in phi.children)))


# ---------------------------------------------------------------------------
# classical regular expressions, extended with intersection


@dataclass(frozen=True)
class RLit:
    word: str


@dataclass(frozen=True)
class REmpty:
    pass


@dataclass(frozen=True)
class RUnion:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class RInter:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class RCat:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class RStar:
    child: "Regex"


Regex = Union[RLit, REmpty, RUnion, RInter, RCat, RStar]

_R_UNION, _R_INTER, _R_CAT, _R_STAR, _R_ATOM = 1, 2, 3, 4, 5


def _regex_level(r: Regex) -> int:
    if isinstance(r, RUnion):
        return _R_UNION
    if isinstance(r, RInter):
        return _R_INTER
    if isinstance(r, RCat):
        return _R_CAT
    if isinstance(r, RStar):
        return _R_STAR
    return _R_ATOM


def regex_str(r: Regex, _level: int = 0) -> str:
    own = _regex_level(r)
    if isinstance(r, RLit):
        s = r.word if r.word else "eps"
    elif isinstance(r, REmpty):
        s = "empty"
    elif isinstance(r, RUnion):
        s = "%s + %s" % (regex_str(r.left, _R_UNION), regex_str(r.right, _R_UNION + 1))
    elif isinstance(r, RInter):
        s = "%s & %s" % (regex_str(r.left, _R_INTER), regex_str(r.right, _R_INTER + 1))
    elif isinstance(r, RCat):
        s = "%s %s" % (regex_str(r.left, _R_CAT), regex_str(r.right, _R_CAT))
    else:
        cs = regex_str(r.child, 0)
        atomic = isinstance(r.child, (RStar, REmpty)) or \
            (isinstance(r.child, RLit) and len(r.child.word) == 1)
        s = (cs if atomic else "(" + cs + ")") + "*"
    if own < _level:
        return "(" + s + ")"
    return s


for _cls in (RLit, REmpty, RUnion, RInter, RCat, RStar):
    _cls.__str__ = lambda self: regex_str(self)


def regularize(interp: Interpretation, r: Realization, e: Expr) -> Regex:
    """The variable-free regular expression with the same (I,r)-language."""
    return _regularize(interp, r, check_sum_only(e))


def _regularize(interp: Interpretation, r: Realization, e: Expr) -> Regex:
    if isinstance(e, Word):
        return RLit(r.realize(e.letters))
    if isinstance(e, Empty):
        return REmpty()
    if isinstance(e, Bool):
        return RUnion(_regularize(interp, r, e.children[0]),
                      _regularize(interp, r, e.children[1]))
    if isinstance(e, Cat):
        return RCat(_regularize(interp, r, e.left), _regularize(interp, r, e.right))
    if isinstance(e, Star):
        return RStar(_regularize(interp, r, e.child))
    if isinstance(e, Constraint):
        if eval_formula(interp, r, e.formula):
            return _regularize(interp, r, e.child)
        return REmpty()
    if isinstance(e, Match):
        return RInter(RLit(r.realize(e.word)), _regularize(interp, r, e.child))
    raise TypeError(e)


def regex_null(rx: Regex) -> bool:
    if isinstance(rx, RLit):
        return rx.word == ""
    if isinstance(rx, REmpty):
        return False
    if isinstance(rx, RUnion):
        return regex_null(rx.left) or regex_null(rx.right)
    if isinstance(rx, (RInter, RCat)):
        return regex_null(rx.left) and regex_null(rx.right)
    return True  # star


def regex_derivative(rx: Regex, a: str) -> frozenset:
    """Antimirov partial derivative w.r.t. one symbol."""
    if isinstance(rx, RLit):
        if rx.word and rx.word[0] == a:
            return frozenset({RLit(rx.word[1:])})
        return frozenset()
    if isinstance(rx, REmpty):
        return frozenset()
    if isinstance(rx, RUnion):
        return regex_derivative(rx.left, a) | regex_derivative(rx.right, a)
    if isinstance(rx, RInter):
        return frozenset(RInter(l, r)
                         for l in regex_derivative(rx.left, a)
                         for r in regex_derivative(rx.right, a))
    if isinstance(rx, RCat):
        out = frozenset(RCat(d, rx.right) for d in regex_derivative(rx.left, a))
        if regex_null(rx.left):
            out |= regex_derivative(rx.right, a)
        return out
    return frozenset(RCat(d, rx) for d in regex_derivative(rx.child, a))


def regex_word_derivative(rx: Regex, w: str) -> frozenset:
    out = frozenset({rx})
    for a in w:
        out = frozenset(d for r0 in out for d in regex_derivative(r0, a))
    return out


def membership_fixed(interp: Interpretation, r: Realization, e: Expr, w: str) -> bool:
    """Decide w in the (I,r)-language via regularization and derivatives."""
    rx = regularize(interp, r, e)
    return any(regex_null(d) for d in regex_word_derivative(rx, w))
