"""Expression environments, terms, boolean formulas and constrained expressions.

Mixed words are plain strings over the symbol and variable alphabets (both
restricted to single characters), with "" playing the role of the empty word.
Terms, formulas and expressions are immutable dataclass trees; every operation
here is a pure function, so values can be shared freely across threads.
`walk` yields the nodes of any such tree from an explicit stack; the validator
`check_tree` and the collectors (`as_mixed_word`, `subterms`,
`tree_variables`, `expr_variables`, `check_sum_only`) read it, so they accept
trees of any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Union

from .errors import ConfigError, PreconditionError, UnsupportedOperatorError

# Internal names of the two function symbols every environment carries.
CAT = "·"
EPSILON = "ε"

RESERVED_NAMES = frozenset({"eps", "empty", "true", "false"})


# ---------------------------------------------------------------------------
# boolean operator registry (shared by formula connectives and Bool nodes)

TRUE, FALSE, NOT, AND, OR, IMPLIES = "true", "false", "not", "and", "or", "implies"

_CONNECTIVES: dict = {
    TRUE: (0, lambda: True),
    FALSE: (0, lambda: False),
    NOT: (1, lambda p: not p),
    AND: (2, lambda p, q: p and q),
    OR: (2, lambda p, q: p or q),
    IMPLIES: (2, lambda p, q: (not p) or q),
}


def register_connective(tag: str, arity: int, truth: Callable) -> None:
    """Register a k-ary boolean operator usable in Conn and Bool nodes."""
    _CONNECTIVES[tag] = (arity, truth)


def connective(tag: str):
    try:
        return _CONNECTIVES[tag]
    except KeyError:
        raise ConfigError("unknown boolean operator %r" % tag)


# ---------------------------------------------------------------------------
# environments


@dataclass(frozen=True, eq=False)
class Environment:
    """A 4-tuple (symbols, variables, predicates, functions).

    Symbols and variables are single characters; `eps` and the catenation
    symbol are implicitly registered as 0-ary/2-ary functions and must not be
    redeclared. Predicate and function names share one namespace with the
    letters and the keywords. `letter_rank` maps each letter to its position
    in the declared order, symbols first.
    """

    symbols: tuple
    variables: tuple = ()
    predicates: Mapping[str, int] = field(default_factory=dict)
    functions: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.symbols:
            raise ConfigError("symbol alphabet must be nonempty")
        for c in self.symbols + self.variables:
            if len(c) != 1:
                raise ConfigError("letters must be single characters: %r" % c)
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError("duplicate symbol in alphabet")
        if len(set(self.variables)) != len(self.variables):
            raise ConfigError("duplicate variable")
        overlap = set(self.symbols) & set(self.variables)
        if overlap:
            raise ConfigError("symbols and variables overlap: %s" % sorted(overlap))
        letters = set(self.symbols) | set(self.variables)
        names = list(self.predicates) + list(self.functions)
        if len(set(names)) != len(names):
            raise ConfigError("predicate and function names must be disjoint")
        for name, arity in list(self.predicates.items()) + list(self.functions.items()):
            if name in RESERVED_NAMES or name in letters:
                raise ConfigError("name %r collides with a letter or keyword" % name)
            if arity < 0:
                raise ConfigError("negative arity for %r" % name)
        object.__setattr__(self, "letter_rank", {
            c: i for i, c in enumerate(self.symbols + self.variables)})

    # letter classification ------------------------------------------------

    def is_symbol(self, c: str) -> bool:
        return c in self.symbols

    def is_variable(self, c: str) -> bool:
        return c in self.variables

    def is_letter(self, c: str) -> bool:
        return c in self.symbols or c in self.variables

    def check_word(self, alpha: str) -> str:
        for c in alpha:
            if not self.is_letter(c):
                raise ConfigError("%r is not a letter of the environment" % c)
        return alpha

    def letter_key(self, word: str) -> tuple:
        """Position key implementing the declared lexicographic order."""
        return tuple(self.letter_rank[c] for c in word)

    def function_arity(self, name: str) -> int:
        if name == CAT:
            return 2
        if name == EPSILON or name in self.symbols:
            return 0
        if name in self.functions:
            return self.functions[name]
        raise ConfigError("unknown function symbol %r" % name)

    def predicate_arity(self, name: str) -> int:
        if name in self.predicates:
            return self.predicates[name]
        raise ConfigError("unknown predicate symbol %r" % name)


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple = ()


Term = Union[Var, App]

EPS_TERM = App(EPSILON)


def term_of_word(env: Environment, w: str) -> Term:
    """Right-nested catenation term denoting the mixed word w."""
    if w == "":
        return EPS_TERM
    head = Var(w[0]) if env.is_variable(w[0]) else App(w[0])
    if len(w) == 1:
        return head
    return App(CAT, (head, term_of_word(env, w[1:])))


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()


@dataclass(frozen=True)
class Conn:
    tag: str
    children: tuple = ()


Formula = Union[Atom, Conn]

TOP = Conn(TRUE)
BOT = Conn(FALSE)


# ---------------------------------------------------------------------------
# constrained expressions


@dataclass(frozen=True)
class Word:
    letters: str


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Bool:
    op: str
    children: tuple


@dataclass(frozen=True)
class Cat:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Star:
    child: "Expr"


@dataclass(frozen=True)
class Constraint:
    child: "Expr"
    formula: Formula


@dataclass(frozen=True)
class Match:
    word: str
    child: "Expr"


Expr = Union[Word, Empty, Bool, Cat, Star, Constraint, Match]


def sum_expr(left: Expr, right: Expr) -> Bool:
    """The binary sum, the only Bool shape the derivative rules cover."""
    return Bool(OR, (left, right))


def is_sum(e: Expr) -> bool:
    return isinstance(e, Bool) and e.op == OR and len(e.children) == 2


def variables_of(env: Environment, alpha: str) -> frozenset:
    """The variables occurring in a mixed word."""
    return frozenset(c for c in alpha if env.is_variable(c))


# ---------------------------------------------------------------------------
# the node walk

# The children of each node type, last first, so that the walk's stack pops
# them left to right.
_CHILDREN_REVERSED = {
    Var: lambda n: (),
    App: lambda n: n.args[::-1],
    Atom: lambda n: n.args[::-1],
    Conn: lambda n: n.children[::-1],
    Word: lambda n: (),
    Empty: lambda n: (),
    Bool: lambda n: n.children[::-1],
    Cat: lambda n: (n.right, n.left),
    Star: lambda n: (n.child,),
    Constraint: lambda n: (n.formula, n.child),
    Match: lambda n: (n.child,),
}


def walk(root):
    """Every node of a term, formula or expression, parents first, children
    left to right; a constraint's formula comes after its child.

    An explicit stack keeps the place, so a deep tree needs no recursion.
    Raises TypeError on a node that is none of these.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        children = _CHILDREN_REVERSED.get(type(node))
        if children is None:
            raise TypeError(node)
        yield node
        stack += children(node)


def as_mixed_word(e: Expr):
    """Flatten a catenation of Word nodes to one mixed word, else None."""
    letters = []
    for node in walk(e):
        if isinstance(node, Word):
            letters.append(node.letters)
        elif not isinstance(node, Cat):
            return None
    return "".join(letters)


def check_tree(env: Environment, root):
    """Return root if it is well formed over env, else raise ConfigError.

    Letters must be declared and every function, predicate and operator must
    get its arity; the first offending node in walk order is reported.
    """
    for node in walk(root):
        kind = type(node)
        if kind is Word:
            env.check_word(node.letters)
        elif kind is Var:
            if not env.is_variable(node.name):
                raise ConfigError("unknown variable %r" % node.name)
        elif kind is App:
            arity = env.function_arity(node.fn)
            if len(node.args) != arity:
                raise ConfigError("function %r expects %d arguments, got %d"
                                  % (node.fn, arity, len(node.args)))
        elif kind is Atom:
            arity = env.predicate_arity(node.pred)
            if len(node.args) != arity:
                raise ConfigError("predicate %r expects %d arguments, got %d"
                                  % (node.pred, arity, len(node.args)))
        elif kind is Conn or kind is Bool:
            tag = node.tag if kind is Conn else node.op
            arity, _ = connective(tag)
            if len(node.children) != arity:
                raise ConfigError("operator %r expects %d operands" % (tag, arity))
        elif kind is Match:
            env.check_word(node.word)
    return root


def subterms(t: Term) -> frozenset:
    return frozenset(walk(t))


def tree_variables(root) -> frozenset:
    """The variables of the terms in a term or formula."""
    return frozenset(n.name for n in walk(root) if isinstance(n, Var))


def expr_variables(env: Environment, e: Expr) -> frozenset:
    """All variables occurring in e, embedded formulas included."""
    names = set()
    for node in walk(e):
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Word):
            names |= variables_of(env, node.letters)
        elif isinstance(node, Match):
            names |= variables_of(env, node.word)
    return frozenset(names)


def check_sum_only(e: Expr) -> Expr:
    """Return e if every Bool node of e is the binary sum, else raise.

    Derivatives, indicator sets and regularization are defined for sums only;
    each of their public entries calls this once, so the recursions need not.
    """
    for node in walk(e):
        if type(node) is Bool and not is_sum(node):
            raise UnsupportedOperatorError(
                "only the binary sum is supported as a boolean expression "
                "node, got %r" % node.op)
    return e


# ---------------------------------------------------------------------------
# substitution

Assumption = tuple  # (variable, replacement word); replacement is "" or "a"+x
Substitution = Mapping[str, str]  # variable -> replacement word


def subst_word(alpha: str, m: Substitution) -> str:
    return "".join(m.get(c, c) for c in alpha)


def subst_term(env: Environment, t: Term, m: Substitution) -> Term:
    if isinstance(t, Var):
        return term_of_word(env, m[t.name]) if t.name in m else t
    args = tuple(subst_term(env, a, m) for a in t.args)
    if t.fn == CAT:
        # A child that became epsilon through this substitution is collapsed,
        # so substituted word arguments stay word-shaped (the evaluation is
        # unchanged: catenation with the empty word is the identity). Children
        # that already were epsilon are left alone, keeping the substitution
        # an identity on terms without the variables.
        left, right = args
        if left == EPS_TERM and t.args[0] != EPS_TERM:
            return right
        if right == EPS_TERM and t.args[1] != EPS_TERM:
            return left
    return App(t.fn, args)


def subst_formula(env: Environment, phi: Formula, m: Substitution) -> Formula:
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(subst_term(env, t, m) for t in phi.args))
    return Conn(phi.tag, tuple(subst_formula(env, c, m) for c in phi.children))


def subst_expr(env: Environment, e: Expr, m: Substitution) -> Expr:
    if isinstance(e, Word):
        return Word(subst_word(e.letters, m))
    if isinstance(e, Empty):
        return e
    if isinstance(e, Bool):
        return Bool(e.op, tuple(subst_expr(env, c, m) for c in e.children))
    if isinstance(e, Cat):
        return Cat(subst_expr(env, e.left, m), subst_expr(env, e.right, m))
    if isinstance(e, Star):
        return Star(subst_expr(env, e.child, m))
    if isinstance(e, Constraint):
        return Constraint(subst_expr(env, e.child, m), subst_formula(env, e.formula, m))
    if isinstance(e, Match):
        return Match(subst_word(e.word, m), subst_expr(env, e.child, m))
    raise TypeError(e)


def check_subst_set(X: Iterable[Assumption]) -> frozenset:
    """Validate the functional and non-crossing conditions."""
    X = frozenset(X)
    seen = set()
    for x, _w in X:
        if x in seen:
            raise PreconditionError("substitution set is not functional on %r" % x)
        seen.add(x)
    if len(X) > 1:  # a single assumption cannot cross
        for x, _w in X:
            for y, w2 in X:
                if x != y and x in w2:
                    raise PreconditionError(
                        "substitution set is crossing: %r occurs in %r" % (x, w2))
    return X


def apply_subst_set(env: Environment, entity, X: Iterable[Assumption]):
    """Apply a set of assumptions to a word, term, formula or expression.

    The set is validated, then applied in one walk that replaces every
    variable at once. This equals applying the assumptions one at a time in
    ascending order, or in any order: the set is functional, so each variable
    has one replacement, and non-crossing, so no replacement holds another
    assumption's variable for a later step to rewrite. An empty set returns
    the entity itself.
    """
    m = dict(check_subst_set(X))
    if not m:
        return entity
    if isinstance(entity, str):
        return subst_word(entity, m)
    if isinstance(entity, (Var, App)):
        return subst_term(env, entity, m)
    if isinstance(entity, (Atom, Conn)):
        return subst_formula(env, entity, m)
    return subst_expr(env, entity, m)


# ---------------------------------------------------------------------------
# pretty printing


def word_str(alpha: str) -> str:
    return alpha if alpha else "eps"


def _term_pieces(t: Term) -> list:
    """Right catenation spine of t."""
    out = []
    while isinstance(t, App) and t.fn == CAT:
        out.append(t.args[0])
        t = t.args[1]
    out.append(t)
    return out


def term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t.fn == CAT:
        pieces = []
        for u in _term_pieces(t):
            s = term_str(u)
            if isinstance(u, App) and u.fn == CAT:
                s = "(" + s + ")"
            pieces.append(s)
        out = pieces[0]
        for prev, cur in zip(pieces, pieces[1:]):
            tight = len(prev) == 1 and len(cur) == 1
            if prev[-1].isalnum() and cur[0].isalnum() and not tight:
                out += " " + cur
            else:
                out += cur
        return out
    if t.fn == EPSILON:
        return "eps"
    if not t.args:
        return t.fn
    return "%s(%s)" % (t.fn, ", ".join(term_str(a) for a in t.args))


_F_IMPLIES, _F_OR, _F_AND, _F_NOT, _F_ATOM = 1, 2, 3, 4, 5


def _formula_level(phi: Formula) -> int:
    if isinstance(phi, Atom):
        return _F_ATOM
    return {IMPLIES: _F_IMPLIES, OR: _F_OR, AND: _F_AND, NOT: _F_NOT}.get(phi.tag, _F_ATOM)


def formula_str(phi: Formula, _level: int = 0) -> str:
    own = _formula_level(phi)
    if isinstance(phi, Atom):
        s = phi.pred if not phi.args else \
            "%s(%s)" % (phi.pred, ", ".join(term_str(t) for t in phi.args))
    elif phi.tag in (TRUE, FALSE):
        s = phi.tag
    elif phi.tag == NOT:
        s = "!" + formula_str(phi.children[0], _F_NOT)
    elif phi.tag == AND:
        s = "%s && %s" % (formula_str(phi.children[0], _F_AND),
                          formula_str(phi.children[1], _F_AND + 1))
    elif phi.tag == OR:
        s = "%s || %s" % (formula_str(phi.children[0], _F_OR),
                          formula_str(phi.children[1], _F_OR + 1))
    elif phi.tag == IMPLIES:
        s = "%s -> %s" % (formula_str(phi.children[0], _F_IMPLIES + 1),
                          formula_str(phi.children[1], _F_IMPLIES))
    else:
        s = "%s(%s)" % (phi.tag, ", ".join(formula_str(c) for c in phi.children))
        own = _F_ATOM
    if own < _level:
        return "(" + s + ")"
    return s


_E_CONSTRAINT, _E_MATCH, _E_SUM, _E_CAT, _E_STAR, _E_ATOM = 1, 2, 3, 4, 5, 6


def _expr_level(e: Expr) -> int:
    if isinstance(e, Constraint):
        return _E_CONSTRAINT
    if isinstance(e, Match):
        return _E_MATCH
    if is_sum(e):
        return _E_SUM
    if isinstance(e, Cat):
        return _E_CAT
    if isinstance(e, Star):
        return _E_STAR
    return _E_ATOM


def _cat_factors(e: Expr) -> list:
    """The factors of a catenation, left to right. The right spine is a loop;
    only a left factor that is itself a catenation is entered recursively."""
    out = []
    while isinstance(e, Cat):
        if isinstance(e.left, Cat):
            out += _cat_factors(e.left)
        else:
            out.append(e.left)
        e = e.right
    out.append(e)
    return out


def expr_str(e: Expr, _level: int = 0) -> str:
    own = _expr_level(e)
    if isinstance(e, Word):
        s = word_str(e.letters)
    elif isinstance(e, Empty):
        s = "empty"
    elif isinstance(e, Star):
        child = e.child
        cs = expr_str(child, 0)
        atomic = isinstance(child, Star) or isinstance(child, Empty) or \
            (isinstance(child, Word) and len(child.letters) == 1)
        s = (cs if atomic else "(" + cs + ")") + "*"
    elif isinstance(e, Cat):
        parts = []
        for f in _cat_factors(e):
            fs = expr_str(f, 0)
            if _expr_level(f) < _E_STAR and not isinstance(f, Word):
                fs = "(" + fs + ")"
            parts.append(fs)
        s = " ".join(parts)
    elif is_sum(e):
        s = "%s + %s" % (expr_str(e.children[0], _E_SUM),
                         expr_str(e.children[1], _E_SUM + 1))
    elif isinstance(e, Bool):
        s = "%s(%s)" % (e.op, ", ".join(expr_str(c) for c in e.children))
        own = _E_ATOM
    elif isinstance(e, Match):
        s = "%s -| %s" % (word_str(e.word), expr_str(e.child, _E_MATCH))
    elif isinstance(e, Constraint):
        s = "%s | %s" % (expr_str(e.child, _E_MATCH), formula_str(e.formula))
    else:
        raise TypeError(e)
    if own < _level:
        return "(" + s + ")"
    return s


def subst_set_str(env: Environment, X: Iterable[Assumption]) -> str:
    ordered = sorted(X, key=lambda p: (env.letter_key(p[0]), env.letter_key(p[1])))
    return "{%s}" % ",".join("(%s,%s)" % (x, word_str(w)) for x, w in ordered)


for _cls in (Var, App):
    _cls.__str__ = lambda self: term_str(self)
for _cls in (Atom, Conn):
    _cls.__str__ = lambda self: formula_str(self)
for _cls in (Word, Empty, Bool, Cat, Star, Constraint, Match):
    _cls.__str__ = lambda self: expr_str(self)
