"""Expression environments, terms, boolean formulas and constrained expressions.

Mixed words are plain strings over the symbol and variable alphabets (both
restricted to single characters), with "" playing the role of the empty word.
Terms, formulas and expressions are trees of plain `__slots__` classes.
Their value equality, structural hash and repr come from one base class,
`_Value`, which the finite tables of `semantics` and the witnesses of
`logic` share. They are immutable by convention: no field is assigned after
construction, because subtrees are shared. Every operation here is a pure
function, so values can be shared freely across threads.
The term and formula nodes `App`, `Atom` and `Conn` store two summaries,
computed once in the constructor from their children's: the hash, and a
flag `normal` that says whether the node's terms are in normal form (see
`App`). A `Var` is always normal. The expression nodes (`Word`, `Sum`,
`Cat`, `Star`, `Match`, `Constraint`) store their hash too, computed once
from their children's stored hashes, and `Empty` has a constant one; so
hashing a node of any size takes constant time and never recurses.
`walk` yields the nodes of any such tree from an explicit stack, parents
first; the collectors (`as_mixed_word`, `subterms`, `tree_variables`,
`expr_variables`) read it. `fold` is its post-order twin: it hands each node
the values of its children and returns the root's value. Substitution
(`subst_tree`), `term_str` and `formula_str` are visits on it, as are
evaluation, normalization, the indicator pairs, witness construction and
`simplify_expr` elsewhere. Both accept trees of any depth.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Mapping

from .errors import ConfigError, PreconditionError

# Internal names of the two function symbols every environment carries.
CAT = "·"
EPSILON = "ε"

RESERVED_NAMES = frozenset({"eps", "empty", "true", "false"})


# ---------------------------------------------------------------------------
# boolean connective registry (the tags of formula Conn nodes)

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
    """Register a k-ary boolean connective usable in formula Conn nodes."""
    _CONNECTIVES[tag] = (arity, truth)


def connective(tag: str):
    try:
        return _CONNECTIVES[tag]
    except KeyError:
        raise ConfigError("unknown boolean operator %r" % tag)


# ---------------------------------------------------------------------------
# environments


class Environment:
    """A 4-tuple (symbols, variables, predicates, functions).

    Symbols and variables are single characters; `eps` and the catenation
    symbol are implicitly registered as 0-ary/2-ary functions and must not be
    redeclared. Predicate and function names share one namespace with the
    letters and the keywords. `letter_rank` maps each letter to its position
    in the declared order, symbols first. Two environments are equal only
    when they are the same object.
    """

    __slots__ = ("symbols", "variables", "predicates", "functions", "letter_rank")

    def __init__(self, symbols: tuple, variables: tuple = (),
                 predicates: Mapping[str, int] | None = None,
                 functions: Mapping[str, int] | None = None):
        self.symbols = symbols
        self.variables = variables
        self.predicates = {} if predicates is None else predicates
        self.functions = {} if functions is None else functions
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
        self.letter_rank = {
            c: i for i, c in enumerate(self.symbols + self.variables)}

    def __repr__(self):
        return "Environment(symbols=%r, variables=%r, predicates=%r, functions=%r)" % (
            self.symbols, self.variables, self.predicates, self.functions)

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
# tree nodes
#
# Every node class derives from `_Value`, which alone defines what a value
# does: equality on the field tuple between objects of one class, a hash and
# a repr. Comparing tuples keeps the identity shortcut on shared subtrees.
# Every node but a Var stores its hash, computed once in its constructor, so
# hashing a deep tree does not recurse: App, Atom and Conn hash their field
# tuple, where each child hands over its stored hash; an expression node
# hashes the tuple of its fields with each child replaced by its stored
# hash, since reading the ints keeps the constructor free of Python-level
# `__hash__` calls.


def fields_repr(self) -> str:
    """The dataclass form of a repr, `Cat(left=..., right=...)`, over the
    fields named in `__slots__`."""
    return "%s(%s)" % (type(self).__name__, ", ".join(
        "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class _Value:
    """Equality, hash and repr of a plain value, written once for the tree
    nodes here and the values of `semantics` and `logic`.

    A class's fields are the names in its own `__slots__`, read once, when
    the class is made, into `_fields`, which returns an object's field
    tuple. Two objects are equal when they are of one class and their field
    tuples are; the hash is that of the field tuple, and the repr is
    `fields_repr`. The three methods are shared, not generated per class as
    a dataclass's are, so importing the package compiles nothing more.
    """
    __slots__ = ()
    __repr__ = fields_repr

    def __init_subclass__(cls):
        names = cls.__slots__
        if len(names) == 1:     # attrgetter of one name returns its value
            get = operator.attrgetter(*names)
            cls._fields = staticmethod(lambda obj: (get(obj),))
        else:
            cls._fields = staticmethod(
                operator.attrgetter(*names) if names else lambda obj: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))


class _Hashed(_Value):
    """A value whose constructor stores its hash in the slot `_hash`, which
    `__hash__` returns in place of `_Value`'s. A base class holds the slot,
    so that each node class's `__slots__` still names its fields alone."""
    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash


class _Summary(_Hashed):
    """The summaries that App, Atom and Conn store: the hash, the same value
    as the hash of the field tuple, and the normal flag."""
    __slots__ = ("normal",)


_normal = operator.attrgetter("normal")


# ---------------------------------------------------------------------------
# terms


class Var(_Value):
    __slots__ = ("name",)
    normal = True   # a class constant: a variable is a normal term

    def __init__(self, name: str):
        self.name = name


class App(_Summary):
    """An application; a catenation is normal when both children are, no
    child is eps and the left child is no catenation, and any other
    application when all its arguments are."""
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple = ()):
        self.fn = fn
        self.args = args
        self._hash = hash((fn, args))
        if fn == CAT:
            left, right = args
            self.normal = left.normal and right.normal \
                and (left.__class__ is Var or left.fn != CAT and left.fn != EPSILON) \
                and (right.__class__ is Var or right.fn != EPSILON)
        else:
            self.normal = not args or all(map(_normal, args))


Term = Var | App

EPS_TERM = App(EPSILON)


def term_of_word(env: Environment, w: str) -> Term:
    """Right-nested catenation term denoting the mixed word w."""
    if w == "":
        return EPS_TERM
    *heads, t = (Var(c) if env.is_variable(c) else App(c) for c in w)
    for head in reversed(heads):
        t = App(CAT, (head, t))
    return t


# ---------------------------------------------------------------------------
# formulas


class Atom(_Summary):
    """An atom; normal when all its terms are."""
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple = ()):
        self.pred = pred
        self.args = args
        self._hash = hash((pred, args))
        self.normal = all(map(_normal, args))


class Conn(_Summary):
    """A connective node; normal when all its children are."""
    __slots__ = ("tag", "children")

    def __init__(self, tag: str, children: tuple = ()):
        self.tag = tag
        self.children = children
        self._hash = hash((tag, children))
        self.normal = all(map(_normal, children))


Formula = Atom | Conn

TOP = Conn(TRUE)
BOT = Conn(FALSE)


# ---------------------------------------------------------------------------
# constrained expressions


class Word(_Hashed):
    __slots__ = ("letters",)

    def __init__(self, letters: str):
        self.letters = letters
        self._hash = hash((letters,))


class Empty(_Hashed):
    __slots__ = ()
    _hash = hash(())    # a class constant: Empty has no fields


class Sum(_Hashed):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash((left._hash, right._hash))


class Cat(_Hashed):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash((left._hash, right._hash))


class Star(_Hashed):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child
        self._hash = hash((child._hash,))


class Constraint(_Hashed):
    __slots__ = ("child", "formula")

    def __init__(self, child: Expr, formula: Formula):
        self.child = child
        self.formula = formula
        self._hash = hash((child._hash, formula._hash))


class Match(_Hashed):
    __slots__ = ("word", "child")

    def __init__(self, word: str, child: Expr):
        self.word = word
        self.child = child
        self._hash = hash((word, child._hash))


Expr = Word | Empty | Sum | Cat | Star | Constraint | Match


def variables_of(env: Environment, alpha: str) -> frozenset:
    """The variables occurring in a mixed word."""
    return frozenset(c for c in alpha if env.is_variable(c))


# ---------------------------------------------------------------------------
# the node walk

# The children of each node type, left to right; a constraint's formula
# comes after its child.
_CHILDREN = {
    Var: lambda n: (),
    App: operator.attrgetter("args"),
    Atom: operator.attrgetter("args"),
    Conn: operator.attrgetter("children"),
    Word: lambda n: (),
    Empty: lambda n: (),
    Sum: operator.attrgetter("left", "right"),
    Cat: operator.attrgetter("left", "right"),
    Star: lambda n: (n.child,),
    Constraint: operator.attrgetter("child", "formula"),
    Match: lambda n: (n.child,),
}
# fold takes an atom as a leaf: a visit that needs its terms folds them
_FOLD_CHILDREN = {**_CHILDREN, Atom: _CHILDREN[Var]}


def walk(root):
    """Every node of a term, formula or expression, parents first, children
    left to right; a constraint's formula comes after its child.

    An explicit stack keeps the place, so a deep tree needs no recursion.
    Raises TypeError on a node that is none of these.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        children = _CHILDREN.get(type(node))
        if children is None:
            raise TypeError(node)
        yield node
        stack += reversed(children(node))


def fold(root, visit):
    """What visit gives root: visit(node, values) gets the values of node's
    children, left to right, a constraint's formula after its child; an atom
    is a leaf. One explicit stack visits children before their parent, so a
    deep tree needs no recursion. Raises TypeError on a node of no tree type.
    """
    try:
        children = _FOLD_CHILDREN[type(root)](root)
    except KeyError:
        raise TypeError(root) from None
    if not children:    # the terms of an atom are mostly leaves
        return visit(root, ())
    done: list = []     # the values of the finished nodes, in order
    stack = [(root, len(children)), *children[::-1]]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:       # second visit: the children are done
            node, count = node
            values = done[-count:]
            del done[-count:]
            done.append(visit(node, values))
            continue
        try:
            children = _FOLD_CHILDREN[kind](node)
        except KeyError:
            raise TypeError(node) from None
        if children:
            stack.append((node, len(children)))
            stack += children[::-1]
        else:
            done.append(visit(node, ()))
    return done[0]


def rebuild(node, values):
    """node with values as its children, left to right; node itself when
    each value is the child it replaces."""
    kind = type(node)
    if not values or all(map(operator.is_, values, _CHILDREN[kind](node))):
        return node
    if kind is App:
        return App(node.fn, tuple(values))
    if kind is Atom:
        return Atom(node.pred, tuple(values))
    if kind is Conn:
        return Conn(node.tag, tuple(values))
    if kind is Match:
        return Match(node.word, *values)
    return kind(*values)


def as_mixed_word(e: Expr):
    """Flatten a catenation of Word nodes to one mixed word, else None."""
    letters = []
    for node in walk(e):
        if isinstance(node, Word):
            letters.append(node.letters)
        elif not isinstance(node, Cat):
            return None
    return "".join(letters)


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


# ---------------------------------------------------------------------------
# substitution

Assumption = tuple  # (variable, replacement word); replacement is "" or "a"+x
Substitution = Mapping[str, str]  # variable -> replacement word


def subst_word(alpha: str, m: Substitution) -> str:
    return "".join(m.get(c, c) for c in alpha)


def subst_tree(env: Environment, root, m: Substitution):
    """A term, formula or expression with each variable x in m replaced by
    the word m[x], in one fold; an untouched subtree is returned itself.

    A catenation child that became epsilon here is collapsed, so word terms
    stay word-shaped (catenation with the empty word is the identity); one
    that already was epsilon stays, so trees without the variables stay.
    """
    def visit(node, values):
        kind = type(node)
        if kind is Var:
            return term_of_word(env, m[node.name]) if node.name in m else node
        if kind is Word:
            letters = subst_word(node.letters, m)
            return node if letters == node.letters else Word(letters)
        if kind is Match:
            word = subst_word(node.word, m)
            if word != node.word:
                return Match(word, values[0])
        elif kind is Atom:
            values = [fold(t, visit) for t in node.args]
        elif kind is App and node.fn == CAT:
            left, right = values
            if left == EPS_TERM and node.args[0] != EPS_TERM:
                return right
            if right == EPS_TERM and node.args[1] != EPS_TERM:
                return left
        return rebuild(node, values)

    return fold(root, visit)


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
    the entity itself, unvalidated.
    """
    if not X:
        return entity
    m = dict(check_subst_set(X))
    if isinstance(entity, str):
        return subst_word(entity, m)
    return subst_tree(env, entity, m)


# ---------------------------------------------------------------------------
# pretty printing


def word_str(alpha: str) -> str:
    return alpha if alpha else "eps"


def _term_piece(t: Term, values) -> tuple:
    """The text of t, and the first piece of its right catenation spine,
    from the values of its children. A catenation puts a space between two
    pieces that meet at letters or digits, unless both are one character;
    a piece that is itself a catenation is parenthesized."""
    if type(t) is Var:
        return t.name, t.name
    fn = t.fn
    if fn == CAT:
        (left, _), (right, first) = values
        if type(t.args[0]) is App and t.args[0].fn == CAT:
            left = "(" + left + ")"
        if left[-1].isalnum() and first[0].isalnum() \
                and not (len(left) == 1 and len(first) == 1):
            return left + " " + right, left
        return left + right, left
    text = "eps" if fn == EPSILON else fn if not values \
        else "%s(%s)" % (fn, ", ".join(text for text, _ in values))
    return text, text


def term_str(t: Term) -> str:
    return fold(t, _term_piece)[0]


# The binary connectives: glyph, own level, left and right operand levels.
# `and` and `or` associate left, `implies` right; a negation binds tighter
# than all three, and any other formula is atomic.
_F_BINARY = {
    IMPLIES: (" -> ", 1, 2, 1),
    OR: (" || ", 2, 2, 3),
    AND: (" && ", 3, 3, 4),
}
_F_NOT = 4
_F_ATOMIC = 5


def _formula_piece(phi: Formula, values) -> tuple:
    """The text of phi and its level, from the pieces of its children."""
    if type(phi) is Atom:
        if not phi.args:
            return phi.pred, _F_ATOMIC
        return "%s(%s)" % (phi.pred, ", ".join(map(term_str, phi.args))), _F_ATOMIC
    tag = phi.tag
    if tag in _F_BINARY:
        glyph, own, left, right = _F_BINARY[tag]
        (text, level), (right_text, right_level) = values
        if level < left:
            text = "(" + text + ")"
        if right_level < right:
            right_text = "(" + right_text + ")"
        return text + glyph + right_text, own
    if tag == NOT:
        text, level = values[0]
        return ("!" + text if level >= _F_NOT else "!(" + text + ")"), _F_NOT
    if tag in (TRUE, FALSE):
        return tag, _F_ATOMIC
    return "%s(%s)" % (tag, ", ".join(text for text, _ in values)), _F_ATOMIC


def formula_str(phi: Formula) -> str:
    return fold(phi, _formula_piece)[0]


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


def _printer(levels: dict, match_operand: int, match_glyph: str):
    """The expression printer of one notation, given as data: the level of
    each node type (higher binds tighter), the level of a match's operand and
    the match glyph. A constraint in a notation without its level raises
    TypeError, as does a node of no expression type."""
    star = levels[Star]

    def show(e: Expr, level: int) -> str:
        kind = type(e)
        if kind is Word:
            return word_str(e.letters)
        if kind is Empty:
            return "empty"
        own = levels.get(kind)
        if kind is Star:
            child = e.child
            s = show(child, 0)
            atomic = type(child) in (Star, Empty) or \
                type(child) is Word and len(child.letters) == 1
            s = (s if atomic else "(" + s + ")") + "*"
        elif kind is Cat:
            s = " ".join([show(f, star) for f in _cat_factors(e)])
        elif kind is Sum:
            # a left-nested sum is a loop, its right summands taken last first
            rights = []
            while type(e) is Sum:
                rights.append(show(e.right, own + 1))
                e = e.left
            rights.append(show(e, own))
            s = " + ".join(reversed(rights))
        elif kind is Match:
            # a chain of matches is a loop; a notation whose match operand
            # binds tighter than a match parenthesizes each inner one
            pieces = []
            opened = 0
            while type(e) is Match:
                pieces.append(word_str(e.word) + match_glyph)
                e = e.child
                if type(e) is Match and own < match_operand:
                    pieces.append("(")
                    opened += 1
            s = "".join(pieces) + show(e, match_operand) + ")" * opened
        elif kind is Constraint and kind in levels:
            s = show(e.child, own + 1) + " | " + formula_str(e.formula)
        else:
            raise TypeError(e)
        return "(" + s + ")" if own < level else s

    return show


# The binding level of each expression node type in constrex notation,
# higher binds tighter; the expression printer and the parser read it.
_E_LEVELS = {Constraint: 1, Match: 2, Sum: 3, Cat: 4, Star: 5}
_expr_printer = _printer(_E_LEVELS, _E_LEVELS[Match], " -| ")
# A regular form reads `w -| E` as the intersection {w} & L(E), which binds
# tighter than a sum; a regular form has no constraints.
_regex_printer = _printer({Sum: 1, Match: 2, Cat: 3, Star: 4}, 3, " & ")


def expr_str(e: Expr) -> str:
    return _expr_printer(e, 0)


def regex_str(rx: Expr) -> str:
    """A regular form in regex notation: `w -| E` prints as `w & E`."""
    return _regex_printer(rx, 0)


def subst_set_str(env: Environment, X: Iterable[Assumption]) -> str:
    ordered = sorted(X, key=lambda p: (env.letter_key(p[0]), env.letter_key(p[1])))
    return "{%s}" % ",".join("(%s,%s)" % (x, word_str(w)) for x, w in ordered)


for _cls in (Var, App):
    _cls.__str__ = lambda self: term_str(self)
for _cls in (Atom, Conn):
    _cls.__str__ = lambda self: formula_str(self)
for _cls in (Word, Empty, Sum, Cat, Star, Constraint, Match):
    _cls.__str__ = lambda self: expr_str(self)
