"""Expression environments, terms, boolean formulas and constrained expressions.

Mixed words are plain strings over the symbol and variable alphabets (both
restricted to single characters), with "" playing the role of the empty word.
Terms, formulas and expressions are trees of plain `__slots__` classes.
Their value equality, structural hash and repr come from one base class,
`_Value`, which the finite tables of `semantics`, the witnesses of `logic`
and the search bound of `oracle` share; every node but a `Var` derives from
its subclass `_Tree`, which stores the hash and prints the repr by a fold.
Equality compares field tuples, and two trees too deep for that are compared
on an explicit stack (`_tree_equal`). They are immutable by convention: no
field is assigned after construction, because subtrees are shared. Every
operation here is a pure function, so values can be shared freely across
threads.
The term and formula nodes `App`, `Atom` and `Conn` store two summaries,
computed once in the constructor from their children's: the hash, and a
flag `normal` that says whether the node's terms are in normal form (see
`App`). A `Var` is always normal. The expression nodes (`Word`, `Sum`,
`Cat`, `Star`, `Match`, `Constraint`) store their hash too, computed once
from their children's stored hashes, and `Empty` has a constant one; so
hashing a node of any size takes constant time and never recurses. They
store two empty-word flags the same way (see `_Node`): `null`, whether every
(I, r) puts the empty word in the language, and `never`, whether no path
reaches it without reading a letter. Two slots are filled lazily, after
construction: no constructor writes them, so each starts unset and is read
with a default. `derivation.need` fills `_need` with the value that the
node's children and one environment determine, tagged with that
environment; a reader takes it only under its own environment. Substitution
fills `_mask`, the node's letter mask (`letter_mask`), the first time it
asks for it; the mask depends on the node alone. A writer of either slot
writes what any reader that takes it would compute, so sharing nodes across
threads stays safe.
`walk` yields the nodes of any such tree from an explicit stack, parents
first; the collectors (`as_mixed_word`, `subterms`, `tree_variables`,
`expr_variables`) read it. `fold` is its post-order twin: it hands each node
the values of its children and returns the root's value. Substitution
(`subst_tree`) and printing are visits on it, as are evaluation,
normalization, the indicator pairs, witness construction and
`simplify_expr` elsewhere. Both accept trees of any depth. The visits here
are plain functions that name nothing but their arguments, the module's
functions and, for a notation's printer, its table: substitution's visit is
bound to its map by `functools.partial` and folds an atom's terms through
`subst_tree` again. So no visit captures itself, and reference counting
alone frees what a fold makes. A term prints by `term_str`; an expression
or formula prints by one visit per notation (`expr_str`, `formula_str`, and
`regex_str` for regular forms), built from a table of binary operators with
their levels, the one the parser reads.
Printed text is also the order of derivative sets, indicator groups,
propositional atoms and witness bindings, and `in_printed_order` alone
sorts by it: equal items are printed once, and of two that print alike the
later is kept.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Mapping
from functools import partial

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
    """Register a k-ary boolean connective usable in formula Conn nodes. A
    tag keeps its one meaning: one already registered, as each of the six
    above is at import, raises ConfigError."""
    if tag in _CONNECTIVES:
        raise ConfigError("boolean operator %r is already registered" % tag)
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
    letters and the keywords, and each arity is a nonnegative int, not a
    bool. `letter_rank` maps each letter to its position in the declared
    order, symbols first. Two environments are equal only when they are the
    same object.
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
            if isinstance(arity, bool) or not isinstance(arity, int) or arity < 0:
                raise ConfigError("arity of %r must be a nonnegative integer, got %r"
                                  % (name, arity))
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
        """The arity of a declared function. Eps, the catenation and the
        symbols are none: evaluation gives their words without a binding."""
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
# Every node but a Var derives from `_Tree` and stores its hash, computed
# once in its constructor, so hashing a deep tree does not recurse: App,
# Atom and Conn hash their field tuple, where each child hands over its
# stored hash; an expression node hashes the tuple of its fields with each
# child replaced by its stored hash, since reading the ints keeps the
# constructor free of Python-level `__hash__` calls. A Sum puts the tag "+"
# first, so that it and a Cat of the same children hash apart.


def fields_repr(self, values=None) -> str:
    """The dataclass form of a repr, `Cat(left=..., right=...)`, over the
    fields named in `__slots__`, or over values in their place."""
    return "%s(%s)" % (type(self).__name__, ", ".join("%s=%r" % pair for pair in zip(
        self.__slots__, map(self.__getattribute__, self.__slots__) if values is None else values)))


class _Value:
    """Equality, hash and repr of a plain value, written once for the values
    of `semantics`, `logic` and `oracle` and overridden by the tree nodes
    here.

    A class's fields are the names in its own `__slots__`, read once, when
    the class is made, into `_fields`, which returns an object's field
    tuple. Two objects are equal when they are of one class and their field
    tuples are; two trees nested too deep for the field tuples to compare
    within the recursion limit are compared by `_tree_equal` instead. The
    hash is that of the field tuple, and the repr is `fields_repr`. The three
    methods are shared, not generated per class as a dataclass's are, so
    importing the package compiles nothing more.
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
        if other.__class__ is not self.__class__:
            return NotImplemented
        try:    # the field tuples compare in C, and call this on each child pair
            return self._fields(self) == other._fields(other)
        except RecursionError:  # trees too deep for that go on an explicit stack
            return _tree_equal(self, other)

    def __hash__(self):
        return hash(self._fields(self))


class _Tree(_Value):
    """A term, formula or expression node other than a Var. Its constructor
    stores its hash in the slot `_hash`, the same value as `_Value`'s but for
    a Sum's, which is tagged; a base class holds the slot, so that each node
    class's `__slots__` still names its fields alone.

    Equality is `_Value`'s: two trees too deep to compare by recursion are
    compared by `_tree_equal`, on an explicit stack. The repr is
    `fields_repr`'s text, built by a fold. So neither fails on a deep tree.
    """
    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return str(fold(self, _repr_piece))


def _tree_equal(left: _Tree, right: _Tree) -> bool:
    """Whether two trees are equal, on an explicit stack of node pairs: two
    fields that are one object are equal at once, and a pair of two classes
    or two hashes, stored but for a Var's, is unequal at once."""
    pairs = [(left, right)]
    while pairs:
        left, right = pairs.pop()
        if left.__class__ is not right.__class__ or hash(left) != hash(right):
            return False
        for x, y in zip(left._fields(left), right._fields(right)):
            if x is y:
                continue
            if type(x) is tuple and len(x) == len(y):   # an App's, Atom's or Conn's
                pairs += zip(x, y)
            elif isinstance(x, _Tree):
                pairs.append((x, y))
            elif x != y:
                return False
    return True


class _Shown(str):
    """A repr already made, which `%r` prints as it is."""
    __repr__ = str.__str__


def _repr_piece(node, values) -> _Shown:
    """`fields_repr` of node with each child in its fields, a tuple's
    included, replaced by the repr fold made of it; an atom folds its terms
    itself."""
    values = iter([fold(t, _repr_piece) for t in node.args] if type(node) is Atom else values)
    return _Shown(fields_repr(node, [
        tuple(next(values) for _ in f) if type(f) is tuple
        else next(values) if isinstance(f, _Tree) else f for f in node._fields(node)]))


class _Summary(_Tree):
    """The summaries that App, Atom and Conn store besides the hash: the
    normal flag."""
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


def _right_nested(leaves: list) -> Term:
    """The catenation of the leaves, a list or a deque that this empties,
    right-nested; eps for none. The one catenation builder: `term_of_word`
    and `logic.normalize_term` call it."""
    if not leaves:
        return EPS_TERM
    out = leaves.pop()
    while leaves:
        out = App(CAT, (leaves.pop(), out))
    return out


def term_of_word(env: Environment, w: str) -> Term:
    """Right-nested catenation term denoting the mixed word w."""
    return _right_nested([Var(c) if env.is_variable(c) else App(c) for c in w])


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


class _Node(_Tree):
    """The summaries an expression node stores besides its hash: `null`,
    whether every (I, r) puts the empty word in its language, and `never`,
    whether no path reaches the empty word without reading a letter, every
    letter read as a symbol; both computed in the constructor from the
    children's flags. Two slots are filled lazily: no constructor writes
    them, so each starts unset and is read with a default. `_need` is filled
    by `derivation.need`, and `_mask` by `letter_mask` the first time
    substitution asks for it. The mask is an int with a bit for each letter
    of the node's words, match words and children (`_letter_bits`); a
    constraint counts as holding every letter, so its formula is not read.
    Empty's and a constraint's masks are class constants."""
    __slots__ = ("null", "never", "_need", "_mask")


class Word(_Node):
    __slots__ = ("letters",)

    def __init__(self, letters: str):
        self.letters = letters
        self._hash = hash((letters,))
        self.null = letters == ""
        self.never = letters != ""


class Empty(_Node):
    __slots__ = ()
    _hash = hash(())    # class constants: Empty has no fields or letters
    null, never, _mask = False, True, 0


class Sum(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash(("+", left._hash, right._hash))   # apart from a Cat's
        self.null = left.null or right.null
        self.never = left.never and right.never


class Cat(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash((left._hash, right._hash))
        self.null = left.null and right.null
        self.never = left.never or right.never


class Star(_Node):
    __slots__ = ("child",)
    null, never = True, False

    def __init__(self, child: Expr):
        self.child = child
        self._hash = hash((child._hash,))


class Constraint(_Node):
    __slots__ = ("child", "formula")
    null, _mask = False, -1     # -1 has every bit: the formula is not read

    def __init__(self, child: Expr, formula: Formula):
        self.child = child
        self.formula = formula
        self._hash = hash((child._hash, formula._hash))
        self.never = child.never


class Match(_Node):
    __slots__ = ("word", "child")

    def __init__(self, word: str, child: Expr):
        self.word = word
        self.child = child
        self._hash = hash((word, child._hash))
        self.null = word == "" and child.null
        self.never = word != "" or child.never


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


def _is_eps(t: Term) -> bool:
    """Whether a term is the empty word, by its class and symbol alone."""
    return type(t) is App and t.fn == EPSILON


def _letter_bits(letters: str) -> int:
    """A bit for each letter of a word, bit ord(c) % 64 for c, so that two
    letters may share one: a mask without a letter's bit lacks the letter."""
    bits = 0
    for c in letters:
        bits |= 1 << (ord(c) & 63)
    return bits


def letter_mask(e: Expr) -> int:
    """The letter mask of an expression (see `_Node`), stored in each node
    computed. One pass, children before their parent on an explicit stack,
    stops at each node whose mask is already stored, so a deep tree needs no
    recursion."""
    todo, done = [e], []    # done: the masks of the finished nodes, in order
    while todo:
        node = todo.pop()
        if type(node) is tuple:     # the second visit: the children are done
            node, = node
            kind, mask = type(node), done.pop()
            if kind is Cat or kind is Sum:
                mask |= done.pop()
            elif kind is Match:
                mask |= _letter_bits(node.word)
            node._mask = mask
            done.append(mask)
            continue
        mask = getattr(node, "_mask", None)
        if mask is None:
            kind = type(node)
            if kind is Word:
                mask = node._mask = _letter_bits(node.letters)
            else:
                todo.append((node,))
                todo += (node.right, node.left) if kind is Cat or kind is Sum else (node.child,)
                continue
        done.append(mask)
    return done[0]


def subst_tree(env: Environment, root, m: Substitution):
    """A term, formula or expression with each variable x in m replaced by
    the word m[x], in one fold; an untouched subtree is returned itself.
    So is root, with no fold, when m is empty or root is an expression whose
    letter mask (`letter_mask`) has no bit of m's variables.

    A catenation child that became epsilon here is collapsed, so word terms
    stay word-shaped (catenation with the empty word is the identity); one
    that already was epsilon stays, so trees without the variables stay.
    The visit, `_subst_visit`, is a module function bound to env and m by
    `functools.partial`; it substitutes an atom's lone variables itself and
    its other terms by calling subst_tree, so it captures nothing, itself
    included.
    """
    if not m or isinstance(root, _Node) and not letter_mask(root) & _letter_bits("".join(m)):
        return root
    return fold(root, partial(_subst_visit, env, m))


def _subst_visit(env: Environment, m: Substitution, node, values):
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
        values = [subst_tree(env, t, m) if type(t) is not Var
                  else term_of_word(env, m[t.name]) if t.name in m else t
                  for t in node.args]
    elif kind is App and node.fn == CAT:
        left, right = values
        if _is_eps(left) and not _is_eps(node.args[0]):
            return right
        if _is_eps(right) and not _is_eps(node.args[1]):
            return left
    return rebuild(node, values)


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


# The binary operators of a notation, keyed by node class or connective
# tag: glyph, own level, left and right operand levels. An operand whose
# level is below what its side allows is parenthesized; higher binds
# tighter. `and` and `or` associate left, `implies` right; a negation binds
# tighter than all three. A match's left operand is its word, which never
# takes parentheses. Any other node, but a negation, is atomic.
_F_BINARY = {
    IMPLIES: (" -> ", 1, 2, 1),
    OR: (" || ", 2, 2, 3),
    AND: (" && ", 3, 3, 4),
}
_F_NOT = 4
_ATOMIC = 5
# constrex notation; a constraint's formula prints in the same fold
_E_BINARY = {
    Constraint: (" | ", 1, 2, 1),
    Match: (" -| ", 2, _ATOMIC, 2),
    Sum: (" + ", 3, 3, 4),
    Cat: (" ", 4, 4, 4),
    **_F_BINARY,
}
# A regular form reads `w -| E` as the intersection {w} & L(E), which binds
# tighter than a sum; a regular form has no constraints.
_R_BINARY = {
    Sum: (" + ", 1, 1, 2),
    Match: (" & ", 2, _ATOMIC, 3),
    Cat: (" ", 3, 3, 3),
}


def _piece_visit(binary: dict):
    """The fold visit of one notation: the text of a node and its level,
    from its children's. A node the notation has no rule for, a constraint
    in a regular form among them, raises TypeError."""
    def visit(node, values):
        kind = type(node)
        if kind is Word:
            return word_str(node.letters), _ATOMIC
        entry = binary.get(node.tag if kind is Conn else kind)
        if entry is not None:
            glyph, own, left, right = entry
            if kind is Match:   # the left operand is the word
                text = word_str(node.word)
                right_text, level = values[0]
            else:
                (text, level), (right_text, right_level) = values
                if level < left:
                    text = "(" + text + ")"
                level = right_level
            if level < right:
                right_text = "(" + right_text + ")"
            return text + glyph + right_text, own
        if kind is Star:
            child = node.child
            text = values[0][0]
            if not (type(child) in (Star, Empty) or
                    type(child) is Word and len(child.letters) == 1):
                text = "(" + text + ")"
            return text + "*", _ATOMIC
        if kind is Empty:
            return "empty", _ATOMIC
        if kind is Atom:
            if not node.args:
                return node.pred, _ATOMIC
            return "%s(%s)" % (node.pred, ", ".join(map(term_str, node.args))), _ATOMIC
        if kind is not Conn:
            raise TypeError(node)
        tag = node.tag
        if tag == NOT:
            text, level = values[0]
            return ("!" + text if level >= _F_NOT else "!(" + text + ")"), _F_NOT
        if tag in (TRUE, FALSE):
            return tag, _ATOMIC
        return "%s(%s)" % (tag, ", ".join(text for text, _ in values)), _ATOMIC

    return visit


_expr_piece = _piece_visit(_E_BINARY)
_regex_piece = _piece_visit(_R_BINARY)


def formula_str(phi: Formula) -> str:
    return fold(phi, _expr_piece)[0]


def expr_str(e: Expr) -> str:
    return fold(e, _expr_piece)[0]


def regex_str(rx: Expr) -> str:
    """A regular form in regex notation: `w -| E` prints as `w & E`."""
    return fold(rx, _regex_piece)[0]


def subst_set_str(env: Environment, X: Iterable[Assumption]) -> str:
    """X as `{(x,w),...}`, its pairs ordered by the letter keys of the
    variable, then of the word; a variable is one letter, so its rank is
    its key."""
    pairs = sorted(X, key=lambda p: (env.letter_rank[p[0]], env.letter_key(p[1])))
    return "{%s}" % ",".join("(%s,%s)" % (x, word_str(w)) for x, w in pairs)


def in_printed_order(items: list, key: Callable) -> list:
    """items sorted by key(item), a text or a tuple of texts; of two items
    with one key, the later is kept.

    Equal items are keyed once: the later of two is kept, at its own place,
    so the later of two items that print alike still wins when an earlier
    one equals it. A lone item, or a list whose items are all equal, comes
    back without calling key.
    """
    if len(items) < 2:
        return items
    unique = dict.fromkeys(reversed(items))     # each item's last copy, last first
    if len(unique) == 1:
        return list(unique)
    keyed = {key(item): item for item in reversed(unique)}
    return [keyed[k] for k in sorted(keyed)]


for _cls in (Var, App):
    _cls.__str__ = lambda self: term_str(self)
for _cls in (Atom, Conn):
    _cls.__str__ = lambda self: formula_str(self)
for _cls in (Word, Empty, Sum, Cat, Star, Constraint, Match):
    _cls.__str__ = lambda self: expr_str(self)
