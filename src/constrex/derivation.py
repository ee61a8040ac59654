"""Constrained partial derivatives of mixed words and constrained expressions.

A derivative is a finite set of (expression, substitution set) pairs; each
substitution set records the assumptions (x starts with a / x is empty) made
while consuming one symbol. Deriving a catenation whose left factor is a
mixed word threads the word rule's empty-word branch through the tail, and
crossing a left factor that is nullable under every interpretation elides the
`eps -|` guard; both readings are language-preserving for every (I,r) and
reproduce the worked derivative sets of the source constructions exactly.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .errors import PreconditionError
from .syntax import (
    Bool, Cat, Constraint, Empty, Environment, Expr, Match, Star, Word,
    apply_subst_set, as_mixed_word, check_sum_only, expr_str, is_sum, subst_set_str,
    subst_word,
)

DerivPair = Tuple[Expr, frozenset]
DerivativeSet = Tuple[DerivPair, ...]


def derive_word(env: Environment, alpha: str, a: str) -> List[Tuple[str, frozenset]]:
    """Constrained derivative of a mixed word w.r.t. one symbol."""
    if alpha == "":
        return []
    head, rest = alpha[0], alpha[1:]
    if head == a:
        return [(rest, frozenset())]
    if env.is_symbol(head):
        return []
    x = head
    out = [(x + subst_word(rest, {x: a + x}), frozenset({(x, a + x)}))]
    for alpha2, X in derive_word(env, subst_word(rest, {x: ""}), a):
        out.append((alpha2, X | {(x, "")}))
    return out


def const_null(e: Expr) -> bool:
    """True iff the empty word is denoted under every interpretation and realization."""
    if isinstance(e, Word):
        return e.letters == ""
    if isinstance(e, Star):
        return True
    if isinstance(e, Cat):
        return const_null(e.left) and const_null(e.right)
    if is_sum(e):
        return const_null(e.children[0]) or const_null(e.children[1])
    if isinstance(e, Match):
        return e.word == "" and const_null(e.child)
    return False


def _odot_left(env, pairs, right: Expr):
    """pairs (.) F: append the substituted factor on the right."""
    return [(Cat(e, apply_subst_set(env, right, X)), X) for e, X in pairs]


def _guard(env, left: Expr, pairs):
    """F (.) pairs: prepend `eps -| F` with the pair's substitutions applied."""
    if const_null(left):
        return list(pairs)
    return [(Cat(Match("", apply_subst_set(env, left, X)), e), X) for e, X in pairs]


def _derive(env: Environment, e: Expr, a: str) -> List[DerivPair]:
    if isinstance(e, Word):
        return [(Word(alpha), X) for alpha, X in derive_word(env, e.letters, a)]
    if isinstance(e, Empty):
        return []
    if isinstance(e, Bool):
        return _derive(env, e.children[0], a) + _derive(env, e.children[1], a)
    if isinstance(e, Star):
        return _odot_left(env, _derive(env, e.child, a), e)
    if isinstance(e, Constraint):
        return [(Constraint(e2, apply_subst_set(env, e.formula, X)), X)
                for e2, X in _derive(env, e.child, a)]
    if isinstance(e, Match):
        out = []
        for alpha1, X1 in derive_word(env, e.word, a):
            for e2, X2 in _derive(env, apply_subst_set(env, e.child, X1), a):
                out.append((Match(apply_subst_set(env, alpha1, X2), e2), X1 | X2))
        return out
    if isinstance(e, Cat):
        if isinstance(e.left, Word):
            return _derive_word_headed(env, e.left.letters, e.right, a)
        out = _odot_left(env, _derive(env, e.left, a), e.right)
        out += _guard(env, e.left, _derive(env, e.right, a))
        return out
    raise TypeError(e)


def _derive_word_headed(env, alpha: str, tail: Expr, a: str) -> List[DerivPair]:
    """Derive `alpha . tail` by the word rule, applying each pair's set to the tail.

    A head of variables only may also be erased for the tail to consume a.
    """
    out = [(Cat(Word(alpha2), apply_subst_set(env, tail, X)), X)
           for alpha2, X in derive_word(env, alpha, a)]
    if all(env.is_variable(c) for c in alpha):
        erased = frozenset((x, "") for x in alpha)
        out += [(e2, X | erased)
                for e2, X in _derive(env, apply_subst_set(env, tail, erased), a)]
    return out


def canonical(env: Environment, pairs: Iterable[DerivPair]) -> DerivativeSet:
    """Deduplicate and sort pairs by pretty-printed expression, then set."""
    keyed = {}
    for e, X in pairs:
        keyed[(expr_str(e), subst_set_str(env, X))] = (e, X)
    return tuple(keyed[k] for k in sorted(keyed))


def _check_symbols(env: Environment, letters) -> None:
    for a in letters:
        if not env.is_symbol(a):
            raise PreconditionError("%r is not a symbol of the alphabet" % a)


def derive_expr(env: Environment, e: Expr, a: str) -> DerivativeSet:
    """Constrained derivative of an expression w.r.t. one symbol, canonical."""
    check_sum_only(e)
    _check_symbols(env, [a])
    return canonical(env, _derive(env, e, a))


def derive_expr_word(env: Environment, e: Expr, w: str) -> DerivativeSet:
    """Derivative w.r.t. a nonempty word; only the final step's sets are kept."""
    if w == "":
        raise PreconditionError("word derivatives are defined for nonempty words")
    pairs = derive_expr(env, e, w[0])
    _check_symbols(env, w[1:])
    for a in w[1:]:
        pairs = canonical(env, (p for e2, _X in pairs for p in _derive(env, e2, a)))
    return pairs


def derive_paths(env: Environment, e: Expr, w: str):
    """All (derived expression, substitution-set chain) paths along w."""
    paths = [(check_sum_only(e), [])]
    _check_symbols(env, w)
    for a in w:
        paths = [(e2, chain + [X])
                 for e1, chain in paths
                 for e2, X in canonical(env, _derive(env, e1, a))]
    return paths


def associated_realization(r, X: frozenset):
    """The realization X-associated with r, or None if r is incompatible.

    Compatibility: (x, a x) needs r(x) to start with a; (x, eps) needs
    r(x) to be empty. The associated realization strips the consumed prefix.
    """
    assignment = dict(r.assignment)
    for x, rep in X:
        if rep == "":
            if r(x) != "":
                return None
            assignment[x] = ""
        else:
            if not r(x).startswith(rep[0]):
                return None
            assignment[x] = r(x)[1:]
    return type(r)(r.env, assignment)


# ---------------------------------------------------------------------------
# optional language-preserving cleanup


def simplify_expr(env: Environment, e: Expr) -> Expr:
    """Rewrite with sound rules (empty propagation, eps units, word matches)."""
    if isinstance(e, (Word, Empty)):
        return e
    if isinstance(e, Bool):
        children = tuple(simplify_expr(env, c) for c in e.children)
        if is_sum(e):
            left, right = children
            if isinstance(left, Empty):
                return right
            if isinstance(right, Empty):
                return left
        return Bool(e.op, children)
    if isinstance(e, Star):
        return Star(simplify_expr(env, e.child))
    if isinstance(e, Cat):
        left = simplify_expr(env, e.left)
        right = simplify_expr(env, e.right)
        if isinstance(left, Empty) or isinstance(right, Empty):
            return Empty()
        if left == Word(""):
            return right
        if right == Word(""):
            return left
        return Cat(left, right)
    if isinstance(e, Constraint):
        child = simplify_expr(env, e.child)
        if isinstance(child, Empty):
            return Empty()
        return Constraint(child, e.formula)
    if isinstance(e, Match):
        child = simplify_expr(env, e.child)
        if isinstance(child, Empty):
            return Empty()
        if e.word == "":
            if isinstance(child, Match) and child.word == "":
                return child
            if const_null(child):
                return Word("")
        word_child = as_mixed_word(child)
        if word_child is not None and _symbols_only(env, e.word) \
                and _symbols_only(env, word_child):
            return Word(e.word) if e.word == word_child else Empty()
        return Match(e.word, child)
    raise TypeError(e)


def _symbols_only(env: Environment, w: str) -> bool:
    return all(env.is_symbol(c) for c in w)


def simplify(env: Environment, pairs: Iterable[DerivPair]) -> DerivativeSet:
    out = []
    for e, X in pairs:
        e2 = simplify_expr(env, e)
        if not isinstance(e2, Empty):
            out.append((e2, X))
    return canonical(env, out)
