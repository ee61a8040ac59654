"""Brute-force reference implementations for differential testing.

None of these share code with the engines they check: language enumeration
works by length-bounded dynamic programming on the regular expression, and
membership evaluates the language definition directly by splitting the word.
A positive answer always carries the realization or interpretation that
produced it; a negative answer only means "not found within the bound".
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .semantics import FiniteRelation, Interpretation, Realization, eval_formula
from .syntax import (
    Cat, Constraint, Empty, Environment, Expr, Formula, Match, Star, Sum,
    Word, _Value, expr_variables, tree_variables,
)


class Bound(_Value):
    """Search limits for the bounded oracles."""

    __slots__ = ("max_realization_len",)

    def __init__(self, max_realization_len: int = 2):
        self.max_realization_len = max_realization_len


def enumerate_language(rx: Expr, max_len: int) -> frozenset:
    """Exactly the words of length <= max_len denoted by a regular form."""
    if isinstance(rx, Word):
        return frozenset({rx.letters} if len(rx.letters) <= max_len else ())
    if isinstance(rx, Empty):
        return frozenset()
    if isinstance(rx, Sum):
        return enumerate_language(rx.left, max_len) | enumerate_language(rx.right, max_len)
    if isinstance(rx, Match):
        return enumerate_language(rx.child, max_len) & {rx.word}
    if isinstance(rx, Cat):
        # a catenation's right spine is a loop; its factors combine from the right
        lefts = []
        while isinstance(rx, Cat):
            lefts.append(rx.left)
            rx = rx.right
        out = enumerate_language(rx, max_len)
        for left in reversed(lefts):
            out = frozenset(u + v for u in enumerate_language(left, max_len) for v in out
                            if len(u) + len(v) <= max_len)
        return out
    if not isinstance(rx, Star):
        raise TypeError(rx)
    child = enumerate_language(rx.child, max_len)
    out = {""}
    frontier = {""}
    while frontier:
        step = {u + v for u in frontier for v in child
                if v and len(u) + len(v) <= max_len}
        frontier = step - out
        out |= frontier
    return frozenset(out)


def brute_membership_fixed_r(interp: Interpretation, r: Realization,
                             e: Expr, w: str) -> bool:
    """w in the (I,r)-language, by structural recursion over the definition."""
    memo = {}

    def member(node: Expr, word: str) -> bool:
        key = (id(node), word)
        if key in memo:
            return memo[key]
        if isinstance(node, Word):
            out = word == r.realize(node.letters)
        elif isinstance(node, Empty):
            out = False
        elif isinstance(node, Match):
            out = word == r.realize(node.word) and member(node.child, word)
        elif isinstance(node, Sum):
            out = member(node.left, word) or member(node.right, word)
        elif isinstance(node, Cat):
            out = any(member(node.left, word[:i]) and member(node.right, word[i:])
                      for i in range(len(word) + 1))
        elif isinstance(node, Star):
            # Nonempty factors suffice: any star decomposition can drop its
            # empty factors. ok[j] says word[j:] is a product of such
            # factors; one loop fills it from the right, with no recursion.
            ok = [False] * len(word) + [True]
            for j in reversed(range(len(word))):
                ok[j] = any(ok[k] and member(node.child, word[j:k])
                            for k in range(j + 1, len(word) + 1))
            out = ok[0]
        elif isinstance(node, Constraint):
            out = eval_formula(interp, r, node.formula) and member(node.child, word)
        else:
            raise TypeError(node)
        memo[key] = out
        return out

    return member(e, w)


def words_upto(symbols: tuple[str, ...], max_len: int):
    for n in range(max_len + 1):
        for tup in itertools.product(symbols, repeat=n):
            yield "".join(tup)


def realizations(env: Environment, variables: Iterable[str], max_len: int):
    """Every realization of the given variables with images up to max_len."""
    variables = sorted(variables)
    images = list(words_upto(env.symbols, max_len))
    for combo in itertools.product(images, repeat=len(variables)):
        yield Realization(env, dict(zip(variables, combo)))


def brute_membership_fixed_I(interp: Interpretation, e: Expr, w: str,
                             bound: Bound | None = None) -> Realization | None:
    """A realization accepting w, or None (= not found within the bound)."""
    bound = bound or Bound()
    env = interp.env
    for r in realizations(env, expr_variables(env, e), bound.max_realization_len):
        if brute_membership_fixed_r(interp, r, e, w):
            return r
    return None


_PRED_CANDIDATES = {1: ["nonempty"], 2: ["eq", "leneq", "lenleq", "reveq"]}
_FN_CANDIDATES = {1: ["rev", "projA"], 2: ["cat", "revcat", "dupcat"]}


def sample_interpretations(env: Environment, limit: int = 64) -> list:
    """The cross product of arity-matched builtin bindings, capped and ordered.

    Symbols with no builtin of their arity fall back to an empty finite table
    (both polarities for predicates, argument catenation for functions).
    """
    names = []
    options = []
    for name, arity in sorted(env.predicates.items()):
        names.append(("p", name))
        options.append(_PRED_CANDIDATES.get(
            arity, [FiniteRelation(frozenset()), FiniteRelation(frozenset(), True)]))
    for name, arity in sorted(env.functions.items()):
        names.append(("f", name))
        options.append(_FN_CANDIDATES.get(arity, ["argcat"]))
    out = []
    for combo in itertools.islice(itertools.product(*options), limit):
        predicates = {}
        functions = {}
        for (kind, name), choice in zip(names, combo):
            if kind == "p":
                predicates[name] = choice
            else:
                functions[name] = choice
        out.append(Interpretation(env, predicates, functions))
    return out


def brute_satisfiable_free(env: Environment, phi: Formula,
                           bound: Bound | None = None):
    """An (interpretation, realization) satisfying phi, or None within bounds."""
    bound = bound or Bound()
    for interp in sample_interpretations(env):
        for r in realizations(env, tree_variables(phi), bound.max_realization_len):
            if eval_formula(interp, r, phi):
                return interp, r
    return None
