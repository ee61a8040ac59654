"""Empty-word membership: the fixed-(I,r) predicate and the indicator sets.

The indicator set of an expression reduces "does the empty word belong" to a
satisfiability question: each pair lists the variables that must be erased
and a residual formula (with those variables already erased) that must hold.
The pairs are produced lazily in canonical order, so a search that stops at
the first satisfiable pair erases and prints only the groups it reaches.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .syntax import (
    AND, TOP,
    Cat, Conn, Constraint, Empty, Environment, Expr, Formula,
    Match, Star, Sum, Word,
    fold, formula_str, subst_tree, tree_variables, variables_of,
)
from .semantics import Interpretation, Realization, eval_formula

IndicatorPair = Tuple[frozenset, Formula]
IndicatorSet = Tuple[IndicatorPair, ...]


def null_fixed(interp: Interpretation, r: Realization, e: Expr) -> bool:
    """The inductive empty-word test under a fixed interpretation and realization."""
    if isinstance(e, Word):
        return r.realize(e.letters) == ""
    if isinstance(e, Empty):
        return False
    if isinstance(e, Match):
        return r.realize(e.word) == "" and null_fixed(interp, r, e.child)
    if isinstance(e, Sum):
        return null_fixed(interp, r, e.left) or null_fixed(interp, r, e.right)
    if isinstance(e, Cat):
        return null_fixed(interp, r, e.left) and null_fixed(interp, r, e.right)
    if isinstance(e, Star):
        return True
    if isinstance(e, Constraint):
        return null_fixed(interp, r, e.child) and eval_formula(interp, r, e.formula)
    raise TypeError(e)


def erase_vars(env: Environment, phi: Formula, erased: Iterable[str]) -> Formula:
    """Substitute the empty word for every listed variable."""
    return subst_tree(env, phi, dict.fromkeys(erased, ""))


def _conj(left: Formula, right: Formula) -> Formula:
    # Keep indicator formulas small: true is the conjunction unit.
    if left == TOP:
        return right
    if right == TOP:
        return left
    return Conn(AND, (left, right))


def _pairs(env: Environment, e: Expr) -> list:
    """The indicator pairs of e before erasure, in construction order.

    Erasing a formula once at the top with the pair's variables gives what
    erasing at every step gave: erasure is idempotent, and it commutes with
    _conj because no erasure turns a formula into or out of TOP.
    """
    def visit(node, values):
        kind = type(node)
        if kind is Word:
            if all(env.is_variable(c) for c in node.letters):
                return [(variables_of(env, node.letters), TOP)]
            return []
        if kind is Match:
            if all(env.is_variable(c) for c in node.word):
                xs = variables_of(env, node.word)
                return [(xs | x2, psi) for x2, psi in values[0]]
            return []
        if kind is Sum:
            return values[0] + values[1]
        if kind is Cat:
            return [(x1 | x2, _conj(phi1, phi2))
                    for x1, phi1 in values[0] for x2, phi2 in values[1]]
        if kind is Star:
            return [(frozenset(), TOP)]
        if kind is Constraint:
            return [(xs, _conj(node.formula, psi)) for xs, psi in values[0]]
        return []   # Empty, and the nodes of a constraint's formula

    return fold(e, visit)


def indicator_pairs(env: Environment, e: Expr):
    """The indicator set of e, lazily, in canonical order.

    The order sorts by the erased variables (in the environment's letter
    order), then by the printed residual formula; of two pairs that print
    alike, the later one is kept. The pairs are grouped by their erased
    variables before any erasure, and a group is erased, printed and sorted
    only when the iteration reaches it.
    """
    groups: dict = {}
    for xs, phi in _pairs(env, e):
        key = tuple(sorted(xs, key=env.letter_rank.__getitem__))
        groups.setdefault(key, []).append((xs, phi))
    for key in sorted(groups):
        keyed = {}
        for xs, phi in groups[key]:
            phi = erase_vars(env, phi, xs)
            keyed[formula_str(phi)] = (xs, phi)
        for text in sorted(keyed):
            yield keyed[text]


def indicator_set(env: Environment, e: Expr) -> IndicatorSet:
    """The S-epsilon reduction of empty-word membership to satisfiability."""
    return tuple(indicator_pairs(env, e))


def null_fixed_via_indicator(interp: Interpretation, r: Realization, e: Expr) -> bool:
    """Empty-word test through the indicator set."""
    for xs, phi in indicator_pairs(interp.env, e):
        if all(r(x) == "" for x in xs) and eval_formula(interp, r, phi):
            return True
    return False


def indicator_pair_str(env: Environment, pair: IndicatorPair) -> str:
    xs, phi = pair
    return "{%s} :: %s" % (",".join(sorted(xs, key=env.letter_key)), formula_str(phi))


def check_erasure(pair: IndicatorPair) -> bool:
    """No erased variable may survive into the residual formula."""
    xs, phi = pair
    return not (xs & tree_variables(phi))
