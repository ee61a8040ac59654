"""Empty-word membership: the fixed-(I,r) predicate and the indicator sets.

The indicator set of an expression reduces "does the empty word belong" to a
satisfiability question: each pair lists the variables that must be erased
and a residual formula (with those variables already erased) that must hold.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .syntax import (
    AND, TOP,
    Bool, Cat, Conn, Constraint, Empty, Environment, Expr, Formula,
    Match, Star, Word,
    check_sum_only, connective, formula_str, formula_variables, subst_formula,
    variables_of,
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
    if isinstance(e, Bool):
        _, truth = connective(e.op)
        return bool(truth(*(null_fixed(interp, r, c) for c in e.children)))
    if isinstance(e, Cat):
        return null_fixed(interp, r, e.left) and null_fixed(interp, r, e.right)
    if isinstance(e, Star):
        return True
    if isinstance(e, Constraint):
        return null_fixed(interp, r, e.child) and eval_formula(interp, r, e.formula)
    raise TypeError(e)


def erase_vars(env: Environment, phi: Formula, erased: Iterable[str]) -> Formula:
    """Substitute the empty word for every listed variable."""
    return subst_formula(env, phi, dict.fromkeys(erased, ""))


def _conj(left: Formula, right: Formula) -> Formula:
    # Keep indicator formulas small: true is the conjunction unit.
    if left == TOP:
        return right
    if right == TOP:
        return left
    return Conn(AND, (left, right))


def _otimes(env: Environment, s1, s2):
    out = []
    for x1, phi1 in s1:
        for x2, phi2 in s2:
            xs = x1 | x2
            out.append((xs, erase_vars(env, _conj(phi1, phi2), xs)))
    return out


def _pair_key(env: Environment, pair: IndicatorPair):
    xs, phi = pair
    return (tuple(sorted(xs, key=env.letter_key)), formula_str(phi))


def _canonical(env: Environment, pairs) -> IndicatorSet:
    keyed = {_pair_key(env, p): p for p in pairs}
    return tuple(keyed[k] for k in sorted(keyed))


def indicator_set(env: Environment, e: Expr) -> IndicatorSet:
    """The S-epsilon reduction of empty-word membership to satisfiability."""
    return _canonical(env, _indicator(env, check_sum_only(e)))


def _indicator(env: Environment, e: Expr):
    if isinstance(e, Word):
        if all(env.is_variable(c) for c in e.letters):
            return [(variables_of(env, e.letters), TOP)]
        return []
    if isinstance(e, Empty):
        return []
    if isinstance(e, Match):
        if all(env.is_variable(c) for c in e.word):
            return _otimes(env, [(variables_of(env, e.word), TOP)],
                           _indicator(env, e.child))
        return []
    if isinstance(e, Bool):
        return _indicator(env, e.children[0]) + _indicator(env, e.children[1])
    if isinstance(e, Cat):
        return _otimes(env, _indicator(env, e.left), _indicator(env, e.right))
    if isinstance(e, Star):
        return [(frozenset(), TOP)]
    if isinstance(e, Constraint):
        return [(xs, erase_vars(env, _conj(e.formula, psi), xs))
                for xs, psi in _indicator(env, e.child)]
    raise TypeError(e)


def null_fixed_via_indicator(interp: Interpretation, r: Realization, e: Expr) -> bool:
    """Empty-word test through the indicator set (sum-only expressions)."""
    for xs, phi in indicator_set(interp.env, e):
        if all(r(x) == "" for x in xs) and eval_formula(interp, r, phi):
            return True
    return False


def indicator_pair_str(env: Environment, pair: IndicatorPair) -> str:
    xs, phi = pair
    return "{%s} :: %s" % (",".join(sorted(xs, key=env.letter_key)), formula_str(phi))


def check_erasure(pair: IndicatorPair) -> bool:
    """No erased variable may survive into the residual formula."""
    xs, phi = pair
    return not (xs & formula_variables(phi))
