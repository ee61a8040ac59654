"""Empty-word membership: the fixed-(I,r) predicate and the indicator sets.

The fixed-(I,r) predicate is the fixed engine of `semantics` run on the
empty word.

The indicator set of an expression reduces "does the empty word belong" to a
satisfiability question: each pair lists the variables that must be erased
and a residual formula (with those variables already erased) that must hold.
The pairs come lazily in canonical order, grouped by their erased variables.
The least group key is found first, by a search over key prefixes, and only
that group's pairs are built, erased and printed, so a search that stops at
the first satisfiable pair pays for one group, not for all 2^k erased sets.
The other groups are built in one pass only when the iteration goes past
the first.
"""

from __future__ import annotations

from collections.abc import Iterable

from .syntax import (
    AND, TOP,
    Cat, Conn, Constraint, Environment, Expr, Formula, Match, Star, Sum, Word,
    fold, formula_str, in_printed_order, subst_tree, tree_variables, variables_of,
)
from .semantics import Interpretation, Realization, eval_formula, membership_fixed

IndicatorPair = tuple[frozenset, Formula]
IndicatorSet = tuple[IndicatorPair, ...]


def null_fixed(interp: Interpretation, r: Realization, e: Expr) -> bool:
    """The empty-word test under a fixed interpretation and realization:
    `membership_fixed` on the empty word, so it is decided on the regular
    form, where each match `v -| F` is Word("") when v is empty and F is
    nullable, and Empty() otherwise."""
    return membership_fixed(interp, r, e, "")


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


def _pairs(env: Environment, e: Expr, within: frozenset | None = None) -> list:
    """The indicator pairs of e before erasure, in construction order; with
    `within`, only those whose erased variables all lie in it.

    Every pair's erased set is the union of its factors' sets, so dropping a
    factor's pair outside `within` drops only pairs outside it: the bounded
    list is the unbounded one with those pairs left out. Erasing a formula
    once at the top with the pair's variables gives what erasing at every
    step gave: erasure is idempotent, and it commutes with _conj because no
    erasure turns a formula into or out of TOP.
    """
    def visit(node, values):
        kind = type(node)
        if kind is Word:
            if all(env.is_variable(c) for c in node.letters):
                xs = variables_of(env, node.letters)
                if within is None or xs <= within:
                    return [(xs, TOP)]
            return []
        if kind is Match:
            if all(env.is_variable(c) for c in node.word):
                xs = variables_of(env, node.word)
                if within is None or xs <= within:
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


def _least_key(env: Environment, e: Expr):
    """The least group key of e, or None when e has no indicator pair.

    Keys compare as tuples of variable names, so the least one is found one
    variable at a time. Let P be the key found so far and r the rank of its
    last variable. One fold gives, for each erased set S of e that agrees
    with P on the variables of rank up to r, the variable of least rank above
    r in S, or none when S equals P. If some S equals P, P is the key, as a
    key is less than its extensions; otherwise the key goes on with the
    least of those variables by name. A variable is the bit of its rank, and
    a node's value is the set of (S on the ranks up to r, the lowest bit of S
    above them): never more values than the node has distinct erased sets.
    """
    bit = {x: 1 << env.letter_rank[x] for x in env.variables}
    name = {b: x for x, b in bit.items()}
    prefix, below = 0, 0    # the prefix, and every rank up to its last one

    def visit(node, values):
        kind = type(node)
        if kind is Word or kind is Match:
            letters = node.letters if kind is Word else node.word
            if not all(c in bit for c in letters):
                return set()
            xs = 0
            for c in letters:
                xs |= bit[c]
            if xs & below & ~prefix:
                return set()
            above = xs & ~below
            seen = xs & below, above & -above
            if kind is Word:
                return {seen}
            return _union_product({seen}, values[0])
        if kind is Sum:
            return values[0] | values[1]
        if kind is Cat:
            return _union_product(values[0], values[1])
        if kind is Star:
            return {(0, 0)}
        if kind is Constraint:
            return values[0]
        return set()    # Empty, and the nodes of a constraint's formula

    while True:
        nexts = {low for seen, low in fold(e, visit) if seen == prefix}
        if not nexts:
            return None     # only before the first step: e has no pair
        if 0 in nexts:      # some S equals the prefix
            return tuple(name[b] for b in sorted(name) if b & prefix)
        step = bit[min(name[b] for b in nexts)]
        prefix |= step
        below = (step << 1) - 1


def _union_product(left: set, right: set) -> set:
    """Every union of a restriction on the left with one on the right."""
    out = set()
    for seen1, low1 in left:
        for seen2, low2 in right:
            low = low1 | low2
            out.add((seen1 | seen2, low & -low))
    return out


def _erased(env: Environment, group: list) -> list:
    """One group's pairs, erased, in the order of their printed formulas;
    of two that print alike, the later is kept (`in_printed_order`)."""
    return in_printed_order([(xs, erase_vars(env, phi, xs)) for xs, phi in group],
                            lambda pair: formula_str(pair[1]))


def indicator_pairs(env: Environment, e: Expr):
    """The indicator set of e, lazily, in canonical order.

    The pairs are grouped by their erased variables. A group's key lists
    them in declaration order, and the groups come in the order of their
    keys compared as tuples of variable names: with variables declared
    `z x y`, {x} has the key (x,) and comes before {z}, and {z, x} has the
    key (z, x) and comes after both. Within a group, the pairs come in the
    order of their printed residual formulas; of two that print alike, the
    later one is kept. The least key is found first, by a search over key
    prefixes, and its group alone is built, erased and printed. Only when
    the iteration goes past it are all the pairs built, and each later
    group is erased, printed and sorted when the iteration reaches it.
    """
    first = _least_key(env, e)
    if first is None:
        return
    within = frozenset(first)
    yield from _erased(env, [p for p in _pairs(env, e, within) if p[0] == within])
    groups: dict = {}
    for xs, phi in _pairs(env, e):
        key = tuple(sorted(xs, key=env.letter_rank.__getitem__))
        groups.setdefault(key, []).append((xs, phi))
    for key in sorted(groups)[1:]:
        yield from _erased(env, groups[key])


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
