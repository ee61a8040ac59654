"""Constrained partial derivatives of mixed words and constrained expressions.

A derivative is a finite set of (expression, substitution set) pairs; each
substitution set records the assumptions (x starts with a / x is empty) made
while consuming one symbol. Deriving a catenation whose left factor is a
mixed word threads the word rule's empty-word branch through the tail.
Crossing any other left factor F derives the right factor under the guard
`eps -| F`; the guard is elided when F is nullable under every
interpretation, and the right factor is not derived when F is nullable under
none, since the guard then denotes nothing. Both tests read the flags each
node stores when it is built (`syntax._Node`); under an environment with
variables the second also reads the node's letter need (`need`), which is
stored on each node for one environment at a time, so the subtrees that a
derived state shares with its parent are not summarized again. These
readings are language-preserving for every (I,r) and reproduce the worked
derivative sets of the source constructions. On a regular form, which has
no variables and no constraints, every left factor is one or the other, so
the rules are Antimirov's partial derivatives; the fixed-(I,r) engine of
`semantics` derives with them.

The derivative of `E | phi` is `E' | phi[X]` for each pair (E', X) of E's.
The sets come back whole and in canonical order from derive_expr; the path
search of derive_paths pulls them in the same order but substitutes phi[X]
only into the states it pulls.

`_derive` computes one derivative in one loop over a worklist of (node,
wrap) entries, so no shape of expression costs a frame per level. A wrap is
a linked list `(rule, argument, rest)` of the rules that the node's
ancestors apply to its pairs, innermost first. A sum enters its left child
and pushes its right one, both under its own wrap. A catenation enters its
left factor under `_odot_left` and, unless that factor is nullable under no
(I, r), pushes its right factor under `_guard`. A star or a constraint
enters its child under `_odot_left` or `_constrain`, and a match pushes its
substituted child under `_match` once per pair of its word's derivative. A
leaf, a word or the word rule of a word-headed catenation, runs its pairs
through its wrap; when the head is variables only, the word rule first
pushes its tail with that head erased, under `_erase`. Entries leave the
stack in the order in which the recursive rules concatenate their pairs, so
the pairs keep that order.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterable

from .errors import PreconditionError
from .syntax import (
    Cat, Constraint, Empty, Environment, Expr, Formula, Match, Star, Sum, Word,
    apply_subst_set, as_mixed_word, expr_str, fold, in_printed_order, rebuild,
    subst_set_str,
)

DerivPair = tuple[Expr, frozenset]
DerivativeSet = tuple[DerivPair, ...]


def derive_word(env: Environment, alpha: str, a: str) -> list[tuple[str, frozenset]]:
    """Constrained derivative of a mixed word w.r.t. one symbol.

    A leading variable x gives the pair that assumes x starts with a, then
    the pairs of the rest with x erased; a loop walks that run of erased
    variables, each pair carrying the erasures made before it."""
    out = []
    erased = frozenset()    # the set of no assumptions
    while alpha:
        head, rest = alpha[0], alpha[1:]
        if head == a:
            out.append((rest, erased))
            break
        if not env.is_variable(head):
            break
        x = head
        out.append((x + rest.replace(x, a + x), erased | {(x, a + x)}))
        erased |= {(x, "")}
        alpha = rest.replace(x, "")
    return out


def const_null(e: Expr) -> bool:
    """True iff the empty word is denoted under every interpretation and realization."""
    return e.null


def never_null(env: Environment, e: Expr) -> bool:
    """True iff the empty word is denoted under no interpretation and realization.

    The stored flag `never` reads every letter as a symbol, so it answers
    alone when env declares no variable; else e must also need a letter, or
    be void, by its need.
    """
    if not e.never or not env.variables:
        return e.never
    wanted = need(env, e)
    return wanted is None or wanted[0] > 0


def _count(env: Environment, letters: str) -> tuple:
    """The need of a mixed word: its letters that are no variable, since a
    variable may be realized empty, then its copies of each symbol."""
    length = len(letters)
    for x in env.variables:
        length -= letters.count(x)
    return (length, *map(letters.count, env.symbols))


def need(env: Environment, e: Expr, void: Callable[[Formula], bool] | None = None):
    """What e needs of the rest of the word, or None for a void state; the
    definition is that of `logic.letter_need`, whose formula test void is.

    With void None, every constraint reads as satisfiable. One pass, children
    before their parent on an explicit stack, stops at each node already
    summarized for env and stores in each node it computes the triple (need,
    whether a constraint lies outside the node's stars, env) in its slot
    `_need`; no constructor writes that slot, so it is read with a default,
    and a star's or Empty's constant triple is never stored. Under void, a
    node whose need rests on a constraint is computed for this call alone
    and not stored. A need of length 0 is all zeros, since the length counts
    every letter that is no variable; it is the unit of the sum and the
    maximum, and the least element for the minimum.
    """
    nothing = (0,) * (len(env.symbols) + 1)
    star, empty = (nothing, False, env), (None, False, env)
    todo = [e]
    done = []   # the triples of the finished nodes, in order
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is tuple:   # the second visit: the children are done
            node, = node
            kind = type(node)
            wanted, held, _ = done.pop()
            if kind is Cat or kind is Sum:
                left, held_left, _ = done.pop()
                held = held or held_left
                if kind is Sum:
                    if wanted is None or left is not None and not left[0]:
                        wanted = left
                    elif left is not None and wanted[0]:
                        wanted = tuple(map(min, left, wanted))
                elif left is None or wanted is None:
                    wanted = None
                elif left[0]:
                    wanted = tuple(map(operator.add, left, wanted)) if wanted[0] else left
            elif kind is Match:
                if wanted is None or node.word == "" and wanted[0]:
                    wanted = None
                elif node.word:
                    word = _count(env, node.word)
                    if word[0]:
                        wanted = tuple(map(max, word, wanted)) if wanted[0] else word
            else:   # Constraint
                held = True
                if wanted is not None and void is not None and void(node.formula):
                    wanted = None
            summary = wanted, held, env
            if void is None or not held:
                node._need = summary
            done.append(summary)
            continue
        summary = getattr(node, "_need", None)
        if summary is None or summary[2] is not env or void is not None and summary[1]:
            if kind is Word:
                node._need = summary = (
                    _count(env, node.letters) if node.letters else nothing), False, env
            elif kind is Star:
                summary = star
            elif kind is Empty:
                summary = empty
            else:
                todo.append((node,))
                todo += (node.right, node.left) if kind is Cat or kind is Sum else (node.child,)
                continue
        done.append(summary)
    return done[0][0]


def _odot_left(env, pairs, right: Expr):
    """pairs (.) F: append the substituted factor on the right."""
    return [(Cat(e, apply_subst_set(env, right, X)), X) for e, X in pairs]


def _guard(env, pairs, left: Expr):
    """F (.) pairs: prepend `eps -| F` with the pair's substitutions applied,
    or nothing when F is nullable under every (I, r)."""
    if left.null:
        return pairs
    return [(Cat(Match("", apply_subst_set(env, left, X)), e), X) for e, X in pairs]


def _constrain(env, pairs, phi: Formula):
    """pairs | phi: each state under phi with the pair's substitutions applied."""
    return [(Constraint(e, apply_subst_set(env, phi, X)), X) for e, X in pairs]


def _match(env, pairs, chosen):
    """w -| pairs, for the pair (alpha1, X1) chosen from w's derivative:
    alpha1 with each pair's substitutions applied, and X1 joined to them."""
    alpha1, X1 = chosen
    return [(Match(apply_subst_set(env, alpha1, X), e), X1 | X) for e, X in pairs]


def _erase(env, pairs, erased: frozenset):
    """The pairs of a tail whose head of variables was erased, which they assume."""
    return [(e, X | erased) for e, X in pairs]


def _derive(env: Environment, e: Expr, a: str) -> list[DerivPair]:
    """The derivative pairs of e by a, in the order of the recursive rules,
    from one loop over a worklist of (node, wrap) entries (see the module
    docstring). Each rule maps a list of pairs to a list of pairs, and an
    empty list leaves the rest of a wrap unrun."""
    out: list[DerivPair] = []
    todo: list = []     # the (node, wrap) entries still to derive, the next last
    wrap = None
    while True:
        kind = type(e)
        pairs = ()
        if kind is Cat:
            left, right = e.left, e.right
            if type(left) is not Word:
                if not never_null(env, left):
                    todo.append((right, (_guard, left, wrap)))
                e, wrap = left, (_odot_left, right, wrap)
                continue
            # the word rule; a head of variables only may also be erased,
            # for the tail to read a
            if all(map(env.is_variable, left.letters)):
                erased = frozenset((x, "") for x in left.letters)
                todo.append((apply_subst_set(env, right, erased),
                             (_erase, erased, wrap) if erased else wrap))
            pairs = [(Cat(Word(alpha), apply_subst_set(env, right, X)), X)
                     for alpha, X in derive_word(env, left.letters, a)]
        elif kind is Sum:
            todo.append((e.right, wrap))
            e = e.left
            continue
        elif kind is Star:
            e, wrap = e.child, (_odot_left, e, wrap)
            continue
        elif kind is Constraint:
            e, wrap = e.child, (_constrain, e.formula, wrap)
            continue
        elif kind is Word:
            pairs = [(Word(alpha), X) for alpha, X in derive_word(env, e.letters, a)]
        elif kind is Match:
            todo += [(apply_subst_set(env, e.child, chosen[1]), (_match, chosen, wrap))
                     for chosen in reversed(derive_word(env, e.word, a))]
        elif kind is not Empty:
            raise TypeError(e)
        while pairs and wrap is not None:
            rule, argument, wrap = wrap
            pairs = rule(env, pairs, argument)
        out += pairs
        if not todo:
            return out
        e, wrap = todo.pop()


def canonical(env: Environment, pairs: Iterable[DerivPair], phi=None):
    """pairs deduplicated and in canonical order, an iterator.

    The order sorts by printed expression, then by printed set, and of two
    pairs that print alike the later one wins (`in_printed_order`). With a
    formula phi, the pairs are those of a constraint's child, and the order
    is that of the states `E' | phi[X]`: each prints as its child's head,
    the child's text plus " | ", then phi[X]. A head holds no top-level
    " | " (a constraint child prints in parentheses), so two different heads
    order their states on their own, and phi[X] is substituted only when its
    state is pulled; children that print alike are ordered by their full
    printed states (`_pull`).
    """
    pairs = list(pairs)
    if phi is None:
        return iter(in_printed_order(pairs, lambda p: (expr_str(p[0]), subst_set_str(env, p[1]))))
    heads: dict = {}    # each pair's head, as printed to order it

    def key(pair):
        e, X = pair
        head = heads[pair] = ("(%s)" if type(e) is Constraint else "%s") % expr_str(e) + " | "
        return head, subst_set_str(env, X)

    return _pull(env, in_printed_order(pairs, key), heads, phi)


def _pull(env: Environment, pairs: list, heads: dict, phi):
    """The states of canonical's ordered pairs, each formula substituted
    when the pull reaches its group. A group is a run of pairs whose heads
    print alike, as heads records them; a lone pair, which canonical did
    not print, has no head. A group of two or more is ordered by its
    printed states, then sets."""
    def printed(state):
        return expr_str(state[0]), subst_set_str(env, state[1])

    for _head, group in itertools.groupby(pairs, heads.get):
        yield from in_printed_order(
            [(Constraint(e, apply_subst_set(env, phi, X)), X) for e, X in group], printed)


def _check_symbols(env: Environment, letters) -> None:
    for a in letters:
        if not env.is_symbol(a):
            raise PreconditionError("%r is not a symbol of the alphabet" % a)


def derive_expr(env: Environment, e: Expr, a: str) -> DerivativeSet:
    """Constrained derivative of an expression w.r.t. one symbol, canonical."""
    _check_symbols(env, [a])
    return tuple(_ordered(env, e, a))


def derive_expr_word(env: Environment, e: Expr, w: str) -> DerivativeSet:
    """Derivative w.r.t. a nonempty word; only the final step's sets are kept.

    Every letter of w is checked first; then each letter, the first
    included, derives the states of the set before it, from `(e, {})`, and
    the pairs are put in canonical order. That is the set and the order of
    derive_expr on one letter, since the search's lazy order is canonical's.
    """
    if w == "":
        raise PreconditionError("word derivatives are defined for nonempty words")
    _check_symbols(env, w)
    pairs = ((e, frozenset()),)
    for a in w:
        pairs = tuple(canonical(env, (p for e2, _X in pairs for p in _derive(env, e2, a))))
    return pairs


def derive_paths(env: Environment, e: Expr, w: str,
                 keep: Callable[[Expr, int], bool] | None = None):
    """The (derived expression, substitution-set chain) paths along w, lazily.

    The input and every letter of w are checked at call time; the paths then
    come from a generator that walks the canonical derivative sets depth
    first, in the order of the sets, so the paths arrive in the order of
    deriving every path by each letter in turn. keep(state, i) is asked of
    each state entered, the input included, where i is the number of
    letters of w read to reach it (0 for the input, len(w) for the end of a
    path), so w[i:] is what the state has yet to read. A state for which
    keep is false is neither yielded nor derived further. Under a
    constraint, a state's formula is substituted when the walk pulls the
    state, so a sibling that is never pulled costs only its printed child.
    """
    _check_symbols(env, w)
    return _walk_paths(env, e, w, keep)


def _walk_paths(env: Environment, e: Expr, w: str, keep):
    if keep is not None and not keep(e, 0):
        return
    if w == "":
        yield e, []
        return
    # stack[i] pulls the derivative set by w[i] of the path's state after
    # i letters, so its states have read i + 1; chain holds the substitution
    # sets of the states entered so far, one fewer than the stack holds
    chain: list = []
    stack = [_ordered(env, e, w[0])]
    while stack:
        read = len(stack)
        for e2, X in stack[-1]:
            if keep is None or keep(e2, read):
                break
        else:
            stack.pop()
            if chain:
                chain.pop()
            continue
        if read == len(w):
            yield e2, chain + [X]
        else:
            chain.append(X)
            stack.append(_ordered(env, e2, w[read]))


def _ordered(env: Environment, e: Expr, a: str):
    """canonical(env, _derive(env, e, a)), one state at a time: deriving
    `E | phi` derives E alone, and canonical substitutes phi[X] lazily."""
    if type(e) is Constraint:
        return canonical(env, _derive(env, e.child, a), e.formula)
    return canonical(env, _derive(env, e, a))


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
    def visit(node, values):
        kind = type(node)
        if kind is Sum:
            left, right = values
            if isinstance(left, Empty):
                return right
            if isinstance(right, Empty):
                return left
        elif kind is Cat:
            left, right = values
            if isinstance(left, Empty) or isinstance(right, Empty):
                return Empty()
            if type(left) is Word and not left.letters:
                return right
            if type(right) is Word and not right.letters:
                return left
        elif kind is Constraint:
            if isinstance(values[0], Empty):
                return Empty()
        elif kind is Match:
            child = values[0]
            if isinstance(child, Empty):
                return Empty()
            if node.word == "":
                if isinstance(child, Match) and child.word == "":
                    return child
                if child.null:
                    return Word("")
            word_child = as_mixed_word(child)
            if word_child is not None and _symbols_only(env, node.word) \
                    and _symbols_only(env, word_child):
                return Word(node.word) if node.word == word_child else Empty()
        return rebuild(node, values)   # a formula's nodes come back themselves

    return fold(e, visit)


def _symbols_only(env: Environment, w: str) -> bool:
    return all(env.is_symbol(c) for c in w)


def simplify(env: Environment, pairs: Iterable[DerivPair]) -> DerivativeSet:
    out = []
    for e, X in pairs:
        e2 = simplify_expr(env, e)
        if not isinstance(e2, Empty):
            out.append((e2, X))
    return tuple(canonical(env, out))
