"""Constrained partial derivatives of mixed words and constrained expressions.

A derivative is a finite set of (expression, substitution set) pairs; each
substitution set records the assumptions (x starts with a / x is empty) made
while consuming one symbol. Deriving a catenation whose left factor is a
mixed word threads the word rule's empty-word branch through the tail.
Crossing any other left factor F derives the right factor under the guard
`eps -| F`; the guard is elided when F is nullable under every
interpretation, and the right factor is not derived when F is nullable under
none, since the guard then denotes nothing. These readings are
language-preserving for every (I,r) and reproduce the worked derivative sets
of the source constructions. On a regular form, which has no variables and
no constraints, every left factor is one or the other, so the rules are
Antimirov's partial derivatives; the fixed-(I,r) engine of `semantics`
derives with them.

The derivative of `E | phi` is `E' | phi[X]` for each pair (E', X) of E's.
The sets come back whole and in canonical order from derive_expr; the path
search of derive_paths pulls them in the same order but substitutes phi[X]
only into the states it pulls.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .errors import PreconditionError
from .syntax import (
    Cat, Constraint, Empty, Environment, Expr, Match, Star, Sum, Word,
    apply_subst_set, as_mixed_word, expr_str, fold, rebuild, subst_set_str,
    subst_word,
)

DerivPair = tuple[Expr, frozenset]
DerivativeSet = tuple[DerivPair, ...]

_NOTHING = frozenset()  # the set of no assumptions


def derive_word(env: Environment, alpha: str, a: str) -> list[tuple[str, frozenset]]:
    """Constrained derivative of a mixed word w.r.t. one symbol.

    A leading variable x gives the pair that assumes x starts with a, then
    the pairs of the rest with x erased; a loop walks that run of erased
    variables, each pair carrying the erasures made before it."""
    out = []
    erased = _NOTHING
    while alpha:
        head, rest = alpha[0], alpha[1:]
        if head == a:
            out.append((rest, erased))
            break
        if not env.is_variable(head):
            break
        x = head
        out.append((x + subst_word(rest, {x: a + x}), erased | {(x, a + x)}))
        erased |= {(x, "")}
        alpha = subst_word(rest, {x: ""})
    return out


def _summands(e: Sum):
    """The summands of a sum chain, left to right, whichever way it nests."""
    stack = [e]
    while stack:
        e = stack.pop()
        if type(e) is Sum:
            stack += (e.right, e.left)
        else:
            yield e


def const_null(e: Expr) -> bool:
    """True iff the empty word is denoted under every interpretation and realization.

    A catenation's right spine and a chain of matches are a loop, and so is
    a sum chain of any nesting; only a left factor and a summand are calls.
    """
    while True:
        kind = type(e)
        if kind is Cat:
            if not const_null(e.left):
                return False
            e = e.right
        elif kind is Match:
            if e.word != "":
                return False
            e = e.child
        elif kind is Sum:
            return any(map(const_null, _summands(e)))
        else:
            return kind is Star or kind is Word and e.letters == ""


def never_null(env: Environment, e: Expr) -> bool:
    """True iff the empty word is denoted under no interpretation and realization.

    Loops as const_null does, a chain of constraints included.
    """
    while True:
        kind = type(e)
        if kind is Word:
            return not all(env.is_variable(c) for c in e.letters)
        if kind is Cat:
            if never_null(env, e.left):
                return True
            e = e.right
        elif kind is Match:
            if not all(env.is_variable(c) for c in e.word):
                return True
            e = e.child
        elif kind is Constraint:
            e = e.child
        elif kind is Sum:
            return all(never_null(env, s) for s in _summands(e))
        else:
            return kind is Empty


def _odot_left(env, pairs, right: Expr):
    """pairs (.) F: append the substituted factor on the right."""
    return [(Cat(e, apply_subst_set(env, right, X)), X) for e, X in pairs]


def _guard(env, left: Expr, pairs):
    """F (.) pairs: prepend `eps -| F` with the pair's substitutions applied."""
    if const_null(left):
        return list(pairs)
    return [(Cat(Match("", apply_subst_set(env, left, X)), e), X) for e, X in pairs]


def _derive(env: Environment, e: Expr, a: str) -> list[DerivPair]:
    kind = type(e)
    if kind is Cat:
        if type(e.left) is Word:
            return _derive_word_headed(env, e.left.letters, e.right, a)
        out = _odot_left(env, _derive(env, e.left, a), e.right)
        if not never_null(env, e.left):
            out += _guard(env, e.left, _derive(env, e.right, a))
        return out
    if kind is Word:
        return [(Word(alpha), X) for alpha, X in derive_word(env, e.letters, a)]
    if kind is Sum:
        # the summands left to right in one loop, whichever way the sums
        # nest: a left child that is a sum is entered, its parent's right
        # child waiting on a linked stack
        out = []
        waiting = None
        while True:
            left = e.left
            if type(left) is Sum:
                waiting = e.right, waiting
                e = left
                continue
            out += _derive(env, left, a)
            e = e.right
            while type(e) is not Sum:
                out += _derive(env, e, a)
                if waiting is None:
                    return out
                e, waiting = waiting
    if kind is Star:
        return _odot_left(env, _derive(env, e.child, a), e)
    if kind is Match:
        # a chain of matches is a loop: each path holds its node below the
        # matches passed so far and the (word, set) pairs chosen at them,
        # innermost first, linked; the paths keep the order of choosing at
        # each match in turn
        paths = [(e, None)]
        while paths and type(e) is Match:
            paths = [(apply_subst_set(env, node.child, X1), (alpha1, X1, chosen))
                     for node, chosen in paths
                     for alpha1, X1 in derive_word(env, node.word, a)]
            e = e.child     # substitution keeps the node types of the chain
        out = []
        for node, chosen in paths:
            for e2, X2 in _derive(env, node, a):
                link = chosen
                while link is not None:
                    alpha1, X1, link = link
                    e2, X2 = Match(apply_subst_set(env, alpha1, X2), e2), X1 | X2
                out.append((e2, X2))
        return out
    if kind is Constraint:
        return [(Constraint(e2, apply_subst_set(env, e.formula, X)), X)
                for e2, X in _derive(env, e.child, a)]
    if kind is Empty:
        return []
    raise TypeError(e)


def _derive_word_headed(env, alpha: str, tail: Expr, a: str) -> list[DerivPair]:
    """Derive `alpha . tail` by the word rule, applying each pair's set to the tail.

    A head of variables only may also be erased for the tail to consume a.
    When the erased tail is word-headed in turn, the loop derives it, each
    pair carrying the erasures made before it.
    """
    out = []
    erased = _NOTHING
    while True:
        out += [(Cat(Word(alpha2), apply_subst_set(env, tail, X)),
                 X | erased if erased else X)
                for alpha2, X in derive_word(env, alpha, a)]
        if not all(env.is_variable(c) for c in alpha):
            return out
        here = frozenset((x, "") for x in alpha)
        erased |= here
        tail = apply_subst_set(env, tail, here)
        if type(tail) is not Cat or type(tail.left) is not Word:
            return out + [(e2, X | erased) for e2, X in _derive(env, tail, a)]
        alpha, tail = tail.left.letters, tail.right


def canonical(env: Environment, pairs: Iterable[DerivPair], phi=None):
    """pairs deduplicated and in canonical order, an iterator.

    The order sorts by printed expression, then by printed set, and of two
    pairs that print alike the later one wins. With a formula phi, the pairs
    are those of a constraint's child, and the order is that of the states
    `E' | phi[X]`: each prints as its child's head, the child's text plus
    " | ", then phi[X]. A head holds no top-level " | " (a constraint child
    prints in parentheses), so two different heads order their states on
    their own, and phi[X] is substituted only when its state is pulled;
    children that print alike are ordered by their full printed states. A
    lone pair is yielded without printing it.
    """
    pairs = list(pairs)
    if len(pairs) == 1:     # one pair is its own order: print nothing
        return _pull(env, [{None: pairs[0]}], phi)
    groups: dict = {}
    for e, X in pairs:
        head = expr_str(e)
        if phi is not None:
            head = ("(" + head + ")" if type(e) is Constraint else head) + " | "
        groups.setdefault(head, {})[subst_set_str(env, X)] = e, X
    return _pull(env, [groups[head] for head in sorted(groups)], phi)


def _pull(env: Environment, groups: list, phi):
    """The pairs of canonical's sorted groups, each state's formula
    substituted as it is pulled."""
    for group in groups:
        if phi is None:
            for s in sorted(group):
                yield group[s]
        elif len(group) == 1:
            (e, X), = group.values()
            yield Constraint(e, apply_subst_set(env, phi, X)), X
        else:
            tied = {}
            for s, (e, X) in group.items():
                state = Constraint(e, apply_subst_set(env, phi, X))
                tied[expr_str(state), s] = state, X
            for key in sorted(tied):
                yield tied[key]


def _check_symbols(env: Environment, letters) -> None:
    for a in letters:
        if not env.is_symbol(a):
            raise PreconditionError("%r is not a symbol of the alphabet" % a)


def derive_expr(env: Environment, e: Expr, a: str) -> DerivativeSet:
    """Constrained derivative of an expression w.r.t. one symbol, canonical."""
    _check_symbols(env, [a])
    return tuple(_ordered(env, e, a))


def derive_expr_word(env: Environment, e: Expr, w: str) -> DerivativeSet:
    """Derivative w.r.t. a nonempty word; only the final step's sets are kept."""
    if w == "":
        raise PreconditionError("word derivatives are defined for nonempty words")
    pairs = derive_expr(env, e, w[0])
    _check_symbols(env, w[1:])
    for a in w[1:]:
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
            if left == Word(""):
                return right
            if right == Word(""):
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
                if const_null(child):
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
