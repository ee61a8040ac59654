"""Free-interpretation satisfiability: normalization, propositionalisation,
the SAT search, separator words and witness construction.

Satisfiability of a constraint formula when neither the interpretation nor
the realization is fixed reduces to propositional satisfiability: normalize
the terms (right-associate catenations, drop eps units), read every atom
as a propositional symbol indexed by its argument terms, and search for the
lexicographically first satisfying assignment by backtracking with
three-valued evaluation (after Davis, Logemann and Loveland, 1962). A
satisfying assignment is turned back into a concrete witness
(interpretation, realization) by binding variables and application nodes to
separator words of the shape a b^p a, which keeps distinct normalized terms
evaluating to distinct words. One counter gives the separators: the first is
the shortest a b^p a that is not a factor of the terms, and each later one
has one b more. Separator words treat an application as opaque at its
edges, like a variable, so the letters on either side of it stay visible.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from .errors import ConfigError, TruthTableLimitError, UnsupportedAlphabetError
from .derivation import derive_paths, may_null
from .nullability import indicator_pairs
from .semantics import FiniteRelation, Interpretation, Realization, TableFunction
from .syntax import (
    AND, CAT, EPSILON, EPS_TERM, NOT, OR,
    App, Atom, Cat, Conn, Constraint, Empty, Environment, Expr, Formula, Match,
    Term, Var,
    check_sum_only, connective, is_sum, term_str, tree_variables, walk,
)

DEFAULT_MAX_PROPS = 20
MAX_PROPS_ENV = "CONSTREX_MAX_PROPS"

# The registry entries that _kleene may short-circuit and _positive may read
# as and/or; a tag re-registered later is evaluated through its own truth
# function instead.
_BUILTIN = {tag: connective(tag) for tag in (AND, OR, NOT)}


# ---------------------------------------------------------------------------
# term and formula normalization


def left_dot_level(t: Term) -> int:
    """Depth of the leftmost catenation spine; the reassociation measure."""
    if isinstance(t, App) and t.fn == CAT:
        return 1 + left_dot_level(t.args[0])
    return 0


def normalize_term(t: Term) -> Term:
    """Right-associate catenations and drop their eps children: the leaves
    of a catenation, read from one stack, are rebuilt right-nested."""
    if isinstance(t, Var):
        return t
    if t.fn != CAT:
        return App(t.fn, tuple(normalize_term(a) for a in t.args))
    leaves, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App) and u.fn == CAT:
            stack += (u.args[1], u.args[0])
        elif u != EPS_TERM:
            leaves.append(normalize_term(u))
    if not leaves:
        return EPS_TERM
    out = leaves.pop()
    while leaves:
        out = App(CAT, (leaves.pop(), out))
    return out


def is_normalized(t: Term) -> bool:
    """No eps child under a catenation; no catenation as a left child of one."""
    for n in walk(t):
        if isinstance(n, App) and n.fn == CAT:
            left = n.args[0]
            if EPS_TERM in n.args or isinstance(left, App) and left.fn == CAT:
                return False
    return True


def normalize_formula(phi: Formula) -> Formula:
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(normalize_term(t) for t in phi.args))
    return Conn(phi.tag, tuple(normalize_formula(c) for c in phi.children))


def terms_of_formula(phi: Formula) -> frozenset:
    return frozenset(t for n in walk(phi) if isinstance(n, Atom) for t in n.args)


# ---------------------------------------------------------------------------
# propositionalisation: each atom of a normalized formula is its own symbol


def _prop_name(atom: Atom) -> str:
    """The name p_{t1,...,tn} of an atom's propositional symbol."""
    return "%s_{%s}" % (atom.pred, ",".join(term_str(t) for t in atom.args))


def prop_alphabet(phi: Formula) -> Tuple[Atom, ...]:
    """The distinct atoms of phi, ordered by their propositional names."""
    return tuple(sorted({n for n in walk(phi) if isinstance(n, Atom)}, key=_prop_name))


def _compile(psi: Formula, index: Dict[Atom, int]):
    """psi with atoms replaced by their positions and connectives resolved.

    A connective node becomes (tag, truth, children). The tag is kept only
    for the built-in and, or and not, which get short-circuit evaluation.
    """
    if isinstance(psi, Atom):
        return index[psi]
    entry = connective(psi.tag)
    fast = psi.tag if _BUILTIN.get(psi.tag) is entry else None
    return fast, entry[1], tuple(_compile(c, index) for c in psi.children)


def _kleene(node, value: list) -> Optional[bool]:
    """Three-valued value of a compiled formula; None where it is not yet decided.

    value holds True, False or None (unassigned) per atom position. A
    registered connective with undecided children is decided only if every
    completion of those children gives the same result.
    """
    if type(node) is int:
        return value[node]
    tag, truth, children = node
    if tag == NOT:
        v = _kleene(children[0], value)
        return None if v is None else not v
    if tag is not None:
        stop = tag == OR
        out = not stop
        for c in children:
            v = _kleene(c, value)
            if v is stop:
                return stop
            if v is None:
                out = None
        return out
    known = [_kleene(c, value) for c in children]
    unknown = [i for i, v in enumerate(known) if v is None]
    results = set()
    for bits in itertools.product((False, True), repeat=len(unknown)):
        for i, b in zip(unknown, bits):
            known[i] = b
        results.add(bool(truth(*known)))
        if len(results) > 1:
            return None
    return results.pop()


def _resolve_max_props(max_props: Optional[int] = None) -> int:
    """The symbol limit of the SAT search: max_props, else CONSTREX_MAX_PROPS."""
    if max_props is not None:
        return max_props
    text = os.environ.get(MAX_PROPS_ENV, str(DEFAULT_MAX_PROPS))
    if not text.strip().isdecimal():
        raise ConfigError("%s must be a nonnegative integer, got %r"
                          % (MAX_PROPS_ENV, text))
    return int(text)


def sat_truth_table(psi: Formula,
                    max_props: Optional[int] = None) -> Optional[Dict[Atom, bool]]:
    """First satisfying assignment in lexicographic order, or None.

    The order reads False before True, with the first atom of prop_alphabet
    as the most significant. A depth-first search assigns the atoms in that
    order, False first, and evaluates psi three-valued after each step: a
    false prefix is cut, and a true one is completed with False, its
    lexicographically first extension. The search keeps its place in one
    list, so it never recurses once per atom.
    """
    max_props = _resolve_max_props(max_props)
    atoms = prop_alphabet(psi)
    if len(atoms) > max_props:
        raise TruthTableLimitError(
            "propositional alphabet has %d symbols (limit %d)" % (len(atoms), max_props))
    node = _compile(psi, {atom: i for i, atom in enumerate(atoms)})
    value = [None] * len(atoms)
    depth = -1
    while True:
        v = _kleene(node, value)
        if v is True:
            return {atom: b is True for atom, b in zip(atoms, value)}
        if v is None:
            depth += 1
            value[depth] = False
            continue
        while depth >= 0 and value[depth]:
            value[depth] = None
            depth -= 1
        if depth < 0:
            return None
        value[depth] = True


# ---------------------------------------------------------------------------
# separator words


def separator_word(env: Environment, terms: Iterable[Term]) -> str:
    """A word a b^p a that is not a factor of any of the given terms.

    p is one more than the longest run of b in a ground segment: a run of
    symbol and eps leaves read left to right along a catenation. Nothing is
    known of the letters a variable or another application gives, so each
    ends a segment, and so does each boundary between two arguments. One
    stack walk per term reads the leaves in order.
    """
    if len(env.symbols) < 2:
        raise UnsupportedAlphabetError(
            "separator words need at least two symbols (unary alphabets are open)")
    a, b = env.symbols[0], env.symbols[1]
    longest = 0
    for t in terms:
        run, stack = 0, [t]
        while stack:
            node = stack.pop()
            if node is None or isinstance(node, Var):  # None: after an argument
                run = 0
            elif node.fn == CAT:
                stack += (node.args[1], node.args[0])
            elif node.fn == b:
                run += 1
                longest = max(longest, run)
            elif node.fn != EPSILON:
                run = 0
                for arg in reversed(node.args):
                    stack += (None, arg)
    return a + b * (longest + 1) + a


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class Witness:
    """A concrete (interpretation, realization) pair demonstrating satisfiability."""

    interpretation: Interpretation
    realization: Realization


def build_witness(env: Environment, phi: Formula,
                  assignment: Dict[Atom, bool]) -> Witness:
    """Turn a satisfying propositional assignment into a concrete witness.

    Variables in name order, then innermost applications, are bound to the
    separator words a b^p a, a b^(p+1) a, ..., counted up from the separator
    word of the normalized terms. The next application bound is the ready
    one (all its arguments evaluate to words) that prints first as
    fn(w1, ..., wn). Since applications are opaque at their edges, every
    binding lands in a middle word between a delimiters, so rewriting the
    terms with the bindings so far would give the counter's next word. The
    evaluation is an injection of the formula's terms, so predicate tables
    can mirror the assignment tuple by tuple.
    """
    phi = normalize_formula(phi)
    terms = terms_of_formula(phi)
    first = separator_word(env, terms)
    a, b = first[0], first[1]
    separators = (a + b * p + a for p in itertools.count(len(first) - 2))
    bindings = {x: next(separators) for x in sorted(tree_variables(phi))}
    overrides: Dict[str, dict] = {name: {} for name in env.functions}

    def value(t: Term, ready: dict) -> Optional[str]:
        """The word t evaluates to, or None while an application in it is
        unbound; the ready unbound applications go into ready by key."""
        if isinstance(t, Var):
            return bindings[t.name]
        words = [value(u, ready) for u in t.args]
        if None in words:
            return None
        if t.fn == CAT:
            return words[0] + words[1]
        if t.fn == EPSILON:
            return ""
        if env.is_symbol(t.fn):
            return t.fn
        args = tuple(words)
        w = overrides[t.fn].get(args)
        if w is None:
            printed = ", ".join(u or "eps" for u in args)
            ready["%s(%s)" % (t.fn, printed) if args else t.fn] = t.fn, args
        return w

    while True:
        ready: dict = {}
        values = {t: value(t, ready) for t in terms}
        if not ready:
            break
        fn, args = ready[min(ready)]
        overrides[fn][args] = next(separators)
    functions = {name: TableFunction.from_dict(table)
                 for name, table in overrides.items()}
    tables: Dict[str, set] = {name: set() for name in env.predicates}
    for atom, holds in assignment.items():
        if holds:
            tables[atom.pred].add(tuple(values[t] for t in atom.args))
    predicates = {name: FiniteRelation(frozenset(tuples))
                  for name, tuples in tables.items()}
    return Witness(Interpretation(env, predicates=predicates, functions=functions),
                   Realization(env, bindings))


def satisfiable_free(env: Environment, phi: Formula,
                     max_props: Optional[int] = None) -> Optional[Witness]:
    """Decide satisfiability over all interpretations and realizations."""
    if len(env.symbols) < 2:
        raise UnsupportedAlphabetError(
            "free satisfiability is implemented for alphabets with two symbols or more")
    max_props = _resolve_max_props(max_props)
    normalized = normalize_formula(phi)
    assignment = sat_truth_table(normalized, max_props)
    if assignment is None:
        return None
    return build_witness(env, normalized, assignment)


# ---------------------------------------------------------------------------
# the general membership test


def null_general(env: Environment, e: Expr,
                 max_props: Optional[int] = None) -> Optional[Witness]:
    """A witness that the empty word belongs to the language of e, if any."""
    return _null_general(env, check_sum_only(e), _resolve_max_props(max_props))


def _null_general(env: Environment, e: Expr, max_props: int) -> Optional[Witness]:
    """null_general for a sum-only e: the first satisfiable indicator pair wins."""
    for erased, phi in indicator_pairs(env, e):
        witness = satisfiable_free(env, phi, max_props)
        if witness is not None:
            assignment = dict(witness.realization.assignment)
            for x in erased:
                assignment[x] = ""
            return Witness(witness.interpretation, Realization(env, assignment))
    return None


def _extend_realization(r: Realization, X: frozenset) -> Realization:
    assignment = dict(r.assignment)
    for x, rep in X:
        if rep == "":
            assignment[x] = ""
        else:
            assignment[x] = rep[0] + r(x)
    return Realization(r.env, assignment)


def _positive(phi: Formula) -> bool:
    """True if phi joins atoms by the built-in and/or only; then all-true satisfies it."""
    if isinstance(phi, Atom):
        return True
    return (phi.tag in (AND, OR) and _BUILTIN[phi.tag] is connective(phi.tag)
            and all(_positive(c) for c in phi.children))


def void_test(env: Environment, max_props: int) -> Callable[[Expr], bool]:
    """A test for states that denote the empty language under every (I, r).

    A state is void when it is empty, a catenation with a void factor, a sum
    of two void children, a match or constraint with a void child, `eps -| c`
    where c is never nullable, or a constraint whose formula is
    unsatisfiable. A formula of atoms joined by and/or only is satisfiable;
    any other is decided once by the SAT search, and one over more than
    max_props symbols counts as satisfiable.
    """
    unsat: Dict[Formula, bool] = {}

    def unsatisfiable(phi: Formula) -> bool:
        if _positive(phi):
            return False
        known = unsat.get(phi)
        if known is None:
            try:
                known = sat_truth_table(normalize_formula(phi), max_props) is None
            except TruthTableLimitError:
                known = False
            unsat[phi] = known
        return known

    def void(e: Expr) -> bool:
        if isinstance(e, Empty):
            return True
        if isinstance(e, Cat):
            return void(e.left) or void(e.right)
        if is_sum(e):
            return void(e.children[0]) and void(e.children[1])
        if isinstance(e, Match):
            return void(e.child) or (e.word == "" and not may_null(env, e.child))
        if isinstance(e, Constraint):
            return void(e.child) or unsatisfiable(e.formula)
        return False

    return void


def membership_general(env: Environment, e: Expr, w: str,
                       max_props: Optional[int] = None) -> Optional[Witness]:
    """A witness that w belongs to the language of e, over all (I, r).

    The derived states are searched lazily, depth first in derivative-set
    order, and the search stops at the first one whose empty-word test
    succeeds. States that void_test finds void are cut with everything
    derived from them: they denote the empty language under every (I, r),
    and so does every state derived from them, so the first success and its
    witness are those of the full search. The returned realization is
    rewound through the derivative chain, so the witness accepts w on the
    original expression, not just the empty word on a derived one.
    """
    max_props = _resolve_max_props(max_props)
    void = void_test(env, max_props)
    for derived, chain in derive_paths(env, e, w, lambda s: not void(s)):
        witness = _null_general(env, derived, max_props)
        if witness is not None:
            r = witness.realization
            for X in reversed(chain):
                r = _extend_realization(r, X)
            return Witness(witness.interpretation, r)
    return None
