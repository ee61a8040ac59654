"""Free-interpretation satisfiability: normalization, propositionalisation,
truth tables, separator words and witness construction.

Satisfiability of a constraint formula when neither the interpretation nor
the realization is fixed reduces to propositional satisfiability: normalize
the terms (right-associate catenations, drop eps units), replace every atom
by a propositional symbol indexed by its argument terms, and run a truth
table. A satisfying assignment is turned back into a concrete witness
(interpretation, realization) by binding variables and application nodes to
separator words of the shape a b^p a, which keeps distinct normalized terms
evaluating to distinct words.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .errors import ConfigError, TruthTableLimitError, UnsupportedAlphabetError
from .derivation import derive_paths
from .nullability import indicator_set
from .semantics import (
    FiniteRelation, Interpretation, Realization, TableFunction,
    eval_term,
)
from .syntax import (
    CAT, EPSILON, EPS_TERM,
    App, Atom, Conn, Environment, Expr, Formula, Term, Var,
    connective, subst_term, term_of_word, term_str, term_variables,
)

DEFAULT_MAX_PROPS = 20
MAX_PROPS_ENV = "CONSTREX_MAX_PROPS"


# ---------------------------------------------------------------------------
# term and formula normalization


def left_dot_level(t: Term) -> int:
    """Depth of the leftmost catenation spine; the reassociation measure."""
    if isinstance(t, App) and t.fn == CAT:
        return 1 + left_dot_level(t.args[0])
    return 0


def normalize_term(t: Term) -> Term:
    """Right-associate catenations and drop their eps children."""
    if isinstance(t, Var):
        return t
    if t.fn != CAT:
        return App(t.fn, tuple(normalize_term(a) for a in t.args))
    t1, t2 = t.args
    if t1 == EPS_TERM:
        return normalize_term(t2)
    if t2 == EPS_TERM:
        return normalize_term(t1)
    if isinstance(t1, App) and t1.fn == CAT:
        t3, t4 = t1.args
        return normalize_term(App(CAT, (t3, App(CAT, (t4, t2)))))
    n1 = normalize_term(t1)
    n2 = normalize_term(t2)
    if n2 == EPS_TERM:
        return n1
    return App(CAT, (n1, n2))


def is_normalized(t: Term) -> bool:
    """No eps child under a catenation; no catenation as a left child of one."""
    if isinstance(t, Var):
        return True
    if t.fn == CAT:
        t1, t2 = t.args
        if t1 == EPS_TERM or t2 == EPS_TERM:
            return False
        if isinstance(t1, App) and t1.fn == CAT:
            return False
        return is_normalized(t1) and is_normalized(t2)
    return all(is_normalized(a) for a in t.args)


def normalize_formula(phi: Formula) -> Formula:
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(normalize_term(t) for t in phi.args))
    return Conn(phi.tag, tuple(normalize_formula(c) for c in phi.children))


def terms_of_formula(phi: Formula) -> frozenset:
    if isinstance(phi, Atom):
        return frozenset(phi.args)
    out = frozenset()
    for c in phi.children:
        out |= terms_of_formula(c)
    return out


# ---------------------------------------------------------------------------
# propositionalisation


@dataclass(frozen=True)
class PropAtom:
    """Propositional symbol indexed by a predicate and its argument terms."""

    pred: str
    args: tuple

    def __str__(self):
        return "%s_{%s}" % (self.pred, ",".join(term_str(t) for t in self.args))


def propositionalize(phi: Formula):
    if isinstance(phi, Atom):
        return PropAtom(phi.pred, phi.args)
    return Conn(phi.tag, tuple(propositionalize(c) for c in phi.children))


def prop_alphabet(phi: Formula) -> Tuple[PropAtom, ...]:
    def collect(psi):
        if isinstance(psi, Atom):
            return {PropAtom(psi.pred, psi.args)}
        if isinstance(psi, PropAtom):
            return {psi}
        out = set()
        for c in psi.children:
            out |= collect(c)
        return out

    return tuple(sorted(collect(phi), key=str))


def eval_prop(psi, assignment: Dict[PropAtom, bool]) -> bool:
    if isinstance(psi, PropAtom):
        return assignment[psi]
    _, truth = connective(psi.tag)
    return bool(truth(*(eval_prop(c, assignment) for c in psi.children)))


def sat_truth_table(psi, max_props: Optional[int] = None) -> Optional[Dict[PropAtom, bool]]:
    """First satisfying assignment in lexicographic order, or None."""
    if max_props is None:
        text = os.environ.get(MAX_PROPS_ENV, str(DEFAULT_MAX_PROPS))
        if not text.strip().isdecimal():
            raise ConfigError("%s must be a nonnegative integer, got %r"
                              % (MAX_PROPS_ENV, text))
        max_props = int(text)
    atoms = prop_alphabet(psi)
    if len(atoms) > max_props:
        raise TruthTableLimitError(
            "propositional alphabet has %d symbols (limit %d)" % (len(atoms), max_props))
    for bits in range(2 ** len(atoms)):
        assignment = {atom: bool((bits >> (len(atoms) - 1 - i)) & 1)
                      for i, atom in enumerate(atoms)}
        if eval_prop(psi, assignment):
            return assignment
    return None


# ---------------------------------------------------------------------------
# separator words


def is_word_term(env: Environment, t: Term) -> bool:
    """Ground terms over symbol constants, eps and catenation only."""
    if isinstance(t, Var):
        return False
    if t.fn == CAT:
        return is_word_term(env, t.args[0]) and is_word_term(env, t.args[1])
    return not t.args and (t.fn == EPSILON or env.is_symbol(t.fn))


def word_of_term(t: Term) -> str:
    if isinstance(t, App) and t.fn == CAT:
        return word_of_term(t.args[0]) + word_of_term(t.args[1])
    if isinstance(t, App) and t.fn == EPSILON:
        return ""
    return t.fn


def _concat_sets(s1: frozenset, s2: frozenset) -> frozenset:
    return frozenset(u + v for u in s1 for v in s2)


def word_skeletons(env: Environment, t: Term):
    """(left words, right words, middle words) of a term.

    Leaves denoting a word contribute that word; opaque leaves (variables,
    other constants) contribute the empty word, since nothing is known about
    the letters they may produce.
    """
    if isinstance(t, Var) or not t.args:
        if isinstance(t, App) and env.is_symbol(t.fn):
            base = frozenset({t.fn})
        else:
            base = frozenset({""})
        return base, base, base
    if t.fn != CAT:
        middle = frozenset()
        for a in t.args:
            middle |= word_skeletons(env, a)[2]
        return frozenset(), frozenset(), middle
    t1, t2 = t.args
    l1, r1, m1 = word_skeletons(env, t1)
    l2, r2, m2 = word_skeletons(env, t2)
    w1, w2 = is_word_term(env, t1), is_word_term(env, t2)
    left = l1 if (not w1 or not l2) else _concat_sets(l1, l2)
    right = r2 if (not w2 or not r1) else _concat_sets(r1, r2)
    middle = _concat_sets(r1, l2)
    if not w1:
        middle |= m1
    if not w2:
        middle |= m2
    return left, right, middle


def factors(env: Environment, terms: Iterable[Term]) -> frozenset:
    """All contiguous subwords of all middle words of the given terms."""
    out = {""}
    for t in terms:
        for w in word_skeletons(env, t)[2]:
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    out.add(w[i:j])
    return frozenset(out)


def separator_word(env: Environment, terms: Iterable[Term]) -> str:
    """A word a b^p a that is not a factor of any of the given terms."""
    if len(env.symbols) < 2:
        raise UnsupportedAlphabetError(
            "separator words need at least two symbols (unary alphabets are open)")
    a, b = env.symbols[0], env.symbols[1]
    fs = factors(env, terms)
    run = 0
    while b * (run + 1) in fs:
        run += 1
    return a + b * (run + 1) + a


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class Witness:
    """A concrete (interpretation, realization) pair demonstrating satisfiability."""

    interpretation: Interpretation
    realization: Realization


def _replace_subterm(t: Term, target: Term, repl: Term) -> Term:
    if t == target:
        return repl
    if isinstance(t, App):
        return App(t.fn, tuple(_replace_subterm(a, target, repl) for a in t.args))
    return t


def _ground_apps(env: Environment, t: Term):
    """Non-catenation applications whose arguments are all ground words."""
    if isinstance(t, Var):
        return
    for a in t.args:
        yield from _ground_apps(env, a)
    if t.fn in (CAT, EPSILON) or env.is_symbol(t.fn):
        return
    if all(is_word_term(env, a) for a in t.args):
        yield t


def build_witness(env: Environment, phi: Formula,
                  assignment: Dict[PropAtom, bool]) -> Witness:
    """Turn a satisfying propositional assignment into a concrete witness.

    Variables, then innermost application nodes, are bound to fresh separator
    words; the resulting evaluation is an injection of the formula's terms,
    so predicate tables can mirror the assignment tuple by tuple.
    """
    if len(env.symbols) < 2:
        raise UnsupportedAlphabetError("witness construction needs two symbols")
    phi = normalize_formula(phi)
    terms = sorted({normalize_term(t) for t in terms_of_formula(phi)}, key=term_str)
    bindings: Dict[str, str] = {}
    overrides: Dict[str, dict] = {}
    while True:
        variables = sorted({v for t in terms for v in term_variables(t)})
        if not variables:
            break
        x = variables[0]
        w = separator_word(env, terms)
        bindings[x] = w
        terms = sorted({normalize_term(subst_term(env, t, {x: w})) for t in terms},
                       key=term_str)
    while True:
        apps = sorted({a for t in terms for a in _ground_apps(env, t)}, key=term_str)
        if not apps:
            break
        app = apps[0]
        w = separator_word(env, terms)
        overrides.setdefault(app.fn, {})[tuple(word_of_term(a) for a in app.args)] = w
        repl = term_of_word(env, w)
        terms = sorted({normalize_term(_replace_subterm(t, app, repl)) for t in terms},
                       key=term_str)
    functions = {name: TableFunction.from_dict(overrides.get(name, {}))
                 for name in env.functions}
    realization = Realization(env, bindings)
    interp = Interpretation(env, functions=functions)
    tables: Dict[str, set] = {name: set() for name in env.predicates}
    for atom in prop_alphabet(phi):
        if assignment[atom]:
            tables[atom.pred].add(
                tuple(eval_term(interp, realization, t) for t in atom.args))
    predicates = {name: FiniteRelation(frozenset(tuples))
                  for name, tuples in tables.items()}
    witness_interp = Interpretation(env, predicates=predicates, functions=functions)
    return Witness(witness_interp, realization)


def satisfiable_free(env: Environment, phi: Formula,
                     max_props: Optional[int] = None) -> Optional[Witness]:
    """Decide satisfiability over all interpretations and realizations."""
    if len(env.symbols) < 2:
        raise UnsupportedAlphabetError(
            "free satisfiability is implemented for alphabets with two symbols or more")
    normalized = normalize_formula(phi)
    assignment = sat_truth_table(propositionalize(normalized), max_props)
    if assignment is None:
        return None
    return build_witness(env, normalized, assignment)


# ---------------------------------------------------------------------------
# the general membership test


def null_general(env: Environment, e: Expr,
                 max_props: Optional[int] = None) -> Optional[Witness]:
    """A witness that the empty word belongs to the language of e, if any."""
    for erased, phi in indicator_set(env, e):
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


def membership_general(env: Environment, e: Expr, w: str,
                       max_props: Optional[int] = None) -> Optional[Witness]:
    """A witness that w belongs to the language of e, over all (I, r).

    The returned realization is rewound through the derivative chain, so the
    witness accepts w on the original expression, not just the empty word on
    a derived one.
    """
    if w == "":
        return null_general(env, e, max_props)
    for derived, chain in derive_paths(env, e, w):
        witness = null_general(env, derived, max_props)
        if witness is not None:
            r = witness.realization
            for X in reversed(chain):
                r = _extend_realization(r, X)
            return Witness(witness.interpretation, r)
    return None
