"""Free-interpretation satisfiability: normalization, propositionalisation,
the SAT search, separator words and witness construction.

Satisfiability of a constraint formula when neither the interpretation nor
the realization is fixed reduces to propositional satisfiability: normalize
the terms (right-associate catenations, drop eps units), read every atom
as a propositional symbol indexed by its argument terms, and search for the
lexicographically first satisfying assignment. The search encodes the
formula as clauses with one gate variable per distinct subformula (after
Tseitin, 1968), decides the atoms in order, False first, and propagates
unit clauses between decisions, reading each clause that holds a literal
turned false (after Davis, Logemann and Loveland, 1962). Propagation sets
only values that every model below the current assignment shares, so the
first model found is the lexicographically first. A satisfying assignment
is turned back into a concrete witness (interpretation, realization) by
binding variables and application nodes to separator words of the shape
a b^p a, which keeps distinct normalized terms evaluating to distinct words.
One counter gives the separators: the first is the shortest a b^p a that is
not a factor of the terms, and each later one has one b more. Separator
words treat an application as opaque at its edges, like a variable, so the
letters on either side of it stay visible.
"""

from __future__ import annotations

import itertools
import operator
import os
from collections.abc import Callable, Iterable

from .errors import ConfigError, TruthTableLimitError, UnsupportedAlphabetError
from .derivation import derive_paths, need
from .nullability import indicator_pairs
from .semantics import FiniteRelation, Interpretation, Realization, TableFunction
from .syntax import (
    AND, CAT, EPSILON, EPS_TERM, NOT, OR, TRUE,
    App, Atom, Environment, Expr, Formula, Term, Var,
    _Value, connective, fold, rebuild, term_str, tree_variables, walk,
)

DEFAULT_MAX_PROPS = 20
MAX_PROPS_ENV = "CONSTREX_MAX_PROPS"

# The registry entries that _tseitin may encode natively and _one_sided may
# read by their built-in meaning; a tag re-registered later is encoded
# through its own truth function instead.
_BUILTIN = {tag: connective(tag) for tag in (TRUE, AND, OR, NOT)}


# ---------------------------------------------------------------------------
# term and formula normalization


def left_dot_level(t: Term) -> int:
    """Depth of the leftmost catenation spine; the reassociation measure."""
    level = 0
    while isinstance(t, App) and t.fn == CAT:
        level += 1
        t = t.args[0]
    return level


def _right_nested(leaves: list) -> Term:
    """The catenation of the leaves, right-nested; eps for none."""
    if not leaves:
        return EPS_TERM
    out = leaves.pop()
    while leaves:
        out = App(CAT, (leaves.pop(), out))
    return out


def normalize_term(t: Term) -> Term:
    """Right-associate catenations and drop their eps children; t itself
    when it is already normal (its flag `normal`).

    One stack keeps the place, so a deep term needs no recursion. A node
    that is not normal has its parts done before it: the arguments of an
    application, or the leaves of a catenation, eps dropped. Then a
    catenation is rebuilt right-nested from its leaves, and any other node
    from its arguments; a normal part is done as it is.
    """
    if t.normal:
        return t
    done: list = []     # the results of the finished nodes, in order
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is tuple:   # second visit: the parts are done
            node, parts = node
            start = len(done) - len(parts)
            new = done[start:]
            del done[start:]
            done.append(_right_nested(new) if node.fn == CAT
                        else App(node.fn, tuple(new)))
            continue
        if node.normal:
            done.append(node)
            continue
        parts = node.args
        if node.fn == CAT:
            parts, spine = [], [node]
            while spine:
                u = spine.pop()
                if type(u) is Var:
                    parts.append(u)
                elif u.fn == CAT:
                    spine += (u.args[1], u.args[0])
                elif u.fn != EPSILON:
                    parts.append(u)
        stack.append((node, parts))
        stack += reversed(parts)
    return done[0]


def is_normalized(t: Term) -> bool:
    """No eps child under a catenation; no catenation as a left child of one."""
    for n in walk(t):
        if isinstance(n, App) and n.fn == CAT:
            left = n.args[0]
            if EPS_TERM in n.args or isinstance(left, App) and left.fn == CAT:
                return False
    return True


def _normalized(node, values):
    if type(node) is Atom:
        values = list(map(normalize_term, node.args))
    return rebuild(node, values)


def normalize_formula(phi: Formula) -> Formula:
    """phi with the terms of its atoms normalized; phi itself when they
    already are (its flag `normal`). A node is rebuilt only if one of its
    children changed."""
    if phi.normal:
        return phi
    return fold(phi, _normalized)


def terms_of_formula(phi: Formula) -> frozenset:
    return frozenset(t for n in walk(phi) if isinstance(n, Atom) for t in n.args)


# ---------------------------------------------------------------------------
# propositionalisation: each atom of a normalized formula is its own symbol


def _prop_name(atom: Atom) -> str:
    """The name p_{t1,...,tn} of an atom's propositional symbol."""
    return "%s_{%s}" % (atom.pred, ",".join(term_str(t) for t in atom.args))


def _alphabet(phi: Formula) -> tuple[tuple[Atom, ...], list]:
    """prop_alphabet(phi), and the index in it of each atom occurrence.

    The occurrences are read in walk order from a stack over the connectives
    alone, so no term is entered, and each is hashed once: distinct atoms
    are numbered as first seen, and each distinct atom is printed once to
    sort them, when there are two or more.
    """
    first: dict[Atom, int] = {}     # each distinct atom -> its first-seen number
    seen = []
    stack = [phi]
    while stack:
        node = stack.pop()
        if type(node) is Atom:
            seen.append(first.setdefault(node, len(first)))
        else:
            stack += reversed(node.children)
    distinct = list(first)
    if len(distinct) < 2:   # one atom is its own order: print nothing
        return tuple(distinct), seen
    order = sorted(range(len(distinct)), key=lambda i: _prop_name(distinct[i]))
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return tuple(distinct[i] for i in order), [rank[i] for i in seen]


def prop_alphabet(phi: Formula) -> tuple[Atom, ...]:
    """The distinct atoms of phi, ordered by their propositional names."""
    return _alphabet(phi)[0]


def _tseitin(psi: Formula, atoms: int, occurrences: list) -> tuple[int, list]:
    """The clauses of psi: its variable count, then its clauses, root last.

    Literal 2v says variable v is true and 2v + 1 that it is false. The
    atoms are variables 0..atoms-1, and occurrences gives the variable of
    each atom occurrence in walk order, the order in which fold visits them
    (_alphabet). Each connective node becomes one gate variable, keyed by
    its tag and its children's literals, so equal subformulas share a gate.
    A built-in not is literal negation, a built-in and/or of any arity gets
    its native clauses, and any other connective gets one clause per row of
    its truth table.
    """
    gates: dict[tuple, int] = {}
    clauses: list = []
    occurrence = iter(occurrences)

    def literal(node, lits) -> int:
        if type(node) is Atom:
            return 2 * next(occurrence)
        tag, entry = node.tag, connective(node.tag)
        native = tag if _BUILTIN.get(tag) is entry else None
        if native == NOT:
            return lits[0] ^ 1
        key = (tag, tuple(lits))
        g = gates.get(key)
        if g is None:
            g = gates[key] = 2 * (atoms + len(gates))
            if native == AND:   # g -> each child; all children -> g
                clauses.extend((g ^ 1, c) for c in lits)
                clauses.append((g, *[c ^ 1 for c in lits]))
            elif native == OR:  # each child -> g; g -> some child
                clauses.extend((g, c ^ 1) for c in lits)
                clauses.append((g ^ 1, *lits))
            else:   # a row's inputs force g to the row's value
                truth = entry[1]
                for row in itertools.product((False, True), repeat=len(lits)):
                    clauses.append((*map(operator.xor, lits, row),
                                    g if truth(*row) else g ^ 1))
        return g

    clauses.append((fold(psi, literal),))
    return atoms + len(gates), clauses


def _first_model(variables: int, atoms: int, clauses: list) -> list | None:
    """The lexicographically first values of variables 0..atoms-1 in a model
    of the clauses, or None: the search of sat_truth_table.

    value[lit] is True, False or None (unassigned) for each literal, and
    occurs[lit] lists the clauses that hold lit. A clause of three literals
    or more has its repeated ones removed as it is loaded, so a gate whose
    inputs repeat still forces them; _tseitin's shorter clauses never repeat
    a variable. When a literal turns false, each clause that holds it is
    read whole: it is skipped if one of its literals is true, a conflict if
    none is left unassigned, and forces its one unassigned literal if
    exactly one is left.
    """
    value: list = [None] * (2 * variables)
    occurs: list = [[] for _ in value]
    units = []
    for clause in clauses:
        if len(clause) > 2:
            clause = tuple(dict.fromkeys(clause))
        elif len(clause) == 1:
            units.append(clause[0])
        for lit in clause:
            occurs[lit].append(clause)
    trail: list = []
    push = trail.append

    def assign(lit: int) -> bool:
        """Make lit true with all it forces; False on a conflict."""
        if value[lit] is not None:
            return value[lit]
        value[lit], value[lit ^ 1] = True, False
        head = len(trail)
        push(lit)
        while head < len(trail):
            for clause in occurs[trail[head] ^ 1]:
                free = None     # the one unassigned literal seen so far
                for other in clause:
                    known = value[other]
                    if known or known is None and free is not None:
                        break   # satisfied, or two left unassigned
                    if known is None:
                        free = other
                else:
                    if free is None:
                        return False
                    value[free], value[free ^ 1] = True, False
                    push(free)
            head += 1
        return True

    for lit in units:
        if not assign(lit):
            return None
    decisions = []      # (trail length before it, atom) per decision on False
    atom = 0
    while True:
        while atom < atoms and value[2 * atom] is not None:
            atom += 1
        if atom == atoms:
            return value[0:2 * atoms:2]
        decisions.append((len(trail), atom))
        ok = assign(2 * atom + 1)
        while not ok:   # no model below: the latest False becomes True
            if not decisions:
                return None
            mark, atom = decisions.pop()
            for lit in trail[mark:]:
                value[lit] = value[lit ^ 1] = None
            del trail[mark:]
            ok = assign(2 * atom)


def _resolve_max_props(max_props: int | None = None) -> int:
    """The symbol limit of the SAT search: max_props, else CONSTREX_MAX_PROPS.

    Either must be a nonnegative integer, and a bool is none; anything else
    raises ConfigError.
    """
    name, limit = "max_props", max_props
    if max_props is None:
        text = os.environ.get(MAX_PROPS_ENV, str(DEFAULT_MAX_PROPS))
        name, limit = MAX_PROPS_ENV, int(text) if text.strip().isdecimal() else text
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
        raise ConfigError("%s must be a nonnegative integer, got %r" % (name, limit))
    return limit


def sat_truth_table(psi: Formula,
                    max_props: int | None = None) -> dict[Atom, bool] | None:
    """First satisfying assignment in lexicographic order, or None.

    The order reads False before True, with the first atom of prop_alphabet
    as the most significant. psi becomes clauses (_tseitin): atom i is
    variable i, and each distinct connective node is one gate defined by its
    clauses, so a subformula that occurs twice is decided once. Each atom
    occurrence is hashed once, to number it (_alphabet); a model's dict
    hashes each distinct atom once more. The search
    (_first_model) decides the atoms only, in order, False first, and after
    each decision propagates unit clauses over one occurrence list per
    literal: when a literal turns false, each clause that holds it is read
    whole, and one with a single unassigned literal left forces it. On a
    conflict the search flips the latest decision still on False. Once every
    atom has a value, propagation has given every gate one too, so a
    conflict-free full assignment is a model.

    The first model found is the lexicographically first: propagation only
    sets a value that every model extending the current assignment shares,
    so the subtree it skips holds no model, and the decisions visit the rest
    in lexicographic order. The search keeps its place in lists, with no
    clause learning, no backjumping and no restarts, so it never recurses
    once per atom or per nesting level.
    """
    max_props = _resolve_max_props(max_props)
    atoms, occurrences = _alphabet(psi)
    if len(atoms) > max_props:
        raise TruthTableLimitError(
            "propositional alphabet has %d symbols (limit %d)" % (len(atoms), max_props))
    variables, clauses = _tseitin(psi, len(atoms), occurrences)
    model = _first_model(variables, len(atoms), clauses)
    return None if model is None else dict(zip(atoms, model))


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


class Witness(_Value):
    """A concrete (interpretation, realization) pair demonstrating satisfiability."""

    __slots__ = ("interpretation", "realization")

    def __init__(self, interpretation: Interpretation, realization: Realization):
        self.interpretation = interpretation
        self.realization = realization


def _call_key(call: tuple) -> tuple:
    """The order of a function name and its argument words: as printed,
    fn(w1, ..., wn) with the empty word as eps, then by the words, since a
    word of the symbols e, p and s prints as the empty word does."""
    fn, args = call
    return ("%s(%s)" % (fn, ", ".join(u or "eps" for u in args)) if args else fn), call


def build_witness(env: Environment, phi: Formula,
                  assignment: dict[Atom, bool]) -> Witness:
    """Turn a satisfying propositional assignment into a concrete witness.

    Variables in name order, then innermost applications, are bound to the
    separator words a b^p a, a b^(p+1) a, ..., counted up from the separator
    word of the normalized terms. The next application bound is the ready
    one (all its arguments evaluate to words) that comes first by
    `_call_key`; a lone ready one is bound without printing it. Since
    applications are opaque at their edges, every binding lands in a middle
    word between a delimiters, so rewriting the terms with the bindings so
    far would give the counter's next word. The evaluation is an injection
    of the formula's terms, so predicate tables can mirror the assignment
    tuple by tuple.
    """
    phi = normalize_formula(phi)
    terms = terms_of_formula(phi)
    first = separator_word(env, terms)
    a, b = first[0], first[1]
    separators = (a + b * p + a for p in itertools.count(len(first) - 2))
    bindings = {x: next(separators) for x in sorted(tree_variables(phi))}
    overrides: dict[str, dict] = {name: {} for name in env.functions}

    def value(t: Term, words) -> str | None:
        """The word t evaluates to, given the words of its arguments, or
        None while an application in it is unbound; the ready unbound
        applications go into ready as (fn, argument words)."""
        if type(t) is Var:
            return bindings[t.name]
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
            ready.add((t.fn, args))
        return w

    while True:
        ready: set = set()
        values = {t: fold(t, value) for t in terms}
        if not ready:
            break
        fn, args = min(ready, key=_call_key) if len(ready) > 1 else ready.pop()
        overrides[fn][args] = next(separators)
    functions = {name: TableFunction.from_dict(table)
                 for name, table in overrides.items()}
    tables: dict[str, set] = {name: set() for name in env.predicates}
    for atom, holds in assignment.items():
        if holds:
            tables[atom.pred].add(tuple(values[t] for t in atom.args))
    predicates = {name: FiniteRelation(frozenset(tuples))
                  for name, tuples in tables.items()}
    return Witness(Interpretation(env, predicates=predicates, functions=functions),
                   Realization(env, bindings))


def satisfiable_free(env: Environment, phi: Formula,
                     max_props: int | None = None) -> Witness | None:
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
                 max_props: int | None = None) -> Witness | None:
    """A witness that the empty word belongs to the language of e, if any."""
    return _null_general(env, e, _resolve_max_props(max_props))


def _null_general(env: Environment, e: Expr, max_props: int) -> Witness | None:
    """null_general with a resolved limit: the first satisfiable indicator pair wins."""
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


def _one_sided(phi: Formula, polarity: dict | None) -> bool:
    """True if phi is built from atoms by the built-in and, or, not and
    true, with no true negated and no atom both negated and not.

    Then the assignment that makes each atom occurrence true satisfies phi.
    polarity maps each atom seen to its polarity; with polarity None, a
    negated atom gives False as well and no atom is hashed, so phi must
    join atoms by and/or/true only. The search stops at the first subformula
    that fails, and keeps its place on one stack of (subformula, polarity)
    pairs.
    """
    stack = [(phi, True)]
    while stack:
        node, positive = stack.pop()
        if type(node) is Atom:
            if not (positive if polarity is None
                    else polarity.setdefault(node, positive) is positive):
                return False
            continue
        tag = node.tag
        if tag not in _BUILTIN or _BUILTIN[tag] is not connective(tag) \
                or tag == TRUE and not positive:
            return False
        if tag == NOT:
            positive = not positive
        stack += [(c, positive) for c in reversed(node.children)]
    return True


def letter_need(env: Environment, max_props: int) -> Callable[[Expr], tuple | None]:
    """What a state needs of the rest of the word, or None for a void state.

    need(e) is a tuple that bounds from below, under every (I, r), the
    letters of each word e denotes: first its length, then its copies of
    each symbol of env.symbols, in their order. It is built bottom-up: a
    word counts its letters that are no variable, since a variable may be
    realized empty; a catenation adds; a sum takes the minimum over its
    non-void children; a star needs nothing; a constraint passes its child's
    need; and `w -| F` takes the maximum of w's and F's.

    A state is void when it denotes the empty language under every (I, r):
    it is empty, a catenation with a void factor, a sum of two void
    children, a match or constraint with a void child, `eps -| c` where c
    needs a letter, or a constraint whose formula is unsatisfiable. A
    formula of atoms joined by and/or only is satisfiable, read as it is.
    Any other is normalized once: it is satisfiable if it is one-sided
    (_one_sided), and else the SAT search decides it; one over more than
    max_props symbols counts as satisfiable. `derivation.need` gives both
    answers in one pass, and keeps the need of each node whose need no
    formula decides, so a state's shared subtrees are not walked again.
    """
    unsat: dict[Formula, bool] = {}     # this query's answers, by formula

    def unsatisfiable(phi: Formula) -> bool:
        if _one_sided(phi, None):
            return False
        known = unsat.get(phi)
        if known is None:
            normal = normalize_formula(phi)
            try:
                known = not _one_sided(normal, {}) and sat_truth_table(normal, max_props) is None
            except TruthTableLimitError:
                known = False
            unsat[phi] = known
        return known

    return lambda e: need(env, e, unsatisfiable)


def membership_general(env: Environment, e: Expr, w: str,
                       max_props: int | None = None) -> Witness | None:
    """A witness that w belongs to the language of e, over all (I, r).

    The derived states are searched lazily, depth first in derivative-set
    order, and the search stops at the first one whose empty-word test
    succeeds. A state reached after reading i letters is cut, with
    everything derived from it, when letter_need finds it void or finds it
    needs more letters, or more of some symbol, than w[i:] holds: under no
    (I, r) does it accept w[i:], so no path through it succeeds, and the
    first success and its witness are those of the full search. The letters
    of each suffix of w are counted once per query. The returned realization
    is rewound through the derivative chain, so the witness accepts w on the
    original expression, not just the empty word on a derived one.
    """
    max_props = _resolve_max_props(max_props)
    need_of = letter_need(env, max_props)

    def keep(state: Expr, i: int) -> bool:
        wanted = need_of(state)
        return wanted is not None and all(map(operator.le, wanted, have[i]))

    paths = derive_paths(env, e, w, keep)   # raises unless w is all symbols
    # have[i]: the letters of w[i:], counted in need's order
    counts = [0] * len(env.symbols)
    have = [(0, *counts)]
    for a in reversed(w):
        counts[env.letter_rank[a]] += 1
        have.append((len(have), *counts))
    have.reverse()
    for derived, chain in paths:
        witness = _null_general(env, derived, max_props)
        if witness is not None:
            r = witness.realization
            for X in reversed(chain):
                r = _extend_realization(r, X)
            return Witness(witness.interpretation, r)
    return None
