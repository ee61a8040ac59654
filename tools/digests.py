"""Print three SHA-256 digests over a fixed set of benchmark queries: one over
their parsed trees, one over what prints of them, one over their answers.

    python tools/digests.py [ROOT]

The queries are those of ``bench/workloads.py``: ``free-positive`` and
``free-negative`` seeds 1-7, rounds 0 and 1, and ``fixed-long`` seeds 1-3,
round 0 (465 queries). Each is answered in process through the library, as
``bench/run.py`` does, and the digest covers each query's workload, seed,
round, family, size, verdict text and verdict key (the witness key of a free
query). Two source trees that print the same verdict digest give the same
verdicts and witnesses on all of them.

The parse digest covers the tree of each query text, node by node in
``syntax.walk`` order, each node as its class name and its fields that hold
no child. So it reads a tree of any depth, and it tells apart catenations
that associate differently, which print alike. Two source trees that print
the same parse digest build the same trees from all of these texts.

The print digest covers the printed text of each query: its parsed tree by
``expr_str`` or ``formula_str``; for a fixed query, ``regex_str`` of its
regular form; for a general query with a nonempty word, its derivative set
by the word's first letter, one line per pair, the state by ``expr_str``, a
tab, then the set by ``subst_set_str``. Two source trees that print the same
print digest print these alike, in the same order.

The output is the parse digest, then the print digest, then the count of
queries, then the verdict digest, last. ``tools/digests.txt`` holds the output for the committed
source; CI compares against it, so a change that alters how any of these
queries parse or answer must update that file with it.

ROOT is a checkout of the repository, by default the one holding this file;
its ``src`` and ``bench`` are imported, and nothing is written. Stdlib only.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

QUERIES = [("free-positive", range(1, 8), (0, 1)),
           ("free-negative", range(1, 8), (0, 1)),
           ("fixed-long", range(1, 4), (0,))]


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import run          # bench/run.py: verdict_key and verdict_text
    import workloads
    from constrex import derivation, logic, parser, semantics, syntax

    envs = {k: parser.parse_environment(v) for k, v in workloads.ENVIRONMENTS.items()}

    def bindings(text):
        return dict(part.partition("=")[::2] for part in text.split(",") if part)

    def parse(q):
        rule = parser.parse_formula if q.kind == "sat" else parser.parse_expression
        return rule(q.text, envs[q.env])

    def fixed(q):
        """The interpretation and realization of a fixed query."""
        env = envs[q.env]
        bound = bindings(q.interp)
        interp = semantics.Interpretation(
            env, {k: v for k, v in bound.items() if k in env.predicates},
            {k: v for k, v in bound.items() if k not in env.predicates})
        return interp, semantics.Realization(env, bindings(q.real))

    def answer(q, tree):
        env = envs[q.env]
        if q.kind == "fixed":
            return semantics.membership_fixed(*fixed(q), tree, q.word)
        if q.kind == "general":
            return logic.membership_general(env, tree, q.word)
        return logic.satisfiable_free(env, tree)

    def printed(q, tree):
        """The lines that print of a query's tree."""
        env = envs[q.env]
        if q.kind == "sat":
            yield syntax.formula_str(tree)
            return
        yield syntax.expr_str(tree)
        if q.kind == "fixed":
            yield syntax.regex_str(semantics.regularize(*fixed(q), tree))
        elif q.word:
            for state, X in derivation.derive_expr(env, tree, q.word[0]):
                yield syntax.expr_str(state) + "\t" + syntax.subst_set_str(env, X)

    def nodes(tree):
        """Each node in walk order: its class name and its own string fields."""
        for node in syntax.walk(tree):
            yield (type(node).__name__,
                   *(v for v in map(node.__getattribute__, node.__slots__)
                     if isinstance(v, str)))

    trees = hashlib.sha256()
    texts = hashlib.sha256()
    digest = hashlib.sha256()
    count = 0
    for workload, seeds, rounds in QUERIES:
        for seed in seeds:
            for index in rounds:
                for q in workloads.round_queries(workload, seed, index):
                    tree = parse(q)
                    for node in nodes(tree):
                        trees.update(repr(node).encode())
                    for line in printed(q, tree):
                        texts.update((line + "\n").encode())
                    verdict = answer(q, tree)
                    digest.update(repr((workload, seed, index, q.family, q.size,
                                        run.verdict_text(q, verdict),
                                        run.verdict_key(q, verdict))).encode())
                    count += 1
    print("parse %s" % trees.hexdigest())
    print("print %s" % texts.hexdigest())
    print("%d queries" % count)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
