"""Print one SHA-256 over the answers of a fixed set of benchmark queries.

    python tools/digests.py [ROOT]

The queries are those of ``bench/workloads.py``: ``free-positive`` and
``free-negative`` seeds 1-7, rounds 0 and 1, and ``fixed-long`` seeds 1-3,
round 0 (465 queries). Each is answered in process through the library, as
``bench/run.py`` does, and the digest covers each query's workload, seed,
round, family, size, verdict text and verdict key (the witness key of a free
query). Two source trees that print the same digest give the same verdicts
and witnesses on all of them. The last line is the digest; the one before
it counts the queries.

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
    from constrex import logic, parser, semantics

    envs = {k: parser.parse_environment(v) for k, v in workloads.ENVIRONMENTS.items()}

    def bindings(text):
        return dict(part.partition("=")[::2] for part in text.split(",") if part)

    def answer(q):
        env = envs[q.env]
        if q.kind == "fixed":
            bound = bindings(q.interp)
            interp = semantics.Interpretation(
                env, {k: v for k, v in bound.items() if k in env.predicates},
                {k: v for k, v in bound.items() if k not in env.predicates})
            real = semantics.Realization(env, bindings(q.real))
            e = parser.parse_expression(q.text, env)
            return semantics.membership_fixed(interp, real, e, q.word)
        if q.kind == "general":
            return logic.membership_general(env, parser.parse_expression(q.text, env), q.word)
        return logic.satisfiable_free(env, parser.parse_formula(q.text, env))

    digest = hashlib.sha256()
    count = 0
    for workload, seeds, rounds in QUERIES:
        for seed in seeds:
            for index in rounds:
                for q in workloads.round_queries(workload, seed, index):
                    verdict = answer(q)
                    digest.update(repr((workload, seed, index, q.family, q.size,
                                        run.verdict_text(q, verdict),
                                        run.verdict_key(q, verdict))).encode())
                    count += 1
    print("%d queries" % count)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
