"""Seeded query generators for the four benchmark workloads.

A query is plain text (expression or formula, word, interpretation and
realization bindings, or CLI arguments) plus the answer known from how the
query was built, never from the engines:

* ``fixed-long``: a Python ``re`` pattern built from the family parameters;
* ``free-negative``: always no (a contradictory constraint, or a word with
  no ``c`` against an expression that must end in ``c``);
* ``free-positive``: always yes; the witness is re-checked afterwards, and
  for the SAT family the lexicographic index of the witness is known;
* ``cli``: the exit status known from the construction.

Every round of a workload holds one query per cell of a fixed
(family, size) grid, in a seeded order, so rounds differ only in content.
The grid has 15 cells: the median and the 90th percentile then fall in the
middle of a cell's cluster rather than on the edge between two.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

ENVIRONMENTS = {
    # the running example of the README
    "env3": "alphabet: a b c\nvariables: x y z\npredicates: sim/2 lt/2\nfunctions: f/1\n",
    # propositional families: unary and binary predicates over {a, b}
    "envp": "alphabet: a b\nvariables: x y\npredicates: p/1 q/2\nfunctions: f/1\n",
    # the indicator blow-up: ten variables
    "envv": "alphabet: a b\nvariables: p q r s t u v w x y\npredicates: sim/2\nfunctions: f/1\n",
}

INTERP3 = "sim=eq,lt=lenleq,f=projA"
INTERP_LEN = "sim=leneq,lt=lenleq,f=projA"

E1 = "x b* y | sim(f(x), f(y))"
ANBNCN = "(x -| a*) (y -| b*) (z -| c*) | sim(x, y) && sim(y, z)"
MATCH = "(a b)* x -| (y x | lt(y, x))"
ENDS_A3 = "(a + b)* a (a + b)(a + b)(a + b)"
UNSAT_STAR = "(x y + a)* z | sim(f(x), f(y)) && !sim(f(x), f(y))"
SAT_STAR = "(x y + a)* c | sim(f(x), f(y))"
XYZ = "x y z | sim(x, y) && !sim(y, z)"


@dataclass
class Query:
    family: str
    size: int
    kind: str            # fixed | general | sat | cli
    env: str = "env3"
    text: str = ""       # expression or formula
    word: str = ""
    interp: str = ""
    real: str = ""
    argv: tuple = ()     # CLI arguments after the mode's --env
    expect: object = None

    def describe(self):
        return {"family": self.family, "size": self.size, "kind": self.kind,
                "text": self.text, "word": self.word, "interp": self.interp,
                "real": self.real, "argv": list(self.argv)}


def _word(rng, letters, n):
    return "".join(rng.choice(letters) for _ in range(n))


def _mutate(rng, word, letters="abc"):
    """Change one of the last eight letters, so a rejection costs a full pass."""
    i = len(word) - 1 - rng.randrange(min(8, len(word)))
    other = rng.choice([c for c in letters if c != word[i]])
    return word[:i] + other + word[i + 1:]


def _blocks(rng, n):
    """A word of n letters made of ab and ba blocks (plus one b when n is odd).

    Long runs of one letter multiply the derivative paths of the star
    families many times over; blocks keep the work of one size within a
    narrow band while the seed still changes the word.
    """
    word = "".join(rng.choice(("ab", "ba")) for _ in range(n // 2))
    return word + "b" * (n % 2)


# ---------------------------------------------------------------------------
# fixed (I, r): answers from re


def ends_a3(rng, n):
    word = _word(rng, "ab", n)
    return Query("ends-a3", n, "fixed", text=ENDS_A3, word=word,
                 expect=r"[ab]*a[ab][ab][ab]")


def e1_fixed(rng, n):
    m = n // 3
    u = _word(rng, "ab", m)
    v = "".join(rng.sample(u, len(u)))          # same number of a's
    word = u + "b" * m + v
    if rng.random() < 0.5:
        word = _mutate(rng, word)
    return Query("e1-fixed", n, "fixed", text=E1, word=word, interp=INTERP3,
                 real="x=%s,y=%s" % (u, v),
                 expect=re.escape(u) + "b*" + re.escape(v))


def match_fixed(rng, n):
    u = _word(rng, "ab", n // 2)
    v = "ab" * (n // 4)
    word = v + u
    if rng.random() < 0.5:
        word = _mutate(rng, word)
    # lt(y, x) holds (|v| <= |u|), so the language is {vu} & (ab)* u
    pattern = r"(?=%s\Z)(?:ab)*%s" % (re.escape(v + u), re.escape(u))
    return Query("match-fixed", n, "fixed", text=MATCH, word=word, interp=INTERP3,
                 real="x=%s,y=%s" % (u, v), expect=pattern)


def anbncn_fixed(rng, n):
    m = n // 3 + rng.randrange(-3, 4)
    images = ["a" * m, "b" * m, "c" * m]
    word = "".join(images)
    if rng.random() < 0.5:
        word = _mutate(rng, word)
    # the images have equal lengths and lie in a*, b*, c*: one word remains
    real = "x=%s,y=%s,z=%s" % tuple(images)
    return Query("anbncn-fixed", n, "fixed", text=ANBNCN, word=word,
                 interp=INTERP_LEN, real=real, expect="a{%d}b{%d}c{%d}" % (m, m, m))


def star_cat(rng, k):
    body = _word(rng, "abc", k)
    word = body * 2
    if rng.random() < 0.5:
        word = _mutate(rng, word)
    return Query("star-cat", k, "fixed", text="(%s)*" % " ".join(body), word=word,
                 expect="(?:%s)*" % re.escape(body))


# ---------------------------------------------------------------------------
# nothing fixed


def unsat_star(rng, n):
    return Query("unsat-star", n, "general", text=UNSAT_STAR,
                 word=_blocks(rng, n), expect=False)


def sat_star_no_c(rng, n):
    return Query("sat-star-no-c", n, "general", text=SAT_STAR,
                 word=_blocks(rng, n), expect=False)


def _atom_words(rng, n):
    """n distinct words of length 4 over {a, b}, in ascending order."""
    pool = ["".join(p) for p in itertools.product("ab", repeat=4)]
    return sorted(rng.sample(pool, n))


def _random_tree(rng, leaves):
    nodes = [("!" if rng.random() < 0.3 else "") + leaf
             for leaf in rng.sample(leaves, len(leaves))]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        nodes[i:i + 2] = ["(%s %s %s)" % (nodes[i], rng.choice(("&&", "||")),
                                          nodes[i + 1])]
    return nodes[0]


def refutation(rng, n):
    phi = _random_tree(rng, ["q(x, %s)" % w for w in _atom_words(rng, n)])
    return Query("refutation", n, "sat", env="envp",
                 text="(%s) && !(%s)" % (phi, phi), expect=None)


def xyz_free(rng, n):
    return Query("xyz", n, "general", text=XYZ, word=_word(rng, "abc", n),
                 expect=True)


def e1_free(rng, n):
    return Query("e1-free", n, "general", text=E1, word=_word(rng, "ab", n),
                 expect=True)


def anbncn_free(rng, n):
    cuts = sorted(rng.sample(range(1, n), 2))
    word = "a" * cuts[0] + "b" * (cuts[1] - cuts[0]) + "c" * (n - cuts[1])
    return Query("anbncn-free", n, "general", text=ANBNCN, word=word, expect=True)


def indicator_blowup(rng, k):
    vs = "pqrstuvwxy"[:k]
    # every term holds every variable, so all 2^k erasures stay distinct
    left, right, inner = ("".join(rng.sample(vs, k)) for _ in range(3))
    text = " ".join("(%s + eps)" % v for v in vs) + \
        " | sim(%s, %s) && !sim(f(%s), a)" % (left, right, inner)
    return Query("indicator-blowup", k, "general", env="envv", text=text,
                 word="", expect=True)


def lex_depth(rng, n, share):
    """A formula over n atoms whose first model has lexicographic index d.

    The formula says "the assignment, read as a binary number with the first
    atom as the top bit, is at least d"; the truth table tries assignments in
    that order, so it stops after d + 1 of them.
    """
    words = _atom_words(rng, n)
    d = int(share * 2 ** n) + rng.randrange(2 ** (n - 5))
    formula = "true"
    for i in reversed(range(n)):
        bit = (d >> (n - 1 - i)) & 1
        formula = "(p(%s) %s %s)" % (words[i], "&&" if bit else "||", formula)
    return Query("lex-depth", n, "sat", env="envp", text=formula,
                 expect=("p", tuple(words), d))


# ---------------------------------------------------------------------------
# the constrex command


def _cli(q, mode, expect, *options):
    argv = [mode]
    if q.kind == "sat":
        argv += ["--formula", q.text]
    else:
        argv += ["--expr", q.text]
    if q.word:
        argv += ["--word", q.word]
    if q.interp:
        argv += ["--interp", q.interp]
    if q.real:
        argv += ["--real", q.real]
    argv += list(options)
    return Query("cli-" + mode + "-" + q.family, q.size, "cli", env=q.env,
                 text=q.text, word=q.word, interp=q.interp, real=q.real,
                 argv=tuple(argv), expect=expect)


def _fixed_status(q):
    return 0 if re.fullmatch(q.expect, q.word) else 1


def _cli_cells():
    def check_fixed_e1(rng):
        q = e1_fixed(rng, 30)
        return _cli(q, "check-fixed", _fixed_status(q))

    def check_fixed_ends(rng):
        q = ends_a3(rng, 40)
        return _cli(q, "check-fixed", _fixed_status(q), "--oracle")

    def check_fixed_match(rng):
        q = match_fixed(rng, 24)
        return _cli(q, "check-fixed", _fixed_status(q))

    def check_free_e1(rng):
        return _cli(e1_free(rng, rng.randint(2, 3)), "check-free", 0, "--oracle")

    def check_free_anbncn(rng):
        return _cli(anbncn_free(rng, 4), "check-free", 0)

    def check_free_reject(rng):
        return _cli(sat_star_no_c(rng, 4), "check-free", 1)

    def derive_e1(rng):
        return _cli(e1_free(rng, rng.randint(2, 3)), "derive", 0)

    def derive_anbncn(rng):
        return _cli(anbncn_free(rng, 3), "derive", 0, "--simplify")

    def indicator_e1(rng):
        w = _word(rng, "ab", rng.randint(1, 3))
        q = Query("e1-derived", len(w), "general",
                  text="x b* y | sim(f(%sx), f(y))" % w)
        return _cli(q, "indicator", 0, "--oracle")

    def indicator_blowup_small(rng):
        return _cli(indicator_blowup(rng, 4), "indicator", 0)

    def sat_refute(rng):
        return _cli(refutation(rng, 4), "sat", 1, "--oracle")

    def sat_lex(rng):
        return _cli(lex_depth(rng, 6, 0.5), "sat", 0, "--oracle")

    def sat_readme(rng):
        u, v = _word(rng, "ab", 2), _word(rng, "ab", 2)
        q = Query("readme", 2, "sat",
                  text="lt(f(%s), f(x)) && !sim(x, %s)" % (u, v))
        return _cli(q, "sat", 0)

    def regularize_match(rng):
        u = _word(rng, "ab", 4)
        v = "ab" * rng.randint(1, 2)
        q = Query("match", 4, "fixed", text=MATCH, interp=INTERP3,
                  real="x=%s,y=%s" % (u, v))
        return _cli(q, "regularize", 0)

    def regularize_e1(rng):
        u, v = _word(rng, "ab", 1), _word(rng, "ab", 1)
        q = Query("e1", 2, "fixed", text=E1, interp=INTERP3,
                  real="x=%s,y=%s" % (u, v))
        return _cli(q, "regularize", 0, "--oracle", "--max-len", "3")

    return [check_fixed_e1, check_fixed_ends, check_fixed_match, check_free_e1,
            check_free_anbncn, check_free_reject, derive_e1, derive_anbncn,
            indicator_e1, indicator_blowup_small, sat_refute, sat_lex, sat_readme,
            regularize_match, regularize_e1]


def _sized(fn, *sizes):
    return [lambda rng, fn=fn, s=s: fn(rng, s) for s in sizes]


def _lex(*cells):
    return [lambda rng, n=n, share=share: lex_depth(rng, n, share)
            for n, share in cells]


# workload -> (why, cells); each cell maps a seeded rng to one query
WORKLOADS = {
    "fixed-long": (
        "fixed (I, r) on long words: regularize and Antimirov derivatives do "
        "all the work; bypasses derivation, nullability and logic",
        _sized(ends_a3, 400, 1200, 3000) + _sized(e1_fixed, 600, 1800, 3600)
        + _sized(match_fixed, 400, 1200, 2400) + _sized(anbncn_fixed, 300, 1200, 3000)
        + _sized(star_cat, 130, 200, 300)),
    "free-negative": (
        "nothing fixed, answer always no: every derivative path and every "
        "truth assignment is exhausted",
        _sized(unsat_star, 5, 6, 7, 8, 9) + _sized(sat_star_no_c, 6, 8, 10, 11, 12)
        + _sized(refutation, 8, 9, 10, 11, 12)),
    "free-positive": (
        "nothing fixed, answer always yes: search stops at the first success, "
        "then a witness is built and rewound",
        _sized(xyz_free, 4, 8, 12, 14) + _sized(e1_free, 4, 8)
        + _sized(anbncn_free, 3, 6) + _sized(indicator_blowup, 6, 8, 10)
        + _lex((8, 0.5), (10, 0.7), (11, 0.5), (12, 0.5))),
    "cli": (
        "the constrex command in a fresh interpreter per invocation: start-up, "
        "import, parsing and output formatting",
        _cli_cells()),
}


def round_queries(workload, seed, index):
    """The queries of one round, in seeded order."""
    rng = random.Random("%s/%s/%d" % (workload, seed, index))
    queries = [cell(rng) for cell in WORKLOADS[workload][1]]
    rng.shuffle(queries)
    return queries


def warmup_queries(workload, seed):
    """One query per family, the smallest size, from a separate stream."""
    rng = random.Random("%s/%s/warmup" % (workload, seed))
    seen = {}
    for cell in WORKLOADS[workload][1]:
        q = cell(rng)
        if q.family not in seen or q.size < seen[q.family].size:
            seen[q.family] = q
    return list(seen.values())
