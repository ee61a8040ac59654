"""Batch command-line front end.

Exit codes: 0 accepted/SAT, 1 rejected/UNSAT or not-found-within-bound,
2 usage, parse or configuration errors, an input file that is not text and
input nested too deeply, 3 oracle disagreement (with --oracle).
All output is deterministic and line-oriented.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .errors import ConstrexError
from .derivation import derive_expr_word, simplify
from .logic import membership_general, satisfiable_free
from .nullability import check_erasure, indicator_pair_str, indicator_set
from .oracle import (
    Bound, brute_membership_fixed_I, brute_membership_fixed_r,
    brute_satisfiable_free, enumerate_language, sample_interpretations,
)
from .parser import parse_environment, parse_expression, parse_formula
from .semantics import (
    Interpretation, Realization, eval_formula, membership_fixed, regex_str, regularize,
)
from .syntax import (
    Environment, check_subst_set, expr_str, subst_set_str,
)


def _display_word(env: Environment, w: str) -> str:
    """Run-length shorthand for long separator fillers, display only: a run
    of two or more of the second symbol prints as b2, b3, ... The word is
    printed in full when a symbol is a digit, which a run length would
    mimic, or when there is one symbol."""
    if w == "":
        return "eps"
    if len(env.symbols) < 2 or any(c.isdigit() for c in env.symbols):
        return w
    runs = ((c, len(list(run))) for c, run in itertools.groupby(w))
    return "".join("%s%d" % (c, n) if c == env.symbols[1] and n > 1 else c * n for c, n in runs)


def _witness_lines(env: Environment, witness) -> list:
    """The realization, then the function tables, then the true tuples of
    the predicates: a witness built by the engines binds every function to
    a TableFunction and every predicate to a FiniteRelation."""
    lines = []
    for x, w in sorted(witness.realization.assignment.items()):
        lines.append("%s = %s" % (x, _display_word(env, w)))
    interp = witness.interpretation
    for name in sorted(interp.functions):
        for args, value in interp.functions[name].table:
            lines.append("%s(%s) = %s" % (
                name, ",".join(_display_word(env, a) for a in args), _display_word(env, value)))
    for name in sorted(interp.predicates):
        for args in sorted(interp.predicates[name].tuples):
            lines.append("%s(%s)" % (name, ",".join(_display_word(env, a) for a in args)))
    return lines


def _parse_bindings(text: str) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split(","):
        name, _, value = part.partition("=")
        out[name.strip()] = value.strip()
    return out


def _interpretation(env: Environment, text: str) -> Interpretation:
    bindings = _parse_bindings(text)
    predicates = {}
    functions = {}
    for name, value in bindings.items():
        if name in env.predicates:
            predicates[name] = value
        elif name in env.functions:
            functions[name] = value
        else:
            raise ConstrexError("%r is not a declared predicate or function" % name)
    return Interpretation(env, predicates, functions)


def _realization(env: Environment, text: str) -> Realization:
    return Realization(env, _parse_bindings(text))


def _read_file(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConstrexError("cannot decode %s: %s" % (path, exc)) from None


def _read_expression(args, env: Environment):
    text = args.expr
    if args.expr_file:
        text = _read_file(args.expr_file)
    if text is None:
        raise ConstrexError("an expression is required (--expr or --expr-file)")
    return parse_expression(text, env)


def _oracle(out, status, agree) -> int:
    """Append the oracle verdict; a disagreement turns the status into 3."""
    out.append("oracle: %s" % ("agree" if agree else "disagree"))
    return status if agree else 3


def _check_fixed(args, env, out):
    interp = _interpretation(env, args.interp)
    r = _realization(env, args.real)
    e = _read_expression(args, env)
    accepted = membership_fixed(interp, r, e, args.word)
    out.append("ACCEPT" if accepted else "REJECT")
    status = 0 if accepted else 1
    if args.oracle:
        status = _oracle(out, status, accepted == brute_membership_fixed_r(
            interp, r, e, args.word))
    return status


def _check_free(args, env, out):
    e = _read_expression(args, env)
    witness = membership_general(env, e, args.word)
    if witness is None:
        out.append("REJECT")
        if args.oracle:
            return _oracle(out, 1, all(
                brute_membership_fixed_I(interp, e, args.word, Bound()) is None
                for interp in sample_interpretations(env)))
        return 1
    out.append("ACCEPT")
    out.extend(_witness_lines(env, witness))
    if args.oracle:
        return _oracle(out, 0, brute_membership_fixed_r(
            witness.interpretation, witness.realization, e, args.word))
    return 0


def _derive(args, env, out):
    e = _read_expression(args, env)
    if not args.word:
        raise ConstrexError("derive needs a nonempty --word")
    pairs = derive_expr_word(env, e, args.word)
    if args.simplify:
        pairs = simplify(env, pairs)
    for e2, X in pairs:
        out.append("%s\t%s" % (expr_str(e2), subst_set_str(env, X)))
    if args.oracle:
        ok = True
        for _e2, X in pairs:
            try:
                check_subst_set(X)
            except ConstrexError:
                ok = False
        return _oracle(out, 0, ok)
    return 0


def _indicator(args, env, out):
    e = _read_expression(args, env)
    pairs = indicator_set(env, e)
    for pair in pairs:
        out.append(indicator_pair_str(env, pair))
    if args.oracle:
        return _oracle(out, 0, all(check_erasure(p) for p in pairs))
    return 0


def _sat(args, env, out):
    phi = parse_formula(args.formula, env)
    witness = satisfiable_free(env, phi)
    if witness is None:
        out.append("UNSAT")
        if args.oracle:
            return _oracle(out, 1, brute_satisfiable_free(env, phi) is None)
        return 1
    out.append("SAT")
    out.extend(_witness_lines(env, witness))
    if args.oracle:
        return _oracle(out, 0, eval_formula(
            witness.interpretation, witness.realization, phi))
    return 0


def _regularize(args, env, out):
    interp = _interpretation(env, args.interp)
    r = _realization(env, args.real)
    e = _read_expression(args, env)
    rx = regularize(interp, r, e)
    out.append(regex_str(rx))
    if args.oracle:
        agree = True
        for w in sorted(enumerate_language(rx, args.max_len)):
            if not brute_membership_fixed_r(interp, r, e, w):
                agree = False
        return _oracle(out, 0, agree)
    return 0


def _length(text: str) -> int:
    """An argparse type: a word length, so a whole number of at least 0."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError("expected a whole number of at least 0, got %r" % text)


_MODES = {
    "check-fixed": _check_fixed,
    "check-free": _check_free,
    "derive": _derive,
    "indicator": _indicator,
    "sat": _sat,
    "regularize": _regularize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="constrex",
        description="constrained regular expressions: membership, derivatives, satisfiability")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODES:
        p = sub.add_parser(mode)
        p.add_argument("--env", required=True, help="environment file")
        if mode == "sat":
            p.add_argument("--formula", required=True, help="constraint formula")
        else:
            p.add_argument("--expr", help="inline expression")
            p.add_argument("--expr-file", help="file holding the expression")
        if mode in ("check-fixed", "check-free", "derive"):
            p.add_argument("--word", default="", help="input word over the alphabet")
        if mode in ("check-fixed", "regularize"):
            p.add_argument("--interp", default="",
                           help="interpretation bindings, e.g. sim=leneq,f=projA")
            p.add_argument("--real", default="",
                           help="realization bindings, e.g. x=aba,y=aa (empty = eps)")
        if mode == "derive":
            p.add_argument("--simplify", action="store_true",
                           help="apply the language-preserving rewrite rules")
        if mode == "regularize":
            p.add_argument("--max-len", type=_length, default=4,
                           help="enumeration bound for --oracle")
        p.add_argument("--oracle", action="store_true",
                       help="cross-check the result against the brute-force oracle")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out: list = []
    try:
        env = parse_environment(_read_file(args.env))
        if args.mode != "sat" and getattr(args, "word", ""):
            # a character that is no letter is named before any variable
            for c in args.word:
                if not env.is_letter(c):
                    raise ConstrexError("%r is not a letter of the environment" % c)
            if not all(map(env.is_symbol, args.word)):
                raise ConstrexError("--word must use alphabet symbols only")
        status = _MODES[args.mode](args, env, out)
    except (ConstrexError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    for line in out:
        print(line)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
