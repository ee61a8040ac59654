"""Parsers for environment files, constrained expressions, formulas and terms.

The concrete grammar (precedence from loosest to tightest):

    expr    := cexpr | cexpr "|" formula
    cexpr   := sum ["-|" cexpr]           # one side of -| must be a mixed word
    sum     := cat ("+" cat)*
    cat     := starred+
    starred := atom "*"*
    atom    := letter | "eps" | "empty" | "(" expr ")"

    formula := notf (binop notf)*         # binop: "->", "||", "&&"
    notf    := "!"* (pred "(" args ")" | "true" | "false" | "(" formula ")")

    term    := tatom+                     # juxtaposition, right-associated
    tatom   := letter | "eps" | func "(" args ")" | "(" term ")"

One operator-precedence engine reads all three grammars in one loop over
the tokens (Dijkstra's shunting-yard, 1961; Pratt, *Top down operator
precedence*, 1973). It alternates between two places:

- before an operand, it reads a letter, a keyword, a prefix "!", or a token
  that opens a frame: "(" opens a group, and `name(` the arguments of an
  atom or an application;
- after an operand, it reads a postfix "*", an infix operator, a
  juxtaposition (a word or "(" where an operator may stand), or the end of
  the frame.

The frames sit on one explicit stack, so no input nests the engine's own
calls. A frame holds its grammar, its operands and pending operators, the
first token of its current left operand of "-|", and what its value becomes
when it closes: the value of a group, which ")" closes, or one argument of
an `Atom` or `App`, which "," or ")" closes.

A pending operator waits until the next one binds looser than its right
operand allows. The levels come from the printer's operator tables:
`syntax._E_BINARY` for expressions and `syntax._F_BINARY` and `_F_NOT` for
formulas. "+", "||" and "&&" associate left; "-|", "->" and juxtaposition
associate right, and "*" applies at once. "|" switches its frame to the
formula grammar, and its pending entry builds the constraint when the frame
ends, so "|" closes its expression. Terms have juxtaposition only: the
factors of a term frame are nested to the right when it ends.

A run of letters like `abx` denotes one letter per character; identifier runs
followed by "(" name a declared predicate or function.
"""

from __future__ import annotations

import functools
import itertools
import re

from .errors import ConfigError, ParseError
from .syntax import (
    CAT, NOT, _E_BINARY, _F_BINARY, _F_NOT,
    App, Atom, Conn, Constraint, Empty, Environment, Expr, Formula,
    Match, Star, Term, Var, Word, EPS_TERM, as_mixed_word,
)

# The operators, as token kinds; an identifier run is of kind "word".
_OPERATORS = frozenset(["-|", "&&", "||", "->", "(", ")", "*", "+", "|", "!", ","])
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
# One pattern reads each token: an operator, two-character ones first, an
# identifier run, or any other character that is not a space, an error.
_TOKEN = re.compile("|".join(re.escape(op) for op in sorted(
    _OPERATORS, key=lambda op: (-len(op), op))) + r"|[A-Za-z0-9_]+|\S")

# The grammars, named as the error on a trailing token names them.
_EXPR, _FORMULA, _TERM = "expression", "formula", "term"

# The infix operators of a grammar by token kind: (own level, right operand
# level, builder), where the builder is a node class of the two operands or
# a connective's tag. A pending operator is applied before the next one when
# its right operand level exceeds that one's own level. An expression
# juxtaposes at a word or "(", as a catenation prints a space; the builder
# of "-|" is made at each use, since a failed match reports the position of
# its left operand.
_E_INFIX = {glyph.strip() or "word": (own, right, None if kind is Match else kind)
            for kind, (glyph, own, _left, right) in _E_BINARY.items()
            if kind not in _F_BINARY}
_E_INFIX["("] = _E_INFIX["word"]
_F_INFIX = {glyph.strip(): (own, right, tag)
            for tag, (glyph, own, _left, right) in _F_BINARY.items()}
# A pending "!" negates the operand after it; its builder is None.
_NEGATION = (_F_NOT, _F_NOT, None)


def _tokenize(text: str):
    """The kinds and values of the tokens of text, "eof" last. The kind of
    an operator is its glyph, and of an identifier run "word"."""
    values = _TOKEN.findall(text)
    kinds = [v if v in _OPERATORS else "word" if v[0] in _WORD_START else None
             for v in values]
    if None in kinds:
        pos = kinds.index(None)
        raise _error(text, _offset(text, values, pos),
                     "unexpected character %r" % values[pos])
    kinds.append("eof")
    values.append("")
    return kinds, values


def _offset(text: str, values: list, pos: int) -> int:
    """The offset in text of token pos, found again only for an error. A
    word token loses letters off its front as they are read, so values[pos]
    is what is left of it."""
    m = next(itertools.islice(_TOKEN.finditer(text), pos, None), None)
    return len(text) if m is None else m.end() - len(values[pos])


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at the line and column of offset in text."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


class _Parser:
    """The precedence engine over one token stream, kept as two lists."""

    def __init__(self, env: Environment, text: str):
        self.env = env
        self.text = text
        self.kinds, self.values = _tokenize(text)
        self.pos = 0
        self.leaves: dict = {}    # letter -> its term node, shared in one parse
        self.arity_error = None   # the first wrong arity, raised after the parse
        self.arities = {**env.predicates, **env.functions}    # one namespace

    # token plumbing -------------------------------------------------------

    def error(self, message: str, pos=None):
        pos = self.pos if pos is None else pos
        raise _error(self.text, _offset(self.text, self.values, pos), message)

    def take_letter(self) -> str:
        """Pop a single letter off the current word token."""
        pos = self.pos
        value = self.values[pos]
        c = value[0]
        if not self.env.is_letter(c):
            self.error("%r is not a symbol or variable" % c)
        if len(value) == 1:
            self.pos += 1
        else:
            self.values[pos] = value[1:]
        return c

    def take_leaves(self, value: str, call: bool) -> list:
        """The term leaves of the letters at the front of the current word
        token, value, read in one step: up to a rest that is eps or, when
        call says "(" follows, a function name; else the whole token."""
        env, leaves = self.env, self.leaves
        end = len(value)
        if call:
            end = next((i for i in range(1, end) if value[i:] in env.functions), end)
        if value.endswith("eps"):
            end = min(end, len(value) - 3)
        out = []
        for i, c in enumerate(value[:end]):
            leaf = leaves.get(c)
            if leaf is None:
                if not env.is_letter(c):
                    self.values[self.pos] = value[i:]
                    self.error("%r is not a symbol or variable" % c)
                leaf = leaves[c] = Var(c) if env.is_variable(c) else App(c)
            out.append(leaf)
        if end == len(value):
            self.pos += 1
        else:
            self.values[self.pos] = value[end:]
        return out

    def _make_match(self, left: Expr, right: Expr, pos: int) -> Expr:
        # The match operator takes a mixed word on one side; customary
        # notation puts the word on either side of the glyph, so accept both,
        # hoisting a trailing constraint: A -| (w | phi)  ==>  (w -| A) | phi.
        lw = as_mixed_word(left)
        if lw is not None:
            return Match(lw, right)
        rw = as_mixed_word(right)
        if rw is not None:
            return Match(rw, left)
        if isinstance(right, Constraint):
            rw = as_mixed_word(right.child)
            if rw is not None:
                return Constraint(Match(rw, left), right.formula)
        if isinstance(left, Constraint):
            lw = as_mixed_word(left.child)
            if lw is not None:
                return Constraint(Match(lw, right), left.formula)
        self.error("one side of -| must be a mixed word", pos)

    def wrong_arity(self, node) -> None:
        """Keep the first Atom or App whose argument count is wrong, for
        _parse_whole to raise."""
        if self.arity_error is None:
            kind, name = ("predicate", node.pred) if type(node) is Atom else ("function", node.fn)
            self.arity_error = ConfigError("%s %r expects %d arguments, got %d"
                                           % (kind, name, self.arities[name], len(node.args)))

    # the engine -------------------------------------------------------------

    def parse(self, grammar: str):
        """What grammar reads from the current token on, in one loop over
        the tokens that keeps its place on one explicit stack of frames. The
        position is a local, handed to self.pos around the lexical methods."""
        kinds, values, env, arities = self.kinds, self.values, self.env, self.arities
        pos = self.pos
        stack = []                  # the enclosing frames, innermost last
        operands, pending = [], []  # pending: operators as the _INFIX tables hold them
        closing = None      # in an arguments frame: [make, name, arguments so far]
        start = pos         # the first token of the current left operand of -|
        while True:
            # Before an operand: open frames and take prefixes until one is read.
            kind, value = kinds[pos], values[pos]
            make = None
            if kind == "(":
                pos += 1
                stack.append((grammar, operands, pending, closing, start))
                operands, pending, closing, start = [], [], None, pos
                continue
            if grammar is _TERM:
                if kind != "word":
                    self.error("expected a term, found %r" % (value or "end of input"), pos)
                call = kinds[pos + 1] == "("
                if value == "eps":
                    pos += 1
                    operands.append(EPS_TERM)
                elif call and value in env.functions:
                    make = App
                else:
                    self.pos = pos
                    operands += self.take_leaves(value, call)
                    pos = self.pos
            elif grammar is _FORMULA:
                if kind == "!":
                    pos += 1
                    pending.append(_NEGATION)
                    continue
                if kind != "word":
                    self.error("expected a formula, found %r" % (value or "end of input"), pos)
                if value == "true" or value == "false":
                    pos += 1
                    operands.append(Conn(value))
                elif kinds[pos + 1] == "(" and value in env.predicates:
                    make = Atom
                else:
                    self.error("expected a formula, found %r" % value, pos)
            elif kind != "word":
                self.error("expected an expression atom, found %r"
                           % (value or "end of input"), pos)
            elif value == "eps" or value == "empty":
                pos += 1
                operands.append(Word("") if value == "eps" else Empty())
            else:
                self.pos = pos
                operands.append(Word(self.take_letter()))
                pos = self.pos
            if make is not None:    # name "(": an arguments frame reads the terms
                pos += 2
                if kinds[pos] != ")":
                    stack.append((grammar, operands, pending, closing, start))
                    grammar, operands, pending, closing = _TERM, [], [], [make, value, []]
                    continue
                pos += 1
                operands.append(make(value))
                if arities[value]:
                    self.wrong_arity(operands[-1])

            # After an operand: postfix and infix operators, juxtaposition,
            # and the ends of frames, until an operator wants an operand.
            while True:
                kind = kinds[pos]
                if grammar is _TERM:    # juxtaposition only, so nothing is pending
                    if kind == "word" or kind == "(":
                        break       # the next factor of the term
                else:
                    if grammar is _FORMULA:
                        op = _F_INFIX.get(kind)
                    elif kind == "*":
                        pos += 1
                        operands[-1] = Star(operands[-1])
                        continue
                    else:
                        op = _E_INFIX.get(kind)
                    own = 0 if op is None else op[0]
                    while pending and pending[-1][1] > own:
                        build = pending.pop()[2]
                        if build is None:       # a prefix "!"
                            operands[-1] = Conn(NOT, (operands[-1],))
                            continue
                        right = operands.pop()
                        if build.__class__ is str:      # a binary connective's tag
                            operands[-1] = Conn(build, (operands[-1], right))
                        else:
                            operands[-1] = build(operands[-1], right)
                    if op is not None:
                        if kind == "-|":
                            op = own, op[1], functools.partial(self._make_match, pos=start)
                            start = pos + 1
                        elif kind == "|":
                            grammar = _FORMULA
                        if kind != "word" and kind != "(":
                            pos += 1
                        pending.append(op)
                        break
                # The frame ends; the factors of a term nest to the right.
                value = operands.pop()
                while operands:
                    value = App(CAT, (operands.pop(), value))
                if not stack:
                    self.pos = pos
                    return value
                if closing is not None:
                    closing[2].append(value)
                    if kind == ",":
                        pos += 1
                        break       # the next argument
                if kind != ")":
                    self.error("expected ')', found %r" % (values[pos] or "end of input"), pos)
                pos += 1
                if closing is not None:
                    make, name, args = closing
                    value = make(name, tuple(args))
                    if len(args) != arities[name]:
                        self.wrong_arity(value)
                grammar, operands, pending, closing, start = stack.pop()
                operands.append(value)


def _parse_whole(text: str, env: Environment, grammar: str):
    """Read one grammar and require that it consumes the whole text.
    A ParseError anywhere in it comes before a wrong arity (ConfigError)."""
    p = _Parser(env, text)
    result = p.parse(grammar)
    if p.kinds[p.pos] != "eof":
        p.error("unexpected %r after %s" % (p.values[p.pos], grammar))
    if p.arity_error is not None:
        raise p.arity_error
    return result


def parse_expression(text: str, env: Environment) -> Expr:
    return _parse_whole(text, env, _EXPR)


def parse_formula(text: str, env: Environment) -> Formula:
    return _parse_whole(text, env, _FORMULA)


def parse_term(text: str, env: Environment) -> Term:
    return _parse_whole(text, env, _TERM)


# ---------------------------------------------------------------------------
# environment files

_SECTIONS = ("alphabet", "variables", "predicates", "functions")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")  # ASCII only, as _TOKEN reads
_LETTER = re.compile(r"[A-Za-z0-9_]\Z")  # one character _TOKEN reads
_ARITY = re.compile(r"[0-9]+\Z")  # ASCII digits only: int() rejects "²"
_ENTRY = re.compile(r"\S+")


def parse_environment(text: str) -> Environment:
    """Parse the line-oriented environment format.

    `alphabet:` and `variables:` lines list single characters from
    [A-Za-z0-9_], the ones the tokenizer reads; `predicates:` and
    `functions:` lines list name/arity entries. `#` starts a comment.
    """
    symbols: list = []
    variables: list = []
    predicates: dict = {}
    functions: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if ":" not in body:
            raise ParseError("expected 'section: entries'", lineno, 1)
        colon = body.index(":")
        key = body[:colon].strip()
        if key not in _SECTIONS:
            raise ParseError("unknown section %r" % key, lineno, 1)
        # each entry with its column, read off its own match after the colon
        entries = [(m.group(), m.start() + 1) for m in _ENTRY.finditer(body, colon + 1)]
        if key in ("alphabet", "variables"):
            target = symbols if key == "alphabet" else variables
            for entry, column in entries:
                if not _LETTER.match(entry):
                    raise ParseError("letters must be single characters from "
                                     "[A-Za-z0-9_]: %r" % entry, lineno, column)
                if entry in symbols or entry in variables:
                    raise ParseError("duplicate letter %r" % entry, lineno, column)
                target.append(entry)
        else:
            target = predicates if key == "predicates" else functions
            for entry, column in entries:
                name, slash, arity = entry.partition("/")
                if not slash or not _ARITY.match(arity) or not _NAME.match(name):
                    raise ParseError("expected name/arity, found %r" % entry,
                                     lineno, column)
                if name in predicates or name in functions:
                    raise ParseError("duplicate name %r" % name, lineno, column)
                target[name] = int(arity)
    if not symbols:
        raise ParseError("environment declares no alphabet", 1, 1)
    return Environment(tuple(symbols), tuple(variables), predicates, functions)
