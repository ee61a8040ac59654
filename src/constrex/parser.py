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

The three binary connectives of a formula are read by operator precedence
(after Dijkstra's shunting-yard, 1961) from `syntax._F_BINARY`, the table the
printer reads: `->` binds loosest and associates right, `||` and `&&` bind
tighter and associate left. One call reads each operand.

A run of letters like `abx` denotes one letter per character; identifier runs
followed by "(" name a declared predicate or function.
"""

from __future__ import annotations

import itertools
import re

from .errors import ConfigError, ParseError
from .syntax import (
    CAT, NOT, TRUE, FALSE, _F_BINARY,
    App, Atom, Cat, Conn, Constraint, Empty, Environment, Expr, Formula,
    Match, Star, Sum, Term, Var, Word, EPS_TERM, as_mixed_word,
)

# The operators, as token kinds; an identifier run is of kind "word".
_OPERATORS = frozenset(["-|", "&&", "||", "->", "(", ")", "*", "+", "|", "!", ","])
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
# One pattern reads each token: an operator, two-character ones first, an
# identifier run, or any other character that is not a space, an error.
_TOKEN = re.compile("|".join(re.escape(op) for op in sorted(
    _OPERATORS, key=lambda op: (-len(op), op))) + r"|[A-Za-z0-9_]+|\S")

# The binary connectives by glyph: (tag, own level, right operand level),
# read off the printer's table. An operator on the stack is applied before
# the next one when its right operand may not hold that one.
_INFIX = {glyph.strip(): (tag, own, right)
          for tag, (glyph, own, _left, right) in _F_BINARY.items()}


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
    """Recursive-descent parser over one token stream, kept as two lists."""

    def __init__(self, env: Environment, text: str):
        self.env = env
        self.text = text
        self.kinds, self.values = _tokenize(text)
        self.pos = 0
        self.leaves: dict = {}    # letter -> its term node, shared in one parse
        self.arity_error = None   # the first wrong arity, raised after the parse

    # token plumbing -------------------------------------------------------

    def peek(self) -> str:
        return self.kinds[self.pos]

    def expect(self, kind: str) -> None:
        if self.kinds[self.pos] != kind:
            self.error("expected %r, found %r"
                       % (kind, self.values[self.pos] or "end of input"))
        self.pos += 1

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

    # expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        e = self.cexpr()
        if self.peek() == "|":
            self.pos += 1
            phi = self.formula()
            e = Constraint(e, phi)
        return e

    def cexpr(self) -> Expr:
        pos = self.pos
        left = self.sum()
        if self.peek() != "-|":
            return left
        self.pos += 1
        right = self.cexpr()
        return self._make_match(left, right, pos)

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

    def sum(self) -> Expr:
        e = self.cat()
        while self.peek() == "+":
            self.pos += 1
            e = Sum(e, self.cat())
        return e

    def cat(self) -> Expr:
        units = [self.starred()]
        while self.peek() in ("word", "("):
            units.append(self.starred())
        e = units.pop()
        while units:
            e = Cat(units.pop(), e)
        return e

    def starred(self) -> Expr:
        e = self.atom()
        while self.peek() == "*":
            self.pos += 1
            e = Star(e)
        return e

    def atom(self) -> Expr:
        kind, value = self.kinds[self.pos], self.values[self.pos]
        if kind == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if kind == "word":
            if value == "eps":
                self.pos += 1
                return Word("")
            if value == "empty":
                self.pos += 1
                return Empty()
            return Word(self.take_letter())
        self.error("expected an expression atom, found %r" % (value or "end of input"))

    # formulas ---------------------------------------------------------------

    def formula(self) -> Formula:
        """Operands joined by binary connectives, applied by precedence from
        one stack: each operator waits until the next one binds looser than
        its right operand allows."""
        operands = [self.not_formula()]
        pending: list = []      # (tag, own level, right operand level)
        while True:
            op = _INFIX.get(self.kinds[self.pos])
            own = 0 if op is None else op[1]
            while pending and pending[-1][2] > own:
                right = operands.pop()
                operands[-1] = Conn(pending.pop()[0], (operands[-1], right))
            if op is None:
                return operands[0]
            self.pos += 1
            pending.append(op)
            operands.append(self.not_formula())

    def not_formula(self) -> Formula:
        """A negated, atomic or parenthesized formula; the negations of a
        run of "!" are counted, then applied."""
        kinds, values = self.kinds, self.values
        negations = 0
        while kinds[self.pos] == "!":
            self.pos += 1
            negations += 1
        kind, value = kinds[self.pos], values[self.pos]
        if kind == "(":
            self.pos += 1
            f = self.formula()
            self.expect(")")
        elif kind == "word" and value == "true":
            self.pos += 1
            f = Conn(TRUE)
        elif kind == "word" and value == "false":
            self.pos += 1
            f = Conn(FALSE)
        elif kind == "word" and kinds[self.pos + 1] == "(" and value in self.env.predicates:
            self.pos += 1
            f = Atom(value, self.args("predicate", value, self.env.predicates[value]))
        else:
            self.error("expected a formula, found %r" % (value or "end of input"))
        for _ in range(negations):
            f = Conn(NOT, (f,))
        return f

    def args(self, kind: str, name: str, arity: int) -> tuple:
        """The parenthesized arguments of a predicate or function symbol of
        the given arity; a wrong count is kept for _parse_whole to raise."""
        self.expect("(")
        out = []
        if self.peek() != ")":
            out.append(self.term())
            while self.peek() == ",":
                self.pos += 1
                out.append(self.term())
        self.expect(")")
        if len(out) != arity and self.arity_error is None:
            self.arity_error = ConfigError("%s %r expects %d arguments, got %d"
                                           % (kind, name, arity, len(out)))
        return tuple(out)

    # terms ------------------------------------------------------------------

    def term(self) -> Term:
        """Factors read in one loop, then right-associated."""
        kinds, values, env = self.kinds, self.values, self.env
        factors = []
        while True:
            kind, value = kinds[self.pos], values[self.pos]
            if kind == "word":
                call = kinds[self.pos + 1] == "("
                if value == "eps":
                    self.pos += 1
                    factors.append(EPS_TERM)
                elif call and value in env.functions:
                    self.pos += 1
                    args = self.args("function", value, env.functions[value])
                    factors.append(App(value, args))
                else:
                    factors += self.take_leaves(value, call)
            elif kind == "(":
                self.pos += 1
                factors.append(self.term())
                self.expect(")")
            elif factors:
                break
            else:
                self.error("expected a term, found %r" % (value or "end of input"))
        t = factors.pop()
        while factors:
            t = App(CAT, (factors.pop(), t))
        return t


def _parse_whole(text: str, env: Environment, rule, what: str):
    """Run one grammar rule and require that it consumes the whole text.
    A ParseError anywhere in it comes before a wrong arity (ConfigError)."""
    p = _Parser(env, text)
    result = rule(p)
    if p.peek() != "eof":
        p.error("unexpected %r after %s" % (p.values[p.pos], what))
    if p.arity_error is not None:
        raise p.arity_error
    return result


def parse_expression(text: str, env: Environment) -> Expr:
    return _parse_whole(text, env, _Parser.expr, "expression")


def parse_formula(text: str, env: Environment) -> Formula:
    return _parse_whole(text, env, _Parser.formula, "formula")


def parse_term(text: str, env: Environment) -> Term:
    return _parse_whole(text, env, _Parser.term, "term")


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
