"""Parsers for environment files, constrained expressions, formulas and terms.

The concrete grammar (precedence from loosest to tightest):

    expr    := cexpr | cexpr "|" formula
    cexpr   := sum ["-|" cexpr]           # one side of -| must be a mixed word
    sum     := cat ("+" cat)*
    cat     := starred+
    starred := atom "*"*
    atom    := letter | "eps" | "empty" | "(" expr ")"

    formula := orf ["->" formula]
    orf     := andf ("||" andf)*
    andf    := notf ("&&" notf)*
    notf    := "!" notf | "true" | "false" | pred "(" args ")" | "(" formula ")"

    term    := tatom+                     # juxtaposition, right-associated
    tatom   := letter | "eps" | func "(" args ")" | "(" term ")"

A run of letters like `abx` denotes one letter per character; identifier runs
followed by "(" name a declared predicate or function.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .syntax import (
    AND, CAT, IMPLIES, NOT, OR, TRUE, FALSE,
    App, Atom, Cat, Conn, Constraint, Empty, Environment, Expr, Formula,
    Match, Star, Sum, Term, Var, Word, EPS_TERM, as_mixed_word, check_tree,
)

_PUNCT = ["-|", "&&", "||", "->", "(", ")", "*", "+", "|", "!", ","]
_IDENT = re.compile(r"[A-Za-z0-9_]+")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            m = _IDENT.match(text, i)
            if m:
                tokens.append(_Token("word", m.group(), line, col))
                col += len(m.group())
                i = m.end()
            else:
                raise ParseError("unexpected character %r" % c, line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    """Recursive-descent parser over one token stream."""

    def __init__(self, env: Environment, text: str):
        self.env = env
        self.tokens = _tokenize(text)
        self.pos = 0

    # token plumbing -------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError("expected %r, found %r" % (kind, t.value or "end of input"),
                             t.line, t.col)
        return t

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def take_letter(self) -> str:
        """Pop a single letter off the current word token."""
        t = self.peek()
        c = t.value[0]
        if not self.env.is_letter(c):
            self.error("%r is not a symbol or variable" % c, t)
        if len(t.value) == 1:
            self.next()
        else:
            t.value = t.value[1:]
            t.col += 1
        return c

    # expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        e = self.cexpr()
        if self.peek().kind == "|":
            self.next()
            phi = self.formula()
            e = Constraint(e, phi)
        return e

    def cexpr(self) -> Expr:
        tok = self.peek()
        left = self.sum()
        if self.peek().kind != "-|":
            return left
        self.next()
        right = self.cexpr()
        return self._make_match(left, right, tok)

    def _make_match(self, left: Expr, right: Expr, tok) -> Expr:
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
        self.error("one side of -| must be a mixed word", tok)

    def sum(self) -> Expr:
        e = self.cat()
        while self.peek().kind == "+":
            self.next()
            e = Sum(e, self.cat())
        return e

    def cat(self) -> Expr:
        units = [self.starred()]
        while self._starts_atom():
            units.append(self.starred())
        e = units[-1]
        for u in reversed(units[:-1]):
            e = Cat(u, e)
        return e

    def _starts_atom(self) -> bool:
        return self.peek().kind in ("word", "(")

    def starred(self) -> Expr:
        e = self.atom()
        while self.peek().kind == "*":
            self.next()
            e = Star(e)
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "word":
            if t.value == "eps":
                self.next()
                return Word("")
            if t.value == "empty":
                self.next()
                return Empty()
            return Word(self.take_letter())
        self.error("expected an expression atom, found %r" % (t.value or "end of input"), t)

    # formulas ---------------------------------------------------------------

    def formula(self) -> Formula:
        f = self.or_formula()
        if self.peek().kind == "->":
            self.next()
            f = Conn(IMPLIES, (f, self.formula()))
        return f

    def or_formula(self) -> Formula:
        f = self.and_formula()
        while self.peek().kind == "||":
            self.next()
            f = Conn(OR, (f, self.and_formula()))
        return f

    def and_formula(self) -> Formula:
        f = self.not_formula()
        while self.peek().kind == "&&":
            self.next()
            f = Conn(AND, (f, self.not_formula()))
        return f

    def not_formula(self) -> Formula:
        t = self.peek()
        if t.kind == "!":
            self.next()
            return Conn(NOT, (self.not_formula(),))
        if t.kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "word":
            if t.value == "true":
                self.next()
                return Conn(TRUE)
            if t.value == "false":
                self.next()
                return Conn(FALSE)
            if self.tokens[self.pos + 1].kind == "(" and t.value in self.env.predicates:
                name = self.next().value
                args = self.args()
                return Atom(name, args)
            self.error("expected a formula, found %r" % t.value, t)
        self.error("expected a formula, found %r" % (t.value or "end of input"), t)

    def args(self) -> tuple:
        self.expect("(")
        if self.peek().kind == ")":
            self.next()
            return ()
        out = [self.term()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.term())
        self.expect(")")
        return tuple(out)

    # terms ------------------------------------------------------------------

    def term(self) -> Term:
        factors = [self.term_atom()]
        while self._starts_atom():
            factors.append(self.term_atom())
        t = factors[-1]
        for f in reversed(factors[:-1]):
            t = App(CAT, (f, t))
        return t

    def term_atom(self) -> Term:
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if t.kind == "word":
            if t.value == "eps":
                self.next()
                return EPS_TERM
            if self.tokens[self.pos + 1].kind == "(" and t.value in self.env.functions:
                name = self.next().value
                args = self.args()
                return App(name, args)
            c = self.take_letter()
            return Var(c) if self.env.is_variable(c) else App(c)
        self.error("expected a term, found %r" % (t.value or "end of input"), t)


def _parse_whole(text: str, env: Environment, rule, what: str):
    """Run one grammar rule and require that it consumes the whole text."""
    p = _Parser(env, text)
    result = rule(p)
    tok = p.peek()
    if tok.kind != "eof":
        p.error("unexpected %r after %s" % (tok.value, what), tok)
    return result


def parse_expression(text: str, env: Environment) -> Expr:
    return check_tree(env, _parse_whole(text, env, _Parser.expr, "expression"))


def parse_formula(text: str, env: Environment) -> Formula:
    return check_tree(env, _parse_whole(text, env, _Parser.formula, "formula"))


def parse_term(text: str, env: Environment) -> Term:
    return check_tree(env, _parse_whole(text, env, _Parser.term, "term"))


# ---------------------------------------------------------------------------
# environment files

_SECTIONS = ("alphabet", "variables", "predicates", "functions")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")  # ASCII only, as _IDENT reads
_LETTER = re.compile(r"[A-Za-z0-9_]\Z")  # one character _IDENT reads
_ARITY = re.compile(r"[0-9]+\Z")  # ASCII digits only: int() rejects "²"


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
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'section: entries'", lineno, 1)
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in _SECTIONS:
            raise ParseError("unknown section %r" % key, lineno, 1)
        entries = rest.split()
        if key in ("alphabet", "variables"):
            target = symbols if key == "alphabet" else variables
            for entry in entries:
                if not _LETTER.match(entry):
                    raise ParseError("letters must be single characters from "
                                     "[A-Za-z0-9_]: %r" % entry,
                                     lineno, raw.index(entry) + 1)
                if entry in symbols or entry in variables:
                    raise ParseError("duplicate letter %r" % entry,
                                     lineno, raw.index(entry) + 1)
                target.append(entry)
        else:
            target = predicates if key == "predicates" else functions
            for entry in entries:
                name, slash, arity = entry.partition("/")
                if not slash or not _ARITY.match(arity) or not _NAME.match(name):
                    raise ParseError("expected name/arity, found %r" % entry,
                                     lineno, raw.index(entry) + 1)
                if name in predicates or name in functions:
                    raise ParseError("duplicate name %r" % name,
                                     lineno, raw.index(entry) + 1)
                target[name] = int(arity)
    if not symbols:
        raise ParseError("environment declares no alphabet", 1, 1)
    return Environment(tuple(symbols), tuple(variables), predicates, functions)
