"""Parsing, printing, substitution and the word/term helpers."""

import itertools
import random
import re
import sys
import threading

import pytest

from constrex import (
    App, Atom, Bound, Cat, Conn, Constraint, Empty, FiniteRelation, Interpretation, Match,
    ParseError, PreconditionError, Realization, Star, Sum, TableFunction, Var, Witness,
    Word,
    apply_subst_set, check_subst_set, derive_expr_word, expr_str, parse_environment,
    parse_expression, parse_formula, parse_term, regex_str, subterms, term_of_word,
    term_str, variables_of,
)
from constrex import syntax
from constrex.errors import ConfigError
from constrex.syntax import (
    CAT, EPS_TERM, Environment, _Tree, _tree_equal, expr_variables, formula_str,
    in_printed_order, subst_set_str, subst_tree, subst_word, tree_variables, walk,
)

from conftest import (
    DEEP, ENV3_TEXT, FUZZ_SCALE, rand_expr, rand_formula, rand_term, rand_word,
    recursion_headroom,
)


def test_parse_environment_running_example():
    env = parse_environment(ENV3_TEXT)
    assert env.symbols == ("a", "b", "c")
    assert env.variables == ("x", "y", "z")
    assert env.predicates == {"sim": 2, "lt": 2}
    assert env.functions == {"f": 1}


def test_parse_environment_overlap_is_rejected():
    with pytest.raises(ParseError):
        parse_environment("alphabet: a\nvariables: a")


def test_parse_environment_empty_document():
    with pytest.raises(ParseError):
        parse_environment("")


def test_parse_environment_malformed_arity_has_position():
    with pytest.raises(ParseError) as err:
        parse_environment("alphabet: a b\npredicates: sim/two")
    assert err.value.line == 2


def test_parse_environment_rejects_names_the_tokenizer_cannot_read():
    # a formula could never name pé: the tokenizer reads ASCII names only
    with pytest.raises(ParseError) as err:
        parse_environment("alphabet: a b\npredicates: sim/2 p\u00e9/1")
    assert (err.value.line, err.value.column) == (2, 19)


def test_parse_environment_rejects_letters_the_tokenizer_cannot_read():
    # an expression could never spell \u00e9 or +: the tokenizer reads [A-Za-z0-9_]
    for text, column in (("alphabet: \u00e9 b", 11), ("alphabet: a b\nvariables: x +", 14)):
        with pytest.raises(ParseError) as err:
            parse_environment(text)
        assert (err.value.line, err.value.column) == (text.count("\n") + 1, column)
    env = parse_environment("alphabet: a 0\nvariables: _ X")
    assert (env.symbols, env.variables) == (("a", "0"), ("_", "X"))


@pytest.mark.parametrize("arities", [
    {"functions": {"f": "2"}}, {"predicates": {"p": 1.5}}, {"predicates": {"p": True}},
    {"functions": {"f": -1}}, {"predicates": {"p": None}},
], ids=["str", "float", "bool", "negative", "none"])
def test_environment_checks_its_arities(arities):
    # an arity is a nonnegative int and not a bool, as the SAT limit is
    (name, arity), = next(iter(arities.values())).items()
    message = "arity of %r must be a nonnegative integer, got %r" % (name, arity)
    with pytest.raises(ConfigError, match=re.escape(message)):
        Environment(("a",), **arities)
    assert Environment(("a",), predicates={"p": 0}, functions={"f": 2}).functions == {"f": 2}


@pytest.mark.parametrize("text, position", [
    ("alphabet: a a", (1, 13)),
    ("alphabet: a b\nvariables: x a", (2, 14)),
    ("alphabet: a\npredicates: sp/1 p/1 p/1", (2, 22)),
    ("alphabet: a\nfunctions: f/1\npredicates: ff/1 f/1", (3, 18)),
    ("alphabet: a\npredicates: e", (2, 13)),
], ids=["symbol-in-key", "variable-in-key", "name-in-entry", "function-in-entry",
        "entry-in-key"])
def test_parse_environment_points_at_the_offending_entry(text, position):
    with pytest.raises(ParseError) as err:
        parse_environment(text)
    assert (err.value.line, err.value.column) == position


# a witness's parts compare by identity, so a witness equals one built
# again from the same two objects
_ENV = parse_environment(ENV3_TEXT)
_INTERP = Interpretation(_ENV, {"sim": "eq", "lt": "lenleq"}, {"f": "rev"})
_REAL = Realization(_ENV, {"x": "ab"})


def _forged(node, like):
    """node, storing the hash of the node like in place of its own."""
    node._hash = like._hash
    return node


def _deep(kind, n):
    """Two Word leaves a and b under n - 1 nodes of kind, nested on the left
    for Cat and else on the right, and its repr."""
    if kind is Cat:
        node, text = Word("a"), "Word(letters='a')"
        for _ in range(n - 1):
            node = Cat(node, Word("b"))
            text = "Cat(left=%s, right=Word(letters='b'))" % text
    else:
        node = Word("b")
        for _ in range(n - 1):
            node = kind(Word("a"), node)
        text = ("%s(left=Word(letters='a'), right=" % kind.__name__) * (n - 1) \
            + "Word(letters='b')" + ")" * (n - 1)
    return node, text


def _deep_term(n, leaf):
    """f(f(...f(leaf)...)) nested n deep, and its repr."""
    t = Var(leaf)
    for _ in range(n):
        t = App("f", (t,))
    return t, "App(fn='f', args=(" * n + "Var(name=%r)" % leaf + ",))" * n


@pytest.mark.parametrize("left, right, equal, text", [
    (Cat(Word("a"), Star(Word("b"))), Cat(Word("a"), Star(Word("b"))), True,
     "Cat(left=Word(letters='a'), right=Star(child=Word(letters='b')))"),
    (Constraint(Match("a", Word("x")), Conn("not", (Atom("p", (Var("x"),)),))),
     Constraint(Match("a", Word("x")), Conn("not", (Atom("p", (Var("x"),)),))), True,
     "Constraint(child=Match(word='a', child=Word(letters='x')), formula=Conn("
     "tag='not', children=(Atom(pred='p', args=(Var(name='x'),)),)))"),
    (App("f", (App("a"),)), App("f", (App("a", ()),)), True,
     "App(fn='f', args=(App(fn='a', args=()),))"),
    (Empty(), Empty(), True, "Empty()"),
    # nodes of different types with equal fields
    (Sum(Word("a"), Word("b")), Cat(Word("a"), Word("b")), False,
     "Sum(left=Word(letters='a'), right=Word(letters='b'))"),
    (Word(""), Empty(), False, "Word(letters='')"),
    (Atom("p"), Conn("p"), False, "Atom(pred='p', args=())"),
    (FiniteRelation(frozenset({("a",)})), FiniteRelation(frozenset({("a",)}), False), True,
     "FiniteRelation(tuples=frozenset({('a',)}), default=False)"),
    (FiniteRelation(frozenset()), FiniteRelation(frozenset(), True), False,
     "FiniteRelation(tuples=frozenset(), default=False)"),
    (TableFunction.from_dict({("a",): "b"}), TableFunction(((("a",), "b"),)), True,
     "TableFunction(table=((('a',), 'b'),))"),
    # the field counts of the shared base: one, one holding a node, two
    (Var("x"), Var("x"), True, "Var(name='x')"),
    (Star(Word("a")), Star(Word("a")), True, "Star(child=Word(letters='a'))"),
    (Word("a"), Var("a"), False, "Word(letters='a')"),
    (Match("a", Word("b")), Match("a", Word("b")), True,
     "Match(word='a', child=Word(letters='b'))"),
    (Witness(_INTERP, _REAL), Witness(_INTERP, _REAL), True,
     "Witness(interpretation=%r, realization=%r)" % (_INTERP, _REAL)),
    # trees DEEP levels deep compare and print past the recursion limit
    (_deep(Cat, DEEP)[0], _deep(Cat, DEEP)[0], True, _deep(Cat, DEEP)[1]),
    (_deep(Sum, DEEP)[0], _deep(Sum, DEEP)[0], True, _deep(Sum, DEEP)[1]),
    (_deep(Sum, DEEP)[0], _deep(Cat, DEEP)[0], False, _deep(Sum, DEEP)[1]),
    # a node whose stored hash collides with another's is still told apart,
    # by its shape, its own fields, the length of its arguments or a child
    (_deep(Cat, DEEP)[0], _forged(_deep(Cat, DEEP - 1)[0], _deep(Cat, DEEP)[0]), False,
     _deep(Cat, DEEP)[1]),
    (Match("a", Word("b")), _forged(Match("b", Word("b")), Match("a", Word("b"))), False,
     "Match(word='a', child=Word(letters='b'))"),
    (App("f", (Var("x"),)), _forged(App("f", (Var("x"), Var("x"))), App("f", (Var("x"),))),
     False, "App(fn='f', args=(Var(name='x'),))"),
    (Star(Word("a")), _forged(Star(Word("b")), Star(Word("a"))), False,
     "Star(child=Word(letters='a'))"),
    (_deep_term(DEEP, "x")[0], _deep_term(DEEP, "x")[0], True, _deep_term(DEEP, "x")[1]),
    (_deep_term(DEEP, "x")[0], _deep_term(DEEP, "y")[0], False, _deep_term(DEEP, "x")[1]),
    # the oracle's search bound shares the base too: equal bounds hash alike
    (Bound(max_realization_len=1), Bound(1), True, "Bound(max_realization_len=1)"),
    (Bound(1), Bound(), False, "Bound(max_realization_len=1)"),
])
def test_nodes_are_values(left, right, equal, text):
    assert left is not right
    assert (left == right) is equal and (left != right) is not equal
    if isinstance(left, _Tree):     # what == falls back on for deep trees
        assert _tree_equal(left, right) is equal
    if equal:
        assert hash(left) == hash(right)
        assert len({left: 1, right: 2}) == len(frozenset({left, right})) == 1
    assert repr(left) == text
    # a class constant, not a field: the benchmark's witness key reads it
    assert TableFunction.default == TableFunction(()).default == "argcat"


def test_parse_expression_e1_structure(env3):
    e = parse_expression("x b* y | sim(f(x), f(y))", env3)
    assert e == Constraint(
        Cat(Word("x"), Cat(Star(Word("b")), Word("y"))),
        Atom("sim", (App("f", (Var("x"),)), App("f", (Var("y"),)))))


def test_parse_expression_e2(env3):
    e = parse_expression("(a b)* x -| (y x | lt(y, x))", env3)
    assert isinstance(e, Constraint)
    assert isinstance(e.child, Match)
    assert e.child.word == "yx"
    assert e.child.child == Cat(Star(Cat(Word("a"), Word("b"))), Word("x"))
    assert e.formula == Atom("lt", (Var("y"), Var("x")))


def test_parse_expression_dangling_sum(env3):
    with pytest.raises(ParseError):
        parse_expression("a +", env3)


def test_parse_expression_unknown_letter(env3):
    with pytest.raises(ParseError):
        parse_expression("a d", env3)


def test_parse_formula_arity_mismatch(env3):
    with pytest.raises(ConfigError):
        parse_formula("sim(f(x))", env3)


@pytest.mark.parametrize("parse, text, message", [
    (parse_term, "a f(x, y)", "function 'f' expects 1 arguments, got 2"),
    (parse_term, "f()", "function 'f' expects 1 arguments, got 0"),
    (parse_formula, "sim(f(), x)", "function 'f' expects 1 arguments, got 0"),
    (parse_expression, "x | lt(f(x, a), y)", "function 'f' expects 1 arguments, got 2"),
    (parse_formula, "sim(x, y) && !lt(x)", "predicate 'lt' expects 2 arguments, got 1"),
    (parse_expression, "x* | sim(a, b, c)", "predicate 'sim' expects 2 arguments, got 3"),
], ids=["term-f2", "term-f0", "formula-f0", "expr-f2", "formula-lt1", "expr-sim3"])
def test_parse_reports_the_wrong_arity(env3, parse, text, message):
    with pytest.raises(ConfigError) as err:
        parse(text, env3)
    assert type(err.value) is ConfigError
    assert str(err.value) == message


def test_match_requires_a_word_side(env3):
    with pytest.raises(ParseError):
        parse_expression("a* -| b*", env3)


def test_substitute_word_doubles(env3):
    assert subst_word("xx", {"x": "ax"}) == "axax"


def test_substitute_formula_gives_f1(env3):
    phi = parse_formula("sim(f(x), f(y))", env3)
    assert subst_tree(env3, phi, {"x": "ax"}) == parse_formula("sim(f(ax), f(y))", env3)


def test_substitute_without_occurrence(env3):
    e = parse_expression("a b*", env3)
    assert subst_tree(env3, e, {"x": "ax"}) == e


def test_substitute_no_occurrence_random(env3):
    rng = random.Random(7)
    for _ in range(200):
        e = rand_expr(rng, env3, 3)
        for x in env3.variables:
            if x not in expr_str(e):
                assert subst_tree(env3, e, {x: "ax"}) == e


def test_subst_eps_collapses_catenation(env3):
    phi = parse_formula("sim(f(abx), f(y))", env3)
    assert subst_tree(env3, phi, {"x": ""}) == parse_formula("sim(f(ab), f(y))", env3)


def test_apply_subst_set_examples(env3):
    assert apply_subst_set(env3, "xabx", {("x", "")}) == "ab"
    e = parse_expression("x b* y", env3)
    assert apply_subst_set(env3, e, frozenset()) == e
    assert apply_subst_set(env3, "xy", {("x", "ax"), ("y", "")}) == "ax"


def test_apply_subst_set_rejects_invalid(env3):
    with pytest.raises(PreconditionError):
        check_subst_set({("x", "ax"), ("x", "")})
    with pytest.raises(PreconditionError):
        check_subst_set({("x", "ay"), ("y", "")})


def test_apply_subst_set_order_insensitive(env3):
    # The one-pass application must equal every order of single substitutions,
    # also where the catenation/eps collapse fires: terms of depth 3 that mix
    # catenation and eps, mixed words, and sets erasing every variable.
    rng = random.Random(11)
    letters = list(env3.symbols)
    for i in range(450):
        if rng.random() < 0.25:
            pairs = [(x, "") for x in env3.variables]
        else:
            pairs = []
            for x in rng.sample(list(env3.variables), rng.randint(0, 3)):
                rep = "" if rng.random() < 0.4 else rng.choice(letters) + x
                pairs.append((x, rep))
        X = check_subst_set(pairs)
        entity = [
            rand_expr(rng, env3, 3),
            Atom(rng.choice(["sim", "lt"]),
                 (rand_term(rng, env3, 3), rand_term(rng, env3, 3))),
            rand_word(rng, letters + list(env3.variables), 6),
        ][i % 3]
        assert apply_subst_set(env3, entity, ()) is entity
        expected = apply_subst_set(env3, entity, X)
        for order in itertools.permutations(pairs):
            got = entity
            for x, w in order:
                got = apply_subst_set(env3, got, {(x, w)})
            assert got == expected


def test_term_of_word_examples(env3):
    assert term_of_word(env3, "ab") == parse_term("ab", env3)
    assert term_of_word(env3, "") == EPS_TERM
    assert term_of_word(env3, "abc") == parse_term("abc", env3)
    assert term_str(term_of_word(env3, "abc")) == "abc"


def test_subterms_examples(env3):
    assert subterms(Var("x")) == frozenset({Var("x")})
    fx = parse_term("f(x)", env3)
    assert subterms(fx) == frozenset({fx, Var("x")})
    env = parse_environment("alphabet: a\nvariables: y z\nfunctions: f/1 g/2")
    t = parse_term("g(f(y), z)", env)
    assert subterms(t) == frozenset({t, parse_term("f(y)", env), Var("y"), Var("z")})


def test_subterms_of_a_deep_term_need_no_recursion(env3):
    # each catenation hands its stored hash to its parent, so putting the
    # 5,000 distinct suffixes and the one leaf in a set hashes no deeper
    t = term_of_word(env3, "a" * (DEEP + 1))
    with recursion_headroom():
        assert len(subterms(t)) == DEEP + 1


class _Hashed:
    """Hashes to a given value, standing in for a child in _structural_hash."""
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def _structural_hash(node):
    """The hash of a node's field tuple, its children's hashes computed
    again, recursively, from their fields."""
    if type(node) is Var:
        return hash((node.name,))
    if type(node) is Conn:
        head, children = node.tag, node.children
    else:
        head, children = (node.pred if type(node) is Atom else node.fn), node.args
    return hash((head, tuple(_Hashed(_structural_hash(c)) for c in children)))


def test_stored_hashes_equal_the_structural_hash(env3):
    rng = random.Random(2006)
    for _ in range(300 * FUZZ_SCALE):
        t, phi = rand_term(rng, env3, 4), rand_formula(rng, env3, 3)
        for node in (*walk(t), *walk(phi)):
            assert hash(node) == _structural_hash(node)


def _expr_hash(node):
    """The hash of an expression node's field tuple, with each child given
    as its hash, computed again, recursively, and a sum's tagged "+"; a
    formula's is structural."""
    kind = type(node)
    if kind is Word:
        return hash((node.letters,))
    if kind is Empty:
        return hash(())
    if kind is Sum:
        return hash(("+", _expr_hash(node.left), _expr_hash(node.right)))
    if kind is Cat:
        return hash((_expr_hash(node.left), _expr_hash(node.right)))
    if kind is Star:
        return hash((_expr_hash(node.child),))
    if kind is Match:
        return hash((node.word, _expr_hash(node.child)))
    if kind is Constraint:
        return hash((_expr_hash(node.child), _structural_hash(node.formula)))
    return _structural_hash(node)


def test_stored_expression_hashes_equal_the_recursive_hash(env3):
    rng = random.Random(1996)
    for _ in range(300 * FUZZ_SCALE):
        for node in walk(rand_expr(rng, env3, 5)):
            assert hash(node) == _expr_hash(node)
    # a sum and a catenation of the same children hash apart
    a, b = Word("a"), Word("b")
    for left, right in [(a, b), (a, a), (Empty(), Star(a)), (Cat(a, b), Sum(a, b))]:
        assert hash(Sum(left, right)) != hash(Cat(left, right))


def test_expressions_built_apart_are_equal_values(env3):
    for seed in range(200 * FUZZ_SCALE):
        e, again = (rand_expr(random.Random(seed), env3, 5) for _ in range(2))
        assert e == again and hash(e) == hash(again)


def test_deep_expressions_hash_without_recursion():
    a = Word("a")
    cat, total, star = a, a, a
    for _ in range(DEEP):
        cat, total, star = Cat(a, cat), Sum(total, a), Star(star)
    with recursion_headroom():
        nodes = {cat, total, star, a}
        assert len(nodes) == 4 and cat in nodes and total in nodes and star in nodes


ENV_FG = "alphabet: a b c\nvariables: x\npredicates: sim/2\nfunctions: f/1 fg/1 g/1"
_A, _B, _X = App("a"), App("b"), Var("x")


def _cat(*factors):
    t = factors[-1]
    for u in reversed(factors[:-1]):
        t = App(CAT, (u, t))
    return t


@pytest.mark.parametrize("text, tree", [
    # the letters of a run stop where the rest of it is a function name
    # followed by "(", or eps
    ("abf(x)", _cat(_A, _B, App("f", (_X,)))),
    ("afg(x)", _cat(_A, App("fg", (_X,)))),
    ("ab fg(x)", _cat(_A, _B, App("fg", (_X,)))),
    ("abg (x)", _cat(_A, _B, App("g", (_X,)))),
    ("xabeps", _cat(_X, _A, _B, EPS_TERM)),
    ("f(ab)x", _cat(App("f", (_cat(_A, _B),)), _X)),
])
def test_parse_term_splits_a_letter_run(text, tree):
    assert parse_term(text, parse_environment(ENV_FG)) == tree


@pytest.mark.parametrize("text, letter, position", [
    ("x abdc", "d", (1, 5)),
    ("f(ab, cadb)", "d", (1, 9)),
    ("ab ca\n  bcde", "d", (2, 5)),
    ("abgd(x)", "g", (1, 3)),
    ("abdeps", "d", (1, 3)),
])
def test_parse_term_points_at_a_non_letter_in_a_run(text, letter, position):
    with pytest.raises(ParseError) as caught:
        parse_term(text, parse_environment(ENV_FG))
    assert str(caught.value).endswith("%r is not a symbol or variable" % letter)
    assert (caught.value.line, caught.value.column) == position


def test_variables_of_examples(env3):
    assert variables_of(env3, "xbay") == frozenset({"x", "y"})
    assert variables_of(env3, "ab") == frozenset()
    assert variables_of(env3, "xyx") == frozenset({"x", "y"})


def test_print_parse_round_trip_random(env3):
    rng = random.Random(23)
    for _ in range(400):
        e = rand_expr(rng, env3, 4)
        text = expr_str(e)
        once = parse_expression(text, env3)
        again = parse_expression(expr_str(once), env3)
        assert once == again
        assert expr_str(once) == text or expr_str(once) == expr_str(again)


def test_parser_born_round_trip_is_identity(env3):
    for text in [
        "x b* y | sim(f(x), f(y))",
        "(a b)* x -| (y x | lt(y, x))",
        "(x -| a*) (y -| b*) (z -| c*) | sim(x, y) && sim(y, z)",
        "a + b c* + eps",
        "empty -| a b",
        "x -| y -| a*",
        "eps b* y | sim(f(a), f(y))",
    ]:
        e = parse_expression(text, env3)
        assert parse_expression(expr_str(e), env3) == e


def test_formula_round_trip(env3):
    for text in [
        "sim(f(x), f(y)) && !lt(x, y)",
        "true -> lt(x, abc) || false",
        "!(sim(x, y) -> lt(y, x))",
        "sim((ab)x, a(bx))",
    ]:
        phi = parse_formula(text, env3)
        assert parse_formula(formula_str(phi), env3) == phi


def test_term_round_trip(env3):
    for text in ["(ab)x", "abx", "f(ax)b", "a f(x)", "f(f(eps))"]:
        t = parse_term(text, env3)
        assert parse_term(term_str(t), env3) == t


def test_subst_word_is_total():
    assert subst_word("", {"x": "ax"}) == ""


def test_walk_order_and_unknown_nodes(env3):
    e = parse_expression("x* a | sim(x, a)", env3)
    phi = e.formula
    x, a = phi.args
    assert list(walk(e)) == [e, e.child, e.child.left, e.child.left.child,
                             e.child.right, phi, x, a]
    odd = object.__new__(Star)  # the constructor would read the child's hash
    odd.child = "x"
    with pytest.raises(TypeError):
        list(walk(odd))


def test_deep_trees_are_walked_without_recursion(env3):
    letters = "xa" * (DEEP // 2)
    with recursion_headroom():
        t = parse_term(letters, env3)
        e = parse_expression(" ".join(letters), env3)
        assert tree_variables(t) == {"x"}
        assert tree_variables(Atom("sim", (t, t))) == {"x"}
        assert expr_variables(env3, Constraint(e, Atom("lt", (t, App("b"))))) == {"x"}
        assert expr_str(e) == " ".join(letters)
        # a left-nested catenation prints flat in both notations
        nested = Word(letters[0])
        for c in letters[1:]:
            nested = Cat(nested, Word(c))
        assert expr_str(nested) == regex_str(nested) == str(nested) == " ".join(letters)
        # a long mixed word on either side of -|
        word = "ab" * (DEEP // 2)
        left = parse_expression(" ".join(word) + " -| (a + b)*", env3)
        right = parse_expression("(a + b)* -| " + " ".join(word), env3)
        assert left == right == Match(word, Star(parse_expression("a + b", env3)))
        derived = derive_expr_word(env3, left, "ab")
        assert [(d.word, X) for d, X in derived] == [(word[2:], frozenset())]


def test_term_of_word_builds_long_words_without_recursion(env3):
    letters = "xa" * (DEEP // 2)
    with recursion_headroom():
        t = term_of_word(env3, letters)
        assert term_str(t) == letters
        assert tree_variables(t) == {"x"}


@pytest.mark.parametrize("op", ["&&", "||"])
def test_deep_trees_are_folded_without_recursion(env3, op):
    # a flat chain of DEEP atoms under a catenation of DEEP symbols
    from constrex import (
        Interpretation, Realization, eval_formula, normalize_formula, regex_str,
        regularize, simplify_expr,
    )
    glue = " %s " % op
    letters = " ".join("xa" * (DEEP // 2))
    interp = Interpretation(env3, {"sim": "leneq", "lt": "lenleq"}, {"f": "projA"})
    with recursion_headroom():
        chain = parse_formula(glue.join(["sim(x, a)"] * DEEP), env3)
        assert formula_str(chain) == glue.join(["sim(x, a)"] * DEEP)
        assert eval_formula(interp, Realization(env3, {"x": "b"}), chain) is True
        assert eval_formula(interp, Realization(env3), chain) is False
        erased = apply_subst_set(env3, chain, {("x", "")})
        assert formula_str(erased) == glue.join(["sim(eps, a)"] * DEEP)
        assert normalize_formula(chain) is chain
        unnormal = parse_formula(glue.join(["sim((ab)x, eps a)"] * DEEP), env3)
        assert formula_str(normalize_formula(unnormal)) == glue.join(["sim(abx, a)"] * DEEP)
        e = parse_expression(letters + " | " + glue.join(["sim(x, a)"] * DEEP), env3)
        rx = regularize(interp, Realization(env3, {"x": "b"}), e)
        assert regex_str(rx) == letters.replace("x", "b")
        assert regex_str(regularize(interp, Realization(env3), e)) == "empty"
        derived = apply_subst_set(env3, e, {("x", "bx")})
        assert expr_str(derived) == "%s | %s" % (
            letters.replace("x", "bx"), glue.join(["sim(bx, a)"] * DEEP))
        padded = parse_expression(" ".join(["a eps"] * (DEEP // 2)), env3)
        assert expr_str(simplify_expr(env3, padded)) == " ".join("a" * (DEEP // 2))


def test_apply_subst_set_returns_untouched_subtrees_themselves(env3):
    e = parse_expression("(x a + b*) c -| (y | sim(f(x), a) && lt(y, b))", env3)
    assert apply_subst_set(env3, e, {("z", "")}) is e
    phi = e.formula
    out = apply_subst_set(env3, e, {("x", "ax")})
    assert expr_str(out) == "y -| (ax a + b*) c | sim(f(ax), a) && lt(y, b)"
    assert out.child.word == e.child.word
    assert out.child.child.right is e.child.child.right      # c
    assert out.child.child.left.right is e.child.child.left.right   # b*
    assert out.formula.children[1] is phi.children[1]      # lt(y, b)
    assert out.formula.children[0].args[1] is phi.children[0].args[1]     # a


def test_in_printed_order_keys_each_distinct_item_once():
    keyed = []

    def key(item):
        keyed.append(item)
        return str(item)

    # nothing, a lone item and equal items leave nothing to order
    assert in_printed_order([], key) == []
    assert in_printed_order([Word("b")], key) == [Word("b")]
    copies = [Word("b"), Word("b"), Word("b")]
    kept, = in_printed_order(copies, key)
    assert kept is copies[-1] and keyed == []
    # the items sort by key, equal ones keyed once; of two with one key the
    # later wins, and of equal ones the later object, at its own place
    first, nested, last = (Cat(Cat(Word("a"), Word("b")), Word("c")),
                           Cat(Word("a"), Cat(Word("b"), Word("c"))),
                           Cat(Cat(Word("a"), Word("b")), Word("c")))
    got = in_printed_order([Word("b"), first, nested, Word("b"), last], key)
    assert got == [last, Word("b")] and got[0] is last
    assert keyed == [nested, Word("b"), last]


def _subst_reference(env, node, m):
    """Substitution by plain recursion over every node, with the catenation
    collapse of subst_tree: a child that becomes eps here is dropped."""
    kind = type(node)
    if kind is Var:
        return term_of_word(env, m[node.name]) if node.name in m else node
    if kind is App:
        args = tuple(_subst_reference(env, t, m) for t in node.args)
        if node.fn == CAT:
            for i in (0, 1):
                if args[i] == EPS_TERM and node.args[i] != EPS_TERM:
                    return args[1 - i]
        return App(node.fn, args)
    if kind is Atom:
        return Atom(node.pred, tuple(_subst_reference(env, t, m) for t in node.args))
    if kind is Conn:
        return Conn(node.tag, tuple(_subst_reference(env, c, m) for c in node.children))
    if kind is Word:
        return Word(subst_word(node.letters, m))
    if kind is Match:
        return Match(subst_word(node.word, m), _subst_reference(env, node.child, m))
    return kind(*(_subst_reference(env, c, m) for c in node._fields(node)))


def test_substitution_returns_untouched_trees_themselves(env3, monkeypatch):
    folds = []
    fold = syntax.fold
    monkeypatch.setattr(syntax, "fold", lambda root, visit: folds.append(root) or fold(root, visit))
    ax = {"x": "ax"}
    # a tail of words alone, and the empty map on every kind of tree, are
    # handed back unfolded
    tail = parse_expression("a b (c + a b)* -| b", env3)
    phi = parse_formula("sim(f(x), a y) && !lt(x, eps)", env3)
    term = parse_term("f(x) a y", env3)
    assert subst_tree(env3, tail, ax) is tail
    for tree in (tail, phi, term, parse_expression("x y | sim(x, y)", env3)):
        assert subst_tree(env3, tree, {}) is tree
    assert folds == []
    # a tail holding a constraint counts as holding every letter, so it is
    # folded, and still comes back itself when no variable of the map occurs
    guarded = parse_expression("a (b | sim(y, b)) c*", env3)
    assert subst_tree(env3, guarded, ax) is guarded and folds[0] is guarded
    # a match's word counts, though its child holds no variable
    match = Match("x", Word("ab"))
    assert subst_tree(env3, match, ax) == Match("ax", Word("ab"))
    assert subst_tree(env3, match, {"y": ""}) is match
    # against plain recursion: the result is equal, and it is the input
    # itself exactly when the expression holds no variable of the map
    rng = random.Random(33)
    for _ in range(400 * FUZZ_SCALE):
        e = rand_expr(rng, env3, 4)
        m = {x: rng.choice(["", rng.choice("abc") + x])
             for x in rng.sample(env3.variables, rng.randint(1, 3))}
        got = subst_tree(env3, e, m)
        assert got == _subst_reference(env3, e, m)
        assert (got is e) == expr_variables(env3, e).isdisjoint(m)
    # a deep left-nested catenation is masked and substituted on a stack
    deep = Word("x")
    for _ in range(DEEP):
        deep = Cat(deep, Word("a"))
    with recursion_headroom():
        assert subst_tree(env3, deep, {"y": "ay"}) is deep
        out = subst_tree(env3, deep, ax)
        while type(out) is Cat:
            out = out.left
        assert out == Word("ax")


def test_letter_masks_stay_right_across_threads(env3):
    # four threads substitute into the same fresh trees, so they fill the
    # masks of shared nodes at once; each must get what an equal tree, drawn
    # again from the same seed, gives in this thread
    def draw():
        rng = random.Random("masks")
        return [rand_expr(rng, env3, 5) for _ in range(300 * FUZZ_SCALE)]

    trees = draw()
    maps = [{x: "b" + x} for x in env3.variables]
    expected = [[subst_tree(env3, e, m) for m in maps] for e in draw()]
    failures = []

    def substitute(shift):
        for i, e in enumerate(trees):
            ms = maps[shift:] + maps[:shift]
            if [subst_tree(env3, e, m) for m in ms] != expected[i][shift:] + expected[i][:shift]:
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=substitute, args=(i % 3,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


def test_subst_set_str_keeps_the_letter_key_order(env3):
    def reference(X):
        ordered = sorted(X, key=lambda p: (env3.letter_key(p[0]), env3.letter_key(p[1])))
        return "{%s}" % ",".join("(%s,%s)" % (x, w or "eps") for x, w in ordered)

    rng = random.Random(5)
    for i in range(150 * FUZZ_SCALE):
        pairs = [(rng.choice(env3.variables), rand_word(rng, "abcxyz", 3))
                 for _ in range(rng.randint(0, 4))]
        if i % 2:   # functional: one pair per variable
            pairs = list(dict(pairs).items())
        for order in itertools.permutations(pairs):
            assert subst_set_str(env3, order) == reference(pairs)
        assert subst_set_str(env3, frozenset(pairs)) == reference(set(pairs))
