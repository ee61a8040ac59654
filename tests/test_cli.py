"""Command-line front end: exit codes, formats, determinism."""

import os
import subprocess
import sys

import pytest

import constrex
from constrex.cli import run

from conftest import ENV3_TEXT, ENVP_TEXT, NEXT_TO_AN_APPLICATION, recursion_headroom


@pytest.fixture
def env_file(tmp_path):
    path = tmp_path / "env.txt"
    path.write_text(ENV3_TEXT)
    return str(path)


E1 = "x b* y | sim(f(x), f(y))"
INTERP = "sim=eq,lt=lenleq,f=projA"


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def test_importing_the_command_loads_no_dataclasses():
    # -S keeps site, and the .pth files it runs, from importing modules first
    src = os.path.dirname(os.path.dirname(constrex.__file__))
    code = ("import constrex.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_check_fixed_accepts(env_file, capsys):
    status, out = invoke(capsys, "check-fixed", "--env", env_file, "--expr", E1,
                         "--word", "ababbbaa", "--interp", INTERP,
                         "--real", "x=aba,y=aa", "--oracle")
    assert status == 0
    assert out.splitlines() == ["ACCEPT", "oracle: agree"]


def test_check_fixed_rejects(env_file, capsys):
    status, out = invoke(capsys, "check-fixed", "--env", env_file, "--expr", E1,
                         "--word", "ababbbaa", "--interp", INTERP,
                         "--real", "x=bbaa,y=abab")
    assert status == 1
    assert out.splitlines() == ["REJECT"]


def test_check_free_witness(env_file, capsys):
    status, out = invoke(capsys, "check-free", "--env", env_file, "--expr", E1,
                         "--word", "ab", "--oracle")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "ACCEPT"
    assert "oracle: agree" in lines
    assert any(line.startswith("x = ") for line in lines)


def test_check_free_reject(env_file, capsys):
    expr = "(x -| a*) (y -| b*) (z -| c*) | sim(x, y) && sim(y, z)"
    status, out = invoke(capsys, "check-free", "--env", env_file, "--expr", expr,
                         "--word", "ba")
    assert status == 1
    assert out.splitlines() == ["REJECT"]


def test_derive_golden_records(env_file, capsys):
    status, out = invoke(capsys, "derive", "--env", env_file, "--expr", E1,
                         "--word", "ab")
    assert status == 0
    assert out.splitlines() == [
        "eps b* y | sim(f(a), f(y))\t{(x,eps)}",
        "x b* y | sim(f(abx), f(y))\t{(x,bx)}",
        "y | sim(f(a), f(by))\t{(x,eps),(y,by)}",
        "y | sim(f(eps), f(aby))\t{(y,by)}",
    ]


def test_derive_word_headed_golden(env_file, capsys):
    # catenations headed by a mixed word: the word rule's assumptions reach
    # the tail, and a head of variables only can be erased entirely
    cases = {
        "x y x b | sim(x, y)": [
            "eps | sim(eps, a)\t{(y,eps)}",
            "x y abx b | sim(abx, y)\t{(x,bx)}",
            "y a b | sim(a, by)\t{(x,eps),(y,by)}",
            "y eps b | sim(eps, aby)\t{(y,by)}",
        ],
        "x y a | sim(x, y)": [
            "x y a | sim(abx, y)\t{(x,bx)}",
            "y a | sim(a, by)\t{(x,eps),(y,by)}",
            "y a | sim(eps, aby)\t{(y,by)}",
        ],
        "x x -| (a b)*": [
            "xabx -| eps (a b)*\t{(x,bx)}",
        ],
    }
    for expr, records in cases.items():
        status, out = invoke(capsys, "derive", "--env", env_file, "--expr", expr,
                             "--word", "ab")
        assert status == 0
        assert out.splitlines() == records


def test_indicator_golden(env_file, capsys):
    status, out = invoke(capsys, "indicator", "--env", env_file,
                         "--expr", "x b* y | sim(f(abx), f(y))")
    assert status == 0
    assert out.splitlines() == ["{x,y} :: sim(f(ab), f(eps))"]


def test_sat_unsat(env_file, capsys):
    status, out = invoke(capsys, "sat", "--env", env_file,
                         "--formula", "lt((ab)x, abx) && !lt(abx, a(bx))", "--oracle")
    assert status == 1
    assert out.splitlines() == ["UNSAT", "oracle: agree"]


def test_sat_witness(env_file, capsys):
    status, out = invoke(capsys, "sat", "--env", env_file,
                         "--formula", "lt(f(ab), f(x)) && !sim(x, ab)", "--oracle")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    assert lines[-1] == "oracle: agree"


@pytest.mark.parametrize("formula", NEXT_TO_AN_APPLICATION)
def test_sat_witness_next_to_an_application(tmp_path, capsys, formula):
    path = tmp_path / "envp.txt"
    path.write_text(ENVP_TEXT)
    status, out = invoke(capsys, "sat", "--env", str(path),
                         "--formula", formula, "--oracle")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    assert lines[-1] == "oracle: agree"


def test_sat_witness_over_a_digit_symbol_prints_words_in_full(tmp_path, capsys):
    # as a run length, abbba would print as ab3a, and abba as ab2a: the
    # literal word of the atom the witness satisfies
    path = tmp_path / "env.txt"
    path.write_text("alphabet: a b 2\nvariables: x y\npredicates: sim/2\n")
    status, out = invoke(capsys, "sat", "--env", str(path),
                         "--formula", "sim(x, ab2a) && !sim(x, abba)", "--oracle")
    assert status == 0
    assert out.splitlines() == ["SAT", "x = abbba", "sim(abbba,ab2a)", "oracle: agree"]


def test_regularize(env_file, capsys):
    status, out = invoke(capsys, "regularize", "--env", env_file,
                         "--expr", "(a b)* x -| (y x | lt(y, x))",
                         "--interp", INTERP, "--real", "x=bbaa,y=abab", "--oracle")
    assert status == 0
    assert out.splitlines() == ["ababbbaa & (a b)* bbaa", "oracle: agree"]


@pytest.mark.parametrize("max_len", ["-1", "two", "1.5"])
def test_regularize_max_len_must_be_a_whole_number(env_file, capsys, max_len):
    # a negative bound enumerated no word and still printed "oracle: agree"
    with pytest.raises(SystemExit) as exit_info:
        run(["regularize", "--env", env_file, "--expr", "(a b)*", "--oracle",
             "--max-len", max_len])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2
    assert out == ""
    assert "--max-len: expected a whole number of at least 0, got '%s'" % max_len in err


def test_parse_error_exit_code(env_file, capsys):
    status, _ = invoke(capsys, "check-fixed", "--env", env_file, "--expr", "a +",
                       "--word", "a", "--interp", INTERP, "--real", "")
    assert status == 2


@pytest.mark.parametrize("argv, message", [
    (("sat", "--formula", "sim(f(x, y), a)"), "function 'f' expects 1 arguments, got 2"),
    (("indicator", "--expr", "x | lt(x)"), "predicate 'lt' expects 2 arguments, got 1"),
], ids=["sat-function", "indicator-predicate"])
def test_wrong_arity_exits_2(env_file, capsys, argv, message):
    assert run([argv[0], "--env", env_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_missing_env_file(capsys):
    status, _ = invoke(capsys, "indicator", "--env", "/does/not/exist",
                       "--expr", "a")
    assert status == 2


def test_output_is_deterministic(env_file, capsys):
    args = ("derive", "--env", env_file, "--expr", E1, "--word", "ab")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    assert first == second


def test_simplify_flag(env_file, capsys):
    expr = "(x -| a*) (y -| b*) (z -| c*) | sim(x, y) && sim(y, z)"
    status, out = invoke(capsys, "derive", "--env", env_file, "--expr", expr,
                         "--word", "abc", "--simplify")
    assert status == 0
    assert out.splitlines() == [
        "(eps -| x -| a*) (eps -| y -| b*) (z -| c*) | "
        "sim(ax, by) && sim(by, cz)\t{(z,cz)}",
    ]


@pytest.mark.parametrize("argv, max_props, answer", [
    (("check-fixed", "--expr", " ".join("ab" * 1500), "--word", "ab" * 1500),
     None, "ACCEPT"),
    (("sat", "--formula", "sim(%sx%s, x)" % ("f(" * 400, ")" * 400)), None, "SAT"),
    (("sat", "--formula", "sim(x, a)"), "abc", None),
], ids=["catenation-3000", "nested-f-400", "max-props-abc"])
def test_robustness_inputs_end_cleanly(env_file, capsys, monkeypatch,
                                       argv, max_props, answer):
    """Deep input and a malformed limit give one error line and exit 2, or the answer."""
    if max_props is None:
        monkeypatch.delenv("CONSTREX_MAX_PROPS", raising=False)
    else:
        monkeypatch.setenv("CONSTREX_MAX_PROPS", max_props)
    status = run([argv[0], "--env", env_file, *argv[1:]])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if status == 2:
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
    else:
        assert (status, captured.out.splitlines()[0]) == (0, answer)


def test_sat_on_a_term_nested_400_calls_deep(env_file, capsys):
    # parsing, printing the atom's name and building the witness all keep
    # their place on stacks
    formula = "sim(%sx%s, x)" % ("f(" * 400, ")" * 400)
    with recursion_headroom():
        status, out = invoke(capsys, "sat", "--env", env_file, "--formula", formula)
    assert (status, out.splitlines()[:3]) == (0, ["SAT", "x = aba", "f(aba) = ab2a"])


def test_check_free_on_500_nested_parentheses(env_file, capsys):
    with recursion_headroom():
        status, out = invoke(capsys, "check-free", "--env", env_file,
                             "--expr", "(" * 500 + "a" + ")" * 500, "--word", "a")
    assert (status, out.splitlines()) == (0, ["ACCEPT"])


def test_derive_on_a_3000_symbol_catenation(env_file, capsys):
    letters = " ".join("ab" * 1500)
    status, out = invoke(capsys, "derive", "--env", env_file, "--expr", letters,
                         "--word", "ab")
    assert status == 0
    assert out.splitlines() == ["eps %s\t{}" % letters[4:]]


@pytest.mark.parametrize("op", ["&&", "||"])
def test_sat_on_a_flat_chain_of_3000_atoms(env_file, capsys, op):
    chain = (" %s " % op).join(["sim(a, b)"] * 3000)
    with recursion_headroom():
        status, out = invoke(capsys, "sat", "--env", env_file, "--formula", chain)
    assert status == 0
    assert out.splitlines()[0] == "SAT"


@pytest.mark.parametrize("op", ["&&", "||"])
@pytest.mark.parametrize("argv, lines", [
    (("check-fixed", "--word", "a", "--interp", "sim=leneq", "--real", "x=a"), ["ACCEPT"]),
    (("derive", "--word", "a"), ["x | {ax}\t{{(x,ax)}}"]),
    (("indicator",), ["{{x}} :: {eps}"]),
], ids=["check-fixed", "derive", "indicator"])
def test_modes_on_a_constraint_of_3000_atoms(env_file, capsys, op, argv, lines):
    def chain(x):
        return (" %s " % op).join(["sim(%s, b)" % x] * 3000)

    with recursion_headroom():
        status = run([argv[0], "--env", env_file, "--expr", "x | " + chain("x"), *argv[1:]])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out.splitlines() == [
        line.format(ax=chain("ax"), eps=chain("eps")) for line in lines]


@pytest.mark.parametrize("op", ["&&", "||"])
def test_check_free_on_a_one_sided_constraint_of_3000_atoms(env_file, capsys, op):
    # the search reads the chain's 20 distinct atoms, within the symbol limit
    chain = (" %s " % op).join("sim(x, %s)" % w for w in ["a", "b", "ab", "ba"] * 5) \
        + " %s " % op + (" %s " % op).join(["sim(x, a)"] * 2980)
    with recursion_headroom():
        status = run(["check-free", "--env", env_file, "--expr", "x | " + chain,
                      "--word", "ab"])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out.splitlines()[:2] == ["ACCEPT", "x = ab"]


def test_check_free_on_a_constraint_chain_with_a_negated_atom(env_file, capsys):
    # the void test keeps its SAT answers by formula identity, so it never
    # hashes the 3000-atom chain, whose hash recurses once per level
    chain = " && ".join(["sim(a, b)", "!lt(x, a)", "lt(a, x)", "!sim(x, b)"] * 750)
    with recursion_headroom():
        status = run(["check-free", "--env", env_file, "--expr", "x | " + chain,
                      "--word", "ab"])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out.splitlines() == ["ACCEPT", "x = ab", "lt(a,ab)", "sim(a,b)"]


LONG = " ".join("ab" * 1500)


def test_check_fixed_oracle_on_a_1600_letter_star(env_file, capsys):
    # the oracle decides a star by one loop over the word, not one frame per factor
    word = "ab" * 800
    status, out = invoke(capsys, "check-fixed", "--env", env_file,
                         "--expr", "%s -| (a + b)*" % " ".join(word), "--word", word,
                         "--interp", INTERP, "--real", "", "--oracle")
    assert status == 0
    assert out.splitlines() == ["ACCEPT", "oracle: agree"]


@pytest.mark.parametrize("argv, status, lines", [
    (("check-free", "--expr", LONG, "--word", "ab"), 1, ["REJECT"]),
    (("check-free", "--expr", LONG, "--word", "ab" * 1500), 0, ["ACCEPT"]),
    (("indicator", "--expr", LONG), 0, []),
    (("indicator", "--expr", " ".join("xy" * 1500)), 0, ["{x,y} :: true"]),
], ids=["check-free-reject", "check-free-accept", "indicator-none", "indicator-xy"])
def test_free_pipeline_on_a_3000_symbol_catenation(env_file, capsys, argv, status, lines):
    assert run([argv[0], "--env", env_file, *argv[1:]]) == status
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == lines


def test_check_fixed_on_a_3000_symbol_catenation(env_file, capsys):
    # each derived state hands over its stored hash, so the state sets of
    # the fixed-case engine hash no deeper than the state
    with recursion_headroom():
        status, out = invoke(capsys, "check-fixed", "--env", env_file, "--expr", LONG,
                             "--word", "ab" * 1500, "--interp", INTERP, "--real", "")
    assert (status, out.splitlines()) == (0, ["ACCEPT"])


SUM_LEFT = " + ".join(["a"] * 3000)                   # nests to the left
SUM_RIGHT = "a + (" * 2999 + "a" + ")" * 2999
SUM_FACTOR = "(%s) b" % SUM_LEFT
MATCH_CHAIN = "x -| " * 1000 + "(a + x)*"


@pytest.mark.parametrize("argv, status, lines", [
    (("check-fixed", "--expr", SUM_LEFT, "--word", "a", "--interp", INTERP, "--real", ""),
     0, ["ACCEPT"]),
    (("check-fixed", "--expr", SUM_RIGHT, "--word", "a", "--interp", INTERP, "--real", ""),
     0, ["ACCEPT"]),
    (("check-free", "--expr", SUM_LEFT, "--word", "a"), 0, ["ACCEPT"]),
    (("check-free", "--expr", SUM_RIGHT, "--word", "a"), 0, ["ACCEPT"]),
    # the intersection of {a} with b* is empty
    (("check-free", "--expr", "a -| " * 1000 + "b*", "--word", "a"), 1, ["REJECT"]),
    # x^1000 has a length divisible by 1000
    (("check-free", "--expr", " ".join(["x"] * 1000), "--word", "ab"), 1, ["REJECT"]),
    # the nullability tests cross the sum as a left factor
    (("check-free", "--expr", SUM_FACTOR, "--word", "ab"), 0, ["ACCEPT"]),
    (("check-fixed", "--expr", SUM_FACTOR, "--word", "ab", "--interp", INTERP, "--real", ""),
     0, ["ACCEPT"]),
    # two derivatives to order, so the printer reads each chain
    (("check-free", "--expr", MATCH_CHAIN, "--word", "a"), 0, ["ACCEPT", "x = a"]),
    (("derive", "--expr", MATCH_CHAIN, "--word", "a"), 0,
     ["x -| " * 1000 + "eps (a + ax)*\t{(x,ax)}", "x -| " * 1000 + "x (a + ax)*\t{(x,ax)}"]),
], ids=["check-fixed-sum-left", "check-fixed-sum-right", "check-free-sum-left",
        "check-free-sum-right", "check-free-match-chain", "check-free-variable-head",
        "check-free-sum-factor", "check-fixed-sum-factor", "check-free-printed-match-chain",
        "derive-printed-match-chain"])
def test_engines_loop_over_long_chains(env_file, capsys, argv, status, lines):
    # sum chains, match chains and heads of variables only are loops in the
    # derivative, the letter need, the nullability tests and the printer,
    # not one frame per link
    with recursion_headroom():
        assert run([argv[0], "--env", env_file, *argv[1:]]) == status
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == lines


@pytest.mark.parametrize("env_bytes, expr_bytes", [
    (ENV3_TEXT.replace("sim/2", "sim/\u00b2").encode(), None),
    (b"alphabet: a b\n\xff\n", None),
    (ENV3_TEXT.encode(), b"a \xff"),
    (ENV3_TEXT.replace("sim/2", "p\u00e9/1 sim/2").encode(), None),
    (ENV3_TEXT.replace("alphabet: a", "alphabet: \u00e9").encode(), b"b"),
], ids=["superscript-arity", "undecodable-env", "undecodable-expr-file", "non-ascii-name",
        "non-ascii-letter"])
def test_malformed_files_exit_2(tmp_path, capsys, env_bytes, expr_bytes):
    env_path, expr_path = tmp_path / "env.txt", tmp_path / "expr.txt"
    env_path.write_bytes(env_bytes)
    expr_path.write_bytes(expr_bytes or b"a")
    status = run(["indicator", "--env", str(env_path), "--expr-file", str(expr_path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_regularize_on_a_3000_symbol_catenation(env_file, capsys):
    letters = " ".join("ab" * 1500)
    status, out = invoke(capsys, "regularize", "--env", env_file, "--expr", letters,
                         "--interp", INTERP, "--real", "")
    assert status == 0
    assert out.splitlines() == [letters]


def test_regularize_oracle_on_a_3000_symbol_catenation(env_file, capsys):
    # the oracle's enumeration loops down the catenation, as regularize does
    status, out = invoke(capsys, "regularize", "--env", env_file, "--expr", LONG,
                         "--interp", INTERP, "--real", "", "--oracle")
    assert status == 0
    assert out.splitlines() == [LONG, "oracle: agree"]


@pytest.mark.parametrize("expr, word", [
    (E1, "ab"),
    ("(x y + a)* c | sim(f(x), f(y))", "abab"),
    ("(x y + a)* z | sim(f(x), f(y)) && !sim(f(x), f(y))", "abab"),
    ("a b", "ba"),
], ids=["accepting", "rejecting", "cut-at-the-root", "no-formula"])
def test_check_free_rejects_malformed_limit(env_file, capsys, monkeypatch, expr, word):
    """The limit is read before the search, whether or not it reaches a SAT call."""
    monkeypatch.setenv("CONSTREX_MAX_PROPS", "abc")
    status = run(["check-free", "--env", env_file, "--expr", expr, "--word", word])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: CONSTREX_MAX_PROPS")
    assert len(captured.err.splitlines()) == 1
