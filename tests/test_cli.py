"""Command-line front end: exit codes, formats, determinism."""

import pytest

from constrex.cli import run

from conftest import ENV3_TEXT


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


def test_regularize(env_file, capsys):
    status, out = invoke(capsys, "regularize", "--env", env_file,
                         "--expr", "(a b)* x -| (y x | lt(y, x))",
                         "--interp", INTERP, "--real", "x=bbaa,y=abab", "--oracle")
    assert status == 0
    assert out.splitlines() == ["ababbbaa & (a b)* bbaa", "oracle: agree"]


def test_parse_error_exit_code(env_file, capsys):
    status, _ = invoke(capsys, "check-fixed", "--env", env_file, "--expr", "a +",
                       "--word", "a", "--interp", INTERP, "--real", "")
    assert status == 2


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
