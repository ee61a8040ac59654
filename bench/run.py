"""The constrex benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload free-negative --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``constrex`` from its
``src`` directory; without one it exits with status 2 and prints no result.

A run sends one untimed warm-up query per family, then runs a closed loop:
one client, one thread, the next query when the previous verdict returns.
Set-up (``setup_s``) is sampled before the loop and after each round; on
``cli`` the three robustness probes also run after each round. Whole rounds
run until ``--seconds`` have passed and at least 110 samples exist, so the
90th percentile has ten beyond it. Each verdict is checked right after its
query, outside the timed region, and only a compact record of it is kept.

End-to-end times are paced: each measured time is scaled by how long a fixed
pure-Python reference loop took next to it (see ``Pace``), so that drift in
the machine's speed cancels while the program's own cost does not.

With ``--trace 1`` the first round runs twice more, untraced and under the
tracer of ``tracing.py``, and per-layer metrics are printed instead of
end-to-end ones. ``--rounds N`` runs exactly N rounds, for the quick
self-test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A per-query record of
the run, and in traced runs the spans, are written under ``bench/out/``.
The exit status is 1 when a verdict is wrong or a query fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 110       # the 90th percentile of 110 samples has 10 beyond it
MAX_LOOP_S = 100.0      # stop adding rounds after this, whatever the count
SETUP_SAMPLES = (5, 15)  # set-ups per run: one before the loop, one per round
REF_ITERATIONS = 3000   # one reading: 1.4 ms alone, 2.2 ms between queries
REF_S = 0.0015          # the reading that paced times are scaled to

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import constrex
constrex.parse_environment(sys.argv[1])
print(time.perf_counter() - t0)
"""

# The constrex command, reporting its own peak RSS on stderr at exit. The
# ru_maxrss of a child also counts the parent's RSS at the time of the fork,
# whereas VmHWM covers only the memory of the command after exec.
PEAK_CODE = """\
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(peak)
runpy.run_module("constrex.cli", run_name="__main__", alter_sys=True)
"""

# The three CLI inputs that ROADMAP lists as ending in a traceback. A probe
# keeps the contract when it exits 2 without a traceback, or, where a right
# answer exists, gives that answer without a traceback.
PROBES = [
    ("catenation-3000", ["check-fixed", "--expr", " ".join("ab" * 1500),
                         "--word", "ab" * 1500], {}, (0, "ACCEPT")),
    ("nested-f-400", ["sat", "--formula",
                      "sim(%sx%s, x)" % ("f(" * 400, ")" * 400)], {}, (0, "SAT")),
    ("max-props-abc", ["sat", "--formula", "sim(x, a)"],
     {"CONSTREX_MAX_PROPS": "abc"}, None),
]


def child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CONSTREX_MAX_PROPS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # see main()
    env.update(extra or {})
    return env


# ---------------------------------------------------------------------------
# pacing


def reference():
    """Wall time of a fixed piece of pure-Python work, collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            key = (i, str(i), (i, i + 1))
            acc += len({key: i, "k": key}) + hash(key) % 7
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Pace:
    """Scales wall times to a machine on which the reference loop takes REF_S.

    On a shared host the speed of a core drifts by up to 2x within a minute,
    and the program and the reference loop slow down together. A reading is
    taken after each measurement; a time measured between two readings is
    multiplied by REF_S over their mean. A change to the program does not
    touch the loop, so it shows in paced times in full.
    """

    def __init__(self):
        self.last = reference()

    def __call__(self, seconds):
        now = reference()
        paced = seconds * 2.0 * REF_S / (self.last + now)
        self.last = now
        return paced


# ---------------------------------------------------------------------------
# set-up


def setup_library():
    """One fresh process: import constrex plus one environment parse."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, workloads.ENVIRONMENTS["env3"]],
        env=child_env(), cwd=str(ROOT), capture_output=True, text=True,
        timeout=60, check=True)
    return float(proc.stdout)


def setup_cli():
    """The in-process import of constrex.cli plus one environment parse.

    The modules imported before are put back afterwards, so code holding
    them keeps working with the same objects.
    """
    def ours():
        return [m for m in sys.modules if m == "constrex" or m.startswith("constrex.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    t0 = time.perf_counter()
    cli = importlib.import_module("constrex.cli")
    cli.parse_environment(workloads.ENVIRONMENTS["env3"])
    elapsed = time.perf_counter() - t0
    if saved:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
    return elapsed


# ---------------------------------------------------------------------------
# the client: one query, from text to verdict


class Client:
    def __init__(self):
        import constrex
        if not Path(constrex.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit("constrex was not imported from %s" % SRC)
        from constrex import cli, logic, oracle, parser, semantics
        self.cli, self.logic, self.oracle = cli, logic, oracle
        self.parser, self.semantics = parser, semantics
        self.envs = {k: parser.parse_environment(v)
                     for k, v in workloads.ENVIRONMENTS.items()}
        OUT.mkdir(exist_ok=True)
        self.env_files = {}
        for key, text in workloads.ENVIRONMENTS.items():
            path = OUT / ("%s.txt" % key)
            path.write_text(text)
            self.env_files[key] = str(path)
        self.traced_child = [sys.executable, str(BENCH / "cli_child.py")]

    @staticmethod
    def _bindings(text):
        return dict(part.partition("=")[::2] for part in text.split(",") if part)

    def argv(self, q):
        return [q.argv[0], "--env", self.env_files[q.env]] + list(q.argv[1:])

    def __call__(self, q):
        """The verdict of one query, plus what the check needs afterwards."""
        env = self.envs[q.env]
        if q.kind == "fixed":
            sem = self.semantics
            bound = self._bindings(q.interp)
            interp = sem.Interpretation(
                env, {k: v for k, v in bound.items() if k in env.predicates},
                {k: v for k, v in bound.items() if k not in env.predicates})
            real = sem.Realization(env, self._bindings(q.real))
            e = self.parser.parse_expression(q.text, env)
            return sem.membership_fixed(interp, real, e, q.word), e
        if q.kind == "general":
            e = self.parser.parse_expression(q.text, env)
            return self.logic.membership_general(env, e, q.word), e
        if q.kind == "sat":
            phi = self.parser.parse_formula(q.text, env)
            return self.logic.satisfiable_free(env, phi), phi
        proc = subprocess.run(
            [sys.executable, "-m", "constrex.cli"] + self.argv(q),
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True, timeout=60)
        return (proc.returncode, proc.stdout), proc.stderr

    def peak_rss_mb(self, q):
        """Peak RSS of the constrex command on one query, in MB."""
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_CODE] + self.argv(q),
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True, timeout=60)
        return float(proc.stderr.rsplit("VmHWM:", 1)[1].split()[0]) / 1024.0

    def traced_cli(self, q, stats_path):
        proc = subprocess.run(
            self.traced_child + [str(stats_path)] + self.argv(q),
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True, timeout=60)
        return (proc.returncode, proc.stdout), proc.stderr

    def in_process_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.cli.run(argv)
        return status, out.getvalue()


# ---------------------------------------------------------------------------
# checking verdicts against the independent answers


def witness_key(w):
    """A comparable, order-free form of a witness (or None)."""
    if w is None:
        return None

    def spec(s):
        if hasattr(s, "tuples"):
            return ("relation", tuple(sorted(s.tuples)), s.default)
        if hasattr(s, "table"):
            return ("table", s.table, s.default)
        return ("builtin", s)

    i = w.interpretation
    return (tuple(sorted(w.realization.assignment.items())),
            tuple(sorted((k, spec(v)) for k, v in i.predicates.items())),
            tuple(sorted((k, spec(v)) for k, v in i.functions.items())))


def verdict_key(q, verdict):
    if q.kind == "fixed":
        return bool(verdict)
    if q.kind == "cli":
        return verdict
    return witness_key(verdict)


def verdict_text(q, verdict):
    if q.kind == "fixed":
        return "ACCEPT" if verdict else "REJECT"
    if q.kind == "cli":
        return "exit %d: %s" % (verdict[0], verdict[1].split("\n", 1)[0])
    yes, no = ("SAT", "UNSAT") if q.kind == "sat" else ("ACCEPT", "REJECT")
    return no if verdict is None else yes


def check(client, q, verdict, aux):
    """None when the verdict is right, else the reason it is wrong."""
    if q.kind == "fixed":
        want = re.fullmatch(q.expect, q.word) is not None
        return None if bool(verdict) == want else "re says %s" % want
    if q.kind == "cli":
        status, stdout = verdict
        want = client.in_process_cli(client.argv(q))
        if (status, stdout) != want:
            return "differs from in-process cli.run (exit %d)" % want[0]
        if status != q.expect:
            return "exit %d, expected %d" % (status, q.expect)
        if "--oracle" in q.argv and "oracle: agree" not in stdout.splitlines():
            return "oracle line missing or disagreeing"
        return None
    if q.expect is None or q.expect is False:
        return None if verdict is None else "expected no, got a witness"
    if verdict is None:
        return "expected yes, got no"
    if q.kind == "general":
        ok = client.oracle.brute_membership_fixed_r(
            verdict.interpretation, verdict.realization, aux, q.word)
        return None if ok else "witness fails the oracle"
    pred, words, depth = q.expect
    table = verdict.interpretation.predicates[pred]
    index = 0
    for w in words:
        index = 2 * index + (1 if (w,) in table.tuples else 0)
    return None if index == depth else "first model at %d, expected %d" % (index, depth)


def probe(client, name, argv, env_extra, answer):
    full = [argv[0], "--env", client.env_files["env3"]] + argv[1:]
    try:
        proc = subprocess.run([sys.executable, "-m", "constrex.cli"] + full,
                              env=child_env(env_extra), cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return {"probe": name, "exit": None, "traceback": False,
                "first_line": "timed out", "kept": False}
    traceback = "Traceback" in proc.stderr
    first = proc.stdout.split("\n", 1)[0]
    kept = not traceback and (
        proc.returncode == 2
        or (answer is not None and (proc.returncode, first) == answer))
    return {"probe": name, "exit": proc.returncode, "traceback": traceback,
            "first_line": first, "kept": kept}


# ---------------------------------------------------------------------------
# the run


def run_loop(client, workload, seed, seconds, fixed_rounds, pace, between_rounds):
    """Closed loop over whole rounds.

    Returns one compact record per query, the first round's error-free
    queries with their verdict keys (for the traced pass), and the number of
    rounds. Each verdict is checked right after its query, outside the timed
    region, and the objects the query built are dropped, so the memory the
    loop holds does not grow with the objects of earlier rounds.
    ``between_rounds`` runs after each round, outside the busy time. With
    ``fixed_rounds`` the loop runs exactly that many rounds.
    """
    records, first = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        for q in workloads.round_queries(workload, seed, rounds):
            t0 = time.perf_counter()
            try:
                verdict, aux = client(q)
                error = None
            except Exception as exc:   # a failed query is counted, not fatal
                verdict, aux, error = None, None, "%s: %s" % (type(exc).__name__, exc)
            elapsed = time.perf_counter() - t0
            paced = pace(elapsed)
            if q.kind == "cli" and error is None and verdict[0] not in (0, 1, 3):
                error = "exit %d: %s" % (verdict[0], aux.strip().splitlines()[-1:])
            wrong = None if error else check(client, q, verdict, aux)
            if rounds == 0 and error is None:
                first.append((len(records), q, verdict_key(q, verdict)))
            records.append({
                "family": q.family, "size": q.size, "round": rounds,
                "verdict": None if error else verdict_text(q, verdict),
                "error": error, "wrong": wrong,
                "ms": 1000.0 * elapsed, "paced_ms": 1000.0 * paced})
            del verdict, aux
        rounds += 1
        between_rounds()
        spent = time.perf_counter() - start
        if fixed_rounds:
            if rounds == fixed_rounds:
                return records, first, rounds
        elif (spent >= seconds and len(records) >= MIN_SAMPLES) or spent >= MAX_LOOP_S:
            return records, first, rounds


def traced_pass(client, workload, first, records):
    """Re-run the first round under the tracer; per-layer metrics and records.

    Each query runs twice more, untraced and traced, in alternating order, so
    the overhead share compares runs made moments apart. The traced ms and
    counts of each query are added to its record.
    """
    tracer = tracing.Tracer(with_cli=workload == "cli")
    cli_parts = {"import": 0.0, "interpreter": 0.0}
    stats_path = OUT / "cli_child_stats.json"

    def untraced(q):
        t0 = time.perf_counter()
        verdict, _aux = client(q)
        return verdict, time.perf_counter() - t0

    def traced(qid, q):
        if workload != "cli":
            tracer.install()
            try:
                (verdict, _aux), spent = tracer.query(qid, client, q)
            finally:
                tracer.restore()
            return verdict, spent
        stats_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        verdict, _stderr = client.traced_cli(q, stats_path)
        wall = time.perf_counter() - t0
        child = json.loads(stats_path.read_text())
        tracer.merge(child, qid)
        cli_parts["import"] += child["import_s"]
        cli_parts["interpreter"] += (wall - child["import_s"] - child["run_s"]
                                     - child["overhead_s"] - child["hook_s"])
        return verdict, wall - child["hook_s"] - child["overhead_s"]

    mismatches = 0
    untraced_s = traced_s = 0.0
    for qid, (index, q, want) in enumerate(first):
        before = tracer.begin_counts()
        if qid % 2:
            verdict, spent = traced(qid, q)
            plain, plain_s = untraced(q)
        else:
            plain, plain_s = untraced(q)
            verdict, spent = traced(qid, q)
        untraced_s += plain_s
        traced_s += spent
        if verdict_key(q, verdict) != want or verdict_key(q, plain) != want:
            mismatches += 1
        records[index]["traced"] = {"ms": 1000.0 * spent,
                                    "counts": tracer.end_counts(before)}
    metrics, absent = tracer.metrics()
    attributed = tracer.attributed_s() + cli_parts["import"] + cli_parts["interpreter"]
    metrics["cli.import_ms"] = 1000.0 * cli_parts["import"]
    metrics["cli.interpreter_ms"] = 1000.0 * cli_parts["interpreter"]
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    metrics["trace.unattributed_share"] = (traced_s - attributed) / traced_s
    return metrics, absent, mismatches, tracer.span_records(), tracer.per_name()


def source_identity():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if not (ROOT / ".git").exists():    # never ask a repository above the checkout
        return commit, digest.hexdigest()
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return commit, digest.hexdigest()


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0,
                    help="run exactly this many rounds (a quick check, not a measurement)")
    args = ap.parse_args(argv)
    if not (SRC / "constrex" / "__init__.py").is_file():
        print("error: no constrex sources under %s" % SRC, file=sys.stderr)
        return 2
    workload = args.workload

    sys.path.insert(0, str(SRC))
    # Every process of a run imports constrex from cached bytecode, as an
    # installed package does, whatever the environment says: compiling from
    # source would double set-up and most of a CLI query's time.
    sys.dont_write_bytecode = False
    # Set-up time drifts over seconds on a shared machine, so its samples
    # are spread through the run and paced; the first set-up only writes
    # bytecode.
    set_up = setup_cli if workload == "cli" else setup_library
    set_up()
    pace = Pace()
    setup = [pace(set_up())]
    probes = []

    client = Client()
    for q in workloads.warmup_queries(workload, args.seed):
        client(q)

    def between_rounds():
        if len(setup) < SETUP_SAMPLES[1]:
            setup.append(pace(set_up()))
        if workload == "cli":
            probes.append([probe(client, *p) for p in PROBES])
        pace.last = reference()     # the next query's reading before it

    records, first, rounds = run_loop(client, workload, args.seed, args.seconds,
                                      args.rounds, pace, between_rounds)
    while len(setup) < SETUP_SAMPLES[0]:
        setup.append(pace(set_up()))
    if workload == "cli":       # the largest child, run once more per query of round 0
        peak_mb = max((client.peak_rss_mb(q) for _index, q, _key in first), default=0.0)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wrong = sum(r["wrong"] is not None for r in records)
    failed = sum(r["error"] is not None for r in records)
    ok_ms = [r["paced_ms"] for r in records if r["error"] is None]
    if len(ok_ms) < 2:
        print("error: fewer than two queries succeeded", file=sys.stderr)
        return 1
    made = len(records) + sum(len(p) for p in probes)
    met = len(records) - failed - wrong + sum(p["kept"] for ps in probes for p in ps)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_p50_ms": (statistics.median(ok_ms), "ms"),
        "verdict_p90_ms": (percentile(ok_ms, 90), "ms"),
        "queries_per_s": (1000.0 * len(ok_ms) / sum(r["paced_ms"] for r in records), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_share": (met / made, "ratio"),
    }

    absent, mismatches, spans, names = [], 0, [], {}
    if args.trace:
        layer, absent, mismatches, spans, names = traced_pass(client, workload, first, records)
        metrics = {name: {"value": value, "unit": unit}
                   for name, value in layer.items()
                   for unit in [tracing.unit_of(name)]}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    correct = wrong == 0 and failed == 0 and mismatches == 0

    commit, digest = source_identity()
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": commit, "src_sha256": digest,
        "why": workloads.WORKLOADS[workload][0],
        "inputs_sha256": hashlib.sha256(json.dumps(
            [q.describe() for q in workloads.round_queries(workload, args.seed, 0)]
        ).encode()).hexdigest(),
        "ref_s": REF_S, "rounds": rounds, "samples": len(ok_ms),
        "attempted": len(records), "failed": failed, "wrong_verdicts": wrong,
        "trace_mismatches": mismatches, "checks_made": made, "checks_met": met,
        "setup_s": setup, "probes": probes, "absent": absent,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "metrics": metrics, "traced_names": names, "queries": records,
    }
    stem = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / (stem + "-spans.json")).write_text(json.dumps(spans))
    for r in records:
        if r["error"] or r["wrong"]:
            print("%s %s: %s" % (r["family"], r["size"], r["error"] or r["wrong"]),
                  file=sys.stderr)
    if absent:
        print("absent metrics: %s" % ", ".join(absent), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
