"""Self-test of the benchmark; quick, and not part of the package's tests.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all by default) it runs one-round quick runs of
``bench/run.py`` and checks that:

* the last output line has exactly the keys correct, attempted, failed and
  metrics, and every metric named in BENCHMARK.json is printed with its unit;
* two traced runs with one seed report exactly the same counts;
* another seed changes the inputs but not the metric names.

It also checks that the benchmark refuses to run in a directory that holds
only BENCHMARK.json and the benchmark's own files. Exit status 0 means every
check passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "ratio")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--rounds", "1"]
    proc = subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record = BENCH / "out" / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    return proc, result, json.loads(record.read_text()) if result else None


def check_result(label, proc, result, expected):
    problems = []
    if proc.returncode != 0 or result is None:
        return ["%s: exit %d, stderr %s" % (label, proc.returncode, proc.stderr[-500:])]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("%s: correct=%s failed=%s" % (label, result["correct"], result["failed"]))
    names = {m["name"]: m["unit"] for m in expected}
    if set(result["metrics"]) != set(names):
        problems.append("%s: metric names differ: %s" % (
            label, sorted(set(result["metrics"]) ^ set(names))))
    for name, unit in names.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append("%s: %s printed as %s" % (label, name, got))
    return problems


def counts(result):
    """Per-layer counts; the trace.* shares are ratios of times, not counts."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS and not name.startswith("trace.")}


def check_workload(workload):
    problems = []
    proc, plain, _ = run(workload, 1, 0)
    problems += check_result(workload + " trace 0", proc, plain, SPEC["end_to_end"])
    runs = [run(workload, seed, 1) for seed in (1, 1, 2)]
    for (proc, result, _), seed in zip(runs, (1, 1, 2)):
        problems += check_result("%s trace 1 seed %d" % (workload, seed), proc, result,
                                 SPEC["per_layer"])
    if problems:
        return problems
    (_, first, rec1), (_, second, _), (_, other, rec2) = runs
    if counts(first) != counts(second):
        problems.append("%s: counts differ across runs with one seed: %s vs %s" % (
            workload, counts(first), counts(second)))
    if rec1["inputs_sha256"] == rec2["inputs_sha256"]:
        problems.append("%s: seeds 1 and 2 gave the same inputs" % workload)
    if set(first["metrics"]) != set(other["metrics"]):
        problems.append("%s: seeds 1 and 2 print different metric names" % workload)
    return problems


def check_bare_directory():
    """Without the sources the benchmark must fail and print no result."""
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:])]
    return []


def main(argv):
    chosen = argv or [w["name"] for w in SPEC["workloads"]]
    problems = check_bare_directory()
    for workload in chosen:
        found = check_workload(workload)
        print("%-14s %s" % (workload, "ok" if not found else "FAILED"), flush=True)
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
