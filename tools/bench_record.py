"""Turn the benchmark records of paired runs into one committed record.

    python3 tools/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT --out BENCH_<n>.json

Each checkout is a source tree in which ``bench/run.py --trace 0`` was run,
so that ``bench/out/<workload>-seed<n>-trace0.json`` holds one record per
run. A run of the parent and a run of the change with the same workload and
seed form a pair; a run without its partner is left out. Run the pairs in
alternating order, the parent first in one pair and the change first in the
next; the records do not say which ran first.

For each workload the output holds, for each end-to-end metric named in
``BENCHMARK.json``, each side's runs, median and quartiles and the number of
pairs in which the change reads better, and for each cell of the grid
(family, size) each side's median paced milliseconds over all its queries.
It also holds the commit and the ``src/`` digest of each side; all the runs
of one side must share them. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(checkout: Path) -> dict:
    """The trace-0 records of a checkout, by (workload, seed)."""
    records = {}
    for path in sorted((checkout / "bench" / "out").glob("*-trace0.json")):
        record = json.loads(path.read_text())
        records[(record["workload"], record["seed"])] = record
    return records


def identity(records: list, side: str) -> dict:
    """The commit and src digest that every record of one side shares."""
    seen = {(r["commit"], r["src_sha256"]) for r in records}
    if len(seen) != 1:
        raise SystemExit("%s: records of more than one source tree: %s" % (side, sorted(seen)))
    commit, digest = seen.pop()
    return {"commit": commit, "src_sha256": digest}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def cells(records: list) -> dict:
    """(family, size) -> the median paced ms of the cell's successful queries."""
    times: dict = {}
    for record in records:
        for q in record["queries"]:
            if q["error"] is None:
                times.setdefault((q["family"], q["size"]), []).append(q["paced_ms"])
    return {cell: statistics.median(ms) for cell, ms in times.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="the record to write")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        raise SystemExit("no run of the parent has a partner run of the change")
    out = {
        "parent": identity([parent[k] for k in keys], "parent"),
        "change": identity([change[k] for k in keys], "change"),
        "python": sorted({parent[k]["python"] for k in keys} | {change[k]["python"] for k in keys}),
        "nproc": sorted({parent[k]["nproc"] for k in keys} | {change[k]["nproc"] for k in keys}),
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = [k for k in keys if k[0] == workload]
        if not pairs:
            continue
        p_runs, c_runs = [parent[k] for k in pairs], [change[k] for k in pairs]
        seconds = {r["seconds"] for r in p_runs + c_runs}
        if len(seconds) != 1:
            raise SystemExit("%s: runs of different lengths %s" % (workload, sorted(seconds)))
        metrics = {}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            p = [r["end_to_end"][name]["value"] for r in p_runs]
            c = [r["end_to_end"][name]["value"] for r in c_runs]
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": summary(p), "change": summary(c),
                "change_better_pairs": sum(b > a if higher else b < a for a, b in zip(p, c)),
            }
        p_cells, c_cells = cells(p_runs), cells(c_runs)
        out["workloads"][workload] = {
            "pairs": len(pairs), "seeds": [k[1] for k in pairs],
            "run_seconds": seconds.pop(),
            "end_to_end": metrics,
            "cells": [{"family": family, "size": size,
                       "parent_paced_ms": p_cells.get((family, size)),
                       "change_paced_ms": c_cells.get((family, size))}
                      for family, size in sorted(set(p_cells) | set(c_cells))],
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
