"""The benchmark's per-layer metrics still name functions of the package.

bench/tracing.py attributes time and counts by wrapping module attributes,
and reports a metric whose names are all gone as absent. This test fails
first, so a refactor cannot silently empty a per-layer metric.
"""

import importlib
import runpy
from pathlib import Path

# run_path compiles from source, so no bytecode is written under bench/
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _present(name):
    mod_name, attr = name
    module = importlib.import_module("constrex.%s" % mod_name)
    return hasattr(module, attr)


def test_every_traced_metric_has_a_present_name():
    tracing = runpy.run_path(str(TRACING))
    groups = dict(tracing["TIME_GROUPS"])
    groups.update({metric: names for metric, (_counter, names)
                   in tracing["COUNT_METRICS"].items()})
    missing = [metric for metric, names in sorted(groups.items())
               if not any(_present(n) for n in names)]
    assert missing == []
