"""One traced invocation of the constrex command, for the traced cli pass.

    python bench/cli_child.py STATS_JSON MODE --env ENV_FILE [OPTIONS...]

Behaves like ``python -m constrex.cli MODE ...`` (same output, same exit
status) and writes the tracer's self times and counts, the import time and
the run time to STATS_JSON. Tracing set-up time is reported as overhead.
"""

import sys
import time

start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402

before_import = time.perf_counter()
import constrex.cli  # noqa: E402

imported = time.perf_counter()
tracer = tracing.Tracer(with_cli=True).install()
installed = time.perf_counter()
try:
    status, run_s = tracer.query(0, constrex.cli.run, sys.argv[2:])
finally:
    tracer.restore()
stats = tracer.export()
stats.update(import_s=imported - before_import, run_s=run_s,
             overhead_s=(before_import - start) + (installed - imported))
with open(sys.argv[1], "w") as handle:
    json.dump(stats, handle)
sys.stdout.flush()
sys.exit(status)
