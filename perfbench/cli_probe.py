"""Traced stand-in for ``python -m k3lat.cli``, used by the traced cli_oneshot run.

Runs ``k3lat.cli.main`` on its arguments like the real entry point, and
writes one JSON line to stderr with the import time, the time in ``main`` and
the per-layer totals and spans of the call.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import k3lat.cli  # noqa: E402

imported = perf_counter()

import spans  # noqa: E402  (this file's directory is first on sys.path)

tracer = spans.Tracer()
tracer.install()
tracer.begin_item(0)
main_start = perf_counter()
code = k3lat.cli.main(sys.argv[1:])
main_end = perf_counter()
tracer.end_item()
sys.stdout.flush()
report = {"import_s": imported - start, "main_s": main_end - main_start,
          "totals": tracer.totals(), "spans": tracer.spans}
print(json.dumps(report), file=sys.stderr)
sys.exit(code)
