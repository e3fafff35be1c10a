"""Starts the CLI processes of ``cli_oneshot`` one at a time, from a small process.

A child's peak RSS as ``wait4`` reports it is at least the peak RSS of the
process it was spawned from, because exec records the peak of the image it
replaces.  The benchmark worker holds k3lat and sympy (~55 MB), so every CLI
process it spawned itself would read at least that.  This script imports
only the standard library.  The worker starts it once and writes one request
per line to its stdin, ``{"argv", "cwd", "env", "out", "err"}``; it runs the
request with stdout and stderr going to the files ``out`` and ``err``, reaps
it with ``wait4`` and answers with one line ``{"returncode", "seconds",
"rss_mb"}``.  A child that outlives ``TIMEOUT_S`` is killed.  The script
exits at the end of its input.
"""

import json
import os
import select
import subprocess
import sys
from time import perf_counter

TIMEOUT_S = 60


def run(request: dict) -> dict:
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        start = perf_counter()
        child = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                 stdout=out, stderr=err)
        pidfd = os.pidfd_open(child.pid)
        try:
            if not select.select([pidfd], [], [], TIMEOUT_S)[0]:
                child.kill()
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            os.close(pidfd)
        seconds = perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"returncode": child.returncode, "seconds": seconds,
            "rss_mb": usage.ru_maxrss / 1024}  # Linux reports KiB


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
