"""One fresh worker process of a benchmark run; ``run.py`` starts it.

The worker times its own set-up (import k3lat, build the inputs, one warm-up
item), then, unless ``--setup-only``, runs items in a closed loop: the next
item starts when the previous one has been checked, until ``--seconds`` have
passed; the item in flight then finishes, so a run of long items (a ``paper``
pass takes ~10 s) uses its whole window.  Checks
run outside the timed region.  A failed check or an exception in an item is
counted and never aborts the run.

With ``--trace 1`` the loop runs untraced for half the time, then runs the
same items again with every layer wrapped; the ratio of the two walls is the
tracing overhead.  It prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

MAX_PROBLEMS_KEPT = 5
OUT_DIR = Path(".perfbench")


def make_workload(name: str, seed: int):
    if name == "paper":
        from paper import Paper
        return Paper(seed)
    if name == "lattice_stream":
        from lattice_stream import LatticeStream
        return LatticeStream(seed)
    from cli_oneshot import CliOneshot
    return CliOneshot(seed)


def measure(workload, items, seconds: float, tracer=None) -> dict:
    """Closed loop over ``items`` for about ``seconds``; returns times and failures."""
    latencies, done, problems = [], [], []
    failed = 0
    start = perf_counter()
    for index, item in enumerate(items):
        if latencies and perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.begin_item(index)
        t0 = perf_counter()
        try:
            out, error = workload.run(item), None
        except Exception:  # a broken item is a failure to count, not a crash
            out, error = None, traceback.format_exc(limit=3)
        latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.end_item()
        done.append(item)
        try:
            item_problems = [error] if error else workload.check(item, out)
        except Exception:
            item_problems = [traceback.format_exc(limit=3)]
        if item_problems:
            failed += 1
            problems.extend(item_problems[: MAX_PROBLEMS_KEPT - len(problems)])
    return {"latencies": latencies, "items": done, "failed": failed, "problems": problems}


def peak_rss_mb(workload) -> float:
    # cli_oneshot's user-visible processes are the CLI children, not this
    # parent; the largest of them depends on which arguments the seed drew,
    # the median does not
    if workload.name == "cli_oneshot":
        return statistics.median(workload.child_rss_mb)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def traced_phase(workload, items, seed: int) -> dict:
    import spans

    tracer = None
    if workload.name == "cli_oneshot":
        workload.probe = True
    else:
        tracer = spans.Tracer()
        tracer.install()
    result = measure(workload, items, float("inf"), tracer)
    if tracer is not None:
        totals, span_list = [tracer.totals()], tracer.spans
        result["cli"] = None
    else:
        reports = workload.child_reports
        totals = [r["totals"] for r in reports]
        span_list = []  # each child numbers its spans from 0 and calls its item 0
        for item, report in enumerate(reports):
            offset = len(span_list)
            span_list += [(i + offset, name, start, end, None if parent is None else parent + offset, item)
                          for i, name, start, end, parent, _ in report["spans"]]
        n = max(len(reports), 1)
        result["cli"] = {key: sum(r[key] for r in reports) / n
                         for key in ("import_s", "main_s", "process_s")}
    result["totals"] = spans.merge(totals)
    OUT_DIR.mkdir(exist_ok=True)
    spans.write_spans(span_list, OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("paper", "lattice_stream", "cli_oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import k3lat  # noqa: F401
    import k3lat.cli  # noqa: F401  (the CLI pulls in verify, the last module)
    t1 = perf_counter()
    if Path.cwd() / "src" not in Path(k3lat.__file__).resolve().parents:
        print(f"k3lat was imported from {k3lat.__file__}, not from ./src", file=sys.stderr)
        return 1
    workload = make_workload(args.workload, args.seed)
    items = workload.inputs()
    first = next(items)
    t2 = perf_counter()
    workload.warm_up()
    t3 = perf_counter()
    out = {"setup": {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}}
    if not args.setup_only:
        items = itertools.chain([first], items)
        window = args.seconds / 2 if args.trace else args.seconds
        run = measure(workload, items, window)
        out["run"] = {k: run[k] for k in ("latencies", "failed", "problems")}
        out["peak_rss_mb"] = peak_rss_mb(workload)
        if args.trace:
            traced = traced_phase(workload, run["items"], args.seed)
            out["traced"] = {k: traced[k] for k in ("latencies", "failed", "problems", "totals", "cli")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
