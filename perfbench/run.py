"""k3lat benchmark: one workload, one seed, every metric by name with its unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 55 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):
  paper           repeated full acceptance passes, ``k3lat.verify.run_all``
  cli_oneshot     fresh ``python -m k3lat.cli --json`` processes
  lattice_stream  seeded jobs on distinct even lattices; run by hand, it is
                  not one of the workloads BENCHMARK.json lists

The run starts SETUP_STARTS fresh worker processes one after another; each
times its set-up, and the last one then measures for ``--seconds``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  Earlier lines record the environment and a
summary; the whole result is also written to ``.perfbench/``.  The program
is imported from ``src/`` of the current directory and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("paper", "lattice_stream", "cli_oneshot")
SETUP_STARTS = 3  # fresh starts per run; setup_s is their median
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def environment(root: Path) -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
    }
    try:
        env["sympy"] = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        env["sympy"] = None
    env["git_commit"] = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              env=dict(os.environ, GIT_DIR=str(root / ".git")))
        env["git_commit"] = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "k3lat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def spawn_worker(root: Path, args, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median_setup(samples) -> dict:
    """The start whose total set-up time is the median, so its parts sum to setup_s."""
    ordered = sorted(samples, key=lambda s: sum(s.values()))
    return ordered[len(ordered) // 2]


def end_to_end(result: dict, setup: dict) -> dict:
    latencies = result["run"]["latencies"]
    return {
        "setup_s": (sum(setup.values()), "s"),
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def item_quantiles(latencies) -> dict:
    """Median and p90 item time with the sample count, for the summary line.

    They are not end-to-end metrics: a ``paper`` run holds six or seven
    passes, whose middle and tail move twice as much from run to run as
    their mean does.
    """
    return {"count": len(latencies), "p50_s": statistics.median(latencies),
            "p90_s": percentile_90(latencies)}


def per_layer(result: dict, setup: dict) -> dict:
    traced = result["traced"]
    metrics = spans.layer_metrics(traced["totals"])
    cli = traced["cli"] or {"import_s": 0.0, "main_s": 0.0, "process_s": 0.0}
    for key, value in cli.items():
        metrics[f"cli.{key}"] = (value, "s/item")
    for key, value in setup.items():
        metrics[f"setup.{key}"] = (value, "s")
    untraced = result["run"]["latencies"][: len(traced["latencies"])]
    metrics["trace.overhead_ratio"] = (sum(traced["latencies"]) / sum(untraced), "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if sys.flags.optimize:
        print("refusing to run under python -O: the checks would be stripped", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "k3lat" / "__init__.py").is_file():
        print(f"no k3lat sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    env = environment(root)
    try:
        samples = [spawn_worker(root, args, deadline, setup_only=True)["setup"]
                   for _ in range(SETUP_STARTS - 1)]
        result = spawn_worker(root, args, deadline, setup_only=False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    samples.append(result["setup"])
    env["loadavg_end"] = os.getloadavg()
    setup = median_setup(samples)

    phases = [result["run"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    metrics = per_layer(result, setup) if args.trace else end_to_end(result, setup)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "items": [len(p["latencies"]) for p in phases], "failed_ratio": failed / attempted,
        "item_s": item_quantiles(result["run"]["latencies"]),
        "setup_samples_s": [sum(s.values()) for s in samples],
        "problems": [msg for p in phases for msg in p["problems"]],
    }
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record = {"environment": env, "summary": summary, **final}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
