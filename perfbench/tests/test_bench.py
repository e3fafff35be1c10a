"""Self-test of the benchmark: run with ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``.

A tiny run of each workload must emit every metric that BENCHMARK.json names,
each with its unit, and a deliberately wrong expected value must be counted
as a failure, which proves the checks can fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from cli_oneshot import CliOneshot  # noqa: E402
from lattice_stream import LatticeStream  # noqa: E402
from paper import EXPECTED, Paper  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT, flags=()):
    return subprocess.run(
        [sys.executable, *flags, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["lattice_stream"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_python_dash_o():
    proc = _run("lattice_stream", 0, flags=("-O",))
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def _measure_one(workload, items):
    return worker.measure(workload, iter(items), seconds=0)


def test_paper_counts_a_wrong_expected_value(monkeypatch):
    monkeypatch.setitem(EXPECTED, 6, dict(EXPECTED[6], orbit_sizes=[1, 120, 136]))
    run = _measure_one(Paper(0), [0])
    assert run["failed"] == 1 and "criterion 6" in run["problems"][0]


def test_lattice_stream_counts_a_wrong_expected_value():
    class WrongDeterminant(LatticeStream):
        def check(self, job, out):
            # claim one more <2> summand than the lattice has: rank and |det| are off
            return super().check(dict(job, blocks=job["blocks"] + (("r1", 2, 1),)), out)

    stream = WrongDeterminant(0)
    jobs = [next(j for j in stream.inputs() if j["kind"] == "fingerprint")]
    run = _measure_one(stream, jobs)
    assert run["failed"] == 1 and "rank" in run["problems"][0]


def test_cli_oneshot_counts_a_wrong_expected_value(monkeypatch):
    import cli_oneshot

    real = cli_oneshot.reference
    monkeypatch.setattr(cli_oneshot, "reference", lambda args: {**real(args), "rank": -1})
    run = _measure_one(CliOneshot(0), [["lattice", "info", "--std", "U"]])
    assert run["failed"] == 1 and "payload differs" in run["problems"][0]
