"""What the benchmark in ``perfbench/`` uses of the package still exists and
still holds, so a refactor cannot silently break the benchmark.

The tracer is only read here: its name lists are resolved, never installed.
"""

import importlib
import importlib.util
import itertools
import json
from pathlib import Path

from k3lat import cli, verify

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
paper = _load("paper")
# loading these resolves every k3lat name they import
cli_oneshot = _load("cli_oneshot")
lattice_stream = _load("lattice_stream")


def _resolves(qualname) -> bool:
    module_name, *attrs = qualname.split(".")
    obj = importlib.import_module(f"k3lat.{module_name}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_every_traced_name_resolves():
    names = spans.FUNCTIONS + spans.CONSTRUCTORS + spans.COUNT_ONLY
    assert [name for name in names if not _resolves(name)] == []
    # one verify.criterion_NN timer per criterion, in order
    assert [f"verify.criterion_{n:02d}" for n, _, _ in verify.CRITERIA] == list(spans.CRITERIA)


def test_paper_workload_accepts_a_pass():
    assert paper.Paper(0).check(0, verify.run_all(0)) == []


def test_cli_oneshot_reference_matches_the_cli_in_process():
    # one seeded draw of each command, checked as the workload checks a child's
    # output: exit 0 and the payload of the direct library calls
    draws = itertools.islice(cli_oneshot.CliOneshot(1).inputs(), len(cli_oneshot.COMMANDS))
    for args in draws:
        result = cli.run(args)
        assert result.exit_code == 0, (args, result.diagnostics)
        expected = json.loads(json.dumps(cli_oneshot.reference(args)))
        assert json.loads(json.dumps(result.payload)) == expected, args
