"""What the benchmark in ``perfbench/`` uses of the package still exists and
still holds, so a refactor cannot silently break the benchmark.

The tracer is only read here: its name lists are resolved, never installed.
"""

import importlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# -- fresh processes: what the traced CLI child and a cold start see ----------

SRC = Path(cli.__file__).resolve().parents[1]


def _python(code, *args):
    """Run ``python -c code args`` with this package importable; its stdout as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_RESOLVE_AFTER_IMPORT = """
import json, sys
import k3lat.cli

def resolves(qualname):
    module_name, *attrs = qualname.split(".")
    obj = sys.modules.get(f"k3lat.{module_name}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)

criteria = [f"verify.criterion_{n:02d}" for n, _, _ in sys.modules["k3lat.verify"].CRITERIA]
print(json.dumps({"unresolved": [n for n in json.loads(sys.argv[1]) if not resolves(n)],
                  "criteria": criteria}))
"""


def test_traced_names_resolve_through_sys_modules_after_importing_the_cli():
    # the tracer imports k3lat.cli and then reads each layer out of sys.modules
    names = spans.FUNCTIONS + spans.CONSTRUCTORS + spans.COUNT_ONLY
    out = _python(_RESOLVE_AFTER_IMPORT, json.dumps(names))
    assert out == {"unresolved": [], "criteria": list(spans.CRITERIA)}


_EXECUTED = """
import contextlib, io, json, sys, types
from k3lat import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--json", *sys.argv[1:]]) if sys.argv[1:] else 0
print(json.dumps({"code": code, "dataclasses": "dataclasses" in sys.modules, "executed": sorted(
    name.partition(".")[2] for name, module in sys.modules.items()
    if name.startswith("k3lat.") and type(module) is types.ModuleType)}))
"""

# every command runs ``lattice`` for the parser's choices and defaults
_LATTICE = ["cli", "errors", "lattice", "linalg"]
_K3 = ["cli", "discforms", "errors", "gluing", "involution", "lattice", "linalg"]
_ELL = ["cli", "elliptic", "errors", "lattice", "linalg", "polyfactor"]
_ZEROS = [0] * 30


@pytest.mark.parametrize(
    "argv, executed, dataclasses",
    [
        ([], ["cli", "errors"], False),
        # the thirteen commands of the cli_oneshot workload
        (["lattice", "info", "--std", "E8", "--twist", "-2"], _LATTICE, False),
        (["lattice", "show", "--std", "An", "--param", "3", "--twist", "-2"], _LATTICE, False),
        (["lattice", "roots", "--std", "E8", "--twist", "-1", "--norm", "-2"], _LATTICE, False),
        (["disc", "--std", "NikulinN"], sorted(_LATTICE + ["discforms"]), True),
        # a tilde family is glued, so it runs gluing and discforms, never involution
        (["ns", "classify", "--L2", "8"],
         ["cli", "discforms", "errors", "gluing", "lattice", "linalg", "nsfamilies"], True),
        # read off the push and the glue pattern: no discriminant form
        (["ns", "moduli", "--example", "M8"],
         ["cli", "errors", "gluing", "involution", "lattice", "linalg", "nsfamilies"], True),
        # 2^(d+2) alone
        (["ns", "obstruction", "--rankT", "5"], sorted(_LATTICE + ["nsfamilies"]), True),
        (["k3", "maps"], _K3, True),
        (["k3", "push", "--vector", json.dumps(_ZEROS)], _K3, True),
        (["k3", "pull", "--vector", json.dumps(_ZEROS[:22])], _K3, True),
        (["ell", "fibers", "--a", "1,0,0,0,1", "--b", "1"], _ELL, False),
        (["ell", "quotient", "--a", "1,0,0,0,1", "--b", "1"], _ELL, False),
        # fiber counts multiplied: no factorization, no matrix
        (["ell", "shioda-tate", "--fibers", "I2:8,I1:8", "--torsion", "2"],
         ["cli", "elliptic", "errors", "lattice"], False),
        (["verify-paper"], sorted(_K3 + ["elliptic", "nsfamilies", "polyfactor", "verify"]), True),
    ],
    ids=["import", "lattice-info", "lattice-show", "lattice-roots", "disc", "ns-classify",
         "ns-moduli", "ns-obstruction", "k3-maps", "k3-push", "k3-pull", "ell-fibers",
         "ell-quotient", "ell-shioda-tate", "verify-paper"],
)
def test_each_command_executes_only_the_modules_it_uses(argv, executed, dataclasses):
    # the work counter of a cold start: a module registered lazily by the CLI
    # becomes a plain ModuleType once something reads an attribute of it; a layer
    # that binds another as a module (``from . import discforms``) leaves it
    # unexecuted until a call reads it.  The lattice and ell commands keep
    # their records in NamedTuples, so they never import dataclasses.
    out = _python(_EXECUTED, *argv)
    assert out == {"code": 0, "dataclasses": dataclasses, "executed": executed}


_EXPORTS = """
import json, sys
if sys.argv[1:]:
    import k3lat.cli
import k3lat
executed = sorted(name for name in sys.modules if name.startswith("k3lat."))
exported = {name: getattr(k3lat, name) for name in k3lat.__all__}
layers = {name: vars(module) for name, module in list(sys.modules.items()) if name.startswith("k3lat.")}

def agrees(name, obj):
    # the defining module binds the object, and so does every module that imported
    # it (an alias such as DiscElement has no __module__ of its own to look in)
    bound = [namespace[name] for namespace in layers.values() if name in namespace]
    return bool(bound) and all(value is obj for value in bound)

wrong = [name for name, obj in exported.items() if not agrees(name, obj)]
print(json.dumps({"executed": executed, "wrong": wrong, "all": k3lat.__all__,
                  "missing_from_dir": sorted(set(k3lat.__all__) - set(dir(k3lat)))}))
"""


@pytest.mark.parametrize("after_cli", [False, True], ids=["plain-import", "after-cli"])
def test_every_exported_name_is_the_object_of_its_defining_module(after_cli):
    out = _python(_EXPORTS, *(["cli"] if after_cli else []))
    assert out["wrong"] == [] and out["missing_from_dir"] == []
    assert len(out["all"]) == len(set(out["all"])) == 69
    if not after_cli:  # importing the package executes none of its modules
        assert out["executed"] == []
