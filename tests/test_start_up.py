"""What a process gets when it starts: the package root loads its names on
first use and no numpy, and a CLI process starts OpenBLAS with one thread
unless the user chose a count."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfoliation

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the package namespace after `import qfoliation`, before names loaded on first
# use: each public name, in `__all__` order, by the submodule that defines it
PUBLIC = {
    "dynamics": ["GeneratorSet", "TrajectoryConfig", "boost_transport", "decohering_coupling",
                 "ensemble_density", "lindblad_exact_twolevel", "lindblad_propagate",
                 "liouvillian", "qsd_trajectory"],
    "foliation": ["FourVector", "Hyperplane", "coincidence_event", "coincidence_offset",
                  "frame_normal"],
    "linalg": ["density_from_state", "expectation", "expm_generator", "normalize_state",
               "trace_distance", "validate_density", "validate_state"],
    "scenarios": ["ConsistencyReport", "CounterexampleParams", "CounterexampleReport",
                  "QsdSettings", "run_consistency", "initial_state", "initial_state_vector",
                  "run_counterexample", "spin_observable", "sweep_velocity"],
}
# each before the modules that import it
SUBMODULES = ["errors", "rng", "foliation", "linalg", "dynamics", "scenarios"]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def python(code: str, cwd: Path, **env: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on this checkout's src/, with no BLAS
    thread variable set but those given."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


# -- the export table --------------------------------------------------------------


def test_all_lists_the_public_names_once_in_order():
    assert qfoliation.__all__ == [name for names in PUBLIC.values() for name in names]
    assert qfoliation.__version__ == "0.1.0"


def test_each_public_name_is_the_object_its_submodule_defines():
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"qfoliation.{module}")
        for name in names:
            assert getattr(qfoliation, name) is vars(mod)[name], name
    for module in SUBMODULES:
        assert getattr(qfoliation, module) is importlib.import_module(f"qfoliation.{module}")


def test_any_other_name_is_missing():
    with pytest.raises(AttributeError, match="^module 'qfoliation' has no attribute 'teleport'$"):
        qfoliation.teleport  # noqa: B018


IMPORT_PROBE = """
import json, sys
import qfoliation
seen = {"numpy": "numpy" in sys.modules, "cli": hasattr(qfoliation, "cli")}
seen["submodules"] = [[name in sys.modules, getattr(qfoliation, name.split(".")[1]).__name__]
                      for name in ("qfoliation." + m for m in %r)]
from qfoliation import *
seen["star"] = all(name in globals() for name in qfoliation.__all__)
print(json.dumps(seen))
""" % SUBMODULES


def test_import_qfoliation_loads_no_numpy_and_each_submodule_on_use(tmp_path):
    seen = json.loads(python(IMPORT_PROBE, tmp_path).stdout)
    assert seen == {"numpy": False, "cli": False, "star": True,
                    "submodules": [[False, f"qfoliation.{m}"] for m in SUBMODULES]}


def test_readme_library_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    proc = python(block, tmp_path)
    # expectation_M, expectation_R, discrepancy and the consistency deviation at gamma*a0 = 30
    closed = [1.0, math.exp(-15.0), 1.0 - math.exp(-15.0), 1.0 - math.exp(-15.0)]
    assert [float(line) for line in proc.stdout.splitlines()] == pytest.approx(closed, rel=1e-12)
    assert proc.stderr == ""


# -- one OpenBLAS thread in a CLI process -----------------------------------------


def _console_script() -> str:
    """The call that the `qfoliation` console script makes, from pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^qfoliation = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"from {module} import {func}; sys.exit({func}())"


ENTRIES = {
    # what `python -m qfoliation.cli` runs
    "module": "import runpy; runpy.run_module('qfoliation.cli', run_name='__main__', alter_sys=True)",
    "console-script": _console_script(),
}

THREAD_PROBE = """
import atexit, json, os, sys
atexit.register(lambda: print(json.dumps([len(os.listdir("/proc/self/task")),
                                          "numpy" in sys.modules])))
sys.argv = ["qfoliation", "lindblad", "--config", "config.json"]
{entry}
"""

BLAS = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
needs_task_list = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or "openblas" not in BLAS.get("name", "").lower(),
    reason="counts threads through /proc/self/task, in a numpy built on OpenBLAS")


@needs_task_list
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("env, threads", [({}, 1)] + [({var: "2"}, 2) for var in BLAS_THREAD_VARS],
                         ids=["default"] + [f"{var}=2" for var in BLAS_THREAD_VARS])
def test_cli_process_runs_one_blas_thread_unless_the_user_chose(tmp_path, entry, env, threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts at most one thread per CPU")
    (tmp_path / "config.json").write_text(json.dumps(
        {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0, "samples": 2}}))
    proc = python(THREAD_PROBE.format(entry=ENTRIES[entry]), tmp_path, **env)
    assert json.loads(proc.stdout.splitlines()[-1]) == [threads, True]
    assert (tmp_path / "lindblad_report.csv").is_file()


ENVIRON_PROBE = """
import json, os, sys
before = dict(os.environ)
{statement}
print(json.dumps([dict(os.environ) == before, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("statement", ["import qfoliation.cli", "from qfoliation import cli"])
def test_importing_the_cli_leaves_the_environment_alone(tmp_path, statement):
    proc = python(ENVIRON_PROBE.format(statement=statement), tmp_path)
    assert json.loads(proc.stdout) == [True, True]
