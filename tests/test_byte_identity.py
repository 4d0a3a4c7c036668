"""Every byte-identity promise, checked on this host against itself.

`test_report_corpus.py` compares reports with the recorded data to 1e-9, so
that the data does not pin one platform's round-off; a change that moves one
bit passes it. Here each variant of a run writes its reports in a subprocess,
and its bytes must equal those of the plain run on the same host:

* the whole corpus (`test_report_corpus.py --record PATH`) under `python -O`,
  with two OpenBLAS threads, and with numpy's AVX-512 loops disabled (where
  the host has them). The plain recording runs one OpenBLAS thread, as a CLI
  process starts;
* two split configs, a qsd-ensemble of 10^4 trajectories and the headline
  counterexample, run by `python -m qfoliation.cli` with all CPUs and pinned
  to one through `os.sched_setaffinity` in the child (where the host has two
  CPUs or more).

CI runs these in its Tier-1 step. Its one corpus step ties the plain
recording to the committed bytes: it records into `tests/data/` and fails
on any diff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

AVX512_OFF = "AVX512_SPR AVX512_ICL X86_V4"

# name -> (interpreter flags, environment) of each corpus variant
CORPUS_VARIANTS = {
    "python -O": (["-O"], {}),
    "two OpenBLAS threads": ([], {"OPENBLAS_NUM_THREADS": "2"}),
    "AVX-512 off": ([], {"NPY_DISABLE_CPU_FEATURES": AVX512_OFF}),
}

SPLIT_CONFIGS = {
    "qsd-ensemble": {"command": "qsd-ensemble", "params": {"gamma": 1.0, "span": 30.0,
                                                           "n_traj": 10000}},
    "headline-counterexample": {"command": "counterexample", "params": {
        "beta": 0.01, "ell": 3000.0, "gamma": 1.0, "method": "exact", "qsd": {"n_traj": 1000}}},
}

# `python -m qfoliation.cli` on the lowest CPU this process may run on
PINNED_CLI = ("import os, runpy; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
              "runpy.run_module('qfoliation.cli', run_name='__main__', alter_sys=True)")


def _run(args: list, cwd: Path, **env: str) -> None:
    """Run the interpreter with args in cwd, the package on its path."""
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    base["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env={**base, **env},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _corpus(workdir: Path, flags: list = (), **env: str) -> dict:
    """The corpus reports, recorded in a subprocess with flags and env."""
    out = workdir / "reports.json"
    _run([*flags, str(TESTS / "test_report_corpus.py"), "--record", str(out)], workdir,
         **{"OPENBLAS_NUM_THREADS": "1", **env})
    return json.loads(out.read_text(encoding="utf-8"))


def _avx512_targets() -> list:
    """The AVX-512 dispatch targets that numpy runs on this host."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    if not all(name in features for name in AVX512_OFF.split()):
        return []  # a numpy that does not know every target cannot disable them
    return [name for name in AVX512_OFF.split() if features[name]]


@pytest.fixture(scope="module")
def plain_corpus(tmp_path_factory):
    return _corpus(tmp_path_factory.mktemp("plain"))


@pytest.mark.parametrize("variant", CORPUS_VARIANTS)
def test_corpus_is_byte_identical_to_the_plain_recording(variant, plain_corpus, tmp_path):
    if variant == "AVX-512 off" and not _avx512_targets():
        pytest.skip("numpy runs no AVX-512 loop on this host")
    flags, env = CORPUS_VARIANTS[variant]
    reports = _corpus(tmp_path, flags, **env)
    assert sorted(reports) == sorted(plain_corpus)
    assert [case for case in plain_corpus if reports[case] != plain_corpus[case]] == []


@pytest.mark.parametrize("name", SPLIT_CONFIGS)
def test_split_run_writes_the_report_of_one_cpu(name, tmp_path):
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than two CPUs: no run is split")
    doc = {**SPLIT_CONFIGS[name], "format": "json", "output_path": "report.json"}
    reports = []
    for label, entry in (("all", ["-m", "qfoliation.cli"]), ("one", ["-c", PINNED_CLI])):
        run_dir = tmp_path / label
        run_dir.mkdir()
        (run_dir / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        _run([*entry, doc["command"], "--config", "config.json"], run_dir)
        reports.append((run_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]
