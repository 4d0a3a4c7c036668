"""Smoke test of the benchmark: every workload at reduced size, in both modes.

    python3 -m pytest bench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json declares with its
declared unit, that every report passes its oracle, and that the oracle and
report-identity checks fire on reports that are wrong.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def test_declared_workloads_are_the_implemented_ones():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", str(trace), "--seed", "7"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    summary = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    for name, unit in printed.items():
        assert summary[name] == unit
    assert summary["oracle_error"] == "1"
    assert summary["failed_frac"] == "1"


def _corrupt_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc["results"])
    path.write_text(json.dumps(doc), encoding="utf-8")


def _corrupt_csv_cell(path: Path, row: int, column: str, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _bump_ensemble(res):
    res["rho_ensemble"]["entries_row_major"][0][1][0] += 1.0


def _bump_discrepancy(res):
    res["discrepancy"] += 2e-6


CORRUPTIONS = {
    "ensemble-large": lambda p: _corrupt_json(p, _bump_ensemble),
    "headline-qsd": lambda p: _corrupt_json(p, _bump_discrepancy),
    "rk4-sweep": lambda p: _corrupt_csv_cell(p, 1, "expectation_R", 2e-6),
    "lindblad-samples": lambda p: _corrupt_csv_cell(p, 3, "offdiag_numeric", 1e-8),
}


@pytest.fixture
def session_for(tmp_path):
    cli = run._import_cli()
    sessions = []

    def make(name: str) -> run.Session:
        doc = workloads.WORKLOADS[name].config(7, True)
        s = run.Session(cli, workloads.WORKLOADS[name], doc, tmp_path)
        sessions.append(s)
        return s

    yield make
    for s in sessions:
        s.close()


@pytest.mark.parametrize("workload", NAMES)
def test_oracle_rejects_a_corrupted_report(workload, session_for):
    s = session_for(workload)
    s.run_in_process()
    assert s.failures == []
    report = s.run_dir / s.doc["output_path"]
    workloads.WORKLOADS[workload].oracle(report.read_bytes(), s.doc)
    CORRUPTIONS[workload](report)
    with pytest.raises(workloads.OracleFailure):
        workloads.WORKLOADS[workload].oracle(report.read_bytes(), s.doc)


def test_a_report_that_changes_within_a_run_is_a_failure(session_for):
    s = session_for("ensemble-large")
    s.run_in_process()
    s.run_in_process()
    assert s.failures == [] and s.attempted == 2
    # another seed writes a different, still correct, report to the same file
    s.run_in_process(workloads.WORKLOADS["ensemble-large"].config(8, True))
    assert len(s.failures) == 1 and "sha256" in s.failures[0]
    assert s.attempted == 3


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in ("run.py", "tracer.py", "workloads.py"):
        (bench / f).write_bytes((ROOT / "bench" / f).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rk4-sweep", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
