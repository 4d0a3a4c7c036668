"""CLI reports of the config corpus, pinned against the recorded reports.

Every document of `test_config_corpus.CORPUS` is run through `cli.main` in
both formats, with the case's seed override as `--seed` and a fixed
relative `--out`. Each report must equal its entry in `data/reports.json`:
the text between numeric literals exactly, and each number to 1e-9
relative or 1e-12 absolute, so the data does not pin the platform's
round-off.

Re-record every report (for example after a deliberate change of the QSD
noise) with

    PYTHONPATH=src python tests/test_report_corpus.py --record

which prints, for each case whose text changed, the largest absolute and
relative change among its numbers, and the number of unchanged cases.
`--record PATH` writes the reports to PATH instead, in the same layout, and
compares them with what PATH held (`test_byte_identity.py` uses it).
"""

import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

from qfoliation.cli import main
from test_config_corpus import CORPUS

REPORTS = Path(__file__).parent / "data" / "reports.json"
FORMATS = ("csv", "json")
CASES = [f"{name}/{fmt}" for name in sorted(CORPUS) for fmt in FORMATS]

_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def report_text(case: str, workdir: Path) -> str:
    """The report of one corpus case, written under workdir."""
    name, fmt = case.split("/")
    doc, seed = CORPUS[name]
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [doc["command"], "--config", "config.json", "--format", fmt, "--out", f"report.{fmt}"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        status = main(argv)
    finally:
        os.chdir(cwd)
    assert status == 0, f"{case} exited {status}"
    return (workdir / f"report.{fmt}").read_text(encoding="utf-8")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 or math.isclose(a, b, rel_tol=1e-9)


def test_recorded_reports_cover_corpus():
    assert sorted(json.loads(REPORTS.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_recorded(case, tmp_path):
    expected = _NUMBER.split(json.loads(REPORTS.read_text(encoding="utf-8"))[case])
    text = report_text(case, tmp_path)
    if case.endswith("/json"):  # the digits and layout json itself writes
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    got = _NUMBER.split(text)
    assert len(got) == len(expected), f"{case}: report structure changed"
    for i, (g, e) in enumerate(zip(got, expected)):
        if i % 2 == 0:
            assert g == e, f"{case}: text {g!r} != recorded {e!r}"
        else:
            assert close(float(g), float(e)), f"{case}: number {g} != recorded {e}"


def change(old: str, new: str) -> str:
    """The largest absolute and relative change among the numbers of two reports."""
    old_parts, new_parts = _NUMBER.split(old), _NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[::2] != new_parts[::2]:
        return "structure changed"
    pairs = [(float(a), float(b)) for a, b in zip(old_parts[1::2], new_parts[1::2]) if a != b]
    worst_abs = max(abs(b - a) for a, b in pairs)
    worst_rel = max(abs(b - a) / max(abs(a), abs(b)) for a, b in pairs)
    return f"{len(pairs)} numbers, largest change {worst_abs:.3g} absolute, {worst_rel:.3g} relative"


def record(workdir: Path, path: Path = REPORTS) -> None:
    previous = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    reports, unchanged = {}, 0
    for case in CASES:
        case_dir = workdir / case.replace("/", "-")
        case_dir.mkdir()
        reports[case] = report_text(case, case_dir)
        if case not in previous:
            print(f"{case}: new")
        elif reports[case] == previous[case]:
            unchanged += 1
        else:
            print(f"{case}: {change(previous[case], reports[case])}")
    path.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(reports)} reports in {path}, {unchanged} unchanged")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or len(sys.argv) > 3:
        sys.exit(f"usage: python {sys.argv[0]} --record [PATH]")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp), Path(sys.argv[2]).resolve() if len(sys.argv) == 3 else REPORTS)
