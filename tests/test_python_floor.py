"""Every source file parses under the oldest Python that pyproject.toml accepts."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _floor() -> tuple[int, int]:
    """The (major, minor) of requires-python, read by regex: Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_every_source_file_parses_at_the_requires_python_floor():
    floor = _floor()
    paths = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
