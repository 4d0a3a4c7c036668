"""Invariants are enforced by exceptions, which `python -O` keeps, never by `assert`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "qfoliation").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_non_real_expectation_raises_under_python_o():
    script = (
        "import numpy as np\n"
        "from qfoliation.errors import NumericalError\n"
        "from qfoliation.linalg import expectation\n"
        "a = np.array([[0, 1j], [0, 0]])\n"
        "try:\n"
        "    expectation(a, np.full((2, 2), 0.5))\n"
        "except NumericalError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "raised: non-real expectation value" in proc.stdout
