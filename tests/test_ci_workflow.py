"""The CI workflow names only files that exist, and its test selections still select."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def test_every_tests_and_bench_path_in_the_workflow_exists():
    paths = set(re.findall(r"\b(?:tests|bench)/[\w./-]*", WORKFLOW))
    assert "tests/test_dynamics.py" in paths and "bench/test_smoke.py" in paths
    assert [path for path in sorted(paths) if not (ROOT / path).exists()] == []


def test_each_keyword_of_the_dynamics_selection_matches_a_test_function():
    # pytest -k matches a test's name case-insensitively; a parametrized
    # test's name starts with its function's name
    (expression,) = re.findall(r'tests/test_dynamics\.py -k "([^"]+)"', WORKFLOW)
    keywords = expression.split(" or ")
    assert all(word.isidentifier() for word in keywords), expression
    tree = ast.parse((ROOT / "tests" / "test_dynamics.py").read_text(encoding="utf-8"))
    names = [node.name.lower() for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test")]
    for word in keywords:
        assert any(word.lower() in name for name in names), word
