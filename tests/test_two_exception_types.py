"""Every failure is one of two kinds, one per CLI exit status: a malformed input
(ValidationError, exit 1) or a breached invariant (NumericalError, exit 2).
No subclass refines either; the message says what went wrong."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qfoliation"

# MemoryError: a failed allocation, and the split's mapping of a worker that
# ended without its result (CLI exit 1); a split that fails otherwise, a
# worker that could not start included, runs again in one process
RAISED = {"ValidationError", "NumericalError", "MemoryError"}


def _package_getattr(path: Path, tree: ast.Module) -> set:
    """ids of the nodes of __init__.py's module-level __getattr__, which PEP 562
    has raise AttributeError for a missing name (so `from qfoliation import cli`
    imports the submodule, and hasattr works)"""
    return {id(node) for func in tree.body if path == PACKAGE / "__init__.py"
            and isinstance(func, ast.FunctionDef) and func.name == "__getattr__"
            for node in ast.walk(func)}


def test_every_constructed_exception_is_one_of_the_two_types():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        getattr_nodes = _package_getattr(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.id if isinstance(func, ast.Name) else ast.unparse(func)
                if name == "AttributeError" and id(node) in getattr_nodes:
                    continue
                if name not in RAISED:
                    found.append(f"{path.name}:{node.lineno} raises {name}")
    assert found == []


def test_errors_defines_only_the_base_and_the_two_types():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name: [ast.unparse(base) for base in node.bases]
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {
        "QFoliationError": ["Exception"],
        "ValidationError": ["QFoliationError", "ValueError"],
        "NumericalError": ["QFoliationError"],
    }
