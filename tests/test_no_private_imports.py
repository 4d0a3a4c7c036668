"""No package module reaches into another module's private names; tests may."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def private_imports(package: Path) -> list[str]:
    """file:line name for each package-internal import of a name or module starting with _."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if not node.level and module.split(".")[0] != package.name:
                    continue
                names = [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names
                         if alias.name.split(".")[0] == package.name]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if any(part.startswith("_") for part in name.split(".") if part)]
    return found


def test_package_imports_no_private_name():
    assert private_imports(SRC / "qfoliation") == []
