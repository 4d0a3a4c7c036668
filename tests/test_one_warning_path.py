"""The package warns only through `errors.warn`, which names the caller's line,
and never decorates a function with `np.errstate`, which would enter and leave
the error state on every call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_attr(node: ast.AST, owner: str, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == owner)


def test_warnings_warn_only_in_the_helper_and_errstate_never_decorates():
    found = []
    for path in sorted((SRC / "qfoliation").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        funcs = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        helper = {id(n) for f in funcs if path.name == "errors.py" and f.name == "warn"
                  for n in ast.walk(f)}
        found += [f"{path.name}:{n.lineno} warnings.warn" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and _is_attr(n.func, "warnings", "warn")
                  and id(n) not in helper]
        found += [f"{path.name}:{d.lineno} @np.errstate" for f in funcs for d in f.decorator_list
                  if _is_attr(d.func if isinstance(d, ast.Call) else d, "np", "errstate")]
    assert found == []
