"""The CLI only decodes: each command is one scenario call, and no scenario rule is in `cli`."""

import ast
from pathlib import Path

from qfoliation import cli

CLI = Path(cli.__file__)
SCENARIO_CALLS = {"run_counterexample", "sweep_velocity", "run_consistency", "lindblad_scan",
                  "run_qsd"}
TREE = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
FUNCTIONS = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}


def test_parse_config_compares_no_command_name():
    found = [node.lineno for node in ast.walk(FUNCTIONS["parse_config"])
             if isinstance(node, ast.Compare)
             for side in (node.left, *node.comparators)
             if isinstance(side, ast.Constant) and side.value in cli.COMMANDS]
    assert found == []


def test_each_runner_makes_exactly_one_scenario_call():
    runners = {name: node for name, node in FUNCTIONS.items() if name.startswith("_run_")}
    assert sorted(runners) == sorted(f.__name__ for f in cli._RUNNERS.values())
    for name, node in runners.items():
        calls = [call.func.attr for call in ast.walk(node) if isinstance(call, ast.Call)
                 and isinstance(call.func, ast.Attribute) and call.func.attr in SCENARIO_CALLS
                 and isinstance(call.func.value, ast.Name) and call.func.value.id == "scenarios"]
        assert len(calls) == 1, (name, calls)


def test_cli_imports_nothing_from_dynamics():
    # from .dynamics import X, from . import dynamics, import qfoliation.dynamics
    found = [node.lineno for node in ast.walk(TREE)
             if (isinstance(node, ast.ImportFrom) and "dynamics" in (node.module or "").split("."))
             or (isinstance(node, (ast.Import, ast.ImportFrom))
                 and any("dynamics" in alias.name.split(".") for alias in node.names))]
    assert found == []


def test_no_scenario_rule_is_left_in_the_schema():
    assert "gt" not in cli.Key.__dataclass_fields__
    assert not hasattr(cli, "_state_param")
