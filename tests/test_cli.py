import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfoliation
from qfoliation import cli, dynamics, scenarios
from qfoliation.cli import (
    RunConfig,
    main,
    matrix_from_config,
    matrix_to_pairs,
    parse_config,
    run,
)
from qfoliation.errors import ValidationError
from _checks import cell_reference, serialize_config

MINIMAL_CE = json.dumps(
    {"command": "counterexample", "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0}}
)


# -- parsing ------------------------------------------------------------------

def test_parse_minimal_counterexample_fills_defaults():
    cfg = parse_config(MINIMAL_CE)
    assert cfg.command == "counterexample"
    assert cfg.params["method"] == "exact"
    assert cfg.params["step"] == pytest.approx(1e-3)
    assert cfg.params["c"] == 1.0
    assert cfg.seed == 0
    assert cfg.format == "csv"
    assert cfg.log_level == "info"
    assert cfg.output_path == "counterexample_report.csv"
    # derived coincidence offset of the resolved params
    assert cfg.params["ell"] * cfg.params["beta"] == pytest.approx(30.0)


def test_superluminal_beta_is_parsed_then_refused_by_the_run(tmp_path, capsys):
    # the scenario refuses a range, after the seed line and before any work
    text = json.dumps(
        {"command": "counterexample", "params": {"beta": 1.5, "ell": 10, "gamma": 1},
         "output_path": str(tmp_path / "r.csv")}
    )
    cfg = parse_config(text)
    assert run(cfg) == 1
    out, err = capsys.readouterr()
    assert out == "seed: 0\n"
    assert re.search("beta", err)
    assert os.listdir(tmp_path) == []


def test_parse_rejects_empty_document():
    with pytest.raises(ValidationError, match="^invalid JSON at line 1 column 1"):
        parse_config("")


def test_parse_rejects_malformed_json_with_position():
    with pytest.raises(ValidationError, match="line 1"):
        parse_config("{oops}")


def test_parse_rejects_unknown_keys():
    doc = json.loads(MINIMAL_CE)
    doc["params"]["velocity"] = 3.0
    with pytest.raises(ValidationError, match="velocity"):
        parse_config(json.dumps(doc))
    doc = json.loads(MINIMAL_CE)
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        parse_config(json.dumps(doc))


def test_parse_rejects_missing_required_key():
    text = json.dumps({"command": "counterexample", "params": {"beta": 0.01, "ell": 10}})
    with pytest.raises(ValidationError, match="gamma"):
        parse_config(text)


def test_parse_rejects_command_mismatch():
    with pytest.raises(ValidationError, match="does not match"):
        parse_config(MINIMAL_CE, command="sweep")


def test_parse_rejects_unknown_command():
    with pytest.raises(ValidationError, match="unknown command"):
        parse_config(json.dumps({"command": "warp", "params": {}}))


def test_parse_qsd_block_inherits_master_seed():
    doc = json.loads(MINIMAL_CE)
    doc["seed"] = 99
    doc["params"]["qsd"] = {"n_traj": 10}
    cfg = parse_config(json.dumps(doc))
    assert cfg.params["qsd"]["seed"] == 99


@pytest.mark.parametrize(
    "doc",
    [
        {"command": "counterexample", "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0}},
        {
            "command": "sweep",
            "params": {
                "beta": 0.01, "ell": 3000, "gamma": 1.0, "betas": [0.02, 0.01],
                "k_correction": [[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]],
            },
            "seed": 5,
        },
        {"command": "consistency", "params": {"beta": 0.1, "ell": 10.0}},
        {"command": "lindblad", "params": {"gamma": 1.0, "span": 3.0, "samples": 4}},
        {
            "command": "qsd-ensemble",
            "params": {"gamma": 1.0, "span": 2.0, "n_traj": 50},
            "format": "json",
        },
    ],
)
def test_round_trip(doc):
    cfg = parse_config(json.dumps(doc))
    assert parse_config(serialize_config(cfg)) == cfg


# -- matrix codec ----------------------------------------------------------------

def test_matrix_codec_round_trip():
    m = np.array([[0, -0.5j], [0.5j, 0]])
    decoded = matrix_from_config(matrix_to_pairs(m), "k")
    np.testing.assert_array_equal(decoded, m)


def pairs_reference(m: np.ndarray) -> list:
    """[re, im] pairs encoded one entry at a time, nested as the array."""
    if m.ndim == 1:
        return [[float(x.real), float(x.imag)] for x in m]
    return [pairs_reference(row) for row in m]


SIGNED_ZEROS = np.array([[complex(-0.0, 0.0), complex(1.5, -0.0)],
                         [complex(0.0, -0.0), complex(-0.0, -0.0)]])


@pytest.mark.parametrize("m", [SIGNED_ZEROS, SIGNED_ZEROS.T, SIGNED_ZEROS[:, 0]],
                         ids=["matrix", "transposed-view", "vector"])
def test_pairs_match_the_per_entry_encoding_with_signed_zeros(m):
    # json.dumps tells -0.0 from 0.0, which == does not
    assert json.dumps(matrix_to_pairs(m)) == json.dumps(pairs_reference(m))


def test_matrix_codec_rejects_ragged_and_nonfinite():
    with pytest.raises(ValidationError):
        matrix_from_config([[1, 2], [3]], "k")
    with pytest.raises(ValidationError):
        matrix_from_config([[[0, 0], [0, float("nan")]], [[0, 0], [0, 0]]], "k")


# -- number formatting -------------------------------------------------------------

def test_cells_significant_digits():
    assert cli._cells([1.0, 3000.0, 0.0, 3.059023205018258e-07, -0.5]) == [
        "1.00000000000", "3000.00000000", "0.00000000000", "0.000000305902320502",
        "-0.500000000000",
    ]
    # fixed notation only: no exponent marker
    assert "e" not in cli._cells([1.23456789e-11])[0]


def _powers_of_ten() -> list:
    """Every power of ten of the double range with both neighbours, each of both
    signs, and the range's ends and signed zeros."""
    values = [5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0]
    for k in range(-323, 309):
        x = float(f"1e{k}")
        for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)):
            values += [float(v), -float(v)]
    return values


def test_cells_match_the_per_cell_reference_next_to_every_power_of_ten():
    values = _powers_of_ten()
    assert cli._cells(values) == [cell_reference(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_cells_match_the_per_cell_reference_on_drawn_doubles(values):
    assert cli._cells(values) == [cell_reference(v) for v in values]


def test_cells_of_ints_and_bools_match_the_per_cell_reference():
    ints = [0, 1, -1, 12, 2**31, 2**53 + 1, -(2**63), 2**63 - 1, 2**63, 2**64 - 1]
    assert cli._cells(ints) == [cell_reference(v) for v in ints]
    assert cli._cells([True, False, True]) == ["true", "false", "true"]


@pytest.mark.parametrize(("rows", "fmt"), [
    pytest.param(rows, fmt, id=str(rows) if fmt == "csv" else f"json-{rows}")
    for fmt in ("csv", "json") for rows in (1, 255, 256, 257, 600)
])
def test_csv_rows_match_the_per_cell_reference_across_chunks(rows, fmt):
    # both formats walk the table in the same chunks; JSON must lay its
    # points out as json.dumps does, whatever the column order
    rng = np.random.default_rng(rows)
    points = {
        "x": rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
        "n": (2**64 - 1) - np.arange(rows, dtype=np.uint64),
        "flag": rng.integers(0, 2, rows).astype(bool),
        "zero": np.copysign(np.zeros(rows), rng.standard_normal(rows)),
    }
    cfg = RunConfig("lindblad", {}, f"report.{fmt}", fmt, 0, "quiet")
    sizes = [min(cli._CHUNK_ROWS, rows - lo) for lo in range(0, rows, cli._CHUNK_ROWS)]
    rows_of_values = list(zip(*(col.tolist() for col in points.values())))
    if fmt == "csv":
        chunks = list(cli._csv_chunks(cfg, {"points": points}))
        assert chunks[1] == "x,n,flag,zero\n"
        assert [chunk.count("\n") for chunk in chunks[2:]] == sizes
        expected = [",".join(map(cell_reference, row)) + "\n" for row in rows_of_values]
        assert "".join(chunks[2:]) == "".join(expected)
    else:
        chunks = list(cli._json_chunks(cfg, {"points": points}))
        assert [chunk.count("{") for chunk in chunks[1:-1]] == sizes
        doc = {"command": "lindblad",
               "config": {"params": {}, "seed": 0, "format": "json", "output_path": "report.json"},
               "results": {"points": [dict(zip(points, row)) for row in rows_of_values]}}
        assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- running ------------------------------------------------------------------------

def run_cli(tmp_path, doc, fmt="csv", seed=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "config.json"
    out_path = tmp_path / f"report.{fmt}"
    doc = dict(doc)
    doc["output_path"] = str(out_path)
    doc["format"] = fmt
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [doc["command"], "--config", str(cfg_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    status = main(argv)
    return status, out_path


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return comments, header, rows


def test_run_counterexample_csv(tmp_path, capsys):
    doc = json.loads(MINIMAL_CE)
    status, out = run_cli(tmp_path, doc, seed=7)
    assert status == 0
    assert "seed: 7" in capsys.readouterr().out
    comments, header, rows = read_csv(out)
    assert header == ["beta", "ell", "gamma", "a0", "expectation_R", "expectation_M",
                      "discrepancy", "offdiag_final"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert float(row["discrepancy"]) == pytest.approx(1.0, abs=1e-6)
    assert float(row["a0"]) == pytest.approx(30.0)
    assert any("seed: 7" in c for c in comments)
    assert any("config" in c for c in comments)


def test_run_sweep_row_count(tmp_path):
    doc = {
        "command": "sweep",
        "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0, "betas": [0.02, 0.01, 0.005]},
    }
    status, out = run_cli(tmp_path, doc)
    assert status == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert float(dict(zip(header, row))["discrepancy"]) == pytest.approx(1.0, abs=1e-6)


def test_csv_cells_fixed_notation(tmp_path):
    doc = {
        "command": "lindblad",
        "params": {"gamma": 1.0, "span": 2.0, "samples": 3},
    }
    status, out = run_cli(tmp_path, doc)
    assert status == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 3
    cell = re.compile(r"^-?\d+\.\d+$")
    for row in rows:
        for value in row:
            assert cell.match(value), value
            assert math.isfinite(float(value))


def test_run_json_report_embeds_config(tmp_path):
    doc = json.loads(MINIMAL_CE)
    status, out = run_cli(tmp_path, doc, fmt="json")
    assert status == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == "counterexample"
    assert report["config"]["params"]["gamma"] == 1.0
    assert report["results"]["discrepancy"] == pytest.approx(1.0, abs=1e-6)
    rho_r = report["results"]["rho_R"]
    assert rho_r["dim"] == 2
    assert len(rho_r["entries_row_major"]) == 2
    assert rho_r["entries_row_major"][0][0][0] == pytest.approx(0.5)


def test_qsd_ensemble_byte_identical_reruns(tmp_path):
    doc = {
        "command": "qsd-ensemble",
        "params": {"gamma": 1.0, "span": 2.0, "n_traj": 200},
        "seed": 11,
    }
    status1, out1 = run_cli(tmp_path / "a", doc)
    status2, out2 = run_cli(tmp_path / "b", doc)
    assert status1 == status2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_output(tmp_path):
    doc = {
        "command": "qsd-ensemble",
        "params": {"gamma": 1.0, "span": 1.0, "n_traj": 50},
        "seed": 1,
    }
    _, out1 = run_cli(tmp_path / "a", doc)
    _, out2 = run_cli(tmp_path / "b", doc, seed=2)
    c1 = [ln for ln in out1.read_text().splitlines() if not ln.startswith("#")]
    c2 = [ln for ln in out2.read_text().splitlines() if not ln.startswith("#")]
    assert c1 != c2


def test_exit_status_validation_failure(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(
        json.dumps({"command": "counterexample", "params": {"beta": 2.0, "ell": 1, "gamma": 1}})
    )
    assert main(["counterexample", "--config", str(cfg_path)]) == 1


def test_exit_status_missing_config(tmp_path):
    assert main(["counterexample", "--config", str(tmp_path / "nope.json")]) == 1


def test_gamma_zero_rk4_takes_degenerate_fast_path(tmp_path):
    # gamma = 0 fills no step default, but the vanishing dissipator short-circuits
    # to the exact unitary result before the integrator needs one
    doc = {
        "command": "lindblad",
        "params": {"gamma": 0.0, "span": 1.0, "method": "rk4"},
    }
    status, out = run_cli(tmp_path, doc)
    assert status == 0
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["offdiag_numeric"]) == pytest.approx(0.5, abs=1e-12)
    assert float(row["abs_error"]) == 0.0


def test_exit_status_numerical_failure(tmp_path):
    # rho0 passes schema validation but is not positive semidefinite: a
    # malformed input (exit 1); a breach in what the run computes exits 2
    doc = {
        "command": "lindblad",
        "params": {
            "gamma": 1.0,
            "span": 1.0,
            "rho0": [[[0.5, 0], [0.6, 0]], [[0.6, 0], [0.5, 0]]],
        },
        "output_path": str(tmp_path / "r.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["lindblad", "--config", str(cfg_path)]) == 1


def test_consistency_command_unitary_and_dissipative(tmp_path):
    unitary = {
        "command": "consistency",
        "params": {"beta": 0.2, "ell": 40.0, "h": matrix_to_pairs(np.diag([1.0, -1.0])),
                   "observable": matrix_to_pairs(np.diag([1.0, -1.0]))},
    }
    status, out = run_cli(tmp_path / "u", unitary)
    assert status == 0
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["deviation"]) <= 1e-9
    assert row["dissipative"] == "false"

    dissipative = {
        "command": "consistency",
        "params": {"beta": 0.01, "ell": 3000.0, "gamma": 1.0},
    }
    status, out = run_cli(tmp_path / "d", dissipative)
    assert status == 0
    _, header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["deviation"]) == pytest.approx(1.0, abs=1e-6)
    assert row["dissipative"] == "true"


def test_line_endings_lf_only(tmp_path):
    doc = json.loads(MINIMAL_CE)
    _, out = run_cli(tmp_path, doc)
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_run_config_equality_semantics():
    cfg = parse_config(MINIMAL_CE)
    again = parse_config(MINIMAL_CE)
    assert cfg == again and isinstance(cfg, RunConfig)


SCIPY_PROBE = """
import json, sys
from qfoliation.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules()}
for command, params in (("lindblad", {"gamma": 1.0, "span": 30.0, "samples": 3}),
                        ("counterexample", {"beta": 0.01, "ell": 3000.0, "gamma": 1.0})):
    with open("config.json", "w") as fh:
        json.dump({"command": command, "params": params, "output_path": command + ".csv"}, fh)
    seen[command] = [main([command, "--config", "config.json"]), scipy_modules()]
print(json.dumps(seen))
"""


def test_cli_never_imports_scipy(tmp_path):
    src = str(Path(qfoliation.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "lindblad": [0, []], "counterexample": [0, []]}


@pytest.mark.parametrize(
    "args, message",
    [
        (["teleport", "--config", "c.json"], "argument command: invalid choice: 'teleport'"),
        (["lindblad"], "the following arguments are required: --config"),
    ],
    ids=["unknown-command", "missing-config"],
)
def test_module_entry_point_refuses_bad_arguments_with_usage(tmp_path, args, message):
    src = str(Path(qfoliation.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "qfoliation.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: qfoliation ")
    assert f"qfoliation: error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert os.listdir(tmp_path) == []


COARSE_STEP = {"command": "qsd-ensemble",
               "params": {"gamma": 4.0, "span": 1.0, "step": 0.1, "n_traj": 10}}
COARSE_STEP_LINE = ("WARNING step*max||L^dag L|| = 0.4 exceeds 0.1; "
                    "stochastic integration error may dominate")


def test_module_entry_point_logs_a_package_warning_as_one_line(tmp_path):
    src = str(Path(qfoliation.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    (tmp_path / "c.json").write_text(json.dumps(COARSE_STEP), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "qfoliation.cli", "qsd-ensemble", "--config",
                           "c.json"], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [COARSE_STEP_LINE, "INFO wrote qsd-ensemble_report.csv"]


def test_cli_logs_package_warnings_and_library_calls_still_warn(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**COARSE_STEP, "output_path": str(tmp_path / "r.csv")}),
                   encoding="utf-8")
    with pytest.warns() as caught:
        assert main(["qsd-ensemble", "--config", str(cfg)]) == 0
        dynamics.ensemble_final_states(np.array([1.0, 0.0]), scenarios.dephasing_model(4.0),
                                       dynamics.TrajectoryConfig(step=0.1, steps=1), 1)
    assert COARSE_STEP_LINE in capsys.readouterr().err.splitlines()
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lindblad_report_is_written_in_memory_bounded_by_its_arrays(tmp_path, fmt):
    # the report (1.7 MiB CSV, 3.9 MiB JSON) is written as it is formatted;
    # building it whole, with one dict per offset, peaked at 12 and 29 MiB
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 30.0, "samples": 20_000},
           "log_level": "quiet"}
    tracemalloc.start()
    try:
        status, _ = run_cli(tmp_path, doc, fmt=fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_lindblad_samples_take_stacked_calls_not_one_per_offset(tmp_path, monkeypatch):
    # counts, not timings: a run that falls back to per-offset work calls
    # solve and eigvalsh once per sample instead of once per block
    calls = {"solve": 0, "eigvalsh": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    samples = 2000
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 30.0, "samples": samples},
           "output_path": str(tmp_path / "lindblad.csv")}
    assert run(parse_config(json.dumps(doc))) == 0
    blocks = math.ceil(samples / dynamics._LINDBLAD_BLOCK)
    # one solve per Pade plan of each block: the rising offsets of 1-norm up
    # to 15 pass through 7 plans (degrees 3 to 13, then 1 and 2 squarings)
    assert blocks <= calls["solve"] <= blocks + 6
    assert 1 <= calls["eigvalsh"] <= blocks + 3
