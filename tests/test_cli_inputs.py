"""Malformed inputs exit 1 with a message that names the problem."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from qfoliation import cli, dynamics, rng, scenarios
from qfoliation.cli import main, parse_config
from qfoliation.dynamics import lindblad_propagate
from qfoliation.linalg import trace_distance
from qfoliation.errors import NumericalError, ValidationError
from qfoliation.scenarios import dephasing_model, initial_state
from _checks import embedded_config

SIGMA_Z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
NOT_HERMITIAN = {
    "complex": [[[0, 0], [0, 1]], [[0, 0], [0, 0]]],  # [[0, i], [0, 0]]
    "real": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],  # [[0, 1], [0, 0]]
}


def run_doc(tmp_path, doc, capsys):
    """Exit status, stderr and report path of one CLI run on doc."""
    doc = {"output_path": str(tmp_path / "report.csv"), **doc}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    status = main([doc["command"], "--config", str(cfg_path)])
    return status, capsys.readouterr().err, doc["output_path"]


# -- unwritable output path -------------------------------------------------------

def test_output_in_missing_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "report.csv"
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0},
           "output_path": str(out)}
    status, err, _ = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert str(out) in err and "No such file or directory" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_output_path_is_a_directory_exits_1_and_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "reports"
    target.mkdir()
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0},
           "output_path": str(target)}
    status, err, _ = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert str(target) in err
    assert target.is_dir() and not any(target.iterdir())
    assert sorted(os.listdir(tmp_path)) == ["config.json", "reports"]


@pytest.mark.parametrize("name", ["a\ud800b", "report\udfff.csv"], ids=["ud800", "udfff"])
def test_output_path_with_a_lone_surrogate_exits_1_before_the_run(tmp_path, capsys, monkeypatch,
                                                                  name):
    # json.loads passes a lone surrogate that no file name can hold
    monkeypatch.setattr(scenarios, "lindblad_propagate", _started)
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0},
           "output_path": str(tmp_path / name)}
    status, err, _ = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert err.startswith("qfoliation: config key 'output_path' is not a file name: ")
    assert "surrogates not allowed" in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["config.json"]


def test_config_path_that_names_no_file_exits_1(tmp_path, capsys):
    assert main(["lindblad", "--config", str(tmp_path / "config\ud800.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qfoliation: cannot read config: ") and "surrogates not allowed" in err
    assert os.listdir(tmp_path) == []


# -- negative beta ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "doc",
    [
        {"command": "counterexample", "params": {"beta": -0.01, "ell": 3000, "gamma": 1.0}},
        {"command": "sweep",
         "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0, "betas": [-0.01]}},
        {"command": "consistency", "params": {"beta": -0.01, "ell": 3000, "gamma": 1.0}},
    ],
    ids=["counterexample", "sweep", "dissipative-consistency"],
)
def test_negative_beta_gets_a_physical_message(tmp_path, capsys, doc):
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "beta must be non-negative" in err
    assert "cannot reach the negative coincidence offset" in err
    assert not os.path.exists(out)


def test_unitary_consistency_accepts_negative_beta(tmp_path, capsys):
    doc = {"command": "consistency",
           "params": {"beta": -0.2, "ell": 40.0, "h": SIGMA_Z, "observable": SIGMA_Z}}
    status, _, out = run_doc(tmp_path, doc, capsys)
    assert status == 0
    assert os.path.exists(out)


# -- consistency validates what it is given -----------------------------------------------

@pytest.mark.parametrize("observable", NOT_HERMITIAN.values(), ids=NOT_HERMITIAN.keys())
def test_consistency_rejects_non_hermitian_observable(tmp_path, capsys, observable):
    doc = {"command": "consistency",
           "params": {"beta": 0.2, "ell": 40.0, "observable": observable}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "observable Hermiticity defect" in err
    assert not os.path.exists(out)


def test_dissipative_consistency_rejects_unitary_only_keys(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "_expm", _started)
    doc = {"command": "consistency",
           "params": {"beta": 0.01, "ell": 3000.0, "gamma": 1.0,
                      "h": SIGMA_Z, "observable": SIGMA_Z}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert err == ("ERROR validation failure: config key(s) ['h', 'observable'] apply only to "
                   "the unitary check (gamma = 0); the dissipative run would ignore them\n")
    assert not os.path.exists(out)


# -- states and densities are inputs ------------------------------------------------------

NOT_A_DENSITY = {
    "trace-1.4": [[[0.7, 0], [0, 0]], [[0, 0], [0.7, 0]]],
    "not-positive": [[[0.5, 0], [0.6, 0]], [[0.6, 0], [0.5, 0]]],
    "not-hermitian": [[[0.5, 0], [0.5, 0.1]], [[0.5, 0], [0.5, 0]]],
}
EYE3 = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]


@pytest.mark.parametrize("rho0", NOT_A_DENSITY.values(), ids=NOT_A_DENSITY.keys())
def test_rho0_that_is_not_a_density_exits_1(tmp_path, capsys, rho0):
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0, "rho0": rho0}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure" in err and "rho0 is not a density matrix" in err
    assert not os.path.exists(out)


# entries near the float limit, whose trace or Hermiticity defect overflows
NEAR_LIMIT_RHO0 = {
    "diagonal-1e308": ([[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]],
                       "trace inf+0j deviates from 1 by inf"),
    "off-diagonal-1.7e308": ([[[0.5, 0], [1.7e308, 1.7e308]], [[-1.7e308, -1.7e308], [0.5, 0]]],
                             "Hermiticity defect inf exceeds tolerance 1.0e-09"),
}


@pytest.mark.parametrize("rho0, message", NEAR_LIMIT_RHO0.values(), ids=NEAR_LIMIT_RHO0.keys())
def test_rho0_near_the_float_limit_exits_1_without_a_warning(tmp_path, capsys, rho0, message):
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0, "rho0": rho0}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning ahead of the refusal
        status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert err == f"ERROR validation failure: rho0 is not a density matrix: {message}\n"
    assert not os.path.exists(out)


def test_rho0_stack_exits_1(tmp_path, capsys):
    plus = [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0, "rho0": [plus, plus]}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "'rho0' must be a square matrix of [re, im] pairs, got shape (2, 2, 2, 2)" in err
    assert not os.path.exists(out)


def test_rho0_stack_is_refused_past_the_config_check():
    # lindblad_propagate takes stacks of offsets, never a stack of initial states
    with pytest.raises(ValidationError, match=r"square matrix, got shape \(2, 2, 2\)"):
        lindblad_propagate(np.array([initial_state()] * 2), dephasing_model(1.0), 1.0)


@pytest.mark.parametrize(
    "command, params",
    [("qsd-ensemble", {"gamma": 1.0, "span": 1.0, "n_traj": 10}),
     ("consistency", {"beta": 0.2, "ell": 40.0})],
    ids=["qsd-ensemble", "unitary-consistency"],
)
def test_zero_psi0_exits_1(tmp_path, capsys, command, params):
    doc = {"command": command, "params": {**params, "psi0": [[0, 0], [0, 0]]}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure" in err and "state norm 0 deviates from 1" in err
    assert not os.path.exists(out)


def test_near_unit_psi0_is_accepted_with_a_unit_trace_reference(tmp_path, capsys):
    # |psi0| is within TOL of 1, so psi0 is valid; |psi0><psi0| would have a
    # trace 1.6e-9 off 1, and refusing it would name an rho0 never given
    doc = {"command": "qsd-ensemble", "format": "json",
           "params": {"gamma": 1.0, "span": 0.1, "n_traj": 10, "psi0": [[1.0000000008, 0], [0, 0]]}}
    status, err, out = run_doc(tmp_path, {**doc, "output_path": str(tmp_path / "r.json")}, capsys)
    assert status == 0, err
    with open(out, encoding="utf-8") as fh:
        rho = json.load(fh)["results"]["rho_lindblad"]["entries_row_major"]
    assert abs(rho[0][0][0] + rho[1][1][0] - 1.0) <= 1e-15


@pytest.mark.parametrize("params", [{"psi0": [[1, 0], [0, 0], [0, 0]]}, {"h": EYE3}],
                         ids=["psi0-dim-3", "h-dim-3"])
def test_unitary_consistency_dimension_mismatch_exits_1(tmp_path, capsys, params):
    doc = {"command": "consistency", "params": {"beta": 0.2, "ell": 40.0, **params}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure" in err and "dimension mismatch" in err
    assert "matmul" not in err
    assert not os.path.exists(out)


# -- inputs that used to end in a traceback ----------------------------------------------

def test_config_without_a_command_is_refused():
    with pytest.raises(ValidationError, match="^no command given"):
        parse_config(json.dumps({"params": {"gamma": 1.0, "span": 1.0}}))


def test_int_beyond_float_range_is_rejected():
    for doc in (
        {"command": "counterexample", "params": {"beta": 10**400, "ell": 1, "gamma": 1}},
        {"command": "lindblad",
         "params": {"gamma": 1, "span": 1, "rho0": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]}},
    ):
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))


@pytest.mark.parametrize("gamma, span", [(1e200, 1e200), (1e300, 1e10), (1e155, 1e155)])
def test_exact_propagator_overflow_exits_2(tmp_path, capsys, gamma, span):
    doc = {"command": "lindblad", "params": {"gamma": gamma, "span": span}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 2
    assert "numerical invariant breach" in err and "overflows" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning ahead of the refusal
        with pytest.raises(NumericalError, match="overflows"):
            lindblad_propagate(initial_state(), dephasing_model(gamma), span)


@pytest.mark.parametrize(
    "doc",
    [
        {"command": "lindblad",
         "params": {"gamma": 1.0, "span": 1e300, "method": "rk4", "step": 1e-300}},
        {"command": "counterexample",
         "params": {"beta": 0.5, "ell": 1e300, "gamma": 1.0, "method": "rk4", "step": 1e-300}},
        {"command": "qsd-ensemble",
         "params": {"gamma": 1.0, "span": 1e300, "step": 1e-300, "n_traj": 1}},
        # the default step 0.01/gamma: the plan is refused before the Lindblad
        # reference, whose propagation would overflow (lindblad exits 2 at this
        # gamma and span)
        {"command": "qsd-ensemble", "params": {"gamma": 1e300, "span": 1e10, "n_traj": 1}},
    ],
    ids=["lindblad-rk4", "counterexample-rk4", "qsd-ensemble", "qsd-ensemble-before-reference"],
)
def test_non_finite_step_count_exits_1(tmp_path, capsys, doc):
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure" in err and "has no finite step count" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_lindblad_rk4_step_count_is_refused_before_any_offset_runs(tmp_path, capsys, monkeypatch):
    # span/step overflows from the offset 1.8e298 on, the 360th of 2000
    def no_work(*args):
        raise AssertionError("an offset was propagated before the step counts were checked")

    monkeypatch.setattr(dynamics, "_rk4_propagator", no_work)
    doc = {"command": "lindblad", "params": {"gamma": 1e-9, "span": 1e299, "method": "rk4",
                                             "step": 1e-10, "samples": 2000}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "span/step = 1.8e+298/1e-10 has no finite step count" in err
    assert not os.path.exists(out)


# a0 = ell*beta/c beyond the float range: at c = 1e-320 directly, and in the
# sweep through the rescaled ell = a0*c/beta = 5e309
@pytest.mark.parametrize(
    "doc",
    [
        {"command": "counterexample",
         "params": {"beta": 0.5, "ell": 2.0, "gamma": 1.0, "c": 1e-320}},
        {"command": "counterexample",
         "params": {"beta": 0.5, "ell": 2.0, "gamma": 0.0, "c": 1e-320}},
        {"command": "consistency",
         "params": {"beta": 0.5, "ell": 2.0, "gamma": 0.0, "c": 1e-320}},
        {"command": "sweep",
         "params": {"beta": 0.5, "ell": 1e300, "gamma": 1.0, "betas": [1e-10]}},
    ],
    ids=["counterexample", "counterexample-unitary", "unitary-consistency", "sweep"],
)
def test_non_finite_coincidence_offset_exits_1(tmp_path, capsys, doc):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure" in err and "coincidence offset" in err and "not finite" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_sweep_refuses_every_beta_before_it_runs_one(tmp_path, capsys, monkeypatch):
    # beta = 0.01 is fine; 1e-320 rescales ell to a0*c/beta = inf
    calls, expm = [], dynamics._expm
    monkeypatch.setattr(dynamics, "_expm", lambda *args: calls.append(args) or expm(*args))
    doc = {"command": "sweep",
           "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0, "betas": [0.01, 1e-320]}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure: coincidence offset" in err and "not finite" in err
    assert calls == []
    assert not os.path.exists(out)


def test_finite_coincidence_offset_whose_exponent_overflows_exits_2(tmp_path, capsys):
    doc = {"command": "counterexample",
           "params": {"beta": 0.5, "ell": 2.0, "gamma": 1e300, "c": 1e-10}}  # a0 = 1e10
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 2
    assert "numerical invariant breach" in err and "overflows" in err
    assert not os.path.exists(out)


def test_unrenormalized_ensemble_whose_norm_overflows_exits_2(tmp_path, capsys):
    doc = {"command": "qsd-ensemble",
           "params": {"gamma": 100.0, "span": 200.0, "step": 0.05, "n_traj": 10,
                      "renormalize": False}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 2
    assert "numerical invariant breach" in err and "trajectory norm is" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not os.path.exists(out)


def test_ensemble_whose_drift_matrix_overflows_exits_2_with_two_lines(tmp_path, capsys):
    # G = 1 + step*(-iH - gamma/2 |0><0|) overflows as it is planned; the
    # step refuses the NaN norm, and numpy's overflow warning never shows
    doc = {"command": "qsd-ensemble",
           "params": {"gamma": 1e300, "span": 1e10, "step": 1e10, "n_traj": 2}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 2 and not os.path.exists(out)
    assert err == ("WARNING step*max||L^dag L|| = inf exceeds 0.1; stochastic integration "
                   "error may dominate\n"
                   "ERROR numerical invariant breach: trajectory norm is nan\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _unallocatable(*args, **kwargs):
    # 1 EiB is more than any address space holds, so the allocation fails at
    # once without touching memory
    return np.empty(2**60, dtype=np.uint8)


@pytest.mark.parametrize(
    "doc",
    [
        {"command": "qsd-ensemble", "params": {"gamma": 1.0, "span": 1.0, "n_traj": 10}},
        {"command": "counterexample",
         "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0, "qsd": {"n_traj": 10}}},
    ],
    ids=["qsd-ensemble", "counterexample-qsd"],
)
def test_ensemble_too_large_to_allocate_exits_1(tmp_path, capsys, monkeypatch, doc):
    # the ensemble's first allocation of a size set by n_traj fails
    monkeypatch.setattr(rng, "stream_keys", _unallocatable)
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "too large to allocate" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("span", [1e8, 1e10, 1e12])
def test_exact_propagation_at_large_norm_keeps_the_trace(tmp_path, capsys, span):
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": span}, "format": "json"}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 0, err
    with open(out, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    assert results["rho_final"]["entries_row_major"] == [[[0.5, 0.0], [0.0, 0.0]],
                                                         [[0.0, 0.0], [0.5, 0.0]]]
    (point,) = results["points"]
    assert point["abs_error"] == 0.0 and point["trace_distance"] == 0.0
    doc = {"command": "counterexample", "params": {"beta": 0.1, "ell": span * 10, "gamma": 1.0},
           "format": "json"}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 0, err
    with open(out, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    assert (results["expectation_R"], results["discrepancy"]) == (0.0, 1.0)


@pytest.mark.parametrize("command, params", [
    ("lindblad", {"gamma": 1e308, "span": 0.5}),
    ("counterexample", {"beta": 0.5, "ell": 1.0, "gamma": 1e308}),
], ids=["lindblad", "counterexample"])
def test_gamma_near_the_float_limit_decoheres_without_a_warning(tmp_path, capsys, command, params):
    # the Liouvillian's dissipator terms each fit the float range; their sum does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, err, out = run_doc(tmp_path, {"command": command, "params": params,
                                              "format": "json"}, capsys)
    assert status == 0, err
    with open(out, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    rho = results["rho_final"] if command == "lindblad" else results["rho_R"]
    assert rho["entries_row_major"] == [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


def test_output_path_with_nul_is_rejected():
    doc = {"command": "lindblad", "params": {"gamma": 1, "span": 1}, "output_path": "a\0b"}
    with pytest.raises(ValidationError, match="output_path"):
        parse_config(json.dumps(doc))


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b'{"command": "lindblad", "params": {"gamma": 1, "span": 1}} \xff')
    assert main(["lindblad", "--config", str(cfg_path)]) == 1
    assert "cannot read config" in capsys.readouterr().err


def run_text(tmp_path, capsys, text):
    """Exit status and stderr of one CLI run on the config text."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text, encoding="utf-8")
    status = main(["lindblad", "--config", str(cfg_path)])
    return status, capsys.readouterr().err


def test_config_nested_too_deep_exits_1(tmp_path, capsys):
    status, err = run_text(tmp_path, capsys, "[" * 10**5 + "]" * 10**5)
    assert status == 1
    assert err.startswith("qfoliation: invalid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["config.json"]


def test_config_integer_over_the_digit_limit_exits_1(tmp_path, capsys):
    text = '{"command": "lindblad", "params": {"gamma": ' + "9" * 5000 + ', "span": 1}}'
    status, err = run_text(tmp_path, capsys, text)
    assert status == 1
    assert err.startswith("qfoliation: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("name", ["open", "parse_config"], ids=["read", "parse"])
def test_config_too_large_to_read_exits_1(tmp_path, capsys, monkeypatch, name):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, name, out_of_memory, raising=False)
    status, err = run_text(tmp_path, capsys, json.dumps(LINDBLAD))
    assert status == 1
    assert err == "qfoliation: config too large to read\n"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("name", ["open", "parse_config"], ids=["read", "parse"])
def test_interrupt_while_reading_config_exits_130(tmp_path, capsys, monkeypatch, name):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, name, interrupted, raising=False)
    try:
        status, err = run_text(tmp_path, capsys, json.dumps(LINDBLAD))
    except KeyboardInterrupt:
        pytest.fail("Ctrl-C escaped main")
    assert status == 130
    assert err == "qfoliation: interrupted\n"
    assert os.listdir(tmp_path) == ["config.json"]


# gamma 5e-324 takes 1e-3/gamma and 0.01/gamma past the float range, and
# span 5e-324 takes span/100 to zero
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command, params",
    [
        ("counterexample", {"beta": 0.25, "ell": 2.0, "gamma": 5e-324}),
        ("counterexample", {"beta": 0.25, "ell": 2.0, "gamma": 5e-324, "method": "rk4"}),
        ("consistency", {"beta": 0.25, "ell": 2.0, "gamma": 5e-324}),
        ("lindblad", {"gamma": 5e-324, "span": 1.0}),
        ("lindblad", {"gamma": 5e-324, "span": 1.0, "method": "rk4"}),
        ("qsd-ensemble", {"gamma": 5e-324, "span": 1.0, "n_traj": 2}),
        ("qsd-ensemble", {"gamma": 0, "span": 5e-324, "n_traj": 2}),
    ],
    ids=["counterexample", "counterexample-rk4", "consistency", "lindblad", "lindblad-rk4",
         "qsd-ensemble", "qsd-ensemble-tiny-span"],
)
def test_derived_default_step_is_finite_and_positive(tmp_path, capsys, command, params, fmt):
    doc = {"command": command, "params": params, "format": fmt}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 0, err
    with open(out, encoding="utf-8") as fh:
        assert 0.0 < embedded_config(fh.read(), fmt)["params"]["step"] < math.inf


def test_zero_span_lindblad_keeps_the_sign_of_each_zero_in_rho0(tmp_path, capsys):
    # a zero offset returns rho0 itself; a propagator product would turn -0.0 into 0.0
    rho0 = [[[0.5, 0], [-0.0, -0.125]], [[-0.0, 0.125], [0.5, 0]]]
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 0, "rho0": rho0},
           "format": "json"}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 0, err
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    resolved = json.dumps(report["config"]["params"]["rho0"])
    assert "-0.0" in resolved
    assert json.dumps(report["results"]["rho_final"]["entries_row_major"]) == resolved


def test_config_echo_keeps_a_negative_zero_real_part_beside_a_positive_imaginary_part(
        tmp_path, capsys):
    # re + 1j*im turns the real part of [-0.0, 0.125] into +0.0, but not that of [-0.0, -0.125]
    rho0 = [[[0.5, 0], [-0.0, -0.125]], [[-0.0, 0.125], [0.5, 0]]]
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 0, "rho0": rho0},
           "format": "json"}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 0, err
    with open(out, encoding="utf-8") as fh:
        echoed = json.load(fh)["config"]["params"]["rho0"]
    expected = [[[float(x) for x in pair] for pair in row] for row in rho0]
    assert json.dumps(echoed) == json.dumps(expected)


# -- flags resolve through the schema --------------------------------------------------

LINDBLAD = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0}}


def run_flags(tmp_path, doc, *flags):
    (tmp_path / "c.json").write_text(json.dumps(doc), encoding="utf-8")
    return main([doc["command"], "--config", "c.json", *flags])


def test_format_flag_sets_the_default_output_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_flags(tmp_path, LINDBLAD, "--format", "json") == 0
    assert sorted(os.listdir(tmp_path)) == ["c.json", "lindblad_report.json"]
    report = json.loads((tmp_path / "lindblad_report.json").read_text(encoding="utf-8"))
    assert report["config"]["format"] == "json"
    assert report["config"]["output_path"] == "lindblad_report.json"


def test_negative_seed_flag_gets_the_schema_message(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_flags(tmp_path, LINDBLAD, "--seed", "-1") == 1
    assert "config key 'seed' must be >= 0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


def test_seed_flag_replaces_an_invalid_document_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_flags(tmp_path, {**LINDBLAD, "seed": "abc"}, "--seed", "3") == 0
    assert "seed: 3" in capsys.readouterr().out


# -- every run ends ---------------------------------------------------------------------


def _started(*args, **kwargs):
    raise RuntimeError("the run started the work that its ceiling refuses")


@pytest.mark.parametrize(
    "doc, product",
    [
        ({"command": "qsd-ensemble",
          "params": {"gamma": 1.0, "span": 1e6, "step": 1e-9, "n_traj": 1}},
         "n_traj * steps = 1 * 1000000000000000 = 1e+15 trajectory-steps"),
        ({"command": "counterexample",
          "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0, "qsd": {"n_traj": 10, "step": 1e-9}}},
         "n_traj * steps = 10 * 30000000000 = 3e+11 trajectory-steps"),
        # one trajectory of 10^9 steps, 6-10 h: a step costs what 10^3 trajectories do
        ({"command": "qsd-ensemble",
          "params": {"gamma": 1.0, "span": 1e6, "step": 1e-3, "n_traj": 1}},
         "n_traj * steps = 1 * 1000000000 = 1e+09 trajectory-steps, counted at 1000 trajectories"),
        # 10**15 trajectories, whose stream indices alone would take 7 PiB
        ({"command": "qsd-ensemble", "params": {"gamma": 1.0, "span": 1.0, "n_traj": 10**15}},
         "n_traj * steps = 1000000000000000 * 100 = 1e+17 trajectory-steps"),
        ({"command": "counterexample",
          "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0, "qsd": {"n_traj": 10**15}}},
         "n_traj * steps = 1000000000000000 * 3000 = 3e+18 trajectory-steps"),
        ({"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0, "samples": 10**9}},
         "samples = 1000000000 offsets"),
        ({"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0, "samples": 10**6 + 1}},
         "samples = 1000001 offsets"),
        # more trajectories than a C length holds: compared as Python ints
        ({"command": "qsd-ensemble", "params": {"gamma": 1.0, "span": 1.0, "n_traj": 10**400}},
         f"n_traj * steps = {10**400} * 100 = over 1e+300 trajectory-steps"),
        ({"command": "counterexample",
          "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0, "qsd": {"n_traj": 10**400}}},
         f"n_traj * steps = {10**400} * 3000 = over 1e+300 trajectory-steps"),
        # at a0 = 0 no step is taken, but each trajectory still counts as one
        ({"command": "counterexample",
          "params": {"beta": 0.0, "ell": 3000, "gamma": 1.0, "qsd": {"n_traj": 10**400}}},
         f"n_traj * steps = {10**400} * 1 = over 1e+300 trajectory-steps"),
        ({"command": "counterexample",
          "params": {"beta": 0.0, "ell": 3000, "gamma": 1.0, "qsd": {"n_traj": 2 * 10**10}}},
         "n_traj * steps = 20000000000 * 1 = 2e+10 trajectory-steps"),
    ],
    ids=["qsd-ensemble", "counterexample-qsd", "qsd-ensemble-one-traj-1e9-steps",
         "qsd-ensemble-1e15-traj", "counterexample-qsd-1e15-traj", "lindblad-samples",
         "lindblad-samples-memory",
         "qsd-ensemble-1e400-traj", "counterexample-qsd-1e400-traj",
         "counterexample-qsd-1e400-traj-at-a0-0", "counterexample-qsd-2e10-traj-at-a0-0"],
)
def test_run_over_its_work_ceiling_exits_1_before_it_starts(tmp_path, capsys, monkeypatch,
                                                            doc, product):
    # a QSD run makes its stream keys (its first allocation of its size) and
    # draws noise, a lindblad run takes the closed form: a run that gets
    # that far was not refused
    monkeypatch.setattr(rng, "stream_keys", _started)
    monkeypatch.setattr(rng, "wiener_block", _started)
    monkeypatch.setattr(scenarios, "lindblad_exact_twolevel", _started)
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure" in err and product in err and "exceeds the work ceiling" in err
    assert not os.path.exists(out)


def test_lindblad_whose_last_offset_overflows_exits_1_before_any_offset(tmp_path, capsys,
                                                                        monkeypatch):
    monkeypatch.setattr(scenarios, "lindblad_propagate", _started)
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1e308, "samples": 2}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure: span * samples = 1e+308 * 2 is not finite" in err
    assert not os.path.exists(out)


# -- refusals of the schema and the parameter dataclasses -------------------------------

QSD = {"gamma": 1.0, "span": 1.0, "n_traj": 2}
COUNTEREXAMPLE = {"beta": 0.01, "ell": 3000, "gamma": 1.0}


@pytest.mark.parametrize(
    "command, params, line",
    [
        ("qsd-ensemble", {**QSD, "renormalize": 1},
         "qfoliation: config key 'renormalize' must be a boolean"),
        ("sweep", {**COUNTEREXAMPLE, "betas": []},
         "ERROR validation failure: betas must be non-empty"),
        ("sweep", {**COUNTEREXAMPLE, "betas": 0.1},
         "qfoliation: config key 'betas' must be a list"),
        ("qsd-ensemble", {**QSD, "span": 0},
         "ERROR validation failure: span must be positive, got 0"),
        # a range of the nested qsd block is refused by the run, as in the table below
        ("counterexample", {**COUNTEREXAMPLE, "qsd": {"n_traj": 2, "seed": -1}},
         "ERROR validation failure: qsd seed must be non-negative, got -1"),
        ("counterexample", {**COUNTEREXAMPLE, "qsd": {"n_traj": 2, "step": 0}},
         "ERROR validation failure: qsd step must be positive, got 0"),
    ],
    ids=["renormalize-not-bool", "betas-empty", "betas-not-list", "qsd-ensemble-span-0",
         "counterexample-qsd-seed", "counterexample-qsd-step"],
)
def test_refused_config_exits_1_with_its_message(tmp_path, capsys, command, params, line):
    status, err, out = run_doc(tmp_path, {"command": command, "params": params}, capsys)
    assert status == 1
    assert err.startswith(line) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not os.path.exists(out)


LINDBLAD_PARAMS = {"gamma": 1.0, "span": 1.0}
RHO0_DIM_3 = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]


# Parsing only decodes: each range is refused by the scenario that the
# command runs, with the scenario's message, after the seed line
@pytest.mark.parametrize(
    "command, params, message",
    [
        ("lindblad", {**LINDBLAD_PARAMS, "gamma": -1}, "gamma must be non-negative, got -1"),
        ("lindblad", {**LINDBLAD_PARAMS, "span": -1}, "span must be non-negative, got -1"),
        ("lindblad", {**LINDBLAD_PARAMS, "samples": 0}, "samples must be >= 1, got 0"),
        ("lindblad", {**LINDBLAD_PARAMS, "method": "x"},
         "unknown method 'x', expected 'exact' or 'rk4'"),
        ("lindblad", {**LINDBLAD_PARAMS, "step": 0}, "step must be positive, got 0"),
        ("lindblad", {**LINDBLAD_PARAMS, "rho0": RHO0_DIM_3}, "dimension mismatch: (3, 3) vs (2, 2)"),
        ("qsd-ensemble", {**QSD, "gamma": -1}, "gamma must be non-negative, got -1"),
        ("qsd-ensemble", {**QSD, "n_traj": 0}, "need at least one trajectory, got 0"),
        ("qsd-ensemble", {**QSD, "step": 0}, "step must be positive, got 0"),
        # gamma*a0 = 3, whose "reduction is incomplete" warning comes after the refusal
        ("sweep", {"beta": 0.01, "ell": 300, "gamma": 1.0, "betas": [0.001],
                   "k_correction": EYE3}, "K shape (3, 3) != H shape (2, 2)"),
        ("counterexample", {**COUNTEREXAMPLE, "beta": 1.5}, "|beta| = 1.5 >= 1"),
        ("counterexample", {**COUNTEREXAMPLE, "c": 0}, "c must be positive, got 0"),
        ("counterexample", {**COUNTEREXAMPLE, "step": 0}, "step must be positive, got 0"),
        ("counterexample", {**COUNTEREXAMPLE, "qsd": {"n_traj": 2, "seed": -1}},
         "qsd seed must be non-negative, got -1"),
        ("counterexample", {**COUNTEREXAMPLE, "qsd": {"n_traj": 2, "step": 0}},
         "qsd step must be positive, got 0"),
        ("consistency", {**COUNTEREXAMPLE, "gamma": -1}, "gamma must be non-negative, got -1"),
        # the unitary check uses neither method nor step, but a bad one is still refused
        ("consistency", {"beta": 0.2, "ell": 40.0, "gamma": 0, "method": "x"},
         "method must be 'exact' or 'rk4', got 'x'"),
    ],
    ids=["lindblad-gamma", "lindblad-span", "lindblad-samples-0", "lindblad-method",
         "lindblad-step-0", "lindblad-rho0-dim-3", "qsd-ensemble-gamma", "qsd-ensemble-n_traj-0",
         "qsd-ensemble-step-0", "sweep-k_correction-dim-3", "counterexample-beta-1.5",
         "counterexample-c", "counterexample-step", "counterexample-qsd-seed",
         "counterexample-qsd-step", "consistency-gamma", "unitary-consistency-method"],
)
def test_range_is_refused_by_its_scenario_after_the_seed_line(tmp_path, capsys, monkeypatch,
                                                              command, params, message):
    for module, name in ((dynamics, "_expm"), (dynamics, "_rk4_propagator"),
                         (rng, "stream_keys")):
        monkeypatch.setattr(module, name, _started)
    out = tmp_path / "report.csv"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"command": command, "params": params,
                                    "output_path": str(out)}), encoding="utf-8")
    assert main([command, "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "seed: 0\n"
    assert captured.err == f"ERROR validation failure: {message}\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_zero_step_counterexample_logs_no_coarse_step_warning(tmp_path, capsys):
    # at beta = 0 the QSD run takes no step, whatever the default step of 1.0
    doc = {"command": "counterexample",
           "params": {"beta": 0.0, "ell": 3000, "gamma": 1.0, "qsd": {"n_traj": 10}}}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 0, err
    assert not [line for line in err.splitlines() if line.startswith("WARNING")]
    assert os.path.exists(out)


def test_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("[1, 2]", encoding="utf-8")
    assert main(["lindblad", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "qfoliation: config document must be a JSON object, got list\n"
    assert os.listdir(tmp_path) == ["config.json"]


# -- a failure while the report is written ----------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_value_late_in_the_report_exits_2_and_leaves_nothing(tmp_path, capsys,
                                                                         monkeypatch, fmt):
    def late_nan(rhos, refs):
        dist = trace_distance(rhos, refs)
        dist[-3] = np.nan
        return dist

    written, os_unlink = [], os.unlink

    def unlink(path):  # the size of the temp file when the failed write removes it
        written.append(os.path.getsize(path))
        os_unlink(path)

    monkeypatch.setattr(scenarios, "trace_distance", late_nan)
    monkeypatch.setattr(os, "unlink", unlink)
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 3.0, "samples": 400},
           "format": fmt}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 2
    assert "numerical invariant breach: non-finite value in report" in err
    assert os.listdir(tmp_path) == ["config.json"]
    # the rows before the bad one were already in the temp file
    assert len(written) == 1 and written[0] > 10_000


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_first_non_finite_value_in_row_order_is_named(tmp_path, capsys, monkeypatch, fmt):
    # one chunk: the NaN is in the first column and the inf in the second, but
    # the inf's row comes first
    first, second = np.zeros(300), np.zeros(300)
    first[7], second[3] = np.nan, np.inf
    monkeypatch.setitem(cli._RUNNERS, "lindblad",
                        lambda cfg: {"points": {"a": first, "b": second}})
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0}, "format": fmt}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 2
    assert "ERROR numerical invariant breach: non-finite value in report: inf" in err.splitlines()
    assert not os.path.exists(out)


@pytest.mark.parametrize(("fmt", "named"), [("csv", "-inf"), ("json", "nan")])
def test_the_first_non_finite_value_of_a_row_is_named_in_the_formats_column_order(
        tmp_path, capsys, monkeypatch, fmt, named):
    # CSV writes the columns as given, JSON in sorted key order
    b, a = np.zeros(300), np.zeros(300)
    b[260], a[260] = -np.inf, np.nan
    monkeypatch.setitem(cli._RUNNERS, "lindblad", lambda cfg: {"points": {"b": b, "a": a}})
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0}, "format": fmt}
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 2
    line = f"ERROR numerical invariant breach: non-finite value in report: {named}"
    assert err.splitlines() == [line]
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["point", "result"])
def test_json_names_the_non_finite_value_as_csv_does(tmp_path, capsys, monkeypatch, where, value):
    # json's own ValueError text names the value on Python 3.12 and later only
    column = np.array([0.5, value, 0.25])
    results = ({"points": {"a": column}} if where == "point"
               else {"points": {"a": np.ones(3)}, "summary": {"x": 1.0, "y": [2.0, float(value)]}})
    monkeypatch.setitem(cli._RUNNERS, "lindblad", lambda cfg: results)
    doc = {"command": "lindblad", "params": {"gamma": 1.0, "span": 1.0}, "format": "json"}
    status, err, _ = run_doc(tmp_path, doc, capsys)
    assert status == 2
    line = f"ERROR numerical invariant breach: non-finite value in report: {float(value)!r}"
    assert err.splitlines() == [line]


# -- Ctrl-C -----------------------------------------------------------------------------


def test_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._RUNNERS, "lindblad", interrupted)
    status, err, out = run_doc(tmp_path, LINDBLAD, capsys)
    assert status == 130
    assert err == "qfoliation: interrupted\n"
    assert not os.path.exists(out)
