"""Malformed inputs exit 1 with a message that names the problem."""

import json
import os
import warnings

import pytest

from qfoliation.cli import main, parse_config
from qfoliation.dynamics import lindblad_propagate
from qfoliation.errors import NumericalError, ValidationError
from qfoliation.scenarios import dephasing_model, initial_state

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
    assert not (tmp_path / "missing").exists()


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


def test_dissipative_consistency_rejects_unitary_only_keys():
    doc = {"command": "consistency",
           "params": {"beta": 0.01, "ell": 3000.0, "gamma": 1.0,
                      "h": SIGMA_Z, "observable": SIGMA_Z}}
    with pytest.raises(ValidationError, match=r"\['h', 'observable'\].*unitary check"):
        parse_config(json.dumps(doc))


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
    ],
    ids=["lindblad-rk4", "counterexample-rk4", "qsd-ensemble"],
)
def test_non_finite_step_count_exits_1(tmp_path, capsys, doc):
    status, err, out = run_doc(tmp_path, doc, capsys)
    assert status == 1
    assert "validation failure" in err and "has no finite step count" in err
    assert "Traceback" not in err
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


# 10**15 trajectories need 7 PiB for their stream indices alone, more than any
# address space holds, so the allocation fails at once without touching memory
@pytest.mark.parametrize(
    "doc",
    [
        {"command": "qsd-ensemble", "params": {"gamma": 1.0, "span": 1.0, "n_traj": 10**15}},
        {"command": "counterexample",
         "params": {"beta": 0.01, "ell": 3000, "gamma": 1.0, "qsd": {"n_traj": 10**15}}},
    ],
    ids=["qsd-ensemble", "counterexample-qsd"],
)
def test_ensemble_too_large_to_allocate_exits_1(tmp_path, capsys, doc):
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


def test_output_path_with_nul_is_rejected():
    doc = {"command": "lindblad", "params": {"gamma": 1, "span": 1}, "output_path": "a\0b"}
    with pytest.raises(ValidationError, match="output_path"):
        parse_config(json.dumps(doc))


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b'{"command": "lindblad", "params": {"gamma": 1, "span": 1}} \xff')
    assert main(["lindblad", "--config", str(cfg_path)]) == 1
    assert "cannot read config" in capsys.readouterr().err


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
