import ast
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qfoliation import dynamics, rng, scenarios
from qfoliation.dynamics import (
    TrajectoryConfig,
    ensemble_density,
    ensemble_final_states,
    lindblad_exact_twolevel,
    lindblad_propagate,
    mean_projector,
    qsd_trajectory,
)
from qfoliation.errors import ValidationError
from qfoliation.linalg import (
    density_from_state,
    expectation,
    purity,
    trace_distance,
    validate_density,
)
from qfoliation.scenarios import (
    CounterexampleParams,
    QsdSettings,
    dephasing_model,
    initial_state,
    initial_state_vector,
    lindblad_scan,
    run_consistency,
    run_counterexample,
    run_qsd,
    spin_observable,
    sweep_velocity,
)
from _checks import SX, SY, SZ, ZERO2, contains_event

HEADLINE = CounterexampleParams(beta=0.01, ell=3000.0, gamma=1.0)


# -- the public functions --------------------------------------------------------

def test_public_functions_are_the_scenarios_and_their_fixed_operators():
    # one function per command's check, with no public helper beside it
    tree = ast.parse(Path(scenarios.__file__).read_text(encoding="utf-8"))
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert public == {"lindblad_scan", "run_qsd", "run_counterexample", "run_consistency",
                      "sweep_velocity", "dephasing_model", "spin_observable", "initial_state",
                      "initial_state_vector"}


# -- fixed operators ------------------------------------------------------------

def test_spin_observable_expectations():
    a = spin_observable()
    assert expectation(a, initial_state()) == pytest.approx(1.0, abs=1e-12)
    assert expectation(a, np.diag([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)


def test_spin_observable_squares_to_identity():
    a = spin_observable()
    np.testing.assert_array_equal(a @ a, np.eye(2))
    assert sorted(np.linalg.eigvalsh(a)) == pytest.approx([-1.0, 1.0])


def test_initial_state_is_valid_pure_superposition():
    rho = initial_state()
    validate_density(rho)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho, density_from_state(initial_state_vector()), atol=1e-15)


# -- parameter validation ----------------------------------------------------------

def test_params_reject_superluminal():
    with pytest.raises(ValidationError, match=r"^\|beta\| = 1.5 >= 1$"):
        CounterexampleParams(beta=1.5, ell=10.0, gamma=1.0)


def test_params_reject_bad_ell_gamma_method():
    with pytest.raises(ValidationError):
        CounterexampleParams(beta=0.1, ell=0.0, gamma=1.0)
    with pytest.raises(ValidationError):
        CounterexampleParams(beta=0.1, ell=1.0, gamma=-1.0)
    with pytest.raises(ValidationError):
        CounterexampleParams(beta=0.1, ell=1.0, gamma=1.0, method="euler")
    with pytest.raises(ValidationError):
        QsdSettings(n_traj=0, seed=1)


@pytest.mark.parametrize(("field", "message"), [
    ("beta", r"^\|beta\| = nan >= 1$"),
    ("ell", "^ell must be positive, got nan$"),
    ("gamma", "^gamma must be non-negative, got nan$"),
    ("step", "^step must be positive, got nan$"),
    ("c", "^c must be positive, got nan$"),
], ids=["beta", "ell", "gamma", "step", "c"])
def test_params_refuse_nan(field, message):
    with pytest.raises(ValidationError, match=message):
        replace(HEADLINE, **{field: math.nan})


def test_qsd_settings_refuse_a_nan_step():
    with pytest.raises(ValidationError, match="^qsd step must be positive, got nan$"):
        QsdSettings(n_traj=1, seed=0, step=math.nan)


@pytest.mark.parametrize(("field", "message"), [
    ("gamma", "^gamma must be non-negative, got inf$"),
    ("step", "^step must be positive, got inf$"),
], ids=["gamma", "step"])
def test_params_refuse_inf(field, message):
    # an infinite gamma would fail later, in GeneratorSet, without naming gamma
    with pytest.raises(ValidationError, match=message):
        replace(HEADLINE, **{field: math.inf})


@pytest.mark.parametrize("step", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_qsd_settings_refuse_an_infinite_step(step):
    with pytest.raises(ValidationError, match=f"^qsd step must be positive, got {step}$"):
        QsdSettings(n_traj=1, seed=0, step=step)


def test_params_reject_negative_beta():
    with pytest.raises(ValidationError, match="negative coincidence offset"):
        CounterexampleParams(beta=-0.01, ell=3000.0, gamma=1.0)
    with pytest.raises(ValidationError, match="beta must be non-negative"):
        sweep_velocity(HEADLINE, [0.01, -0.01])


# -- the counter-example -------------------------------------------------------------

def test_counterexample_headline_numbers():
    report = run_counterexample(HEADLINE)
    assert report.a0 == pytest.approx(30.0)
    assert report.expectation_M == 1.0
    assert abs(report.expectation_R) <= 1e-6
    assert report.discrepancy == pytest.approx(1.0, abs=1e-6)
    assert report.offdiag_final == pytest.approx(0.5 * math.exp(-15.0), rel=1e-9)


def test_counterexample_observers_disagree_about_one_event():
    report = run_counterexample(HEADLINE)
    # the same event lies on both measurement hyperplanes
    from qfoliation.foliation import FourVector, Hyperplane, frame_normal

    event = FourVector(report.a0, HEADLINE.ell)
    assert contains_event(Hyperplane(FourVector(1.0), report.a0), event)
    assert contains_event(Hyperplane(frame_normal(HEADLINE.beta), 0.0), event)


def test_counterexample_gamma_zero_is_consistent():
    report = run_counterexample(CounterexampleParams(beta=0.01, ell=3000.0, gamma=0.0))
    assert report.expectation_R == pytest.approx(1.0, abs=1e-12)
    assert report.expectation_M == 1.0
    assert abs(report.discrepancy) <= 1e-9


def test_counterexample_beta_zero_observers_coincide():
    report = run_counterexample(CounterexampleParams(beta=0.0, ell=3000.0, gamma=1.0))
    assert report.a0 == 0.0
    assert abs(report.discrepancy) <= 1e-9


WEAK = CounterexampleParams(beta=0.001, ell=3000.0, gamma=1.0)  # gamma*a0 = 3: it warns
COARSE = TrajectoryConfig(step=0.1, steps=1)  # on dephasing_model(4), step*||L^dag L|| = 0.4


def test_counterexample_warns_on_weak_reduction():
    with pytest.warns(UserWarning, match="reduction is incomplete"):
        run_counterexample(CounterexampleParams(beta=0.001, ell=3000.0, gamma=1.0))
    # a0 = 1 exactly, so gamma*a0 = gamma: 3 and 7 are below the bound of 10
    for gamma in (3.0, 7.0):
        with pytest.warns(UserWarning, match=rf"^gamma\*a0 = {gamma:g} < 10.0: reduction"):
            run_counterexample(CounterexampleParams(beta=0.5, ell=2.0, gamma=gamma))


@pytest.mark.parametrize("gamma", [0.0, 10.0])
def test_counterexample_does_not_warn_without_decay_or_at_the_strict_bound(gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_counterexample(CounterexampleParams(beta=0.5, ell=2.0, gamma=gamma))
    assert report.a0 * gamma == gamma


@pytest.mark.filterwarnings("ignore:gamma")
@pytest.mark.parametrize("call, runs", [
    (lambda qsd: [run_counterexample(replace(WEAK, qsd=qsd))], 1),
    (lambda qsd: sweep_velocity(replace(WEAK, qsd=qsd), [0.002, 0.001, 0.0]), 3),
], ids=["counterexample", "sweep"])
def test_each_qsd_run_checks_its_work_once(monkeypatch, call, runs):
    # the plan is the one place that refuses the work: once per QSD run, and a
    # sweep plans each beta once
    checked, check_work = [], TrajectoryConfig.check_work

    def counting(cfg, n_traj):
        checked.append((cfg.steps, n_traj))
        return check_work(cfg, n_traj)

    monkeypatch.setattr(TrajectoryConfig, "check_work", counting)
    reports = call(QsdSettings(n_traj=5, seed=1))
    assert len(checked) == runs == len(reports)
    assert checked[0] == (300, 5)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: qsd_trajectory(initial_state_vector(), dephasing_model(4.0), COARSE),
                 id="qsd_trajectory"),
    pytest.param(lambda: ensemble_final_states(initial_state_vector(), dephasing_model(4.0),
                                               COARSE, 2), id="ensemble_final_states"),
    pytest.param(lambda: ensemble_density(initial_state_vector(), dephasing_model(4.0), COARSE, 2),
                 id="ensemble_density"),
    pytest.param(lambda: run_counterexample(WEAK), id="run_counterexample"),
    pytest.param(lambda: sweep_velocity(WEAK, [0.001]), id="sweep_velocity"),
    pytest.param(lambda: run_consistency(WEAK.beta, WEAK.ell, WEAK.gamma),
                 id="dissipative_consistency"),
])
def test_warning_names_the_line_that_called_the_package(call):
    with pytest.warns(UserWarning) as record:
        call()
    assert record[0].filename == __file__


def test_counterexample_discrepancy_closed_form_and_monotone():
    # discrepancy = 1 - exp(-gamma*a0/2) when the boost correction vanishes
    last = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for gamma_a0 in (0.0, 1.0, 5.0, 10.0, 30.0):
            p = CounterexampleParams(beta=0.01, ell=3000.0, gamma=gamma_a0 / 30.0)
            report = run_counterexample(p)
            expected = 1.0 - math.exp(-0.5 * gamma_a0)
            assert report.discrepancy == pytest.approx(expected, abs=1e-6)
            assert report.discrepancy >= last - 1e-12
            last = report.discrepancy


def test_counterexample_rk4_branch():
    p = CounterexampleParams(beta=0.01, ell=3000.0, gamma=1.0, method="rk4", step=1e-3)
    report = run_counterexample(p)
    assert report.discrepancy == pytest.approx(1.0, abs=1e-6)


def test_counterexample_purity_echo_matrices():
    report = run_counterexample(HEADLINE)
    validate_density(report.rho_initial)
    validate_density(report.rho_R)
    validate_density(report.rho_M)
    assert purity(report.rho_R) <= purity(report.rho_initial) + 1e-12
    np.testing.assert_array_equal(report.rho_M, initial_state())


@pytest.mark.filterwarnings("ignore:gamma")
def test_counterexample_qsd_branch():
    # short span keeps the ensemble cheap; the weak-reduction warning is expected
    p = CounterexampleParams(
        beta=0.01, ell=300.0, gamma=1.0, qsd=QsdSettings(n_traj=400, seed=20260808)
    )
    report = run_counterexample(p)
    assert report.qsd is not None
    assert report.qsd.n_traj == 400
    bound = 5.0 / math.sqrt(400)
    assert abs(report.qsd.expectation - report.expectation_R) <= bound
    assert report.qsd.trace_distance_to_lindblad <= bound


# -- the lindblad and qsd-ensemble runs --------------------------------------------------

@pytest.mark.parametrize("method, step, tol", [("exact", None, 1e-14), ("rk4", 1e-3, 1e-10)])
def test_lindblad_scan_follows_the_closed_form(method, step, tol):
    rho0 = density_from_state(np.array([0.6, 0.8j]))
    columns, rho_final = lindblad_scan(rho0, 2.0, 1.5, 3, method, step)
    assert list(columns) == ["a", "offdiag_numeric", "offdiag_exact", "abs_error",
                             "trace_distance"]
    np.testing.assert_array_equal(columns["a"], [0.5, 1.0, 1.5])
    refs = lindblad_exact_twolevel(rho0, 2.0, columns["a"])
    np.testing.assert_array_equal(columns["offdiag_exact"], np.hypot(refs[:, 0, 1].real,
                                                                     refs[:, 0, 1].imag))
    np.testing.assert_allclose(columns["offdiag_exact"], 0.48 * np.exp(-columns["a"]), rtol=1e-14)
    np.testing.assert_allclose(columns["offdiag_numeric"], columns["offdiag_exact"], rtol=0, atol=tol)
    assert np.all(columns["abs_error"] <= tol) and np.all(columns["trace_distance"] <= 2 * tol)
    np.testing.assert_allclose(rho_final, refs[-1], rtol=0, atol=tol)
    assert columns["abs_error"][-1] == np.abs(rho_final - refs[-1]).max()
    assert columns["offdiag_numeric"][-1] == abs(rho_final[0, 1])


@pytest.mark.parametrize("samples, message", [
    (0, "^samples must be >= 1, got 0$"),
    (-1, "^samples must be >= 1, got -1$"),
    (2.5, "^samples must be an integer, got 2.5$"),
], ids=["0", "-1", "2.5"])
def test_lindblad_scan_refuses_samples_that_are_not_a_positive_integer(samples, message,
                                                                      monkeypatch):
    def not_propagated(*args, **kwargs):
        raise AssertionError("lindblad_scan propagated before it checked samples")

    monkeypatch.setattr(scenarios, "lindblad_propagate", not_propagated)
    with pytest.raises(ValidationError, match=message):
        lindblad_scan(initial_state(), 1.0, 1.0, samples, "exact", None)


def test_run_qsd_refuses_a_negative_span_by_name():
    # one message for every span that is not positive, zero included
    for span in (-1.0, math.nan, 0.0):
        with pytest.raises(ValidationError, match=f"^span must be positive, got {span:.6g}$"):
            scenarios.run_qsd(1.0, span, 0.01, 0, 10)


def _propagated(*args, **kwargs):
    raise AssertionError("the scenario propagated before it refused its input")


@pytest.mark.parametrize("call, message", [
    (lambda: lindblad_scan(initial_state(), 1.0, 1.0, 10**6 + 1, "exact", None),
     r"^samples = 1000001 offsets exceeds the work ceiling of 1e\+06$"),
    # pyproject's error::RuntimeWarning filter fails a leaked overflow warning
    (lambda: lindblad_scan(initial_state(), 1.0, 1e308, 10, "exact", None),
     r"^span \* samples = 1e\+308 \* 10 is not finite$"),
    (lambda: lindblad_scan(initial_state(), 1.0, -1.0, 2, "exact", None),
     "^span must be non-negative, got -1$"),
    (lambda: sweep_velocity(HEADLINE, [0.01, 1e-320]),
     r"^coincidence offset a0 = inf\*9.99989e-321/1 is not finite$"),
    (lambda: sweep_velocity(HEADLINE, [0.01, 1.5]), r"^\|beta\| = 1.5 >= 1$"),
    (lambda: sweep_velocity(HEADLINE, [0.01, -0.01]), "^beta must be non-negative"),
    (lambda: run_qsd(1.0, 1.0, 0.01, 0, 10, psi0=np.zeros(2)), "^state norm 0 deviates"),
    (lambda: run_qsd(1.0, 1.0, 0.01, 0, 0), "^need at least one trajectory, got 0$"),
    (lambda: run_qsd(1.0, 30.0, 0.01, 0, 10**9),
     r"^n_traj \* steps = 1000000000 \* 3000 = 3e\+12 trajectory-steps exceeds"),
    (lambda: lindblad_scan(initial_state(), 1.0, 1.0, 2, "exact", 0.0),
     "^step must be positive, got 0$"),
    (lambda: run_counterexample(replace(HEADLINE, qsd=QsdSettings(n_traj=4 * 10**6, seed=0))),
     r"^n_traj \* steps = 4000000 \* 3000 = 1.2e\+10 trajectory-steps exceeds"),
    # beta = 0 takes no QSD step; the QSD work of beta = 0.01 is refused before it runs
    (lambda: sweep_velocity(replace(HEADLINE, qsd=QsdSettings(n_traj=4 * 10**6, seed=0)),
                            [0.0, 0.01]),
     r"^n_traj \* steps = 4000000 \* 3000 = 1.2e\+10 trajectory-steps exceeds"),
], ids=["lindblad-samples", "lindblad-span-times-samples", "lindblad-negative-span",
        "sweep-offset", "sweep-beta-1.5", "sweep-negative-beta", "qsd-zero-psi0",
        "qsd-no-trajectory", "qsd-work", "lindblad-step-0", "counterexample-qsd-work",
        "sweep-qsd-work"])
def test_each_scenario_refuses_its_whole_input_before_its_first_propagation(call, message,
                                                                           monkeypatch):
    # an exact or rk4 propagator, or the stream keys of a QSD ensemble, is
    # the first work of every scenario
    monkeypatch.setattr(dynamics, "_expm", _propagated)
    monkeypatch.setattr(dynamics, "_rk4_propagator", _propagated)
    monkeypatch.setattr(rng, "stream_keys", _propagated)
    with pytest.raises(ValidationError, match=message):
        call()


def _plain_ensemble(psi0, gamma, span, step, seed, n_traj):
    plan = TrajectoryConfig.covering(span, step, seed)
    return mean_projector(ensemble_final_states(psi0, dephasing_model(gamma), plan, n_traj))


@pytest.mark.filterwarnings("ignore:gamma")
def test_rk4_counterexample_checks_its_ensemble_against_its_rk4_density():
    p = CounterexampleParams(beta=0.01, ell=50.0, gamma=1.0, method="rk4", step=0.1,
                             qsd=QsdSettings(n_traj=50, seed=3))
    report = run_counterexample(p)
    rho_exact = run_counterexample(replace(p, method="exact", step=None)).rho_R
    rho = _plain_ensemble(initial_state_vector(), 1.0, report.a0, 0.01, 3, 50)
    assert report.qsd.trace_distance_to_lindblad == trace_distance(rho, report.rho_R)
    # the check would see the exact density in place of the rk4 one
    assert trace_distance(rho, rho_exact) != trace_distance(rho, report.rho_R)


@pytest.mark.parametrize("psi0", [None, initial_state_vector(), np.array([0.6, 0.8j])],
                         ids=["none", "initial_state_vector", "other"])
def test_run_qsd_propagates_its_reference_from_psi0_when_given_none(monkeypatch, psi0):
    starts = []

    def recording(rho0, *args):
        starts.append(rho0)
        return lindblad_propagate(rho0, *args)

    monkeypatch.setattr(scenarios, "lindblad_propagate", recording)
    outcome, rho, rho_ref = run_qsd(1.0, 0.5, 0.05, 7, 20, psi0=psi0)
    # initial_state() exactly when psi0 is None: |psi0><psi0| of the same state
    # differs from it in the last bit
    rho0 = initial_state() if psi0 is None else density_from_state(psi0)
    assert len(starts) == 1
    np.testing.assert_array_equal(starts[0], rho0)
    np.testing.assert_array_equal(rho_ref, lindblad_propagate(rho0, dephasing_model(1.0), 0.5))
    start = initial_state_vector() if psi0 is None else psi0
    np.testing.assert_array_equal(rho, _plain_ensemble(start, 1.0, 0.5, 0.05, 7, 20))
    assert outcome.trace_distance_to_lindblad == trace_distance(rho, rho_ref)
    assert outcome.expectation == expectation(spin_observable(), rho)
    plan = TrajectoryConfig.covering(0.5, 0.05)
    assert (outcome.n_traj, outcome.seed, outcome.step, outcome.steps) == (20, 7, plan.step,
                                                                           plan.steps)


# -- unitary consistency ---------------------------------------------------------------

def test_unitary_consistency_boost_only():
    # H = 0, K arbitrary, observable commuting with K
    report = run_consistency(0.3, 50.0, 0.0, h=ZERO2, k=SX / 2, psi0=initial_state_vector(),
                             observable=SX)
    assert report.deviation <= 1e-9
    assert report.path_order_difference <= 1e-9
    assert not report.dissipative


def test_unitary_consistency_offset_only():
    psi0 = np.array([0.6, 0.8], dtype=complex)
    report = run_consistency(0.2, 40.0, 0.0, h=SZ, k=ZERO2, psi0=psi0, observable=SZ)
    assert report.deviation <= 1e-9
    assert report.path_order_difference <= 1e-9


def test_unitary_consistency_planes_share_the_event():
    report = run_consistency(0.2, 40.0, 0.0, h=SZ, k=ZERO2, psi0=initial_state_vector(),
                             observable=SZ)
    assert contains_event(report.plane_rest, report.event)
    assert contains_event(report.plane_moving, report.event)


def test_unitary_consistency_honours_c():
    beta, ell, c = 0.2, 40.0, 3.0
    report = run_consistency(beta, ell, 0.0, h=SZ, k=ZERO2, psi0=initial_state_vector(),
                             observable=SZ, c=c)
    assert report.event.t == pytest.approx(ell * beta / c, rel=1e-15)
    assert report.plane_rest.offset == report.event.t
    # gamma * a0 = 26.7, so the dissipative run reduces fully and does not warn
    dissipative = run_consistency(beta, ell, 10.0, c=c)
    assert report.event == dissipative.event


def test_unitary_consistency_refuses_non_commuting():
    with pytest.raises(ValidationError, match=r"^\|\|\[H, K\]\|\| = \S+: transport would be"):
        run_consistency(0.1, 10.0, 0.0, h=SZ, k=SY / 2, psi0=initial_state_vector(), observable=SX)


def test_unitary_consistency_refuses_non_hermitian_observable():
    with pytest.raises(ValidationError, match="observable Hermiticity defect"):
        run_consistency(0.1, 10.0, 0.0, h=SZ, k=ZERO2, psi0=initial_state_vector(),
                        observable=np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_unitary_consistency_refuses_c_that_is_not_positive(c):
    with pytest.raises(ValidationError, match=f"^c must be positive, got {c:.6g}$"):
        run_consistency(0.1, 10.0, 0.0, h=SZ, k=ZERO2, psi0=initial_state_vector(),
                        observable=SX, c=c)


def test_dissipative_consistency_reports_the_violation():
    report = run_consistency(HEADLINE.beta, HEADLINE.ell, HEADLINE.gamma)
    assert report.dissipative
    assert report.deviation == pytest.approx(1.0 - math.exp(-15.0), abs=1e-6)


# -- velocity sweep ----------------------------------------------------------------------

def test_sweep_zero_correction_rows_constant():
    rows = sweep_velocity(HEADLINE, [0.02, 0.01, 0.005])
    assert len(rows) == 3
    for row in rows:
        assert row.a0 == pytest.approx(30.0)
        assert row.discrepancy == pytest.approx(1.0, abs=1e-6)
        assert row.params.ell * row.params.beta == pytest.approx(30.0)


def test_sweep_single_beta_zero():
    rows = sweep_velocity(HEADLINE, [0.0])
    assert len(rows) == 1
    assert rows[0].a0 == 0.0
    assert abs(rows[0].discrepancy) <= 1e-9


def test_sweep_empty_betas_rejected():
    with pytest.raises(ValidationError):
        sweep_velocity(HEADLINE, [])


def test_sweep_with_boost_correction_closed_form():
    # the boosted expectation is cos(atanh(beta)) exactly: the initial state
    # is the observable's top eigenstate, so the deviation from 1 is
    # quadratic in beta (the linear term vanishes identically)
    rows = sweep_velocity(HEADLINE, [0.02, 0.01, 0.005], k_correction=SY / 2)
    for row in rows:
        expected = math.cos(math.atanh(row.params.beta)) - math.exp(-15.0)
        assert row.discrepancy == pytest.approx(expected, abs=1e-12)
    # ratios on the boost correction alone: the R branch, and with it the
    # exp(-15) residual in |discrepancy - 1|, is the same without K
    unboosted = sweep_velocity(HEADLINE, [0.02, 0.01, 0.005])
    deltas = [k.discrepancy - z.discrepancy for k, z in zip(rows, unboosted)]
    assert deltas[0] / deltas[1] == pytest.approx(4.0, abs=0.1)
    assert deltas[1] / deltas[2] == pytest.approx(4.0, abs=0.1)
