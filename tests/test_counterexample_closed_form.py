"""The headline claim across its domain: every field of `run_counterexample`
and of each `sweep_velocity` point against the closed form of
`_checks.counterexample_closed_form`, which shares no code with the package.

Draws cover beta in [0, 0.99), ell, gamma, c, the method and its step, and a
boost generator K that is zero, sigma_y/2 or a random Hermitian 2x2. A draw
that the scenario refuses must raise ValidationError and nothing else.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoliation.errors import ValidationError
from qfoliation.scenarios import CounterexampleParams, run_counterexample, sweep_velocity
from _checks import counterexample_closed_form

PAULI = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
         np.diag([1.0, -1.0])]

# absolute tolerance per method. exact: the Pade exponential and the boost's
# exponential are each within a few ulps of the closed form. rk4: P(hL)^n
# is n - 1 matrix products, each rounding the coherence by a few ulps, so up
# to n*eps relative; a valid draw keeps a0 = ell*beta/c below 200 and the
# step above 0.01, so n below 2*10^4
TOL = {"exact": 1e-13, "rk4": 1e-11}

betas = st.floats(0.0, 0.99, exclude_max=True)
hermitian = st.tuples(*[st.floats(-2.0, 2.0)] * 4).map(
    lambda k: sum(coef * pauli for coef, pauli in zip(k, PAULI)).astype(complex))
draws = st.fixed_dictionaries({
    "beta": betas,
    "ell": st.floats(0.0, 100.0),
    "gamma": st.floats(0.0, 5.0),
    "c": st.floats(0.4, 2.0).map(lambda c: 0.0 if c < 0.5 else c),
    "method": st.sampled_from(["exact", "rk4"]),
    "step": st.floats(0.0, 0.2).map(lambda step: None if step < 0.01 else step),
    "k": st.one_of(st.just(np.zeros((2, 2), dtype=complex)), st.just(PAULI[2] / 2), hermitian),
    "betas": st.lists(betas, min_size=1, max_size=3),
})


def refused(d: dict) -> bool:
    """Whether the counter-example of draw d is out of range: ell or c not
    positive, or an rk4 run with decoherence and no step, or one above the
    step bound 2||L^dag L||, with L^dag L = sqrt(gamma)^2 |0><0|."""
    rk4_bound = 2.0 * math.sqrt(d["gamma"]) ** 2
    return d["ell"] == 0.0 or d["c"] == 0.0 or (
        d["method"] == "rk4" and d["gamma"] > 0.0
        and (d["step"] is None or d["step"] * rk4_bound > 1.0))


def assert_matches_closed_form(report, beta: float, ell: float, d: dict) -> None:
    expected = counterexample_closed_form(beta, ell, d["gamma"], d["c"], d["k"], d["method"],
                                          d["step"])
    tol = TOL[d["method"]]
    assert report.params.beta == beta and report.params.ell == ell and report.qsd is None
    for name, value in expected.items():
        np.testing.assert_allclose(getattr(report, name), value, rtol=0.0, atol=tol,
                                   err_msg=name)


@pytest.mark.filterwarnings("ignore:gamma")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(draws)
def test_counterexample_and_sweep_match_the_closed_form(d):
    p = dict(beta=d["beta"], ell=d["ell"], gamma=d["gamma"], c=d["c"], method=d["method"],
             step=d["step"])
    try:
        report = run_counterexample(CounterexampleParams(**p), d["k"])
    except ValidationError:
        assert refused(d)
        with pytest.raises(ValidationError):
            sweep_velocity(CounterexampleParams(**p), d["betas"], d["k"])
        return
    assert not refused(d)
    assert_matches_closed_form(report, d["beta"], d["ell"], d)
    # each beta at the base's a0, ell rescaled to a0*c/beta; beta = 0 at the base's ell
    ells = [d["ell"] if b == 0.0 else report.a0 * d["c"] / b for b in d["betas"]]
    try:
        points = sweep_velocity(CounterexampleParams(**p), d["betas"], d["k"])
    except ValidationError:
        assert not all(0.0 < e < math.inf and math.isfinite(e * b / d["c"])
                       for e, b in zip(ells, d["betas"]))
        return
    assert len(points) == len(d["betas"])
    for point, beta, ell in zip(points, d["betas"], ells):
        assert_matches_closed_form(point, beta, ell, d)
