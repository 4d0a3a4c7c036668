"""The exact law of the dephasing unraveling (`_checks.dephasing_law_mean`): an oracle
with no time step, checked against the two rates it must give, then used to check the
QSD ensembles of `dephasing_model`."""

import math

import numpy as np
import pytest

from qfoliation.dynamics import TrajectoryConfig, plan_qsd, run_qsd_plan
from qfoliation.scenarios import dephasing_model
from _checks import PLUS_STATE, dephasing_law_mean


def _f(p, phi):
    """f = |psi_0||psi_1| of a normalized two-level state."""
    return np.sqrt(p * (1.0 - p))


# gamma t <= 3: at gamma t = 30 the 80-node sum is off by 4e-8
@pytest.mark.parametrize("gamma, t, p0", [(1.0, 2.0, 0.5), (0.5, 3.0, 0.3), (2.0, 0.7, 0.8)])
def test_law_gives_the_martingale_and_both_decay_rates(gamma, t, p0):
    f0 = math.sqrt(p0 * (1.0 - p0))
    # p is a martingale; f drifts at -(gamma/4) f by Ito's formula; the ensemble
    # coherence E[f cos phi] is the Lindblad one, f0 e^{-gamma t/2}
    assert dephasing_law_mean(lambda p, phi: p, gamma, t, p0) == pytest.approx(p0, abs=1e-10)
    assert dephasing_law_mean(_f, gamma, t, p0) == pytest.approx(
        f0 * math.exp(-gamma * t / 4.0), abs=1e-10)
    assert dephasing_law_mean(lambda p, phi: _f(p, phi) * np.cos(phi), gamma, t, p0) == (
        pytest.approx(f0 * math.exp(-gamma * t / 2.0), abs=1e-10))


# 12 two-sided checks at 4 SE (4 seeds, 3 statistics) raise a false alarm with
# probability about 12 * 6.3e-5 = 7.6e-4. cos phi of the relative phase phi has a
# weak Euler bias at this step that is several SE of these ensembles: b = -0.0038,
# the mean of two 2e5-trajectory ensembles at step 0.01 against the law (below it by
# 0.0067, 0.0038 and 0.0012 at steps 0.02, 0.01 and 0.005, first order in the step).
# p^2 and f show none at this size and are checked with b = 0. On one host these seeds
# read z(p^2) = -2.16, +0.83, -1.29, -0.40, z(f) = +1.85, -0.60, +0.03, -0.67 and
# z(cos phi) = -0.62, +0.88, -0.05, -1.03 (-1.81, -0.33, -1.25, -2.22 without b).
COS_PHI_BIAS = -0.0038


@pytest.mark.parametrize("seed", [1, 2, 3, 20261020])
def test_qsd_ensemble_follows_the_law(seed):
    gamma, n_traj, cfg = 1.0, 20_000, TrajectoryConfig(step=0.01, steps=200, seed=seed)
    finals = run_qsd_plan(plan_qsd(PLUS_STATE, dephasing_model(gamma), cfg, n_traj))
    weights = np.abs(finals) ** 2
    p = weights[:, 0] / weights.sum(axis=1)
    cos_phi = np.cos(np.angle(finals[:, 0] * finals[:, 1].conj()))
    law_p2 = dephasing_law_mean(lambda p, phi: p * p, gamma, cfg.span, 0.5)
    assert law_p2 == pytest.approx(0.387600, abs=5e-7)  # no master-equation rate fixes E p^2
    law_cos = dephasing_law_mean(lambda p, phi: np.cos(phi), gamma, cfg.span, 0.5)
    assert law_cos == pytest.approx(math.exp(-gamma * cfg.span / 4.0), abs=1e-10)
    for name, values, law, bias in (
            ("p^2", p * p, law_p2, 0.0),
            ("f", _f(p, None), dephasing_law_mean(_f, gamma, cfg.span, 0.5), 0.0),
            ("cos phi", cos_phi, law_cos, COS_PHI_BIAS)):
        se = float(np.std(values, ddof=1)) / math.sqrt(n_traj)
        z = (float(np.mean(values)) - law - bias) / se
        assert abs(z) <= 4.0, (f"mean {name} {np.mean(values):.6f} vs law {law:.6f} "
                               f"+ bias {bias}: {z:+.2f} SE")
