"""The QSD kernel against the exact Lindblad solution on a model that no command runs.

Every other physics check of the unraveling uses H = 0 and one Hermitian diagonal
coupling, where <L> is real and a slip between <L> and its conjugate cannot show.
Here H = 0.7 sigma_z + 0.3 sigma_x commutes with neither coupling, L_1 = sqrt(0.8)
sigma_- is not Hermitian, so <L_1> is complex, and L_2 = sqrt(0.3) sigma_z is a
second channel. sigma_- = |1><0| lowers |0> = (1, 0), the +1 eigenvector of sigma_z.
"""

import math

import numpy as np
import pytest

from qfoliation.dynamics import (
    GeneratorSet,
    TrajectoryConfig,
    lindblad_propagate,
    plan_qsd,
    run_qsd_plan,
)
from _checks import SX, SY, SZ

SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
MODEL = GeneratorSet(H=0.7 * SZ + 0.3 * SX,
                     Ls=(math.sqrt(0.8) * SIGMA_MINUS, math.sqrt(0.3) * SZ))
PSI0 = np.array([0.6, 0.8j])
SPAN, STEP, N_TRAJ = 2.0, 0.01, 20_000
SEEDS = [11, 12]

# Each check is two-sided at Z standard errors. B bounds the weak Euler bias of a
# Pauli expectation at this step: two 2e5-trajectory ensembles at step 0.01 read
# +0.0013, +0.0011 and +0.0012 for sigma_x, sigma_y and sigma_z, each +-0.0006.
# With B above the bias, the 8 checks below (3 Paulis and the norm at 2 seeds)
# raise a false alarm with probability at most 8 * 6.3e-5 = 5e-4. On one host the
# seeds read z = +1.57, -0.76, +0.12 and +0.97, -0.48, +0.02 from the exact values.
# The same ensembles without the conjugate on <L> read about +18, -17 and +33.
Z, B = 4.0, 0.003

# Without renormalization, an Euler step keeps the squared norm a martingale to
# first order only: given psi_n, E|psi_{n+1}|^2 = |psi_n|^2 + step^2 |A psi_n|^2,
# A the drift, so the mean exceeds 1 by about step * span * E|A psi|^2. Two
# 2e5-trajectory ensembles read 1.01263 and 1.01269 at step 0.01 (1.00641 at 0.005,
# first order in the step). On one host the seeds read -0.33 and +0.91 SE from it;
# without the conjugate on <L> the mean falls to 0.80, about -195 SE.
NORM_BIAS = 0.0127


def _finals(seed: int, renormalize: bool = True) -> np.ndarray:
    cfg = TrajectoryConfig.covering(SPAN, STEP, seed, renormalize)
    return run_qsd_plan(plan_qsd(PSI0, MODEL, cfg, N_TRAJ))


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values, ddof=1)) / math.sqrt(len(values))


@pytest.mark.parametrize("seed", SEEDS)
def test_pauli_expectations_follow_the_exact_lindblad_solution(seed):
    rho = lindblad_propagate(np.outer(PSI0, PSI0.conj()), MODEL, SPAN, method="exact")
    finals = _finals(seed)
    weights = np.sum(np.abs(finals) ** 2, axis=1)
    for name, pauli in (("sigma_x", SX), ("sigma_y", SY), ("sigma_z", SZ)):
        mean, se = _mean_and_se(
            np.einsum("mi,ij,mj->m", finals.conj(), pauli, finals).real / weights)
        exact = float(np.trace(pauli @ rho).real)
        assert abs(mean - exact) <= Z * se + B, (
            f"<{name}> = {mean:.5f} vs exact {exact:.5f}: {(mean - exact) / se:+.2f} SE")


@pytest.mark.parametrize("seed", SEEDS)
def test_mean_squared_norm_without_renormalization_stays_1_plus_its_euler_bias(seed):
    mean, se = _mean_and_se(np.sum(np.abs(_finals(seed, renormalize=False)) ** 2, axis=1))
    z = (mean - 1.0 - NORM_BIAS) / se
    assert abs(z) <= Z, f"mean |psi|^2 = {mean:.5f}: {z:+.2f} SE from 1 + bias"
