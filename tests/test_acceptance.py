"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical checks run at frozen seeds; every tolerance is pinned here, not
computed at run time. Criterion runtimes are asserted against their budgets.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from qfoliation.cli import parse_config
from qfoliation.dynamics import (
    GeneratorSet,
    TrajectoryConfig,
    boost_transport,
    decohering_coupling,
    ensemble_density,
    ensemble_final_states,
    lindblad_exact_twolevel,
    lindblad_propagate,
    mean_projector,
    qsd_trajectory,
)
from qfoliation.foliation import (
    FourVector,
    Hyperplane,
    coincidence_event,
    coincidence_offset,
    frame_normal,
)
from qfoliation.linalg import (
    density_from_state,
    expm_generator,
    purity,
    trace_distance,
    validate_density,
)
from qfoliation.scenarios import (
    CounterexampleParams,
    QsdSettings,
    check_unitary_consistency,
    dephasing_model,
    dissipative_consistency,
    initial_state,
    initial_state_vector,
    run_counterexample,
    spin_observable,
    sweep_velocity,
)
from _checks import (
    PLUS_STATE,
    SX,
    SY,
    SZ,
    ZERO2,
    contains_event,
    dagger,
    make_hyperplane,
    random_complex,
    random_density,
    random_hermitian,
    serialize_config,
    wiener_increments,
)


MASTER_SEED = 20260808


def report_line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def random_state(rng, dim):
    psi = random_complex(rng, dim)
    return psi / np.linalg.norm(psi)


def test_criterion_1_counterexample_headline():
    start = time.perf_counter()
    report = run_counterexample(CounterexampleParams(beta=0.01, ell=3000.0, gamma=1.0))
    elapsed = time.perf_counter() - start

    ok = (
        report.expectation_M == 1.0
        and abs(report.expectation_R) <= 1e-6
        and abs(report.discrepancy - 1.0) <= 1e-6
        and elapsed <= 1.0
    )
    report_line(1, "counterexample headline", ok,
                f"discrepancy={report.discrepancy:.9f}, {elapsed:.2f}s")
    assert report.expectation_M == 1.0
    assert abs(report.expectation_R) <= 1e-6
    assert abs(report.discrepancy - 1.0) <= 1e-6
    assert elapsed <= 1.0


def test_criterion_2_decoherence_oracle():
    rho0 = initial_state()
    gen = GeneratorSet(H=ZERO2, Ls=(decohering_coupling(1.0),))
    start = time.perf_counter()
    worst_exact = worst_rk4 = 0.0
    for gamma_span in (0.0, 1.0, 5.0, 10.0, 30.0):
        ref = lindblad_exact_twolevel(rho0, 1.0, gamma_span)
        got_exact = lindblad_propagate(rho0, gen, gamma_span, method="exact")
        worst_exact = max(worst_exact, float(np.max(np.abs(got_exact - ref))))
        got_rk4 = lindblad_propagate(rho0, gen, gamma_span, method="rk4", step=1e-3)
        worst_rk4 = max(worst_rk4, float(np.max(np.abs(got_rk4 - ref))))
    elapsed = time.perf_counter() - start

    ok = worst_exact <= 1e-9 and worst_rk4 <= 1e-6 and elapsed <= 1.0
    report_line(2, "decoherence oracle", ok,
                f"exact err={worst_exact:.2e}, rk4 err={worst_rk4:.2e}, {elapsed:.2f}s")
    assert worst_exact <= 1e-9
    assert worst_rk4 <= 1e-6
    assert elapsed <= 1.0


def test_criterion_3_unraveling_consistency():
    gen = GeneratorSet(H=ZERO2, Ls=(decohering_coupling(1.0),))
    ref = lindblad_exact_twolevel(initial_state(), 1.0, 30.0)
    cfg = TrajectoryConfig(step=0.01, steps=3000, seed=MASTER_SEED)

    start = time.perf_counter()
    finals = ensemble_final_states(PLUS_STATE, gen, cfg, 10_000)
    err = trace_distance(mean_projector(finals), ref)
    # noise streams are independent, so disjoint row blocks are independent
    # ensembles: the RMS error over blocks of n estimates the error at n
    rms = {
        n: math.sqrt(np.mean([trace_distance(mean_projector(block), ref) ** 2
                              for block in finals.reshape(-1, n, 2)]))
        for n in (100, 1000)
    }
    elapsed = time.perf_counter() - start

    # sampling error falls as 1/sqrt(n): sqrt(10) = 3.16, window x1/2 to x2
    ratio = rms[100] / rms[1000]
    ok = err <= 0.05 and rms[100] <= 0.5 and 1.58 <= ratio <= 6.32 and elapsed <= 60.0
    report_line(3, "unraveling consistency", ok,
                f"err(1e4)={err:.4f}, rms(1e2)={rms[100]:.4f}, rms(1e3)={rms[1000]:.4f}, "
                f"ratio={ratio:.2f}, {elapsed:.1f}s")
    assert err <= 0.05
    assert rms[100] <= 0.5
    assert 1.58 <= ratio <= 6.32, f"block RMS ratio {ratio:.2f} outside [1.58, 6.32]"
    assert elapsed <= 60.0


def test_unraveling_before_localization_sees_the_noise_amplitude():
    # at span 30 every trajectory has localized, so criterion 3 sees only the
    # localization probabilities; at span 1 the coherence is still decaying,
    # and a wrong noise amplitude or drift moves the ensemble mean from it
    gen = GeneratorSet(H=ZERO2, Ls=(decohering_coupling(1.0),))
    ref = lindblad_exact_twolevel(initial_state(), 1.0, 1.0)
    cfg = TrajectoryConfig(step=0.01, steps=100, seed=MASTER_SEED)
    n_traj = 10_000
    finals = ensemble_final_states(PLUS_STATE, gen, cfg, n_traj)
    assert trace_distance(mean_projector(finals), ref) <= 5.0 / math.sqrt(n_traj)


def test_localization_statistic_decays_at_the_unraveling_rate():
    # a third oracle, on the trajectories rather than their mean: in the
    # renormalized dephasing unraveling p = |psi_0|^2 obeys
    # dp = sqrt(2 gamma) p (1 - p) dW, so by Ito's formula f = |psi_0||psi_1|
    # drifts at -(gamma/4) f and E f(t) = f(0) exp(-gamma t/4) (Gisin &
    # Percival, J. Phys. A 25 (1992) 5677); the master equation does not fix
    # this rate, so a wrong noise amplitude moves it
    gamma, n_traj = 1.0, 10_000
    cfg = TrajectoryConfig(step=0.01, steps=200, seed=MASTER_SEED)
    finals = ensemble_final_states(initial_state_vector(), dephasing_model(gamma), cfg, n_traj)
    f = np.abs(finals[:, 0]) * np.abs(finals[:, 1])
    expected = 0.5 * math.exp(-gamma * cfg.span / 4.0)
    se = float(np.std(f, ddof=1)) / math.sqrt(n_traj)
    z = (float(np.mean(f)) - expected) / se
    assert abs(z) <= 5.0, f"mean f {np.mean(f):.6f} vs {expected:.6f}: {z:+.2f} SE (SE {se:.2e})"


def test_criterion_4_observer_consistency():
    start = time.perf_counter()

    # commuting-generator configurations, vanishing dissipator
    deviations = []
    boost_only = GeneratorSet(H=ZERO2, K=SX / 2)
    rep = check_unitary_consistency(boost_only, 0.3, 50.0, initial_state_vector(), SX)
    deviations.append(max(rep.deviation, rep.path_order_difference))
    offset_only = GeneratorSet(H=SZ, K=ZERO2)
    rep = check_unitary_consistency(
        offset_only, 0.2, 40.0, np.array([0.6, 0.8], dtype=complex), SZ
    )
    deviations.append(max(rep.deviation, rep.path_order_difference))
    rng = np.random.default_rng(41)
    for _ in range(20):
        # commuting pairs via a shared eigenbasis; observable diagonal there too
        v = np.linalg.qr(random_complex(rng, (2, 2)))[0]
        h = v @ np.diag(rng.normal(size=2)) @ v.conj().T
        k = v @ np.diag(rng.normal(size=2)) @ v.conj().T
        a_op = v @ np.diag(rng.normal(size=2)) @ v.conj().T
        gen = GeneratorSet(H=0.5 * (h + h.conj().T), K=0.5 * (k + k.conj().T))
        rep = check_unitary_consistency(
            gen, float(rng.uniform(0.01, 0.5)), float(rng.uniform(1.0, 100.0)),
            random_state(rng, 2), 0.5 * (a_op + a_op.conj().T),
        )
        deviations.append(max(rep.deviation, rep.path_order_difference))
    unitary_worst = max(deviations)

    # same pipeline with decoherence switched on
    dissipative_worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for gamma_a0 in (1.0, 5.0, 10.0, 30.0):
            p = CounterexampleParams(beta=0.01, ell=3000.0, gamma=gamma_a0 / 30.0)
            rep = dissipative_consistency(p)
            expected = 1.0 - math.exp(-0.5 * gamma_a0)
            dissipative_worst = max(dissipative_worst, abs(rep.deviation - expected))
    elapsed = time.perf_counter() - start

    ok = unitary_worst <= 1e-9 and dissipative_worst <= 1e-6 and elapsed <= 1.0
    report_line(4, "observer consistency", ok,
                f"unitary dev={unitary_worst:.2e}, dissipative err={dissipative_worst:.2e}, "
                f"{elapsed:.2f}s")
    assert unitary_worst <= 1e-9
    assert dissipative_worst <= 1e-6
    assert elapsed <= 1.0


def test_criterion_5_boost_correction_scaling():
    # rho0 commutes with the measured observable, so the first-order boost
    # response tr([A, K] rho0) vanishes and the correction is quadratic in
    # beta. Subtracting a sweep without K removes the R branch, which is the
    # same for every beta at fixed a0.
    base = CounterexampleParams(beta=0.01, ell=3000.0, gamma=1.0)
    betas = [0.02, 0.01, 0.005]
    start = time.perf_counter()
    boosted = sweep_velocity(base, betas, k_correction=SY / 2)
    elapsed = time.perf_counter() - start
    unboosted = sweep_velocity(base, betas)

    deltas = [k.discrepancy - z.discrepancy for k, z in zip(boosted, unboosted)]
    assert all(d != 0.0 for d in deltas), f"boost generator has no effect: {deltas}"
    ratios = [deltas[i] / deltas[i + 1] for i in range(len(deltas) - 1)]
    ok = all(3.6 <= r <= 4.4 for r in ratios) and elapsed <= 5.0
    report_line(5, "boost correction scaling", ok,
                f"ratios={[f'{r:.4f}' for r in ratios]} vs 4 (quadratic), {elapsed:.2f}s")
    assert elapsed <= 5.0
    for r in ratios:
        assert 3.6 <= r <= 4.4, (
            f"boost correction ratio under halved beta is {r:.4f}, not 4 +- 0.4 (quadratic)"
        )
    for beta, d in zip(betas, deltas):
        assert d == pytest.approx(math.cos(math.atanh(beta)) - 1.0, abs=1e-12)


def test_criterion_6_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(6161)
    n_cases = 1000

    # dagger involution
    for _ in range(n_cases):
        dim = int(rng.integers(2, 9))
        m = random_complex(rng, (dim, dim))
        assert np.array_equal(dagger(dagger(m)), m)

    # unitarity of generated transport (dims <= 16)
    for _ in range(n_cases):
        dim = int(rng.integers(2, 17))
        u = expm_generator(random_hermitian(rng, dim), float(rng.uniform(-10, 10)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12

    # group property on a subsample
    for _ in range(200):
        g = random_hermitian(rng, 4)
        s, t = rng.uniform(-3, 3, size=2)
        err = np.max(np.abs(expm_generator(g, s + t) - expm_generator(g, s) @ expm_generator(g, t)))
        assert err <= 1e-10

    # trace-distance metric properties and range
    for _ in range(n_cases):
        dim = int(rng.integers(2, 6))
        r1, r2, r3 = (random_density(rng, dim) for _ in range(3))
        d12 = trace_distance(r1, r2)
        assert abs(d12 - trace_distance(r2, r1)) <= 1e-12
        assert -1e-15 <= d12 <= 1.0 + 1e-12
        assert trace_distance(r1, r3) <= d12 + trace_distance(r2, r3) + 1e-12

    # pure-state projectors are valid densities
    for _ in range(n_cases):
        dim = int(rng.integers(2, 9))
        validate_density(density_from_state(random_complex(rng, dim)))

    # hyperplane normalization, mirror symmetry, coincidence containment
    for _ in range(n_cases):
        spatial = rng.normal(size=3) * 0.4
        t = math.sqrt(1.0 + spatial @ spatial) * rng.uniform(1.0, 3.0)
        plane = make_hyperplane(FourVector(t, *spatial), float(rng.normal()))
        assert abs(plane.normal.dot(plane.normal) - 1.0) <= 1e-12
        assert plane.normal.t > 0
    for _ in range(n_cases):
        beta = float(rng.uniform(-0.99, 0.99))
        assert frame_normal(-beta).x == -frame_normal(beta).x
    for _ in range(n_cases):
        ell = 10.0 ** rng.uniform(0, 8)
        beta = float(rng.uniform(1e-4, 0.99))
        event = coincidence_event(ell, beta)
        tol = 1e-9 * max(1.0, ell)
        a0 = coincidence_offset(ell, beta)
        assert contains_event(Hyperplane(FourVector(1.0), a0), event, tol=tol)
        assert contains_event(Hyperplane(frame_normal(beta), 0.0), event, tol=tol)

    # trace preservation, Hermiticity, positivity of the deterministic channel
    for _ in range(n_cases):
        dim = int(rng.integers(2, 5))
        hermitian_ls = bool(rng.integers(0, 2))
        lk = random_complex(rng, (dim, dim)) * 0.5
        if hermitian_ls:
            lk = 0.5 * (lk + lk.conj().T)
        gen = GeneratorSet(H=random_hermitian(rng, dim), Ls=(lk,))
        rho0 = random_density(rng, dim)
        rho = lindblad_propagate(rho0, gen, float(rng.uniform(0.05, 1.5)), method="exact")
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
        if hermitian_ls:
            assert purity(rho) <= purity(rho0) + 1e-10

    # rk4 agrees with exact on the two-level scenario
    gen2 = GeneratorSet(H=ZERO2, Ls=(decohering_coupling(1.0),))
    exact = lindblad_propagate(initial_state(), gen2, 3.0, method="exact")
    rk4 = lindblad_propagate(initial_state(), gen2, 3.0, method="rk4", step=1e-3)
    assert trace_distance(rk4, exact) <= 1e-6

    # determinism of noise streams and trajectories
    for _ in range(n_cases):
        seed = int(rng.integers(0, 2**32))
        stream = int(rng.integers(0, 1000))
        a = wiener_increments(seed, stream, steps=8, channels=2, step=0.05)
        b = wiener_increments(seed, stream, steps=8, channels=2, step=0.05)
        assert np.array_equal(a, b)
    for _ in range(100):
        seed = int(rng.integers(0, 2**32))
        cfg = TrajectoryConfig(step=0.02, steps=10, seed=seed)
        p1 = qsd_trajectory(PLUS_STATE, gen2, cfg)
        p2 = qsd_trajectory(PLUS_STATE, gen2, cfg)
        assert np.array_equal(p1, p2)

    # QSD martingale: ensemble mean approaches the deterministic solution
    ref = lindblad_exact_twolevel(initial_state(), 1.0, 30.0)
    cfg = TrajectoryConfig(step=0.01, steps=3000, seed=MASTER_SEED)
    for n_traj in (100, 1000, 10_000):
        rho = ensemble_density(PLUS_STATE, gen2, cfg, n_traj)
        assert trace_distance(rho, ref) <= 5.0 / math.sqrt(n_traj)

    # QSD norm handling on the acceptance run
    path = qsd_trajectory(PLUS_STATE, gen2, TrajectoryConfig(step=0.01, steps=3000, seed=1))
    np.testing.assert_allclose(np.linalg.norm(path, axis=1), 1.0, atol=1e-9)
    finals = ensemble_final_states(
        PLUS_STATE, gen2, TrajectoryConfig(step=0.01, steps=3000, seed=MASTER_SEED,
                                           renormalize=False), 500
    )
    mean_sq = float(np.mean(np.sum(np.abs(finals) ** 2, axis=1)))
    assert abs(mean_sq - 1.0) <= 0.05

    # boost transport unitarity
    for _ in range(n_cases):
        dim = int(rng.integers(2, 5))
        gen = GeneratorSet(H=np.zeros((dim, dim)), K=random_hermitian(rng, dim))
        beta = float(rng.uniform(-0.9, 0.9))
        psi, phi = random_state(rng, dim), random_state(rng, dim)
        overlap_before = np.vdot(psi, phi)
        overlap_after = np.vdot(
            boost_transport(psi, gen, beta), boost_transport(phi, gen, beta)
        )
        assert abs(overlap_after - overlap_before) <= 1e-10
        rho = random_density(rng, dim)
        assert abs(np.trace(boost_transport(rho, gen, beta)) - 1.0) <= 1e-10

    # scenario invariants: unitary theory is observer-consistent
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(50):
            p = CounterexampleParams(
                beta=float(rng.uniform(0.001, 0.5)), ell=float(rng.uniform(1.0, 5000.0)),
                gamma=0.0,
            )
            assert abs(run_counterexample(p).discrepancy) <= 1e-9
        # discrepancy closed form and monotonicity in gamma*a0
        last = -1.0
        for gamma_a0 in (0.0, 1.0, 5.0, 10.0, 30.0):
            p = CounterexampleParams(beta=0.01, ell=3000.0, gamma=gamma_a0 / 30.0)
            disc = run_counterexample(p).discrepancy
            assert abs(disc - (1.0 - math.exp(-0.5 * gamma_a0))) <= 1e-6
            assert disc >= last - 1e-12
            last = disc
        # QSD branch matches the deterministic branch within 5/sqrt(M)
        p = CounterexampleParams(beta=0.01, ell=3000.0, gamma=1.0,
                                 qsd=QsdSettings(n_traj=400, seed=MASTER_SEED))
        rep = run_counterexample(p)
        assert abs(rep.qsd.expectation - rep.expectation_R) <= 5.0 / math.sqrt(400)

    # cli round-trip invariant
    for _ in range(200):
        doc = {
            "command": "counterexample",
            "params": {
                "beta": float(rng.uniform(0.001, 0.9)),
                "ell": float(rng.uniform(0.1, 1e4)),
                "gamma": float(rng.uniform(0.0, 5.0)),
            },
            "seed": int(rng.integers(0, 2**31)),
        }
        cfg = parse_config(json.dumps(doc))
        assert parse_config(serialize_config(cfg)) == cfg

    elapsed = time.perf_counter() - start
    ok = elapsed <= 120.0
    report_line(6, "invariant suite", ok, f"{elapsed:.1f}s")
    assert elapsed <= 120.0
