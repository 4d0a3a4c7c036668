import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from qfoliation import dynamics
from qfoliation.dynamics import (
    _PADE,
    MAX_TRAJECTORY_STEPS,
    MIN_STEP_TRAJECTORIES,
    GeneratorSet,
    TrajectoryConfig,
    _expm,
    boost_transport,
    coupling_norms,
    decohering_coupling,
    ensemble_density,
    ensemble_final_states,
    lindblad_exact_twolevel,
    lindblad_propagate,
    liouvillian,
    mean_projector,
    plan_qsd,
    qsd_trajectory,
    run_qsd_plan,
)
from qfoliation.errors import NumericalError, ValidationError
from qfoliation.linalg import (
    density_from_state,
    expm_generator,
    purity,
    trace_distance,
    validate_density,
)
from qfoliation.rng import stream_keys, wiener_block
from qfoliation.scenarios import QsdSettings, dephasing_model, initial_state
from _checks import (
    PLUS_STATE,
    SX,
    SY,
    SZ,
    ZERO2,
    qsd_step,
    random_complex,
    random_density,
    random_hermitian,
    wiener_increments,
)

PLUS_RHO = np.full((2, 2), 0.5, dtype=complex)


def decoherence_model(gamma=1.0):
    return GeneratorSet(H=ZERO2, Ls=(decohering_coupling(gamma),))


def random_model(rng, dim, n_ls=1, hermitian_ls=False):
    h = random_hermitian(rng, dim)
    ls = []
    for _ in range(n_ls):
        lk = random_hermitian(rng, dim) if hermitian_ls else random_complex(rng, (dim, dim))
        ls.append(0.5 * lk)
    return GeneratorSet(H=h, Ls=tuple(ls))


# -- GeneratorSet ---------------------------------------------------------------

def test_generator_set_rejects_non_hermitian_h():
    with pytest.raises(ValidationError, match="^H Hermiticity defect"):
        GeneratorSet(H=np.array([[0, 1], [0, 0]], dtype=complex))


def test_generator_set_rejects_mismatched_dims():
    with pytest.raises(ValidationError, match=r"^L\[0\] shape \(3, 3\) != H shape \(2, 2\)$"):
        GeneratorSet(H=ZERO2, Ls=(np.zeros((3, 3)),))
    with pytest.raises(ValidationError, match=r"^K shape \(3, 3\) != H shape \(2, 2\)$"):
        GeneratorSet(H=ZERO2, K=np.zeros((3, 3)))


def test_generator_set_rejects_too_many_boosts():
    # K is one matrix, so a stack of generators is refused as not square
    with pytest.raises(ValidationError, match="expected a square matrix"):
        GeneratorSet(H=ZERO2, K=np.stack([ZERO2, ZERO2, ZERO2, ZERO2]))
    # only K_x is transported, so a y part would be dropped without a word
    with pytest.raises(ValidationError, match="expected a square matrix"):
        GeneratorSet(H=ZERO2, K=np.stack([SX / 2, SY / 2]))


def test_generator_set_arrays_read_only():
    gen = decoherence_model()
    with pytest.raises(ValueError):
        gen.H[0, 0] = 1.0


def test_trajectory_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(step=0.0, steps=10)
    with pytest.raises(ValueError):
        TrajectoryConfig(step=0.1, steps=-1)
    assert TrajectoryConfig(step=0.5, steps=4).span == pytest.approx(2.0)


@pytest.mark.parametrize(("call", "message"), [
    (lambda: TrajectoryConfig(step=math.nan, steps=3), "^step must be positive, got nan$"),
    (lambda: TrajectoryConfig.covering(1.0, math.nan), "^step must be positive, got nan$"),
    (lambda: TrajectoryConfig.covering(math.nan, 0.1), "^span must be non-negative, got nan$"),
], ids=["step", "covering-step", "covering-span"])
def test_trajectory_config_refuses_nan(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("step", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_trajectory_config_refuses_an_infinite_step(step):
    # an infinite step would end the ensemble in a NaN norm, not an input error
    with pytest.raises(ValidationError, match=f"^step must be positive, got {step}$"):
        TrajectoryConfig(step=step, steps=3)


def test_trajectory_config_covering_keeps_the_fixed_step_plan():
    for span in (-0.0, 0.0, 1e-3, 0.7, 1.0, 1.75, 2.0, 30.0, 1e6):
        for step in (1e-3, 0.01, 0.04, 0.1, 0.3, 1.0, 7.0, 100.0):
            # the plan each caller wrote out before: a zero span takes no step
            steps = max(1, math.ceil(span / step)) if span else 0
            old = (span / steps, steps) if span else (step, 0)
            cfg = TrajectoryConfig.covering(span, step, seed=5, renormalize=False)
            assert (cfg.step, cfg.steps) == old, (span, step)
            assert (cfg.seed, cfg.renormalize) == (5, False)


def test_fixed_step_plan_refuses_a_non_finite_step_count():
    with pytest.raises(ValidationError, match="no finite step count"):
        TrajectoryConfig.covering(1e300, 1e-300)
    with pytest.raises(ValidationError, match="no finite step count"):
        lindblad_propagate(PLUS_RHO, decoherence_model(1.0), 1e300, method="rk4", step=1e-300)


def test_fixed_step_plan_refuses_a_negative_span():
    # the message of the Lindblad path (`dynamics._offsets`), not one step of h = -1
    with pytest.raises(ValidationError, match="^span must be non-negative, got -1$"):
        TrajectoryConfig.covering(-1.0, 0.01)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan])
def test_fixed_step_plan_refuses_a_non_positive_step(step):
    with pytest.raises(ValidationError, match="step must be positive"):
        TrajectoryConfig.covering(1.0, step)


# -- Lindblad propagation ---------------------------------------------------------

def test_lindblad_matches_closed_form_strong_decoherence():
    gen = decoherence_model(1.0)
    rho = lindblad_propagate(PLUS_RHO, gen, 30.0, method="exact")
    assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-15.0), rel=1e-9)
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=2e-7)


@pytest.mark.parametrize("gamma_span", [0.0, 1.0, 5.0, 10.0, 30.0])
def test_lindblad_exact_vs_closed_form(gamma_span):
    gen = decoherence_model(1.0)
    rho = lindblad_propagate(PLUS_RHO, gen, gamma_span, method="exact")
    ref = lindblad_exact_twolevel(PLUS_RHO, 1.0, gamma_span)
    np.testing.assert_allclose(rho, ref, atol=1e-9)


def test_lindblad_unitary_when_no_couplings():
    gen = GeneratorSet(H=SZ)
    rho0 = density_from_state(np.array([0.6, 0.8]))
    rho = lindblad_propagate(rho0, gen, 7.3)
    assert purity(rho) == pytest.approx(1.0, abs=1e-10)
    u = expm_generator(SZ, 7.3)
    np.testing.assert_allclose(rho, u @ rho0 @ u.conj().T, atol=1e-12)


def test_lindblad_zero_span_identity():
    gen = decoherence_model()
    np.testing.assert_array_equal(lindblad_propagate(PLUS_RHO, gen, 0.0), PLUS_RHO)


@pytest.mark.parametrize("method, step", [("exact", None), ("rk4", 1e-2)])
def test_lindblad_many_offsets_match_one_at_a_time(method, step):
    gen = decoherence_model(1.0)
    offsets = [0.0, 0.3, 1.75, 4.0]
    rhos = lindblad_propagate(PLUS_RHO, gen, offsets, method=method, step=step)
    assert rhos.shape == (4, 2, 2)
    for a, rho in zip(offsets, rhos):
        np.testing.assert_array_equal(rho, lindblad_propagate(PLUS_RHO, gen, a, method, step))
    grid = lindblad_propagate(PLUS_RHO, gen, np.reshape(offsets, (2, 2)), method, step)
    np.testing.assert_array_equal(grid, rhos.reshape(2, 2, 2, 2))


def bits(m):
    """The raw bits of a complex array: equal bits mean equal values and equal zero signs."""
    return np.ascontiguousarray(m).view(np.uint64)


@pytest.mark.parametrize("block", [dynamics._LINDBLAD_BLOCK, 3], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize(
    "gamma, method, step",
    [(1.0, "exact", None), (1.0, "rk4", 1e-2), (0.0, "exact", None), (0.0, "rk4", None)],
    ids=["exact", "rk4", "gamma-0", "gamma-0-rk4"],
)
def test_lindblad_stack_is_one_at_a_time_bitwise(monkeypatch, block, gamma, method, step):
    monkeypatch.setattr(dynamics, "_LINDBLAD_BLOCK", block)
    gen = GeneratorSet(H=0.7 * SZ + 0.2 * SX, Ls=(decohering_coupling(gamma),))
    rho0 = random_density(np.random.default_rng(67), 2)
    # zero offsets first and in the middle; at gamma = 1 the 1-norms of span*L
    # take Pade degrees 3, 5, 7, 9 and 13, the last with s = 0, 1, 2 and 4
    offsets = np.array([0.0, 0.004, 0.1, 0.3, 0.8, 0.0, 1.75, 4.0, 9.0, 30.0])
    rhos = lindblad_propagate(rho0, gen, offsets, method, step)
    for a, rho in zip(offsets, rhos):
        assert np.array_equal(bits(rho), bits(lindblad_propagate(rho0, gen, float(a), method, step)))
    assert np.array_equal(bits(rhos[0]), bits(rho0)) and np.array_equal(bits(rhos[5]), bits(rho0))
    grid = lindblad_propagate(rho0, gen, offsets.reshape(2, 5), method, step)
    assert np.array_equal(bits(grid), bits(rhos.reshape(2, 5, 2, 2)))


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_zero_generator_returns_rho0_bitwise(method):
    # the CLI's gamma = 0 runs: H = 0 and a zero coupling, on the one
    # Lindblad path; rk4 without dissipation runs exact and takes no step
    gen = dephasing_model(0.0)
    for rho0 in (initial_state(), random_density(np.random.default_rng(71), 2)):
        assert np.array_equal(bits(lindblad_propagate(rho0, gen, 7.3, method)), bits(rho0))
        rhos = lindblad_propagate(rho0, gen, [0.004, 1.0, 30.0, 1e12], method)
        for rho in rhos:
            assert np.array_equal(bits(rho), bits(rho0))


def test_lindblad_refuses_the_first_negative_offset_before_any_work(monkeypatch):
    monkeypatch.setattr(dynamics, "liouvillian", _no_work)
    monkeypatch.setattr(dynamics, "_expm", _no_work)
    with pytest.raises(ValidationError, match="non-negative, got -2$"):
        lindblad_propagate(PLUS_RHO, decoherence_model(), [1.0, 0.0, -2.0, 3.0, -5.0])


def _no_work(*args, **kwargs):
    raise AssertionError("work started before every offset was checked")


def test_lindblad_many_offsets_checked_once_and_each():
    gen = decoherence_model()
    with pytest.raises(ValueError, match="^method must be 'exact' or 'rk4', got 'magic'$"):
        lindblad_propagate(PLUS_RHO, gen, [], method="magic")
    assert lindblad_propagate(PLUS_RHO, gen, []).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="non-negative"):
        lindblad_propagate(PLUS_RHO, gen, [1.0, -1.0])


def test_lindblad_rk4_matches_exact():
    gen = decoherence_model(1.0)
    exact = lindblad_propagate(PLUS_RHO, gen, 3.0, method="exact")
    rk4 = lindblad_propagate(PLUS_RHO, gen, 3.0, method="rk4", step=1e-3)
    assert trace_distance(rk4, exact) <= 1e-6


def test_lindblad_rk4_is_the_runge_kutta_polynomial():
    # pure dephasing: the coherence is an eigenvector of the generator with
    # eigenvalue -gamma/2, so n RK4 steps of h scale it by P(-gamma*h/2)^n;
    # the span is not a multiple of the step, and the steps are coarse
    # enough that P^n is far from the exact exp(-gamma*span/2)
    gamma, span, step = 2.0, 1.75, 0.1
    n = math.ceil(span / step)
    x = -0.5 * gamma * span / n
    expected = 0.5 * (1.0 + x + x**2 / 2 + x**3 / 6 + x**4 / 24) ** n
    rho = lindblad_propagate(PLUS_RHO, decoherence_model(gamma), span, method="rk4", step=step)
    assert rho[0, 1].real == pytest.approx(expected, rel=1e-12)
    assert rho[1, 0].real == pytest.approx(expected, rel=1e-12)
    assert abs(expected - 0.5 * math.exp(-0.5 * gamma * span)) > 1e-8


def test_lindblad_rk4_refuses_a_density_that_is_not_positive_inside_the_step_bound():
    # a driven, damped three-level ladder (H = a + a^dag, L = a) from its
    # ground state: one rk4 step at 0.9 of the step bound, 2||H|| + 2||L^dag L||,
    # gives a density whose smallest eigenvalue is -2.5e-5, which the 1e-6
    # positivity check refuses; exact evolution stays positive
    a = np.diag([1.0, math.sqrt(2.0)], 1)
    gen = GeneratorSet(H=a + a.T, Ls=(a,))
    step = 0.9 / (2.0 * math.sqrt(3.0) + 2.0 * 2.0)
    ground = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(NumericalError, match=r"^smallest eigenvalue -2\.47\de-05 below -1\.0e-06$"):
        lindblad_propagate(ground, gen, step, method="rk4", step=step)
    assert np.linalg.eigvalsh(lindblad_propagate(ground, gen, step)).min() > -1e-15


def test_lindblad_rk4_step_too_large():
    gen = decoherence_model(10.0)
    with pytest.raises(ValidationError, match="reduce step"):
        lindblad_propagate(PLUS_RHO, gen, 1.0, method="rk4", step=0.2)


def test_lindblad_rk4_requires_step():
    with pytest.raises(ValueError):
        lindblad_propagate(PLUS_RHO, decoherence_model(), 1.0, method="rk4")


@pytest.mark.parametrize("step", [None, 0.2], ids=["no-step", "step-too-large"])
def test_lindblad_rk4_checks_its_step_even_at_zero_offsets(step):
    # the step is checked against the generator, whatever the offsets
    with pytest.raises(ValidationError, match="requires a positive step|reduce step"):
        lindblad_propagate(PLUS_RHO, decoherence_model(10.0), [0.0, 0.0], method="rk4", step=step)


@pytest.mark.parametrize(("span", "method", "step", "message"), [
    (math.nan, "exact", None, "^span must be non-negative, got nan$"),
    ([0.5, math.nan, 1.0], "exact", None, "^span must be non-negative, got nan$"),
    (math.nan, "rk4", 1e-3, "^span must be non-negative, got nan$"),
    (1.0, "rk4", math.nan, "^rk4 requires a positive step$"),
], ids=["span", "span-in-array", "rk4-span", "rk4-step"])
def test_lindblad_refuses_nan_as_an_input_error(span, method, step, message):
    with pytest.raises(ValidationError, match=message):
        lindblad_propagate(PLUS_RHO, decoherence_model(), span, method=method, step=step)


@pytest.mark.parametrize(("span", "method", "step"), [
    (math.inf, "exact", None),
    ([0.5, math.inf, 1.0], "exact", None),
    (math.inf, "rk4", 1e-3),
], ids=["span", "span-in-array", "rk4-span"])
def test_lindblad_refuses_an_infinite_span_as_an_input_error(span, method, step):
    # not a NumericalError from the exponent's 1-norm
    with pytest.raises(ValidationError, match="^span must be non-negative, got inf$"):
        lindblad_propagate(PLUS_RHO, decoherence_model(), span, method=method, step=step)


def test_lindblad_rejects_unknown_method():
    with pytest.raises(ValueError):
        lindblad_propagate(PLUS_RHO, decoherence_model(), 1.0, method="magic")


def test_lindblad_dim_mismatch():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        lindblad_propagate(np.eye(3) / 3, decoherence_model(), 1.0)


def test_lindblad_trace_and_positivity_random_models():
    rng = np.random.default_rng(20)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        gen = random_model(rng, dim, n_ls=int(rng.integers(1, 3)))
        rho0 = random_density(rng, dim)
        rho = lindblad_propagate(rho0, gen, float(rng.uniform(0.1, 2.0)), method="exact")
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
        validate_density(rho)


def test_lindblad_rk4_trace_random_models():
    rng = np.random.default_rng(21)
    for _ in range(5):
        dim = int(rng.integers(2, 4))
        gen = random_model(rng, dim)
        rho0 = random_density(rng, dim)
        rho = lindblad_propagate(rho0, gen, 1.0, method="rk4", step=1e-3)
        assert abs(np.trace(rho).real - 1.0) <= 1e-6


def test_unital_purity_non_increasing():
    # Hermitian couplings make the channel unital; purity cannot grow
    rng = np.random.default_rng(22)
    for _ in range(10):
        gen = random_model(rng, 2, hermitian_ls=True)
        rho0 = random_density(rng, 2)
        last = purity(rho0)
        for span in (0.2, 0.5, 1.0):
            p = purity(lindblad_propagate(rho0, gen, span, method="exact"))
            assert p <= last + 1e-10
            last = p


def lindblad_operator_form(rho, gen):
    """-i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2), an oracle for liouvillian."""
    out = -1j * (gen.H @ rho - rho @ gen.H)
    for lk in gen.Ls:
        ldl = lk.conj().T @ lk
        out += lk @ rho @ lk.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def test_liouvillian_matches_rhs():
    rng = np.random.default_rng(23)
    gen = random_model(rng, 3, n_ls=2)
    rho = random_density(rng, 3)
    direct = lindblad_operator_form(rho, gen)
    via_super = (liouvillian(gen) @ rho.reshape(-1)).reshape(3, 3)
    np.testing.assert_allclose(via_super, direct, atol=1e-12)


def liouvillian_kron(gen):
    """liouvillian with np.kron products, kept as the reference for its broadcast products."""
    eye = np.eye(gen.dim, dtype=np.complex128)
    h = gen.H
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for lk in gen.Ls:
        ldl = lk.conj().T @ lk
        sup += np.kron(lk, lk.conj())
        sup -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return sup


def test_liouvillian_matches_kron_form_bitwise():
    rng = np.random.default_rng(29)
    for _ in range(200):
        gen = random_model(rng, int(rng.integers(1, 5)), n_ls=int(rng.integers(0, 3)))
        got, ref = liouvillian(gen), liouvillian_kron(gen)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


# -- matrix exponential ------------------------------------------------------------

def norm1(m):
    return float(np.abs(m).sum(axis=0).max())


def pade_choice(l, a):
    """(degree m, squarings s) that Higham's rule picks for the offset a of l."""
    norm = a * norm1(l)
    m, theta = next(((m, theta) for m, theta, _ in _PADE if norm <= theta), _PADE[-1][:2])
    return m, max(0, math.ceil(math.log2(norm / theta)))


def expm(l, offsets):
    """exp(a l) for each offset a, as one stack."""
    return _expm(l, np.asarray(offsets, dtype=np.float64), norm1(l))


def test_expm_matches_scipy_on_random_generators():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(31)
    choices, worst = set(), 0.0
    for _ in range(60):
        sup = liouvillian(random_model(rng, int(rng.integers(2, 5)), n_ls=int(rng.integers(0, 3))))
        # 1-norms of span*L that pick m = 3, 5, 7, 9 and 13, the last with s = 0, 3 and 6
        offsets = np.array([0.01, 0.2, 0.9, 2.0, 5.0, 40.0, 300.0]) / norm1(sup)
        for a, got in zip(offsets, expm(sup, offsets)):
            choices.add(pade_choice(sup, a))
            ref = scipy_linalg.expm(sup * a)
            worst = max(worst, norm1(got - ref) / norm1(ref))
    assert {m for m, _ in choices} == {3, 5, 7, 9, 13}
    assert {s for _, s in choices} >= {0, 3, 6}
    assert worst <= 1e-12


def test_expm_of_zero_is_identity_exactly():
    for n in (1, 2, 4, 9):
        for got in expm(np.zeros((n, n), dtype=complex), [0.0, 1.0, 1e300]):
            np.testing.assert_array_equal(got, np.eye(n))


def test_expm_normalizes_a_generator_whose_powers_overflow():
    # ||L||_1 = 1e30: L^13 overflows, but 1e-30 L has 1-norm 1 and takes m = 7
    scipy_linalg = pytest.importorskip("scipy.linalg")
    sup = liouvillian(random_model(np.random.default_rng(47), 2, n_ls=2))
    sup *= 1e30 / norm1(sup)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.linalg.matrix_power(sup, 13)).all()
    offsets = [1e-30, 3e-31, 2e-29]
    for a, got in zip(offsets, expm(sup, offsets)):
        ref = scipy_linalg.expm(sup * a)
        assert np.isfinite(got).all()
        assert norm1(got - ref) <= 1e-12 * norm1(ref)


@pytest.mark.parametrize("gamma_span", [1e-3, 0.05, 0.5, 1.5, 4.0, 10.0, 30.0, 200.0])
def test_expm_dephasing_matches_closed_form(gamma_span):
    rho0 = random_density(np.random.default_rng(37), 2)
    for rho in (PLUS_RHO, rho0):
        got = lindblad_propagate(rho, decoherence_model(1.0), gamma_span, method="exact")
        ref = lindblad_exact_twolevel(rho, 1.0, gamma_span)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("gamma_span", [1e8, 1e10, 1e12])
def test_expm_dephasing_keeps_the_trace_at_large_norm(gamma_span):
    # dozens of squarings: each doubles the error of the zero eigenvalue's exp(0) = 1
    # unless the diagonal is reset to its exact value
    rho0 = random_density(np.random.default_rng(41), 2)
    for rho in (PLUS_RHO, rho0):
        got = lindblad_propagate(rho, decoherence_model(1.0), gamma_span, method="exact")
        np.testing.assert_allclose(got, lindblad_exact_twolevel(rho, 1.0, gamma_span),
                                   rtol=0, atol=1e-14)
    scipy_linalg = pytest.importorskip("scipy.linalg")
    sup = liouvillian(decoherence_model(1.0))
    np.testing.assert_allclose(expm(sup, [gamma_span])[0], scipy_linalg.expm(sup * gamma_span),
                               rtol=0, atol=1e-14)


def random_triangular(rng, n):
    """An upper triangular matrix of 1-norm 1 whose diagonal decays."""
    a = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a[np.diag_indices(n)] -= np.abs(a.diagonal().real) + 1.0
    return a / norm1(a)


def test_expm_upper_triangular_diagonal_is_exact():
    # with s > 0 squarings, the diagonal is reset to exp(diag(a L)) after the last one;
    # 1-norms 10, 40 and 300 take s = 1, 3 and 6
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(43)
    offsets = [40.0, 10.0, 300.0]
    for _ in range(10):
        l = random_triangular(rng, int(rng.integers(2, 5)))
        for a, got in zip(offsets, expm(l, offsets)):
            np.testing.assert_array_equal(got.diagonal(), np.exp(l.diagonal() * a))
            ref = scipy_linalg.expm(l * a)
            assert norm1(got - ref) <= 1e-12 * norm1(ref)


def test_expm_of_a_stack_is_each_matrix_bitwise():
    rng = np.random.default_rng(71)
    gens = [liouvillian(random_model(rng, 2, n_ls=n_ls)) for n_ls in (0, 1, 2)]
    gens += [random_triangular(rng, 4), np.zeros((4, 4), dtype=complex)]
    targets = np.array([0.01, 0.2, 0.9, 2.0, 5.0, 40.0, 300.0, 0.0, 1e-320])
    choices = set()
    for l in gens:
        offsets = rng.permutation(np.repeat(targets / (norm1(l) or 1.0), 3))  # plans interleaved
        choices |= {pade_choice(l, a) for a in offsets if a * norm1(l)}
        got = expm(l, offsets)
        for a, e in zip(offsets, got):
            assert np.array_equal(bits(e), bits(expm(l, [a])[0]))
    assert {m for m, _ in choices} == {3, 5, 7, 9, 13}
    assert {s for _, s in choices} >= {0, 3, 6}


@pytest.mark.parametrize(
    "gamma, method, step, message",
    [(1e-9, "rk4", 1e-10, r"span/step = 1e\+299/1e-10 has no finite step count"),
     (1e10, "exact", None, r"exponent 1-norm is inf: expm\(span\*L\) overflows")],
    ids=["rk4-step-count", "exact-exponent"],
)
def test_lindblad_refuses_an_overflowing_second_offset_before_any_block(
        monkeypatch, gamma, method, step, message):
    monkeypatch.setattr(dynamics, "_expm", _no_work)
    monkeypatch.setattr(dynamics, "_rk4_propagator", _no_work)
    with pytest.raises((ValidationError, NumericalError), match=message):
        lindblad_propagate(PLUS_RHO, decoherence_model(gamma), [1.0, 1e299], method, step)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lindblad_refuses_non_finite_exponent(monkeypatch, bad):
    sup = np.zeros((4, 4), dtype=complex)
    sup[1, 1] = bad
    monkeypatch.setattr(dynamics, "liouvillian", lambda gen: sup)
    monkeypatch.setattr(dynamics, "_expm", _no_work)
    with pytest.raises(NumericalError, match=f"1-norm is {abs(bad)}: expm.* overflows"):
        lindblad_propagate(PLUS_RHO, decoherence_model(), [0.0, 1.0])
    assert np.array_equal(lindblad_propagate(PLUS_RHO, decoherence_model(), [0.0]), [PLUS_RHO])


# -- closed-form two-level oracle ---------------------------------------------------

def test_twolevel_closed_form_strong_limit():
    out = lindblad_exact_twolevel(PLUS_RHO, 1.0, 30.0)
    np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=2e-7)


def test_twolevel_closed_form_gamma_zero():
    np.testing.assert_array_equal(lindblad_exact_twolevel(PLUS_RHO, 0.0, 5.0), PLUS_RHO)


def test_twolevel_closed_form_half_life():
    out = lindblad_exact_twolevel(PLUS_RHO, 1.0, 2.0 * math.log(2.0))
    assert out[0, 1].real == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("call", [
    lambda: decohering_coupling(math.nan),
    lambda: lindblad_exact_twolevel(PLUS_RHO, math.nan, 1.0),
], ids=["decohering_coupling", "lindblad_exact_twolevel"])
def test_nan_gamma_is_refused(call):
    with pytest.raises(ValidationError, match="^gamma must be non-negative, got nan$"):
        call()


@pytest.mark.parametrize("gamma", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_decohering_coupling_refuses_an_infinite_gamma(gamma):
    with pytest.raises(ValidationError, match=f"^gamma must be non-negative, got {gamma}$"):
        decohering_coupling(gamma)


@pytest.mark.parametrize(("gamma", "span", "message"), [
    (1.0, -1.0, "^span must be non-negative, got -1$"),
    (1.0, math.nan, "^span must be non-negative, got nan$"),
    (1.0, [0.5, math.inf], "^span must be non-negative, got inf$"),
    (math.inf, 1.0, "^gamma must be non-negative, got inf$"),
], ids=["negative-span", "nan-span", "inf-span", "inf-gamma"])
def test_twolevel_closed_form_refuses_what_lindblad_propagate_refuses(gamma, span, message):
    # with lindblad_propagate's message; unchecked, a span of -1 gave a coherence
    # of 0.824 from 0.5, and a NaN span NaN coherences
    with pytest.raises(ValidationError, match=message):
        lindblad_exact_twolevel(PLUS_RHO, gamma, span)


def test_twolevel_closed_form_rejects_dim():
    with pytest.raises(ValidationError, match="closed form is for dim 2"):
        lindblad_exact_twolevel(np.eye(3) / 3, 1.0, 1.0)


# -- QSD stepping -----------------------------------------------------------------

def test_qsd_step_unitary_limit():
    gen = GeneratorSet(H=SX)
    h = 1e-3
    stepped = qsd_step(PLUS_STATE, gen, None, h)
    exact = expm_generator(SX, h) @ PLUS_STATE
    assert np.linalg.norm(stepped - exact) <= 2.0 * h**2


def test_qsd_step_eigenstate_fixed_point():
    gen = decoherence_model(4.0)
    up = np.array([1.0, 0.0], dtype=complex)
    for dxi in (np.array([0.3 + 0.1j]), np.array([-2.0 + 1.5j])):
        out = qsd_step(up, gen, dxi, 0.01)
        np.testing.assert_allclose(out, up, atol=1e-15)


def test_qsd_step_requires_noise_for_couplings():
    gen = decoherence_model()
    with pytest.raises(ValidationError, match="do not fit"):
        qsd_step(PLUS_STATE, gen, None, 0.01)
    with pytest.raises(ValidationError, match="do not fit"):
        qsd_step(PLUS_STATE, gen, np.zeros(2, dtype=complex), 0.01)


def test_qsd_step_zero_norm():
    # L = sigma_x, psi = |0>: drift is -psi/2 per unit step, so step = 2
    # with zero noise cancels the state exactly
    gen = GeneratorSet(H=ZERO2, Ls=(SX,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError, match="^trajectory norm collapsed to"):
            qsd_step(np.array([1.0, 0.0]), gen, np.array([0.0 + 0.0j]), step=2.0)


def test_qsd_trajectory_zero_steps():
    gen = decoherence_model()
    path = qsd_trajectory(PLUS_STATE, gen, TrajectoryConfig(step=0.1, steps=0, seed=1))
    assert path.shape == (1, 2)
    np.testing.assert_array_equal(path[0], PLUS_STATE)


def test_qsd_trajectory_deterministic():
    gen = decoherence_model()
    cfg = TrajectoryConfig(step=0.01, steps=150, seed=77)
    a = qsd_trajectory(PLUS_STATE, gen, cfg)
    b = qsd_trajectory(PLUS_STATE, gen, cfg)
    np.testing.assert_array_equal(a, b)
    c = qsd_trajectory(PLUS_STATE, gen, TrajectoryConfig(step=0.01, steps=150, seed=78))
    assert not np.array_equal(a, c)


def test_qsd_trajectory_refuses_a_negative_stream():
    cfg = TrajectoryConfig(step=0.01, steps=3)
    with pytest.raises(ValidationError, match="non-negative, got -1"):
        qsd_trajectory(PLUS_STATE, decoherence_model(), cfg, stream=-1)


def test_qsd_trajectory_norms_when_renormalizing():
    gen = decoherence_model()
    path = qsd_trajectory(PLUS_STATE, gen, TrajectoryConfig(step=0.02, steps=200, seed=3))
    norms = np.linalg.norm(path, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_qsd_trajectory_unitary_overlap():
    h_norm = 1.0  # ||SX|| = 1
    gen = GeneratorSet(H=SX)
    steps = 1000
    cfg = TrajectoryConfig(step=1e-3 / h_norm, steps=steps, seed=5)
    path = qsd_trajectory(PLUS_STATE, gen, cfg)
    exact = expm_generator(SX, cfg.span) @ PLUS_STATE
    overlap = abs(np.vdot(exact, path[-1]))
    assert overlap >= 1.0 - 1e-6


def test_qsd_trajectory_warns_on_coarse_step():
    gen = decoherence_model(4.0)
    with pytest.warns(UserWarning, match="exceeds"):
        qsd_trajectory(PLUS_STATE, gen, TrajectoryConfig(step=0.1, steps=1, seed=0))


class Started(Exception):
    """Raised by a stand-in for rng.wiener_block: the run passed its work ceiling."""


def started(*args, **kwargs):
    raise Started


def test_qsd_work_ceiling_refuses_one_trajectory_step_more(monkeypatch):
    monkeypatch.setattr("qfoliation.rng.wiener_block", started)
    gen = decoherence_model()
    m = 2 * MIN_STEP_TRAJECTORIES
    at_ceiling = TrajectoryConfig(step=1e-3, steps=MAX_TRAJECTORY_STEPS // m)
    with pytest.raises(Started):
        ensemble_final_states(PLUS_STATE, gen, at_ceiling, m)
    over = TrajectoryConfig(step=1e-3, steps=MAX_TRAJECTORY_STEPS // m + 1)
    with pytest.raises(ValidationError, match=r"n_traj \* steps = 2000 \* 5000001 = 1e\+10 "
                                              r"trajectory-steps exceeds"):
        ensemble_final_states(PLUS_STATE, gen, over, m)


@pytest.mark.parametrize("n_traj", [1, 100])
def test_qsd_work_ceiling_counts_each_step_as_at_least_its_fixed_cost(monkeypatch, n_traj):
    monkeypatch.setattr("qfoliation.rng.wiener_block", started)
    gen = decoherence_model()
    at_ceiling = TrajectoryConfig(step=1e-3, steps=MAX_TRAJECTORY_STEPS // MIN_STEP_TRAJECTORIES)
    with pytest.raises(Started):
        ensemble_final_states(PLUS_STATE, gen, at_ceiling, n_traj)
    over = TrajectoryConfig(step=1e-3, steps=at_ceiling.steps + 1)
    message = (f"n_traj * steps = {n_traj} * 10000001 = {n_traj * 10000001:.3g} trajectory-steps, "
               "counted at 1000 trajectories a step, exceeds the work ceiling of 1e+10")
    with pytest.raises(ValidationError, match=re.escape(message)):
        ensemble_final_states(PLUS_STATE, gen, over, n_traj)


def test_refused_ensemble_allocates_nothing_of_its_size():
    # 10^7 trajectories of 10^4 steps: one stream index each is already 76 MiB
    cfg = TrajectoryConfig(step=1e-3, steps=10**4)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"n_traj \* steps = 10000000 \* 10000 = 1e\+11"):
            ensemble_final_states(PLUS_STATE, decoherence_model(), cfg, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_refused_trajectory_raises_the_ceiling_before_allocating_its_path():
    # the path of 2 * 10^10 steps would take 596 GiB
    cfg = TrajectoryConfig(step=1e-3, steps=2 * 10**10)
    with pytest.raises(ValidationError, match=r"n_traj \* steps = 1 \* 20000000000 = 2e\+10"):
        qsd_trajectory(PLUS_STATE, decoherence_model(), cfg)


def test_qsd_reduction_frequencies():
    # strong decoherence collapses each trajectory onto an eigenstate; the
    # Lindblad diagonal (1/2, 1/2) fixes the frequencies
    gen = decoherence_model(1.0)
    cfg = TrajectoryConfig(step=0.1, steps=300, seed=2026)
    finals = ensemble_final_states(PLUS_STATE, gen, cfg, 400)
    p_up = np.abs(finals[:, 0]) ** 2
    collapsed = (p_up < 0.01) | (p_up > 0.99)
    assert collapsed.mean() > 0.95
    frac_up = (p_up > 0.5).mean()
    assert abs(frac_up - 0.5) <= 3.0 / math.sqrt(400)


def qsd_step_einsum(psis, gen, dxi, step, renormalize):
    """One Euler-Maruyama step on rows psis, shape (M, d), with noise dxi, shape
    (M, K): the drift and noise written term by term in einsum, an oracle for
    the column kernel behind qsd_step and the ensembles."""
    d = gen.dim
    ls = np.stack(gen.Ls) if gen.Ls else np.zeros((0, d, d), dtype=complex)
    ldl_sum = np.einsum("kji,kjl->il", ls.conj(), ls)
    drift = -1j * np.einsum("ij,mj->mi", gen.H, psis)
    if ls.shape[0]:
        lpsi = np.einsum("kij,mj->kmi", ls, psis)
        lexp = np.einsum("mi,kmi->km", psis.conj(), lpsi)
        drift += np.einsum("km,kmi->mi", lexp.conj(), lpsi)
        drift -= 0.5 * np.einsum("ij,mj->mi", ldl_sum, psis)
        drift -= 0.5 * np.einsum("km,km->m", lexp.conj(), lexp)[:, None] * psis
        noise = np.einsum("kmi,km->mi", lpsi, dxi.T)
        noise -= np.einsum("km,km->m", lexp, dxi.T)[:, None] * psis
        out = psis + drift * step + noise
    else:
        out = psis + drift * step
    if renormalize:
        out = out / np.sqrt(np.einsum("mi,mi->m", out.conj(), out).real)[:, None]
    return out


@pytest.mark.parametrize("renormalize", [True, False], ids=["renormalize", "raw"])
@pytest.mark.parametrize("n_ls", [0, 1, 2])
def test_qsd_kernel_matches_einsum_reference(n_ls, renormalize):
    rng = np.random.default_rng(300 + n_ls)
    gen = random_model(rng, 3, n_ls=n_ls)
    assert np.any(gen.H)
    for lk in gen.Ls:
        assert np.linalg.norm(lk @ lk.conj().T - lk.conj().T @ lk) > 0.1  # non-normal
    step, m = 0.01, 7
    psis = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
    psis /= np.linalg.norm(psis, axis=1)[:, None]
    dxi = math.sqrt(step / 2) * (rng.normal(size=(m, n_ls)) + 1j * rng.normal(size=(m, n_ls)))
    ref = qsd_step_einsum(psis, gen, dxi, step, renormalize)
    for row in range(m):
        got = qsd_step(psis[row], gen, dxi[row] if n_ls else None, step, renormalize)
        np.testing.assert_allclose(got, ref[row], rtol=0, atol=1e-13)

    # a batch step on the ensemble's own noise
    psi0 = psis[0]
    cfg = TrajectoryConfig(step=step, steps=1, seed=31, renormalize=renormalize)
    noise = wiener_block(stream_keys(31, np.arange(m)), 0, 1, n_ls, step)[0].T
    ref = qsd_step_einsum(np.tile(psi0, (m, 1)), gen, noise, step, renormalize)
    np.testing.assert_allclose(ensemble_final_states(psi0, gen, cfg, m), ref, rtol=0, atol=1e-13)

    # row m of an M = 7 batch is the same stream run alone, to the bit
    cfg = TrajectoryConfig(step=step, steps=25, seed=31, renormalize=renormalize)
    finals = ensemble_final_states(psi0, gen, cfg, m)
    for row in range(m):
        path = qsd_trajectory(psi0, gen, cfg, stream=row)
        np.testing.assert_array_equal(finals[row], path[-1])


# -- ensembles ---------------------------------------------------------------------

def test_ensemble_single_trajectory_projector():
    gen = decoherence_model()
    cfg = TrajectoryConfig(step=0.05, steps=40, seed=9)
    rho = ensemble_density(PLUS_STATE, gen, cfg, 1)
    path = qsd_trajectory(PLUS_STATE, gen, cfg, stream=0)
    np.testing.assert_allclose(rho, density_from_state(path[-1]), atol=1e-12)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gen", [
    pytest.param(decoherence_model(), id="one-channel"),
    pytest.param(GeneratorSet(H=SZ), id="zero-channel"),
    pytest.param(GeneratorSet(H=SZ, Ls=(decohering_coupling(1.0), 0.5 * SX)), id="two-channel"),
    pytest.param(dephasing_model(0.0), id="gamma-zero"),
])
def test_ensemble_row_matches_standalone_trajectory_bitwise(gen):
    cfg = TrajectoryConfig(step=0.02, steps=100, seed=4)
    finals = ensemble_final_states(PLUS_STATE, gen, cfg, 30)
    for stream in (0, 7, 29):
        path = qsd_trajectory(PLUS_STATE, gen, cfg, stream=stream)
        np.testing.assert_array_equal(finals[stream], path[-1])


QSD_MODELS = [
    pytest.param(GeneratorSet(H=SZ, Ls=(decohering_coupling(1.0),)), id="one-channel"),
    pytest.param(GeneratorSet(H=SZ), id="zero-channel"),
    pytest.param(GeneratorSet(H=SZ, Ls=(decohering_coupling(1.0), 0.5 * SX)), id="two-channel"),
    pytest.param(dephasing_model(0.0), id="gamma-zero"),
]


@pytest.mark.parametrize("gen", QSD_MODELS)
def test_batch_rows_are_their_streams_run_alone_bitwise_at_every_batch_size(gen):
    # numpy's SIMD loops round a row the same whatever its place in the
    # vector and whatever the length of the tail loop, in the (M,) calls of
    # the step plan and in its (d, M) calls over the whole batch. Every
    # batch is a prefix of the largest, bit for bit, and each of the first
    # and last rows of the largest (every tail position) and a middle run
    # is the same stream run alone. The zero-channel model draws empty
    # (steps, 0, M) noise blocks.
    cfg = TrajectoryConfig(step=0.02, steps=200, seed=5)
    sizes = (1, 2, 3, 5, 8, 17, 1000, 1001)
    largest = run_qsd_plan(plan_qsd(PLUS_STATE, gen, cfg, sizes[-1]))
    for m in sizes[:-1]:
        np.testing.assert_array_equal(run_qsd_plan(plan_qsd(PLUS_STATE, gen, cfg, m)), largest[:m])
    for stream in [*range(17), *range(500, 517), *range(984, 1001)]:
        alone = run_qsd_plan(plan_qsd(PLUS_STATE, gen, cfg, 1, first=stream))
        np.testing.assert_array_equal(alone[0], largest[stream])


@pytest.mark.parametrize("gen", QSD_MODELS)
def test_step_plan_is_elementwise_ufuncs_and_copies(gen):
    # no matmul, dot, einsum or linalg call: a forked block makes no BLAS or
    # LAPACK call in its steps
    plan = dynamics._StepPlan(dynamics._qsd_ops(gen, 0.01), np.empty((2, 2, 5), complex), True)
    assert plan.dx.shape == (len(gen.Ls), 5)
    for side in plan.calls:
        for call, args in side:
            assert call is np.copyto or (isinstance(call, np.ufunc) and call.signature is None), call
    assert len(plan.calls[0]) == len(plan.calls[1])


@pytest.mark.parametrize(("gen", "calls"), [
    # <L> 3, coef and shift 5, fac 3, out 1, norms 4: with the copy of the
    # noise, min, max and renormalization 22 calls a step
    pytest.param(dephasing_model(1.0), 16, id="dephasing"),
    pytest.param(GeneratorSet(H=SZ), 5, id="zero-channel"),  # out 1, norms 4
])
def test_step_plan_length(gen, calls):
    plan = dynamics._StepPlan(dynamics._qsd_ops(gen, 0.01), np.empty((2, 2, 5), complex), True)
    assert [len(side) for side in plan.calls] == [calls, calls]


def test_ensemble_noise_blocks_match_the_per_row_reference(monkeypatch):
    # M*K = 5000 gives blocks of 2^14 // 5000 = 3 steps: 3, 3, 3 and 1 for 10 steps
    m, seed, step = 2500, 12, 0.02
    gen = GeneratorSet(H=SZ, Ls=(decohering_coupling(1.0), 0.5 * SX))
    assert dynamics._NOISE_BLOCK_ENTRIES // (m * 2) == 3
    drawn = []

    def recording(keys, first_step, steps, channels, h):
        drawn.append((first_step, steps))
        return wiener_block(keys, first_step, steps, channels, h)

    monkeypatch.setattr("qfoliation.rng.wiener_block", recording)
    cfg = TrajectoryConfig(step=step, steps=10, seed=seed)
    rows = (0, 1, 1234, m - 1)
    refs = {row: PLUS_STATE.astype(complex) for row in rows}
    noise = {row: wiener_increments(seed, row, 10, 2, step) for row in rows}
    for s, batch in enumerate(run_qsd_plan(plan_qsd(PLUS_STATE, gen, cfg, m), record=True)):
        for row in rows:
            if s:
                refs[row] = qsd_step(refs[row], gen, noise[row][s - 1], step)
            np.testing.assert_array_equal(batch[row], refs[row])
    assert drawn == [(0, 3), (3, 3), (6, 3), (9, 1)]


def test_ensemble_unitary_equals_expm_route():
    gen = GeneratorSet(H=SZ)
    cfg = TrajectoryConfig(step=1e-3, steps=500, seed=0)
    for n_traj in (1, 3):
        rho = ensemble_density(PLUS_STATE, gen, cfg, n_traj)
        psi = expm_generator(SZ, cfg.span) @ PLUS_STATE
        assert trace_distance(rho, density_from_state(psi)) <= 1e-6


def test_ensemble_converges_to_lindblad():
    gen = decoherence_model(1.0)
    cfg = TrajectoryConfig(step=0.01, steps=300, seed=20260808)
    ref = lindblad_exact_twolevel(PLUS_RHO, 1.0, 3.0)
    for n_traj, bound in ((100, 0.5), (1000, 5.0 / math.sqrt(1000))):
        rho = ensemble_density(PLUS_STATE, gen, cfg, n_traj)
        assert trace_distance(rho, ref) <= bound


def test_ensemble_norm_preserved_in_mean_without_renormalization():
    gen = decoherence_model(1.0)
    cfg = TrajectoryConfig(step=0.01, steps=3000, seed=20260808, renormalize=False)
    finals = ensemble_final_states(PLUS_STATE, gen, cfg, 500)
    mean_sq_norm = float(np.mean(np.abs(finals) ** 2)) * finals.shape[1]
    assert abs(mean_sq_norm - 1.0) <= 0.05


def test_ensemble_validates_output():
    gen = decoherence_model()
    rho = ensemble_density(PLUS_STATE, gen, TrajectoryConfig(step=0.05, steps=60, seed=8), 64)
    validate_density(rho)


# -- boost transport ----------------------------------------------------------------

def test_boost_zero_beta_identity():
    gen = GeneratorSet(H=ZERO2, K=SY / 2)
    np.testing.assert_array_equal(boost_transport(PLUS_RHO, gen, 0.0), PLUS_RHO)


def test_boost_zero_generator_identity():
    gen = GeneratorSet(H=ZERO2, K=ZERO2)
    np.testing.assert_array_equal(boost_transport(PLUS_RHO, gen, 0.3), PLUS_RHO)
    np.testing.assert_array_equal(boost_transport(PLUS_STATE, gen, 0.3), PLUS_STATE)


def test_boost_requires_generator():
    gen = GeneratorSet(H=ZERO2)
    with pytest.raises(ValidationError, match="no boost generator configured"):
        boost_transport(PLUS_RHO, gen, 0.1)


def test_boost_refuses_a_stack_of_states():
    gen = GeneratorSet(H=ZERO2, K=SY / 2)
    with pytest.raises(ValidationError, match=r"^expected a vector or matrix, got shape \(2, 2, 2\)$"):
        boost_transport(np.stack([PLUS_RHO, PLUS_RHO]), gen, 0.1)


def test_boost_rejects_superluminal():
    gen = GeneratorSet(H=ZERO2, K=SY / 2)
    with pytest.raises(ValidationError, match=r"^\|beta\| = 1 >= 1$"):
        boost_transport(PLUS_RHO, gen, 1.0)


@pytest.mark.parametrize("state", [PLUS_RHO, PLUS_STATE], ids=["density", "vector"])
def test_boost_refuses_nan_beta(state):
    gen = GeneratorSet(H=ZERO2, K=SY / 2)
    with pytest.raises(ValidationError, match=r"^\|beta\| = nan >= 1$"):
        boost_transport(state, gen, math.nan)


def test_boost_first_order_scaling():
    # density-matrix deviation is linear in beta: halving beta halves it
    gen = GeneratorSet(H=ZERO2, K=SY / 2)
    devs = []
    for beta in (0.02, 0.01, 0.005):
        rho = boost_transport(PLUS_RHO, gen, beta)
        devs.append(np.max(np.abs(rho - PLUS_RHO)))
    assert devs[0] / devs[1] == pytest.approx(2.0, abs=0.1)
    assert devs[1] / devs[2] == pytest.approx(2.0, abs=0.1)
    assert devs[1] <= 0.01 * 1.1  # O(beta) with commutator bound ~||[K, rho]||


def test_boost_unitarity_preserves_overlaps_and_traces():
    rng = np.random.default_rng(30)
    k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gen = GeneratorSet(H=np.zeros((3, 3)), K=0.5 * (k + k.conj().T))
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi /= np.linalg.norm(phi)
    b_psi = boost_transport(psi, gen, 0.4)
    b_phi = boost_transport(phi, gen, 0.4)
    assert abs(np.vdot(b_psi, b_phi) - np.vdot(psi, phi)) <= 1e-10
    rho = random_density(rng, 3)
    b_rho = boost_transport(rho, gen, 0.4)
    assert abs(np.trace(b_rho) - np.trace(rho)) <= 1e-10
    assert purity(b_rho) == pytest.approx(purity(rho), abs=1e-10)


def test_boost_state_and_density_consistent():
    gen = GeneratorSet(H=ZERO2, K=SY / 2)
    psi_b = boost_transport(PLUS_STATE, gen, 0.2)
    rho_b = boost_transport(PLUS_RHO, gen, 0.2)
    np.testing.assert_allclose(density_from_state(psi_b), rho_b, atol=1e-12)


def test_coupling_norms():
    gen = decoherence_model(4.0)
    assert coupling_norms(gen) == [pytest.approx(4.0)]


# -- library input refusals -----------------------------------------------------

SHORT = TrajectoryConfig(step=0.01, steps=3)

NON_INTEGER = {
    "TrajectoryConfig.steps": (lambda v: TrajectoryConfig(step=0.01, steps=v), "steps"),
    "TrajectoryConfig.seed": (lambda v: TrajectoryConfig(step=0.01, steps=3, seed=v), "seed"),
    "QsdSettings.n_traj": (lambda v: QsdSettings(n_traj=v, seed=0), "qsd n_traj"),
    "QsdSettings.seed": (lambda v: QsdSettings(n_traj=2, seed=v), "qsd seed"),
    "ensemble_final_states": (
        lambda v: ensemble_final_states(PLUS_STATE, decoherence_model(), SHORT, v), "n_traj"),
    "ensemble_density": (
        lambda v: ensemble_density(PLUS_STATE, decoherence_model(), SHORT, v), "n_traj"),
    "qsd_trajectory": (
        lambda v: qsd_trajectory(PLUS_STATE, decoherence_model(), SHORT, stream=v), "stream"),
}


@pytest.mark.parametrize("call", NON_INTEGER)
def test_non_integer_counts_seeds_and_streams_are_input_errors(call):
    make, name = NON_INTEGER[call]
    for bad in (2.5, 1.5, np.float64(2.0), "2"):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            make(bad)
    np.testing.assert_array_equal(make(np.int64(2)), make(2))  # numpy integers pass


def test_numpy_integer_counts_are_stored_as_python_ints():
    cfg = TrajectoryConfig(step=0.01, steps=np.int64(3), seed=np.uint8(4))
    assert (type(cfg.steps), type(cfg.seed)) == (int, int) and (cfg.steps, cfg.seed) == (3, 4)
    qsd = QsdSettings(n_traj=np.int32(5), seed=np.int64(6))
    assert (type(qsd.n_traj), type(qsd.seed)) == (int, int)


def test_trajectory_config_refuses_a_negative_seed():
    with pytest.raises(ValidationError, match="^seed must be non-negative, got -1$"):
        TrajectoryConfig(step=0.01, steps=3, seed=-1)


def test_ensemble_needs_at_least_one_trajectory():
    with pytest.raises(ValidationError, match="^need at least one trajectory, got 0$"):
        ensemble_final_states(PLUS_STATE, decoherence_model(), SHORT, 0)


def test_mean_projector_refuses_a_zero_row():
    states = np.array([PLUS_STATE, [0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalError, match=r"^final-state norm collapsed to 0\.000e\+00$"):
        mean_projector(states)


@pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf")], ids=["nan", "inf"])
def test_mean_projector_refuses_a_non_finite_row(bad, shown):
    # before the division, which would warn (an error under the test settings)
    states = np.array([PLUS_STATE, [bad, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericalError, match=f"^final-state norm is not finite: {shown}$"):
        mean_projector(states)
