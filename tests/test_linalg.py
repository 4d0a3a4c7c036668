import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoliation.errors import NumericalError, ValidationError
from qfoliation.linalg import (
    density_from_state,
    expectation,
    expm_generator,
    hermiticity_defect,
    normalize_state,
    purity,
    require_density,
    state_expectation,
    trace_distance,
    validate_density,
    validate_state,
)
from _checks import SX, SZ, dagger, random_complex, random_density, random_hermitian

PLUS = np.full((2, 2), 0.5, dtype=complex)  # projector onto (1,1)/sqrt(2)


# -- dagger -------------------------------------------------------------------

def test_dagger_identity():
    np.testing.assert_array_equal(dagger(np.eye(2, dtype=complex)), np.eye(2))


def test_dagger_raising_operator():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_array_equal(dagger(m), np.array([[0, 0], [1, 0]]))


def test_dagger_involution_4x4():
    rng = np.random.default_rng(1)
    m = random_complex(rng, (4, 4))
    np.testing.assert_array_equal(dagger(dagger(m)), m)


def test_dagger_does_not_mutate():
    m = np.array([[0, 1j], [0, 0]])
    before = m.copy()
    dagger(m)
    np.testing.assert_array_equal(m, before)


# -- expm_generator -----------------------------------------------------------

def test_expm_zero_span_is_identity():
    rng = np.random.default_rng(2)
    g = random_hermitian(rng, 3)
    np.testing.assert_allclose(expm_generator(g, 0.0), np.eye(3), atol=1e-15)


def test_expm_pauli_z_pi():
    np.testing.assert_allclose(expm_generator(SZ, np.pi), -np.eye(2), atol=1e-14)


def test_expm_pauli_x_half_pi():
    np.testing.assert_allclose(expm_generator(SX, np.pi / 2), -1j * SX, atol=1e-14)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="^generator Hermiticity defect"):
        expm_generator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("shape", ["scalar", "array"])
def test_expm_rejects_a_non_finite_parameter(bad, shape):
    s = bad if shape == "scalar" else np.array([[0.5, 1.0], [bad, np.nan]])
    with pytest.raises(ValidationError, match=f"^generator parameter must be finite, got {bad}$"):
        expm_generator(SZ, s)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
    s=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_expm_unitary(dim, seed, s):
    g = random_hermitian(np.random.default_rng(seed), dim)
    u = expm_generator(g, s)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    assert defect <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    s=st.floats(min_value=-5, max_value=5, allow_nan=False),
    t=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_expm_group_property(seed, s, t):
    g = random_hermitian(np.random.default_rng(seed), 4)
    whole = expm_generator(g, s + t)
    parts = expm_generator(g, s) @ expm_generator(g, t)
    assert np.max(np.abs(whole - parts)) <= 1e-10


# -- expectation ----------------------------------------------------------------

def test_expectation_spin_on_superposition():
    assert expectation(SX, PLUS) == pytest.approx(1.0, abs=1e-12)


def test_expectation_spin_on_mixture():
    assert expectation(SX, np.diag([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)


def test_expectation_identity_is_trace():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    assert expectation(np.eye(4, dtype=complex), rho) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dim_mismatch():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        expectation(np.eye(2), np.eye(3) / 3)


def test_state_expectation_matches_density_route():
    rng = np.random.default_rng(4)
    psi = normalize_state(random_complex(rng, 3))
    a = random_hermitian(rng, 3)
    assert state_expectation(a, psi) == pytest.approx(
        expectation(a, density_from_state(psi)), abs=1e-12
    )


# -- density_from_state ---------------------------------------------------------

def test_density_from_basis_state():
    np.testing.assert_allclose(density_from_state(np.array([1, 0])), np.diag([1.0, 0.0]))


def test_density_from_superposition_is_half_matrix():
    psi = np.array([1, 1]) / np.sqrt(2)
    np.testing.assert_allclose(density_from_state(psi), PLUS, atol=1e-15)


def test_density_from_state_zero_norm():
    with pytest.raises(NumericalError, match="below floor 1e-12"):
        density_from_state(np.array([1e-13, 0.0]))


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=2**31))
def test_density_from_state_always_valid_pure(dim, seed):
    psi = random_complex(np.random.default_rng(seed), dim)
    rho = density_from_state(psi)
    validate_density(rho)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)


# -- trace_distance ---------------------------------------------------------------

def test_trace_distance_identical():
    assert trace_distance(PLUS, PLUS) == 0.0


def test_trace_distance_orthogonal_pure():
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)


def test_trace_distance_superposition_vs_mixture():
    # difference matrix has eigenvalues +-1/2
    assert trace_distance(PLUS, np.diag([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), dim=st.integers(min_value=2, max_value=6))
def test_trace_distance_metric_properties(seed, dim):
    rng = np.random.default_rng(seed)
    r1, r2, r3 = (random_density(rng, dim) for _ in range(3))
    d12, d21 = trace_distance(r1, r2), trace_distance(r2, r1)
    assert d12 == pytest.approx(d21, abs=1e-12)
    assert d12 >= 0.0
    assert trace_distance(r1, r3) <= d12 + trace_distance(r2, r3) + 1e-12


def test_trace_distance_bounded_by_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert trace_distance(random_density(rng, 3), random_density(rng, 3)) <= 1.0 + 1e-12


@pytest.mark.parametrize("call", [
    lambda bad: trace_distance(np.diag([bad, 0.0]), np.eye(2) / 2),
    lambda bad: trace_distance(np.eye(2) / 2, np.diag([bad, 0.0])),
    lambda bad: expectation(SZ, np.diag([bad, 0.0])),
    lambda bad: expectation(np.diag([bad, 0.0]), PLUS),
    lambda bad: state_expectation(SZ, np.array([bad, 0.0])),
    lambda bad: state_expectation(np.diag([bad, 0.0]), np.array([1.0, 0.0])),
    lambda bad: purity(np.diag([bad, 0.0])),
], ids=["trace_distance-first", "trace_distance-second", "expectation-rho", "expectation-a",
        "state_expectation-psi", "state_expectation-a", "purity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
def test_measures_refuse_non_finite_entries(call, bad):
    with pytest.raises(ValidationError, match="^matrix/vector entries must be finite$"):
        call(bad)


# -- validate_density -------------------------------------------------------------

def test_validate_accepts_superposition_projector():
    validate_density(PLUS)


def test_validate_rejects_trace_violation():
    with pytest.raises(NumericalError, match="deviates"):
        validate_density(np.diag([2.0, -0.5]))


def test_validate_rejects_negative_eigenvalue():
    # diag(2, -1) has unit trace; the violated invariant is positivity
    with pytest.raises(NumericalError, match="smallest eigenvalue -1"):
        validate_density(np.diag([2.0, -1.0]))


def test_validate_rejects_indefinite_with_magnitude():
    # 2x2 eigenvalues are 0.5 +- 0.6; the message carries the -0.1
    with pytest.raises(NumericalError, match="-1.000e-01"):
        validate_density(np.array([[0.5, 0.6], [0.6, 0.5]]))


def test_validate_rejects_non_hermitian():
    with pytest.raises(NumericalError, match="^Hermiticity defect 5.000e-01"):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_validate_rejects_nan():
    with pytest.raises(ValueError):
        validate_density(np.array([[np.nan, 0], [0, 1.0]]))


def test_validate_tolerances_overridable():
    nearly = PLUS + np.array([[1e-8, 0], [0, -1e-8]])
    with pytest.raises(NumericalError, match="^Hermiticity defect 1.000e-08"):
        validate_density(nearly + np.array([[0, 1e-8], [0, 0]]))
    validate_density(nearly, tol=1e-6)


BAD_DENSITIES = {
    "not-hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
    "bad-trace": np.diag([0.7, 0.7]),
    "not-positive": np.array([[0.5, 0.6], [0.6, 0.5]]),
    # fails Hermiticity and positivity: alone it raises the Hermiticity error
    "not-hermitian-nor-positive": np.array([[2.0, 3.0], [0.0, -1.0]]),
}


def error_of(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("first, later", [
    ("not-positive", "not-hermitian"),
    ("not-hermitian", "not-positive"),
    ("bad-trace", "not-positive"),
    ("not-positive", "bad-trace"),
    ("not-hermitian-nor-positive", "bad-trace"),
    ("bad-trace", "not-hermitian"),
])
def test_validate_stack_raises_what_its_first_bad_matrix_raises(first, later):
    rng = np.random.default_rng(47)
    stack = np.array([random_density(rng, 2), random_density(rng, 2), BAD_DENSITIES[first],
                      random_density(rng, 2), BAD_DENSITIES[later]])
    alone = error_of(lambda: validate_density(BAD_DENSITIES[first]))
    assert error_of(lambda: validate_density(stack)) == alone
    assert error_of(lambda: validate_density(stack.reshape(5, 1, 2, 2))) == alone


def test_validate_stack_returns_every_matrix():
    rng = np.random.default_rng(53)
    stack = np.array([[random_density(rng, 3) for _ in range(4)] for _ in range(2)])
    got = validate_density(stack)
    assert got.shape == (2, 4, 3, 3)
    np.testing.assert_array_equal(got, stack)
    assert validate_density(np.empty((0, 2, 2))).shape == (0, 2, 2)
    with pytest.raises(ValidationError, match="stack"):
        validate_density(np.ones((3, 2, 3)))


def test_require_density_refuses_a_stack():
    stack = np.array([PLUS, np.diag([1.0, 0.0])])
    with pytest.raises(ValidationError, match=r"square matrix, got shape \(2, 2, 2\)"):
        require_density(stack, "rho0")


def test_trace_distance_of_stacks_is_each_pair():
    rng = np.random.default_rng(59)
    r1 = np.array([random_density(rng, 3) for _ in range(6)])
    r2 = np.array([random_density(rng, 3) for _ in range(6)])
    got = trace_distance(r1, r2)
    assert got.shape == (6,)
    assert got.tolist() == [trace_distance(a, b) for a, b in zip(r1, r2)]
    assert trace_distance(r1, r2[0]).tolist() == [trace_distance(a, r2[0]) for a in r1]


def test_expm_generator_of_many_parameters_is_each_one():
    rng = np.random.default_rng(61)
    g = random_hermitian(rng, 3)
    s = rng.uniform(-10, 10, size=(2, 3))
    got = expm_generator(g, s)
    assert got.shape == (2, 3, 3, 3)
    for i in np.ndindex(s.shape):
        ref = expm_generator(g, float(s[i]))
        np.testing.assert_array_equal(got[i].view(np.uint64), ref.view(np.uint64))


# -- validate_state ----------------------------------------------------------------

def test_validate_state_accepts_unit():
    validate_state(np.array([1, 1]) / np.sqrt(2))


def test_validate_state_rejects_off_norm():
    with pytest.raises(ValidationError):
        validate_state(np.array([1.0, 1.0]))


def test_validate_state_rejects_matrix():
    with pytest.raises(ValidationError, match="expected a 1-D state vector"):
        validate_state(np.eye(2))


def test_hermiticity_defect_zero_for_hermitian():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 5)
    assert hermiticity_defect(h) == 0.0
