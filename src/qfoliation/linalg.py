"""Complex dense linear algebra for small Hilbert spaces (dim 2..64).

States are plain numpy arrays: a state vector is a 1-D complex array of unit
Euclidean norm, a density matrix is a Hermitian, unit-trace, positive
semidefinite 2-D complex array. `hermiticity_defect`, `validate_density` and
`trace_distance` also take stacks of matrices, shape (..., d, d), and
`expm_generator` an array of parameters, each in one stacked numpy call per
step. Validators return the checked array; all operations return new arrays
and never mutate their inputs. `TOL` is the one tolerance of every
Hermiticity, trace, positivity and state-norm check.

`require_*` and `validate_state` check given values and raise ValidationError,
an input error (CLI exit 1). `validate_density` and the zero-norm floor check
computed values and raise NumericalError, an invariant breach (exit 2).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import NumericalError, ValidationError

TOL = 1e-9
ZERO_NORM_FLOOR = 1e-12


def as_complex(values) -> np.ndarray:
    """Coerce to a fresh complex128 array, rejecting NaN/Inf entries."""
    arr = np.array(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError("matrix/vector entries must be finite")
    return arr


def hermiticity_defect(m: np.ndarray):
    """Max-abs deviation of m from its own conjugate transpose: a float for one
    matrix, and for a stack, shape (..., d, d), the array of their defects."""
    with np.errstate(over="ignore"):  # a defect past the float range reads inf
        defect = abs(m - np.conj(m).swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return float(defect) if defect.ndim == 0 else defect


def require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_square_stack(m: np.ndarray) -> np.ndarray:
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def require_integer(value, name: str) -> int:
    """value as a Python int (numpy integers pass); ValidationError names it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")


def require_hermitian(m, name: str) -> np.ndarray:
    """m as a square complex array; ValidationError names it if it is not Hermitian."""
    m = require_square(as_complex(m))
    defect = hermiticity_defect(m)
    if defect > TOL:
        raise ValidationError(f"{name} Hermiticity defect {defect:.3e} exceeds tolerance {TOL:.1e}")
    return m


def require_density(rho, name: str) -> np.ndarray:
    """rho as one validated density matrix; ValidationError names it if it is not one."""
    rho = require_square(np.asarray(rho))
    try:
        return validate_density(rho)
    except NumericalError as exc:
        raise ValidationError(f"{name} is not a density matrix: {exc}") from exc


def expm_generator(g: np.ndarray, s) -> np.ndarray:
    """exp(-i*s*g) for Hermitian g, via eigendecomposition.

    s is one parameter or an array of them, giving shape s.shape + g.shape
    from the one decomposition of g. Unitary to floating-point accuracy for
    the small dimensions handled here; raises ValidationError if g fails
    the Hermiticity check or a parameter is not finite.
    """
    g = require_hermitian(g, "generator")
    bad = np.asarray(s)[~np.isfinite(s)]
    if bad.size:
        raise ValidationError(f"generator parameter must be finite, got {bad[0]}")
    w, v = np.linalg.eigh(g)
    phases = np.exp(-1j * np.multiply.outer(s, w))
    return (v * phases[..., None, :]) @ v.conj().T


def normalize_state(psi: np.ndarray) -> np.ndarray:
    """Return psi scaled to unit norm; NumericalError if the norm is degenerate."""
    psi = as_complex(psi)
    n = float(np.linalg.norm(psi))
    if n < ZERO_NORM_FLOOR:
        raise NumericalError(f"state norm {n:.3e} below floor {ZERO_NORM_FLOOR:.0e}")
    return psi / n


def density_from_state(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of the normalized state."""
    psi = normalize_state(psi)
    return np.outer(psi, psi.conj())


def expectation(a: np.ndarray, rho: np.ndarray) -> float:
    """Re tr(a rho) for Hermitian a; the imaginary part must be negligible."""
    a = require_square(np.asarray(a))
    rho = require_square(np.asarray(rho))
    require_same_dim(a, rho)
    return _real_part(complex(np.trace(a @ rho)))


def state_expectation(a: np.ndarray, psi: np.ndarray) -> float:
    """Re <psi|a|psi> for a normalized state vector."""
    a = require_square(np.asarray(a))
    psi = np.asarray(psi)
    require_same_dim(a, psi)
    return _real_part(complex(np.vdot(psi, a @ psi)))


def _real_part(val: complex) -> float:
    """The real part of an expectation value whose imaginary part must be negligible."""
    if abs(val.imag) > 1e-10:
        raise NumericalError(f"non-real expectation value: Im = {val.imag:.3e}")
    return val.real


def trace_distance(rho1: np.ndarray, rho2: np.ndarray):
    """Half the sum of absolute eigenvalues of (rho1 - rho2).

    A float for two matrices; for stacks, shape (..., d, d), which broadcast
    against each other, the array of distances from one stacked eigvalsh.
    """
    rho1 = _require_square_stack(np.asarray(rho1))
    rho2 = _require_square_stack(np.asarray(rho2))
    require_same_dim(rho1, rho2)
    w = np.linalg.eigvalsh(rho1 - rho2)
    dist = 0.5 * np.abs(w).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def purity(rho: np.ndarray) -> float:
    """tr(rho^2)."""
    rho = np.asarray(rho)
    return float(np.trace(rho @ rho).real)


def validate_density(rho: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity, each to tol; return the matrix.

    rho is one matrix or a stack of them, shape (..., d, d). One pass checks
    every matrix for all three invariants, by one stacked call each; the
    first failing matrix raises what it raises alone, naming the violated
    invariant and its magnitude, where Hermiticity is checked before the
    trace and both before positivity.
    """
    rho = _require_square_stack(as_complex(rho))
    stack = rho.reshape((-1,) + rho.shape[-2:])
    defect = hermiticity_defect(stack)
    # halved before the sum, so entries near the float limit do not overflow
    w_min = np.linalg.eigvalsh(0.5 * stack + 0.5 * stack.conj().swapaxes(1, 2)).min(axis=1)
    with np.errstate(over="ignore"):  # a trace past the float range reads inf
        trace = stack.trace(axis1=1, axis2=2)
        not_hermitian, bad_trace, negative = defect > tol, abs(trace - 1.0) > tol, w_min < -tol
    failed = (not_hermitian | bad_trace | negative).nonzero()[0]
    if not failed.size:
        return rho
    i = failed[0]
    if not_hermitian[i]:
        raise NumericalError(f"Hermiticity defect {defect[i]:.3e} exceeds tolerance {tol:.1e}")
    if bad_trace[i]:
        tr = complex(trace[i])
        raise NumericalError(f"trace {tr:.12g} deviates from 1 by {abs(tr - 1.0):.3e}")
    raise NumericalError(f"smallest eigenvalue {w_min[i]:.3e} below -{tol:.1e}")


def validate_state(psi: np.ndarray) -> np.ndarray:
    """Check that psi is a finite unit vector; return it."""
    psi = as_complex(psi)
    if psi.ndim != 1:
        raise ValidationError(f"expected a 1-D state vector, got shape {psi.shape}")
    n = float(np.linalg.norm(psi))
    if abs(n - 1.0) > TOL:
        raise ValidationError(f"state norm {n:.12g} deviates from 1 by {abs(n - 1.0):.3e}")
    return psi
