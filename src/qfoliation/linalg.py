"""Complex dense linear algebra for small Hilbert spaces (dim 2..64).

States are plain numpy arrays: a state vector is a 1-D complex array of unit
Euclidean norm, a density matrix is a Hermitian, unit-trace, positive
semidefinite 2-D complex array. Validators return the checked array; all
operations return new arrays and never mutate their inputs. `TOL` is the one
tolerance of every Hermiticity, trace, positivity and state-norm check.

`require_*` and `validate_state` check given values and raise ValidationError,
an input error (CLI exit 1). `validate_density` and the zero-norm floor check
computed values and raise NumericalError, an invariant breach (exit 2).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadTrace,
    DimMismatch,
    NonHermitianInput,
    NotHermitian,
    NotPositive,
    NumericalError,
    ValidationError,
    ZeroNorm,
)

TOL = 1e-9

_ZERO_NORM_FLOOR = 1e-12


def as_complex(values) -> np.ndarray:
    """Coerce to a fresh complex128 array, rejecting NaN/Inf entries."""
    arr = np.array(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError("matrix/vector entries must be finite")
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T.copy()


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs deviation of m from its own conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")


def require_hermitian(m, name: str) -> np.ndarray:
    """m as a square complex array; NonHermitianInput names it if it is not Hermitian."""
    m = require_square(as_complex(m))
    defect = hermiticity_defect(m)
    if defect > TOL:
        raise NonHermitianInput(f"{name} Hermiticity defect {defect:.3e} exceeds tolerance {TOL:.1e}")
    return m


def require_density(rho, name: str) -> np.ndarray:
    """rho as a validated density matrix; ValidationError names it if it is not one."""
    try:
        return validate_density(rho)
    except NumericalError as exc:
        raise ValidationError(f"{name} is not a density matrix: {exc}") from exc


def expm_generator(g: np.ndarray, s: float) -> np.ndarray:
    """exp(-i*s*g) for Hermitian g, via eigendecomposition.

    Unitary to floating-point accuracy for the small dimensions handled
    here; raises NonHermitianInput if g fails the Hermiticity check.
    """
    g = require_hermitian(g, "generator")
    w, v = np.linalg.eigh(g)
    phases = np.exp(-1j * s * w)
    return (v * phases) @ v.conj().T


def normalize_state(psi: np.ndarray) -> np.ndarray:
    """Return psi scaled to unit norm; ZeroNorm if the norm is degenerate."""
    psi = as_complex(psi)
    n = float(np.linalg.norm(psi))
    if n < _ZERO_NORM_FLOOR:
        raise ZeroNorm(f"state norm {n:.3e} below floor {_ZERO_NORM_FLOOR:.0e}")
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


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of (rho1 - rho2)."""
    rho1 = require_square(np.asarray(rho1))
    rho2 = require_square(np.asarray(rho2))
    require_same_dim(rho1, rho2)
    w = np.linalg.eigvalsh(rho1 - rho2)
    return 0.5 * float(np.sum(np.abs(w)))


def purity(rho: np.ndarray) -> float:
    """tr(rho^2)."""
    rho = np.asarray(rho)
    return float(np.trace(rho @ rho).real)


def validate_density(rho: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity, each to tol; return the matrix.

    Each failure names the violated invariant and its magnitude.
    """
    rho = require_square(as_complex(rho))
    defect = hermiticity_defect(rho)
    if defect > tol:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds tolerance {tol:.1e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol:
        raise BadTrace(f"trace {tr:.12g} deviates from 1 by {abs(tr - 1.0):.3e}")
    w_min = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if w_min < -tol:
        raise NotPositive(f"smallest eigenvalue {w_min:.3e} below -{tol:.1e}")
    return rho


def validate_state(psi: np.ndarray) -> np.ndarray:
    """Check that psi is a finite unit vector; return it."""
    psi = as_complex(psi)
    if psi.ndim != 1:
        raise DimMismatch(f"expected a 1-D state vector, got shape {psi.shape}")
    n = float(np.linalg.norm(psi))
    if abs(n - 1.0) > TOL:
        raise ValidationError(f"state norm {n:.12g} deviates from 1 by {abs(n - 1.0):.3e}")
    return psi
