"""Exception types shared across the package.

Numerical errors carry the violated invariant's name and magnitude in their
message so callers (and the CLI exit-status logic) can report them directly.
"""

from __future__ import annotations


class QFoliationError(Exception):
    """Base class for all package errors."""


class ValidationError(QFoliationError, ValueError):
    """A value violates a declared precondition or configuration constraint.

    It is also a ValueError, so one `except ValueError` catches the package's
    input refusals and numpy's alike.
    """


class NumericalError(QFoliationError):
    """A numerical invariant was breached during computation."""


# -- linalg ----------------------------------------------------------------

class DimMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class NonHermitianInput(ValidationError):
    """A generator expected to be Hermitian is not, beyond tolerance."""


class NotHermitian(NumericalError):
    """Density-matrix Hermiticity check failed."""


class BadTrace(NumericalError):
    """Density-matrix trace is not 1 within tolerance."""


class NotPositive(NumericalError):
    """Density matrix has an eigenvalue below -tolerance."""


class ZeroNorm(NumericalError):
    """State vector norm collapsed below the representable threshold."""


# -- foliation --------------------------------------------------------------

class NotTimelike(ValidationError):
    """Hyperplane normal is not time-like (n.n <= 0)."""


class PastPointing(ValidationError):
    """Hyperplane normal is time-like but points to the past (t <= 0)."""


class SuperluminalBeta(ValidationError):
    """|beta| >= 1 requested for a boost."""


# -- dynamics ---------------------------------------------------------------

class StepTooLarge(ValidationError):
    """Fixed-step integrator step exceeds the stability bound."""


class MissingBoostGenerator(ValidationError):
    """Boost transport requested with no boost generator configured."""


# -- scenarios --------------------------------------------------------------

class NonCommutingGenerators(ValidationError):
    """Consistency check refused: [H, K] != 0 would conflate path dependence
    with genuine observer inconsistency."""


# -- cli --------------------------------------------------------------------

class ParseError(ValidationError):
    """Configuration document is not well-formed."""
