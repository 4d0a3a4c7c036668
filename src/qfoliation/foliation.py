"""Flat space-like hyperplanes in Minkowski space.

Signature is (+,-,-,-) so a unit time-like normal satisfies n.n = 1. A
hyperplane is the set of events x with n.x = a; each inertial observer's
"now" is the family of such planes sharing the observer's normal. Natural
units: coordinates carry c = 1 unless a c argument says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

SPEED_OF_LIGHT = 1.0

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class FourVector:
    """Event or direction in Minkowski space, components (t, x, y, z)."""

    t: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t", "x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"non-finite component {name}")

    def dot(self, other: "FourVector") -> float:
        """Minkowski inner product with signature (+,-,-,-)."""
        return self.t * other.t - self.x * other.x - self.y * other.y - self.z * other.z


@dataclass(frozen=True)
class Hyperplane:
    """Space-like hyperplane {x : normal.x = offset}, unit future normal."""

    normal: FourVector
    offset: float

    def __post_init__(self) -> None:
        nn = self.normal.dot(self.normal)
        if abs(nn - 1.0) > _NORMALIZATION_TOL:
            raise ValidationError(f"normal is not unit time-like: n.n = {nn:.15g}")
        if self.normal.t <= 0.0:
            raise ValidationError(f"normal must be future-pointing, got t = {self.normal.t:.6g}")
        if not math.isfinite(self.offset):
            raise ValidationError(f"offset must be finite, got {self.offset}")


def lorentz_gamma(beta: float) -> float:
    """1/sqrt(1 - beta^2), rejecting |beta| >= 1 and NaN."""
    if not abs(beta) < 1.0:
        raise ValidationError(f"|beta| = {abs(beta):.6g} >= 1")
    return 1.0 / math.sqrt(1.0 - beta * beta)


def frame_normal(beta: float) -> FourVector:
    """Unit normal gamma*(1, beta, 0, 0) of an observer moving along +x.

    For beta -> 0 this approaches (1, 0, 0, 0); the first-order form
    (1, beta, 0, 0) is its O(beta) approximation.
    """
    g = lorentz_gamma(beta)
    return FourVector(g, g * beta, 0.0, 0.0)


def coincidence_offset(ell: float, beta: float, c: float = SPEED_OF_LIGHT) -> float:
    """Rest-frame offset a0 = ell*beta/c of the coincidence event.

    This is the offset at which the rest observer's hyperplane passes
    through the event where the moving observer's a = 0 plane crosses the
    worldline x = ell; in physical units it equals ell*v/c^2. A c that is
    not positive and finite, or an a0 that overflows the float range, is a
    ValidationError.
    """
    lorentz_gamma(beta)  # rejects |beta| >= 1
    if not ell > 0.0:
        raise ValidationError(f"localization distance must be positive, got {ell:.6g}")
    if not 0.0 < c < math.inf:
        raise ValidationError(f"c must be positive and finite, got {c:.6g}")
    a0 = ell * beta / c
    if not math.isfinite(a0):
        raise ValidationError(f"coincidence offset a0 = {ell:.6g}*{beta:.6g}/{c:.6g} is not finite")
    return a0


def coincidence_event(ell: float, beta: float, c: float = SPEED_OF_LIGHT) -> FourVector:
    """The event (a0, ell, 0, 0) shared by both observers' planes."""
    return FourVector(coincidence_offset(ell, beta, c), ell, 0.0, 0.0)
