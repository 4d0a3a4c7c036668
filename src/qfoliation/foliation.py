"""Flat space-like hyperplanes in Minkowski space.

Signature is (+,-,-,-) so a unit time-like normal satisfies n.n = 1. A
hyperplane is the set of events x with n.x = a; each inertial observer's
"now" is the family of such planes sharing the observer's normal. Natural
units: coordinates carry c = 1 unless a c argument says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotTimelike, PastPointing, SuperluminalBeta, ValidationError

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

    def scale(self, factor: float) -> "FourVector":
        return FourVector(self.t * factor, self.x * factor, self.y * factor, self.z * factor)


@dataclass(frozen=True)
class Hyperplane:
    """Space-like hyperplane {x : normal.x = offset}, unit future normal."""

    normal: FourVector
    offset: float

    def __post_init__(self) -> None:
        nn = self.normal.dot(self.normal)
        if abs(nn - 1.0) > _NORMALIZATION_TOL:
            raise NotTimelike(f"normal is not unit time-like: n.n = {nn:.15g}")
        if self.normal.t <= 0.0:
            raise PastPointing(f"normal must be future-pointing, got t = {self.normal.t:.6g}")


def make_hyperplane(n_raw: FourVector, a: float) -> Hyperplane:
    """Build a hyperplane from an unnormalized time-like normal and offset a.

    The normal is rescaled so n.n = 1; the offset is stored unchanged.
    """
    nn = n_raw.dot(n_raw)
    if nn <= 0.0:
        raise NotTimelike(f"normal must be time-like: n.n = {nn:.6g} <= 0")
    if n_raw.t <= 0.0:
        raise PastPointing(f"normal must be future-pointing, got t = {n_raw.t:.6g}")
    return Hyperplane(n_raw.scale(1.0 / math.sqrt(nn)), a)


def lorentz_gamma(beta: float) -> float:
    """1/sqrt(1 - beta^2), rejecting |beta| >= 1."""
    if abs(beta) >= 1.0:
        raise SuperluminalBeta(f"|beta| = {abs(beta):.6g} >= 1")
    return 1.0 / math.sqrt(1.0 - beta * beta)


def frame_normal(beta: float) -> FourVector:
    """Unit normal gamma*(1, beta, 0, 0) of an observer moving along +x.

    For beta -> 0 this approaches (1, 0, 0, 0); the first-order form
    (1, beta, 0, 0) is its O(beta) approximation.
    """
    g = lorentz_gamma(beta)
    return FourVector(g, g * beta, 0.0, 0.0)


@dataclass(frozen=True)
class ObserverFrame:
    """Inertial observer moving with velocity beta = v/c along +x."""

    beta: float

    def __post_init__(self) -> None:
        lorentz_gamma(self.beta)  # rejects |beta| >= 1

    @property
    def normal(self) -> FourVector:
        return frame_normal(self.beta)

    def simultaneity_plane(self, a: float = 0.0) -> Hyperplane:
        """The observer's hyperplane of simultaneity at offset a."""
        return Hyperplane(self.normal, a)


def event_tolerance(x: FourVector) -> float:
    """Membership tolerance scaled to the coordinate magnitude of x."""
    scale = max(1.0, abs(x.t), abs(x.x), abs(x.y), abs(x.z))
    return 1e-9 * scale


def contains_event(plane: Hyperplane, x: FourVector, tol: float | None = None) -> bool:
    """True iff |n.x - a| <= tol; tol defaults to a coordinate-scaled value."""
    if tol is None:
        tol = event_tolerance(x)
    return abs(plane.normal.dot(x) - plane.offset) <= tol


def coincidence_offset(ell: float, beta: float, c: float = SPEED_OF_LIGHT) -> float:
    """Rest-frame offset a0 = ell*beta/c of the coincidence event.

    This is the offset at which the rest observer's hyperplane passes
    through the event where the moving observer's a = 0 plane crosses the
    worldline x = ell; in physical units it equals ell*v/c^2. An a0 that
    overflows the float range is a ValidationError.
    """
    lorentz_gamma(beta)  # rejects |beta| >= 1
    if ell <= 0.0:
        raise ValidationError(f"localization distance must be positive, got {ell:.6g}")
    a0 = ell * beta / c
    if not math.isfinite(a0):
        raise ValidationError(f"coincidence offset a0 = {ell:.6g}*{beta:.6g}/{c:.6g} is not finite")
    return a0


def coincidence_event(ell: float, beta: float, c: float = SPEED_OF_LIGHT) -> FourVector:
    """The event (a0, ell, 0, 0) shared by both observers' planes."""
    return FourVector(coincidence_offset(ell, beta, c), ell, 0.0, 0.0)
