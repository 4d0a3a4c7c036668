"""Checks that only the tests use: hyperplane construction, event membership,
the conjugate transpose, the per-trajectory noise reference and the strict
reading of a report's config, kept out of the package's public surface."""

import json
import math

import numpy as np

from qfoliation.errors import NotTimelike, PastPointing
from qfoliation.foliation import FourVector, Hyperplane
from qfoliation.rng import stream_keys, wiener_block


def make_hyperplane(n_raw: FourVector, a: float) -> Hyperplane:
    """Build a hyperplane from an unnormalized time-like normal and offset a.

    The normal is rescaled so n.n = 1; the offset is stored unchanged.
    """
    nn = n_raw.dot(n_raw)
    if nn <= 0.0:
        raise NotTimelike(f"normal must be time-like: n.n = {nn:.6g} <= 0")
    if n_raw.t <= 0.0:
        raise PastPointing(f"normal must be future-pointing, got t = {n_raw.t:.6g}")
    f = 1.0 / math.sqrt(nn)
    return Hyperplane(FourVector(n_raw.t * f, n_raw.x * f, n_raw.y * f, n_raw.z * f), a)


def event_tolerance(x: FourVector) -> float:
    """Membership tolerance scaled to the coordinate magnitude of x."""
    scale = max(1.0, abs(x.t), abs(x.x), abs(x.y), abs(x.z))
    return 1e-9 * scale


def contains_event(plane: Hyperplane, x: FourVector, tol: float | None = None) -> bool:
    """True iff |n.x - a| <= tol; tol defaults to a coordinate-scaled value."""
    if tol is None:
        tol = event_tolerance(x)
    return abs(plane.normal.dot(x) - plane.offset) <= tol


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T.copy()


def wiener_increments(seed: int, stream: int, steps: int, channels: int, step: float) -> np.ndarray:
    """Noise of trajectory `stream` drawn on its own, shape (steps, channels).

    The per-row reference: row s must equal row m of the step-s wiener_block
    of any batch whose m-th stream is `stream`.
    """
    keys = stream_keys(seed, [stream])
    return np.concatenate([wiener_block(keys, s, channels, step) for s in range(steps)])


def _refuse_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def embedded_config(report: str, fmt: str) -> dict:
    """The config a report embeds, read as strict JSON: Infinity and NaN are refused."""
    if fmt == "json":
        return json.loads(report, parse_constant=_refuse_constant)["config"]
    line = next(line for line in report.splitlines() if line.startswith("# config: "))
    return json.loads(line[len("# config: "):], parse_constant=_refuse_constant)
