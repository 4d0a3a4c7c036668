"""Counter-based random number streams for trajectory ensembles.

Each trajectory owns an independent stream keyed by (master seed, trajectory
index); the value at any counter is a pure function of (key, counter), so
ensembles are bit-reproducible under any execution schedule and a trajectory
can be regenerated in isolation. Gaussians come from a Box-Muller transform
of the counter stream.

The mixing function is the splitmix64 output permutation applied to a
Weyl-sequence state, evaluated on uint64 numpy arrays (wrapping arithmetic).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD1342543DE82EF95)

_U64_MASK = (1 << 64) - 1


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 output permutation of the uint64 array x, in place; returns x."""
    tmp = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=tmp)
    x *= _MIX_A
    x ^= np.right_shift(x, np.uint64(27), out=tmp)
    x *= _MIX_B
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def stream_keys(seed: int, streams) -> np.ndarray:
    """64-bit keys of the given stream indices under `seed`."""
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    streams = np.asarray(streams, dtype=np.uint64)
    s = _mix(np.array([seed & _U64_MASK], dtype=np.uint64) + _GOLDEN)
    t = _mix(streams * _STREAM_SALT + _GOLDEN)
    return _mix(s ^ t)


def stream_key(seed: int, stream: int) -> np.uint64:
    """Derive the 64-bit key of stream `stream` under `seed`."""
    if stream < 0:
        raise ValidationError("stream index must be non-negative")
    return stream_keys(seed, [stream & _U64_MASK])[0]


def uniforms(key: np.uint64 | np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniform doubles in (0, 1) at the given counters of stream `key`.

    `key` broadcasts against `counters`: pass an (M, 1) key array and a
    (1, n) counter array to fill a whole ensemble block in one call.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    z = _mix(key + (counters + np.uint64(1)) * _GOLDEN)
    # 53 mantissa bits, offset by half a ulp so 0 is never produced
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def standard_normals(key: np.uint64 | np.ndarray, counters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair of standard-normal arrays via Box-Muller on counters (2c, 2c+1)."""
    counters = np.asarray(counters, dtype=np.uint64)
    doubled = counters * np.uint64(2)
    radius = uniforms(key, doubled)
    doubled += np.uint64(1)
    angle = uniforms(key, doubled)
    # radius = sqrt(-2 log u1), angle = 2 pi u2, each in place
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    g1 = np.cos(angle)
    g1 *= radius
    g2 = np.sin(angle, out=angle)
    g2 *= radius
    return g1, g2


def _increments(g1: np.ndarray, g2: np.ndarray, step: float) -> np.ndarray:
    """sqrt(step/2) * (g1 + i*g2), written through the real and imaginary views."""
    amp = np.sqrt(step / 2.0)
    out = np.empty(g1.shape, dtype=np.complex128)
    np.multiply(g1, amp, out=out.real)
    np.multiply(g2, amp, out=out.imag)
    return out


def wiener_increments(
    seed: int, stream: int, steps: int, channels: int, step: float
) -> np.ndarray:
    """Complex Wiener increments for one trajectory, shape (steps, channels).

    Each increment is sqrt(step/2)*(g1 + i*g2) with independent standard
    normals, so E[dxi] = 0, E[dxi conj(dxi)] = step and E[dxi dxi] = 0.
    """
    key = stream_key(seed, stream)
    counters = np.arange(steps * channels, dtype=np.uint64)
    return _increments(*standard_normals(key, counters), step).reshape(steps, channels)


def wiener_block(
    keys: np.ndarray, step_index: int, channels: int, step: float
) -> np.ndarray:
    """Increments of one integrator step for many trajectories, shape (M, channels).

    `keys` comes from stream_keys; row m equals the step_index-th row of
    wiener_increments for the same stream, so batched and per-trajectory
    integration consume identical noise.
    """
    base = np.uint64(step_index * channels)
    counters = base + np.arange(channels, dtype=np.uint64)
    return _increments(*standard_normals(keys[:, None], counters[None, :]), step)
