"""Counter-based noise streams for trajectory ensembles.

Each trajectory owns an independent stream keyed by (master seed, trajectory
index); the word at any counter is a pure function of (key, counter), so
ensembles are bit-reproducible under any execution schedule and a trajectory
can be regenerated in isolation. The mixing function is the splitmix64 output
permutation applied to a Weyl-sequence state, evaluated on uint64 numpy
arrays (wrapping arithmetic).

The Wiener increments are two-point, not Gaussian: the increment of channel k
at integrator step s is dxi = sqrt(step/2)*(s1 + i*s2), whose signs s1, s2 =
+-1 are bits 0 and 1 of the word at counter s*K + k (K channels). Then
E[dxi] = 0, E[|dxi|^2] = step exactly, E[dxi^2] = 0 and every third moment
vanishes, which is all that Euler-Maruyama needs to keep weak order 1: the
simplified weak Euler scheme of Kloeden & Platen, Numerical Solution of
Stochastic Differential Equations (1992), ch. 14. Every part of every
increment is exactly +-sqrt(step/2), so the increments' bits are the same on
every IEEE host.

`wiener_block` draws a run of consecutive steps in one call, laid out as
(steps, K, M) so that the increments of one channel at one step, across M
trajectories, are one contiguous row. An increment's counter fixes its bits,
so a run drawn in blocks of any length gets the same noise.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD1342543DE82EF95)

_U64_MASK = (1 << 64) - 1

# increment over sqrt(step/2), indexed by word & 3: bit 0 flips the real
# sign, bit 1 the imaginary sign
_SIGNS = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j])


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
    streams = np.asarray(streams)
    if streams.size and streams.dtype.kind not in "iu":
        raise ValidationError(f"stream indices must be integers, got dtype {streams.dtype}")
    if streams.size and streams.min() < 0:
        raise ValidationError(f"stream indices must be non-negative, got {streams.min()}")
    streams = streams.astype(np.uint64)
    s = _mix(np.array([seed & _U64_MASK], dtype=np.uint64) + _GOLDEN)
    t = _mix(streams * _STREAM_SALT + _GOLDEN)
    return _mix(s ^ t)


def wiener_block(
    keys: np.ndarray, first_step: int, steps: int, channels: int, step: float
) -> np.ndarray:
    """Increments of `steps` consecutive integrator steps for many trajectories,
    shape (steps, channels, M).

    `keys` comes from stream_keys. Entry [s, k, m] is the increment of
    channel k at step first_step + s of trajectory m, from the word at
    counter (first_step + s)*channels + k of keys[m]: it depends only on
    keys[m] and that counter, so batched and per-trajectory integration,
    drawn in blocks of any length, consume identical noise. Each [s, k] row
    is one contiguous (M,) array.
    """
    counters = np.arange(first_step * channels, (first_step + steps) * channels, dtype=np.uint64)
    words = _mix(((counters + np.uint64(1)) * _GOLDEN)[:, None] + keys[None, :])
    words &= np.uint64(3)
    return (np.sqrt(step / 2.0) * _SIGNS).take(words).reshape(steps, channels, len(keys))
