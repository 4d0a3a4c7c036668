import hashlib

import numpy as np
import pytest

from qfoliation.rng import (
    standard_normals,
    stream_key,
    stream_keys,
    uniforms,
    wiener_block,
    wiener_increments,
)


def test_same_seed_same_stream_bitwise():
    a = wiener_increments(42, 3, steps=100, channels=2, step=0.01)
    b = wiener_increments(42, 3, steps=100, channels=2, step=0.01)
    np.testing.assert_array_equal(a, b)


def test_streams_are_distinct():
    a = wiener_increments(42, 0, steps=50, channels=1, step=0.01)
    b = wiener_increments(42, 1, steps=50, channels=1, step=0.01)
    assert not np.array_equal(a, b)
    c = wiener_increments(43, 0, steps=50, channels=1, step=0.01)
    assert not np.array_equal(a, c)


def test_block_matches_per_trajectory_rows():
    seed, channels, step = 7, 3, 0.05
    keys = stream_keys(seed, np.arange(20))
    for step_index in (0, 1, 17):
        block = wiener_block(keys, step_index, channels, step)
        for m in (0, 5, 19):
            row = wiener_increments(seed, m, steps=18, channels=channels, step=step)
            np.testing.assert_array_equal(block[m], row[step_index])


def test_uniforms_open_interval():
    u = uniforms(stream_key(0, 0), np.arange(200000))
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_uniform_mean_and_spread():
    u = uniforms(stream_key(123, 0), np.arange(200000))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    g1, g2 = standard_normals(stream_key(5, 0), np.arange(100000))
    for g in (g1, g2):
        assert abs(g.mean()) < 0.02
        assert abs(g.var() - 1.0) < 0.02
    # independence of the pair
    assert abs(np.mean(g1 * g2)) < 0.02


def test_wiener_increment_moments():
    step = 0.02
    xi = wiener_increments(99, 0, steps=100000, channels=1, step=step).ravel()
    assert abs(xi.mean()) < 3.0 * np.sqrt(step / len(xi))
    assert np.mean(np.abs(xi) ** 2) == pytest.approx(step, rel=0.02)
    # complex increments: E[dxi^2] = 0
    assert abs(np.mean(xi**2)) < 3.0 * step / np.sqrt(len(xi))


def test_key_derivation_rejects_negative():
    with pytest.raises(ValueError):
        stream_key(-1, 0)
    with pytest.raises(ValueError):
        stream_key(0, -1)


def test_shapes():
    xi = wiener_increments(0, 0, steps=7, channels=3, step=0.1)
    assert xi.shape == (7, 3)
    block = wiener_block(stream_keys(0, np.arange(5)), 0, 3, 0.1)
    assert block.shape == (5, 3)


# The integer half of the stream is pinned by digest. splitmix64 and the
# conversion to doubles (wrapping uint64 arithmetic, an exact int-to-float
# cast, one correctly rounded add and a power-of-two scale) give the same
# bits on every platform, so these are the uniforms' bits anywhere. The
# Gaussians go through log, cos and sin, whose last bit may vary with numpy's
# SIMD code; they are checked bitwise against the out-of-place formulas below
# on whatever machine runs the test.
UNIFORMS_SHA256 = {
    0: "7f2acb5631fb5888ded1d0e5213cbfc521db40c41d419d4fd6005517cbfec42e",
    1: "ac49f9ef6ec5891fca896b7f22011a38a9266157868429f4bcd3fcab369a4b29",
    2999: "7952837d7e6c8d8edb44bec1e4854e518bd6dda60c385e3d20c5296f5e0439f9",
}
INCREMENTS_UNIFORMS_SHA256 = "7abf837b4da758854793b019e0ad973af3f650ed8c8022a2a205955002141924"


def _sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).view(np.uint64).tobytes()).hexdigest()


def _reference_normals(key, counters):
    """Box-Muller on counters (2c, 2c+1), each operation out of place."""
    counters = np.asarray(counters, dtype=np.uint64)
    two = np.uint64(2)
    u1 = uniforms(key, counters * two)
    u2 = uniforms(key, counters * two + np.uint64(1))
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def _reference_increments(g1, g2, step):
    return np.sqrt(step / 2.0) * (g1 + 1j * g2)


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("step_index", sorted(UNIFORMS_SHA256))
def test_wiener_block_bits_pinned(step_index):
    keys = stream_keys(20260808, np.arange(64))
    counters = np.arange(2 * step_index, 2 * step_index + 2, dtype=np.uint64)[None, :]
    uniform_counters = np.arange(4 * step_index, 4 * step_index + 4, dtype=np.uint64)[None, :]
    assert _sha256(uniforms(keys[:, None], uniform_counters)) == UNIFORMS_SHA256[step_index]
    ref_g1, ref_g2 = _reference_normals(keys[:, None], counters)
    g1, g2 = standard_normals(keys[:, None], counters)
    _assert_bitwise(g1, ref_g1)
    _assert_bitwise(g2, ref_g2)
    block = wiener_block(keys, step_index, 2, 0.01)
    _assert_bitwise(block, _reference_increments(ref_g1, ref_g2, 0.01))


def test_wiener_increments_bits_pinned():
    key = stream_key(20260808, 5)
    drawn = uniforms(key, np.arange(2 * 40 * 3, dtype=np.uint64))
    assert _sha256(drawn) == INCREMENTS_UNIFORMS_SHA256
    xi = wiener_increments(20260808, 5, steps=40, channels=3, step=0.02)
    ref = _reference_increments(*_reference_normals(key, np.arange(40 * 3, dtype=np.uint64)), 0.02)
    _assert_bitwise(xi, ref.reshape(40, 3))
