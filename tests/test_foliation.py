import math

import numpy as np
import pytest

from qfoliation.errors import ValidationError
from qfoliation.foliation import (
    FourVector,
    Hyperplane,
    coincidence_event,
    coincidence_offset,
    frame_normal,
    lorentz_gamma,
)
from _checks import contains_event, event_tolerance, make_hyperplane


def test_rest_frame_hyperplane():
    plane = make_hyperplane(FourVector(1.0), 0.0)
    assert plane.normal == FourVector(1.0, 0.0, 0.0, 0.0)
    assert plane.offset == 0.0


def test_make_hyperplane_rescales_normal():
    plane = make_hyperplane(FourVector(2.0), 5.0)
    assert plane.normal.t == pytest.approx(1.0, abs=1e-15)
    assert plane.offset == 5.0


def test_make_hyperplane_rejects_lightlike():
    with pytest.raises(ValidationError, match="must be time-like: n.n = 0 <= 0"):
        make_hyperplane(FourVector(1.0, 1.0), 0.0)


def test_make_hyperplane_rejects_spacelike():
    with pytest.raises(ValidationError, match="must be time-like: n.n = -3 <= 0"):
        make_hyperplane(FourVector(1.0, 2.0), 0.0)


def test_make_hyperplane_rejects_past_pointing():
    with pytest.raises(ValidationError, match="must be future-pointing, got t = -1"):
        make_hyperplane(FourVector(-1.0), 0.0)


def test_hyperplane_constructor_rejects_a_unit_past_pointing_normal():
    with pytest.raises(ValidationError, match="^normal must be future-pointing, got t = -1$"):
        Hyperplane(FourVector(-1.0), 0.0)


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_hyperplane_constructor_rejects_a_non_finite_offset(offset):
    with pytest.raises(ValidationError, match=f"^offset must be finite, got {offset}$"):
        Hyperplane(FourVector(1.0), offset)


def test_hyperplane_constructor_enforces_unit_normal():
    with pytest.raises(ValidationError, match="normal is not unit time-like"):
        Hyperplane(FourVector(1.0 + 1e-6), 0.0)


def test_constructed_normals_unit_and_future():
    rng = np.random.default_rng(10)
    for _ in range(200):
        spatial = rng.normal(size=3) * 0.4
        t = math.sqrt(1.0 + spatial @ spatial) * rng.uniform(1.0, 3.0)
        plane = make_hyperplane(FourVector(t, *spatial), rng.normal())
        nn = plane.normal.dot(plane.normal)
        assert abs(nn - 1.0) <= 1e-12
        assert plane.normal.t > 0


def test_frame_normal_rest():
    assert frame_normal(0.0) == FourVector(1.0, 0.0, 0.0, 0.0)


def test_frame_normal_gamma_factor():
    n = frame_normal(0.6)
    assert n.t == pytest.approx(1.25)
    assert n.x == pytest.approx(0.75)
    assert n.y == n.z == 0.0


def test_frame_normal_rejects_lightspeed():
    with pytest.raises(ValidationError, match=r"^\|beta\| = 1 >= 1$"):
        frame_normal(1.0)
    with pytest.raises(ValidationError, match=r"^\|beta\| = 1 >= 1$"):
        lorentz_gamma(-1.0)


def test_frame_normal_mirror():
    for beta in (0.1, 0.5, 0.99):
        assert frame_normal(-beta).x == -frame_normal(beta).x
        assert frame_normal(-beta).t == frame_normal(beta).t


def test_observer_frame_plane():
    plane = Hyperplane(frame_normal(0.3), 2.0)
    assert plane.offset == 2.0
    assert plane.normal.dot(plane.normal) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError, match=r"^\|beta\| = 1.5 >= 1$"):
        Hyperplane(frame_normal(1.5), 0.0)


def test_contains_event_rest_plane():
    a0 = 30.0
    plane = Hyperplane(FourVector(1.0), a0)
    assert contains_event(plane, FourVector(a0, 3000.0))
    assert not contains_event(Hyperplane(FourVector(1.0), 0.0), FourVector(1.0), tol=1e-9)


def test_contains_event_moving_plane():
    ell, beta = 500.0, 0.2
    plane = Hyperplane(frame_normal(beta), 0.0)
    assert contains_event(plane, FourVector(ell * beta, ell))


def test_coincidence_offset_values():
    assert coincidence_offset(100.0, 0.01) == pytest.approx(1.0)
    assert coincidence_offset(123.0, 0.0) == 0.0
    assert coincidence_offset(3000.0, 0.01) == pytest.approx(30.0)
    assert coincidence_offset(3000.0, 0.01, c=2.0) == pytest.approx(15.0)


def test_coincidence_offset_rejects_bad_inputs():
    with pytest.raises(ValidationError, match=r"^\|beta\| = 1 >= 1$"):
        coincidence_offset(10.0, 1.0)
    with pytest.raises(ValueError):
        coincidence_offset(-1.0, 0.5)
    with pytest.raises(ValidationError, match="^localization distance must be positive, got nan$"):
        coincidence_offset(math.nan, 0.1)
    for ell, beta, c in ((2.0, 0.5, 1e-320), (math.inf, 1e-10, 1.0), (math.inf, 0.0, 1.0)):
        with pytest.raises(ValidationError, match="coincidence offset .* is not finite"):
            coincidence_offset(ell, beta, c)


@pytest.mark.parametrize("c", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
def test_coincidence_offset_rejects_c_that_is_not_positive_and_finite(c):
    with pytest.raises(ValidationError, match="^c must be positive and finite, got"):
        coincidence_offset(10.0, 0.5, c)


@pytest.mark.parametrize("call", [
    lambda: lorentz_gamma(math.nan),
    lambda: frame_normal(math.nan),
    lambda: coincidence_offset(10.0, math.nan),
], ids=["lorentz_gamma", "frame_normal", "coincidence_offset"])
def test_nan_beta_is_refused(call):
    with pytest.raises(ValidationError, match=r"^\|beta\| = nan >= 1$"):
        call()


def test_coincidence_event_lies_on_both_planes():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ell = 10.0 ** rng.uniform(0, 8)
        beta = rng.uniform(1e-4, 0.99)
        a0 = coincidence_offset(ell, beta)
        event = coincidence_event(ell, beta)
        tol = 1e-9 * max(1.0, ell)
        assert contains_event(Hyperplane(FourVector(1.0), a0), event, tol=tol)
        assert contains_event(Hyperplane(frame_normal(beta), 0.0), event, tol=tol)


def test_event_tolerance_scales():
    assert event_tolerance(FourVector(0.0)) == 1e-9
    assert event_tolerance(FourVector(0.0, 1e6)) == pytest.approx(1e-3)


def test_four_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        FourVector(float("nan"))
    with pytest.raises(ValueError):
        FourVector(1.0, float("inf"))


def test_minkowski_dot_signature():
    u = FourVector(2.0, 1.0, 1.0, 1.0)
    assert u.dot(u) == pytest.approx(4.0 - 3.0)
