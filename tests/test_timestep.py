"""Runge-Kutta steppers on small ODE systems with known behaviour."""

import math

import numpy as np
import pytest

from mrdg.timestep import (
    RK4,
    SSP_RK2,
    SSP_RK3,
    compute_dt,
    effective_cfl,
    scheme_for,
)


class Vec:
    """Minimal state satisfying the stepper duck type."""

    def __init__(self, v):
        self.v = np.array(v, dtype=float)

    def copy(self):
        return Vec(self.v)

    def axpy(self, alpha, other):
        self.v += alpha * other.v
        return self

    def scale(self, alpha):
        self.v *= alpha
        return self

    def finite(self):
        return bool(np.all(np.isfinite(self.v)))


@pytest.mark.parametrize("scheme", [SSP_RK2, SSP_RK3, RK4])
def test_observed_order_matches_declared(scheme):
    # y' = y * cos(t), y(0) = 1  ->  y = exp(sin t)
    fn = lambda t, y: Vec(y.v * math.cos(t))
    errs = []
    for steps in (20, 40, 80):
        dt = 1.0 / steps
        y = Vec([1.0])
        for i in range(steps):
            y = scheme.step(fn, i * dt, dt, y)
        errs.append(abs(y.v[0] - math.exp(math.sin(1.0))))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > scheme.order - 0.2
    assert max(rates) < scheme.order + 0.7


def test_steppers_preserve_time_dependence():
    # y' = 3 t^2 integrates exactly under any scheme of order >= 3 only if
    # the stage times are wired correctly; RK4 must be exact on cubics
    fn = lambda t, y: Vec([3.0 * t**2])
    y = RK4.step(fn, 0.2, 0.5, Vec([0.2**3]))
    assert abs(y.v[0] - 0.7**3) < 1e-14


def test_scheme_selection_by_degree():
    assert scheme_for(0) is SSP_RK2
    assert scheme_for(1) is SSP_RK2
    assert scheme_for(2) is SSP_RK3
    assert scheme_for(3) is RK4
    assert scheme_for(5) is RK4


def test_step_size_and_working_cfl():
    assert compute_dt(0.1, 5, 2.0) == 0.1 * 2.0**-5 / 2.0
    assert effective_cfl(0.3, 1) == pytest.approx(0.1)
    assert effective_cfl(0.3, 0) == pytest.approx(0.1)
    assert effective_cfl(0.3, 2) == 0.3
    assert effective_cfl(0.05, 4) == 0.05


@pytest.mark.parametrize(
    "z,grows", [(2.5, False), (4.0, True)]
)
def test_rk4_imaginary_axis_stability_window(z, grows):
    # u'' = -w^2 u as a first-order system is skew with eigenvalues +-iw;
    # RK4 contains the imaginary segment |z| <= 2*sqrt(2) and not more
    w = 1.0
    dt = z / w
    fn = lambda t, y: Vec([y.v[1], -(w**2) * y.v[0]])
    y = Vec([1.0, 0.0])
    for i in range(200):
        y = RK4.step(fn, i * dt, dt, y)
    amp = math.hypot(y.v[0], y.v[1] / w)
    assert (amp > 10.0) == grows
    if not grows:
        assert amp < 1.0 + 1e-6  # strictly inside the region: no growth


def test_two_stage_scheme_drifts_on_skew_systems():
    # the two-stage region touches the imaginary axis only at the origin,
    # so even small steps grow like (1 + z^4/4)^(n/2); this is the reason
    # the low-degree lane runs at a reduced working CFL
    w, dt, n = 1.0, 0.2, 2000
    fn = lambda t, y: Vec([y.v[1], -(w**2) * y.v[0]])
    y = Vec([1.0, 0.0])
    for i in range(n):
        y = SSP_RK2.step(fn, i * dt, dt, y)
    amp = math.hypot(y.v[0], y.v[1] / w)
    predicted = (1.0 + dt**4 / 4.0) ** (n / 2)
    assert 1.0 + 1e-4 < amp < 2.0 * predicted
