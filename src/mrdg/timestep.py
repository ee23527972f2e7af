"""Explicit Runge-Kutta steppers for the semi-discrete system.

The step functions are duck-typed over the state: anything supporting
``copy() / axpy(alpha, other) / scale(alpha) / finite()`` works, which keeps
them reusable for scalar ODE sanity checks in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class InstabilityError(RuntimeError):
    """Raised when the solution stops being finite mid-integration."""

    def __init__(self, step: int, time: float):
        super().__init__(f"solution became non-finite at step {step} (t={time:.6g})")
        self.step = step
        self.time = time


def ssp_rk2_step(fn, t, dt, y):
    k1 = fn(t, y)
    y1 = y.copy().axpy(dt, k1)
    k2 = fn(t + dt, y1)
    # convex combination 1/2 y + 1/2 (y1 + dt k2)
    return y1.axpy(dt, k2).scale(0.5).axpy(0.5, y)


def ssp_rk3_step(fn, t, dt, y):
    k1 = fn(t, y)
    y1 = y.copy().axpy(dt, k1)
    k2 = fn(t + dt, y1)
    y2 = y1.axpy(dt, k2).scale(0.25).axpy(0.75, y)
    k3 = fn(t + 0.5 * dt, y2)
    return y2.axpy(dt, k3).scale(2.0 / 3.0).axpy(1.0 / 3.0, y)


def rk4_step(fn, t, dt, y):
    k1 = fn(t, y)
    k2 = fn(t + 0.5 * dt, y.copy().axpy(0.5 * dt, k1))
    k3 = fn(t + 0.5 * dt, y.copy().axpy(0.5 * dt, k2))
    k4 = fn(t + dt, y.copy().axpy(dt, k3))
    out = y.copy()
    out.axpy(dt / 6.0, k1).axpy(dt / 3.0, k2)
    return out.axpy(dt / 3.0, k3).axpy(dt / 6.0, k4)


@dataclass(frozen=True)
class RKScheme:
    name: str
    order: int
    step: Callable


SSP_RK2 = RKScheme("ssp-rk2", 2, ssp_rk2_step)
SSP_RK3 = RKScheme("ssp-rk3", 3, ssp_rk3_step)
RK4 = RKScheme("rk4", 4, rk4_step)


def scheme_for(k: int) -> RKScheme:
    """Time integrator matched to the spatial degree (k >= 3 gets RK4)."""
    if k <= 1:
        return SSP_RK2
    if k == 2:
        return SSP_RK3
    return RK4


def compute_dt(cfl: float, n_max: int, c_max: float) -> float:
    """CFL-limited step from the finest admissible mesh width."""
    return cfl * 2.0**-n_max / c_max


def effective_cfl(cfl: float, k: int) -> float:
    """Working CFL constant for the integrator paired with degree k.

    The penalized operator is symmetric, so the semi-discrete system is
    exactly skew and its spectrum purely imaginary.  The two-stage scheme's
    stability region touches the imaginary axis only at the origin, which
    lets the stiffest modes grow like (1 + z^4/4)^(steps/2); a third of the
    nominal step suppresses that below the spatial error.  The three-stage
    and four-stage schemes contain genuine imaginary-axis segments and run
    at the nominal constant.
    """
    return cfl / 3.0 if k <= 1 else cfl

