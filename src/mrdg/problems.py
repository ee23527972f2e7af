"""Built-in wave problems: speed fields, data, and reference solutions.

Every initial condition and manufactured source here is a sum of separable
terms (tuples of per-dimension callables), which is what the fast projection
consumes.  A reference solution is given once: as separable terms, with the
closed-form value of ``int u^2 dx`` for L2 errors, or, when it is not
separable, as a pointwise callable.  `Problem.solution` gives the pointwise
form of either for max-norm checks on evaluation lattices.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ipdg import Coefficient


@dataclass(frozen=True)
class DirichletData:
    """Time-separable boundary trace g(x, t) = time_fn(t) * prod profiles."""

    dim: int
    side: int  # 0 -> x_dim = 0 face, 1 -> x_dim = 1 face
    time_fn: Callable[[float], float]
    profiles: tuple  # per-dimension 1D factors; entry at `dim` unused


@dataclass(frozen=True)
class Problem:
    name: str
    ndim: int
    csq: Coefficient
    bc: tuple
    w0_terms: list
    c_max: float = 1.0
    source_time: Callable | None = None
    source_terms: list | None = None
    dirichlet: tuple = ()
    exact_terms: Callable | None = None  # t -> separable terms
    int_exact_sq: Callable | None = None  # t -> float
    exact_fn: Callable | None = None  # t -> pointwise callable, if not separable

    def solution(self, t: float) -> Callable | None:
        """Pointwise exact solution at time t, or None when there is none."""
        if self.exact_fn is not None:
            return self.exact_fn(t)
        if self.exact_terms is None:
            return None
        terms = self.exact_terms(t)

        def fn(*xs):
            # reduce, not sum: sum's `0 +` allocates one more lattice-sized array
            products = (
                functools.reduce(operator.mul, [f(x) for f, x in zip(fs, xs)])
                for fs in terms
            )
            return functools.reduce(operator.add, products)

        return fn


def _cospi(a: float, scale: float = 1.0):
    return lambda x: scale * np.cos(a * np.pi * x)


def _sinpi(a: float, scale: float = 1.0):
    return lambda x: scale * np.sin(a * np.pi * x)


def _gauss(center: float, scale: float = 1.0):
    return lambda x: scale * np.exp(-500.0 * (x - center) ** 2)


# ---------------------------------------------------------------------------
# separable standing waves, constant speed


def cosine_periodic(ndim: int, a: float = 2.0) -> Problem:
    """Product-of-cosines standing wave with unit speed, fully periodic.

    u = sin(a sqrt(d) pi t) prod_i cos(a pi x_i); starts from rest with a
    nonzero velocity, no source.
    """
    freq = a * math.sqrt(ndim) * math.pi

    def terms(t):
        return [tuple(_cospi(a, math.sin(freq * t) if i == 0 else 1.0) for i in range(ndim))]

    return Problem(
        name="cosine-periodic",
        ndim=ndim,
        csq=Coefficient.const(1.0),
        bc=(("periodic", "periodic"),) * ndim,
        w0_terms=[tuple(_cospi(a, freq if i == 0 else 1.0) for i in range(ndim))],
        exact_terms=terms,
        int_exact_sq=lambda t: math.sin(freq * t) ** 2 * 0.5**ndim,
    )


def cosine_mixed(ndim: int) -> Problem:
    """Cosine-product wave with Dirichlet data in x1, Neumann elsewhere.

    With unit frequency the normal derivative vanishes on the Neumann
    faces, so only the two x1 faces carry (time-dependent) boundary data.
    """
    a = 1.0
    freq = math.sqrt(ndim) * math.pi
    base = cosine_periodic(ndim, a)
    bc = (("dirichlet", "dirichlet"),) + (("neumann", "neumann"),) * (ndim - 1)
    profiles = tuple(None if i == 0 else _cospi(a) for i in range(ndim))
    loads = (
        DirichletData(0, 0, lambda t: math.sin(freq * t), profiles),
        # cos(pi) flips the sign of the trace on the far face
        DirichletData(0, 1, lambda t: -math.sin(freq * t), profiles),
    )
    return Problem(
        name="cosine-mixed",
        ndim=ndim,
        csq=base.csq,
        bc=bc,
        w0_terms=base.w0_terms,
        dirichlet=loads,
        exact_terms=base.exact_terms,
        int_exact_sq=base.int_exact_sq,
    )


# ---------------------------------------------------------------------------
# smooth variable speed with a manufactured source


def _smooth_speed_2d():
    def csq(x1, x2):
        return (np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2) + 2.0) / 3.0

    # u_tt - div(c^2 grad u) for u = sin(pi t) sin(2pi x1) cos(2pi x2),
    # collected into separable pieces (the time factor is sin(pi t))
    p2 = math.pi**2
    terms = [
        (_sinpi(2, 13 * p2 / 3), _cospi(2)),
        (_sinpi(4, 2 * p2 / 3), lambda x: np.ones_like(x)),
        (_sinpi(4, 4 * p2 / 3), _cospi(4)),
    ]
    return csq, terms


def _smooth_speed_3d():
    def csq(x1, x2, x3):
        return (
            np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.cos(2 * np.pi * x3)
            + 2.0
        ) / 3.0

    p2 = math.pi**2

    def sin_sq(x):
        return np.sin(2 * np.pi * x) ** 2

    def cos_sq(x):
        return np.cos(2 * np.pi * x) ** 2

    def sincos(x):
        return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * x)

    terms = [
        (_sinpi(2, 7 * p2), _cospi(2), _cospi(2)),
        (lambda x: -(4 * p2 / 3) * cos_sq(x), sincos, cos_sq),
        (lambda x: (16 * p2 / 3) * sin_sq(x), sincos, cos_sq),
        (lambda x: -(4 * p2 / 3) * sin_sq(x), sincos, sin_sq),
    ]
    return csq, terms


def smooth_speed(ndim: int) -> Problem:
    """Trigonometric speed field, periodic, driven to a known solution.

    u = sin(pi t) sin(2pi x1) cos(2pi x2) [cos(2pi x3)]; the source is the
    residual of that ansatz, expanded by hand into separable terms.
    """
    if ndim == 2:
        csq_fn, f_terms = _smooth_speed_2d()
    elif ndim == 3:
        csq_fn, f_terms = _smooth_speed_3d()
    else:
        raise ValueError("smooth-speed is defined for d = 2, 3")

    def terms(t):
        amp = math.sin(math.pi * t)
        fs = [_sinpi(2, amp), _cospi(2)] + [_cospi(2)] * (ndim - 2)
        return [tuple(fs)]

    return Problem(
        name="smooth-speed",
        ndim=ndim,
        csq=Coefficient.smooth(csq_fn),
        bc=(("periodic", "periodic"),) * ndim,
        w0_terms=[
            tuple(
                [_sinpi(2, math.pi), _cospi(2)] + [_cospi(2)] * (ndim - 2)
            )
        ],
        source_time=lambda t: math.sin(math.pi * t),
        source_terms=f_terms,
        exact_terms=terms,
        int_exact_sq=lambda t: math.sin(math.pi * t) ** 2 * 0.5**ndim,
    )


# ---------------------------------------------------------------------------
# piecewise-constant speed, jumps on mesh planes


def layered_aligned(ndim: int) -> Problem:
    """Fast slab inside [1/4, 3/4] x [0,1]^(d-1), standing-wave solution.

    The slower outer speed is tuned so a single temporal frequency matches
    a continuous piecewise-cosine profile across the slab faces; the exact
    solution solves the homogeneous equation on each side.  Speed jumps sit
    on dyadic planes, so both one-sided limits are sampled there.
    """
    if ndim == 2:
        outer, omega = 5.0 / 37.0, math.sqrt(20.0) * math.pi
    elif ndim == 3:
        outer, omega = 3.0 / 19.0, math.sqrt(24.0) * math.pi
    else:
        raise ValueError("layered-aligned is defined for d = 2, 3")

    def csq_fn(xs, sides):
        x = xs[0] + 1e-9 * sides[0]
        return np.where((x > 0.25) & (x < 0.75), 1.0, outer)

    def profile(scale=1.0):
        def fn(x):
            x = np.asarray(x)
            inside = (x >= 0.25) & (x <= 0.75)
            return scale * np.where(
                inside, np.cos(4 * np.pi * x), np.cos(12 * np.pi * x)
            )

        return fn

    def terms(t):
        fs = [profile(math.sin(omega * t))] + [_cospi(2)] * (ndim - 1)
        return [tuple(fs)]

    return Problem(
        name="layered-aligned",
        ndim=ndim,
        csq=Coefficient.piecewise(csq_fn),
        bc=(("periodic", "periodic"),) * ndim,
        w0_terms=[tuple([profile(omega)] + [_cospi(2)] * (ndim - 1))],
        exact_terms=terms,
        # each piecewise-cosine factor integrates to 1/2 over its slab union
        int_exact_sq=lambda t: math.sin(omega * t) ** 2 * 0.5**ndim,
    )


# ---------------------------------------------------------------------------
# pulse problems without closed-form references on the grid


def corner_pulse(ndim: int) -> Problem:
    """Velocity burst at the origin in a uniform medium, reflecting walls.

    Homogeneous Neumann faces make the corner a symmetry point, so in 3D
    the free-space spherical pulse is exact until the front reaches the far
    faces; it serves as the pointwise reference there.
    """

    def exact(t):
        def fn(*xs):
            r = np.sqrt(sum(np.asarray(x) ** 2 for x in xs))
            tiny = r < 1e-8
            rs = np.where(tiny, 1.0, r)
            val = (
                np.exp(-500.0 * (t - rs) ** 2) - np.exp(-500.0 * (t + rs) ** 2)
            ) / (20.0 * rs)
            return np.where(tiny, 100.0 * t * math.exp(-500.0 * t * t), val)

        return fn

    return Problem(
        name="corner-pulse",
        ndim=ndim,
        csq=Coefficient.const(1.0),
        bc=(("neumann", "neumann"),) * ndim,
        w0_terms=[tuple(_gauss(0.0, 100.0 if i == 0 else 1.0) for i in range(ndim))],
        exact_fn=exact if ndim == 3 else None,
    )


def layered_pulse(ndim: int) -> Problem:
    """Centered pulse crossing a slow slab whose walls miss the mesh planes.

    The speed jump at x1 = 0.35 and 0.65 is deliberately not grid-aligned;
    the field is sampled as-is at interpolation nodes.  Absorbing walls are
    approximated by homogeneous Dirichlet data.
    """

    def csq_fn(x1, *rest):
        return np.where((x1 >= 0.35) & (x1 <= 0.65), 0.25, 1.0)

    return Problem(
        name="layered-pulse",
        ndim=ndim,
        csq=Coefficient.smooth(csq_fn),
        bc=(("dirichlet", "dirichlet"),) * ndim,
        w0_terms=[tuple(_gauss(0.5, 100.0 if i == 0 else 1.0) for i in range(ndim))],
    )


REGISTRY = {
    "cosine-periodic": cosine_periodic,
    "cosine-mixed": cosine_mixed,
    "smooth-speed": smooth_speed,
    "layered-aligned": layered_aligned,
    "corner-pulse": corner_pulse,
    "layered-pulse": layered_pulse,
}


def make_problem(name: str, ndim: int) -> Problem:
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; choices: {sorted(REGISTRY)}"
        ) from None
    return factory(ndim)
