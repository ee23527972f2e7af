"""Built-in problems: do the pieces actually describe the same PDE?

Each problem bundles a speed field, initial/boundary data, a manufactured
source, and reference solutions.  These tests close the loop with finite
differences: the stated exact solution must satisfy u_tt = div(c^2 grad u) + f
pointwise, interface conditions must hold across material walls, and the
closed-form reference norms must match quadrature.
"""

import math

import numpy as np
import pytest

from mrdg.config import RunConfig
from mrdg.fastmv import TensorSpace, project_separable
from mrdg.grids import AdaptiveGrid
from mrdg.ipdg import Coefficient, SchemeConfig, WaveOperator
from mrdg.problems import REGISTRY, DirichletData, make_problem
from mrdg.runner import _dirichlet_spatial

from conftest import cellwise_gauss

H = 2e-4


def eval_terms(terms, *xs):
    out = 0.0
    for factors in terms:
        piece = 1.0
        for f, x in zip(factors, xs):
            piece = piece * f(x)
        out = out + piece
    return out


def csq_at(prob, *xs):
    arrs = [np.asarray(x, dtype=float) for x in xs]
    zeros = [np.zeros_like(a) for a in arrs]
    return prob.csq(arrs, zeros)


def pde_residual(prob, t, pts):
    """u_tt - div(c^2 grad u) - f by flux-form central differences."""
    d = prob.ndim
    u = lambda tt, q: prob.solution(tt)(*q)
    utt = (u(t + H, pts) - 2.0 * u(t, pts) + u(t - H, pts)) / H**2
    div = 0.0
    for m in range(d):
        e = [np.zeros_like(p) for p in pts]
        e[m] = np.full_like(pts[m], H)
        up = [p + (ee if j == m else 0.0) for j, (p, ee) in enumerate(zip(pts, e))]
        dn = [p - (ee if j == m else 0.0) for j, (p, ee) in enumerate(zip(pts, e))]
        hp = [p + (ee / 2 if j == m else 0.0) for j, (p, ee) in enumerate(zip(pts, e))]
        hm = [p - (ee / 2 if j == m else 0.0) for j, (p, ee) in enumerate(zip(pts, e))]
        flux = csq_at(prob, *hp) * (u(t, up) - u(t, pts)) - csq_at(prob, *hm) * (
            u(t, pts) - u(t, dn)
        )
        div = div + flux / H**2
    f = 0.0
    if prob.source_terms:
        f = prob.source_time(t) * eval_terms(prob.source_terms, *pts)
    return utt - div - f


def interior_points(d, lo, hi, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(lo, hi, count) for _ in range(d)]


@pytest.mark.parametrize(
    "name,ndim",
    [
        ("cosine-periodic", 2),
        ("cosine-periodic", 3),
        ("cosine-mixed", 2),
        ("smooth-speed", 2),
        ("smooth-speed", 3),
    ],
)
def test_exact_solution_satisfies_pde(name, ndim):
    prob = make_problem(name, ndim)
    pts = interior_points(ndim, 0.06, 0.94, 20 if ndim == 2 else 8, 42)
    res = pde_residual(prob, 0.13, pts)
    assert np.max(np.abs(res)) < 5e-3


def test_layered_solution_on_each_side_and_wall():
    prob = make_problem("layered-aligned", 2)
    # interior residual per material (flux FD cannot straddle the wall)
    inside = [np.linspace(0.3, 0.7, 9), np.linspace(0.1, 0.9, 9)]
    outside = [np.linspace(0.02, 0.2, 8), np.linspace(0.1, 0.9, 8)]
    for pts in (inside, outside):
        assert np.max(np.abs(pde_residual(prob, 0.07, pts))) < 5e-3

    # continuity of u and of the normal flux c^2 du/dx1 across x1 = 1/4
    d = 1e-7
    y = np.array([0.37])
    fn = prob.solution(0.05)
    left, right = fn(0.25 - d, y), fn(0.25 + d, y)
    assert abs(left - right) < 1e-4
    cl = csq_at(prob, 0.25 - d, y)
    cr = csq_at(prob, 0.25 + d, y)
    gl = cl * (fn(0.25 - d, y) - fn(0.25 - 3 * d, y)) / (2 * d)
    gr = cr * (fn(0.25 + 3 * d, y) - fn(0.25 + d, y)) / (2 * d)
    assert abs(gl - gr) < 1e-4

    # the sided coefficient samples pick their material at the wall
    sides = [np.array([-1.0]), np.array([0.0])]
    at_wall = prob.csq([np.array([0.25]), np.array([0.5])], sides)
    assert at_wall[0] == pytest.approx(5.0 / 37.0)
    sides[0] = np.array([1.0])
    at_wall = prob.csq([np.array([0.25]), np.array([0.5])], sides)
    assert at_wall[0] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["cosine-periodic", "smooth-speed", "layered-aligned"])
def test_reference_norm_matches_quadrature(name):
    prob = make_problem(name, 2)
    t = 0.07
    x, w = cellwise_gauss(4, 8)  # material walls sit on this mesh
    fn = prob.solution(t)
    vals = fn(x[:, None], x[None, :]) ** 2
    got = float(w @ vals @ w)
    assert got == pytest.approx(prob.int_exact_sq(t), rel=1e-8)


def test_corner_pulse_radial_reference():
    prob = make_problem("corner-pulse", 3)
    t = 0.3
    # free-space residual away from the origin
    pts = interior_points(3, 0.15, 0.4, 10, 7)
    assert np.max(np.abs(pde_residual(prob, t, pts))) < 0.05 * max(
        1.0, np.max(np.abs(prob.solution(t)(*pts)) * 1000)
    )
    # removable singularity: formula -> 100 t exp(-500 t^2) as r -> 0
    fn = prob.solution(t)
    limit = 100.0 * t * math.exp(-500.0 * t * t)
    near = fn(np.array([1e-6]), np.array([1e-6]), np.array([1e-6]))
    assert near[0] == pytest.approx(limit, rel=1e-4)
    assert fn(np.array([1e-12]), np.array([0.0]), np.array([0.0]))[0] == pytest.approx(
        limit
    )
    # starts from rest with the stated velocity burst
    dt = 1e-5
    xs = [np.array([0.1]), np.array([0.05]), np.array([0.2])]
    vel = prob.solution(dt)(*xs) / dt
    want = eval_terms(prob.w0_terms, *xs)
    assert vel[0] == pytest.approx(want[0], rel=1e-3)


def test_layered_pulse_speed_geometry():
    prob = make_problem("layered-pulse", 2)
    assert not prob.csq.aligned_jumps  # walls are deliberately off-mesh
    x = np.array([0.3, 0.4, 0.6, 0.7])
    y = np.zeros(4)
    np.testing.assert_allclose(csq_at(prob, x, y), [1.0, 0.25, 0.25, 1.0])
    assert prob.exact_terms is None


@pytest.mark.parametrize("name", sorted(REGISTRY))
@pytest.mark.parametrize("ndim", [2, 3])
def test_solution_is_the_product_of_exact_terms(name, ndim):
    prob = make_problem(name, ndim)
    pts = interior_points(ndim, 0.0, 1.0, 50, 3)
    solution = prob.solution(0.21)
    if prob.exact_terms is not None:
        want = eval_terms(prob.exact_terms(0.21), *pts)
        np.testing.assert_array_equal(solution(*pts), want)
    else:
        assert (solution is None) == (prob.exact_fn is None)


def supported_problems():
    for name, factory in sorted(REGISTRY.items()):
        for ndim in (1, 2, 3):
            try:
                yield factory(ndim)
            except ValueError:
                pass  # not defined in this dimension


@pytest.mark.parametrize(
    "prob", list(supported_problems()), ids=lambda p: f"{p.name}-{p.ndim}"
)
def test_speed_stays_within_c_max(prob):
    # compute_dt sizes the step by c_max; a faster node sample breaks the CFL bound
    axis = np.linspace(0.0, 1.0, 65)
    xs = np.meshgrid(*[axis] * prob.ndim, indexing="ij")
    for side in (-1.0, 0.0, 1.0):
        sides = [np.full_like(x, side) for x in xs]
        assert np.max(prob.csq(xs, sides)) <= prob.c_max**2


def steady_residual(u_terms, loads, k=1, n=3, sigma=10.0):
    """|| L(Pu) + sum(loads) || for a harmonic steady state u."""
    cfg = RunConfig.from_mapping(
        {"problem": "cosine-mixed", "ndim": 2, "k": k, "n": n, "mode": "full", "sigma": sigma}
    )
    space = TensorSpace(AdaptiveGrid.full(2, n))
    wop = WaveOperator(
        SchemeConfig(
            ndim=2,
            k=k,
            m=k + 1,
            variant="interface",
            n_max=n,
            sigma=sigma,
            bc=(("dirichlet", "dirichlet"), ("periodic", "periodic")),
            csq=Coefficient.const(1.0),
        )
    )
    u = project_separable(space, u_terms, k, n)
    resid = wop.apply(space, u)
    for dd in loads:
        resid.axpy(dd.time_fn(0.0), _dirichlet_spatial(space, dd, cfg, wop.cfg.csq))
    return math.sqrt(resid.norm2())


def test_dirichlet_load_balances_steady_states():
    ones = lambda y: np.ones_like(y)
    # u = 1: both x1 faces carry trace 1
    r1 = steady_residual(
        [(lambda x: np.ones_like(x), ones)],
        [
            DirichletData(0, 0, lambda t: 1.0, (None, ones)),
            DirichletData(0, 1, lambda t: 1.0, (None, ones)),
        ],
    )
    assert r1 < 1e-9
    # u = x1: trace 0 at the left face, 1 at the right face
    r2 = steady_residual(
        [(lambda x: x, ones)],
        [DirichletData(0, 1, lambda t: 1.0, (None, ones))],
    )
    assert r2 < 1e-9
    # dropping a required load must leave an O(1) defect
    r3 = steady_residual([(lambda x: x, ones)], [])
    assert r3 > 1.0


def test_registry_contents_and_errors():
    assert sorted(REGISTRY) == [
        "corner-pulse",
        "cosine-mixed",
        "cosine-periodic",
        "layered-aligned",
        "layered-pulse",
        "smooth-speed",
    ]
    with pytest.raises(KeyError, match="unknown problem"):
        make_problem("missing", 2)
    with pytest.raises(ValueError):
        make_problem("smooth-speed", 1)
    with pytest.raises(ValueError):
        make_problem("layered-aligned", 1)
    assert make_problem("cosine-periodic", 1).ndim == 1
