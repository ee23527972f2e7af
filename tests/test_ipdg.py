"""Semi-discrete wave operator: symmetry, sign, and consistency checks.

The constant-coefficient path is compared against the interpolation-based
variable path on fields where interpolation is exact, the assembled dense
matrix is checked for symmetry and negative semidefiniteness, and the
interpolated operator applied to exact node samples is shown to converge
to the projected strong form at the expected rate.
"""

import weakref

import numpy as np
import pytest

from mrdg import ipdg
from mrdg.fastmv import TensorSpace, on_level, project_separable
from mrdg.grids import AdaptiveGrid
from mrdg.interp import make_interp_basis
from mrdg.ipdg import (
    Coefficient,
    SchemeConfig,
    SourceTerm,
    State,
    WaveOperator,
    make_rhs,
)
from mrdg.problems import make_problem

from conftest import activate, csq_at_nodes_broadcast, flatten, random_coeffs, space_layout

PER = ("periodic", "periodic")
TAU = 2 * np.pi


def scheme(ndim, k, m, n, csq, sigma=10.0, bc=None, variant="interface"):
    bc = bc if bc is not None else (PER,) * ndim
    cfg = SchemeConfig(
        ndim=ndim, k=k, m=m, variant=variant, n_max=n, sigma=sigma, bc=bc, csq=csq
    )
    return WaveOperator(cfg)


def unit_coeff(space, p, i):
    layout, _total = space_layout(space, p)
    cs = space.zeros(p)
    for lv, (off, shape) in layout.items():
        size = int(np.prod(shape))
        if off <= i < off + size:
            cs.data[lv].flat[i - off] = 1.0
            break
    return space.mask(cs)


def dense_operator(wop, space, p):
    _layout, total = space_layout(space, p)
    cols = [
        flatten(space, wop.apply(space, unit_coeff(space, p, i))) for i in range(total)
    ]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# path agreement on fields where interpolation is exact


def constant_field(value):
    return Coefficient(
        fn=lambda xs, sides: np.broadcast_to(value, np.broadcast(*xs).shape).copy()
    )


@pytest.mark.parametrize("k,m", [(1, 2), (2, 3)])
def test_variable_path_matches_constant_path(k, m):
    # a constant c^2 through the smooth pipeline: interpolation of the
    # degree-k integrands is exact, so the two code paths must agree
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    u = random_coeffs(space, (k + 1, k + 1), 11)
    ref = scheme(2, k, m, 3, Coefficient.const(1.3))
    alt = scheme(2, k, m, 3, constant_field(1.3))
    a = flatten(space, ref.apply(space, u))
    b = flatten(space, alt.apply(space, u))
    assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(a)))


def test_aligned_path_matches_constant_on_continuous_states():
    # the layered pipeline samples forced one-sided limits, which are only
    # guaranteed to coincide with the natural sampling on continuous u; on
    # globally polynomial states it must collapse to the constant scheme
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    field = Coefficient(
        fn=lambda xs, sides: np.broadcast_to(0.7, np.broadcast(*xs).shape).copy(),
        aligned_jumps=True,
    )
    ref = scheme(2, 1, 2, 3, Coefficient.const(0.7))
    alt = scheme(2, 1, 2, 3, field)
    for fx, fy in ((lambda x: 2.0 * x - 0.4, lambda y: y + 0.3), (lambda x: x, lambda y: y)):
        u = project_separable(space, [(fx, fy)], 1, 3)
        a = flatten(space, ref.apply(space, u))
        b = flatten(space, alt.apply(space, u))
        assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# dense structure


def smooth_speed():
    return Coefficient.smooth(
        lambda x, y: 1.0 + 0.5 * np.sin(TAU * x) * np.sin(TAU * y)
    )


def layered_speed():
    def fn(xs, sides):
        left = (xs[0] < 0.5) | ((xs[0] == 0.5) & (sides[0] < 0))
        return np.where(left, 1.0, 4.0) + 0.0 * xs[1]

    return Coefficient(fn=fn, aligned_jumps=True)


def test_dense_operator_is_symmetric_on_full_grid():
    space = TensorSpace(AdaptiveGrid.full(2, 3))
    wop = scheme(2, 1, 2, 3, smooth_speed())
    dense = dense_operator(wop, space, (2, 2))
    gap = np.linalg.norm(dense - dense.T) / np.linalg.norm(dense)
    assert gap < 1e-10


@pytest.mark.parametrize("grid,field,bound", [("sparse", "smooth", 0.05), ("full", "layered", 0.3)])
def test_interpolated_asymmetry_stays_bounded(grid, field, bound):
    # interpolation is known to break the exact symmetry of the bilinear
    # form off the full grid, and the one-sided material sampling breaks it
    # even on the full grid; the gap must stay well below O(1)
    g = AdaptiveGrid.full(2, 3) if grid == "full" else AdaptiveGrid.sparse(2, 3)
    space = TensorSpace(g)
    csq = smooth_speed() if field == "smooth" else layered_speed()
    wop = scheme(2, 1, 2, 3, csq)
    dense = dense_operator(wop, space, (2, 2))
    gap = np.linalg.norm(dense - dense.T) / np.linalg.norm(dense)
    assert gap < bound


@pytest.mark.parametrize("bc", [PER, ("dirichlet", "dirichlet")])
def test_constant_operator_is_negative_semidefinite(bc):
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    wop = scheme(2, 1, 2, 3, Coefficient.const(1.0), bc=(bc, bc))
    dense = dense_operator(wop, space, (2, 2))
    lam = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert lam.max() <= 1e-8 * np.abs(lam).max()


def test_bilinear_and_energy_accounting():
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    wop = scheme(2, 1, 2, 3, Coefficient.const(2.0))
    u = random_coeffs(space, (2, 2), 1)
    v = random_coeffs(space, (2, 2), 2)
    w = random_coeffs(space, (2, 2), 3)
    bu = wop.bilinear(space, u, v)
    assert abs(bu - wop.bilinear(space, v, u)) < 1e-10 * max(1.0, abs(bu))
    e = wop.energy(space, u, w)
    want = 0.5 * w.norm2() + 0.5 * wop.bilinear(space, u, u)
    assert abs(e - want) < 1e-12 * max(1.0, abs(want))
    assert wop.bilinear(space, u, u) >= -1e-10


# ---------------------------------------------------------------------------
# interpolation plumbing


def test_interpolant_of_polynomial_has_no_fine_surpluses():
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    wop = scheme(2, 1, 2, 3, constant_field(1.0))
    u = project_separable(space, [(lambda x: x, lambda y: y)], 1, 3)
    surp = wop._surplus.apply(space, wop._nodeval.apply(space, u))
    for lv, arr in surp.data.items():
        if lv != (0, 0):
            assert np.max(np.abs(arr)) < 1e-12


def sample_at_nodes(space, m, variant, fn):
    """Values of an analytic function at every active element's node tuple."""
    p = (m + 1,) * space.ndim
    out = space.zeros(p)
    basis = make_interp_basis(m, variant)
    for lv in space.levels:
        coords = [basis.level_nodes(l)[0] for l in lv]
        out.data[lv][...] = fn(*np.broadcast_arrays(*on_level(coords)))
    return space.mask(out)


def test_sample_at_nodes_evaluates_fn_on_lattice():
    space = TensorSpace(AdaptiveGrid.sparse(2, 2))
    fn = lambda x, y: np.sin(x) + 2.0 * y
    cs = sample_at_nodes(space, 3, "interface", fn)
    lv = (1, 1)
    coords = [make_interp_basis(3, "interface").level_nodes(l)[0] for l in lv]
    x = coords[0].reshape(coords[0].shape[0], 1, coords[0].shape[1], 1)
    y = coords[1].reshape(1, coords[1].shape[0], 1, coords[1].shape[1])
    np.testing.assert_allclose(cs.data[lv], fn(x, y), atol=1e-14)


# ---------------------------------------------------------------------------
# consistency of the interpolated branches (exact node data)


def _u_exact(x, y):
    return np.sin(TAU * x) * np.sin(TAU * y)


def _csq_fn(x, y):
    return 1.0 + 0.5 * np.sin(TAU * x) * np.sin(TAU * y)


def _strong_form_terms():
    # div(c^2 grad u) for the fields above, split into separable factors
    s = lambda t: np.sin(TAU * t)
    c = lambda t: np.cos(TAU * t)
    pp = np.pi**2
    return [
        (lambda x: -8 * pp * s(x), s),
        (lambda x: -4 * pp * s(x) ** 2, lambda y: s(y) ** 2),
        (lambda x: 2 * pp * c(x) ** 2, lambda y: s(y) ** 2),
        (lambda x: 2 * pp * s(x) ** 2, lambda y: c(y) ** 2),
    ]


def truncation_norm(k, n):
    m = k + 1
    space = TensorSpace(AdaptiveGrid.sparse(2, n))
    wop = scheme(2, k, m, n, Coefficient.smooth(_csq_fn))
    du = (
        lambda x, y: TAU * np.cos(TAU * x) * np.sin(TAU * y),
        lambda x, y: TAU * np.sin(TAU * x) * np.cos(TAU * y),
    )
    p_nodes = [
        sample_at_nodes(space, m, "interface", lambda x, y, g=g: _csq_fn(x, y) * g(x, y))
        for g in du
    ]
    q_nodes = sample_at_nodes(
        space, m, "interface", lambda x, y: _csq_fn(x, y) * _u_exact(x, y)
    )
    tau = wop.apply_interpolated(space, p_nodes + [q_nodes])
    tau.axpy(-1.0, project_separable(space, _strong_form_terms(), k, n))
    return np.sqrt(tau.norm2())


@pytest.mark.parametrize("k", [1, 2])
def test_interpolated_operator_truncation_rate(k):
    ns = [3, 4, 5]
    errs = [truncation_norm(k, n) for n in ns]
    rate = -np.polyfit(ns, np.log2(errs), 1)[0]
    assert rate > k + 0.4, f"fitted truncation order {rate:.3f}"


def test_interpolated_rejects_constant_pipeline():
    space = TensorSpace(AdaptiveGrid.sparse(2, 2))
    wop = scheme(2, 1, 2, 2, Coefficient.const(1.0))
    z = space.zeros((2, 2))
    with pytest.raises(ValueError):
        wop.apply_interpolated(space, [z, z, z])


@pytest.mark.parametrize(
    "csq,terms", [(smooth_speed(), 3), (layered_speed(), 6)], ids=["smooth", "aligned"]
)
def test_interpolated_takes_one_sample_set_per_term(csq, terms):
    # 2D: c^2 d_1 u, c^2 d_2 u, then c^2 u (smooth) or its four one-sided
    # limits (aligned jumps)
    space = TensorSpace(AdaptiveGrid.sparse(2, 2))
    wop = scheme(2, 1, 2, 2, csq)
    z = space.zeros((3, 3))
    wop.apply_interpolated(space, [z] * terms)
    for wrong in (terms - 1, terms + 1):
        with pytest.raises(ValueError):
            wop.apply_interpolated(space, [z] * wrong)


# ---------------------------------------------------------------------------
# first-order system assembly


@pytest.mark.parametrize("ndim,n", [(2, 4), (3, 3)])
@pytest.mark.parametrize("problem", ["smooth-speed", "layered-aligned", "layered-pulse"])
def test_csq_samples_equal_the_broadcast_evaluation(problem, ndim, n):
    # c^2 sees broadcastable per-dimension views; elementwise on the full
    # block or broadcast afterwards, every sample takes the same bits
    prob = make_problem(problem, ndim)
    wop = scheme(ndim, 2, 3, n, prob.csq, bc=prob.bc)
    space = TensorSpace(AdaptiveGrid.sparse(ndim, n))
    forces = [None]
    if prob.csq.aligned_jumps:
        forces += [(m, side) for m in range(ndim) for side in (-1, 1)]
    for force in forces:
        got = wop._csq_at_nodes(space, force)
        assert np.array_equal(got, csq_at_nodes_broadcast(wop.cfg, space, force))


@pytest.mark.parametrize("problem,terms", [("smooth-speed", 3), ("layered-aligned", 6)])
def test_apply_holds_at_most_two_node_sample_sets(problem, terms, monkeypatch):
    # each interpolated term's node samples are made as it takes them, so
    # the previous term's set is the only other one alive
    made, alive = [], []
    multiply = ipdg._elementwise_mul

    def tracked(cs, values):
        made.append(weakref.ref(cs.buf))
        alive.append(sum(ref() is not None for ref in made))
        return multiply(cs, values)

    monkeypatch.setattr(ipdg, "_elementwise_mul", tracked)
    prob = make_problem(problem, 2)
    wop = scheme(2, 2, 3, 4, prob.csq, bc=prob.bc)
    space = TensorSpace(AdaptiveGrid.sparse(2, 4))
    wop.apply(space, random_coeffs(space, wop.p_a, 0))
    assert len(made) == terms
    assert max(alive) == 2


def test_one_operator_on_two_grids_of_equal_version():
    # the c^2 node samples follow the space's level list, not the grid's
    # version counter: grids of two level lists whose versions agree, with
    # buffers of different sizes and then of equal size, each get the
    # answer of a fresh operator
    csq = Coefficient.smooth(lambda x, y: 1.0 + 0.5 * x + 0.25 * y**2)
    x_first, y_first = AdaptiveGrid(2, 3), AdaptiveGrid(2, 3)
    activate(x_first, ((2, 0), (1, 0)))
    activate(y_first, ((0, 2), (0, 1)))
    pairs = [(AdaptiveGrid.sparse(2, 2, n_max=3), AdaptiveGrid.sparse(2, 3)), (x_first, y_first)]
    wop = scheme(2, 1, 2, 3, csq)
    for first, second in pairs:
        second.version = first.version
        sizes = [TensorSpace(g).layout.cells for g in (first, second)]
        assert (sizes[0] == sizes[1]) == (first is x_first)
        for grid in (first, second):
            space = TensorSpace(grid)
            u = random_coeffs(space, wop.p_a, 0)
            got = wop.apply(space, u)
            want = scheme(2, 1, 2, 3, csq).apply(space, u)
            assert np.array_equal(got.buf, want.buf)


def test_make_rhs_returns_velocity_and_forced_laplacian():
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    wop = scheme(2, 1, 2, 3, Coefficient.const(1.0))
    u = random_coeffs(space, (2, 2), 7)
    w = random_coeffs(space, (2, 2), 8)
    g = random_coeffs(space, (2, 2), 9)
    rhs = make_rhs(wop, space, [SourceTerm(lambda t: 3.0 * t, g)])
    out = rhs(0.5, State(u, w))
    np.testing.assert_allclose(flatten(space, out.u), flatten(space, w), atol=0)
    assert out.u is not w  # du/dt must be an independent copy
    want = flatten(space, wop.apply(space, u)) + 1.5 * flatten(space, g)
    np.testing.assert_allclose(flatten(space, out.w), want, atol=1e-12)


def test_state_algebra():
    space = TensorSpace(AdaptiveGrid.sparse(2, 2))
    a = State(random_coeffs(space, (2, 2), 1), random_coeffs(space, (2, 2), 2))
    b = State(random_coeffs(space, (2, 2), 3), random_coeffs(space, (2, 2), 4))
    c = a.copy().scale(2.0).axpy(-1.0, b)
    np.testing.assert_allclose(
        flatten(space, c.u), 2 * flatten(space, a.u) - flatten(space, b.u), atol=1e-13
    )
    assert a.finite()
    a.w.data[(0, 0)][0, 0, 0, 0] = np.nan
    assert not a.finite()
