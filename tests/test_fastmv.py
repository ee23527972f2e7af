"""Tensor-space containers and the dimension-sweep operator apply.

The core check: applying Kronecker-factor operators through ordered level
sweeps on a downward-closed active set must equal the dense restricted
matrix.  `dense_from_terms` assembles that matrix from raw operator entries
without consulting tags, sweep order, or the L+U expansion.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdg import fastmv, runner
from mrdg.config import RunConfig
from mrdg.fastmv import (
    TensorOperator,
    TensorSpace,
    TensorTerm,
    eval_on_lattice,
    expand_term,
    project_separable,
    sweep_order,
)
from mrdg.grids import AdaptiveGrid, num_cells
from mrdg.ipdg import SchemeConfig, WaveOperator
from mrdg.operators1d import (
    alpert_family,
    assemble_ipdg,
    assemble_mass,
    assemble_node_values,
    assemble_trace,
    interp_family,
    lu_split,
    node_family,
)
from mrdg.problems import make_problem

from conftest import (
    activate,
    alpert_point_matrix,
    alpert_values_brute,
    assemble_stiffness,
    children,
    deactivate,
    dense,
    dense_from_terms,
    dense_lattice_values,
    flatten,
    is_leaf,
    lower_mask,
    random_coeffs,
    random_pruning,
    variable_speed_factors,
)

ORACLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# coefficient containers


@given(st.integers(0, 2**31 - 1), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=20, deadline=None)
def test_coeffset_algebra_matches_flat_vectors(seed, alpha, beta):
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    a = random_coeffs(space, (2, 2), seed)
    b = random_coeffs(space, (2, 2), seed + 1)
    va, vb = flatten(space, a), flatten(space, b)
    assert abs(a.dot(b) - va @ vb) < 1e-10
    assert abs(a.norm2() - va @ va) < 1e-10
    c = a.copy().scale(alpha).axpy(beta, b)
    np.testing.assert_allclose(flatten(space, c), alpha * va + beta * vb, atol=1e-10)
    # copy is deep: mutating c must not touch a
    np.testing.assert_allclose(flatten(space, a), va, atol=0)


def test_coeffset_finite_flags_bad_values():
    space = TensorSpace(AdaptiveGrid.sparse(2, 2))
    cs = space.zeros((2, 2))
    assert cs.finite()
    cs.data[(0, 0)][0, 0, 0, 0] = np.inf
    assert not cs.finite()


def test_conform_moves_between_level_sets():
    coarse = TensorSpace(AdaptiveGrid.sparse(2, 2))
    fine = TensorSpace(AdaptiveGrid.sparse(2, 3))
    cs = random_coeffs(coarse, (2, 2), 3)
    up = fine.conform(cs)
    for lv in coarse.levels:
        np.testing.assert_allclose(up.data[lv], cs.data[lv], atol=0)
    back = coarse.conform(up)
    np.testing.assert_allclose(flatten(coarse, back), flatten(coarse, cs), atol=0)


@given(st.integers(1, 3), st.integers(0, 2**16), st.data())
@settings(max_examples=40, deadline=None)
def test_coeffset_buffer_ops_match_per_level(d, seed, data):
    n = {1: 5, 2: 4, 3: 3}[d]
    grid = random_pruning(d, n, seed)
    space = TensorSpace(grid)
    p = tuple(data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d), label="p"))
    alpha = data.draw(st.floats(-3, 3), label="alpha")
    a, b = random_coeffs(space, p, seed), random_coeffs(space, p, seed + 1)
    ref_a = {lv: arr.copy() for lv, arr in a.data.items()}
    ref_b = {lv: arr.copy() for lv, arr in b.data.items()}

    # one buffer, levels in space.levels order, each C-contiguous
    assert list(a.data) == space.levels
    np.testing.assert_array_equal(
        a.buf, np.concatenate([ref_a[lv].ravel() for lv in space.levels])
    )
    # data[lv] is a view: writes show both ways
    i = data.draw(st.integers(0, len(space.levels) - 1), label="level")
    lv = space.levels[i]
    off = sum(ref_a[l].size for l in space.levels[:i])
    c = a.copy()
    c.data[lv].flat[-1] = 7.0
    assert c.buf[off + ref_a[lv].size - 1] == 7.0
    c.buf[off] = -5.0
    assert c.data[lv].flat[0] == -5.0
    assert a.data[lv].flat[0] == ref_a[lv].flat[0]  # copy is deep

    # elementwise ops are bitwise the per-level loops they replace
    def per_level(out, fn):
        for l, arr in out.data.items():
            np.testing.assert_array_equal(arr, fn(l), err_msg=str(l))

    def scaled(l):
        x = ref_a[l].copy()
        x *= alpha
        return x

    def axpy(l):
        x = ref_a[l].copy()
        x += alpha * ref_b[l]
        return x

    per_level(a.copy(), lambda l: ref_a[l])
    per_level(a.copy().scale(alpha), scaled)
    per_level(a.copy().axpy(alpha, b), axpy)
    assert a.dot(b) == sum(float(np.vdot(ref_a[l], ref_b[l])) for l in space.levels)
    assert a.norm2() == sum(float(np.vdot(ref_a[l], ref_a[l])) for l in space.levels)
    assert a.finite()
    c = a.copy()
    c.data[lv].flat[0] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    assert not c.finite()

    # mask zeroes exactly the inactive cells
    ones = space.zeros(p)
    ones.buf[:] = 1.0
    space.mask(ones)
    for l in space.levels:
        want = space.masks[l].reshape(space.masks[l].shape + (1,) * d)
        np.testing.assert_array_equal(ones.data[l], np.broadcast_to(want, ones.data[l].shape))

    # conform onto a mutated grid is a per-level copy, masked
    for _ in range(data.draw(st.integers(1, 6), label="mutations")):
        keys = sorted(grid)
        key = data.draw(st.sampled_from(keys))
        leaves = [k for k in keys if is_leaf(grid, k) and k != keys[0]]
        if leaves and data.draw(st.booleans()):
            deactivate(grid, data.draw(st.sampled_from(leaves)))
        else:
            kids = [c for m in range(d) for c in children(key, m, n)]
            if kids:
                activate(grid, data.draw(st.sampled_from(kids)))
    moved = TensorSpace(grid)
    got = moved.conform(a)
    assert list(got.data) == moved.levels
    for l in moved.levels:
        want = ref_a[l] if l in ref_a else np.zeros(got.data[l].shape)
        mask = moved.masks[l].reshape(moved.masks[l].shape + (1,) * d)
        np.testing.assert_array_equal(got.data[l], np.where(mask, want, 0.0))


# ---------------------------------------------------------------------------
# sweep scheduling


def test_sweep_order_places_single_pivot_between_triangular_sweeps():
    fam = alpert_family(1, 2)
    gen = assemble_stiffness(fam, fam)  # general
    low, up = lu_split(gen)
    order = sweep_order((gen, up, low))
    assert order.index(1) < order.index(0) < order.index(2)  # upper, pivot, lower
    with pytest.raises(ValueError):
        sweep_order((gen, gen))


def test_expand_term_splits_extra_generals():
    fam = alpert_family(1, 2)
    gen = assemble_stiffness(fam, fam)
    term = TensorTerm((gen, gen, gen), 2.0)
    parts = expand_term(term)
    assert len(parts) == 4  # 2^(g-1) pieces
    for p in parts:
        assert sum(1 for op in p.ops if op.tag == "general") == 1
    # the pieces must sum back to the original operator
    space = TensorSpace(AdaptiveGrid.sparse(3, 2))
    dense = dense_from_terms([term], space, (2, 2, 2))
    recon = dense_from_terms(parts, space, (2, 2, 2))
    np.testing.assert_allclose(recon, dense, atol=1e-12)


# ---------------------------------------------------------------------------
# the fast apply against the dense restriction


def operator_menu(d: int, k: int, n: int) -> list[tuple[str, list[TensorTerm]]]:
    """Term lists exercising every tag class the scheme produces."""
    A = alpert_family(k, n)
    m = k + 1
    I = interp_family(m, "interface", n)
    Nd = node_family(m, "interface", n)
    bc = ("periodic", "periodic")
    S = assemble_stiffness(A, A)
    C = assemble_mass(A, I)
    EA = assemble_node_values(Nd, A)
    E = lu_split(assemble_node_values(Nd, I))[0]  # the unit-lower interpolation system
    wave = assemble_ipdg(A, bc, 1.0, 20.0)

    menu = []
    # constant-coefficient scheme shape, dense: one pivot per dimension, rest identity
    terms = []
    for dim in range(d):
        ops: list = [None] * d
        ops[dim] = wave
        terms.append(TensorTerm(tuple(ops), scale=-1.0))
    menu.append(("wave-const", terms))
    # every dimension general: forces the L+U expansion
    menu.append(("all-general", [TensorTerm((S,) * d, 0.7)]))
    # mixed family shapes from the variable-coefficient pipelines
    ops = [C] * d
    ops[0] = assemble_trace(A, I, "jump", "avg", bc)
    menu.append(("avg-pipeline", [TensorTerm(tuple(ops), 1.3)]))
    menu.append(("node-sample", [TensorTerm((EA,) * d, 1.0)]))
    nops = [E] * d
    nops[-1] = EA
    menu.append(("node-mixed", [TensorTerm(tuple(nops), -0.4)]))
    return menu


def grid_family(d: int, n: int):
    yield "full", AdaptiveGrid.full(d, n)
    yield "sparse", AdaptiveGrid.sparse(d, n)
    for seed in range(10):
        yield f"random{seed}", random_pruning(d, n, seed * 7 + d)


@pytest.mark.parametrize("d,k,n", [(2, 1, 4), (2, 2, 3), (3, 1, 3)])
def test_fast_apply_equals_dense_restriction(d, k, n):
    menu = operator_menu(d, k, n)
    for gname, grid in grid_family(d, n):
        space = TensorSpace(grid)
        for oname, terms in menu:
            top = TensorOperator(terms)
            p_in = tuple(op.col.p if op is not None else k + 1 for op in terms[0].ops)
            x = random_coeffs(space, p_in, hash((gname, oname)) % 2**32)
            got = flatten(space, top.apply(space, x))
            dense = dense_from_terms(terms, space, p_in)
            want = dense @ flatten(space, x)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) / scale < ORACLE_TOL, (
                f"{gname}/{oname} diverges from the dense reference"
            )


@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**16), st.data())
@settings(max_examples=30, deadline=None)
def test_fast_apply_with_missing_input_levels_equals_dense(d, k, seed, data):
    # an input whose drawn levels are all zero (gaps inside a fiber
    # included) gives the dense restriction's answer
    n = {1: 5, 2: 4, 3: 3}[d]
    space = TensorSpace(random_pruning(d, n, seed))
    oname, terms = data.draw(st.sampled_from(operator_menu(d, k, n)))
    p_in = tuple(op.col.p if op is not None else k + 1 for op in terms[0].ops)
    x = random_coeffs(space, p_in, seed)
    for lv in data.draw(st.sets(st.sampled_from(space.levels))):
        x.data[lv][...] = 0.0
    got = flatten(space, TensorOperator(terms).apply(space, x))
    want = dense_from_terms(terms, space, p_in) @ flatten(space, x)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) / scale < ORACLE_TOL, oname


@pytest.mark.parametrize("ndim,k,n", [(2, 1, 8), (3, 2, 6)])
def test_constant_speed_apply_allocates_no_sweep_buffers(ndim, k, n):
    # the dense sweeps gather, multiply and gather back through work arrays that
    # the warm-up apply sized
    prob = make_problem("cosine-periodic", ndim)
    wop = WaveOperator(
        SchemeConfig(
            ndim=ndim, k=k, m=k + 1, variant="interface", n_max=n, sigma=10.0,
            bc=prob.bc, csq=prob.csq,
        )
    )
    space = TensorSpace(AdaptiveGrid.sparse(ndim, n))
    u = random_coeffs(space, (k + 1,) * ndim, 0)
    out = space.zeros(u.p)
    wop.apply(space, u, out)
    tracemalloc.start()
    try:
        wop.apply(space, u, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u.buf.nbytes / 4


def test_apply_accumulates_into_out():
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    fam = alpert_family(1, 3)
    op = TensorOperator.from_factors((assemble_stiffness(fam, fam), None))
    x = random_coeffs(space, (2, 2), 1)
    seed_out = random_coeffs(space, (2, 2), 2)
    base = flatten(space, seed_out)
    acc = op.apply(space, x, out=seed_out.copy())
    fresh = op.apply(space, x)
    np.testing.assert_allclose(
        flatten(space, acc), base + flatten(space, fresh), atol=1e-12
    )


BC_PAIRS = [
    ("periodic", "periodic"),
    ("dirichlet", "dirichlet"),
    ("neumann", "neumann"),
    ("dirichlet", "neumann"),
    ("neumann", "dirichlet"),
]


def held_tensor_operators(obj) -> list[TensorOperator]:
    """Every TensorOperator an object's attributes hold, in lists and tuples too."""
    if isinstance(obj, TensorOperator):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [top for item in obj for top in held_tensor_operators(item)]
    return []


@given(
    st.sampled_from([2, 3]),
    st.sampled_from(["smooth-speed", "layered-aligned"]),
    st.integers(0, 2**16),
    st.lists(st.sampled_from(BC_PAIRS), min_size=3, max_size=3),
)
# this level set holds only level 0 in one dimension, so a sweep there has
# no level links: its cascade once returned integer zeros
@example(3, "smooth-speed", 2091, [("periodic", "periodic")] * 3)
@settings(max_examples=6, deadline=None)
def test_variable_speed_operators_match_dense_oracles(d, problem, seed, bcs):
    # random downward-closed level sets, each dimension its own bc pair:
    # every TensorOperator of the variable-speed scheme against the dense
    # restriction, and every 1D factor kind and both its lu_split halves
    # against the dense point-value oracles
    n = {2: 3, 3: 2}[d]
    bc = tuple(bcs[:d])
    cfg = SchemeConfig(
        ndim=d, k=2, m=3, variant="interface", n_max=n, sigma=10.0, bc=bc,
        csq=make_problem(problem, d).csq,
    )
    wop = WaveOperator(cfg)
    # fewer growth steps in 3D keep the dense restriction small
    space = TensorSpace(random_pruning(d, n, seed, steps={2: 40, 3: 12}[d]))
    tops = held_tensor_operators(list(vars(wop).values()))
    assert len(tops) >= 3 * d + 1
    for i, top in enumerate(tops):
        p_in = tuple(op.col.p if op is not None else 3 for op in top.terms[0].ops)
        x = random_coeffs(space, p_in, seed + i)
        got = flatten(space, top.apply(space, x))
        want = dense_from_terms(top.terms, space, p_in) @ flatten(space, x)
        assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) < ORACLE_TOL
    for pair in set(bc):
        for op, want in variable_speed_factors(n, pair):
            atol = 1e-13 * np.abs(want).max()
            np.testing.assert_allclose(dense(op), want, rtol=0, atol=atol)
            low = lower_mask(op.row, op.col)
            halves = (np.where(low, want, 0.0), np.where(low, 0.0, want))
            for part, whole in zip(lu_split(op), halves):
                np.testing.assert_allclose(dense(part), whole, rtol=0, atol=atol)


@pytest.fixture
def plan_builds(monkeypatch):
    """(level list, dim, p_in, p_out, dense) of every sweep plan built."""
    builds = []
    build = fastmv._build_plan

    def counted(layout, *key):
        builds.append((layout.levels, *key))
        return build(layout, *key)

    monkeypatch.setattr(fastmv, "_build_plan", counted)
    fastmv._layout.cache_clear()  # layouts other tests built hold their plans
    return builds


def test_sweep_plans_follow_the_level_list(plan_builds):
    builds = plan_builds
    k, n = 1, 4
    fam = alpert_family(k, n)
    terms = [TensorTerm((assemble_stiffness(fam, fam), assemble_mass(fam, fam)), -1.0)]
    top = TensorOperator(terms)
    base = AdaptiveGrid.sparse(2, 3, n_max=n)
    holed = AdaptiveGrid.sparse(2, 3, n_max=n)
    deactivate(holed, ((3, 0), (1, 0)))  # a leaf: level (3, 0) keeps 3 cells
    grown = AdaptiveGrid.sparse(2, 3, n_max=n)
    activate(grown, ((4, 0), (0, 0)))  # adds level (4, 0)
    spaces = [TensorSpace(g) for g in (base, holed, grown)]
    assert spaces[0].levels == spaces[1].levels != spaces[2].levels
    counts = []
    for space in spaces:
        x = random_coeffs(space, (k + 1, k + 1), len(counts))
        got = flatten(space, top.apply(space, x))
        want = dense_from_terms(terms, space, (k + 1, k + 1)) @ flatten(space, x)
        assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) < ORACLE_TOL
        counts.append(len(builds))
    assert spaces[0].layout is spaces[1].layout is not spaces[2].layout
    assert counts[1] == counts[0] > 0  # equal level lists share their plans
    assert counts[2] == 2 * counts[0]  # a new level list builds its own
    assert len(set(builds)) == len(builds)


@given(st.integers(1, 3), st.integers(0, 2**16), st.data())
@settings(max_examples=30, deadline=None)
def test_sweep_plans_gather_and_gather_back_by_permutations(d, seed, data):
    # every fiber of a downward-closed level list holds its whole chain, so
    # a sweep's fibers cover the buffer: its gather and the inverse of its
    # output order are permutations, and nothing needs a zero fill
    n = {1: 5, 2: 4, 3: 3}[d]
    layout = TensorSpace(random_pruning(d, n, seed)).layout
    p_in = tuple(data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d), label="p_in"))
    for dim in range(d):
        for dense in (True, False):  # a dense factor is square
            q = p_in[dim] if dense else data.draw(st.integers(1, 3), label="p_out")
            p_out = p_in[:dim] + (q,) + p_in[dim + 1 :]
            plan = fastmv._build_plan(layout, dim, p_in, p_out, dense)
            size_in, size_out = (layout.cells * math.prod(p) for p in (p_in, p_out))
            np.testing.assert_array_equal(np.sort(plan.gather), np.arange(size_in))
            np.testing.assert_array_equal(np.sort(plan.inverse), np.arange(size_out))
            if dense:
                assert sum(rows * width for rows, width, _ in plan.groups) == size_in
            else:
                fibers = sum(c * num_cells(l) for l, c in enumerate(plan.counts))
                assert fibers * p_in[dim] == size_in


def test_adaptive_run_builds_plans_per_level_list(plan_builds, monkeypatch):
    # the adapt2d benchmark workload builds over 100 spaces on three level
    # lists; each plan is built once per level list, not once per space
    builds, spaces = plan_builds, []

    class CountedSpace(TensorSpace):
        def __init__(self, grid):
            super().__init__(grid)
            spaces.append(tuple(self.levels))

    monkeypatch.setattr(runner, "TensorSpace", CountedSpace)
    cfg = RunConfig.from_mapping(
        {
            "problem": "cosine-periodic",
            "ndim": 2,
            "k": 3,
            "m": 4,
            "n": 8,
            "mode": "adaptive",
            "eps": 1e-4,
            "t_final": 0.02,
        }
    )
    runner.run(cfg)
    lists = {b[0] for b in builds}
    keys = {b[1:] for b in builds}
    # the initial grid search builds one of the three without applying on it
    assert len(spaces) > 100 and len(set(spaces)) == 3 and lists <= set(spaces)
    assert len(builds) == len(set(builds)) == len(lists) * len(keys)


# ---------------------------------------------------------------------------
# projection and evaluation


def test_project_separable_reproduces_polynomials():
    # a bilinear polynomial lies inside the k=1 space: projection is exact
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    terms = [(lambda x: 2 * x - 1, lambda y: y + 0.5)]
    u = project_separable(space, terms, 1, 3)
    pts = (np.arange(8) + 0.5) / 8
    vals = eval_on_lattice(space, u, 1, 3, [pts, pts])
    want = np.outer(2 * pts - 1, pts + 0.5)
    np.testing.assert_allclose(vals, want, atol=1e-11)


def test_project_separable_sums_terms():
    space = TensorSpace(AdaptiveGrid.sparse(2, 2))
    f, g = (lambda x: x), (lambda x: 1 - x)
    single = project_separable(space, [(f, g)], 2, 2)
    double = project_separable(space, [(f, g), (f, g)], 2, 2)
    np.testing.assert_allclose(
        flatten(space, double), 2 * flatten(space, single), atol=1e-13
    )


def test_alpert_point_matrix_matches_eval_hier():
    k, n = 2, 3
    rng = np.random.default_rng(9)
    x = rng.uniform(0.01, 0.99, 17)
    mat = alpert_point_matrix(k, n, x)
    ref = alpert_values_brute(k, n, x)
    np.testing.assert_allclose(mat, ref.T, atol=1e-11)


def test_eval_on_lattice_matches_tensor_basis():
    d, k, n = 2, 1, 3
    space = TensorSpace(random_pruning(d, n, 123))
    u = random_coeffs(space, (k + 1,) * d, 5)
    rng = np.random.default_rng(6)
    ax = [np.sort(rng.uniform(0.01, 0.99, 6)) for _ in range(d)]
    got = eval_on_lattice(space, u, k, n, ax)
    # brute: sum over active elements of coeff * basis_i(x) * basis_j(y)
    b0 = alpert_values_brute(k, n, ax[0])
    b1 = alpert_values_brute(k, n, ax[1])
    fam = alpert_family(k, n)
    want = np.zeros((6, 6))
    for lv in space.levels:
        arr = u.data[lv]
        for c0 in range(num_cells(lv[0])):
            for c1 in range(num_cells(lv[1])):
                for i0 in range(k + 1):
                    for i1 in range(k + 1):
                        coeff = arr[c0, c1, i0, i1]
                        if coeff:
                            r0 = fam.level_slice(lv[0]).start + c0 * (k + 1) + i0
                            r1 = fam.level_slice(lv[1]).start + c1 * (k + 1) + i1
                            want += coeff * np.outer(b0[r0], b1[r1])
    np.testing.assert_allclose(got, want, atol=1e-11)


def _lattice_axis(draw, kind: str, n: int, d: int) -> np.ndarray:
    if kind == "midpoints":  # uniform: the table path where cells allow
        m = 1 << draw(st.integers(0, 6 if d < 3 else 4))
        return (np.arange(m) + 0.5) / m
    if kind == "slab":  # an aligned block of a midpoint lattice, as linf_error cuts
        j = draw(st.integers(1, 6 if d < 3 else 4))
        w = 1 << draw(st.integers(0, j))
        lo = w * draw(st.integers(0, (1 << j) // w - 1))
        return (np.arange(lo, lo + w) + 0.5) / (1 << j)
    if kind == "descending":  # equal runs per cell, cells out of order
        m = 1 << draw(st.integers(1, 6 if d < 3 else 4))
        return (np.arange(m)[::-1] + 0.5) / m
    if kind == "repeated":  # two passes: runs whose values repeat, cells do not
        m = 1 << draw(st.integers(1, 5 if d < 3 else 3))
        return np.tile((np.arange(m) + 0.5) / m, 2)
    if kind == "jittered":  # one point per cell run, offsets differ per cell
        m = 1 << draw(st.integers(1, 6 if d < 3 else 4))
        jit = draw(st.lists(st.floats(-0.4, 0.4), min_size=m, max_size=m))
        return (np.arange(m) + 0.5 + np.array(jit)) / m
    if kind == "odd":  # no power-of-two count: the gather path
        m = draw(st.sampled_from((3, 5, 100) if d < 3 else (3, 5, 11)))
        return (np.arange(m) + 0.5) / m
    if kind == "single":
        return np.array([draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 1))])
    # dyadic breakpoints, 0 and 1 included
    b = draw(st.integers(0, min(n + 1, 4 if d < 3 else 3)))
    return np.arange((1 << b) + 1) / (1 << b)


LATTICE_KINDS = (
    "midpoints",
    "slab",
    "descending",
    "repeated",
    "jittered",
    "odd",
    "single",
    "breakpoints",
)


@st.composite
def lattice_cases(draw):
    """(d, k, n, seed, levels whose coefficients are zeroed, axis points)."""
    d, k, n = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**16))
    levels = sorted(random_pruning(d, n, seed).masks)
    drop = draw(st.sets(st.sampled_from(levels)), label="dropped")
    kinds = [draw(st.sampled_from(LATTICE_KINDS), label="kind") for _ in range(d)]
    return d, k, n, seed, drop, [_lattice_axis(draw, kind, n, d) for kind in kinds]


@given(lattice_cases())
# one-point lattices whose value cancels to 3e-4 and 1e-4 of its terms' magnitude:
# a gate on the largest value fails them by roundoff alone
@example((3, 0, 3, 0, set(), [np.array([0.25]), np.array([0.5]), np.array([0.5])]))
@example((2, 3, 2, 65536, set(), [np.array([0.5]), np.array([0.5])]))
@settings(max_examples=60, deadline=None)
def test_eval_on_lattice_equals_dense_oracle(case):
    d, k, n, seed, drop, axes = case
    space = TensorSpace(random_pruning(d, n, seed))
    u = random_coeffs(space, (k + 1,) * d, seed + 1)
    for lv in drop:
        u.data[lv][...] = 0.0
    got = eval_on_lattice(space, u, k, n, axes)
    want = dense_lattice_values(u, k, n, axes)
    assert got.shape == want.shape
    # point by point, against the magnitude of the value's terms
    scale = dense_lattice_values(u, k, n, axes, absolute=True)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
