"""Tensor-space containers and the dimension-sweep operator apply.

The core check: applying Kronecker-factor operators through ordered level
sweeps on a downward-closed active set must equal the dense restricted
matrix.  `dense_apply` multiplies by that matrix, formed level pair by level
pair from raw operator entries, without consulting tags, sweep order, or the
L+U expansion.
"""

import collections
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdg import fastmv, operators1d, pyramid, runner
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
    dense_apply,
    dense_lattice_values,
    fiber_order,
    flatten,
    grid_keys,
    is_leaf,
    lower_mask,
    node_values,
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
        keys = grid_keys(grid)
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
    eye = np.eye(space.dof_count((2, 2, 2)))
    dense = dense_apply([term], space, (2, 2, 2), eye)
    recon = dense_apply(parts, space, (2, 2, 2), eye)
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
    E = lu_split(node_values(Nd, I))[0]  # the unit-lower interpolation system
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
            want = dense_apply(terms, space, p_in, flatten(space, x))
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
    want = dense_apply(terms, space, p_in, flatten(space, x))
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) / scale < ORACLE_TOL, oname


@pytest.mark.parametrize("d,k,n", [(2, 1, 4), (2, 2, 3), (3, 1, 3)])
@pytest.mark.parametrize("polys", [1, 2])
def test_dense_groups_and_cascaded_chains_equal_dense_restriction(monkeypatch, d, k, n, polys):
    # with the dense bound at a few p, one sweep holds both dense groups
    # (fibers of top level A <= log2(polys)) and cascaded chains (the rest)
    monkeypatch.setattr(fastmv, "DENSE_ENTRIES", polys * (k + 1))
    fastmv._layout.cache_clear()  # plans built under the usual bound
    (terms,) = [terms for name, terms in operator_menu(d, k, n) if name == "wave-const"]
    top = TensorOperator(terms)
    p_in = (k + 1,) * d
    for gname, grid in grid_family(d, n):
        space = TensorSpace(grid)
        x = random_coeffs(space, p_in, hash(gname) % 2**32)
        got = flatten(space, top.apply(space, x))
        want = dense_apply(terms, space, p_in, flatten(space, x))
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) / scale < ORACLE_TOL, gname
        if gname == "sparse":  # fibers of every top level 0..n
            plans = space.layout.plans.values()
            assert all(plan.groups and plan.chains for plan in plans)
            assert all(rows <= polys * (k + 1) for plan in plans for rows, _, _ in plan.groups)
    fastmv._layout.cache_clear()  # nor are these plans kept


def test_dense_block_grows_to_the_levels_applied(monkeypatch):
    # an apply on levels below n_max probes only as deep as they reach; a
    # deeper apply probes again, and the block is the whole matrix's
    # leading block, bit for bit
    depths = []
    probed = operators1d._probed

    def counted(form, depth):
        depths.append(depth)
        return probed(form, depth)

    monkeypatch.setattr(operators1d, "_probed", counted)
    k, n = 2, 7
    fam = alpert_family(k, n)
    op = assemble_ipdg.__wrapped__(fam, ("periodic", "periodic"), 1.0, 20.0)  # uncached
    terms = [TensorTerm((op, None), -1.0), TensorTerm((None, op), -1.0)]
    top = TensorOperator(terms)
    assert op.mat.block.size == 0
    for top_level in (3, 3, 2, 5):
        space = TensorSpace(AdaptiveGrid.sparse(2, top_level, n_max=n))
        x = random_coeffs(space, (k + 1, k + 1), top_level)
        got = flatten(space, top.apply(space, x))
        want = dense_apply(terms, space, (k + 1, k + 1), flatten(space, x))
        assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) < ORACLE_TOL
    assert depths == [3, 5]  # once per deeper level, never to n_max
    size = fam.level_offset(6)
    assert op.mat.block.shape == (size, size)
    assert np.array_equal(op.mat.block, probed(op.mat.form, n)[:size, :size])
    # a second operator on the same space reuses its plans and grows its own block
    other = assemble_ipdg.__wrapped__(fam, ("periodic", "periodic"), 2.0, 20.0)
    TensorOperator([TensorTerm((other, None))]).apply(space, x)
    assert depths == [3, 5, 5] and other.mat.block.shape == (size, size)


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
        want = dense_apply(top.terms, space, p_in, flatten(space, x))
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
        want = dense_apply(terms, space, (k + 1, k + 1), flatten(space, x))
        assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) < ORACLE_TOL
        counts.append(len(builds))
    assert spaces[0].layout is spaces[1].layout is not spaces[2].layout
    assert counts[1] == counts[0] > 0  # equal level lists share their plans
    assert counts[2] == 2 * counts[0]  # a new level list builds its own
    assert len(set(builds)) == len(builds)


def test_cascade_index_tables_follow_the_sweep_plan(plan_builds, monkeypatch):
    # the index tables of the node and surplus forms live on the `Chains`
    # of the sweep plans that cascade them: each is built once per node
    # layout (or surplus stencil) and `Chains`, so the value and derivative
    # forms share theirs, equal level lists share them and a new level list
    # builds its own
    tables = []

    def counted(name, build):
        def wrapper(owner, ch):
            tables.append((name, owner, ch))
            return build(owner, ch)

        return wrapper

    builders = {
        "link_table": operators1d.NodeLayout,
        "_gather": pyramid.SurplusStencil,
    }
    for name, owner in builders.items():
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    n = 3
    prob = make_problem("smooth-speed", 2)
    cfg = SchemeConfig(
        ndim=2, k=2, m=3, variant="interface", n_max=n, sigma=10.0, bc=prob.bc, csq=prob.csq
    )
    base = AdaptiveGrid.sparse(2, 2, n_max=n)
    holed = AdaptiveGrid.sparse(2, 2, n_max=n)
    deactivate(holed, ((2, 0), (1, 0)))  # a leaf: level (2, 0) keeps 1 cell
    grown = AdaptiveGrid.sparse(2, 2, n_max=n)
    activate(grown, ((3, 0), (0, 0)))  # adds level (3, 0)
    spaces = [TensorSpace(g) for g in (base, holed, grown)]
    assert spaces[0].levels == spaces[1].levels != spaces[2].levels
    built = []
    for i, space in enumerate(spaces):
        # one operator per grid (its c^2 samples follow one grid's versions);
        # all of them hold the same cached forms
        wop = WaveOperator(cfg)
        wop.apply(space, random_coeffs(space, wop.p_a, i))
        built.append(len(tables))
    first, new = tables[: built[0]], tables[built[1] :]
    assert built[1] == built[0]  # equal level lists share their tables
    assert {name for name, _, _ in first} == {name for name, _, _ in new} == set(builders)
    for space, made in ((spaces[0], first), (spaces[2], new)):
        layouts = {id(plan.chains) for plan in space.layout.plans.values()}
        assert {id(ch) for _, _, ch in made} <= layouts  # on the plans' own layouts
        assert {id(ch) for ch in space.layout.chains.values()} == layouts - {id(None)}
    nodes = assemble_node_values(node_family(3, "interface", n), alpert_family(2, n)).mat.nodes
    assert all(owner is nodes for name, owner, _ in tables if name != "_gather")
    keys = [(name, id(owner), id(ch)) for name, owner, ch in tables]
    assert len(set(keys)) == len(keys)  # once per node layout and `Chains`


@given(st.integers(1, 3), st.integers(0, 2**16), st.data())
@settings(max_examples=30, deadline=None)
def test_sweep_plans_gather_and_gather_back_by_permutations(d, seed, data):
    # every fiber of a downward-closed level list holds its whole chain, so
    # a sweep's fibers cover the buffer: each fiber order and its inverse
    # are permutations, and nothing needs a zero fill.  One sweep's input is
    # linked to the previous one's output by the index of each of its
    # entries in that output's order.
    n = {1: 5, 2: 4, 3: 3}[d]
    layout = fastmv.LevelLayout(tuple(TensorSpace(random_pruning(d, n, seed)).levels))
    p_in = tuple(data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d), label="p_in"))
    plans = []
    for dim in range(d):
        for dense in (True, False):  # a dense factor is square
            q = p_in[dim] if dense else data.draw(st.integers(1, 3), label="p_out")
            p_out = p_in[:dim] + (q,) + p_in[dim + 1 :]
            plan = fastmv._build_plan(layout, dim, p_in, p_out, dense)
            assert (plan.order_in, plan.order_out) == ((dim, p_in, dense), (dim, p_out, dense))
            size_in, size_out = (layout.cells * math.prod(p) for p in (p_in, p_out))
            gather = fastmv._map(layout, None, plan.order_in)
            inverse = fastmv._map(layout, plan.order_out, None)
            np.testing.assert_array_equal(np.sort(gather), np.arange(size_in))
            np.testing.assert_array_equal(np.sort(inverse), np.arange(size_out))
            order_out = fastmv._order(layout, *plan.order_out)
            np.testing.assert_array_equal(inverse[order_out], np.arange(size_out))
            if dense:
                assert sum(rows * width for rows, width, _ in plan.groups) == size_in
            else:
                fibers = sum(c * num_cells(l) for l, c in enumerate(plan.chains.counts))
                assert fibers * p_in[dim] == size_in
            plans.append(plan)
    links = set()
    for plan in plans:
        for nxt in plans:
            if nxt.order_in[1] != plan.order_out[1] or nxt is plan:
                continue
            link = fastmv._map(layout, plan.order_out, nxt.order_in)
            links.add((plan.order_out, nxt.order_in))
            out, into = (fastmv._order(layout, *o) for o in (plan.order_out, nxt.order_in))
            np.testing.assert_array_equal(link, np.argsort(out)[into])  # inverse_out[gather_in]
            np.testing.assert_array_equal(out[link], into)
    # what the warm sweeps read is kept: the gathers and inverses asked for,
    # and the links; nothing else
    gathers = {(None, plan.order_in) for plan in plans}
    assert set(layout.maps) == gathers | {(plan.order_out, None) for plan in plans} | links


@given(st.integers(1, 3), st.integers(0, 2**16), st.sampled_from([2, 6, 24, 512]), st.data())
@settings(max_examples=60, deadline=None)
def test_fiber_orders_equal_the_orders_built_fiber_by_fiber(d, seed, bound, data):
    # the plan's groups and counts come without the index, and any faster
    # `_order` must keep the fiber-by-fiber build's orders; with small dense
    # bounds a dense order holds both groups and cascaded chains
    n = {1: 6, 2: 5, 3: 4}[d]
    layout = fastmv.LevelLayout(tuple(TensorSpace(random_pruning(d, n, seed)).levels))
    p = tuple(data.draw(st.lists(st.integers(1, 3), min_size=d, max_size=d), label="p"))
    with mock.patch.object(fastmv, "DENSE_ENTRIES", bound):
        for dim in range(d):
            for dense in (True, False):
                index, groups, counts = fiber_order(layout, dim, p, dense)
                got = fastmv._order(layout, dim, p, dense)
                assert got.dtype == index.dtype and np.array_equal(got, index)
                assert fastmv._fibers(layout, dim, p, dense)[3:] == (groups, counts)


def _term_orders(top: TensorOperator, p: tuple[int, ...]):
    """(first input order, links, last output order) of each of `top`'s
    terms on fields of polynomial counts p, derived from the factors."""
    for term, dims in zip(top.terms, top.orders):
        orders, q = [], p
        for dim in dims:
            op = term.ops[dim]
            dense = isinstance(op.mat, operators1d.LeadingBlock)
            out = q[:dim] + (op.row.p,) + q[dim + 1 :]
            orders.append(((dim, q, dense), (dim, out, dense)))
            q = out
        links = {(out, nxt) for (_, out), (nxt, _) in zip(orders, orders[1:])}
        yield orders[0][0], links, orders[-1][1]


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
def test_layouts_keep_one_index_map_per_order_and_one_table_per_node_layout(d, n):
    # after two warm applies of a smooth-speed operator the layout holds
    # one gather per distinct first-sweep input order, one inverse per
    # distinct last-sweep output order and one link per distinct pair of
    # consecutive orders; the value and derivative node forms share one
    # index table per `Chains`
    fastmv._layout.cache_clear()  # layouts other tests built hold their maps
    prob = make_problem("smooth-speed", d)
    cfg = SchemeConfig(
        ndim=d, k=2, m=3, variant="interface", n_max=n, sigma=10.0, bc=prob.bc, csq=prob.csq
    )
    wop = WaveOperator(cfg)
    space = TensorSpace(AdaptiveGrid.sparse(d, n))
    u = random_coeffs(space, wop.p_a, 0)
    for _ in range(2):
        wop.apply(space, u)
    firsts, links, lasts = set(), set(), set()
    applied = [(wop._penalty, wop.p_a)]
    for node_op, _, op in wop._terms:
        applied += [(node_op, wop.p_a), (wop._surplus, wop.p_i), (op, wop.p_i)]
    for top, p in applied:
        for first, pairs, last in _term_orders(top, p):
            firsts.add(first)
            links |= pairs
            lasts.add(last)
    maps = set(space.layout.maps)
    assert {into for out, into in maps if out is None} == firsts
    assert {key for key in maps if None not in key} == links
    assert {out for out, into in maps if into is None} == lasts
    layout = space.layout
    ea, eda = (
        assemble_node_values(node_family(3, "interface", n), alpert_family(2, n), deriv).mat
        for deriv in (False, True)
    )
    assert ea.nodes is eda.nodes
    for ch in layout.chains.values():
        names = [build.__name__ for build in ch.tables]
        assert len(names) == len(set(names))  # one table of each kind
        assert all(build.__self__ is ea.nodes for build in ch.tables if build.__name__ != "_gather")
    fastmv._layout.cache_clear()


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
def test_first_apply_builds_each_fiber_order_once(d, n, monkeypatch):
    # the operators of one apply share their fiber orders while they make
    # their maps, then drop them; the layout keeps the maps a warm apply
    # reads, no more
    fastmv._layout.cache_clear()
    builds = collections.Counter()
    build = fastmv._order

    def counted(layout, *key):
        builds[key] += 1
        return build(layout, *key)

    monkeypatch.setattr(fastmv, "_order", counted)
    prob = make_problem("smooth-speed", d)
    cfg = SchemeConfig(
        ndim=d, k=2, m=3, variant="interface", n_max=n, sigma=10.0, bc=prob.bc, csq=prob.csq
    )
    wop = WaveOperator(cfg)
    space = TensorSpace(AdaptiveGrid.sparse(d, n))
    wop.apply(space, random_coeffs(space, wop.p_a, 0))
    assert set(builds.values()) == {1}
    assert not space.layout.orders
    keys = set()
    applied = [(wop._penalty, wop.p_a)]
    for node_op, _, op in wop._terms:
        applied += [(node_op, wop.p_a), (wop._surplus, wop.p_i), (op, wop.p_i)]
    for top, p in applied:
        for first, pairs, last in _term_orders(top, p):
            keys |= {(None, first), (last, None)} | pairs
    assert set(space.layout.maps) == keys
    made = sum(builds.values())
    wop.apply(space, random_coeffs(space, wop.p_a, 1))
    assert sum(builds.values()) == made  # a warm apply builds none
    fastmv._layout.cache_clear()


def test_forced_side_node_forms_keep_their_own_tables():
    # layered-aligned samples both one-sided limits across the planes: the
    # forced sides move the nodes on a breakpoint, so they share no table
    # with the unforced forms
    fastmv._layout.cache_clear()
    n = 3
    prob = make_problem("layered-aligned", 2)
    cfg = SchemeConfig(
        ndim=2, k=2, m=3, variant="interface", n_max=n, sigma=10.0, bc=prob.bc, csq=prob.csq
    )
    wop = WaveOperator(cfg)
    space = TensorSpace(AdaptiveGrid.sparse(2, n))
    wop.apply(space, random_coeffs(space, wop.p_a, 0))
    nd, a = node_family(3, "interface", n), alpert_family(2, n)
    ea, minus, plus = (assemble_node_values(nd, a, False, s).mat.nodes for s in (0, -1, 1))
    assert len({id(ea), id(minus), id(plus)}) == 3
    owners = [b.__self__ for ch in space.layout.chains.values() for b in ch.tables]
    for nodes in (ea, minus, plus):  # each cascaded on its own tables
        assert any(owner is nodes for owner in owners)
    fastmv._layout.cache_clear()


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


def test_adaptive_run_holds_blocks_only_as_deep_as_its_grid(monkeypatch):
    # n_max 10, but the grid stops at level 5: the dense block of the one
    # boundary pair covers levels 0..5, (4 2^5)^2 doubles, not 4096^2
    levels, wops = set(), []

    class CountedSpace(TensorSpace):
        def __init__(self, grid):
            super().__init__(grid)
            levels.update(self.levels)

    class CountedOperator(WaveOperator):
        def __init__(self, cfg):
            super().__init__(cfg)
            wops.append(self)

    monkeypatch.setattr(runner, "TensorSpace", CountedSpace)
    monkeypatch.setattr(runner, "WaveOperator", CountedOperator)
    operators1d.assemble_ipdg.cache_clear()  # no block another test grew
    cfg = RunConfig.from_mapping(
        {
            "problem": "cosine-periodic",
            "ndim": 2,
            "k": 3,
            "m": 4,
            "n": 10,
            "mode": "adaptive",
            "eps": 1e-4,
            "t_final": 0.005,
        }
    )
    runner.run(cfg)
    top = max(max(lv) for lv in levels)
    ops = [op for wop in wops for term in wop._op_const.terms for op in term.ops if op is not None]
    blocks = {id(op.mat): op.mat.block for op in ops}
    assert top == 5 and len(blocks) == 1
    assert [block.shape for block in blocks.values()] == [(4 << top, 4 << top)]


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
