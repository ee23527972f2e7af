"""Tensor-space containers and the dimension-sweep operator apply.

The core check: applying Kronecker-factor operators through ordered level
sweeps on a downward-closed active set must equal the dense restricted
matrix.  `dense_from_terms` assembles that matrix from raw operator entries
without consulting tags, sweep order, or the L+U expansion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mrdg.operators1d import (
    Operator1D,
    alpert_family,
    assemble_mass,
    assemble_node_values,
    assemble_stiffness,
    assemble_trace,
    interp_family,
    lu_split,
    node_family,
)

from conftest import (
    alpert_point_matrix,
    alpert_values_brute,
    dense_from_terms,
    dense_lattice_values,
    flatten,
    random_coeffs,
    random_pruning,
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
    T = assemble_trace(A, A, "jump", "davg", bc)
    J = assemble_trace(A, A, "jump", "jump", bc)
    C = assemble_mass(A, I)
    EA = assemble_node_values(Nd, A)
    E = assemble_node_values(Nd, I)
    wave = Operator1D(S.mat - T.mat - T.mat.T + 20.0 * J.mat, A, A, "general")

    menu = []
    # constant-coefficient scheme shape: one pivot per dimension, rest identity
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
    # an input without some levels (gaps inside a fiber included) must act
    # as if those levels held zeros
    n = {1: 5, 2: 4, 3: 3}[d]
    space = TensorSpace(random_pruning(d, n, seed))
    oname, terms = data.draw(st.sampled_from(operator_menu(d, k, n)))
    p_in = tuple(op.col.p if op is not None else k + 1 for op in terms[0].ops)
    x = random_coeffs(space, p_in, seed)
    for lv in data.draw(st.sets(st.sampled_from(space.levels))):
        del x.data[lv]
    got = flatten(space, TensorOperator(terms).apply(space, x))
    want = dense_from_terms(terms, space, p_in) @ flatten(space, x)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) / scale < ORACLE_TOL, oname


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


@given(
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 5),
    st.integers(0, 2**16),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_eval_on_lattice_equals_dense_oracle(d, k, n, seed, data):
    space = TensorSpace(random_pruning(d, n, seed))
    u = random_coeffs(space, (k + 1,) * d, seed + 1)
    drop = data.draw(st.sets(st.sampled_from(space.levels)), label="dropped")
    for lv in drop:
        del u.data[lv]
    kinds = (
        "midpoints",
        "slab",
        "descending",
        "repeated",
        "jittered",
        "odd",
        "single",
        "breakpoints",
    )
    axes = [
        _lattice_axis(data.draw, data.draw(st.sampled_from(kinds), label="kind"), n, d)
        for _ in range(d)
    ]
    got = eval_on_lattice(space, u, k, n, axes)
    want = dense_lattice_values(u, k, n, axes)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
