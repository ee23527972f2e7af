"""Hierarchical 1D operator assembly against brute-force references.

The brute path evaluates basis functions pointwise (`alpert_hier` and
`interp_hier` in conftest), re-expands them per finest cell in orthonormal
Legendre coefficients, and integrates with Gauss quadrature, one function
at a time; the assembly code evaluates a whole level per point instead
(`level_values`; the interpolatory family's point and node values come from
conftest, as the solver evaluates Alpert families only).
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrdg import fastmv, pyramid
from mrdg.alpert import Quadrature1D, legendre_values
from mrdg.fastmv import TensorOperator
from mrdg.interp import make_interp_basis
from mrdg.ipdg import SchemeConfig, WaveOperator
from mrdg.operators1d import (
    LeadingBlock,
    Operator1D,
    _cellwise,
    _probed,
    alpert_family,
    assemble_ipdg,
    assemble_mass,
    assemble_node_to_surplus,
    assemble_node_values,
    assemble_trace,
    assemble_volume_derivative,
    boundary_vectors,
    interp_family,
    level_values,
    lu_split,
    node_family,
)
from mrdg.problems import make_problem
from mrdg.pyramid import Chains, GalerkinForm, NodeForm, SurplusStencil

from conftest import (
    alpert_values_brute,
    assemble_stiffness,
    dense,
    fine_matrix,
    gram_oracle,
    interp_values_brute,
    lower_mask,
    mapped,
    node_values,
    point_values,
    probed_by_level,
    trace_oracle,
    variable_speed_factors,
)

BRUTE_TOL = 1e-10


def fine_legendre_coeffs(values_at, ndof, n, pf):
    """Per-finest-cell orthonormal Legendre coefficients of each function."""
    q = Quadrature1D.gauss(pf + 2)
    ncf = 1 << n
    coef = np.zeros((ndof, ncf, pf + 1))
    for c in range(ncf):
        x, w = mapped(q, c / ncf, (c + 1) / ncf)
        vals = values_at(x)
        lv = np.sqrt(ncf) * legendre_values(pf, x * ncf - c)
        coef[:, c, :] = (vals * w) @ lv
    return coef


def derivative_values(coef, n, pf, xi, cell):
    """One-cell derivative values at local coordinates xi from `coef`."""
    ncf = 1 << n
    return coef[:, cell, :] @ (ncf**1.5 * legendre_values(pf, np.atleast_1d(xi), deriv=True)).T


def one_sided(coef, n, pf, face, side, deriv=False):
    """Value or derivative limit at finest face index `face` from `side`."""
    ncf = 1 << n
    cell = face - 1 if side < 0 else face
    cell = min(max(cell, 0), ncf - 1)
    xi = np.array([1.0 if side < 0 else 0.0])
    scale = ncf**1.5 if deriv else ncf**0.5
    return (coef[:, cell, :] @ (scale * legendre_values(pf, xi, deriv)).T)[:, 0]


PADDED_FAMILIES = [alpert_family(k, 3) for k in range(4)] + [
    interp_family(m, variant, 3) for m in range(1, 6) for variant in ("interface", "inner")
]


@pytest.mark.parametrize("fam", PADDED_FAMILIES, ids=lambda f: f"{f.kind}{f.degree}{f.variant}")
def test_fine_matrix_padding_is_exact_zero(fam):
    # a degree-p piece has no Legendre coefficients above p: exact zeros,
    # not refinement roundoff, and the rest is the unpadded matrix
    ncf, p = 1 << fam.n, fam.p
    own = fine_matrix(fam, fam.degree).reshape(ncf, p, fam.ndof)
    for pf in range(fam.degree + 1, 7):
        q = fine_matrix(fam, pf).reshape(ncf, pf + 1, fam.ndof)
        assert not q[:, p:].any()
        assert np.array_equal(q[:, :p], own)


# ---------------------------------------------------------------------------
# volume operators


def test_alpert_mass_is_identity():
    # the Alpert family is orthonormal
    op = assemble_mass(alpert_family(2, 3), alpert_family(2, 3))
    np.testing.assert_allclose(dense(op), np.eye(op.row.ndof), atol=1e-12)


@pytest.mark.parametrize("variant", ["interface", "inner"])
def test_cross_mass_matches_quadrature(variant):
    k, m, n = 2, 3, 3
    arow = alpert_family(k, n)
    icol = interp_family(m, variant, n)
    op = assemble_mass(arow, icol)
    q = Quadrature1D.gauss(k + m + 2)
    ncf = 1 << n
    ref = np.zeros((arow.ndof, icol.ndof))
    for c in range(ncf):
        x, w = mapped(q, c / ncf, (c + 1) / ncf)
        av = alpert_values_brute(k, n, x)
        iv = interp_values_brute(m, variant, n, x)
        ref += (av * w) @ iv.T
    np.testing.assert_allclose(dense(op), ref, atol=BRUTE_TOL)


def test_stiffness_matches_quadrature():
    k, n = 2, 3
    fam = alpert_family(k, n)
    op = assemble_stiffness(fam, fam)
    coef = fine_legendre_coeffs(lambda x: alpert_values_brute(k, n, x), fam.ndof, n, k)
    q = Quadrature1D.gauss(k + 2)
    ncf = 1 << n
    ref = np.zeros((fam.ndof, fam.ndof))
    for c in range(ncf):
        dv = derivative_values(coef, n, k, q.nodes, c)
        ref += (dv * (q.weights / ncf)) @ dv.T
    np.testing.assert_allclose(dense(op), ref, atol=BRUTE_TOL)


def test_volume_derivative_matches_quadrature():
    # entries pair the column values against the differentiated row family
    k, m, n = 1, 2, 3
    arow = alpert_family(k, n)
    icol = interp_family(m, "interface", n)
    pf = max(k, m)
    op = assemble_volume_derivative(arow, icol)
    acoef = fine_legendre_coeffs(
        lambda x: alpert_values_brute(k, n, x), arow.ndof, n, pf
    )
    q = Quadrature1D.gauss(pf + 2)
    ncf = 1 << n
    ref = np.zeros((arow.ndof, icol.ndof))
    for c in range(ncf):
        x, w = mapped(q, c / ncf, (c + 1) / ncf)
        da = derivative_values(acoef, n, pf, q.nodes, c)
        iv = interp_values_brute(m, "interface", n, x)
        ref += (da * w) @ iv.T
    np.testing.assert_allclose(dense(op), ref, atol=BRUTE_TOL)


# ---------------------------------------------------------------------------
# face operators


KINDS = ("jump", "avg", "dminus", "dplus", "davg")
WALL_BCS = [
    ("dirichlet", "dirichlet"),
    ("neumann", "neumann"),
    ("dirichlet", "neumann"),
    ("neumann", "dirichlet"),
]


def brute_values(fam):
    """Pointwise evaluator of every function of an Alpert or interp family."""
    if fam.kind == "alpert":
        return lambda x: alpert_values_brute(fam.degree, fam.n, x)
    return lambda x: interp_values_brute(fam.degree, fam.variant, fam.n, x)


def brute_faces(n, bc):
    """(minus, plus) finest face indices of every face; None marks the
    missing side of a Dirichlet wall, and neumann walls hold no face."""
    ncf = 1 << n
    faces = [(f, f) for f in range(1, ncf)]
    if bc[0] == "periodic":
        return faces + [(ncf, 0)]  # the wrap face pairs x=1 with x=0
    if bc[0] == "dirichlet":
        faces.append((None, 0))
    if bc[1] == "dirichlet":
        faces.append((ncf, None))
    return faces


def brute_face_vectors(fam, kind, faces):
    """Row per face: the trace `kind` of every function of `fam`."""
    n, pf = fam.n, fam.degree
    coef = fine_legendre_coeffs(brute_values(fam), fam.ndof, n, pf)
    deriv = kind not in ("jump", "avg")
    rows = []
    for fm, fp in faces:
        minus = None if fm is None else one_sided(coef, n, pf, fm, -1, deriv)
        plus = None if fp is None else one_sided(coef, n, pf, fp, +1, deriv)
        if kind == "jump":
            # [q] = q(minus side) - q(plus side); on a wall this is q n
            rows.append((0 if minus is None else minus) - (0 if plus is None else plus))
        elif minus is None or plus is None:
            rows.append(plus if minus is None else minus)  # the only side there is
        elif kind == "dminus":
            rows.append(minus)
        elif kind == "dplus":
            rows.append(plus)
        else:
            rows.append(0.5 * (minus + plus))
    return np.array(rows)


def brute_trace(row, col, row_kind, col_kind, bc):
    faces = brute_faces(row.n, bc)
    r_row = brute_face_vectors(row, row_kind, faces)
    return r_row.T @ brute_face_vectors(col, col_kind, faces)


@pytest.mark.parametrize("row_kind,col_kind", [("jump", "jump"), ("jump", "davg"), ("avg", "jump")])
def test_periodic_trace_matches_face_sums(row_kind, col_kind):
    fam = alpert_family(2, 3)
    bc = ("periodic", "periodic")
    op = assemble_trace(fam, fam, row_kind, col_kind, bc)
    ref = brute_trace(fam, fam, row_kind, col_kind, bc)
    np.testing.assert_allclose(dense(op), ref, atol=BRUTE_TOL)


@pytest.mark.parametrize("bc", WALL_BCS, ids="-".join)
@pytest.mark.parametrize("row_kind", KINDS)
def test_wall_trace_matches_face_sums(row_kind, bc):
    # every column kind, against an Alpert and an interpolatory trial family;
    # every face term of the scheme pairs a jump, and a pair without one is
    # refused
    arow = alpert_family(2, 3)
    for col in (arow, interp_family(3, "interface", 3)):
        for col_kind in KINDS:
            if "jump" not in (row_kind, col_kind):
                with pytest.raises(ValueError, match="no jump"):
                    assemble_trace(arow, col, row_kind, col_kind, bc)
                continue
            op = assemble_trace(arow, col, row_kind, col_kind, bc)
            ref = brute_trace(arow, col, row_kind, col_kind, bc)
            # derivative pairs reach 1e5 at n=3, so the bound scales with them
            atol = BRUTE_TOL * max(1.0, np.abs(ref).max())
            np.testing.assert_allclose(dense(op), ref, rtol=0, atol=atol, err_msg=col_kind)


def test_half_traces_sum_to_average():
    # the two one-sided derivative traces recombine into the centered average
    arow = alpert_family(2, 3)
    icol = interp_family(3, "interface", 3)
    bc = ("periodic", "periodic")
    minus = assemble_trace(arow, icol, "dminus", "jump", bc, half=True)
    plus = assemble_trace(arow, icol, "dplus", "jump", bc, half=True)
    davg = assemble_trace(arow, icol, "davg", "jump", bc)
    np.testing.assert_allclose(dense(minus) + dense(plus), dense(davg), atol=1e-12)


@pytest.mark.parametrize(
    "bc,expected",
    [
        (("dirichlet", "dirichlet"), [1.0, 4.0, 9.0]),
        (("neumann", "neumann"), [0.0, 1.0, 4.0]),
        (("periodic", "periodic"), [0.0, 4.0, 4.0, 16.0, 16.0]),
    ],
)
def test_operator_spectrum_matches_laplacian(bc, expected):
    # the assembled scheme matrix discretizes -d/dx(d/dx) with the stated
    # boundary conditions; its low eigenvalues approximate pi^2 multiples
    k, n, sigma = 2, 4, 10.0
    fam = alpert_family(k, n)
    s = dense(assemble_stiffness(fam, fam))
    t = dense(assemble_trace(fam, fam, "jump", "davg", bc))
    j = dense(assemble_trace(fam, fam, "jump", "jump", bc))
    mat = s - t - t.T + (sigma * (1 << n)) * j
    eigs = np.sort(np.linalg.eigvalsh(mat))
    ref = np.pi**2 * np.asarray(expected)
    scale = np.maximum(ref, 1.0)
    assert np.max(np.abs(eigs[: len(ref)] - ref) / scale) < 2e-3


# ---------------------------------------------------------------------------
# node-evaluation operators


@pytest.mark.parametrize("deriv", [False, True])
def test_node_values_match_pointwise_evaluation(deriv):
    k, m, n = 2, 3, 3
    nd = node_family(m, "interface", n)
    acol = alpert_family(k, n)
    op = assemble_node_values(nd, acol, deriv=deriv)
    basis = make_interp_basis(m, "interface")
    pf = max(k, m)
    coef = fine_legendre_coeffs(lambda x: alpert_values_brute(k, n, x), acol.ndof, n, pf)
    ncf = 1 << n
    for a, (x, s) in enumerate(zip(*basis.all_nodes(n))):
        t = x * ncf
        if t == int(t):
            vals = one_sided(coef, n, pf, int(t), s, deriv)
        else:
            cell = int(t)
            xi = t - cell
            if deriv:
                vals = derivative_values(coef, n, pf, xi, cell)[:, 0]
            else:
                vals = (coef[:, cell, :] @ (ncf**0.5 * legendre_values(pf, np.array([xi]))).T)[:, 0]
        np.testing.assert_allclose(dense(op)[a], vals, atol=BRUTE_TOL)


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_point_values_breakpoint_convention(side):
    # at interior dyadic points a negative side takes the left limit and any
    # other side the right one; the Alpert oracle jumps there at every level
    k, n = 2, 3
    x = np.arange(1, 8) / 8
    got = point_values(alpert_family(k, n), x, np.full(7, side))
    want = alpert_values_brute(k, n, x, side=-1 if side < 0 else 1).T
    np.testing.assert_allclose(got, want, atol=BRUTE_TOL)
    other = alpert_values_brute(k, n, x, side=1 if side < 0 else -1).T
    assert np.all(np.abs(got - other).max(axis=1) > 0.1)


def test_solver_point_and_node_values_refuse_an_interpolatory_family():
    # the solver evaluates Alpert families only; the interpolatory family's
    # point and node values are conftest oracles
    fam = interp_family(2, "interface", 3)
    with pytest.raises(ValueError, match="Alpert"):
        level_values(fam, 1, np.array([0.3]))
    with pytest.raises(ValueError, match="Alpert"):
        assemble_node_values(node_family(2, "interface", 3), fam)


def test_interp_node_system_is_unit_lower():
    m, n = 3, 3
    nd = node_family(m, "inner", n)
    fam = interp_family(m, "inner", n)
    low, up = lu_split(node_values(nd, fam))
    np.testing.assert_allclose(np.diag(dense(low)), 1.0, atol=1e-12)
    assert np.max(np.abs(np.triu(dense(low), 1))) < 1e-12
    assert np.max(np.abs(dense(up))) < 1e-12  # roundoff of the delta property
    inv = assemble_node_to_surplus(nd)
    np.testing.assert_allclose(dense(inv) @ dense(low), np.eye(fam.ndof), atol=1e-10)


def test_forced_side_sampling_flips_interior_nodes_only():
    m, n = 2, 2
    nd = node_family(m, "interface", n)
    acol = alpert_family(1, n)
    plus = assemble_node_values(nd, acol, force_side=+1)
    minus = assemble_node_values(nd, acol, force_side=-1)
    basis = make_interp_basis(m, "interface")
    nodes, _ = basis.all_nodes(n)
    ncf = 1 << n
    dyadic_interior = [
        a for a, x in enumerate(nodes) if 0 < x < 1 and (x * ncf) == int(x * ncf)
    ]
    smooth = [a for a in range(len(nodes)) if a not in dyadic_interior]
    plus, minus = dense(plus), dense(minus)
    # at points where the basis is continuous both samplings agree
    np.testing.assert_allclose(plus[smooth], minus[smooth], atol=1e-12)
    assert np.max(np.abs(plus[dyadic_interior] - minus[dyadic_interior])) > 0.1


# ---------------------------------------------------------------------------
# level-wise point values, pyramid storage and the exact surplus map


POINT_FAMILIES = [alpert_family(k, 5) for k in range(5)] + [
    interp_family(m, variant, 5) for m in range(1, 6) for variant in ("interface", "inner")
]


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("fam", POINT_FAMILIES, ids=lambda f: f"{f.kind}{f.degree}{f.variant}")
def test_point_values_match_direct_mother_evaluation(fam, side):
    # random points and every interior breakpoint, against each function
    # evaluated on its own from the mother table (conftest)
    x = np.concatenate([np.random.default_rng(3).random(40), np.arange(1, 32) / 32])
    got = point_values(fam, x, side)
    if fam.kind == "alpert":
        want = alpert_values_brute(fam.degree, fam.n, x, side).T
    else:
        want = interp_values_brute(fam.degree, fam.variant, fam.n, x, side).T
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("deriv", [False, True])
@pytest.mark.parametrize("fam", [alpert_family(2, 5), interp_family(3, "interface", 5)])
def test_limits_inside_a_level_half_agree_bit_for_bit(fam, deriv):
    # so the jump of a function smooth across a face is an exact zero
    x = np.arange(1, 32) / 32
    left = point_values(fam, x, -1, deriv)
    right = point_values(fam, x, 1, deriv)
    for level in range(fam.n + 1):
        inside = (x * (1 << level)) % 1 != 0  # not a breakpoint of this level
        sl = fam.level_slice(level)
        assert np.array_equal(left[inside, sl], right[inside, sl])
        if level:  # the level's own breakpoints do jump
            assert not np.array_equal(left[~inside, sl], right[~inside, sl])


@pytest.mark.parametrize("bc", [("periodic", "periodic"), ("dirichlet", "neumann")], ids="-".join)
def test_sparse_assembly_matches_dense(bc):
    # every variable-speed factor is a pyramid form that both lu_split halves
    # share, and they equal the dense oracle and its level-triangular parts
    for got, want in variable_speed_factors(4, bc):
        assert isinstance(got.mat, (GalerkinForm, NodeForm)) and got.tag == "general"
        atol = 1e-13 * np.abs(want).max()
        np.testing.assert_allclose(dense(got), want, rtol=0, atol=atol)
        low = lower_mask(got.row, got.col)
        for part, whole in zip(lu_split(got), (np.where(low, want, 0.0), np.where(low, 0.0, want))):
            assert part.mat is got.mat
            np.testing.assert_allclose(dense(part), whole, rtol=0, atol=atol)


@pytest.mark.parametrize("bc", [("periodic", "periodic"), ("dirichlet", "neumann")])
@pytest.mark.parametrize("fibers", [3, 0])
def test_root_only_fibers_cascade_like_the_level_0_block(bc, fibers):
    # fibers that all stop at level 0, as in a sweep over a dimension whose
    # level set holds only the root: no level links (the strictly-upper
    # half is exactly zero), no cells above level 0 for the surplus stencil
    # to gather, and with no fibers at all no chains for the faces.  Every
    # factor kind and half maps them by the level-0 block of its oracle,
    # into a float buffer.
    rng = np.random.default_rng(7)
    nodes = node_family(3, "interface", 3)
    surplus = assemble_node_to_surplus(nodes)
    cases = [(surplus, dense(surplus))]
    for op, want in variable_speed_factors(3, bc):
        low = lower_mask(op.row, op.col)
        cases += zip(lu_split(op), (np.where(low, want, 0.0), np.where(low, 0.0, want)))
        cases.append((op, want))
    for op, want in cases:
        block = want[op.row.level_slice(0), op.col.level_slice(0)]
        x = rng.standard_normal((fibers, op.col.p))
        y = op.mat.cascade(op.tag, x.ravel(), Chains((fibers,)))
        assert y.dtype == np.float64 and y.shape == (fibers * op.row.p,)
        np.testing.assert_allclose(y.reshape(fibers, op.row.p), x @ block.T, rtol=0, atol=1e-13)


ORACLE_BCS = [("periodic", "periodic")] + [
    (left, right) for left in ("dirichlet", "neumann") for right in ("dirichlet", "neumann")
]


@st.composite
def family_pairs(draw):
    """An Alpert test family against itself (A x A) or against an
    interpolatory trial family of the same level (A x I)."""
    n = draw(st.integers(0, 6))
    row = alpert_family(draw(st.integers(0, 4)), n)
    if draw(st.booleans()):
        return row, row
    return row, interp_family(draw(st.integers(1, 5)), draw(st.sampled_from(["interface", "inner"])), n)


def assert_matches_oracle(got, want, scale):
    # 1e-13 of the largest sum of absolute terms, not of the largest entry:
    # an entry that is zero in exact arithmetic is roundoff in both forms
    # (k = 0, n = 1, jump x davg against m = 1 holds only 1e-31 values), and
    # an oracle with no terms needs exact zeros
    assert np.abs(got - want).max() <= 1e-13 * scale.max()


@given(family_pairs(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_volume_assembly_matches_dense_products(pair, drow, dcol):
    row, col = pair
    op = _cellwise(row, col, drow, dcol)
    assert isinstance(op.mat, GalerkinForm)
    want = gram_oracle(row, col, drow, dcol)
    assert_matches_oracle(dense(op), want, gram_oracle(row, col, drow, dcol, absolute=True))


# the face pairs of the scheme's kind: each holds a jump
JUMP_PAIRS = [(row, col) for row in KINDS for col in KINDS if "jump" in (row, col)]


@given(family_pairs(), st.sampled_from(JUMP_PAIRS), st.sampled_from(ORACLE_BCS), st.booleans())
@settings(max_examples=120, deadline=None)
def test_trace_assembly_matches_dense_products(pair, kinds, bc, half):
    row, col = pair
    row_kind, col_kind = kinds
    op = assemble_trace(row, col, row_kind, col_kind, bc, half)
    assert isinstance(op.mat, GalerkinForm)
    want = trace_oracle(row, col, row_kind, col_kind, bc, half)
    scale = trace_oracle(row, col, row_kind, col_kind, bc, half, absolute=True)
    assert_matches_oracle(dense(op), want, scale)


@given(st.integers(0, 10), st.integers(0, 7), st.sampled_from(ORACLE_BCS))
@settings(max_examples=40, deadline=None)
@example(1, 8, ("periodic", "periodic"))  # the workloads' shapes: 4 colours, many cells
@example(3, 8, ("periodic", "periodic"))
@example(2, 5, ("dirichlet", "neumann"))  # walls with >= 4 cells per level
@example(10, 3, ("dirichlet", "dirichlet"))  # the top degree
# the float64 point-value oracle sat 1.1-1.3e-13 of the scale off here
@example(7, 7, ("periodic", "periodic"))
@example(10, 6, ("dirichlet", "neumann"))
def test_ipdg_matrix_matches_dense_products(k, n, bc):
    fam = alpert_family(k, n)
    c2, penalty = 0.7, 10.0 * (1 << n)
    s = gram_oracle(fam, fam, True, True)
    t = trace_oracle(fam, fam, "jump", "davg", bc)
    want = c2 * (s - t - t.T) + penalty * trace_oracle(fam, fam, "jump", "jump", bc)
    s = gram_oracle(fam, fam, True, True, absolute=True)
    t = trace_oracle(fam, fam, "jump", "davg", bc, absolute=True)
    scale = c2 * (s + t + t.T) + penalty * trace_oracle(fam, fam, "jump", "jump", bc, absolute=True)
    op = assemble_ipdg(fam, bc, c2, penalty)
    assert isinstance(op.mat, LeadingBlock) and op.tag == "general"
    mat = _probed(op.mat.form, n)  # the whole matrix
    assert_matches_oracle(mat, want, scale)
    for level in range(n):  # the blocks off the diagonal mirror exactly
        rows = fam.level_slice(level)
        assert np.array_equal(mat[rows, rows.stop :], mat[rows.stop :, rows].T)


@st.composite
def probe_shapes(draw):
    """A degree k, and a depth whose leading block a dense sweep may use."""
    k = draw(st.integers(0, 10))
    depth = draw(st.integers(0, (fastmv.DENSE_ENTRIES // (k + 1)).bit_length() - 1))
    return k, depth


@given(probe_shapes(), st.sampled_from(ORACLE_BCS))
@settings(max_examples=60, deadline=None)
@example((1, 8), ("periodic", "periodic"))  # const2d
@example((2, 7), ("periodic", "periodic"))
@example((0, 1), ("dirichlet", "dirichlet"))  # batched probes change these
@example((8, 5), ("neumann", "dirichlet"))
@example((10, 5), ("dirichlet", "neumann"))
def test_probed_block_equals_the_block_probed_level_by_level(shape, bc):
    # the whole-array scatter writes what the per-level scatter wrote, bit
    # for bit, from the same cascades
    k, depth = shape
    form = assemble_ipdg(alpert_family(k, depth), bc, 0.7, 10.0 * (1 << depth)).mat.form
    assert np.array_equal(_probed(form, depth), probed_by_level(form, depth))


def test_probing_drops_the_cascade_work_arrays():
    # the probe's cascade buffers do not outlive it; the sweeps that cascade
    # the long fibers size their own
    fam = alpert_family(1, 5)
    form = assemble_trace(fam, fam, "jump", "jump", ("periodic", "periodic")).mat
    assert _probed(form, fam.n).shape == form.shape
    assert not vars(pyramid._WORK)


@pytest.mark.parametrize(
    "k,n,depth", [(3, 8, 5), (1, 8, 4), (2, 6, 3), (2, 6, 0)]
)
@pytest.mark.parametrize(
    "bc", [("periodic", "periodic"), ("dirichlet", "dirichlet"), ("dirichlet", "neumann")]
)
def test_leading_block_does_not_depend_on_the_probe_depth(k, n, depth, bc):
    # a lower cascade's level-b outputs read levels <= b only, so a block
    # probed to a shallower depth is the leading block of the whole matrix,
    # bit for bit: growing it changes no entry a sweep has used
    form = assemble_ipdg(alpert_family(k, n), bc, 0.7, 10.0 * (1 << n)).mat.form
    block, whole = _probed(form, depth), _probed(form, n)
    size = form.row.level_offset(depth + 1)
    assert block.shape == (size, size)
    assert np.array_equal(block, whole[:size, :size])


@pytest.mark.parametrize("problem,ndim", [("cosine-periodic", 3), ("cosine-mixed", 2)])
def test_constant_speed_dimensions_share_one_matrix_per_bc_pair(problem, ndim):
    prob = make_problem(problem, ndim)
    wop = WaveOperator(
        SchemeConfig(
            ndim=ndim, k=2, m=3, variant="interface", n_max=4, sigma=10.0,
            bc=prob.bc, csq=prob.csq,
        )
    )
    ops = [term.ops[m] for m, term in enumerate(wop._op_const.terms)]
    assert len(ops) == ndim
    for m, op in enumerate(ops):
        same = [other is op for other in ops]
        assert same == [bc == prob.bc[m] for bc in prob.bc]


def test_sparse_lu_split_reconstructs_exactly():
    # a general cascade is its two halves summed, so every split adds up
    # to its operator bit for bit: traces, and node values and derivatives
    # of both variants, with and without forced sides
    a, i = alpert_family(2, 4), interp_family(3, "interface", 4)
    ops = [assemble_trace(a, i, "davg", "jump", ("periodic", "periodic"))]
    for variant in ("interface", "inner"):
        nd = node_family(3, variant, 4)
        kinds = itertools.product((False, True), (0, -1, 1))  # deriv, forced side
        ops += [assemble_node_values(nd, a, deriv, side) for deriv, side in kinds]
    for op in ops:
        low, up = lu_split(op)
        assert np.array_equal(dense(low) + dense(up), dense(op))
        assert np.array_equal(dense(low), np.where(lower_mask(op.row, op.col), dense(op), 0.0))


@given(st.integers(1, 5), st.sampled_from(["interface", "inner"]), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_node_to_surplus_is_the_exact_local_inverse(m, variant, n):
    nd, fam = node_family(m, variant, n), interp_family(m, variant, n)
    x_op = assemble_node_to_surplus(nd)
    assert x_op.tag == "lower" and isinstance(x_op.mat, SurplusStencil)
    # one entry per level-0 row, m + 2 per row above: the node and the m + 1
    # coarser nodes of its cell.  A fresh node at the position of a coarser
    # node, as its other one-sided limit (interface nodes, even m), keeps
    # the two entries e_node - e_coarse: its other Lagrange weights are 0.
    x = dense(x_op)
    per_row = np.count_nonzero(x, axis=1)
    basis = make_interp_basis(m, variant)
    base = {x for x, _ in basis.base_nodes}
    stencil = [2 if x in base else m + 2 for x, _ in basis.fresh_nodes]
    assert (per_row[: fam.p] == 1).all()
    assert (per_row[fam.p :].reshape(-1, fam.p) == stencil).all()
    # exact up to the roundoff of E itself; the inner nodes of high m make
    # E ill-conditioned, so the bound scales with the two norms
    e = dense(lu_split(node_values(nd, fam))[0])
    nx, ne = np.abs(x).sum(axis=1).max(), np.abs(e).sum(axis=1).max()
    tol = 1e-12 * nx * ne
    assert np.abs(x @ e - np.eye(fam.ndof)).max() <= tol
    assert np.abs(x - np.linalg.inv(e)).max() <= tol * nx


# ---------------------------------------------------------------------------
# endpoints, splits, metadata


def test_boundary_vectors_match_one_sided_limits():
    k, n = 2, 3
    fam = alpert_family(k, n)
    coef = fine_legendre_coeffs(lambda x: alpert_values_brute(k, n, x), fam.ndof, n, k)
    ncf = 1 << n
    for side, face, s in [(0, 0, +1), (1, ncf, -1)]:
        val, der = boundary_vectors(fam, side)
        np.testing.assert_allclose(val, one_sided(coef, n, k, face, s), atol=BRUTE_TOL)
        np.testing.assert_allclose(
            der, one_sided(coef, n, k, face, s, deriv=True), atol=BRUTE_TOL
        )


def level_block(op, b, a):
    return dense(op)[op.row.level_slice(b), op.col.level_slice(a)]


def test_lu_split_reconstructs_and_tags():
    fam = alpert_family(2, 3)
    op = assemble_stiffness(fam, fam)
    low, up = lu_split(op)
    np.testing.assert_allclose(dense(low) + dense(up), dense(op), atol=0)
    assert (low.tag, up.tag) == ("lower", "strictly-upper")
    for a in range(4):
        for b in range(4):
            if b < a:
                assert not level_block(low, b, a).any()
            if b >= a:
                assert not level_block(up, b, a).any()


# level pairs (out b, in a) whose block each tag declares zero
OUTSIDE_TAG = {
    "lower": lambda b, a: b < a,
    "strictly-upper": lambda b, a: b >= a,
    "general": lambda b, a: False,
}


def held_operators(obj):
    """Every Operator1D in the (expanded) terms of the TensorOperators an
    object holds, searching lists and tuples."""
    if isinstance(obj, TensorOperator):
        return [op for t in obj.terms for op in t.ops if op is not None]
    if isinstance(obj, (list, tuple)):
        return [op for item in obj for op in held_operators(item)]
    return []


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("problem", ["cosine-periodic", "smooth-speed", "layered-aligned"])
def test_wave_operator_blocks_outside_tags_are_zero(problem, ndim):
    # the fiber sweep multiplies whole matrix blocks, so a tag must be an
    # exact fact about the stored matrix, not a roundoff-level one
    prob = make_problem(problem, ndim)
    wop = WaveOperator(
        SchemeConfig(
            ndim=ndim, k=2, m=3, variant="interface", n_max=4, sigma=10.0,
            bc=prob.bc, csq=prob.csq,
        )
    )
    ops = held_operators(list(vars(wop).values()))
    tags = {op.tag for op in ops}
    if problem == "cosine-periodic":
        assert tags == {"general"}
    else:  # node-to-surplus factors and lu_split halves
        assert tags == {"general", "lower", "strictly-upper"}
    for op in ops:
        # a dense leading block for constant speed only, a pyramid form for
        # every variable-speed factor
        assert isinstance(op.mat, LeadingBlock) == prob.csq.is_constant
        for a in range(op.col.n + 1):
            for b in range(op.row.n + 1):
                if OUTSIDE_TAG[op.tag](b, a):
                    assert not level_block(op, b, a).any(), (op.tag, b, a)


def test_unknown_tag_rejected():
    fam = alpert_family(1, 2)
    with pytest.raises(ValueError):
        Operator1D(np.eye(fam.ndof), fam, fam, "sideways")


def test_family_spec_layout():
    fam = alpert_family(2, 3)
    assert fam.p == 3 and fam.ndof == 3 * 8
    assert fam.level_slice(0) == slice(0, 3)
    assert fam.level_slice(3) == slice(12, 24)
    nd = node_family(3, "inner", 2)
    assert nd.ndof == 4 * 4
