"""Hierarchical 1D operator assembly against brute-force references.

The brute path evaluates basis functions pointwise (`alpert_hier` and
`interp_hier` in conftest), re-expands them per finest cell in orthonormal
Legendre coefficients, and integrates with Gauss quadrature — sidestepping
the two-scale refinement (`fine_matrix`) that the assembly code builds on.
"""

import numpy as np
import pytest

from mrdg.alpert import Quadrature1D, legendre_derivs, legendre_values
from mrdg.fastmv import TensorOperator
from mrdg.interp import make_interp_basis
from mrdg.ipdg import SchemeConfig, WaveOperator
from mrdg.operators1d import (
    Operator1D,
    alpert_family,
    assemble_mass,
    assemble_node_to_surplus,
    assemble_node_values,
    assemble_stiffness,
    assemble_trace,
    assemble_volume_derivative,
    boundary_vectors,
    fine_matrix,
    interp_family,
    lu_split,
    node_family,
    point_values,
)
from mrdg.problems import make_problem

from conftest import alpert_values_brute, interp_values_brute

BRUTE_TOL = 1e-10


def fine_legendre_coeffs(values_at, ndof, n, pf):
    """Per-finest-cell orthonormal Legendre coefficients of each function."""
    q = Quadrature1D.gauss(pf + 2)
    ncf = 1 << n
    coef = np.zeros((ndof, ncf, pf + 1))
    for c in range(ncf):
        x, w = q.mapped(c / ncf, (c + 1) / ncf)
        vals = values_at(x)
        lv = np.sqrt(ncf) * legendre_values(pf, x * ncf - c)
        coef[:, c, :] = (vals * w) @ lv
    return coef


def derivative_values(coef, n, pf, xi, cell):
    """One-cell derivative values at local coordinates xi from `coef`."""
    ncf = 1 << n
    return coef[:, cell, :] @ (ncf**1.5 * legendre_derivs(pf, np.atleast_1d(xi))).T


def one_sided(coef, n, pf, face, side, deriv=False):
    """Value or derivative limit at finest face index `face` from `side`."""
    ncf = 1 << n
    cell = face - 1 if side < 0 else face
    cell = min(max(cell, 0), ncf - 1)
    xi = np.array([1.0 if side < 0 else 0.0])
    table = legendre_derivs if deriv else legendre_values
    scale = ncf**1.5 if deriv else ncf**0.5
    return (coef[:, cell, :] @ (scale * table(pf, xi)).T)[:, 0]


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
    op = assemble_mass(alpert_family(2, 3), alpert_family(2, 3))
    assert op.tag == "diag"
    np.testing.assert_allclose(op.mat, np.eye(op.row.ndof), atol=1e-12)


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
        x, w = q.mapped(c / ncf, (c + 1) / ncf)
        av = alpert_values_brute(k, n, x)
        iv = interp_values_brute(m, variant, n, x)
        ref += (av * w) @ iv.T
    np.testing.assert_allclose(op.mat, ref, atol=BRUTE_TOL)


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
    np.testing.assert_allclose(op.mat, ref, atol=BRUTE_TOL)


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
        x, w = q.mapped(c / ncf, (c + 1) / ncf)
        da = derivative_values(acoef, n, pf, q.nodes, c)
        iv = interp_values_brute(m, "interface", n, x)
        ref += (da * w) @ iv.T
    np.testing.assert_allclose(op.mat, ref, atol=BRUTE_TOL)


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
    np.testing.assert_allclose(op.mat, ref, atol=BRUTE_TOL)


@pytest.mark.parametrize("bc", WALL_BCS, ids="-".join)
@pytest.mark.parametrize("row_kind", KINDS)
def test_wall_trace_matches_face_sums(row_kind, bc):
    # every column kind, against an Alpert and an interpolatory trial family
    arow = alpert_family(2, 3)
    for col in (arow, interp_family(3, "interface", 3)):
        for col_kind in KINDS:
            op = assemble_trace(arow, col, row_kind, col_kind, bc)
            ref = brute_trace(arow, col, row_kind, col_kind, bc)
            # derivative pairs reach 1e5 at n=3, so the bound scales with them
            atol = BRUTE_TOL * max(1.0, np.abs(ref).max())
            np.testing.assert_allclose(op.mat, ref, rtol=0, atol=atol, err_msg=col_kind)


def test_half_traces_sum_to_average():
    # the two one-sided derivative traces recombine into the centered average
    arow = alpert_family(2, 3)
    icol = interp_family(3, "interface", 3)
    bc = ("periodic", "periodic")
    minus = assemble_trace(arow, icol, "dminus", "jump", bc, half=True)
    plus = assemble_trace(arow, icol, "dplus", "jump", bc, half=True)
    davg = assemble_trace(arow, icol, "davg", "jump", bc)
    np.testing.assert_allclose(minus.mat + plus.mat, davg.mat, atol=1e-12)


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
    s = assemble_stiffness(fam, fam)
    t = assemble_trace(fam, fam, "jump", "davg", bc)
    j = assemble_trace(fam, fam, "jump", "jump", bc)
    mat = s.mat - t.mat - t.mat.T + (sigma * (1 << n)) * j.mat
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
    for a, (x, s) in enumerate(basis.all_nodes(n)):
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
        np.testing.assert_allclose(op.mat[a], vals, atol=BRUTE_TOL)


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


def test_interp_node_system_is_unit_lower():
    m, n = 3, 3
    nd = node_family(m, "inner", n)
    fam = interp_family(m, "inner", n)
    e = assemble_node_values(nd, fam)
    assert e.tag == "lower"
    np.testing.assert_allclose(np.diag(e.mat), 1.0, atol=1e-12)
    assert np.max(np.abs(np.triu(e.mat, 1))) < 1e-12
    inv = assemble_node_to_surplus(nd)
    np.testing.assert_allclose(inv.mat @ e.mat, np.eye(fam.ndof), atol=1e-10)


def test_forced_side_sampling_flips_interior_nodes_only():
    m, n = 2, 2
    nd = node_family(m, "interface", n)
    acol = alpert_family(1, n)
    plus = assemble_node_values(nd, acol, force_side=+1)
    minus = assemble_node_values(nd, acol, force_side=-1)
    basis = make_interp_basis(m, "interface")
    nodes = basis.all_nodes(n)
    ncf = 1 << n
    dyadic_interior = [
        a for a, (x, _) in enumerate(nodes) if 0 < x < 1 and (x * ncf) == int(x * ncf)
    ]
    smooth = [a for a in range(len(nodes)) if a not in dyadic_interior]
    # at points where the basis is continuous both samplings agree
    np.testing.assert_allclose(plus.mat[smooth], minus.mat[smooth], atol=1e-12)
    assert np.max(np.abs(plus.mat[dyadic_interior] - minus.mat[dyadic_interior])) > 0.1


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
    return op.mat[op.row.level_slice(b), op.col.level_slice(a)]


def test_lu_split_reconstructs_and_tags():
    fam = alpert_family(2, 3)
    op = assemble_stiffness(fam, fam)
    low, up = lu_split(op)
    np.testing.assert_allclose(low.mat + up.mat, op.mat, atol=0)
    assert (low.tag, up.tag) == ("lower", "strictly-upper")
    for a in range(4):
        for b in range(4):
            if b < a:
                assert not level_block(low, b, a).any()
            if b >= a:
                assert not level_block(up, b, a).any()


# level pairs (out b, in a) whose block each tag declares zero
OUTSIDE_TAG = {
    "diag": lambda b, a: b != a,
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
