"""Interpolatory multiwavelets: node families, delta property, interpolants.

The interpolants go through the solver's own operators (values from
`point_values`, surpluses from `assemble_node_to_surplus`); a dense
node-value matrix built from the pointwise `interp_hier` oracle checks them.
"""

from fractions import Fraction

import numpy as np
import pytest

from mrdg.interp import make_interp_basis
from mrdg.operators1d import (
    assemble_node_to_surplus,
    assemble_node_values,
    interp_family,
    node_family,
    point_values,
)

from conftest import dense, interp_mother, interp_phi, interp_values_brute

EXACT = 1e-12

ALL_FAMILIES = [(m, v) for m in range(1, 6) for v in ("interface", "inner")]


@pytest.mark.parametrize("m,variant", ALL_FAMILIES)
def test_nodes_are_nested(m, variant):
    basis = make_interp_basis(m, variant)
    base = set(basis.base_nodes)
    level1 = {(x / 2, s) for x, s in base} | {((x + 1) / 2, s) for x, s in base}
    assert base <= level1
    assert len(level1 - base) == m + 1


@pytest.mark.parametrize("m,variant", ALL_FAMILIES)
def test_node_counts_and_sides(m, variant):
    basis = make_interp_basis(m, variant)
    assert len(basis.base_nodes) == m + 1
    for x, s in basis.base_nodes:
        if variant == "inner":
            # inner families avoid every dyadic point, so no side tags needed
            assert s == 0
            assert 0 < x < 1
        elif x.denominator & (x.denominator - 1) == 0:
            # dyadic nodes are one-sided: right limit at 0, left elsewhere
            assert s in (-1, 1)
            if x == 0:
                assert s == 1
            if x == 1:
                assert s == -1
        else:
            assert s == 0  # non-dyadic nodes sit strictly inside a cell


@pytest.mark.parametrize("m,variant", ALL_FAMILIES)
def test_level0_delta_property(m, variant):
    basis = make_interp_basis(m, variant)
    for i in range(m + 1):
        for j, (x, s) in enumerate(basis.nodes_level0()):
            val = interp_phi(basis, i, np.array([x]), s)[0]
            assert abs(val - (1.0 if i == j else 0.0)) < EXACT


@pytest.mark.parametrize("m,variant", ALL_FAMILIES)
def test_wavelet_delta_property(m, variant):
    # wavelet i is 1 at fresh node i, 0 at every other node of levels <= 1
    basis = make_interp_basis(m, variant)
    fresh = basis.nodes_for(1, 0)
    base = basis.nodes_level0()
    for i in range(m + 1):
        for j, (x, s) in enumerate(fresh):
            val = interp_mother(basis, i, np.array([x]), s)[0]
            assert abs(val - (1.0 if i == j else 0.0)) < EXACT
        for x, s in base:
            assert abs(interp_mother(basis, i, np.array([x]), s)[0]) < EXACT


def interpolation_matrix(m, variant, n):
    """E[a, b] = hierarchical function b at node a (with the node's side)."""
    nodes = zip(*make_interp_basis(m, variant).all_nodes(n))
    return np.hstack([interp_values_brute(m, variant, n, x, s) for x, s in nodes]).T


def interpolate(f, m, variant, n):
    """Surpluses of the level-n interpolant of f(x, side) via the solver path."""
    nodes = zip(*make_interp_basis(m, variant).all_nodes(n))
    vals = np.array([f(x, s) for x, s in nodes])
    return dense(assemble_node_to_surplus(node_family(m, variant, n))) @ vals


def eval_interpolant(surplus, m, variant, n, x, sides=0):
    return point_values(interp_family(m, variant, n), x, sides) @ surplus


@pytest.mark.parametrize("m,variant", ALL_FAMILIES)
def test_interpolation_matrix_unit_lower(m, variant):
    e = interpolation_matrix(m, variant, 3)
    np.testing.assert_allclose(np.diag(e), 1.0, atol=EXACT)
    assert np.max(np.abs(np.triu(e, 1))) < EXACT
    # the solver's node-value operator is the same matrix
    op = assemble_node_values(node_family(m, variant, 3), interp_family(m, variant, 3))
    np.testing.assert_allclose(dense(op), e, atol=1e-11)


@pytest.mark.parametrize("m,variant", ALL_FAMILIES)
def test_interpolant_reproduces_node_values(m, variant):
    # side enters f so one-sided nodes must be honored to reproduce values
    f = lambda x, side: np.sin(3 * x) + x**2 + 0.1 * side
    surplus = interpolate(f, m, variant, 3)
    x, sides = make_interp_basis(m, variant).all_nodes(3)
    got = eval_interpolant(surplus, m, variant, 3, x, sides)
    np.testing.assert_allclose(got, f(x, sides), atol=1e-10)


@pytest.mark.parametrize("m,variant", [(2, "interface"), (2, "inner"), (4, "interface")])
def test_interpolant_exact_on_polynomials(m, variant):
    # degree-M polynomials are reproduced everywhere, not only at nodes
    coef = np.arange(1.0, m + 2)
    poly = np.polynomial.Polynomial(coef)
    surplus = interpolate(lambda x, side: poly(x), m, variant, 2)
    x = np.linspace(0.013, 0.987, 41)
    np.testing.assert_allclose(
        eval_interpolant(surplus, m, variant, 2, x), poly(x), atol=1e-10
    )
    # and the surplus of every level >= 1 function vanishes
    assert np.max(np.abs(surplus[m + 1 :])) < 1e-10


def test_interface_m4_matches_closed_forms():
    basis = make_interp_basis(4, "interface")
    # nodes are the quarter points, one-sided at the dyadic ones
    assert basis.nodes_level0() == [(0.0, 1), (0.25, -1), (0.5, -1), (0.75, -1), (1.0, -1)]
    x = np.linspace(0.0, 1.0, 9)
    # phi_0 interpolates (0, +): the Lagrange polynomial through the quarter points
    phi0 = np.polynomial.Polynomial.fromroots([0.25, 0.5, 0.75, 1.0])
    phi0 = phi0 / phi0(0.0)
    np.testing.assert_allclose(interp_phi(basis, 0, x), phi0(x), atol=1e-11)
    assert abs(interp_phi(basis, 0, np.array([0.0]), 1)[0] - 1.0) < EXACT
    # right-half wavelet for fresh node (7/8)-: -(32/3)(x-1)(2x-1)(4x-3)(8x-5)
    fresh = basis.nodes_for(1, 0)
    idx = fresh.index((0.875, -1))
    xr = np.linspace(0.51, 0.99, 17)
    expect = -(32.0 / 3.0) * (xr - 1) * (2 * xr - 1) * (4 * xr - 3) * (8 * xr - 5)
    np.testing.assert_allclose(interp_mother(basis, idx, xr), expect, atol=1e-10)
    # and it vanishes identically on the other half
    assert np.max(np.abs(interp_mother(basis, idx, np.linspace(0.01, 0.49, 9)))) == 0.0


def test_inner_families_nest_across_degrees():
    # the M=3 node set sits inside the M=4 one (shared dyadic-orbit design)
    n3 = {x for x, _ in make_interp_basis(3, "inner").base_nodes}
    n4 = {x for x, _ in make_interp_basis(4, "inner").base_nodes}
    assert n3 <= n4
    assert Fraction(1, 3) in n4 and Fraction(1, 6) in n4


def test_degree_bounds_enforced():
    with pytest.raises(ValueError):
        make_interp_basis(0)
    with pytest.raises(ValueError):
        make_interp_basis(6)
