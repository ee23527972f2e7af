"""Orthonormal multiwavelet basis: orthonormality, moments, transforms.

The Gram-matrix and moment checks integrate pointwise evaluations with
per-cell Gauss quadrature, so they exercise the constructed functions
themselves rather than any stored matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrdg.alpert import (
    fine_to_hier,
    legendre_values,
    mother_wavelets,
    project_1d,
    synthesis_matrix,
    two_scale,
)
from mrdg.operators1d import alpert_family

from conftest import alpert_mother, alpert_values_brute, cellwise_gauss, fine_matrix

ORTHO_TOL = 1e-11


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_hierarchy_is_orthonormal(k):
    n = 3
    x, w = cellwise_gauss(n, k + 2)
    vals = alpert_values_brute(k, n, x)
    gram = (vals * w) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(gram)))) < ORTHO_TOL


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_mother_wavelets_kill_low_moments(k):
    # each wavelet is orthogonal to all polynomials of degree <= k
    x, w = cellwise_gauss(3, k + 3)  # resolve the interior breakpoint
    for i in range(k + 1):
        psi = alpert_mother(k, i, x)
        for q in range(k + 1):
            assert abs(np.sum(w * psi * x**q)) < ORTHO_TOL


def test_scaling_functions_are_shifted_legendre():
    # closed forms sqrt(2i+1) P_i(2x - 1) of the first three
    x = np.linspace(0.01, 0.99, 7)
    t = 2 * x - 1
    ref = np.stack([np.ones_like(t), np.sqrt(3) * t, np.sqrt(5) * (1.5 * t**2 - 0.5)], 1)
    np.testing.assert_allclose(legendre_values(2, x), ref, atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_two_scale_refines_exactly(k):
    # a parent-cell polynomial re-expanded on its two halves is unchanged
    rng = np.random.default_rng(5)
    coef = rng.standard_normal(k + 1)
    r0, r1 = two_scale(k)
    x = np.linspace(0, 1, 33)[1:-1]
    parent = legendre_values(k, x) @ coef
    left = x < 0.5
    halves = np.empty_like(parent)
    # child representations live on [0,1/2] and [1/2,1] with sqrt(2) scale
    halves[left] = np.sqrt(2.0) * legendre_values(k, 2 * x[left]) @ (r0 @ coef)
    halves[~left] = np.sqrt(2.0) * legendre_values(k, 2 * x[~left] - 1) @ (r1 @ coef)
    np.testing.assert_allclose(halves, parent, atol=1e-12)


def test_synthesis_matrix_is_orthogonal():
    for k in (0, 2):
        s = synthesis_matrix(k)
        np.testing.assert_allclose(s @ s.T, np.eye(len(s)), atol=1e-12)


@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_fine_hier_roundtrip(k, n, seed):
    # the pyramid analysis inverts the synthesis the operators are built from
    rng = np.random.default_rng(seed)
    q = fine_matrix(alpert_family(k, n), k)
    fine = rng.standard_normal((2**n, k + 1))
    np.testing.assert_allclose(q @ fine_to_hier(fine, k, n), fine.ravel(), atol=1e-12)
    hier = rng.standard_normal(q.shape[1])
    np.testing.assert_allclose(
        fine_to_hier((q @ hier).reshape(2**n, k + 1), k, n), hier, atol=1e-12
    )


def test_transform_preserves_norm():
    # both bases are orthonormal, so the change of basis is an isometry
    rng = np.random.default_rng(11)
    fine = rng.standard_normal((8, 4))
    hier = fine_to_hier(fine, 3, 3)
    assert abs(np.dot(hier, hier) - np.sum(fine * fine)) < 1e-12


@pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (3, 2)])
def test_projection_reproduces_polynomials(k, n):
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(k + 1)
    f = np.polynomial.Polynomial(coef)
    hier = project_1d(f, k, n)
    x = rng.uniform(0.01, 0.99, 40)
    vals = alpert_values_brute(k, n, x)
    np.testing.assert_allclose(hier @ vals, f(x), atol=1e-11)


def test_projection_coefficients_match_quadrature():
    # c_i = <f, b_i> computed against an independent basis-evaluation path
    k, n = 2, 3
    f = lambda x: np.sin(2.3 * np.pi * x) + x**4
    hier = project_1d(f, k, n)
    x, w = cellwise_gauss(n, k + 3)
    ref = (alpert_values_brute(k, n, x) * w) @ f(x)
    np.testing.assert_allclose(hier, ref, atol=1e-12)
    # the k+3-point rule is within benchmark tolerances of the exact value
    x, w = cellwise_gauss(n, 12)
    ref = (alpert_values_brute(k, n, x) * w) @ f(x)
    assert np.max(np.abs(hier - ref)) < 1e-9


def test_projection_tail_decays_at_order_k_plus_one():
    k = 2
    norms = []
    for n in (3, 4, 5):
        hier = project_1d(lambda x: np.sin(2 * np.pi * x), k, n)
        tail = hier[alpert_family(k, n).level_offset(n) :]
        norms.append(np.linalg.norm(tail))
    rates = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert np.all(rates > k + 0.5)


def test_mother_table_rows_are_unit_norm():
    # mother coefficients are stored against orthonormal half-interval bases
    for k in (0, 1, 4):
        m = mother_wavelets(k)
        flat = m.reshape(k + 1, -1)
        np.testing.assert_allclose((flat**2).sum(axis=1), 1.0, atol=1e-12)
