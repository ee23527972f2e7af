"""Orthonormal piecewise-polynomial multiwavelets of Alpert type.

The 1D hierarchy on [0,1]: level 0 carries the orthonormal shifted Legendre
polynomials of degree <= k; the level-l increment space (l >= 1) is the
L2-orthogonal complement of the degree-k broken space on 2^(l-1) cells inside
the one on 2^l cells.  Its basis is generated from k+1 mother wavelets on
[0,1] — piecewise polynomials over the two half-intervals, orthogonal to all
polynomials of degree <= k and to each other — by the unitary dyadic dilation

    v_{i,l}^j(x) = 2^((l-1)/2) * psi_i(2^(l-1) x - j).

Mother wavelets are built once per k by Gram-Schmidt and cached.  Everything
in this module is 1D; tensorization happens in the containers and operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg


@dataclass(frozen=True)
class Quadrature1D:
    """Gauss-Legendre rule on [0, 1]: exact for polynomials of degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, npoints: int) -> "Quadrature1D":
        x, w = npleg.leggauss(npoints)
        return cls(nodes=0.5 * (x + 1.0), weights=0.5 * w)


def legendre_values(p: int, x: np.ndarray) -> np.ndarray:
    """Matrix of orthonormal shifted Legendre values, shape (len(x), p+1).

    Column i is sqrt(2i+1) * P_i(2x - 1), the L2([0,1])-orthonormal family.
    """
    x = np.asarray(x, dtype=float)
    t = 2.0 * x - 1.0
    vals = np.empty((x.size, p + 1))
    for i in range(p + 1):
        coef = np.zeros(i + 1)
        coef[i] = 1.0
        vals[:, i] = np.sqrt(2 * i + 1) * npleg.legval(t, coef)
    return vals.reshape(*x.shape, p + 1) if x.ndim else vals[0]


def legendre_derivs(p: int, x: np.ndarray) -> np.ndarray:
    """d/dx of the orthonormal shifted Legendre family at x, shape (..., p+1)."""
    x = np.asarray(x, dtype=float)
    t = 2.0 * x - 1.0
    vals = np.empty((x.size, p + 1))
    for i in range(p + 1):
        coef = np.zeros(i + 1)
        coef[i] = 1.0
        vals[:, i] = 2.0 * np.sqrt(2 * i + 1) * npleg.legval(t, npleg.legder(coef))
    return vals.reshape(*x.shape, p + 1) if x.ndim else vals[0]


@lru_cache(maxsize=None)
def two_scale(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Refinement filters of the orthonormal Legendre family, degree <= p.

    R0[q, i] (resp. R1) is the coefficient of the child-local orthonormal
    basis function q in the expansion of parent function i restricted to the
    left (right) half.  Columns of the stacked [R0; R1] are orthonormal.
    """
    quad = Quadrature1D.gauss(p + 1)
    xi, w = quad.nodes, quad.weights
    child_vals = legendre_values(p, xi)  # e_q(xi) on the child reference cell
    filters = []
    for c in (0, 1):
        parent_vals = legendre_values(p, 0.5 * (xi + c))
        # <parent_i, sqrt(2) e_q(2x - c)>_child = 1/2 * int e_i((xi+c)/2) sqrt2 e_q(xi)
        filters.append(
            0.5 * np.sqrt(2.0) * np.einsum("x,xq,xi->qi", w, child_vals, parent_vals)
        )
    return filters[0], filters[1]


# Highest degree with a mother table: the Gram-Schmidt of monomial seeds in
# `mother_wavelets` loses every digit of a seed from k = 11 on.
MAX_DEGREE = 10


@lru_cache(maxsize=None)
def mother_wavelets(k: int) -> np.ndarray:
    """Mother wavelet table, shape (k+1, 2, k+1).

    Entry [i, h, q] is the coefficient of the half-local orthonormal Legendre
    function q (half h: 0 left, 1 right) in mother wavelet psi_i.  Built by
    Gram-Schmidt: seed functions x^j restricted to the right half are
    projected off the degree-k polynomial space on [0,1], orthonormalized in
    order, and sign-fixed so the right-half leading coefficient is positive.
    """
    if k < 0:
        raise ValueError("polynomial degree k must be >= 0")
    p = k + 1
    r0, r1 = two_scale(k)
    # Degree-k global polynomials as vectors over the two half-local bases.
    poly_vecs = np.vstack([r0, r1]).T  # shape (p, 2p): row i = P~_i
    quad = Quadrature1D.gauss(k + 2)
    xi, w = quad.nodes, quad.weights
    half_vals = legendre_values(k, xi)
    seeds = np.zeros((p, 2 * p))
    for j in range(p):
        # x^j on the right half: x = (xi + 1)/2, local weight sqrt(2).
        fx = (0.5 * (xi + 1.0)) ** j
        seeds[j, p:] = 0.5 * np.sqrt(2.0) * np.einsum("x,x,xq->q", w, fx, half_vals)

    def orthogonalize(vecs: np.ndarray, against: np.ndarray) -> np.ndarray:
        out = vecs.copy()
        for _ in range(2):  # two passes keep the loss of orthogonality at ~eps
            out -= (out @ against.T) @ against
        return out

    seeds = orthogonalize(seeds, poly_vecs)
    mothers = np.zeros((p, 2 * p))
    done = np.zeros((0, 2 * p))
    for i in range(p):
        vec = orthogonalize(seeds[i : i + 1], done)[0] if len(done) else seeds[i]
        norm = np.linalg.norm(vec)
        if norm < 1e-10:
            raise RuntimeError(f"degenerate wavelet seed at k={k}, i={i}")
        vec = vec / norm
        mothers[i] = vec
        done = np.vstack([done, vec])
    # Sign convention: highest-index nonzero right-half coefficient positive
    # (local Legendre polynomials have positive leading coefficients, so this
    # pins the sign of the right piece's leading monomial term).
    for i in range(p):
        for q in range(p - 1, -1, -1):
            c = mothers[i, p + q]
            if abs(c) > 1e-12:
                if c < 0:
                    mothers[i] = -mothers[i]
                break
    return mothers.reshape(p, 2, p)


def synthesis_matrix(k: int) -> np.ndarray:
    """Orthogonal 2(k+1) x 2(k+1) map [parent scaling; wavelets] -> children.

    Columns 0..k are the parent scaling functions expressed in the two
    child-local bases, columns k+1.. the mother wavelets.
    """
    p = k + 1
    r0, r1 = two_scale(k)
    mothers = mother_wavelets(k).reshape(p, 2 * p)
    g = np.zeros((2 * p, 2 * p))
    g[:p, :p] = r0
    g[p:, :p] = r1
    g[:, p:] = mothers.T
    return g


def fine_to_hier(fine: np.ndarray, k: int, n: int) -> np.ndarray:
    """Pyramid analysis: per-cell modal coefficients at level n -> hierarchical.

    `fine` has shape (2^n, k+1) — orthonormal local Legendre coefficients on
    the finest cells.  Returns the flat level-major hierarchical vector.
    """
    p = k + 1
    g = synthesis_matrix(k)
    out = np.zeros(p << n if n else p)
    s = np.asarray(fine, dtype=float).reshape(1 << n, p)
    for level in range(n, 0, -1):
        half = s.shape[0] // 2
        pairs = s.reshape(half, 2 * p)
        sd = pairs @ g  # analysis: G is orthogonal, G^T applied from the right
        s = sd[:, :p]
        out[p * half : 2 * p * half] = sd[:, p:].ravel()  # level offset p * 2^(level-1)
    out[:p] = s[0]
    return out


def project_1d(f, k: int, n: int) -> np.ndarray:
    """L2 projection of a callable onto the degree-k broken space at level n,
    returned in hierarchical coordinates.

    Gauss-Legendre with k+3 points per finest cell (enough for every benchmark
    integrand at the tolerances used).
    """
    quad = Quadrature1D.gauss(k + 3)
    cells = 1 << n
    width = 1.0 / cells
    # every cell's points at once, cell j's at j * width + width * nodes
    x = (np.arange(cells) * width)[:, None] + width * quad.nodes
    vals = legendre_values(k, quad.nodes)  # local basis at reference nodes
    fx = np.asarray(f(x), dtype=float)
    fine = np.sqrt(cells) * np.einsum("x,cx,xi->ci", width * quad.weights, fx, vals)
    return fine_to_hier(fine, k, n)
