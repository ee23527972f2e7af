"""Shared brute-force oracles.

Everything here deliberately avoids the code paths under test: dense
matrices are assembled block-by-block from raw operator entries (ignoring
triangularity tags), integrals go through per-cell Gauss quadrature of
pointwise basis evaluations, and grids are grown by random child
activations so downward closure is the only structure they share.
"""

from __future__ import annotations

import numpy as np
import pytest

from mrdg.alpert import Quadrature1D, legendre_values, mother_wavelets
from mrdg.fastmv import CoeffSet, TensorSpace, TensorTerm
from mrdg.grids import AdaptiveGrid, children, num_cells
from mrdg.interp import make_interp_basis
from mrdg.operators1d import alpert_family, point_values


def cellwise_gauss(n: int, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights mapped to every cell of the level-n uniform mesh."""
    q = Quadrature1D.gauss(npts)
    h = 2.0**-n
    xs, ws = [], []
    for c in range(2**n):
        x, w = q.mapped(c * h, (c + 1) * h)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def alpert_mother(k: int, i: int, x: np.ndarray, side: int = 0) -> np.ndarray:
    """Mother wavelet psi_i at x in [0, 1] from its half-interval table;
    `side` < 0 takes the left limit at the midpoint, >= 0 the right one."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    half = ((x > 0.5) | ((x == 0.5) & (side >= 0))).astype(int)
    vals = np.sqrt(2.0) * legendre_values(k, 2.0 * x - half)
    return np.einsum("xq,xq->x", vals, mother_wavelets(k)[i, half])


def alpert_hier(k: int, level: int, cell: int, i: int, x, side: int = 0):
    """Hierarchical Alpert function (level, cell, i) at x, zero off its
    support; `side` picks one-sided limits at breakpoints as above."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if level == 0:
        return legendre_values(k, x)[:, i]
    scale = float(1 << (level - 1))
    xi = scale * x - cell
    inside = (xi > 0.0) & (xi < 1.0)
    inside |= (xi == 0.0) & (side >= 0)
    inside |= (xi == 1.0) & (side < 0)
    vals = np.zeros_like(x)
    vals[inside] = np.sqrt(scale) * alpert_mother(k, i, xi[inside], side)
    return vals


def hier_index(n: int, p: int) -> list[tuple[int, int, int]]:
    """(level, cell, i) of every hierarchical function, in level-major order."""
    return [(lv, c, i) for lv in range(n + 1) for c in range(num_cells(lv)) for i in range(p)]


def alpert_values_brute(k: int, n: int, x: np.ndarray, side: int = 0) -> np.ndarray:
    """Row i = hierarchical Alpert function i evaluated at x."""
    return np.array([alpert_hier(k, *key, x, side) for key in hier_index(n, k + 1)])


def alpert_point_matrix(k: int, n: int, x: np.ndarray) -> np.ndarray:
    """Dense (points, hierarchical DoF) matrix of the level-<=n Alpert family.

    A point on a dyadic breakpoint takes the value of the cell to its right
    (x = 1 that of the last cell).
    """
    return point_values(alpert_family(k, n), x, 0)


def dense_lattice_values(cs: CoeffSet, k: int, n: int, axes_points) -> np.ndarray:
    """Lattice values of an Alpert field: every level tuple contracted with
    the dense point matrices of all its cells, one axis at a time."""
    d = cs.ndim
    fam = alpert_family(k, n)
    mats = [alpert_point_matrix(k, n, pts) for pts in axes_points]
    shape = tuple(len(pts) for pts in axes_points)
    out = np.zeros(shape)
    for lv, arr in cs.data.items():
        # interleave axes to (c1,p1,c2,p2,...) then contract pairs from the end
        perm = [None] * (2 * d)
        perm[0::2] = range(d)
        perm[1::2] = range(d, 2 * d)
        work = arr.transpose(perm)
        for m in reversed(range(d)):
            sl = fam.level_slice(lv[m])
            pm = mats[m][:, sl].reshape(shape[m], num_cells(lv[m]), k + 1)
            work = np.tensordot(work, pm, axes=([2 * m, 2 * m + 1], [1, 2]))
        # contraction order left the point axes reversed
        out += work.transpose(tuple(reversed(range(d))))
    return out


def interp_phi(basis, i: int, x, side: int = 0) -> np.ndarray:
    """Level-0 Lagrange function i of an interpolatory family at x; it is
    one polynomial on [0, 1], so `side` changes nothing."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return legendre_values(basis.m, x) @ basis.phi[i]


def interp_mother(basis, i: int, x, side: int = 0) -> np.ndarray:
    """Interpolatory mother wavelet i at x in [0, 1], zero off its half;
    `side` < 0 takes left limits at breakpoints, >= 0 right ones."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = basis.halves[i]
    lo, hi = 0.5 * h, 0.5 * (h + 1)
    inside = (x > lo) | ((x == lo) & (side >= 0))
    inside &= (x < hi) | ((x == hi) & (side < 0))
    vals = np.zeros_like(x)
    xi = 2.0 * x[inside] - h
    vals[inside] = np.sqrt(2.0) * legendre_values(basis.m, xi) @ basis.mothers[i, h]
    return vals


def interp_hier(basis, level: int, cell: int, i: int, x, side: int = 0):
    """Hierarchical interpolatory function (level, cell, i) at x, zero off
    its support; one-sided at breakpoints as in `interp_mother`."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if level == 0:
        return interp_phi(basis, i, x)
    xi = float(1 << (level - 1)) * x - cell
    inside = (xi >= 0.0) & (xi <= 1.0)
    vals = np.zeros_like(x)
    vals[inside] = interp_mother(basis, i, xi[inside], side)
    return vals


def interp_values_brute(m, variant, n, x, side=0) -> np.ndarray:
    """Row i = hierarchical interpolatory function i evaluated at x."""
    basis = make_interp_basis(m, variant)
    return np.array([interp_hier(basis, *key, x, side) for key in hier_index(n, m + 1)])


# ---------------------------------------------------------------------------
# grids


def random_pruning(ndim: int, n_max: int, seed: int, steps: int = 40) -> AdaptiveGrid:
    """Grow a random downward-closed active set by repeated child activation."""
    rng = np.random.default_rng(seed)
    grid = AdaptiveGrid(ndim, n_max)
    for _ in range(steps):
        keys = sorted(grid)
        key = keys[int(rng.integers(len(keys)))]
        dim = int(rng.integers(ndim))
        kids = children(key, dim, n_max)
        if kids:
            grid.activate(kids[int(rng.integers(len(kids)))])
    return grid


# ---------------------------------------------------------------------------
# dense tensor-operator oracle


def space_layout(space: TensorSpace, p: tuple[int, ...]):
    """Per-level (offset, block shape) in a flat global vector."""
    offsets, total = {}, 0
    for lv in space.levels:
        shape = space.cell_counts[lv] + tuple(p)
        offsets[lv] = (total, shape)
        total += int(np.prod(shape))
    return offsets, total


def flatten(space: TensorSpace, cs: CoeffSet) -> np.ndarray:
    offsets, total = space_layout(space, cs.p)
    out = np.zeros(total)
    for lv, (off, shape) in offsets.items():
        arr = cs.data.get(lv)
        if arr is not None:
            out[off : off + arr.size] = arr.ravel()
    return out


def _grouped_to_interleaved(ncells: tuple[int, ...], p: tuple[int, ...]) -> np.ndarray:
    # kron of per-dimension (cell, poly) matrices orders axes (c1,p1,c2,p2,...);
    # coefficient blocks order them (c1,...,cd,p1,...,pd).
    axes = []
    for c, q in zip(ncells, p):
        axes += [c, q]
    arr = np.arange(int(np.prod(axes))).reshape(axes)
    d = len(ncells)
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    return arr.transpose(order).ravel()


def _active_mask_flat(space: TensorSpace, lv, p: tuple[int, ...]) -> np.ndarray:
    m = space.masks[lv]
    return np.broadcast_to(
        m.reshape(m.shape + (1,) * len(p)), m.shape + tuple(p)
    ).ravel()


def dense_from_terms(
    terms: list[TensorTerm], space: TensorSpace, p_in: tuple[int, ...]
) -> np.ndarray:
    """Dense matrix of sum(scale * kron(ops)) restricted to the active set.

    Entries are read straight from `op.mat` level blocks; tags, sweep order,
    and the L+U expansion are never consulted, so the result is an
    independent reference for the fast apply.
    """
    d = space.ndim
    p_out = tuple(
        (op.row.p if op is not None else q) for op, q in zip(terms[0].ops, p_in)
    )
    off_in, tot_in = space_layout(space, p_in)
    off_out, tot_out = space_layout(space, p_out)
    dense = np.zeros((tot_out, tot_in))
    for term in terms:
        for lvo in space.levels:
            for lvi in space.levels:
                factors = []
                for m in range(d):
                    op = term.ops[m]
                    if op is None:
                        if lvo[m] != lvi[m]:
                            factors = None
                            break
                        factors.append(np.eye(num_cells(lvi[m]) * p_in[m]))
                    else:
                        factors.append(
                            op.mat[op.row.level_slice(lvo[m]), op.col.level_slice(lvi[m])]
                        )
                if factors is None:
                    continue
                kron = factors[0]
                for fac in factors[1:]:
                    kron = np.kron(kron, fac)
                if not kron.any():
                    continue
                co = tuple(num_cells(l) for l in lvo)
                ci = tuple(num_cells(l) for l in lvi)
                rows = _grouped_to_interleaved(co, p_out)
                cols = _grouped_to_interleaved(ci, p_in)
                oo, so = off_out[lvo]
                oi, si = off_in[lvi]
                dense[oo : oo + int(np.prod(so)), oi : oi + int(np.prod(si))] += (
                    term.scale * kron[np.ix_(rows, cols)]
                )
    row_mask = np.concatenate(
        [_active_mask_flat(space, lv, p_out) for lv in space.levels]
    )
    col_mask = np.concatenate(
        [_active_mask_flat(space, lv, p_in) for lv in space.levels]
    )
    dense[~row_mask] = 0.0
    dense[:, ~col_mask] = 0.0
    return dense


def random_coeffs(space: TensorSpace, p: tuple[int, ...], seed: int) -> CoeffSet:
    """Masked random coefficients (inactive cells zeroed, as callers guarantee)."""
    rng = np.random.default_rng(seed)
    cs = space.zeros(p)
    for lv in space.levels:
        cs.data[lv][...] = rng.standard_normal(cs.data[lv].shape)
    return space.mask(cs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
