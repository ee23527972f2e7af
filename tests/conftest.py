"""Shared brute-force oracles.

Everything here deliberately avoids the code paths under test: dense
matrices are assembled block-by-block from raw operator entries (ignoring
triangularity tags), integrals go through per-cell Gauss quadrature of
pointwise basis evaluations, 1D volume and face terms are whole dense
products R_row^T W R_col of point-value matrices (the assemblers build
pyramid forms from reference tables), and grids are grown by random child
activations so downward closure is the only structure they share.  The
key-by-key grid model below changes a grid one element at a time; the
whole-array `AdaptiveGrid.refined` / `coarsened` are checked against it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from mrdg.alpert import Quadrature1D, legendre_values, mother_wavelets, two_scale
from mrdg import fastmv
from mrdg.fastmv import CoeffSet, TensorSpace, TensorTerm
from mrdg.diagnostics import fmt
from mrdg.grids import MAX_LEVEL, AdaptiveGrid, Level, cell_width, level_layout, num_cells
from mrdg.interp import make_interp_basis
from mrdg import operators1d
from mrdg.operators1d import (
    _TRACE_WEIGHTS,
    FamilySpec,
    Operator1D,
    _cellwise,
    _locate,
    alpert_family,
    assemble_mass,
    assemble_node_values,
    assemble_trace,
    assemble_volume_derivative,
    interp_family,
    node_family,
)
from mrdg.pyramid import Chains, NodeForm


def dense(op: Operator1D) -> np.ndarray:
    """The matrix of a 1D operator as a dense array, whatever its storage:
    a pyramid form is applied to the identity, one fiber per column, every
    fiber reaching the top level."""
    if isinstance(op.mat, np.ndarray):
        return op.mat
    return _applied_to_identity(op)


@lru_cache(maxsize=32)  # `dense_apply` reads each factor once per level pair
def _applied_to_identity(op: Operator1D) -> np.ndarray:
    n, ncol = op.col.n, op.col.ndof
    counts = (ncol,) * (n + 1)
    eye = np.eye(ncol)
    x = np.concatenate([eye[:, op.col.level_slice(a)].ravel() for a in range(n + 1)])
    y = op.mat.cascade(op.tag, x, Chains(counts))
    out = np.zeros((op.row.ndof, ncol))
    at = 0
    for b in range(n + 1):
        size = op.row.level_size(b)
        out[op.row.level_slice(b)] = y[at : at + ncol * size].reshape(ncol, size).T
        at += ncol * size
    out.flags.writeable = False  # shared by every caller
    return out


# ---------------------------------------------------------------------------
# the interpolatory family at points: the solver evaluates Alpert families only


def interp_level_values(fam: FamilySpec, level: int, x, sides, deriv: bool = False):
    """`operators1d.level_values` for the interpolatory family.  Its level-l
    functions (l >= 1) are sqrt(2) times the Legendre expansions of its
    mothers on each half, so they keep value 1 at their node; its level 0 is
    the Lagrange basis `phi`."""
    half, leg = _locate(fam.degree, level, x, sides, deriv)
    basis = make_interp_basis(fam.degree, fam.variant)
    if level == 0:
        return half, leg @ basis.phi.T
    pieces = np.sqrt(2.0) * basis.mothers
    right = (half & 1).astype(bool)[:, None]
    return half >> 1, np.where(right, leg @ pieces[:, 1].T, leg @ pieces[:, 0].T)


def point_values(fam: FamilySpec, x, sides, deriv: bool = False) -> np.ndarray:
    """`operators1d.point_values` for either family, a dense (len(x), ndof)
    table; the interpolatory one from `interp_level_values`."""
    if fam.kind == "alpert":
        return operators1d.point_values(fam, x, sides, deriv)
    out = np.zeros((len(x), fam.ndof))
    for level in range(fam.n + 1):
        cell, v = interp_level_values(fam, level, x, sides, deriv)
        cols = fam.level_offset(level) + fam.p * cell[:, None] + np.arange(fam.p)
        out[np.arange(len(x))[:, None], cols] += v
    return out


@lru_cache(maxsize=None)
def node_values(nodes: FamilySpec, col: FamilySpec) -> Operator1D:
    """`assemble_node_values` for either column family.  An interpolatory
    column shares the node layout and the level-0 and level-1 single-scale
    tables of the Alpert form of its degree (both families synthesise to
    the Legendre intervals), and adds its own functions' values at the
    coarser nodes."""
    if col.kind == "alpert":
        return assemble_node_values(nodes, col)
    alpert = assemble_node_values(nodes, alpert_family(col.degree, col.n)).mat
    x, sides = make_interp_basis(nodes.degree, nodes.variant).all_nodes(nodes.n)
    below = [nodes.level_offset(a) for a in range(1, nodes.n + 1)]
    values = [interp_level_values(col, a, x[:b], sides[:b])[1] for a, b in enumerate(below, 1)]
    form = NodeForm(alpert.nodes, col, False, alpert.levels, [np.zeros((0, col.p))] + values)
    return Operator1D(form, nodes, col, "general")


# ---------------------------------------------------------------------------
# node tables in exact rationals: the solver scales integers


def nodes_level0(basis) -> list[tuple[float, int]]:
    """The base nodes of an interpolatory family, as (value, side) floats."""
    return [(float(x), s) for x, s in basis.base_nodes]


def nodes_for(basis, level: int, cell: int) -> list[tuple[float, int]]:
    """Fresh nodes owned by (level, cell), as (value, side) floats, each
    the rounding of 2^-(level-1) (x + cell) evaluated as a `Fraction`."""
    if level == 0:
        return nodes_level0(basis)
    scale = Fraction(1, 1 << (level - 1))
    return [(float((x + cell) * scale), s) for x, s in basis.fresh_nodes]


def level_nodes(basis, level: int) -> tuple[np.ndarray, np.ndarray]:
    """`InterpBasis1D.level_nodes`, one cell at a time through `nodes_for`."""
    nodes = np.array([nodes_for(basis, level, c) for c in range(num_cells(level))])
    return nodes[..., 0], nodes[..., 1].astype(int)


def coarse_nodes(basis, n: int) -> np.ndarray:
    """The `coarse` table of `InterpBasis1D.coarse_stencil`, each coarse
    node looked up by its (value, side) in a dict of all nodes."""
    tables = [level_nodes(basis, level) for level in range(n + 1)]
    coords, sides = (np.concatenate([t[j].ravel() for t in tables]) for j in (0, 1))
    index = {node: a for a, node in enumerate(zip(coords.tolist(), sides.tolist()))}
    coarse = [
        [index[float((x + cell) * scale), s] for x, s in basis.base_nodes]
        for level in range(1, n + 1)
        for scale in [Fraction(1, 1 << (level - 1))]
        for cell in range(num_cells(level))
    ]
    return np.array(coarse, dtype=int).reshape(-1, basis.p)


# ---------------------------------------------------------------------------
# 1D assembly: dense products of point-value matrices


def _legendre_long(degree: int, t: np.ndarray, deriv: bool) -> np.ndarray:
    """Orthonormal shifted Legendre values (d/dt with `deriv`) at t in
    [0, 1], shape (len(t), degree + 1), in long double by the three-term
    recurrence: (i+1) P_(i+1) = (2i+1) s P_i - i P_(i-1) and
    P'_(i+1) = P'_(i-1) + (2i+1) P_i, s = 2t - 1."""
    s = 2 * t - 1
    vals, ders = [np.ones_like(s), s], [np.zeros_like(s), np.ones_like(s)]
    for i in range(1, degree):
        vals.append(((2 * i + 1) * s * vals[i] - i * vals[i - 1]) / (i + 1))
        ders.append(ders[i - 1] + (2 * i + 1) * vals[i])
    norm = np.sqrt(np.arange(1, 2 * degree + 2, 2, dtype=np.longdouble))
    return np.stack((ders if deriv else vals)[: degree + 1], axis=-1) * norm * (2 if deriv else 1)


def exact_point_values(fam: FamilySpec, x, sides, deriv: bool = False) -> np.ndarray:
    """`point_values` evaluated in long double from the basis tables, then
    rounded once: each value is within half an ulp of the tables' exact
    value, so the sums of the oracles below carry only their own roundoff.

    `x` may be long double: a Gauss point of a fine cell, cell + node, is
    exact there, and so is its local coordinate on every level.
    """
    x = np.asarray(x, dtype=np.longdouble)
    sides = np.broadcast_to(sides, x.shape)
    out = np.zeros((len(x), fam.ndof), np.longdouble)
    if fam.kind == "alpert":
        level0, mothers = np.eye(fam.p), mother_wavelets(fam.degree)
    else:
        basis = make_interp_basis(fam.degree, fam.variant)
        level0, mothers = basis.phi, basis.mothers
    root2 = np.sqrt(np.longdouble(2))
    for level in range(fam.n + 1):
        t = x * (1 << level)
        half = np.floor(t).astype(int)
        half = np.clip(np.where((t == half) & (sides < 0), half - 1, half), 0, (1 << level) - 1)
        leg = _legendre_long(fam.degree, t - half, deriv) * ((1 << level) if deriv else 1)
        if level == 0:
            cell, vals = half, leg @ level0.T.astype(np.longdouble)
        else:
            # level l is 2^(l/2) times the mothers for Alpert, sqrt(2) times
            # them for the interpolatory family (see `interp_level_values`)
            scale = root2**level if fam.kind == "alpert" else root2
            pieces = scale * mothers.astype(np.longdouble)
            right = (half & 1).astype(bool)[:, None]
            cell, vals = half >> 1, np.where(right, leg @ pieces[:, 1].T, leg @ pieces[:, 0].T)
        cols = fam.level_offset(level) + fam.p * cell[:, None] + np.arange(fam.p)
        out[np.arange(len(x))[:, None], cols] += vals
    return out.astype(float)


def gram_oracle(row, col, drow: bool, dcol: bool, absolute: bool = False) -> np.ndarray:
    """Volume pairing R_row^T W R_col: dense point-value matrices at the
    Gauss points of every finest cell, each differentiated when its flag is
    set, W the quadrature weights.

    With `absolute`, the same product of absolute values: the largest sum
    an entry's terms can reach, which scales its roundoff.
    """
    quad = Quadrature1D.gauss(max(row.degree, col.degree) + 1)
    ncf = 1 << row.n
    x = ((np.arange(ncf, dtype=np.longdouble)[:, None] + quad.nodes) / ncf).ravel()
    w = np.tile(quad.weights / ncf, ncf)
    r_row, r_col = exact_point_values(row, x, 1, drow), exact_point_values(col, x, 1, dcol)
    if absolute:
        r_row, r_col = np.abs(r_row), np.abs(r_col)
    return (w[:, None] * r_row).T @ r_col


def _face_points(n: int, bc: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Left- and right-limit points of every face the bc pair selects.

    Interior dyadic faces come first, then the periodic wrap face (x = 1 from
    the left, x = 0 from the right) or the Dirichlet walls, whose missing
    side is nan.  Neumann sides hold no face: their flux data enters the load
    functional only.
    """
    inner = list(np.arange(1, 1 << n) / (1 << n))
    left, right = bc
    if "periodic" in bc:
        if left != right:
            raise ValueError("periodic boundary must apply to both sides")
        return np.array(inner + [1.0]), np.array(inner + [0.0])
    xl, xr = inner[:], inner[:]
    if left == "dirichlet":
        xl.append(np.nan)
        xr.append(0.0)
    if right == "dirichlet":
        xl.append(1.0)
        xr.append(np.nan)
    return np.array(xl), np.array(xr)


def trace_rows_oracle(fam: FamilySpec, kind: str, faces) -> np.ndarray:
    """Dense trace `kind` of every function of `fam`, one row per face: the
    weighted sum of the two one-sided point-value rows.  A wall face has a
    single limit: the jump there is q n, and every other kind takes that
    limit whole."""
    xl, xr = faces
    wl, wr = _TRACE_WEIGHTS[kind]
    if kind != "jump":
        wall = np.isnan(xl) | np.isnan(xr)
        wl, wr = np.where(wall, 1.0, wl), np.where(wall, 1.0, wr)
    wl = np.where(np.isnan(xl), 0.0, wl)
    wr = np.where(np.isnan(xr), 0.0, wr)
    deriv = kind.startswith("d")
    left = exact_point_values(fam, np.nan_to_num(xl), -1, deriv)
    right = exact_point_values(fam, np.nan_to_num(xr), 1, deriv)
    return wl[:, None] * left + wr[:, None] * right


def trace_oracle(row, col, row_kind, col_kind, bc, half=False, absolute=False) -> np.ndarray:
    """Face sum R_row^T R_col of the dense trace rows of the two families;
    `absolute` as in `gram_oracle`."""
    faces = _face_points(row.n, bc)
    r_row = trace_rows_oracle(row, row_kind, faces)
    r_col = trace_rows_oracle(col, col_kind, faces)
    if absolute:
        r_row, r_col = np.abs(r_row), np.abs(r_col)
    mat = r_row.T @ r_col
    return 0.5 * mat if half else mat


def variable_speed_factors(n: int, bc: tuple[str, str]):
    """(operator, dense oracle) of every factor kind the variable-speed path
    builds."""
    a, i = alpert_family(2, n), interp_family(3, "interface", n)
    nd = node_family(3, "interface", n)
    x, sides = make_interp_basis(3, "interface").all_nodes(n)
    return [
        (assemble_mass(a, i), gram_oracle(a, i, False, False)),
        (assemble_volume_derivative(a, i), gram_oracle(a, i, True, False)),
        (assemble_trace(a, i, "jump", "avg", bc), trace_oracle(a, i, "jump", "avg", bc)),
        (assemble_trace(a, i, "davg", "jump", bc), trace_oracle(a, i, "davg", "jump", bc)),
        (
            assemble_trace(a, i, "dminus", "jump", bc, True),
            trace_oracle(a, i, "dminus", "jump", bc, True),
        ),
        (assemble_trace(a, a, "jump", "jump", bc), trace_oracle(a, a, "jump", "jump", bc)),
        (assemble_node_values(nd, a), point_values(a, x, sides)),
        (assemble_node_values(nd, a, True), point_values(a, x, sides, True)),
        (assemble_node_values(nd, a, False, -1), point_values(a, x, -1)),
        (node_values(nd, i), point_values(i, x, sides)),
    ]


def lower_mask(row, col):
    """True at the entries whose output level is >= their input level."""
    out = np.repeat(np.arange(row.n + 1), [row.level_size(b) for b in range(row.n + 1)])
    inp = np.repeat(np.arange(col.n + 1), [col.level_size(a) for a in range(col.n + 1)])
    return out[:, None] >= inp


@lru_cache(maxsize=None)
def assemble_stiffness(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Broken stiffness sum_cells int col' row' on the finest mesh (a pyramid form)."""
    return _cellwise(row, col, True, True)


# ---------------------------------------------------------------------------
# hierarchical families on the fine mesh


def _refine_rep(rep: np.ndarray, levels: int, pf: int) -> np.ndarray:
    """Push a per-cell modal representation `levels` times down the dyadic tree."""
    r0, r1 = two_scale(pf)
    out = rep
    for _ in range(levels):
        nxt = np.empty((2 * out.shape[0], pf + 1))
        nxt[0::2] = out @ r0.T
        nxt[1::2] = out @ r1.T
        out = nxt
    return out


def fine_matrix(fam: FamilySpec, pf: int) -> np.ndarray:
    """Expansion of a hierarchical family on the level-n fine mesh, by
    two-scale refinement of the mother wavelets.

    Returns Q with shape (2^n * (pf+1), ndof); column (level, cell, i) holds
    the local orthonormal Legendre coefficients of that basis function on
    every finest cell (zero off support).  Coefficients above the family's
    degree are exact zeros.
    """
    if pf < fam.degree:
        raise ValueError("fine degree too small")
    n, p = fam.n, fam.p
    ncf = 1 << n
    if pf > fam.degree:
        q = np.zeros((ncf, pf + 1, fam.ndof))
        q[:, :p] = fine_matrix(fam, fam.degree).reshape(ncf, p, fam.ndof)
        return q.reshape(ncf * (pf + 1), fam.ndof)
    q = np.zeros((ncf * p, fam.ndof))
    deg = fam.degree
    if fam.kind == "alpert":
        level0, mothers = np.eye(p), mother_wavelets(deg)
        scale = lambda level: 1.0  # unitary dilation keeps local coefficients
    else:
        basis = make_interp_basis(deg, fam.variant)
        level0, mothers = basis.phi, basis.mothers
        scale = lambda level: 2.0 ** (0.5 * (1 - level))
    col = 0
    for i in range(p):
        q[:, col] = _refine_rep(level0[i : i + 1], n, deg).ravel()
        col += 1
    for level in range(1, n + 1):
        for cell in range(num_cells(level)):
            for i in range(p):
                rep = _refine_rep(scale(level) * mothers[i], n - level, deg)
                # the two level-l halves of the cell, refined to level n
                start = cell * (1 << (n - level + 1)) if level > 1 else 0
                q[start * p : (start + rep.shape[0]) * p, col] = rep.ravel()
                col += 1
    return q


def mapped(quad: Quadrature1D, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a [0, 1] rule transported to [a, b]."""
    return a + (b - a) * quad.nodes, (b - a) * quad.weights


def cellwise_gauss(n: int, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights mapped to every cell of the level-n uniform mesh."""
    q = Quadrature1D.gauss(npts)
    h = 2.0**-n
    xs, ws = [], []
    for c in range(2**n):
        x, w = mapped(q, c * h, (c + 1) * h)
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


def dense_lattice_values(
    cs: CoeffSet, k: int, n: int, axes_points, absolute: bool = False
) -> np.ndarray:
    """Lattice values of an Alpert field: every level tuple contracted with
    the dense point matrices of all its cells, one axis at a time.

    With `absolute`, the same sums of absolute coefficients and point
    values: the magnitude of each value's terms, which scales its roundoff.
    """
    d = len(cs.p)
    fam = alpert_family(k, n)
    mats = [alpert_point_matrix(k, n, pts) for pts in axes_points]
    if absolute:
        mats = [np.abs(mat) for mat in mats]
    shape = tuple(len(pts) for pts in axes_points)
    out = np.zeros(shape)
    for lv, arr in cs.data.items():
        if absolute:
            arr = np.abs(arr)
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
# grids: the key-by-key reference model

Cell = tuple[int, ...]
Key = tuple[Level, Cell]


def space_masks(space: TensorSpace) -> dict[Level, np.ndarray]:
    """One cell mask per level of a space, views of its active-cell array."""
    return space.layout.views(space.active, ())


def grid_keys(grid: AdaptiveGrid) -> list[Key]:
    """The active keys of a grid in sorted order, a snapshot: the grid may
    change while a caller walks it."""
    return [
        (lv, tuple(cells))
        for lv in sorted(grid.masks)
        for cells in np.argwhere(grid.masks[lv]).tolist()
    ]


def validate_key(key: Key) -> None:
    levels, cells = key
    if len(levels) != len(cells):
        raise ValueError(f"level/cell rank mismatch: {key}")
    for l, j in zip(levels, cells):
        if not 0 <= l <= MAX_LEVEL:
            raise ValueError(f"level out of range 0..{MAX_LEVEL}: level {levels}")
        if j < 0 or j >= num_cells(l):
            raise ValueError(f"cell index out of range: level {levels}, cell {cells}")


def parent(key: Key, dim: int) -> Key | None:
    """Parent element one level down in `dim`; None when already at level 0.

    Cells halve (floor); the level 1 -> 0 step maps the single cell to 0.
    """
    levels, cells = key
    l = levels[dim]
    if l == 0:
        return None
    j = cells[dim]
    pj = 0 if l == 1 else j // 2
    return _replace(levels, dim, l - 1), _replace(cells, dim, pj)


def children(key: Key, dim: int, n_max: int) -> list[Key]:
    """Child elements one level up in `dim`, empty when level n_max is reached.

    Level 0 has the single child (1, 0); level l >= 1 cell j splits into
    cells 2j and 2j+1 of level l+1.
    """
    levels, cells = key
    l = levels[dim]
    if l >= n_max:
        return []
    j = cells[dim]
    child_cells = (0,) if l == 0 else (2 * j, 2 * j + 1)
    return [
        (_replace(levels, dim, l + 1), _replace(cells, dim, cj)) for cj in child_cells
    ]


def _replace(tup: tuple[int, ...], dim: int, value: int) -> tuple[int, ...]:
    return tup[:dim] + (value,) + tup[dim + 1 :]


def contains(grid: AdaptiveGrid, key: Key) -> bool:
    levels, cells = key
    layout = grid.layout
    if levels not in layout.levels:
        return False
    i = layout.levels.index(levels)
    shape = layout.shapes[i]
    if len(cells) != len(shape) or not all(0 <= j < s for j, s in zip(cells, shape)):
        return False
    return bool(grid.active[layout.starts[i] + np.ravel_multi_index(cells, shape)])


def is_leaf(grid: AdaptiveGrid, key: Key) -> bool:
    """No active child in any dimension."""
    return not any(
        contains(grid, child)
        for dim in range(grid.ndim)
        for child in children(key, dim, grid.n_max)
    )


def activate(grid: AdaptiveGrid, key: Key) -> None:
    """Activate `key` and any missing ancestors, one element at a time."""
    validate_key(key)
    levels = key[0]
    if max(levels) > grid.n_max:
        raise ValueError(f"level {levels} exceeds n_max={grid.n_max}")
    masks = {lv: mask.copy() for lv, mask in grid.masks.items()}
    added = 0
    stack = [key]
    while stack:
        k = stack.pop()
        lv, cells = k
        mask = masks.setdefault(lv, np.zeros(tuple(num_cells(l) for l in lv), dtype=bool))
        if mask[cells]:
            continue
        mask[cells] = True
        added += 1
        for dim in range(grid.ndim):
            par = parent(k, dim)
            if par is not None:
                stack.append(par)
    set_masks(grid, masks, added)


def deactivate(grid: AdaptiveGrid, key: Key) -> None:
    """Remove a leaf element; refuses the root and non-leaves."""
    if key == ((0,) * grid.ndim, (0,) * grid.ndim):
        raise ValueError("cannot deactivate the root element")
    if not is_leaf(grid, key):
        raise ValueError(f"cannot deactivate non-leaf element {key}")
    if contains(grid, key):
        masks = {lv: mask.copy() for lv, mask in grid.masks.items()}
        masks[key[0]][key[1]] = False
        set_masks(grid, masks, 1)


def set_masks(grid: AdaptiveGrid, masks: dict[Level, np.ndarray], changed: int) -> None:
    """Install per-level cell masks, `changed` cells away from the grid's
    active set, as the grid's layout and active-cell array."""
    levels = tuple(sorted(lv for lv, mask in masks.items() if mask.any()))
    active = np.concatenate([masks[lv].ravel() for lv in levels])
    grid.commit(level_layout(levels), active, changed)


def level_norms(space: TensorSpace, fields: list[CoeffSet]) -> dict[Level, np.ndarray]:
    """Per-element root-sum-square of the fields' blocks, level by level."""
    d = space.ndim
    out = {}
    for lv in space.levels:
        acc = None
        for f in fields:
            sq = np.add.reduce(f.data[lv] ** 2, axis=tuple(range(d, 2 * d)))
            acc = sq if acc is None else acc + sq
        out[lv] = np.sqrt(acc)
    return out


def _flagged(space: TensorSpace, norms, predicate) -> list[Key]:
    keys = []
    masks = space_masks(space)
    for lv in space.levels:
        hits = predicate(norms[lv]) & masks[lv]
        for cells in zip(*np.nonzero(hits)):
            keys.append((lv, tuple(int(c) for c in cells)))
    return keys


def key_refine(grid: AdaptiveGrid, space: TensorSpace, norms, eps: float) -> bool:
    """Activate the children (every dimension) of elements above `eps`."""
    changed = False
    for key in _flagged(space, norms, lambda a: a > eps):
        for dim in range(grid.ndim):
            for child in children(key, dim, grid.n_max):
                if not contains(grid, child):
                    activate(grid, child)
                    changed = True
    return changed


def key_coarsen(grid: AdaptiveGrid, space: TensorSpace, norms, eta: float) -> bool:
    """Repeatedly drop leaf elements below `eta` until none is left; never the root."""
    root = ((0,) * grid.ndim, (0,) * grid.ndim)
    small = set(_flagged(space, norms, lambda a: a < eta))
    small.discard(root)
    changed = False
    while True:
        removable = [k for k in small if contains(grid, k) and is_leaf(grid, k)]
        if not removable:
            return changed
        for key in removable:
            deactivate(grid, key)
            small.discard(key)
            changed = True


def random_pruning(ndim: int, n_max: int, seed: int, steps: int = 40) -> AdaptiveGrid:
    """Grow a random downward-closed active set by repeated child activation."""
    rng = np.random.default_rng(seed)
    grid = AdaptiveGrid(ndim, n_max)
    for _ in range(steps):
        keys = grid_keys(grid)
        key = keys[int(rng.integers(len(keys)))]
        dim = int(rng.integers(ndim))
        kids = children(key, dim, n_max)
        if kids:
            activate(grid, kids[int(rng.integers(len(kids)))])
    return grid


# ---------------------------------------------------------------------------
# output-text oracles: the CLI's files written one element or row at a time


def element_center(key: Key) -> tuple[float, ...]:
    levels, cells = key
    return tuple(
        (j + 0.5) * cell_width(l) if l >= 1 else 0.5 for l, j in zip(levels, cells)
    )


def center_lines(grid: AdaptiveGrid) -> list[str]:
    """What `AdaptiveGrid.dump_centers` writes: levels, cells and centers
    of each element, in `grid_keys` order."""
    lines = []
    for levels, cells in grid_keys(grid):
        center = element_center((levels, cells))
        fields = [str(v) for v in levels + cells] + [f"{c:.8f}" for c in center]
        lines.append(" ".join(fields))
    return lines


def slice_text(axes, vals: np.ndarray, echo=()) -> str:
    """What a slice file holds: a CSV row of coordinates and value per
    lattice point, each number through `fmt`."""
    header = [f"x{i + 1}" for i in range(len(axes))] + ["u"]
    rows = []
    for idx in np.ndindex(vals.shape):
        coords = [axes[i][idx[i]] for i in range(len(axes))]
        rows.append(coords + [vals[idx]])
    lines = [f"# {line}" for line in echo]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep set-up one fiber and one level at a time: the solver builds both by
# whole arrays


def fiber_order(layout, dim: int, p: tuple[int, ...], dense: bool):
    """`fastmv._order`, one index block per (fiber, level): each level's
    buffer indices, transposed to put `dim` first (dense groups) or last
    (cascaded levels), concatenated in fiber order."""
    d, q = len(p), math.prod(p)
    where = dict(zip(layout.levels, zip(layout.starts, layout.shapes)))
    front = (dim, d + dim) + tuple(j for j in range(2 * d) if j not in (dim, d + dim))
    back = front[2:] + front[:2]

    def block(rest: Level, a: int, axes) -> np.ndarray:
        start, cells = where[rest[:dim] + (a,) + rest[dim:]]
        idx = np.arange(q * start, q * (start + math.prod(cells)))
        return idx.reshape(cells + p).transpose(axes)

    def rows(rest: Level, top: int) -> np.ndarray:
        blocks = [block(rest, a, front) for a in range(top + 1)]
        return np.concatenate([b.reshape(b.shape[0] * b.shape[1], -1) for b in blocks])

    tops: dict[Level, int] = {}
    for lv in layout.levels:
        rest = lv[:dim] + lv[dim + 1 :]
        tops[rest] = max(tops.get(rest, 0), lv[dim])
    short = {r: a for r, a in tops.items() if dense and p[dim] << a <= fastmv.DENSE_ENTRIES}
    parts, groups, counts = [], [], []
    for top, rests in itertools.groupby(sorted(short, key=lambda r: (short[r], r)), key=short.get):
        x = np.concatenate([rows(r, top) for r in rests], axis=1)
        groups.append((*x.shape, sum(map(len, parts))))
        parts.append(x.ravel())
    long = sorted((r for r in tops if r not in short), key=lambda r: (-tops[r], r))
    for a in range(tops[long[0]] + 1 if long else 0):
        level = [block(r, a, back).ravel() for r in long if tops[r] >= a]
        counts.append(sum(map(len, level)) // (p[dim] * num_cells(a)))
        parts += level
    return np.concatenate(parts), tuple(groups), tuple(counts)


def probed_by_level(form, depth: int) -> np.ndarray:
    """`operators1d._probed`, one lower cascade per input level a over its
    coloured probes, scattered one output level b at a time."""
    fam, p = form.row, form.row.p
    size = fam.level_offset(depth + 1)
    mat = np.zeros((size, size))
    for a in range(depth + 1):
        cells = num_cells(a)
        colours = min(4, cells)
        fibers = colours * p
        x = np.zeros(fibers * size)
        probe = x[fibers * fam.level_offset(a) : fibers * fam.level_offset(a + 1)]
        probe = probe.reshape(colours, p, cells // colours, colours, p)
        probe[np.arange(colours), :, :, np.arange(colours)] = np.eye(p)[:, None]
        y = form.cascade("lower", x, Chains((fibers,) * (depth + 1)))
        for b in range(a, depth + 1):
            ancestor = np.arange(num_cells(b)) >> (b - a)
            d = (np.arange(colours)[:, None] - ancestor + 1) % colours - 1
            r, cell = np.nonzero(d <= 1)
            col = (ancestor[cell] + d[r, cell]) % cells
            out = y[fibers * fam.level_offset(b) : fibers * fam.level_offset(b + 1)]
            vals = out.reshape(colours, p, -1, p)[r, :, cell].transpose(0, 2, 1)
            rows = (fam.level_offset(b) + p * cell[:, None] + np.arange(p))[:, :, None]
            cols = (fam.level_offset(a) + p * col[:, None] + np.arange(p))[:, None]
            mat[rows, cols] = vals
            if b > a:
                mat[cols, rows] = vals
    return mat


# ---------------------------------------------------------------------------
# dense tensor-operator oracle


def space_layout(space: TensorSpace, p: tuple[int, ...]):
    """Per-level (offset, block shape) in a flat global vector."""
    offsets, total = {}, 0
    for lv, shape in zip(space.levels, space.layout.shapes):
        shape = shape + tuple(p)
        offsets[lv] = (total, shape)
        total += int(np.prod(shape))
    return offsets, total


def flatten(space: TensorSpace, cs: CoeffSet) -> np.ndarray:
    offsets, total = space_layout(space, cs.p)
    out = np.zeros(total)
    for lv, (off, shape) in offsets.items():
        arr = cs.data[lv]
        out[off : off + arr.size] = arr.ravel()
    return out


def _active_mask_flat(space: TensorSpace, lv, p: tuple[int, ...]) -> np.ndarray:
    m = space_masks(space)[lv]
    return np.broadcast_to(
        m.reshape(m.shape + (1,) * len(p)), m.shape + tuple(p)
    ).ravel()


def _level_blocks(op: Operator1D | None, levels, p: int) -> dict:
    """The nonzero level blocks of a 1D factor, read from `dense(op)`, by
    (output level, input level), each as a (cells, p_out, cells, p_in)
    array; an absent factor is the identity."""
    out = {}
    for lo in levels:
        for li in levels:
            if op is None:
                size = num_cells(li) * p
                block = np.eye(size) if lo == li else np.zeros((0, size))
            else:
                block = dense(op)[op.row.level_slice(lo), op.col.level_slice(li)]
            if block.any():
                cells = num_cells(lo), num_cells(li)
                out[lo, li] = block.reshape(cells[0], -1, cells[1], block.shape[1] // cells[1])
    return out


def dense_apply(
    terms: list[TensorTerm], space: TensorSpace, p_in: tuple[int, ...], x: np.ndarray
) -> np.ndarray:
    """sum(scale * kron(ops)) restricted to the active set, times the flat
    vector x (or each column of x).

    Entries are read straight from `dense(op)` level blocks; tags, sweep order,
    and the L+U expansion are never consulted, so the result is an
    independent reference for the fast apply.  A level pair's block is the
    outer product of the factors' level blocks, each on its own axes of the
    (cells, polys) x (cells, polys) layout of the two levels.  Each block
    multiplies x as it is formed, so the matrix of the whole space is never
    held; inactive rows and columns count as zero, as in that matrix.
    """
    d = space.ndim
    p_out = tuple(
        (op.row.p if op is not None else q) for op, q in zip(terms[0].ops, p_in)
    )
    off_in, tot_in = space_layout(space, p_in)
    off_out, tot_out = space_layout(space, p_out)
    row_mask = np.concatenate(
        [_active_mask_flat(space, lv, p_out) for lv in space.levels]
    )
    col_mask = np.concatenate(
        [_active_mask_flat(space, lv, p_in) for lv in space.levels]
    )
    assert len(x) == tot_in
    x = x.copy()
    x[~col_mask] = 0.0
    out = np.zeros((tot_out,) + x.shape[1:])
    for term in terms:
        levels = [sorted({lv[m] for lv in space.levels}) for m in range(d)]
        blocks = [_level_blocks(op, levels[m], p_in[m]) for m, op in enumerate(term.ops)]
        for lvo in space.levels:
            oo, so = off_out[lvo]
            for lvi in space.levels:
                parts = [blocks[m].get((lvo[m], lvi[m])) for m in range(d)]
                if any(part is None for part in parts):
                    continue
                block = term.scale
                for m, part in enumerate(parts):  # axes m, d + m, 2d + m, 3d + m
                    shape = [1] * (4 * d)
                    shape[m :: d] = part.shape
                    block = block * part.reshape(shape)
                oi, si = off_in[lvi]
                rows, cols = int(np.prod(so)), int(np.prod(si))
                out[oo : oo + rows] += block.reshape(rows, cols) @ x[oi : oi + cols]
    out[~row_mask] = 0.0
    return out


def csq_values(csq, xs, sides) -> np.ndarray:
    """c^2 at broadcastable coordinate and side arrays, a constant speed
    broadcast to their shape (the solver never samples a constant speed)."""
    if csq.is_constant:
        return np.broadcast_to(csq.constant, np.broadcast(*xs).shape).copy()
    return csq(xs, sides)


def csq_at_nodes_broadcast(cfg, space: TensorSpace, force) -> np.ndarray:
    """`WaveOperator._csq_at_nodes` with every coordinate and side array
    broadcast to its level's full block shape before c^2 sees it."""
    basis = make_interp_basis(cfg.m, cfg.variant)
    vals = space.zeros((cfg.m + 1,) * cfg.ndim)
    for lv, view in vals.data.items():
        tables = [basis.level_nodes(l) for l in lv]
        coords = [c for c, _ in tables]
        sides = [s for _, s in tables]
        if force is not None:
            m, side = force
            inner = (coords[m] > 0.0) & (coords[m] < 1.0)
            sides[m] = np.where(inner, side, sides[m])
        xs = np.broadcast_arrays(*fastmv.on_level(coords))
        ss = np.broadcast_arrays(*fastmv.on_level(sides))
        view[...] = cfg.csq(xs, ss)
    return vals.buf


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
