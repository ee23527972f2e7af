"""Dense 1D operator blocks in hierarchical multiwavelet coordinates.

Every hierarchical function is piecewise polynomial on the finest dyadic
mesh, and `fine_matrix` holds its local orthonormal Legendre coefficients on
each finest cell.  Every operator is built from those coefficients in one of
two ways, exactly up to roundoff:

* volume terms (mass, stiffness, volume derivative) are cellwise tables:
  one reference-cell table applied to each finest cell's block;
* face terms (traces, node values, boundary data) are products of one-sided
  point values from `point_values`; a trace is R_row^T R_col with one row of
  R per face.

Operators carry block-triangularity metadata with respect to the level-major
ordering (level 0 first; within a level, cells then polynomial index).  Rows
are the test/output family, columns the trial/input family; "lower" means
output level >= input level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .alpert import (
    Quadrature1D,
    legendre_derivs,
    legendre_values,
    mother_wavelets,
    two_scale,
)
from .grids import num_cells
from .interp import make_interp_basis

_TAGS = ("diag", "lower", "strictly-upper", "general")


@dataclass(frozen=True)
class FamilySpec:
    """Index layout of one 1D hierarchical family (degree, levels, layout)."""

    kind: str  # 'alpert' | 'interp' | 'nodes' (nodes share the interp layout)
    degree: int
    n: int
    variant: str = ""

    @property
    def p(self) -> int:
        return self.degree + 1

    @property
    def ndof(self) -> int:
        return self.p << self.n if self.n else self.p

    def level_offset(self, level: int) -> int:
        return 0 if level == 0 else self.p * (1 << (level - 1))

    def level_size(self, level: int) -> int:
        return self.p * num_cells(level)

    def level_slice(self, level: int) -> slice:
        off = self.level_offset(level)
        return slice(off, off + self.level_size(level))


def alpert_family(k: int, n: int) -> FamilySpec:
    return FamilySpec("alpert", k, n)


def interp_family(m: int, variant: str, n: int) -> FamilySpec:
    return FamilySpec("interp", m, n, variant)


def node_family(m: int, variant: str, n: int) -> FamilySpec:
    return FamilySpec("nodes", m, n, variant)


@dataclass
class Operator1D:
    """Dense hierarchical operator; every level block outside its tag is 0."""

    mat: np.ndarray
    row: FamilySpec
    col: FamilySpec
    tag: str

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown triangularity tag {self.tag!r}")


def _zero_upper(mat: np.ndarray, row: FamilySpec, col: FamilySpec) -> np.ndarray:
    """Zero, in place, every block whose output level is below its input level."""
    for a in range(1, col.n + 1):
        mat[: row.level_offset(a), col.level_slice(a)] = 0.0
    return mat


def lu_split(op: Operator1D) -> tuple[Operator1D, Operator1D]:
    """Split into L (output level >= input level) plus strictly-upper U.

    The two parts reconstruct `op.mat` exactly; they share no blocks.
    """
    lmat = _zero_upper(op.mat.copy(), op.row, op.col)
    low = Operator1D(lmat, op.row, op.col, "lower")
    up = Operator1D(op.mat - lmat, op.row, op.col, "strictly-upper")
    return low, up


# ---------------------------------------------------------------------------
# finest-mesh representations


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


@lru_cache(maxsize=None)
def fine_matrix(fam: FamilySpec, pf: int) -> np.ndarray:
    """Expansion of the hierarchical family on the level-N fine mesh.

    Returns Q with shape (2^N * (pf+1), ndof); column (level, cell, i) holds
    the local orthonormal Legendre coefficients of that basis function on
    every finest cell (zero off support).  pf >= degree is required.
    """
    if fam.kind == "nodes":
        raise ValueError("node layouts have no fine representation")
    if pf < fam.degree:
        raise ValueError("fine degree too small")
    n, p = fam.n, fam.p
    ncf = 1 << n
    q = np.zeros((ncf * (pf + 1), p << n if n else p))

    if fam.kind == "alpert":
        level0 = np.eye(p, pf + 1)  # orthonormal Legendre, padded
        mothers = mother_wavelets(fam.degree)
        scale = lambda level: 1.0  # unitary dilation keeps local coefficients
    else:
        basis = make_interp_basis(fam.degree, fam.variant)
        level0 = np.zeros((p, pf + 1))
        level0[:, :p] = basis.phi
        mothers = basis.mothers
        scale = lambda level: 2.0 ** (0.5 * (1 - level))

    col = 0
    for i in range(p):
        rep = _refine_rep(level0[i : i + 1], n, pf)
        q[:, col] = rep.ravel()
        col += 1
    for level in range(1, n + 1):
        s = scale(level)
        for cell in range(num_cells(level)):
            for i in range(p):
                piece = np.zeros((2, pf + 1))
                piece[0, :p] = s * mothers[i, 0]
                piece[1, :p] = s * mothers[i, 1]
                rep = _refine_rep(piece, n - level, pf)
                # support cells of (level, cell): the two level-l halves of
                # cell (level-1, cell) refined to level n
                start = cell * (1 << (n - level + 1)) if level > 1 else 0
                rows = slice(
                    start * (pf + 1), (start + rep.shape[0]) * (pf + 1)
                )
                q[rows, col] = rep.ravel()
                col += 1
    assert col == q.shape[1]
    return q


@lru_cache(maxsize=None)
def _ref_volume_tables(pf: int) -> dict[str, tuple[np.ndarray, int]]:
    """Reference-cell tables with the power of 2^N a level-N cell scales them by.

    mass: identity; stiffness: S~[p,q] = int P~'_p P~'_q; derivative:
    K~[p,q] = int P~'_p P~_q.
    """
    quad = Quadrature1D.gauss(pf + 2)
    v = legendre_values(pf, quad.nodes)
    d = legendre_derivs(pf, quad.nodes)
    s = np.einsum("x,xp,xq->pq", quad.weights, d, d)
    kk = np.einsum("x,xp,xq->pq", quad.weights, d, v)
    return {"mass": (np.eye(pf + 1), 0), "stiffness": (s, 2), "derivative": (kk, 1)}


def _cellwise(row: FamilySpec, col: FamilySpec, name: str) -> Operator1D:
    """Sum over finest cells of Q_row^T (table Q_col) for one reference table."""
    pf = max(row.degree, col.degree)
    table, power = _ref_volume_tables(pf)[name]
    ncf = 1 << row.n
    qc = fine_matrix(col, pf).reshape(ncf, pf + 1, col.ndof)
    tq = (ncf**power * table) @ qc
    mat = fine_matrix(row, pf).T @ tq.reshape(ncf * (pf + 1), col.ndof)
    return Operator1D(mat, row, col, "general")


@lru_cache(maxsize=None)
def assemble_mass(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Exact L2 pairing of two families; Alpert x Alpert is the identity."""
    if row == col and row.kind == "alpert":
        return Operator1D(np.eye(row.ndof), row, col, "diag")
    return _cellwise(row, col, "mass")


@lru_cache(maxsize=None)
def assemble_stiffness(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Broken stiffness sum_cells int col' row' on the finest mesh."""
    return _cellwise(row, col, "stiffness")


@lru_cache(maxsize=None)
def assemble_volume_derivative(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Entries sum_cells int col_b * row_a' (test differentiated)."""
    return _cellwise(row, col, "derivative")


# ---------------------------------------------------------------------------
# point values and face traces


def point_values(fam: FamilySpec, x, sides, deriv: bool = False) -> np.ndarray:
    """Value (derivative with `deriv`) of every function of `fam` at the
    points x in [0, 1], shape (len(x), ndof).

    Each point gathers its finest cell's block of `fine_matrix`.  At a dyadic
    breakpoint a negative side takes the left cell and any other side the
    right cell; the domain ends clip to the first and last cell whatever
    their side.
    """
    pf = fam.degree
    ncf = 1 << fam.n
    t = np.asarray(x, dtype=float) * ncf
    cell = np.floor(t).astype(int)
    cell = np.where((t == cell) & (np.asarray(sides) < 0), cell - 1, cell)
    cell = np.clip(cell, 0, ncf - 1)
    if deriv:
        vals = ncf**1.5 * legendre_derivs(pf, t - cell)
    else:
        vals = ncf**0.5 * legendre_values(pf, t - cell)
    q = fine_matrix(fam, pf).reshape(ncf, pf + 1, fam.ndof)
    out = np.empty((cell.size, fam.ndof))
    order = np.argsort(cell, kind="stable")
    for at in np.split(order, np.flatnonzero(np.diff(cell[order])) + 1):
        # one product per cell: no (points, pf+1, ndof) gather is built
        out[at] = vals[at] @ q[cell[at[0]]]
    return out


# (left, right) weight of the one-sided limits on a two-sided face
_TRACE_WEIGHTS = {
    "jump": (1.0, -1.0),
    "avg": (0.5, 0.5),
    "davg": (0.5, 0.5),
    "dminus": (1.0, 0.0),
    "dplus": (0.0, 1.0),
}


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


def _trace_rows(fam: FamilySpec, kind: str, faces) -> np.ndarray:
    """Trace `kind` of every function of `fam`, one row per face.

    A wall face has a single limit: the jump there is q n, and every other
    kind takes that limit whole.
    """
    xl, xr = faces
    wl, wr = _TRACE_WEIGHTS[kind]
    if kind != "jump":
        wall = np.isnan(xl) | np.isnan(xr)
        wl, wr = np.where(wall, 1.0, wl), np.where(wall, 1.0, wr)
    wl = np.where(np.isnan(xl), 0.0, wl)
    wr = np.where(np.isnan(xr), 0.0, wr)
    deriv = kind.startswith("d")
    left = point_values(fam, np.nan_to_num(xl), -1, deriv)
    right = point_values(fam, np.nan_to_num(xr), 1, deriv)
    return wl[:, None] * left + wr[:, None] * right


@lru_cache(maxsize=None)
def assemble_trace(
    row: FamilySpec,
    col: FamilySpec,
    row_kind: str,
    col_kind: str,
    bc: tuple[str, str],
    half: bool = False,
) -> Operator1D:
    """Face sum of outer products row_kind(test) x col_kind(trial) over all
    finest-mesh interfaces selected by the boundary condition pair.

    `half` scales by 1/2 (the one-sided derivative pairings enter the scheme
    with that weight).
    """
    faces = _face_points(row.n, bc)
    mat = _trace_rows(row, row_kind, faces).T @ _trace_rows(col, col_kind, faces)
    if half:
        mat *= 0.5
    return Operator1D(mat, row, col, "general")


@lru_cache(maxsize=None)
def assemble_node_values(
    rows: FamilySpec, col: FamilySpec, deriv: bool = False, force_side: int = 0
) -> Operator1D:
    """Values (or derivatives) of the column family at the hierarchical nodes.

    A nonzero `force_side` replaces every node's side tag, which samples both
    one-sided limits across coefficient-jump planes (the domain ends keep
    their cell, see `point_values`).  With col = the matching interp family,
    deriv=False and no side forcing this is the interpolation system: unit
    lower triangular by the delta property, so the roundoff in its strictly
    upper blocks is dropped.
    """
    if rows.kind != "nodes":
        raise ValueError("row family must be a node layout")
    nodes = make_interp_basis(rows.degree, rows.variant).all_nodes(rows.n)
    x, sides = np.array(nodes, dtype=float).T
    if force_side:
        sides = np.full_like(sides, force_side)
    mat = point_values(col, x, sides, deriv)
    same = col.kind == "interp" and (col.degree, col.variant) == (
        rows.degree,
        rows.variant,
    )
    if same and not deriv and not force_side:
        return Operator1D(_zero_upper(mat, rows, col), rows, col, "lower")
    return Operator1D(mat, rows, col, "general")


@lru_cache(maxsize=None)
def assemble_node_to_surplus(nodes: FamilySpec) -> Operator1D:
    """Inverse of the interpolation system: node values -> surpluses.

    The inverse of a unit lower triangular matrix is unit lower triangular,
    so the roundoff `inv` leaves in its strictly upper blocks is dropped.
    """
    fam = interp_family(nodes.degree, nodes.variant, nodes.n)
    e = assemble_node_values(nodes, fam)
    return Operator1D(_zero_upper(np.linalg.inv(e.mat), fam, nodes), fam, nodes, "lower")


@lru_cache(maxsize=None)
def boundary_vectors(fam: FamilySpec, side: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided endpoint value and derivative of every basis function.

    Returns ``(values, derivatives)`` at x=0 (side 0, right limits) or x=1
    (side 1, left limits).  These are the ingredients of weakly imposed
    boundary data: a Dirichlet load pairs the prescribed trace with
    ``n c^2 (d/dn) v + (sigma/h) v`` on the boundary face.
    """
    x = np.array([float(side)])
    sides = 1 - 2 * side  # right limit at x = 0, left limit at x = 1
    return point_values(fam, x, sides)[0], point_values(fam, x, sides, deriv=True)[0]
