"""1D operator blocks in hierarchical multiwavelet coordinates.

A level-l function is one polynomial on each half of its cell, so a point
meets p functions per level; `level_values` evaluates them on the point's
own level cell.  Every operator is a sum of entry blocks (rows, columns,
values), and a block forms only products that can be nonzero:

* volume terms (mass, stiffness, volume derivative): exact Gauss
  quadrature, batched over the cells of one level (`_volume_blocks`);
* face terms (traces): outer products of one-sided limits whose shared
  columns are summed first, so a jump inside a level's half is an exact
  zero, batched over the faces of one depth (`_face_traces`);
* point values (node values, boundary data): (n + 1) p entries per row;
* the node-to-surplus map: an exact local stencil
  (`assemble_node_to_surplus`).

Storage is fixed per assembler.  The constant-speed IPDG matrix of one
dimension, c2 (S - T - T^T) + penalty J, is one dense sum of volume and face
blocks (`assemble_ipdg`), and constant speed never imports scipy.  Every
factor of the variable-speed pipeline (mass, volume derivative, traces, node
values, node-to-surplus and the `lu_split` halves) is a scipy CSR matrix
built from its entry blocks, with no dense intermediate.  `point_values` is
a dense table, for the boundary data and the tests.

Operators carry block-triangularity metadata with respect to the level-major
ordering (level 0 first; within a level, cells then polynomial index).  Rows
are the test/output family, columns the trial/input family; "lower" means
output level >= input level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .alpert import Quadrature1D, legendre_derivs, legendre_values, mother_wavelets
from .grids import num_cells
from .interp import make_interp_basis

_TAGS = ("lower", "strictly-upper", "general")


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


@dataclass(eq=False)
class Operator1D:
    """Hierarchical operator; every level block outside its tag is 0.

    `mat` is a dense array for the constant-speed IPDG matrix and a scipy
    CSR matrix for every other operator.  Its structural zeros are exact:
    entries no point, face or stencil touches are never stored.
    """

    mat: object
    row: FamilySpec
    col: FamilySpec
    tag: str
    _blocks: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown triangularity tag {self.tag!r}")

    def block(self, rows: int, cols: int):
        """The leading rows x cols block of `mat`; CSR slices are cached."""
        if isinstance(self.mat, np.ndarray):
            return self.mat[:rows, :cols]
        hit = self._blocks.get((rows, cols))
        if hit is None:
            hit = self._blocks[rows, cols] = self.mat[:rows, :cols]
        return hit


def _csr(data: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
    """CSR matrix of coordinate entries; repeated entries add, exact zeros go.

    scipy is imported here, so only a CSR assembly loads it.
    """
    from scipy import sparse

    mat = sparse.csr_array((data, (rows, cols)), shape=shape)
    mat.eliminate_zeros()
    # the conversion sizes its arrays by the entries before they were summed
    return mat.copy()


def _lower(mat, row: FamilySpec, col: FamilySpec):
    """The blocks of CSR `mat` whose output level is >= their input level."""
    bound = np.repeat(
        [col.level_offset(a + 1) for a in range(row.n + 1)],
        [row.level_size(a) for a in range(row.n + 1)],
    )
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    keep = mat.indices < bound[rows]
    return _csr(mat.data[keep], rows[keep], mat.indices[keep], mat.shape)


def lu_split(op: Operator1D) -> tuple[Operator1D, Operator1D]:
    """Split a CSR operator into L (output level >= input level) plus
    strictly-upper U, both CSR.

    The two parts reconstruct `op.mat` exactly; they share no blocks.
    """
    lmat = _lower(op.mat, op.row, op.col)
    low = Operator1D(lmat, op.row, op.col, "lower")
    up = Operator1D(op.mat - lmat, op.row, op.col, "strictly-upper")
    return low, up


# ---------------------------------------------------------------------------
# point values


def level_values(
    fam: FamilySpec, level: int, x: np.ndarray, sides=1, deriv: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Level-`level` cell of each point and the p values there of that
    cell's functions (derivatives with `deriv`), shape (len(x), p).

    At a level-l breakpoint a negative side takes the half to its left and
    any other side the half to its right; the domain ends clip to the first
    and last half.  On the half that holds x, level-l function i (l >= 1) is
    c_l times the Legendre expansion of mother i on that half, in the half's
    local coordinate: c_l = 2^(l/2) for Alpert (unitary dilation) and
    sqrt(2) for the interpolatory family, whose functions keep value 1 at
    their node.
    """
    x = np.asarray(x, dtype=float)
    halves = 1 << level
    t = x * halves
    half = np.floor(t).astype(int)
    half = np.where((t == half) & (np.asarray(sides) < 0), half - 1, half)
    half = np.clip(half, 0, halves - 1)
    if deriv:
        leg = halves * legendre_derivs(fam.degree, t - half)
    else:
        leg = legendre_values(fam.degree, t - half)
    if fam.kind == "alpert":
        if level == 0:
            return half, leg
        pieces = 2.0 ** (0.5 * level) * mother_wavelets(fam.degree)  # [i, half, q]
    else:
        basis = make_interp_basis(fam.degree, fam.variant)
        if level == 0:
            return half, leg @ basis.phi.T
        pieces = np.sqrt(2.0) * basis.mothers
    right = (half & 1).astype(bool)[:, None]
    return half >> 1, np.where(right, leg @ pieces[:, 1].T, leg @ pieces[:, 0].T)


def _level_cols(fam: FamilySpec, level: int, cell: np.ndarray) -> np.ndarray:
    """Columns of the p functions of each given level-`level` cell, shape
    cell.shape + (p,)."""
    return fam.level_offset(level) + fam.p * cell[..., None] + np.arange(fam.p)


def _entries(blocks, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions (row * ncols + col) and values of entry blocks (rows,
    cols, values) whose index arrays broadcast against the values."""
    flat, vals = [np.zeros(0, int)], [np.zeros(0)]
    for r, c, v in blocks:
        flat.append(np.broadcast_to(r * ncols + c, v.shape).ravel())
        vals.append(v.ravel())
    return np.concatenate(flat), np.concatenate(vals)


def _matrix(blocks, shape: tuple[int, int]):
    """CSR sum of entry blocks; repeated positions add, and positions no
    block names are exact zeros."""
    flat, vals = _entries(blocks, shape[1])
    return _csr(vals, *np.divmod(flat, shape[1]), shape)


def _point_entries(
    fam: FamilySpec, x: np.ndarray, sides, deriv: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Column and value of every function of `fam` that can be nonzero at
    each point: two arrays of shape (len(x), (n + 1) p), one level after
    another."""
    cols, vals = [], []
    for level in range(fam.n + 1):
        cell, v = level_values(fam, level, x, sides, deriv)
        cols.append(_level_cols(fam, level, cell))
        vals.append(v)
    return np.hstack(cols), np.hstack(vals)


def point_values(fam: FamilySpec, x, sides, deriv: bool = False) -> np.ndarray:
    """Value (derivative with `deriv`) of every function of `fam` at the
    points x in [0, 1], a dense (len(x), ndof) array; sides as in
    `level_values`.

    Left and right limits at a point inside a level's half are bit for bit
    equal, so jumps of the functions smooth there are exact zeros.
    """
    cols, vals = _point_entries(fam, x, sides, deriv)
    out = np.zeros((len(x), fam.ndof))
    out[np.arange(len(x))[:, None], cols] += vals  # a row's columns are distinct
    return out


# ---------------------------------------------------------------------------
# volume terms


def _volume_blocks(row: FamilySpec, col: FamilySpec, drow: bool, dcol: bool):
    """Entry blocks of the Gauss-quadrature pairing of the row and column
    functions on every finest cell, each differentiated when its flag is set.

    max(degree) + 1 points per cell integrate every product exactly.  The
    points are sorted, so the points of each cell of level f are contiguous,
    and there every function of a level <= f is one polynomial.  Level f
    therefore gives two batched products over its cells: row level f against
    column levels 0..f, and row levels 0..f-1 against column level f.
    """
    quad = Quadrature1D.gauss(max(row.degree, col.degree) + 1)
    ncf = 1 << row.n
    x = ((np.arange(ncf)[:, None] + quad.nodes) / ncf).ravel()
    w = np.tile(quad.weights / ncf, ncf)[:, None]
    ccols, cvals = _point_entries(col, x, 1, dcol)
    rcols, rvals = (ccols, cvals)
    if (row, drow) != (col, dcol):
        rcols, rvals = _point_entries(row, x, 1, drow)
    rvals = w * rvals
    pr, pc = row.p, col.p
    for f in range(row.n + 1):
        cells = num_cells(f)
        per = len(x) // cells  # points per cell
        pairs = [(slice(f * pr, (f + 1) * pr), slice((f + 1) * pc))]
        if f:
            pairs.append((slice(f * pr), slice(f * pc, (f + 1) * pc)))
        for r, c in pairs:
            vals = np.matmul(
                rvals[:, r].reshape(cells, per, -1).transpose(0, 2, 1),
                cvals[:, c].reshape(cells, per, -1),
            )
            yield rcols[::per, r][:, :, None], ccols[::per, c][:, None, :], vals


def _cellwise(row: FamilySpec, col: FamilySpec, drow: bool, dcol: bool) -> Operator1D:
    """The volume pairing of `_volume_blocks` as a CSR operator."""
    mat = _matrix(_volume_blocks(row, col, drow, dcol), (row.ndof, col.ndof))
    return Operator1D(mat, row, col, "general")


@lru_cache(maxsize=None)
def assemble_mass(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Exact L2 pairing of two families."""
    return _cellwise(row, col, False, False)


@lru_cache(maxsize=None)
def assemble_volume_derivative(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Entries sum_cells int col_b * row_a' (test differentiated)."""
    return _cellwise(row, col, True, False)


# ---------------------------------------------------------------------------
# face traces


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


def _face_traces(fam: FamilySpec, kind: str, faces) -> list[tuple[np.ndarray, np.ndarray]]:
    """Trace `kind` of the functions of `fam` at the faces, per group of
    faces: columns and values, (faces of the group, width), of the entries
    nonzero at some face of the group.

    Per level, a face holds the p functions of its left limit's cell, then
    those of its right limit's; where both lie in one cell their values are
    summed into the left entries, so a jump inside a level's half is an
    exact zero.  Interior faces of one depth (the coarsest level breaking
    there) meet every level alike and form one group; the wall or wrap
    faces form the last.  A wall face has a single limit: the jump there is
    q n, and every other kind takes that limit whole.
    """
    xl, xr = faces
    wl, wr = _TRACE_WEIGHTS[kind]
    if kind != "jump":
        wall = np.isnan(xl) | np.isnan(xr)
        wl, wr = np.where(wall, 1.0, wl), np.where(wall, 1.0, wr)
    wl = np.where(np.isnan(xl), 0.0, wl)[:, None]
    wr = np.where(np.isnan(xr), 0.0, wr)[:, None]
    deriv = kind.startswith("d")
    cols, vals = [], []
    for level in range(fam.n + 1):
        cl, vl = level_values(fam, level, np.nan_to_num(xl), -1, deriv)
        cr, vr = level_values(fam, level, np.nan_to_num(xr), 1, deriv)
        vl, vr = wl * vl, wr * vr
        same = (cl == cr)[:, None]
        cols += [_level_cols(fam, level, cl), _level_cols(fam, level, cr)]
        vals += [np.where(same, vl + vr, vl), np.where(same, 0.0, vr)]
    cols, vals = np.hstack(cols), np.hstack(vals)
    inner = np.arange(1, 1 << fam.n)
    lowbit = inner & -inner  # 2^t at an odd multiple of 2^(t - n): depth n - t
    groups = [np.flatnonzero(lowbit == 1 << t) for t in range(fam.n)]
    groups.append(np.arange(len(inner), len(xl)))
    out = []
    for g in groups:
        keep = vals[g].any(axis=0)
        out.append((cols[g][:, keep], vals[g][:, keep]))
    return out


def _face_blocks(row_traces, col_traces):
    """Entry blocks of the face sum of outer products of two `_face_traces`
    of the same faces, one per group."""
    for (rc, rv), (cc, cv) in zip(row_traces, col_traces):
        yield rc[:, :, None], cc[:, None, :], rv[:, :, None] * cv[:, None, :]


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
    blocks = _face_blocks(_face_traces(row, row_kind, faces), _face_traces(col, col_kind, faces))
    mat = _matrix(blocks, (row.ndof, col.ndof))
    if half:
        mat = 0.5 * mat
    return Operator1D(mat, row, col, "general")


@lru_cache(maxsize=None)
def assemble_ipdg(
    fam: FamilySpec, bc: tuple[str, str], c2: float, penalty: float
) -> Operator1D:
    """The constant-speed IPDG matrix of one dimension, dense:
    c2 (S - T - T^T) + penalty J, with S the broken stiffness, T the face sum
    of jump(test) x derivative average(trial) and J that of jump x jump.

    All four terms are entry blocks of one dense sum, so no term is stored
    on its own.
    """
    faces = _face_points(fam.n, bc)
    jump = _face_traces(fam, "jump", faces)
    trace = [(r, c, -c2 * v) for r, c, v in _face_blocks(jump, _face_traces(fam, "davg", faces))]
    blocks = [(r, c, c2 * v) for r, c, v in _volume_blocks(fam, fam, True, True)]
    blocks += trace + [(c, r, v) for r, c, v in trace]
    blocks += [(r, c, penalty * v) for r, c, v in _face_blocks(jump, jump)]
    flat, vals = _entries(blocks, fam.ndof)
    mat = np.bincount(flat, vals, fam.ndof**2).reshape(fam.ndof, fam.ndof)
    return Operator1D(mat, fam, fam, "general")


# ---------------------------------------------------------------------------
# node values and surpluses


@lru_cache(maxsize=None)
def assemble_node_values(
    rows: FamilySpec,
    col: FamilySpec,
    deriv: bool = False,
    force_side: int = 0,
) -> Operator1D:
    """Values (or derivatives) of the column family at the hierarchical
    nodes, as CSR.

    A nonzero `force_side` replaces every node's side tag, which samples both
    one-sided limits across coefficient-jump planes (the domain ends keep
    their cell, see `level_values`).
    """
    if rows.kind != "nodes":
        raise ValueError("row family must be a node layout")
    x, sides = make_interp_basis(rows.degree, rows.variant).all_nodes(rows.n)
    if force_side:
        sides = np.full_like(sides, force_side)
    cols, vals = _point_entries(col, x, sides, deriv)
    mat = _matrix([(np.arange(len(x))[:, None], cols, vals)], (len(x), col.ndof))
    return Operator1D(mat, rows, col, "general")


@lru_cache(maxsize=None)
def assemble_node_to_surplus(nodes: FamilySpec) -> Operator1D:
    """Node values -> surpluses, the exact inverse of the interpolation system.

    A surplus is the node value minus the coarser interpolant there.  For a
    node of level l >= 1 in level-l cell c, that interpolant is the Lagrange
    polynomial through the m + 1 coarser nodes of the cell, so the row is
    e_node - sum_k w[i, k] e_coarse(c, k) with one weight table for every
    level and cell (`InterpBasis1D.coarse_stencil`).  Level-0 surpluses are
    the node values.  The map is unit lower triangular, with m + 2 entries
    per row at levels >= 1, fewer where a weight is exactly 0; it is always
    CSR.
    """
    fam = interp_family(nodes.degree, nodes.variant, nodes.n)
    weights, coarse = make_interp_basis(nodes.degree, nodes.variant).coarse_stencil(nodes.n)
    p, ndof = fam.p, fam.ndof
    fine = np.arange(p, ndof)  # every node of levels >= 1, p per cell
    rows = np.concatenate([np.arange(ndof), np.repeat(fine, p)])
    cols = np.concatenate([np.arange(ndof), np.repeat(coarse, p, axis=0).ravel()])
    data = np.concatenate([np.ones(ndof), -np.tile(weights, (len(coarse), 1)).ravel()])
    return Operator1D(_csr(data, rows, cols, (ndof, ndof)), fam, nodes, "lower")


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
