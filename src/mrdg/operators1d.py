"""Dense 1D operator blocks in hierarchical multiwavelet coordinates.

Every operator here is assembled the same way: represent both basis families
exactly on the finest dyadic mesh (each hierarchical function is piecewise
polynomial on the level-N cells), build the finest-mesh volume/trace matrix
in the local orthonormal Legendre basis, and conjugate with the basis-change
matrices.  All integrands are polynomials, so Gauss-Legendre quadrature of
sufficient order makes the assembly exact up to roundoff.

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
def _ref_volume_tables(pf: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference-cell tables: S~[p,q] = int P~'_p P~'_q, K~[p,q] = int P~'_p P~_q."""
    quad = Quadrature1D.gauss(pf + 2)
    v = legendre_values(pf, quad.nodes)
    d = legendre_derivs(pf, quad.nodes)
    s = np.einsum("x,xp,xq->pq", quad.weights, d, d)
    kk = np.einsum("x,xp,xq->pq", quad.weights, d, v)
    return s, kk


def _endpoint_tables(pf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    ends = np.array([0.0, 1.0])
    v = legendre_values(pf, ends)
    d = legendre_derivs(pf, ends)
    return v[0], v[1], d[0], d[1]  # values at 0, 1; derivatives at 0, 1


def _faces(n: int, bc: tuple[str, str]) -> list[tuple[int | None, int | None]]:
    """Face list as (left cell, right cell); None marks a missing side."""
    ncf = 1 << n
    faces: list[tuple[int | None, int | None]] = [
        (j - 1, j) for j in range(1, ncf)
    ]
    left, right = bc
    if "periodic" in bc:
        if left != right:
            raise ValueError("periodic boundary must apply to both sides")
        faces.append((ncf - 1, 0))
        return faces
    if left in ("dirichlet", "all"):
        faces.append((None, 0))
    if right in ("dirichlet", "all"):
        faces.append((ncf - 1, None))
    # neumann sides contribute no bilinear-form faces; their flux data enters
    # the load functional only
    return faces


def _face_vector(
    kind: str, face: tuple[int | None, int | None], n: int, pf: int
) -> np.ndarray:
    """Fine-dof vector of a one-sided/averaged trace quantity on a face.

    Boundary faces follow the single-sided convention: jump -> q n, avg -> q,
    and both one-sided derivatives collapse to the interior limit.
    """
    ncf = 1 << n
    h = 1.0 / ncf
    v0, v1, d0, d1 = _endpoint_tables(pf)
    vec = np.zeros(ncf * (pf + 1))
    cl, cr = face
    vs = h**-0.5
    ds = h**-1.5

    def put(cell, vals):
        vec[cell * (pf + 1) : (cell + 1) * (pf + 1)] += vals

    if cl is not None and cr is not None:
        if kind == "jump":
            put(cl, vs * v1)
            put(cr, -vs * v0)
        elif kind == "avg":
            put(cl, 0.5 * vs * v1)
            put(cr, 0.5 * vs * v0)
        elif kind == "dminus":
            put(cl, ds * d1)
        elif kind == "dplus":
            put(cr, ds * d0)
        elif kind == "davg":
            put(cl, 0.5 * ds * d1)
            put(cr, 0.5 * ds * d0)
        else:
            raise ValueError(kind)
        return vec
    if cr is not None:  # domain boundary x = 0, outward normal -1
        if kind == "jump":
            put(cr, -vs * v0)
        elif kind == "avg":
            put(cr, vs * v0)
        elif kind in ("dminus", "dplus", "davg"):
            put(cr, ds * d0)
        else:
            raise ValueError(kind)
        return vec
    if kind == "jump":  # x = 1, outward normal +1
        put(cl, vs * v1)
    elif kind == "avg":
        put(cl, vs * v1)
    elif kind in ("dminus", "dplus", "davg"):
        put(cl, ds * d1)
    else:
        raise ValueError(kind)
    return vec


def _fine_degree(row: FamilySpec, col: FamilySpec) -> int:
    return max(row.degree, col.degree)


def _conjugate(row: FamilySpec, col: FamilySpec, g: np.ndarray) -> np.ndarray:
    pf = _fine_degree(row, col)
    return fine_matrix(row, pf).T @ g @ fine_matrix(col, pf)


@lru_cache(maxsize=None)
def assemble_mass(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Exact L2 pairing of two families; Alpert x Alpert is the identity."""
    if row == col and row.kind == "alpert":
        return Operator1D(np.eye(row.ndof), row, col, "diag")
    pf = _fine_degree(row, col)
    mat = fine_matrix(row, pf).T @ fine_matrix(col, pf)
    return Operator1D(mat, row, col, "general")


@lru_cache(maxsize=None)
def assemble_stiffness(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Broken stiffness sum_cells int col' row' on the finest mesh."""
    pf = _fine_degree(row, col)
    s_ref, _ = _ref_volume_tables(pf)
    ncf = 1 << row.n
    g = np.kron(np.eye(ncf), ncf**2 * s_ref)
    return Operator1D(_conjugate(row, col, g), row, col, "general")


@lru_cache(maxsize=None)
def assemble_volume_derivative(row: FamilySpec, col: FamilySpec) -> Operator1D:
    """Entries sum_cells int col_b * row_a' (test differentiated)."""
    pf = _fine_degree(row, col)
    _, k_ref = _ref_volume_tables(pf)
    ncf = 1 << row.n
    g = np.kron(np.eye(ncf), ncf * k_ref)
    return Operator1D(_conjugate(row, col, g), row, col, "general")


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
    pf = _fine_degree(row, col)
    n = row.n
    nf = (1 << n) * (pf + 1)
    g = np.zeros((nf, nf))
    for face in _faces(n, bc):
        rvec = _face_vector(row_kind, face, n, pf)
        cvec = _face_vector(col_kind, face, n, pf)
        ri = np.nonzero(rvec)[0]
        ci = np.nonzero(cvec)[0]
        g[np.ix_(ri, ci)] += np.outer(rvec[ri], cvec[ci])
    if half:
        g *= 0.5
    return Operator1D(_conjugate(row, col, g), row, col, "general")


# ---------------------------------------------------------------------------
# point and node evaluation


def point_rows(x, sides, n: int, pf: int, deriv: bool = False) -> np.ndarray:
    """Fine-mesh evaluation rows at points x in [0, 1], shape (len(x), 2^n (pf+1)).

    Row j holds the level-n local orthonormal Legendre values (derivatives
    with `deriv`) at x[j] in the columns of the cell holding x[j], so
    `point_rows(...) @ fine_matrix(fam, pf)` evaluates every function of
    `fam`.  At a dyadic breakpoint a negative side takes the left cell and any
    other side the right cell; the domain ends clip to the first and last
    cell whatever their side.
    """
    x = np.asarray(x, dtype=float)
    ncf = 1 << n
    t = x * ncf
    cell = np.floor(t).astype(int)
    cell = np.where((t == cell) & (np.asarray(sides) < 0), cell - 1, cell)
    cell = np.clip(cell, 0, ncf - 1)
    xi = t - cell
    if deriv:
        vals = ncf**1.5 * legendre_derivs(pf, xi)
    else:
        vals = ncf**0.5 * legendre_values(pf, xi)
    rows = np.zeros((x.size, ncf * (pf + 1)))
    cols = cell[:, None] * (pf + 1) + np.arange(pf + 1)
    rows[np.arange(x.size)[:, None], cols] = vals
    return rows


@lru_cache(maxsize=None)
def assemble_node_values(
    rows: FamilySpec, col: FamilySpec, deriv: bool = False, force_side: int = 0
) -> Operator1D:
    """Values (or derivatives) of the column family at the hierarchical nodes.

    A nonzero `force_side` replaces every node's side tag, which samples both
    one-sided limits across coefficient-jump planes (the domain ends keep
    their cell, see `point_rows`).  With col = the matching interp family,
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
    pf = max(rows.degree, col.degree)
    mat = point_rows(x, sides, rows.n, pf, deriv) @ fine_matrix(col, pf)
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
    pf = fam.degree
    ncf = 1 << fam.n
    face = (None, 0) if side == 0 else (ncf - 1, None)
    val = _face_vector("avg", face, fam.n, pf)  # unsigned one-sided value
    der = _face_vector("davg", face, fam.n, pf)
    q = fine_matrix(fam, pf)
    return q.T @ val, q.T @ der
