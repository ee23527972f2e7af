"""Tensor-product operator application on adaptive hierarchical level sets.

Coefficients live in one dense array per active level tuple, shaped
(cells_1, ..., cells_d, polys_1, ..., polys_d); cells outside the active set
are kept at zero.  A tensor-product operator is applied one dimension at a
time.  Sweeps are ordered by block-triangularity — dimensions whose factor
only lowers the level first, then at most one unconstrained dimension, then
the level-raising ones — which keeps every intermediate that can still reach
an active output inside the (downward-closed) level set.  With that ordering,
discarding out-of-set blocks reproduces the Galerkin restriction of the full
Kronecker operator to the active degrees of freedom exactly.

A sweep along dimension m contracts one fiber (the level tuples that agree on
every coordinate but m) at a time.  The 1D index of (level a, cell c, poly i)
is p * (cells of levels < a + c) + i, so a fiber's arrays for levels 0..A,
concatenated along the cell axis of m, have the 1D layout, and one product
with a block of the 1D matrix gives the whole output fiber.

Operators with more than one unconstrained dimension are expanded into at
most 2^(d-1) sweepable terms by L+U splitting of the surplus factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .alpert import legendre_values, mother_wavelets, project_1d
from .grids import AdaptiveGrid, num_cells
from .interp import make_interp_basis
from .operators1d import (
    FamilySpec,
    Operator1D,
    alpert_family,
    lu_split,
)

Level = tuple[int, ...]

_UPPERISH = {"strictly-upper", "diag"}
_LOWERISH = {"lower", "diag"}


@dataclass
class CoeffSet:
    """Per-level coefficient arrays over a downward-closed set of levels."""

    p: tuple[int, ...]
    data: dict[Level, np.ndarray] = field(default_factory=dict)

    @property
    def ndim(self) -> int:
        return len(self.p)

    def copy(self) -> "CoeffSet":
        return CoeffSet(self.p, {lv: a.copy() for lv, a in self.data.items()})

    def scale(self, alpha: float) -> "CoeffSet":
        for a in self.data.values():
            a *= alpha
        return self

    def axpy(self, alpha: float, other: "CoeffSet") -> "CoeffSet":
        for lv, b in other.data.items():
            a = self.data.get(lv)
            if a is None:
                self.data[lv] = alpha * b
            else:
                a += alpha * b
        return self

    def dot(self, other: "CoeffSet") -> float:
        return sum(
            float(np.vdot(a, other.data[lv]))
            for lv, a in self.data.items()
            if lv in other.data
        )

    def norm2(self) -> float:
        return sum(float(np.vdot(a, a)) for a in self.data.values())

    def finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.data.values())


class TensorSpace:
    """Active-cell structure of an adaptive grid, frozen at one version.

    Holds the sorted level list, a copy of the grid's per-level boolean cell
    masks, each fiber's top level, and constructors for coefficient sets.
    Rebuild after the grid changes (the stored version detects staleness).
    """

    def __init__(self, grid: AdaptiveGrid):
        self.grid = grid
        self.version = grid.version
        self.ndim = grid.ndim
        self.levels: list[Level] = sorted(grid.masks)
        self.level_set = frozenset(self.levels)
        self.masks = {lv: grid.masks[lv].copy() for lv in self.levels}
        self.cell_counts = {lv: mask.shape for lv, mask in self.masks.items()}
        # inverted masks of the levels that have inactive cells
        self._holes = {lv: ~m for lv, m in self.masks.items() if not m.all()}
        # fiber_top[m][lv without coordinate m] = top level of that fiber;
        # levels ascend, so the last write is the top
        self.fiber_top: list[dict[Level, int]] = [{} for _ in range(self.ndim)]
        for lv in self.levels:
            for m, tops in enumerate(self.fiber_top):
                tops[lv[:m] + lv[m + 1 :]] = lv[m]

    @property
    def n_active(self) -> int:
        return sum(int(m.sum()) for m in self.masks.values())

    def dof_count(self, p: tuple[int, ...]) -> int:
        per_elem = int(np.prod(p))
        return per_elem * self.n_active

    def zeros(self, p: tuple[int, ...]) -> CoeffSet:
        data = {
            lv: np.zeros(self.cell_counts[lv] + tuple(p)) for lv in self.levels
        }
        return CoeffSet(tuple(p), data)

    def mask(self, cs: CoeffSet) -> CoeffSet:
        """Zero all inactive-cell blocks in place."""
        for lv, holes in self._holes.items():
            arr = cs.data.get(lv)
            if arr is not None:
                arr[holes] = 0.0
        return cs

    def conform(self, cs: CoeffSet) -> CoeffSet:
        """Carry coefficients onto this space's level set (drop/extend/mask)."""
        out = self.zeros(cs.p)
        for lv, arr in cs.data.items():
            if lv in out.data:
                out.data[lv][...] = arr
        return self.mask(out)


def _tag(op: Operator1D | None) -> str:
    return "diag" if op is None else op.tag


def sweep_order(ops: tuple[Operator1D | None, ...]) -> list[int]:
    """Valid dimension order: level-lowering sweeps, one pivot, level-raising.

    Raises if more than one factor is unconstrained ('general'); such terms
    must be expanded with `expand_term` first.
    """
    uppers, lowers, generals = [], [], []
    for dim, op in enumerate(ops):
        t = _tag(op)
        if t == "general":
            generals.append(dim)
        elif t in _UPPERISH:
            uppers.append(dim)
        elif t in _LOWERISH:
            lowers.append(dim)
        else:
            raise ValueError(f"unknown tag {t!r}")
    if len(generals) > 1:
        raise ValueError("more than one unconstrained factor; split first")
    return uppers + generals + lowers


@dataclass(frozen=True)
class TensorTerm:
    ops: tuple[Operator1D | None, ...]
    scale: float = 1.0


def expand_term(term: TensorTerm) -> list[TensorTerm]:
    """Rewrite a term so each piece has at most one unconstrained factor.

    The first 'general' dimension is kept as the pivot; every further one is
    L+U split, giving 2^(g-1) terms whose sum equals the original.
    """
    generals = [d for d, op in enumerate(term.ops) if _tag(op) == "general"]
    if len(generals) <= 1:
        return [term]
    split_dims = generals[1:]
    parts = {d: lu_split(term.ops[d]) for d in split_dims}
    out = []
    for choice in itertools.product((0, 1), repeat=len(split_dims)):
        ops = list(term.ops)
        for d, c in zip(split_dims, choice):
            ops[d] = parts[d][c]
        out.append(TensorTerm(tuple(ops), term.scale))
    return out


def _sweep(space: TensorSpace, cs: CoeffSet, op: Operator1D, dim: int) -> CoeffSet:
    """Contract dimension `dim` with a 1D operator, one product per fiber.

    A fiber's input levels 0..A (a level missing from `cs` enters as zeros)
    are concatenated along the cell axis of `dim`, contracted with the block
    `op.mat[:rows(B), :cols(A)]`, and split back into per-level views.  The
    outputs 0..B are the fiber's part of the level set, cut by the tag to the
    levels the inputs reach; blocks outside the tag are exact zeros.
    """
    d = cs.ndim
    fibers: dict[Level, dict[int, np.ndarray]] = {}
    for lv, arr in cs.data.items():
        fibers.setdefault(lv[:dim] + lv[dim + 1 :], {})[lv[dim]] = arr
    out: dict[Level, np.ndarray] = {}
    for rest, by_level in fibers.items():
        a_hi = max(by_level)
        top = space.fiber_top[dim].get(rest, -1)
        b_hi = min(top, {"diag": a_hi, "strictly-upper": a_hi - 1}.get(op.tag, top))
        if b_hi < 0:
            continue
        shape = list(by_level[a_hi].shape)
        parts = []
        for a in range(a_hi + 1):
            shape[dim] = num_cells(a)
            parts.append(by_level[a] if a in by_level else np.zeros(shape))
        x = np.concatenate(parts, axis=dim) if a_hi else parts[0]
        blk = op.mat[: op.row.level_slice(b_hi).stop, : op.col.level_slice(a_hi).stop]
        blk = blk.reshape(-1, op.row.p, x.shape[dim], op.col.p)
        res = np.tensordot(x, blk, axes=([dim, d + dim], [2, 3]))
        res = np.moveaxis(res, (2 * d - 2, 2 * d - 1), (dim, d + dim))
        cuts = [num_cells(b) for b in range(1, b_hi + 1)]  # = cells of levels < b
        for b, piece in enumerate(np.split(res, cuts, axis=dim)):
            out[rest[:dim] + (b,) + rest[dim:]] = piece
    # levels nothing reached stay absent; downstream accumulation treats
    # a missing level as zero
    return CoeffSet(cs.p[:dim] + (op.row.p,) + cs.p[dim + 1 :], out)


class TensorOperator:
    """Sum of Kronecker-factor terms applied by ordered per-dimension sweeps."""

    def __init__(self, terms: list[TensorTerm]):
        self.terms = [t for raw in terms for t in expand_term(raw)]
        for t in self.terms:
            sweep_order(t.ops)  # validate now, not at apply time

    @classmethod
    def from_factors(
        cls, ops: tuple[Operator1D | None, ...], scale: float = 1.0
    ) -> "TensorOperator":
        return cls([TensorTerm(ops, scale)])

    def out_p(self, p_in: tuple[int, ...]) -> tuple[int, ...]:
        ops = self.terms[0].ops
        return tuple(
            op.row.p if op is not None else p for op, p in zip(ops, p_in)
        )

    def apply(
        self, space: TensorSpace, cs: CoeffSet, out: CoeffSet | None = None
    ) -> CoeffSet:
        """out += sum of terms applied to cs (allocates a zero out if None)."""
        if out is None:
            out = space.zeros(self.out_p(cs.p))
        for term in self.terms:
            cur = cs
            for dim in sweep_order(term.ops):
                op = term.ops[dim]
                if op is None:
                    continue
                cur = _sweep(space, cur, op, dim)
            out.axpy(term.scale, cur)
        return space.mask(out)


# ---------------------------------------------------------------------------
# projection and point evaluation


def project_separable(
    space: TensorSpace, terms, k: int, n: int
) -> CoeffSet:
    """Orthogonal projection of sum_j prod_m f_jm(x_m) onto the active space.

    `terms` is an iterable of d-tuples of 1D callables.  Separability makes
    the multi-D projection an outer product of 1D projections per level.
    """
    vec_terms = [tuple(project_1d(f, k, n) for f in fs) for fs in terms]
    return separable_from_vectors(space, vec_terms, alpert_family(k, n))


def separable_from_vectors(
    space: TensorSpace, terms: list[tuple[np.ndarray, ...]], fam: FamilySpec
) -> CoeffSet:
    """Sum over terms of the outer product of per-dimension 1D coefficient vectors."""
    d = space.ndim
    p = fam.p
    # interleaved (c,p,c,p,...) -> (c...,p...)
    perm = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    out = space.zeros((p,) * d)
    for vecs in terms:
        for lv in space.levels:
            factors = [
                vecs[m][fam.level_slice(lv[m])].reshape(num_cells(lv[m]), p)
                for m in range(d)
            ]
            block = factors[0]
            for fac in factors[1:]:
                block = np.multiply.outer(block, fac)
            out.data[lv] += block.transpose(perm)
    return space.mask(out)


def _level_points(k: int, level: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level-`level` cell of each point and the k+1 Alpert values there.

    A point on a dyadic breakpoint takes the cell to its right, x = 1 the
    last cell.  On the half of its cell that holds x, the level-l function i
    (l >= 1) is 2^(l/2) times the Legendre expansion of mother wavelet i on
    that half, in the half's local coordinate.
    """
    if level == 0:
        return np.zeros(len(x), dtype=int), legendre_values(k, x)
    halves = 1 << level
    t = x * halves
    half = np.clip(np.floor(t).astype(int), 0, halves - 1)
    leg = legendre_values(k, t - half)
    mothers = 2.0 ** (0.5 * level) * mother_wavelets(k)  # [i, half, q]
    right = (half & 1).astype(bool)[:, None]
    return half >> 1, np.where(right, leg @ mothers[:, 1].T, leg @ mothers[:, 0].T)


def _axis_level(
    k: int, level: int, x: np.ndarray
) -> tuple[slice, np.ndarray | None, np.ndarray]:
    """One axis at one level: (cell range, per-point cell offsets, values).

    The table form, with offsets None, applies when the points split into
    equal runs, one per cell of the range in order, whose values agree
    exactly from run to run: then one (R, k+1) table serves every cell.
    Otherwise each point carries its cell's offset in the range and its
    own k+1 values.
    """
    cell, vals = _level_points(k, level, x)
    first, runs = cell[0], cell[-1] - cell[0] + 1
    if runs > 0 and len(x) % runs == 0:
        r = len(x) // runs
        if (cell.reshape(runs, r) == first + np.arange(runs)[:, None]).all() and (
            vals.reshape(runs, r, -1) == vals[:r]
        ).all():
            return slice(first, first + runs), None, vals[:r]
    lo = cell.min()
    return slice(lo, cell.max() + 1), cell - lo, vals


def _contract(x: np.ndarray, offsets: np.ndarray | None, vals: np.ndarray) -> np.ndarray:
    """(A, cells, p, B) against one axis level's point values -> (A, points, B)."""
    if offsets is None:
        return np.matmul(vals, x).reshape(len(x), -1, x.shape[-1])
    return np.einsum("ajqb,jq->ajb", x[:, offsets], vals)


def eval_on_lattice(
    space: TensorSpace,
    cs: CoeffSet,
    k: int,
    n: int,
    axes_points: list[np.ndarray],
) -> np.ndarray:
    """Values of an Alpert-coefficient field on a tensor lattice of points.

    A level-l function is nonzero on one cell, so each point needs k+1
    values per axis and level, and only the cells holding points enter.
    Sum factorisation over level prefixes, depth first: the level tuples
    that share lv[:m+1] are summed with axes m+1.. already evaluated, and
    axis m is then evaluated once for their sum.
    """
    d = space.ndim
    shape = tuple(len(pts) for pts in axes_points)
    levels = sorted(cs.data)
    if not levels:
        return np.zeros(shape)
    axis = [
        {l: _axis_level(k, l, pts) for l in {lv[m] for lv in levels}}
        for m, pts in enumerate(axes_points)
    ]
    perm = [i // 2 + (i % 2) * d for i in range(2 * d)]  # (c1,p1,c2,p2,...)

    def expand(group: list[Level], m: int) -> np.ndarray:
        # sum over `group` (sharing lv[:m]) with axes m.. evaluated
        acc = None
        for l, sub in itertools.groupby(group, key=lambda lv: lv[m]):
            sub = list(sub)
            cells, offsets, vals = axis[m][l]
            if m + 1 < d:
                x = expand(sub, m + 1)
            else:
                lv = sub[0]
                used = tuple(axis[j][lv[j]][0] for j in range(d))
                x = cs.data[lv][used].transpose(perm)
            x = x.reshape(-1, cells.stop - cells.start, k + 1, math.prod(shape[m + 1 :]))
            x = _contract(x, offsets, vals)
            if acc is None:
                acc = x
            else:
                acc += x
            del x  # free this group's part before the next one is expanded
        return acc

    return expand(levels, 0).reshape(shape)


@lru_cache(maxsize=None)
def _node_grid_cached(m: int, variant: str, level: int):
    """Coordinates and side tags of one level's nodes, shaped (cells, p)."""
    basis = make_interp_basis(m, variant)
    nc = num_cells(level)
    coords = np.empty((nc, m + 1))
    sides = np.empty((nc, m + 1), dtype=int)
    for c in range(nc):
        for i, (x, s) in enumerate(basis.nodes_for(level, c)):
            coords[c, i] = x
            sides[c, i] = s
    return coords, sides


def node_lattice(
    m: int, variant: str, lv: Level
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-dimension node coordinate/side arrays for one level tuple."""
    coords, sides = [], []
    for l in lv:
        c, s = _node_grid_cached(m, variant, l)
        coords.append(c)
        sides.append(s)
    return coords, sides
