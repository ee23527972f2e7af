"""Tensor-product operator application on adaptive hierarchical level sets.

A field's coefficients live in one contiguous float64 buffer, in the order
of its `grids.LevelLayout`: the levels of the sorted level list one after
another, each C-contiguous in the shape (cells_1, ..., cells_d, polys_1,
..., polys_d); `CoeffSet.data[lv]` is a view of level lv's part.  Inactive
cells are kept at zero, so a buffer is also a (cells, polys per cell) array,
indexed like the grid's active-cell array, and one fancy index zeroes every
inactive cell.

A tensor-product operator is applied one dimension at a time, along the
dimensions that carry a factor (an absent factor is the identity).  Sweeps
are ordered by block-triangularity — dimensions whose factor only lowers
the level first, then at most one unconstrained dimension, then the
level-raising ones — which keeps every intermediate that can still reach an
active output inside the (downward-closed) level set.  With that ordering,
discarding out-of-set blocks reproduces the Galerkin restriction of the full
Kronecker operator to the active degrees of freedom exactly.

A sweep along dimension m works on fibers: the level tuples that agree on
every coordinate but m, which in a downward-closed set form a chain 0..A,
so the fibers of a sweep cover the buffer.  The sweep gathers them in a
fiber order, runs its factor on them and gathers the output back into
buffer order (`_sweeps`).  Every factor is a pyramid form (`pyramid`),
cascaded over fibers gathered level by level, those reaching level l first
at level l, in the layout of a `pyramid.Chains`: synthesis, local form and
analysis, a few numpy calls per level.

The constant-speed factor also holds a dense copy of its leading block
(`operators1d.LeadingBlock`).  The 1D index of (level a, cell c, poly i) is
p * (cells of levels < a + c) + i, so a fiber's levels 0..A, stacked along
the cell axis of m, have the 1D layout, and the block's first p 2^A rows
and columns map them to themselves.  A dense sweep sets the fibers of equal
A and at most `DENSE_ENTRIES` entries side by side as the columns of one
product, and grows the block to the deepest; longer fibers cascade.

A fiber order depends only on the level list, m, the polynomial counts and
whether the factor is dense, so the `_SweepPlan`s and the index maps live
on the `LevelLayout` of the level list: each map once, and only those a warm
apply reads (first gathers, links, last gathers back).  A plan needs only
the counts of its fibers (`_fibers`).  Each map is made from fiber orders
(`_order`) that exist only while `_map` makes it: an order is its kept
gather, the inverse of its kept gather back, or built afresh, so a first
apply may build one order more than once, and nothing but the maps stays.
Gathers and products are work arrays (`work_array`) that the next sweep
reuses, so a warm dense apply allocates none of them.

Operators with more than one unconstrained dimension are expanded into at
most 2^(d-1) sweepable terms by L+U splitting of the surplus factors.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .alpert import project_1d
from .grids import AdaptiveGrid, LevelLayout, num_cells
from .operators1d import (
    FamilySpec,
    LeadingBlock,
    Operator1D,
    alpert_family,
    level_values,
    lu_split,
)
from .pyramid import Chains, work_array

Level = tuple[int, ...]
Order = tuple[int, tuple[int, ...], bool]  # a sweep's fibers: dim, p, dense

# sweep position of each triangularity tag: level-lowering, pivot, raising
_SWEEP_RANK = {"strictly-upper": 0, "general": 1, "lower": 2}

# Longest fiber, in 1D entries, that a dense leading block multiplies; a
# longer one cascades, and the block it bounds holds at most 2 MB.  Measured
# on warm sparse-grid applies: dense fibers of 1024 entries cost 1.6-2.2x
# the cascade's (2D k 3 n 8, k 1 n 9, k 2 n 10); dense fibers of 256 and 512
# entries cost 0.45-0.78x (3D k 1 n 8, 2D k 1 n 8).
DENSE_ENTRIES = 512


class CoeffSet:
    """Coefficients over a downward-closed set of levels, in one buffer.

    `buf` follows `layout`; `data[lv]` is a view of level lv's part, made on
    first use.  `copy`, `scale`, `axpy` and `finite` act on the whole buffer
    at once; `dot` and `norm2` sum per level, in level order.
    """

    __slots__ = ("p", "layout", "buf", "_data")

    def __init__(self, p: tuple[int, ...], layout: LevelLayout, buf: np.ndarray):
        self.p = p
        self.layout = layout
        self.buf = buf
        self._data: dict[Level, np.ndarray] | None = None

    @property
    def data(self) -> dict[Level, np.ndarray]:
        if self._data is None:
            self._data = self.layout.views(self.buf, self.p)
        return self._data

    def copy(self) -> "CoeffSet":
        return CoeffSet(self.p, self.layout, self.buf.copy())

    def scale(self, alpha: float) -> "CoeffSet":
        self.buf *= alpha
        return self

    def axpy(self, alpha: float, other: "CoeffSet") -> "CoeffSet":
        self.buf += alpha * other.buf
        return self

    def dot(self, other: "CoeffSet") -> float:
        return sum(float(np.vdot(a, other.data[lv])) for lv, a in self.data.items())

    def norm2(self) -> float:
        return sum(float(np.vdot(a, a)) for a in self.data.values())

    def finite(self) -> bool:
        return bool(np.isfinite(self.buf).all())


class TensorSpace:
    """Active-cell structure of an adaptive grid, frozen at one version.

    Holds the grid's sorted level list, `LevelLayout` and active-cell array
    as they were at the build (the grid replaces its array on every change
    and never writes to it), the layout place of every inactive cell, and
    constructors for coefficient sets.  Rebuild after the grid changes.
    `version`, the grid's version at the build, and `level_set` serve the
    benchmark's probes only: its sweep statistics are cached under
    (grid, version) and replayed against the level set.
    """

    def __init__(self, grid: AdaptiveGrid):
        self.grid = grid
        self.version = grid.version
        self.ndim = grid.ndim
        self.layout = grid.layout
        self.active = grid.active
        self.levels: list[Level] = list(self.layout.levels)
        self.level_set = frozenset(self.levels)
        self._inactive = np.flatnonzero(~self.active)

    @property
    def n_active(self) -> int:
        return self.layout.cells - len(self._inactive)

    def dof_count(self, p: tuple[int, ...]) -> int:
        per_elem = int(np.prod(p))
        return per_elem * self.n_active

    def zeros(self, p: tuple[int, ...]) -> CoeffSet:
        p = tuple(p)
        return CoeffSet(p, self.layout, np.zeros(self.layout.cells * math.prod(p)))

    def mask(self, cs: CoeffSet) -> CoeffSet:
        """Zero all inactive-cell blocks in place."""
        if len(self._inactive):
            cs.buf.reshape(self.layout.cells, -1)[self._inactive] = 0.0
        return cs

    def conform(self, cs: CoeffSet) -> CoeffSet:
        """Carry coefficients onto this space's level set (drop/extend/mask),
        by one cell map per pair of level lists."""
        src, dst = self.layout.cell_map(cs.layout)
        out = self.zeros(cs.p)
        out.buf.reshape(self.layout.cells, -1)[dst] = cs.buf.reshape(cs.layout.cells, -1)[src]
        return self.mask(out)


def sweep_order(ops: tuple[Operator1D | None, ...]) -> list[int]:
    """The dimensions that carry a factor, in a valid order: level-lowering
    sweeps, one pivot, level-raising; dimensions of one kind keep their order.

    Raises if more than one factor is unconstrained ('general'); such terms
    must be expanded with `expand_term` first.
    """
    dims = [dim for dim, op in enumerate(ops) if op is not None]
    if sum(ops[dim].tag == "general" for dim in dims) > 1:
        raise ValueError("more than one unconstrained factor; split first")
    return sorted(dims, key=lambda dim: _SWEEP_RANK[ops[dim].tag])


@dataclass(frozen=True)
class TensorTerm:
    ops: tuple[Operator1D | None, ...]
    scale: float = 1.0


def expand_term(term: TensorTerm) -> list[TensorTerm]:
    """Rewrite a term so each piece has at most one unconstrained factor.

    The first 'general' dimension is kept as the pivot; every further one is
    L+U split, giving 2^(g-1) terms whose sum equals the original.
    """
    generals = [
        d for d, op in enumerate(term.ops) if op is not None and op.tag == "general"
    ]
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


@dataclass(frozen=True)
class _SweepPlan:
    """The fiber orders of one sweep's input and output, and its products.
    A dense plan lists its short fibers first, in groups: group g holds
    `width` fibers of `rows` entries side by side as the (rows, width) block
    at `at`, multiplied by the leading block's first `rows` rows and columns.
    The other fibers follow level major, in the layout of `chains`."""

    order_in: Order
    order_out: Order
    groups: tuple[tuple[int, int, int], ...]  # dense plans: rows, width, at
    chains: Chains | None  # the level-major layout of the cascaded fibers


def _fibers(layout: LevelLayout, dim: int, p: tuple[int, ...], dense: bool):
    """The fibers of a sweep along `dim` over fields of polynomial counts
    p, each by the rest of its level tuples: the top level A of each, the
    dense and the cascaded ones in their order, their dense groups (rows,
    width, at) and level counts; all without building the index.

    The level list is downward closed, so every fiber holds its whole chain
    0..A, and the fibers cover the buffer.  A dense sweep sets the fibers of
    equal A with p 2^A <= `DENSE_ENTRIES` side by side, one column per
    polynomial and cell of their other dimensions.  The other fibers follow
    level by level, every fiber that reaches the level, sorted by A from
    the top.
    """
    pd = p[dim]
    tops: dict[Level, int] = {}
    for lv in layout.levels:
        rest = lv[:dim] + lv[dim + 1 :]
        tops[rest] = max(tops.get(rest, 0), lv[dim])
    columns = {r: math.prod(p) // pd * math.prod(map(num_cells, r)) for r in tops}
    short = sorted((r for r, a in tops.items() if dense and pd << a <= DENSE_ENTRIES),
                   key=lambda r: (tops[r], r))
    groups, at = [], 0
    for top, rests in itertools.groupby(short, key=tops.get):
        width = sum(map(columns.get, rests))
        groups.append((pd << top, width, at))
        at += (pd << top) * width
    long = sorted(tops.keys() - set(short), key=lambda r: (-tops[r], r))
    reach = tops[long[0]] + 1 if long else 0
    counts = [sum(columns[r] for r in long if tops[r] >= a) for a in range(reach)]
    return tops, short, long, tuple(groups), tuple(counts)


def _order(layout: LevelLayout, dim: int, p: tuple[int, ...], dense: bool) -> np.ndarray:
    """The buffer index of each entry of a field of polynomial counts p in
    the fibers of a sweep along `dim` (`_fibers`), a permutation: each dense
    group's fibers side by side as its columns, each cascaded level's
    fibers one after another.  One index block per level of the list: on
    these grids that costs less than index arithmetic over every entry."""
    d, q = len(p), math.prod(p)
    where = dict(zip(layout.levels, zip(layout.starts, layout.shapes)))
    front = (dim, d + dim) + tuple(j for j in range(2 * d) if j not in (dim, d + dim))
    back = front[2:] + front[:2]
    tops, short, long, _, counts = _fibers(layout, dim, p, dense)

    def block(rest: Level, a: int, axes) -> np.ndarray:
        # buffer indices of level a of a fiber, axes of dim first or last
        start, cells = where[rest[:dim] + (a,) + rest[dim:]]
        idx = np.arange(q * start, q * (start + math.prod(cells)))
        return idx.reshape(cells + p).transpose(axes)

    def rows(rest: Level, top: int) -> np.ndarray:
        # a fiber's levels 0..top as a (1D index, column) array
        blocks = [block(rest, a, front) for a in range(top + 1)]
        return np.concatenate([b.reshape(b.shape[0] * b.shape[1], -1) for b in blocks])

    parts = [
        np.concatenate([rows(r, top) for r in rests], axis=1).ravel()
        for top, rests in itertools.groupby(short, key=tops.get)
    ]
    for a in range(len(counts)):
        parts += [block(r, a, back).ravel() for r in long if tops[r] >= a]
    return np.concatenate(parts)


def _inverse(index: np.ndarray) -> np.ndarray:
    out = np.empty_like(index)
    out[index] = np.arange(len(index))
    return out


def _build_plan(layout: LevelLayout, dim: int, p_in, p_out, dense: bool) -> _SweepPlan:
    """A sweep's dense groups and the `Chains` of its other fibers."""
    *_, groups, counts = _fibers(layout, dim, p_in, dense)
    chains = layout.chains.setdefault(counts, Chains(counts)) if counts else None
    return _SweepPlan((dim, p_in, dense), (dim, p_out, dense), groups, chains)


def _plan(
    layout: LevelLayout, p: tuple[int, ...], op: Operator1D, dim: int
) -> tuple[_SweepPlan, tuple[int, ...]]:
    """The plan of a sweep of `op` along `dim` over fields of polynomial
    counts p, built on first use, and the output's polynomial counts; a
    dense leading block grows to the plan's deepest group."""
    if op.col.p != p[dim]:
        raise ValueError(f"operator takes {op.col.p} polys, field has {p[dim]}")
    p_out = p[:dim] + (op.row.p,) + p[dim + 1 :]
    dense = isinstance(op.mat, LeadingBlock)
    key = (dim, p, op.row.p, dense)
    plan = layout.plans.get(key)
    if plan is None:
        plan = layout.plans[key] = _build_plan(layout, dim, p, p_out, dense)
    if plan.groups:
        op.mat.reach(plan.groups[-1][0])
    return plan, p_out


def _products(op: Operator1D, xg: np.ndarray, plan: _SweepPlan) -> np.ndarray:
    """A factor on the gathered fibers, in the same order: without dense
    groups its form's cascade itself, else, into a work array, one product
    of its leading block per group and the cascade on the fibers after."""
    if not plan.groups:
        return op.mat.cascade(op.tag, xg, plan.chains)
    yg = work_array("products", xg.shape)
    mat = op.mat.block
    for rows, width, at in plan.groups:
        shape, span = (rows, width), slice(at, at + rows * width)
        np.matmul(mat[:rows, :rows], xg[span].reshape(shape), out=yg[span].reshape(shape))
    if plan.chains is not None:
        cut = len(xg) - op.row.p * plan.chains.rows[-1]
        yg[cut:] = op.mat.cascade(op.tag, xg[cut:], plan.chains)
    return yg


def _sweeps(
    layout: LevelLayout, x: np.ndarray, p: tuple[int, ...], ops, dims: list[int]
) -> np.ndarray:
    """The sweeps of one term, in the order `dims`, into a work array that
    the next term reuses.  Each sweep's fibers cover its output, so the next
    sweep gathers its own straight from it (`_map`)."""
    plan, p = _plan(layout, p, ops[dims[0]], dims[0])
    xg = _take(x, _map(layout, None, plan.order_in), "gathered")
    for dim, after in zip(dims, dims[1:] + [None]):
        yg = _products(ops[dim], xg, plan)
        if after is not None:
            nxt, p = _plan(layout, p, ops[after], after)
            xg = _take(yg, _map(layout, plan.order_out, nxt.order_in), "gathered")
            plan = nxt
    return _take(yg, _map(layout, plan.order_out, None), "swept")


def _take(x: np.ndarray, index: np.ndarray, role: str) -> np.ndarray:
    """x[index] into the work array of `role`; the index is in range, so
    `clip` spares numpy the buffered copy of its bounds check."""
    return np.take(x, index, out=work_array(role, index.shape), mode="clip")


def _map(layout: LevelLayout, out: Order | None, into: Order | None) -> np.ndarray:
    """Where each entry of the order `into` sits in the order `out`, None
    standing for buffer order: a gather, a link or, into None, the gather
    back.  Made on first use and kept on the layout.  The fiber orders it
    is made from exist only here: each is its kept gather, the inverse of
    its kept gather back or a fresh `_order`, and goes when the map is made."""
    maps = layout.maps
    hit = maps.get((out, into))
    if hit is None:
        def gather(order: Order) -> np.ndarray:
            hit = maps.get((None, order))
            if hit is None:
                back = maps.get((order, None))
                hit = _order(layout, *order) if back is None else _inverse(back)
            return hit

        if out is None:
            hit = gather(into)
        else:
            back = maps.get((out, None))
            if back is None:
                back = _inverse(gather(out))
            hit = back if into is None else back[gather(into)]
        maps[out, into] = hit
    return hit


class TensorOperator:
    """Sum of Kronecker-factor terms applied by ordered per-dimension sweeps."""

    def __init__(self, terms: list[TensorTerm]):
        self.terms = [t for raw in terms for t in expand_term(raw)]
        self.orders = [sweep_order(t.ops) for t in self.terms]  # validated now

    @classmethod
    def from_factors(cls, ops: tuple[Operator1D | None, ...]) -> "TensorOperator":
        return cls([TensorTerm(ops)])

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
        for term, dims in zip(self.terms, self.orders):
            cur = _sweeps(space.layout, cs.buf, cs.p, term.ops, dims)
            if term.scale != 1.0:
                cur *= term.scale
            out.buf += cur
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


def on_level(per_dim: list[np.ndarray]) -> list[np.ndarray]:
    """Per-dimension (cells, p) arrays as views that broadcast to a level's
    block shape (cells_1, ..., cells_d, p_1, ..., p_d).

    Dimension m's array varies along axes m and d + m only.
    """
    d = len(per_dim)
    out = []
    for m, arr in enumerate(per_dim):
        axshape = [1] * (2 * d)
        axshape[m], axshape[d + m] = arr.shape
        out.append(arr.reshape(axshape))
    return out


def separable_from_vectors(
    space: TensorSpace, terms: list[tuple[np.ndarray, ...]], fam: FamilySpec
) -> CoeffSet:
    """Sum over terms of the outer product of per-dimension 1D coefficient vectors."""
    p = fam.p
    out = space.zeros((p,) * space.ndim)
    for vecs in terms:
        for lv, view in out.data.items():
            factors = [
                vec[fam.level_slice(l)].reshape(num_cells(l), p) for vec, l in zip(vecs, lv)
            ]
            view += math.prod(on_level(factors))
    return space.mask(out)


def _table(cell: np.ndarray, vals: np.ndarray) -> tuple[slice, np.ndarray | None, np.ndarray]:
    """Points of one axis at one level, given each point's cell and k+1
    values: (cell range, per-point cell offsets, values).

    The table form, with offsets None, applies when the points split into
    equal runs, one per cell of the range in order, whose values agree
    exactly from run to run: then one (R, k+1) table serves every cell.
    Otherwise each point carries its cell's offset in the range and its
    own k+1 values.
    """
    first, runs = cell[0], cell[-1] - cell[0] + 1
    if runs > 0 and len(cell) % runs == 0:
        r = len(cell) // runs
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


class Lattice:
    """An Alpert-coefficient field prepared for evaluation on one tensor
    lattice of points, a tile of rows at a time.

    A level-l function is nonzero on one cell, so each point needs k+1
    values per axis and level, and only the cells holding points enter.
    Sum factorisation over level prefixes, depth first: the level tuples
    that share lv[:m+1], contiguous in the sorted level list, are summed
    with axes m+1.. already evaluated, and axis m is then evaluated once for
    their sum.  The last axis comes first: the levels that share lv[:-1], a
    fiber, sum to one (rows of the leading axes, points) array.  Those fiber
    sums are kept for a window of last-axis points, so the tiles inside it
    re-expand only the leading axes.  The point values of every axis array
    and level are found once, and a leading axis's table once per row range
    (`_table`).

    `budget`, in points, sizes `tiles` and the window; without it the
    window is the tile.
    """

    def __init__(
        self, cs: CoeffSet, k: int, axes_points: list[np.ndarray], budget: int | None = None
    ):
        self.cs, self.k, self.axes, self.budget = cs, k, axes_points, budget
        self.shape = tuple(len(x) for x in axes_points)
        self.fibers = {
            key: list(fiber)
            for key, fiber in itertools.groupby(cs.layout.levels, key=lambda lv: lv[:-1])
        }
        self._points = {}  # each point's cell and k+1 values, by axis array and level
        self._tables = {}  # the leading axes' tables, by axis, level and rows
        self._window = None  # (leading rows, first and end point, fiber sums)

    def tiles(self):
        """Rows of tiles of at most `budget` points that cover the lattice:
        as many leading axes whole as fit, the next axis in chunks, the rest
        a row at a time, the last axis varying fastest."""
        shape = self.shape
        whole = len(shape) - 1
        while whole > 0 and math.prod(shape[:whole]) > self.budget:
            whole -= 1
        chunk = max(1, self.budget // math.prod(shape[:whole]))
        ranges = [[slice(0, s)] for s in shape[:whole]]
        ranges.append(
            [slice(lo, min(lo + chunk, shape[whole])) for lo in range(0, shape[whole], chunk)]
        )
        ranges += [[slice(i, i + 1) for i in range(s)] for s in shape[whole + 1 :]]
        return itertools.product(*ranges)

    def values(self, rows: tuple[slice, ...]) -> np.ndarray:
        """Values on the tile `rows`, one slice of point indices per axis."""
        shape = tuple(r.stop - r.start for r in rows)
        sums, lo = self._fiber_sums(rows)
        cut = slice(lo, lo + shape[-1])
        if len(shape) == 1:
            return sums[()][0, cut].copy()
        return self._expand(self.cs.layout.levels, 0, rows, sums, cut).reshape(shape)

    def _table(self, m: int, l: int, rows: slice) -> tuple[slice, np.ndarray | None, np.ndarray]:
        """`_table` of axis m's points `rows` at level l.  An axis array's
        point values are found once per level, as the axes often share one
        array; a leading axis's tables are kept, the last axis's belong to
        the window that asks for them."""
        key = m, l, rows.start, rows.stop
        table = self._tables.get(key)
        if table is not None:
            return table
        x = self.axes[m]
        if (id(x), l) not in self._points:
            self._points[id(x), l] = level_values(alpert_family(self.k, l), l, x)
        cell, vals = self._points[id(x), l]
        table = _table(cell[rows], vals[rows])
        if m < len(self.shape) - 1:
            self._tables[key] = table
        return table

    def _expand(self, levels, m: int, rows: tuple[slice, ...], sums, cut: slice) -> np.ndarray:
        """Sum over `levels`, which share lv[:m], with axes m.. evaluated:
        (rows of axes < m, points of axes m..)."""
        points = math.prod(r.stop - r.start for r in rows[m + 1 :])
        acc = None
        for l, group in itertools.groupby(levels, key=operator.itemgetter(m)):
            cells, offsets, vals = self._table(m, l, rows[m])
            if m + 2 < len(rows):
                x = self._expand(group, m + 1, rows, sums, cut)
            else:
                x = sums[next(group)[:-1]][:, cut]
            x = x.reshape(-1, cells.stop - cells.start, self.k + 1, points)
            x = _contract(x, offsets, vals)
            if acc is None:
                acc = x
            else:
                acc += x
            del x  # free this group's part before the next one is expanded
        return acc

    def _fiber_sums(self, rows: tuple[slice, ...]) -> tuple[dict[Level, np.ndarray], int]:
        """Every fiber's sum, (rows of the leading axes, points), over a
        window of last-axis points that holds rows[-1]; and where rows[-1]
        starts in it.  The window spans as many tiles as `budget` holds."""
        lead, last = rows[:-1], rows[-1]
        if self._window is not None:
            held, start, stop, sums = self._window
            if held == lead and start <= last.start and last.stop <= stop:
                return sums, last.start - start
        self._window = None  # free the old sums before the new ones are made
        k, d = self.k, len(rows)
        # the cell ranges of each fiber's leading levels that hold points
        used = {
            key: tuple(self._table(m, l, r)[0] for m, (l, r) in enumerate(zip(key, lead)))
            for key in self.fibers
        }
        width = last.stop - last.start
        if self.budget is not None:
            # values the sums hold per last-axis point: their leading rows
            size = sum(
                math.prod((c.stop - c.start) * (k + 1) for c in cells) for cells in used.values()
            )
            width *= max(1, self.budget // (size * width))
        window = slice(last.start, min(last.start + width, self.shape[-1]))
        ends = {l: self._table(d - 1, l, window) for l in {lv[-1] for lv in self.cs.layout.levels}}
        perm = [i // 2 + (i % 2) * d for i in range(2 * d)]  # (c1,p1,c2,p2,...)
        sums = {}
        for key, fiber in self.fibers.items():
            acc = None
            for lv in fiber:
                cells, offsets, vals = ends[lv[-1]]
                x = self.cs.data[lv][used[key] + (cells,)].transpose(perm)
                x = _contract(x.reshape(-1, cells.stop - cells.start, k + 1, 1), offsets, vals)
                if acc is None:
                    acc = x
                else:
                    acc += x
            sums[key] = acc.reshape(len(acc), -1)
        self._window = (lead, window.start, window.stop, sums)
        return sums, 0


def eval_on_lattice(
    space: TensorSpace,
    cs: CoeffSet,
    k: int,
    n: int,
    axes_points: list[np.ndarray],
    tile: tuple[Lattice, tuple[slice, ...]] | None = None,
) -> np.ndarray:
    """Values of an Alpert-coefficient field on a tensor lattice of points.

    `tile`, a `Lattice` and the rows of one of its `tiles`, evaluates that
    part of a lattice prepared once; `axes_points` are then the points of
    those rows.  Without it the whole lattice is one tile.

    `space` and `n` are unused.  They stay because the benchmark's probe
    (`perfbench/probes.py`, `_count_points`) counts the points of the fifth
    argument, `axes_points`, by position.
    """
    if tile is None:
        lattice = Lattice(cs, k, axes_points)
        tile = lattice, tuple(slice(0, s) for s in lattice.shape)
    lattice, rows = tile
    return lattice.values(rows)
