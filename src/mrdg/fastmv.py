"""Tensor-product operator application on adaptive hierarchical level sets.

A field's coefficients live in one contiguous float64 buffer.  The levels of
the sorted level list follow one another, each C-contiguous in the shape
(cells_1, ..., cells_d, polys_1, ..., polys_d); `CoeffSet.data[lv]` is a view
of level lv's part.  Every level is dense over all its cells, and inactive
cells are kept at zero, so a buffer is also a (cells of all levels,
polys per cell) array and one fancy index zeroes every inactive cell.

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
so the fibers of a sweep cover the buffer.  A cached `_SweepPlan` gathers
them, the sweep runs its factor on them, and the plan's inverse gathers the
output back into buffer order (`_sweeps`).  The 1D index of (level a,
cell c, poly i) is p * (cells of levels < a + c) + i, so a fiber's levels
0..A, stacked along the cell axis of m, have the 1D layout, and the leading
block `op.mat[:rows(A), :rows(A)]` of a dense constant-speed matrix maps
them to themselves: a dense plan sets the fibers of equal A side by side as
the columns of one matrix, and each such group takes one product.  A
variable-speed factor is a pyramid form instead (`pyramid`): its plan
gathers the fibers level by level, those reaching level l first at level l,
and one cascade of the form runs over all of them: synthesis, local form
and analysis, a few numpy calls per level.

Either way the outputs are the same fibers, so consecutive sweeps of a term
pass them on by one gather (`_link`).  The gathers and the products are
work arrays (`work_array`) that the next sweep reuses, so a warm dense apply
allocates none of them.  A plan depends only on the level list, m, the
polynomial counts and whether the factor is dense, so it lives on the
`LevelLayout` that every space with that level list shares.

Operators with more than one unconstrained dimension are expanded into at
most 2^(d-1) sweepable terms by L+U splitting of the surplus factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .alpert import project_1d
from .grids import AdaptiveGrid, num_cells
from .operators1d import (
    FamilySpec,
    Operator1D,
    alpert_family,
    level_values,
    lu_split,
)
from .pyramid import work_array

Level = tuple[int, ...]

# sweep position of each triangularity tag: level-lowering, pivot, raising
_SWEEP_RANK = {"strictly-upper": 0, "general": 1, "lower": 2}


class LevelLayout:
    """Where each level of a sorted level list sits in a coefficient buffer.

    Level lv takes prod(cells) consecutive cells of prod(p) values each, in
    list order.  The layout depends on the level list alone, so spaces with
    equal level lists share one layout and its sweep plans.
    """

    def __init__(self, levels: tuple[Level, ...]):
        self.levels = levels
        self.shapes = [tuple(num_cells(l) for l in lv) for lv in levels]
        self.starts = [0, *itertools.accumulate(math.prod(s) for s in self.shapes)]
        self.cells = self.starts[-1]
        self.plans: dict[tuple, _SweepPlan] = {}
        self.links: dict[tuple[int, int], np.ndarray] = {}

    def views(self, buf: np.ndarray, p: tuple[int, ...]) -> dict[Level, np.ndarray]:
        q = math.prod(p)
        return {
            lv: buf[q * lo : q * hi].reshape(shape + p)
            for lv, shape, lo, hi in zip(
                self.levels, self.shapes, self.starts, self.starts[1:]
            )
        }


# an adaptive run moves between a few level lists; each keeps its plans
@lru_cache(maxsize=16)
def _layout(levels: tuple[Level, ...]) -> LevelLayout:
    return LevelLayout(levels)


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

    @property
    def ndim(self) -> int:
        return len(self.p)

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

    Holds the sorted level list and its `LevelLayout`, a copy of the grid's
    per-level boolean cell masks, the layout index of every inactive cell,
    and constructors for coefficient sets.  Rebuild after the grid changes
    (the stored version detects staleness).
    """

    def __init__(self, grid: AdaptiveGrid):
        self.grid = grid
        self.version = grid.version
        self.ndim = grid.ndim
        self.levels: list[Level] = sorted(grid.masks)
        self.level_set = frozenset(self.levels)
        self.masks = {lv: grid.masks[lv].copy() for lv in self.levels}
        self.layout = _layout(tuple(self.levels))
        self._inactive = np.flatnonzero(
            np.concatenate([~self.masks[lv].ravel() for lv in self.levels])
        )

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
        """Carry coefficients onto this space's level set (drop/extend/mask)."""
        out = self.zeros(cs.p)
        for lv, arr in cs.data.items():
            view = out.data.get(lv)
            if view is not None:
                view[...] = arr
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
    """Index maps of one sweep: gather, products, gather back.

    The gathered entries are the sweep's fibers.  A dense plan lists them in
    groups: group g holds `width` fibers of `rows` entries side by side as
    the (rows, width) block at `at`, multiplied by `op.mat[:rows, :rows]`
    into the same place of its output.  A cascade plan lists them level
    major instead (see `pyramid`), `counts[l]` of them at level l, and its
    outputs are the same fibers with the output's polynomial counts.
    """

    gather: np.ndarray  # input-buffer index of each gathered entry
    groups: tuple[tuple[int, int, int], ...]  # dense plans: rows, width, at
    counts: tuple[int, ...]  # cascade plans: fibers per level
    inverse: np.ndarray  # entry of the sweep's output at each output-buffer index


def _build_plan(
    layout: LevelLayout,
    dim: int,
    p_in: tuple[int, ...],
    p_out: tuple[int, ...],
    dense: bool,
) -> _SweepPlan:
    """Gather map of a sweep along `dim` over `layout`, and the inverse of
    its output order.

    The level list is downward closed, so every fiber holds its whole chain
    0..A, and the fibers cover the buffer: both maps are permutations.  A
    dense plan groups the fibers of equal A side by side, each as one column
    of its 1D levels; a dense factor is square, so its outputs sit where its
    inputs were.  A cascade plan takes level by level every fiber that
    reaches it, sorted by A from the top.
    """
    d = len(p_in)
    where = dict(zip(layout.levels, zip(layout.starts, layout.shapes)))
    front = (dim, d + dim) + tuple(j for j in range(2 * d) if j not in (dim, d + dim))
    back = front[2:] + front[:2]

    def block(rest: Level, a: int, p: tuple[int, ...], axes) -> np.ndarray:
        # buffer indices of level a of a fiber, axes of dim first or last
        start, cells = where[rest[:dim] + (a,) + rest[dim:]]
        q = math.prod(p)
        idx = np.arange(q * start, q * (start + math.prod(cells)))
        return idx.reshape(cells + p).transpose(axes)

    def rows(rest: Level, top: int) -> np.ndarray:
        # a fiber's levels 0..top as a (1D index, column) array
        blocks = [block(rest, a, p_in, front) for a in range(top + 1)]
        return np.concatenate([b.reshape(b.shape[0] * b.shape[1], -1) for b in blocks])

    tops: dict[Level, int] = {}
    for lv in layout.levels:
        rest = lv[:dim] + lv[dim + 1 :]
        tops[rest] = max(tops.get(rest, 0), lv[dim])
    groups, counts, gather, order = [], [], [], []
    if dense:
        at = 0
        ranked = sorted(tops, key=lambda rest: (tops[rest], rest))
        for top, rests in itertools.groupby(ranked, key=tops.get):
            x = np.concatenate([rows(r, top) for r in rests], axis=1)
            groups.append((len(x), x.shape[1], at))
            gather.append(x.ravel())
            at += x.size
    else:
        ranked = sorted(tops, key=lambda rest: (-tops[rest], rest))
        polys = math.prod(p_in) // p_in[dim]  # per cell of the other dimensions
        for a in range(max(tops.values()) + 1):
            reach = [r for r in ranked if tops[r] >= a]
            counts.append(polys * sum(math.prod(map(num_cells, r)) for r in reach))
            gather += [block(r, a, p_in, back).ravel() for r in reach]
            order += [block(r, a, p_out, back).ravel() for r in reach]
    gather = np.concatenate(gather)
    order = gather if dense else np.concatenate(order)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return _SweepPlan(gather, tuple(groups), tuple(counts), inverse)


def _plan(
    layout: LevelLayout, p: tuple[int, ...], op: Operator1D, dim: int
) -> tuple[_SweepPlan, tuple[int, ...]]:
    """The plan of a sweep of `op` along `dim` over fields of polynomial
    counts p, built on first use, and the output's polynomial counts."""
    if op.col.p != p[dim]:
        raise ValueError(f"operator takes {op.col.p} polys, field has {p[dim]}")
    p_out = p[:dim] + (op.row.p,) + p[dim + 1 :]
    dense = isinstance(op.mat, np.ndarray)
    key = (dim, p, op.row.p, dense)
    plan = layout.plans.get(key)
    if plan is None:
        plan = layout.plans[key] = _build_plan(layout, dim, p, p_out, dense)
    return plan, p_out


def _products(mat: np.ndarray, xg: np.ndarray, plan: _SweepPlan) -> np.ndarray:
    """A dense factor on the gathered fibers: one product per group, into a
    work array in the same order."""
    yg = work_array("products", xg.shape)
    for rows, width, at in plan.groups:
        shape, span = (rows, width), slice(at, at + rows * width)
        np.matmul(mat[:rows, :rows], xg[span].reshape(shape), out=yg[span].reshape(shape))
    return yg


def _sweeps(
    layout: LevelLayout, x: np.ndarray, p: tuple[int, ...], ops, dims: list[int]
) -> np.ndarray:
    """The sweeps of one term, in the order `dims`, into a work array that
    the next term reuses.

    Each sweep runs its factor on the gathered fibers: grouped products of
    a dense matrix or one cascade of a pyramid form.  The fibers cover
    every output, so the next sweep gathers its fibers straight from this
    one's output (`_link`), and the last one's output is gathered back into
    buffer order by the plan's inverse.
    """
    plan, p = _plan(layout, p, ops[dims[0]], dims[0])
    xg = _take(x, plan.gather, "gathered")
    for dim, after in zip(dims, dims[1:] + [None]):
        op = ops[dim]
        if isinstance(op.mat, np.ndarray):
            yg = _products(op.mat, xg, plan)
        else:
            yg = op.mat.cascade(op.tag, xg, plan.counts)
        if after is not None:
            nxt, p = _plan(layout, p, ops[after], after)
            xg = _take(yg, _link(layout, plan, nxt), "gathered")
            plan = nxt
    return _take(yg, plan.inverse, "swept")


def _take(x: np.ndarray, index: np.ndarray, role: str) -> np.ndarray:
    """x[index] into the work array of `role`; the index is in range, so
    `clip` spares numpy the buffered copy of its bounds check."""
    return np.take(x, index, out=work_array(role, index.shape), mode="clip")


def _link(layout: LevelLayout, plan: _SweepPlan, nxt: _SweepPlan) -> np.ndarray:
    """Where each of `nxt`'s gathered entries sits in `plan`'s output."""
    key = (id(plan), id(nxt))  # plans live as long as their layout
    hit = layout.links.get(key)
    if hit is None:
        hit = layout.links[key] = plan.inverse[nxt.gather]
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


def _prefix_tree(keys: list[Level], m: int) -> list | Level:
    """Equal-length keys grouped by key[m], then by key[m + 1] within each
    group, and so on: [(key[m], subtree)], down to the key itself."""
    if m == len(keys[0]):
        return keys[0]
    return [
        (l, _prefix_tree(list(sub), m + 1))
        for l, sub in itertools.groupby(keys, key=lambda key: key[m])
    ]


class Lattice:
    """An Alpert-coefficient field prepared for evaluation on one tensor
    lattice of points, a tile of rows at a time.

    A level-l function is nonzero on one cell, so each point needs k+1
    values per axis and level, and only the cells holding points enter.
    Sum factorisation over level prefixes, depth first: the level tuples
    that share lv[:m+1] are summed with axes m+1.. already evaluated, and
    axis m is then evaluated once for their sum.  The last axis comes
    first: the levels that share lv[:-1], a fiber, sum to one (rows of the
    leading axes, points) array.  Those fiber sums are kept for a window of
    last-axis points, so the tiles inside it re-expand only the leading
    axes; the point values of every axis and level are found once.

    `budget`, in points, sizes `tiles` and the window; without it the
    window is the tile.
    """

    def __init__(
        self, cs: CoeffSet, k: int, axes_points: list[np.ndarray], budget: int | None = None
    ):
        levels = cs.layout.levels
        self.cs, self.k, self.budget = cs, k, budget
        self.shape = tuple(len(x) for x in axes_points)
        # per axis and level: the cell and the k+1 values of every point
        self.points = [
            {l: level_values(alpert_family(k, l), l, x) for l in {lv[m] for lv in levels}}
            for m, x in enumerate(axes_points)
        ]
        # the leading axes' tables over all their points
        self.leading = [{l: _table(*cv) for l, cv in axis.items()} for axis in self.points[:-1]]
        self.fibers = {
            key: list(fiber) for key, fiber in itertools.groupby(levels, key=lambda lv: lv[:-1])
        }
        self.tree = _prefix_tree(list(self.fibers), 0)
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
        tables = [
            whole if r == slice(0, s) else {l: _table(c[r], v[r]) for l, (c, v) in axis.items()}
            for whole, axis, r, s in zip(self.leading, self.points, rows, self.shape)
        ]
        sums, lo = self._fiber_sums(tables, rows)
        cut = slice(lo, lo + shape[-1])
        if len(shape) == 1:
            return sums[()][0, cut].copy()
        return self._expand(self.tree, 0, tables, sums, cut, shape).reshape(shape)

    def _expand(self, tree: list, m: int, tables, sums, cut: slice, shape) -> np.ndarray:
        """Sum over the fibers in `tree`, which share key[:m], with axes m..
        evaluated: (rows of axes < m, points of axes m..)."""
        acc = None
        for l, sub in tree:
            cells, offsets, vals = tables[m][l]
            if m + 2 < len(shape):
                x = self._expand(sub, m + 1, tables, sums, cut, shape)
            else:
                x = sums[sub][:, cut]
            x = x.reshape(-1, cells.stop - cells.start, self.k + 1, math.prod(shape[m + 1 :]))
            x = _contract(x, offsets, vals)
            if acc is None:
                acc = x
            else:
                acc += x
            del x  # free this group's part before the next one is expanded
        return acc

    def _fiber_sums(
        self, tables: list[dict], rows: tuple[slice, ...]
    ) -> tuple[dict[Level, np.ndarray], int]:
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
        width = last.stop - last.start
        if self.budget is not None:
            # values the sums hold per last-axis point: their leading rows
            size = sum(
                math.prod((t[l][0].stop - t[l][0].start) * (k + 1) for t, l in zip(tables, key))
                for key in self.fibers
            )
            width *= max(1, self.budget // (size * width))
        window = slice(last.start, min(last.start + width, self.shape[-1]))
        ends = {l: _table(c[window], v[window]) for l, (c, v) in self.points[-1].items()}
        perm = [i // 2 + (i % 2) * d for i in range(2 * d)]  # (c1,p1,c2,p2,...)
        sums = {}
        for key, fiber in self.fibers.items():
            acc = None
            for lv in fiber:
                cells, offsets, vals = ends[lv[-1]]
                used = tuple(t[l][0] for t, l in zip(tables, key)) + (cells,)
                x = self.cs.data[lv][used].transpose(perm)
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
    """
    if tile is None:
        lattice = Lattice(cs, k, axes_points)
        tile = lattice, tuple(slice(0, s) for s in lattice.shape)
    lattice, rows = tile
    return lattice.values(rows)
