"""Dyadic multilevel element bookkeeping for hierarchical tensor bases.

An *element* is a pair (level, cell) of d-tuples.  In each dimension the mesh
level l owns cells j in {0, ..., max(2^(l-1) - 1, 0)}: levels 0 and 1 both have
a single cell (the level-0 basis spans the root cell, the level-1 increment
lives on the root cell as well), and level l >= 1 cell j is supported on the
dyadic interval [j * 2^-(l-1), (j+1) * 2^-(l-1)].  Multi-dimensional elements
are tensor products of these 1D increments.

The classes here know nothing about basis functions or coefficients.  A
`LevelLayout` places the cells of a sorted level list one level after
another, and every coefficient buffer follows it.  An `AdaptiveGrid` holds
its active elements as one boolean array over a layout; it also builds the
sparse (|l|_1 <= N) and full (|l|_inf <= N) tensor grids.  Grids change by
whole arrays: refine and coarsen index the layout's cell tables (each cell's
parents and children) until a fixed point, then carry the result onto the
layout of the levels left nonempty.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

Level = tuple[int, ...]

# Input bound on levels.  Storage is bounded separately: a 1D operator is a
# pyramid, a few (k+1)^2 tables per level plus node tables of O(2^n p)
# entries, and a constant-speed one also holds a dense leading block of at
# most `fastmv.DENSE_ENTRIES`^2 doubles, as deep as its sweeps reach; so the
# coefficient buffers bound every run.
MAX_LEVEL = 13

# Coefficient cap of one field on a full or sparse grid, (k+1)^d per cell;
# `AdaptiveGrid.full` and the config check refuse anything larger before
# allocating.
FULL_GRID_COEFFS = 1 << 26


def num_cells(level: int) -> int:
    """Number of cells a 1D level owns: 1, 1, 2, 4, ..., 2^(l-1)."""
    return 1 if level <= 1 else 1 << (level - 1)


def cell_width(level: int) -> float:
    """Width of the support interval of a level-l cell (levels 0,1 share the root)."""
    return 1.0 if level <= 1 else 2.0 ** (1 - level)


def sparse_levels(ndim: int, n: int) -> list[Level]:
    """All level multi-indices with |l|_1 <= n, lexicographically sorted."""
    out = [
        lv
        for lv in itertools.product(range(n + 1), repeat=ndim)
        if sum(lv) <= n
    ]
    return sorted(out)


def full_levels(ndim: int, n: int) -> list[Level]:
    """All level multi-indices with |l|_inf <= n."""
    return sorted(itertools.product(range(n + 1), repeat=ndim))


class LevelLayout:
    """Where each cell of a sorted level list sits: level lv takes
    prod(cells) consecutive places, in list order, its cells in C order.  A
    coefficient buffer holds prod(p) values per place.  Grids and spaces
    with equal level lists share one layout (`level_layout`) and its caches.
    """

    def __init__(self, levels: tuple[Level, ...]):
        self.levels = levels
        self.shapes = [tuple(num_cells(l) for l in lv) for lv in levels]
        self.starts = [0, *itertools.accumulate(math.prod(s) for s in self.shapes)]
        self.cells = self.starts[-1]
        self.plans = {}  # `fastmv._SweepPlan`s by sweep
        self.chains = {}  # `Chains` by counts
        self.maps = {}  # the index maps a warm apply reads, no fiber order (`fastmv._map`)
        self.moves = {}  # `cell_map` by the old level list
        self.regrids = {}  # `_cell_tables` by n_max

    def views(self, buf: np.ndarray, p: tuple[int, ...]) -> dict[Level, np.ndarray]:
        q = math.prod(p)
        spans = zip(self.levels, self.shapes, self.starts, self.starts[1:])
        return {lv: buf[q * lo : q * hi].reshape(shape + p) for lv, shape, lo, hi in spans}

    def cell_map(self, old: "LevelLayout") -> tuple[np.ndarray, np.ndarray]:
        """The cells of the levels that `old` and this layout share: their
        places in `old` and here, in one order."""
        hit = self.moves.get(old.levels)
        if hit is None:
            here = dict(zip(self.levels, self.starts))
            keep = np.array([lv in here for lv in old.levels])
            shift = np.array([here.get(lv, lo) - lo for lv, lo in zip(old.levels, old.starts)])
            level = np.repeat(np.arange(len(old.levels)), np.diff(old.starts))
            src = np.flatnonzero(keep[level])
            hit = self.moves[old.levels] = src, src + shift[level[src]]
        return hit

    def tables(self, n_max: int):
        """`_cell_tables` of this level list, built once per n_max."""
        if n_max not in self.regrids:
            self.regrids[n_max] = _cell_tables(self, n_max)
        return self.regrids[n_max]


# an adaptive run moves between a few level lists; each keeps its caches
@lru_cache(maxsize=16)
def level_layout(levels: tuple[Level, ...]) -> LevelLayout:
    return LevelLayout(levels)


def _geometry(layout: LevelLayout):
    """Per level, its first place and cell strides along each dimension,
    with the place after the last and zero strides for a missing level
    (list position -1); per cell, its list position and coordinates."""
    shapes, starts = np.array(layout.shapes), np.array(layout.starts)
    strides = np.zeros((len(shapes) + 1, shapes.shape[1]), int)
    strides[:-1] = np.stack([shapes[:, m + 1 :].prod(axis=1) for m in range(shapes.shape[1])], 1)
    level = np.repeat(np.arange(len(shapes)), np.diff(starts))
    local = np.arange(layout.cells) - starts[level]
    return starts, strides, level, local[:, None] // strides[level] % shapes[level]


def _places(starts, strides, at: np.ndarray, coord: np.ndarray, moved: np.ndarray):
    """Places of the cells, one per row and dimension m, on the level at
    list position at[:, m], with the coordinates `coord` but moved[:, m]
    along m."""
    out = starts[at]
    for k in range(coord.shape[1]):
        c = coord[:, [k] * coord.shape[1]]  # the coordinate along k, for each m
        c[:, k] = moved[:, k]
        out += c * strides[:, k][at]
    return out


def _cell_tables(layout: LevelLayout, n_max: int):
    """A level list's regrid tables: `ext`, the layout of the list extended
    by one level along each dimension up to n_max; each cell's place there
    (`into`); the places there of its children along every dimension
    (`kids`, (cells, 2 d), a level-0 cell's one child twice) and of each
    `ext` cell's parents (`up`, (ext.cells, d)).  A missing child or parent
    has the place `ext.cells`.  A level's code, its index in a mixed radix,
    sorts as the level does and finds its list position in `pos`."""
    levels = np.array(layout.levels)
    d, radix = levels.shape[1], n_max + 2
    weight = radix ** np.arange(d - 1, -1, -1)
    grown = (levels[:, None] + np.eye(d, dtype=int)).reshape(-1, d)
    pos = np.full(radix**d, -1)
    pos[(np.concatenate([levels, grown[grown.max(axis=1) <= n_max]]) * weight).sum(1)] = 0
    codes = np.flatnonzero(pos == 0)
    pos[codes] = np.arange(len(codes))
    ext_levels = codes[:, None] // weight % radix
    ext = LevelLayout(tuple(map(tuple, ext_levels.tolist())))

    def near(lv: np.ndarray, step: int) -> np.ndarray:
        # list positions in ext of each level lv + step e_m, (levels, d); -1 if absent
        code = (lv * weight).sum(1)[:, None] + step * weight
        return np.where(lv + step >= 0, pos[code], -1)

    *_, level, coord = _geometry(layout)
    starts, strides, ext_level, ext_coord = _geometry(ext)
    at, two = near(levels, 1)[level], levels[level] > 0
    kids = [_places(starts, strides, at, coord, (2 * coord + b) * two) for b in (0, 1)]
    up = _places(starts, strides, near(ext_levels, -1)[ext_level], ext_coord, ext_coord >> 1)
    return ext, ext.cell_map(layout)[1], np.concatenate(kids, axis=1), up


class AdaptiveGrid:
    """Downward-closed active set of multilevel elements.

    The active set is one boolean array `active` over `layout`, whose level
    list holds the levels with an active cell.  `refined` and `coarsened`
    give a changed set, (layout, active, cells changed), and `commit`
    installs one; the array is replaced, never written.  Every ancestor of
    an active element is active, and |level|_inf <= n_max.  `version` grows
    by the cells each change adds or removes, so a grid and its version
    name one active set.
    """

    def __init__(self, ndim: int, n_max: int):
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        self.ndim, self.n_max, self.version = ndim, n_max, 0
        self.commit(level_layout(((0,) * ndim,)), np.ones(1, bool), 1)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.active))

    @property
    def masks(self) -> dict[Level, np.ndarray]:
        """One cell mask per active level, each a view of `active`."""
        return self.layout.views(self.active, ())

    # -- mutation --------------------------------------------------------

    def refined(self, flags: np.ndarray):
        """Add the children, along every dimension up to n_max, of the cells
        `flags` marks; then the new cells' missing parents, a round at a
        time, until a round finds none missing."""
        ext, into, kids, up = self.layout.tables(self.n_max)
        act = np.zeros(ext.cells + 1, bool)
        act[into] = self.active
        act[-1] = True  # a missing child or parent: nothing to add
        new = np.zeros_like(act)
        new[kids[flags]] = True
        while len(cells := np.flatnonzero(new & ~act)):
            act[cells] = True
            new[:] = False
            new[up[cells]] = True
        return self._relayout(ext, act[:-1])

    def coarsened(self, small: np.ndarray):
        """Remove the cells `small` marks that keep no active child, but not
        the root.  A cell stays if it is not small, is the root, or has a
        staying child: rounds remove the small cells whose children are all
        gone until one removes none, the fixed point of removing small
        leaves one at a time."""
        ext, into, kids, _ = self.layout.tables(self.n_max)
        stay = np.zeros(ext.cells + 1, bool)  # a missing child does not stay
        stay[into] = self.active
        left = np.flatnonzero(small[1:]) + 1  # cell 0, the root, stays
        while (free := ~stay[kids[left]].any(axis=1)).any():
            stay[into[left[free]]] = False
            left = left[~free]
        return self._relayout(ext, stay[:-1])

    def _relayout(self, ext: LevelLayout, act: np.ndarray):
        """`act`, over `ext`, on the layout of its nonempty levels."""
        changed = abs(int(np.count_nonzero(act)) - len(self))
        if not changed:
            return self.layout, self.active, 0
        keep = np.logical_or.reduceat(act, ext.starts[:-1]).tolist()
        layout = level_layout(tuple(itertools.compress(ext.levels, keep)))
        src, _ = layout.cell_map(ext)  # every cell of layout, in order
        return layout, act[src], changed

    def commit(self, layout: LevelLayout, active: np.ndarray, changed: int) -> int:
        """Install `active` over `layout`, `changed` cells from the set."""
        active.flags.writeable = False
        self.layout, self.active = layout, active
        self.version += changed
        return changed

    # -- construction and export ----------------------------------------

    @classmethod
    def sparse(cls, ndim: int, n: int, n_max: int | None = None) -> "AdaptiveGrid":
        """Standard sparse grid: all elements with |level|_1 <= n."""
        n_max = n if n_max is None else n_max
        if n > n_max:
            raise ValueError(f"level {n} exceeds n_max={n_max}")
        return cls._whole_levels(ndim, n_max, sparse_levels(ndim, n))

    @classmethod
    def full(cls, ndim: int, n: int, block: int = 1) -> "AdaptiveGrid":
        """Full tensor grid: |level|_inf <= n.  Refuses oversized requests.

        The coefficient count block^d * 2^(n*d) (block = polynomials per
        element and dimension) is checked against `FULL_GRID_COEFFS` before
        any allocation happens.
        """
        count = block**ndim * (1 << (n * ndim))
        if count > FULL_GRID_COEFFS:
            raise MemoryError(
                f"full grid needs {count} coefficients, over the cap {FULL_GRID_COEFFS}"
            )
        return cls._whole_levels(ndim, n, full_levels(ndim, n))

    @classmethod
    def _whole_levels(cls, ndim: int, n_max: int, levels: list[Level]) -> "AdaptiveGrid":
        """Grid of every cell on a downward-closed level list."""
        grid = cls(ndim, n_max)
        layout = level_layout(tuple(levels))
        grid.version = 0  # as if each element were activated singly
        grid.commit(layout, np.ones(layout.cells, bool), layout.cells)
        return grid

    def dump_centers(self) -> list[str]:
        """One line per active element, in iteration order: levels, cells,
        then cell centers.  Each level's cells come from one `argwhere`, and
        each (level, dimension, cell) index and center is formatted once."""
        masks = self.masks
        keys = list(masks)
        found = [np.argwhere(masks[lv]) for lv in keys]
        counts = [len(cells) for cells in found]
        cells = np.concatenate(found).T
        levels = np.repeat(np.array(keys).T, counts, axis=1)
        index, center = [], []
        for m in range(self.ndim):
            # every cell of each level along m, one table; row = offset + cell
            offsets = np.zeros(self.n_max + 1, int)
            names, places = [], []
            for l in sorted({lv[m] for lv in keys}):
                offsets[l] = len(names)
                j = np.arange(num_cells(l))
                names += map(str, j.tolist())
                places += map("{:.8f}".format, ((j + 0.5) * cell_width(l)).tolist())
            rows = (offsets[levels[m]] + cells[m]).tolist()
            index.append(map(names.__getitem__, rows))
            center.append(map(places.__getitem__, rows))
        heads = [" ".join(map(str, lv)) for lv in keys]
        head = itertools.chain.from_iterable(map(itertools.repeat, heads, counts))
        return list(map(" ".join, zip(head, *index, *center)))
