"""Dyadic multilevel element bookkeeping for hierarchical tensor bases.

An *element* is a pair (level, cell) of d-tuples.  In each dimension the mesh
level l owns cells j in {0, ..., max(2^(l-1) - 1, 0)}: levels 0 and 1 both have
a single cell (the level-0 basis spans the root cell, the level-1 increment
lives on the root cell as well), and level l >= 1 cell j is supported on the
dyadic interval [j * 2^-(l-1), (j+1) * 2^-(l-1)].  Multi-dimensional elements
are tensor products of these 1D increments.

The classes here know nothing about basis functions or coefficients; they only
track which elements are active, as one boolean cell mask per level, and the
index sets of sparse (|l|_1 <= N) and full (|l|_inf <= N) tensor grids.  Grids
change by whole-mask operations: along one dimension, the children of a
level's cells are its mask with every cell repeated twice, and their parents
are the pairwise OR of a finer mask.
"""

from __future__ import annotations

import itertools

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


class AdaptiveGrid:
    """Downward-closed active set of multilevel elements.

    The active set is one boolean cell mask per active level, `masks[level]`
    shaped (num_cells(l_1), ..., num_cells(l_d)); a level whose last cell
    goes is dropped.  The set changes only through `refine` and `coarsen`,
    which act on whole masks and keep two invariants: every ancestor of an
    active element is active (downward closure), and |level|_inf <= n_max.
    `version` grows by the number of cells they add or remove, so
    coefficient containers and cached per-level views can detect staleness.
    """

    def __init__(self, ndim: int, n_max: int):
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        self.ndim = ndim
        self.n_max = n_max
        self.masks: dict[Level, np.ndarray] = {(0,) * ndim: np.ones((1,) * ndim, bool)}
        self.version = 1

    def __len__(self) -> int:
        return sum(int(mask.sum()) for mask in self.masks.values())

    # -- mutation --------------------------------------------------------

    def refine(self, flags: dict[Level, np.ndarray]) -> int:
        """Activate the children, in every dimension, of the flagged cells.

        `flags[lv]` is a cell mask shaped like level lv.  Children stop at
        level n_max.  The ancestors of every new cell are then added, one
        |l|_1 layer at a time from the top, so each layer is complete before
        it is pooled into the next.  Only levels that gained cells are
        pooled: the others kept their ancestors when they got them.  Returns
        the number of cells added.
        """
        masks = dict(self.masks)
        dirty: set[Level] = set()
        added = 0
        for lv, flag in flags.items():
            if flag.any():
                for dim, l in enumerate(lv):
                    if l < self.n_max:
                        child = _shift(lv, dim, 1)
                        new = _merge(masks, child, _split(flag, dim, l))
                        if new:
                            dirty.add(child)
                            added += new
        for top in range(max(map(sum, dirty), default=0), 0, -1):
            for lv in [lv for lv in dirty if sum(lv) == top]:
                for dim, l in enumerate(lv):
                    if l > 0:
                        up = _shift(lv, dim, -1)
                        new = _merge(masks, up, _pool(masks[lv], dim, l))
                        if new:
                            dirty.add(up)
                            added += new
        return self._commit(masks, added)

    def coarsen(self, small: dict[Level, np.ndarray]) -> int:
        """Remove small cells that keep no active child; the root stays.

        One pass over levels in decreasing |l|_1: a cell goes iff
        `small[lv]` flags it and none of its children is still active.
        Removal only ever exposes parents, so this is the fixed point of
        removing small leaves one at a time.  Returns the number removed.
        """
        masks = dict(self.masks)
        root = (0,) * self.ndim
        removed = 0
        for lv in sorted(masks, key=sum, reverse=True):
            if lv == root or lv not in small:
                continue
            keep = ~small[lv]
            for dim, l in enumerate(lv):
                child = masks.get(_shift(lv, dim, 1))
                if child is not None:
                    keep |= _pool(child, dim, l + 1)
            kept = masks[lv] & keep
            left = int(np.count_nonzero(kept))
            removed += int(np.count_nonzero(masks[lv])) - left
            masks[lv] = kept
            if not left:
                del masks[lv]
        return self._commit(masks, removed)

    def _commit(self, masks: dict[Level, np.ndarray], changed: int) -> int:
        """Install `masks`, which differ from the current ones by `changed`
        cells, all added (refine) or all removed (coarsen)."""
        self.masks = masks
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
        grid.masks = {lv: np.ones(_shape(lv), dtype=bool) for lv in levels}
        grid.version = len(grid)  # as if each element were activated singly
        return grid

    def dump_centers(self) -> list[str]:
        """One line per active element, in iteration order: levels, cells,
        then cell centers.  Each level's cells come from one `argwhere`, and
        each (level, dimension, cell) index and center is formatted once."""
        keys = sorted(self.masks)
        found = [np.argwhere(self.masks[lv]) for lv in keys]
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


def _shape(lv: Level) -> tuple[int, ...]:
    return tuple(num_cells(l) for l in lv)


def _shift(lv: Level, dim: int, step: int) -> Level:
    return lv[:dim] + (lv[dim] + step,) + lv[dim + 1 :]


def _split(mask: np.ndarray, dim: int, level: int) -> np.ndarray:
    """Children along `dim` of a level-`level` mask's cells, on level + 1.

    Level 0's cell has the single child cell of level 1; a level l >= 1
    cell j has the cells 2j and 2j + 1.
    """
    return mask if level == 0 else np.repeat(mask, 2, axis=dim)


def _pool(mask: np.ndarray, dim: int, level: int) -> np.ndarray:
    """Parents along `dim` of a level-`level` mask's cells (the inverse map)."""
    if level == 1:
        return mask
    shape = mask.shape
    return mask.reshape(shape[:dim] + (shape[dim] // 2, 2) + shape[dim + 1 :]).any(axis=dim + 1)


def _merge(masks: dict[Level, np.ndarray], lv: Level, cells: np.ndarray) -> int:
    """OR `cells` into level lv's mask, creating the level if absent; the
    number of cells added."""
    old = masks.get(lv)
    if old is None:
        masks[lv] = cells.copy()
        return int(np.count_nonzero(cells))
    added = int(np.count_nonzero(cells & ~old))
    if added:
        masks[lv] = old | cells
    return added
