"""Dyadic multilevel element bookkeeping for hierarchical tensor bases.

An *element* is a pair (level, cell) of d-tuples.  In each dimension the mesh
level l owns cells j in {0, ..., max(2^(l-1) - 1, 0)}: levels 0 and 1 both have
a single cell (the level-0 basis spans the root cell, the level-1 increment
lives on the root cell as well), and level l >= 1 cell j is supported on the
dyadic interval [j * 2^-(l-1), (j+1) * 2^-(l-1)].  Multi-dimensional elements
are tensor products of these 1D increments.

The classes here know nothing about basis functions or coefficients; they only
track which elements are active, parent/child relations, and the index sets of
sparse (|l|_1 <= N) and full (|l|_inf <= N) tensor grids.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

Level = tuple[int, ...]
Cell = tuple[int, ...]
Key = tuple[Level, Cell]

# Input bound on levels, not a storage limit: a dense 1D operator at level 13
# already takes more than 2 GB ((2 * 2^13)^2 doubles at k = 1).
MAX_LEVEL = 13

# Coefficient cap of a full grid, block^d * 2^(n*d) per field; `AdaptiveGrid.full`
# and the config check refuse anything larger before allocating.
FULL_GRID_COEFFS = 1 << 26


def num_cells(level: int) -> int:
    """Number of cells a 1D level owns: 1, 1, 2, 4, ..., 2^(l-1)."""
    return 1 if level <= 1 else 1 << (level - 1)


def cell_width(level: int) -> float:
    """Width of the support interval of a level-l cell (levels 0,1 share the root)."""
    return 1.0 if level <= 1 else 2.0 ** (1 - level)


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


def element_center(key: Key) -> tuple[float, ...]:
    levels, cells = key
    return tuple(
        (j + 0.5) * cell_width(l) if l >= 1 else 0.5 for l, j in zip(levels, cells)
    )


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
    shaped (num_cells(l_1), ..., num_cells(l_d)); a level whose last cell is
    deactivated is dropped.  Mutations go through `activate` / `deactivate`,
    which maintain two invariants: every ancestor of an active element is
    active (downward closure), and |level|_inf <= n_max.  `version` grows by
    one per activated or deactivated element, so coefficient containers and
    cached per-level views can detect staleness.
    """

    def __init__(self, ndim: int, n_max: int):
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        self.ndim = ndim
        self.n_max = n_max
        self.masks: dict[Level, np.ndarray] = {}
        self.version = 0
        self.activate(((0,) * ndim, (0,) * ndim))

    # -- queries ---------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        levels, cells = key
        mask = self.masks.get(levels)
        if mask is None or len(cells) != mask.ndim:
            return False
        return all(0 <= j < s for j, s in zip(cells, mask.shape)) and bool(mask[cells])

    def __len__(self) -> int:
        return sum(int(mask.sum()) for mask in self.masks.values())

    def __iter__(self) -> Iterator[Key]:
        """Active keys in sorted order (a snapshot; safe to mutate while iterating)."""
        return iter(
            [
                (lv, tuple(cells))
                for lv in sorted(self.masks)
                for cells in np.argwhere(self.masks[lv]).tolist()
            ]
        )

    def is_leaf(self, key: Key) -> bool:
        """No active child in any dimension."""
        for dim in range(self.ndim):
            for child in children(key, dim, self.n_max):
                if child in self:
                    return False
        return True

    # -- mutation --------------------------------------------------------

    def activate(self, key: Key) -> None:
        """Activate `key` and any missing ancestors."""
        validate_key(key)
        levels = key[0]
        if max(levels) > self.n_max:
            raise ValueError(f"level {levels} exceeds n_max={self.n_max}")
        stack = [key]
        while stack:
            k = stack.pop()
            if k in self:
                continue
            lv, cells = k
            mask = self.masks.get(lv)
            if mask is None:
                mask = self.masks[lv] = np.zeros(_shape(lv), dtype=bool)
            mask[cells] = True
            self.version += 1
            for dim in range(self.ndim):
                par = parent(k, dim)
                if par is not None:
                    stack.append(par)

    def deactivate(self, key: Key) -> None:
        """Remove a leaf element; refuses the root and non-leaves."""
        if key == ((0,) * self.ndim, (0,) * self.ndim):
            raise ValueError("cannot deactivate the root element")
        if not self.is_leaf(key):
            raise ValueError(f"cannot deactivate non-leaf element {key}")
        if key in self:
            mask = self.masks[key[0]]
            mask[key[1]] = False
            if not mask.any():
                del self.masks[key[0]]
            self.version += 1

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
        """One line per active element: levels, cells, then cell centers."""
        lines = []
        for levels, cells in self:
            center = element_center((levels, cells))
            fields = [str(v) for v in levels + cells] + [f"{c:.8f}" for c in center]
            lines.append(" ".join(fields))
        return lines


def _shape(lv: Level) -> tuple[int, ...]:
    return tuple(num_cells(l) for l in lv)
