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
from typing import Iterable, Iterator

import numpy as np

Level = tuple[int, ...]
Cell = tuple[int, ...]
Key = tuple[Level, Cell]

# Packed keys use fixed-width bitfields: 4 bits of level and 12 bits of cell
# per dimension.  Level l owns 2^(l-1) cells, so the cell field caps usable
# levels at MAX_LEVEL = 13; a level-14 cell index would spill into the level
# bits and alias another key.
_LEVEL_BITS = 4
_CELL_BITS = 12
_DIM_BITS = _LEVEL_BITS + _CELL_BITS
MAX_LEVEL = _CELL_BITS + 1


def num_cells(level: int) -> int:
    """Number of cells a 1D level owns: 1, 1, 2, 4, ..., 2^(l-1)."""
    return 1 if level <= 1 else 1 << (level - 1)


def cell_width(level: int) -> float:
    """Width of the support interval of a level-l cell (levels 0,1 share the root)."""
    return 1.0 if level <= 1 else 2.0 ** (1 - level)


def pack_key(key: Key) -> int:
    packed = 0
    for l, j in zip(*key):
        packed = (packed << _DIM_BITS) | (l << _CELL_BITS) | j
    return packed


def unpack_key(packed: int, ndim: int) -> Key:
    levels = []
    cells = []
    for _ in range(ndim):
        cells.append(packed & ((1 << _CELL_BITS) - 1))
        levels.append((packed >> _CELL_BITS) & ((1 << _LEVEL_BITS) - 1))
        packed >>= _DIM_BITS
    return tuple(reversed(levels)), tuple(reversed(cells))


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

    The active set is a dict keyed by packed (level, cell) integers, so
    membership tests are O(1).  Mutations go through `activate` /
    `deactivate`, which maintain two invariants: every ancestor of an active
    element is active (downward closure), and |level|_inf <= n_max.  A
    monotonically increasing `version` lets coefficient containers and
    cached per-level views detect staleness.
    """

    def __init__(self, ndim: int, n_max: int, keys: Iterable[Key] = ()):
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        self.ndim = ndim
        self.n_max = n_max
        self._active: dict[int, Key] = {}
        self.version = 0
        self._level_view: dict[Level, np.ndarray] | None = None
        root = ((0,) * ndim, (0,) * ndim)
        self.activate(root)
        for key in keys:
            self.activate(key)

    # -- queries ---------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return pack_key(key) in self._active

    def __len__(self) -> int:
        return len(self._active)

    def __iter__(self) -> Iterator[Key]:
        return iter(sorted(self._active.values()))

    @property
    def num_elements(self) -> int:
        return len(self._active)

    def dof(self, p: int) -> int:
        """Coefficient count when each element carries a p^d block."""
        return len(self._active) * p**self.ndim

    def levels(self) -> dict[Level, np.ndarray]:
        """Map level -> sorted array of active flat cell indices (C order).

        The flat index of cell (j_1, ..., j_d) at level l is its row-major
        position in the full cell grid of that level.  Cached per version.
        """
        if self._level_view is None:
            by_level: dict[Level, list[int]] = {}
            for levels, cells in self._active.values():
                flat = 0
                for l, j in zip(levels, cells):
                    flat = flat * num_cells(l) + j
                by_level.setdefault(levels, []).append(flat)
            self._level_view = {
                lv: np.array(sorted(idx), dtype=np.int64)
                for lv, idx in sorted(by_level.items())
            }
        return self._level_view

    def max_level_sum(self) -> int:
        return max(sum(lv) for lv in self.levels())

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
            packed = pack_key(k)
            if packed in self._active:
                continue
            self._active[packed] = k
            self._touch()
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
        packed = pack_key(key)
        if packed in self._active:
            del self._active[packed]
            self._touch()

    def _touch(self) -> None:
        self.version += 1
        self._level_view = None

    # -- construction and export ----------------------------------------

    @classmethod
    def sparse(cls, ndim: int, n: int, n_max: int | None = None) -> "AdaptiveGrid":
        """Standard sparse grid: all elements with |level|_1 <= n."""
        grid = cls(ndim, n if n_max is None else n_max)
        for lv in sparse_levels(ndim, n):
            _activate_full_level(grid, lv)
        return grid

    @classmethod
    def full(
        cls,
        ndim: int,
        n: int,
        block: int = 1,
        coeff_cap: int = 1 << 26,
    ) -> "AdaptiveGrid":
        """Full tensor grid: |level|_inf <= n.  Refuses oversized requests.

        The coefficient count block^d * 2^(n*d) (block = polynomials per
        element and dimension) is checked against `coeff_cap` before any
        allocation happens.
        """
        count = block**ndim * (1 << (n * ndim))
        if count > coeff_cap:
            raise MemoryError(
                f"full grid needs {count} coefficients, over the cap {coeff_cap}"
            )
        grid = cls(ndim, n)
        for lv in full_levels(ndim, n):
            _activate_full_level(grid, lv)
        return grid

    def dump_centers(self) -> list[str]:
        """One line per active element: levels, cells, then cell centers."""
        lines = []
        for levels, cells in self:
            center = element_center((levels, cells))
            fields = [str(v) for v in levels + cells] + [f"{c:.8f}" for c in center]
            lines.append(" ".join(fields))
        return lines


def _activate_full_level(grid: AdaptiveGrid, lv: Level) -> None:
    ranges = [range(num_cells(l)) for l in lv]
    for cells in itertools.product(*ranges):
        grid.activate((lv, cells))
