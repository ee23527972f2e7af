"""Refinement and coarsening driven by hierarchical coefficient magnitudes.

An element's indicator is the root-sum-square of its coefficient blocks
across all supplied fields (here: displacement and velocity).  Because the
basis is orthonormal, dropping a leaf element changes the represented
function by exactly its indicator, which makes the thresholds meaningful in
the L2 sense.  Newly activated children start with zero detail coefficients
and therefore represent the same function as before the refinement.

Both passes compare the indicators of all cells with a threshold at once
and hand the resulting flag array, over the space's layout, to the grid.
"""

from __future__ import annotations

import math

import numpy as np

from .fastmv import CoeffSet, TensorSpace
from .grids import FULL_GRID_COEFFS, AdaptiveGrid


def element_norms(space: TensorSpace, fields: list[CoeffSet]) -> np.ndarray:
    """Per-element indicator, one per cell of the space's layout."""
    cells = space.layout.cells
    return np.sqrt(sum((f.buf.reshape(cells, -1) ** 2).sum(axis=1) for f in fields))


def refine(grid: AdaptiveGrid, space: TensorSpace, fields: list[CoeffSet], eps: float) -> bool:
    """Activate the children (every dimension) of elements above `eps`.
    Raises `MemoryError`, leaving the grid as it was, if the refined grid
    would hold more than `FULL_GRID_COEFFS` coefficients per field,
    counting every cell of each active level, as `LevelLayout` stores them."""
    flags = (element_norms(space, fields) > eps) & space.active
    layout, active, added = grid.refined(flags)
    if not added:
        return False
    count = math.prod(fields[0].p) * layout.cells
    if count > FULL_GRID_COEFFS:
        raise MemoryError(
            f"adaptive grid needs {count} coefficients per field, over the cap {FULL_GRID_COEFFS}"
        )
    return grid.commit(layout, active, added) > 0


def coarsen(grid: AdaptiveGrid, space: TensorSpace, fields: list[CoeffSet], eta: float) -> bool:
    """Drop elements below `eta` that keep no active child; the root stays.

    Removing a leaf can expose its parent as a new leaf, and the grid runs
    that cascade to its end.  Indicators are computed once up front: an
    exposed parent's own coefficients are unchanged by the removal.
    """
    small = (element_norms(space, fields) < eta) & space.active
    return grid.commit(*grid.coarsened(small)) > 0
