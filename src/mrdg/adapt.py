"""Refinement and coarsening driven by hierarchical coefficient magnitudes.

An element's indicator is the root-sum-square of its coefficient blocks
across all supplied fields (here: displacement and velocity).  Because the
basis is orthonormal, dropping a leaf element changes the represented
function by exactly its indicator, which makes the thresholds meaningful in
the L2 sense.  Newly activated children start with zero detail coefficients
and therefore represent the same function as before the refinement.

Both passes compare the indicators with a threshold level by level and hand
the resulting cell masks to the grid's whole-mask `refine` and `coarsen`.
"""

from __future__ import annotations

import math

import numpy as np

from .fastmv import CoeffSet, TensorSpace
from .grids import FULL_GRID_COEFFS, AdaptiveGrid, Level


def element_norms(space: TensorSpace, fields: list[CoeffSet]) -> dict[Level, np.ndarray]:
    """Per-element indicator, one (cells...)-shaped array per level."""
    layout = space.layout
    sq = sum((f.buf.reshape(layout.cells, -1) ** 2).sum(axis=1) for f in fields)
    return layout.views(np.sqrt(sq), ())


def refine(
    grid: AdaptiveGrid,
    space: TensorSpace,
    fields: list[CoeffSet],
    eps: float,
) -> bool:
    """Activate the children (every dimension) of elements above `eps`.
    Raises `MemoryError` if the refined grid holds more than
    `FULL_GRID_COEFFS` coefficients per field, counting every cell of each
    active level, as `LevelLayout` stores them."""
    norms = element_norms(space, fields)
    flags = {lv: (a > eps) & space.masks[lv] for lv, a in norms.items()}
    if not grid.refine(flags):
        return False
    count = math.prod(fields[0].p) * sum(mask.size for mask in grid.masks.values())
    if count > FULL_GRID_COEFFS:
        raise MemoryError(
            f"adaptive grid needs {count} coefficients per field, over the cap {FULL_GRID_COEFFS}"
        )
    return True


def coarsen(
    grid: AdaptiveGrid,
    space: TensorSpace,
    fields: list[CoeffSet],
    eta: float,
) -> bool:
    """Drop elements below `eta` that keep no active child; the root stays.

    Removing a leaf can expose its parent as a new leaf, and the grid runs
    that cascade to its end.  Indicators are computed once up front: an
    exposed parent's own coefficients are unchanged by the removal.
    """
    norms = element_norms(space, fields)
    small = {lv: (a < eta) & space.masks[lv] for lv, a in norms.items()}
    return grid.coarsen(small) > 0
