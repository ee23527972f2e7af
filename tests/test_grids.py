"""Multilevel element bookkeeping: keys, closure, per-level cell masks.

The key-by-key tests check the reference model in `conftest.py`, which
`test_adapt.py` compares the whole-mask regrid against.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrdg.grids import (
    AdaptiveGrid,
    cell_width,
    num_cells,
    sparse_levels,
)
from mrdg.fastmv import TensorSpace

from conftest import (
    activate,
    center_lines,
    children,
    contains,
    deactivate,
    element_center,
    grid_keys,
    is_leaf,
    parent,
    random_pruning,
    validate_key,
)


def valid_keys(ndim, n_max):
    levels = st.tuples(*([st.integers(0, n_max)] * ndim))
    return levels.flatmap(
        lambda lv: st.tuples(
            st.just(lv),
            st.tuples(*[st.integers(0, num_cells(l) - 1) for l in lv]),
        )
    )


def test_cell_counts_double_above_level_one():
    # levels 0 and 1 both hold a single cell spanning [0, 1]
    assert [num_cells(l) for l in range(5)] == [1, 1, 2, 4, 8]
    assert [cell_width(l) for l in range(5)] == [1.0, 1.0, 0.5, 0.25, 0.125]


def test_parent_child_relationship():
    # level 0 has the single child (1, 0); level >= 1 cells split in two
    root = ((0, 0), (0, 0))
    assert children(root, 0, 4) == [((1, 0), (0, 0))]
    key = ((2, 0), (1, 0))
    kids = children(key, 0, 4)
    assert kids == [((3, 0), (2, 0)), ((3, 0), (3, 0))]
    for kid in kids:
        assert parent(kid, 0) == key
    assert parent(root, 0) is None
    assert parent(root, 1) is None
    assert children(((4, 0), (7, 0)), 0, 4) == []  # capped at n_max


@given(valid_keys(2, 5), st.integers(0, 1))
def test_children_invert_parent(key, dim):
    for kid in children(key, dim, 5):
        assert parent(kid, dim) == key


def test_validate_key_rejects_out_of_range_cells():
    with pytest.raises(ValueError):
        validate_key(((2, 1), (2, 0)))  # level 2 has cells {0, 1}
    with pytest.raises(ValueError):
        validate_key(((0,), (1,)))
    # levels stop at MAX_LEVEL = 13
    with pytest.raises(ValueError):
        validate_key(((14,), (0,)))


def test_element_center():
    assert element_center(((0, 0), (0, 0))) == (0.5, 0.5)
    assert element_center(((2, 3), (1, 0))) == (0.75, 0.125)


@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 2**16), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_dump_centers_equals_element_centers(ndim, n_max, seed, steps):
    # the whole-level formatting writes what one element at a time writes
    grid = random_pruning(ndim, n_max, seed, steps)
    assert grid.dump_centers() == center_lines(grid)
    grid = AdaptiveGrid.sparse(ndim, min(n_max, 4), n_max)
    assert grid.dump_centers() == center_lines(grid)


@pytest.mark.parametrize("ndim,n", [(1, 4), (2, 3), (3, 3)])
def test_sparse_grid_matches_enumeration(ndim, n):
    grid = AdaptiveGrid.sparse(ndim, n)
    expected = 0
    for lv in itertools.product(range(n + 1), repeat=ndim):
        if sum(lv) <= n:
            expected += int(np.prod([num_cells(l) for l in lv]))
    assert len(grid) == expected
    assert sorted(grid.masks) == sparse_levels(ndim, n)
    assert all(mask.all() for mask in grid.masks.values())


def test_full_grid_element_count():
    grid = AdaptiveGrid.full(2, 3)
    expected = sum(
        num_cells(a) * num_cells(b)
        for a in range(4)
        for b in range(4)
    )
    assert len(grid) == expected


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_growth_stays_downward_closed(seed):
    grid = random_pruning(2, 4, seed, steps=25)
    for key in grid_keys(grid):
        for dim in range(2):
            par = parent(key, dim)
            assert par is None or contains(grid, par)
        assert max(key[0]) <= 4


def test_activate_fills_in_ancestors():
    grid = AdaptiveGrid(2, 4)
    activate(grid, ((3, 2), (2, 1)))
    # the full ancestor rectangle must be present
    for la in range(4):
        for lb in range(3):
            assert any(k[0] == (la, lb) for k in grid_keys(grid))


def test_activate_rejects_levels_beyond_cap():
    grid = AdaptiveGrid(1, 3)
    with pytest.raises(ValueError):
        activate(grid, ((4,), (0,)))


def test_deactivate_leaf_only_and_never_root():
    grid = AdaptiveGrid(1, 3)
    activate(grid, ((2,), (0,)))
    with pytest.raises(ValueError):
        deactivate(grid, ((0,), (0,)))
    with pytest.raises(ValueError):
        deactivate(grid, ((1,), (0,)))  # has an active child
    deactivate(grid, ((2,), (0,)))
    assert not contains(grid, ((2,), (0,)))
    assert is_leaf(grid, ((1,), (0,)))


def test_version_bumps_on_mutation_only():
    grid = AdaptiveGrid(1, 3)
    v = grid.version
    activate(grid, ((1,), (0,)))
    assert grid.version > v
    v = grid.version
    activate(grid, ((1,), (0,)))  # already active: no-op
    assert grid.version == v


def test_levels_view_flat_indices():
    grid = AdaptiveGrid(2, 3)
    activate(grid, ((2, 2), (1, 1)))
    # one mask per level, shaped by the level's cell counts
    assert grid.masks[(2, 2)].shape == (2, 2)
    assert sorted(grid.masks) == [(a, b) for a in range(3) for b in range(3)]
    # flat index of cell (1, 1) at level (2, 2) with 2 cells per dim
    assert np.flatnonzero(grid.masks[(2, 2)]).tolist() == [3]
    assert np.flatnonzero(grid.masks[(0, 0)]).tolist() == [0]


def test_dump_centers_layout():
    grid = AdaptiveGrid.sparse(2, 2)
    lines = grid.dump_centers()
    assert len(lines) == len(grid)
    first = lines[0].split()
    assert len(first) == 6  # two levels, two cells, two center coordinates
    assert first[:4] == ["0", "0", "0", "0"]
    assert float(first[4]) == 0.5 and float(first[5]) == 0.5


def closure(key):
    """Every ancestor of `key` and the key itself, by brute force per dimension."""
    chains = []
    for l, j in zip(*key):
        # the level-a ancestor of level-l cell j is cell j >> (l - a) (a >= 1)
        chains.append([(a, j >> (l - a) if a >= 1 else 0) for a in range(l + 1)])
    return {tuple(zip(*pairs)) for pairs in itertools.product(*chains)}


def model_children(model, key):
    """Active keys one level above `key` in one dimension, from the set alone."""
    return [
        k
        for k in model
        if sum(k[0]) == sum(key[0]) + 1 and key in closure(k)
    ]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mutations_match_key_set_model(data):
    ndim, n_max = 2, 4
    grid = AdaptiveGrid(ndim, n_max)
    root = ((0,) * ndim, (0,) * ndim)
    model = {root}
    for _ in range(data.draw(st.integers(1, 30))):
        version = grid.version
        if data.draw(st.booleans()):
            key = data.draw(valid_keys(ndim, n_max))
            activate(grid, key)
            changed = closure(key) - model
            model |= changed
        else:
            # mostly active keys; an inactive one is a leaf, so a no-op
            key = data.draw(
                st.one_of(st.sampled_from(sorted(model)), valid_keys(ndim, n_max))
            )
            changed = ()
            if key == root or model_children(model, key):
                with pytest.raises(ValueError):
                    deactivate(grid, key)
            else:
                deactivate(grid, key)
                if key in model:
                    model.discard(key)
                    changed = (key,)
        assert (grid.version > version) == bool(changed)
        assert contains(grid, key) == (key in model)
        assert grid_keys(grid) == sorted(model)
        assert len(grid) == len(model)
        for key in model:
            assert contains(grid, key)
            assert is_leaf(grid, key) == (not model_children(model, key))
        assert TensorSpace(grid).levels == sorted({lv for lv, _ in model})
