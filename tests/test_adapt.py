"""Indicator-driven grid refinement and coarsening."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrdg.adapt
from mrdg import grids, runner
from mrdg.adapt import coarsen, element_norms, refine
from mrdg.config import RunConfig
from mrdg.fastmv import TensorSpace, eval_on_lattice, project_separable
from mrdg.grids import AdaptiveGrid

from conftest import (
    activate,
    children,
    contains,
    grid_keys,
    key_coarsen,
    key_refine,
    level_norms,
    random_coeffs,
    random_pruning,
)


def test_element_norms_are_per_element_rss():
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    a = random_coeffs(space, (2, 2), 1)
    b = random_coeffs(space, (2, 2), 2)
    norms = space.layout.views(element_norms(space, [a, b]), ())
    lv = (1, 2)
    for c0 in range(norms[lv].shape[0]):
        for c1 in range(norms[lv].shape[1]):
            want = np.sqrt(
                np.sum(a.data[lv][c0, c1] ** 2) + np.sum(b.data[lv][c0, c1] ** 2)
            )
            assert abs(norms[lv][c0, c1] - want) < 1e-13


def test_refine_activates_children_of_flagged_elements():
    grid = AdaptiveGrid(2, 4)  # root only
    space = TensorSpace(grid)
    u = space.zeros((2, 2))
    u.data[(0, 0)][0, 0, 0, 0] = 1.0
    assert refine(grid, space, [u], 0.5)
    key = ((0, 0), (0, 0))
    for dim in range(2):
        for child in children(key, dim, 4):
            assert contains(grid, child)
    # zero detail everywhere else: nothing further to refine
    space2 = TensorSpace(grid)
    u2 = space2.conform(u)
    assert not refine(grid, space2, [u2], 0.5)


def test_refine_refuses_a_grid_over_the_coefficient_cap(monkeypatch):
    grid = AdaptiveGrid.sparse(2, 2, n_max=5)
    space = TensorSpace(grid)
    u = random_coeffs(space, (2, 2), 5)
    trial = copy.deepcopy(grid)
    assert refine(trial, space, [u], 0.0)
    need = 4 * TensorSpace(trial).layout.cells  # every cell of each level, 2 x 2 values
    monkeypatch.setattr(mrdg.adapt, "FULL_GRID_COEFFS", need)
    assert refine(copy.deepcopy(grid), space, [u], 0.0)  # exactly at the cap
    monkeypatch.setattr(mrdg.adapt, "FULL_GRID_COEFFS", need - 1)
    levels, keys, version = sorted(grid.masks), grid_keys(grid), grid.version
    with pytest.raises(MemoryError, match=f"needs {need} coefficients per field"):
        refine(grid, space, [u], 0.0)
    # refused before the refined grid is installed
    assert sorted(grid.masks) == levels
    assert grid_keys(grid) == keys
    assert grid.version == version


def test_refine_keeps_grid_downward_closed():
    grid = AdaptiveGrid.sparse(2, 4)
    space = TensorSpace(grid)
    u = random_coeffs(space, (2, 2), 3)
    refine(grid, space, [u], 1e-3)
    for key in grid_keys(grid):
        lv, cells = key
        for dim in range(2):
            if lv[dim] == 0:
                continue
            pl = list(lv)
            pc = list(cells)
            pl[dim] -= 1
            pc[dim] = 0 if pl[dim] == 0 else pc[dim] // 2
            assert contains(grid, (tuple(pl), tuple(pc)))


def test_coarsen_removes_only_small_leaves_and_keeps_root():
    grid = AdaptiveGrid.full(2, 2)
    space = TensorSpace(grid)
    u = space.zeros((2, 2))
    u.data[(0, 0)][..., 0, 0] = 1.0  # only the root holds signal
    assert coarsen(grid, space, [u], 1e-8)
    assert grid_keys(grid) == [((0, 0), (0, 0))]
    # a second pass finds nothing to do
    space2 = TensorSpace(grid)
    assert not coarsen(grid, space2, [space2.conform(u)], 1e-8)


def test_coarsen_cascades_through_exposed_parents():
    # signal only at the root: every deeper level empties in one call even
    # though interior elements only become leaves as their children go
    grid = AdaptiveGrid.full(1, 5)
    space = TensorSpace(grid)
    u = space.zeros((3,))
    u.data[(0,)][0, 0] = 2.0
    assert coarsen(grid, space, [u], 1e-10)
    assert len(grid) == 1


def test_coarsen_respects_protected_interior():
    # a large element below a small one must survive as a non-leaf while
    # its small children are dropped
    grid = AdaptiveGrid.full(1, 3)
    space = TensorSpace(grid)
    u = space.zeros((2,))
    u.data[(0,)][0, 0] = 1.0
    u.data[(2,)][:, 0] = 1.0  # both level-2 elements carry signal
    coarsen(grid, space, [u], 0.5)
    assert contains(grid, ((2,), (0,))) and contains(grid, ((2,), (1,)))
    assert not contains(grid, ((3,), (0,)))
    assert contains(grid, ((1,), (0,)))  # ancestor of protected elements


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_refine_adds_ancestors_several_layers_down(axis):
    # a chain of levels along one axis, refined at its top cell: the new
    # children along the other axes miss their ancestors down to level 0
    # there, three |l|_1 layers below them
    grid = AdaptiveGrid(3, 4)
    top = tuple(3 if m == axis else 0 for m in range(3))
    activate(grid, (top, (0, 0, 0)))
    space = TensorSpace(grid)
    u = space.zeros((2, 2, 2))
    u.data[top][0, 0, 0, 0, 0, 0] = 1.0
    fast, ref = copy.deepcopy(grid), copy.deepcopy(grid)
    assert refine(fast, space, [u], 0.5)
    assert key_refine(ref, space, level_norms(space, [u]), 0.5)
    same_grid(fast, ref)
    for m in range(3):
        if m != axis:
            low = tuple(int(j == m) for j in range(3))  # |l|_1 = 1
            assert not contains(grid, (low, (0, 0, 0))) and contains(fast, (low, (0, 0, 0)))


@pytest.mark.parametrize("d,n,keep", [(2, 3, ((2, 1), (1, 0))), (3, 2, ((1, 2, 0), (0, 1, 0)))])
def test_coarsen_cascades_over_layers_around_a_protected_interior(d, n, keep):
    # signal at the root and at one interior element of a full grid: every
    # other element goes, over all |l|_1 layers from d n down, while the
    # protected element keeps its ancestors and loses its children
    grid = AdaptiveGrid.full(d, n)
    space = TensorSpace(grid)
    u = space.zeros((2,) * d)
    u.data[(0,) * d][(0,) * (2 * d)] = 1.0
    u.data[keep[0]][keep[1] + (0,) * d] = 1.0
    fast, ref = copy.deepcopy(grid), copy.deepcopy(grid)
    assert coarsen(fast, space, [u], 0.5)
    assert key_coarsen(ref, space, level_norms(space, [u]), 0.5)
    same_grid(fast, ref)
    left = grid_keys(fast)
    assert keep in left and max(sum(lv) for lv, _ in left) == sum(keep[0])
    assert d * n - sum(keep[0]) >= 3  # the cascade empties three layers or more


ADAPT2D = {  # the benchmark's adaptive workload
    "problem": "cosine-periodic", "ndim": "2", "k": "3", "m": "4", "n": "8",
    "mode": "adaptive", "eps": "1e-4", "t_final": "0.02",
}


def test_adaptive_run_builds_each_level_lists_cell_tables_once(monkeypatch):
    grids.level_layout.cache_clear()  # layouts other tests built hold their tables
    built = []
    cell_tables = grids._cell_tables

    def counted(layout, n_max):
        built.append((layout.levels, n_max))
        return cell_tables(layout, n_max)

    monkeypatch.setattr(grids, "_cell_tables", counted)
    runner.run(RunConfig.from_mapping(ADAPT2D))
    assert len(set(built)) >= 3
    assert len(built) == len(set(built))


def test_initial_adaptive_grid_projects_each_grid_once(monkeypatch):
    # the last grid of the refinement loop is the one returned: its space
    # and projected state are reused, not built again
    versions = []
    initial_state = runner.initial_state

    def counted(space, *args):
        versions.append(space.version)
        return initial_state(space, *args)

    monkeypatch.setattr(runner, "initial_state", counted)
    cfg = RunConfig.from_mapping(ADAPT2D)
    grid, space, _state = runner.initial_adaptive_grid(cfg, runner.make_problem(cfg.problem, 2))
    assert len(versions) >= 2
    assert len(versions) == len(set(versions))
    assert versions[-1] == space.version == grid.version


def same_grid(a: AdaptiveGrid, b: AdaptiveGrid) -> None:
    assert sorted(a.masks) == sorted(b.masks)
    for lv, mask in a.masks.items():
        np.testing.assert_array_equal(mask, b.masks[lv], err_msg=str(lv))
    assert a.version == b.version


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 2**16),
    st.floats(-5, 1),
    st.floats(-5, 1),
)
@settings(max_examples=150, deadline=None)
def test_mask_regrid_matches_key_by_key_reference(d, p, seed, log_eps, log_eta):
    # whole-array refine and coarsen against the one-element-at-a-time model,
    # on random grids with indicators spread over several decades
    n = {1: 5, 2: 4, 3: 3}[d]
    grid = random_pruning(d, n, seed)
    space = TensorSpace(grid)
    rng = np.random.default_rng(seed)
    fields = []
    for i in range(2):
        f = random_coeffs(space, (p,) * d, seed + i)
        f.buf.reshape(space.layout.cells, -1)[...] *= 10.0 ** rng.uniform(
            -5, 0, (space.layout.cells, 1)
        )
        fields.append(f)
    norms = level_norms(space, fields)
    got_norms = space.layout.views(element_norms(space, fields), ())
    assert list(got_norms) == space.levels
    for lv in space.levels:
        np.testing.assert_array_equal(got_norms[lv], norms[lv])
    eps, eta = 10.0**log_eps, 10.0**log_eta

    fast, ref = copy.deepcopy(grid), copy.deepcopy(grid)
    assert refine(fast, space, fields, eps) == key_refine(ref, space, norms, eps)
    same_grid(fast, ref)
    # coarsen the refined grid as a run does: new cells hold zero details
    space2 = TensorSpace(fast)
    moved = [space2.conform(f) for f in fields]
    norms2 = level_norms(space2, moved)
    assert coarsen(fast, space2, moved, eta) == key_coarsen(ref, space2, norms2, eta)
    same_grid(fast, ref)

    fast, ref = copy.deepcopy(grid), copy.deepcopy(grid)
    assert coarsen(fast, space, fields, eta) == key_coarsen(ref, space, norms, eta)
    same_grid(fast, ref)


def gaussian(x):
    return np.exp(-200.0 * (x - 0.5) ** 2)


def test_refinement_loop_compresses_a_gaussian():
    k, n, eps = 2, 6, 1e-4
    grid = AdaptiveGrid.sparse(2, n)
    for _ in range(n + 1):
        space = TensorSpace(grid)
        u = project_separable(space, [(gaussian, gaussian)], k, n)
        if not refine(grid, space, [u], eps):
            break
    space = TensorSpace(grid)
    u = project_separable(space, [(gaussian, gaussian)], k, n)
    coarsen(grid, space, [u], eps / 10.0)
    space = TensorSpace(grid)
    u = space.conform(u)

    full_dof = TensorSpace(AdaptiveGrid.full(2, n)).dof_count((k + 1, k + 1))
    assert space.dof_count((k + 1, k + 1)) < 0.2 * full_dof

    pts = np.linspace(0.013, 0.987, 40)
    got = eval_on_lattice(space, u, k, n, [pts, pts])
    want = np.outer(gaussian(pts), gaussian(pts))
    assert np.max(np.abs(got - want)) < 50 * eps
