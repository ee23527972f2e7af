"""Indicator-driven grid refinement and coarsening."""

import numpy as np

from mrdg.adapt import coarsen, element_norms, refine
from mrdg.fastmv import TensorSpace, eval_on_lattice, project_separable
from mrdg.grids import AdaptiveGrid, children

from conftest import random_coeffs


def test_element_norms_are_per_element_rss():
    space = TensorSpace(AdaptiveGrid.sparse(2, 3))
    a = random_coeffs(space, (2, 2), 1)
    b = random_coeffs(space, (2, 2), 2)
    norms = element_norms(space, [a, b])
    lv = (1, 2)
    for c0 in range(space.masks[lv].shape[0]):
        for c1 in range(space.masks[lv].shape[1]):
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
            assert child in grid
    # zero detail everywhere else: nothing further to refine
    space2 = TensorSpace(grid)
    u2 = space2.conform(u)
    assert not refine(grid, space2, [u2], 0.5)


def test_refine_keeps_grid_downward_closed():
    grid = AdaptiveGrid.sparse(2, 4)
    space = TensorSpace(grid)
    u = random_coeffs(space, (2, 2), 3)
    refine(grid, space, [u], 1e-3)
    for key in list(grid):
        lv, cells = key
        for dim in range(2):
            if lv[dim] == 0:
                continue
            pl = list(lv)
            pc = list(cells)
            pl[dim] -= 1
            pc[dim] = 0 if pl[dim] == 0 else pc[dim] // 2
            assert (tuple(pl), tuple(pc)) in grid


def test_coarsen_removes_only_small_leaves_and_keeps_root():
    grid = AdaptiveGrid.full(2, 2)
    space = TensorSpace(grid)
    u = space.zeros((2, 2))
    u.data[(0, 0)][..., 0, 0] = 1.0  # only the root holds signal
    assert coarsen(grid, space, [u], 1e-8)
    assert list(grid) == [((0, 0), (0, 0))]
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
    assert ((2,), (0,)) in grid and ((2,), (1,)) in grid
    assert ((3,), (0,)) not in grid
    assert ((1,), (0,)) in grid  # ancestor of protected elements


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
